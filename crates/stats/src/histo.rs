//! Fixed-size log-bucket latency histograms.
//!
//! The daemon's one latency view per op: the histogram answers
//! "what does the whole distribution look like since boot" in O(64)
//! space no matter how many samples land. Buckets are powers of two
//! over microseconds — bucket `i` holds samples whose bit length is
//! `i`, i.e. `[2^(i-1), 2^i)` µs, with bucket 0 for sub-microsecond
//! (`0`) samples and the last bucket absorbing everything above
//! `2^62` µs — so one cache line of counters spans nanosecond blips to
//! multi-hour stalls with bounded (±1 bucket, i.e. ≤2×) value error.
//!
//! Recording is a single relaxed `fetch_add`; merging and snapshotting
//! are plain bucket sums, which makes per-shard histograms foldable
//! into a daemon-wide one without locks.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of pow-2 buckets. 64 covers the full `u64` microsecond range.
pub const HISTO_BUCKETS: usize = 64;

/// A fixed-size, atomic, mergeable log-bucket latency histogram over
/// microsecond samples.
///
/// It never forgets: counts are monotonic since creation, so
/// percentile estimates reflect the full lifetime distribution. The
/// estimate returned for a percentile is the *inclusive upper edge* of
/// the bucket the nearest-rank sample landed in (`2^i - 1` µs for
/// bucket `i`), which keeps the estimate inside the same bucket as the
/// exact nearest-rank sample (pinned by `tests/histo_props.rs`).
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: Vec<AtomicU64>,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket a microsecond sample lands in: its bit length, clamped
/// to the last bucket. `0` → bucket 0; `[2^(i-1), 2^i)` → bucket `i`.
#[must_use]
pub fn bucket_index(micros: u64) -> usize {
    ((u64::BITS - micros.leading_zeros()) as usize).min(HISTO_BUCKETS - 1)
}

/// The half-open `[lower, upper)` microsecond range of bucket `index`
/// (the last bucket's upper bound is `u64::MAX`).
///
/// # Panics
///
/// Panics when `index >= HISTO_BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HISTO_BUCKETS, "bucket index out of range");
    match index {
        0 => (0, 1),
        63 => (1 << 62, u64::MAX),
        i => (1 << (i - 1), 1 << i),
    }
}

impl LatencyHisto {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHisto {
            buckets: (0..HISTO_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one latency sample in microseconds.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded (monotonic).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Adds every bucket of `other` into `self` — folding per-shard
    /// histograms into an aggregate.
    pub fn merge(&self, other: &LatencyHisto) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let count = theirs.load(Ordering::Relaxed);
            if count > 0 {
                mine.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// Point-in-time copy of the bucket counts, trimmed after the last
    /// non-empty bucket (an empty histogram yields an empty vec). The
    /// trimmed form is what the serializable [`crate::OpLatency`]
    /// carries — bucket `i` of the snapshot is still bucket `i` of the
    /// histogram.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let used = counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |last| last + 1);
        counts.truncate(used);
        counts
    }

    /// Nearest-rank percentile estimate in microseconds: the inclusive
    /// upper edge of the bucket holding the rank-`⌈p·n⌉` sample
    /// (`0.0` when empty). See [`percentile_from_counts`].
    #[must_use]
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile_from_counts(&self.counts(), p)
    }
}

/// Element-wise sum of two (possibly trimmed) bucket-count vectors,
/// as long as the longer one — bucket `i` is bucket `i` on every
/// daemon, so this is how histograms merge across backends.
pub(crate) fn add_counts(base: &[u64], inc: &[u64]) -> Vec<u64> {
    let len = base.len().max(inc.len());
    (0..len)
        .map(|i| base.get(i).copied().unwrap_or(0) + inc.get(i).copied().unwrap_or(0))
        .collect()
}

/// Nearest-rank percentile estimate over (possibly trimmed) log-bucket
/// counts, as produced by [`LatencyHisto::counts`]: walks the
/// cumulative counts to the bucket containing the rank-`⌈p·n⌉` sample
/// and returns that bucket's inclusive upper edge (`2^i - 1` µs), so
/// the estimate lies in the same bucket as the true sample. `0.0` when
/// the histogram is empty.
#[must_use]
pub fn percentile_from_counts(counts: &[u64], p: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            let (_, upper) = bucket_bounds(i.min(HISTO_BUCKETS - 1));
            return (upper - 1) as f64;
        }
    }
    // Unreachable: the cumulative sum reaches `total >= rank`.
    (u64::MAX - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_follows_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index((1 << 62) - 1), 62);
    }

    #[test]
    fn bounds_and_index_are_consistent() {
        for index in 0..HISTO_BUCKETS {
            let (lower, upper) = bucket_bounds(index);
            assert!(lower < upper);
            assert_eq!(bucket_index(lower), index);
            assert_eq!(bucket_index(upper - 1), index);
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let histo = LatencyHisto::new();
        assert_eq!(histo.total(), 0);
        assert!(histo.counts().is_empty());
        assert_eq!(histo.percentile_us(0.99), 0.0);
    }

    #[test]
    fn counts_trim_after_the_last_nonempty_bucket() {
        let histo = LatencyHisto::new();
        histo.record(0); // bucket 0
        histo.record(5); // bucket 3
        let counts = histo.counts();
        assert_eq!(counts, vec![1, 0, 0, 1]);
        assert_eq!(histo.total(), 2);
    }

    #[test]
    fn percentiles_land_in_the_sample_bucket() {
        let histo = LatencyHisto::new();
        for v in [50u64, 70, 90, 1500] {
            histo.record(v);
        }
        // p50 rank 2 → sample 70 (bucket 7, [64,128)); estimate = 127.
        assert_eq!(histo.percentile_us(0.50), 127.0);
        assert_eq!(bucket_index(histo.percentile_us(0.50) as u64), 7);
        // p99 rank 4 → sample 1500 (bucket 11, [1024,2048)).
        assert_eq!(histo.percentile_us(0.99), 2047.0);
    }

    #[test]
    fn merge_adds_bucket_counts() {
        let a = LatencyHisto::new();
        let b = LatencyHisto::new();
        a.record(10);
        b.record(10);
        b.record(100_000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts()[bucket_index(10)], 2);
        assert_eq!(a.counts()[bucket_index(100_000)], 1);
        // The source is unchanged.
        assert_eq!(b.total(), 2);
    }

    #[test]
    fn concurrent_recording_never_loses_samples() {
        let histo = std::sync::Arc::new(LatencyHisto::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let histo = std::sync::Arc::clone(&histo);
                scope.spawn(move || {
                    for i in 0..250u64 {
                        histo.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(histo.total(), 1000);
    }
}
