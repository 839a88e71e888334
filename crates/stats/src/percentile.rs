//! Nearest-rank percentile selection.
//!
//! The workspace previously computed percentiles with a linear-index
//! rounding formula (`round((n-1)·p)`), which reports a too-low p99 on
//! small sample sets — for 100 samples it selects the 99th-smallest
//! value instead of the 100th. The canonical *nearest-rank* definition
//! used here is `rank = ⌈p·n⌉` (1-based) over the sorted **full** sample
//! set. The daemon keeps no raw samples (its latency view is the
//! log-bucket histogram); this is the exact definition the clients that
//! do hold every round-trip sample — `msmr-admit --replay` (its summary
//! line and `--json`) — call directly, and the reference
//! `tests/histo_props.rs` holds the histogram estimates to.

/// Returns the nearest-rank `p`-th percentile (`p` in `0.0..=1.0`) of
/// the sample set, or `0.0` when it is empty. The slice does not need
/// to be sorted; the full set participates (no truncation, no
/// interpolation).
#[must_use]
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_yields_zero() {
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn nearest_rank_is_the_ceiling_rank_on_the_full_set() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 1..=100 is the 99th-ranked value under nearest-rank.
        assert_eq!(nearest_rank(&samples, 0.99), 99.0);
        // p100 selects the maximum — the old round((n-1)p) formula
        // already did, but via the clamp, not the definition.
        assert_eq!(nearest_rank(&samples, 1.0), 100.0);
        assert_eq!(nearest_rank(&samples, 0.50), 50.0);
        // p0 selects the minimum (rank clamps to 1).
        assert_eq!(nearest_rank(&samples, 0.0), 1.0);
    }

    #[test]
    fn unsorted_input_and_small_sets() {
        assert_eq!(nearest_rank(&[30.0, 10.0, 20.0], 0.5), 20.0);
        assert_eq!(nearest_rank(&[30.0, 10.0, 20.0], 0.99), 30.0);
        assert_eq!(nearest_rank(&[7.5], 0.99), 7.5);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(nearest_rank(&[1.0, 2.0], 2.0), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0], -1.0), 1.0);
    }
}
