//! Property suite for the log-bucket latency histograms: bucket
//! boundaries, merge additivity, serde round-trips of the snapshot
//! form, the tier merge of snapshot summaries, and the headline
//! accuracy contract — the histogram's percentile estimates agree with
//! the exact nearest-rank percentiles of the raw samples to within one
//! log bucket.

use msmr_stats::{
    bucket_bounds, bucket_index, nearest_rank, percentile_from_counts, LatencyHisto, OpLatency,
    HISTO_BUCKETS,
};
use proptest::prelude::*;

/// Latency samples spanning sub-microsecond blips to multi-minute
/// stalls (the interesting log-bucket range).
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..100_000_000, 1..200)
}

/// Bucket-count vectors as a snapshot could carry them: any length up
/// to the bucket count, zeros anywhere (trailing ones included).
fn buckets() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_000, 0..HISTO_BUCKETS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sample lands in the bucket whose bounds contain it, and
    /// the bucket partition has no gaps or overlaps.
    #[test]
    fn bucket_boundaries_contain_their_samples(micros in 0u64..=u64::MAX) {
        let index = bucket_index(micros);
        prop_assert!(index < HISTO_BUCKETS);
        let (lower, upper) = bucket_bounds(index);
        prop_assert!(lower <= micros);
        // The last bucket's upper bound is inclusive at u64::MAX.
        prop_assert!(micros < upper || index == HISTO_BUCKETS - 1);
        if index > 0 {
            let (_, previous_upper) = bucket_bounds(index - 1);
            prop_assert_eq!(previous_upper, lower, "buckets tile without gaps");
        }
    }

    /// Recording splits samples across buckets without losing any, and
    /// merging two histograms is count-wise addition.
    #[test]
    fn merge_is_bucketwise_addition((a, b) in (samples(), samples())) {
        let left = LatencyHisto::new();
        let right = LatencyHisto::new();
        for &v in &a {
            left.record(v);
        }
        for &v in &b {
            right.record(v);
        }
        prop_assert_eq!(left.total(), a.len() as u64);
        prop_assert_eq!(right.total(), b.len() as u64);

        let both = LatencyHisto::new();
        for &v in a.iter().chain(&b) {
            both.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.counts(), both.counts());
        prop_assert_eq!(left.total(), (a.len() + b.len()) as u64);
    }

    /// The serializable [`OpLatency`] carrying the trimmed bucket
    /// counts round-trips through JSON, and the trimmed form computes
    /// the same percentiles as the live histogram.
    #[test]
    fn snapshot_form_round_trips_and_preserves_percentiles(values in samples()) {
        let histo = LatencyHisto::new();
        for &v in &values {
            histo.record(v);
        }
        let lat = OpLatency::from_counts(histo.counts());
        prop_assert_eq!(lat.samples, histo.total());
        prop_assert_eq!(lat.histo_p50_us, histo.percentile_us(0.50));
        prop_assert_eq!(lat.histo_p99_us, histo.percentile_us(0.99));
        let json = serde_json::to_string(&lat).expect("op latency serializes");
        let parsed: OpLatency = serde_json::from_str(&json).expect("op latency parses");
        prop_assert_eq!(&parsed, &lat);
        prop_assert_eq!(
            percentile_from_counts(&parsed.histo_buckets, 0.50),
            lat.histo_p50_us
        );
        prop_assert_eq!(
            percentile_from_counts(&parsed.histo_buckets, 0.99),
            lat.histo_p99_us
        );
    }

    /// One summary, two routes: merging two backends' summaries (the
    /// router's tier merge) and building from the summed counts yield
    /// the same [`OpLatency`] — whose derived fields are the ones its
    /// own buckets give.
    #[test]
    fn tier_merge_and_constructor_agree((a, b) in (buckets(), buckets())) {
        let summed: Vec<u64> = (0..a.len().max(b.len()))
            .map(|i| a.get(i).copied().unwrap_or(0) + b.get(i).copied().unwrap_or(0))
            .collect();
        let expected = OpLatency::from_counts(summed.clone());
        prop_assert_eq!(expected.samples, summed.iter().sum::<u64>());
        prop_assert_eq!(expected.histo_p50_us, percentile_from_counts(&summed, 0.50));
        prop_assert_eq!(expected.histo_p99_us, percentile_from_counts(&summed, 0.99));

        let mut merged = OpLatency::from_counts(a);
        merged.absorb(&OpLatency::from_counts(b));
        prop_assert_eq!(&merged, &expected);
    }

    /// The accuracy contract: the histogram's p50/p90/p99 estimates
    /// sit in the same log bucket as the exact nearest-rank percentiles
    /// of the raw samples — within one bucket, i.e. a bounded ≤2× value
    /// error.
    #[test]
    fn histogram_percentiles_agree_with_the_ring_within_one_bucket(values in samples()) {
        let histo = LatencyHisto::new();
        for &v in &values {
            histo.record(v);
        }
        let raw: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for p in [0.50, 0.90, 0.99] {
            let exact = nearest_rank(&raw, p);
            let estimate = histo.percentile_us(p);
            let exact_bucket = bucket_index(exact as u64);
            let estimate_bucket = bucket_index(estimate as u64);
            prop_assert!(
                exact_bucket.abs_diff(estimate_bucket) <= 1,
                "p{}: exact {exact} (bucket {exact_bucket}) vs estimate {estimate} \
                 (bucket {estimate_bucket})",
                p * 100.0
            );
            // The estimate never undershoots its own bucket: it is the
            // inclusive upper edge of the bucket the rank landed in.
            prop_assert!(estimate >= exact.floor() || estimate_bucket == exact_bucket);
        }
    }
}
