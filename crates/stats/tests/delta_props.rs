//! Property suite pinning the streaming-delta merge contract: for any
//! op sequence driven through a live [`StatsRegistry`] and any snapshot
//! cadence, folding `apply` over the frames `diff(Sᵢ, Sᵢ₊₁)` — after a
//! JSON round-trip, exactly as the wire does it — reproduces **every**
//! intermediate snapshot byte-for-byte: counters, gauges, per-bucket
//! histogram counts, solver rows and session tables alike. Applying any
//! *prefix* of the stream therefore yields the server's snapshot at
//! that point, which is the guarantee `msmr-top`'s streaming mode and
//! the smoke scripts' `--check-stream` lean on. Per-op latency travels
//! as bucket increments only, so the suite also pins that a streamed
//! fold, a tier merge and the constructor agree on every derived field.

use msmr_stats::delta::{apply, diff, StatsDelta};
use msmr_stats::{
    percentile_from_counts, OpLatency, SessionRow, StatsRegistry, StatsSnapshot, HISTO_BUCKETS,
};
use proptest::prelude::*;

/// One recordable op: `(selector, micros)` where the selector picks the
/// registry seam and `micros` feeds its latency sample (ignored by the
/// latency-less seams).
fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..10, 0u64..100_000_000), 0..40)
}

fn drive(stats: &StatsRegistry, op: u8, micros: u64) {
    match op {
        0 => stats.record_admit_for(None, None, true, micros),
        1 => stats.record_admit_for(None, None, false, micros),
        2 => stats.record_withdraw_for(None, None, micros),
        3 => stats.record_submit_for(None, micros),
        4 => stats.record_overload_for(None),
        5 => stats.record_eviction_for(None),
        6 => stats.record_snapshot_write_for(None),
        7 => stats.record_snapshot_quarantine_for(None),
        8 => stats.record_dedup_for(None, None),
        _ => stats.client_attached(),
    }
}

/// Bucket-count vectors as a snapshot could carry them: any length up
/// to the bucket count, zeros anywhere (trailing ones included).
fn buckets() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_000, 0..HISTO_BUCKETS)
}

/// Overlays the gauges and session rows an engine would layer on top of
/// the registry snapshot, so the absolute (non-monotonic) parts of the
/// delta are exercised too.
fn overlay(mut snapshot: StatsSnapshot, depth: u64, sessions: u64) -> StatsSnapshot {
    snapshot.gauges.queue_depth = depth;
    snapshot.gauges.live_sessions = sessions;
    snapshot.gauges.sessions_per_shard = vec![sessions, depth % 3];
    snapshot.sessions = (0..sessions)
        .map(|i| SessionRow {
            name: format!("tenant-{i}"),
            jobs: depth + i,
            version: i * 2,
            attached: u64::from(i == 0),
        })
        .collect();
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The merge contract: baseline ⊕ deltas ≡ fresh snapshot, at every
    /// prefix of the stream.
    #[test]
    fn baseline_plus_any_delta_prefix_reproduces_the_snapshot(
        batches in proptest::collection::vec(ops(), 1..8),
        depths in proptest::collection::vec((0u64..50, 0u64..4), 9),
    ) {
        let stats = StatsRegistry::new();
        let mut snapshots = Vec::new();
        let (d0, s0) = depths[0];
        snapshots.push(overlay(stats.snapshot(), d0, s0));
        for (i, batch) in batches.iter().enumerate() {
            for &(op, micros) in batch {
                drive(&stats, op, micros);
            }
            let (d, s) = depths[(i + 1) % depths.len()];
            snapshots.push(overlay(stats.snapshot(), d, s));
        }

        let mut folded = snapshots[0].clone();
        for window in snapshots.windows(2) {
            let frame = diff(&window[0], &window[1]);
            // Round-trip the frame through JSON exactly as the side
            // channel transports it.
            let json = serde_json::to_string(&frame).expect("frames serialize");
            let frame: StatsDelta = serde_json::from_str(&json).expect("frames parse");
            folded = apply(&folded, &frame);
            prop_assert_eq!(
                &folded,
                &window[1],
                "folded stream diverged from the live snapshot"
            );
        }
    }

    /// Deltas between identical snapshots are quiescent and folding
    /// them is the identity — the signal `--check-stream` keys off.
    #[test]
    fn identical_snapshots_yield_quiescent_identity_deltas(
        batch in ops(),
        depth in 0u64..50,
        sessions in 0u64..4,
    ) {
        let stats = StatsRegistry::new();
        for &(op, micros) in &batch {
            drive(&stats, op, micros);
        }
        let snapshot = overlay(stats.snapshot(), depth, sessions);
        let frame = diff(&snapshot, &snapshot);
        prop_assert!(frame.is_quiescent());
        prop_assert_eq!(apply(&snapshot, &frame), snapshot);
    }

    /// One summary, three routes: streaming `next` as a delta onto
    /// `base`, merging two backends' summaries, and building from the
    /// summed counts all yield the same [`OpLatency`] — whose derived
    /// fields are the ones its own buckets give.
    #[test]
    fn delta_fold_tier_merge_and_constructor_agree((a, b) in (buckets(), buckets())) {
        let summed: Vec<u64> = (0..a.len().max(b.len()))
            .map(|i| a.get(i).copied().unwrap_or(0) + b.get(i).copied().unwrap_or(0))
            .collect();
        let expected = OpLatency::from_counts(summed.clone());
        prop_assert_eq!(expected.samples, summed.iter().sum::<u64>());
        prop_assert_eq!(expected.histo_p50_us, percentile_from_counts(&summed, 0.50));
        prop_assert_eq!(expected.histo_p99_us, percentile_from_counts(&summed, 0.99));

        let mut merged = OpLatency::from_counts(a.clone());
        merged.absorb(&OpLatency::from_counts(b));
        prop_assert_eq!(&merged, &expected);

        let mut base = StatsSnapshot::default();
        base.ops.insert("admit".into(), OpLatency::from_counts(a));
        let mut next = StatsSnapshot::default();
        next.ops.insert("admit".into(), expected.clone());
        let frame = diff(&base, &next);
        prop_assert_eq!(&apply(&base, &frame).ops["admit"], &expected);
    }
}
