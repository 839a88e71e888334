//! Streaming stats deltas for the `--stats-addr` side channel.
//!
//! A polling dashboard re-serializes the entire [`StatsSnapshot`] per
//! poll. The streaming mode instead sends one full snapshot as a
//! baseline and then periodic [`StatsDelta`] frames, each carrying only
//! what moved: counter *increments*, absolute gauge values, per-op
//! per-bucket histogram *increments*, per-solver row increments, and
//! the session table as a wholesale replacement (rows are tiny and
//! churn structurally).
//!
//! The merge contract — pinned by proptest in `tests/delta_props.rs` —
//! is exact reconstruction: for snapshots `S₀ … Sₙ` taken from one
//! daemon, folding `apply` over the deltas `diff(Sᵢ, Sᵢ₊₁)` reproduces
//! every intermediate snapshot *byte-for-byte* (`S₀ ⊕ d₁ ⊕ … ⊕ dᵢ ≡
//! Sᵢ`), because every incremental field in the model is monotonic
//! (counters, histogram buckets, solver work tallies), everything
//! non-monotonic (gauges, session rows) travels as absolute values, and
//! what derives from the buckets (sample totals, percentiles) is
//! rebuilt from them by [`OpLatency::from_counts`], not shipped.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::model::{OpLatency, SessionRow, SolverRow, StatsCounters, StatsGauges, StatsSnapshot};

/// Per-op latency delta: bucket increments only — the receiving side
/// rebuilds the sample total and the percentiles from the summed
/// buckets.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpLatencyDelta {
    /// Per-bucket histogram increments, indexed like
    /// [`OpLatency::histo_buckets`] and trimmed to the *new* trimmed
    /// length (bucket counts only grow, so the trimmed prefix only
    /// extends).
    pub histo_buckets: Vec<u64>,
}

/// One frame of the streaming side channel.
///
/// `counters`, `ops` and `solvers` carry increments (reusing
/// [`StatsCounters`] / [`SolverRow`] — every field is a monotonic
/// tally, so the increment has the same shape as the total); `gauges`
/// and `sessions` carry absolute state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsDelta {
    /// Counter increments since the previous frame.
    pub counters: StatsCounters,
    /// Absolute gauge values at this frame.
    pub gauges: StatsGauges,
    /// Per-op latency deltas (every op present in the new snapshot).
    pub ops: BTreeMap<String, OpLatencyDelta>,
    /// Per-solver row increments (every solver present in the new
    /// snapshot; a solver's first appearance is its full row).
    pub solvers: BTreeMap<String, SolverRow>,
    /// The session table at this frame, replacing the previous one.
    pub sessions: Vec<SessionRow>,
}

impl StatsDelta {
    /// Whether this frame carries no monotonic progress: no counter,
    /// sample or solver increments. Gauges and sessions may still have
    /// moved; callers using this as a quiescence signal should compare
    /// the folded snapshot against a fresh one.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.counters == StatsCounters::default()
            && self
                .ops
                .values()
                .all(|op| op.histo_buckets.iter().all(|&inc| inc == 0))
            && self
                .solvers
                .values()
                .all(|row| *row == SolverRow::default())
    }
}

fn diff_counters(prev: &StatsCounters, next: &StatsCounters) -> StatsCounters {
    StatsCounters {
        admits: next.admits.saturating_sub(prev.admits),
        rejects: next.rejects.saturating_sub(prev.rejects),
        withdraws: next.withdraws.saturating_sub(prev.withdraws),
        submits: next.submits.saturating_sub(prev.submits),
        warm_decides: next.warm_decides.saturating_sub(prev.warm_decides),
        cold_decides: next.cold_decides.saturating_sub(prev.cold_decides),
        implied_decides: next.implied_decides.saturating_sub(prev.implied_decides),
        overloads: next.overloads.saturating_sub(prev.overloads),
        evictions: next.evictions.saturating_sub(prev.evictions),
        snapshot_writes: next.snapshot_writes.saturating_sub(prev.snapshot_writes),
        trace_spans: next.trace_spans.saturating_sub(prev.trace_spans),
        snapshot_quarantined: next
            .snapshot_quarantined
            .saturating_sub(prev.snapshot_quarantined),
        deduped_ops: next.deduped_ops.saturating_sub(prev.deduped_ops),
    }
}

fn diff_solver(prev: &SolverRow, next: &SolverRow) -> SolverRow {
    SolverRow {
        verdicts: next.verdicts.saturating_sub(prev.verdicts),
        accepted: next.accepted.saturating_sub(prev.accepted),
        warm: next.warm.saturating_sub(prev.warm),
        cold: next.cold.saturating_sub(prev.cold),
        implied: next.implied.saturating_sub(prev.implied),
        sdca_calls: next.sdca_calls.saturating_sub(prev.sdca_calls),
        nodes_explored: next.nodes_explored.saturating_sub(prev.nodes_explored),
        elapsed_micros: next.elapsed_micros.saturating_sub(prev.elapsed_micros),
    }
}

fn diff_buckets(prev: &[u64], next: &[u64]) -> Vec<u64> {
    next.iter()
        .enumerate()
        .map(|(i, &n)| n.saturating_sub(prev.get(i).copied().unwrap_or(0)))
        .collect()
}

/// Computes the delta frame turning `prev` into `next`.
#[must_use]
pub fn diff(prev: &StatsSnapshot, next: &StatsSnapshot) -> StatsDelta {
    let empty_op = OpLatency::default();
    let ops = next
        .ops
        .iter()
        .map(|(name, op)| {
            let before = prev.ops.get(name).unwrap_or(&empty_op);
            (
                name.clone(),
                OpLatencyDelta {
                    histo_buckets: diff_buckets(&before.histo_buckets, &op.histo_buckets),
                },
            )
        })
        .collect();
    let empty_row = SolverRow::default();
    let solvers = next
        .solvers
        .iter()
        .map(|(name, row)| {
            let before = prev.solvers.get(name).unwrap_or(&empty_row);
            (name.clone(), diff_solver(before, row))
        })
        .collect();
    StatsDelta {
        counters: diff_counters(&prev.counters, &next.counters),
        gauges: next.gauges.clone(),
        ops,
        solvers,
        sessions: next.sessions.clone(),
    }
}

/// Applies one delta frame to a base snapshot, producing the next one.
///
/// With `delta = diff(base, next)` over snapshots of one live daemon,
/// the result equals `next` exactly — the merge contract the proptest
/// pins. Ops and solvers absent from the frame are carried over
/// unchanged (maps never shrink in the model).
#[must_use]
pub fn apply(base: &StatsSnapshot, delta: &StatsDelta) -> StatsSnapshot {
    let mut next = base.clone();
    next.counters.absorb(&delta.counters);
    for (name, inc) in &delta.ops {
        let inc = OpLatency::from_counts(inc.histo_buckets.clone());
        next.ops.entry(name.clone()).or_default().absorb(&inc);
    }
    for (name, inc) in &delta.solvers {
        next.solvers.entry(name.clone()).or_default().absorb(inc);
    }
    next.gauges = delta.gauges.clone();
    next.sessions = delta.sessions.clone();
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OpLatency;

    fn snapshot_with(admits: u64, buckets: Vec<u64>) -> StatsSnapshot {
        let mut snapshot = StatsSnapshot::default();
        snapshot.counters.admits = admits;
        snapshot
            .ops
            .insert("admit".into(), OpLatency::from_counts(buckets));
        snapshot
    }

    #[test]
    fn diff_then_apply_reproduces_the_next_snapshot() {
        let prev = snapshot_with(3, vec![1, 2]);
        let mut next = snapshot_with(7, vec![1, 3, 2]);
        next.gauges.queue_depth = 4;
        next.solvers.insert(
            "OPDCA".into(),
            SolverRow {
                verdicts: 5,
                accepted: 4,
                warm: 5,
                ..SolverRow::default()
            },
        );
        next.sessions.push(SessionRow {
            name: "t".into(),
            jobs: 2,
            version: 9,
            attached: 1,
        });
        let delta = diff(&prev, &next);
        assert_eq!(delta.counters.admits, 4);
        assert_eq!(delta.ops["admit"].histo_buckets, vec![0, 1, 2]);
        assert_eq!(delta.solvers["OPDCA"].verdicts, 5);
        assert_eq!(apply(&prev, &delta), next);
    }

    #[test]
    fn identity_delta_is_quiescent_and_applies_to_itself() {
        let snap = snapshot_with(5, vec![0, 5]);
        let delta = diff(&snap, &snap);
        assert!(delta.is_quiescent());
        assert_eq!(apply(&snap, &delta), snap);
    }

    #[test]
    fn nonquiescent_delta_is_detected() {
        let prev = snapshot_with(5, vec![0, 5]);
        let next = snapshot_with(6, vec![0, 6]);
        assert!(!diff(&prev, &next).is_quiescent());
    }

    #[test]
    fn delta_round_trips_with_unknown_field_tolerance() {
        let prev = snapshot_with(1, vec![1]);
        let next = snapshot_with(4, vec![2, 1]);
        let delta = diff(&prev, &next);
        let json = serde_json::to_string(&delta).expect("deltas serialize");
        let parsed: StatsDelta = serde_json::from_str(&json).expect("deltas parse");
        assert_eq!(parsed, delta);
        // Forward compatibility: a frame from a newer daemon with extra
        // top-level fields still parses into the fields we know.
        let extended = json.replacen('{', "{\"future\":123,", 1);
        let parsed: StatsDelta = serde_json::from_str(&extended).expect("unknown fields ignored");
        assert_eq!(parsed, delta);
    }
}
