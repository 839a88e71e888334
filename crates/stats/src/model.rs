//! The serde-serializable metrics model.
//!
//! [`StatsSnapshot`] is the single point-in-time view both stats
//! surfaces serve — the protocol-v4 `stats` op and the `--stats-addr`
//! side channel — and what `msmr-top` renders. Counters are monotonic
//! since daemon boot; gauges are sampled at snapshot time by whichever
//! layer owns them (the cluster engine fills per-shard session counts
//! and worker-queue depth; a bare registry snapshot leaves them at their
//! defaults); every latency field derives from one copy of its op's
//! log-bucket histogram ([`OpLatency::from_counts`]).
//!
//! Every type here (de)serializes through the vendored serde, so maps
//! are `BTreeMap` (deterministic key order on the wire) and optional
//! fields round-trip as explicit `null`s like the rest of the protocol.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::histo::add_counts;

/// Monotonic event counters since daemon boot.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsCounters {
    /// Accepted admissions.
    pub admits: u64,
    /// Rejected admissions.
    pub rejects: u64,
    /// Successful withdrawals.
    pub withdraws: u64,
    /// Session (re)submissions.
    pub submits: u64,
    /// Solver verdicts produced by a solver's online seam (no provenance
    /// marker; OPDCA is the only solver with one). This counts the path,
    /// not the work: a seam verdict that decided cold — every OPDCA
    /// withdraw, the first admit after a snapshot restore — counts here
    /// too.
    pub warm_decides: u64,
    /// Solver verdicts produced by the registry's cold adapter for a
    /// solver without an online seam — DM, DMR, DCMP and the exact
    /// engines (`cold_fallback` provenance).
    pub cold_decides: u64,
    /// Solver verdicts synthesized through an implication shortcut.
    pub implied_decides: u64,
    /// Requests refused with a typed `Overload` frame.
    pub overloads: u64,
    /// Sessions evicted by the TTL reaper.
    pub evictions: u64,
    /// Session snapshots written to the snapshot store.
    pub snapshot_writes: u64,
    /// Spans exported to the trace-event writer.
    pub trace_spans: u64,
    /// Corrupt snapshot files quarantined (renamed to `.corrupt`)
    /// instead of aborting daemon boot.
    pub snapshot_quarantined: u64,
    /// Replayed admit/withdraw ops acknowledged by seq-dedupe without
    /// being re-applied (the client resumed after a reconnect and
    /// re-issued an op the session had already decided).
    pub deduped_ops: u64,
}

/// Point-in-time gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsGauges {
    /// Clients currently attached (connections with a live session).
    pub attached_clients: u64,
    /// Live sessions across all shards.
    pub live_sessions: u64,
    /// Live named sessions per store shard.
    pub sessions_per_shard: Vec<u64>,
    /// Tasks waiting in the worker-pool queue.
    pub queue_depth: u64,
    /// Worker-pool queue capacity (0 = inline execution, no pool).
    pub queue_capacity: u64,
    /// Worker threads in the pool.
    pub workers: u64,
}

/// Latency summary for one op: the full-lifetime log-bucket
/// distribution from its [`crate::LatencyHisto`] and what derives from
/// it. [`OpLatency::from_counts`] is the only place the derived fields
/// are computed, so they cannot disagree with the buckets beside them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpLatency {
    /// Samples ever recorded: the sum of `histo_buckets`.
    pub samples: u64,
    /// Log-bucket counts over every sample since boot: element `i`
    /// counts samples in pow-2 bucket `i` (see
    /// [`crate::bucket_bounds`]), trimmed after the last non-empty
    /// bucket. Empty when nothing was recorded.
    pub histo_buckets: Vec<u64>,
    /// Histogram-estimated p50 (bucket upper edge), microseconds.
    pub histo_p50_us: f64,
    /// Histogram-estimated p99 (bucket upper edge), microseconds.
    pub histo_p99_us: f64,
}

/// Aggregated per-solver work counters, fed from
/// [`msmr_sched::SolverStats`] by the registry's verdict hook.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverRow {
    /// Verdicts produced by this solver.
    pub verdicts: u64,
    /// Verdicts that accepted the job set.
    pub accepted: u64,
    /// Online-seam verdicts (neither cold fallback nor implied),
    /// including seam verdicts that decided cold inside the seam (see
    /// [`StatsCounters::warm_decides`]).
    pub warm: u64,
    /// Cold-adapter verdicts (`cold_fallback` provenance): every online
    /// verdict of a solver without a seam (all but OPDCA).
    pub cold: u64,
    /// Verdicts synthesized through an implication shortcut.
    pub implied: u64,
    /// Total `S_DCA` schedulability-test calls charged.
    pub sdca_calls: u64,
    /// Total search nodes explored.
    pub nodes_explored: u64,
    /// Total microseconds this solver spent producing verdicts (the
    /// sum of its verdicts' `elapsed_micros`; mean latency =
    /// `elapsed_micros / verdicts`).
    pub elapsed_micros: u64,
}

/// One live session, as the cluster store sees it at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionRow {
    /// Session name.
    pub name: String,
    /// Admitted jobs currently in the session.
    pub jobs: u64,
    /// Mutation version (increments on submit/admit/withdraw).
    pub version: u64,
    /// Clients currently attached to this session.
    pub attached: u64,
}

/// The complete serializable stats view served over both channels.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Monotonic counters since boot.
    pub counters: StatsCounters,
    /// Gauges sampled at snapshot time.
    pub gauges: StatsGauges,
    /// Per-op latency summaries, keyed by op name
    /// (`admit`/`withdraw`/`submit`).
    pub ops: BTreeMap<String, OpLatency>,
    /// Per-solver work table, keyed by solver name.
    pub solvers: BTreeMap<String, SolverRow>,
    /// Live sessions (cluster daemons only; sorted by name).
    pub sessions: Vec<SessionRow>,
}

impl StatsCounters {
    /// Adds every counter of `other` into `self` (tier aggregation).
    pub fn absorb(&mut self, other: &StatsCounters) {
        self.admits += other.admits;
        self.rejects += other.rejects;
        self.withdraws += other.withdraws;
        self.submits += other.submits;
        self.warm_decides += other.warm_decides;
        self.cold_decides += other.cold_decides;
        self.implied_decides += other.implied_decides;
        self.overloads += other.overloads;
        self.evictions += other.evictions;
        self.snapshot_writes += other.snapshot_writes;
        self.trace_spans += other.trace_spans;
        self.snapshot_quarantined += other.snapshot_quarantined;
        self.deduped_ops += other.deduped_ops;
    }
}

impl SolverRow {
    /// Adds every counter of `other` into `self` (tier aggregation).
    pub fn absorb(&mut self, other: &SolverRow) {
        self.verdicts += other.verdicts;
        self.accepted += other.accepted;
        self.warm += other.warm;
        self.cold += other.cold;
        self.implied += other.implied;
        self.sdca_calls += other.sdca_calls;
        self.nodes_explored += other.nodes_explored;
        self.elapsed_micros += other.elapsed_micros;
    }
}

impl OpLatency {
    /// The summary of one copy of (possibly trimmed) bucket counts, as
    /// [`crate::LatencyHisto::counts`] yields them: `samples` is their
    /// sum and both percentiles are [`crate::percentile_from_counts`]
    /// of that same copy. A registry snapshot and a tier merge both
    /// build their summaries here.
    #[must_use]
    pub fn from_counts(histo_buckets: Vec<u64>) -> OpLatency {
        OpLatency {
            samples: histo_buckets.iter().sum(),
            histo_p50_us: crate::percentile_from_counts(&histo_buckets, 0.50),
            histo_p99_us: crate::percentile_from_counts(&histo_buckets, 0.99),
            histo_buckets,
        }
    }

    /// Folds `other` into `self` — how a router tier aggregates
    /// per-backend latency summaries: buckets sum element-wise (bucket
    /// `i` is bucket `i` on every daemon — see
    /// [`crate::bucket_bounds`]) and the summary is rebuilt from the
    /// merged counts.
    pub fn absorb(&mut self, other: &OpLatency) {
        *self = OpLatency::from_counts(add_counts(&self.histo_buckets, &other.histo_buckets));
    }
}

impl StatsSnapshot {
    /// Online-seam share of all solver verdicts (`warm_decides` over
    /// warm, cold and implied), `None` before any verdict. A seam
    /// verdict that decided cold inside the seam counts as warm.
    #[must_use]
    pub fn warm_ratio(&self) -> Option<f64> {
        let c = &self.counters;
        let total = c.warm_decides + c.cold_decides + c.implied_decides;
        (total > 0).then(|| c.warm_decides as f64 / total as f64)
    }

    /// Merges per-backend snapshots into one tier-wide view — what the
    /// router serves on its own `--stats-addr`.
    ///
    /// Counters and per-solver rows sum field by field, so every merged
    /// counter equals the exact sum of the backends' counters. Scalar
    /// gauges sum; `sessions_per_shard` concatenates per backend in
    /// argument order (backend 0's shards first), as do the per-session
    /// rows (re-sorted by name, ties in backend order). Per-op latency
    /// merges through [`OpLatency::absorb`] — histogram buckets sum and
    /// every percentile field is recomputed from the merged buckets.
    #[must_use]
    pub fn merged(parts: &[StatsSnapshot]) -> StatsSnapshot {
        let mut merged = StatsSnapshot::default();
        for part in parts {
            merged.counters.absorb(&part.counters);
            merged.gauges.attached_clients += part.gauges.attached_clients;
            merged.gauges.live_sessions += part.gauges.live_sessions;
            merged
                .gauges
                .sessions_per_shard
                .extend_from_slice(&part.gauges.sessions_per_shard);
            merged.gauges.queue_depth += part.gauges.queue_depth;
            merged.gauges.queue_capacity += part.gauges.queue_capacity;
            merged.gauges.workers += part.gauges.workers;
            for (op, latency) in &part.ops {
                merged.ops.entry(op.clone()).or_default().absorb(latency);
            }
            for (solver, row) in &part.solvers {
                merged
                    .solvers
                    .entry(solver.clone())
                    .or_default()
                    .absorb(row);
            }
            merged.sessions.extend(part.sessions.iter().cloned());
        }
        merged.sessions.sort_by(|a, b| a.name.cmp(&b.name));
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snapshot = StatsSnapshot {
            counters: StatsCounters {
                admits: 3,
                rejects: 1,
                cold_decides: 2,
                warm_decides: 6,
                ..StatsCounters::default()
            },
            gauges: StatsGauges {
                attached_clients: 2,
                live_sessions: 4,
                sessions_per_shard: vec![1, 0, 2, 1],
                queue_depth: 3,
                queue_capacity: 64,
                workers: 2,
            },
            ..StatsSnapshot::default()
        };
        snapshot.ops.insert(
            "admit".into(),
            OpLatency::from_counts(vec![0, 0, 0, 0, 0, 0, 3, 1]),
        );
        snapshot.solvers.insert(
            "OPDCA".into(),
            SolverRow {
                verdicts: 8,
                accepted: 7,
                warm: 8,
                sdca_calls: 120,
                ..SolverRow::default()
            },
        );
        snapshot.sessions.push(SessionRow {
            name: "loadgen-7-0".into(),
            jobs: 12,
            version: 19,
            attached: 2,
        });
        let json = serde_json::to_string(&snapshot).expect("snapshots serialize");
        let parsed: StatsSnapshot = serde_json::from_str(&json).expect("snapshots parse");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn merged_sums_counters_exactly_and_concatenates_gauges() {
        let mut a = StatsSnapshot::default();
        a.counters.admits = 10;
        a.counters.rejects = 2;
        a.counters.deduped_ops = 1;
        a.gauges.live_sessions = 3;
        a.gauges.sessions_per_shard = vec![2, 1];
        a.gauges.workers = 4;
        a.sessions.push(SessionRow {
            name: "zeta".into(),
            jobs: 5,
            version: 7,
            attached: 1,
        });
        let mut b = StatsSnapshot::default();
        b.counters.admits = 7;
        b.counters.overloads = 4;
        b.gauges.live_sessions = 1;
        b.gauges.sessions_per_shard = vec![0, 1];
        b.gauges.workers = 2;
        b.sessions.push(SessionRow {
            name: "alpha".into(),
            jobs: 2,
            version: 3,
            attached: 0,
        });
        b.solvers.insert(
            "OPDCA".into(),
            SolverRow {
                verdicts: 5,
                accepted: 4,
                ..SolverRow::default()
            },
        );

        let merged = StatsSnapshot::merged(&[a.clone(), b.clone()]);
        assert_eq!(merged.counters.admits, 17);
        assert_eq!(merged.counters.rejects, 2);
        assert_eq!(merged.counters.overloads, 4);
        assert_eq!(merged.counters.deduped_ops, 1);
        assert_eq!(merged.gauges.live_sessions, 4);
        assert_eq!(merged.gauges.workers, 6);
        assert_eq!(merged.gauges.sessions_per_shard, vec![2, 1, 0, 1]);
        let names: Vec<&str> = merged.sessions.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(merged.solvers["OPDCA"].verdicts, 5);
        // Merging one snapshot is the identity on its counters.
        assert_eq!(StatsSnapshot::merged(&[a.clone()]).counters, a.counters);
        assert_eq!(
            StatsSnapshot::merged(&[]).counters,
            StatsCounters::default()
        );
    }

    #[test]
    fn merged_op_latency_recomputes_percentiles_from_summed_buckets() {
        let mut a = StatsSnapshot::default();
        a.ops.insert(
            "admit".into(),
            OpLatency::from_counts(vec![0, 0, 0, 0, 3]), // three samples in [8,16)
        );
        let mut b = StatsSnapshot::default();
        b.ops.insert(
            "admit".into(),
            OpLatency::from_counts(vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]), // [1024,2048)
        );
        let merged = StatsSnapshot::merged(&[a, b]);
        let admit = &merged.ops["admit"];
        assert_eq!(admit.samples, 4);
        assert_eq!(admit.histo_buckets.iter().sum::<u64>(), 4);
        // p50 rank 2 of 4 → the [8,16) bucket; p99 rank 4 → [1024,2048).
        assert_eq!(admit.histo_p50_us, 15.0);
        assert_eq!(admit.histo_p99_us, 2047.0);
    }

    #[test]
    fn warm_ratio_handles_the_empty_and_mixed_cases() {
        let mut snapshot = StatsSnapshot::default();
        assert_eq!(snapshot.warm_ratio(), None);
        snapshot.counters.warm_decides = 3;
        snapshot.counters.cold_decides = 1;
        assert_eq!(snapshot.warm_ratio(), Some(0.75));
    }
}
