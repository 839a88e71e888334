//! The lock-cheap [`StatsRegistry`] every layer feeds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use msmr_sched::Verdict;

use crate::events::{EventKind, FlightDump, FlightRecorder};
use crate::histo::LatencyHisto;
use crate::model::{OpLatency, SolverRow, StatsCounters, StatsSnapshot};
use crate::trace::TraceWriter;

/// Shared live-metrics sink for one daemon.
///
/// Counter and latency recording is atomics-only (relaxed ordering —
/// the counters are independent monotonic tallies, not a synchronized
/// protocol), so instrumenting the admission hot path costs a handful
/// of uncontended atomic ops. The only locks are the per-solver
/// aggregation table (taken once per verdict, never per probe) and the
/// optional trace writer.
///
/// The registry is deliberately ignorant of gauges it does not own:
/// [`StatsRegistry::snapshot`] fills counters, the attached-clients
/// gauge, per-op latency summaries and the solver table; the cluster engine
/// layers per-shard session counts, queue depth and per-session rows on
/// top before serving the snapshot.
#[derive(Default)]
pub struct StatsRegistry {
    admits: AtomicU64,
    rejects: AtomicU64,
    withdraws: AtomicU64,
    submits: AtomicU64,
    warm_decides: AtomicU64,
    cold_decides: AtomicU64,
    implied_decides: AtomicU64,
    overloads: AtomicU64,
    evictions: AtomicU64,
    snapshot_writes: AtomicU64,
    snapshot_quarantined: AtomicU64,
    deduped_ops: AtomicU64,
    attached: AtomicU64,
    admit_histo: LatencyHisto,
    withdraw_histo: LatencyHisto,
    submit_histo: LatencyHisto,
    solvers: Mutex<BTreeMap<String, SolverRow>>,
    trace: Mutex<Option<TraceWriter>>,
    flight: FlightRecorder,
}

impl std::fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsRegistry")
            .field("admits", &self.admits.load(Ordering::Relaxed))
            .field("rejects", &self.rejects.load(Ordering::Relaxed))
            .field("withdraws", &self.withdraws.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl StatsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Records an admission decision and its latency, with flight-event
    /// context: the session name and decision seq, when the caller
    /// knows them.
    pub fn record_admit_for(
        &self,
        session: Option<&str>,
        seq: Option<u64>,
        admitted: bool,
        micros: u64,
    ) {
        let kind = if admitted {
            self.admits.fetch_add(1, Ordering::Relaxed);
            EventKind::Admit
        } else {
            self.rejects.fetch_add(1, Ordering::Relaxed);
            EventKind::Reject
        };
        self.admit_histo.record(micros);
        self.flight.record(kind, session, seq);
    }

    /// Records a successful withdrawal and its latency.
    pub fn record_withdraw_for(&self, session: Option<&str>, seq: Option<u64>, micros: u64) {
        self.withdraws.fetch_add(1, Ordering::Relaxed);
        self.withdraw_histo.record(micros);
        self.flight.record(EventKind::Withdraw, session, seq);
    }

    /// Records a session (re)submission and its latency.
    pub fn record_submit_for(&self, session: Option<&str>, micros: u64) {
        self.submits.fetch_add(1, Ordering::Relaxed);
        self.submit_histo.record(micros);
        self.flight.record(EventKind::Submit, session, None);
    }

    /// Records a request refused with a typed `Overload` frame.
    pub fn record_overload_for(&self, session: Option<&str>) {
        self.overloads.fetch_add(1, Ordering::Relaxed);
        self.flight.record(EventKind::Overload, session, None);
    }

    /// Records a TTL eviction.
    pub fn record_eviction_for(&self, session: Option<&str>) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.flight.record(EventKind::Eviction, session, None);
    }

    /// Records a session snapshot written to the snapshot store.
    pub fn record_snapshot_write_for(&self, session: Option<&str>) {
        self.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        self.flight.record(EventKind::SnapshotWrite, session, None);
    }

    /// Records a corrupt snapshot file quarantined at restore time.
    pub fn record_snapshot_quarantine_for(&self, session: Option<&str>) {
        self.snapshot_quarantined.fetch_add(1, Ordering::Relaxed);
        self.flight
            .record(EventKind::SnapshotQuarantine, session, None);
    }

    /// Records a replayed op acknowledged by seq-dedupe without being
    /// re-applied.
    pub fn record_dedup_for(&self, session: Option<&str>, seq: Option<u64>) {
        self.deduped_ops.fetch_add(1, Ordering::Relaxed);
        self.flight.record(EventKind::Dedup, session, seq);
    }

    /// Records a replayed seq that named a recorded decision with a
    /// *different* op — a client bug or corruption the daemon refused.
    /// Flight-event only: there is no counter for conflicts (the op is
    /// rejected, so no tally moves), but the recorder keeps the
    /// evidence.
    pub fn record_seq_conflict(&self, session: Option<&str>, seq: Option<u64>) {
        self.flight.record(EventKind::SeqConflict, session, seq);
    }

    /// Raises the attached-clients gauge.
    pub fn client_attached(&self) {
        self.attached.fetch_add(1, Ordering::Relaxed);
        self.flight.record(EventKind::ClientAttach, None, None);
    }

    /// Lowers the attached-clients gauge (saturating).
    pub fn client_detached(&self) {
        let _ = self
            .attached
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        self.flight.record(EventKind::ClientDetach, None, None);
    }

    /// The flight recorder every `record_*` seam feeds.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Seq-ordered export of the flight recorder's surviving events.
    #[must_use]
    pub fn flight_dump(&self) -> FlightDump {
        self.flight.dump()
    }

    /// Current attached-clients gauge.
    #[must_use]
    pub fn attached(&self) -> u64 {
        self.attached.load(Ordering::Relaxed)
    }

    /// Observes one solver verdict: classifies it warm / cold-fallback
    /// / implied, aggregates its work counters into the per-solver
    /// table and forwards a span to the trace writer when one is
    /// attached. This is the closure body behind
    /// `SolverRegistry::set_verdict_hook` — it reads the verdict and
    /// never mutates it, so byte-identity between instrumented and
    /// plain evaluation holds by construction.
    pub fn observe_verdict(&self, verdict: &Verdict) {
        let implied = verdict.stats.implied_by.is_some();
        let cold = verdict.stats.cold_fallback.is_some();
        if implied {
            self.implied_decides.fetch_add(1, Ordering::Relaxed);
        } else if cold {
            self.cold_decides.fetch_add(1, Ordering::Relaxed);
        } else {
            self.warm_decides.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut solvers = self.solvers.lock().expect("solver table lock");
            let row = solvers.entry(verdict.solver.clone()).or_default();
            row.verdicts += 1;
            row.accepted += u64::from(verdict.is_accepted());
            row.implied += u64::from(implied);
            row.cold += u64::from(cold && !implied);
            row.warm += u64::from(!cold && !implied);
            row.sdca_calls += verdict.stats.sdca_calls;
            row.nodes_explored += verdict.stats.nodes_explored;
            row.elapsed_micros += verdict.stats.elapsed_micros;
        }
        let trace = self.trace.lock().expect("trace writer lock");
        if let Some(writer) = trace.as_ref() {
            writer.record_span(verdict);
        }
    }

    /// Attaches a trace writer; subsequent verdicts export spans.
    pub fn set_trace_writer(&self, writer: TraceWriter) {
        *self.trace.lock().expect("trace writer lock") = Some(writer);
    }

    /// Forwards one sample of a named counter track to the attached
    /// trace writer (a Chrome `"C"` event), if any. The saturation
    /// sampler calls this periodically for queue depth, attached
    /// clients and live sessions.
    pub fn trace_counter(&self, name: &str, value: u64) {
        let trace = self.trace.lock().expect("trace writer lock");
        if let Some(writer) = trace.as_ref() {
            writer.record_counter(name, value);
        }
    }

    /// Closes the attached trace writer's JSON array, if any.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the closing write fails.
    pub fn close_trace(&self) -> std::io::Result<()> {
        match self.trace.lock().expect("trace writer lock").as_ref() {
            Some(writer) => writer.finish(),
            None => Ok(()),
        }
    }

    /// Point-in-time snapshot of everything the registry owns. Gauges
    /// the registry cannot see (per-shard sessions, queue depth) stay
    /// at their defaults for the owning layer to fill.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let trace_spans = self
            .trace
            .lock()
            .expect("trace writer lock")
            .as_ref()
            .map_or(0, TraceWriter::spans);
        let mut snapshot = StatsSnapshot {
            counters: StatsCounters {
                admits: self.admits.load(Ordering::Relaxed),
                rejects: self.rejects.load(Ordering::Relaxed),
                withdraws: self.withdraws.load(Ordering::Relaxed),
                submits: self.submits.load(Ordering::Relaxed),
                warm_decides: self.warm_decides.load(Ordering::Relaxed),
                cold_decides: self.cold_decides.load(Ordering::Relaxed),
                implied_decides: self.implied_decides.load(Ordering::Relaxed),
                overloads: self.overloads.load(Ordering::Relaxed),
                evictions: self.evictions.load(Ordering::Relaxed),
                snapshot_writes: self.snapshot_writes.load(Ordering::Relaxed),
                trace_spans,
                snapshot_quarantined: self.snapshot_quarantined.load(Ordering::Relaxed),
                deduped_ops: self.deduped_ops.load(Ordering::Relaxed),
            },
            ..StatsSnapshot::default()
        };
        snapshot.gauges.attached_clients = self.attached();
        for (name, histo) in [
            ("admit", &self.admit_histo),
            ("withdraw", &self.withdraw_histo),
            ("submit", &self.submit_histo),
        ] {
            snapshot
                .ops
                .insert(name.to_string(), OpLatency::from_counts(histo.counts()));
        }
        snapshot.solvers = self.solvers.lock().expect("solver table lock").clone();
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_sched::{Budget, DelayBoundKind, SolverRegistry};

    fn verdicts() -> Vec<Verdict> {
        let mut builder = msmr_model::JobSetBuilder::new();
        builder.stage("cpu", 1, msmr_model::PreemptionPolicy::Preemptive);
        let jobs = builder.build().expect("pipeline-only job set builds");
        SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid).evaluate(&jobs, Budget::default())
    }

    #[test]
    fn counters_and_rings_land_in_the_snapshot() {
        let stats = StatsRegistry::new();
        stats.record_admit_for(None, None, true, 50);
        stats.record_admit_for(None, None, true, 70);
        stats.record_admit_for(None, None, false, 90);
        stats.record_withdraw_for(None, None, 110);
        stats.record_submit_for(None, 500);
        stats.record_overload_for(None);
        stats.record_eviction_for(None);
        stats.record_snapshot_write_for(None);
        stats.record_snapshot_quarantine_for(None);
        stats.record_dedup_for(None, None);
        stats.record_dedup_for(None, None);
        stats.client_attached();
        stats.client_attached();
        stats.client_detached();

        let snapshot = stats.snapshot();
        assert_eq!(snapshot.counters.admits, 2);
        assert_eq!(snapshot.counters.rejects, 1);
        assert_eq!(snapshot.counters.withdraws, 1);
        assert_eq!(snapshot.counters.submits, 1);
        assert_eq!(snapshot.counters.overloads, 1);
        assert_eq!(snapshot.counters.evictions, 1);
        assert_eq!(snapshot.counters.snapshot_writes, 1);
        assert_eq!(snapshot.counters.snapshot_quarantined, 1);
        assert_eq!(snapshot.counters.deduped_ops, 2);
        assert_eq!(snapshot.gauges.attached_clients, 1);
        let admit = &snapshot.ops["admit"];
        assert_eq!(admit.samples, 3);
        // 50 µs lands in bucket 6 ([32,64)), 70 and 90 in bucket 7
        // ([64,128)).
        assert_eq!(admit.histo_buckets, vec![0, 0, 0, 0, 0, 0, 1, 2]);
        assert_eq!(admit.histo_p50_us, 127.0);
        assert_eq!(admit.histo_p99_us, 127.0);
        assert_eq!(snapshot.ops["withdraw"].samples, 1);
        assert_eq!(snapshot.ops["submit"].samples, 1);
        assert_eq!(snapshot.ops["submit"].histo_buckets.iter().sum::<u64>(), 1);
    }

    /// A snapshot is one copy of each histogram: taken while two
    /// threads record, its sample total and both percentiles are still
    /// the ones its own buckets yield.
    #[test]
    fn snapshots_taken_mid_burst_are_internally_consistent() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        let stats = StatsRegistry::new();
        let stop = AtomicBool::new(false);
        let start = Barrier::new(3);
        std::thread::scope(|scope| {
            for writer in 0..2u64 {
                let (stats, stop, start) = (&stats, &stop, &start);
                scope.spawn(move || {
                    start.wait();
                    // An LCG spread over ~40 buckets, so the percentile
                    // ranks keep crossing bucket edges as samples land.
                    let mut state = writer;
                    while !stop.load(Ordering::Relaxed) {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let micros = (state >> 24) >> (state % 40);
                        stats.record_admit_for(None, None, true, micros);
                        stats.record_withdraw_for(None, None, micros);
                    }
                });
            }
            start.wait();
            // Collected, not asserted in place: a panic in here would
            // leave the writers spinning under the scope's join.
            let mut violations = Vec::new();
            for _ in 0..10_000 {
                let snapshot = stats.snapshot();
                for (op, lat) in &snapshot.ops {
                    let total: u64 = lat.histo_buckets.iter().sum();
                    let p50 = crate::percentile_from_counts(&lat.histo_buckets, 0.50);
                    let p99 = crate::percentile_from_counts(&lat.histo_buckets, 0.99);
                    if (lat.samples, lat.histo_p50_us, lat.histo_p99_us) != (total, p50, p99) {
                        violations.push(format!(
                            "op `{op}` stores samples {} / p50 {} / p99 {}, its buckets yield \
                             {total} / {p50} / {p99}",
                            lat.samples, lat.histo_p50_us, lat.histo_p99_us
                        ));
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
            assert!(
                violations.is_empty(),
                "{} inconsistent op summaries in 10000 snapshots, first: {}",
                violations.len(),
                violations[0]
            );
        });
        assert!(stats.snapshot().ops["admit"].samples > 0, "writers ran");
    }

    #[test]
    fn verdicts_classify_into_warm_cold_and_implied() {
        let stats = StatsRegistry::new();
        let mut warm = verdicts();
        // Normalize provenance so the classification under test is the
        // one this test injects, not whatever shortcuts fired.
        for verdict in &mut warm {
            verdict.stats.implied_by = None;
            verdict.stats.cold_fallback = None;
        }
        for verdict in &warm {
            stats.observe_verdict(verdict);
        }
        let mut cold = warm.remove(0);
        cold.stats.cold_fallback = Some(true);
        stats.observe_verdict(&cold);
        let mut implied = warm.remove(0);
        implied.stats.implied_by = Some("DMR".into());
        stats.observe_verdict(&implied);

        let snapshot = stats.snapshot();
        let counters = &snapshot.counters;
        assert_eq!(
            counters.warm_decides + counters.cold_decides + counters.implied_decides,
            7
        );
        assert_eq!(counters.cold_decides, 1);
        assert_eq!(counters.implied_decides, 1);
        let row = &snapshot.solvers[&cold.solver];
        assert_eq!(row.cold, 1);
        assert!(row.verdicts >= 2);
        assert_eq!(snapshot.warm_ratio(), Some(5.0 / 7.0));
    }

    #[test]
    fn detach_gauge_saturates_at_zero() {
        let stats = StatsRegistry::new();
        stats.client_detached();
        assert_eq!(stats.attached(), 0);
    }

    #[test]
    fn every_record_seam_feeds_the_flight_recorder() {
        use crate::events::EventKind;
        let stats = StatsRegistry::new();
        stats.client_attached();
        stats.record_submit_for(Some("tenant-a"), 40);
        stats.record_admit_for(Some("tenant-a"), Some(1), true, 50);
        stats.record_admit_for(Some("tenant-a"), Some(2), false, 60);
        stats.record_withdraw_for(Some("tenant-a"), Some(3), 70);
        stats.record_dedup_for(Some("tenant-a"), Some(3));
        stats.record_seq_conflict(Some("tenant-a"), Some(2));
        stats.record_overload_for(Some("tenant-a"));
        stats.record_eviction_for(Some("tenant-b"));
        stats.record_snapshot_write_for(Some("tenant-b"));
        stats.record_snapshot_quarantine_for(Some("tenant-x"));
        stats.client_detached();

        let dump = stats.flight_dump();
        assert_eq!(dump.recorded, 12);
        assert_eq!(dump.dropped, 0);
        for kind in [
            EventKind::ClientAttach,
            EventKind::Submit,
            EventKind::Admit,
            EventKind::Reject,
            EventKind::Withdraw,
            EventKind::Dedup,
            EventKind::SeqConflict,
            EventKind::Overload,
            EventKind::Eviction,
            EventKind::SnapshotWrite,
            EventKind::SnapshotQuarantine,
            EventKind::ClientDetach,
        ] {
            assert_eq!(dump.count(kind), 1, "exactly one {kind:?} event");
        }
        let admit = dump
            .events
            .iter()
            .find(|e| e.kind == EventKind::Admit)
            .expect("admit event recorded");
        assert_eq!(admit.session.as_deref(), Some("tenant-a"));
        assert_eq!(admit.op_seq, Some(1));
        // The counters and the recorder saw the same seams: flight
        // event counts reconcile with the counter snapshot.
        let snapshot = stats.snapshot();
        assert_eq!(dump.count(EventKind::Admit), snapshot.counters.admits);
        assert_eq!(dump.count(EventKind::Reject), snapshot.counters.rejects);
        assert_eq!(dump.count(EventKind::Dedup), snapshot.counters.deduped_ops);
        assert_eq!(dump.count(EventKind::Overload), snapshot.counters.overloads);
    }
}
