//! The stats model's own invariants, checked in one place.
//!
//! Counters, flight events, log-bucket histograms and trace spans are fed
//! by the same seams, so they must agree with each other. Every check of
//! that agreement lives here, as a pure function over parsed values that
//! returns the first violated identity as a display string:
//!
//! * [`histograms`] — every op's stored sample total and percentile
//!   estimates are what its own buckets yield (`msmr-top --once
//!   --min-admits`);
//! * [`trace_tallies`] — a parsed trace holds the expected span and
//!   counter-sample tallies (`msmr-top --check-trace --expect-*`);
//! * [`trace_against`] — a trace's per-solver span counts equal a
//!   snapshot's decision counters (`msmr-top --replay --against`);
//! * [`accounting`] — counters, flight events and histograms reconcile
//!   with the history a client saw survive (every `msmr-chaos` scenario).
//!
//! Reading files and sockets stays with the callers.

use crate::{EventKind, FlightDump, OpLatency, StatsSnapshot, TraceEvents, TraceSummary};

/// Every op's stored sample total and percentile estimates must be
/// exactly what its own buckets yield: a snapshot is one consistent copy
/// of each histogram, even when taken mid-burst.
///
/// # Errors
///
/// Names the first op whose summary disagrees with its buckets.
pub fn histograms(snapshot: &StatsSnapshot) -> Result<(), String> {
    for (name, lat) in &snapshot.ops {
        let derived = OpLatency::from_counts(lat.histo_buckets.clone());
        if *lat != derived {
            return Err(format!(
                "op `{name}`: stored samples {} / p50 {:.1}µs / p99 {:.1}µs, but its histogram \
                 buckets yield samples {} / p50 {:.1}µs / p99 {:.1}µs",
                lat.samples,
                lat.histo_p50_us,
                lat.histo_p99_us,
                derived.samples,
                derived.histo_p50_us,
                derived.histo_p99_us
            ));
        }
    }
    Ok(())
}

/// A trace's tallies against expectations: exactly `spans` solver spans
/// when given, and at least `min_counters` counter samples — which then
/// must ride named solver lanes — when given.
///
/// # Errors
///
/// Names the first tally that misses its expectation.
pub fn trace_tallies(
    summary: &TraceSummary,
    spans: Option<u64>,
    min_counters: Option<u64>,
) -> Result<(), String> {
    if let Some(expected) = spans {
        if summary.spans != expected {
            return Err(format!(
                "expected {expected} spans, found {}",
                summary.spans
            ));
        }
    }
    if let Some(expected) = min_counters {
        if summary.counters < expected {
            return Err(format!(
                "expected at least {expected} counter samples, found {}",
                summary.counters
            ));
        }
        if summary.lanes == 0 {
            return Err("counter samples present but no named solver lanes".to_string());
        }
    }
    Ok(())
}

/// Every solver row of `snapshot` must have exactly as many trace spans
/// as live verdicts, and the trace must not carry spans for solvers the
/// snapshot never saw.
///
/// # Errors
///
/// Names the first solver whose span count and verdict counter differ.
pub fn trace_against(events: &TraceEvents, snapshot: &StatsSnapshot) -> Result<(), String> {
    let lanes = events.solver_lanes();
    for (solver, row) in &snapshot.solvers {
        let spans = lanes.get(solver).map_or(0, |lane| lane.spans);
        if spans != row.verdicts {
            return Err(format!(
                "solver `{solver}`: trace holds {spans} spans but the live counter decided {}",
                row.verdicts
            ));
        }
    }
    for solver in lanes.keys() {
        if !snapshot.solvers.contains_key(solver) {
            return Err(format!(
                "solver `{solver}` has trace spans but no row in the snapshot"
            ));
        }
    }
    Ok(())
}

/// Post-failure accounting: reconciles the flight recorder's event
/// tallies and the per-op [`LatencyHisto`](crate::LatencyHisto) totals
/// against the decided-op counts a caller derived from its surviving
/// history. The recorder, the counters and the histograms are fed by the
/// same seams, so after any fault they must agree exactly — a lost or
/// double-counted op shows up as a delta here. `context` prefixes every
/// message.
///
/// # Errors
///
/// Names the first identity that does not hold: a dropped ring, a
/// counter against its flight events, a history tie, or a histogram
/// sample count.
pub fn accounting(
    context: &str,
    snapshot: &StatsSnapshot,
    dump: &FlightDump,
    decided: u64,
    withdraws: u64,
    deduped: u64,
) -> Result<(), String> {
    if dump.dropped != 0 {
        return Err(format!(
            "{context}: the flight ring dropped {} event(s) — scenarios are sized under capacity",
            dump.dropped
        ));
    }
    let c = &snapshot.counters;
    // Counter ↔ flight-event identities: both record at the same seams.
    for (what, counter, events) in [
        (
            "decisions",
            c.admits + c.rejects,
            dump.count(EventKind::Admit) + dump.count(EventKind::Reject),
        ),
        ("withdraws", c.withdraws, dump.count(EventKind::Withdraw)),
        ("submits", c.submits, dump.count(EventKind::Submit)),
        ("overloads", c.overloads, dump.count(EventKind::Overload)),
        ("evictions", c.evictions, dump.count(EventKind::Eviction)),
        (
            "snapshot writes",
            c.snapshot_writes,
            dump.count(EventKind::SnapshotWrite),
        ),
        (
            "quarantines",
            c.snapshot_quarantined,
            dump.count(EventKind::SnapshotQuarantine),
        ),
        ("dedups", c.deduped_ops, dump.count(EventKind::Dedup)),
    ] {
        if counter != events {
            return Err(format!(
                "{context}: the {what} counter says {counter} but the flight \
                 recorder holds {events} event(s)"
            ));
        }
    }
    // History ties: what survived must be exactly what was counted.
    if c.admits + c.rejects != decided {
        return Err(format!(
            "{context}: {} decision(s) counted, the surviving history decided {decided}",
            c.admits + c.rejects
        ));
    }
    if c.withdraws != withdraws {
        return Err(format!(
            "{context}: {} withdraw(s) counted, the surviving history holds {withdraws}",
            c.withdraws
        ));
    }
    if c.deduped_ops != deduped {
        return Err(format!(
            "{context}: {} dedup(s) counted, the client observed {deduped} deduped ack(s)",
            c.deduped_ops
        ));
    }
    // The latency histograms hold exactly one sample per decided op.
    for (op, expected) in [("admit", decided), ("withdraw", withdraws)] {
        let (samples, total) = snapshot.ops.get(op).map_or((0, 0), |lat| {
            (lat.samples, lat.histo_buckets.iter().sum::<u64>())
        });
        if samples != expected || total != expected {
            return Err(format!(
                "{context}: op `{op}` histograms hold {total} sample(s) \
                 (stored total {samples}), the surviving history decided {expected}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, SolverRow, TraceSpan};

    fn sample_snapshot() -> StatsSnapshot {
        let mut snapshot = StatsSnapshot::default();
        snapshot.counters.admits = 12;
        snapshot.ops.insert(
            "admit".into(),
            OpLatency::from_counts(vec![0, 0, 0, 0, 0, 0, 8, 3, 1]),
        );
        snapshot
    }

    #[test]
    fn histogram_verification_cross_checks_the_ring() {
        let mut snapshot = sample_snapshot();
        assert!(histograms(&snapshot).is_ok());
        // A histogram that lost samples is an error...
        snapshot.ops.get_mut("admit").unwrap().histo_buckets = vec![1];
        let message = histograms(&snapshot).unwrap_err();
        assert!(message.contains("stored samples 12"), "{message}");
        assert!(message.contains("yield samples 1"), "{message}");
        // ...as is a stored p99 that is not the p99 of the stored buckets.
        let lat = snapshot.ops.get_mut("admit").unwrap();
        lat.histo_buckets = vec![0, 0, 0, 0, 0, 0, 8, 3, 1];
        lat.histo_p99_us = 127.0; // one bucket below the rank-12 sample's
        let message = histograms(&snapshot).unwrap_err();
        assert!(message.contains("p99 127.0µs"), "{message}");
        assert!(message.contains("p99 255.0µs"), "{message}");
        // An op that never recorded a sample is consistent.
        snapshot.ops.insert("submit".into(), OpLatency::default());
        snapshot.ops.get_mut("admit").unwrap().histo_p99_us = 255.0;
        assert!(histograms(&snapshot).is_ok());
    }

    #[test]
    fn trace_tallies_check_exact_spans_and_minimum_counters() {
        let summary = TraceSummary {
            spans: 3,
            counters: 2,
            lanes: 1,
        };
        assert!(trace_tallies(&summary, None, None).is_ok());
        assert!(trace_tallies(&summary, Some(3), Some(2)).is_ok());
        assert_eq!(
            trace_tallies(&summary, Some(4), None).unwrap_err(),
            "expected 4 spans, found 3"
        );
        assert_eq!(
            trace_tallies(&summary, None, Some(3)).unwrap_err(),
            "expected at least 3 counter samples, found 2"
        );
        let laneless = TraceSummary {
            lanes: 0,
            ..summary
        };
        assert!(trace_tallies(&laneless, None, None).is_ok());
        assert!(trace_tallies(&laneless, None, Some(1))
            .unwrap_err()
            .contains("no named solver lanes"));
    }

    #[test]
    fn replay_against_cross_checks_span_counts_with_the_snapshot() {
        let mut events = TraceEvents::default();
        for (i, solver) in ["OPDCA", "OPDCA", "GREEDY"].into_iter().enumerate() {
            events.spans.push(TraceSpan {
                solver: solver.to_string(),
                ts_us: i as u64 * 1000,
                dur_us: 40,
                seq: Some(i as u64),
                accepted: Some(true),
            });
        }
        let mut snapshot = StatsSnapshot::default();
        for (solver, verdicts) in [("OPDCA", 2), ("GREEDY", 1)] {
            snapshot.solvers.insert(
                solver.into(),
                SolverRow {
                    verdicts,
                    ..SolverRow::default()
                },
            );
        }
        assert!(trace_against(&events, &snapshot).is_ok());
        // A solver that decided more than the trace recorded fails...
        snapshot.solvers.get_mut("OPDCA").unwrap().verdicts = 3;
        let message = trace_against(&events, &snapshot).unwrap_err();
        assert!(message.contains("holds 2 spans"));
        // ...as do trace spans for a solver the snapshot never saw.
        snapshot.solvers.get_mut("OPDCA").unwrap().verdicts = 2;
        snapshot.solvers.remove("GREEDY");
        let message = trace_against(&events, &snapshot).unwrap_err();
        assert!(message.contains("no row in the snapshot"));
    }

    /// A consistent post-failure state: 3 admits and 1 reject (so 4
    /// decisions), 1 withdraw, 1 submit, 1 overload, 1 eviction, 1
    /// snapshot write, 1 quarantine and 2 dedups — counters, flight
    /// events and histograms all in agreement.
    fn reconciled() -> (StatsSnapshot, FlightDump) {
        let mut snapshot = StatsSnapshot::default();
        let c = &mut snapshot.counters;
        (c.admits, c.rejects, c.withdraws, c.submits) = (3, 1, 1, 1);
        (c.overloads, c.evictions, c.snapshot_writes) = (1, 1, 1);
        (c.snapshot_quarantined, c.deduped_ops) = (1, 2);
        snapshot
            .ops
            .insert("admit".into(), OpLatency::from_counts(vec![0, 4]));
        snapshot
            .ops
            .insert("withdraw".into(), OpLatency::from_counts(vec![0, 1]));
        let kinds = [
            EventKind::Admit,
            EventKind::Admit,
            EventKind::Admit,
            EventKind::Reject,
            EventKind::Withdraw,
            EventKind::Submit,
            EventKind::Overload,
            EventKind::Eviction,
            EventKind::SnapshotWrite,
            EventKind::SnapshotQuarantine,
            EventKind::Dedup,
            EventKind::Dedup,
            EventKind::ClientAttach,
        ];
        let events: Vec<Event> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64 + 1,
                ts_us: i as u64,
                kind,
                session: None,
                op_seq: None,
            })
            .collect();
        let dump = FlightDump {
            capacity: 1024,
            recorded: events.len() as u64,
            dropped: 0,
            events,
        };
        (snapshot, dump)
    }

    #[test]
    fn accounting_fails_once_per_identity() {
        let (snapshot, dump) = reconciled();
        let check = |snapshot: &StatsSnapshot, dump: &FlightDump| {
            accounting("case", snapshot, dump, 4, 1, 2)
        };
        assert_eq!(check(&snapshot, &dump), Ok(()));

        // A dropped ring cannot be reconciled at all.
        let mut lossy = dump.clone();
        lossy.dropped = 1;
        let message = check(&snapshot, &lossy).unwrap_err();
        assert!(
            message.starts_with("case: the flight ring dropped 1"),
            "{message}"
        );

        // Each counter against its flight events: bump the counter alone.
        type Counter = fn(&mut crate::StatsCounters) -> &mut u64;
        let counters: [(&str, Counter); 8] = [
            ("decisions", |c| &mut c.rejects),
            ("withdraws", |c| &mut c.withdraws),
            ("submits", |c| &mut c.submits),
            ("overloads", |c| &mut c.overloads),
            ("evictions", |c| &mut c.evictions),
            ("snapshot writes", |c| &mut c.snapshot_writes),
            ("quarantines", |c| &mut c.snapshot_quarantined),
            ("dedups", |c| &mut c.deduped_ops),
        ];
        for (what, field) in counters {
            let mut skewed = snapshot.clone();
            *field(&mut skewed.counters) += 1;
            let message = check(&skewed, &dump).unwrap_err();
            assert!(
                message.starts_with(&format!("case: the {what} counter says")),
                "{what}: {message}"
            );
        }

        // Each history tie: the counters and the ring agree, the
        // history the caller saw survive does not.
        let message = accounting("case", &snapshot, &dump, 5, 1, 2).unwrap_err();
        assert!(message.contains("4 decision(s) counted"), "{message}");
        let message = accounting("case", &snapshot, &dump, 4, 0, 2).unwrap_err();
        assert!(message.contains("1 withdraw(s) counted"), "{message}");
        let message = accounting("case", &snapshot, &dump, 4, 1, 3).unwrap_err();
        assert!(message.contains("2 dedup(s) counted"), "{message}");

        // The histogram sample counts: a lost bucket sample, and a stored
        // total that disagrees with its buckets.
        let mut lost = snapshot.clone();
        lost.ops
            .insert("admit".into(), OpLatency::from_counts(vec![0, 3]));
        let message = check(&lost, &dump).unwrap_err();
        assert!(
            message.contains("op `admit` histograms hold 3"),
            "{message}"
        );
        let mut stale = snapshot.clone();
        stale.ops.get_mut("withdraw").unwrap().samples = 2;
        let message = check(&stale, &dump).unwrap_err();
        assert!(message.contains("(stored total 2)"), "{message}");
    }
}
