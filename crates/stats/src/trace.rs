//! Chrome trace-event export: one span per solver per decision, on one
//! lane per solver.
//!
//! The writer produces the trace viewer's *JSON array format*. Three
//! event phases appear:
//!
//! * `"X"` — one complete duration event per verdict, with the solver
//!   name as the event name, the verdict's own `elapsed_micros` as the
//!   duration and the full [`msmr_sched::SolverStats`] in `args`.
//!   Every solver gets a **stable lane**: its `tid` is assigned on
//!   first sight and reused for every later span, so Perfetto renders
//!   one named track per solver instead of piling all spans onto one
//!   row.
//! * `"M"` — metadata: a `process_name` event at creation and a
//!   `thread_name` event the first time each solver appears, so the
//!   viewer labels the process and each lane by name. The `pid` is the
//!   daemon's real process id (not a constant), so two daemons' traces
//!   can be diffed side by side.
//! * `"C"` — counter events ([`TraceWriter::record_counter`]): the
//!   daemons sample worker-queue depth, attached clients and live
//!   sessions periodically, so saturation shows as counter tracks
//!   right above the verdict spans.
//!
//! Span events are appended in sequence order (the per-writer `seq` in
//! `args` equals the span order), so an entire replay opens in
//! `chrome://tracing` / Perfetto as a timeline of solver work.
//!
//! The array is closed by [`TraceWriter::finish`] (the daemons call it
//! after their accept loops join). Trace viewers accept a missing
//! closing bracket for traces cut short — [`parse_trace`] applies
//! the same leniency so tooling can check a file from a daemon that was
//! killed mid-write.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use msmr_sched::Verdict;

use crate::LatencyHisto;

struct TraceInner {
    writer: BufWriter<File>,
    /// Spans written (the `seq` of the next `"X"` event).
    seq: u64,
    /// Counter samples written.
    counters: u64,
    /// Array elements written (spans + metadata + counters) — drives
    /// the comma bookkeeping.
    events: u64,
    /// Stable lane assignment: solver name → `tid`.
    lanes: BTreeMap<String, u64>,
    closed: bool,
}

impl TraceInner {
    /// Appends one already-serialized event object to the array. A
    /// failed write must not panic the decision path; the event is
    /// simply lost and the validator will still parse the rest.
    fn write_event(&mut self, event: &str) {
        if self.closed {
            return;
        }
        let comma = if self.events == 0 { "" } else { "," };
        self.events += 1;
        let _ = self.writer.write_all(comma.as_bytes());
        let _ = self.writer.write_all(b"\n");
        let _ = self.writer.write_all(event.as_bytes());
        let _ = self.writer.flush();
    }
}

/// An append-only Chrome trace-event JSON writer.
///
/// Thread-safe: spans from concurrent decisions serialize through one
/// mutex, which also makes the assigned `seq` equal the span order in
/// the file.
pub struct TraceWriter {
    inner: Mutex<TraceInner>,
    start: Instant,
    pid: u32,
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter").finish_non_exhaustive()
    }
}

/// The lane counter events render on (`tid` 0, below the solver lanes
/// which start at 1).
const COUNTER_TID: u64 = 0;

impl TraceWriter {
    /// Creates (truncating) the trace file, writes the array opener and
    /// the `process_name` metadata event.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be
    /// created or written.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut writer = BufWriter::new(File::create(path)?);
        writer.write_all(b"[")?;
        writer.flush()?;
        let pid = std::process::id();
        let trace = TraceWriter {
            inner: Mutex::new(TraceInner {
                writer,
                seq: 0,
                counters: 0,
                events: 0,
                lanes: BTreeMap::new(),
                closed: false,
            }),
            start: Instant::now(),
            pid,
        };
        let name = serde_json::to_string(&process_name()).expect("process names serialize");
        trace
            .inner
            .lock()
            .expect("trace writer lock")
            .write_event(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{COUNTER_TID},\
                 \"args\":{{\"name\":{name}}}}}"
            ));
        Ok(trace)
    }

    /// Appends one complete span for a verdict on the verdict's
    /// solver lane (assigning the lane, with its `thread_name`
    /// metadata event, on first sight). Returns the span's sequence
    /// number (0-based, equals its position among the spans).
    pub fn record_span(&self, verdict: &Verdict) -> u64 {
        let ts = self.start.elapsed().as_micros() as u64;
        let stats = serde_json::to_string(&verdict.stats).expect("solver stats serialize");
        let name = serde_json::to_string(&verdict.solver).expect("solver names serialize");
        let pid = self.pid;
        let mut inner = self.inner.lock().expect("trace writer lock");
        if inner.closed {
            return inner.seq;
        }
        let tid = match inner.lanes.get(&verdict.solver) {
            Some(&tid) => tid,
            None => {
                let tid = inner.lanes.len() as u64 + 1;
                inner.lanes.insert(verdict.solver.clone(), tid);
                inner.write_event(&format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":{name}}}}}"
                ));
                tid
            }
        };
        let seq = inner.seq;
        inner.seq += 1;
        inner.write_event(&format!(
            "{{\"name\":{name},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts},\"dur\":{dur},\"args\":{{\"seq\":{seq},\
             \"accepted\":{accepted},\"stats\":{stats}}}}}",
            dur = verdict.stats.elapsed_micros,
            accepted = verdict.is_accepted(),
        ));
        seq
    }

    /// Appends one sample of the named counter track (a `"C"` event on
    /// the counter lane). Perfetto draws one counter track per name.
    pub fn record_counter(&self, counter: &str, value: u64) {
        let ts = self.start.elapsed().as_micros() as u64;
        let name = serde_json::to_string(&counter).expect("counter names serialize");
        let pid = self.pid;
        let mut inner = self.inner.lock().expect("trace writer lock");
        if inner.closed {
            return;
        }
        inner.counters += 1;
        inner.write_event(&format!(
            "{{\"name\":{name},\"ph\":\"C\",\"pid\":{pid},\"tid\":{COUNTER_TID},\
             \"ts\":{ts},\"args\":{{\"value\":{value}}}}}"
        ));
    }

    /// Spans written so far.
    #[must_use]
    pub fn spans(&self) -> u64 {
        self.inner.lock().expect("trace writer lock").seq
    }

    /// Counter samples written so far.
    #[must_use]
    pub fn counters(&self) -> u64 {
        self.inner.lock().expect("trace writer lock").counters
    }

    /// Closes the JSON array and flushes. Idempotent; events recorded
    /// after the close are dropped.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the closing write fails.
    pub fn finish(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("trace writer lock");
        if inner.closed {
            return Ok(());
        }
        inner.closed = true;
        inner.writer.write_all(b"\n]\n")?;
        inner.writer.flush()
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// The name the `process_name` metadata event carries: the running
/// executable's basename, or `"msmr"` when it cannot be determined.
fn process_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|path| path.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "msmr".to_string())
}

/// What [`parse_trace`] counted in a well-formed trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Complete (`"X"`) solver spans.
    pub spans: u64,
    /// Counter (`"C"`) samples.
    pub counters: u64,
    /// Named solver lanes (`thread_name` metadata events).
    pub lanes: u64,
}

/// One complete (`"X"`) span recovered from a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// The event name — the solver that produced the verdict.
    pub solver: String,
    /// Span start, microseconds since the writer's epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (the verdict's `elapsed_micros`).
    pub dur_us: u64,
    /// The writer-assigned span order, when `args.seq` was recorded.
    pub seq: Option<u64>,
    /// The verdict's outcome, when `args.accepted` was recorded.
    pub accepted: Option<bool>,
}

/// One counter (`"C"`) sample recovered from a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCounterSample {
    /// The counter track's name (e.g. `"queue depth"`).
    pub name: String,
    /// Sample time, microseconds since the writer's epoch.
    pub ts_us: u64,
    /// The sampled value (0 when the event carried none).
    pub value: u64,
}

/// Everything [`parse_trace`] recovers from a trace file: the replay
/// model `msmr-top --replay` renders its post-mortem from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceEvents {
    /// Spans in file order (which equals writer sequence order).
    pub spans: Vec<TraceSpan>,
    /// Counter samples in file order.
    pub counters: Vec<TraceCounterSample>,
    /// Lane assignments announced by `thread_name` metadata events:
    /// solver name → `tid`.
    pub lanes: BTreeMap<String, u64>,
}

/// One solver lane rebuilt from a trace's spans
/// ([`TraceEvents::solver_lanes`]).
#[derive(Debug, Default)]
pub struct SolverLane {
    /// Spans on the lane.
    pub spans: u64,
    /// Spans whose verdict was an acceptance.
    pub accepted: u64,
    /// Summed span durations in microseconds.
    pub total_us: u64,
    /// Log-bucket histogram of the span durations.
    pub histo: LatencyHisto,
}

impl TraceEvents {
    /// The span, counter-sample and lane tallies of this trace.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            spans: self.spans.len() as u64,
            counters: self.counters.len() as u64,
            lanes: self.lanes.len() as u64,
        }
    }

    /// The per-solver lanes of the spans, keyed by solver name: span
    /// counts, accept tallies and a log-bucket latency histogram over
    /// span durations — the offline analogue of the live per-op
    /// histograms.
    #[must_use]
    pub fn solver_lanes(&self) -> BTreeMap<String, SolverLane> {
        let mut lanes: BTreeMap<String, SolverLane> = BTreeMap::new();
        for span in &self.spans {
            let lane = lanes.entry(span.solver.clone()).or_default();
            lane.spans += 1;
            lane.accepted += u64::from(span.accepted.unwrap_or(false));
            lane.total_us += span.dur_us;
            lane.histo.record(span.dur_us);
        }
        lanes
    }
}

/// Parses and validates trace-event JSON into its structured events.
///
/// Accepts both a properly closed array and one cut short mid-write
/// (the trace viewers' documented leniency): a trailing comma is
/// dropped and the closing bracket appended before parsing. Every
/// element must be a named `"X"` span (unsigned `ts`/`dur`), an `"M"`
/// metadata event (an `args.name` string), or a `"C"` counter sample
/// (unsigned `ts`); any other phase is malformed.
///
/// # Errors
///
/// Returns a description of the first malformed element (or the JSON
/// parse error) when the text is not a valid trace.
pub fn parse_trace(text: &str) -> Result<TraceEvents, String> {
    let mut trimmed = text.trim().to_string();
    if !trimmed.starts_with('[') {
        return Err("trace is not a JSON array".into());
    }
    if !trimmed.ends_with(']') {
        trimmed = trimmed.trim_end_matches(',').to_string();
        trimmed.push(']');
    }
    let value: serde::Value = serde_json::from_str(&trimmed).map_err(|e| e.to_string())?;
    let serde::Value::Seq(events) = value else {
        return Err("trace is not a JSON array".into());
    };
    let mut parsed = TraceEvents::default();
    for (index, event) in events.iter().enumerate() {
        let ph = event.get("ph").and_then(|v| match v {
            serde::Value::Str(s) => Some(s.as_str()),
            _ => None,
        });
        let name = match event.get("name") {
            Some(serde::Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let unsigned = |field: &str| match event.get(field) {
            Some(&serde::Value::UInt(n)) => Some(n),
            _ => None,
        };
        match ph {
            Some("X") => {
                let Some(solver) = name else {
                    return Err(format!("span event {index} has no name"));
                };
                let mut fields = [0u64; 2];
                for (slot, field) in fields.iter_mut().zip(["ts", "dur"]) {
                    *slot = unsigned(field)
                        .ok_or_else(|| format!("span event {index} has no unsigned `{field}`"))?;
                }
                let args = event.get("args");
                let arg = |key: &str| args.and_then(|a| a.get(key));
                parsed.spans.push(TraceSpan {
                    solver,
                    ts_us: fields[0],
                    dur_us: fields[1],
                    seq: match arg("seq") {
                        Some(&serde::Value::UInt(n)) => Some(n),
                        _ => None,
                    },
                    accepted: match arg("accepted") {
                        Some(&serde::Value::Bool(b)) => Some(b),
                        _ => None,
                    },
                });
            }
            Some("M") => {
                let label = match event.get("args").and_then(|args| args.get("name")) {
                    Some(serde::Value::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                let (Some(name), Some(label)) = (name, label) else {
                    return Err(format!("metadata event {index} carries no `args.name`"));
                };
                if name == "thread_name" {
                    let tid = unsigned("tid").unwrap_or(parsed.lanes.len() as u64 + 1);
                    parsed.lanes.entry(label).or_insert(tid);
                }
            }
            Some("C") => {
                let Some(name) = name else {
                    return Err(format!("counter event {index} has no name"));
                };
                let Some(ts_us) = unsigned("ts") else {
                    return Err(format!("counter event {index} has no unsigned `ts`"));
                };
                let value = match event.get("args").and_then(|args| args.get("value")) {
                    Some(&serde::Value::UInt(n)) => n,
                    Some(&serde::Value::Int(n)) => n.max(0) as u64,
                    _ => 0,
                };
                parsed
                    .counters
                    .push(TraceCounterSample { name, ts_us, value });
            }
            _ => {
                return Err(format!(
                    "event {index} is not a span (X), metadata (M) or counter (C) event"
                ));
            }
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_sched::{Budget, DelayBoundKind, SolverRegistry};
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("msmr-stats-{}-{}.trace", std::process::id(), tag))
    }

    fn sample_verdicts() -> Vec<Verdict> {
        let mut builder = msmr_model::JobSetBuilder::new();
        builder.stage("cpu", 1, msmr_model::PreemptionPolicy::Preemptive);
        let jobs = builder.build().expect("pipeline-only job set builds");
        SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid).evaluate(&jobs, Budget::default())
    }

    fn summarize(text: &str) -> Result<TraceSummary, String> {
        parse_trace(text).map(|events| events.summary())
    }

    fn parse_events(text: &str) -> Vec<serde::Value> {
        let value: serde::Value = serde_json::from_str(text).expect("closed trace parses");
        let serde::Value::Seq(events) = value else {
            panic!("expected an array")
        };
        events
    }

    fn str_field<'a>(event: &'a serde::Value, field: &str) -> Option<&'a str> {
        match event.get(field) {
            Some(serde::Value::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    #[test]
    fn spans_export_as_valid_seq_ordered_trace_events() {
        let path = temp_path("roundtrip");
        let writer = TraceWriter::create(&path).expect("trace file creates");
        let verdicts = sample_verdicts();
        for verdict in &verdicts {
            writer.record_span(verdict);
        }
        assert_eq!(writer.spans(), verdicts.len() as u64);
        writer.finish().expect("trace closes");
        let text = std::fs::read_to_string(&path).expect("trace reads");
        let solvers: std::collections::BTreeSet<&str> =
            verdicts.iter().map(|v| v.solver.as_str()).collect();
        assert_eq!(
            summarize(&text),
            Ok(TraceSummary {
                spans: verdicts.len() as u64,
                counters: 0,
                lanes: solvers.len() as u64,
            })
        );
        // One span per solver per decision, in sequence order.
        let events = parse_events(&text);
        let spans: Vec<&serde::Value> = events
            .iter()
            .filter(|e| str_field(e, "ph") == Some("X"))
            .collect();
        for (index, (event, verdict)) in spans.iter().zip(&verdicts).enumerate() {
            assert_eq!(str_field(event, "name"), Some(verdict.solver.as_str()));
            let args = event.get("args").expect("span has args");
            assert_eq!(args.get("seq"), Some(&serde::Value::UInt(index as u64)));
            assert!(args
                .get("stats")
                .and_then(|s| s.get("sdca_calls"))
                .is_some());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solvers_get_stable_named_lanes_and_a_real_pid() {
        let path = temp_path("lanes");
        let writer = TraceWriter::create(&path).expect("trace file creates");
        let verdicts = sample_verdicts();
        // Two rounds: every solver's lane must stay put on repeats.
        for verdict in verdicts.iter().chain(&verdicts) {
            writer.record_span(verdict);
        }
        writer.finish().expect("trace closes");
        let text = std::fs::read_to_string(&path).expect("trace reads");
        let events = parse_events(&text);

        // The first event names the process, with the daemon's real pid.
        let pid = serde::Value::UInt(u64::from(std::process::id()));
        assert_eq!(str_field(&events[0], "name"), Some("process_name"));
        assert_eq!(events[0].get("pid"), Some(&pid));
        assert!(matches!(events[0].get("args").and_then(|a| a.get("name")),
                     Some(serde::Value::Str(name)) if !name.is_empty()));

        // Every solver lane is announced exactly once, and all of that
        // solver's spans ride it.
        let mut lanes: std::collections::BTreeMap<String, &serde::Value> =
            std::collections::BTreeMap::new();
        for event in &events {
            if str_field(event, "name") == Some("thread_name") {
                assert_eq!(str_field(event, "ph"), Some("M"));
                assert_eq!(event.get("pid"), Some(&pid));
                let solver = match event.get("args").and_then(|a| a.get("name")) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("thread_name without args.name: {other:?}"),
                };
                let tid = event.get("tid").expect("metadata has a tid");
                assert!(
                    lanes.insert(solver, tid).is_none(),
                    "a lane was announced twice"
                );
            }
        }
        let solvers: std::collections::BTreeSet<&str> =
            verdicts.iter().map(|v| v.solver.as_str()).collect();
        assert_eq!(lanes.len(), solvers.len());
        for event in &events {
            if str_field(event, "ph") == Some("X") {
                let solver = str_field(event, "name").expect("span has a name");
                assert_eq!(event.get("pid"), Some(&pid));
                assert_eq!(event.get("tid"), Some(lanes[solver]));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counter_samples_export_as_counter_events() {
        let path = temp_path("counters");
        let writer = TraceWriter::create(&path).expect("trace file creates");
        writer.record_counter("queue depth", 3);
        writer.record_counter("attached clients", 2);
        writer.record_counter("queue depth", 0);
        assert_eq!(writer.counters(), 3);
        assert_eq!(writer.spans(), 0);
        writer.finish().expect("trace closes");
        let text = std::fs::read_to_string(&path).expect("trace reads");
        assert_eq!(
            summarize(&text),
            Ok(TraceSummary {
                spans: 0,
                counters: 3,
                lanes: 0,
            })
        );
        let events = parse_events(&text);
        let counters: Vec<&serde::Value> = events
            .iter()
            .filter(|e| str_field(e, "ph") == Some("C"))
            .collect();
        assert_eq!(str_field(counters[0], "name"), Some("queue depth"));
        assert_eq!(
            counters[0].get("args").and_then(|a| a.get("value")),
            Some(&serde::Value::UInt(3))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_traces_still_validate() {
        let path = temp_path("truncated");
        let writer = TraceWriter::create(&path).expect("trace file creates");
        let verdicts = sample_verdicts();
        for verdict in &verdicts {
            writer.record_span(verdict);
        }
        // No finish(): simulate a daemon killed mid-write by reading
        // the unterminated array.
        let text = std::fs::read_to_string(&path).expect("trace reads");
        assert!(!text.trim_end().ends_with(']'));
        let summary = summarize(&text).expect("truncated traces validate");
        assert_eq!(summary.spans, verdicts.len() as u64);
        writer.finish().expect("trace closes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_trace_recovers_spans_counters_and_lanes() {
        let path = temp_path("parse");
        let writer = TraceWriter::create(&path).expect("trace file creates");
        let verdicts = sample_verdicts();
        for verdict in &verdicts {
            writer.record_span(verdict);
        }
        writer.record_counter("queue depth", 5);
        writer.finish().expect("trace closes");
        let text = std::fs::read_to_string(&path).expect("trace reads");
        let events = parse_trace(&text).expect("recorded traces parse");
        assert_eq!(events.spans.len(), verdicts.len());
        for (index, (span, verdict)) in events.spans.iter().zip(&verdicts).enumerate() {
            assert_eq!(span.solver, verdict.solver);
            assert_eq!(span.dur_us, verdict.stats.elapsed_micros);
            assert_eq!(span.seq, Some(index as u64));
            assert_eq!(span.accepted, Some(verdict.is_accepted()));
        }
        // Every span rides a lane announced for its solver.
        for span in &events.spans {
            assert!(events.lanes.contains_key(&span.solver));
        }
        assert_eq!(events.counters.len(), 1);
        assert_eq!(events.counters[0].name, "queue depth");
        assert_eq!(events.counters[0].value, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(summarize("{}").is_err());
        // Unknown phases are still rejected — leniency covers
        // truncation, not arbitrary event soup.
        assert!(summarize("[{\"ph\":\"B\",\"name\":\"x\"}]").is_err());
        assert!(summarize("[{\"ph\":\"X\",\"ts\":1,\"dur\":2}]").is_err());
        // Metadata without a label, counters without a timestamp.
        assert!(summarize("[{\"ph\":\"M\",\"name\":\"thread_name\",\"args\":{}}]").is_err());
        assert!(summarize("[{\"ph\":\"C\",\"name\":\"q\",\"args\":{\"value\":1}}]").is_err());
        assert_eq!(summarize("[]"), Ok(TraceSummary::default()));
    }
}
