//! `msmr-top` — a std-only terminal dashboard over the stats side
//! channel, in the spirit of `scxtop`.
//!
//! Default mode polls a `--stats-addr` listener for one snapshot every
//! `--interval-ms` (at least 10 ms) and redraws one compact dashboard
//! (plain text, cleared and homed per frame, so the output of
//! `--iterations N` stays in the terminal or log): counters, warm/cold
//! ratio (verdicts of a solver's online seam versus the registry's cold
//! adapter; an OPDCA withdraw or the first admit after a restore decides
//! cold inside the seam and counts as warm), per-op p50/p99 (histogram estimates: upper bucket edges) with
//! a log-bucket **distribution sparkline** and its `[lo µs, hi µs)`
//! range, a worker queue-depth sparkline across polls, and per-solver
//! (with mean latency) / per-session tables. If the daemon bounces, the
//! dashboard keeps polling until it answers again. Four scripting
//! modes double as the CI validators; every invariant they
//! check lives in [`msmr_stats::audit`], and this binary only reads
//! files and sockets, parses arguments and renders:
//!
//! * `--once` prints one raw JSON snapshot (optionally asserting
//!   `--min-admits N`; when asserted, every op's stored sample total
//!   and percentile estimates must also be the ones its own histogram
//!   buckets yield), so shell scripts can check the side channel
//!   without a JSON tool dependency. Its output is raw snapshot JSON —
//!   byte-stable for CI whatever the dashboard renders.
//! * `--check-trace FILE` validates a `--trace-out` file as
//!   trace-event JSON (optionally asserting `--expect-spans N` exact
//!   span and `--expect-counters N` minimum counter-sample tallies).
//! * `--replay FILE` is the offline post-mortem: it reconstructs
//!   per-solver lanes and counter tracks from a recorded Chrome trace,
//!   rebuilds per-solver span-latency histograms with the same
//!   log-bucket [`msmr_stats::LatencyHisto`], and renders the report
//!   without a daemon. `--flight DUMP` folds a flight-recorder dump in;
//!   `--against SNAPSHOT` cross-checks per-solver span counts versus
//!   the live decisions counters of a saved snapshot.
//! * `--flight-dump` asks the side channel's `flight` command for the
//!   live flight-recorder ring and renders the same dump view without
//!   a trace file.
//!
//! `--flight-filter kind=overload,session=NAME` narrows the flight
//! view — both the live `--flight-dump` and the `--replay --flight`
//! fold-in — to the matching events; tallies and the event tail then
//! cover only the selection (the recorded/dropped totals stay honest).
//!
//! ```text
//! msmr-top --addr 127.0.0.1:9099 [--interval-ms 1000] [--iterations 0]
//! msmr-top --addr 127.0.0.1:9099 --once [--min-admits 1]
//! msmr-top --addr 127.0.0.1:9099 --flight-dump [--flight-filter kind=K,session=S]
//! msmr-top --check-trace replay.trace [--expect-spans 120] [--expect-counters 3]
//! msmr-top --replay replay.trace [--flight flight.json] [--against snapshot.json]
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use msmr_stats::{
    audit, bucket_bounds, fetch_flight_dump, fetch_stats_json, parse_trace, Event, EventKind,
    FlightDump, StatsSnapshot, TraceEvents,
};

/// Shortest pause between two dashboard polls.
const MIN_INTERVAL_MS: u64 = 10;

/// Flight-recorder events listed (newest last) in a replay report.
const REPLAY_FLIGHT_TAIL: usize = 10;

/// Glyphs of the queue-depth sparkline, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Polls of queue depth kept for the sparkline.
const SPARK_WINDOW: usize = 32;

#[derive(Debug)]
struct Options {
    addr: Option<String>,
    interval_ms: u64,
    /// 0 = poll until interrupted.
    iterations: u64,
    once: bool,
    min_admits: Option<u64>,
    check_trace: Option<String>,
    expect_spans: Option<u64>,
    expect_counters: Option<u64>,
    replay: Option<String>,
    flight: Option<String>,
    against: Option<String>,
    flight_dump: bool,
    flight_filter: Option<FlightFilter>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: None,
            interval_ms: 1000,
            iterations: 0,
            once: false,
            min_admits: None,
            check_trace: None,
            expect_spans: None,
            expect_counters: None,
            replay: None,
            flight: None,
            against: None,
            flight_dump: false,
            flight_filter: None,
        }
    }
}

/// The `--flight-filter` selection: comma-separated `kind=…` /
/// `session=…` pairs, conjunctive when both are given. Applied to the
/// flight view wherever it renders — the live `--flight-dump` and the
/// `--replay --flight` fold-in.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlightFilter {
    kind: Option<EventKind>,
    session: Option<String>,
}

impl FlightFilter {
    fn parse(spec: &str) -> Result<FlightFilter, String> {
        let mut filter = FlightFilter {
            kind: None,
            session: None,
        };
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((key, value)) = pair.split_once('=') else {
                return Err(format!(
                    "`{pair}` is not a key=value pair (kind=… or session=…)"
                ));
            };
            match key.trim() {
                "kind" => filter.kind = Some(value.trim().parse()?),
                "session" => filter.session = Some(value.trim().to_string()),
                other => return Err(format!("unknown filter key `{other}` (kind, session)")),
            }
        }
        if filter.kind.is_none() && filter.session.is_none() {
            return Err("empty filter: give kind=… and/or session=…".to_string());
        }
        Ok(filter)
    }

    fn matches(&self, event: &Event) -> bool {
        self.kind.is_none_or(|kind| event.kind == kind)
            && self
                .session
                .as_deref()
                .is_none_or(|name| event.session.as_deref() == Some(name))
    }

    /// The filter restated for the report header, e.g.
    /// `kind=Overload session=tenant-3`.
    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(kind) = self.kind {
            parts.push(format!("kind={kind:?}"));
        }
        if let Some(session) = &self.session {
            parts.push(format!("session={session}"));
        }
        parts.join(" ")
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => options.addr = Some(value("--addr")?),
            "--interval-ms" => {
                options.interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|_| "--interval-ms needs an integer".to_string())?;
            }
            "--iterations" => {
                options.iterations = value("--iterations")?
                    .parse()
                    .map_err(|_| "--iterations needs an integer".to_string())?;
            }
            "--once" => options.once = true,
            "--min-admits" => {
                options.min_admits = Some(
                    value("--min-admits")?
                        .parse()
                        .map_err(|_| "--min-admits needs an integer".to_string())?,
                );
            }
            "--check-trace" => options.check_trace = Some(value("--check-trace")?),
            "--expect-spans" => {
                options.expect_spans = Some(
                    value("--expect-spans")?
                        .parse()
                        .map_err(|_| "--expect-spans needs an integer".to_string())?,
                );
            }
            "--expect-counters" => {
                options.expect_counters = Some(
                    value("--expect-counters")?
                        .parse()
                        .map_err(|_| "--expect-counters needs an integer".to_string())?,
                );
            }
            "--replay" => options.replay = Some(value("--replay")?),
            "--flight" => options.flight = Some(value("--flight")?),
            "--against" => options.against = Some(value("--against")?),
            "--flight-dump" => options.flight_dump = true,
            "--flight-filter" => {
                options.flight_filter = Some(
                    FlightFilter::parse(&value("--flight-filter")?)
                        .map_err(|e| format!("--flight-filter: {e}"))?,
                );
            }
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if options.replay.is_none() && (options.flight.is_some() || options.against.is_some()) {
        return Err("--flight/--against only make sense with --replay".to_string());
    }
    if options.flight_dump && (options.replay.is_some() || options.check_trace.is_some()) {
        return Err(
            "--flight-dump is a live mode; it doesn't combine with --replay/--check-trace"
                .to_string(),
        );
    }
    if options.flight_filter.is_some() && options.flight.is_none() && !options.flight_dump {
        return Err(
            "--flight-filter needs a flight view: --flight-dump or --replay --flight".to_string(),
        );
    }
    if options.check_trace.is_none() && options.replay.is_none() && options.addr.is_none() {
        return Err("--addr HOST:PORT is required (or use --check-trace / --replay)".to_string());
    }
    Ok(options)
}

/// Renders a fixed-width sparkline of the depth history, newest last.
fn sparkline(depths: &[u64]) -> String {
    let max = depths.iter().copied().max().unwrap_or(0).max(1);
    depths
        .iter()
        .map(|&d| {
            SPARKS[(d as usize * (SPARKS.len() - 1))
                .div_ceil(max as usize)
                .min(SPARKS.len() - 1)]
        })
        .collect()
}

/// Renders one dashboard frame (no ANSI control codes — the caller
/// prepends the clear sequence in loop mode, tests read it plain).
fn render(snapshot: &StatsSnapshot, depths: &[u64]) -> String {
    let c = &snapshot.counters;
    let g = &snapshot.gauges;
    let mut out = String::new();
    out.push_str("msmr-top — admission daemon live stats\n\n");
    out.push_str(&format!(
        "admits {:>8}   rejects {:>6}   withdraws {:>6}   submits {:>4}   overloads {:>4}\n",
        c.admits, c.rejects, c.withdraws, c.submits, c.overloads
    ));
    out.push_str(&format!(
        "evictions {:>5}   snapshots {:>4}   quarantined {:>3}   deduped {:>5}   trace spans {:>6}\n",
        c.evictions, c.snapshot_writes, c.snapshot_quarantined, c.deduped_ops, c.trace_spans
    ));
    let ratio = snapshot
        .warm_ratio()
        .map_or_else(|| "n/a".to_string(), |r| format!("{:.1}%", r * 100.0));
    out.push_str(&format!(
        "decides: warm {} / cold {} / implied {}   warm ratio {}\n",
        c.warm_decides, c.cold_decides, c.implied_decides, ratio
    ));
    out.push_str(&format!(
        "clients {}   sessions {}   shards {:?}\n",
        g.attached_clients, g.live_sessions, g.sessions_per_shard
    ));
    out.push_str(&format!(
        "queue {:>3}/{} ({} workers)  {}\n",
        g.queue_depth,
        g.queue_capacity,
        g.workers,
        sparkline(depths)
    ));
    out.push_str(
        "\nop        samples    p50 ≤ µs    p99 ≤ µs  distribution (p50/p99: bucket upper edges)\n",
    );
    for (name, lat) in &snapshot.ops {
        out.push_str(&format!(
            "{name:<10}{:>7}  {:>10.1}  {:>10.1}  {}\n",
            lat.samples,
            lat.histo_p50_us,
            lat.histo_p99_us,
            histo_sparkline(&lat.histo_buckets)
        ));
    }
    if !snapshot.solvers.is_empty() {
        out.push_str(
            "\nsolver    verdicts  accepted      warm      cold   implied       sdca      nodes    mean µs\n",
        );
        for (name, row) in &snapshot.solvers {
            out.push_str(&format!(
                "{name:<10}{:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>9}  {:>9}  {:>9.1}\n",
                row.verdicts,
                row.accepted,
                row.warm,
                row.cold,
                row.implied,
                row.sdca_calls,
                row.nodes_explored,
                row.elapsed_micros as f64 / row.verdicts.max(1) as f64
            ));
        }
    }
    if !snapshot.sessions.is_empty() {
        out.push_str("\nsession                          jobs   version  attached\n");
        for row in &snapshot.sessions {
            out.push_str(&format!(
                "{:<30}{:>7}  {:>8}  {:>8}\n",
                row.name, row.jobs, row.version, row.attached
            ));
        }
    }
    out
}

/// Sparkline over the non-empty span of a log-bucket histogram plus its
/// human `[lower µs, upper µs)` range, or `no samples` when empty.
fn histo_sparkline(buckets: &[u64]) -> String {
    let (Some(first), Some(last)) = (
        buckets.iter().position(|&c| c > 0),
        buckets.iter().rposition(|&c| c > 0),
    ) else {
        return "no samples".to_string();
    };
    let (lower, _) = bucket_bounds(first);
    let (_, upper) = bucket_bounds(last);
    format!(
        "{} [{lower}µs, {upper}µs)",
        sparkline(&buckets[first..=last])
    )
}

/// Renders the flight-recorder section shared by the `--replay
/// --flight` fold-in and the live `--flight-dump` view: honest
/// recorded/dropped totals, then per-kind tallies and the event tail
/// over the (optionally `--flight-filter`ed) selection.
fn render_flight(dump: &FlightDump, filter: Option<&FlightFilter>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flight recorder: {} recorded, {} dropped (capacity {})\n",
        dump.recorded, dump.dropped, dump.capacity
    ));
    let selected: Vec<&Event> = dump
        .events
        .iter()
        .filter(|event| filter.is_none_or(|f| f.matches(event)))
        .collect();
    if let Some(filter) = filter {
        out.push_str(&format!(
            "filter {}: {} of {} events match\n",
            filter.describe(),
            selected.len(),
            dump.events.len()
        ));
    }
    let mut kinds: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for event in &selected {
        *kinds.entry(format!("{:?}", event.kind)).or_insert(0) += 1;
    }
    let kinds: Vec<String> = kinds
        .iter()
        .map(|(kind, count)| format!("{kind} {count}"))
        .collect();
    out.push_str(&format!("events: {}\n", kinds.join("  ")));
    let tail = selected.len().saturating_sub(REPLAY_FLIGHT_TAIL);
    out.push_str(&format!("last {} events:\n", selected.len() - tail));
    for event in &selected[tail..] {
        out.push_str(&format!(
            "  #{:<6} {:>10}µs  {:<18} {}{}\n",
            event.seq,
            event.ts_us,
            format!("{:?}", event.kind),
            event.session.as_deref().unwrap_or("-"),
            event
                .op_seq
                .map_or_else(String::new, |seq| format!(" seq={seq}"))
        ));
    }
    out
}

/// Renders the offline post-mortem report for a parsed trace (plus an
/// optional flight-recorder dump).
fn render_replay(
    path: &str,
    events: &TraceEvents,
    flight: Option<&FlightDump>,
    filter: Option<&FlightFilter>,
) -> String {
    let lanes = events.solver_lanes();
    let wall_us = events
        .spans
        .iter()
        .map(|s| s.ts_us + s.dur_us)
        .chain(events.counters.iter().map(|c| c.ts_us))
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!("msmr-top — offline replay of {path}\n\n"));
    out.push_str(&format!(
        "{} spans on {} solver lanes, {} counter samples, {:.3}s of trace\n",
        events.spans.len(),
        lanes.len(),
        events.counters.len(),
        wall_us as f64 / 1_000_000.0
    ));

    if !lanes.is_empty() {
        out.push_str(
            "\nsolver       spans  accepted    mean µs   histo p50/p99 µs  distribution\n",
        );
        for (solver, lane) in &lanes {
            out.push_str(&format!(
                "{solver:<10}{:>8}  {:>8}  {:>9.1}  {:>7.1}/{:<8.1} {}\n",
                lane.spans,
                lane.accepted,
                lane.total_us as f64 / lane.spans.max(1) as f64,
                lane.histo.percentile_us(0.5),
                lane.histo.percentile_us(0.99),
                histo_sparkline(&lane.histo.counts())
            ));
        }
    }

    // Counter tracks: per-name sample count and the value envelope.
    let mut tracks: std::collections::BTreeMap<&str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for sample in &events.counters {
        let track = tracks.entry(sample.name.as_str()).or_insert((0, 0, 0));
        track.0 += 1;
        track.1 = sample.value;
        track.2 = track.2.max(sample.value);
    }
    if !tracks.is_empty() {
        out.push_str("\ncounter track         samples      last       max\n");
        for (name, (samples, last, max)) in &tracks {
            out.push_str(&format!("{name:<22}{samples:>7}  {last:>8}  {max:>8}\n"));
        }
    }

    if let Some(dump) = flight {
        out.push('\n');
        out.push_str(&render_flight(dump, filter));
    }
    out
}

/// Reads a file, naming it in the error.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Reads and parses a recorded trace, naming the file in the error.
fn read_trace(path: &str) -> Result<TraceEvents, String> {
    parse_trace(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn run_replay(options: &Options) -> Result<(), String> {
    let path = options.replay.as_deref().expect("replay checked by caller");
    let events = read_trace(path)?;
    let flight = match &options.flight {
        Some(path) => {
            let dump: FlightDump = serde_json::from_str(read(path)?.trim())
                .map_err(|e| format!("{path}: bad flight dump: {e}"))?;
            Some(dump)
        }
        None => None,
    };
    if let Some(path) = &options.against {
        let snapshot: StatsSnapshot = serde_json::from_str(read(path)?.trim())
            .map_err(|e| format!("{path}: bad snapshot: {e}"))?;
        audit::trace_against(&events, &snapshot).map_err(|e| format!("{path}: {e}"))?;
    }
    print!(
        "{}",
        render_replay(
            path,
            &events,
            flight.as_ref(),
            options.flight_filter.as_ref()
        )
    );
    if options.against.is_some() {
        println!("\nreplay OK: per-solver span counts match the live decision counters");
    }
    Ok(())
}

/// `--flight-dump`: fetch the live flight-recorder ring over the side
/// channel's `flight` command and render the dump view (with any
/// `--flight-filter` applied) — no trace file needed.
fn run_flight_dump(addr: &str, filter: Option<&FlightFilter>) -> Result<(), String> {
    let dump = fetch_flight_dump(addr).map_err(|e| format!("{addr}: {e}"))?;
    print!(
        "msmr-top — flight recorder dump from {addr}\n\n{}",
        render_flight(&dump, filter)
    );
    Ok(())
}

fn fetch_snapshot(addr: &str) -> Result<(String, StatsSnapshot), String> {
    let json = fetch_stats_json(addr).map_err(|e| format!("{addr}: {e}"))?;
    let snapshot = serde_json::from_str(&json).map_err(|e| format!("{addr}: bad snapshot: {e}"))?;
    Ok((json, snapshot))
}

fn run(options: &Options) -> Result<(), String> {
    if let Some(path) = &options.check_trace {
        let summary = read_trace(path)?.summary();
        audit::trace_tallies(&summary, options.expect_spans, options.expect_counters)
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "trace OK: {} spans, {} counter samples, {} solver lanes",
            summary.spans, summary.counters, summary.lanes
        );
        return Ok(());
    }
    if options.replay.is_some() {
        return run_replay(options);
    }
    let addr = options.addr.as_deref().expect("addr checked by the parser");
    if options.flight_dump {
        return run_flight_dump(addr, options.flight_filter.as_ref());
    }
    if options.once {
        let (json, snapshot) = fetch_snapshot(addr)?;
        if let Some(min) = options.min_admits {
            if snapshot.counters.admits < min {
                return Err(format!(
                    "{addr}: admits {} below required {min}",
                    snapshot.counters.admits
                ));
            }
            audit::histograms(&snapshot).map_err(|e| format!("{addr}: {e}"))?;
        }
        println!("{json}");
        return Ok(());
    }
    let interval = Duration::from_millis(options.interval_ms.max(MIN_INTERVAL_MS));
    let mut depths: Vec<u64> = Vec::new();
    let mut iteration = 0u64;
    loop {
        let snapshot = match fetch_snapshot(addr) {
            Ok((_, snapshot)) => snapshot,
            Err(e) if iteration == 0 => return Err(e),
            Err(_) => {
                // The daemon bounced mid-watch; keep polling until it
                // answers again.
                std::thread::sleep(interval);
                continue;
            }
        };
        depths.push(snapshot.gauges.queue_depth);
        if depths.len() > SPARK_WINDOW {
            depths.remove(0);
        }
        // Clear + home, then one full frame.
        print!("\x1b[2J\x1b[H{}", render(&snapshot, &depths));
        let _ = std::io::stdout().flush();
        iteration += 1;
        if options.iterations != 0 && iteration >= options.iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if message == "help" {
                eprintln!(
                    "usage: msmr-top --addr HOST:PORT [--interval-ms N] [--iterations N]\n\
                     \x20      msmr-top --addr HOST:PORT --once [--min-admits N]\n\
                     \x20      msmr-top --addr HOST:PORT --flight-dump [--flight-filter kind=K,session=S]\n\
                     \x20      msmr-top --check-trace FILE [--expect-spans N] [--expect-counters N]\n\
                     \x20      msmr-top --replay FILE [--flight DUMP] [--against SNAPSHOT]\n\
                     \x20                             [--flight-filter kind=K,session=S]"
                );
                return ExitCode::SUCCESS;
            }
            eprintln!("msmr-top: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("msmr-top: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_stats::{OpLatency, SessionRow, SolverRow};

    fn sample_snapshot() -> StatsSnapshot {
        let mut snapshot = StatsSnapshot::default();
        snapshot.counters.admits = 12;
        snapshot.counters.warm_decides = 9;
        snapshot.counters.cold_decides = 3;
        snapshot.counters.snapshot_quarantined = 1;
        snapshot.counters.deduped_ops = 4;
        snapshot.gauges.queue_depth = 2;
        snapshot.gauges.queue_capacity = 64;
        snapshot.ops.insert(
            "admit".into(),
            OpLatency::from_counts(vec![0, 0, 0, 0, 0, 0, 8, 3, 1]),
        );
        snapshot.solvers.insert(
            "OPDCA".into(),
            SolverRow {
                verdicts: 12,
                accepted: 11,
                warm: 12,
                sdca_calls: 300,
                elapsed_micros: 660,
                ..SolverRow::default()
            },
        );
        snapshot.sessions.push(SessionRow {
            name: "loadgen-7-0".into(),
            jobs: 8,
            version: 14,
            attached: 2,
        });
        snapshot
    }

    #[test]
    fn sparkline_scales_to_the_window_maximum() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let line = sparkline(&[0, 4, 8]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
    }

    #[test]
    fn render_includes_every_table() {
        let snapshot = sample_snapshot();
        let frame = render(&snapshot, &[0, 1, 2]);
        assert!(frame.contains("admits       12"));
        assert!(frame.contains("quarantined   1"));
        assert!(frame.contains("deduped     4"));
        assert!(frame.contains("75.0%"));
        assert!(frame.contains("OPDCA"));
        assert!(frame.contains("loadgen-7-0"));
        assert!(frame.contains("queue   2/64"));
    }

    #[test]
    fn tui_frame_shows_distributions_shards_and_solver_latency() {
        let mut snapshot = sample_snapshot();
        snapshot.gauges.sessions_per_shard = vec![3, 0, 1, 2];
        snapshot.gauges.live_sessions = 6;
        let frame = render(&snapshot, &[0, 1, 2]);
        // Each op's distribution: the histogram range and its sparkline.
        assert!(frame.contains("[32µs, 256µs)"));
        assert!(frame.chars().any(|c| SPARKS.contains(&c)));
        // Shard occupancy, one count per shard.
        assert!(frame.contains("sessions 6   shards [3, 0, 1, 2]"));
        // Solver latency: 660 µs over 12 verdicts = 55.0 mean.
        assert!(frame.contains("55.0"));
        // No ANSI control codes inside the frame — the loop owns them.
        assert!(!frame.contains('\x1b'));
    }

    #[test]
    fn empty_histograms_render_without_a_range() {
        let mut snapshot = sample_snapshot();
        snapshot.ops.get_mut("admit").unwrap().histo_buckets = Vec::new();
        let frame = render(&snapshot, &[]);
        assert!(frame.contains("no samples"));
        assert!(!frame.contains("µs)"));
    }

    fn sample_events() -> TraceEvents {
        use msmr_stats::{TraceCounterSample, TraceSpan};
        let mut events = TraceEvents::default();
        for (i, (solver, dur, accepted)) in [
            ("OPDCA", 40u64, true),
            ("OPDCA", 60, true),
            ("GREEDY", 500, false),
        ]
        .iter()
        .enumerate()
        {
            events.spans.push(TraceSpan {
                solver: (*solver).to_string(),
                ts_us: i as u64 * 1000,
                dur_us: *dur,
                seq: Some(i as u64),
                accepted: Some(*accepted),
            });
        }
        events.lanes.insert("OPDCA".into(), 1);
        events.lanes.insert("GREEDY".into(), 2);
        events.counters.push(TraceCounterSample {
            name: "queue depth".into(),
            ts_us: 2500,
            value: 7,
        });
        events
    }

    fn sample_dump() -> FlightDump {
        FlightDump {
            capacity: 1024,
            recorded: 2,
            dropped: 0,
            events: vec![
                Event {
                    seq: 0,
                    ts_us: 10,
                    kind: EventKind::Admit,
                    session: Some("tenant-0".into()),
                    op_seq: Some(1),
                },
                Event {
                    seq: 1,
                    ts_us: 20,
                    kind: EventKind::Overload,
                    session: None,
                    op_seq: None,
                },
            ],
        }
    }

    #[test]
    fn replay_report_rebuilds_lanes_histograms_and_counter_tracks() {
        let events = sample_events();
        let dump = sample_dump();
        let report = render_replay("run.trace", &events, Some(&dump), None);
        assert!(report.contains("offline replay of run.trace"));
        assert!(report.contains("3 spans on 2 solver lanes, 1 counter samples"));
        // Per-solver lanes: spans, accepts, mean, and a histogram range.
        assert!(report.contains("OPDCA"));
        assert!(report.contains("GREEDY"));
        assert!(report.contains("50.0")); // OPDCA mean of 40/60 µs
        assert!(report.contains("[32µs, 64µs)")); // OPDCA distribution span
        assert!(report.chars().any(|c| SPARKS.contains(&c)));
        // Counter tracks with the value envelope.
        assert!(report.contains("queue depth"));
        // Flight dump section: totals, per-kind tallies, event tail.
        assert!(report.contains("2 recorded, 0 dropped (capacity 1024)"));
        assert!(report.contains("Admit 1"));
        assert!(report.contains("Overload 1"));
        assert!(report.contains("tenant-0"));
        assert!(report.contains("seq=1"));
    }

    #[test]
    fn replay_percentile_columns_are_the_p50_and_p99_bucket_edges() {
        use msmr_stats::TraceSpan;
        // Fifty 10 µs spans and fifty 1 000 µs spans: the p50 sample sits
        // in bucket [8, 16) µs, the p99 sample in [512, 1024) µs.
        let mut events = TraceEvents::default();
        for (i, dur_us) in [10u64; 50].into_iter().chain([1_000; 50]).enumerate() {
            events.spans.push(TraceSpan {
                solver: "OPT".into(),
                ts_us: i as u64 * 2_000,
                dur_us,
                seq: Some(i as u64),
                accepted: Some(true),
            });
        }
        let report = render_replay("run.trace", &events, None, None);
        let row = report
            .lines()
            .find(|line| line.starts_with("OPT "))
            .expect("an OPT lane row");
        assert!(row.contains("   15.0/1023.0 "), "{row}");
    }

    #[test]
    fn flight_filter_parses_pairs_and_rejects_nonsense() {
        let filter = FlightFilter::parse("kind=overload").unwrap();
        assert_eq!(filter.kind, Some(EventKind::Overload));
        assert_eq!(filter.session, None);
        // Kind names are case-insensitive and tolerate -/_ separators.
        let filter = FlightFilter::parse("kind=Snapshot-Write").unwrap();
        assert_eq!(filter.kind, Some(EventKind::SnapshotWrite));
        let filter = FlightFilter::parse("kind=ADMIT, session=tenant-0").unwrap();
        assert_eq!(filter.kind, Some(EventKind::Admit));
        assert_eq!(filter.session.as_deref(), Some("tenant-0"));
        assert_eq!(filter.describe(), "kind=Admit session=tenant-0");
        assert!(FlightFilter::parse("")
            .unwrap_err()
            .contains("empty filter"));
        assert!(FlightFilter::parse("overload")
            .unwrap_err()
            .contains("key=value"));
        assert!(FlightFilter::parse("kind=bogus")
            .unwrap_err()
            .contains("unknown event kind"));
        assert!(FlightFilter::parse("solver=OPDCA")
            .unwrap_err()
            .contains("unknown filter key"));
    }

    #[test]
    fn flight_filter_narrows_tallies_and_tail_but_not_totals() {
        let dump = sample_dump();
        // Unfiltered: both kinds tallied, both events in the tail.
        let view = render_flight(&dump, None);
        assert!(view.contains("Admit 1"));
        assert!(view.contains("Overload 1"));
        assert!(!view.contains("filter"));
        // kind filter: only the matching event survives; the honest
        // recorded/dropped totals stay.
        let filter = FlightFilter::parse("kind=overload").unwrap();
        let view = render_flight(&dump, Some(&filter));
        assert!(view.contains("2 recorded, 0 dropped (capacity 1024)"));
        assert!(view.contains("filter kind=Overload: 1 of 2 events match"));
        assert!(view.contains("Overload 1"));
        assert!(!view.contains("Admit 1"));
        assert!(!view.contains("tenant-0"));
        assert!(view.contains("last 1 events:"));
        // session filter: the unlabeled overload event drops out.
        let filter = FlightFilter::parse("session=tenant-0").unwrap();
        let view = render_flight(&dump, Some(&filter));
        assert!(view.contains("filter session=tenant-0: 1 of 2 events match"));
        assert!(view.contains("tenant-0"));
        assert!(!view.contains("Overload 1"));
        // Conjunction that nothing satisfies.
        let filter = FlightFilter::parse("kind=overload,session=tenant-0").unwrap();
        let view = render_flight(&dump, Some(&filter));
        assert!(view.contains("0 of 2 events match"));
        assert!(view.contains("last 0 events:"));
        // The replay fold-in threads the same filter through.
        let report = render_replay("run.trace", &sample_events(), Some(&dump), Some(&filter));
        assert!(report.contains("0 of 2 events match"));
    }

    #[test]
    fn parser_accepts_the_replay_and_stream_modes() {
        let options = parse_args(&[
            "--replay".into(),
            "run.trace".into(),
            "--flight".into(),
            "flight.json".into(),
            "--against".into(),
            "snap.json".into(),
        ])
        .unwrap();
        assert_eq!(options.replay.as_deref(), Some("run.trace"));
        assert_eq!(options.flight.as_deref(), Some("flight.json"));
        assert_eq!(options.against.as_deref(), Some("snap.json"));
        // The live dashboard polls at its own pace.
        let options = parse_args(&[
            "--addr".into(),
            "127.0.0.1:9".into(),
            "--interval-ms".into(),
            "200".into(),
        ])
        .unwrap();
        assert_eq!(options.interval_ms, 200);
        // --flight without --replay is refused, as is a live mode
        // without an address.
        assert!(parse_args(&["--flight".into(), "x.json".into()]).is_err());
        assert!(parse_args(&["--interval-ms".into(), "200".into()]).is_err());
    }

    #[test]
    fn parser_wires_the_flight_dump_and_filter_modes() {
        let options = parse_args(&[
            "--addr".into(),
            "127.0.0.1:9".into(),
            "--flight-dump".into(),
            "--flight-filter".into(),
            "kind=overload,session=t-1".into(),
        ])
        .unwrap();
        assert!(options.flight_dump);
        let filter = options.flight_filter.unwrap();
        assert_eq!(filter.kind, Some(EventKind::Overload));
        assert_eq!(filter.session.as_deref(), Some("t-1"));
        // The filter also rides the offline fold-in.
        let options = parse_args(&[
            "--replay".into(),
            "run.trace".into(),
            "--flight".into(),
            "flight.json".into(),
            "--flight-filter".into(),
            "session=t-1".into(),
        ])
        .unwrap();
        assert!(options.flight_filter.is_some());
        // A filter with no flight view to apply to is refused, as is
        // mixing the live dump with the offline modes, a dump with no
        // address, and a malformed filter spec.
        assert!(parse_args(&[
            "--addr".into(),
            "127.0.0.1:9".into(),
            "--flight-filter".into(),
            "kind=admit".into(),
        ])
        .is_err());
        assert!(parse_args(&[
            "--replay".into(),
            "run.trace".into(),
            "--flight-filter".into(),
            "kind=admit".into(),
        ])
        .is_err());
        assert!(parse_args(&[
            "--replay".into(),
            "run.trace".into(),
            "--flight-dump".into(),
        ])
        .is_err());
        assert!(parse_args(&["--flight-dump".into()]).is_err());
        assert!(parse_args(&[
            "--addr".into(),
            "127.0.0.1:9".into(),
            "--flight-dump".into(),
            "--flight-filter".into(),
            "kind=bogus".into(),
        ])
        .is_err());
    }

    #[test]
    fn parser_rejects_missing_addr_and_unknown_flags() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        let options =
            parse_args(&["--addr".into(), "127.0.0.1:9".into(), "--once".into()]).unwrap();
        assert!(options.once);
        let options = parse_args(&[
            "--addr".into(),
            "127.0.0.1:9".into(),
            "--iterations".into(),
            "3".into(),
        ])
        .unwrap();
        assert_eq!(options.iterations, 3);
        // There is one dashboard; the removed full-screen flag is unknown.
        assert!(parse_args(&["--addr".into(), "127.0.0.1:9".into(), "--tui".into()]).is_err());
        let options = parse_args(&[
            "--check-trace".into(),
            "x.trace".into(),
            "--expect-counters".into(),
            "5".into(),
        ])
        .unwrap();
        assert_eq!(options.check_trace.as_deref(), Some("x.trace"));
        assert_eq!(options.expect_counters, Some(5));
    }
}
