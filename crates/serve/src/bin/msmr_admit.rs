//! `msmr-admit` — client for the admission daemon.
//!
//! ```text
//! msmr-admit (--tcp ADDR | --uds PATH) <command>
//!
//! commands:
//!   --status                    print the session status frame
//!   --stats                     print the daemon's live stats snapshot (protocol v4)
//!   --shutdown                  stop the daemon
//!   --replay [--jobs N] [--seed S] [--beta F] [--evaluate] [--verify]
//!             [--bound NAME] [--opt-nodes N] [--withdraw-ratio F] [--json]
//!             [--sessions K [--clients M]] [--check-stats]
//! ```
//!
//! `--replay` generates an edge workload trace, feeds its jobs to the
//! daemon one `admit` at a time in arrival order and prints a summary
//! (admits, rejects, p50/p99 admit round-trip latency). With
//! `--withdraw-ratio F`, after each admitted arrival a random handle the
//! client admitted is withdrawn with probability `F` (deterministic in
//! the seed), exercising the general `O(n·N)` mid-set withdraw of the
//! online seam. Every client runs the one loop
//! `msmr_serve::Client::replay_arrivals`.
//!
//! Without `--sessions`, one client replays on its connection's private
//! session (a `--cluster` daemon has none and answers `not attached`).
//! With `--sessions K`, a setup connection creates `K` fresh named
//! sessions `loadgen-<seed>-<k>` (a name that already exists is refused)
//! and opens session `k` with the pipeline of trace `seed + k`; then
//! `--clients M` connections (default 1, `K` is clamped to `M`) replay
//! concurrently. Client `m` drives session `m % K`, admits every
//! `(m / K)`-th arrival of its trace and draws its withdrawals from the
//! seed `seed ^ m·0x9e37`, so client 0's op sequence is the private
//! replay's.
//!
//! With `--verify` each session's history, sorted by seq, goes through
//! both oracles of `msmr_serve::history`: `replay_cold` (an offline
//! solve of every visited job set, each admit checked against the
//! daemon's decider) and `replay_warm` (a fresh `AdmissionSession` fed
//! in seq order). With `--evaluate` they check the full suite's
//! verdicts; without it the decider's one verdict per op — the
//! decider-only traffic the daemon answers on the connection thread
//! when uncontended. Every streamed verdict set — admits *and*
//! withdrawals — must match byte for byte after zeroing the
//! execution-provenance fields `elapsed_micros` and `cold_fallback`. The
//! first divergence of a session is printed and makes the process exit
//! non-zero — this is the CI smoke check. `--check-stats` ends the run
//! by asserting the daemon's admit / reject / withdraw / overload /
//! submit / deduped counters equal the run's tallies exactly (against a
//! freshly started daemon; the counters are daemon-lifetime totals).
//!
//! With `--json` the replay summary is printed as one machine-readable
//! JSON line instead of prose — counts (admitted / rejected / withdrawn /
//! overloads), the 0/1 flag `verify_mismatches`, exact nearest-rank
//! p50/p99 admit latency and the same samples in the daemon's log-bucket
//! form.
//!
//! With `--session NAME`, `--status` first attaches to that named shared
//! session and `--stats` reports that session's breakdown. A replay
//! submits, which would wipe a named session, so `--session` with
//! `--replay` is refused: named replays use `--sessions 1`. A typed
//! overload/backpressure response from the daemon exits with the
//! distinct code 75 (`EX_TEMPFAIL`), so callers can tell "retry later"
//! from a protocol failure (exit 1); with `--json` the abort still emits
//! a summary line whose `overloads` count is the number of clients it
//! stopped.

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use msmr_dca::DelayBoundKind;
use msmr_model::{JobId, JobSet};
use msmr_serve::history::{replay_cold, replay_warm, Decision};
use msmr_serve::protocol::{Frame, Op, ShutdownOp, StatsOp, StatusOp, SubmitOp};
use msmr_serve::{parse_bound, Client, Endpoint, ReplayOutcome, SessionConfig};
use msmr_stats::StatsCounters;
use msmr_workload::{arrival_order, EdgeWorkloadConfig, EdgeWorkloadGenerator};
use serde::Serialize;

/// Exit code for a typed overload/backpressure response (`EX_TEMPFAIL`:
/// the daemon is healthy but saturated — retry later).
const EXIT_OVERLOADED: u8 = 75;

/// Maps a replay failure to the process exit code: typed backpressure
/// (surfaced by the client as `WouldBlock`) gets its own code, every
/// other failure is a generic error.
fn replay_error_exit(kind: io::ErrorKind) -> u8 {
    if kind == io::ErrorKind::WouldBlock {
        EXIT_OVERLOADED
    } else {
        1
    }
}

struct Options {
    endpoint: Endpoint,
    session: Option<String>,
    command: Command,
}

enum Command {
    Status,
    Stats,
    Shutdown,
    Replay(ReplayOptions),
}

struct ReplayOptions {
    jobs: usize,
    seed: u64,
    beta: Option<f64>,
    evaluate: bool,
    verify: bool,
    bound: DelayBoundKind,
    opt_nodes: u64,
    withdraw_ratio: f64,
    json: bool,
    /// Concurrent replaying connections (more than one needs `sessions`).
    clients: usize,
    /// Fresh named sessions the clients spread over; `None` replays on
    /// the connection's private session.
    sessions: Option<usize>,
    check_stats: bool,
}

/// The `--replay --json` machine-readable run summary, one JSON line.
/// The client holds every round-trip sample, so `admit_p50_us` /
/// `admit_p99_us` are exact nearest-rank percentiles; `admit_histo_*`
/// are the same samples in the log-bucket form of the daemon's stats.
#[derive(Debug, Serialize)]
struct ReplaySummary {
    /// Arrivals sent (each one `admit` round-trip).
    requests: u64,
    /// Arrivals the daemon admitted.
    admitted: u64,
    /// Arrivals the daemon rejected (and rolled back).
    rejected: u64,
    /// Jobs withdrawn by the mixed replay's withdraw draw.
    withdrawn: u64,
    /// Typed backpressure responses. A client aborts on its first one,
    /// so this counts the clients an overload stopped (0 on a clean run).
    overloads: u64,
    /// `--verify` against the offline oracles, a 0/1 flag: 1 when they
    /// found a divergence, else 0. Not a count — each session's check
    /// stops at its first divergence (printed to stderr).
    verify_mismatches: u64,
    /// Nearest-rank median admit round-trip, microseconds.
    admit_p50_us: f64,
    /// Nearest-rank 99th-percentile admit round-trip, microseconds.
    admit_p99_us: f64,
    /// Ops the daemon acked through seq-dedupe instead of re-applying
    /// (`deduped: true` on the decision frame). Always 0 for this
    /// client — it never asserts seqs — but counted from the frames so
    /// scripted consumers see the same field the daemon's stats report.
    deduped_ops: u64,
    /// Log-bucket counts over the same latency samples (see
    /// `msmr_stats::bucket_bounds`), trimmed after the last non-empty
    /// bucket.
    admit_histo_buckets: Vec<u64>,
    /// Histogram-estimated p50 (bucket upper edge), microseconds.
    admit_histo_p50_us: f64,
    /// Histogram-estimated p99 (bucket upper edge), microseconds.
    admit_histo_p99_us: f64,
}

impl ReplaySummary {
    /// Builds the summary from the samples rounded to whole microseconds:
    /// exact [`msmr_stats::nearest_rank`] percentiles plus the log-bucket
    /// [`msmr_stats::LatencyHisto`] the daemon's stats registry keeps.
    fn new(latencies_us: &[f64], admitted: u64, rejected: u64, withdrawn: u64) -> Self {
        let histo = msmr_stats::LatencyHisto::new();
        let mut micros = Vec::with_capacity(latencies_us.len());
        for &latency in latencies_us {
            let rounded = latency.round() as u64;
            histo.record(rounded);
            micros.push(rounded as f64);
        }
        ReplaySummary {
            requests: latencies_us.len() as u64,
            admitted,
            rejected,
            withdrawn,
            overloads: 0,
            verify_mismatches: 0,
            admit_p50_us: msmr_stats::nearest_rank(&micros, 0.50),
            admit_p99_us: msmr_stats::nearest_rank(&micros, 0.99),
            deduped_ops: 0,
            admit_histo_buckets: histo.counts(),
            admit_histo_p50_us: histo.percentile_us(0.50),
            admit_histo_p99_us: histo.percentile_us(0.99),
        }
    }
}

fn usage() -> &'static str {
    "usage: msmr-admit (--tcp ADDR | --uds PATH) [--session NAME] <command>\n\ncommands:\n  --status        print the session status frame\n  --stats         print the daemon's live stats snapshot as JSON (protocol v4);\n                  with --session NAME, print that session's breakdown instead\n                  (reads without refreshing the session's TTL)\n  --shutdown      stop the daemon\n  --replay        feed a generated workload trace, one admit per arrival\n\noptions:\n  --session NAME  attach to a named shared session first (not with --replay)\n\nreplay options:\n  --jobs N        trace length per session (default 100)\n  --seed S        workload seed (default 2024)\n  --beta F        workload heaviness parameter\n  --evaluate      stream the full solver suite per admit\n  --verify        check every streamed verdict against both offline oracles\n                  (the full suite's with --evaluate, else the decider's)\n  --bound NAME    delay bound, must match the daemon's (default eq10)\n  --opt-nodes N   exact-engine node budget, must match the daemon's (default 200000)\n  --withdraw-ratio F  withdraw a random admitted job after each admit with probability F\n  --json          print the run summary as one machine-readable JSON line\n  --sessions K    replay on K fresh named sessions loadgen-<seed>-<k> (default: the private session)\n  --clients M     concurrent clients over those sessions (default 1; needs --sessions)\n  --check-stats   assert the daemon's counters equal this run's tallies (fresh daemon)\n\nexit codes: 0 ok, 1 error, 75 daemon overloaded (typed backpressure; retry later)"
}

/// Parses `raw` as the value of option `name`.
fn number<T: FromStr>(name: &str, raw: String) -> Result<T, String> {
    raw.parse().map_err(|_| format!("invalid {name} value"))
}

fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut endpoint = None;
    let mut session = None;
    let mut command = None;
    let mut replay = ReplayOptions {
        jobs: 100,
        seed: 2024,
        beta: None,
        evaluate: false,
        verify: false,
        bound: DelayBoundKind::EdgeHybrid,
        opt_nodes: 200_000,
        withdraw_ratio: 0.0,
        json: false,
        clients: 1,
        sessions: None,
        check_stats: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--tcp" => endpoint = Some(Endpoint::Tcp(value("--tcp")?)),
            "--uds" => endpoint = Some(Endpoint::Uds(PathBuf::from(value("--uds")?))),
            "--session" => session = Some(value("--session")?),
            "--status" => command = Some("status"),
            "--stats" => command = Some("stats"),
            "--shutdown" => command = Some("shutdown"),
            "--replay" => command = Some("replay"),
            "--json" => replay.json = true,
            "--jobs" => replay.jobs = number("--jobs", value("--jobs")?)?,
            "--seed" => replay.seed = number("--seed", value("--seed")?)?,
            "--beta" => replay.beta = Some(number("--beta", value("--beta")?)?),
            "--evaluate" => replay.evaluate = true,
            "--verify" => replay.verify = true,
            "--bound" => {
                let name = value("--bound")?;
                replay.bound =
                    parse_bound(&name).ok_or_else(|| format!("unknown bound `{name}`"))?;
            }
            "--opt-nodes" => replay.opt_nodes = number("--opt-nodes", value("--opt-nodes")?)?,
            "--withdraw-ratio" => {
                replay.withdraw_ratio = value("--withdraw-ratio")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("invalid --withdraw-ratio value (need 0.0..=1.0)")?;
            }
            "--clients" => replay.clients = number("--clients", value("--clients")?)?,
            "--sessions" => replay.sessions = Some(number("--sessions", value("--sessions")?)?),
            "--check-stats" => replay.check_stats = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let endpoint = endpoint.ok_or("one of --tcp / --uds is required")?;
    let command =
        match command.ok_or("one of --status / --stats / --shutdown / --replay is required")? {
            "status" => Command::Status,
            "stats" => Command::Stats,
            "shutdown" => Command::Shutdown,
            _ => {
                if session.is_some() {
                    return Err("--replay submits, which would wipe the named --session; \
                                replay on fresh named sessions with --sessions 1"
                        .to_string());
                }
                if replay.jobs == 0 || replay.clients == 0 || replay.sessions == Some(0) {
                    return Err("--jobs, --clients and --sessions must be positive".to_string());
                }
                if replay.sessions.is_none() && replay.clients > 1 {
                    return Err("--clients above 1 needs --sessions: \
                                a private session has one connection"
                        .to_string());
                }
                replay.sessions = replay.sessions.map(|k| k.min(replay.clients));
                Command::Replay(replay)
            }
        };
    Ok(Options {
        endpoint,
        session,
        command,
    })
}

/// The name of session `k` of a `--sessions` replay.
fn session_name(seed: u64, k: usize) -> String {
    format!("loadgen-{seed}-{k}")
}

/// The trace of session `k` (the only one of a private replay): a
/// generated edge workload seeded `seed + k`.
fn trace(options: &ReplayOptions, k: usize) -> Result<JobSet, String> {
    let mut config = EdgeWorkloadConfig::scaled(options.jobs);
    if let Some(beta) = options.beta {
        config = config.with_beta(beta);
    }
    let generator = EdgeWorkloadGenerator::new(config).map_err(|e| e.to_string())?;
    Ok(generator.generate_seeded(options.seed.wrapping_add(k as u64)))
}

/// Creates every `--sessions` session on the setup connection and opens
/// it with its trace's pipeline. An existing name is refused: the
/// oracles need a history that starts at seq 1.
fn open_sessions(client: &mut Client, seed: u64, traces: &[JobSet]) -> Result<(), String> {
    for (k, trace) in traces.iter().enumerate() {
        let name = session_name(seed, k);
        let attach = client.attach(&name, true).map_err(|e| e.to_string())?;
        if !attach.created {
            return Err(format!(
                "session `{name}` already exists on the daemon — pick a fresh --seed"
            ));
        }
        let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
        client
            .request(Op::Submit(SubmitOp {
                jobs: pipeline,
                parallel: None,
            }))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Client `m` of a `--sessions` replay: attaches to session `m % K` and
/// admits every `(m / K)`-th arrival of its trace (round-robin among the
/// session's clients) on its own withdraw draw.
fn run_client(
    endpoint: &Endpoint,
    options: &ReplayOptions,
    traces: &[JobSet],
    m: usize,
) -> io::Result<ReplayOutcome> {
    let k = m % traces.len();
    let lanes = (options.clients - k).div_ceil(traces.len());
    let arrivals: Vec<JobId> = arrival_order(&traces[k])
        .into_iter()
        .skip(m / traces.len())
        .step_by(lanes)
        .collect();
    let mut client = Client::connect(endpoint)?;
    client.attach(&session_name(options.seed, k), false)?;
    client.replay_arrivals(
        &traces[k],
        &arrivals,
        options.evaluate,
        options.withdraw_ratio,
        options.seed ^ (m as u64).wrapping_mul(0x9e37),
    )
}

fn replay(
    client: &mut Client,
    endpoint: &Endpoint,
    options: &ReplayOptions,
) -> Result<ExitCode, String> {
    let traces = (0..options.sessions.unwrap_or(1))
        .map(|k| trace(options, k))
        .collect::<Result<Vec<_>, _>>()?;
    let results: Vec<io::Result<ReplayOutcome>> = match options.sessions {
        None => vec![client.replay_trace_mixed(
            &traces[0],
            options.evaluate,
            options.withdraw_ratio,
            options.seed,
        )],
        Some(_) => {
            open_sessions(client, options.seed, &traces)?;
            let traces = &traces;
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..options.clients)
                    .map(|m| scope.spawn(move || run_client(endpoint, options, traces, m)))
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("replay client panicked"))
                    .collect()
            })
        }
    };

    let mut histories: Vec<Vec<Decision>> = vec![Vec::new(); traces.len()];
    let mut latencies = Vec::new();
    let mut tallies = StatsCounters {
        submits: traces.len() as u64,
        ..StatsCounters::default()
    };
    let mut exit = None;
    for (m, result) in results.into_iter().enumerate() {
        match result {
            Ok(outcome) => {
                tallies.admits += outcome.admitted as u64;
                tallies.rejects += outcome.rejected as u64;
                tallies.withdraws += outcome.withdrawn as u64;
                latencies.extend(outcome.latencies_us);
                histories[m % traces.len()].extend(outcome.decisions);
            }
            Err(e) => {
                eprintln!("msmr-admit: client {m}: {e}");
                tallies.overloads += u64::from(e.kind() == io::ErrorKind::WouldBlock);
                // A hard error outranks backpressure: retrying would not help.
                let code = replay_error_exit(e.kind());
                exit = Some(exit.map_or(code, |other: u8| other.min(code)));
            }
        }
    }
    if let Some(code) = exit {
        if options.json {
            // Machine consumers still get a summary line; the overload
            // count is the clients typed backpressure stopped.
            let mut summary = ReplaySummary::new(&[], 0, 0, 0);
            summary.overloads = tallies.overloads;
            println!(
                "{}",
                serde_json::to_string(&summary).expect("summary serializes")
            );
        }
        return Ok(ExitCode::from(code));
    }
    tallies.deduped_ops = histories.iter().flatten().filter(|d| d.deduped).count() as u64;

    let mut diverged = false;
    if options.verify {
        let config = SessionConfig {
            bound: options.bound,
            node_limit: Some(options.opt_nodes),
            decider: daemon_decider(client)?,
            ..SessionConfig::default()
        };
        for (k, (trace, history)) in traces.iter().zip(&mut histories).enumerate() {
            history.sort_by_key(|d| d.seq);
            let evaluate = options.evaluate;
            let checked = replay_cold(trace, history, &config, evaluate)
                .map_err(|e| ("cold", e))
                .and_then(|()| {
                    replay_warm(trace, history, &config, evaluate).map_err(|e| ("warm", e))
                });
            if let Err((oracle, divergence)) = checked {
                diverged = true;
                let session = match options.sessions {
                    Some(_) => format!("session `{}`", session_name(options.seed, k)),
                    None => "the private session".to_string(),
                };
                eprintln!("verdict mismatch: {divergence}\n  ({oracle} oracle, {session})");
            }
        }
    }

    if options.json {
        let mut summary = ReplaySummary::new(
            &latencies,
            tallies.admits,
            tallies.rejects,
            tallies.withdraws,
        );
        summary.verify_mismatches = u64::from(diverged);
        summary.deduped_ops = tallies.deduped_ops;
        println!(
            "{}",
            serde_json::to_string(&summary).expect("summary serializes")
        );
    } else {
        println!(
            "replayed {} arrivals{}: {} admitted, {} rejected, {} withdrawn; admit latency p50 {:.0} µs, p99 {:.0} µs{}",
            latencies.len(),
            match options.sessions {
                Some(k) => format!(" from {} clients over {k} sessions", options.clients),
                None => String::new(),
            },
            tallies.admits,
            tallies.rejects,
            tallies.withdraws,
            msmr_stats::nearest_rank(&latencies, 0.50),
            msmr_stats::nearest_rank(&latencies, 0.99),
            match (options.verify, diverged) {
                (false, _) => "",
                (true, false) => "; verified against both offline oracles, 0 mismatches",
                (true, true) => "; the offline oracles diverged (first mismatch above)",
            },
        );
    }
    if options.check_stats {
        check_daemon_stats(client, &tallies)?;
    }
    Ok(if diverged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `--check-stats`: the daemon's admit / reject / withdraw / overload /
/// submit / deduped counters must equal the run's tallies exactly —
/// every decided round trip lands in precisely one counter and an
/// overload aborts the run before this check.
fn check_daemon_stats(client: &mut Client, tallies: &StatsCounters) -> Result<(), String> {
    let frames = client
        .request(Op::Stats(StatsOp { session: None }))
        .map_err(|e| e.to_string())?;
    let daemon = frames
        .into_iter()
        .find_map(|frame| match frame.frame {
            Frame::Stats(f) => Some(f.stats.counters),
            _ => None,
        })
        .ok_or("daemon answered the stats op with no stats frame")?;
    let mismatched: Vec<String> = [
        ("admits", daemon.admits, tallies.admits),
        ("rejects", daemon.rejects, tallies.rejects),
        ("withdraws", daemon.withdraws, tallies.withdraws),
        ("overloads", daemon.overloads, tallies.overloads),
        ("submits", daemon.submits, tallies.submits),
        ("deduped_ops", daemon.deduped_ops, tallies.deduped_ops),
    ]
    .iter()
    .filter(|(_, daemon, run)| daemon != run)
    .map(|(name, daemon, run)| format!("{name}: daemon {daemon} != run {run}"))
    .collect();
    if !mismatched.is_empty() {
        return Err(format!(
            "daemon stats diverge from the run's tallies ({}); was the daemon freshly started?",
            mismatched.join(", ")
        ));
    }
    println!("msmr-admit: check-stats OK — the daemon's counters match the run's tallies");
    Ok(())
}

/// The solver that decides admissions on the client's session, from
/// its status frame.
fn daemon_decider(client: &mut Client) -> Result<String, String> {
    let frames = client
        .request(Op::Status(StatusOp {}))
        .map_err(|e| e.to_string())?;
    frames
        .into_iter()
        .find_map(|frame| match frame.frame {
            Frame::Status(status) => Some(status.decider),
            _ => None,
        })
        .ok_or_else(|| "daemon answered the status op with no status frame".to_string())
}

fn main() -> ExitCode {
    let options = match parse_from(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("msmr-admit: {message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(&options.endpoint) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("msmr-admit: connect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--stats --session NAME` deliberately does NOT attach: it sends
    // the name inside the stats op instead, and the daemon's read path
    // never touches the session's TTL idleness — polling a dying
    // session must not keep it alive (an attach would).
    let stats_session = matches!(options.command, Command::Stats)
        .then(|| options.session.clone())
        .flatten();
    if let Some(session) = options.session.as_ref().filter(|_| stats_session.is_none()) {
        // Never create: status/shutdown against a mistyped name must
        // error instead of silently creating (and later snapshotting) an
        // empty junk session.
        match client.attach(session, false) {
            Ok(attach) => eprintln!(
                "msmr-admit: attached to session `{}` (v{}, {} jobs, {} clients)",
                attach.session, attach.version, attach.jobs, attach.attached
            ),
            Err(e) => {
                eprintln!("msmr-admit: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = match &options.command {
        Command::Status => client
            .request(Op::Status(StatusOp {}))
            .map_err(|e| e.to_string())
            .map(|frames| {
                for frame in &frames {
                    if let Frame::Status(status) = &frame.frame {
                        println!(
                            "{}",
                            serde_json::to_string(status).expect("status serializes")
                        );
                    }
                }
                ExitCode::SUCCESS
            }),
        Command::Stats => client
            .request(Op::Stats(StatsOp {
                session: stats_session,
            }))
            .map_err(|e| e.to_string())
            .and_then(|frames| {
                for frame in &frames {
                    match &frame.frame {
                        Frame::Stats(stats) => {
                            println!(
                                "{}",
                                serde_json::to_string(&stats.stats).expect("stats serialize")
                            );
                            return Ok(ExitCode::SUCCESS);
                        }
                        Frame::SessionStats(stats) => {
                            println!(
                                "{}",
                                serde_json::to_string(stats).expect("session stats serialize")
                            );
                            return Ok(ExitCode::SUCCESS);
                        }
                        Frame::Error(e) => return Err(e.message.clone()),
                        _ => {}
                    }
                }
                Err("daemon answered the stats op with no stats frame".to_string())
            }),
        Command::Shutdown => client
            .request(Op::Shutdown(ShutdownOp {}))
            .map_err(|e| e.to_string())
            .map(|_| {
                println!("msmr-admit: daemon shutdown requested");
                ExitCode::SUCCESS
            }),
        Command::Replay(replay_options) => replay(&mut client, &options.endpoint, replay_options),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("msmr-admit: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_summary_uses_nearest_rank_percentiles() {
        let latencies: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut summary = ReplaySummary::new(&latencies, 80, 20, 7);
        summary.verify_mismatches = 0;
        assert_eq!(summary.requests, 100);
        assert_eq!(summary.admit_p50_us, 50.0);
        assert_eq!(summary.admit_p99_us, 99.0);
        // Histogram over 1..=100 µs: buckets [1,2) .. [64,128) hold
        // rank 50 in [32,64) (edge 63) and rank 99 in [64,128) (127).
        assert_eq!(summary.admit_histo_p50_us, 63.0);
        assert_eq!(summary.admit_histo_p99_us, 127.0);
        assert_eq!(
            summary.admit_histo_buckets.iter().sum::<u64>(),
            summary.requests
        );
        let json = serde_json::to_string(&summary).unwrap();
        assert!(json.contains("\"admitted\":80"), "{json}");
        assert!(json.contains("\"overloads\":0"), "{json}");
        assert!(json.contains("\"admit_p99_us\":99.0"), "{json}");
        assert!(json.contains("\"deduped_ops\":0"), "{json}");
        assert!(json.contains("\"admit_histo_p99_us\":127.0"), "{json}");
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_from(args.iter().map(ToString::to_string))
    }

    /// The replay options of `--uds s --replay ARGS`.
    fn replay_options(args: &[&str]) -> Result<ReplayOptions, String> {
        match parse(&[&["--uds", "s", "--replay"], args].concat())?.command {
            Command::Replay(replay) => Ok(replay),
            _ => panic!("--replay parsed as another command"),
        }
    }

    fn refusal(args: &[&str]) -> String {
        replay_options(args)
            .err()
            .unwrap_or_else(|| panic!("{args:?} was accepted"))
    }

    #[test]
    fn several_clients_need_named_sessions() {
        assert!(refusal(&["--clients", "2"]).contains("needs --sessions"));
        let replay = replay_options(&["--clients", "2", "--sessions", "1"]).unwrap();
        assert_eq!((replay.clients, replay.sessions), (2, Some(1)));
        let replay = replay_options(&[]).unwrap();
        assert_eq!((replay.clients, replay.sessions), (1, None));
    }

    #[test]
    fn a_replay_refuses_a_named_session() {
        assert!(refusal(&["--session", "x"]).contains("--sessions 1"));
        assert!(parse(&["--uds", "s", "--session", "x", "--status"]).is_ok());
        assert!(parse(&["--uds", "s", "--session", "x", "--stats"]).is_ok());
    }

    #[test]
    fn sessions_are_clamped_to_clients() {
        let replay = replay_options(&["--clients", "3", "--sessions", "5"]).unwrap();
        assert_eq!((replay.clients, replay.sessions), (3, Some(3)));
        let replay = replay_options(&["--sessions", "4"]).unwrap();
        assert_eq!((replay.clients, replay.sessions), (1, Some(1)));
    }

    #[test]
    fn out_of_range_values_are_refused() {
        assert!(refusal(&["--withdraw-ratio", "1.5"]).contains("--withdraw-ratio"));
        assert!(refusal(&["--jobs", "0"]).contains("must be positive"));
        assert!(refusal(&["--clients", "0"]).contains("must be positive"));
        assert!(refusal(&["--sessions", "0"]).contains("must be positive"));
        let replay = replay_options(&["--withdraw-ratio", "0.25", "--jobs", "40"]).unwrap();
        assert_eq!((replay.withdraw_ratio, replay.jobs), (0.25, 40));
    }

    #[test]
    fn verify_checks_what_the_replay_streams() {
        let replay = replay_options(&["--verify"]).unwrap();
        assert_eq!((replay.verify, replay.evaluate), (true, false));
        let replay = replay_options(&["--verify", "--evaluate"]).unwrap();
        assert_eq!((replay.verify, replay.evaluate), (true, true));
        assert!(usage().contains("the full suite's with --evaluate, else the decider's"));
    }

    #[test]
    fn decider_and_retries_are_unknown_options() {
        assert_eq!(
            refusal(&["--decider", "OPDCA"]),
            "unknown option `--decider`"
        );
        assert_eq!(refusal(&["--retries", "3"]), "unknown option `--retries`");
    }

    #[test]
    fn overload_is_a_distinct_exit_code() {
        assert_eq!(
            replay_error_exit(io::ErrorKind::WouldBlock),
            EXIT_OVERLOADED
        );
        assert_eq!(replay_error_exit(io::ErrorKind::Other), 1);
        assert_eq!(replay_error_exit(io::ErrorKind::UnexpectedEof), 1);
        assert_ne!(EXIT_OVERLOADED, 0);
        assert_ne!(EXIT_OVERLOADED, 1);
    }
}
