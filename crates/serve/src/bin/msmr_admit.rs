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
//! ```
//!
//! `--replay` generates an edge workload trace, feeds its jobs to the
//! daemon one `admit` at a time in arrival order and prints a summary
//! (admits, rejects, p50/p99 round-trip latency). With
//! `--withdraw-ratio F`, after each admitted arrival a random admitted
//! handle is withdrawn with probability `F` (deterministic in the seed),
//! exercising the general `O(n·N)` mid-set withdraw of the online seam.
//! With `--verify` the recorded history goes through the cold oracle
//! `msmr_serve::history::replay_cold`: every streamed verdict set —
//! admits *and* withdrawals — is compared byte-for-byte (after zeroing
//! the execution-provenance fields `elapsed_micros` and `cold_fallback`)
//! against an offline `SolverRegistry::evaluate` of the same job set, and
//! every admit decision against the daemon's decider; the first
//! divergence is printed and makes the process exit non-zero — this is
//! the CI smoke check.
//!
//! With `--json` the replay summary is printed as one machine-readable
//! JSON line instead of prose — counts (admitted / rejected / withdrawn /
//! overloads), the 0/1 flag `verify_mismatches`, exact nearest-rank
//! p50/p99 admit latency and the same samples in the daemon's log-bucket
//! form.
//!
//! With `--session NAME` the client first attaches to that named shared
//! session; without it, it works on the connection's private session (a
//! `--cluster` daemon has none and answers `not attached`). A typed
//! overload/backpressure response from the daemon exits with the
//! distinct code 75 (`EX_TEMPFAIL`), so callers can tell "retry later"
//! from a protocol failure (exit 1); with `--json` the abort still emits
//! a summary line whose `overloads` count is 1.

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use msmr_dca::DelayBoundKind;
use msmr_model::JobSet;
use msmr_serve::history::replay_cold;
use msmr_serve::protocol::{Frame, Op, ShutdownOp, StatsOp, StatusOp};
use msmr_serve::{parse_bound, Client, Endpoint, SessionConfig};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};
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
    /// Typed backpressure responses. The classic client aborts on the
    /// first one, so this is 0 (clean run) or 1 (aborted overloaded).
    overloads: u64,
    /// `--verify` against the offline evaluate mirror, a 0/1 flag: 1
    /// when it found a divergence, else 0. Not a count — the mirror
    /// stops at the first divergence (printed to stderr).
    verify_mismatches: u64,
    /// Nearest-rank median admit round-trip, microseconds.
    admit_p50_us: f64,
    /// Nearest-rank 99th-percentile admit round-trip, microseconds.
    admit_p99_us: f64,
    /// Ops the daemon acked through seq-dedupe instead of re-applying
    /// (`deduped: true` on the decision frame). Always 0 for this
    /// client — it never asserts seqs — but counted from the frames so
    /// scripted consumers see the same field the cluster loadgen
    /// reports.
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
    "usage: msmr-admit (--tcp ADDR | --uds PATH) [--session NAME] <command>\n\ncommands:\n  --status        print the session status frame\n  --stats         print the daemon's live stats snapshot as JSON (protocol v4);\n                  with --session NAME, print that session's breakdown instead\n                  (reads without refreshing the session's TTL)\n  --shutdown      stop the daemon\n  --replay        feed a generated workload trace, one admit per arrival\n\noptions:\n  --session NAME  attach to a named shared session first\n\nreplay options:\n  --jobs N        trace length (default 100)\n  --seed S        workload seed (default 2024)\n  --beta F        workload heaviness parameter\n  --evaluate      stream the full solver suite per admit\n  --verify        compare streamed verdicts against offline evaluate (implies --evaluate)\n  --bound NAME    delay bound, must match the daemon's (default eq10)\n  --opt-nodes N   exact-engine node budget, must match the daemon's (default 200000)\n  --withdraw-ratio F  withdraw a random admitted job after each admit with probability F\n  --json          print the run summary as one machine-readable JSON line\n\nexit codes: 0 ok, 1 error, 75 daemon overloaded (typed backpressure; retry later)"
}

fn parse_options() -> Result<Options, String> {
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
    };
    let mut args = std::env::args().skip(1);
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
            "--jobs" => {
                replay.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "invalid --jobs value".to_string())?;
            }
            "--seed" => {
                replay.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed value".to_string())?;
            }
            "--beta" => {
                replay.beta = Some(
                    value("--beta")?
                        .parse()
                        .map_err(|_| "invalid --beta value".to_string())?,
                );
            }
            "--evaluate" => replay.evaluate = true,
            "--verify" => replay.verify = true,
            "--bound" => {
                let name = value("--bound")?;
                replay.bound =
                    parse_bound(&name).ok_or_else(|| format!("unknown bound `{name}`"))?;
            }
            "--opt-nodes" => {
                replay.opt_nodes = value("--opt-nodes")?
                    .parse()
                    .map_err(|_| "invalid --opt-nodes value".to_string())?;
            }
            "--withdraw-ratio" => {
                replay.withdraw_ratio = value("--withdraw-ratio")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("invalid --withdraw-ratio value (need 0.0..=1.0)")?;
            }
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
            _ => Command::Replay(replay),
        };
    Ok(Options {
        endpoint,
        session,
        command,
    })
}

/// The replay trace: a generated edge workload, with its jobs ordered by
/// arrival time (ties by id).
fn trace(options: &ReplayOptions) -> Result<JobSet, String> {
    let mut config = EdgeWorkloadConfig::scaled(options.jobs);
    if let Some(beta) = options.beta {
        config = config.with_beta(beta);
    }
    let generator = EdgeWorkloadGenerator::new(config).map_err(|e| e.to_string())?;
    Ok(generator.generate_seeded(options.seed))
}

fn replay(client: &mut Client, options: &ReplayOptions) -> Result<ExitCode, String> {
    let trace = trace(options)?;
    let evaluate = options.evaluate || options.verify;
    let replayed =
        client.replay_trace_mixed(&trace, evaluate, options.withdraw_ratio, options.seed);
    let outcome = match replayed {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("msmr-admit: {e}");
            if options.json {
                // Machine consumers still get a summary line; the one
                // typed-backpressure response that aborted the run is
                // the overload count.
                let mut summary = ReplaySummary::new(&[], 0, 0, 0);
                summary.overloads = u64::from(e.kind() == io::ErrorKind::WouldBlock);
                println!(
                    "{}",
                    serde_json::to_string(&summary).expect("summary serializes")
                );
            }
            return Ok(ExitCode::from(replay_error_exit(e.kind())));
        }
    };

    let mut diverged = false;
    if options.verify {
        // The cold mirror checks every admit against the daemon's decider
        // and stops at the first divergence.
        let config = SessionConfig {
            bound: options.bound,
            node_limit: Some(options.opt_nodes),
            decider: daemon_decider(client)?,
            ..SessionConfig::default()
        };
        if let Err(divergence) = replay_cold(&trace, &outcome.decisions, &config) {
            diverged = true;
            eprintln!("verdict mismatch: {divergence}");
        }
    }
    let deduped_ops = outcome.decisions.iter().filter(|d| d.deduped).count() as u64;

    if options.json {
        let mut summary = ReplaySummary::new(
            &outcome.latencies_us,
            outcome.admitted as u64,
            outcome.rejected as u64,
            outcome.withdrawn as u64,
        );
        summary.verify_mismatches = u64::from(diverged);
        summary.deduped_ops = deduped_ops;
        println!(
            "{}",
            serde_json::to_string(&summary).expect("summary serializes")
        );
    } else {
        println!(
            "replayed {} arrivals: {} admitted, {} rejected, {} withdrawn; admit latency p50 {:.0} µs, p99 {:.0} µs{}",
            outcome.latencies_us.len(),
            outcome.admitted,
            outcome.rejected,
            outcome.withdrawn,
            msmr_stats::nearest_rank(&outcome.latencies_us, 0.50),
            msmr_stats::nearest_rank(&outcome.latencies_us, 0.99),
            match (options.verify, diverged) {
                (false, _) => "",
                (true, false) => "; verified against offline evaluate, 0 mismatches",
                (true, true) => "; offline evaluate diverged (first mismatch above)",
            },
        );
    }
    Ok(if diverged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
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
    let options = match parse_options() {
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
        // Only a replay may create the session; status/shutdown against
        // a mistyped name must error instead of silently creating (and
        // later snapshotting) an empty junk session.
        let create = matches!(options.command, Command::Replay(_));
        match client.attach(session, create) {
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
        Command::Replay(replay_options) => replay(&mut client, replay_options),
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
