//! `msmr-loadgen` — a multi-client load generator for the cluster
//! daemon.
//!
//! ```text
//! msmr-loadgen (--tcp ADDR | --uds PATH) [--clients M] [--sessions K]
//!              [--jobs N] [--seed S] [--evaluate] [--verify]
//!              [--bound NAME] [--opt-nodes N] [--retries R] [--check-stats]
//! ```
//!
//! Drives `M` concurrent client connections over `K` named shared
//! sessions (`loadgen-<seed>-<k>`): each session gets a seeded
//! `msmr-workload` arrival trace of `N` jobs, and the session's clients
//! split that trace round-robin, admitting concurrently. Typed overload
//! responses are retried with backoff (and counted). The run prints
//! aggregate requests/sec plus p50/p99 admit latency; it is a smoke
//! driver and records no bench history — socket-scale numbers are the
//! standalone `benchmark/` package's job.
//!
//! With `--verify`, every session's interleaved decision history is
//! re-ordered by the decision frames' `seq` numbers and replayed through
//! a library `AdmissionSession` (the warm oracle
//! `msmr_serve::history::replay_warm`); the streamed verdicts must match
//! the serialized replay byte-for-byte (wall-clock fields zeroed). Any
//! mismatch exits non-zero — this is the cluster CI smoke check.
//!
//! The summary reports overloads (typed backpressure responses, each
//! retried with backoff) separately from hard errors, and its latency
//! percentiles are nearest-rank over the full per-round-trip sample
//! set. With `--check-stats` the run ends by querying the daemon's v4
//! `stats` op and asserting the daemon-side admit / reject / withdraw /
//! overload counters exactly equal the client-side tallies — exact
//! because every overload bounces before touching a session and every
//! decided round trip lands in precisely one counter (run it against a
//! freshly started daemon, otherwise earlier traffic is counted too).

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use msmr_dca::DelayBoundKind;
use msmr_model::JobSet;
use msmr_serve::history::{replay_warm, Decision, DecisionOp};
use msmr_serve::protocol::{AdmitOp, Frame, JobSpec, Op, StatsOp, SubmitOp, WithdrawOp};
use msmr_serve::{parse_bound, Client, Endpoint, MixRng, SessionConfig};
use msmr_workload::{arrival_order, EdgeWorkloadConfig, EdgeWorkloadGenerator};

struct Options {
    endpoint: Endpoint,
    clients: usize,
    sessions: usize,
    jobs: usize,
    seed: u64,
    evaluate: bool,
    verify: bool,
    bound: DelayBoundKind,
    opt_nodes: u64,
    decider: String,
    retries: usize,
    withdraw_ratio: f64,
    check_stats: bool,
}

fn usage() -> &'static str {
    "usage: msmr-loadgen (--tcp ADDR | --uds PATH) [options]\n\n  --clients M     concurrent client connections (default 4)\n  --sessions K    named shared sessions the clients spread over (default 2)\n  --jobs N        arrival-trace length per session (default 40)\n  --seed S        workload seed (default 2024)\n  --evaluate      stream the full solver suite per admit\n  --verify        verify verdicts against a serialized offline replay (implies --evaluate)\n  --bound NAME    delay bound, must match the daemon's (default eq10)\n  --opt-nodes N   exact-engine node budget, must match the daemon's (default 200000)\n  --decider NAME  deciding solver, must match the daemon's (default OPDCA)\n  --retries R     max retries per admit on typed overload responses (default 100)\n  --withdraw-ratio F  withdraw one of the client's admitted jobs after each admit with probability F\n  --check-stats   assert the daemon's stats counters equal this run's tallies (fresh daemon)"
}

fn parse_options() -> Result<Options, String> {
    let mut endpoint = None;
    let mut options = Options {
        endpoint: Endpoint::Tcp(String::new()), // replaced below
        clients: 4,
        sessions: 2,
        jobs: 40,
        seed: 2024,
        evaluate: false,
        verify: false,
        bound: DelayBoundKind::EdgeHybrid,
        opt_nodes: 200_000,
        decider: "OPDCA".to_string(),
        retries: 100,
        withdraw_ratio: 0.0,
        check_stats: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let parse_usize = |name: &str, raw: String| {
            raw.parse::<usize>()
                .map_err(|_| format!("invalid {name} value"))
        };
        match flag.as_str() {
            "--tcp" => endpoint = Some(Endpoint::Tcp(value("--tcp")?)),
            "--uds" => endpoint = Some(Endpoint::Uds(PathBuf::from(value("--uds")?))),
            "--clients" => options.clients = parse_usize("--clients", value("--clients")?)?,
            "--sessions" => options.sessions = parse_usize("--sessions", value("--sessions")?)?,
            "--jobs" => options.jobs = parse_usize("--jobs", value("--jobs")?)?,
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed value".to_string())?;
            }
            "--evaluate" => options.evaluate = true,
            "--verify" => options.verify = true,
            "--bound" => {
                let name = value("--bound")?;
                options.bound =
                    parse_bound(&name).ok_or_else(|| format!("unknown bound `{name}`"))?;
            }
            "--opt-nodes" => {
                options.opt_nodes = value("--opt-nodes")?
                    .parse()
                    .map_err(|_| "invalid --opt-nodes value".to_string())?;
            }
            "--decider" => options.decider = value("--decider")?,
            "--retries" => options.retries = parse_usize("--retries", value("--retries")?)?,
            "--withdraw-ratio" => {
                options.withdraw_ratio = value("--withdraw-ratio")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("invalid --withdraw-ratio value (need 0.0..=1.0)")?;
            }
            "--check-stats" => options.check_stats = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    options.endpoint = endpoint.ok_or("one of --tcp / --uds is required")?;
    options.clients = options.clients.max(1);
    options.sessions = options.sessions.max(1).min(options.clients);
    if options.jobs == 0 {
        return Err("--jobs must be positive".to_string());
    }
    Ok(options)
}

fn session_name(seed: u64, k: usize) -> String {
    format!("loadgen-{seed}-{k}")
}

#[derive(Default)]
struct ClientStats {
    latencies_us: Vec<f64>,
    overload_retries: usize,
    /// Decision frames acked with `deduped: true` (seq-replays the
    /// daemon recognized instead of re-applying). This client never
    /// asserts seqs, so any nonzero count is daemon-side dedupe
    /// observed through a retry path.
    deduped: usize,
    decisions: Vec<(usize, Decision)>, // (session index, decision)
}

/// Issues one admit or withdraw, retrying on typed overload responses
/// with linear backoff, and records the decision. Returns the admitted
/// handle (None on rejection and for a withdraw) or an error message.
fn decide_with_retry(
    client: &mut Client,
    session: usize,
    op: Op,
    options: &Options,
    stats: &mut ClientStats,
) -> Result<Option<u64>, String> {
    for attempt in 0..=options.retries {
        let start = Instant::now();
        let frames = client.request(op.clone()).map_err(|e| e.to_string())?;
        let elapsed_us = start.elapsed().as_nanos() as f64 / 1_000.0;
        let decision = match Decision::from_frames(&op, &frames) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                stats.overload_retries += 1;
                std::thread::sleep(Duration::from_millis((attempt as u64 + 1).min(20)));
                continue;
            }
            Err(e) => return Err(e.to_string()),
            Ok(decision) => decision,
        };
        stats.deduped += usize::from(decision.deduped);
        // Withdraw round trips count toward throughput and the latency
        // percentiles like any other decider decision.
        stats.latencies_us.push(elapsed_us);
        let handle = match decision.op {
            DecisionOp::Admit { handle, .. } => handle,
            DecisionOp::Withdraw { .. } => None,
        };
        stats.decisions.push((session, decision));
        return Ok(handle);
    }
    let what = if matches!(op, Op::Admit(_)) {
        "admit"
    } else {
        "withdraw"
    };
    Err(format!(
        "{what} still overloaded after {} retries",
        options.retries
    ))
}

/// `--check-stats`: queries the daemon's v4 `stats` op and asserts its
/// admit / reject / withdraw / overload counters (and the setup pass's
/// submit counter) exactly equal this run's client-side tallies. Only
/// exact against a freshly started daemon — the counters are
/// daemon-lifetime aggregates.
fn check_daemon_stats(
    options: &Options,
    admitted: u64,
    rejected: u64,
    withdraws: u64,
    overloads: u64,
    deduped: u64,
) -> Result<(), String> {
    let mut client = Client::connect(&options.endpoint).map_err(|e| e.to_string())?;
    let frames = client
        .request(Op::Stats(StatsOp { session: None }))
        .map_err(|e| e.to_string())?;
    let stats = frames
        .iter()
        .find_map(|frame| match &frame.frame {
            Frame::Stats(f) => Some(f.stats.clone()),
            _ => None,
        })
        .ok_or("daemon answered the stats op with no stats frame")?;
    let expected = [
        ("admits", stats.counters.admits, admitted),
        ("rejects", stats.counters.rejects, rejected),
        ("withdraws", stats.counters.withdraws, withdraws),
        ("overloads", stats.counters.overloads, overloads),
        ("submits", stats.counters.submits, options.sessions as u64),
        ("deduped_ops", stats.counters.deduped_ops, deduped),
    ];
    let mismatched: Vec<String> = expected
        .iter()
        .filter(|(_, daemon, local)| daemon != local)
        .map(|(name, daemon, local)| format!("{name}: daemon {daemon} != loadgen {local}"))
        .collect();
    if !mismatched.is_empty() {
        return Err(format!(
            "daemon stats diverge from the run's tallies ({}); was the daemon freshly started?",
            mismatched.join(", ")
        ));
    }
    println!(
        "loadgen: check-stats OK — daemon counters match exactly \
         ({admitted} admits, {rejected} rejects, {withdraws} withdraws, {overloads} overloads)"
    );
    Ok(())
}

/// Runs the load; `Ok(true)` means the run completed but verification
/// found mismatches (a failure for the exit code's purposes).
fn run(options: &Options) -> Result<bool, String> {
    // One seeded trace per session.
    let traces: Vec<JobSet> = (0..options.sessions)
        .map(|k| {
            EdgeWorkloadGenerator::new(EdgeWorkloadConfig::scaled(options.jobs))
                .map_err(|e| e.to_string())
                .map(|generator| generator.generate_seeded(options.seed + k as u64))
        })
        .collect::<Result<_, _>>()?;

    // Setup pass: create every session and open it with its pipeline.
    {
        let mut setup = Client::connect(&options.endpoint).map_err(|e| e.to_string())?;
        for (k, trace) in traces.iter().enumerate() {
            let attach = setup
                .attach(&session_name(options.seed, k), true)
                .map_err(|e| e.to_string())?;
            if !attach.created {
                return Err(format!(
                    "session `{}` already exists on the daemon — pick a fresh --seed",
                    session_name(options.seed, k)
                ));
            }
            let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
            setup
                .request(Op::Submit(SubmitOp {
                    jobs: pipeline,
                    parallel: None,
                }))
                .map_err(|e| e.to_string())?;
        }
    }

    // The burst: M clients, client m drives session m % K and admits
    // every (m / K)-th arrival of that session's trace (round-robin
    // among the session's clients).
    let failures = Arc::new(AtomicUsize::new(0));
    let all_stats: Arc<Mutex<Vec<ClientStats>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for m in 0..options.clients {
            let failures = Arc::clone(&failures);
            let all_stats = Arc::clone(&all_stats);
            let traces = &traces;
            scope.spawn(move || {
                let k = m % options.sessions;
                let lane = m / options.sessions;
                let lanes = (options.clients - k).div_ceil(options.sessions);
                let mut stats = ClientStats::default();
                let evaluate = Some(options.evaluate || options.verify);
                let mut work = || -> Result<(), String> {
                    let mut client =
                        Client::connect(&options.endpoint).map_err(|e| e.to_string())?;
                    client
                        .attach(&session_name(options.seed, k), false)
                        .map_err(|e| e.to_string())?;
                    let trace = &traces[k];
                    // The withdraw draw is deterministic per client, and a
                    // client only ever withdraws handles it admitted, so
                    // concurrent clients cannot race on a victim.
                    let mut rng = MixRng::new(options.seed ^ (m as u64).wrapping_mul(0x9e37));
                    let mut my_handles: Vec<u64> = Vec::new();
                    for (i, &id) in arrival_order(trace).iter().enumerate() {
                        if i % lanes != lane {
                            continue;
                        }
                        let admit = Op::Admit(AdmitOp {
                            job: JobSpec::from_job(trace.job(id)),
                            evaluate,
                            seq: None,
                        });
                        my_handles.extend(decide_with_retry(
                            &mut client,
                            k,
                            admit,
                            options,
                            &mut stats,
                        )?);
                        if !my_handles.is_empty() && rng.next_f64() < options.withdraw_ratio {
                            let victim = my_handles
                                .swap_remove((rng.next_u64() % my_handles.len() as u64) as usize);
                            let withdraw = Op::Withdraw(WithdrawOp {
                                job: victim,
                                evaluate,
                                seq: None,
                            });
                            decide_with_retry(&mut client, k, withdraw, options, &mut stats)?;
                        }
                    }
                    Ok(())
                };
                if let Err(message) = work() {
                    eprintln!("msmr-loadgen: client {m}: {message}");
                    failures.fetch_add(1, Ordering::SeqCst);
                }
                all_stats.lock().expect("stats lock").push(stats);
            });
        }
    });
    let elapsed = started.elapsed();

    if failures.load(Ordering::SeqCst) > 0 {
        return Err(format!(
            "{} client(s) failed",
            failures.load(Ordering::SeqCst)
        ));
    }

    let stats = Arc::try_unwrap(all_stats)
        .map_err(|_| "stats still shared")?
        .into_inner()
        .expect("stats lock");
    let mut latencies: Vec<f64> = Vec::new();
    let mut overload_retries = 0usize;
    let mut deduped = 0usize;
    let mut per_session: Vec<Vec<Decision>> = (0..options.sessions).map(|_| Vec::new()).collect();
    for client_stats in stats {
        latencies.extend_from_slice(&client_stats.latencies_us);
        overload_retries += client_stats.overload_retries;
        deduped += client_stats.deduped;
        for (k, decision) in client_stats.decisions {
            per_session[k].push(decision);
        }
    }
    let withdraws = per_session
        .iter()
        .flatten()
        .filter(|d| matches!(d.op, DecisionOp::Withdraw { .. }))
        .count();
    let admitted = per_session
        .iter()
        .flatten()
        .filter(|d| matches!(d.op, DecisionOp::Admit { admitted: true, .. }))
        .count();
    let rejected = per_session
        .iter()
        .flatten()
        .filter(|d| {
            matches!(
                d.op,
                DecisionOp::Admit {
                    admitted: false,
                    ..
                }
            )
        })
        .count();
    // `latencies` holds one sample per round trip — admits *and*
    // withdraws — so the printed req/sec matches the wall time spent.
    let requests = latencies.len();
    let req_per_sec = requests as f64 / elapsed.as_secs_f64().max(1e-9);
    let p50 = msmr_stats::nearest_rank(&latencies, 0.50);
    let p99 = msmr_stats::nearest_rank(&latencies, 0.99);

    // Serialized offline replay of each session: its decisions in `seq`
    // order through a fresh library session, verdicts byte for byte.
    let mut mismatches = 0usize;
    if options.verify {
        let config = SessionConfig {
            bound: options.bound,
            node_limit: Some(options.opt_nodes),
            decider: options.decider.clone(),
            ..SessionConfig::default()
        };
        for (k, mut decisions) in per_session.into_iter().enumerate() {
            decisions.sort_by_key(|d| d.seq);
            if let Err(message) = replay_warm(&traces[k], &decisions, &config) {
                eprintln!("msmr-loadgen: {}: {message}", session_name(options.seed, k));
                mismatches += 1;
            }
        }
    }

    // Overloads are reported on their own: each is a typed backpressure
    // response that was retried and eventually decided, not a failure —
    // hard errors abort the run above instead of landing here.
    println!(
        "loadgen: {} clients x {} sessions, {} requests ({} admitted, {} rejected, {} withdraws) \
         in {:.2}s => {:.0} req/sec; latency p50 {:.0} µs, p99 {:.0} µs; overloads: {} (retried, 0 errors){}",
        options.clients,
        options.sessions,
        requests,
        admitted,
        rejected,
        withdraws,
        elapsed.as_secs_f64(),
        req_per_sec,
        p50,
        p99,
        overload_retries,
        if options.verify {
            format!("; serialized-replay verification: {mismatches} mismatched session(s)")
        } else {
            String::new()
        },
    );

    if options.check_stats {
        check_daemon_stats(
            options,
            admitted as u64,
            rejected as u64,
            withdraws as u64,
            overload_retries as u64,
            deduped as u64,
        )?;
    }

    Ok(mismatches != 0)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("msmr-loadgen: {message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let failed = match run(&options) {
        Ok(failed) => failed,
        Err(message) => {
            eprintln!("msmr-loadgen: {message}");
            true
        }
    };
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
