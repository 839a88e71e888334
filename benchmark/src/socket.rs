//! The three socket workloads: closed-loop admit/withdraw churn from two
//! client threads, each on its own connection and its own named session,
//! against freshly spawned release binaries over loopback TCP.
//!
//! One client per session makes every session history a pure function of
//! `(seed, client)`, so outcome counts and the verdict digest repeat
//! exactly and can be pinned.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use msmr_model::JobSet;
use msmr_serve::protocol::{AdmitOp, Frame, JobSpec, Op, Response, StatsOp, SubmitOp, WithdrawOp};
use msmr_serve::{normalized_verdict_json, AdmissionSession, Client, Endpoint, SessionConfig};
use msmr_stats::StatsSnapshot;

use crate::metrics::{Rep, SOLVERS};
use crate::procs;
use crate::stats::after_warmup;
use crate::traffic::{Fnv, NextOp, OpStream};

/// Connections, client threads and private sessions of every socket
/// workload: one per core of the box the run was sized on.
pub const CLIENTS: usize = 2;

/// Typed overload answers a client retries before it gives up on an op.
const MAX_RETRIES: u32 = 100;

#[derive(Clone, Copy)]
pub struct SocketWorkload {
    pub routed: bool,
    /// Stream the whole paper suite per op. Such repetitions each draw
    /// their own inputs: now and then OPT searches to its node budget
    /// (18 ms against a 1 ms op), and how often is a property of the
    /// seed — with one input set per run, ten seeds spread 19 % on
    /// `ops_per_sec` while their latencies spread 3 %.
    pub evaluate: bool,
    /// Measured requests per client and repetition; a tenth more run
    /// first as warm-up.
    pub ops_per_client: usize,
}

impl SocketWorkload {
    pub fn warmup(&self) -> usize {
        self.ops_per_client / 10
    }
}

pub fn session_name(client: usize) -> String {
    format!("bench-{client}")
}

/// The request for one op of the stream: an admit of `spec`, or a
/// withdraw of `handle`.
pub fn wire_op(spec: Option<&JobSpec>, handle: u64, evaluate: bool) -> Op {
    let evaluate = Some(evaluate);
    match spec {
        Some(spec) => Op::Admit(AdmitOp {
            job: spec.clone(),
            evaluate,
            seq: None,
        }),
        None => Op::Withdraw(WithdrawOp {
            job: handle,
            evaluate,
            seq: None,
        }),
    }
}

/// One decided request as the client saw it.
pub struct OpRecord {
    /// The admitted spec, or `None` for a withdraw.
    pub admit: Option<JobSpec>,
    pub admitted: bool,
    /// The handle admitted or withdrawn (0 for a rejected admit).
    pub handle: u64,
    pub seq: u64,
    pub frames: Vec<Response>,
    /// Request write relative to the run's epoch (traced runs only).
    pub start_ns: u64,
    /// Request write → `Done` frame.
    pub latency_ns: u64,
}

pub struct ClientRun {
    pub pipeline: JobSet,
    /// Warm-up prefix included.
    pub records: Vec<OpRecord>,
    pub retries: u64,
    finished: Instant,
}

/// Sends one op, retrying typed overload answers, and returns the frames
/// of the decided attempt with its start and round-trip time.
fn decided_request(
    client: &mut Client,
    op: &Op,
    retries: &mut u64,
) -> Result<(Vec<Response>, Instant, Duration), String> {
    for attempt in 0..=MAX_RETRIES {
        let start = Instant::now();
        let frames = client.request(op.clone()).map_err(|e| e.to_string())?;
        let latency = start.elapsed();
        if frames.iter().any(|r| matches!(r.frame, Frame::Overload(_))) {
            *retries += 1;
            std::thread::sleep(Duration::from_millis(u64::from(attempt + 1).min(20)));
            continue;
        }
        if let Some(message) = frames.iter().find_map(|r| match &r.frame {
            Frame::Error(e) => Some(e.message.clone()),
            _ => None,
        }) {
            return Err(format!("daemon answered an error frame: {message}"));
        }
        return Ok((frames, start, latency));
    }
    Err(format!("still overloaded after {MAX_RETRIES} retries"))
}

fn run_client(
    endpoint: &Endpoint,
    index: usize,
    seed: u64,
    workload: SocketWorkload,
    // Traced runs stamp every request's start against this instant: the
    // root span of the request.
    epoch: Option<Instant>,
    warm: &mut dyn FnMut(),
) -> Result<ClientRun, String> {
    let total = workload.warmup() + workload.ops_per_client;
    let mut stream = OpStream::new(seed, index, total);
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    let attach = client
        .attach(&session_name(index), true)
        .map_err(|e| e.to_string())?;
    if !attach.created {
        return Err(format!(
            "session {} already existed on a fresh daemon",
            attach.session
        ));
    }
    let mut retries = 0;
    decided_request(
        &mut client,
        &Op::Submit(SubmitOp {
            jobs: stream.pipeline().clone(),
            parallel: None,
        }),
        &mut retries,
    )?;
    let mut records = Vec::with_capacity(total);
    for i in 0..total {
        if i == workload.warmup() {
            warm();
        }
        let next = stream.next_op();
        let op = match &next {
            NextOp::Admit(spec) => wire_op(Some(spec), 0, workload.evaluate),
            NextOp::Withdraw(handle) => wire_op(None, *handle, workload.evaluate),
        };
        let (frames, start, latency) = decided_request(&mut client, &op, &mut retries)?;
        let (admitted, handle, seq) = frames
            .iter()
            .find_map(|r| match &r.frame {
                Frame::Admit(a) => Some((a.admitted, a.job.unwrap_or(0), a.seq)),
                Frame::Withdraw(w) => Some((true, w.job, w.seq)),
                _ => None,
            })
            .ok_or("daemon sent no admit/withdraw frame")?;
        let seq = seq.ok_or("daemon sent no decision seq (not a cluster daemon?)")?;
        let admit = match next {
            NextOp::Admit(spec) => {
                if admitted {
                    stream.admitted(handle);
                }
                Some(spec)
            }
            NextOp::Withdraw(_) => None,
        };
        records.push(OpRecord {
            admit,
            admitted,
            handle,
            seq,
            frames,
            start_ns: epoch.map_or(0, |epoch| start.duration_since(epoch).as_nanos() as u64),
            latency_ns: latency.as_nanos() as u64,
        });
    }
    Ok(ClientRun {
        pipeline: stream.pipeline().clone(),
        records,
        retries,
        finished: Instant::now(),
    })
}

/// What the live part of a repetition observed, before any check.
pub struct LiveRun {
    pub clients: Vec<ClientRun>,
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_daemon_us: f64,
    pub cpu_router_us: f64,
    pub peak_rss_mb: f64,
    pub stats: StatsSnapshot,
}

fn fetch_stats(endpoint: &Endpoint) -> Result<StatsSnapshot, String> {
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    let frames = client
        .request(Op::Stats(StatsOp { session: None }))
        .map_err(|e| e.to_string())?;
    frames
        .into_iter()
        .find_map(|r| match r.frame {
            Frame::Stats(f) => Some(f.stats),
            _ => None,
        })
        .ok_or_else(|| "stats op answered without a stats frame".to_string())
}

/// Spawns fresh binaries, runs warm-up and the measured window, reads
/// the daemon's counters, and reaps the children.
pub fn run_live(
    workload: SocketWorkload,
    seed: u64,
    traced: bool,
    scratch: &Path,
) -> Result<LiveRun, String> {
    let setup_start = Instant::now();
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cpus = procs::CpuSplit::detect();
    let daemon = procs::spawn_daemon(scratch, cpus.as_ref())?;
    let router = if workload.routed {
        Some(procs::spawn_router(&daemon.addr, cpus.as_ref())?)
    } else {
        None
    };
    let endpoint = Endpoint::Tcp(router.as_ref().map_or(&daemon.addr, |r| &r.addr).clone());
    let pids: Vec<u32> = [Some(&daemon), router.as_ref()]
        .into_iter()
        .flatten()
        .map(procs::Child::pid)
        .collect();
    let cpu = |pid: u32| procs::cpu_micros(Some(pid));

    // Clients and the main thread meet here once every warm-up is done;
    // a client that fails earlier still arrives, so nobody deadlocks.
    let warmed = Barrier::new(CLIENTS + 1);
    let epoch = traced.then(Instant::now);
    let (results, setup_s, window_start, cpu_before) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let (endpoint, warmed) = (&endpoint, &warmed);
                scope.spawn(move || {
                    let pinned = cpus.map_or(Ok(()), |cpus| cpus.pin_generator_thread());
                    let mut arrived = false;
                    let mut warm = || {
                        arrived = true;
                        warmed.wait();
                    };
                    let result = pinned.and_then(|()| {
                        run_client(endpoint, index, seed, workload, epoch, &mut warm)
                    });
                    if !arrived {
                        warmed.wait();
                    }
                    result
                })
            })
            .collect();
        warmed.wait();
        let window_start = Instant::now();
        let setup_s = setup_start.elapsed().as_secs_f64();
        let cpu_before: Result<Vec<f64>, String> = pids.iter().map(|&pid| cpu(pid)).collect();
        let results: Vec<Result<ClientRun, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect();
        (results, setup_s, window_start, cpu_before)
    });
    let cpu_after: Result<Vec<f64>, String> = pids.iter().map(|&pid| cpu(pid)).collect();
    let clients = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|e| format!("client {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let (cpu_before, cpu_after) = (cpu_before?, cpu_after?);
    let finished = clients.iter().map(|c| c.finished).max().expect("clients");
    let stats = fetch_stats(&endpoint)?;
    let mut peak_rss_mb = 0.0;
    for &pid in &pids {
        peak_rss_mb += procs::peak_rss_mb(Some(pid))?;
    }
    drop(router);
    drop(daemon);
    Ok(LiveRun {
        clients,
        setup_s,
        wall_s: finished.duration_since(window_start).as_secs_f64(),
        cpu_daemon_us: cpu_after[0] - cpu_before[0],
        cpu_router_us: if workload.routed {
            cpu_after[1] - cpu_before[1]
        } else {
            0.0
        },
        peak_rss_mb,
        stats,
    })
}

/// Normalised verdicts one op streamed, in wire order.
fn wire_verdicts(record: &OpRecord) -> impl Iterator<Item = String> + '_ {
    record.frames.iter().filter_map(|r| match &r.frame {
        Frame::Verdict(v) => Some(normalized_verdict_json(&v.verdict)),
        _ => None,
    })
}

/// FNV digest of one session's decisions and normalised verdict stream.
fn wire_digest(digest: &mut Fnv, records: &[OpRecord]) {
    for record in records {
        digest.write_u64(record.seq);
        digest.write_u64(u64::from(record.admit.is_some()) << 1 | u64::from(record.admitted));
        digest.write_u64(record.handle);
        for verdict in wire_verdicts(record) {
            digest.write(verdict.as_bytes());
        }
    }
}

/// Replays one session's seq-ordered history through a library
/// [`AdmissionSession`]: every outcome and every normalised verdict must
/// be byte-equal to what the wire delivered.
pub fn replay_session(client: &ClientRun, evaluate: bool) -> Result<(), String> {
    let mut mirror = AdmissionSession::new(SessionConfig::default());
    mirror.submit(client.pipeline.clone(), false, |_| {});
    let mut offline = Vec::new();
    for (i, record) in client.records.iter().enumerate() {
        if record.seq != i as u64 + 1 {
            return Err(format!(
                "decision seqs are not contiguous at {i} (got {})",
                record.seq
            ));
        }
        offline.clear();
        let mut sink = |v: &msmr_sched::Verdict| offline.push(normalized_verdict_json(v));
        match &record.admit {
            Some(spec) => {
                let outcome = mirror
                    .admit(spec, evaluate, &mut sink)
                    .map_err(|e| format!("replay failed at seq {}: {e}", record.seq))?;
                if outcome.admitted != record.admitted
                    || outcome.handle.unwrap_or(0) != record.handle
                {
                    return Err(format!(
                        "seq {} decided differently in the replay",
                        record.seq
                    ));
                }
            }
            None => {
                mirror
                    .withdraw(record.handle, evaluate, &mut sink)
                    .map_err(|e| format!("replay failed at seq {}: {e}", record.seq))?;
            }
        }
        if !wire_verdicts(record).eq(offline.iter().cloned()) {
            return Err(format!(
                "seq {} verdicts differ from the replay",
                record.seq
            ));
        }
    }
    Ok(())
}

/// The daemon's own counters must equal the client tallies exactly: an
/// overload bounces before it touches a session and every decided round
/// trip lands in exactly one counter.
fn check_counters(live: &LiveRun, counts: &BTreeMap<String, u64>) -> Vec<String> {
    let c = &live.stats.counters;
    [
        ("admits", c.admits, counts["admitted"]),
        ("rejects", c.rejects, counts["rejected"]),
        ("withdraws", c.withdraws, counts["withdrawn"]),
        ("overloads", c.overloads, counts["overload_retries"]),
        ("submits", c.submits, CLIENTS as u64),
        ("deduped_ops", c.deduped_ops, 0),
    ]
    .into_iter()
    .filter(|(_, daemon, client)| daemon != client)
    .map(|(name, daemon, client)| {
        format!("stats counter {name}: daemon {daemon} != clients {client}")
    })
    .collect()
}

/// Turns a live run into a checked repetition. `reference` is the digest
/// of an earlier repetition on the same inputs, which this one only has to
/// reproduce; without one, a full byte-for-byte replay vouches for it.
pub fn checked_rep(workload: SocketWorkload, live: &LiveRun, reference: Option<u64>) -> Rep {
    let mut rep = Rep {
        setup_s: live.setup_s,
        wall_s: live.wall_s,
        cpu_us: live.cpu_daemon_us + live.cpu_router_us,
        peak_rss_mb: live.peak_rss_mb,
        ..Rep::default()
    };
    let (mut admitted, mut rejected, mut withdrawn, mut retries) = (0u64, 0u64, 0u64, 0u64);
    let mut digest = Fnv::new();
    for client in &live.clients {
        retries += client.retries;
        for record in &client.records {
            match (&record.admit, record.admitted) {
                (Some(_), true) => admitted += 1,
                (Some(_), false) => rejected += 1,
                (None, _) => withdrawn += 1,
            }
        }
        for record in after_warmup(&client.records, workload.warmup()) {
            let us = record.latency_ns as f64 / 1e3;
            if record.admit.is_some() {
                &mut rep.op_us
            } else {
                &mut rep.op2_us
            }
            .push(us);
        }
        wire_digest(&mut digest, &client.records);
    }
    let counts = BTreeMap::from(
        [
            ("admitted", admitted),
            ("rejected", rejected),
            ("withdrawn", withdrawn),
            ("overload_retries", retries),
        ]
        .map(|(key, count)| (key.to_string(), count)),
    );
    rep.ops = (rep.op_us.len() + rep.op2_us.len()) as u64;
    rep.digest = digest.finish();
    // Every request sent (refused attempts and the submits included) and
    // the two output checks.
    rep.attempted = counts.values().sum::<u64>() + CLIENTS as u64 + 2;
    rep.failures = check_counters(live, &counts);
    match reference {
        Some(reference) if reference != rep.digest => rep.failures.push(format!(
            "verdict digest {:016x} differs from the first repetition's {reference:016x}",
            rep.digest
        )),
        Some(_) => {}
        None => {
            // One thread per session: the replays are independent.
            let replays: Vec<Result<(), String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = live
                    .clients
                    .iter()
                    .map(|client| scope.spawn(|| replay_session(client, workload.evaluate)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("the replay panicked".to_string()))
                    })
                    .collect()
            });
            for (i, replay) in replays.into_iter().enumerate() {
                if let Err(e) = replay {
                    rep.failures
                        .push(format!("session {}: {e}", session_name(i)));
                }
            }
        }
    }
    rep.counts = counts;

    let ops = rep.ops.max(1) as f64;
    let layers = &mut rep.layers;
    layers.insert("cluster.overload_retries".into(), retries as f64);
    layers.insert("cluster.cpu_us_per_op".into(), live.cpu_daemon_us / ops);
    if workload.routed {
        layers.insert("router.cpu_us_per_op".into(), live.cpu_router_us / ops);
    }
    let decided =
        live.stats.counters.admits + live.stats.counters.rejects + live.stats.counters.withdraws;
    let mut sdca = 0;
    for solver in SOLVERS {
        if let Some(row) = live
            .stats
            .solvers
            .get(solver)
            .filter(|row| row.verdicts > 0)
        {
            layers.insert(
                format!("sched.server_solve_us_per_op.{solver}"),
                row.elapsed_micros as f64 / row.verdicts as f64,
            );
            sdca += row.sdca_calls;
        }
    }
    layers.insert(
        "sched.sdca_calls_per_op".into(),
        sdca as f64 / decided.max(1) as f64,
    );
    let (warm, cold) = (
        live.stats.counters.warm_decides,
        live.stats.counters.cold_decides,
    );
    layers.insert(
        "sched.warm_decide_share".into(),
        warm as f64 / (warm + cold).max(1) as f64,
    );
    rep
}
