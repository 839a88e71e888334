//! Per-layer numbers of a traced run: each is timed from here, around a
//! public call into one crate, at the state the workload itself reached.
//!
//! Layers that are visible only through a caller (`AdmissionSession`
//! inside `SharedSession`, `PairTables` inside the session) are timed on
//! twin state replaying the same history in lock-step, and their spans
//! are labelled `derived`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use msmr_cluster::{SessionStore, SnapshotStore};
use msmr_dca::{Analysis, DelayBoundKind};
use msmr_model::{JobId, JobSet};
use msmr_par::WorkerPool;
use msmr_sched::{Budget, SolveCtx, SolverRegistry};
use msmr_serve::protocol::{Frame, Op, Request, Response, SubmitOp};
use msmr_serve::{AdmissionSession, SessionConfig};
use msmr_stats::StatsRegistry;
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

use crate::metrics::{Mean, SOLVERS};
use crate::socket::{session_name, wire_op, LiveRun, SocketWorkload};
use crate::trace::Span;
use crate::traffic;

/// Requests per session whose spans are written to the trace file; the
/// per-layer means cover every measured request.
const TRACED_OPS_PER_SESSION: usize = 500;

/// Mean nanoseconds of `f` over `iterations` calls.
fn mean_ns<T>(iterations: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iterations as f64
}

fn timed<T>(mean: &mut Mean, f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    let ns = start.elapsed().as_nanos() as u64;
    mean.add(ns as f64);
    (value, ns)
}

fn paper_case(seed: u64) -> JobSet {
    EdgeWorkloadGenerator::new(EdgeWorkloadConfig::default().with_gamma(0.9).with_beta(0.2))
        .expect("valid config")
        .generate_seeded(seed)
}

/// `workload.generate_ns_per_case`: one 100-job paper-scale case.
pub fn generate_ns_per_case(seed: u64) -> f64 {
    let generator =
        EdgeWorkloadGenerator::new(EdgeWorkloadConfig::default()).expect("valid config");
    let mut next = seed;
    mean_ns(100, || {
        next = next.wrapping_add(1);
        generator.generate_seeded(next)
    })
}

/// `dca.delay_probe_ns`: the move the search engines make per probe —
/// undo one membership, redo it, read the delay — at n = 100.
pub fn delay_probe_ns(seed: u64) -> f64 {
    let jobs = paper_case(seed);
    let analysis = Analysis::new(&jobs);
    let mut evaluator = analysis.evaluator(DelayBoundKind::EdgeHybrid);
    let order: Vec<JobId> = jobs.job_ids().collect();
    let (&lowest, higher) = order.split_last().expect("non-empty case");
    for &h in higher {
        evaluator.add_higher(lowest, h);
    }
    let mut i = 0;
    mean_ns(100_000, || {
        let k = higher[i % higher.len()];
        i += 1;
        evaluator.remove_higher(lowest, k);
        evaluator.add_higher(lowest, k);
        evaluator.delay(lowest)
    })
}

/// `par.pool_handoff_ns`: `WorkerPool::try_submit` until the submitter
/// sees a no-op complete — the two thread wake-ups every pooled request
/// pays.
pub fn pool_handoff_ns() -> f64 {
    let pool = WorkerPool::new(msmr_par::default_threads(), 64);
    let (tx, rx) = mpsc::channel();
    let ns = mean_ns(2_000, || {
        let tx = tx.clone();
        pool.try_submit(move || tx.send(()).expect("receiver alive"))
            .expect("an idle pool accepts work");
        rx.recv().expect("the task ran")
    });
    pool.shutdown();
    ns
}

/// Stage sums of the in-process re-enactment of one session's requests.
#[derive(Default)]
struct Stages {
    encode_request: Mean,
    decode_request: Mean,
    request_bytes: Mean,
    encode_admit_frame: Mean,
    encode_verdict_frame: Mean,
    decode_verdict_frame: Mean,
    response_bytes: Mean,
    frames: Mean,
    with_job: Mean,
    table_extend: Mean,
    table_remove: Mean,
    /// Plain library session (no stats sink), split by outcome.
    session_admit: Mean,
    session_reject: Mean,
    session_withdraw: Mean,
    /// Accepted admits only, like `session_admit`.
    shared_admit: Mean,
    session_admit_stats: Mean,
}

/// What the re-enactment of a socket workload's traced repetition found.
pub struct SocketLayers {
    pub rows: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    /// Median over the measured admits of their in-process time, all
    /// stages: what `op_p50_us` is made of apart from sockets and thread
    /// wake-ups.
    pub attributed_admit_ns: f64,
}

/// Per-layer rows and spans of a socket workload's traced repetition.
///
/// The live run gave one root span per request (client send → `Done`);
/// here the same seq-ordered history runs again through each layer's
/// public API and every stage is timed at the state the daemon had.
pub fn socket_layers(
    workload: SocketWorkload,
    live: &LiveRun,
    scratch: &Path,
) -> Result<SocketLayers, String> {
    let registry = Arc::new(StatsRegistry::new());
    let config = SessionConfig {
        stats: Some(Arc::clone(&registry)),
        ..SessionConfig::default()
    };
    // The daemon's defaults: 8 shards, every session built from one
    // template with the daemon-wide stats sink.
    let store = SessionStore::new(8, config.clone());
    let handoff_ns = pool_handoff_ns();
    let mut stages = Stages::default();
    let mut spans = Vec::new();
    let mut attributed = Vec::new();
    let mut last_mirror = None;

    for (index, client) in live.clients.iter().enumerate() {
        let name = session_name(index);
        let shared = store
            .attach(&name, true)
            .map_err(|e| e.to_string())?
            .session;
        shared.submit(client.pipeline.clone(), false, |_| {});
        let mut mirror = AdmissionSession::new(config.clone());
        mirror.submit(client.pipeline.clone(), false, |_| {});
        let mut plain = AdmissionSession::new(SessionConfig::default());
        plain.submit(client.pipeline.clone(), false, |_| {});

        // Warm-up requests run through the twins like the rest (the state
        // must match) but their timings are thrown away.
        let mut warmup_stages = Stages::default();
        for (i, record) in client.records.iter().enumerate() {
            let measured = i >= workload.warmup();
            let s = if measured {
                &mut stages
            } else {
                &mut warmup_stages
            };
            let request = Request {
                id: i as u64 + 3,
                op: wire_op(record.admit.as_ref(), record.handle, workload.evaluate),
            };
            let (line, encode_request) = timed(&mut s.encode_request, || {
                serde_json::to_string(&request).expect("requests serialize")
            });
            let (_, decode_request) = timed(&mut s.decode_request, || {
                serde_json::from_str::<Request>(&line).expect("own line parses")
            });
            s.request_bytes.add(line.len() as f64 + 1.0);

            // Twin tables at the state before the op.
            let jobs = mirror.jobs().expect("session is open");
            let mut tables = mirror.tables().expect("session is open").clone();
            let table_ns = match &record.admit {
                Some(spec) => {
                    let ((extended, _), _) = timed(&mut s.with_job, || {
                        jobs.with_job(spec.to_builder()).expect("valid spec")
                    });
                    timed(&mut s.table_extend, || tables.extend_with_job(&extended)).1
                }
                None => {
                    let position = mirror
                        .status()
                        .admitted
                        .iter()
                        .position(|&h| h == record.handle)
                        .ok_or("withdrawn handle is not admitted in the twin")?;
                    timed(&mut s.table_remove, || {
                        tables.remove_job(JobId::new(position))
                    })
                    .1
                }
            };

            // Rows are means over accepted admits; other outcomes are
            // timed for the spans only.
            let mut unused = Mean::default();
            let (shared_ns, session_ns) = match &record.admit {
                Some(spec) => {
                    let sink = if record.admitted {
                        &mut s.shared_admit
                    } else {
                        &mut unused
                    };
                    let (outcome, shared_ns) =
                        timed(sink, || shared.admit(spec, workload.evaluate, None, |_| {}));
                    let sink = if record.admitted {
                        &mut s.session_admit_stats
                    } else {
                        &mut unused
                    };
                    let (twin, session_ns) =
                        timed(sink, || mirror.admit(spec, workload.evaluate, |_| {}));
                    let sink = if record.admitted {
                        &mut s.session_admit
                    } else {
                        &mut s.session_reject
                    };
                    let (bare, _) = timed(sink, || plain.admit(spec, workload.evaluate, |_| {}));
                    let (outcome, twin) = (
                        outcome.map_err(|e| e.to_string())?.0,
                        twin.map_err(|e| e.to_string())?,
                    );
                    let bare = bare.map_err(|e| e.to_string())?;
                    if [outcome.admitted, twin.admitted, bare.admitted] != [record.admitted; 3] {
                        return Err(format!(
                            "{name} seq {}: the twins decided differently",
                            record.seq
                        ));
                    }
                    (shared_ns, session_ns)
                }
                None => {
                    let (outcome, shared_ns) = timed(&mut unused, || {
                        shared.withdraw(record.handle, workload.evaluate, None, |_| {})
                    });
                    let (twin, session_ns) = timed(&mut unused, || {
                        mirror.withdraw(record.handle, workload.evaluate, |_| {})
                    });
                    let (bare, _) = timed(&mut s.session_withdraw, || {
                        plain.withdraw(record.handle, workload.evaluate, |_| {})
                    });
                    outcome.map_err(|e| e.to_string())?;
                    twin.map_err(|e| e.to_string())?;
                    bare.map_err(|e| e.to_string())?;
                    (shared_ns, session_ns)
                }
            };

            let (mut encode_response, mut decode_response, mut bytes) = (0, 0, 0);
            for frame in &record.frames {
                let start = Instant::now();
                let line = serde_json::to_string(frame).expect("frames serialize");
                let encoded = start.elapsed().as_nanos() as u64;
                let start = Instant::now();
                black_box(serde_json::from_str::<Response>(&line).expect("own line parses"));
                let decoded = start.elapsed().as_nanos() as u64;
                match frame.frame {
                    Frame::Admit(_) => s.encode_admit_frame.add(encoded as f64),
                    Frame::Verdict(_) => {
                        s.encode_verdict_frame.add(encoded as f64);
                        s.decode_verdict_frame.add(decoded as f64);
                    }
                    _ => {}
                }
                encode_response += encoded;
                decode_response += decoded;
                bytes += line.len() + 1;
            }
            if measured && record.admit.is_some() {
                let hops = if workload.routed { 2 } else { 1 };
                let in_process = encode_request
                    + decode_request * hops
                    + shared_ns
                    + encode_response
                    + decode_response;
                attributed.push(in_process as f64 + handoff_ns);
            }
            s.response_bytes.add(bytes as f64);
            s.frames.add(record.frames.len() as f64);

            if measured && i < workload.warmup() + TRACED_OPS_PER_SESSION {
                let (outer, inner, leaf) = match record.admit {
                    Some(_) => (
                        "cluster.shared_admit",
                        "serve.session_admit",
                        "dca.table_extend",
                    ),
                    None => (
                        "cluster.shared_withdraw",
                        "serve.session_withdraw",
                        "dca.table_remove",
                    ),
                };
                // Only the root was observed live; its children are laid
                // end to end in request order from the root's start.
                let root = spans.len();
                let shared_at = encode_request
                    + decode_request * if workload.routed { 2 } else { 1 }
                    + handoff_ns as u64;
                let mut stages = vec![("op", 0, record.latency_ns, None, false)];
                let mut cursor = 0;
                let mut next = |name: &'static str, ns: u64, derived: bool| {
                    let at = cursor;
                    cursor += ns;
                    (name, at, ns, Some(root), derived)
                };
                stages.push(next("serve.encode_request", encode_request, false));
                if workload.routed {
                    stages.push(next("router.decode_request", decode_request, true));
                }
                stages.push(next("serve.decode_request", decode_request, false));
                stages.push(next("par.pool_handoff", handoff_ns as u64, true));
                stages.push(next(outer, shared_ns, false));
                stages.push(next("serve.encode_response", encode_response, false));
                stages.push(next("serve.decode_response", decode_response, false));
                let outer_at = root + stages.len() - 3;
                stages.push((
                    inner,
                    shared_at,
                    session_ns.min(shared_ns),
                    Some(outer_at),
                    true,
                ));
                stages.push((
                    leaf,
                    shared_at,
                    table_ns.min(session_ns),
                    Some(root + stages.len() - 1),
                    true,
                ));
                let op = format!("{name}:{}", record.seq);
                spans.extend(
                    stages
                        .into_iter()
                        .map(|(name, at, ns, parent, derived)| Span {
                            name: name.to_string(),
                            op: op.clone(),
                            start_ns: record.start_ns + at,
                            end_ns: record.start_ns + at + ns,
                            parent,
                            derived,
                        }),
                );
            }
        }
        last_mirror = Some(mirror);
    }

    let mut rows = BTreeMap::new();
    let mut row = |name: &str, value: Option<f64>| {
        if let Some(value) = value {
            rows.insert(name.to_string(), value);
        }
    };
    row("serve.encode_request_ns", stages.encode_request.get());
    row("serve.decode_request_ns", stages.decode_request.get());
    row("serve.request_bytes", stages.request_bytes.get());
    row(
        "serve.encode_admit_frame_ns",
        stages.encode_admit_frame.get(),
    );
    row(
        "serve.encode_verdict_frame_ns",
        stages.encode_verdict_frame.get(),
    );
    row(
        "serve.decode_verdict_frame_ns",
        stages.decode_verdict_frame.get(),
    );
    row("serve.response_bytes_per_op", stages.response_bytes.get());
    row("serve.frames_per_op", stages.frames.get());
    row("model.with_job_ns", stages.with_job.get());
    row("dca.table_extend_ns", stages.table_extend.get());
    row("dca.table_remove_ns", stages.table_remove.get());
    row("par.pool_handoff_ns", Some(handoff_ns));
    row("cluster.shared_admit_ns", stages.shared_admit.get());
    if workload.evaluate {
        row(
            "serve.session_admit_evaluate_ns",
            stages.session_admit.get(),
        );
        row("dca.delay_probe_ns", Some(delay_probe_ns(1)));
    } else {
        row("serve.session_admit_ns", stages.session_admit.get());
        row("serve.session_reject_ns", stages.session_reject.get());
        row("serve.session_withdraw_ns", stages.session_withdraw.get());
    }
    // The three differences below add up to `cluster.shared_admit_ns`:
    // plain session + stats sink + the shared wrapper (lock, touch,
    // version, seq bookkeeping).
    if let (Some(shared), Some(with_stats), Some(plain)) = (
        stages.shared_admit.get(),
        stages.session_admit_stats.get(),
        stages.session_admit.get(),
    ) {
        row("cluster.session_overhead_ns", Some(shared - with_stats));
        row("stats.admit_overhead_ns", Some(with_stats - plain));
    }

    // One-off calls at the final state of the last session (n = 64).
    let mirror = last_mirror.ok_or("no session to measure")?;
    let name = session_name(live.clients.len() - 1);
    row(
        "cluster.store_attach_ns",
        Some(mean_ns(2_000, || {
            store.attach(&name, false).expect("session exists").created
        })),
    );
    let image = mirror.image().ok_or("session has no image")?;
    let snapshots =
        SnapshotStore::open(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    row(
        "cluster.snapshot_save_ms",
        Some(
            mean_ns(20, || {
                snapshots.save(&name, 1, &image).expect("snapshot saves")
            }) / 1e6,
        ),
    );
    row(
        "cluster.snapshot_load_ms",
        Some(
            mean_ns(20, || {
                snapshots.load(&name).expect("snapshot loads").version
            }) / 1e6,
        ),
    );

    let case = paper_case(1);
    let submit = Request {
        id: 2,
        op: Op::Submit(SubmitOp {
            jobs: case.clone(),
            parallel: None,
        }),
    };
    let submit_line = serde_json::to_string(&submit).expect("requests serialize");
    row(
        "serve.decode_submit_request_ns",
        Some(mean_ns(50, || {
            serde_json::from_str::<Request>(&submit_line).expect("own line parses")
        })),
    );
    let mut session = AdmissionSession::new(SessionConfig::default());
    row(
        "serve.session_submit_ns",
        Some(mean_ns(10, || {
            session.submit(case.clone(), false, |_| {}).len()
        })),
    );
    row(
        "workload.generate_ns_per_case",
        Some(generate_ns_per_case(1)),
    );
    if workload.routed {
        let backends = vec!["127.0.0.1:7471".to_string()];
        row(
            "router.place_ns",
            Some(mean_ns(20_000, || {
                msmr_router::placement::place(black_box(&name), &backends).is_some()
            })),
        );
    }

    Ok(SocketLayers {
        rows,
        spans,
        attributed_admit_ns: crate::stats::median(&attributed),
    })
}

/// Per-layer rows of `fig4_batch` that no repetition observes by itself:
/// the kernels timed one call at a time over the first cases of the
/// batch, and the fan-out's speed-up.
pub fn fig4_layers(seed: u64, threads: usize) -> BTreeMap<String, f64> {
    let cases = traffic::fig4_cases(seed, 200);
    let fixed = &cases[..50];
    let registry = SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid);
    let budget = Budget::default().with_node_limit(traffic::FIG4_NODE_LIMIT);
    let mut rows = BTreeMap::new();

    let mut build = Mean::default();
    let mut solve = [Mean::default(); 5];
    for jobs in fixed {
        timed(&mut build, || black_box(Analysis::new(jobs)));
        // Cold: a fresh context per solver call, analysis built up front
        // so each row is the solver alone.
        for (solver, mean) in SOLVERS.iter().zip(&mut solve) {
            let ctx = SolveCtx::with_budget(jobs, budget);
            let _ = ctx.analysis();
            let solver = registry.solver(solver).expect("paper suite solver");
            timed(mean, || black_box(solver.solve(&ctx)));
        }
    }
    rows.insert(
        "dca.analysis_build_ns".to_string(),
        build.get().expect("cases"),
    );
    for (solver, mean) in SOLVERS.iter().zip(solve) {
        rows.insert(
            format!("sched.solve_ns.{solver}"),
            mean.get().expect("cases"),
        );
    }
    rows.insert("dca.delay_probe_ns".to_string(), delay_probe_ns(seed));
    rows.insert(
        "workload.generate_ns_per_case".to_string(),
        generate_ns_per_case(seed),
    );

    let time_batch = |threads| {
        let start = Instant::now();
        black_box(registry.evaluate_batch(&cases, budget, threads));
        start.elapsed().as_secs_f64()
    };
    rows.insert(
        "par.batch_speedup".to_string(),
        time_batch(1) / time_batch(threads).max(1e-9),
    );
    rows
}
