//! End-to-end cluster suite over real Unix sockets:
//!
//! * replaying a seeded arrival trace through a named session (shards
//!   and workers active, solved on the pool) yields verdicts and
//!   decision seqs **byte-identical** to a default-mode connection's
//!   private session (solved on its own thread) and to offline
//!   `SolverRegistry::evaluate` on every arrival;
//! * two clients interleaving admits on one named session produce a
//!   decision history whose verdicts are byte-identical to a serialized
//!   replay ordered by the admit frames' `seq` numbers;
//! * snapshot → daemon restart → restore round-trips over the wire.

#![cfg(unix)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use msmr_cluster::{ClusterConfig, ClusterEngine};
use msmr_dca::DelayBoundKind;
use msmr_model::JobSet;
use msmr_serve::history::{replay_cold, replay_warm, Decision, DecisionOp};
use msmr_serve::protocol::{
    AdmitOp, Frame, JobSpec, Op, ShutdownOp, SnapshotOp, StatusOp, SubmitOp,
};
use msmr_serve::{Client, Endpoint, Listen, Server, SessionConfig};
use msmr_workload::{arrival_order, EdgeWorkloadConfig, EdgeWorkloadGenerator};

const BOUND: DelayBoundKind = DelayBoundKind::EdgeHybrid;
const OPT_NODES: u64 = 50_000;

fn socket_path(tag: &str) -> PathBuf {
    let unique = format!(
        "msmr-cluster-e2e-{tag}-{}-{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    );
    std::env::temp_dir().join(unique.replace(['(', ')'], ""))
}

fn session_config() -> SessionConfig {
    SessionConfig {
        bound: BOUND,
        node_limit: Some(OPT_NODES),
        ..SessionConfig::default()
    }
}

fn start_cluster(tag: &str, config: ClusterConfig) -> (Server, PathBuf) {
    let path = socket_path(tag);
    let (server, _engine) = ClusterEngine::start(
        Listen {
            tcp: None,
            uds: Some(path.clone()),
        },
        config,
    )
    .expect("cluster daemon binds the socket");
    (server, path)
}

fn trace(jobs: usize, seed: u64) -> JobSet {
    let config = EdgeWorkloadConfig::default()
        .with_jobs(jobs)
        .with_beta(0.4)
        .with_heavy_ratios([0.2, 0.2, 0.1])
        .with_infrastructure(6, 4);
    EdgeWorkloadGenerator::new(config)
        .expect("valid workload config")
        .generate_seeded(seed)
}

/// A default-mode daemon: every connection starts on a private session
/// and solves on its own thread.
fn start_private(tag: &str) -> (Server, PathBuf) {
    start_cluster(
        tag,
        ClusterConfig {
            start_private: true,
            session: session_config(),
            ..ClusterConfig::default()
        },
    )
}

/// Asserts a history is one decision per seq, in order from 1.
fn assert_seqs_count_up(decisions: &[Decision]) {
    let seqs: Vec<u64> = decisions.iter().map(|d| d.seq).collect();
    assert_eq!(
        seqs,
        (1..=decisions.len() as u64).collect::<Vec<_>>(),
        "every op is one decision, accepted or not"
    );
}

#[test]
fn cluster_replay_is_byte_identical_to_classic_serve_and_offline() {
    let trace = trace(40, 2024);

    // Cluster daemon: several shards and workers active.
    let (cluster_server, cluster_path) = start_cluster(
        "replay",
        ClusterConfig {
            shards: 3,
            workers: 2,
            session: session_config(),
            ..ClusterConfig::default()
        },
    );
    let mut cluster_client = Client::connect(&Endpoint::Uds(cluster_path)).expect("connect");
    let attach = cluster_client
        .attach("replay-session", true)
        .expect("attach");
    assert!(attach.created);
    let cluster = cluster_client
        .replay_trace_mixed(&trace, true, 0.0, 0)
        .expect("cluster replay");

    // Default-mode daemon: the same trace through a connection's private
    // session, solved inline instead of on the pool.
    let (private_server, private_path) = start_private("replay-private");
    let mut private_client = Client::connect(&Endpoint::Uds(private_path)).expect("connect");
    let private = private_client
        .replay_trace_mixed(&trace, true, 0.0, 0)
        .expect("private-session replay");

    assert_eq!(
        cluster.decisions, private.decisions,
        "named/pooled and private/inline verdict streams and seqs must be byte-identical"
    );

    // Offline mirror: SolverRegistry::evaluate on every candidate set.
    replay_cold(&trace, &cluster.decisions, &session_config(), true).expect("cold offline oracle");
    assert_seqs_count_up(&cluster.decisions);
    assert!(
        cluster.admitted > 0,
        "nothing admitted — not a useful replay"
    );
    assert!(
        cluster.rejected > 0,
        "nothing rejected — rollback path never ran"
    );

    cluster_client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    cluster_server.join();
    private_client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    private_server.join();
}

/// Frozen-oracle conformance for the online withdraw seam: a mixed
/// admit/withdraw/re-admit history through a named session must
/// reproduce the exact verdict and seq sequence of (a) the same history
/// through a default-mode connection's private session and (b) a cold
/// offline replay that rebuilds nothing incrementally —
/// `SolverRegistry::evaluate` on every candidate/reduced set, with the
/// mirror applying the same swap-removal the sessions use.
#[test]
fn mixed_withdraw_replay_matches_cold_replay_on_cluster_and_classic() {
    let trace = trace(26, 515);
    const RATIO: f64 = 0.4;
    const MIX_SEED: u64 = 99;
    let run = |mut client: Client| -> Vec<Decision> {
        client
            .replay_trace_mixed(&trace, true, RATIO, MIX_SEED)
            .expect("mixed replay")
            .decisions
    };

    let (cluster_server, cluster_path) = start_cluster(
        "mixed",
        ClusterConfig {
            shards: 2,
            workers: 2,
            session: session_config(),
            ..ClusterConfig::default()
        },
    );
    let mut cluster_client =
        Client::connect(&Endpoint::Uds(cluster_path.clone())).expect("connect");
    cluster_client.attach("mixed", true).expect("attach");
    let cluster_events = run(cluster_client);

    let (private_server, private_path) = start_private("mixed-private");
    let private_events =
        run(Client::connect(&Endpoint::Uds(private_path.clone())).expect("connect"));

    assert_eq!(
        cluster_events, private_events,
        "named/pooled and private/inline mixed replays must be byte-identical, seqs included"
    );
    let withdraws = cluster_events
        .iter()
        .filter(|e| matches!(e.op, DecisionOp::Withdraw { .. }))
        .count();
    assert!(withdraws > 3, "mix produced too few withdrawals to matter");

    // Cold oracle: no warm tables, no warm decider state — a fresh
    // offline evaluation of every set the history visits, with the same
    // swap-removal id discipline.
    replay_cold(&trace, &cluster_events, &session_config(), true).expect("cold offline oracle");
    assert_seqs_count_up(&cluster_events);

    let mut shutdown_client = Client::connect(&Endpoint::Uds(cluster_path)).expect("connect");
    shutdown_client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    cluster_server.join();
    let mut shutdown_client = Client::connect(&Endpoint::Uds(private_path)).expect("connect");
    shutdown_client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    private_server.join();
}

#[test]
fn interleaved_clients_match_the_serialized_replay() {
    let trace = trace(24, 7);
    let (server, path) = start_cluster(
        "interleave",
        ClusterConfig {
            shards: 2,
            workers: 2,
            session: session_config(),
            ..ClusterConfig::default()
        },
    );

    // Setup: create the shared session and open it with the pipeline.
    let mut setup = Client::connect(&Endpoint::Uds(path.clone())).expect("connect");
    setup.attach("shared", true).expect("attach");
    let (pipeline, _) = trace.restrict_to(&[]).expect("pipeline-only set");
    setup
        .request(Op::Submit(SubmitOp {
            jobs: pipeline.clone(),
            parallel: None,
        }))
        .expect("submit");

    // Two clients interleave admits (even/odd arrivals) and statuses on
    // the same named session.
    let decisions: Mutex<Vec<Decision>> = Mutex::new(Vec::new());
    let status_probes = AtomicU64::new(0);
    let order = arrival_order(&trace);
    std::thread::scope(|scope| {
        for lane in 0..2usize {
            let decisions = &decisions;
            let status_probes = &status_probes;
            let order = &order;
            let trace = &trace;
            let path = path.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&Endpoint::Uds(path)).expect("connect");
                client.attach("shared", false).expect("attach existing");
                for (i, &id) in order.iter().enumerate() {
                    if i % 2 != lane {
                        continue;
                    }
                    let admit = Op::Admit(AdmitOp {
                        job: JobSpec::from_job(trace.job(id)),
                        evaluate: Some(true),
                        seq: None,
                    });
                    let frames = client.request(admit.clone()).expect("admit");
                    let decision = Decision::from_frames(&admit, &frames).expect("decided");
                    decisions.lock().unwrap().push(decision);
                    // Interleave a status probe to exercise concurrent
                    // reads on the shared session.
                    let frames = client.request(Op::Status(StatusOp {})).expect("status");
                    if frames.iter().any(|f| matches!(f.frame, Frame::Status(_))) {
                        status_probes.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(status_probes.load(Ordering::SeqCst) as usize, order.len());

    // Serialized replay: apply the decisions in seq order (a contiguous
    // total order) to a fresh library session; verdicts must match
    // byte-for-byte.
    let mut decisions = decisions.into_inner().unwrap();
    decisions.sort_by_key(|d| d.seq);
    assert_eq!(decisions.len(), order.len());
    replay_warm(&trace, &decisions, &session_config(), true).expect("serialized replay");
    let admitted = decisions
        .iter()
        .filter(|d| matches!(d.op, DecisionOp::Admit { admitted: true, .. }))
        .count();

    // The daemon's session agrees with the serialized mirror.
    let frames = setup.request(Op::Status(StatusOp {})).expect("status");
    let status = frames
        .iter()
        .find_map(|f| match &f.frame {
            Frame::Status(s) => Some(s.clone()),
            _ => None,
        })
        .expect("status frame");
    assert_eq!(status.jobs as usize, admitted);

    setup
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    server.join();
}

#[test]
fn snapshot_survives_a_daemon_restart_over_the_wire() {
    let trace = trace(10, 11);
    let snapshot_dir = std::env::temp_dir().join(format!(
        "msmr-cluster-e2e-snap-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let snapshot_dir = PathBuf::from(snapshot_dir.to_string_lossy().replace(['(', ')'], ""));
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    let config = ClusterConfig {
        shards: 2,
        workers: 2,
        snapshot_dir: Some(snapshot_dir.clone()),
        session: session_config(),
        ..ClusterConfig::default()
    };

    // First daemon: build up a session, snapshot it explicitly, shut
    // down (which snapshots again).
    let (server, path) = start_cluster("snap-a", config.clone());
    let mut client = Client::connect(&Endpoint::Uds(path)).expect("connect");
    client.attach("durable", true).expect("attach");
    let outcome = client
        .replay_trace_mixed(&trace, false, 0.0, 0)
        .expect("replay");
    let frames = client
        .request(Op::Snapshot(SnapshotOp { session: None }))
        .expect("snapshot");
    let snapshot = frames
        .iter()
        .find_map(|f| match &f.frame {
            Frame::Snapshot(s) => Some(s.clone()),
            _ => None,
        })
        .expect("snapshot frame");
    assert_eq!(snapshot.session, "durable");
    assert_eq!(snapshot.jobs as usize, outcome.admitted);
    client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    server.join();

    // Second daemon on the same directory: the session is back — same
    // jobs, warm tables — and keeps admitting.
    let (server, path) = start_cluster("snap-b", config);
    let mut client = Client::connect(&Endpoint::Uds(path)).expect("connect");
    let attach = client.attach("durable", false).expect("attach restored");
    assert!(!attach.created);
    assert_eq!(attach.jobs as usize, outcome.admitted);
    let frames = client.request(Op::Status(StatusOp {})).expect("status");
    let status = frames
        .iter()
        .find_map(|f| match &f.frame {
            Frame::Status(s) => Some(s.clone()),
            _ => None,
        })
        .expect("status frame");
    assert_eq!(status.admits as usize, outcome.admitted);
    assert_eq!(status.rejects as usize, outcome.rejected);

    // A fresh admit still works on the restored warm tables.
    let spec = JobSpec::from_job(trace.job(arrival_order(&trace)[0]));
    let frames = client
        .request(Op::Admit(AdmitOp {
            job: spec,
            evaluate: Some(false),
            seq: None,
        }))
        .expect("admit after restore");
    assert!(frames.iter().any(|f| matches!(f.frame, Frame::Admit(_))));

    client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&snapshot_dir);
}
