//! End-to-end suite of the daemon's default mode — every connection on
//! a private session of its own, no `attach` anywhere: boots the engine
//! on a Unix socket, replays a 100-job arrival trace against the paper
//! suite and asserts through the cold oracle (`replay_cold`) that the
//! streamed verdicts are byte-identical to offline
//! `SolverRegistry::evaluate` on every arrival (serialized JSON compared
//! with the wall-clock `elapsed_micros` field zeroed on both sides —
//! node counts, `S_DCA` counters, witnesses and delays must match
//! exactly) and that every decision is the decider's.

#![cfg(unix)]

use std::path::PathBuf;

use msmr_cluster::{ClusterConfig, ClusterEngine};
use msmr_dca::DelayBoundKind;
use msmr_serve::history::replay_cold;
use msmr_serve::protocol::{
    AdmitOp, Frame, JobSpec, Op, Response, ShutdownOp, StatusOp, SubmitOp, WithdrawOp,
};
use msmr_serve::{Client, Endpoint, Listen, Server, SessionConfig};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

const BOUND: DelayBoundKind = DelayBoundKind::EdgeHybrid;
const OPT_NODES: u64 = 50_000;

fn socket_path(tag: &str) -> PathBuf {
    let unique = format!(
        "msmr-e2e-{tag}-{}-{:?}.sock",
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

fn start_server(tag: &str) -> (Server, PathBuf) {
    let path = socket_path(tag);
    let listen = Listen {
        tcp: None,
        uds: Some(path.clone()),
    };
    let config = ClusterConfig {
        start_private: true,
        workers: 1,
        session: session_config(),
        ..ClusterConfig::default()
    };
    let (server, _engine) = ClusterEngine::start(listen, config).expect("daemon binds the socket");
    (server, path)
}

#[test]
fn replayed_trace_verdicts_are_byte_identical_to_offline_evaluate() {
    let (server, path) = start_server("replay");
    let mut client = Client::connect(&Endpoint::Uds(path)).expect("connect");

    // A 100-job paper-scale arrival trace, tight enough that the decider
    // rejects part of it (so both the commit and the rollback path run).
    let config = EdgeWorkloadConfig::default()
        .with_jobs(100)
        .with_beta(0.4)
        .with_heavy_ratios([0.2, 0.2, 0.1])
        .with_infrastructure(8, 5);
    let trace = EdgeWorkloadGenerator::new(config)
        .expect("valid workload config")
        .generate_seeded(2024);

    let outcome = client
        .replay_trace_mixed(&trace, true, 0.0, 0)
        .expect("replay the trace");
    replay_cold(&trace, &outcome.decisions, &session_config(), true).expect("cold offline oracle");
    let seqs: Vec<u64> = outcome.decisions.iter().map(|d| d.seq).collect();
    assert_eq!(
        seqs,
        (1..=100).collect::<Vec<_>>(),
        "accepts and rejects count"
    );
    let (admitted, rejected) = (outcome.admitted, outcome.rejected);

    assert_eq!(admitted + rejected, 100);
    assert!(admitted > 0, "trace admitted nothing — not a useful replay");
    assert!(
        rejected > 0,
        "trace rejected nothing — rollback path never ran"
    );

    // The daemon's view of the session agrees with the history.
    let frames = client.request(Op::Status(StatusOp {})).expect("status");
    let Some(Frame::Status(status)) = frames.first().map(|f| &f.frame) else {
        panic!("expected status frame");
    };
    assert_eq!(status.jobs as usize, admitted);
    assert_eq!(status.admits as usize, admitted);
    assert_eq!(status.rejects as usize, rejected);

    client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    server.join();
}

#[test]
fn withdraw_reopens_capacity_over_the_wire() {
    let (server, path) = start_server("withdraw");
    let mut client = Client::connect(&Endpoint::Uds(path)).expect("connect");

    let config = EdgeWorkloadConfig::default()
        .with_jobs(12)
        .with_infrastructure(3, 2);
    let trace = EdgeWorkloadGenerator::new(config)
        .expect("valid workload config")
        .generate_seeded(7);
    let (empty, _) = trace.restrict_to(&[]).expect("pipeline-only job set");
    client
        .request(Op::Submit(SubmitOp {
            jobs: empty,
            parallel: None,
        }))
        .expect("submit");

    let mut handles = Vec::new();
    for id in trace.job_ids() {
        let frames = client
            .request(Op::Admit(AdmitOp {
                job: JobSpec::from_job(trace.job(id)),
                evaluate: Some(false),
                seq: None,
            }))
            .expect("admit");
        for frame in &frames {
            if let Frame::Admit(admit) = &frame.frame {
                if let Some(handle) = admit.job {
                    handles.push(handle);
                }
            }
        }
    }
    assert!(!handles.is_empty());

    let victim = handles[handles.len() / 2];
    let frames = client
        .request(Op::Withdraw(WithdrawOp {
            job: victim,
            evaluate: None,
            seq: None,
        }))
        .expect("withdraw");
    // The online seam streams the decider's verdict for the reduced set
    // before the withdraw frame.
    let Some(Frame::Verdict(verdict)) = frames.first().map(|f| &f.frame) else {
        panic!("expected a decider verdict frame, got {:?}", frames.first());
    };
    assert_eq!(verdict.verdict.solver, "OPDCA");
    let withdraw = frames
        .iter()
        .find_map(|f| match &f.frame {
            Frame::Withdraw(w) => Some(w),
            _ => None,
        })
        .expect("withdraw frame present");
    assert_eq!(withdraw.job, victim);
    assert_eq!(withdraw.jobs as usize, handles.len() - 1);
    let decisions = trace.len() as u64 + 1;
    assert_eq!(
        withdraw.seq,
        Some(decisions),
        "every admit decision and this withdrawal count"
    );

    // Withdrawing the same handle again is a frame-level error, not a
    // disconnect.
    let frames = client
        .request(Op::Withdraw(WithdrawOp {
            job: victim,
            evaluate: None,
            seq: None,
        }))
        .expect("second withdraw round-trip");
    assert!(matches!(
        frames.first().map(|f| &f.frame),
        Some(Frame::Error(_))
    ));

    client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    server.join();
}

#[test]
fn parallel_submit_streams_all_solvers_over_the_wire() {
    // A parallel submit is refused: it streams an error and no verdict,
    // and the session keeps the set the plain submit before it opened.
    let (server, path) = start_server("parallel");
    let mut client = Client::connect(&Endpoint::Uds(path)).expect("connect");

    let generate = |jobs: usize, seed: u64| {
        let config = EdgeWorkloadConfig::default()
            .with_jobs(jobs)
            .with_infrastructure(4, 3);
        EdgeWorkloadGenerator::new(config)
            .expect("valid workload config")
            .generate_seeded(seed)
    };
    let verdicts = |frames: &[Response]| {
        frames
            .iter()
            .filter(|f| matches!(f.frame, Frame::Verdict(_)))
            .count()
    };

    let frames = client
        .request(Op::Submit(SubmitOp {
            jobs: generate(16, 11),
            parallel: None,
        }))
        .expect("submit");
    assert_eq!(verdicts(&frames), 5, "one streamed verdict per solver");

    let frames = client
        .request(Op::Submit(SubmitOp {
            jobs: generate(9, 12),
            parallel: Some(true),
        }))
        .expect("parallel submit round-trip");
    assert_eq!(verdicts(&frames), 0);
    assert!(
        frames.iter().any(|f| matches!(f.frame, Frame::Error(_))),
        "{frames:?}"
    );

    let frames = client.request(Op::Status(StatusOp {})).expect("status");
    let Some(Frame::Status(status)) = frames.first().map(|f| &f.frame) else {
        panic!("expected a status frame, got {frames:?}");
    };
    assert_eq!(status.jobs, 16, "the first submit's set is still open");

    client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown");
    server.join();
}
