//! Router end-to-end suite over three real `msmr-served --cluster`
//! daemons (spawned via [`msmr_cluster::testkit::DaemonHarness`]):
//!
//! * a mixed admit/withdraw replay through the router is
//!   **byte-identical** — normalized verdict by normalized verdict — to
//!   the same replay against a direct single-daemon connection and to
//!   offline `SolverRegistry::evaluate` on every set the history
//!   visits;
//! * SIGKILLing the backend that owns a session mid-replay fails it
//!   over to a survivor: the [`ResumingClient`] rides its journal
//!   replay, the seq stream stays contiguous (no gaps, no conflicts),
//!   deduped ops are accounted, and the surviving history replays
//!   byte-identically offline;
//! * the router's `Stats(None)` answer equals the exact per-field sum
//!   of its backends' own snapshots;
//! * `migrate SESSION BACKEND` on the admin channel moves a session
//!   between backends under live load without the client noticing.
//!
//! Every test skips (with a note) when the `msmr-served` binary is not
//! built — `cargo test -p msmr-router` alone does not build it.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use msmr_cluster::testkit::{served_binary, wait_until, DaemonHarness};
use msmr_model::JobSet;
use msmr_router::{Router, RouterConfig};
use msmr_serve::history::{replay_cold, replay_warm, surviving, Decision, DecisionOp};
use msmr_serve::protocol::{Frame, JobSpec, Op, ShutdownOp, StatsOp};
use msmr_serve::{Client, Endpoint, ResumingClient, RetryPolicy, SessionConfig};
use msmr_stats::StatsSnapshot;
use msmr_workload::{arrival_order, EdgeWorkloadConfig, EdgeWorkloadGenerator};

const OPT_NODES: u64 = 50_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let unique = format!(
        "msmr-router-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    );
    let dir = std::env::temp_dir().join(unique.replace(['(', ')'], ""));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn session_config() -> SessionConfig {
    SessionConfig {
        node_limit: Some(OPT_NODES),
        ..SessionConfig::default()
    }
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

/// Spawns `n` cluster daemons sharing `snapshot_dir`, or `None` (after
/// a skip note) when the `msmr-served` binary is not available.
fn spawn_backends(n: usize, snapshot_dir: &std::path::Path) -> Option<Vec<DaemonHarness>> {
    if let Err(e) = served_binary() {
        eprintln!("skipping router e2e: {e}");
        return None;
    }
    let dir_arg = snapshot_dir.to_string_lossy().into_owned();
    let opt_nodes = OPT_NODES.to_string();
    let mut backends = Vec::new();
    for _ in 0..n {
        let daemon = DaemonHarness::spawn(&[
            "--cluster",
            "--snapshot-dir",
            dir_arg.as_str(),
            "--opt-nodes",
            opt_nodes.as_str(),
        ])
        .expect("spawn cluster daemon");
        backends.push(daemon);
    }
    Some(backends)
}

fn start_router(backends: &[DaemonHarness], config: RouterConfig) -> Router {
    let addrs: Vec<String> = backends.iter().map(|d| d.addr.clone()).collect();
    Router::start(RouterConfig {
        backends: addrs,
        ..config
    })
    .expect("router binds")
}

fn router_client(router: &Router) -> Client {
    Client::connect(&Endpoint::Tcp(router.addr().to_string())).expect("connect to router")
}

/// Shuts the whole tier down through the router (the op is broadcast
/// to every alive backend) and joins the router's threads.
fn shutdown_tier(router: Router) {
    let mut client = router_client(&router);
    client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown through the router");
    router.join();
}

fn mixed_replay(client: &mut Client, trace: &JobSet, ratio: f64, mix_seed: u64) -> Vec<Decision> {
    client
        .replay_trace_mixed(trace, true, ratio, mix_seed)
        .expect("mixed replay")
        .decisions
}

#[test]
fn routed_mixed_replay_is_byte_identical_to_direct_and_offline() {
    let dir = scratch_dir("replay");
    let Some(backends) = spawn_backends(3, &dir) else {
        return;
    };
    let router = start_router(&backends, RouterConfig::default());

    // A direct single daemon for the comparison runs: same session
    // config the spawned daemons got on their command line.
    let direct =
        DaemonHarness::spawn(&["--cluster", "--opt-nodes", OPT_NODES.to_string().as_str()])
            .expect("spawn direct daemon");

    // Three sessions with distinct traces: each lands wherever
    // rendezvous puts it; the verdict streams must not care.
    let sessions: [(&str, usize, u64); 3] = [
        ("router-alpha", 20, 41),
        ("router-bravo", 14, 42),
        ("router-charlie", 12, 43),
    ];
    const RATIO: f64 = 0.35;
    const MIX_SEED: u64 = 7;
    let mut routed_events = Vec::new();
    for (name, jobs, seed) in sessions {
        let trace = trace(jobs, seed);
        let mut routed = router_client(&router);
        routed.attach(name, true).expect("attach through router");
        let events = mixed_replay(&mut routed, &trace, RATIO, MIX_SEED);

        let mut direct_client =
            Client::connect(&Endpoint::Tcp(direct.addr.clone())).expect("connect direct");
        direct_client
            .attach(&format!("direct-{name}"), true)
            .expect("attach direct");
        let direct_events = mixed_replay(&mut direct_client, &trace, RATIO, MIX_SEED);

        assert_eq!(
            events, direct_events,
            "session {name}: routed and direct replays must be byte-identical"
        );
        let withdraws = events
            .iter()
            .filter(|e| matches!(e.op, DecisionOp::Withdraw { .. }))
            .count();
        assert!(withdraws > 1, "session {name}: mix produced no withdrawals");
        routed_events.push((trace, events));
    }

    // Cold offline oracle for the first (largest) session: evaluate
    // every set the history visits from scratch, mirroring the
    // sessions' swap-removal id discipline.
    let (trace, events) = &routed_events[0];
    replay_cold(trace, events, &session_config(), true).expect("cold offline oracle");

    // Placement sanity: with a handful more sessions the tier must
    // actually spread (rendezvous over 3 backends; twelve names all
    // hashing onto one backend would be a ~3^-11 accident).
    for i in 0..9 {
        let mut client = router_client(&router);
        client
            .attach(&format!("spread-{i}"), true)
            .expect("attach spread session");
    }
    let mut owners: Vec<String> = router
        .state()
        .placements()
        .into_iter()
        .map(|(_, backend)| backend)
        .collect();
    owners.sort();
    owners.dedup();
    assert!(
        owners.len() >= 2,
        "12 sessions all landed on one backend: {owners:?}"
    );

    let mut direct_client =
        Client::connect(&Endpoint::Tcp(direct.addr.clone())).expect("connect direct");
    direct_client
        .request(Op::Shutdown(ShutdownOp {}))
        .expect("shutdown direct");
    shutdown_tier(router);
    drop(backends);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_backend_fails_over_with_seq_continuity() {
    let dir = scratch_dir("failover");
    let Some(mut backends) = spawn_backends(3, &dir) else {
        return;
    };
    // Fast health detection: the killed backend must be declared dead
    // well inside the client's retry budget.
    let router = start_router(
        &backends,
        RouterConfig {
            health_interval: Duration::from_millis(40),
            health_failures: 2,
            ..RouterConfig::default()
        },
    );

    let jobs = 14usize;
    let trace = trace(jobs, 99);
    let order = arrival_order(&trace);
    let specs: Vec<JobSpec> = order
        .iter()
        .map(|&id| JobSpec::from_job(trace.job(id)))
        .collect();
    let policy = RetryPolicy {
        max_attempts: 20,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
    };
    let mut client = ResumingClient::new(
        Endpoint::Tcp(router.addr().to_string()),
        "chaos-router",
        policy,
        99,
    );
    let (pipeline, _) = trace.restrict_to(&[]).expect("pipeline-only set");
    client.set_pipeline(pipeline);

    let kill_before = 7usize;
    let mut killed_addr = String::new();
    for (i, spec) in specs.iter().enumerate() {
        if i == kill_before {
            // Checkpoint so the shared snapshot directory holds the
            // session, then SIGKILL its owner. The router is told
            // nothing: its health monitor must notice on its own.
            client.checkpoint().expect("checkpoint before the kill");
            let owner = router
                .state()
                .route("chaos-router")
                .expect("session has an owner");
            let victim = backends
                .iter()
                .position(|d| d.addr == owner)
                .expect("owner is one of the spawned backends");
            killed_addr = owner;
            backends[victim].kill9().expect("SIGKILL the owner");
        }
        client
            .admit(spec, true)
            .unwrap_or_else(|e| panic!("admit {} failed across the failover: {e}", i + 1));
    }

    // A seq gap or conflict would have surfaced as a Fatal typed error
    // out of `admit` above. The surviving stream (the last application
    // per seq) must be a contiguous total order that replays
    // byte-identically through a serialized library session.
    let history: Vec<Decision> = surviving(client.drain_observed())
        .expect("an ack per seq")
        .into_iter()
        .map(|(_, decision)| decision)
        .collect();
    assert_eq!(history.len(), jobs, "one surviving decision per seq");
    replay_warm(&trace, &history, &session_config(), true).expect("serialized replay");

    // The session now lives on a survivor with the full seq horizon,
    // and the tier's dedup accounting matches what the client saw.
    let stats = client.stats();
    let owner = router
        .state()
        .route("chaos-router")
        .expect("survivor owns the session");
    assert_ne!(
        owner, killed_addr,
        "the session must have moved off the killed backend"
    );
    let mut probe = Client::connect(&Endpoint::Tcp(owner.clone())).expect("connect survivor");
    let attach = probe
        .attach("chaos-router", false)
        .expect("attach on the survivor");
    assert_eq!(
        attach.decisions,
        Some(jobs as u64),
        "survivor must hold the full decision horizon"
    );
    let mut via_router = router_client(&router);
    let frames = via_router
        .request(Op::Stats(StatsOp { session: None }))
        .expect("aggregated stats");
    let aggregate = frames
        .iter()
        .find_map(|f| match &f.frame {
            Frame::Stats(s) => Some(s.stats.clone()),
            _ => None,
        })
        .expect("stats frame");
    assert_eq!(
        aggregate.counters.deduped_ops, stats.deduped_acks,
        "tier-wide deduped ops must equal the client's deduped acks"
    );

    shutdown_tier(router);
    drop(backends);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggregated_stats_are_the_exact_sum_of_backend_snapshots() {
    let dir = scratch_dir("stats");
    let Some(backends) = spawn_backends(3, &dir) else {
        return;
    };
    let router = start_router(&backends, RouterConfig::default());

    // Traffic over several sessions so more than one backend has
    // non-zero counters.
    for (i, seed) in [(0u64, 301u64), (1, 302), (2, 303), (3, 304)] {
        let trace = trace(8, seed);
        let mut client = router_client(&router);
        client
            .attach(&format!("stats-{i}"), true)
            .expect("attach through router");
        client
            .replay_trace_mixed(&trace, false, 0.0, 0)
            .expect("replay");
    }

    let scrape = |addr: &str| -> StatsSnapshot {
        let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).expect("connect");
        let frames = client
            .request(Op::Stats(StatsOp { session: None }))
            .expect("stats");
        frames
            .iter()
            .find_map(|f| match &f.frame {
                Frame::Stats(s) => Some(s.stats.clone()),
                _ => None,
            })
            .expect("stats frame")
    };
    let parts: Vec<StatsSnapshot> = backends.iter().map(|d| scrape(&d.addr)).collect();
    let aggregate = scrape(&router.addr().to_string());

    // The acceptance check: aggregated counters are the *exact* sum.
    let mut expected = msmr_stats::StatsCounters::default();
    for part in &parts {
        expected.absorb(&part.counters);
    }
    assert_eq!(aggregate.counters, expected, "counters must sum exactly");
    assert!(
        expected.admits + expected.rejects >= 4 * 8,
        "traffic did not reach the backends"
    );
    let admit_samples: u64 = parts
        .iter()
        .filter_map(|p| p.ops.get("admit"))
        .map(|lat| lat.samples)
        .sum();
    assert_eq!(
        aggregate.ops.get("admit").map_or(0, |lat| lat.samples),
        admit_samples,
        "admit latency samples must sum exactly"
    );
    let histo_total: u64 = aggregate
        .ops
        .get("admit")
        .map_or(0, |lat| lat.histo_buckets.iter().sum());
    assert_eq!(
        histo_total, admit_samples,
        "merged histogram must hold one bucket entry per sample"
    );
    assert_eq!(
        aggregate.gauges.live_sessions,
        parts.iter().map(|p| p.gauges.live_sessions).sum::<u64>(),
        "live-session gauges sum per backend"
    );

    shutdown_tier(router);
    drop(backends);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_migration_moves_a_session_under_load() {
    let dir = scratch_dir("migrate");
    let Some(backends) = spawn_backends(3, &dir) else {
        return;
    };
    let router = start_router(
        &backends,
        RouterConfig {
            admin: Some("127.0.0.1:0".to_string()),
            ..RouterConfig::default()
        },
    );
    let admin_addr = router.admin_addr().expect("admin channel bound");

    let jobs = 12usize;
    let trace = trace(jobs, 77);
    let order = arrival_order(&trace);
    let specs: Vec<JobSpec> = order
        .iter()
        .map(|&id| JobSpec::from_job(trace.job(id)))
        .collect();
    let policy = RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
    };
    let mut client = ResumingClient::new(
        Endpoint::Tcp(router.addr().to_string()),
        "migrate-me",
        policy,
        77,
    );
    let (pipeline, _) = trace.restrict_to(&[]).expect("pipeline-only set");
    client.set_pipeline(pipeline);
    for spec in &specs[..4] {
        client.admit(spec, false).expect("warm-up admit");
    }

    let source = router
        .state()
        .route("migrate-me")
        .expect("session has an owner");
    let target = backends
        .iter()
        .map(|d| d.addr.clone())
        .find(|addr| *addr != source)
        .expect("another backend exists");

    // Load: a thread keeps admitting through the router while the
    // main thread migrates over the admin channel.
    let mid_specs: Vec<JobSpec> = specs[4..10].to_vec();
    let loader = std::thread::spawn(move || {
        for spec in &mid_specs {
            client.admit(spec, false).expect("admit during migration");
        }
        client
    });
    let admin = TcpStream::connect(admin_addr).expect("connect admin channel");
    let mut admin_reader = BufReader::new(admin.try_clone().expect("clone admin stream"));
    let mut admin_writer = admin;
    writeln!(admin_writer, "migrate migrate-me {target}").expect("send migrate");
    let mut reply = String::new();
    admin_reader.read_line(&mut reply).expect("migrate reply");
    assert!(
        reply.starts_with("ok migrated migrate-me -> ")
            || reply.starts_with("ok migrated migrate-me already on"),
        "unexpected migrate reply: {reply:?}"
    );
    let mut client = loader.join().expect("loader thread");
    for spec in &specs[10..] {
        client.admit(spec, false).expect("post-migration admit");
    }

    // The client never noticed: no reconnects, contiguous seqs.
    let stats = client.stats();
    assert_eq!(stats.reconnects, 0, "migration must be seamless");
    let seqs: Vec<u64> = client.drain_observed().iter().map(|o| o.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted,
        (1..=jobs as u64).collect::<Vec<_>>(),
        "seqs must stay contiguous across the migration"
    );

    // The routing entry flipped and the target holds the whole horizon.
    wait_until("the route to flip", Duration::from_secs(5), || {
        router.state().route("migrate-me").as_deref() == Some(target.as_str())
    })
    .expect("route flips to the target");
    let mut probe = Client::connect(&Endpoint::Tcp(target.clone())).expect("connect target");
    let attach = probe
        .attach("migrate-me", false)
        .expect("attach on the target");
    assert_eq!(
        attach.decisions,
        Some(jobs as u64),
        "target must hold every decision after the migration"
    );

    // The other admin commands answer over the same connection.
    writeln!(admin_writer, "backends").expect("send backends");
    let mut alive = 0;
    loop {
        let mut line = String::new();
        admin_reader.read_line(&mut line).expect("backends reply");
        if line.starts_with("ok ") {
            break;
        }
        assert!(line.contains(" alive"), "unexpected backend line: {line:?}");
        alive += 1;
    }
    assert_eq!(alive, 3, "all three backends are alive");
    writeln!(admin_writer, "routes").expect("send routes");
    let mut routed_to_target = false;
    loop {
        let mut line = String::new();
        admin_reader.read_line(&mut line).expect("routes reply");
        if line.starts_with("ok ") {
            break;
        }
        if line.trim() == format!("migrate-me {target}") {
            routed_to_target = true;
        }
    }
    assert!(routed_to_target, "routes must show the migrated session");

    shutdown_tier(router);
    drop(backends);
    let _ = std::fs::remove_dir_all(&dir);
}
