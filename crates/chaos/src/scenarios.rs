//! The fault scenarios. Each is a pure function of its seed returning
//! the log lines of a successful run, or a display string naming the
//! first violated invariant.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use msmr_cluster::{ClusterConfig, ClusterEngine};
use msmr_model::JobSet;
use msmr_serve::history::{self, replay_warm, Decision, DecisionOp};
use msmr_serve::protocol::{
    read_response, write_request, AdmitOp, AttachOp, Frame, JobSpec, Op, Request, Response,
    StatusOp, SubmitOp,
};
use msmr_serve::{
    Client, Endpoint, Listen, ObservedOp, ResumingClient, RetryError, RetryPolicy, SessionConfig,
};
use msmr_stats::{
    audit, fetch_flight_dump, fetch_stats_json, EventKind, FlightDump, StatsSnapshot,
};
use msmr_workload::arrival_order;

use crate::harness::{wait_until, DaemonHarness};
use crate::proxy::{ChaosProxy, FaultPlan};
use crate::{chaos_trace, scratch_dir};

/// Asserts that every decider verdict in `frames` is warm: a session
/// that restored properly decides through its online seam, so the
/// decider never drops to the cold adapter (`cold_fallback`).
fn assert_decider_warm(frames: &[Response], decider: &str, context: &str) -> Result<(), String> {
    for response in frames {
        if let Frame::Verdict(v) = &response.frame {
            if v.verdict.solver == decider && v.verdict.stats.cold_fallback.is_some() {
                return Err(format!(
                    "{context}: decider `{decider}` verdict carries cold_fallback — \
                     the session did not come back warm"
                ));
            }
        }
    }
    Ok(())
}

/// The surviving history of a [`ResumingClient`] run
/// ([`history::surviving`]), which must hold `jobs` seqs. Every
/// decision after the first must have decided warm — a restored session
/// decides through the online seam; the very first decision after a
/// submit may legitimately decide cold.
fn surviving_history(observed: Vec<ObservedOp>, jobs: usize) -> Result<Vec<Decision>, String> {
    let decider = SessionConfig::default().decider;
    let survivors = history::surviving(observed).map_err(|e| e.to_string())?;
    if survivors.len() != jobs {
        return Err(format!(
            "observed {} distinct seq(s), expected {jobs}",
            survivors.len()
        ));
    }
    let mut decisions = Vec::with_capacity(jobs);
    for (observed, decision) in survivors {
        if observed.seq > 1 {
            let context = format!("seq {}", observed.seq);
            assert_decider_warm(&observed.frames, &decider, &context)?;
        }
        decisions.push(decision);
    }
    Ok(decisions)
}

/// Admitted decisions in a history.
fn admitted(decisions: &[Decision]) -> usize {
    decisions
        .iter()
        .filter(|d| matches!(d.op, DecisionOp::Admit { admitted: true, .. }))
        .count()
}

/// SIGKILL the daemon mid-replay and resume against a restart.
///
/// Invariants: the [`ResumingClient`] reconnects and re-issues its
/// journal so every decision seq is applied exactly once; post-restore
/// decider verdicts stay warm; the surviving history replays offline
/// byte-identically; a later SIGTERM shuts down gracefully (exit 0,
/// pidfile removed, state snapshotted) and a third daemon boots with
/// the full decision count.
///
/// # Errors
///
/// Returns the first violated invariant as a display string.
pub fn kill_restart(seed: u64) -> Result<Vec<String>, String> {
    let mut log = Vec::new();
    let dir = scratch_dir("kill-restart", seed);
    let snapshot_dir = dir.join("snapshots");
    std::fs::create_dir_all(&snapshot_dir).map_err(|e| e.to_string())?;
    let pidfile = dir.join("served.pid");
    let flight_path = dir.join("flight.json");
    let snapshot_arg = snapshot_dir.to_string_lossy().into_owned();
    let pidfile_arg = pidfile.to_string_lossy().into_owned();
    let flight_arg = flight_path.to_string_lossy().into_owned();
    let args = [
        "--cluster",
        "--snapshot-dir",
        snapshot_arg.as_str(),
        "--pidfile",
        pidfile_arg.as_str(),
        "--stats-addr",
        "127.0.0.1:0",
        "--flight-out",
        flight_arg.as_str(),
    ];

    let jobs = 18usize;
    let trace = chaos_trace(seed, jobs)?;
    let order = arrival_order(&trace);
    // Kill after the first checkpoint (op 5) and mid-journal, so the
    // restart restores a snapshot and the journal replay re-applies the
    // acked-but-unsnapshotted tail.
    let kill_before = 6 + (seed as usize % 6);

    let mut daemon = DaemonHarness::spawn_with_stats(&args)?;
    wait_until("the daemon's pidfile", Duration::from_secs(5), || {
        pidfile.is_file()
    })?;
    let written = std::fs::read_to_string(&pidfile).map_err(|e| e.to_string())?;
    if written.trim() != daemon.pid().to_string() {
        return Err(format!(
            "pidfile holds `{}`, daemon pid is {}",
            written.trim(),
            daemon.pid()
        ));
    }
    log.push(format!(
        "kill-restart: daemon pid {} on {} (pidfile verified)",
        daemon.pid(),
        daemon.addr
    ));

    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(60),
    };
    let mut client = ResumingClient::new(
        Endpoint::Tcp(daemon.addr.clone()),
        "chaos-kill",
        policy,
        seed,
    );
    let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
    client.set_pipeline(pipeline);

    let mut journal_at_kill = 0u64;
    for (i, &id) in order.iter().enumerate() {
        if i == kill_before {
            let pid = daemon.pid();
            daemon.kill9()?;
            journal_at_kill = client.journal_len() as u64;
            log.push(format!(
                "kill-restart: SIGKILLed pid {pid} before op {} (journal holds {} op(s))",
                i + 1,
                journal_at_kill
            ));
            daemon = DaemonHarness::spawn_with_stats(&args)?;
            client.set_endpoint(Endpoint::Tcp(daemon.addr.clone()));
            log.push(format!(
                "kill-restart: restarted as pid {} on {}",
                daemon.pid(),
                daemon.addr
            ));
        }
        client
            .admit(&JobSpec::from_job(trace.job(id)), true)
            .map_err(|e| format!("admit {}: {e}", i + 1))?;
        if (i + 1) % 5 == 0 {
            client
                .checkpoint()
                .map_err(|e| format!("checkpoint after op {}: {e}", i + 1))?;
        }
    }

    let stats = client.stats();
    if stats.reconnects == 0 {
        return Err("the client never reconnected — the kill was not observed".into());
    }
    log.push(format!(
        "kill-restart: {} op(s), {} reconnect(s), {} retry(ies), {} deduped ack(s)",
        jobs, stats.reconnects, stats.retries, stats.deduped_acks
    ));

    let history = surviving_history(client.drain_observed(), jobs)?;
    replay_warm(&trace, &history, &SessionConfig::default(), true)?;
    let admitted = admitted(&history);
    log.push(format!(
        "kill-restart: history of {jobs} seq(s) replays byte-identically ({admitted} admitted)"
    ));

    // Post-failure accounting on the restarted daemon: everything it
    // applied is the journal the client replayed plus the ops issued
    // after the kill, minus whatever the restored snapshot horizon
    // deduped — and its flight recorder, counters and histograms must
    // all reconcile with that surviving history.
    let replayed_and_new = journal_at_kill + (jobs - kill_before) as u64;
    let decided_after_kill = replayed_and_new - stats.deduped_acks;
    let stats_addr = daemon
        .stats_addr
        .clone()
        .ok_or("restarted daemon announced no stats address")?;
    let live = fetch_stats_json(&stats_addr).map_err(|e| format!("stats fetch: {e}"))?;
    let live: StatsSnapshot =
        serde_json::from_str(live.trim()).map_err(|e| format!("bad stats snapshot: {e}"))?;
    let dump = fetch_flight_dump(&stats_addr).map_err(|e| format!("flight fetch: {e}"))?;
    audit::accounting(
        "kill-restart",
        &live,
        &dump,
        decided_after_kill,
        0,
        stats.deduped_acks,
    )?;
    log.push(format!(
        "kill-restart: daemon #2 accounting reconciled ({journal_at_kill} replayed + {} new \
         op(s), {} deduped)",
        jobs - kill_before,
        stats.deduped_acks
    ));

    // Graceful shutdown: SIGTERM must snapshot, exit 0 and remove the
    // pidfile...
    daemon.sigterm_and_wait(Duration::from_secs(10))?;
    if pidfile.exists() {
        return Err("pidfile survived the SIGTERM shutdown".into());
    }
    log.push("kill-restart: SIGTERM shutdown clean (exit 0, pidfile removed)".into());

    // ...and leave the flight dump on disk — the file the SIGKILLed
    // daemon #1 never got to write, which is exactly why the dump
    // lives on the graceful path and the panic hook.
    let dumped = std::fs::read_to_string(&flight_path)
        .map_err(|e| format!("SIGTERM shutdown left no --flight-out dump: {e}"))?;
    let dumped: FlightDump = serde_json::from_str(dumped.trim())
        .map_err(|e| format!("--flight-out dump does not parse: {e}"))?;
    if dumped.count(EventKind::Admit) + dumped.count(EventKind::Reject) != decided_after_kill {
        return Err(format!(
            "--flight-out dump holds {} decision event(s), expected {decided_after_kill}",
            dumped.count(EventKind::Admit) + dumped.count(EventKind::Reject)
        ));
    }
    log.push(format!(
        "kill-restart: SIGTERM wrote the flight dump ({} event(s) recorded)",
        dumped.recorded
    ));

    // ...so a third daemon finds the full decision count on disk.
    let daemon = DaemonHarness::spawn(&args)?;
    let mut probe =
        Client::connect(&Endpoint::Tcp(daemon.addr.clone())).map_err(|e| e.to_string())?;
    let attach = probe
        .attach("chaos-kill", false)
        .map_err(|e| format!("re-attach after SIGTERM: {e}"))?;
    if attach.decisions != Some(jobs as u64) {
        return Err(format!(
            "rebooted daemon reports decisions {:?}, expected {jobs}: the seq \
             horizon did not survive the snapshot",
            attach.decisions
        ));
    }
    let status = probe
        .request(Op::Status(StatusOp {}))
        .map_err(|e| e.to_string())?;
    let jobs_on_daemon = status
        .iter()
        .find_map(|r| match &r.frame {
            Frame::Status(s) => Some(s.jobs),
            _ => None,
        })
        .ok_or("no status frame from the rebooted daemon")?;
    if jobs_on_daemon != admitted as u64 {
        return Err(format!(
            "rebooted daemon holds {jobs_on_daemon} job(s), history admitted {admitted}"
        ));
    }
    log.push(format!(
        "kill-restart: reboot #3 restored seq horizon {jobs} and {admitted} job(s)"
    ));
    drop(probe);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(log)
}

/// Torn and garbage snapshot files must quarantine on boot, not take
/// the daemon down, and the surviving sessions must restore warm.
///
/// # Errors
///
/// Returns the first violated invariant as a display string.
pub fn torn_snapshot(seed: u64) -> Result<Vec<String>, String> {
    let mut log = Vec::new();
    let dir = scratch_dir("torn-snapshot", seed);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let config = || ClusterConfig {
        snapshot_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    };
    let trace = chaos_trace(seed, 8)?;
    let order = arrival_order(&trace);
    let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;

    let tenants = ["tenant-a", "tenant-b", "tenant-c"];
    let mut decisions = BTreeMap::new();
    {
        let engine = ClusterEngine::new(config()).map_err(|e| e.to_string())?;
        for name in tenants {
            let outcome = engine
                .store()
                .attach(name, true)
                .map_err(|e| e.to_string())?;
            outcome.session.submit(pipeline.clone(), false, |_| {});
            for &id in &order[..2] {
                outcome
                    .session
                    .admit(&JobSpec::from_job(trace.job(id)), false, None, |_| {})
                    .map_err(|e| e.to_string())?;
            }
            decisions.insert(name, outcome.session.decisions());
        }
        engine.snapshot_all().map_err(|e| e.to_string())?;
    }

    // Tear one snapshot mid-file and drop a garbage namesake next to it.
    let torn = dir.join("tenant-b.json");
    let bytes = std::fs::read(&torn).map_err(|e| e.to_string())?;
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("tenant-x.json"), b"not json at all").map_err(|e| e.to_string())?;
    log.push(format!(
        "torn-snapshot: tore tenant-b.json at byte {} and planted garbage tenant-x.json",
        bytes.len() / 2
    ));

    let engine = ClusterEngine::new(config()).map_err(|e| format!("fail-soft boot failed: {e}"))?;
    let counters = engine.stats_snapshot().counters;
    if counters.snapshot_quarantined != 2 {
        return Err(format!(
            "boot quarantined {} snapshot(s), expected 2",
            counters.snapshot_quarantined
        ));
    }
    for name in ["tenant-a", "tenant-c"] {
        if engine.store().get(name).is_none() {
            return Err(format!("healthy session `{name}` did not survive the boot"));
        }
    }
    for name in ["tenant-b", "tenant-x"] {
        if engine.store().get(name).is_some() {
            return Err(format!("corrupt session `{name}` restored anyway"));
        }
    }
    if !dir.join("tenant-b.json.corrupt").is_file() || torn.exists() {
        return Err("torn snapshot was not renamed to .json.corrupt".into());
    }
    log.push("torn-snapshot: boot quarantined 2 file(s) and restored the 2 healthy tenants".into());

    // The survivors are warm and their seq horizon is intact.
    let decider = SessionConfig::default().decider;
    let session = engine.store().get("tenant-a").ok_or("tenant-a vanished")?;
    if session.decisions() != decisions["tenant-a"] {
        return Err(format!(
            "tenant-a restored with {} decision(s), expected {}",
            session.decisions(),
            decisions["tenant-a"]
        ));
    }
    let mut cold = false;
    let (_, seq, deduped) = session
        .admit(&JobSpec::from_job(trace.job(order[2])), true, None, |v| {
            cold |= v.solver == decider && v.stats.cold_fallback.is_some();
        })
        .map_err(|e| e.to_string())?;
    if cold {
        return Err("tenant-a's decider decided cold after the fail-soft boot".into());
    }
    if seq != decisions["tenant-a"] + 1 || deduped {
        return Err(format!(
            "tenant-a's next decision got seq {seq} (deduped: {deduped}), \
             expected {}",
            decisions["tenant-a"] + 1
        ));
    }
    log.push(format!(
        "torn-snapshot: tenant-a decided warm at seq {seq} after the boot"
    ));

    // Post-failure accounting on the rebooted engine: one fresh
    // decision, two quarantine events, nothing deduped — recorder,
    // counters and histograms all agree.
    audit::accounting(
        "torn-snapshot",
        &engine.stats_snapshot(),
        &engine.stats().flight_dump(),
        1,
        0,
        0,
    )?;
    log.push("torn-snapshot: flight recorder and histograms reconcile with the history".into());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(log)
}

/// Saturate the 1-worker/1-slot pool and assert the typed overload
/// path: every attempt bounces with a counted `Overload`, the retry
/// policy exhausts with `WouldBlock`, and the session recovers to
/// exactly-once application once the pool drains.
///
/// # Errors
///
/// Returns the first violated invariant as a display string.
pub fn overload_storm(seed: u64) -> Result<Vec<String>, String> {
    let mut log = Vec::new();
    let config = ClusterConfig {
        workers: 1,
        queue: 1,
        ..ClusterConfig::default()
    };
    let (server, engine) = ClusterEngine::start(
        Listen {
            tcp: Some("127.0.0.1:0".into()),
            uds: None,
        },
        config,
    )
    .map_err(|e| e.to_string())?;
    let addr = server.tcp_addr().ok_or("no tcp addr")?.to_string();

    let trace = chaos_trace(seed, 6)?;
    let order = arrival_order(&trace);
    let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
    let policy = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
    };
    let max_attempts = policy.max_attempts;
    let mut client = ResumingClient::new(Endpoint::Tcp(addr), "chaos-storm", policy, seed);
    client.set_pipeline(pipeline);
    client
        .admit(&JobSpec::from_job(trace.job(order[0])), false)
        .map_err(|e| format!("setup admit: {e}"))?;

    // Park the single worker behind a gate, then fill the one queue
    // slot: the pool is now saturated.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    engine
        .pool()
        .try_submit(move || {
            let _ = started_tx.send(());
            let _ = gate_rx.recv();
        })
        .map_err(|_| "parking task rejected")?;
    started_rx
        .recv_timeout(Duration::from_secs(5))
        .map_err(|_| "the parking task never started")?;
    engine
        .pool()
        .try_submit(|| {})
        .map_err(|_| "queue-filling task rejected")?;

    let spec = JobSpec::from_job(trace.job(order[1]));
    let before = engine.stats_snapshot().counters.overloads;
    match client.admit(&spec, false) {
        Err(RetryError::Exhausted { attempts, last })
            if last.kind() == std::io::ErrorKind::WouldBlock =>
        {
            log.push(format!(
                "overload-storm: admit exhausted after {attempts} attempt(s): {last}"
            ));
        }
        Err(e) => return Err(format!("expected overload exhaustion, got: {e}")),
        Ok(_) => return Err("admit succeeded against a saturated pool".into()),
    }
    let bounced = engine.stats_snapshot().counters.overloads - before;
    if bounced != u64::from(max_attempts) {
        return Err(format!(
            "{bounced} overload(s) counted, expected one per attempt ({max_attempts})"
        ));
    }
    let retry_stats = client.stats();
    if retry_stats.retries < u64::from(max_attempts - 1) {
        return Err(format!(
            "only {} retry(ies) recorded across {max_attempts} attempts",
            retry_stats.retries
        ));
    }

    // Lift the gate: the storm drains and the same op goes through.
    gate_tx.send(()).map_err(|e| e.to_string())?;
    let frame = client
        .admit(&spec, false)
        .map_err(|e| format!("post-storm admit: {e}"))?;
    if frame.deduped == Some(true) {
        return Err("post-storm admit deduped — the bounced attempts leaked state".into());
    }
    let session = engine
        .store()
        .get("chaos-storm")
        .ok_or("session vanished")?;
    if session.decisions() != 2 {
        return Err(format!(
            "{} decision(s) on the session, expected 2: overload bounces must not decide",
            session.decisions()
        ));
    }
    log.push(format!(
        "overload-storm: pool drained, op applied exactly once (seq {:?}), {} overload(s) total",
        frame.seq,
        engine.stats_snapshot().counters.overloads
    ));

    // Post-failure accounting: two decided ops around the storm, every
    // bounce a flight Overload event, histograms holding exactly one
    // sample per decision and none for the bounced attempts.
    audit::accounting(
        "overload-storm",
        &engine.stats_snapshot(),
        &engine.stats().flight_dump(),
        2,
        0,
        0,
    )?;
    log.push("overload-storm: flight recorder and histograms reconcile with the history".into());
    server.stop();
    server.join();
    Ok(log)
}

/// Outcome of one proxied request round in [`frame_chaos`].
#[derive(Default)]
struct RoundOutcome {
    /// Freshly applied decisions.
    applied: Vec<Decision>,
    /// `deduped: true` acks observed.
    deduped: u64,
    /// `Error` frames on id 0 (malformed lines the server survived).
    id0_errors: u64,
}

/// One connection through the chaos proxy: attach (+ submit on the
/// first round), then the given seq-stamped admits; the write half is
/// shut down so held/reordered lines flush, and responses are read to
/// EOF.
fn chaos_round(
    proxy_addr: &str,
    session: &str,
    pipeline: Option<&JobSet>,
    ops: &[(u64, JobSpec)],
) -> Result<RoundOutcome, String> {
    let stream = TcpStream::connect(proxy_addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);

    let mut requests = vec![Request {
        id: 1,
        op: Op::Attach(AttachOp {
            session: session.to_string(),
            create: Some(true),
        }),
    }];
    if let Some(jobs) = pipeline {
        requests.push(Request {
            id: 2,
            op: Op::Submit(SubmitOp {
                jobs: jobs.clone(),
                parallel: None,
            }),
        });
    }
    let mut admits = BTreeMap::new();
    for (i, (seq, spec)) in ops.iter().enumerate() {
        let op = Op::Admit(AdmitOp {
            job: spec.clone(),
            evaluate: Some(true),
            seq: Some(*seq),
        });
        let id = 100 + i as u64;
        admits.insert(id, op.clone());
        requests.push(Request { id, op });
    }
    for request in &requests {
        write_request(&mut writer, request).map_err(|e| e.to_string())?;
    }
    writer
        .shutdown(Shutdown::Write)
        .map_err(|e| e.to_string())?;

    // Each answer (a duplicated line gets two under one id) ends in its
    // `Done`; a complete admit answer reduces to a decision.
    let mut outcome = RoundOutcome::default();
    let mut answers: BTreeMap<u64, Vec<Response>> = BTreeMap::new();
    while let Some(response) = read_response(&mut reader).map_err(|e| e.to_string())? {
        if response.id == 0 {
            outcome.id0_errors += u64::from(matches!(response.frame, Frame::Error(_)));
            continue;
        }
        let (id, done) = (response.id, matches!(response.frame, Frame::Done(_)));
        answers.entry(id).or_default().push(response);
        if !done {
            continue;
        }
        let answer = answers.remove(&id).unwrap_or_default();
        let Some(op) = admits.get(&id) else {
            continue; // attach / submit
        };
        match Decision::from_frames(op, &answer) {
            Ok(decision) if decision.deduped => outcome.deduped += 1,
            Ok(decision) => outcome.applied.push(decision),
            // Seq-gap/retired errors: the op was not applied this
            // round; a later round re-issues it.
            Err(_) => {}
        }
    }
    Ok(outcome)
}

/// Byte-level frame chaos: delay, duplicate, reorder and corrupt the
/// client→server NDJSON stream through [`ChaosProxy`] and assert the
/// daemon converges to exactly-once application — decided counters
/// equal the unique ops, duplicates are acked as `deduped` and counted
/// separately, corrupt lines surface as id-0 errors, and the final
/// history is byte-identical offline.
///
/// # Errors
///
/// Returns the first violated invariant as a display string.
pub fn frame_chaos(seed: u64) -> Result<Vec<String>, String> {
    let mut log = Vec::new();
    let (server, engine) = ClusterEngine::start(
        Listen {
            tcp: Some("127.0.0.1:0".into()),
            uds: None,
        },
        ClusterConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let addr = server.tcp_addr().ok_or("no tcp addr")?.to_string();
    let plan = FaultPlan {
        corrupt: 0.25,
        duplicate: 0.35,
        reorder: 0.2,
        delay: 0.15,
        max_delay_ms: 5,
        warmup: 2,
    };
    let proxy = ChaosProxy::start(&addr, seed, plan)?;

    let jobs = 12usize;
    let trace = chaos_trace(seed, jobs)?;
    let order = arrival_order(&trace);
    let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
    let specs: Vec<JobSpec> = order
        .iter()
        .map(|&id| JobSpec::from_job(trace.job(id)))
        .collect();

    let mut applied: BTreeMap<u64, Decision> = BTreeMap::new();
    let mut deduped_acks = 0u64;
    let mut id0_errors = 0u64;
    let mut rounds = 0usize;
    while applied.len() < jobs {
        rounds += 1;
        if rounds > jobs + 2 {
            return Err(format!(
                "no convergence after {rounds} round(s): {}/{jobs} seq(s) applied",
                applied.len()
            ));
        }
        // Re-issue every not-yet-applied seq, ascending. The first of
        // them rides in the proxy's warmup window, so every round makes
        // progress even when later lines are reordered into seq gaps.
        let pending: Vec<(u64, JobSpec)> = (1..=jobs as u64)
            .filter(|seq| !applied.contains_key(seq))
            .map(|seq| (seq, specs[seq as usize - 1].clone()))
            .collect();
        let outcome = chaos_round(
            proxy.addr(),
            "chaos-frames",
            (rounds == 1).then_some(&pipeline),
            &pending,
        )?;
        for decision in outcome.applied {
            applied.insert(decision.seq, decision);
        }
        deduped_acks += outcome.deduped;
        id0_errors += outcome.id0_errors;
    }
    let stats = proxy.stats();
    log.push(format!(
        "frame-chaos: {jobs} op(s) converged in {rounds} round(s) through \
         {} corrupt / {} duplicated / {} reordered / {} delayed line(s)",
        stats.corrupted.load(Ordering::SeqCst),
        stats.duplicated.load(Ordering::SeqCst),
        stats.reordered.load(Ordering::SeqCst),
        stats.delayed.load(Ordering::SeqCst),
    ));

    // Exactly-once application, with every fault accounted for.
    let counters = engine.stats_snapshot().counters;
    let session = engine
        .store()
        .get("chaos-frames")
        .ok_or("session vanished")?;
    if session.decisions() != jobs as u64 {
        return Err(format!(
            "{} decision(s) on the session, expected {jobs}",
            session.decisions()
        ));
    }
    if counters.admits + counters.rejects != jobs as u64 {
        return Err(format!(
            "{} admit(s) + {} reject(s) counted, expected {jobs} unique decisions",
            counters.admits, counters.rejects
        ));
    }
    if counters.deduped_ops != deduped_acks {
        return Err(format!(
            "daemon counted {} deduped op(s), client observed {deduped_acks}",
            counters.deduped_ops
        ));
    }
    let corrupted = stats.corrupted.load(Ordering::SeqCst);
    if id0_errors != corrupted {
        return Err(format!(
            "{id0_errors} id-0 error frame(s) for {corrupted} corrupt line(s): \
             every malformed line must degrade to exactly one error frame"
        ));
    }
    log.push(format!(
        "frame-chaos: exactly-once held ({} decided, {deduped_acks} deduped ack(s), \
         {id0_errors} malformed-line error(s))",
        jobs
    ));

    let history: Vec<Decision> = applied.into_values().collect();
    replay_warm(&trace, &history, &SessionConfig::default(), true)?;
    log.push("frame-chaos: surviving history replays byte-identically".into());

    // Post-failure accounting: exactly one decision and one histogram
    // sample per unique seq despite the duplicated/reordered/corrupted
    // lines, and one flight Dedup event per deduped ack the client saw.
    audit::accounting(
        "frame-chaos",
        &engine.stats_snapshot(),
        &engine.stats().flight_dump(),
        jobs as u64,
        0,
        deduped_acks,
    )?;
    log.push("frame-chaos: flight recorder and histograms reconcile with the history".into());
    drop(proxy);
    server.stop();
    server.join();
    Ok(log)
}

/// SIGKILL one backend of a routed three-daemon tier mid-replay.
///
/// Invariants: the router's health monitor declares the backend dead
/// on its own clock; the orphaned session is restored on a survivor
/// from the shared snapshot directory; the [`ResumingClient`] rides
/// its journal replay through the router so every decision seq is
/// applied exactly once (no gaps, no conflicts, dedups accounted); the
/// restored decider stays warm; and the surviving history replays
/// offline byte-identically.
///
/// # Errors
///
/// Returns the first violated invariant as a display string.
pub fn router_failover(seed: u64) -> Result<Vec<String>, String> {
    use msmr_router::{Router, RouterConfig};
    let mut log = Vec::new();
    let dir = scratch_dir("router-failover", seed);
    let snapshot_dir = dir.join("snapshots");
    std::fs::create_dir_all(&snapshot_dir).map_err(|e| e.to_string())?;
    let snapshot_arg = snapshot_dir.to_string_lossy().into_owned();
    let args = ["--cluster", "--snapshot-dir", snapshot_arg.as_str()];

    let mut backends = Vec::new();
    for _ in 0..3 {
        backends.push(DaemonHarness::spawn(&args)?);
    }
    let router = Router::start(RouterConfig {
        backends: backends.iter().map(|d| d.addr.clone()).collect(),
        health_interval: Duration::from_millis(30),
        health_failures: 2,
        ..RouterConfig::default()
    })
    .map_err(|e| format!("router start: {e}"))?;
    log.push(format!(
        "router-failover: router on {} over 3 backends",
        router.addr()
    ));

    let jobs = 14usize;
    let trace = chaos_trace(seed, jobs)?;
    let order = arrival_order(&trace);
    let kill_before = 6 + (seed as usize % 5);
    let policy = RetryPolicy {
        max_attempts: 20,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
    };
    let mut client = ResumingClient::new(
        Endpoint::Tcp(router.addr().to_string()),
        "chaos-router",
        policy,
        seed,
    );
    let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
    client.set_pipeline(pipeline);

    let mut killed = String::new();
    for (i, &id) in order.iter().enumerate() {
        if i == kill_before {
            // Checkpoint so the shared snapshot directory holds the
            // session, then SIGKILL its owner. The router is told
            // nothing — its probe loop must notice inside the client's
            // retry budget.
            client
                .checkpoint()
                .map_err(|e| format!("checkpoint before the kill: {e}"))?;
            let owner = router
                .state()
                .route("chaos-router")
                .ok_or("no owner for the session")?;
            let victim = backends
                .iter()
                .position(|d| d.addr == owner)
                .ok_or("owner is not a spawned backend")?;
            let pid = backends[victim].pid();
            backends[victim].kill9()?;
            killed = owner;
            log.push(format!(
                "router-failover: SIGKILLed owner {killed} (pid {pid}) before op {}",
                i + 1
            ));
        }
        client
            .admit(&JobSpec::from_job(trace.job(id)), true)
            .map_err(|e| format!("admit {} across the failover: {e}", i + 1))?;
    }

    let stats = client.stats();
    if stats.reconnects == 0 {
        return Err("the client never reconnected — the kill was not observed".into());
    }
    let owner = router
        .state()
        .route("chaos-router")
        .ok_or("session lost its owner")?;
    if owner == killed {
        return Err(format!("session still routed to the dead backend {killed}"));
    }
    log.push(format!(
        "router-failover: {jobs} op(s), {} reconnect(s), {} retry(ies), \
         {} deduped ack(s); session now on {owner}",
        stats.reconnects, stats.retries, stats.deduped_acks
    ));

    // The surviving history: contiguous seqs, warm decider, offline
    // byte-identity.
    let history = surviving_history(client.drain_observed(), jobs)?;
    replay_warm(&trace, &history, &SessionConfig::default(), true)?;
    let admitted = admitted(&history);
    log.push(format!(
        "router-failover: history of {jobs} seq(s) replays byte-identically \
         ({admitted} admitted)"
    ));

    // The survivor holds the full horizon, and the tier-wide aggregate
    // accounts every dedup the client observed.
    let mut probe = Client::connect(&Endpoint::Tcp(owner.clone())).map_err(|e| e.to_string())?;
    let attach = probe
        .attach("chaos-router", false)
        .map_err(|e| format!("attach on the survivor: {e}"))?;
    if attach.decisions != Some(jobs as u64) {
        return Err(format!(
            "survivor reports decisions {:?}, expected {jobs}",
            attach.decisions
        ));
    }
    let mut via_router =
        Client::connect(&Endpoint::Tcp(router.addr().to_string())).map_err(|e| e.to_string())?;
    let frames = via_router
        .request(Op::Stats(msmr_serve::protocol::StatsOp { session: None }))
        .map_err(|e| e.to_string())?;
    let aggregate = frames
        .iter()
        .find_map(|f| match &f.frame {
            Frame::Stats(s) => Some(s.stats.clone()),
            _ => None,
        })
        .ok_or("no stats frame from the router")?;
    if aggregate.counters.deduped_ops != stats.deduped_acks {
        return Err(format!(
            "tier counted {} deduped op(s), the client observed {}",
            aggregate.counters.deduped_ops, stats.deduped_acks
        ));
    }
    log.push(format!(
        "router-failover: survivor horizon {jobs} verified, tier dedup \
         accounting reconciled ({} deduped)",
        stats.deduped_acks
    ));

    // Tier shutdown through the router: the op is broadcast and every
    // surviving backend exits.
    via_router
        .request(Op::Shutdown(msmr_serve::protocol::ShutdownOp {}))
        .map_err(|e| format!("shutdown through the router: {e}"))?;
    router.join();
    drop(backends);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(log)
}

/// An injectable store clock driven by the scenario.
struct SkewClock(AtomicU64);

impl msmr_cluster::Clock for SkewClock {
    fn now_millis(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Clock skew against the TTL reaper: a backward jump must evict
/// nothing (idleness saturates at zero), the TTL boundary must hold
/// exactly, and an eviction must snapshot first so a returning client
/// resurrects the session warm with its seq horizon intact.
///
/// # Errors
///
/// Returns the first violated invariant as a display string.
pub fn clock_skew(seed: u64) -> Result<Vec<String>, String> {
    let mut log = Vec::new();
    let dir = scratch_dir("clock-skew", seed);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let clock = Arc::new(SkewClock(AtomicU64::new(1_000)));
    let ttl_millis = 5_000u64;
    let engine = ClusterEngine::with_store_clock(
        ClusterConfig {
            snapshot_dir: Some(dir.clone()),
            session_ttl: Some(Duration::from_millis(ttl_millis)),
            ..ClusterConfig::default()
        },
        Some(clock.clone()),
    )
    .map_err(|e| e.to_string())?;

    let trace = chaos_trace(seed, 6)?;
    let order = arrival_order(&trace);
    let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;

    let idle = engine
        .store()
        .attach("skew-idle", true)
        .map_err(|e| e.to_string())?;
    idle.session.submit(pipeline.clone(), false, |_| {});
    for &id in &order[..2] {
        idle.session
            .admit(&JobSpec::from_job(trace.job(id)), false, None, |_| {})
            .map_err(|e| e.to_string())?;
    }
    let decisions_before = idle.session.decisions();
    idle.session.client_detached();
    let held = engine
        .store()
        .attach("skew-held", true)
        .map_err(|e| e.to_string())?;
    held.session.submit(pipeline, false, |_| {});

    // Backward skew: `now` before every touch timestamp. Idleness
    // saturates at zero, so nothing may be reaped.
    clock.0.store(0, Ordering::SeqCst);
    let (evicted, error) = engine.evict_idle();
    if !evicted.is_empty() || error.is_some() {
        return Err(format!(
            "backward clock skew evicted {evicted:?} (error: {error:?})"
        ));
    }
    // Right below the TTL boundary: still nothing.
    clock.0.store(1_000 + ttl_millis - 1, Ordering::SeqCst);
    let (evicted, _) = engine.evict_idle();
    if !evicted.is_empty() {
        return Err(format!("evicted {evicted:?} one tick before the TTL"));
    }
    log.push("clock-skew: backward jump and TTL-1 sweep evicted nothing".into());

    // Past the TTL: the detached session goes (snapshot first), the
    // attached one stays.
    clock.0.store(1_000 + ttl_millis + 1, Ordering::SeqCst);
    let (evicted, error) = engine.evict_idle();
    if evicted != ["skew-idle"] {
        return Err(format!(
            "TTL sweep evicted {evicted:?}, expected [skew-idle]"
        ));
    }
    if let Some(e) = error {
        return Err(format!("eviction snapshot failed: {e}"));
    }
    let snapshot = engine.stats_snapshot();
    if snapshot.counters.evictions != 1 || snapshot.counters.snapshot_writes != 1 {
        return Err(format!(
            "{} eviction(s) / {} snapshot write(s) counted, expected 1 / 1",
            snapshot.counters.evictions, snapshot.counters.snapshot_writes
        ));
    }
    if snapshot.gauges.live_sessions != 1 {
        return Err(format!(
            "{} live session(s) after the sweep, expected only skew-held",
            snapshot.gauges.live_sessions
        ));
    }
    log.push("clock-skew: TTL sweep snapshotted and evicted only the detached session".into());

    // Resurrection: re-attaching restores from the eviction snapshot
    // with the decision seq intact and continues warm.
    let outcome = engine.attach_session("skew-idle", false)?;
    if outcome.created {
        return Err("re-attach created a blank session instead of restoring".into());
    }
    if outcome.session.decisions() != decisions_before {
        return Err(format!(
            "resurrected session has {} decision(s), expected {decisions_before}",
            outcome.session.decisions()
        ));
    }
    let decider = SessionConfig::default().decider;
    let mut cold = false;
    let (_, seq, deduped) = outcome
        .session
        .admit(&JobSpec::from_job(trace.job(order[2])), true, None, |v| {
            cold |= v.solver == decider && v.stats.cold_fallback.is_some();
        })
        .map_err(|e| e.to_string())?;
    if cold {
        return Err("resurrected session's decider decided cold".into());
    }
    if seq != decisions_before + 1 || deduped {
        return Err(format!(
            "resurrected session decided at seq {seq} (deduped: {deduped}), \
             expected {}",
            decisions_before + 1
        ));
    }
    log.push(format!(
        "clock-skew: resurrection came back warm, seq continued at {seq}"
    ));

    // Post-failure accounting: three decisions across the skew (two
    // before the eviction, one after the resurrection), one Eviction
    // and one SnapshotWrite flight event matching their counters.
    audit::accounting(
        "clock-skew",
        &engine.stats_snapshot(),
        &engine.stats().flight_dump(),
        3,
        0,
        0,
    )?;
    log.push("clock-skew: flight recorder and histograms reconcile with the history".into());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(log)
}
