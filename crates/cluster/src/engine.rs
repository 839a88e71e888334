//! The cluster engine: the daemon's one request interpreter (`execute`)
//! and the one connection loop around it, plus the snapshot/restore
//! surface.
//!
//! A connection addresses the session it is bound to: a **private** one
//! of its own from the first byte (the daemon's default), or a *named
//! shared* one after `attach` (where a `--cluster` daemon's connections
//! start: unbound). A solve request (`submit`, `admit`, `withdraw`) runs
//! on one of two executors. It runs to completion on the connection
//! thread when nothing would wait for it: always on a private session
//! (nobody else can hold its lock), and for a decider-only admit or
//! withdraw on a named session whose lock is free while the worker
//! pool's queue is empty. A decider-only op that runs there keeps its
//! frames in the connection's buffer and writes them, `Done` included,
//! in one call once the session's lock is released. Every other solve
//! becomes one task on the bounded [`WorkerPool`]; the worker streams
//! frames back over an in-process channel and the connection thread
//! forwards them to the socket in order, so verdict streaming survives
//! the hop. When the pool's queue is full the connection answers
//! immediately with the typed [`Frame::Overload`] backpressure frame —
//! the request has no effect and the client retries.

use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use msmr_par::{SubmitError, WorkerPool};
use msmr_sched::Verdict;
use msmr_serve::protocol::{
    AttachFrame, DetachFrame, ErrorFrame, Frame, Op, OverloadFrame, Request, RestoreFrame,
    RestoredSession, SessionStatsFrame, SnapshotFrame, StatsFrame, VerdictFrame, WithdrawFrame,
    PROTOCOL_VERSION,
};
use msmr_serve::{
    read_request, AdmissionSession, ConnHandler, FrameSink, Listen, Server, SessionConfig,
};
use msmr_stats::{SessionRow, StatsRegistry, StatsSnapshot};

use crate::snapshot::{SessionSnapshot, SnapshotStore};
use crate::store::{Claim, SessionStore, SharedSession};

/// Configuration of a [`ClusterEngine`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shards of the session store (default 8).
    pub shards: usize,
    /// Worker threads of the solve pool (0 = all cores).
    pub workers: usize,
    /// Bounded submission-queue capacity of the solve pool; a full
    /// queue triggers the typed overload response (default 64).
    pub queue: usize,
    /// Snapshot directory; `None` disables the snapshot subsystem.
    pub snapshot_dir: Option<PathBuf>,
    /// Evict (snapshot, then drop) named sessions that have no attached
    /// connection and have been idle this long; `None` keeps sessions
    /// forever (the store then only grows). The daemon's reaper thread
    /// checks at a quarter of the TTL.
    pub session_ttl: Option<Duration>,
    /// Where a connection starts: `true` binds it to a fresh private
    /// session of its own (`msmr-served`'s default), `false` leaves it
    /// unbound until it attaches to a named one (`--cluster`).
    pub start_private: bool,
    /// Configuration of every session, named or private.
    pub session: SessionConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 8,
            workers: 0,
            queue: 64,
            snapshot_dir: None,
            session_ttl: None,
            start_private: false,
            session: SessionConfig::default(),
        }
    }
}

/// Outcome of [`ClusterEngine::restore_if_newer`]: either the snapshot
/// was installed, or a live session at least as new was kept untouched.
/// Both arms carry the state now present — name, mutation version, job
/// count — so the wire's restore frame reports it either way.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreIfNewer {
    /// The snapshot was strictly newer (or the session was absent) and
    /// was installed, warm tables included.
    Restored(RestoredSession),
    /// The live session's version was `>=` the snapshot's; nothing was
    /// installed and live state is reported.
    KeptLive(RestoredSession),
}

impl RestoreIfNewer {
    /// The session state now present, whichever arm was taken.
    #[must_use]
    pub fn into_frame(self) -> RestoredSession {
        match self {
            RestoreIfNewer::Restored(frame) | RestoreIfNewer::KeptLive(frame) => frame,
        }
    }
}

/// What the request loop does once a request is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Read the next request.
    Continue,
    /// The request was `shutdown`: raise the daemon's flag and stop.
    Shutdown,
}

/// One client connection's state: the session its requests address.
/// Dropping it releases what the connection held — the bound session's
/// attach count (a leaked one pins a named session against TTL eviction
/// forever) and the daemon's attached-clients gauge — on every exit
/// path of the loop that drives it.
struct Connection {
    bound: Option<Arc<SharedSession>>,
    stats: Arc<StatsRegistry>,
}

impl Connection {
    /// The bound session, or the error a session op answers without one.
    fn session(&self) -> Result<&Arc<SharedSession>, &'static str> {
        self.bound.as_ref().ok_or("not attached: send attach first")
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        if let Some(session) = &self.bound {
            session.client_detached();
        }
        self.stats.client_detached();
    }
}

/// The shared multi-tenant engine: the sharded session store, the
/// worker pool and the snapshot store. One engine serves every
/// connection of a daemon.
pub struct ClusterEngine {
    store: SessionStore,
    pool: WorkerPool,
    snapshots: Option<SnapshotStore>,
    session_ttl: Option<Duration>,
    start_private: bool,
    /// The daemon-wide stats registry. Every named session's config
    /// carries a handle to it, so session ops and solver verdicts from
    /// any shard land in one aggregate.
    stats: Arc<StatsRegistry>,
}

impl ClusterEngine {
    /// Builds the engine and — when a snapshot directory is configured —
    /// restores every session found in it (warm tables included: each
    /// restore analyses the persisted job set afresh with
    /// `msmr_dca::Analysis::owned`).
    ///
    /// # Errors
    ///
    /// Propagates snapshot-directory I/O errors and corrupt-snapshot
    /// parse failures.
    pub fn new(config: ClusterConfig) -> io::Result<Arc<ClusterEngine>> {
        ClusterEngine::with_store_clock(config, None)
    }

    /// Like [`ClusterEngine::new`] with an injected session-store
    /// [`Clock`](crate::Clock) — how the TTL-eviction tests drive
    /// idleness deterministically.
    pub fn with_store_clock(
        mut config: ClusterConfig,
        clock: Option<Arc<dyn crate::Clock>>,
    ) -> io::Result<Arc<ClusterEngine>> {
        let workers = if config.workers == 0 {
            msmr_par::default_threads()
        } else {
            config.workers
        };
        let snapshots = match &config.snapshot_dir {
            Some(dir) => Some(SnapshotStore::open(dir)?),
            None => None,
        };
        // Every named session shares the daemon-wide registry: use the
        // caller's (the daemon injects one so its `--stats-addr` side
        // channel and `--trace-out` writer see the same aggregate), or
        // create a fresh one.
        let stats = match &config.session.stats {
            Some(stats) => Arc::clone(stats),
            None => {
                let stats = Arc::new(StatsRegistry::new());
                config.session.stats = Some(Arc::clone(&stats));
                stats
            }
        };
        let store = match clock {
            Some(clock) => SessionStore::with_clock(config.shards, config.session.clone(), clock),
            None => SessionStore::new(config.shards, config.session.clone()),
        };
        let engine = Arc::new(ClusterEngine {
            store,
            pool: WorkerPool::new(workers, config.queue),
            snapshots,
            session_ttl: config.session_ttl,
            start_private: config.start_private,
            stats,
        });
        engine.restore_all()?;
        Ok(engine)
    }

    /// The configured idle-session TTL, if any.
    #[must_use]
    pub fn session_ttl(&self) -> Option<Duration> {
        self.session_ttl
    }

    /// One eviction sweep: every detached session idle past the
    /// configured TTL is **snapshotted first** (when a snapshot
    /// directory is configured and the session has state) and only then
    /// dropped from the store — and the drop re-checks idleness under
    /// the shard lock, so a client that re-attached mid-sweep keeps its
    /// live session (the just-written snapshot is then merely a routine
    /// persist, overwritten by the next one). No-op without a TTL.
    ///
    /// Returns the evicted session names — a session whose snapshot
    /// fails is still evicted (dropping state beats leaking it forever)
    /// — together with the first snapshot I/O error, so the operator
    /// sees both which sessions went away and that their state may not
    /// all be on disk.
    pub fn evict_idle(&self) -> (Vec<String>, Option<io::Error>) {
        let Some(ttl) = self.session_ttl else {
            return (Vec::new(), None);
        };
        let ttl_millis = u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX);
        let mut names = Vec::new();
        let mut first_error = None;
        for session in self.store.idle_candidates(ttl_millis) {
            if let Some(snapshots) = &self.snapshots {
                if let Some((image, version)) = session.image() {
                    match snapshots.save(session.name(), version, &image) {
                        Ok(_) => self.stats.record_snapshot_write_for(Some(session.name())),
                        Err(e) => {
                            first_error.get_or_insert(e);
                        }
                    }
                }
            }
            if self
                .store
                .remove_if_idle(session.name(), ttl_millis)
                .is_some()
            {
                self.stats.record_eviction_for(Some(session.name()));
                names.push(session.name().to_string());
            }
        }
        (names, first_error)
    }

    /// The session store.
    #[must_use]
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// The worker pool (introspection: queue depth, capacity).
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The daemon-wide stats registry (shared with every session).
    #[must_use]
    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// One live stats snapshot with the engine-level gauges and
    /// per-session rows filled in: the registry knows counters, latency
    /// histograms and per-solver rows, while session/shard/queue occupancy
    /// lives here. Feeds both the protocol's `stats` op and the
    /// `--stats-addr` side channel.
    #[must_use]
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.gauges.live_sessions = self.store.len() as u64;
        snapshot.gauges.sessions_per_shard = self.store.shard_lens();
        snapshot.gauges.queue_depth = self.pool.queued() as u64;
        snapshot.gauges.queue_capacity = self.pool.capacity() as u64;
        snapshot.gauges.workers = self.pool.workers() as u64;
        snapshot.sessions = self
            .store
            .names()
            .into_iter()
            .filter_map(|name| {
                let session = self.store.get(&name)?;
                Some(SessionRow {
                    jobs: session.jobs(),
                    version: session.version(),
                    attached: session.attached(),
                    name,
                })
            })
            .collect();
        snapshot
    }

    /// One named session's stats breakdown, answering the `stats` op's
    /// `session` argument. Every read goes through the non-touching
    /// accessors ([`SharedSession::peek`], `version()`, `attached()`,
    /// `idle_millis()`) so observation never refreshes the session's
    /// TTL idleness — `msmr-top` polling a dying session must not keep
    /// it alive. `None` for unknown names.
    #[must_use]
    pub fn session_stats(&self, name: &str) -> Option<SessionStatsFrame> {
        let session = self.store.get(name)?;
        let now = self.store.clock().now_millis();
        let idle_millis = session.idle_millis(now);
        let version = session.version();
        let attached = session.attached();
        Some(session.peek(|inner| {
            let (admits, rejects, withdraws, warm_decides, cold_decides) =
                inner.counter_breakdown();
            let (table_jobs, table_capacity) = inner
                .tables()
                .map_or((0, 0), |t| (t.job_count() as u64, t.capacity() as u64));
            SessionStatsFrame {
                session: name.to_string(),
                jobs: inner.jobs().map_or(0, |jobs| jobs.len() as u64),
                version,
                attached,
                admits,
                rejects,
                withdraws,
                warm_decides,
                cold_decides,
                decisions: inner.decisions(),
                table_jobs,
                table_capacity,
                idle_millis,
            }
        }))
    }

    /// The snapshot store, or the error of a daemon running without one.
    fn snapshots(&self) -> io::Result<&SnapshotStore> {
        self.snapshots.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshots disabled: daemon started without --snapshot-dir",
            )
        })
    }

    /// Persists one named session.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no snapshot directory is configured or the
    /// session has no state yet, `NotFound` for unknown sessions, and
    /// file I/O errors.
    pub fn snapshot(&self, name: &str) -> io::Result<SnapshotFrame> {
        let snapshots = self.snapshots()?;
        let session = self.store.get(name).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("unknown session `{name}`"))
        })?;
        let (image, version) = session.image().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("session `{name}` has no state yet (submit first)"),
            )
        })?;
        let jobs = image.jobs.len() as u64;
        let path = snapshots.save(name, version, &image)?;
        self.stats.record_snapshot_write_for(Some(name));
        Ok(SnapshotFrame {
            session: name.to_string(),
            version,
            jobs,
            path: path.display().to_string(),
        })
    }

    /// Persists every session that has state. Sessions still waiting
    /// for their first submit are skipped.
    ///
    /// # Errors
    ///
    /// Stops at (and propagates) the first file I/O error.
    pub fn snapshot_all(&self) -> io::Result<Vec<SnapshotFrame>> {
        let mut frames = Vec::new();
        if self.snapshots.is_none() {
            return Ok(frames);
        }
        for name in self.store.names() {
            match self.snapshot(&name) {
                Ok(frame) => frames.push(frame),
                Err(e) if e.kind() == io::ErrorKind::InvalidInput => {} // no state yet
                Err(e) => return Err(e),
            }
        }
        Ok(frames)
    }

    /// Installs a loaded snapshot into the store; the session analyses
    /// the job set afresh (`Analysis::owned`), so the tables arrive warm.
    fn install_snapshot(&self, snapshot: SessionSnapshot) -> io::Result<RestoredSession> {
        let jobs = snapshot.image.jobs.len() as u64;
        let session = AdmissionSession::from_image(self.store.template().clone(), snapshot.image)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.store
            .install(&snapshot.session, session, snapshot.version)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(RestoredSession {
            session: snapshot.session,
            version: snapshot.version,
            jobs,
        })
    }

    /// Restores one session from its snapshot, warm tables included.
    ///
    /// # Errors
    ///
    /// `InvalidInput` without a snapshot directory, `NotFound` without
    /// a snapshot file, `InvalidData` for corrupt snapshots.
    pub fn restore(&self, name: &str) -> io::Result<RestoredSession> {
        self.install_snapshot(self.snapshots()?.load(name)?)
    }

    /// Restores one session from its snapshot **unless the live session
    /// is already at least as new** — the failover/migration entry
    /// point. A blind [`ClusterEngine::restore`] replaces live state, so
    /// a router proactively restoring a failed-over session onto a
    /// survivor (or a retried migration) could roll a session back to a
    /// stale on-disk image; this guard compares the snapshot's version
    /// against the live session's mutation version and only installs
    /// when the session is absent or the snapshot is strictly newer.
    ///
    /// # Errors
    ///
    /// As [`ClusterEngine::restore`].
    pub fn restore_if_newer(&self, name: &str) -> io::Result<RestoreIfNewer> {
        let snapshot = self.snapshots()?.load(name)?;
        if let Some(live) = self.store.get(name) {
            let live_version = live.version();
            if live_version >= snapshot.version {
                return Ok(RestoreIfNewer::KeptLive(RestoredSession {
                    session: name.to_string(),
                    version: live_version,
                    jobs: live.jobs(),
                }));
            }
        }
        self.install_snapshot(snapshot)
            .map(RestoreIfNewer::Restored)
    }

    /// Restores every snapshot in the directory (daemon startup, or the
    /// `restore` op without a session name).
    ///
    /// Boot fails **soft** on corrupt entries: a snapshot that does not
    /// parse (torn by a crash mid-write outside the atomic rename path,
    /// truncated by a full disk, hand-edited) is quarantined — renamed
    /// to `.corrupt`, logged, counted in the `snapshot_quarantined`
    /// stats counter — and the remaining sessions are still restored,
    /// so one bad file cannot hold every healthy tenant hostage.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures and non-`InvalidData` I/O
    /// errors (a vanished directory is an operator problem; a corrupt
    /// file is not).
    pub fn restore_all(&self) -> io::Result<Vec<RestoredSession>> {
        let Some(snapshots) = self.snapshots.as_ref() else {
            return Ok(Vec::new());
        };
        let mut restored = Vec::new();
        for name in snapshots.list()? {
            match self.restore(&name) {
                Ok(session) => restored.push(session),
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    let quarantined = snapshots.quarantine(&name);
                    self.stats.record_snapshot_quarantine_for(Some(&name));
                    match quarantined {
                        Ok(path) => eprintln!(
                            "msmr-served: quarantined corrupt snapshot `{name}` -> {}: {e}",
                            path.display()
                        ),
                        Err(rename) => eprintln!(
                            "msmr-served: corrupt snapshot `{name}` ({e}); quarantine failed: {rename}"
                        ),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(restored)
    }

    /// Attaches to a named session, **resurrecting evicted state
    /// first**: when the name is unknown to the store but a snapshot
    /// exists (a TTL-evicted or pre-restart session), the snapshot is
    /// restored — warm tables included — before the attach, so eviction
    /// is transparent to returning clients and a fresh namesake can
    /// never shadow (and later overwrite) persisted state. Only a truly
    /// unknown name falls through to creation.
    ///
    /// # Errors
    ///
    /// Store errors (invalid name, unknown session with `create: false`)
    /// and corrupt-snapshot restore failures, as display strings for the
    /// wire's error frame.
    pub fn attach_session(
        &self,
        name: &str,
        create: bool,
    ) -> Result<crate::store::AttachOutcome, String> {
        match self.store.attach(name, false) {
            Ok(outcome) => Ok(outcome),
            Err(crate::store::StoreError::UnknownSession(_)) => {
                let has_snapshot = self
                    .snapshots
                    .as_ref()
                    .is_some_and(|snapshots| snapshots.path_for(name).exists());
                if has_snapshot {
                    self.restore(name).map_err(|e| e.to_string())?;
                    return self.store.attach(name, false).map_err(|e| e.to_string());
                }
                self.store.attach(name, create).map_err(|e| e.to_string())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Boots a daemon: binds `listen` and serves every accepted
    /// connection through this engine.
    ///
    /// # Errors
    ///
    /// Propagates engine construction and bind errors.
    pub fn start(
        listen: Listen,
        config: ClusterConfig,
    ) -> io::Result<(Server, Arc<ClusterEngine>)> {
        let engine = ClusterEngine::new(config)?;
        let handler: ConnHandler = {
            let engine = Arc::clone(&engine);
            Arc::new(move |stream, shutdown| {
                if let Ok((reader, writer)) = stream.into_split() {
                    let _ =
                        engine.serve_connection(std::io::BufReader::new(reader), writer, &shutdown);
                }
            })
        };
        let server = Server::start_with(listen, handler)?;
        if let Some(ttl) = engine.session_ttl() {
            // The reaper sweeps at a quarter of the TTL (≥ 100 ms) and
            // exits with the acceptors.
            let engine = Arc::clone(&engine);
            let shutdown = server.shutdown_handle();
            let period = (ttl / 4).max(Duration::from_millis(100));
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(period);
                    let (evicted, error) = engine.evict_idle();
                    if !evicted.is_empty() {
                        eprintln!(
                            "msmr-served: evicted {} idle session(s): {}",
                            evicted.len(),
                            evicted.join(", ")
                        );
                    }
                    if let Some(e) = error {
                        eprintln!("msmr-served: idle-session snapshot failed: {e}");
                    }
                }
            });
        }
        Ok((server, engine))
    }

    /// The per-connection request loop — the only daemon code that
    /// reads and parses bytes — generic over the transport so tests can
    /// drive it with in-memory buffers. Returns when the client closes
    /// the connection or a `shutdown` op is processed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the transport.
    pub fn serve_connection(
        &self,
        mut reader: impl BufRead,
        mut writer: impl Write + Send,
        shutdown: &AtomicBool,
    ) -> io::Result<()> {
        let mut conn = self.connect();
        let (mut line, mut out) = (Vec::new(), Vec::new());
        while let Some(request) = read_request(&mut reader, &mut line, &mut writer)? {
            let mut sink = FrameSink::new(&mut writer, &mut out, request.id);
            if self.execute(&mut conn, request, &mut sink) == Flow::Shutdown {
                shutdown.store(true, Ordering::SeqCst);
                return sink.finish();
            }
            sink.finish()?;
        }
        Ok(())
    }

    /// The state of a freshly accepted connection: bound to a private
    /// session of its own, or unbound, as configured.
    fn connect(&self) -> Connection {
        self.stats.client_attached();
        Connection {
            bound: self.start_private.then(|| self.store.private_session()),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Interprets one request against the connection's state, streaming
    /// its frames into `sink` (the caller terminates the stream). No
    /// transport and no clock in here: everything a request does is a
    /// function of the engine, the connection state and the request.
    /// `shutdown` snapshots every named session when a snapshot
    /// directory is configured and tells the loop to stop.
    fn execute<W: Write + Send>(
        &self,
        conn: &mut Connection,
        request: Request,
        sink: &mut FrameSink<'_, W>,
    ) -> Flow {
        match request.op {
            Op::Attach(op) => {
                let create = op.create.unwrap_or(true);
                match self.attach_session(&op.session, create) {
                    Ok(outcome) => {
                        let session = outcome.session;
                        if let Some(previous) = conn.bound.replace(Arc::clone(&session)) {
                            previous.client_detached();
                        }
                        sink.send(Frame::Attach(AttachFrame {
                            session: session.name().to_string(),
                            created: outcome.created,
                            version: session.version(),
                            attached: session.attached(),
                            jobs: session.jobs(),
                            protocol: PROTOCOL_VERSION,
                            decisions: Some(session.decisions()),
                        }));
                    }
                    Err(e) => sink.send(error_frame(&e)),
                }
            }
            Op::Detach(_) => match conn.bound.take() {
                Some(session) => sink.send(Frame::Detach(DetachFrame {
                    session: session.name().to_string(),
                    attached: session.client_detached(),
                })),
                None => sink.send(error_frame("not attached to a session")),
            },
            Op::Submit(op) if op.parallel == Some(true) => sink.send(error_frame(
                "parallel submit is not supported: omit `parallel` or send false",
            )),
            Op::Submit(op) => self.solve(conn, sink, false, move |session, emit| {
                // serde bypasses the JobSet builder invariants, so wire
                // payloads are re-validated (and their ids re-numbered)
                // before any analysis touches them.
                match op.jobs.sanitized() {
                    Ok(jobs) => {
                        session.submit(jobs, false, |verdict| emit(verdict_frame(verdict)));
                    }
                    Err(e) => emit(error_frame(&format!("invalid job set: {e}"))),
                }
            }),
            Op::Admit(op) => {
                let decider = self.store.template().decider.clone();
                let evaluate = op.evaluate.unwrap_or(true);
                self.solve(conn, sink, !evaluate, move |session, emit| {
                    let outcome = session.admit(&op.job, evaluate, op.seq, |verdict| {
                        emit(verdict_frame(verdict));
                    });
                    emit(match outcome {
                        Ok((outcome, seq, deduped)) => {
                            Frame::Admit(outcome.to_frame(&decider, Some(seq), deduped))
                        }
                        Err(e) => error_frame(&e.to_string()),
                    });
                });
            }
            Op::Withdraw(op) => {
                let evaluate = op.evaluate.unwrap_or(false);
                self.solve(conn, sink, !evaluate, move |session, emit| {
                    let outcome = session.withdraw(op.job, evaluate, op.seq, |verdict| {
                        emit(verdict_frame(verdict));
                    });
                    emit(match outcome {
                        Ok((outcome, seq, deduped)) => Frame::Withdraw(WithdrawFrame {
                            job: op.job,
                            jobs: outcome.jobs as u64,
                            seq: Some(seq),
                            deduped: deduped.then_some(true),
                        }),
                        Err(e) => error_frame(&e.to_string()),
                    });
                });
            }
            Op::Status(_) => sink.send(match conn.session() {
                Ok(session) => Frame::Status(session.status().to_frame()),
                Err(message) => error_frame(message),
            }),
            Op::Snapshot(op) => {
                let bound = conn.bound.as_ref().filter(|s| !s.is_private());
                match op.session.or_else(|| bound.map(|s| s.name().to_string())) {
                    Some(name) => match self.snapshot(&name) {
                        Ok(frame) => sink.send(Frame::Snapshot(frame)),
                        Err(e) => sink.send(error_frame(&e.to_string())),
                    },
                    None => sink.send(error_frame(
                        "snapshot needs a session name or an attached session",
                    )),
                }
            }
            Op::Restore(op) => {
                // The named wire restore is the failover/migration
                // path (a router restoring a session onto this
                // daemon), so it takes the version guard: a live
                // session at least as new as the snapshot wins.
                let restored = match op.session {
                    Some(name) => self
                        .restore_if_newer(&name)
                        .map(|outcome| vec![outcome.into_frame()]),
                    None => self.restore_all(),
                };
                match restored {
                    Ok(sessions) => sink.send(Frame::Restore(RestoreFrame { sessions })),
                    Err(e) => sink.send(error_frame(&e.to_string())),
                }
            }
            Op::Stats(op) => match op.session {
                None => sink.send(Frame::Stats(StatsFrame {
                    stats: self.stats_snapshot(),
                })),
                Some(name) => match self.session_stats(&name) {
                    Some(frame) => sink.send(Frame::SessionStats(frame)),
                    None => sink.send(error_frame(&format!("unknown session `{name}`"))),
                },
            },
            Op::Shutdown(_) => {
                if let Err(e) = self.snapshot_all() {
                    sink.send(error_frame(&format!("shutdown snapshot failed: {e}")));
                }
                return Flow::Shutdown;
            }
        }
        Flow::Continue
    }

    /// Runs one solve op (`submit`, `admit`, `withdraw`) against the
    /// connection's bound session, on one of two executors. The op runs
    /// right here on the connection thread when nothing would wait for
    /// it: the session is private, or the op is `decider_only`, the
    /// pool's queue is empty and the session's lock is free. A
    /// decider-only op run here holds its frames until the caller's
    /// `finish` writes them in one call, after the claim has dropped, so
    /// no socket I/O ever happens under a shared session's lock. Any
    /// other op queues on the worker pool (`pooled`), which keeps
    /// overload, FIFO order among queued tasks and the lock's `seq`
    /// order for all work that waits.
    fn solve<W: Write + Send>(
        &self,
        conn: &Connection,
        sink: &mut FrameSink<'_, W>,
        decider_only: bool,
        task: impl FnOnce(&mut Claim<'_>, &mut (dyn FnMut(Frame) + Send)) + Send + 'static,
    ) {
        let session = match conn.session() {
            Ok(session) => session,
            Err(message) => return sink.send(error_frame(message)),
        };
        let here = session.is_private() || (decider_only && self.pool.queued() == 0);
        match here.then(|| session.try_claim()).flatten() {
            Some(mut claim) => {
                if decider_only {
                    sink.hold();
                }
                // The claim moves into the task, so a panic poisons the
                // session's lock on this arm as on the pool's.
                contained(move |emit| task(&mut claim, emit), &mut |frame| {
                    sink.send(frame)
                });
            }
            None => {
                let shared = Arc::clone(session);
                self.pooled(session.name(), sink, move |emit| {
                    task(&mut shared.claim(), emit);
                });
            }
        }
    }

    /// Runs `task` on the worker pool, relaying its streamed frames into
    /// `sink` in order; answers with the typed overload frame when the
    /// pool's bounded queue refuses the task.
    fn pooled<W: Write>(
        &self,
        session: &str,
        sink: &mut FrameSink<'_, W>,
        task: impl FnOnce(&mut (dyn FnMut(Frame) + Send)) + Send + 'static,
    ) {
        let (tx, rx) = mpsc::channel::<Frame>();
        let relay = move || {
            contained(task, &mut |frame| {
                let _ = tx.send(frame);
            });
        };
        match self.pool.try_submit(relay) {
            Ok(()) => {
                for frame in rx {
                    sink.send(frame);
                }
            }
            Err(SubmitError::Saturated { queued, capacity }) => {
                self.stats.record_overload_for(Some(session));
                sink.send(Frame::Overload(OverloadFrame {
                    queued: queued as u64,
                    capacity: capacity as u64,
                }));
            }
            Err(SubmitError::Terminated) => {
                sink.send(error_frame("daemon is shutting down"));
            }
        }
    }
}

/// Runs a solve task on either executor, answering a panic mid-solve
/// with an error frame: the request still terminates cleanly, and the
/// pool's worker or the connection survives.
fn contained(
    task: impl FnOnce(&mut (dyn FnMut(Frame) + Send)),
    emit: &mut (dyn FnMut(Frame) + Send),
) {
    let run = std::panic::AssertUnwindSafe(|| task(&mut *emit));
    if std::panic::catch_unwind(run).is_err() {
        emit(error_frame("internal error: the solve task panicked"));
    }
}

fn verdict_frame(verdict: &Verdict) -> Frame {
    Frame::Verdict(VerdictFrame {
        verdict: verdict.clone(),
    })
}

fn error_frame(message: &str) -> Frame {
    Frame::Error(ErrorFrame {
        message: message.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy};
    use msmr_serve::protocol::{
        read_response, write_request, AdmitOp, AttachOp, DetachOp, DoneFrame, JobSpec, Response,
        StageDemand, StatusOp, SubmitOp,
    };

    fn pipeline_only() -> msmr_model::JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("a", 1, PreemptionPolicy::Preemptive)
            .stage("b", 1, PreemptionPolicy::Preemptive);
        b.build().unwrap()
    }

    fn lines(requests: &[Request]) -> Vec<u8> {
        let mut input = Vec::new();
        for request in requests {
            write_request(&mut input, request).unwrap();
        }
        input
    }

    fn responses(output: &[u8]) -> Vec<Response> {
        let mut reader = output;
        std::iter::from_fn(|| read_response(&mut reader).unwrap()).collect()
    }

    fn drive(engine: &Arc<ClusterEngine>, requests: &[Request]) -> Vec<Response> {
        let mut output = Vec::new();
        let shutdown = AtomicBool::new(false);
        engine
            .serve_connection(lines(requests).as_slice(), &mut output, &shutdown)
            .unwrap();
        responses(&output)
    }

    /// The two states a connection can start in.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Start {
        /// Bound to a private session (the daemon's default).
        Private,
        /// Unbound (`--cluster`); the run attaches to `"named"` first.
        Named,
    }

    /// One run of the loop from a [`Start`]: what it answered and left.
    struct Run {
        start: Start,
        engine: Arc<ClusterEngine>,
        /// Responses to the driven lines (not to the run's own attach).
        responses: Vec<Response>,
        shutdown: bool,
    }

    impl Run {
        fn frames(&self, id: u64) -> Vec<&Frame> {
            let of_id = self.responses.iter().filter(|r| r.id == id);
            of_id.map(|r| &r.frame).collect()
        }
    }

    /// Drives the same request `lines` through a fresh engine's loop
    /// once per start state — as they are from a private start, behind
    /// an `attach` from an unbound one — and hands each run to `check`.
    /// Whatever the lines did, the loop must return `Ok` and leave
    /// nothing attached behind.
    fn from_both_starts(lines: &[u8], check: impl Fn(&Run)) {
        const ATTACH_ID: u64 = 1_000_000;
        for start in [Start::Private, Start::Named] {
            let engine = ClusterEngine::new(ClusterConfig {
                start_private: start == Start::Private,
                workers: 1,
                ..ClusterConfig::default()
            })
            .unwrap();
            let mut input = Vec::new();
            if start == Start::Named {
                let op = Op::Attach(AttachOp {
                    session: "named".to_string(),
                    create: None,
                });
                write_request(&mut input, &Request { id: ATTACH_ID, op }).unwrap();
            }
            input.extend_from_slice(lines);
            let mut output = Vec::new();
            let shutdown = AtomicBool::new(false);
            engine
                .serve_connection(input.as_slice(), &mut output, &shutdown)
                .unwrap_or_else(|e| panic!("{start:?}: the loop failed: {e}"));
            let mut responses = responses(&output);
            responses.retain(|r| r.id != ATTACH_ID);
            let gauges = engine.stats().snapshot().gauges;
            assert_eq!(gauges.attached_clients, 0, "{start:?}: gauge leaked");
            if let Some(session) = engine.store().get("named") {
                assert_eq!(session.attached(), 0, "{start:?}: attach count leaked");
            }
            assert_eq!(engine.store().len(), usize::from(start == Start::Named));
            check(&Run {
                start,
                engine,
                responses,
                shutdown: shutdown.load(Ordering::SeqCst),
            });
        }
    }

    fn submit(id: u64) -> Request {
        Request {
            id,
            op: Op::Submit(SubmitOp {
                jobs: pipeline_only(),
                parallel: None,
            }),
        }
    }

    fn admit(id: u64, job: JobSpec, evaluate: bool, seq: Option<u64>) -> Request {
        Request {
            id,
            op: Op::Admit(AdmitOp {
                job,
                evaluate: Some(evaluate),
                seq,
            }),
        }
    }

    fn status(id: u64) -> Request {
        Request {
            id,
            op: Op::Status(StatusOp {}),
        }
    }

    fn spec(time: u64, deadline: u64) -> JobSpec {
        JobSpec {
            arrival: 0,
            deadline,
            stages: vec![
                StageDemand { time, resource: 0 },
                StageDemand { time, resource: 0 },
            ],
        }
    }

    #[test]
    fn unattached_solve_ops_are_errors() {
        let engine = ClusterEngine::new(ClusterConfig::default()).unwrap();
        let responses = drive(
            &engine,
            &[Request {
                id: 1,
                op: Op::Status(StatusOp {}),
            }],
        );
        assert!(matches!(responses[0].frame, Frame::Error(_)));
    }

    #[test]
    fn attach_submit_admit_status_flow() {
        let engine = ClusterEngine::new(ClusterConfig::default()).unwrap();
        let responses = drive(
            &engine,
            &[
                Request {
                    id: 1,
                    op: Op::Attach(AttachOp {
                        session: "t".to_string(),
                        create: None,
                    }),
                },
                Request {
                    id: 2,
                    op: Op::Submit(SubmitOp {
                        jobs: pipeline_only(),
                        parallel: None,
                    }),
                },
                Request {
                    id: 3,
                    op: Op::Admit(AdmitOp {
                        job: spec(3, 100),
                        evaluate: Some(false),
                        seq: None,
                    }),
                },
                Request {
                    id: 4,
                    op: Op::Status(StatusOp {}),
                },
                Request {
                    id: 5,
                    op: Op::Detach(DetachOp {}),
                },
            ],
        );
        let Frame::Attach(attach) = &responses[0].frame else {
            panic!("expected attach frame, got {:?}", responses[0].frame);
        };
        assert!(attach.created);
        assert_eq!(attach.protocol, PROTOCOL_VERSION);
        assert_eq!(attach.attached, 1);

        let admit: Vec<&Response> = responses.iter().filter(|r| r.id == 3).collect();
        let Frame::Admit(frame) = &admit[1].frame else {
            panic!("expected admit frame, got {:?}", admit[1].frame);
        };
        assert!(frame.admitted);
        assert_eq!(frame.seq, Some(1));

        let status: Vec<&Response> = responses.iter().filter(|r| r.id == 4).collect();
        let Frame::Status(frame) = &status[0].frame else {
            panic!("expected status frame");
        };
        assert_eq!(frame.jobs, 1);

        let Frame::Detach(frame) = &responses.iter().find(|r| r.id == 5).unwrap().frame else {
            panic!("expected detach frame");
        };
        assert_eq!(frame.attached, 0);

        // The session outlives the connection.
        assert_eq!(engine.store().get("t").unwrap().jobs(), 1);
    }

    #[test]
    fn two_connections_share_one_named_session() {
        let engine = ClusterEngine::new(ClusterConfig::default()).unwrap();
        drive(
            &engine,
            &[
                Request {
                    id: 1,
                    op: Op::Attach(AttachOp {
                        session: "shared".to_string(),
                        create: Some(true),
                    }),
                },
                Request {
                    id: 2,
                    op: Op::Submit(SubmitOp {
                        jobs: pipeline_only(),
                        parallel: None,
                    }),
                },
                Request {
                    id: 3,
                    op: Op::Admit(AdmitOp {
                        job: spec(2, 200),
                        evaluate: Some(false),
                        seq: None,
                    }),
                },
            ],
        );
        // A second, later connection sees and extends the same state.
        let responses = drive(
            &engine,
            &[
                Request {
                    id: 1,
                    op: Op::Attach(AttachOp {
                        session: "shared".to_string(),
                        create: Some(false),
                    }),
                },
                Request {
                    id: 2,
                    op: Op::Admit(AdmitOp {
                        job: spec(2, 200),
                        evaluate: Some(false),
                        seq: None,
                    }),
                },
            ],
        );
        let Frame::Attach(attach) = &responses[0].frame else {
            panic!("expected attach frame");
        };
        assert!(!attach.created);
        assert_eq!(attach.jobs, 1);
        let admit = responses
            .iter()
            .find_map(|r| match &r.frame {
                Frame::Admit(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert_eq!(admit.jobs, 2);
        assert_eq!(
            admit.seq,
            Some(2),
            "decision seq continues across connections"
        );
    }

    #[test]
    fn saturated_pool_answers_with_the_typed_overload_frame() {
        // A pool whose single worker is parked and whose queue is full
        // must refuse the admit with Frame::Overload, not an error.
        let engine = ClusterEngine::new(ClusterConfig {
            workers: 1,
            queue: 1,
            ..ClusterConfig::default()
        })
        .unwrap();
        // Park the worker and fill the queue.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        engine
            .pool()
            .try_submit(move || {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            })
            .unwrap();
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        engine.pool().try_submit(|| {}).unwrap();

        let responses = drive(
            &engine,
            &[
                Request {
                    id: 1,
                    op: Op::Attach(AttachOp {
                        session: "s".to_string(),
                        create: None,
                    }),
                },
                Request {
                    id: 2,
                    op: Op::Admit(AdmitOp {
                        job: spec(1, 50),
                        evaluate: Some(false),
                        seq: None,
                    }),
                },
            ],
        );
        let overload = responses
            .iter()
            .find_map(|r| match &r.frame {
                Frame::Overload(f) => Some(f),
                _ => None,
            })
            .expect("typed overload frame");
        assert_eq!(overload.capacity, 1);
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn cluster_stats_op_reports_engine_gauges_and_session_rows() {
        let engine = ClusterEngine::new(ClusterConfig {
            shards: 4,
            workers: 1,
            ..ClusterConfig::default()
        })
        .unwrap();
        let responses = drive(
            &engine,
            &[
                Request {
                    id: 1,
                    op: Op::Attach(AttachOp {
                        session: "observed".to_string(),
                        create: None,
                    }),
                },
                Request {
                    id: 2,
                    op: Op::Submit(SubmitOp {
                        jobs: pipeline_only(),
                        parallel: None,
                    }),
                },
                Request {
                    id: 3,
                    op: Op::Admit(AdmitOp {
                        job: spec(3, 100),
                        evaluate: Some(false),
                        seq: None,
                    }),
                },
                Request {
                    id: 4,
                    op: Op::Stats(msmr_serve::protocol::StatsOp { session: None }),
                },
            ],
        );
        let stats = responses
            .iter()
            .find_map(|r| match &r.frame {
                Frame::Stats(f) => Some(&f.stats),
                _ => None,
            })
            .expect("stats frame");
        assert_eq!(stats.counters.admits, 1);
        assert_eq!(stats.counters.submits, 1);
        assert_eq!(stats.counters.overloads, 0);
        assert_eq!(stats.ops["admit"].samples, 1);
        assert_eq!(stats.gauges.live_sessions, 1);
        assert_eq!(stats.gauges.sessions_per_shard.len(), 4);
        assert_eq!(stats.gauges.sessions_per_shard.iter().sum::<u64>(), 1);
        assert_eq!(stats.gauges.queue_capacity, 64);
        assert_eq!(stats.gauges.workers, 1);
        assert_eq!(stats.gauges.attached_clients, 1, "the polling connection");
        assert_eq!(stats.sessions.len(), 1);
        assert_eq!(stats.sessions[0].name, "observed");
        assert_eq!(stats.sessions[0].jobs, 1);
        assert_eq!(stats.sessions[0].version, 2); // submit + admit

        // The snapshot was taken mid-connection; afterwards the guard
        // detached it.
        assert_eq!(engine.stats().snapshot().gauges.attached_clients, 0);
    }

    #[test]
    fn named_stats_op_reports_a_session_breakdown_without_touching_ttl() {
        let clock = Arc::new(FakeClock(std::sync::atomic::AtomicU64::new(0)));
        let engine = ClusterEngine::with_store_clock(
            ClusterConfig {
                workers: 1,
                ..ClusterConfig::default()
            },
            Some(Arc::clone(&clock) as Arc<dyn crate::Clock>),
        )
        .unwrap();
        // History: submit, two accepted admits, one reject, one
        // withdraw — four decisions.
        let session = engine.store().attach("observed", true).unwrap().session;
        session.submit(pipeline_only(), false, |_| {});
        let (first, _, _) = session.admit(&spec(2, 100), false, None, |_| {}).unwrap();
        assert!(first.admitted);
        let (second, _, _) = session.admit(&spec(3, 100), false, None, |_| {}).unwrap();
        assert!(second.admitted);
        let (rejected, _, _) = session.admit(&spec(50, 1), false, None, |_| {}).unwrap();
        assert!(!rejected.admitted);
        session
            .withdraw(first.handle.unwrap(), false, None, |_| {})
            .unwrap();
        session.client_detached();

        // Observe twice after 7s of idleness, plus one unknown name. If
        // observation touched the idleness clock, the second read would
        // report idle_millis 0.
        clock.0.store(7_000, Ordering::SeqCst);
        let named = |id: u64, name: &str| Request {
            id,
            op: Op::Stats(msmr_serve::protocol::StatsOp {
                session: Some(name.to_string()),
            }),
        };
        let responses = drive(
            &engine,
            &[
                named(1, "observed"),
                named(2, "observed"),
                named(3, "missing"),
            ],
        );
        let breakdown = |id: u64| {
            responses
                .iter()
                .find_map(|r| match &r.frame {
                    Frame::SessionStats(f) if r.id == id => Some(f),
                    _ => None,
                })
                .expect("session stats frame")
        };
        let frame = breakdown(1);
        assert_eq!(frame.session, "observed");
        assert_eq!(frame.jobs, 1);
        assert_eq!(frame.version, 4); // submit + 2 admits + withdraw
        assert_eq!(frame.attached, 0);
        assert_eq!(frame.admits, 2);
        assert_eq!(frame.rejects, 1);
        assert_eq!(frame.withdraws, 1);
        assert_eq!(frame.decisions, 4);
        assert_eq!(
            frame.warm_decides + frame.cold_decides,
            4,
            "every decision classifies its decider verdict"
        );
        assert_eq!(frame.table_jobs, 1);
        assert!(frame.table_capacity >= frame.table_jobs);
        assert_eq!(frame.idle_millis, 7_000);
        assert_eq!(
            breakdown(2).idle_millis,
            7_000,
            "observation must not touch the TTL idleness clock"
        );
        assert!(
            responses
                .iter()
                .any(|r| r.id == 3 && matches!(&r.frame, Frame::Error(_))),
            "unknown names answer with a typed error"
        );
    }

    #[test]
    fn saturated_burst_leaves_an_exact_overload_delta() {
        // One parked worker + a full queue of one: every solve request
        // of the burst must bounce, and the registry must count each
        // bounce exactly once.
        let engine = ClusterEngine::new(ClusterConfig {
            workers: 1,
            queue: 1,
            ..ClusterConfig::default()
        })
        .unwrap();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        engine
            .pool()
            .try_submit(move || {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            })
            .unwrap();
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        engine.pool().try_submit(|| {}).unwrap();
        assert_eq!(engine.stats().snapshot().counters.overloads, 0);

        let mut requests = vec![Request {
            id: 1,
            op: Op::Attach(AttachOp {
                session: "burst".to_string(),
                create: None,
            }),
        }];
        for id in 2..=4 {
            requests.push(Request {
                id,
                op: Op::Admit(AdmitOp {
                    job: spec(1, 50),
                    evaluate: Some(false),
                    seq: None,
                }),
            });
        }
        let responses = drive(&engine, &requests);
        let overloads = responses
            .iter()
            .filter(|r| matches!(r.frame, Frame::Overload(_)))
            .count();
        assert_eq!(overloads, 3, "all three burst admits bounced");
        let snapshot = engine.stats_snapshot();
        assert_eq!(snapshot.counters.overloads, 3);
        assert_eq!(snapshot.counters.admits, 0, "no admit went through");
        assert_eq!(snapshot.gauges.queue_depth, 1, "the parked filler task");
        gate_tx.send(()).unwrap();
    }

    /// A fake clock whose reading the test advances by hand (mirror of
    /// the store tests' clock — each test module owns its own).
    struct FakeClock(std::sync::atomic::AtomicU64);

    impl crate::Clock for FakeClock {
        fn now_millis(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn ttl_reaper_sweep_leaves_exact_eviction_and_snapshot_deltas() {
        let dir = std::env::temp_dir().join(format!(
            "msmr-cluster-stats-ttl-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = PathBuf::from(dir.to_string_lossy().replace(['(', ')'], ""));
        let _ = std::fs::remove_dir_all(&dir);

        let clock = Arc::new(FakeClock(std::sync::atomic::AtomicU64::new(0)));
        let engine = ClusterEngine::with_store_clock(
            ClusterConfig {
                snapshot_dir: Some(dir.clone()),
                session_ttl: Some(Duration::from_secs(5)),
                ..ClusterConfig::default()
            },
            Some(Arc::clone(&clock) as Arc<dyn crate::Clock>),
        )
        .unwrap();
        // Two sessions with state, detached; one session that keeps a
        // client attached and must survive.
        for name in ["reap-a", "reap-b", "keep"] {
            let session = engine.store().attach(name, true).unwrap().session;
            session.submit(pipeline_only(), false, |_| {});
            session.admit(&spec(2, 100), false, None, |_| {}).unwrap();
            if name != "keep" {
                session.client_detached();
            }
        }
        let before = engine.stats().snapshot();
        assert_eq!(before.counters.evictions, 0);
        assert_eq!(before.counters.snapshot_writes, 0);

        clock.0.store(10_000, Ordering::SeqCst);
        let (evicted, error) = engine.evict_idle();
        assert!(error.is_none());
        assert_eq!(evicted, vec!["reap-a", "reap-b"]);

        // Exactly one eviction and one snapshot write per reaped
        // session; the attached session contributed neither.
        let after = engine.stats().snapshot();
        assert_eq!(after.counters.evictions, 2);
        assert_eq!(after.counters.snapshot_writes, 2);
        assert_eq!(engine.stats_snapshot().gauges.live_sessions, 1);

        // An idempotent second sweep adds nothing.
        let (evicted, _) = engine.evict_idle();
        assert!(evicted.is_empty());
        assert_eq!(engine.stats().snapshot().counters.evictions, 2);
        assert_eq!(engine.stats().snapshot().counters.snapshot_writes, 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_restore_round_trip_through_the_engine() {
        let dir = std::env::temp_dir().join(format!(
            "msmr-cluster-engine-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = PathBuf::from(dir.to_string_lossy().replace(['(', ')'], ""));
        let _ = std::fs::remove_dir_all(&dir);

        let config = ClusterConfig {
            snapshot_dir: Some(dir.clone()),
            ..ClusterConfig::default()
        };
        let engine = ClusterEngine::new(config.clone()).unwrap();
        drive(
            &engine,
            &[
                Request {
                    id: 1,
                    op: Op::Attach(AttachOp {
                        session: "persist".to_string(),
                        create: None,
                    }),
                },
                Request {
                    id: 2,
                    op: Op::Submit(SubmitOp {
                        jobs: pipeline_only(),
                        parallel: None,
                    }),
                },
                Request {
                    id: 3,
                    op: Op::Admit(AdmitOp {
                        job: spec(4, 300),
                        evaluate: Some(false),
                        seq: None,
                    }),
                },
                Request {
                    id: 4,
                    op: Op::Snapshot(msmr_serve::protocol::SnapshotOp { session: None }),
                },
            ],
        );
        drop(engine);

        // A "restarted" daemon restores the session at construction.
        let engine = ClusterEngine::new(config).unwrap();
        let session = engine.store().get("persist").expect("restored on boot");
        assert_eq!(session.jobs(), 1);
        assert_eq!(session.version(), 2); // submit + 1 admit
        let status = session.status();
        assert_eq!(status.admits, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_quarantines_torn_snapshots_and_serves_the_rest() {
        let dir = std::env::temp_dir().join(format!(
            "msmr-cluster-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = PathBuf::from(dir.to_string_lossy().replace(['(', ')'], ""));
        let _ = std::fs::remove_dir_all(&dir);

        let config = ClusterConfig {
            snapshot_dir: Some(dir.clone()),
            ..ClusterConfig::default()
        };
        let engine = ClusterEngine::new(config.clone()).unwrap();
        for name in ["healthy", "torn"] {
            let session = engine.store().attach(name, true).unwrap().session;
            session.submit(pipeline_only(), false, |_| {});
            session.admit(&spec(2, 100), false, None, |_| {}).unwrap();
        }
        engine.snapshot_all().unwrap();
        drop(engine);

        // Tear one snapshot mid-file, as a crash outside the atomic
        // rename path (or a full disk) would.
        let torn_path = dir.join("torn.json");
        let full = std::fs::read(&torn_path).unwrap();
        std::fs::write(&torn_path, &full[..full.len() / 2]).unwrap();

        // Boot fails soft: the torn file is quarantined and counted,
        // the healthy session is served.
        let engine = ClusterEngine::new(config).unwrap();
        let session = engine.store().get("healthy").expect("healthy restored");
        assert_eq!(session.jobs(), 1);
        assert!(engine.store().get("torn").is_none());
        assert!(dir.join("torn.json.corrupt").exists());
        assert!(!torn_path.exists());
        let snapshot = engine.stats_snapshot();
        assert_eq!(snapshot.counters.snapshot_quarantined, 1);
        assert_eq!(snapshot.gauges.live_sessions, 1);

        // The next boot no longer sees the quarantined file at all.
        drop(engine);
        let engine = ClusterEngine::new(ClusterConfig {
            snapshot_dir: Some(dir.clone()),
            ..ClusterConfig::default()
        })
        .unwrap();
        assert_eq!(engine.stats_snapshot().counters.snapshot_quarantined, 0);
        assert_eq!(engine.stats_snapshot().gauges.live_sessions, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_seq_admits_apply_exactly_once() {
        let engine = ClusterEngine::new(ClusterConfig::default()).unwrap();
        let admit = |id: u64| Request {
            id,
            op: Op::Admit(AdmitOp {
                job: spec(3, 100),
                evaluate: Some(false),
                seq: Some(1),
            }),
        };
        let responses = drive(
            &engine,
            &[
                Request {
                    id: 1,
                    op: Op::Attach(AttachOp {
                        session: "dedupe".to_string(),
                        create: None,
                    }),
                },
                Request {
                    id: 2,
                    op: Op::Submit(SubmitOp {
                        jobs: pipeline_only(),
                        parallel: None,
                    }),
                },
                // The same seq-1 admit three times, as a client retrying
                // over a duplicating link would send it.
                admit(3),
                admit(4),
                admit(5),
            ],
        );
        let admits: Vec<_> = responses
            .iter()
            .filter_map(|r| match &r.frame {
                Frame::Admit(f) => Some((r.id, f)),
                _ => None,
            })
            .collect();
        assert_eq!(admits.len(), 3, "every duplicate is acked");
        let (_, first) = admits[0];
        assert!(first.admitted);
        assert_eq!(first.seq, Some(1));
        assert_eq!(first.deduped, None, "the first application is not a replay");
        for (id, frame) in &admits[1..] {
            assert_eq!(frame.deduped, Some(true), "request {id} is a dedupe ack");
            assert_eq!(frame.seq, Some(1));
            assert_eq!(frame.admitted, first.admitted);
            assert_eq!(frame.job, first.job, "same handle re-acked");
            assert_eq!(frame.jobs, first.jobs, "no extra job was applied");
        }
        // Exactly-once application: decided counters equal unique ops,
        // duplicates land in their own counter.
        let session = engine.store().get("dedupe").unwrap();
        assert_eq!(session.jobs(), 1);
        assert_eq!(session.decisions(), 1);
        let snapshot = engine.stats_snapshot();
        assert_eq!(snapshot.counters.admits, 1, "one unique admit decided");
        assert_eq!(snapshot.counters.deduped_ops, 2, "two replays deduped");
    }

    #[test]
    fn garbage_and_truncated_frames_never_kill_the_cluster_connection() {
        let garbage: [&[u8]; 5] = [
            b"this is not json",
            b"{\"id\":7,\"op\":{\"Attach\":{\"session\":\"x\"", // truncated mid-frame
            b"\x00\xff\xfe binary junk \x01\x02",
            b"{\"id\":8}",
            b"[1,2,3]",
        ];
        let mut input: Vec<u8> = Vec::new();
        for line in garbage {
            input.extend_from_slice(line);
            input.push(b'\n');
        }
        input.extend(lines(&[status(99)]));
        from_both_starts(&input, |run| {
            let errors = run.frames(0);
            let errors = errors.iter().filter(|f| matches!(f, Frame::Error(_)));
            assert_eq!(
                errors.count(),
                garbage.len(),
                "one typed error per bad line"
            );
            // The connection survived all of it and still serves requests.
            assert!(matches!(run.frames(99)[0], Frame::Status(_)));
            assert_eq!(run.responses.len(), 2 * garbage.len() + 2);
        });
    }

    #[test]
    fn invariant_violating_wire_job_sets_are_an_error_frame_not_a_panic() {
        // serde lets a wire payload describe jobs whose per-stage arrays
        // are shorter than the pipeline — something the builder can never
        // produce. The connection must answer with an Error frame, not
        // die inside the analysis.
        let mut b = JobSetBuilder::new();
        b.stage("a", 1, PreemptionPolicy::Preemptive)
            .stage("b", 1, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(msmr_model::Time::new(50))
            .stage_time(msmr_model::Time::new(3), 0)
            .stage_time(msmr_model::Time::new(4), 0)
            .add()
            .unwrap();
        let valid = Request {
            id: 21,
            op: Op::Submit(SubmitOp {
                jobs: b.build().unwrap(),
                parallel: None,
            }),
        };
        let line = String::from_utf8(lines(&[valid])).unwrap();
        // Truncate the job's processing array from two stages to one.
        let broken = line.replace("\"processing\":[3,4]", "\"processing\":[3]");
        assert_ne!(line, broken, "payload surgery must hit the job arrays");
        from_both_starts(broken.as_bytes(), |run| {
            let frames = run.frames(21);
            let Frame::Error(error) = frames[0] else {
                panic!("{:?}: expected error frame, got {:?}", run.start, frames[0]);
            };
            assert!(
                error.message.contains("invalid job set"),
                "{}",
                error.message
            );
            assert!(matches!(frames[1], Frame::Done(_)));
        });
    }

    #[test]
    fn errors_are_frames_not_disconnects() {
        // An admit before any submit: the session exists but is not open.
        let input = lines(&[admit(7, spec(1, 10), false, None), status(8)]);
        from_both_starts(&input, |run| {
            let frames = run.frames(7);
            assert_eq!(frames.len(), 2);
            let Frame::Error(error) = frames[0] else {
                panic!("{:?}: expected error frame, got {:?}", run.start, frames[0]);
            };
            assert!(error.message.contains("no session"), "{}", error.message);
            assert!(matches!(frames[1], Frame::Done(_)));
            assert!(matches!(run.frames(8)[0], Frame::Status(_)));
        });
    }

    #[test]
    fn shutdown_raises_the_flag_and_ends_the_connection() {
        let shutdown = Request {
            id: 1,
            op: Op::Shutdown(msmr_serve::protocol::ShutdownOp {}),
        };
        from_both_starts(&lines(&[shutdown, status(2)]), |run| {
            assert!(run.shutdown, "{:?}", run.start);
            assert!(matches!(run.frames(1)[..], [Frame::Done(_)]));
            // The status request after shutdown was never processed.
            assert_eq!(run.responses.len(), 1);
        });
    }

    #[test]
    fn submit_admit_status_stream_correlated_frames() {
        let input = lines(&[submit(11), admit(12, spec(3, 100), true, None), status(13)]);
        from_both_starts(&input, |run| {
            // Submit on an empty set: just Done.
            assert!(matches!(
                run.frames(11)[..],
                [Frame::Done(DoneFrame { frames: 0 })]
            ));
            // Admit: five verdicts, the admit frame, then Done(6).
            let frames = run.frames(12);
            assert_eq!(frames.len(), 7, "{:?}", run.start);
            assert!(frames[..5].iter().all(|f| matches!(f, Frame::Verdict(_))));
            let Frame::Admit(frame) = frames[5] else {
                panic!("expected admit frame, got {:?}", frames[5]);
            };
            assert!(frame.admitted);
            assert_eq!(frame.jobs, 1);
            assert_eq!(frame.seq, Some(1));
            assert!(matches!(frames[6], Frame::Done(DoneFrame { frames: 6 })));
            let Frame::Status(frame) = run.frames(13)[0] else {
                panic!("expected status frame");
            };
            assert_eq!(frame.jobs, 1);
            assert_eq!(frame.admits, 1);
            assert_eq!(frame.solvers.len(), 5);
        });
    }

    #[test]
    fn stats_op_snapshots_the_shared_registry_and_tracks_attachment() {
        let stats = Request {
            id: 3,
            op: Op::Stats(msmr_serve::protocol::StatsOp { session: None }),
        };
        let input = lines(&[submit(1), admit(2, spec(3, 100), true, None), stats]);
        from_both_starts(&input, |run| {
            let Frame::Stats(frame) = run.frames(3)[0] else {
                panic!("{:?}: the stats op must answer a stats frame", run.start);
            };
            let snapshot = &frame.stats;
            assert_eq!(snapshot.counters.admits, 1);
            assert_eq!(snapshot.ops["admit"].samples, 1);
            // Five paper-suite solvers each produced one verdict, each
            // classified as exactly one of warm / cold / implied.
            let counters = &snapshot.counters;
            let decides = counters.warm_decides + counters.cold_decides + counters.implied_decides;
            assert_eq!(decides, 5);
            // Engine gauges are filled in from either start; only named
            // sessions are rows of the store.
            assert_eq!(snapshot.gauges.workers, 1);
            assert_eq!(snapshot.sessions.len(), run.engine.store().len());
            // The in-flight snapshot saw this connection attached; that
            // the loop's return detached it is `from_both_starts`' check.
            assert_eq!(snapshot.gauges.attached_clients, 1);
        });
    }

    #[test]
    fn a_private_start_connection_can_rebind_to_named_sessions() {
        let dir = std::env::temp_dir().join(format!(
            "msmr-cluster-rebind-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = PathBuf::from(dir.to_string_lossy().replace(['(', ')'], ""));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ClusterEngine::new(ClusterConfig {
            start_private: true,
            snapshot_dir: Some(dir.clone()),
            ..ClusterConfig::default()
        })
        .unwrap();
        let snapshot = |id: u64| Request {
            id,
            op: Op::Snapshot(msmr_serve::protocol::SnapshotOp { session: None }),
        };
        let attach = Op::Attach(AttachOp {
            session: "kept".to_string(),
            create: None,
        });
        let responses = drive(
            &engine,
            &[
                // On the private session: it has state but no name.
                submit(1),
                admit(2, spec(3, 100), false, None),
                snapshot(3),
                // Attach drops the private session for a named one.
                Request { id: 4, op: attach },
                status(5),
                submit(6),
                snapshot(7),
                // Detach leaves the connection unbound.
                Request {
                    id: 8,
                    op: Op::Detach(DetachOp {}),
                },
                status(9),
            ],
        );
        let first = |id: u64| &responses.iter().find(|r| r.id == id).unwrap().frame;
        let Frame::Error(error) = first(3) else {
            panic!("a private session is not snapshottable: {:?}", first(3));
        };
        assert!(error.message.contains("needs a session name"));
        let Frame::Status(named) = first(5) else {
            panic!("expected status frame, got {:?}", first(5));
        };
        assert_eq!(named.jobs, 0, "the named session is not the private one");
        let Frame::Snapshot(frame) = first(7) else {
            panic!("expected snapshot frame, got {:?}", first(7));
        };
        assert_eq!(frame.session, "kept");
        assert!(dir.join("kept.json").exists());
        let Frame::Detach(frame) = first(8) else {
            panic!("expected detach frame, got {:?}", first(8));
        };
        assert_eq!((frame.session.as_str(), frame.attached), ("kept", 0));
        assert!(matches!(first(9), Frame::Error(_)), "unbound after detach");
        assert_eq!(engine.store().names(), vec!["kept"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seq_stamped_history_is_identical_on_private_and_named_sessions() {
        // A resuming client's history: every decision stamped with the
        // seq it expects, two of them replayed after a "lost ack", one
        // skipping ahead. What a session answers must not depend on
        // whether it is private or named.
        let withdraw = |id: u64, seq: u64| Request {
            id,
            op: Op::Withdraw(msmr_serve::protocol::WithdrawOp {
                job: 1,
                evaluate: None,
                seq: Some(seq),
            }),
        };
        let input = lines(&[
            submit(1),
            admit(2, spec(3, 100), false, Some(1)),
            admit(3, spec(3, 100), false, Some(1)),
            admit(4, spec(2, 100), false, Some(2)),
            withdraw(5, 3),
            withdraw(6, 3),
            admit(7, spec(2, 100), false, Some(9)),
            status(8),
        ]);
        let histories = std::sync::Mutex::new(Vec::new());
        from_both_starts(&input, |run| {
            let history: Vec<String> = run
                .responses
                .iter()
                .filter_map(|r| match &r.frame {
                    Frame::Admit(f) => Some(format!(
                        "{} admit {} job {:?} jobs {} seq {:?} deduped {:?}",
                        r.id, f.admitted, f.job, f.jobs, f.seq, f.deduped
                    )),
                    Frame::Withdraw(f) => Some(format!(
                        "{} withdraw jobs {} seq {:?} deduped {:?}",
                        r.id, f.jobs, f.seq, f.deduped
                    )),
                    Frame::Error(e) => Some(format!("{} error {}", r.id, e.message)),
                    Frame::Status(f) => Some(format!("{} status jobs {}", r.id, f.jobs)),
                    _ => None,
                })
                .collect();
            histories.lock().unwrap().push(history);
        });
        let histories = histories.into_inner().unwrap();
        assert_eq!(histories[0], histories[1], "private vs named");
        let expected = [
            "2 admit true job Some(1) jobs 1 seq Some(1) deduped None",
            "3 admit true job Some(1) jobs 1 seq Some(1) deduped Some(true)",
            "4 admit true job Some(2) jobs 2 seq Some(2) deduped None",
            "5 withdraw jobs 1 seq Some(3) deduped None",
            "6 withdraw jobs 1 seq Some(3) deduped Some(true)",
        ];
        assert_eq!(histories[0][..5], expected);
        assert!(
            histories[0][5].starts_with("7 error "),
            "{}",
            histories[0][5]
        );
        assert_eq!(histories[0][6], "8 status jobs 1");
    }

    /// A transport that yields its bytes and then fails like a killed
    /// client's socket, instead of closing cleanly.
    struct ThenReset(std::io::Cursor<Vec<u8>>);

    impl std::io::Read for ThenReset {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.read(buf)? {
                0 => Err(io::ErrorKind::ConnectionReset.into()),
                n => Ok(n),
            }
        }
    }

    /// A transport that takes `lines_left` response lines and then fails
    /// like a socket whose peer is gone.
    struct ClosedAfter {
        lines_left: usize,
    }

    impl Write for ClosedAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.lines_left == 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            let lines = buf.iter().filter(|&&b| b == b'\n').count();
            self.lines_left = self.lines_left.saturating_sub(lines);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_connection_torn_by_a_transport_error_still_detaches_its_session() {
        let clock = Arc::new(FakeClock(std::sync::atomic::AtomicU64::new(0)));
        let engine = ClusterEngine::with_store_clock(
            ClusterConfig {
                session_ttl: Some(Duration::from_secs(5)),
                ..ClusterConfig::default()
            },
            Some(Arc::clone(&clock) as Arc<dyn crate::Clock>),
        )
        .unwrap();
        let attach = |name: &str| Request {
            id: 1,
            op: Op::Attach(AttachOp {
                session: name.to_string(),
                create: None,
            }),
        };
        let shutdown = AtomicBool::new(false);

        // The read side dies (ECONNRESET from a killed client) …
        let reader = ThenReset(std::io::Cursor::new(lines(&[attach("reset")])));
        let torn = engine.serve_connection(std::io::BufReader::new(reader), Vec::new(), &shutdown);
        assert_eq!(torn.unwrap_err().kind(), io::ErrorKind::ConnectionReset);

        // … or the write side does, while a malformed line is answered
        // (the attach's two lines still went out).
        let mut input = lines(&[attach("pipe")]);
        input.extend_from_slice(b"not json\n");
        let writer = ClosedAfter { lines_left: 2 };
        let torn = engine.serve_connection(input.as_slice(), writer, &shutdown);
        assert_eq!(torn.unwrap_err().kind(), io::ErrorKind::BrokenPipe);

        // Neither exit may keep its session attached: a leaked count
        // pins the session against TTL eviction forever.
        for name in ["reset", "pipe"] {
            assert_eq!(engine.store().get(name).unwrap().attached(), 0, "{name}");
        }
        assert_eq!(engine.stats().snapshot().gauges.attached_clients, 0);
        clock.0.store(10_000, Ordering::SeqCst);
        let (evicted, error) = engine.evict_idle();
        assert!(error.is_none());
        assert_eq!(evicted, vec!["pipe", "reset"]);
    }

    /// An engine with one worker and a named session `s` opened on the
    /// two-stage pipeline, detached.
    fn one_worker_with_session() -> Arc<ClusterEngine> {
        let engine = ClusterEngine::new(ClusterConfig {
            workers: 1,
            ..ClusterConfig::default()
        })
        .unwrap();
        let session = engine.store().attach("s", true).unwrap().session;
        session.submit(pipeline_only(), false, |_| {});
        session.client_detached();
        engine
    }

    /// Parks the engine's one worker until the returned gate opens.
    fn park_worker(engine: &ClusterEngine) -> mpsc::Sender<()> {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        engine
            .pool()
            .try_submit(move || {
                started_tx.send(()).unwrap();
                let _ = gate_rx.recv();
            })
            .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        gate_tx
    }

    /// Serves `requests` on a connection thread of its own; the receiver
    /// yields the loop's result and the raw response bytes once the
    /// connection is done.
    fn spawn_connection(
        engine: &Arc<ClusterEngine>,
        requests: &[Request],
    ) -> mpsc::Receiver<io::Result<Vec<u8>>> {
        let (engine, input) = (Arc::clone(engine), lines(requests));
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut output = Vec::new();
            let shutdown = AtomicBool::new(false);
            let served = engine.serve_connection(input.as_slice(), &mut output, &shutdown);
            let _ = done_tx.send(served.map(|()| output));
        });
        done_rx
    }

    /// Waits until the pool's queue holds `depth` tasks.
    fn await_queue(engine: &ClusterEngine, depth: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.pool().queued() < depth {
            assert!(
                std::time::Instant::now() < deadline,
                "queue never reached {depth}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn attach_s(id: u64) -> Request {
        Request {
            id,
            op: Op::Attach(AttachOp {
                session: "s".to_string(),
                create: Some(false),
            }),
        }
    }

    fn withdraw(id: u64, job: u64) -> Request {
        Request {
            id,
            op: Op::Withdraw(msmr_serve::protocol::WithdrawOp {
                job,
                evaluate: Some(false),
                seq: None,
            }),
        }
    }

    /// Responses with each verdict's provenance fields zeroed, as text.
    fn normalized(output: &[u8]) -> Vec<String> {
        responses(output)
            .iter()
            .map(|r| match &r.frame {
                Frame::Verdict(v) => {
                    let verdict = msmr_serve::normalized_verdict_json(&v.verdict);
                    format!("{} {verdict}", r.id)
                }
                _ => serde_json::to_string(r).unwrap(),
            })
            .collect()
    }

    fn decider_only_churn() -> Vec<Request> {
        vec![
            attach_s(1),
            admit(2, spec(3, 100), false, None),
            withdraw(3, 1),
        ]
    }

    #[test]
    fn uncontended_decider_only_ops_run_on_the_connection_thread() {
        let engine = one_worker_with_session();
        let gate = park_worker(&engine);
        let done = spawn_connection(&engine, &decider_only_churn());
        let output = done
            .recv_timeout(Duration::from_secs(10))
            .expect("the admit and withdraw completed while the worker was parked")
            .unwrap();
        gate.send(()).unwrap();
        let frames = normalized(&output);
        // Attach + Done; verdict, admit + Done; an emptied set streams
        // no verdict, so withdraw + Done.
        assert_eq!(frames.len(), 2 + 3 + 2, "{frames:#?}");
        assert!(frames[3].contains("\"admitted\":true"), "{}", frames[3]);
        assert!(frames[5].contains("\"jobs\":0"), "{}", frames[5]);
    }

    #[test]
    fn queued_work_sends_decider_only_ops_through_the_pool_unchanged() {
        let inline = spawn_connection(&one_worker_with_session(), &decider_only_churn())
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .unwrap();

        let engine = one_worker_with_session();
        let gate = park_worker(&engine);
        engine.pool().try_submit(|| {}).unwrap();
        let done = spawn_connection(&engine, &decider_only_churn());
        await_queue(&engine, 2);
        assert!(done.try_recv().is_err(), "the admit waits behind the queue");
        gate.send(()).unwrap();
        let pooled = done.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
        assert_eq!(normalized(&pooled), normalized(&inline));
    }

    #[test]
    fn evaluate_admits_always_queue_on_the_pool() {
        let engine = one_worker_with_session();
        let gate = park_worker(&engine);
        let done = spawn_connection(&engine, &[attach_s(1), admit(2, spec(3, 100), true, None)]);
        await_queue(&engine, 1);
        assert!(
            done.try_recv().is_err(),
            "the evaluate admit waits for the worker"
        );
        gate.send(()).unwrap();
        let output = done.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
        let admit = responses(&output).into_iter().filter(|r| r.id == 2).count();
        assert_eq!(admit, 5 + 2, "five verdicts, the admit frame, Done");
    }

    /// A transport that takes `lines_left` response lines, then stalls
    /// its next write until the gate opens, like a peer that stopped
    /// reading.
    struct Stalled {
        lines_left: usize,
        stalled: Option<mpsc::Sender<()>>,
        gate: mpsc::Receiver<()>,
    }

    impl Write for Stalled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.lines_left == 0 {
                if let Some(stalled) = self.stalled.take() {
                    stalled.send(()).unwrap();
                    let _ = self.gate.recv();
                }
            }
            let lines = buf.iter().filter(|&&b| b == b'\n').count();
            self.lines_left = self.lines_left.saturating_sub(lines);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stalled_reader_never_blocks_its_session() {
        let engine = one_worker_with_session();
        let (stalled_tx, stalled_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel();
        let slow = {
            let engine = Arc::clone(&engine);
            let input = lines(&[attach_s(1), admit(2, spec(3, 100), false, None)]);
            std::thread::spawn(move || {
                let writer = Stalled {
                    lines_left: 2,
                    stalled: Some(stalled_tx),
                    gate: gate_rx,
                };
                let shutdown = AtomicBool::new(false);
                engine.serve_connection(input.as_slice(), writer, &shutdown)
            })
        };
        stalled_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the slow connection's admit response stalled");
        let output = spawn_connection(&engine, &[attach_s(1), admit(2, spec(3, 100), false, None)])
            .recv_timeout(Duration::from_secs(10))
            .expect("a second client of the session is served while the first one stalls")
            .unwrap();
        let Some(Frame::Admit(frame)) = responses(&output).into_iter().map(|r| r.frame).nth(3)
        else {
            panic!("expected the admit frame");
        };
        assert_eq!(frame.seq, Some(2), "the stalled admit was decided first");
        gate_tx.send(()).unwrap();
        slow.join().unwrap().unwrap();
    }

    /// A transport that records the buffer of every `write` call.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn decider_only_responses_are_one_write_and_streams_one_per_frame() {
        for start in [Start::Private, Start::Named] {
            let engine = ClusterEngine::new(ClusterConfig {
                start_private: start == Start::Private,
                workers: 1,
                ..ClusterConfig::default()
            })
            .unwrap();
            let mut requests = vec![
                submit(2),
                admit(3, spec(3, 100), false, None),
                admit(4, spec(3, 100), true, None),
            ];
            if start == Start::Named {
                requests.insert(
                    0,
                    Request {
                        id: 1,
                        op: Op::Attach(AttachOp {
                            session: "named".to_string(),
                            create: None,
                        }),
                    },
                );
            }
            let mut writes = Writes::default();
            let shutdown = AtomicBool::new(false);
            engine
                .serve_connection(lines(&requests).as_slice(), &mut writes, &shutdown)
                .unwrap();
            // Every write carries whole lines of one request.
            let of = |id: u64| -> Vec<usize> {
                let needle = format!("{{\"id\":{id},");
                let writes = writes.0.iter().filter(|w| w.starts_with(needle.as_bytes()));
                writes.map(|w| responses(w).len()).collect()
            };
            assert_eq!(
                of(3),
                [3],
                "{start:?}: verdict, admit and Done in one write"
            );
            assert_eq!(of(4), [1; 7], "{start:?}: evaluate streams frame by frame");
            let total: usize = writes.0.iter().map(|w| responses(w).len()).sum();
            assert_eq!(total, responses(&writes.0.concat()).len());
        }
    }
}
