//! The sharded store of named shared sessions.
//!
//! Session names hash (FNV-1a, stable across platforms and daemon
//! restarts) onto one of `N` shards; each shard is a mutex-guarded
//! name → [`SharedSession`] map. The shard lock covers only the *lookup* —
//! attach/create/remove bookkeeping — never the solve work: every
//! session is handed out as an `Arc` and guards its own state, so two
//! clients of different sessions never contend, and two clients of the
//! *same* session serialize exactly at that session's mutex (which is
//! what makes interleaved multi-client histories equivalent to a
//! serialized replay).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use msmr_model::JobSet;
use msmr_sched::Verdict;
use msmr_serve::protocol::JobSpec;
use msmr_serve::{
    AdmissionSession, AdmitOutcome, SessionConfig, SessionError, SessionImage, SessionStatus,
    WithdrawOutcome,
};

/// An injectable monotonic time source, so idle-session eviction is unit
/// testable with a fake clock.
pub trait Clock: Send + Sync {
    /// Milliseconds of monotonic time since an arbitrary fixed epoch.
    fn now_millis(&self) -> u64;
}

/// The production [`Clock`]: monotonic milliseconds since the clock was
/// created.
#[derive(Debug)]
pub struct SystemClock {
    start: Instant,
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Clock for SystemClock {
    fn now_millis(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// Longest accepted session name (names double as snapshot file stems).
pub const MAX_SESSION_NAME: usize = 64;

/// Errors of the store's attach/lookup surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The session name is empty, too long, or contains characters
    /// outside `[A-Za-z0-9_.-]`.
    InvalidName(String),
    /// Attach with `create: false` (or a snapshot request) named a
    /// session that does not exist.
    UnknownSession(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidName(name) => write!(
                f,
                "invalid session name `{name}`: need 1..={MAX_SESSION_NAME} chars from [A-Za-z0-9_.-]"
            ),
            StoreError::UnknownSession(name) => write!(f, "unknown session `{name}`"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Validates a session name: `[A-Za-z0-9_.-]`, 1–64 characters, at
/// least one character that is not a dot (so the snapshot file stem is
/// never `.` or `..`).
pub fn validate_session_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && name.len() <= MAX_SESSION_NAME
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
        && name.chars().any(|c| c != '.');
    if ok {
        Ok(())
    } else {
        Err(StoreError::InvalidName(name.to_string()))
    }
}

/// Stable 64-bit FNV-1a over a session name: the shard of a name must
/// not depend on the process (std's `DefaultHasher` is randomly
/// seeded), and the same stability property lets the cross-process
/// router tier (`msmr-router`) place names by rendezvous hashing
/// without any coordination with the daemons.
#[must_use]
pub fn session_name_hash(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

use session_name_hash as fnv1a;

/// The mutable core of a [`SharedSession`]: the admission session plus
/// the version counter. The decision `seq` counter lives *inside*
/// [`AdmissionSession`] (together with its bounded decision log), so it
/// is captured by snapshots and survives restores — the property the
/// v5 seq-idempotency rule needs to dedupe replayed ops after a daemon
/// restart.
struct SessionInner {
    session: AdmissionSession,
    /// Mutation version: bumps on submit, accepted admit, withdraw and
    /// restore. Snapshots record it; stale-snapshot detection and cache
    /// invalidation key off it.
    version: u64,
}

/// One named session, shared by any number of attached connections —
/// or one **private** session: the same type outside any store, held by
/// the single connection that owns it ([`SessionStore::private_session`]).
///
/// All session operations lock the inner mutex for their full duration,
/// so concurrent clients serialize per session and the observable
/// history equals some serialized replay of the same operations — the
/// property the cluster test suite pins down byte-for-byte.
pub struct SharedSession {
    name: String,
    attached: AtomicU64,
    /// Monotonic clock reading of the last session operation (attach,
    /// submit, admit, withdraw, status) — what TTL eviction keys off.
    touched: AtomicU64,
    clock: Arc<dyn Clock>,
    inner: Mutex<SessionInner>,
}

impl SharedSession {
    fn new(name: String, config: SessionConfig, clock: Arc<dyn Clock>) -> SharedSession {
        let mut session = AdmissionSession::new(config);
        // Label the session's stats flight events with its name, so the
        // recorder attributes admits/withdraws/dedups per tenant.
        if !name.is_empty() {
            session.set_stats_label(&name);
        }
        SharedSession {
            name,
            attached: AtomicU64::new(0),
            touched: AtomicU64::new(clock.now_millis()),
            clock,
            inner: Mutex::new(SessionInner {
                session,
                version: 0,
            }),
        }
    }

    /// Records activity now (called by every session operation).
    pub fn touch(&self) {
        self.touched
            .store(self.clock.now_millis(), Ordering::SeqCst);
    }

    /// Milliseconds this session has been idle at clock reading `now`.
    #[must_use]
    pub fn idle_millis(&self, now: u64) -> u64 {
        now.saturating_sub(self.touched.load(Ordering::SeqCst))
    }

    /// The session's name (empty for a private session).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `true` for a session no store knows: it has no name (store names
    /// are validated non-empty), exactly one connection holds it, and it
    /// is dropped with that connection — never shared, snapshotted or
    /// evicted.
    #[must_use]
    pub fn is_private(&self) -> bool {
        self.name.is_empty()
    }

    /// Connections currently attached.
    #[must_use]
    pub fn attached(&self) -> u64 {
        self.attached.load(Ordering::SeqCst)
    }

    /// Records one more attached connection; returns the new count.
    pub fn client_attached(&self) -> u64 {
        self.touch();
        self.attached.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Records a detached connection; returns the remaining count.
    pub fn client_detached(&self) -> u64 {
        let previous = self.attached.fetch_sub(1, Ordering::SeqCst);
        previous.saturating_sub(1)
    }

    /// The current mutation version.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Currently admitted jobs (0 before the first submit).
    #[must_use]
    pub fn jobs(&self) -> u64 {
        let inner = self.lock();
        inner.session.jobs().map_or(0, JobSet::len) as u64
    }

    fn lock(&self) -> MutexGuard<'_, SessionInner> {
        self.inner.lock().expect("session lock poisoned")
    }

    /// Claims the session for one operation, waiting for its lock.
    pub fn claim(&self) -> Claim<'_> {
        Claim {
            session: self,
            inner: self.lock(),
        }
    }

    /// Claims the session only if its lock is free right now: `None`
    /// while another operation holds it (or after a panic poisoned it,
    /// which the blocking [`SharedSession::claim`] reports).
    pub fn try_claim(&self) -> Option<Claim<'_>> {
        let inner = self.inner.try_lock().ok()?;
        Some(Claim {
            session: self,
            inner,
        })
    }

    /// [`Claim::submit`] on a blocking [`SharedSession::claim`].
    /// `_parallel` is ignored, as in [`AdmissionSession::submit`].
    pub fn submit(
        &self,
        jobs: JobSet,
        _parallel: bool,
        sink: impl FnMut(&Verdict),
    ) -> Vec<Verdict> {
        self.claim().submit(jobs, false, sink)
    }

    /// [`Claim::admit`] on a blocking [`SharedSession::claim`].
    ///
    /// # Errors
    ///
    /// As [`Claim::admit`].
    pub fn admit(
        &self,
        spec: &JobSpec,
        evaluate: bool,
        seq: Option<u64>,
        sink: impl FnMut(&Verdict),
    ) -> Result<(AdmitOutcome, u64, bool), SessionError> {
        self.claim().admit(spec, evaluate, seq, sink)
    }

    /// [`Claim::withdraw`] on a blocking [`SharedSession::claim`].
    ///
    /// # Errors
    ///
    /// As [`Claim::withdraw`].
    pub fn withdraw(
        &self,
        handle: u64,
        evaluate: bool,
        seq: Option<u64>,
        sink: impl FnMut(&Verdict),
    ) -> Result<(WithdrawOutcome, u64, bool), SessionError> {
        self.claim().withdraw(handle, evaluate, seq, sink)
    }

    /// The session's decision counter — the seq horizon a resuming
    /// client re-issues its journal against (reported by attach frames).
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.lock().session.decisions()
    }

    /// The session's status snapshot.
    #[must_use]
    pub fn status(&self) -> SessionStatus {
        self.touch();
        self.lock().session.status()
    }

    /// Runs a read-only closure over the locked session **without
    /// touching the idleness clock** — the observability read path
    /// (per-session stats breakdowns): observing a session must never
    /// keep it alive past its TTL, unlike [`SharedSession::status`],
    /// which is client activity and does touch.
    pub fn peek<R>(&self, f: impl FnOnce(&AdmissionSession) -> R) -> R {
        f(&self.lock().session)
    }

    /// The durable state plus the version it captures, for the snapshot
    /// subsystem. `None` before the first submit.
    #[must_use]
    pub fn image(&self) -> Option<(SessionImage, u64)> {
        let inner = self.lock();
        inner.session.image().map(|image| (image, inner.version))
    }

    /// Replaces the session's state with one rebuilt from a snapshot
    /// (the restore path). The decision counter is part of the restored
    /// session — it continues from the snapshotted value, so seqs stay
    /// monotonic across restarts and replayed ops dedupe correctly.
    pub fn install(&self, mut session: AdmissionSession, version: u64) {
        self.touch();
        // Restored sessions are built label-less from the image;
        // re-attach the name before the session records any stats.
        session.set_stats_label(&self.name);
        let mut inner = self.lock();
        inner.session = session;
        inner.version = version;
    }
}

/// One operation's hold on a [`SharedSession`]: its lock, taken by
/// [`SharedSession::claim`] or [`SharedSession::try_claim`] and released
/// when the claim drops. Every solve operation runs on a claim.
pub struct Claim<'a> {
    session: &'a SharedSession,
    inner: MutexGuard<'a, SessionInner>,
}

impl Claim<'_> {
    /// Opens (or replaces) the session with a full job set; see
    /// [`AdmissionSession::submit`]; `_parallel` is ignored there too.
    /// Bumps the version.
    pub fn submit(
        &mut self,
        jobs: JobSet,
        _parallel: bool,
        sink: impl FnMut(&Verdict),
    ) -> Vec<Verdict> {
        self.session.touch();
        let verdicts = self.inner.session.submit(jobs, false, sink);
        self.inner.version += 1;
        verdicts
    }

    /// Decides admission of one arriving job; see
    /// [`AdmissionSession::admit_seq`]. Returns the outcome, the
    /// decision's sequence number, and whether the op was a deduped
    /// seq-replay (acked without re-applying — the version does not
    /// bump). Bumps the version on freshly applied acceptance.
    ///
    /// # Errors
    ///
    /// Propagates [`SessionError`] from the underlying session,
    /// including the seq-validation errors of the v5 idempotency rule
    /// (the decision counter only advances for decided admissions).
    pub fn admit(
        &mut self,
        spec: &JobSpec,
        evaluate: bool,
        seq: Option<u64>,
        sink: impl FnMut(&Verdict),
    ) -> Result<(AdmitOutcome, u64, bool), SessionError> {
        self.session.touch();
        let inner = &mut *self.inner;
        let (outcome, seq, deduped) = inner.session.admit_seq(spec, evaluate, seq, sink)?;
        if outcome.admitted && !deduped {
            inner.version += 1;
        }
        Ok((outcome, seq, deduped))
    }

    /// Removes an admitted job by handle and re-decides the reduced set
    /// through the online seam; see [`AdmissionSession::withdraw_seq`].
    /// Withdrawals are decider decisions too, so they advance the same
    /// `seq` counter as admissions (interleaved multi-client histories of
    /// both op kinds re-order into one serialized replay) and bump the
    /// version (unless the op was a deduped seq-replay).
    ///
    /// # Errors
    ///
    /// Propagates [`SessionError`] (the decision counter only advances
    /// for applied withdrawals).
    pub fn withdraw(
        &mut self,
        handle: u64,
        evaluate: bool,
        seq: Option<u64>,
        sink: impl FnMut(&Verdict),
    ) -> Result<(WithdrawOutcome, u64, bool), SessionError> {
        self.session.touch();
        let inner = &mut *self.inner;
        let (outcome, seq, deduped) = inner.session.withdraw_seq(handle, evaluate, seq, sink)?;
        if !deduped {
            inner.version += 1;
        }
        Ok((outcome, seq, deduped))
    }
}

/// One shard: its sessions by name.
type Shard = HashMap<String, Arc<SharedSession>>;

impl fmt::Debug for SharedSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSession")
            .field("name", &self.name)
            .field("attached", &self.attached())
            .finish_non_exhaustive()
    }
}

/// The result of a [`SessionStore::attach`].
#[derive(Debug)]
pub struct AttachOutcome {
    /// The attached session.
    pub session: Arc<SharedSession>,
    /// `true` when the attach created it.
    pub created: bool,
}

/// The sharded map of named sessions. See the module docs for the
/// locking discipline.
pub struct SessionStore {
    shards: Vec<Mutex<Shard>>,
    template: SessionConfig,
    clock: Arc<dyn Clock>,
}

impl SessionStore {
    /// A store of `shards` shards (clamped to ≥ 1); new sessions are
    /// configured from `template`.
    #[must_use]
    pub fn new(shards: usize, template: SessionConfig) -> SessionStore {
        SessionStore::with_clock(shards, template, Arc::new(SystemClock::default()))
    }

    /// Like [`SessionStore::new`] with an injected [`Clock`] — how the
    /// TTL-eviction tests drive idleness with a fake clock.
    #[must_use]
    pub fn with_clock(
        shards: usize,
        template: SessionConfig,
        clock: Arc<dyn Clock>,
    ) -> SessionStore {
        SessionStore {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            template,
            clock,
        }
    }

    /// The store's time source (shared with every session it creates).
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The sessions currently eligible for idle eviction — **no attached
    /// connection** and idle for at least `ttl_millis` — *without*
    /// removing them. First phase of the eviction protocol: the caller
    /// persists each candidate, then calls
    /// [`SessionStore::remove_if_idle`], which re-checks eligibility
    /// under the shard lock — so a client that attached in between keeps
    /// its live session instead of resurrecting a stale snapshot or
    /// shadowing a yet-unwritten one.
    pub fn idle_candidates(&self, ttl_millis: u64) -> Vec<Arc<SharedSession>> {
        let now = self.clock.now_millis();
        let mut candidates = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock poisoned");
            candidates.extend(
                shard
                    .values()
                    .filter(|session| {
                        session.attached() == 0 && session.idle_millis(now) >= ttl_millis
                    })
                    .cloned(),
            );
        }
        candidates.sort_by(|a, b| a.name().cmp(b.name()));
        candidates
    }

    /// Second phase of the eviction protocol: removes `name` only if it
    /// is *still* detached and idle past the TTL (checked and removed
    /// atomically under the shard lock). Returns the removed session, or
    /// `None` when it no longer qualifies (a client came back) or does
    /// not exist.
    pub fn remove_if_idle(&self, name: &str, ttl_millis: u64) -> Option<Arc<SharedSession>> {
        let now = self.clock.now_millis();
        let mut shard = self.shard(name).lock().expect("shard lock poisoned");
        let session = shard.get(name)?;
        let still_idle = session.attached() == 0 && session.idle_millis(now) >= ttl_millis;
        still_idle.then(|| shard.remove(name)).flatten()
    }

    /// The number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The session configuration new sessions are created with.
    #[must_use]
    pub fn template(&self) -> &SessionConfig {
        &self.template
    }

    fn shard(&self, name: &str) -> &Mutex<Shard> {
        let index = (fnv1a(name) % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    /// Looks a session up without creating it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<SharedSession>> {
        self.shard(name)
            .lock()
            .expect("shard lock poisoned")
            .get(name)
            .cloned()
    }

    /// Attaches to `name`, creating the session when `create` is set.
    /// The caller owns one attach count (released via
    /// [`SharedSession::client_detached`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`] for malformed names,
    /// [`StoreError::UnknownSession`] when the session does not exist
    /// and `create` is `false`.
    pub fn attach(&self, name: &str, create: bool) -> Result<AttachOutcome, StoreError> {
        validate_session_name(name)?;
        let mut shard = self.shard(name).lock().expect("shard lock poisoned");
        if let Some(session) = shard.get(name) {
            session.client_attached();
            return Ok(AttachOutcome {
                session: Arc::clone(session),
                created: false,
            });
        }
        if !create {
            return Err(StoreError::UnknownSession(name.to_string()));
        }
        let session = self.new_session(name);
        session.client_attached();
        shard.insert(name.to_string(), Arc::clone(&session));
        Ok(AttachOutcome {
            session,
            created: true,
        })
    }

    /// A fresh **private** session from the store's template and clock,
    /// attached once (to the connection asking) and *not* inserted: see
    /// [`SharedSession::is_private`].
    #[must_use]
    pub fn private_session(&self) -> Arc<SharedSession> {
        let session = self.new_session("");
        session.client_attached();
        session
    }

    /// A session on the store's template and clock, in no shard yet.
    fn new_session(&self, name: &str) -> Arc<SharedSession> {
        let (config, clock) = (self.template.clone(), Arc::clone(&self.clock));
        Arc::new(SharedSession::new(name.to_string(), config, clock))
    }

    /// Inserts (or replaces) a session rebuilt from a snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`] for malformed names.
    pub fn install(
        &self,
        name: &str,
        session: AdmissionSession,
        version: u64,
    ) -> Result<Arc<SharedSession>, StoreError> {
        validate_session_name(name)?;
        let mut shard = self.shard(name).lock().expect("shard lock poisoned");
        if let Some(existing) = shard.get(name) {
            existing.install(session, version);
            return Ok(Arc::clone(existing));
        }
        let shared = self.new_session(name);
        shared.install(session, version);
        shard.insert(name.to_string(), Arc::clone(&shared));
        Ok(shared)
    }

    /// Removes a session from the store (its `Arc` stays alive for
    /// already-attached connections).
    pub fn remove(&self, name: &str) -> Option<Arc<SharedSession>> {
        self.shard(name)
            .lock()
            .expect("shard lock poisoned")
            .remove(name)
    }

    /// All session names, sorted (stable iteration for snapshot-all and
    /// status listings).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect("shard lock poisoned")
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort();
        names
    }

    /// Live sessions per shard, in shard order — the observability
    /// surface behind the `sessions_per_shard` stats gauge (a skewed
    /// distribution means the FNV shard hash is fighting the tenant
    /// naming scheme).
    #[must_use]
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("shard lock poisoned").len() as u64)
            .collect()
    }

    /// The number of live sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// `true` when no session exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        for good in ["a", "tenant-1", "x_y.z", "A".repeat(64).as_str()] {
            assert_eq!(validate_session_name(good), Ok(()), "{good}");
        }
        for bad in ["", ".", "..", "a/b", "a b", "ü", "A".repeat(65).as_str()] {
            assert!(validate_session_name(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn attach_create_get_remove_round_trip() {
        let store = SessionStore::new(4, SessionConfig::default());
        assert!(store.is_empty());
        assert_eq!(
            store.attach("missing", false).unwrap_err(),
            StoreError::UnknownSession("missing".to_string())
        );

        let first = store.attach("tenant-a", true).unwrap();
        assert!(first.created);
        assert_eq!(first.session.attached(), 1);

        let second = store.attach("tenant-a", true).unwrap();
        assert!(!second.created);
        assert_eq!(second.session.attached(), 2);
        assert!(Arc::ptr_eq(&first.session, &second.session));

        store.attach("tenant-b", true).unwrap();
        assert_eq!(store.names(), vec!["tenant-a", "tenant-b"]);
        assert_eq!(store.len(), 2);

        assert!(store.remove("tenant-a").is_some());
        assert!(store.get("tenant-a").is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn sharding_is_deterministic_and_total() {
        let a = SessionStore::new(7, SessionConfig::default());
        let b = SessionStore::new(7, SessionConfig::default());
        for i in 0..50 {
            let name = format!("session-{i}");
            // The same name lands on the same shard in both stores.
            let sa = (fnv1a(&name) % 7) as usize;
            let sb = (fnv1a(&name) % 7) as usize;
            assert_eq!(sa, sb);
            a.attach(&name, true).unwrap();
            assert!(a.get(&name).is_some());
            drop(b.attach(&name, true).unwrap());
        }
        assert_eq!(a.len(), 50);
    }

    /// A fake clock whose reading the test advances by hand.
    struct FakeClock(AtomicU64);

    impl Clock for FakeClock {
        fn now_millis(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn idle_sessions_evict_only_when_detached_and_past_ttl() {
        let clock = Arc::new(FakeClock(AtomicU64::new(0)));
        let store =
            SessionStore::with_clock(2, SessionConfig::default(), Arc::clone(&clock) as Arc<_>);
        let idle = store.attach("idle", true).unwrap().session;
        let busy = store.attach("busy", true).unwrap().session;
        let held = store.attach("held", true).unwrap().session;
        idle.client_detached();
        busy.client_detached();
        // `held` keeps one attached client and must survive any TTL.

        // One sweep of the two-phase protocol: scan, then remove each
        // candidate that still qualifies.
        let sweep = |ttl| -> Vec<String> {
            store
                .idle_candidates(ttl)
                .iter()
                .filter_map(|s| store.remove_if_idle(s.name(), ttl))
                .map(|s| s.name().to_string())
                .collect()
        };

        clock.0.store(10_000, Ordering::SeqCst);
        // `busy` saw activity just now.
        busy.touch();
        assert_eq!(sweep(5_000), vec!["idle"]);
        assert!(store.get("idle").is_none());
        assert!(store.get("busy").is_some());
        assert!(store.get("held").is_some());

        // Once `busy` goes idle past the TTL it is evicted too; `held`
        // still is not.
        clock.0.store(20_000, Ordering::SeqCst);
        assert_eq!(sweep(5_000), vec!["busy"]);
        assert_eq!(store.len(), 1);
        drop(held);

        // A re-attach after eviction creates a fresh session (at the
        // *store* level; the cluster engine's attach restores snapshots
        // first).
        let outcome = store.attach("idle", true).unwrap();
        assert!(outcome.created);
    }

    #[test]
    fn two_phase_eviction_spares_sessions_that_come_back_mid_sweep() {
        let clock = Arc::new(FakeClock(AtomicU64::new(0)));
        let store =
            SessionStore::with_clock(1, SessionConfig::default(), Arc::clone(&clock) as Arc<_>);
        let session = store.attach("s", true).unwrap().session;
        session.client_detached();
        clock.0.store(10_000, Ordering::SeqCst);

        let candidates = store.idle_candidates(5_000);
        assert_eq!(candidates.len(), 1);
        // Between the candidate scan (snapshot phase) and the removal, a
        // client re-attaches: the removal must refuse.
        session.client_attached();
        assert!(store.remove_if_idle("s", 5_000).is_none());
        assert!(store.get("s").is_some(), "live session survives the sweep");

        // Detached but freshly touched: also spared.
        session.client_detached();
        assert!(store.remove_if_idle("s", 5_000).is_none());
        // Genuinely idle again: removed.
        clock.0.store(20_000, Ordering::SeqCst);
        assert!(store.remove_if_idle("s", 5_000).is_some());
        assert!(store.get("s").is_none());
    }

    #[test]
    fn decision_seq_totally_orders_admissions() {
        use msmr_model::{JobSetBuilder, PreemptionPolicy};
        use msmr_serve::protocol::StageDemand;
        let store = SessionStore::new(2, SessionConfig::default());
        let session = store.attach("seq", true).unwrap().session;
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 2, PreemptionPolicy::Preemptive);
        session.submit(b.build().unwrap(), false, |_| {});
        assert_eq!(session.version(), 1);
        for expected in 1..=4u64 {
            let spec = JobSpec {
                arrival: 0,
                deadline: 500,
                stages: vec![StageDemand {
                    time: 2,
                    resource: 0,
                }],
            };
            let (_, seq, deduped) = session.admit(&spec, false, None, |_| {}).unwrap();
            assert_eq!(seq, expected);
            assert!(!deduped, "no seq asserted, nothing to dedupe");
        }
        assert_eq!(session.jobs(), 4);
        assert_eq!(session.decisions(), 4);
    }

    #[test]
    fn seq_replays_dedupe_without_bumping_the_version() {
        use msmr_model::{JobSetBuilder, PreemptionPolicy};
        use msmr_serve::protocol::StageDemand;
        let store = SessionStore::new(1, SessionConfig::default());
        let session = store.attach("dedupe", true).unwrap().session;
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 2, PreemptionPolicy::Preemptive);
        session.submit(b.build().unwrap(), false, |_| {});
        let spec = JobSpec {
            arrival: 0,
            deadline: 500,
            stages: vec![StageDemand {
                time: 2,
                resource: 0,
            }],
        };
        let (first, seq, deduped) = session.admit(&spec, false, Some(1), |_| {}).unwrap();
        assert!(first.admitted && !deduped);
        assert_eq!(seq, 1);
        let version = session.version();

        // The same op re-issued (a resuming client's journal replay):
        // acked with the recorded outcome, nothing re-applied.
        let (replay, seq, deduped) = session.admit(&spec, false, Some(1), |_| {}).unwrap();
        assert!(deduped, "replayed seq must dedupe");
        assert_eq!(seq, 1);
        assert_eq!(replay.admitted, first.admitted);
        assert_eq!(replay.handle, first.handle);
        assert_eq!(session.version(), version, "dedupe must not bump version");
        assert_eq!(session.jobs(), 1, "the job was applied exactly once");
        assert_eq!(session.decisions(), 1);
    }
}
