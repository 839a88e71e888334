//! The stateful admission session: an admitted job set plus the warm
//! interference tables that make per-arrival admission sublinear in the
//! session's age.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use msmr_dca::{Analysis, DelayBoundKind, PairTables};
use msmr_model::{JobId, JobSet, ModelError};
use msmr_sched::{Budget, OnlineSuiteState, SolveCtx, SolverRegistry, Verdict};
use msmr_stats::StatsRegistry;
use serde::{Deserialize, Serialize};

use crate::protocol::{AdmitFrame, JobSpec, StatusFrame};

/// Configuration of one [`AdmissionSession`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The delay bound every solver of the suite applies (default: the
    /// paper's evaluation bound, Eq. 10).
    pub bound: DelayBoundKind,
    /// Name of the registered solver whose verdict decides admissions
    /// (default `"OPDCA"`; the exact engines are poor deciders — an
    /// `Undecided` budget exhaustion would reject).
    pub decider: String,
    /// Node budget of the exact engines.
    pub node_limit: Option<u64>,
    /// Live-metrics sink shared by every session built from this config
    /// (daemon-wide). Sessions record op counters/latencies into it and
    /// install its verdict observer on their solver registry; `None`
    /// (the default) runs without instrumentation.
    pub stats: Option<Arc<StatsRegistry>>,
}

impl SessionConfig {
    /// The [`Budget`] every solve of a session with this config runs
    /// under.
    pub(crate) fn budget(&self) -> Budget {
        match self.node_limit {
            Some(limit) => Budget::default().with_node_limit(limit),
            None => Budget::default(),
        }
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            bound: DelayBoundKind::EdgeHybrid,
            decider: "OPDCA".to_string(),
            node_limit: Some(200_000),
            stats: None,
        }
    }
}

/// Errors an admission-session operation can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// `admit`/`withdraw`/`status` before any `submit` opened a session.
    NoSession,
    /// The arriving job is invalid for the session's pipeline.
    InvalidJob(String),
    /// The configured decider is not a registered solver.
    UnknownDecider(String),
    /// `withdraw` named a handle that is not admitted.
    UnknownHandle(u64),
    /// A seq-carrying op skipped ahead of the session's decision
    /// counter: the client lost an ack it never had, or is talking to
    /// the wrong session.
    SeqGap {
        /// The seq the session would assign next.
        expected: u64,
        /// The seq the op claimed.
        got: u64,
    },
    /// A replayed seq named a decision whose recorded op fingerprint
    /// differs — the client is re-issuing a *different* op under an
    /// already-consumed seq, which idempotent resume must refuse.
    SeqConflict(u64),
    /// A replayed seq is older than the bounded decision log retains,
    /// so its op can no longer be verified for idempotent replay.
    SeqRetired(u64),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NoSession => write!(f, "no session: submit a job set first"),
            SessionError::InvalidJob(reason) => write!(f, "invalid job: {reason}"),
            SessionError::UnknownDecider(name) => {
                write!(f, "decider `{name}` is not a registered solver")
            }
            SessionError::UnknownHandle(handle) => {
                write!(f, "job handle {handle} is not admitted")
            }
            SessionError::SeqGap { expected, got } => {
                write!(
                    f,
                    "seq gap: op claims seq {got} but the session expects {expected}"
                )
            }
            SessionError::SeqConflict(seq) => {
                write!(f, "seq conflict: seq {seq} was decided for a different op")
            }
            SessionError::SeqRetired(seq) => {
                write!(
                    f,
                    "seq {seq} predates the retained decision log; re-attach and resync"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ModelError> for SessionError {
    fn from(err: ModelError) -> Self {
        SessionError::InvalidJob(err.to_string())
    }
}

/// The outcome of one [`AdmissionSession::withdraw`].
#[derive(Debug, Clone, PartialEq)]
pub struct WithdrawOutcome {
    /// Session size after the withdrawal.
    pub jobs: usize,
    /// The verdicts produced for the reduced set through the online seam
    /// (full suite when `evaluate`, otherwise just the decider's; empty
    /// when the withdrawal emptied the session).
    pub verdicts: Vec<Verdict>,
}

/// The outcome of one [`AdmissionSession::admit`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitOutcome {
    /// Whether the arriving job joined the admitted set.
    pub admitted: bool,
    /// Stable external handle of the job (present iff admitted).
    pub handle: Option<u64>,
    /// Session size after the decision.
    pub jobs: usize,
    /// The verdicts produced for the decision (full suite when
    /// `evaluate`, otherwise just the decider's).
    pub verdicts: Vec<Verdict>,
}

impl AdmitOutcome {
    /// The wire frame reporting this decision (`seq` is the session's
    /// decision sequence number; `deduped` marks a seq-idempotent replay
    /// ack that re-applied nothing).
    #[must_use]
    pub fn to_frame(&self, decider: &str, seq: Option<u64>, deduped: bool) -> AdmitFrame {
        AdmitFrame {
            admitted: self.admitted,
            job: self.handle,
            jobs: self.jobs as u64,
            decider: decider.to_string(),
            seq,
            deduped: deduped.then_some(true),
        }
    }
}

/// Decisions the bounded per-session log retains for seq-idempotent
/// replay verification; older seqs answer with
/// [`SessionError::SeqRetired`].
pub const DECISION_LOG_CAP: usize = 256;

/// One entry of the session's bounded decision log: enough to recognize
/// a replayed op by fingerprint and re-ack its outcome without
/// re-applying it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// The decision's sequence number (1-based, total order).
    pub seq: u64,
    /// FNV-1a fingerprint of the op payload (kind-tagged: an admit and
    /// a withdraw can never collide).
    pub fingerprint: u64,
    /// `true` for an admit decision, `false` for a withdraw.
    pub admit: bool,
    /// The admit decision (`true` for every withdraw record).
    pub admitted: bool,
    /// The handle assigned by an accepting admit.
    pub handle: Option<u64>,
    /// Session size right after the decision.
    pub jobs: u64,
}

fn fnv1a_tagged(tag: u8, bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(tag);
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn admit_fingerprint(spec: &JobSpec) -> u64 {
    let json = serde_json::to_string(spec).expect("job specs serialize");
    fnv1a_tagged(1, json.as_bytes())
}

fn withdraw_fingerprint(handle: u64) -> u64 {
    fnv1a_tagged(2, &handle.to_le_bytes())
}

/// A point-in-time snapshot of the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStatus {
    /// Number of currently admitted jobs.
    pub jobs: usize,
    /// Pipeline stage count (0 before the first submit).
    pub stages: usize,
    /// External handles of the admitted jobs, in internal id order.
    pub admitted: Vec<u64>,
    /// Lifetime admit count.
    pub admits: u64,
    /// Lifetime reject count.
    pub rejects: u64,
    /// Registered solver names in evaluation order.
    pub solvers: Vec<String>,
    /// The deciding solver's name.
    pub decider: String,
}

impl SessionStatus {
    /// The wire frame reporting this status.
    #[must_use]
    pub fn to_frame(&self) -> StatusFrame {
        StatusFrame {
            jobs: self.jobs as u64,
            stages: self.stages as u64,
            admitted: self.admitted.clone(),
            admits: self.admits,
            rejects: self.rejects,
            solvers: self.solvers.clone(),
            decider: self.decider.clone(),
        }
    }
}

/// The admitted job set together with its warm caches.
struct SessionState {
    /// The admitted jobs and their pair tables, changed together in
    /// place per arrival and departure instead of rebuilt.
    analysis: Analysis<'static>,
    /// External handle of each admitted job, indexed by internal id.
    handles: Vec<u64>,
}

/// A stateful online admission-control session (one per connection in the
/// daemon; also usable directly as a library).
///
/// The session owns one [`Analysis`] of the admitted [`JobSet`] — the
/// jobs and their pair tables — and keeps it warm across requests: an
/// [`AdmissionSession::admit`] appends the arriving job with
/// [`Analysis::push`] — `O(n·N)` new pair computations instead of all
/// `O(n²)` pairs — and takes it back out with [`Analysis::pop`] when the
/// decider rejects; an [`AdmissionSession::withdraw`] swap-removes the
/// victim with [`Analysis::swap_remove`] (`O(n·N)` for *any* victim).
/// Every evaluation lends the analysis to a [`SolveCtx`] through
/// [`SolveCtx::over`], so no request ever pays the full `O(n²·N)`
/// analysis pass except the initial `submit`.
///
/// Decisions are made by the configured decider solver; with `evaluate`
/// set, the full suite runs sequentially with implication shortcuts, so
/// the produced verdicts are identical to offline
/// [`SolverRegistry::evaluate`] on the same job set (the end-to-end suite
/// asserts byte-identity modulo wall-clock provenance fields).
///
/// Beyond the tables, the session keeps the *decider state* warm: every
/// `admit`/`withdraw` routes through the registry's stateful
/// [`OnlineSolver`](msmr_sched::OnlineSolver) seam
/// ([`SolverRegistry::evaluate_online`] /
/// [`SolverRegistry::decide_online`]), so an admit lets OPDCA
/// fast-forward its persisted Audsley trace instead of re-running the
/// whole loop (a withdraw decides cold on the patched tables), solvers
/// without an online seam are re-solved by the cold adapter (marked with
/// the `cold_fallback` stat), and a rejected admission rolls the state
/// back together with the tables. The decider state lives only in
/// memory: [`SessionImage`] does not carry it, so a restored session's
/// first admit decides cold and records it afresh.
pub struct AdmissionSession {
    config: SessionConfig,
    registry: SolverRegistry,
    state: Option<SessionState>,
    online: OnlineSuiteState,
    admits: u64,
    rejects: u64,
    /// Successful withdrawals. Unlike `admits`/`rejects` this is not
    /// part of [`SessionImage`] (snapshots predate it), so it counts
    /// since the session was (re)built in this process.
    withdraws: u64,
    /// Decider verdicts produced by the decider's online seam in this
    /// process (no cold-fallback provenance marker) — the per-session
    /// half of the daemon-wide warm/cold split. It counts the path, not
    /// the work: an OPDCA withdraw, or the first admit after a restore,
    /// decides cold inside the seam and still counts here.
    warm_decides: u64,
    /// Decider verdicts that fell back to the cold adapter (a decider
    /// without an online seam: every decide of a DM, DMR or DCMP
    /// decider) in this process.
    cold_decides: u64,
    next_handle: u64,
    /// Total decisions made (admit accepts + rejects + withdraws): the
    /// per-session `seq` the cluster frames expose, owned here so it
    /// survives snapshot restore and seq-idempotent resume works across
    /// daemon crashes.
    decisions: u64,
    /// Bounded log of recent decisions for seq-idempotent replay
    /// (newest last, capped at [`DECISION_LOG_CAP`]).
    decision_log: Vec<DecisionRecord>,
    /// Name this session's stats flight events carry (the cluster
    /// store sets a named session's name; a connection's private
    /// session has none). Not part of [`SessionImage`] — the owner
    /// re-labels after a restore.
    stats_label: Option<String>,
}

impl AdmissionSession {
    /// Creates a session over the paper suite for the configured bound.
    #[must_use]
    pub fn new(config: SessionConfig) -> Self {
        let registry = Self::build_registry(&config);
        AdmissionSession {
            config,
            registry,
            state: None,
            online: OnlineSuiteState::new(),
            admits: 0,
            rejects: 0,
            withdraws: 0,
            warm_decides: 0,
            cold_decides: 0,
            next_handle: 1,
            decisions: 0,
            decision_log: Vec::new(),
            stats_label: None,
        }
    }

    /// Labels the session's stats flight events with a name, so the
    /// flight recorder can attribute admits/withdraws/dedups to a
    /// session in multi-tenant daemons.
    pub fn set_stats_label(&mut self, label: impl Into<String>) {
        self.stats_label = Some(label.into());
    }

    /// Total decisions made (the seq of the most recent one; the next
    /// decision gets `decisions() + 1`).
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Tallies the decider's verdict of one decision into the
    /// per-session warm/cold split. A decision that streamed no
    /// verdicts (withdrawing the last job empties the session) counts
    /// as neither.
    fn observe_decider(&mut self, verdicts: &[Verdict]) {
        let Some(verdict) = verdicts.iter().find(|v| v.solver == self.config.decider) else {
            return;
        };
        if verdict.stats.cold_fallback.is_some() {
            self.cold_decides += 1;
        } else {
            self.warm_decides += 1;
        }
    }

    /// The per-session observability counters
    /// `(admits, rejects, withdraws, warm_decides, cold_decides)` —
    /// what the cluster daemon's per-session stats breakdown reports.
    /// `admits`/`rejects` are lifetime (they survive snapshot restore);
    /// the other three count since the session was (re)built in this
    /// process.
    #[must_use]
    pub fn counter_breakdown(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.admits,
            self.rejects,
            self.withdraws,
            self.warm_decides,
            self.cold_decides,
        )
    }

    fn record_decision(&mut self, record: DecisionRecord) {
        self.decision_log.push(record);
        if self.decision_log.len() > DECISION_LOG_CAP {
            let excess = self.decision_log.len() - DECISION_LOG_CAP;
            self.decision_log.drain(..excess);
        }
    }

    /// Validates a client-asserted decision seq against the session's
    /// counter. `Ok(None)` means the op is new and must be applied;
    /// `Ok(Some(record))` means it is a verified replay of that
    /// decision.
    fn check_seq(
        &self,
        seq: u64,
        fingerprint: u64,
        admit: bool,
    ) -> Result<Option<&DecisionRecord>, SessionError> {
        let next = self.decisions + 1;
        if seq == next {
            return Ok(None);
        }
        if seq > next {
            return Err(SessionError::SeqGap {
                expected: next,
                got: seq,
            });
        }
        let record = self
            .decision_log
            .iter()
            .find(|r| r.seq == seq)
            .ok_or(SessionError::SeqRetired(seq))?;
        if record.admit != admit || record.fingerprint != fingerprint {
            return Err(SessionError::SeqConflict(seq));
        }
        Ok(Some(record))
    }

    /// [`AdmissionSession::check_seq`], with a rejected conflict
    /// recorded as a flight event (the op never applies, so no counter
    /// moves — but the recorder keeps the evidence for post-mortems).
    fn checked_seq(
        &self,
        seq: u64,
        fingerprint: u64,
        admit: bool,
    ) -> Result<Option<&DecisionRecord>, SessionError> {
        let checked = self.check_seq(seq, fingerprint, admit);
        if let Err(SessionError::SeqConflict(_)) = &checked {
            if let Some(stats) = &self.config.stats {
                stats.record_seq_conflict(self.stats_label.as_deref(), Some(seq));
            }
        }
        checked
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The paper suite for the configured bound, with the stats
    /// registry's verdict observer installed when instrumentation is on
    /// — every solver verdict any path of this session produces then
    /// lands in the per-solver work table (and trace export) for free.
    fn build_registry(config: &SessionConfig) -> SolverRegistry {
        let mut registry = SolverRegistry::paper_suite(config.bound);
        if let Some(stats) = &config.stats {
            let stats = Arc::clone(stats);
            registry.set_verdict_hook(move |verdict| stats.observe_verdict(verdict));
        }
        registry
    }

    /// Opens (or replaces) the session with a full job set, evaluates the
    /// suite on it and streams each verdict through `sink` as its solver
    /// finishes. An empty job set (pipeline only) opens a session that
    /// grows purely through [`AdmissionSession::admit`] and streams no
    /// verdicts.
    ///
    /// Verdicts stream in registration order and are verdict-identical to
    /// [`SolverRegistry::evaluate`]. `_parallel` is ignored: the suite
    /// always runs sequentially (the parameter stays for existing callers).
    pub fn submit(
        &mut self,
        jobs: JobSet,
        _parallel: bool,
        mut sink: impl FnMut(&Verdict),
    ) -> Vec<Verdict> {
        let started = Instant::now();
        // A submit replaces the job set wholesale: no decider trace can
        // survive it (the first admit afterwards decides cold and
        // re-records), and the decision log's records describe dead
        // state (the counter itself stays monotonic).
        self.decision_log.clear();
        self.online = OnlineSuiteState::new();
        let analysis = Analysis::owned(jobs);
        let verdicts = if analysis.jobs().is_empty() {
            Vec::new()
        } else {
            // The suite evaluates over the session's freshly built
            // analysis (no second O(n²·N) pass), through the online seam
            // on the just-reset (blank) states: every solver decides cold
            // exactly once — verdict-identical to `evaluate_ctx` — and
            // records the trace the first admit fast-forwards from, with
            // no duplicate decider run.
            let ctx = SolveCtx::over(&analysis, self.config.budget());
            self.registry
                .evaluate_online(&mut self.online, &ctx, &mut sink)
        };
        let handles = (0..analysis.jobs().len())
            .map(|_| {
                let handle = self.next_handle;
                self.next_handle += 1;
                handle
            })
            .collect();
        self.state = Some(SessionState { analysis, handles });
        if let Some(stats) = &self.config.stats {
            stats.record_submit_for(
                self.stats_label.as_deref(),
                started.elapsed().as_micros() as u64,
            );
        }
        verdicts
    }

    /// Decides admission of one arriving job.
    ///
    /// The job joins the session's analysis in place, which computes only
    /// its row and column of the pair tables (no rebuild); the decider —
    /// and, with `evaluate`, the whole suite — runs on the extended set,
    /// each verdict streaming through `sink` as it is produced. A
    /// rejection takes the job back out, leaving the admitted set as it
    /// was.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoSession`] before the first submit,
    /// [`SessionError::InvalidJob`] for specs that do not fit the
    /// pipeline, [`SessionError::UnknownDecider`] when the configured
    /// decider is not registered.
    pub fn admit(
        &mut self,
        spec: &JobSpec,
        evaluate: bool,
        sink: impl FnMut(&Verdict),
    ) -> Result<AdmitOutcome, SessionError> {
        let started = Instant::now();
        if self.registry.solver(&self.config.decider).is_none() {
            return Err(SessionError::UnknownDecider(self.config.decider.clone()));
        }
        let state = self.state.as_mut().ok_or(SessionError::NoSession)?;
        state.analysis.push(spec.to_builder())?;

        // Decider states describe the *admitted* set; keep a copy so a
        // rejection can roll the warm state back with the analysis.
        let saved_online = self.online.clone();
        let verdicts = Self::decide(
            &self.registry,
            &self.config,
            &mut self.online,
            &state.analysis,
            evaluate,
            sink,
        );
        let accepted = verdicts
            .iter()
            .find(|v| v.solver == self.config.decider)
            .expect("decider is registered")
            .is_accepted();

        let handle = if accepted {
            self.admits += 1;
            let handle = self.next_handle;
            self.next_handle += 1;
            state.handles.push(handle);
            Some(handle)
        } else {
            self.rejects += 1;
            state.analysis.pop();
            self.online = saved_online;
            None
        };
        let jobs = state.analysis.jobs().len();
        self.observe_decider(&verdicts);
        self.decisions += 1;
        self.record_decision(DecisionRecord {
            seq: self.decisions,
            fingerprint: admit_fingerprint(spec),
            admit: true,
            admitted: accepted,
            handle,
            jobs: jobs as u64,
        });
        if let Some(stats) = &self.config.stats {
            stats.record_admit_for(
                self.stats_label.as_deref(),
                Some(self.decisions),
                accepted,
                started.elapsed().as_micros() as u64,
            );
        }
        Ok(AdmitOutcome {
            admitted: accepted,
            handle,
            jobs,
            verdicts,
        })
    }

    /// [`AdmissionSession::admit`] with seq-idempotent replay handling:
    /// `seq` is the client-asserted decision sequence number of this op
    /// (`None` opts out and always applies).
    ///
    /// When `seq` equals the next decision seq, the op is applied
    /// normally. When it names an *already-made* decision whose
    /// recorded fingerprint matches this op, nothing is re-applied: the
    /// recorded outcome is re-acked (empty verdict stream) with
    /// `deduped = true` — a duplicated or retried admit is acked but
    /// never double-admitted. Returns `(outcome, seq, deduped)`.
    ///
    /// # Errors
    ///
    /// Everything [`AdmissionSession::admit`] reports, plus
    /// [`SessionError::SeqGap`] for seqs from the future,
    /// [`SessionError::SeqConflict`] for replayed seqs whose op differs
    /// from the recorded decision, and [`SessionError::SeqRetired`] for
    /// seqs older than the bounded decision log.
    pub fn admit_seq(
        &mut self,
        spec: &JobSpec,
        evaluate: bool,
        seq: Option<u64>,
        sink: impl FnMut(&Verdict),
    ) -> Result<(AdmitOutcome, u64, bool), SessionError> {
        if let Some(seq) = seq {
            if let Some(record) = self.checked_seq(seq, admit_fingerprint(spec), true)? {
                let outcome = AdmitOutcome {
                    admitted: record.admitted,
                    handle: record.handle,
                    jobs: record.jobs as usize,
                    verdicts: Vec::new(),
                };
                if let Some(stats) = &self.config.stats {
                    stats.record_dedup_for(self.stats_label.as_deref(), Some(seq));
                }
                return Ok((outcome, seq, true));
            }
        }
        let outcome = self.admit(spec, evaluate, sink)?;
        Ok((outcome, self.decisions, false))
    }

    /// Removes a previously admitted job by its external handle and
    /// re-decides the reduced set through the online seam, streaming each
    /// verdict through `sink` as it is produced (the decider alone, or —
    /// with `evaluate` — the full suite with implication shortcuts,
    /// byte-identical to a cold [`SolverRegistry::evaluate`] of the
    /// reduced set modulo wall-clock provenance fields).
    ///
    /// The victim leaves by **swap-removal** ([`Analysis::swap_remove`]):
    /// the most recently admitted job moves into the victim's internal
    /// slot and the pair tables are patched in `O(n·N)` — no withdrawal
    /// pays the `O(n²·N)` rebuild.
    /// External handles are stable throughout (only internal ids move).
    /// A departure can shrink any job's bounds, so no recorded trace
    /// provably survives it: the decider decides the reduced set cold on
    /// the patched tables and records the trace the next admit
    /// fast-forwards from.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoSession`] before the first submit,
    /// [`SessionError::UnknownHandle`] for unknown handles,
    /// [`SessionError::UnknownDecider`] when the configured decider is
    /// not registered.
    pub fn withdraw(
        &mut self,
        handle: u64,
        evaluate: bool,
        sink: impl FnMut(&Verdict),
    ) -> Result<WithdrawOutcome, SessionError> {
        let started = Instant::now();
        if self.registry.solver(&self.config.decider).is_none() {
            return Err(SessionError::UnknownDecider(self.config.decider.clone()));
        }
        let state = self.state.as_mut().ok_or(SessionError::NoSession)?;
        let index = state
            .handles
            .iter()
            .position(|&h| h == handle)
            .ok_or(SessionError::UnknownHandle(handle))?;
        state.analysis.swap_remove(JobId::new(index));
        state.handles.swap_remove(index);

        let verdicts = if state.analysis.jobs().is_empty() {
            // An emptied session streams no verdicts (mirroring the
            // empty-submit case) and has nothing to keep warm.
            self.online = OnlineSuiteState::new();
            Vec::new()
        } else {
            Self::decide(
                &self.registry,
                &self.config,
                &mut self.online,
                &state.analysis,
                evaluate,
                sink,
            )
        };
        let jobs = state.analysis.jobs().len();
        self.withdraws += 1;
        self.observe_decider(&verdicts);
        self.decisions += 1;
        self.record_decision(DecisionRecord {
            seq: self.decisions,
            fingerprint: withdraw_fingerprint(handle),
            admit: false,
            admitted: true,
            handle: Some(handle),
            jobs: jobs as u64,
        });
        if let Some(stats) = &self.config.stats {
            stats.record_withdraw_for(
                self.stats_label.as_deref(),
                Some(self.decisions),
                started.elapsed().as_micros() as u64,
            );
        }
        Ok(WithdrawOutcome { jobs, verdicts })
    }

    /// [`AdmissionSession::withdraw`] with seq-idempotent replay
    /// handling — the withdraw counterpart of
    /// [`AdmissionSession::admit_seq`]: a replayed withdraw whose seq
    /// names the recorded decision for the same handle is re-acked
    /// without re-applying (so a duplicated withdraw cannot evict a
    /// second victim). Returns `(outcome, seq, deduped)`.
    ///
    /// # Errors
    ///
    /// Everything [`AdmissionSession::withdraw`] reports, plus the seq
    /// errors of [`AdmissionSession::admit_seq`].
    pub fn withdraw_seq(
        &mut self,
        handle: u64,
        evaluate: bool,
        seq: Option<u64>,
        sink: impl FnMut(&Verdict),
    ) -> Result<(WithdrawOutcome, u64, bool), SessionError> {
        if let Some(seq) = seq {
            if let Some(record) = self.checked_seq(seq, withdraw_fingerprint(handle), false)? {
                let outcome = WithdrawOutcome {
                    jobs: record.jobs as usize,
                    verdicts: Vec::new(),
                };
                if let Some(stats) = &self.config.stats {
                    stats.record_dedup_for(self.stats_label.as_deref(), Some(seq));
                }
                return Ok((outcome, seq, true));
            }
        }
        let outcome = self.withdraw(handle, evaluate, sink)?;
        Ok((outcome, self.decisions, false))
    }

    /// Decides the session's `analysis` through the online seam — the
    /// full suite with `evaluate`, else `config`'s decider alone —
    /// streaming each verdict through `sink` as it is produced. The
    /// caller has checked that the decider is registered.
    fn decide(
        registry: &SolverRegistry,
        config: &SessionConfig,
        online: &mut OnlineSuiteState,
        analysis: &Analysis<'_>,
        evaluate: bool,
        mut sink: impl FnMut(&Verdict),
    ) -> Vec<Verdict> {
        let ctx = SolveCtx::over(analysis, config.budget());
        if evaluate {
            registry.evaluate_online(online, &ctx, &mut sink)
        } else {
            let verdict = registry
                .decide_online(&config.decider, online, &ctx)
                .expect("decider is registered");
            sink(&verdict);
            vec![verdict]
        }
    }

    /// The current session snapshot.
    #[must_use]
    pub fn status(&self) -> SessionStatus {
        let (jobs, stages, admitted) = match &self.state {
            Some(state) => (
                state.analysis.jobs().len(),
                state.analysis.jobs().stage_count(),
                state.handles.clone(),
            ),
            None => (0, 0, Vec::new()),
        };
        SessionStatus {
            jobs,
            stages,
            admitted,
            admits: self.admits,
            rejects: self.rejects,
            solvers: self
                .registry
                .names()
                .into_iter()
                .map(ToString::to_string)
                .collect(),
            decider: self.config.decider.clone(),
        }
    }

    /// The admitted job set, if a session is open (mainly for tests and
    /// offline verification).
    #[must_use]
    pub fn jobs(&self) -> Option<&JobSet> {
        self.state.as_ref().map(|state| state.analysis.jobs())
    }

    /// The warm pair tables, if a session is open (tests and cache
    /// introspection).
    #[must_use]
    pub fn tables(&self) -> Option<&PairTables> {
        self.state.as_ref().map(|state| state.analysis.tables())
    }

    /// The warm per-solver decider states of the online seam
    /// (introspection; updated by every `admit`/`withdraw`, reset by
    /// `submit`).
    #[must_use]
    pub fn online_state(&self) -> &OnlineSuiteState {
        &self.online
    }

    /// Captures the session's durable state — the admitted job set, the
    /// handle bookkeeping and the lifetime counters — as a serializable
    /// [`SessionImage`]. The warm tables are deliberately *not* part of
    /// the image: [`AdmissionSession::from_image`] rebuilds them with
    /// [`Analysis::owned`], which is both smaller on disk and immune to
    /// cache-layout drift between daemon versions. Returns `None` before
    /// the first submit.
    #[must_use]
    pub fn image(&self) -> Option<SessionImage> {
        self.state.as_ref().map(|state| SessionImage {
            jobs: state.analysis.jobs().clone(),
            handles: state.handles.clone(),
            next_handle: self.next_handle,
            admits: self.admits,
            rejects: self.rejects,
            decisions: Some(self.decisions),
            decision_log: Some(self.decision_log.clone()),
        })
    }

    /// Rebuilds a session from a [`SessionImage`] (snapshot restore):
    /// the job set is re-validated, its analysis is rebuilt with
    /// [`Analysis::owned`] and arrives warm, and handle/counter
    /// bookkeeping resumes where the image left off. The next handle is
    /// past every handle the image names, its decision log's included, so
    /// no new job takes a handle a replayed seq re-acks.
    ///
    /// # Errors
    ///
    /// [`SessionError::InvalidJob`] when the image's job set violates the
    /// model invariants (e.g. a hand-edited snapshot file), its handle
    /// list does not match the job count or repeats a handle, or its
    /// decision log holds a seq past the image's decision counter or seqs
    /// that are not strictly increasing.
    pub fn from_image(
        config: SessionConfig,
        image: SessionImage,
    ) -> Result<AdmissionSession, SessionError> {
        let jobs = image.jobs.sanitized()?;
        if image.handles.len() != jobs.len() {
            return Err(SessionError::InvalidJob(format!(
                "snapshot lists {} handles for {} jobs",
                image.handles.len(),
                jobs.len()
            )));
        }
        let mut seen = std::collections::HashSet::with_capacity(image.handles.len());
        if let Some(handle) = image.handles.iter().find(|&&handle| !seen.insert(handle)) {
            return Err(SessionError::InvalidJob(format!(
                "snapshot lists handle {handle} twice"
            )));
        }
        let decisions = image.decisions.unwrap_or(0);
        let decision_log = image.decision_log.unwrap_or_default();
        if let Some(record) = decision_log.iter().find(|record| record.seq > decisions) {
            return Err(SessionError::InvalidJob(format!(
                "snapshot logs decision seq {} past its counter {decisions}",
                record.seq
            )));
        }
        // A repeated seq would shadow its later record: a replay of it
        // would be acked with the first one's outcome.
        if let Some(pair) = decision_log
            .windows(2)
            .find(|pair| pair[1].seq <= pair[0].seq)
        {
            return Err(SessionError::InvalidJob(format!(
                "snapshot logs decision seq {} after seq {}",
                pair[1].seq, pair[0].seq
            )));
        }
        let min_next = image
            .handles
            .iter()
            .chain(
                decision_log
                    .iter()
                    .filter_map(|record| record.handle.as_ref()),
            )
            .max()
            .map_or(1, |&max| max.saturating_add(1));
        let registry = Self::build_registry(&config);
        Ok(AdmissionSession {
            config,
            registry,
            state: Some(SessionState {
                analysis: Analysis::owned(jobs),
                handles: image.handles,
            }),
            online: OnlineSuiteState::new(),
            admits: image.admits,
            rejects: image.rejects,
            // Withdrawals and the warm/cold split are process-local
            // observability counters, not durable state — they restart
            // at 0 (the frame docs say so).
            withdraws: 0,
            warm_decides: 0,
            cold_decides: 0,
            stats_label: None,
            next_handle: image.next_handle.max(min_next),
            // Pre-seq snapshots restore with a fresh counter (seq 1 is
            // the first post-restore decision, as before) and an empty
            // log; current snapshots resume exactly where they stopped,
            // which is what makes cross-restart idempotent resume work.
            decisions,
            decision_log,
        })
    }
}

/// The durable state of an [`AdmissionSession`], as persisted by the
/// cluster snapshot subsystem: everything needed to resume admission
/// control after a daemon restart *except* the warm state. The pair
/// tables are rebuilt by [`AdmissionSession::from_image`] with
/// [`Analysis::owned`]; the decider states are not kept at all, so the
/// first admit after a restore decides cold and records them afresh. An
/// image written by an older build may still carry an `online` key with
/// those states; parsing ignores it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionImage {
    /// The admitted job set (pipeline included).
    pub jobs: JobSet,
    /// External handle of each admitted job, indexed by internal id.
    pub handles: Vec<u64>,
    /// The next handle the session will assign.
    pub next_handle: u64,
    /// Lifetime admit count.
    pub admits: u64,
    /// Lifetime reject count.
    pub rejects: u64,
    /// The decision counter at snapshot time, so post-restore seqs
    /// continue the pre-crash sequence (`None` in older snapshots,
    /// which restart at 0 as they always did).
    pub decisions: Option<u64>,
    /// The bounded decision log at snapshot time, so replayed ops from
    /// resuming clients still dedupe across a restart (`None` in older
    /// snapshots).
    pub decision_log: Option<Vec<DecisionRecord>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StageDemand;
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
    use msmr_sched::Budget;

    fn pipeline_only() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("up", 2, PreemptionPolicy::Preemptive)
            .stage("srv", 2, PreemptionPolicy::Preemptive)
            .stage("down", 2, PreemptionPolicy::Preemptive);
        b.build().unwrap()
    }

    fn spec(times: [u64; 3], resource: u64, deadline: u64) -> JobSpec {
        JobSpec {
            arrival: 0,
            deadline,
            stages: times
                .iter()
                .map(|&time| StageDemand { time, resource })
                .collect(),
        }
    }

    #[test]
    fn admit_streams_verdicts_identical_to_offline_evaluate() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        let mut mirror = pipeline_only();
        for i in 0..6u64 {
            let spec = spec([3 + i, 7, 4], i % 2, 60);
            let mut streamed = Vec::new();
            let outcome = session
                .admit(&spec, true, |v| streamed.push(v.clone()))
                .unwrap();
            assert_eq!(outcome.verdicts, streamed);

            // Offline reference: a fresh registry evaluation of the
            // candidate set, analysis built from scratch.
            let (candidate, _) = mirror.with_job(spec.to_builder()).unwrap();
            let registry = SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid);
            let offline = registry.evaluate(&candidate, Budget::default().with_node_limit(200_000));
            let normalize = |mut v: Verdict| {
                v.stats.elapsed_micros = 0;
                v.stats.cold_fallback = None;
                v
            };
            let streamed: Vec<Verdict> = streamed.into_iter().map(normalize).collect();
            let offline: Vec<Verdict> = offline.into_iter().map(normalize).collect();
            assert_eq!(streamed, offline, "arrival {i}");

            if outcome.admitted {
                mirror = candidate;
            }
        }
        assert_eq!(session.jobs().unwrap().len(), mirror.len());
    }

    #[test]
    fn rejection_rolls_the_session_back() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        // Two comfortable jobs...
        for _ in 0..2 {
            let outcome = session
                .admit(&spec([5, 5, 5], 0, 200), false, |_| {})
                .unwrap();
            assert!(outcome.admitted);
        }
        // ...then an impossible one (deadline below its own processing).
        let outcome = session
            .admit(&spec([50, 50, 50], 0, 20), false, |_| {})
            .unwrap();
        assert!(!outcome.admitted);
        assert_eq!(outcome.handle, None);
        assert_eq!(outcome.jobs, 2);
        let status = session.status();
        assert_eq!(status.jobs, 2);
        assert_eq!(status.admits, 2);
        assert_eq!(status.rejects, 1);
        // The rolled-back session keeps admitting correctly.
        let outcome = session
            .admit(&spec([4, 4, 4], 1, 200), false, |_| {})
            .unwrap();
        assert!(outcome.admitted);
        assert_eq!(outcome.jobs, 3);
    }

    #[test]
    fn withdraw_frees_capacity_and_keeps_handles_stable() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        let h1 = session
            .admit(&spec([5, 5, 5], 0, 200), false, |_| {})
            .unwrap()
            .handle
            .unwrap();
        let h2 = session
            .admit(&spec([6, 6, 6], 1, 200), false, |_| {})
            .unwrap()
            .handle
            .unwrap();
        assert_ne!(h1, h2);
        assert_eq!(session.withdraw(h1, false, |_| {}).unwrap().jobs, 1);
        let status = session.status();
        assert_eq!(status.admitted, vec![h2]);
        assert_eq!(
            session.withdraw(h1, false, |_| {}).unwrap_err(),
            SessionError::UnknownHandle(h1)
        );
        // The survivor's parameters are intact after the renumbering.
        let jobs = session.jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs.job(JobId::new(0)).processing(0.into()), Time::new(6));
    }

    /// Behavioural bit-for-bit equality of two pair tables: identical
    /// masks, and identical evaluator delay/fit/slack for every bound
    /// kind under both id order and reversed id order (every value the
    /// solvers can ever read).
    fn assert_tables_identical(a: &PairTables, b: &PairTables) {
        use msmr_dca::DelayEvaluator;
        assert_eq!(a.job_count(), b.job_count());
        assert_eq!(a.stage_count(), b.stage_count());
        let n = a.job_count();
        for t in 0..n {
            let id = JobId::new(t);
            assert_eq!(a.interference_mask(id), b.interference_mask(id));
            assert_eq!(a.competitor_mask(id), b.competitor_mask(id));
        }
        let forward: Vec<JobId> = (0..n).map(JobId::new).collect();
        let reversed: Vec<JobId> = (0..n).rev().map(JobId::new).collect();
        for order in [forward, reversed] {
            for kind in DelayBoundKind::all() {
                let mut ea = DelayEvaluator::new(a, kind);
                let mut eb = DelayEvaluator::new(b, kind);
                for (pos, &t) in order.iter().enumerate() {
                    for &h in &order[..pos] {
                        ea.add_higher(t, h);
                        eb.add_higher(t, h);
                    }
                    for &l in &order[pos + 1..] {
                        ea.add_lower(t, l);
                        eb.add_lower(t, l);
                    }
                }
                for &t in &order {
                    assert_eq!(ea.delay(t), eb.delay(t), "{kind}: target {t}");
                    assert_eq!(ea.fits(t), eb.fits(t), "{kind}: target {t}");
                    assert_eq!(ea.slack(t), eb.slack(t), "{kind}: target {t}");
                }
            }
        }
    }

    #[test]
    fn withdrawing_the_last_admitted_job_skips_the_rebuild_bit_identically() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        let mut handles = Vec::new();
        for i in 0..5u64 {
            let outcome = session
                .admit(&spec([3 + i, 5, 2 + i], i % 2, 300), false, |_| {})
                .unwrap();
            handles.push(outcome.handle.expect("roomy deadline admits"));
        }

        // Fast path: the victim is the most recently admitted job.
        let last = *handles.last().unwrap();
        assert_eq!(session.withdraw(last, false, |_| {}).unwrap().jobs, 4);
        let rebuilt = Analysis::new(session.jobs().unwrap());
        assert_tables_identical(session.tables().unwrap(), rebuilt.tables());

        // The rolled-back session keeps admitting identically to a
        // freshly rebuilt one.
        let outcome = session
            .admit(&spec([2, 2, 2], 1, 300), false, |_| {})
            .unwrap();
        assert!(outcome.admitted);
        assert_eq!(outcome.jobs, 5);

        // Slow path for comparison: a middle withdrawal renumbers and
        // rebuilds, and still matches the from-scratch analysis.
        assert_eq!(session.withdraw(handles[1], false, |_| {}).unwrap().jobs, 4);
        let rebuilt = Analysis::new(session.jobs().unwrap());
        assert_tables_identical(session.tables().unwrap(), rebuilt.tables());
    }

    #[test]
    fn image_round_trips_and_resumes_admission() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        for i in 0..4u64 {
            session
                .admit(&spec([2 + i, 3, 4], i % 2, 200), false, |_| {})
                .unwrap();
        }
        session
            .admit(&spec([90, 90, 90], 0, 10), false, |_| {})
            .unwrap(); // a reject, so the counters differ
        let image = session.image().expect("session open");

        // Through JSON, as the snapshot subsystem stores it.
        let json = serde_json::to_string(&image).unwrap();
        let parsed: SessionImage = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, image);

        let mut restored = AdmissionSession::from_image(SessionConfig::default(), parsed).unwrap();
        assert_eq!(restored.status(), session.status());
        assert_tables_identical(restored.tables().unwrap(), session.tables().unwrap());

        // Both sessions admit the next arrival identically, and the
        // restored one hands out fresh handles.
        let next = spec([3, 3, 3], 1, 250);
        let a = session.admit(&next, false, |_| {}).unwrap();
        let b = restored.admit(&next, false, |_| {}).unwrap();
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.handle, b.handle, "handle sequences stay aligned");
    }

    #[test]
    fn image_bytes_do_not_depend_on_the_bound_cache() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        for i in 0..5u64 {
            session
                .admit(&spec([2 + i, 3, 4], i % 2, 120), false, |_| {})
                .unwrap();
        }
        session
            .admit(&spec([90, 90, 90], 0, 10), false, |_| {})
            .unwrap();
        let h = session.status().admitted[2];
        session.withdraw(h, false, |_| {}).unwrap();
        session
            .admit(&spec([4, 4, 4], 1, 200), false, |_| {})
            .unwrap();

        let Some(msmr_sched::DeciderState::Audsley(trace)) =
            session.online_state().states.get("OPDCA")
        else {
            panic!("the decider left its trace behind");
        };
        assert!(trace.cache.is_some(), "a warm session holds the cache");
        // The image holds no decider state at all ...
        let json = serde_json::to_string(&session.image().unwrap()).unwrap();
        assert!(!json.contains("\"online\""), "{json}");
        // ... so a restore starts blank, and its image is the same bytes
        // again.
        let parsed: SessionImage = serde_json::from_str(&json).unwrap();
        let restored = AdmissionSession::from_image(SessionConfig::default(), parsed).unwrap();
        assert!(restored.online_state().is_empty());
        assert_eq!(
            serde_json::to_string(&restored.image().unwrap()).unwrap(),
            json
        );
    }

    #[test]
    fn image_carries_the_warm_decider_state_through_restore() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        for i in 0..4u64 {
            session
                .admit(&spec([2 + i, 3, 4], i % 2, 300), true, |_| {})
                .unwrap();
        }
        let h = session.status().admitted[1];
        session.withdraw(h, true, |_| {}).unwrap();
        assert!(
            !session.online_state().is_empty(),
            "online ops must leave decider state behind"
        );

        // The image carries no decider state: the restored session starts
        // blank ...
        let json = serde_json::to_string(&session.image().unwrap()).unwrap();
        let parsed: SessionImage = serde_json::from_str(&json).unwrap();
        let mut restored = AdmissionSession::from_image(SessionConfig::default(), parsed).unwrap();
        assert!(restored.online_state().is_empty());

        // ... decides the next op cold, byte-identical to the uninterrupted
        // session's warm decide, and records the same trace.
        let next = spec([3, 3, 3], 1, 250);
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        let a = restored
            .admit(&next, true, |v| cold.push(v.clone()))
            .unwrap();
        let b = session
            .admit(&next, true, |v| warm.push(v.clone()))
            .unwrap();
        assert!(a.admitted && b.admitted);
        let normalize = |v: &Verdict| {
            let mut v = v.clone();
            v.stats.elapsed_micros = 0;
            v.stats.cold_fallback = None;
            v
        };
        assert_eq!(
            cold.iter().map(normalize).collect::<Vec<_>>(),
            warm.iter().map(normalize).collect::<Vec<_>>()
        );
        assert_eq!(restored.online_state(), session.online_state());
    }

    #[test]
    fn withdraw_streams_verdicts_identical_to_cold_evaluate_of_the_reduced_set() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        let mut handles = Vec::new();
        for i in 0..6u64 {
            let outcome = session
                .admit(&spec([3 + i, 5, 2], i % 2, 400), false, |_| {})
                .unwrap();
            handles.push(outcome.handle.expect("roomy deadline admits"));
        }
        // Mid-set victim: the general swap-removal path.
        let victim = handles[2];
        let mut streamed = Vec::new();
        let outcome = session
            .withdraw(victim, true, |v| streamed.push(v.clone()))
            .unwrap();
        assert_eq!(outcome.jobs, 5);
        assert_eq!(outcome.verdicts, streamed);

        let registry = SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid);
        let offline = registry.evaluate(
            session.jobs().unwrap(),
            Budget::default().with_node_limit(200_000),
        );
        let normalize = |v: &Verdict| {
            let mut v = v.clone();
            v.stats.elapsed_micros = 0;
            v.stats.cold_fallback = None;
            v
        };
        assert_eq!(
            streamed.iter().map(normalize).collect::<Vec<_>>(),
            offline.iter().map(normalize).collect::<Vec<_>>()
        );

        // The warm tables equal a from-scratch rebuild of the swap-removed
        // set.
        let rebuilt = Analysis::new(session.jobs().unwrap());
        assert_tables_identical(session.tables().unwrap(), rebuilt.tables());

        // Withdrawing down to empty streams nothing and resets state.
        for &h in handles.iter().filter(|&&h| h != victim) {
            let outcome = session.withdraw(h, true, |_| {}).unwrap();
            if outcome.jobs == 0 {
                assert!(outcome.verdicts.is_empty());
            }
        }
        assert_eq!(session.status().jobs, 0);
        assert!(session.online_state().is_empty());
    }

    #[test]
    fn corrupt_images_are_typed_errors() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        session
            .admit(&spec([2, 2, 2], 0, 200), false, |_| {})
            .unwrap();
        session
            .admit(&spec([2, 2, 2], 0, 200), false, |_| {})
            .unwrap();
        let good = session.image().unwrap();
        assert!(AdmissionSession::from_image(SessionConfig::default(), good.clone()).is_ok());
        let corrupt = |edit: fn(&mut SessionImage), what: &str| {
            let mut image = good.clone();
            edit(&mut image);
            let Err(error) = AdmissionSession::from_image(SessionConfig::default(), image) else {
                panic!("{what} must be rejected");
            };
            assert!(matches!(error, SessionError::InvalidJob(_)), "{what}");
        };
        corrupt(|image| image.handles.push(99), "one handle too many");
        corrupt(
            |image| image.handles = vec![1, 1],
            "one handle naming two jobs",
        );
        corrupt(
            |image| image.decision_log.as_mut().unwrap()[0].seq = 3,
            "a logged seq past the decision counter",
        );
        corrupt(
            |image| image.decision_log.as_mut().unwrap()[1].seq = 1,
            "a logged seq repeated",
        );
        corrupt(
            |image| image.decision_log.as_mut().unwrap().swap(0, 1),
            "logged seqs going backwards",
        );
    }

    #[test]
    fn from_image_hands_out_no_handle_its_log_names() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        for i in 0..3u64 {
            let outcome = session
                .admit(&spec([2 + i, 2, 2], i % 2, 300), false, |_| {})
                .unwrap();
            assert_eq!(outcome.handle, Some(i + 1));
        }
        session.withdraw(3, false, |_| {}).unwrap();
        // An image whose counter lags behind its own log: handle 3 is
        // named by an admit record and by the withdraw record.
        let mut image = session.image().unwrap();
        image.next_handle = 3;
        let logged: Vec<u64> = image
            .decision_log
            .iter()
            .flatten()
            .filter_map(|record| record.handle)
            .collect();
        assert!(logged.contains(&3));
        let mut restored = AdmissionSession::from_image(SessionConfig::default(), image).unwrap();
        let outcome = restored
            .admit(&spec([2, 2, 2], 1, 300), false, |_| {})
            .unwrap();
        let handle = outcome.handle.expect("roomy deadline admits");
        assert!(!logged.contains(&handle), "handle {handle} is in the log");
    }

    #[test]
    fn errors_are_typed() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        assert_eq!(
            session
                .admit(&spec([1, 1, 1], 0, 50), false, |_| {})
                .unwrap_err(),
            SessionError::NoSession
        );
        assert_eq!(
            session.withdraw(3, false, |_| {}).unwrap_err(),
            SessionError::NoSession
        );
        session.submit(pipeline_only(), false, |_| {});
        session
            .admit(&spec([2, 2, 2], 0, 200), false, |_| {})
            .unwrap();
        let image = session.image();
        let generation = session.tables().unwrap().generation();
        // Wrong stage count: refused before anything changes.
        let bad = JobSpec {
            arrival: 0,
            deadline: 50,
            stages: vec![StageDemand {
                time: 1,
                resource: 0,
            }],
        };
        assert!(matches!(
            session.admit(&bad, false, |_| {}).unwrap_err(),
            SessionError::InvalidJob(_)
        ));
        assert_eq!(session.image(), image);
        assert_eq!(session.tables().unwrap().generation(), generation);
        // Unknown decider.
        let mut session = AdmissionSession::new(SessionConfig {
            decider: "NOPE".to_string(),
            ..SessionConfig::default()
        });
        session.submit(pipeline_only(), false, |_| {});
        assert_eq!(
            session
                .admit(&spec([1, 1, 1], 0, 50), false, |_| {})
                .unwrap_err(),
            SessionError::UnknownDecider("NOPE".to_string())
        );
    }

    #[test]
    fn submit_warm_starts_the_decider_and_the_first_admit_matches_cold() {
        let mut b = JobSetBuilder::new();
        b.stage("a", 2, PreemptionPolicy::Preemptive)
            .stage("b", 2, PreemptionPolicy::Preemptive)
            .stage("c", 2, PreemptionPolicy::Preemptive);
        for i in 0..5u64 {
            b.job()
                .deadline(Time::new(300))
                .stage_time(Time::new(3 + i), (i % 2) as usize)
                .stage_time(Time::new(4), ((i + 1) % 2) as usize)
                .stage_time(Time::new(2), (i % 2) as usize)
                .add()
                .unwrap();
        }
        let jobs = b.build().unwrap();
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(jobs.clone(), false, |_| {});
        // The submit's online evaluation recorded the decider's trace.
        assert!(matches!(
            session.online_state().states.get("OPDCA"),
            Some(msmr_sched::DeciderState::Audsley(_))
        ));

        // The first admit fast-forwards from that trace and is still
        // byte-identical to a cold offline evaluation.
        let next = spec([2, 2, 2], 1, 250);
        let mut streamed = Vec::new();
        session
            .admit(&next, true, |v| streamed.push(v.clone()))
            .unwrap();
        let (candidate, _) = jobs.with_job(next.to_builder()).unwrap();
        let registry = SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid);
        let offline = registry.evaluate(&candidate, Budget::default().with_node_limit(200_000));
        let normalize = |v: &Verdict| {
            let mut v = v.clone();
            v.stats.elapsed_micros = 0;
            v.stats.cold_fallback = None;
            v
        };
        assert_eq!(
            streamed.iter().map(normalize).collect::<Vec<_>>(),
            offline.iter().map(normalize).collect::<Vec<_>>()
        );
    }

    #[test]
    fn seq_idempotent_replay_applies_exactly_once() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        let good = spec([3, 3, 3], 0, 200);

        // A fresh op with the next seq applies normally.
        let (first, seq, deduped) = session.admit_seq(&good, false, Some(1), |_| {}).unwrap();
        assert!(first.admitted);
        assert_eq!((seq, deduped), (1, false));
        assert_eq!(session.decisions(), 1);

        // The duplicated op is acked from the log, not re-applied: the
        // session still holds one job and streams no verdicts.
        let mut streamed = 0;
        let (replay, seq, deduped) = session
            .admit_seq(&good, false, Some(1), |_| streamed += 1)
            .unwrap();
        assert_eq!((seq, deduped, streamed), (1, true, 0));
        assert_eq!(replay.admitted, first.admitted);
        assert_eq!(replay.handle, first.handle);
        assert_eq!(replay.jobs, 1);
        assert_eq!(session.decisions(), 1);
        assert_eq!(session.status().jobs, 1);

        // A *different* op replayed under a consumed seq is a typed
        // conflict; a seq from the future is a typed gap.
        let other = spec([4, 4, 4], 1, 200);
        assert_eq!(
            session
                .admit_seq(&other, false, Some(1), |_| {})
                .unwrap_err(),
            SessionError::SeqConflict(1)
        );
        assert_eq!(
            session
                .admit_seq(&other, false, Some(5), |_| {})
                .unwrap_err(),
            SessionError::SeqGap {
                expected: 2,
                got: 5
            }
        );

        // Withdraw replays dedupe the same way (and cannot evict a
        // second victim).
        let handle = first.handle.unwrap();
        let (w, seq, deduped) = session
            .withdraw_seq(handle, false, Some(2), |_| {})
            .unwrap();
        assert_eq!((w.jobs, seq, deduped), (0, 2, false));
        let (w, seq, deduped) = session
            .withdraw_seq(handle, false, Some(2), |_| {})
            .unwrap();
        assert_eq!((w.jobs, seq, deduped), (0, 2, true));
        // An admit replayed under the withdraw's seq conflicts.
        assert_eq!(
            session
                .admit_seq(&good, false, Some(2), |_| {})
                .unwrap_err(),
            SessionError::SeqConflict(2)
        );
        // Without a seq the op always applies (opt-out path).
        let (_, seq, deduped) = session.admit_seq(&good, false, None, |_| {}).unwrap();
        assert_eq!((seq, deduped), (3, false));
    }

    #[test]
    fn decision_seq_and_log_survive_the_image_round_trip() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        let good = spec([3, 3, 3], 0, 200);
        let (outcome, _, _) = session.admit_seq(&good, false, Some(1), |_| {}).unwrap();
        assert!(outcome.admitted);

        let image = session.image().unwrap();
        let json = serde_json::to_string(&image).unwrap();
        let parsed: SessionImage = serde_json::from_str(&json).unwrap();
        let mut restored = AdmissionSession::from_image(SessionConfig::default(), parsed).unwrap();

        // The restored session continues the seq and still dedupes the
        // pre-restart decision — the crash-resume property.
        assert_eq!(restored.decisions(), 1);
        let (replay, seq, deduped) = restored.admit_seq(&good, false, Some(1), |_| {}).unwrap();
        assert_eq!((seq, deduped), (1, true));
        assert_eq!(replay.handle, outcome.handle);
        let (fresh, seq, deduped) = restored
            .admit_seq(&spec([2, 2, 2], 1, 200), false, Some(2), |_| {})
            .unwrap();
        assert!(fresh.admitted);
        assert_eq!((seq, deduped), (2, false));

        // Legacy images without the fields restore with a fresh counter.
        let mut legacy = session.image().unwrap();
        legacy.decisions = None;
        legacy.decision_log = None;
        let restored = AdmissionSession::from_image(SessionConfig::default(), legacy).unwrap();
        assert_eq!(restored.decisions(), 0);
    }

    #[test]
    fn decision_log_is_bounded_and_retired_seqs_are_typed() {
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(pipeline_only(), false, |_| {});
        let good = spec([1, 1, 1], 0, 10_000);
        let handle = session.admit(&good, false, |_| {}).unwrap().handle.unwrap();
        // Churn the log far past its cap with withdraw/admit pairs of
        // the same job (session size stays tiny, decisions grow).
        let mut h = handle;
        for _ in 0..DECISION_LOG_CAP {
            session.withdraw(h, false, |_| {}).unwrap();
            h = session.admit(&good, false, |_| {}).unwrap().handle.unwrap();
        }
        assert!(session.decisions() > DECISION_LOG_CAP as u64);
        assert_eq!(
            session
                .admit_seq(&good, false, Some(1), |_| {})
                .unwrap_err(),
            SessionError::SeqRetired(1)
        );
    }
}
