//! The newline-delimited JSON wire protocol of the admission service.
//!
//! Every line a client writes is one [`Request`]; every line the daemon
//! writes back is one [`Response`] carrying the request's `id`. A request
//! produces a *stream* of frames — one [`Frame::Verdict`] per solver as it
//! finishes, then an operation-specific result frame — and is always
//! terminated by exactly one [`Frame::Done`] (also after errors), so
//! clients can multiplex without guessing. See the crate-level docs for a
//! worked transcript.
//!
//! # Versioning
//!
//! [`PROTOCOL_VERSION`] is `5`. The version history:
//!
//! * **v1** carried the five original ops (`submit`, `admit`,
//!   `withdraw`, `status`, `shutdown`), whose request encodings are
//!   unchanged on the wire to this day.
//! * **v2** added the cluster ops ([`Op::Attach`], [`Op::Detach`],
//!   [`Op::Snapshot`], [`Op::Restore`]) and new frames
//!   ([`Frame::Attach`] and friends, plus the typed [`Frame::Overload`]
//!   backpressure response), and the [`AdmitFrame`] gained an optional
//!   per-session decision sequence number `seq` — a positive number on
//!   named sessions, serialized as `null` by the per-connection server
//!   of the time (see the last entry).
//! * **v3** routed `withdraw` through the stateful online solver seam:
//!   a withdrawal now streams [`Frame::Verdict`]s for the reduced set
//!   before its [`WithdrawFrame`], [`WithdrawOp`] gained the optional
//!   `evaluate` flag (full suite vs decider only) and [`WithdrawFrame`]
//!   gained the shared decision `seq`.
//! * **v4** added the observability op [`Op::Stats`], answered with a
//!   [`Frame::Stats`] carrying a full
//!   [`msmr_stats::StatsSnapshot`] — daemon-wide monotonic counters,
//!   gauges, per-op latency percentiles, the per-solver work table and
//!   one row per named session. Every older op is byte-unchanged. The same
//!   snapshot is also served out-of-band by the daemon's
//!   `--stats-addr` side channel, so scrapers need not compete with
//!   admission traffic.
//! * **v5** made the decision `seq` writable by clients for
//!   **seq-idempotent resume**: [`AdmitOp`] and [`WithdrawOp`] gained an
//!   optional `seq` the client asserts for the decision it expects this
//!   op to be, [`AdmitFrame`]/[`WithdrawFrame`] gained an optional
//!   `deduped` marker, and [`AttachFrame`] gained the session's current
//!   `decisions` counter so a resuming client learns the daemon's seq
//!   horizon. Every older op and frame is byte-unchanged.
//! * **v5 (late addition, no version bump)**: [`StatsOp`] gained an
//!   optional `session` argument. Absent, the op and its
//!   [`Frame::Stats`] answer are byte-identical to v4; naming a session
//!   asks the cluster daemon for that session's breakdown, answered
//!   with the new [`Frame::SessionStats`]. Old clients never send the
//!   field and never see the new frame, and new daemons parse old
//!   `{"Stats":{}}` encodings as `session: None`, so the wire version
//!   stays 5.
//! * **v5 (distributed tier, no wire change)**: the `msmr-router`
//!   admission tier went in front of K cluster daemons with **zero**
//!   protocol changes — by design. The router parses request lines only
//!   to pick the owning backend and relays response bytes verbatim, so
//!   every byte a client sees is a daemon's own; its control exchanges
//!   (health, failover restores, migration, stats scrapes) reuse the
//!   existing named `snapshot`/`restore`/`stats` ops under the reserved
//!   request id `u64::MAX`, which the router refuses from clients. The
//!   `migrate`/`backends`/`routes` admin commands are out-of-band on
//!   the router's `--admin-addr` line channel, not protocol ops.
//! * **v5 (one request path, no wire-shape change)**: the second,
//!   per-connection server is gone; one engine interprets every request
//!   and "classic mode" is a connection's *start state* — bound to a
//!   private session of its own unless the daemon runs `--cluster`,
//!   where connections start unbound. No op, frame or field changed
//!   shape; three restrictions of the default-mode daemon fell away.
//!   (1) Private sessions number their decisions like named ones and
//!   accept client-asserted seqs, so their [`AdmitFrame`] /
//!   [`WithdrawFrame`] carry `"seq":n` where they used to carry
//!   `"seq":null` (and may carry `deduped`). (2) `attach`, `detach`,
//!   `snapshot`, `restore` and `stats` with a session name are answered
//!   instead of refused with `… require the daemon's --cluster mode`;
//!   after a `detach` the connection is unbound. (3) `stats` reports the
//!   engine gauges (queue, workers, shards, session rows) it used to
//!   leave at zero. Everything a `--cluster` client sees is
//!   byte-unchanged.
//! * **v5 (one latency view)**: stats payload: `ops.*` lose
//!   `p50_us`/`p99_us`, no wire-shape change elsewhere, no version bump.
//! * **v5 (one way to submit, no version bump)**: a [`SubmitOp`] with
//!   `"parallel":true` is refused with an [`Frame::Error`] and leaves the
//!   session as it was; `false` or absent is byte-unchanged.
//!
//! # The seq-idempotency rule (v5)
//!
//! A session numbers its decisions 1, 2, 3, … (admit accepts,
//! admit rejects and withdrawals all count; the counter survives
//! snapshot restore). A client MAY assert a `seq` on an admit/withdraw
//! op, claiming "this op is decision number `seq`":
//!
//! * `seq == decisions + 1` — the op is new; the session applies it and
//!   the result frame echoes the seq.
//! * `seq <= decisions` — the op is a **replay** (a retry after a lost
//!   ack, a duplicated frame, a resume after reconnect). If the
//!   session's bounded decision log records the same op (kind +
//!   payload fingerprint) under that seq, the recorded outcome is
//!   re-acked with `deduped: true` and **nothing is re-applied** — a
//!   duplicated admit can never double-admit. A *different* op under a
//!   consumed seq, or a seq older than the log retains, is a typed
//!   error.
//! * `seq > decisions + 1` — a typed gap error (the client skipped
//!   ahead).
//!
//! Ops without a `seq` always apply (the pre-v5 behaviour). The rule
//! holds on private sessions too, though only a named session outlives
//! its connection to be resumed.
//!
//! Clients must ignore unknown response fields (older readers of newer
//! frames) and treat missing optional fields as `None` (newer readers of
//! older frames; both directions are covered by tests).

/// The wire-protocol version this build speaks. See the module docs for
/// the v1 → v2 → v3 → v4 → v5 deltas.
pub const PROTOCOL_VERSION: u32 = 5;

use std::io::{self, BufRead, Write};

use msmr_model::{Job, JobBuilder, JobSet, StageId, Time};
use msmr_sched::Verdict;
use serde::{Deserialize, Serialize};

/// One client request: a correlation id chosen by the client plus the
/// operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed on every response frame.
    pub id: u64,
    /// The requested operation.
    pub op: Op,
}

/// The operations of the admission protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Open (or replace) the session with a full job set and evaluate it.
    Submit(SubmitOp),
    /// Admit one arriving job into the session's admitted set.
    Admit(AdmitOp),
    /// Remove a previously admitted job from the session.
    Withdraw(WithdrawOp),
    /// Report the session state.
    Status(StatusOp),
    /// Stop the daemon (all listeners).
    Shutdown(ShutdownOp),
    /// Attach this connection to a *named shared* session (protocol
    /// v2), releasing the session it was bound to.
    Attach(AttachOp),
    /// Detach from the currently bound session, leaving the connection
    /// unbound (protocol v2).
    Detach(DetachOp),
    /// Persist a named session's admitted job set to the snapshot
    /// directory (protocol v2).
    Snapshot(SnapshotOp),
    /// Rebuild named sessions from the snapshot directory (protocol v2).
    Restore(RestoreOp),
    /// Report the daemon's live stats snapshot (protocol v4).
    Stats(StatsOp),
}

/// Payload of [`Op::Submit`]: the job set may be empty (pipeline only),
/// which opens a session that grows purely through [`Op::Admit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitOp {
    /// The pipeline and initial admitted jobs.
    pub jobs: JobSet,
    /// Must be `false` or absent: the suite evaluates sequentially with
    /// implication shortcuts, streaming each verdict as its solver
    /// finishes — byte-identical to `SolverRegistry::evaluate`. `true`
    /// is refused with an error frame.
    pub parallel: Option<bool>,
}

/// Payload of [`Op::Admit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmitOp {
    /// The arriving job.
    pub job: JobSpec,
    /// `true`/absent streams the full solver suite on the extended set
    /// (the admission decision is then read off the decider's streamed
    /// verdict); `false` runs and streams only the decider — the
    /// low-latency path.
    pub evaluate: Option<bool>,
    /// Client-asserted decision sequence number for seq-idempotent
    /// resume (protocol v5 — see the module docs for the rule). Absent
    /// opts out: the op always applies.
    pub seq: Option<u64>,
}

/// An arriving job, id-less: the session assigns the internal id and
/// returns a stable external handle in the [`Frame::Admit`] frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Arrival time `A_i` in ticks.
    pub arrival: u64,
    /// Relative end-to-end deadline `D_i` in ticks.
    pub deadline: u64,
    /// Per-stage demand, in pipeline order (must match the session's
    /// stage count).
    pub stages: Vec<StageDemand>,
}

/// One stage's demand of a [`JobSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageDemand {
    /// Processing time `P_{i,j}` in ticks.
    pub time: u64,
    /// Resource index at the stage.
    pub resource: u64,
}

impl JobSpec {
    /// Converts the spec into the model's job builder.
    #[must_use]
    pub fn to_builder(&self) -> JobBuilder {
        let mut builder = JobBuilder::new()
            .arrival(Time::new(self.arrival))
            .deadline(Time::new(self.deadline));
        for stage in &self.stages {
            builder = builder.stage_time(Time::new(stage.time), stage.resource as usize);
        }
        builder
    }

    /// Builds the spec describing an existing job (replay traces).
    #[must_use]
    pub fn from_job(job: &Job) -> JobSpec {
        JobSpec {
            arrival: job.arrival().as_ticks(),
            deadline: job.deadline().as_ticks(),
            stages: (0..job.stage_count())
                .map(|j| {
                    let stage = StageId::new(j);
                    StageDemand {
                        time: job.processing(stage).as_ticks(),
                        resource: job.resource(stage).index() as u64,
                    }
                })
                .collect(),
        }
    }
}

/// Payload of [`Op::Withdraw`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WithdrawOp {
    /// External handle of the job to remove (from its admit frame, or the
    /// status listing).
    pub job: u64,
    /// `true` streams the full solver suite on the reduced set (one
    /// [`Frame::Verdict`] per solver, implication shortcuts applied);
    /// `false`/absent streams only the decider's verdict — the
    /// low-latency path. Either way the verdicts come from the warm
    /// online seam and are byte-identical to a cold offline evaluation of
    /// the reduced set (wall-clock provenance fields zeroed). Absent in
    /// v1 requests, which parse as `None`.
    pub evaluate: Option<bool>,
    /// Client-asserted decision sequence number for seq-idempotent
    /// resume (protocol v5). Absent opts out.
    pub seq: Option<u64>,
}

/// Payload of [`Op::Status`] (no fields).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusOp {}

/// Payload of [`Op::Shutdown`] (no fields).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownOp {}

/// Payload of [`Op::Attach`]: names the shared session this connection
/// wants to operate on. Session names are restricted to
/// `[A-Za-z0-9_.-]`, at most 64 characters (they double as snapshot file
/// stems).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttachOp {
    /// The session name.
    pub session: String,
    /// `true`/absent creates the session when it does not exist yet;
    /// `false` makes attaching to an unknown name an error.
    pub create: Option<bool>,
}

/// Payload of [`Op::Detach`] (no fields; detaches from the session the
/// connection is currently attached to).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetachOp {}

/// Payload of [`Op::Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotOp {
    /// The session to persist; absent snapshots the session this
    /// connection is attached to.
    pub session: Option<String>,
}

/// Payload of [`Op::Restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestoreOp {
    /// The session to restore from disk; absent restores every snapshot
    /// found in the daemon's snapshot directory.
    pub session: Option<String>,
}

/// Payload of [`Op::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsOp {
    /// Absent asks for the daemon-wide [`Frame::Stats`] snapshot (the
    /// v4 behaviour, byte-unchanged on the wire). A name asks for that
    /// *named session's* breakdown instead, answered with a
    /// [`Frame::SessionStats`]; the read never counts as session
    /// activity, so a TTL-idle session is not kept alive by being
    /// observed.
    pub session: Option<String>,
}

/// One daemon response frame, tagged with the request's id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The correlation id of the request this frame answers.
    pub id: u64,
    /// The frame payload.
    pub frame: Frame,
}

/// The frame kinds a request can stream back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// One solver's verdict, emitted the moment the solver finishes.
    Verdict(VerdictFrame),
    /// The admission decision of an [`Op::Admit`].
    Admit(AdmitFrame),
    /// The result of an [`Op::Withdraw`].
    Withdraw(WithdrawFrame),
    /// The session state answering an [`Op::Status`].
    Status(StatusFrame),
    /// A request-level failure (always followed by [`Frame::Done`]).
    Error(ErrorFrame),
    /// Terminates the frame stream of one request.
    Done(DoneFrame),
    /// The result of an [`Op::Attach`] (protocol v2).
    Attach(AttachFrame),
    /// The result of an [`Op::Detach`] (protocol v2).
    Detach(DetachFrame),
    /// The result of an [`Op::Snapshot`] (protocol v2).
    Snapshot(SnapshotFrame),
    /// The result of an [`Op::Restore`] (protocol v2).
    Restore(RestoreFrame),
    /// Typed backpressure: the daemon's worker pool refused the request
    /// because its bounded queue is full. The request had **no effect**;
    /// the client should back off and retry (protocol v2).
    Overload(OverloadFrame),
    /// The daemon's live stats answering an [`Op::Stats`] (protocol v4).
    Stats(StatsFrame),
    /// One named session's stats breakdown, answering an [`Op::Stats`]
    /// that carried a `session` name (still protocol v5 — the frame is
    /// only ever sent to clients that asked for it).
    SessionStats(SessionStatsFrame),
}

/// Payload of [`Frame::Verdict`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerdictFrame {
    /// The solver's unified verdict, exactly as the offline registry
    /// produces it.
    pub verdict: Verdict,
}

/// Payload of [`Frame::Admit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmitFrame {
    /// Whether the arriving job was admitted.
    pub admitted: bool,
    /// Stable external handle of the admitted job (absent on rejection).
    pub job: Option<u64>,
    /// Session size after the decision.
    pub jobs: u64,
    /// Name of the solver whose verdict decided the admission.
    pub decider: String,
    /// Per-session decision sequence number (1-based, counts admissions
    /// *and* rejections). Where several clients share one session,
    /// sorting each client's observed decisions by `seq` reconstructs
    /// the order the session actually processed them in, so a serialized
    /// offline replay can verify the verdicts byte-for-byte. Missing in
    /// v1 frames, which parse as `None`.
    pub seq: Option<u64>,
    /// `Some(true)` when this frame acks a seq-idempotent **replay**:
    /// the decision was already made, nothing was re-applied, and the
    /// frame reports the recorded outcome (protocol v5). `None` on
    /// every freshly applied decision and in pre-v5 frames.
    pub deduped: Option<bool>,
}

/// Payload of [`Frame::Withdraw`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WithdrawFrame {
    /// The withdrawn handle.
    pub job: u64,
    /// Session size after the withdrawal.
    pub jobs: u64,
    /// Per-session decision sequence number (1-based, shared with the
    /// admit counter: withdrawals are decider decisions too since the
    /// online seam re-decides the reduced set), so interleaved
    /// multi-client histories — admits *and* withdrawals — can be
    /// re-ordered into the serialized replay the verifier checks.
    /// Missing in v1 frames.
    pub seq: Option<u64>,
    /// `Some(true)` when this frame acks a seq-idempotent replay of an
    /// already-applied withdrawal (protocol v5; see [`AdmitFrame`]).
    pub deduped: Option<bool>,
}

/// Payload of [`Frame::Status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusFrame {
    /// Number of currently admitted jobs.
    pub jobs: u64,
    /// Pipeline stage count (0 before the first submit).
    pub stages: u64,
    /// External handles of the admitted jobs, in internal id order.
    pub admitted: Vec<u64>,
    /// Jobs admitted over the session's lifetime.
    pub admits: u64,
    /// Jobs rejected over the session's lifetime.
    pub rejects: u64,
    /// Registered solver names, in evaluation order.
    pub solvers: Vec<String>,
    /// The solver whose verdict decides admissions.
    pub decider: String,
}

/// Payload of [`Frame::Error`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorFrame {
    /// Human-readable failure description.
    pub message: String,
}

/// Payload of [`Frame::Done`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoneFrame {
    /// Number of frames the request streamed before this one.
    pub frames: u64,
}

/// Payload of [`Frame::Attach`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttachFrame {
    /// The session name the connection is now attached to.
    pub session: String,
    /// `true` when the attach created the session.
    pub created: bool,
    /// The session's mutation version (bumps on submit, accepted admit,
    /// withdraw and restore).
    pub version: u64,
    /// Connections attached to the session after this attach.
    pub attached: u64,
    /// Currently admitted jobs of the session.
    pub jobs: u64,
    /// The daemon's wire-protocol version ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// The session's decision counter at attach time (protocol v5):
    /// the seq horizon a resuming client re-issues its
    /// unacked ops against. `None` in pre-v5 frames.
    pub decisions: Option<u64>,
}

/// Payload of [`Frame::Detach`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetachFrame {
    /// The session name the connection detached from.
    pub session: String,
    /// Connections still attached to the session.
    pub attached: u64,
}

/// Payload of [`Frame::Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotFrame {
    /// The snapshotted session.
    pub session: String,
    /// The session version the snapshot captured.
    pub version: u64,
    /// Jobs in the persisted admitted set.
    pub jobs: u64,
    /// Snapshot file path on the daemon's filesystem.
    pub path: String,
}

/// One restored session of a [`Frame::Restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestoredSession {
    /// The session name.
    pub session: String,
    /// The restored mutation version.
    pub version: u64,
    /// Jobs in the restored admitted set.
    pub jobs: u64,
}

/// Payload of [`Frame::Restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestoreFrame {
    /// The sessions rebuilt from disk, in restore order.
    pub sessions: Vec<RestoredSession>,
}

/// Payload of [`Frame::Overload`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadFrame {
    /// Tasks waiting in the daemon's worker-pool queue when the request
    /// was refused.
    pub queued: u64,
    /// The worker-pool queue capacity.
    pub capacity: u64,
}

/// Payload of [`Frame::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsFrame {
    /// The daemon-wide live stats at answer time.
    pub stats: msmr_stats::StatsSnapshot,
}

/// Payload of [`Frame::SessionStats`]: one named session's breakdown,
/// answering an [`Op::Stats`] with a `session` name. The cluster daemon
/// reads every field without touching the session's TTL idleness clock,
/// so observation never keeps a dying session alive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStatsFrame {
    /// The session's name, echoed back.
    pub session: String,
    /// Admitted jobs currently in the session.
    pub jobs: u64,
    /// Mutation version (increments on submit/admit/withdraw).
    pub version: u64,
    /// Clients currently attached.
    pub attached: u64,
    /// Lifetime accepted admissions (survives snapshot restore).
    pub admits: u64,
    /// Lifetime rejected admissions (survives snapshot restore).
    pub rejects: u64,
    /// Successful withdrawals since the session was (re)built in this
    /// daemon process (withdrawals are not persisted separately in
    /// snapshots; the count restarts at 0 after a restore).
    pub withdraws: u64,
    /// Decider verdicts produced by the decider's online seam (no
    /// cold-fallback provenance) since the session was (re)built in this
    /// process — including seam verdicts that decided cold, such as an
    /// OPDCA withdraw or the first admit after a restore.
    pub warm_decides: u64,
    /// Decider verdicts that fell back to the cold adapter since the
    /// session was (re)built in this process — every decide of a
    /// decider without an online seam (DM, DMR, DCMP).
    pub cold_decides: u64,
    /// The session's decision counter — its seq horizon: the seq of the
    /// last admit/withdraw decision (survives snapshot restore).
    pub decisions: u64,
    /// Jobs currently held in the session's pair tables.
    pub table_jobs: u64,
    /// Pair-table capacity (jobs it can hold before regrowing).
    pub table_capacity: u64,
    /// Milliseconds since the session last saw real activity.
    pub idle_millis: u64,
}

/// Appends `value` to `out` as one NDJSON line, its `\n` included — the
/// one encoding of every frame and request on the wire.
///
/// # Errors
///
/// Propagates serialization errors as `InvalidData`; they cannot occur
/// for the protocol's types.
pub(crate) fn encode_line(out: &mut Vec<u8>, value: &impl Serialize) -> io::Result<()> {
    let line = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    Ok(())
}

/// Writes `value` as one NDJSON line in a single `write_all` and
/// flushes it: under `TCP_NODELAY` a line and its `\n` written apart
/// would leave as two segments.
fn write_line(writer: &mut impl Write, value: &impl Serialize) -> io::Result<()> {
    let mut line = Vec::new();
    encode_line(&mut line, value)?;
    writer.write_all(&line)?;
    writer.flush()
}

/// Serializes one response as a single NDJSON line and flushes it, so the
/// peer observes the frame immediately (the streaming property).
///
/// # Errors
///
/// Propagates I/O errors; serialization itself cannot fail for these
/// types.
pub fn write_response(writer: &mut impl Write, response: &Response) -> io::Result<()> {
    write_line(writer, response)
}

/// Serializes one request as a single NDJSON line and flushes it.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_request(writer: &mut impl Write, request: &Request) -> io::Result<()> {
    write_line(writer, request)
}

/// Reads the next non-empty NDJSON line and parses it as a [`Response`].
/// Returns `None` on a cleanly closed connection.
///
/// # Errors
///
/// Returns an `InvalidData` error on malformed frames, and propagates I/O
/// errors.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Option<Response>> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.trim().is_empty() {
            continue;
        }
        return serde_json::from_str(line.trim())
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy};
    use msmr_sched::VerdictKind;

    fn tiny_jobs() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(Time::new(10))
            .stage_time(Time::new(2), 0)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            Request {
                id: 1,
                op: Op::Submit(SubmitOp {
                    jobs: tiny_jobs(),
                    parallel: Some(false),
                }),
            },
            Request {
                id: 2,
                op: Op::Admit(AdmitOp {
                    job: JobSpec {
                        arrival: 3,
                        deadline: 50,
                        stages: vec![StageDemand {
                            time: 4,
                            resource: 0,
                        }],
                    },
                    evaluate: None,
                    seq: Some(4),
                }),
            },
            Request {
                id: 3,
                op: Op::Withdraw(WithdrawOp {
                    job: 7,
                    evaluate: Some(true),
                    seq: None,
                }),
            },
            Request {
                id: 4,
                op: Op::Status(StatusOp {}),
            },
            Request {
                id: 5,
                op: Op::Shutdown(ShutdownOp {}),
            },
            Request {
                id: 6,
                op: Op::Attach(AttachOp {
                    session: "tenant-a".to_string(),
                    create: Some(true),
                }),
            },
            Request {
                id: 7,
                op: Op::Detach(DetachOp {}),
            },
            Request {
                id: 8,
                op: Op::Snapshot(SnapshotOp {
                    session: Some("tenant-a".to_string()),
                }),
            },
            Request {
                id: 9,
                op: Op::Restore(RestoreOp { session: None }),
            },
            Request {
                id: 10,
                op: Op::Stats(StatsOp { session: None }),
            },
            Request {
                id: 11,
                op: Op::Stats(StatsOp {
                    session: Some("tenant-a".to_string()),
                }),
            },
        ];
        for request in requests {
            let line = serde_json::to_string(&request).unwrap();
            let parsed: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(parsed, request);
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let responses = vec![
            Response {
                id: 1,
                frame: Frame::Verdict(VerdictFrame {
                    verdict: Verdict::new("DM", VerdictKind::Accepted),
                }),
            },
            Response {
                id: 1,
                frame: Frame::Admit(AdmitFrame {
                    admitted: true,
                    job: Some(4),
                    jobs: 9,
                    decider: "OPDCA".to_string(),
                    seq: Some(10),
                    deduped: Some(true),
                }),
            },
            Response {
                id: 2,
                frame: Frame::Withdraw(WithdrawFrame {
                    job: 4,
                    jobs: 8,
                    seq: Some(11),
                    deduped: None,
                }),
            },
            Response {
                id: 3,
                frame: Frame::Status(StatusFrame {
                    jobs: 8,
                    stages: 3,
                    admitted: vec![1, 2, 3],
                    admits: 9,
                    rejects: 1,
                    solvers: vec!["DM".to_string()],
                    decider: "OPDCA".to_string(),
                }),
            },
            Response {
                id: 4,
                frame: Frame::Error(ErrorFrame {
                    message: "no session".to_string(),
                }),
            },
            Response {
                id: 4,
                frame: Frame::Done(DoneFrame { frames: 1 }),
            },
            Response {
                id: 5,
                frame: Frame::Attach(AttachFrame {
                    session: "tenant-a".to_string(),
                    created: true,
                    version: 3,
                    attached: 2,
                    jobs: 7,
                    protocol: PROTOCOL_VERSION,
                    decisions: Some(12),
                }),
            },
            Response {
                id: 6,
                frame: Frame::Detach(DetachFrame {
                    session: "tenant-a".to_string(),
                    attached: 1,
                }),
            },
            Response {
                id: 7,
                frame: Frame::Snapshot(SnapshotFrame {
                    session: "tenant-a".to_string(),
                    version: 3,
                    jobs: 7,
                    path: "/tmp/snap/tenant-a.json".to_string(),
                }),
            },
            Response {
                id: 8,
                frame: Frame::Restore(RestoreFrame {
                    sessions: vec![RestoredSession {
                        session: "tenant-a".to_string(),
                        version: 3,
                        jobs: 7,
                    }],
                }),
            },
            Response {
                id: 9,
                frame: Frame::Overload(OverloadFrame {
                    queued: 64,
                    capacity: 64,
                }),
            },
            Response {
                id: 10,
                frame: Frame::Stats(StatsFrame {
                    stats: {
                        let mut stats = msmr_stats::StatsSnapshot::default();
                        stats.counters.admits = 12;
                        stats.gauges.sessions_per_shard = vec![1, 0, 2];
                        stats.ops.insert(
                            "admit".to_string(),
                            msmr_stats::OpLatency::from_counts(vec![0, 0, 0, 0, 0, 0, 9, 3]),
                        );
                        stats
                    },
                }),
            },
            Response {
                id: 11,
                frame: Frame::SessionStats(SessionStatsFrame {
                    session: "tenant-a".to_string(),
                    jobs: 7,
                    version: 3,
                    attached: 2,
                    admits: 9,
                    rejects: 1,
                    withdraws: 2,
                    warm_decides: 8,
                    cold_decides: 2,
                    decisions: 12,
                    table_jobs: 7,
                    table_capacity: 16,
                    idle_millis: 450,
                }),
            },
        ];
        for response in responses {
            let line = serde_json::to_string(&response).unwrap();
            let parsed: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(parsed, response);
        }
    }

    #[test]
    fn v1_admit_frames_without_seq_still_parse() {
        // A protocol-v1 daemon never writes `seq`; a v2 client must read
        // its frames as `seq: None` instead of erroring.
        let line =
            r#"{"id":3,"frame":{"Admit":{"admitted":true,"job":2,"jobs":2,"decider":"OPDCA"}}}"#;
        let parsed: Response = serde_json::from_str(line).unwrap();
        let Frame::Admit(frame) = parsed.frame else {
            panic!("expected admit frame");
        };
        assert_eq!(frame.seq, None);
        assert_eq!(frame.job, Some(2));

        // And a `None` seq serializes as an explicit null (the vendored
        // serde has no skip-if-none) — pinned here so the protocol docs
        // stay honest about the wire bytes.
        let frame = Frame::Admit(AdmitFrame {
            admitted: true,
            job: Some(2),
            jobs: 2,
            decider: "OPDCA".to_string(),
            seq: None,
            deduped: None,
        });
        let line = serde_json::to_string(&frame).unwrap();
        assert!(line.contains("\"seq\":null"), "{line}");
        assert!(line.contains("\"deduped\":null"), "{line}");
    }

    #[test]
    fn v2_withdraw_encodings_still_parse() {
        // A pre-v3 client sends withdraw without `evaluate`; a pre-v3
        // daemon answers without `seq`. Both must parse as `None`.
        let line = r#"{"id":5,"op":{"Withdraw":{"job":9}}}"#;
        let parsed: Request = serde_json::from_str(line).unwrap();
        let Op::Withdraw(op) = parsed.op else {
            panic!("expected withdraw op");
        };
        assert_eq!(op.job, 9);
        assert_eq!(op.evaluate, None);

        let line = r#"{"id":5,"frame":{"Withdraw":{"job":9,"jobs":3}}}"#;
        let parsed: Response = serde_json::from_str(line).unwrap();
        let Frame::Withdraw(frame) = parsed.frame else {
            panic!("expected withdraw frame");
        };
        assert_eq!(frame.seq, None);
        assert_eq!(frame.deduped, None);
        assert_eq!(frame.jobs, 3);
    }

    #[test]
    fn v5_encodings_are_byte_pinned_on_the_hot_admit_path() {
        // The v5 wire bytes for the hot admit path, pinned exactly: the
        // new optional fields ride at the end of their structs and the
        // vendored serde writes `None` as an explicit null.
        let request = Request {
            id: 2,
            op: Op::Admit(AdmitOp {
                job: JobSpec {
                    arrival: 3,
                    deadline: 50,
                    stages: vec![StageDemand {
                        time: 4,
                        resource: 0,
                    }],
                },
                evaluate: Some(false),
                seq: None,
            }),
        };
        assert_eq!(
            serde_json::to_string(&request).unwrap(),
            r#"{"id":2,"op":{"Admit":{"job":{"arrival":3,"deadline":50,"stages":[{"time":4,"resource":0}]},"evaluate":false,"seq":null}}}"#
        );
        let response = Response {
            id: 2,
            frame: Frame::Admit(AdmitFrame {
                admitted: true,
                job: Some(4),
                jobs: 9,
                decider: "OPDCA".to_string(),
                seq: Some(10),
                deduped: None,
            }),
        };
        assert_eq!(
            serde_json::to_string(&response).unwrap(),
            r#"{"id":2,"frame":{"Admit":{"admitted":true,"job":4,"jobs":9,"decider":"OPDCA","seq":10,"deduped":null}}}"#
        );
    }

    #[test]
    fn v4_encodings_still_parse_under_v5() {
        // Bytes a v4 peer produced (no `seq` on ops, no `deduped` on
        // decision frames, no `decisions` on attach) must parse with the
        // new fields as `None`.
        let line = r#"{"id":2,"op":{"Admit":{"job":{"arrival":3,"deadline":50,"stages":[{"time":4,"resource":0}]},"evaluate":false}}}"#;
        let parsed: Request = serde_json::from_str(line).unwrap();
        let Op::Admit(op) = parsed.op else {
            panic!("expected admit op");
        };
        assert_eq!(op.seq, None);
        assert_eq!(op.evaluate, Some(false));

        let line = r#"{"id":2,"frame":{"Admit":{"admitted":true,"job":4,"jobs":9,"decider":"OPDCA","seq":10}}}"#;
        let parsed: Response = serde_json::from_str(line).unwrap();
        let Frame::Admit(frame) = parsed.frame else {
            panic!("expected admit frame");
        };
        assert_eq!(frame.seq, Some(10));
        assert_eq!(frame.deduped, None);

        let line = r#"{"id":1,"frame":{"Attach":{"session":"t","created":true,"version":0,"attached":1,"jobs":0,"protocol":4}}}"#;
        let parsed: Response = serde_json::from_str(line).unwrap();
        let Frame::Attach(frame) = parsed.frame else {
            panic!("expected attach frame");
        };
        assert_eq!(frame.protocol, 4);
        assert_eq!(frame.decisions, None);
    }

    #[test]
    fn fieldless_stats_encodings_still_parse() {
        // Before the `session` argument existed, every client encoded
        // the stats op as an empty struct. Those bytes must keep
        // parsing — as the daemon-wide form — which is why the field
        // did not bump the wire version.
        let line = r#"{"id":10,"op":{"Stats":{}}}"#;
        let parsed: Request = serde_json::from_str(line).unwrap();
        let Op::Stats(op) = parsed.op else {
            panic!("expected stats op");
        };
        assert_eq!(op.session, None);
    }

    #[test]
    fn job_spec_round_trips_through_the_builder() {
        let jobs = tiny_jobs();
        let job = jobs.job(msmr_model::JobId::new(0));
        let spec = JobSpec::from_job(job);
        assert_eq!(spec.deadline, 10);
        assert_eq!(spec.stages.len(), 1);
        let (extended, id) = jobs.with_job(spec.to_builder()).unwrap();
        let rebuilt = extended.job(id);
        assert_eq!(rebuilt.deadline(), job.deadline());
        assert_eq!(rebuilt.arrival(), job.arrival());
        assert_eq!(rebuilt.processing_times(), job.processing_times());
        assert_eq!(rebuilt.resources(), job.resources());
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
    fn every_request_and_response_line_is_one_write() {
        let mut writes = Writes::default();
        let request = Request {
            id: 3,
            op: Op::Status(StatusOp {}),
        };
        write_request(&mut writes, &request).unwrap();
        let response = Response {
            id: 3,
            frame: Frame::Done(DoneFrame { frames: 0 }),
        };
        write_response(&mut writes, &response).unwrap();
        assert_eq!(writes.0.len(), 2, "one write per line");
        for line in &writes.0 {
            let newlines = line.iter().filter(|&&b| b == b'\n').count();
            assert_eq!((newlines, line.last()), (1, Some(&b'\n')));
        }
    }

    #[test]
    fn line_codec_round_trips_and_skips_blank_lines() {
        let response = Response {
            id: 9,
            frame: Frame::Done(DoneFrame { frames: 0 }),
        };
        let mut buffer = Vec::new();
        buffer.extend_from_slice(b"\n  \n");
        write_response(&mut buffer, &response).unwrap();
        let mut reader = std::io::BufReader::new(buffer.as_slice());
        let parsed = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(parsed, response);
        assert!(read_response(&mut reader).unwrap().is_none());
    }
}
