//! A small blocking client for the admission protocol, shared by the
//! `msmr-admit` binary (single- and multi-client replays), the chaos
//! harness and the end-to-end tests.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use msmr_model::{JobId, JobSet};

use crate::history::{Decision, DecisionOp};
use crate::protocol::{
    read_response, write_request, AdmitFrame, AdmitOp, AttachFrame, AttachOp, Frame, JobSpec, Op,
    Request, Response, SnapshotOp, SubmitOp, WithdrawFrame, WithdrawOp,
};

/// A deterministic splitmix64 used to pick withdraw points in mixed
/// replays — seeded, so every run of the same trace issues the same op
/// sequence (what lets `--verify` compare against an offline mirror).
#[derive(Debug, Clone)]
pub struct MixRng(u64);

impl MixRng {
    /// Creates the generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> MixRng {
        MixRng(seed)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where to reach a daemon.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address (e.g. `127.0.0.1:7471`).
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

/// A connected protocol client. Requests are correlated with
/// automatically increasing ids; each call collects the response stream
/// of one request up to (and including) its `Done` frame.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let (reader, writer): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // Requests are single flushed lines; without NODELAY the
                // Nagle/delayed-ACK interaction costs ~40 ms per turn.
                stream.set_nodelay(true)?;
                (Box::new(stream.try_clone()?), Box::new(stream))
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                let stream = UnixStream::connect(path)?;
                (Box::new(stream.try_clone()?), Box::new(stream))
            }
            #[cfg(not(unix))]
            Endpoint::Uds(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this platform",
                ))
            }
        };
        Ok(Client {
            reader: BufReader::new(reader),
            writer,
            next_id: 1,
        })
    }

    /// A client over an arbitrary reader/writer pair — in-memory
    /// transports for tests, or pre-connected streams.
    #[must_use]
    pub fn from_parts(
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> Client {
        Client {
            reader: BufReader::new(Box::new(reader)),
            writer: Box::new(writer),
            next_id: 1,
        }
    }

    /// Attaches this connection to the named shared session (protocol
    /// v2), creating it when `create` is set.
    ///
    /// # Errors
    ///
    /// Transport errors, and daemon `Error` frames (e.g. an invalid
    /// name, or an unknown session with `create: false`) as
    /// `io::ErrorKind::Other`.
    pub fn attach(&mut self, session: &str, create: bool) -> io::Result<AttachFrame> {
        let frames = self.request(Op::Attach(AttachOp {
            session: session.to_string(),
            create: Some(create),
        }))?;
        for frame in frames {
            match frame.frame {
                Frame::Attach(attach) => return Ok(attach),
                Frame::Error(e) => {
                    return Err(io::Error::other(format!("attach failed: {}", e.message)))
                }
                _ => {}
            }
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "daemon answered attach without an attach frame",
        ))
    }

    /// Sends one operation and returns every streamed frame (the
    /// terminating `Done` included) once the stream ends.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, on malformed frames, and when the
    /// connection closes before the `Done` frame.
    pub fn request(&mut self, op: Op) -> io::Result<Vec<Response>> {
        let id = self.next_id;
        self.next_id += 1;
        write_request(&mut self.writer, &Request { id, op })?;
        let mut frames = Vec::new();
        loop {
            let Some(response) = read_response(&mut self.reader)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-stream",
                ));
            };
            if response.id != id {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame for request {} while awaiting {}", response.id, id),
                ));
            }
            let done = matches!(response.frame, Frame::Done(_));
            frames.push(response);
            if done {
                return Ok(frames);
            }
        }
    }

    /// Replays an arrival trace against the daemon: opens the session
    /// with the trace's pipeline (no jobs), then runs
    /// [`Client::replay_arrivals`] over every job in arrival order (ties
    /// by id).
    ///
    /// This is the one definition of "replay" shared by the `msmr-admit`
    /// binary and the end-to-end suites, so they cannot drift apart in
    /// protocol or ordering.
    ///
    /// # Errors
    ///
    /// As [`Client::replay_arrivals`], plus the submit's transport errors.
    pub fn replay_trace_mixed(
        &mut self,
        trace: &JobSet,
        evaluate: bool,
        withdraw_ratio: f64,
        mix_seed: u64,
    ) -> io::Result<ReplayOutcome> {
        let (empty, _) = trace
            .restrict_to(&[])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.request(Op::Submit(SubmitOp {
            jobs: empty,
            parallel: None,
        }))?;
        let arrivals = msmr_workload::arrival_order(trace);
        self.replay_arrivals(trace, &arrivals, evaluate, withdraw_ratio, mix_seed)
    }

    /// The admit → withdraw-draw loop every replaying client runs, on
    /// whatever session the connection is on: one `admit` per job of
    /// `arrivals` (ids into `trace`), in the given order, measuring each
    /// round trip. After every admitted arrival, with probability
    /// `withdraw_ratio` (deterministic in `mix_seed`; `0.0` never
    /// withdraws) one handle this loop admitted is withdrawn —
    /// exercising the general mid-set withdraw path of the online seam.
    /// A loop only withdraws its own handles, so clients sharing a
    /// session never race on a victim. Every op is recorded as a
    /// [`Decision`] in the outcome, ready for an oracle of
    /// [`crate::history`].
    ///
    /// # Errors
    ///
    /// Propagates transport errors and, via [`Decision::from_frames`],
    /// daemon `Error` frames (as `io::ErrorKind::Other`), typed overload
    /// responses (as `io::ErrorKind::WouldBlock`, so callers can map
    /// backpressure to a distinct exit path) and a missing admit or
    /// withdraw ack (as `io::ErrorKind::InvalidData`).
    pub fn replay_arrivals(
        &mut self,
        trace: &JobSet,
        arrivals: &[JobId],
        evaluate: bool,
        withdraw_ratio: f64,
        mix_seed: u64,
    ) -> io::Result<ReplayOutcome> {
        let mut rng = MixRng::new(mix_seed);
        let mut handles: Vec<u64> = Vec::new();
        let mut outcome = ReplayOutcome {
            admitted: 0,
            rejected: 0,
            withdrawn: 0,
            latencies_us: Vec::with_capacity(arrivals.len()),
            decisions: Vec::new(),
        };
        let in_context = |context: String| {
            move |e: io::Error| io::Error::new(e.kind(), format!("{context}: {e}"))
        };
        for (arrival, &id) in arrivals.iter().enumerate() {
            let op = Op::Admit(AdmitOp {
                job: JobSpec::from_job(trace.job(id)),
                evaluate: Some(evaluate),
                seq: None,
            });
            let start = Instant::now();
            let frames = self.request(op.clone())?;
            outcome
                .latencies_us
                .push(start.elapsed().as_nanos() as f64 / 1_000.0);
            let decision = Decision::from_frames(&op, &frames)
                .map_err(in_context(format!("arrival {arrival}")))?;
            match decision.op {
                DecisionOp::Admit {
                    admitted: true,
                    handle,
                    ..
                } => {
                    outcome.admitted += 1;
                    handles.extend(handle);
                }
                _ => outcome.rejected += 1,
            }
            outcome.decisions.push(decision);

            // The withdraw mix: drawn per arrival so the op sequence is a
            // pure function of (arrivals, ratio, seed).
            if !handles.is_empty() && rng.next_f64() < withdraw_ratio {
                let victim = handles.swap_remove((rng.next_u64() % handles.len() as u64) as usize);
                let op = Op::Withdraw(WithdrawOp {
                    job: victim,
                    evaluate: Some(evaluate),
                    seq: None,
                });
                let frames = self.request(op.clone())?;
                let decision = Decision::from_frames(&op, &frames)
                    .map_err(in_context(format!("withdraw {victim}")))?;
                outcome.withdrawn += 1;
                outcome.decisions.push(decision);
            }
        }
        Ok(outcome)
    }
}

/// Summary of one [`Client::replay_arrivals`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Arrivals the daemon admitted.
    pub admitted: usize,
    /// Arrivals the daemon rejected (and rolled back).
    pub rejected: usize,
    /// Jobs withdrawn by the mixed replay's withdraw draw.
    pub withdrawn: usize,
    /// Per-arrival round-trip latency in microseconds, in arrival order.
    pub latencies_us: Vec<f64>,
    /// Every op of the run — admits and withdrawals — in issue order.
    pub decisions: Vec<Decision>,
}

/// Capped exponential backoff with deterministic jitter, for retrying
/// `Overload` refusals and reconnecting after connection loss.
///
/// Delays are `base_delay · 2^(attempt−1)`, capped at `max_delay`, then
/// scaled by a jitter factor in `[0.5, 1.0)` drawn from a seeded
/// [`MixRng`] — so a chaos run's retry timing is a pure function of the
/// seed, like everything else in a replay.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts before giving up with [`RetryError::Exhausted`]
    /// (the first attempt counts; 1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound every delay is capped at (pre-jitter).
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based), jittered
    /// from `rng`.
    #[must_use]
    pub fn delay(&self, attempt: u32, rng: &mut MixRng) -> Duration {
        let exp = attempt.saturating_sub(1).min(32);
        let uncapped = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.max_delay);
        uncapped.mul_f64(0.5 + 0.5 * rng.next_f64())
    }
}

/// Why a retried operation ultimately failed.
#[derive(Debug)]
pub enum RetryError {
    /// Every attempt failed with a retryable error (overload or
    /// connection loss); `last` is the final attempt's failure.
    Exhausted {
        /// Attempts made (= the policy's `max_attempts`).
        attempts: u32,
        /// The last retryable failure.
        last: io::Error,
    },
    /// The daemon answered with a typed `Error` frame or the response
    /// was structurally invalid — retrying cannot help.
    Fatal(io::Error),
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            RetryError::Fatal(e) => write!(f, "fatal: {e}"),
        }
    }
}

impl std::error::Error for RetryError {}

/// Resume-side counters a chaos harness asserts on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Attempts repeated after a retryable failure.
    pub retries: u64,
    /// Connections re-established after loss.
    pub reconnects: u64,
    /// Acks carrying `deduped: true` — journaled ops the daemon had
    /// already applied and acknowledged without re-applying.
    pub deduped_acks: u64,
    /// Endpoint rotations: connection attempts that failed and moved
    /// the client onto the next fallback endpoint.
    pub failovers: u64,
}

/// How one attempt of one op failed, for the retry loop's triage.
enum IssueError {
    /// Transport failure — reconnect and retry.
    Io(io::Error),
    /// Typed `Overload` refusal — back off and retry on the same
    /// connection.
    Overload(io::Error),
    /// Typed daemon error or malformed response — do not retry.
    Fatal(io::Error),
}

impl IssueError {
    fn into_io(self) -> io::Error {
        match self {
            IssueError::Io(e) | IssueError::Overload(e) | IssueError::Fatal(e) => e,
        }
    }
}

/// A crash-tolerant session client: every admit/withdraw carries a
/// client-assigned decision `seq` (the v5 seq-idempotency rule) and is
/// journaled until a checkpoint, so the client can survive daemon
/// restarts and connection loss by reconnecting, re-attaching and
/// re-issuing the journal — the daemon's seq-dedupe turns the replay
/// into exactly-once application.
///
/// Overload refusals and connection loss are retried under a
/// [`RetryPolicy`]; typed daemon errors surface as
/// [`RetryError::Fatal`]. [`ResumingClient::checkpoint`] persists the
/// session server-side and prunes the journal up to the acked horizon.
pub struct ResumingClient {
    endpoint: Endpoint,
    /// Endpoints rotated in when connecting to `endpoint` fails — the
    /// failover hook a replicated tier (several `msmr-router` instances
    /// over one backend fleet) hands its clients.
    fallbacks: Vec<Endpoint>,
    session: String,
    policy: RetryPolicy,
    rng: MixRng,
    client: Option<Client>,
    pipeline: Option<JobSet>,
    next_seq: u64,
    /// Ops acked since the last checkpoint, as sent (seq inside).
    journal: Vec<Op>,
    stats: ResumeStats,
    observed: Vec<ObservedOp>,
}

/// One applied (or dedupe-acked) op with the full response stream it
/// produced, tagged with its decision seq — what a verifying harness
/// reduces with [`Decision::from_frames`] and replays offline.
/// Reconnect-time journal replays are observed too, so the log's *last*
/// entry per seq reflects the application that survived.
#[derive(Debug, Clone)]
pub struct ObservedOp {
    /// The op's decision seq.
    pub seq: u64,
    /// The op as sent.
    pub op: Op,
    /// Every response frame of the successful attempt.
    pub frames: Vec<Response>,
}

impl ResumingClient {
    /// A client for `session` on `endpoint`; connection is lazy (the
    /// first op connects). `retry_seed` drives the backoff jitter.
    #[must_use]
    pub fn new(
        endpoint: Endpoint,
        session: &str,
        policy: RetryPolicy,
        retry_seed: u64,
    ) -> ResumingClient {
        ResumingClient {
            endpoint,
            fallbacks: Vec::new(),
            session: session.to_string(),
            policy,
            rng: MixRng::new(retry_seed),
            client: None,
            pipeline: None,
            next_seq: 1,
            journal: Vec::new(),
            stats: ResumeStats::default(),
            observed: Vec::new(),
        }
    }

    /// Drains the observation log: every successful op's response
    /// frames in the order the daemon acked them, reconnect replays
    /// included.
    pub fn drain_observed(&mut self) -> Vec<ObservedOp> {
        std::mem::take(&mut self.observed)
    }

    /// Re-points the client at a new endpoint (a restarted daemon on a
    /// fresh port, a failover address). The live connection is dropped;
    /// the next op reconnects, re-attaches and replays the journal
    /// there.
    pub fn set_endpoint(&mut self, endpoint: Endpoint) {
        self.endpoint = endpoint;
        self.client = None;
    }

    /// Installs fallback endpoints: when connecting to the current
    /// endpoint fails, the client rotates the current endpoint to the
    /// back of this list and promotes the next one before the retry
    /// policy's next attempt — so a client handed every instance of a
    /// replicated tier rides out the loss of any one of them. Each
    /// rotation is counted in [`ResumeStats::failovers`]. Replaces any
    /// previously installed fallbacks.
    pub fn set_fallback_endpoints(&mut self, endpoints: Vec<Endpoint>) {
        self.fallbacks = endpoints;
    }

    /// The endpoint the next connection attempt will use.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The resume counters so far.
    #[must_use]
    pub fn stats(&self) -> ResumeStats {
        self.stats
    }

    /// Ops journaled and not yet checkpointed.
    #[must_use]
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Sets the pipeline the session is (re)created with: whenever a
    /// reconnect finds the session did not survive (attach reports
    /// `created`), this job set is re-submitted before the journal is
    /// replayed.
    pub fn set_pipeline(&mut self, jobs: JobSet) {
        self.pipeline = Some(jobs);
    }

    /// Admits a job under the next decision seq, retrying through
    /// overloads and reconnects.
    ///
    /// # Errors
    ///
    /// [`RetryError::Exhausted`] when the policy gives up,
    /// [`RetryError::Fatal`] on typed daemon errors.
    pub fn admit(&mut self, job: &JobSpec, evaluate: bool) -> Result<AdmitFrame, RetryError> {
        let op = Op::Admit(AdmitOp {
            job: job.clone(),
            evaluate: Some(evaluate),
            seq: Some(self.next_seq),
        });
        self.issue_journaled(
            op,
            "daemon answered admit without an admit frame",
            |f| match f {
                Frame::Admit(frame) => Some((frame.clone(), frame.deduped)),
                _ => None,
            },
        )
    }

    /// Withdraws an admitted handle under the next decision seq,
    /// retrying through overloads and reconnects.
    ///
    /// # Errors
    ///
    /// As [`ResumingClient::admit`].
    pub fn withdraw(&mut self, job: u64, evaluate: bool) -> Result<WithdrawFrame, RetryError> {
        let op = Op::Withdraw(WithdrawOp {
            job,
            evaluate: Some(evaluate),
            seq: Some(self.next_seq),
        });
        self.issue_journaled(
            op,
            "daemon answered withdraw without a withdraw frame",
            |f| match f {
                Frame::Withdraw(frame) => Some((frame.clone(), frame.deduped)),
                _ => None,
            },
        )
    }

    /// Snapshots the session server-side and prunes the journal: ops
    /// acked before a successful checkpoint are durable on the daemon's
    /// disk and never need re-issuing.
    ///
    /// # Errors
    ///
    /// As [`ResumingClient::admit`].
    pub fn checkpoint(&mut self) -> Result<(), RetryError> {
        self.issue_with_retry(&Op::Snapshot(SnapshotOp {
            session: Some(self.session.clone()),
        }))?;
        self.journal.clear();
        Ok(())
    }

    /// The path `admit` and `withdraw` share: issues `op` (stamped with
    /// the next seq) through the retry loop and observes its frames;
    /// once `ack` finds the op's ack frame, journals the op, counts a
    /// deduped ack and advances the seq.
    fn issue_journaled<F>(
        &mut self,
        op: Op,
        missing_ack: &str,
        ack: impl Fn(&Frame) -> Option<(F, Option<bool>)>,
    ) -> Result<F, RetryError> {
        let frames = self.issue_with_retry(&op)?;
        let found = frames.iter().find_map(|r| ack(&r.frame));
        self.observed.push(ObservedOp {
            seq: self.next_seq,
            op: op.clone(),
            frames,
        });
        let (frame, deduped) = found.ok_or_else(|| {
            RetryError::Fatal(io::Error::new(io::ErrorKind::InvalidData, missing_ack))
        })?;
        if deduped == Some(true) {
            self.stats.deduped_acks += 1;
        }
        self.journal.push(op);
        self.next_seq += 1;
        Ok(frame)
    }

    /// The one retry loop: sends `op` on a live (re-attached,
    /// journal-replayed) connection until an attempt's frames carry
    /// neither an overload nor an error.
    fn issue_with_retry(&mut self, op: &Op) -> Result<Vec<Response>, RetryError> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.delay(attempt, &mut self.rng));
                self.stats.retries += 1;
            }
            match self.try_issue(op) {
                Ok(frames) => return Ok(frames),
                Err(IssueError::Io(e)) => {
                    self.client = None;
                    last = Some(e);
                }
                Err(IssueError::Overload(e)) => last = Some(e),
                Err(IssueError::Fatal(e)) => return Err(RetryError::Fatal(e)),
            }
        }
        Err(RetryError::Exhausted {
            attempts: self.policy.max_attempts,
            last: last.unwrap_or_else(|| io::Error::other("no attempt ran")),
        })
    }

    fn try_issue(&mut self, op: &Op) -> Result<Vec<Response>, IssueError> {
        self.ensure_connected().map_err(IssueError::Io)?;
        let client = self.client.as_mut().expect("connected above");
        let frames = client.request(op.clone()).map_err(IssueError::Io)?;
        triage_frames(&frames)?;
        Ok(frames)
    }

    /// Connects, attaches and resyncs when no live connection exists:
    /// re-submits the pipeline if the session had to be re-created, then
    /// replays every journaled op — the daemon's seq-dedupe acks
    /// already-applied entries without re-applying them.
    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.client.is_some() {
            return Ok(());
        }
        let had_session = self.next_seq > 1;
        let mut client = match Client::connect(&self.endpoint) {
            Ok(client) => client,
            Err(e) => {
                // Rotate to the next fallback; the retry policy's next
                // attempt connects there.
                if !self.fallbacks.is_empty() {
                    let next = self.fallbacks.remove(0);
                    let old = std::mem::replace(&mut self.endpoint, next);
                    self.fallbacks.push(old);
                    self.stats.failovers += 1;
                }
                return Err(e);
            }
        };
        let attach = client.attach(&self.session, true)?;
        if had_session {
            self.stats.reconnects += 1;
        }
        if attach.created {
            if let Some(jobs) = &self.pipeline {
                let frames = client.request(Op::Submit(SubmitOp {
                    jobs: jobs.clone(),
                    parallel: None,
                }))?;
                triage_frames(&frames).map_err(IssueError::into_io)?;
            }
        }
        // The journal holds the acked ops of the seqs just below
        // `next_seq`; the op about to be issued joins it once acked.
        for (entry, seq) in self
            .journal
            .iter()
            .zip(self.next_seq - self.journal.len() as u64..)
        {
            let frames = client.request(entry.clone())?;
            triage_frames(&frames).map_err(IssueError::into_io)?;
            let deduped = frames.iter().any(|r| match &r.frame {
                Frame::Admit(f) => f.deduped == Some(true),
                Frame::Withdraw(f) => f.deduped == Some(true),
                _ => false,
            });
            if deduped {
                self.stats.deduped_acks += 1;
            }
            self.observed.push(ObservedOp {
                seq,
                op: entry.clone(),
                frames,
            });
        }
        self.client = Some(client);
        Ok(())
    }
}

/// Classifies one response stream for the retry loop.
fn triage_frames(frames: &[Response]) -> Result<(), IssueError> {
    for frame in frames {
        match &frame.frame {
            Frame::Error(e) => {
                return Err(IssueError::Fatal(io::Error::other(e.message.clone())));
            }
            Frame::Overload(overload) => {
                return Err(IssueError::Overload(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "server overloaded ({}/{} tasks queued)",
                        overload.queued, overload.capacity
                    ),
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{write_response, DoneFrame, Frame, OverloadFrame, Response};
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};

    fn one_job_trace() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(Time::new(20))
            .stage_time(Time::new(2), 0)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    fn canned(responses: &[Response]) -> Vec<u8> {
        let mut buffer = Vec::new();
        for response in responses {
            write_response(&mut buffer, response).unwrap();
        }
        buffer
    }

    #[test]
    fn overload_frames_surface_as_would_block() {
        // The daemon answers the submit (id 1) normally, then refuses
        // the admit (id 2) with the typed backpressure frame.
        let input = canned(&[
            Response {
                id: 1,
                frame: Frame::Done(DoneFrame { frames: 0 }),
            },
            Response {
                id: 2,
                frame: Frame::Overload(OverloadFrame {
                    queued: 8,
                    capacity: 8,
                }),
            },
            Response {
                id: 2,
                frame: Frame::Done(DoneFrame { frames: 1 }),
            },
        ]);
        let mut client = Client::from_parts(std::io::Cursor::new(input), Vec::new());
        let err = client
            .replay_trace_mixed(&one_job_trace(), false, 0.0, 0)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(err.to_string().contains("overloaded"), "{err}");
    }

    #[test]
    fn error_frames_stay_generic_failures() {
        let input = canned(&[
            Response {
                id: 1,
                frame: Frame::Done(DoneFrame { frames: 0 }),
            },
            Response {
                id: 2,
                frame: Frame::Error(crate::protocol::ErrorFrame {
                    message: "no session".to_string(),
                }),
            },
            Response {
                id: 2,
                frame: Frame::Done(DoneFrame { frames: 1 }),
            },
        ]);
        let mut client = Client::from_parts(std::io::Cursor::new(input), Vec::new());
        let err = client
            .replay_trace_mixed(&one_job_trace(), false, 0.0, 0)
            .unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn a_withdraw_without_its_ack_is_invalid_data() {
        // The admit (id 2) is acked; the withdraw the 1.0 mix issues right
        // after it (id 3) is answered with a bare `Done`.
        let input = canned(&[
            Response {
                id: 1,
                frame: Frame::Done(DoneFrame { frames: 0 }),
            },
            Response {
                id: 2,
                frame: Frame::Admit(AdmitFrame {
                    admitted: true,
                    job: Some(1),
                    jobs: 1,
                    decider: "OPDCA".to_string(),
                    seq: Some(1),
                    deduped: None,
                }),
            },
            Response {
                id: 2,
                frame: Frame::Done(DoneFrame { frames: 1 }),
            },
            Response {
                id: 3,
                frame: Frame::Done(DoneFrame { frames: 0 }),
            },
        ]);
        let mut client = Client::from_parts(std::io::Cursor::new(input), Vec::new());
        let err = client
            .replay_trace_mixed(&one_job_trace(), false, 1.0, 0)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("withdraw 1: "), "{err}");
    }

    #[test]
    fn retry_delays_are_capped_exponential_and_seed_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
        };
        let mut a = MixRng::new(7);
        let mut b = MixRng::new(7);
        for attempt in 1..=12 {
            let da = policy.delay(attempt, &mut a);
            let db = policy.delay(attempt, &mut b);
            assert_eq!(da, db, "same seed, same jitter");
            // Jitter scales the capped exponential into [0.5, 1.0).
            let uncapped = Duration::from_millis(1 << (attempt - 1).min(7));
            let ceiling = uncapped.min(Duration::from_millis(100));
            assert!(da >= ceiling.mul_f64(0.5), "attempt {attempt}: {da:?}");
            assert!(da < ceiling, "attempt {attempt}: {da:?} vs {ceiling:?}");
        }
        let mut c = MixRng::new(8);
        assert_ne!(
            policy.delay(3, &mut MixRng::new(7)),
            policy.delay(3, &mut c),
            "different seeds draw different jitter"
        );
    }

    #[test]
    fn failed_connects_rotate_through_fallback_endpoints() {
        // Two endpoints that refuse connections: bind ephemeral ports,
        // then drop the listeners before anyone connects.
        let dead = |_: usize| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let primary = dead(0);
        let fallback = dead(1);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
        };
        let mut client = ResumingClient::new(Endpoint::Tcp(primary.clone()), "s", policy, 7);
        client.set_fallback_endpoints(vec![Endpoint::Tcp(fallback.clone())]);
        let spec = JobSpec {
            arrival: 0,
            deadline: 10,
            stages: vec![],
        };
        let err = client.admit(&spec, false).unwrap_err();
        assert!(matches!(err, RetryError::Exhausted { attempts: 3, .. }));
        // Every failed connect rotated; three attempts land the client
        // back on the fallback (primary → fallback → primary → fallback).
        assert_eq!(client.stats().failovers, 3);
        match client.endpoint() {
            Endpoint::Tcp(addr) => assert_eq!(addr, &fallback),
            Endpoint::Uds(_) => panic!("endpoint changed transport"),
        }
    }

    #[test]
    fn retry_errors_render_their_triage() {
        let exhausted = RetryError::Exhausted {
            attempts: 8,
            last: io::Error::new(io::ErrorKind::WouldBlock, "server overloaded"),
        };
        assert!(exhausted.to_string().contains("8 attempts"));
        assert!(exhausted.to_string().contains("overloaded"));
        let fatal = RetryError::Fatal(io::Error::other("seq conflict"));
        assert!(fatal.to_string().starts_with("fatal:"));
    }
}
