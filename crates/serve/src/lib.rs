//! `msmr-serve` — an online admission-control service for MSMR real-time
//! systems: stateful sessions, incremental cross-request caching and
//! streaming verdicts over TCP / Unix-domain sockets.
//!
//! The paper's headline use case is *online admission control*: deciding
//! at runtime whether a newly arriving job can join an already-admitted
//! set (§VII). The static pipeline of this repository — build a
//! [`msmr_model::JobSet`], run
//! [`msmr_sched::SolverRegistry::evaluate`] — answers that question for
//! one snapshot; this crate turns it into a long-running service:
//!
//! * [`AdmissionSession`] owns one [`msmr_dca::Analysis`] of the
//!   admitted job set — the jobs and their pair tables — and keeps it
//!   **warm across requests**: an `admit` appends the single arriving
//!   job in place ([`msmr_dca::Analysis::push`], `O(n·N)` new pairs)
//!   instead of rebuilding all `O(n²)` pairs, and pops it again on
//!   rejection; a `withdraw` swap-removes *any* victim
//!   ([`msmr_dca::Analysis::swap_remove`], also `O(n·N)`) instead of
//!   rebuilding. Admission latency therefore scales with the arrival,
//!   not with how the session got to its current size.
//! * The session also keeps the **decider state** warm: `admit` and
//!   `withdraw` route through the stateful
//!   [`msmr_sched::OnlineSolver`] seam
//!   ([`msmr_sched::SolverRegistry::evaluate_online`]), so on an admit
//!   OPDCA fast-forwards its in-memory Audsley trace and re-decides only
//!   the suffix the arriving job can perturb; a withdraw decides the
//!   reduced set cold on the patched tables. Solvers without an online
//!   seam are re-solved by the cold adapter, whose verdicts carry the
//!   `cold_fallback` stat. Warm verdicts are byte-identical to
//!   a cold [`msmr_sched::SolverRegistry::evaluate`] once the
//!   execution-provenance fields (`elapsed_micros`, `cold_fallback`) are
//!   zeroed — see [`normalized_verdict_json`].
//! * [`Server`] is a std-only thread-per-connection acceptor over TCP
//!   and Unix-domain sockets; [`read_request`] and [`FrameSink`] are the
//!   framing every connection handler shares. This crate interprets no
//!   requests: the one request loop lives in `msmr-cluster`'s engine
//!   (the `msmr-served` daemon), which fans each evaluation onto the
//!   solver suite and **streams one [`protocol::Frame::Verdict`] per
//!   solver as it finishes** — DM's answer is on the wire while OPT is
//!   still searching — rather than waiting for the batch barrier.
//! * The client side ships here: [`Client`] / [`ResumingClient`] and the
//!   `msmr-admit` binary (a `--replay` mode feeds generated workload
//!   traces from one client on a private session, or from M clients
//!   over K fresh named sessions, all through the one loop
//!   [`Client::replay_arrivals`], and can `--verify` the streamed
//!   verdicts against both offline oracles).
//!
//! # Verification
//!
//! The byte-identity contract is checked in one place, [`history`]: a
//! [`history::Decision`] is one admit or withdraw as a client observed
//! it (built from its frames by [`history::Decision::from_frames`]), and
//! two oracles replay a history offline — [`history::replay_warm`]
//! through a fresh [`AdmissionSession`] in seq order,
//! [`history::replay_cold`] by evaluating every visited job set from
//! scratch. `msmr-admit --verify` (both oracles), the chaos scenarios
//! and the end-to-end suites all call them.
//!
//! # Wire protocol
//!
//! Newline-delimited JSON: each client line is one [`protocol::Request`]
//! (`id` + operation), each daemon line one [`protocol::Response`]
//! echoing that id. The operations are `submit` (open/replace the
//! session with a job set — possibly empty, pipeline only), `admit` (one
//! arriving job), `withdraw` (remove an admitted job by handle),
//! `status` and `shutdown`. A request streams zero or more frames and is
//! always terminated by exactly one `Done` frame, so clients can
//! pipeline requests without framing ambiguity.
//!
//! Protocol **v2** ([`protocol::PROTOCOL_VERSION`]) adds the named-session
//! ops — `attach`/`detach` (named *shared* sessions addressable from any
//! number of connections), `snapshot`/`restore` (persistence across
//! daemon restarts) — and the typed `Overload` backpressure frame.
//! Every daemon answers every op; what `msmr-served --cluster` changes
//! is only where a connection *starts*: bound to a private session of
//! its own (the default — the transcript below needs no `attach`), or
//! unbound until it attaches by name. See the `msmr-cluster` crate docs
//! for a worked attach/snapshot transcript, and the [`protocol`] module
//! docs for the full v1 → v5 version history (v4 adds the `stats`
//! observability op; v5 adds the seq-idempotency rule for crash-safe
//! resume, driven client-side by [`client::ResumingClient`]).
//!
//! A worked transcript (client lines marked `>`, daemon lines `<`,
//! verdicts abbreviated). The session is opened with a pipeline-only
//! submit, then a job is admitted with full-suite evaluation:
//!
//! ```text
//! > {"id":1,"op":{"Submit":{"jobs":{"pipeline":{...},"jobs":[]},"parallel":null}}}
//! < {"id":1,"frame":{"Done":{"frames":0}}}
//! > {"id":2,"op":{"Admit":{"job":{"arrival":0,"deadline":60,"stages":[
//!       {"time":5,"resource":0},{"time":7,"resource":1},{"time":15,"resource":1}]},
//!       "evaluate":true}}}
//! < {"id":2,"frame":{"Verdict":{"verdict":{"solver":"DM","kind":"Accepted",
//!       "stats":{"cold_fallback":true,...},...}}}}
//! < {"id":2,"frame":{"Verdict":{"verdict":{"solver":"DMR","kind":"Accepted",
//!       "stats":{"cold_fallback":true,...},...}}}}
//! < {"id":2,"frame":{"Verdict":{"verdict":{"solver":"OPDCA","kind":"Accepted",...}}}}
//! < {"id":2,"frame":{"Verdict":{"verdict":{"solver":"OPT","kind":"Accepted",
//!       "stats":{"implied_by":"DMR",...},...}}}}
//! < {"id":2,"frame":{"Verdict":{"verdict":{"solver":"DCMP","kind":"Accepted",
//!       "stats":{"cold_fallback":true,...},...}}}}
//! < {"id":2,"frame":{"Admit":{"admitted":true,"job":1,"jobs":1,"decider":"OPDCA","seq":1}}}
//! < {"id":2,"frame":{"Done":{"frames":6}}}
//! > {"id":3,"op":{"Status":{}}}
//! < {"id":3,"frame":{"Status":{"jobs":1,"stages":3,"admitted":[1],"admits":1,
//!       "rejects":0,"solvers":["DM","DMR","OPDCA","OPT","DCMP"],"decider":"OPDCA"}}}
//! < {"id":3,"frame":{"Done":{"frames":1}}}
//! ```
//!
//! The OPDCA verdict comes from its **warm** online path (it
//! fast-forwarded its previous Audsley trace); DM, DMR and DCMP have no
//! online seam, so the cold adapter re-solved them over the warm tables
//! and flagged each verdict with `"cold_fallback":true` — provenance
//! only, zeroed by every byte-comparison. A `withdraw` (here: decider-only, no
//! `"evaluate"`; two more jobs were admitted in between) swap-removes
//! the victim from the cached tables in `O(n·N)`, decides the *reduced*
//! set cold on them and streams the decider's verdict before its result
//! frame:
//!
//! ```text
//! > {"id":6,"op":{"Withdraw":{"job":1,"evaluate":null}}}
//! < {"id":6,"frame":{"Verdict":{"verdict":{"solver":"OPDCA","kind":"Accepted",...}}}}
//! < {"id":6,"frame":{"Withdraw":{"job":1,"jobs":2,"seq":4,"deduped":null}}}
//! < {"id":6,"frame":{"Done":{"frames":2}}}
//! > {"id":7,"op":{"Shutdown":{}}}
//! < {"id":7,"frame":{"Done":{"frames":0}}}
//! ```
//!
//! The `admit` verdict stream is produced by sequential evaluation with
//! the registry's implication shortcuts, so it is identical to offline
//! `SolverRegistry::evaluate` on the same extended job set (the
//! end-to-end suite asserts byte-identity of the serialized verdicts,
//! with the wall-clock `elapsed_micros` field zeroed on both sides —
//! everything else, including node counts and `S_DCA` call counters, must
//! match exactly). A `submit` streams the same way; one with
//! `"parallel":true` is refused with an `Error` frame.
//!
//! # Library example
//!
//! ```
//! use msmr_model::{JobSetBuilder, PreemptionPolicy};
//! use msmr_serve::protocol::{JobSpec, StageDemand};
//! use msmr_serve::{AdmissionSession, SessionConfig};
//!
//! let mut pipeline = JobSetBuilder::new();
//! pipeline.stage("cpu", 2, PreemptionPolicy::Preemptive);
//! let mut session = AdmissionSession::new(SessionConfig::default());
//! session.submit(pipeline.build().unwrap(), false, |_| {});
//! let outcome = session
//!     .admit(
//!         &JobSpec { arrival: 0, deadline: 50, stages: vec![StageDemand { time: 5, resource: 0 }] },
//!         false,
//!         |verdict| println!("{verdict}"),
//!     )
//!     .unwrap();
//! assert!(outcome.admitted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod history;
pub mod protocol;
mod server;
mod session;

pub use client::{
    Client, Endpoint, MixRng, ObservedOp, ReplayOutcome, ResumeStats, ResumingClient, RetryError,
    RetryPolicy,
};
pub use server::{read_request, ConnHandler, ConnStream, FrameSink, Listen, Server};
pub use session::{
    AdmissionSession, AdmitOutcome, DecisionRecord, SessionConfig, SessionError, SessionImage,
    SessionStatus, WithdrawOutcome, DECISION_LOG_CAP,
};

use msmr_dca::DelayBoundKind;
use msmr_sched::Verdict;

/// Serializes a verdict with its execution-provenance fields — the
/// wall-clock `stats.elapsed_micros` and the online-seam
/// `stats.cold_fallback` marker — zeroed, so two runs of the same
/// evaluation (warm or cold) produce byte-identical JSON. This is the
/// normal form every verification path of the workspace compares —
/// `msmr-admit --verify`, the chaos scenarios and the end-to-end suites
/// all use it, so they cannot drift on what "byte-identical" means.
#[must_use]
pub fn normalized_verdict_json(verdict: &Verdict) -> String {
    let mut verdict = verdict.clone();
    verdict.stats.elapsed_micros = 0;
    verdict.stats.cold_fallback = None;
    serde_json::to_string(&verdict).expect("verdicts serialize")
}

/// Parses a delay-bound name as accepted by the binaries' `--bound` flag:
/// the paper's equation numbers (`eq1`, `eq2`, `eq3`, `eq4`, `eq5`,
/// `eq6`, `eq10`) or the `DelayBoundKind` variant names.
#[must_use]
pub fn parse_bound(name: &str) -> Option<DelayBoundKind> {
    match name {
        "eq1" | "PreemptiveSingleResource" => Some(DelayBoundKind::PreemptiveSingleResource),
        "eq2" | "NonPreemptiveSingleResource" => Some(DelayBoundKind::NonPreemptiveSingleResource),
        "eq3" | "PreemptiveMsmr" => Some(DelayBoundKind::PreemptiveMsmr),
        "eq4" | "NonPreemptiveMsmr" => Some(DelayBoundKind::NonPreemptiveMsmr),
        "eq5" | "NonPreemptiveOpa" => Some(DelayBoundKind::NonPreemptiveOpa),
        "eq6" | "RefinedPreemptive" => Some(DelayBoundKind::RefinedPreemptive),
        "eq10" | "EdgeHybrid" => Some(DelayBoundKind::EdgeHybrid),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_sched::{SolverStats, VerdictKind};

    #[test]
    fn normalized_verdict_json_zeroes_exactly_the_provenance_fields() {
        let mut verdict = Verdict {
            solver: "OPDCA".to_string(),
            kind: VerdictKind::Accepted,
            witness: None,
            delays: Some(vec![]),
            unschedulable: vec![],
            stats: SolverStats {
                sdca_calls: 17,
                nodes_explored: 5,
                elapsed_micros: 12_345,
                implied_by: None,
                cold_fallback: Some(true),
            },
        };
        let normalized = normalized_verdict_json(&verdict);
        // The two execution-provenance fields are zeroed in the output…
        assert!(normalized.contains("\"elapsed_micros\":0"), "{normalized}");
        assert!(
            normalized.contains("\"cold_fallback\":null"),
            "{normalized}"
        );
        // …while the decision-relevant stats survive untouched.
        assert!(normalized.contains("\"sdca_calls\":17"), "{normalized}");
        assert!(normalized.contains("\"nodes_explored\":5"), "{normalized}");
        // A warm verdict differing only in provenance normalizes to the
        // same bytes — this is the byte-identity contract every
        // verification path relies on.
        let warm = {
            let mut warm = verdict.clone();
            warm.stats.elapsed_micros = 7;
            warm.stats.cold_fallback = None;
            warm
        };
        assert_eq!(normalized, normalized_verdict_json(&warm));
        // The input verdict itself is untouched.
        assert_eq!(verdict.stats.elapsed_micros, 12_345);
        // Implication provenance is *not* zeroed: an implied verdict is a
        // genuinely different decision path and must not compare equal.
        verdict.stats.implied_by = Some("DMR".to_string());
        assert_ne!(normalized, normalized_verdict_json(&verdict));
    }

    #[test]
    fn bound_names_parse() {
        assert_eq!(parse_bound("eq10"), Some(DelayBoundKind::EdgeHybrid));
        assert_eq!(
            parse_bound("RefinedPreemptive"),
            Some(DelayBoundKind::RefinedPreemptive)
        );
        assert_eq!(parse_bound("nope"), None);
        for kind in DelayBoundKind::all() {
            assert_eq!(parse_bound(&format!("{kind:?}")), Some(kind));
        }
    }
}
