//! `msmr-cluster` — the admission daemon's engine: the one request path
//! of `msmr-served`, with **named shared sessions**, worker-pool
//! execution with typed backpressure, and snapshot/restore.
//!
//! [`ClusterEngine`] interprets every request of every connection. A
//! connection addresses the session it is *bound* to, and where it
//! starts is the daemon's one mode switch: by default on a **private**
//! session of its own — nameless, solved on the connection's thread,
//! gone with the connection, which is all a single operator needs — and
//! under `--cluster` unbound, until it `attach`es to a named session
//! many clients can watch. Either kind of connection can attach, detach
//! and re-attach at will; both kinds of session are the same
//! [`SharedSession`] over one [`msmr_serve::AdmissionSession`]. The
//! pieces:
//!
//! * [`SessionStore`] — sessions are *named* and hashed (stable FNV-1a)
//!   onto `N` shards, each shard a mutex-guarded map of sessions. Any
//!   number of connections [`attach`](msmr_serve::protocol::Op::Attach)
//!   to the same name and admit into / observe the same admitted set.
//!   Operations on one session serialize at that session's own mutex
//!   (shard locks cover lookups only), so an interleaved multi-client
//!   history is always equivalent to a serialized replay — the admit
//!   frames carry a per-session decision sequence number (`seq`) that
//!   makes the serialization order observable and verifiable.
//! * [`msmr_par::WorkerPool`] — a solve (`submit`, `admit`, `withdraw`)
//!   that would wait runs as one task on a fixed-size worker pool behind
//!   a **bounded** queue. Only work that would wait queues: a private
//!   session's ops, and a decider-only admit or withdraw that finds the
//!   queue empty and its session's lock free
//!   ([`SharedSession::try_claim`]), run to completion on the connection
//!   thread and answer in one write. A full queue is answered with the
//!   typed [`Frame::Overload`](msmr_serve::protocol::Frame::Overload)
//!   backpressure frame (the request has no effect; `msmr-admit` maps
//!   it to exit code 75) instead of unbounded buffering or a dropped
//!   connection.
//! * [`SnapshotStore`] — `snapshot` persists a session's admitted job
//!   set plus version counter as one JSON file; on restart (or an
//!   explicit `restore` op) the daemon rebuilds the session and its
//!   warm pair tables by analysing the job set afresh
//!   (`msmr_dca::Analysis::owned`). A graceful `shutdown` snapshots every
//!   session automatically. Boot fails **soft** on corrupt snapshot
//!   files: a torn `SessionImage` is quarantined (renamed to
//!   `.corrupt`, counted in `snapshot_quarantined`) and the remaining
//!   sessions are still served.
//! * **Idempotent resume** — clients MAY stamp `admit`/`withdraw` ops
//!   with the expected decision `seq`; a replayed op (a retry after a
//!   lost ack) is verified against the session's decision log and
//!   re-acked with `deduped: true` instead of being applied twice. See
//!   the seq-idempotency rule in [`msmr_serve::protocol`].
//!
//! One binary ships with the crate: `msmr-served`, the daemon
//! (`--shards`/`--workers`/`--queue`/`--snapshot-dir`/`--session-ttl`
//! size this engine, `--cluster` starts connections unbound). Its
//! client is `msmr-admit` in `msmr-serve`, whose `--replay --clients M
//! --sessions K` drives M concurrent clients over K named sessions from
//! seeded workload traces and verifies the interleaved histories — the
//! smoke scripts' driver; bench history is `benchmark/`'s.
//!
//! # Worked transcript
//!
//! Protocol v2 (`>` client, `<` daemon; verdicts abbreviated). Two
//! clients share the session `tenant-a`; the first snapshots it:
//!
//! ```text
//! # client 1
//! > {"id":1,"op":{"Attach":{"session":"tenant-a","create":true}}}
//! < {"id":1,"frame":{"Attach":{"session":"tenant-a","created":true,"version":0,
//!       "attached":1,"jobs":0,"protocol":2}}}
//! > {"id":2,"op":{"Submit":{"jobs":{"pipeline":{...},"jobs":[]},"parallel":null}}}
//! < {"id":2,"frame":{"Done":{"frames":0}}}
//! > {"id":3,"op":{"Admit":{"job":{...},"evaluate":false}}}
//! < {"id":3,"frame":{"Verdict":{"verdict":{"solver":"OPDCA","kind":"Accepted",...}}}}
//! < {"id":3,"frame":{"Admit":{"admitted":true,"job":1,"jobs":1,"decider":"OPDCA","seq":1}}}
//! < {"id":3,"frame":{"Done":{"frames":2}}}
//!
//! # client 2 (a different connection, possibly much later)
//! > {"id":1,"op":{"Attach":{"session":"tenant-a","create":false}}}
//! < {"id":1,"frame":{"Attach":{"session":"tenant-a","created":false,"version":2,
//!       "attached":2,"jobs":1,"protocol":2}}}
//! > {"id":2,"op":{"Admit":{"job":{...},"evaluate":false}}}
//! < {"id":2,"frame":{"Verdict":{...}}}
//! < {"id":2,"frame":{"Admit":{"admitted":true,"job":2,"jobs":2,"decider":"OPDCA","seq":2}}}
//! < {"id":2,"frame":{"Done":{"frames":2}}}
//!
//! # client 1 persists the shared session (daemon runs with --snapshot-dir)
//! > {"id":4,"op":{"Snapshot":{"session":null}}}
//! < {"id":4,"frame":{"Snapshot":{"session":"tenant-a","version":3,"jobs":2,
//!       "path":"/var/lib/msmr/tenant-a.json"}}}
//! < {"id":4,"frame":{"Done":{"frames":1}}}
//! ```
//!
//! After a daemon restart with the same `--snapshot-dir`, `tenant-a` is
//! already there — same admitted jobs, same handles, warm tables — and a
//! saturated daemon answers any solve op with
//! `{"frame":{"Overload":{"queued":64,"capacity":64}}}` instead of
//! queueing without bound.
//!
//! # Determinism
//!
//! Replaying a seeded arrival trace through a named session — any shard
//! or worker count — produces verdicts and decision seqs byte-identical
//! to a private session's and to offline
//! [`msmr_sched::SolverRegistry::evaluate`] (wall-clock fields zeroed):
//! the executor only moves *where* a solve runs, the session mutex fixes the
//! order, and the arrival path is the same in-place
//! `msmr_dca::Analysis::push` either way. The end-to-end suite pins
//! all three down, and a multi-client `msmr-admit --replay --verify`
//! re-checks the serialized-replay equivalence under real concurrency.
//!
//! # Library example
//!
//! ```
//! use msmr_cluster::{ClusterConfig, ClusterEngine};
//! use msmr_model::{JobSetBuilder, PreemptionPolicy};
//! use msmr_serve::protocol::{JobSpec, StageDemand};
//!
//! let engine = ClusterEngine::new(ClusterConfig::default()).unwrap();
//! let session = engine.store().attach("tenant-a", true).unwrap().session;
//! let mut pipeline = JobSetBuilder::new();
//! pipeline.stage("cpu", 2, PreemptionPolicy::Preemptive);
//! session.submit(pipeline.build().unwrap(), false, |_| {});
//! let (outcome, seq, deduped) = session
//!     .admit(
//!         &JobSpec { arrival: 0, deadline: 50, stages: vec![StageDemand { time: 5, resource: 0 }] },
//!         false,
//!         None,
//!         |_| {},
//!     )
//!     .unwrap();
//! assert!(outcome.admitted);
//! assert_eq!(seq, 1);
//! assert!(!deduped);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod snapshot;
mod store;
pub mod testkit;

pub use engine::{ClusterConfig, ClusterEngine, RestoreIfNewer};
pub use snapshot::{SessionSnapshot, SnapshotStore};
pub use store::{
    session_name_hash, validate_session_name, AttachOutcome, Claim, Clock, SessionStore,
    SharedSession, StoreError, SystemClock, MAX_SESSION_NAME,
};
