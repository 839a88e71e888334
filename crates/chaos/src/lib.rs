//! Seeded fault-injection harness for the admission daemon.
//!
//! The crate drives the recovery seam end to end: it boots real daemons
//! (or in-process [`ClusterEngine`](msmr_cluster::ClusterEngine)s),
//! injects one fault family per scenario — SIGKILL mid-replay, torn
//! snapshot files, worker-pool overload storms, byte-level frame
//! corruption/duplication/reordering through the [`proxy::ChaosProxy`],
//! and clock skew against the TTL reaper — and then asserts that the
//! survivors uphold the contracts the rest of the workspace relies on:
//!
//! * **Exactly-once application.** Replayed seq-stamped ops are acked
//!   (`deduped: true`) but never re-applied; the daemon's decision
//!   counter equals the number of unique ops.
//! * **Byte-identity.** The seq-ordered history that survives the chaos
//!   goes through the warm oracle
//!   [`msmr_serve::history::replay_warm`]: it replays offline through a
//!   fresh [`AdmissionSession`](msmr_serve::AdmissionSession) and every
//!   observed verdict matches byte for byte (after
//!   [`normalized_verdict_json`](msmr_serve::normalized_verdict_json)
//!   zeroes the timing fields).
//! * **Warm provenance.** Sessions restored from snapshots decide
//!   through the decider's online seam again: no verdict produced after
//!   a crash-restart carries the cold-fallback marker.
//!
//! Every scenario is a pure function of its `seed`, so a failure report
//! ("chaos: seed was N") reproduces exactly.

#![forbid(unsafe_code)]

pub mod harness;
pub mod proxy;
pub mod scenarios;

use msmr_model::JobSet;
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

/// A seeded edge-offloading arrival trace, sized like the load
/// generator's ([`EdgeWorkloadConfig::scaled`]).
///
/// # Errors
///
/// Propagates workload-generator configuration errors as display
/// strings.
pub fn chaos_trace(seed: u64, jobs: usize) -> Result<JobSet, String> {
    EdgeWorkloadGenerator::new(EdgeWorkloadConfig::scaled(jobs))
        .map_err(|e| e.to_string())
        .map(|generator| generator.generate_seeded(seed))
}

/// A scratch directory under the system temp dir, unique per tag and
/// seed and wiped on entry, so re-runs start clean.
#[must_use]
pub fn scratch_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("msmr-chaos-{tag}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
