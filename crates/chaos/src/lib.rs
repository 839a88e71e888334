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
//!   replays offline through a fresh
//!   [`AdmissionSession`](msmr_serve::AdmissionSession) and every
//!   observed verdict matches byte for byte (after
//!   [`normalized_verdict_json`] zeroes the timing fields).
//! * **Warm provenance.** Sessions restored from snapshots keep their
//!   decider state: no verdict produced after a crash-restart carries
//!   the cold-fallback marker.
//!
//! Every scenario is a pure function of its `seed`, so a failure report
//! ("chaos: seed was N") reproduces exactly.

#![forbid(unsafe_code)]

pub mod harness;
pub mod proxy;
pub mod scenarios;

use msmr_model::JobSet;
use msmr_serve::protocol::JobSpec;
use msmr_serve::{normalized_verdict_json, SessionConfig};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

/// A seeded edge-offloading arrival trace, sized like the load
/// generator's (infrastructure scales with the job count).
///
/// # Errors
///
/// Propagates workload-generator configuration errors as display
/// strings.
pub fn chaos_trace(seed: u64, jobs: usize) -> Result<JobSet, String> {
    let config = EdgeWorkloadConfig::default()
        .with_jobs(jobs)
        .with_infrastructure((jobs / 4).clamp(2, 25), (jobs / 5).clamp(2, 20));
    EdgeWorkloadGenerator::new(config)
        .map_err(|e| e.to_string())
        .map(|generator| generator.generate_seeded(seed))
}

/// One surviving decision of a chaos run, as observed on the wire.
#[derive(Debug, Clone)]
pub enum HistoryOp {
    /// An admission decision.
    Admit {
        /// The job the client offered.
        spec: JobSpec,
        /// The verdict the daemon acked.
        admitted: bool,
    },
    /// A withdrawal.
    Withdraw {
        /// The admitted job's handle.
        handle: u64,
    },
}

/// One seq slot of the surviving history: the op plus the normalized
/// verdict lines the daemon streamed for it. `verdicts` may be empty
/// when the ack survived but its verdict stream was not observed (e.g.
/// the op was applied during a journal replay); the byte-compare is
/// then skipped for that slot, the outcome compare never is.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// The decision's sequence number (1-based, contiguous).
    pub seq: u64,
    /// The op that occupied the slot.
    pub op: HistoryOp,
    /// Normalized verdict JSON lines observed online, in stream order.
    pub verdicts: Vec<String>,
}

/// Replays a surviving seq-ordered history offline through a fresh
/// [`AdmissionSession`](msmr_serve::AdmissionSession) and asserts the
/// byte-identity contract: same admit/reject outcome per seq, and —
/// wherever the online verdict stream was observed — byte-identical
/// normalized verdicts.
///
/// # Errors
///
/// Returns a display string naming the first divergent seq: a gap in
/// the seq numbering, a replay error, an outcome flip, a verdict-count
/// mismatch or a byte difference.
pub fn verify_history(
    trace: &JobSet,
    entries: &[HistoryEntry],
    config: SessionConfig,
) -> Result<(), String> {
    let mut mirror = msmr_serve::AdmissionSession::new(config);
    let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
    mirror.submit(pipeline, false, |_| {});
    for (i, entry) in entries.iter().enumerate() {
        let expected_seq = i as u64 + 1;
        if entry.seq != expected_seq {
            return Err(format!(
                "history has seq {} at slot {expected_seq}: the surviving \
                 record is not contiguous",
                entry.seq
            ));
        }
        let mut offline = Vec::new();
        match &entry.op {
            HistoryOp::Admit { spec, admitted } => {
                let outcome = mirror
                    .admit(spec, true, |v| offline.push(normalized_verdict_json(v)))
                    .map_err(|e| format!("offline replay failed at seq {expected_seq}: {e}"))?;
                if outcome.admitted != *admitted {
                    return Err(format!(
                        "seq {expected_seq} decided {admitted} online but {} offline",
                        outcome.admitted
                    ));
                }
            }
            HistoryOp::Withdraw { handle } => {
                mirror
                    .withdraw(*handle, true, |v| offline.push(normalized_verdict_json(v)))
                    .map_err(|e| format!("offline replay failed at seq {expected_seq}: {e}"))?;
            }
        }
        if entry.verdicts.is_empty() {
            continue;
        }
        if entry.verdicts.len() != offline.len() {
            return Err(format!(
                "seq {expected_seq} streamed {} verdicts online but {} offline",
                entry.verdicts.len(),
                offline.len()
            ));
        }
        for (j, (online, offline)) in entry.verdicts.iter().zip(&offline).enumerate() {
            if online != offline {
                return Err(format!(
                    "seq {expected_seq} verdict {j} diverges:\n  online:  {online}\n  offline: {offline}"
                ));
            }
        }
    }
    Ok(())
}

/// A scratch directory under the system temp dir, unique per tag and
/// seed and wiped on entry, so re-runs start clean.
#[must_use]
pub fn scratch_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("msmr-chaos-{tag}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
