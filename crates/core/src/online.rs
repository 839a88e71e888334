//! The stateful online solver seam: warm cross-admit decider state.
//!
//! The one-shot [`Solver`](crate::Solver) seam forces every admission
//! decision to re-run its whole decision procedure from scratch, even when
//! the serving layer already keeps the interference tables warm and the
//! job set changed by exactly one arrival. [`OnlineSolver`] is the
//! *stateful* counterpart: a solver that persists what it decided — its
//! [`DeciderState`] — and, when the next job set extends the recorded one
//! by one arrival, re-decides only the suffix of that decision the
//! arrival can perturb. Every other change (a departure, a submit, a
//! restored snapshot) decides cold; the pair tables' lineage
//! ([`PairTables::parent_generation`](msmr_dca::PairTables::parent_generation))
//! tells the two apart, so the seam needs no event argument.
//!
//! Three rules keep the seam honest:
//!
//! 1. **Byte-identity.** A warm verdict must equal the cold
//!    [`Solver::solve`](crate::Solver::solve) verdict on the same job set
//!    bit for bit once wall-clock provenance fields
//!    ([`SolverStats::elapsed_micros`](crate::SolverStats) and
//!    [`SolverStats::cold_fallback`](crate::SolverStats)) are zeroed —
//!    including work counters like `sdca_calls`. Warm paths that skip
//!    probes must therefore *account* for the probes the cold run would
//!    have spent, and may only skip a probe whose outcome is provable
//!    (the delay bounds are monotone in the assumed-higher set, so adding
//!    an arrival can never turn a failed Audsley probe into a pass).
//! 2. **States are advisory.** A state lives only in memory (a session
//!    snapshot does not carry it, so a restored session starts blank) and
//!    is shape-validated before use; a state that does not describe the
//!    current job set is ignored and the solver decides cold.
//!    Semantically-wrong-but-well-shaped states are trusted, like the
//!    pair-table values themselves. The cache riding on a state (OPDCA's
//!    [`AudsleyState::cache`]) is used only on the exact tables it was
//!    computed from, so a mismatched state loses its warmth, never its
//!    bytes.
//! 3. **Capability, not obligation.** [`Solver::online`](crate::Solver)
//!    is an optional hook; solvers without it keep working through the
//!    registry's cold adapter, which marks its verdicts with the
//!    `cold_fallback` stat.

use std::sync::Arc;

use msmr_dca::EvaluatorState;
use msmr_model::JobId;

use crate::solver::{SolveCtx, Verdict};

/// The warm state of one online solver, kept in memory between
/// decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum DeciderState {
    /// No usable history: the next decide runs cold (and records a fresh
    /// state). This is both the blank-start state and the invalidation
    /// marker for solvers that missed an operation.
    #[default]
    Stateless,
    /// OPDCA's Audsley level trace ([`AudsleyState`]).
    Audsley(AudsleyState),
}

/// The recorded walk of one OPDCA Audsley loop: which job took each
/// priority level (lowest first) and how many `S_DCA` probes the cold loop
/// spent at that level. An [`OnlineSolver::decide`] on the set plus one
/// arrival fast-forwards this trace — a level whose recorded winner
/// still passes is re-used with one probe instead of `probes[level]`,
/// while the *reported* `sdca_calls` still charges the cold count,
/// keeping warm verdicts byte-identical.
///
/// The fast-forward reads its bounds from [`AudsleyState::cache`], the
/// recording decide's final evaluator state. The cache is advisory: it is
/// never compared, and used only on the exact pair tables it was computed
/// from (their
/// [`PairTables::generation`](msmr_dca::PairTables::generation) before the
/// arrival). Without it — on tables it does not match — an admit decides
/// cold, with the same bytes.
#[derive(Debug, Clone, Default)]
pub struct AudsleyState {
    /// The job assigned at each level, in assignment order (lowest
    /// priority first).
    pub winners: Vec<JobId>,
    /// `S_DCA` probes the cold loop spends at each level; one trailing
    /// entry for the failing level when `rejected`.
    pub probes: Vec<u64>,
    /// `true` when the trace ends in a level no candidate passed.
    pub rejected: bool,
    /// Every job's bound state at its own decision level, as the
    /// recording decide left it (shared, so cloning a state is `O(1)`).
    pub cache: Option<Arc<EvaluatorState>>,
}

/// Traces compare by their walk; the cache is derived from it.
impl PartialEq for AudsleyState {
    fn eq(&self, other: &Self) -> bool {
        self.winners == other.winners
            && self.probes == other.probes
            && self.rejected == other.rejected
    }
}

impl AudsleyState {
    /// `true` when the trace is shape-consistent with a job set of `jobs`
    /// jobs: winners are unique in-range ids, the probe list matches the
    /// level count, every probe count is achievable, and an accepted
    /// trace covers the whole set. A trace paired with a job set it was
    /// not recorded on (a caller-built state, or a slot handed to the
    /// wrong set) fails this and the decider falls back to a cold run.
    #[must_use]
    pub fn describes(&self, jobs: usize) -> bool {
        let levels = self.winners.len();
        if self.probes.len() != levels + usize::from(self.rejected) {
            return false;
        }
        if self.rejected {
            if levels >= jobs {
                return false;
            }
        } else if levels != jobs {
            return false;
        }
        let mut seen = vec![false; jobs];
        for (level, &winner) in self.winners.iter().enumerate() {
            if winner.index() >= jobs || seen[winner.index()] {
                return false;
            }
            seen[winner.index()] = true;
            // At level `level` there are `jobs - level` candidates.
            let candidates = (jobs - level) as u64;
            if self.probes[level] < 1 || self.probes[level] > candidates {
                return false;
            }
        }
        if self.rejected {
            let candidates = (jobs - levels) as u64;
            if self.probes[levels] != candidates {
                return false;
            }
        }
        true
    }
}

/// The stateful counterpart of [`Solver`](crate::Solver): decides the
/// same questions, but persists a [`DeciderState`] between calls so that
/// an arrival re-decides only what the arriving job can perturb.
///
/// # Contract
///
/// * `decide` accepts **any** state, including
///   [`DeciderState::Stateless`] and states of the wrong shape; an
///   unusable state simply makes the call decide cold. On return the
///   state always describes the context's job set.
/// * A warm verdict is byte-identical to the cold
///   [`Solver::solve`](crate::Solver::solve) on the same context once the
///   wall-clock provenance fields are zeroed (work counters included).
/// * Callers that *reject* the decided set (admission rollback) must
///   restore the previous state themselves — states are cheap `O(n)`
///   clones (caches are shared, not copied).
pub trait OnlineSolver: Send + Sync {
    /// Decides the context's job set, fast-forwarding from `state` when
    /// it describes the set *without* the highest-id job (the arrival)
    /// and carries what the fast-forward reads (OPDCA: its bound cache,
    /// over the context's tables before the arrival). Anything else —
    /// a departure, a fresh submit, a blank state — decides cold and
    /// records a fresh state.
    fn decide(&self, state: &mut DeciderState, ctx: &SolveCtx<'_>) -> Verdict;
}

/// The warm decider states of a whole registry, keyed by solver name —
/// what an admission session carries in memory between requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineSuiteState {
    /// Per-solver states. Absent name ⇒ [`DeciderState::Stateless`].
    pub states: std::collections::BTreeMap<String, DeciderState>,
}

impl OnlineSuiteState {
    /// An empty suite state (every solver decides cold on first use).
    #[must_use]
    pub fn new() -> Self {
        OnlineSuiteState::default()
    }

    /// The mutable state slot of one solver, created as
    /// [`DeciderState::Stateless`] on first access.
    pub fn state_mut(&mut self, solver: &str) -> &mut DeciderState {
        self.states.entry(solver.to_string()).or_default()
    }

    /// Drops one solver's state (it missed an operation and must decide
    /// cold next time).
    pub fn invalidate(&mut self, solver: &str) {
        self.states.remove(solver);
    }

    /// Drops every state except `keep`'s — the bookkeeping of a
    /// single-decider operation that bypassed the rest of the suite.
    pub fn invalidate_except(&mut self, keep: &str) {
        self.states.retain(|name, _| name == keep);
    }

    /// Number of solvers holding a non-default state entry.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when no solver holds state.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audsley_shape_validation() {
        let accepted = AudsleyState {
            winners: vec![JobId::new(2), JobId::new(0), JobId::new(1)],
            probes: vec![3, 1, 1],
            rejected: false,
            ..Default::default()
        };
        assert!(accepted.describes(3));
        assert!(!accepted.describes(4), "accepted traces cover the set");

        let rejected = AudsleyState {
            winners: vec![JobId::new(1)],
            probes: vec![2, 3],
            rejected: true,
            ..Default::default()
        };
        assert!(rejected.describes(4));
        assert!(!rejected.describes(1));

        // Duplicate winners, out-of-range ids, impossible probe counts.
        let dup = AudsleyState {
            winners: vec![JobId::new(0), JobId::new(0)],
            probes: vec![1, 1],
            rejected: false,
            ..Default::default()
        };
        assert!(!dup.describes(2));
        let out = AudsleyState {
            winners: vec![JobId::new(9)],
            probes: vec![1],
            rejected: false,
            ..Default::default()
        };
        assert!(!out.describes(1));
        let greedy = AudsleyState {
            winners: vec![JobId::new(0), JobId::new(1)],
            probes: vec![5, 1],
            rejected: false,
            ..Default::default()
        };
        assert!(!greedy.describes(2));
    }

    #[test]
    fn suite_state_slots_and_invalidation() {
        let mut suite = OnlineSuiteState::new();
        assert!(suite.is_empty());
        *suite.state_mut("OPDCA") = DeciderState::Audsley(AudsleyState::default());
        *suite.state_mut("DMR") = DeciderState::Stateless;
        assert_eq!(suite.len(), 2);
        suite.invalidate("DMR");
        assert!(!suite.states.contains_key("DMR"));
        let _ = suite.state_mut("DMR");
        assert_eq!(suite.states.get("DMR"), Some(&DeciderState::Stateless));
        suite.invalidate_except("OPDCA");
        assert_eq!(suite.len(), 1);
        assert!(matches!(
            suite.states.get("OPDCA"),
            Some(DeciderState::Audsley(_))
        ));
    }
}
