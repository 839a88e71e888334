//! The unified solver seam: one object-safe trait every priority-assignment
//! engine implements, a shared per-job-set [`SolveCtx`], and a
//! serde-serializable [`Verdict`] report.
//!
//! [`Solver::solve`] and [`Solver::admission_control`] (plus
//! [`OnlineSolver`](crate::OnlineSolver) for the warm path) are the only
//! public way to run DM, DMR, OPDCA, OPT and OPT-ILP, and the context's
//! [`Budget`] is the only way to limit one. The experiment harness, the
//! batch evaluator ([`SolverRegistry`](crate::SolverRegistry)), the
//! services, the examples and the benches all program against it. DCMP
//! additionally keeps [`Dcmp::evaluate`](crate::Dcmp::evaluate), whose
//! virtual deadlines and simulation trace no `Verdict` carries.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use msmr_dca::Analysis;
use msmr_model::{JobId, JobSet, Time};
use serde::{Deserialize, Serialize};

use crate::{PairwiseAssignment, PriorityOrdering};

/// Resource limits applied to one [`Solver::solve`] call — the only way
/// to limit a solver.
///
/// Only the exact engines consume budgets (the heuristics are
/// polynomial); solvers that cannot honour a limit ignore it, so a budget
/// can be passed uniformly to a whole registry. Exhausting a limit yields
/// [`VerdictKind::Undecided`], never a rejection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of search nodes for the exact engines. `None` falls
    /// back to each engine's default: 5 000 000 nodes for OPT, 20 000 000
    /// branch-and-bound nodes for OPT-ILP.
    pub node_limit: Option<u64>,
    /// Wall-clock limit for the exact engines; `None` means unlimited.
    pub time_limit: Option<Duration>,
}

impl Budget {
    /// Sets the node limit.
    #[must_use]
    pub fn with_node_limit(mut self, node_limit: u64) -> Self {
        self.node_limit = Some(node_limit);
        self
    }

    /// Sets the wall-clock limit.
    #[must_use]
    pub fn with_time_limit(mut self, time_limit: Duration) -> Self {
        self.time_limit = Some(time_limit);
        self
    }
}

/// Shared context for solving one job set.
///
/// The delay-composition [`Analysis`] is `O(n²·N)` to build and is what
/// every analytical solver queries, so the context builds it **lazily and
/// at most once** per job set — evaluating five approaches through a
/// registry performs one analysis pass instead of five. A caller that
/// already holds an analysis (an admission session keeps one warm across
/// requests) lends it with [`SolveCtx::over`] instead, and the context
/// builds nothing.
pub struct SolveCtx<'a> {
    jobs: &'a JobSet,
    analysis: OnceLock<Cow<'a, Analysis<'a>>>,
    budget: Budget,
}

impl<'a> SolveCtx<'a> {
    /// Creates a context with the default [`Budget`] (each exact engine's
    /// default node limit, no time limit).
    #[must_use]
    pub fn new(jobs: &'a JobSet) -> Self {
        SolveCtx::with_budget(jobs, Budget::default())
    }

    /// Creates a context with an explicit budget.
    #[must_use]
    pub fn with_budget(jobs: &'a JobSet, budget: Budget) -> Self {
        SolveCtx {
            jobs,
            analysis: OnceLock::new(),
            budget,
        }
    }

    /// Creates a context over an analysis the caller already holds, so
    /// no solver pays the `O(n²·N)` pass again.
    #[must_use]
    pub fn over(analysis: &'a Analysis<'_>, budget: Budget) -> Self {
        SolveCtx {
            jobs: analysis.jobs(),
            analysis: OnceLock::from(Cow::Borrowed(analysis)),
            budget,
        }
    }

    /// The job set being solved.
    #[must_use]
    pub fn jobs(&self) -> &'a JobSet {
        self.jobs
    }

    /// The budget applied to solver calls.
    #[must_use]
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The shared interference analysis, built on first use.
    #[must_use]
    pub fn analysis(&self) -> &Analysis<'a> {
        self.analysis
            .get_or_init(|| Cow::Owned(Analysis::new(self.jobs)))
    }

    /// Whether the analysis has been built yet (mainly for tests asserting
    /// the lazy single-build property).
    #[must_use]
    pub fn analysis_is_built(&self) -> bool {
        self.analysis.get().is_some()
    }
}

impl fmt::Debug for SolveCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveCtx")
            .field("jobs", &self.jobs.len())
            .field("analysis_built", &self.analysis_is_built())
            .field("budget", &self.budget)
            .finish()
    }
}

/// The three possible answers of a solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerdictKind {
    /// The solver schedules the whole job set.
    Accepted,
    /// The solver cannot schedule the job set (for heuristics: it found no
    /// feasible assignment; for exact engines: none exists).
    Rejected,
    /// The budget was exhausted before a conclusive answer (exact engines
    /// only); counted as a rejection in acceptance ratios.
    Undecided,
}

/// A feasibility witness attached to an accepted verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Witness {
    /// A total priority ordering (problem P1).
    Ordering(PriorityOrdering),
    /// A pairwise priority assignment (problem P2).
    Pairwise(PairwiseAssignment),
}

impl Witness {
    /// The ordering witness, if this is one.
    #[must_use]
    pub fn as_ordering(&self) -> Option<&PriorityOrdering> {
        match self {
            Witness::Ordering(ordering) => Some(ordering),
            Witness::Pairwise(_) => None,
        }
    }

    /// The pairwise witness, if this is one.
    #[must_use]
    pub fn as_pairwise(&self) -> Option<&PairwiseAssignment> {
        match self {
            Witness::Pairwise(assignment) => Some(assignment),
            Witness::Ordering(_) => None,
        }
    }
}

/// Counters describing one solver run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// `S_DCA` invocations (OPA-style solvers).
    pub sdca_calls: u64,
    /// Search nodes explored (exact engines).
    pub nodes_explored: u64,
    /// Wall-clock time of the solve in microseconds.
    pub elapsed_micros: u64,
    /// When the verdict was synthesized from a registry implication
    /// instead of running the solver, the name of the solver whose
    /// acceptance implied it.
    pub implied_by: Option<String>,
    /// `Some(true)` when an *online* evaluation served this solver through
    /// the registry's cold adapter because it has no
    /// [`OnlineSolver`](crate::OnlineSolver) seam. It marks the path, not
    /// the work: a seam verdict that decided cold (OPDCA after a departure
    /// or a snapshot restore) stays unmarked. Like `elapsed_micros` this
    /// is execution provenance, not part of the decision: verification
    /// paths clear it before byte-comparing verdicts. Optional so that
    /// verdict frames from daemons predating the online seam (which never
    /// emit the field) still parse — missing reads as `None`.
    pub cold_fallback: Option<bool>,
}

/// The unified, serializable result of one [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Name of the solver that produced the verdict.
    pub solver: String,
    /// Accepted / rejected / undecided.
    pub kind: VerdictKind,
    /// Feasibility witness for accepted verdicts (when the solver produces
    /// one; implication-shortcut verdicts carry none).
    pub witness: Option<Witness>,
    /// Per-job end-to-end delay bounds indexed by job id, when the solver
    /// computes them.
    pub delays: Option<Vec<Time>>,
    /// Jobs the solver identified as unschedulable (rejected verdicts).
    pub unschedulable: Vec<JobId>,
    /// Run statistics.
    pub stats: SolverStats,
}

impl Verdict {
    /// Creates an empty verdict of the given kind.
    #[must_use]
    pub fn new(solver: impl Into<String>, kind: VerdictKind) -> Self {
        Verdict {
            solver: solver.into(),
            kind,
            witness: None,
            delays: None,
            unschedulable: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// `true` for [`VerdictKind::Accepted`].
    #[must_use]
    pub fn is_accepted(&self) -> bool {
        self.kind == VerdictKind::Accepted
    }

    /// `true` unless the verdict is [`VerdictKind::Undecided`].
    #[must_use]
    pub fn is_conclusive(&self) -> bool {
        self.kind != VerdictKind::Undecided
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            VerdictKind::Accepted => "accepted",
            VerdictKind::Rejected => "rejected",
            VerdictKind::Undecided => "undecided",
        };
        write!(f, "{}: {kind}", self.solver)?;
        if let Some(source) = &self.stats.implied_by {
            write!(f, " (implied by {source})")?;
        }
        Ok(())
    }
}

/// Result of running a solver as an admission controller: the job set is
/// partitioned into accepted and rejected jobs (§VI-B / Fig. 4d).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionVerdict {
    /// Name of the solver.
    pub solver: String,
    /// Accepted jobs in id order.
    pub accepted: Vec<JobId>,
    /// Rejected jobs in rejection order.
    pub rejected: Vec<JobId>,
    /// Priority witness over the accepted jobs.
    pub witness: Option<Witness>,
}

impl AdmissionVerdict {
    /// Fraction of jobs accepted.
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        let total = self.accepted.len() + self.rejected.len();
        if total == 0 {
            return 1.0;
        }
        self.accepted.len() as f64 / total as f64
    }
}

/// Error returned when a solver is asked for a mode it does not support
/// (e.g. admission control on the exact engines, which the paper does not
/// evaluate as controllers).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnsupportedMode {
    /// Name of the solver.
    pub solver: String,
    /// The requested mode.
    pub mode: String,
}

impl UnsupportedMode {
    /// Creates the error.
    #[must_use]
    pub fn new(solver: impl Into<String>, mode: impl Into<String>) -> Self {
        UnsupportedMode {
            solver: solver.into(),
            mode: mode.into(),
        }
    }
}

impl fmt::Display for UnsupportedMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "solver {} does not support {}", self.solver, self.mode)
    }
}

impl std::error::Error for UnsupportedMode {}

/// The unified interface of every priority-assignment engine.
///
/// The trait is object-safe and `Send + Sync`, so registries can hold
/// boxed solvers and evaluate them from worker threads. It is each
/// engine's only public entry point; the engine code behind it is private
/// to the crate.
pub trait Solver: Send + Sync {
    /// Canonical name of the solver (`"DM"`, `"OPT"`, ... — the names the
    /// registry and the CLI use).
    fn name(&self) -> &str;

    /// `true` when a rejection is a proof that no feasible assignment of
    /// the solver's problem class exists (OPT, OPT-ILP and — for problem
    /// P1 — OPDCA); `false` for heuristics and the simulation baseline.
    fn is_exact(&self) -> bool;

    /// Whether [`Solver::admission_control`] is implemented.
    fn supports_admission(&self) -> bool {
        false
    }

    /// Decides schedulability of the context's job set.
    fn solve(&self, ctx: &SolveCtx<'_>) -> Verdict;

    /// Runs the solver as an admission controller, rejecting jobs until
    /// the remainder is schedulable.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedMode`] when the solver has no admission
    /// variant (check [`Solver::supports_admission`] first).
    fn admission_control(&self, ctx: &SolveCtx<'_>) -> Result<AdmissionVerdict, UnsupportedMode> {
        let _ = ctx;
        Err(UnsupportedMode::new(self.name(), "admission control"))
    }

    /// The solver's stateful online seam, when it has one (see
    /// [`OnlineSolver`](crate::OnlineSolver)): one `decide` that
    /// fast-forwards across an arrival where the solver can, and decides
    /// cold otherwise. Solvers without it are served by the registry's
    /// cold adapter, which re-solves and marks the verdict with
    /// [`SolverStats::cold_fallback`].
    fn online(&self) -> Option<&dyn crate::OnlineSolver> {
        None
    }
}

/// Measures the wall-clock duration of `f` in microseconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    let elapsed = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    (value, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy};

    fn jobs() -> JobSet {
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
    fn analysis_is_lazy_and_shared() {
        let jobs = jobs();
        let ctx = SolveCtx::new(&jobs);
        assert!(!ctx.analysis_is_built());
        let first = ctx.analysis() as *const _;
        assert!(ctx.analysis_is_built());
        let second = ctx.analysis() as *const _;
        assert_eq!(first, second, "analysis must be built exactly once");
    }

    #[test]
    fn budget_builders_compose() {
        let budget = Budget::default()
            .with_node_limit(1_000)
            .with_time_limit(Duration::from_millis(5));
        assert_eq!(budget.node_limit, Some(1_000));
        assert_eq!(budget.time_limit, Some(Duration::from_millis(5)));
        assert_eq!(Budget::default().node_limit, None);
    }

    #[test]
    fn verdict_accessors_and_display() {
        let mut verdict = Verdict::new("OPT", VerdictKind::Accepted);
        assert!(verdict.is_accepted());
        assert!(verdict.is_conclusive());
        assert_eq!(verdict.to_string(), "OPT: accepted");
        verdict.stats.implied_by = Some("DMR".to_string());
        assert_eq!(verdict.to_string(), "OPT: accepted (implied by DMR)");
        let undecided = Verdict::new("OPT", VerdictKind::Undecided);
        assert!(!undecided.is_accepted());
        assert!(!undecided.is_conclusive());
    }

    #[test]
    fn admission_verdict_ratio() {
        let verdict = AdmissionVerdict {
            solver: "DM".to_string(),
            accepted: vec![JobId::new(0), JobId::new(1), JobId::new(2)],
            rejected: vec![JobId::new(3)],
            witness: None,
        };
        assert!((verdict.acceptance_ratio() - 0.75).abs() < 1e-12);
        let empty = AdmissionVerdict {
            solver: "DM".to_string(),
            accepted: Vec::new(),
            rejected: Vec::new(),
            witness: None,
        };
        assert!((empty.acceptance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unsupported_mode_names_the_solver() {
        let err = UnsupportedMode::new("DCMP", "admission control");
        assert_eq!(
            err.to_string(),
            "solver DCMP does not support admission control"
        );
    }

    #[test]
    fn witness_accessors() {
        let ordering = Witness::Ordering(PriorityOrdering::new(vec![JobId::new(0)]));
        assert!(ordering.as_ordering().is_some());
        assert!(ordering.as_pairwise().is_none());
        let pairwise = Witness::Pairwise(PairwiseAssignment::new());
        assert!(pairwise.as_pairwise().is_some());
        assert!(pairwise.as_ordering().is_none());
    }
}
