//! Optimal fixed-priority scheduling for multi-stage multi-resource (MSMR)
//! distributed real-time systems.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*"Optimal Fixed Priority Scheduling in Multi-Stage Multi-Resource
//! Distributed Real-Time Systems"*, DATE 2024). On top of the delay
//! composition bounds of [`msmr_dca`] it provides:
//!
//! * `S_DCA` is [`DelayEvaluator::fits`](msmr_dca::DelayEvaluator::fits)
//!   under OPDCA's bound: the schedulability test `S_DCA(J_i, H_i, L_i)`
//!   of §IV-A compares the delay bound selected by a [`DelayBoundKind`]
//!   against the target's deadline.
//! * [`Opdca`] — Algorithm 1: Audsley's optimal priority assignment driven
//!   by `S_DCA`, producing a total [`PriorityOrdering`] (problem P1), plus
//!   the admission-controller variant used in Fig. 4d.
//! * [`PairwiseAssignment`] — the pairwise priority relation of problem
//!   P2, with [`Dm`] (deadline-monotonic), [`Dmr`] (Algorithm 2:
//!   deadline-monotonic & repair), and two exact engines for OPT:
//!   [`OptPairwise`] (a specialised branch-and-bound over the orientation
//!   variables) and [`PairwiseIlp`] (the paper's ILP formulation, Eqs.
//!   7–9, solved with the `msmr-ilp` substitute for Gurobi).
//! * [`Dcmp`] — the decomposition baseline of §VI-A: per-stage virtual
//!   deadlines plus simulated deadline-monotonic execution on the
//!   `msmr-sim` engine.
//! * [`admission`] — helpers shared by the admission-controller variants
//!   (rejected-heaviness metric of Fig. 4d).
//!
//! All six engines run through one object-safe seam, which is each
//! engine's only public entry point (DM, DMR, OPDCA, OPT and OPT-ILP
//! expose nothing else but `new` and `bound`; DCMP also keeps
//! [`Dcmp::evaluate`] for its virtual deadlines and trace):
//!
//! * [`Solver`] — `solve(&SolveCtx) -> Verdict` and
//!   `admission_control(&SolveCtx)` plus capability queries
//!   ([`Solver::is_exact`], [`Solver::supports_admission`],
//!   [`Solver::name`]), implemented by [`Dm`], [`Dmr`], [`Opdca`],
//!   [`OptPairwise`], [`PairwiseIlp`] and [`Dcmp`]; [`OnlineSolver`] is
//!   OPDCA's warm path (one `decide` method; only an arrival resumes
//!   it); the registry's cold adapter serves every other solver.
//! * [`SolveCtx`] — shared, lazily-built [`msmr_dca::Analysis`] (one
//!   `O(n²·N)` pass per job set, not per approach) and a [`Budget`]
//!   (node limit, wall-clock deadline) — the only way to limit a solver.
//! * [`Verdict`] — the unified, serde-serializable report: accepted /
//!   rejected / undecided, an optional [`Witness`]
//!   ([`PriorityOrdering`] or [`PairwiseAssignment`]), per-job delay
//!   bounds and [`SolverStats`].
//! * [`SolverRegistry`] — maps names to boxed solvers, encodes the
//!   `DMR ⇒ OPT` / `OPDCA ⇒ OPT` implication shortcuts declaratively, and
//!   fans batches of job sets out over worker threads
//!   ([`SolverRegistry::evaluate_batch`]).
//!
//! # Quick start
//!
//! Build a job set, then evaluate every approach of the paper through the
//! registry — the analysis is computed once and shared, and OPT is
//! short-circuited whenever DMR or OPDCA already proves feasibility:
//!
//! ```
//! use msmr_dca::DelayBoundKind;
//! use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
//! use msmr_sched::{Budget, SolverRegistry};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = JobSetBuilder::new();
//! b.stage("net", 1, PreemptionPolicy::Preemptive)
//!     .stage("cpu", 2, PreemptionPolicy::Preemptive);
//! b.job()
//!     .deadline(Time::from_millis(60))
//!     .stage_time(Time::from_millis(5), 0)
//!     .stage_time(Time::from_millis(30), 0)
//!     .add()?;
//! b.job()
//!     .deadline(Time::from_millis(50))
//!     .stage_time(Time::from_millis(8), 0)
//!     .stage_time(Time::from_millis(20), 1)
//!     .add()?;
//! let jobs = b.build()?;
//!
//! let registry = SolverRegistry::paper_suite(DelayBoundKind::RefinedPreemptive);
//! let verdicts = registry.evaluate(&jobs, Budget::default());
//! assert_eq!(verdicts.len(), 5);
//! assert!(verdicts.iter().all(|v| v.is_accepted()));
//!
//! // Single solvers are addressable by name, e.g. for a CLI:
//! let opdca = registry.solver("OPDCA").expect("registered");
//! assert!(opdca.is_exact() && opdca.supports_admission());
//! # Ok(())
//! # }
//! ```
//!
//! Batches fan out over worker threads while keeping per-case results
//! identical to the sequential path:
//!
//! ```no_run
//! use msmr_dca::DelayBoundKind;
//! use msmr_model::JobSet;
//! use msmr_sched::{Budget, SolverRegistry};
//!
//! # fn load_cases() -> Vec<JobSet> { Vec::new() }
//! let registry = SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid);
//! let cases: Vec<JobSet> = load_cases();
//! let budget = Budget::default().with_node_limit(200_000);
//! let verdicts = registry.evaluate_batch(&cases, budget, msmr_par::default_threads());
//! ```
//!
//! One engine runs the same way on its own; the verdict carries the
//! witness, the per-job delays and the work counters:
//!
//! ```
//! use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
//! use msmr_sched::{Budget, DelayBoundKind, OptPairwise, SolveCtx, Solver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = JobSetBuilder::new();
//! b.stage("cpu", 1, PreemptionPolicy::Preemptive);
//! for deadline in [10, 12] {
//!     b.job()
//!         .deadline(Time::new(deadline))
//!         .stage_time(Time::new(5), 0)
//!         .add()?;
//! }
//! let jobs = b.build()?;
//! let ctx = SolveCtx::with_budget(&jobs, Budget::default().with_node_limit(1_000));
//! let verdict = OptPairwise::new(DelayBoundKind::RefinedPreemptive).solve(&ctx);
//! assert!(verdict.is_accepted() && verdict.witness.is_some());
//! assert!(verdict.stats.nodes_explored > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod dcmp;
mod dmr;
mod error;
mod ilp_encoding;
mod online;
mod opdca;
mod opt;
mod ordering;
mod pairwise;
mod registry;
mod solver;
mod solvers;

pub use dcmp::{Dcmp, DcmpOutcome};
pub use dmr::{Dm, Dmr};
pub(crate) use error::InfeasibleError;
pub use ilp_encoding::PairwiseIlp;
pub use online::{AudsleyState, DeciderState, OnlineSolver, OnlineSuiteState};
pub use opdca::Opdca;
pub use opt::OptPairwise;
pub use ordering::PriorityOrdering;
pub use pairwise::{PairwiseAssignment, PairwiseCycleError};
pub use registry::SolverRegistry;
pub use solver::{
    AdmissionVerdict, Budget, SolveCtx, Solver, SolverStats, UnsupportedMode, Verdict, VerdictKind,
    Witness,
};
pub use solvers::{DCMP, DM, DMR, OPDCA, OPT, OPT_ILP};

// Re-export the bound selector so downstream users rarely need msmr-dca
// directly.
pub use msmr_dca::DelayBoundKind;

#[cfg(test)]
mod test_support {
    //! The reference oracle's verdict on a pairwise assignment, shared by
    //! the engines' unit tests.

    use msmr_dca::reference::ReferenceBounds;
    use msmr_dca::DelayBoundKind;

    use crate::PairwiseAssignment;

    /// `true` iff every job of the reference's set meets its deadline under
    /// `assignment` and `bound`, evaluated by the naive reference bounds.
    pub(crate) fn assignment_fits(
        reference: &ReferenceBounds<'_>,
        assignment: &PairwiseAssignment,
        bound: DelayBoundKind,
    ) -> bool {
        let jobs = reference.jobs();
        jobs.job_ids()
            .all(|i| reference.meets_deadline(bound, i, &assignment.interference_sets(jobs, i)))
    }
}
