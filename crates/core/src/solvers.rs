//! [`Solver`] implementations for the six engines of the workspace — each
//! engine's only public entry point.
//!
//! Each impl runs the engine's crate-private code on the context's shared
//! analysis, translates the engine-specific outcome into the unified
//! [`Verdict`] and honours the [`Budget`](crate::Budget) of the context
//! where the engine supports limits (OPT and OPT-ILP).

use std::sync::Arc;

use msmr_dca::DelayBoundKind;

use crate::online::{DeciderState, OnlineSolver};
use crate::opdca::{AudsleyResume, OrderingResult};
use crate::opt::PairwiseSearchOutcome;
use crate::solver::{
    timed, AdmissionVerdict, SolveCtx, Solver, SolverStats, UnsupportedMode, Verdict, VerdictKind,
    Witness,
};
use crate::{Dcmp, Dm, Dmr, InfeasibleError, Opdca, OptPairwise, PairwiseIlp};

/// Canonical registry/CLI name of the deadline-monotonic baseline.
pub const DM: &str = "DM";
/// Canonical name of the deadline-monotonic & repair heuristic.
pub const DMR: &str = "DMR";
/// Canonical name of Algorithm 1 (Audsley / `S_DCA`).
pub const OPDCA: &str = "OPDCA";
/// Canonical name of the exact pairwise branch-and-bound engine.
pub const OPT: &str = "OPT";
/// Canonical name of the paper's ILP formulation of OPT.
pub const OPT_ILP: &str = "OPT-ILP";
/// Canonical name of the deadline-decomposition simulation baseline.
pub const DCMP: &str = "DCMP";

/// OPT's node limit when the context's budget sets none.
const OPT_DEFAULT_NODE_LIMIT: u64 = 5_000_000;
/// OPT-ILP's branch-and-bound node limit when the budget sets none.
const OPT_ILP_DEFAULT_NODE_LIMIT: u64 = 20_000_000;

impl Solver for Dm {
    fn name(&self) -> &str {
        DM
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn supports_admission(&self) -> bool {
        true
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Verdict {
        // Force the shared analysis outside the timed section so
        // `elapsed_micros` reflects only this solver's own work,
        // independent of its position in a registry's evaluation order.
        let analysis = ctx.analysis();
        let (verdict, elapsed) = timed(|| {
            let (assignment, delays) = self.assignment_with_delays(analysis);
            let unschedulable: Vec<_> = ctx
                .jobs()
                .job_ids()
                .filter(|&job| delays[job.index()] > ctx.jobs().job(job).deadline())
                .collect();
            let kind = if unschedulable.is_empty() {
                VerdictKind::Accepted
            } else {
                VerdictKind::Rejected
            };
            // Witnesses certify feasibility, so only accepted verdicts
            // carry the DM assignment; the delays still explain rejections.
            let witness = (kind == VerdictKind::Accepted).then_some(Witness::Pairwise(assignment));
            Verdict {
                solver: DM.to_string(),
                kind,
                witness,
                delays: Some(delays),
                unschedulable,
                stats: SolverStats::default(),
            }
        });
        with_elapsed(verdict, elapsed)
    }

    fn admission_control(&self, ctx: &SolveCtx<'_>) -> Result<AdmissionVerdict, UnsupportedMode> {
        let outcome = self.admission_control_with_analysis(ctx.analysis());
        Ok(AdmissionVerdict {
            solver: DM.to_string(),
            accepted: outcome.accepted,
            rejected: outcome.rejected,
            witness: Some(Witness::Pairwise(outcome.assignment)),
        })
    }
}

impl Solver for Dmr {
    fn name(&self) -> &str {
        DMR
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn supports_admission(&self) -> bool {
        true
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Verdict {
        let analysis = ctx.analysis();
        let (verdict, elapsed) = timed(|| match self.assign_with_delays(analysis) {
            Ok((assignment, delays)) => Verdict {
                solver: DMR.to_string(),
                kind: VerdictKind::Accepted,
                witness: Some(Witness::Pairwise(assignment)),
                delays: Some(delays),
                unschedulable: Vec::new(),
                stats: SolverStats::default(),
            },
            Err(err) => Verdict {
                solver: DMR.to_string(),
                kind: VerdictKind::Rejected,
                witness: None,
                delays: None,
                unschedulable: err.unschedulable,
                stats: SolverStats::default(),
            },
        });
        with_elapsed(verdict, elapsed)
    }

    fn admission_control(&self, ctx: &SolveCtx<'_>) -> Result<AdmissionVerdict, UnsupportedMode> {
        let outcome = self.admission_control_with_analysis(ctx.analysis());
        Ok(AdmissionVerdict {
            solver: DMR.to_string(),
            accepted: outcome.accepted,
            rejected: outcome.rejected,
            witness: Some(Witness::Pairwise(outcome.assignment)),
        })
    }
}

impl Solver for Opdca {
    fn name(&self) -> &str {
        OPDCA
    }

    // Optimal for problem P1 (total orderings) with respect to `S_DCA`:
    // a rejection proves no ordering passes the test.
    fn is_exact(&self) -> bool {
        true
    }

    fn supports_admission(&self) -> bool {
        true
    }

    fn online(&self) -> Option<&dyn OnlineSolver> {
        Some(self)
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Verdict {
        let analysis = ctx.analysis();
        let (verdict, elapsed) =
            timed(|| opdca_verdict(self.decide_traced(analysis, AudsleyResume::Cold).result));
        with_elapsed(verdict, elapsed)
    }

    fn admission_control(&self, ctx: &SolveCtx<'_>) -> Result<AdmissionVerdict, UnsupportedMode> {
        let outcome = self.admission_control_with_analysis(ctx.analysis());
        Ok(AdmissionVerdict {
            solver: OPDCA.to_string(),
            accepted: outcome.accepted,
            rejected: outcome.rejected,
            witness: Some(Witness::Ordering(outcome.ordering)),
        })
    }
}

impl Solver for OptPairwise {
    fn name(&self) -> &str {
        OPT
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Verdict {
        let budget = ctx.budget();
        let analysis = ctx.analysis();
        let (verdict, elapsed) = timed(|| {
            let node_limit = budget.node_limit.unwrap_or(OPT_DEFAULT_NODE_LIMIT);
            let (outcome, nodes) = self.search(analysis, node_limit, budget.time_limit);
            pairwise_outcome_verdict(OPT, ctx, self.bound(), outcome, nodes)
        });
        with_elapsed(verdict, elapsed)
    }
}

impl Solver for PairwiseIlp {
    fn name(&self) -> &str {
        OPT_ILP
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Verdict {
        let budget = ctx.budget();
        let analysis = ctx.analysis();
        let (verdict, elapsed) = timed(|| {
            let node_limit = budget.node_limit.unwrap_or(OPT_ILP_DEFAULT_NODE_LIMIT);
            let (outcome, nodes) = self.search(analysis, node_limit, budget.time_limit);
            pairwise_outcome_verdict(OPT_ILP, ctx, self.bound(), outcome, nodes)
        });
        with_elapsed(verdict, elapsed)
    }
}

impl Solver for Dcmp {
    fn name(&self) -> &str {
        DCMP
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Verdict {
        let ((accepted, unschedulable), elapsed) = timed(|| self.decide(ctx.jobs()));
        let kind = if accepted {
            VerdictKind::Accepted
        } else {
            VerdictKind::Rejected
        };
        // `unschedulable` lists end-to-end misses while acceptance is
        // decided on virtual deadlines: see `DcmpOutcome::accepted`.
        let verdict = Verdict {
            solver: DCMP.to_string(),
            kind,
            witness: None,
            delays: None,
            unschedulable,
            stats: SolverStats::default(),
        };
        with_elapsed(verdict, elapsed)
    }
}

/// OPDCA's warm path, the only online seam: it fast-forwards its
/// persisted Audsley trace across one arrival and re-decides only the
/// suffix the arriving job can perturb (see `Opdca::decide_traced`);
/// every other change decides cold. DM and DMR have no state to carry —
/// DM's assignment depends only on deadlines, and DMR's repair steps are
/// globally coupled (each step's candidate ranking reads the slack every
/// earlier flip moved) — so the registry's cold adapter serves them over
/// the already-warm tables.
impl OnlineSolver for Opdca {
    fn decide(&self, state: &mut DeciderState, ctx: &SolveCtx<'_>) -> Verdict {
        let analysis = ctx.analysis();
        let mut previous = std::mem::replace(state, DeciderState::Stateless);
        let (verdict, elapsed) = timed(|| {
            // The cache is used only on the tables it was computed from,
            // as they were before this arrival; anything else — including
            // every departure, whose tables have no parent — decides cold.
            let resume = match &mut previous {
                DeciderState::Audsley(trace) => match trace.cache.take() {
                    Some(cache)
                        if Some(cache.generation()) == analysis.tables().parent_generation()
                            && cache.kind() == self.bound()
                            && trace.describes(analysis.jobs().len() - 1) =>
                    {
                        AudsleyResume::Admit {
                            previous: trace,
                            cache: Arc::unwrap_or_clone(cache),
                        }
                    }
                    _ => AudsleyResume::Cold,
                },
                DeciderState::Stateless => AudsleyResume::Cold,
            };
            let outcome = self.decide_traced(analysis, resume);
            let mut trace = outcome.trace;
            trace.cache = Some(Arc::new(outcome.evaluator.into_state()));
            *state = DeciderState::Audsley(trace);
            opdca_verdict(outcome.result)
        });
        with_elapsed(verdict, elapsed)
    }
}

/// Translates an OPDCA outcome into the unified verdict — the one
/// assembly shared by the cold [`Solver::solve`] and the warm
/// [`OnlineSolver`] paths, so they cannot drift.
fn opdca_verdict(result: Result<OrderingResult, InfeasibleError>) -> Verdict {
    match result {
        Ok(result) => Verdict {
            solver: OPDCA.to_string(),
            kind: VerdictKind::Accepted,
            witness: Some(Witness::Ordering(result.ordering)),
            delays: Some(result.delays),
            unschedulable: Vec::new(),
            stats: SolverStats {
                sdca_calls: result.sdca_calls,
                ..SolverStats::default()
            },
        },
        Err(err) => Verdict {
            solver: OPDCA.to_string(),
            kind: VerdictKind::Rejected,
            witness: None,
            delays: None,
            unschedulable: err.unschedulable,
            stats: SolverStats::default(),
        },
    }
}

/// Translates a [`PairwiseSearchOutcome`] into a [`Verdict`].
fn pairwise_outcome_verdict(
    name: &str,
    ctx: &SolveCtx<'_>,
    bound: DelayBoundKind,
    outcome: PairwiseSearchOutcome,
    nodes: u64,
) -> Verdict {
    let stats = SolverStats {
        nodes_explored: nodes,
        ..SolverStats::default()
    };
    match outcome {
        PairwiseSearchOutcome::Feasible(assignment) => {
            let delays = assignment.delays(ctx.analysis(), bound);
            Verdict {
                solver: name.to_string(),
                kind: VerdictKind::Accepted,
                witness: Some(Witness::Pairwise(assignment)),
                delays: Some(delays),
                unschedulable: Vec::new(),
                stats,
            }
        }
        PairwiseSearchOutcome::Infeasible => Verdict {
            solver: name.to_string(),
            kind: VerdictKind::Rejected,
            witness: None,
            delays: None,
            unschedulable: Vec::new(),
            stats,
        },
        PairwiseSearchOutcome::Unknown => Verdict {
            solver: name.to_string(),
            kind: VerdictKind::Undecided,
            witness: None,
            delays: None,
            unschedulable: Vec::new(),
            stats,
        },
    }
}

fn with_elapsed(mut verdict: Verdict, elapsed_micros: u64) -> Verdict {
    verdict.stats.elapsed_micros = elapsed_micros;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, SolveCtx};
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};

    fn light_jobs() -> msmr_model::JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("a", 2, PreemptionPolicy::Preemptive)
            .stage("b", 2, PreemptionPolicy::Preemptive);
        for i in 0..3u64 {
            b.job()
                .deadline(Time::new(100))
                .stage_time(Time::new(4), (i % 2) as usize)
                .stage_time(Time::new(6), (i % 2) as usize)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn every_engine_solves_through_the_trait() {
        let jobs = light_jobs();
        let ctx = SolveCtx::new(&jobs);
        let bound = DelayBoundKind::RefinedPreemptive;
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(Dm::new(bound)),
            Box::new(Dmr::new(bound)),
            Box::new(Opdca::new(bound)),
            Box::new(OptPairwise::new(bound)),
            Box::new(PairwiseIlp::new(bound)),
            Box::new(Dcmp::new()),
        ];
        for solver in &solvers {
            let verdict = solver.solve(&ctx);
            assert_eq!(verdict.solver, solver.name());
            assert!(
                verdict.is_accepted(),
                "{} rejected a trivially schedulable set",
                solver.name()
            );
        }
        // One shared analysis served all six solvers.
        assert!(ctx.analysis_is_built());
    }

    #[test]
    fn capability_queries_match_the_paper() {
        let bound = DelayBoundKind::RefinedPreemptive;
        assert!(Dm::new(bound).supports_admission());
        assert!(Dmr::new(bound).supports_admission());
        assert!(Opdca::new(bound).supports_admission());
        assert!(!OptPairwise::new(bound).supports_admission());
        assert!(!PairwiseIlp::new(bound).supports_admission());
        assert!(!Dcmp::new().supports_admission());

        assert!(!Dm::new(bound).is_exact());
        assert!(!Dmr::new(bound).is_exact());
        assert!(Opdca::new(bound).is_exact());
        assert!(OptPairwise::new(bound).is_exact());
        assert!(PairwiseIlp::new(bound).is_exact());
        assert!(!Dcmp::new().is_exact());
    }

    #[test]
    fn unsupported_admission_is_a_typed_error() {
        let jobs = light_jobs();
        let ctx = SolveCtx::new(&jobs);
        let err = Solver::admission_control(&Dcmp::new(), &ctx).unwrap_err();
        assert_eq!(err.solver, "DCMP");
        let err =
            Solver::admission_control(&OptPairwise::new(DelayBoundKind::RefinedPreemptive), &ctx)
                .unwrap_err();
        assert_eq!(err.solver, "OPT");
    }

    /// Two jobs competing for one CPU, each feasible alone: deciding the
    /// pair takes at least one search node.
    fn competing_pair() -> msmr_model::JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive);
        for _ in 0..2 {
            b.job()
                .deadline(Time::new(100))
                .stage_time(Time::new(5), 0)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn budget_node_limit_reaches_the_search() {
        // A zero node budget must yield Undecided, proving the context
        // budget overrides the engine's default node limit.
        let jobs = competing_pair();
        let ctx = SolveCtx::with_budget(&jobs, Budget::default().with_node_limit(0));
        let verdict = Solver::solve(&OptPairwise::new(DelayBoundKind::RefinedPreemptive), &ctx);
        assert_eq!(verdict.kind, VerdictKind::Undecided);
        assert!(!verdict.is_conclusive());
    }

    #[test]
    fn budget_time_limit_reaches_both_exact_engines() {
        // A zero wall-clock budget expires before the first node, so both
        // exact engines must give up rather than answer.
        let jobs = competing_pair();
        let budget = Budget::default().with_time_limit(std::time::Duration::ZERO);
        let ctx = SolveCtx::with_budget(&jobs, budget);
        let bound = DelayBoundKind::RefinedPreemptive;
        let exact: [Box<dyn Solver>; 2] = [
            Box::new(OptPairwise::new(bound)),
            Box::new(PairwiseIlp::new(bound)),
        ];
        for solver in &exact {
            let verdict = solver.solve(&ctx);
            assert_eq!(verdict.kind, VerdictKind::Undecided, "{}", solver.name());
            assert!(verdict.witness.is_none(), "{}", solver.name());
        }
        // Without the limit both decide the case.
        let unlimited = SolveCtx::new(&jobs);
        for solver in &exact {
            assert!(solver.solve(&unlimited).is_accepted(), "{}", solver.name());
        }
    }

    #[test]
    fn admission_verdicts_partition_the_jobs() {
        let jobs = light_jobs();
        let ctx = SolveCtx::new(&jobs);
        for solver in [
            Box::new(Dm::new(DelayBoundKind::RefinedPreemptive)) as Box<dyn Solver>,
            Box::new(Dmr::new(DelayBoundKind::RefinedPreemptive)),
            Box::new(Opdca::new(DelayBoundKind::RefinedPreemptive)),
        ] {
            let verdict = solver.admission_control(&ctx).unwrap();
            assert_eq!(
                verdict.accepted.len() + verdict.rejected.len(),
                jobs.len(),
                "{}",
                solver.name()
            );
            assert!((verdict.acceptance_ratio() - 1.0).abs() < 1e-12);
            assert!(verdict.witness.is_some());
        }
    }
}
