//! The five evaluated approaches, expressed over the unified
//! [`SolverRegistry`] of `msmr-sched`.
//!
//! [`Approach`] remains the compact identifier the figures use; evaluation
//! now goes through [`msmr_sched::Solver::solve`] with one shared
//! [`msmr_dca::Analysis`] per test case and the `DMR ⇒ OPT` /
//! `OPDCA ⇒ OPT` implication shortcuts registered declaratively on the
//! registry instead of hand-wired control flow.

use std::fmt;

use msmr_dca::DelayBoundKind;
use msmr_model::{JobId, JobSet};
use msmr_sched::{Budget, SolveCtx, SolverRegistry, UnsupportedMode, VerdictKind};
use serde::{Deserialize, Serialize};

/// The delay bound used throughout the evaluation: Eq. 10, i.e. preemptive
/// servers with non-preemptive download at the last stage.
pub const EVALUATION_BOUND: DelayBoundKind = DelayBoundKind::EdgeHybrid;

/// One of the five approaches compared in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Approach {
    /// Deadline-monotonic pairwise assignment without repair.
    Dm,
    /// Deadline-monotonic & repair heuristic (Algorithm 2).
    Dmr,
    /// Optimal priority ordering via Algorithm 1.
    Opdca,
    /// Optimal pairwise assignment (exact search; the paper's ILP).
    Opt,
    /// Deadline-decomposition baseline (virtual deadlines + simulation).
    Dcmp,
}

impl Approach {
    /// All approaches in the order the paper's legends list them.
    #[must_use]
    pub const fn all() -> [Approach; 5] {
        [
            Approach::Dm,
            Approach::Dmr,
            Approach::Opdca,
            Approach::Opt,
            Approach::Dcmp,
        ]
    }

    /// The registry/CLI name of the approach's solver.
    #[must_use]
    pub const fn solver_name(self) -> &'static str {
        match self {
            Approach::Dm => msmr_sched::DM,
            Approach::Dmr => msmr_sched::DMR,
            Approach::Opdca => msmr_sched::OPDCA,
            Approach::Opt => msmr_sched::OPT,
            Approach::Dcmp => msmr_sched::DCMP,
        }
    }

    /// Parses a registry/CLI solver name back into an approach.
    #[must_use]
    pub fn from_solver_name(name: &str) -> Option<Approach> {
        Approach::all()
            .into_iter()
            .find(|approach| approach.solver_name() == name)
    }
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.solver_name())
    }
}

/// The registry used by the evaluation: the paper's five approaches under
/// the edge-computing bound (Eq. 10), with the exact implication shortcuts
/// `DMR accepted ⇒ OPT accepted` and `OPDCA accepted ⇒ OPT accepted`
/// (a feasible ordering or repaired pairwise assignment *is* a feasible
/// pairwise assignment).
pub(crate) fn evaluation_registry() -> SolverRegistry {
    SolverRegistry::paper_suite(EVALUATION_BOUND)
}

/// Evaluates every approach on one test case. An OPT search that
/// exhausts `opt_node_limit` answers [`VerdictKind::Undecided`], which
/// acceptance ratios count as a rejection (so OPT's ratio is a *lower*
/// bound).
///
/// Implemented on [`SolverRegistry::evaluate`]: the interference analysis
/// is built once and shared by all approaches, and the `OPDCA ⇒ OPT` /
/// `DMR ⇒ OPT` shortcuts skip the exact search whenever possible (this
/// shortcut is exact, not an approximation).
#[must_use]
pub fn evaluate_all(jobs: &JobSet, opt_node_limit: u64) -> Vec<(Approach, VerdictKind)> {
    evaluation_registry()
        .evaluate(jobs, Budget::default().with_node_limit(opt_node_limit))
        .into_iter()
        .map(|verdict| {
            let approach = Approach::from_solver_name(&verdict.solver)
                .expect("the evaluation registry only contains the five paper approaches");
            (approach, verdict.kind)
        })
        .collect()
}

/// Runs one approach as an admission controller on `ctx` and returns the
/// rejected jobs (only DM, DMR and OPDCA support this mode, mirroring
/// Fig. 4d). Controllers run on the same context share its analysis.
///
/// # Errors
///
/// Returns [`UnsupportedMode`] for approaches without an admission
/// variant ([`Approach::Opt`] and [`Approach::Dcmp`]).
pub(crate) fn admission_rejects(
    approach: Approach,
    ctx: &SolveCtx<'_>,
) -> Result<Vec<JobId>, UnsupportedMode> {
    evaluation_registry()
        .solver(approach.solver_name())
        .expect("every approach is registered in the evaluation registry")
        .admission_control(ctx)
        .map(|verdict| verdict.rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};

    fn light_jobs() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("up", 2, PreemptionPolicy::NonPreemptive)
            .stage("srv", 2, PreemptionPolicy::Preemptive)
            .stage("down", 2, PreemptionPolicy::NonPreemptive);
        for i in 0..4u64 {
            b.job()
                .deadline(Time::new(200))
                .stage_time(Time::new(5), (i % 2) as usize)
                .stage_time(Time::new(20), (i % 2) as usize)
                .stage_time(Time::new(5), (i % 2) as usize)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn display_and_enumeration() {
        assert_eq!(Approach::all().len(), 5);
        assert_eq!(Approach::Opdca.to_string(), "OPDCA");
        assert_eq!(Approach::Dcmp.to_string(), "DCMP");
    }

    #[test]
    fn solver_names_round_trip() {
        for approach in Approach::all() {
            assert_eq!(
                Approach::from_solver_name(approach.solver_name()),
                Some(approach)
            );
        }
        assert_eq!(Approach::from_solver_name("OPT-ILP"), None);
        assert_eq!(Approach::from_solver_name("nope"), None);
    }

    #[test]
    fn registry_matches_the_legend_order() {
        let registry = evaluation_registry();
        let names: Vec<&str> = Approach::all()
            .into_iter()
            .map(Approach::solver_name)
            .collect();
        assert_eq!(registry.names(), names);
    }

    #[test]
    fn light_system_is_accepted_by_every_approach() {
        let jobs = light_jobs();
        for (approach, outcome) in evaluate_all(&jobs, 100_000) {
            assert_eq!(
                outcome,
                VerdictKind::Accepted,
                "{approach} rejected a trivially schedulable system"
            );
        }
    }

    #[test]
    fn verdicts_carry_solver_details() {
        let jobs = light_jobs();
        let verdicts =
            evaluation_registry().evaluate(&jobs, Budget::default().with_node_limit(100_000));
        assert_eq!(verdicts.len(), 5);
        let opdca = verdicts.iter().find(|v| v.solver == "OPDCA").unwrap();
        assert!(opdca.stats.sdca_calls > 0);
        assert!(opdca.witness.is_some());
        // The light system is accepted by DMR, so OPT is implied.
        let opt = verdicts.iter().find(|v| v.solver == "OPT").unwrap();
        assert_eq!(opt.stats.implied_by.as_deref(), Some("DMR"));
    }

    #[test]
    fn admission_controllers_do_not_reject_light_systems() {
        let jobs = light_jobs();
        let ctx = SolveCtx::new(&jobs);
        for approach in [Approach::Dm, Approach::Dmr, Approach::Opdca] {
            assert!(admission_rejects(approach, &ctx).unwrap().is_empty());
        }
    }

    #[test]
    fn opt_and_dcmp_have_no_admission_mode() {
        let jobs = light_jobs();
        let ctx = SolveCtx::new(&jobs);
        for approach in [Approach::Opt, Approach::Dcmp] {
            let err = admission_rejects(approach, &ctx).unwrap_err();
            assert_eq!(err.solver, approach.solver_name());
            assert!(err.to_string().contains("admission control"));
        }
        // The capability query agrees with the typed error.
        let registry = evaluation_registry();
        for approach in Approach::all() {
            let solver = registry.solver(approach.solver_name()).unwrap();
            assert_eq!(
                solver.supports_admission(),
                admission_rejects(approach, &ctx).is_ok(),
                "{approach}"
            );
        }
    }
}
