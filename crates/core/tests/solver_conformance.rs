//! Trait-conformance suite: every solver registered in the full suite must
//! return, through `Solver::solve`, a verdict whose witness and delays
//! certify its acceptance, and the exact engines must agree with each
//! other and dominate the heuristics (and DMR dominate DM), on a corpus of
//! random job sets from `msmr-workload`.

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::DelayBoundKind;
use msmr_model::JobSet;
use msmr_sched::{Budget, SolveCtx, SolverRegistry, VerdictKind, Witness};
use msmr_workload::{
    EdgeWorkloadConfig, EdgeWorkloadGenerator, RandomMsmrConfig, RandomMsmrGenerator,
};

const BOUND: DelayBoundKind = DelayBoundKind::RefinedPreemptive;
const NODE_LIMIT: u64 = 200_000;

/// A mixed corpus: small random MSMR systems plus edge-scenario cases.
fn corpus() -> Vec<JobSet> {
    let random = RandomMsmrGenerator::new(RandomMsmrConfig {
        jobs: (2, 6),
        stages: (2, 3),
        resources_per_stage: (1, 2),
        deadline_factor: (1.0, 3.0),
        ..RandomMsmrConfig::default()
    })
    .expect("valid random configuration");
    let edge = EdgeWorkloadGenerator::new(
        EdgeWorkloadConfig::default()
            .with_jobs(12)
            .with_infrastructure(4, 3)
            .with_beta(0.2),
    )
    .expect("valid edge configuration");
    let mut cases: Vec<JobSet> = (0..24).map(|seed| random.generate_seeded(seed)).collect();
    cases.extend((0..8).map(|seed| edge.generate_seeded(seed)));
    cases
}

#[test]
fn accepted_witnesses_are_feasible() {
    let registry = SolverRegistry::full_suite(BOUND);
    let budget = Budget::default().with_node_limit(NODE_LIMIT);
    for jobs in corpus() {
        let reference = ReferenceBounds::new(&jobs);
        let ctx = SolveCtx::with_budget(&jobs, budget);
        for name in registry.names() {
            let verdict = registry.solver(name).expect("registered").solve(&ctx);
            if !verdict.is_accepted() {
                continue;
            }
            match &verdict.witness {
                Some(Witness::Pairwise(assignment)) => {
                    for job in jobs.job_ids() {
                        let ctx = assignment.interference_sets(&jobs, job);
                        assert!(
                            reference.meets_deadline(BOUND, job, &ctx),
                            "{name} reported an infeasible pairwise witness"
                        );
                    }
                }
                Some(Witness::Ordering(ordering)) => {
                    for job in jobs.job_ids() {
                        let ctx = InterferenceSets::from_total_order(ordering.as_slice(), job);
                        assert!(
                            reference.meets_deadline(BOUND, job, &ctx),
                            "{name} reported an infeasible ordering witness"
                        );
                    }
                }
                // DCMP justifies acceptance by simulation, not a witness.
                None => assert_eq!(name, "DCMP"),
            }
            // Reported delays must certify feasibility.
            if let Some(delays) = &verdict.delays {
                for job in jobs.job_ids() {
                    assert!(delays[job.index()] <= jobs.job(job).deadline());
                }
            }
        }
    }
}

#[test]
fn exact_engines_agree_through_the_registry() {
    let registry = SolverRegistry::full_suite(BOUND);
    let budget = Budget::default().with_node_limit(NODE_LIMIT);
    for (case, jobs) in corpus().iter().enumerate() {
        // Every solver runs for real: `evaluate_ctx`'s shortcuts would
        // synthesize OPT's verdict and make the checks below vacuous.
        let ctx = SolveCtx::with_budget(jobs, budget);
        let verdicts: Vec<_> = registry
            .names()
            .into_iter()
            .map(|name| registry.solver(name).expect("registered").solve(&ctx))
            .collect();
        let kind = |name: &str| {
            verdicts
                .iter()
                .find(|v| v.solver == name)
                .map(|v| v.kind)
                .expect("registered")
        };
        if kind("OPT") != VerdictKind::Undecided && kind("OPT-ILP") != VerdictKind::Undecided {
            assert_eq!(kind("OPT"), kind("OPT-ILP"), "case {case}");
        }
        // Exact dominance: OPT accepts whenever a heuristic pairwise
        // solver or the ordering solver accepts.
        for weaker in ["DMR", "OPDCA"] {
            if kind(weaker) == VerdictKind::Accepted {
                assert_eq!(kind("OPT"), VerdictKind::Accepted, "case {case}: {weaker}");
            }
        }
        // Algorithm 2 starts from DM's assignment and only repairs a
        // failure, so DMR accepts whatever DM accepts.
        if kind("DM") == VerdictKind::Accepted {
            assert_eq!(kind("DMR"), VerdictKind::Accepted, "case {case}: DM");
        }
    }
}
