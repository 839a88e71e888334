//! Cross-crate integration tests: workload generation → analysis →
//! priority assignment → simulation.

use msmr_dca::DelayBoundKind;
use msmr_experiments::{evaluate_all, AcceptanceExperiment, Approach, EVALUATION_BOUND};
use msmr_model::JobId;
use msmr_sched::{
    Dcmp, Dmr, Opdca, OptPairwise, PairwiseIlp, SolveCtx, Solver, VerdictKind, Witness,
};
use msmr_sim::{PriorityMap, Simulator};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

fn small_edge_config() -> EdgeWorkloadConfig {
    EdgeWorkloadConfig::default()
        .with_jobs(24)
        .with_infrastructure(6, 5)
}

#[test]
fn opdca_orderings_hold_up_in_simulation() {
    // Whenever OPDCA accepts a generated edge test case, executing the
    // ordering on the discrete-event simulator must meet every end-to-end
    // deadline, and the simulated delay never exceeds the analytical bound.
    let generator = EdgeWorkloadGenerator::new(small_edge_config()).unwrap();
    let mut accepted_cases = 0;
    for seed in 0..12 {
        let jobs = generator.generate_seeded(seed);
        let verdict = Opdca::new(EVALUATION_BOUND).solve(&SolveCtx::new(&jobs));
        let (Some(Witness::Ordering(ordering)), Some(delays)) = (&verdict.witness, &verdict.delays)
        else {
            continue;
        };
        accepted_cases += 1;
        let priorities = PriorityMap::from_global_order(&jobs, ordering.as_slice());
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert!(
            outcome.all_deadlines_met(),
            "seed {seed}: OPDCA-accepted case missed a deadline in simulation"
        );
        for job in jobs.job_ids() {
            assert!(
                outcome.delay(job) <= delays[job.index()],
                "seed {seed}: simulated delay of {job} exceeds the DCA bound"
            );
        }
    }
    assert!(
        accepted_cases > 0,
        "no test case was accepted; generator too heavy"
    );
}

#[test]
fn dmr_assignments_hold_up_in_simulation_when_linearisable() {
    // A DMR pairwise assignment that can be linearised per resource is
    // executable; the simulated delays must respect the deadlines.
    let generator = EdgeWorkloadGenerator::new(small_edge_config()).unwrap();
    let mut simulated = 0;
    for seed in 0..12 {
        let jobs = generator.generate_seeded(seed);
        let verdict = Dmr::new(EVALUATION_BOUND).solve(&SolveCtx::new(&jobs));
        let Some(Witness::Pairwise(assignment)) = verdict.witness else {
            continue;
        };
        let Ok(values) = assignment.to_stage_priority_values(&jobs) else {
            continue; // cyclic across resources: not executable as-is
        };
        let priorities = PriorityMap::from_values(&jobs, values);
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert!(
            outcome.all_deadlines_met(),
            "seed {seed}: DMR-accepted case missed a deadline in simulation"
        );
        simulated += 1;
    }
    assert!(simulated > 0);
}

#[test]
fn approach_dominance_holds_on_generated_workloads() {
    // OPT accepts every case OPDCA or DMR accepts (it is optimal for
    // problem P2, and both produce feasible pairwise assignments).
    let generator = EdgeWorkloadGenerator::new(
        small_edge_config()
            .with_beta(0.2)
            .with_heavy_ratios([0.1, 0.1, 0.01]),
    )
    .unwrap();
    for seed in 0..10 {
        let jobs = generator.generate_seeded(seed);
        let verdicts = evaluate_all(&jobs, 100_000);
        let accepted = |a: Approach| {
            verdicts
                .iter()
                .find(|(x, _)| *x == a)
                .map(|(_, o)| *o == VerdictKind::Accepted)
                .unwrap_or(false)
        };
        if accepted(Approach::Opdca) || accepted(Approach::Dmr) {
            assert!(accepted(Approach::Opt), "seed {seed}: OPT must dominate");
        }
    }
}

#[test]
fn acceptance_experiment_is_reproducible() {
    let experiment = AcceptanceExperiment::new(3, 99).with_opt_node_limit(50_000);
    let config = small_edge_config();
    let first = experiment.run(&config).unwrap();
    let second = experiment.run(&config).unwrap();
    assert_eq!(first.accepted, second.accepted);
    assert_eq!(first.opt_undecided, second.opt_undecided);
}

#[test]
fn dcmp_baseline_runs_and_reports_consistent_outcomes() {
    let generator = EdgeWorkloadGenerator::new(small_edge_config()).unwrap();
    let jobs = generator.generate_seeded(5);
    let outcome = Dcmp::new().evaluate(&jobs);
    // Virtual deadlines of every job sum approximately to its end-to-end
    // deadline (up to rounding), never above it by more than one tick per
    // stage.
    for job in jobs.jobs() {
        let total: u64 = (0..jobs.stage_count())
            .map(|j| outcome.virtual_deadlines[job.id().index()][j].as_ticks())
            .sum();
        let deadline = job.deadline().as_ticks();
        assert!(total <= deadline + jobs.stage_count() as u64);
        assert!(total + jobs.stage_count() as u64 >= deadline);
    }
    // Acceptance implies no end-to-end miss in the simulation.
    if outcome.accepted {
        assert!(outcome.simulation.all_deadlines_met());
    }
}

#[test]
fn exact_engines_agree_on_a_small_edge_instance() {
    let config = EdgeWorkloadConfig::default()
        .with_jobs(8)
        .with_infrastructure(3, 2)
        .with_beta(0.2);
    let generator = EdgeWorkloadGenerator::new(config).unwrap();
    for seed in 0..5 {
        let jobs = generator.generate_seeded(seed);
        let ctx = SolveCtx::new(&jobs);
        let search = OptPairwise::new(DelayBoundKind::RefinedPreemptive).solve(&ctx);
        let ilp = PairwiseIlp::new(DelayBoundKind::RefinedPreemptive).solve(&ctx);
        assert!(search.is_conclusive() && ilp.is_conclusive());
        assert_eq!(search.kind, ilp.kind, "seed {seed}");
    }
}

#[test]
fn admission_controllers_accept_a_superset_relationship() {
    // The admission controllers never reject jobs from a case the plain
    // algorithm accepts outright.
    let generator = EdgeWorkloadGenerator::new(small_edge_config()).unwrap();
    let controllers: [Box<dyn Solver>; 2] = [
        Box::new(Opdca::new(EVALUATION_BOUND)),
        Box::new(Dmr::new(EVALUATION_BOUND)),
    ];
    for seed in 0..8 {
        let jobs = generator.generate_seeded(seed);
        let ctx = SolveCtx::new(&jobs);
        for controller in &controllers {
            if controller.solve(&ctx).is_accepted() {
                let outcome = controller
                    .admission_control(&ctx)
                    .expect("supports admission");
                let name = controller.name();
                assert!(outcome.rejected.is_empty(), "seed {seed}: {name}");
                assert_eq!(outcome.accepted.len(), jobs.len(), "seed {seed}: {name}");
            }
        }
    }
}

#[test]
fn rejected_jobs_are_never_part_of_the_final_ordering() {
    let generator =
        EdgeWorkloadGenerator::new(small_edge_config().with_beta(0.25).with_gamma(0.9)).unwrap();
    let jobs = generator.generate_seeded(2);
    let outcome = Opdca::new(EVALUATION_BOUND)
        .admission_control(&SolveCtx::new(&jobs))
        .expect("OPDCA supports admission");
    let ordering = outcome
        .witness
        .as_ref()
        .and_then(Witness::as_ordering)
        .expect("OPDCA admits with an ordering");
    for &job in &outcome.rejected {
        assert!(ordering.priority_of(job).is_none());
        assert!(!outcome.accepted.contains(&job));
    }
    for &job in &outcome.accepted {
        assert!(ordering.priority_of(job).is_some());
    }
    let all: Vec<JobId> = outcome
        .accepted
        .iter()
        .chain(outcome.rejected.iter())
        .copied()
        .collect();
    assert_eq!(all.len(), jobs.len());
}
