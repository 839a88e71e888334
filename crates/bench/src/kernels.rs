//! The JSON kernel-benchmark harness behind `BENCH_kernels.json`.

use std::hint::black_box;
use std::time::Instant;

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::{Analysis, DelayBoundKind};
use msmr_model::{JobId, JobSet, JobSetBuilder, PreemptionPolicy, Time};
use msmr_sched::{Budget, Dcmp, Opdca, OptPairwise, SolveCtx, Solver};
use msmr_sim::{PriorityMap, Simulator};
use msmr_workload::EdgeWorkloadConfig;

use msmr_report::BenchReport;

use crate::{generate_case, paper_config, BENCH_SEED};

/// The Observation V.1 instance (four jobs, feasible only pairwise).
fn observation_v1() -> JobSet {
    let mut b = JobSetBuilder::new();
    b.stage("s1", 2, PreemptionPolicy::Preemptive)
        .stage("s2", 2, PreemptionPolicy::Preemptive)
        .stage("s3", 2, PreemptionPolicy::Preemptive);
    let rows: [([u64; 3], [usize; 3], u64); 4] = [
        ([5, 7, 15], [0, 1, 1], 60),
        ([7, 9, 17], [1, 1, 1], 55),
        ([6, 8, 30], [0, 0, 0], 55),
        ([2, 4, 3], [1, 0, 0], 50),
    ];
    for (times, resources, deadline) in rows {
        b.job()
            .deadline(Time::new(deadline))
            .stage_time(Time::new(times[0]), resources[0])
            .stage_time(Time::new(times[1]), resources[1])
            .stage_time(Time::new(times[2]), resources[2])
            .add()
            .unwrap();
    }
    b.build().unwrap()
}

/// Measures the kernel benches into a [`BenchReport`].
///
/// `fast` shrinks case sizes and sample counts to smoke-test proportions
/// (used by CI and the `json_smoke` test); the numbers are then sanity
/// signals only. The full run takes a few seconds and is what
/// `cargo bench -p msmr-bench --bench kernels_json` records into
/// `BENCH_kernels.json`.
#[must_use]
pub fn run_kernel_report(fast: bool) -> BenchReport {
    let mut report = BenchReport::new(fast);
    let (samples, kernel_iters) = if fast { (3, 200) } else { (10, 5_000) };

    // --- delay-bound kernels on one representative case -----------------
    let jobs = if fast {
        generate_case(&EdgeWorkloadConfig::scaled(16), BENCH_SEED)
    } else {
        generate_case(&paper_config(), BENCH_SEED)
    };
    // The build alone: each `Analysis` is dropped after its clock stops,
    // since freeing a paper-scale table set hands its pages back to the
    // allocator's top-of-heap trim, which the next build faults in again.
    let _ = black_box(Analysis::new(&jobs)); // warm-up, not recorded
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        let built = black_box(Analysis::new(&jobs));
        best = best.min(start.elapsed().as_nanos() as f64);
        drop(built);
    }
    report.record("analysis_build", best, "ns/op");

    let analysis = Analysis::new(&jobs);
    let reference = ReferenceBounds::new(&jobs);
    let order: Vec<JobId> = jobs.job_ids().collect();
    let lowest = *order.last().expect("non-empty case");
    let ctx = InterferenceSets::from_total_order(&order, lowest);
    for (label, kind) in [
        ("eq6", DelayBoundKind::RefinedPreemptive),
        ("eq10", DelayBoundKind::EdgeHybrid),
    ] {
        report.time_ns(
            &format!("delay_bound_naive/{label}"),
            samples,
            kernel_iters,
            || reference.delay_bound(kind, lowest, &ctx),
        );
        // The incremental op the search engines perform per move: undo one
        // membership, redo it, read the delay.
        let mut evaluator = analysis.evaluator(kind);
        for &h in &order[..order.len() - 1] {
            evaluator.add_higher(lowest, h);
        }
        let neighbour = order[0];
        report.time_ns(
            &format!("delay_bound_incremental/{label}"),
            samples,
            kernel_iters,
            || {
                evaluator.remove_higher(lowest, neighbour);
                evaluator.add_higher(lowest, neighbour);
                evaluator.delay(lowest)
            },
        );
    }

    // --- simulation engine and the DCMP baseline built on it ------------
    // `jobs` is the paper-scale n = 100 case in a full run.
    let simulator = Simulator::new(&jobs);
    let priorities = PriorityMap::from_global_order(&jobs, &order);
    let sim_iters = if fast { 5 } else { 200 };
    report.time_ns("sim/run_ns", samples, sim_iters, || {
        simulator.run(&priorities)
    });
    report.time_ns("sim/completions_ns", samples, sim_iters, || {
        simulator.completions(&priorities)
    });
    report.time_ns("dcmp/solve_ns", samples, sim_iters, || {
        Dcmp::new().solve(&SolveCtx::new(&jobs))
    });
    // A cold OPDCA decide (Audsley's loop over `S_DCA`) on the same case,
    // its analysis prebuilt: seed, demotes and verdict assembly.
    let opdca_ctx = SolveCtx::over(&analysis, Budget::default());
    let opdca = Opdca::new(DelayBoundKind::EdgeHybrid);
    report.time_ns("opdca_solve/edge100", samples, sim_iters, || {
        opdca.solve(&opdca_ctx)
    });

    // --- OPT branch-and-bound, through `Solver::solve` on a context whose
    // analysis is already built: search plus verdict assembly -------------
    let v1 = observation_v1();
    let v1_analysis = Analysis::new(&v1);
    let v1_ctx = SolveCtx::over(&v1_analysis, Budget::default());
    let v1_solver = OptPairwise::new(DelayBoundKind::RefinedPreemptive);
    report.time_ns(
        "opt_solve/observation_v1",
        samples,
        if fast { 10 } else { 200 },
        || v1_solver.solve(&v1_ctx),
    );
    let deep = generate_case(
        &paper_config().with_jobs(20).with_infrastructure(4, 3),
        BENCH_SEED,
    );
    let node_limit = if fast { 2_000 } else { 50_000 };
    let deep_analysis = Analysis::new(&deep);
    let deep_ctx = SolveCtx::over(
        &deep_analysis,
        Budget::default().with_node_limit(node_limit),
    );
    let deep_solver = OptPairwise::new(DelayBoundKind::EdgeHybrid);
    report.time_ns(
        &format!("opt_solve/edge20_{node_limit}_nodes"),
        samples.min(5),
        1,
        || deep_solver.solve(&deep_ctx),
    );

    // --- online solver seam -------------------------------------------------
    append_online_benchmarks(&mut report, fast, samples);

    report
}

/// Kernels of the stateful online solver seam: a warm session admit
/// (extend + fast-forwarded decider + rollback) vs the cold re-solve it
/// replaces (fresh `O(n²·N)` analysis + cold decider), and the general
/// mid-set withdraw + re-admit cycle over the swap-removal path.
fn append_online_benchmarks(report: &mut BenchReport, fast: bool, samples: usize) {
    use msmr_sched::SolverRegistry;
    use msmr_serve::protocol::{JobSpec, StageDemand};
    use msmr_serve::{AdmissionSession, SessionConfig};

    let jobs = if fast { 10 } else { 48 };
    let iters = if fast { 5 } else { 100 };
    let template = generate_case(
        &EdgeWorkloadConfig::scaled(jobs.max(4)),
        BENCH_SEED.wrapping_add(17),
    );
    let stages = template.stage_count();
    let spec_for = |seed: u64, deadline: u64| JobSpec {
        arrival: 0,
        deadline,
        stages: (0..stages)
            .map(|j| StageDemand {
                time: 1 + (seed + j as u64) % 7,
                resource: (seed + j as u64) % 2,
            })
            .collect(),
    };

    // A warm session of `jobs` admitted jobs (generous deadlines so the
    // set stays feasible under any interleaving).
    let (pipeline, _) = template.restrict_to(&[]).expect("pipeline-only set");
    let mut session = AdmissionSession::new(SessionConfig::default());
    session.submit(pipeline, false, |_| {});
    let mut admitted: Vec<(u64, JobSpec)> = Vec::new();
    for i in 0..jobs as u64 {
        let spec = spec_for(i, 1_000_000);
        let outcome = session
            .admit(&spec, false, |_| {})
            .expect("session is open");
        let handle = outcome.handle.expect("generous deadline admits");
        admitted.push((handle, spec));
    }

    // Warm admit: the arriving job is infeasible (deadline below its own
    // processing), so the decider rejects and the session rolls back —
    // every iteration sees the identical warm state.
    let reject_spec = spec_for(3, 1);
    report.time_ns("online_admit_warm", samples, iters, || {
        let outcome = session
            .admit(&reject_spec, false, |_| {})
            .expect("session is open");
        assert!(!outcome.admitted);
    });

    // Cold re-solve of the same decision: fresh analysis, cold decider.
    let registry = SolverRegistry::paper_suite(msmr_dca::DelayBoundKind::EdgeHybrid);
    let decider = registry.solver("OPDCA").expect("registered");
    let budget = Budget::default().with_node_limit(200_000);
    let base = session.jobs().expect("session is open").clone();
    report.time_ns("online_admit_cold", samples, iters, || {
        let (candidate, _) = base
            .with_job(reject_spec.to_builder())
            .expect("valid candidate");
        let ctx = SolveCtx::with_budget(&candidate, budget);
        let verdict = decider.solve(&ctx);
        assert!(!verdict.is_accepted());
    });

    // General mid-set withdraw + re-admit: the swap-removal table patch
    // plus the online decider on both sides (the job multiset is
    // invariant across iterations).
    report.time_ns("withdraw_mid", samples, iters, || {
        let mid = admitted.len() / 2;
        let (victim, spec) = admitted.swap_remove(mid);
        session
            .withdraw(victim, false, |_| {})
            .expect("victim is admitted");
        let outcome = session
            .admit(&spec, false, |_| {})
            .expect("session is open");
        admitted.push((outcome.handle.expect("re-admit succeeds"), spec));
    });
}
