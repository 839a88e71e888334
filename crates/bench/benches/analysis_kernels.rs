//! Micro-benchmarks of the analysis kernels: pairwise interference
//! precomputation, the discrete-event simulator and the ILP encoding of
//! the Observation V.1 instance. Single delay-bound probes are measured by
//! `kernels_json` (`delay_bound_naive/*`, `delay_bound_incremental/*`).

use criterion::{criterion_group, criterion_main, Criterion};
use msmr_bench::{generate_case, paper_config, BENCH_SEED};
use msmr_dca::{Analysis, DelayBoundKind};
use msmr_model::{JobId, JobSetBuilder, PreemptionPolicy, Time};
use msmr_sched::{PairwiseIlp, SolveCtx, Solver};
use msmr_sim::{PriorityMap, Simulator};
use std::hint::black_box;

/// The Observation V.1 instance used by the ILP benchmark.
fn observation_v1() -> msmr_model::JobSet {
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

fn bench_kernels(c: &mut Criterion) {
    let jobs = generate_case(&paper_config(), BENCH_SEED);
    let order: Vec<JobId> = jobs.job_ids().collect();

    c.bench_function("analysis_precompute_100_jobs", |b| {
        b.iter(|| Analysis::new(black_box(&jobs)));
    });
    c.bench_function("simulate_100_jobs_global_order", |b| {
        let priorities = PriorityMap::from_global_order(&jobs, &order);
        let simulator = Simulator::new(&jobs);
        b.iter(|| simulator.run(black_box(&priorities)));
    });
    c.bench_function("ilp_observation_v1", |b| {
        let instance = observation_v1();
        let ilp = PairwiseIlp::new(DelayBoundKind::RefinedPreemptive);
        b.iter(|| ilp.solve(&SolveCtx::new(black_box(&instance))));
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
