//! Scalability benchmark: analysis run time of OPDCA, DMR, OPT and DCMP as
//! the number of jobs grows (supporting the paper's closing remark that
//! the gap between the approaches grows with the number of stages,
//! resources and jobs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msmr_bench::{generate_case, BENCH_SEED};
use msmr_dca::Analysis;
use msmr_experiments::EVALUATION_BOUND;
use msmr_sched::{Budget, Dcmp, Dmr, Opdca, OptPairwise, SolveCtx, Solver};
use msmr_workload::EdgeWorkloadConfig;
use std::hint::black_box;

const JOB_COUNTS: [usize; 3] = [25, 50, 100];

fn bench_scalability(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    for jobs_count in JOB_COUNTS {
        let jobs = generate_case(&EdgeWorkloadConfig::scaled(jobs_count), BENCH_SEED);

        group.bench_with_input(
            BenchmarkId::new("analysis_precompute", jobs_count),
            &jobs,
            |b, jobs| b.iter(|| Analysis::new(black_box(jobs))),
        );
        group.bench_with_input(BenchmarkId::new("opdca", jobs_count), &jobs, |b, jobs| {
            b.iter(|| Opdca::new(EVALUATION_BOUND).solve(&SolveCtx::new(black_box(jobs))));
        });
        group.bench_with_input(BenchmarkId::new("dmr", jobs_count), &jobs, |b, jobs| {
            b.iter(|| Dmr::new(EVALUATION_BOUND).solve(&SolveCtx::new(black_box(jobs))));
        });
        group.bench_with_input(
            BenchmarkId::new("opt_search", jobs_count),
            &jobs,
            |b, jobs| {
                let solver = OptPairwise::new(EVALUATION_BOUND);
                let budget = Budget::default().with_node_limit(20_000);
                b.iter(|| solver.solve(&SolveCtx::with_budget(black_box(jobs), budget)));
            },
        );
        group.bench_with_input(BenchmarkId::new("dcmp", jobs_count), &jobs, |b, jobs| {
            b.iter(|| Dcmp::new().evaluate(black_box(jobs)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
