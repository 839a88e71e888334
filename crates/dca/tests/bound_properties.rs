//! Property tests of the delay bounds against straightforward
//! re-implementations of the paper's formulas ("oracles") and against each
//! other.

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::DelayBoundKind;
use msmr_model::{
    Job, JobId, JobSet, Pipeline, PreemptionPolicy, Segments, SharedStageTimes, StageId, Time,
};
use proptest::prelude::*;

fn arbitrary_jobset() -> impl Strategy<Value = JobSet> {
    (2usize..=4, 1usize..=3, 2usize..=6).prop_flat_map(|(stages, max_res, jobs)| {
        let resources = prop::collection::vec(1usize..=max_res, stages);
        resources.prop_flat_map(move |resources| {
            let job = {
                let resources = resources.clone();
                (
                    prop::collection::vec((1u64..=25, 0usize..3), resources.len()),
                    50u64..=500,
                )
                    .prop_map(move |(stage_specs, deadline)| {
                        let mut builder = Job::builder().deadline(Time::new(deadline));
                        for (j, (p, r)) in stage_specs.into_iter().enumerate() {
                            builder = builder.stage_time(Time::new(p), r % resources[j]);
                        }
                        builder
                    })
            };
            (Just(resources), prop::collection::vec(job, jobs)).prop_map(|(resources, builders)| {
                let pipeline = Pipeline::uniform(&resources, PreemptionPolicy::Preemptive).unwrap();
                let jobs: Vec<Job> = builders
                    .into_iter()
                    .enumerate()
                    .map(|(i, b)| b.build(JobId::new(i)).unwrap())
                    .collect();
                JobSet::new(pipeline, jobs).unwrap()
            })
        })
    })
}

/// Straightforward re-implementation of Eq. 6, written directly from the
/// paper's notation without the precomputed interference table.
fn oracle_eq6(jobs: &JobSet, target: JobId, higher: &[JobId]) -> Time {
    let target_job = jobs.job(target);
    // Job-additive terms: w_{i,i} = 1 for the target itself.
    let mut total = target_job.max_processing().as_ticks();
    for &k in higher {
        if !jobs.windows_overlap(target, k) {
            continue;
        }
        let segments = Segments::between(target_job, jobs.job(k));
        let shared = SharedStageTimes::of(jobs.job(k), target_job);
        let w = segments.single_stage_count() + 2 * segments.multi_stage_count();
        for x in 1..=w {
            total += shared.et(x).as_ticks();
        }
    }
    // Stage-additive terms over the first N-1 stages.
    for j in 0..jobs.stage_count() - 1 {
        let stage = StageId::new(j);
        let mut max = target_job.processing(stage).as_ticks();
        for &k in higher {
            if !jobs.windows_overlap(target, k) {
                continue;
            }
            if jobs.shares_stage(target, k, stage) {
                max = max.max(jobs.job(k).processing(stage).as_ticks());
            }
        }
        total += max;
    }
    Time::new(total)
}

/// Straightforward re-implementation of Eq. 5.
fn oracle_eq5(jobs: &JobSet, target: JobId, higher: &[JobId]) -> Time {
    let target_job = jobs.job(target);
    let mut total = 0u64;
    // m_{i,k}·et_{k,1} job-additive terms (m_{i,i} = 1 for the target).
    total += target_job.max_processing().as_ticks();
    for &k in higher {
        if !jobs.windows_overlap(target, k) {
            continue;
        }
        let segments = Segments::between(target_job, jobs.job(k));
        let shared = SharedStageTimes::of(jobs.job(k), target_job);
        total += (segments.count() as u64) * shared.max().as_ticks();
    }
    // Stage-additive over the first N-1 stages.
    for j in 0..jobs.stage_count() - 1 {
        let stage = StageId::new(j);
        let mut max = target_job.processing(stage).as_ticks();
        for &k in higher {
            if jobs.windows_overlap(target, k) && jobs.shares_stage(target, k, stage) {
                max = max.max(jobs.job(k).processing(stage).as_ticks());
            }
        }
        total += max;
    }
    // Blocking over all other jobs, every stage.
    for j in 0..jobs.stage_count() {
        let stage = StageId::new(j);
        let mut max = 0u64;
        for k in jobs.job_ids() {
            if k != target && jobs.windows_overlap(target, k) && jobs.shares_stage(target, k, stage)
            {
                max = max.max(jobs.job(k).processing(stage).as_ticks());
            }
        }
        total += max;
    }
    Time::new(total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The optimised Eq. 6 implementation matches the literal formula.
    #[test]
    fn refined_preemptive_matches_oracle(jobs in arbitrary_jobset(), split in 0usize..6) {
        let reference = ReferenceBounds::new(&jobs);
        for target in jobs.job_ids() {
            let higher: Vec<JobId> = jobs
                .job_ids()
                .filter(|&k| k != target && (k.index() + split) % 2 == 0)
                .collect();
            let ctx = InterferenceSets::new(higher.clone(), []);
            prop_assert_eq!(
                reference.refined_preemptive_bound(target, &ctx),
                oracle_eq6(&jobs, target, &higher)
            );
        }
    }

    /// The optimised Eq. 5 implementation matches the literal formula.
    #[test]
    fn non_preemptive_opa_matches_oracle(jobs in arbitrary_jobset(), split in 0usize..6) {
        let reference = ReferenceBounds::new(&jobs);
        for target in jobs.job_ids() {
            let higher: Vec<JobId> = jobs
                .job_ids()
                .filter(|&k| k != target && (k.index() + split) % 2 == 0)
                .collect();
            let lower: Vec<JobId> = jobs
                .job_ids()
                .filter(|&k| k != target && (k.index() + split) % 2 == 1)
                .collect();
            let ctx = InterferenceSets::new(higher.clone(), lower);
            prop_assert_eq!(
                reference.non_preemptive_opa_bound(target, &ctx),
                oracle_eq5(&jobs, target, &higher)
            );
        }
    }

    /// Eq. 10 equals Eq. 6 plus the last-stage blocking term, and the
    /// blocking term is bounded by the largest lower-priority shared
    /// processing time at the last stage.
    #[test]
    fn edge_hybrid_decomposes_into_eq6_plus_blocking(jobs in arbitrary_jobset()) {
        let reference = ReferenceBounds::new(&jobs);
        let last = StageId::new(jobs.stage_count() - 1);
        for target in jobs.job_ids() {
            let higher: Vec<JobId> = jobs
                .job_ids()
                .filter(|&k| k != target && k.index() % 2 == 0)
                .collect();
            let lower: Vec<JobId> = jobs
                .job_ids()
                .filter(|&k| k != target && k.index() % 2 == 1)
                .collect();
            let ctx = InterferenceSets::new(higher, lower.clone());
            let eq6 = reference.refined_preemptive_bound(target, &ctx);
            let eq10 = reference.edge_hybrid_bound(target, &ctx);
            prop_assert!(eq10 >= eq6);
            let max_blocking = lower
                .iter()
                .filter(|&&k| jobs.windows_overlap(target, k))
                .filter(|&&k| jobs.shares_stage(target, k, last))
                .map(|&k| jobs.job(k).processing(last))
                .max()
                .unwrap_or(Time::ZERO);
            prop_assert_eq!(eq10, eq6 + max_blocking);
        }
    }

    /// Delay bounds never depend on jobs that are neither higher nor lower
    /// priority (undecided jobs are simply absent from the sets).
    #[test]
    fn unrelated_jobs_do_not_affect_compatible_bounds(jobs in arbitrary_jobset()) {
        let reference = ReferenceBounds::new(&jobs);
        for target in jobs.job_ids() {
            let ctx_empty = InterferenceSets::default();
            for kind in [
                DelayBoundKind::RefinedPreemptive,
                DelayBoundKind::PreemptiveMsmr,
                DelayBoundKind::PreemptiveSingleResource,
            ] {
                // With no higher-priority jobs the bound is the isolated
                // delay regardless of how many other jobs exist.
                let isolated = reference.delay_bound(kind, target, &ctx_empty);
                prop_assert!(isolated >= jobs.job(target).max_processing());
            }
        }
    }
}
