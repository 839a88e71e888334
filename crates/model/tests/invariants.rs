//! Property-based invariants of the system model: segment structure,
//! shared-stage processing times and heaviness accounting.

use msmr_model::{
    HeavinessProfile, Job, JobId, JobSet, Pipeline, PreemptionPolicy, Segments, SharedStageTimes,
    StageId, Time,
};
use proptest::prelude::*;

/// Strategy: a random pipeline shape plus consistent jobs.
fn arbitrary_jobset() -> impl Strategy<Value = JobSet> {
    // Up to 4 stages with up to 3 resources each, up to 6 jobs.
    (1usize..=4, 1usize..=3, 1usize..=6).prop_flat_map(|(stages, max_res, jobs)| {
        let resources = prop::collection::vec(1usize..=max_res, stages);
        resources.prop_flat_map(move |resources| {
            let job = {
                let resources = resources.clone();
                (
                    prop::collection::vec((1u64..=30, 0usize..3), resources.len()),
                    1u64..=400,
                    0u64..=20,
                )
                    .prop_map(move |(stage_specs, deadline, arrival)| {
                        let mut builder = Job::builder()
                            .arrival(Time::new(arrival))
                            .deadline(Time::new(deadline));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Segment counting identities: `m = u + v`, `w = u + 2v`, and the
    /// total number of shared stages equals the sum of segment lengths.
    #[test]
    fn segment_counts_are_consistent(jobs in arbitrary_jobset()) {
        for a in jobs.job_ids() {
            for b in jobs.job_ids() {
                if a == b { continue; }
                let segs = jobs.segments(a, b);
                let u = segs.single_stage_count();
                let v = segs.multi_stage_count();
                prop_assert_eq!(segs.count(), u + v);
                prop_assert_eq!(segs.job_additive_terms(), u + 2 * v);
                let shared_stages = (0..jobs.stage_count())
                    .filter(|&j| jobs.shares_stage(a, b, StageId::new(j)))
                    .count();
                let covered: usize = segs.iter().map(|s| s.len()).sum();
                prop_assert_eq!(shared_stages, covered);
                // Symmetry.
                prop_assert_eq!(segs, jobs.segments(b, a));
            }
        }
    }

    /// `ep_{k,j}` is the interferer's processing time exactly on shared
    /// stages, `et` is its non-increasing rearrangement, and the largest
    /// shared time never exceeds the interferer's own maximum.
    #[test]
    fn shared_stage_times_match_definitions(jobs in arbitrary_jobset()) {
        for target in jobs.job_ids() {
            for interferer in jobs.job_ids() {
                let st = jobs.shared_times(interferer, target);
                for j in 0..jobs.stage_count() {
                    let stage = StageId::new(j);
                    let expected = if target == interferer
                        || jobs.shares_stage(target, interferer, stage)
                    {
                        jobs.job(interferer).processing(stage)
                    } else {
                        Time::ZERO
                    };
                    prop_assert_eq!(st.ep(stage), expected);
                }
                let mut previous = Time::MAX;
                for x in 1..=jobs.stage_count() {
                    prop_assert!(st.et(x) <= previous);
                    previous = st.et(x);
                }
                prop_assert!(st.max() <= jobs.job(interferer).max_processing());
                prop_assert_eq!(
                    st.sum_of_largest(jobs.stage_count()),
                    st.per_stage().iter().copied().sum::<Time>()
                );
            }
        }
    }

    /// Competitor sets are symmetric and consistent with the per-stage
    /// sets; jobs mapped to the same resource at some stage always compete.
    #[test]
    fn competitor_sets_are_symmetric(jobs in arbitrary_jobset()) {
        for a in jobs.job_ids() {
            let competitors = jobs.competitors(a);
            for b in jobs.job_ids() {
                if a == b { continue; }
                let shares_somewhere = (0..jobs.stage_count())
                    .any(|j| jobs.shares_stage(a, b, StageId::new(j)));
                prop_assert_eq!(competitors.contains(&b), shares_somewhere);
                prop_assert_eq!(
                    competitors.contains(&b),
                    jobs.competitors(b).contains(&a)
                );
            }
        }
    }

    /// The heaviness profile accounts for every job exactly once per stage:
    /// summing χ over all resources of a stage equals the sum of the
    /// stage's job heaviness, and the system heaviness is their maximum.
    #[test]
    fn heaviness_profile_accounts_for_all_jobs(jobs in arbitrary_jobset()) {
        let profile = HeavinessProfile::of(&jobs);
        let mut max_chi = 0.0f64;
        for (stage, stage_info) in jobs.pipeline().stages() {
            let mut stage_total = 0.0;
            for r in stage_info.resources() {
                let chi = profile
                    .resource(msmr_model::ResourceRef::new(stage, r))
                    .unwrap();
                prop_assert!(chi >= -1e-12);
                stage_total += chi;
                max_chi = max_chi.max(chi);
            }
            let expected: f64 = jobs.jobs().map(|j| j.heaviness(stage)).sum();
            prop_assert!((stage_total - expected).abs() < 1e-9);
        }
        prop_assert!((profile.system() - max_chi).abs() < 1e-12);
    }

    /// Segments computed directly from jobs agree with the standalone
    /// constructor, and interference windows are symmetric.
    #[test]
    fn standalone_constructors_agree(jobs in arbitrary_jobset()) {
        for a in jobs.job_ids() {
            for b in jobs.job_ids() {
                prop_assert_eq!(
                    jobs.segments(a, b),
                    Segments::between(jobs.job(a), jobs.job(b))
                );
                prop_assert_eq!(
                    jobs.shared_times(b, a),
                    SharedStageTimes::of(jobs.job(b), jobs.job(a))
                );
                prop_assert_eq!(jobs.windows_overlap(a, b), jobs.windows_overlap(b, a));
            }
        }
    }
}
