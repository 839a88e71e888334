//! Property suite: the incremental [`DelayEvaluator`] must be
//! bit-identical to the naive [`ReferenceBounds`] for all seven
//! [`DelayBoundKind`]s, over random MSMR systems and random sequences of
//! every membership operation: the four per-node add/remove ops and
//! Audsley's `demote` and `seed_target`.

use std::collections::BTreeSet;

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::{Analysis, DelayBoundKind, DelayEvaluator, JobMask};
use msmr_model::{Job, JobId, JobSet, JobSetBuilder, Pipeline, PreemptionPolicy, Time};
use proptest::prelude::*;

/// Random MSMR job sets: 2–4 stages, up to 3 resources per stage, 2–7
/// jobs, staggered arrivals so some window pairs do not overlap.
fn arbitrary_jobset() -> impl Strategy<Value = JobSet> {
    (2usize..=4, 1usize..=3, 2usize..=7).prop_flat_map(|(stages, max_res, jobs)| {
        let resources = prop::collection::vec(1usize..=max_res, stages);
        resources.prop_flat_map(move |resources| {
            let job = {
                let resources = resources.clone();
                (
                    prop::collection::vec((1u64..=25, 0usize..3), resources.len()),
                    50u64..=500,
                    0u64..=120,
                )
                    .prop_map(move |(stage_specs, deadline, arrival)| {
                        let mut builder = Job::builder()
                            .deadline(Time::new(deadline))
                            .arrival(Time::new(arrival));
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

/// One evaluator operation: (opcode, target selector, other selector).
/// `seed_target` reads the other selector's low bits as its `lower` set.
type Op = (u8, usize, usize);

/// Reference bookkeeping mirroring the evaluator ops on plain sets with
/// the same displacement semantics as `InterferenceSets`.
#[derive(Default, Clone)]
struct RefSets {
    higher: BTreeSet<JobId>,
    lower: BTreeSet<JobId>,
}

impl RefSets {
    fn interference_sets(&self) -> InterferenceSets {
        InterferenceSets::new(self.higher.iter().copied(), self.lower.iter().copied())
    }
}

/// Applies one op to both the evaluator and the reference sets.
fn apply(eval: &mut DelayEvaluator<'_>, refs: &mut [RefSets], op: Op, n: usize) {
    let (code, t_sel, k_sel) = op;
    let target = JobId::new(t_sel % n);
    let k = JobId::new(k_sel % n);
    let refsets = &mut refs[target.index()];
    match code % 6 {
        0 => {
            eval.add_higher(target, k);
            if k != target {
                refsets.lower.remove(&k);
                refsets.higher.insert(k);
            }
        }
        1 => {
            eval.add_lower(target, k);
            if k != target {
                refsets.higher.remove(&k);
                refsets.lower.insert(k);
            }
        }
        2 => {
            eval.remove_higher(target, k);
            refsets.higher.remove(&k);
        }
        3 => {
            eval.remove_lower(target, k);
            refsets.lower.remove(&k);
        }
        4 => {
            eval.demote(target, k);
            if k != target {
                refsets.higher.remove(&k);
                refsets.lower.insert(k);
            }
        }
        _ => {
            let lower: JobMask = (0..n)
                .filter(|&j| k_sel & (1 << j) != 0)
                .map(JobId::new)
                .collect();
            eval.seed_target(target, &lower);
            let others = (0..n).map(JobId::new).filter(|&j| j != target);
            (refsets.higher, refsets.lower) = others.partition(|&j| !lower.contains(j));
        }
    }
}

/// Asserts that every target's delay under `eval` is the reference bound
/// of its tracked sets.
fn assert_matches_reference(
    eval: &DelayEvaluator<'_>,
    reference: &ReferenceBounds<'_>,
    refs: &[RefSets],
    context: &str,
) {
    let kind = eval.kind();
    for (t, sets) in refs.iter().enumerate() {
        let target = JobId::new(t);
        assert_eq!(
            eval.delay(target),
            reference.delay_bound(kind, target, &sets.interference_sets()),
            "{kind}: target {target} diverged {context}"
        );
    }
}

/// A fixed system whose jobs all overlap in time but split into groups
/// that share no resource, so `interferes ∧ ¬competes` is non-empty and
/// Audsley's ops certainly take their skip for the shared-stage bounds.
/// Every seed, demote and re-seed of an Audsley walk over it matches the
/// reference for all seven kinds.
#[test]
fn audsley_ops_match_reference_when_interferers_do_not_compete() {
    let mut b = JobSetBuilder::new();
    b.stage("ap", 2, PreemptionPolicy::Preemptive)
        .stage("link", 2, PreemptionPolicy::Preemptive)
        .stage("server", 2, PreemptionPolicy::Preemptive);
    let rows: [([u64; 3], [usize; 3], u64); 6] = [
        ([5, 7, 15], [0, 0, 0], 90),
        ([7, 9, 17], [1, 1, 1], 80),
        ([6, 8, 30], [0, 1, 0], 95),
        ([2, 4, 3], [1, 0, 1], 70),
        ([9, 3, 11], [0, 0, 1], 85),
        ([4, 6, 8], [1, 1, 0], 75),
    ];
    for (times, resources, deadline) in rows {
        let mut job = b.job().deadline(Time::new(deadline));
        for (time, resource) in times.into_iter().zip(resources) {
            job = job.stage_time(Time::new(time), resource);
        }
        job.add().unwrap();
    }
    let jobs = b.build().unwrap();
    let analysis = Analysis::new(&jobs);
    let tables = analysis.tables();
    let reference = ReferenceBounds::new(&jobs);
    let n = jobs.len();
    let skipped: usize = jobs
        .job_ids()
        .map(|t| {
            let mut mask = JobMask::new();
            mask.assign_difference(tables.interference_mask(t), tables.competitor_mask(t));
            mask.len()
        })
        .sum();
    assert!(skipped > 0, "every interferer competes: nothing is skipped");

    let all = |lower: &[JobId], t: JobId| RefSets {
        higher: jobs
            .job_ids()
            .filter(|&j| j != t && !lower.contains(&j))
            .collect(),
        lower: lower.iter().copied().filter(|&j| j != t).collect(),
    };
    let order = [3, 0, 5, 1, 4, 2].map(JobId::new);
    for kind in DelayBoundKind::all() {
        let mut eval = analysis.evaluator(kind);
        eval.seed_all_higher();
        let mut refs: Vec<RefSets> = jobs.job_ids().map(|t| all(&[], t)).collect();
        assert_matches_reference(&eval, &reference, &refs, "after the seed");
        // Audsley's walk: each level's winner is demoted for every job.
        for (level, &winner) in order.iter().enumerate() {
            for t in jobs.job_ids() {
                eval.demote(t, winner);
            }
            refs = jobs.job_ids().map(|t| all(&order[..=level], t)).collect();
            assert_matches_reference(&eval, &reference, &refs, "mid-walk");
        }
        // Re-seeding every target at every depth, over a dirty state.
        for depth in 0..=n {
            let lower: JobMask = order[..depth].iter().copied().collect();
            for t in jobs.job_ids() {
                eval.seed_target(t, &lower);
            }
            refs = jobs.job_ids().map(|t| all(&order[..depth], t)).collect();
            assert_matches_reference(&eval, &reference, &refs, "after a re-seed");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every operation of a random sequence, the evaluator's delay
    /// equals the reference bound of the tracked interference sets, for
    /// every target and all seven bound kinds.
    #[test]
    fn evaluator_matches_reference_under_random_op_sequences(
        jobs in arbitrary_jobset(),
        ops in prop::collection::vec((0u8..6, 0usize..8, 0usize..256), 1..60),
    ) {
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let n = jobs.len();
        for kind in DelayBoundKind::all() {
            let mut eval = analysis.evaluator(kind);
            let mut refs = vec![RefSets::default(); n];
            for &op in &ops {
                apply(&mut eval, &mut refs, op, n);
                assert_matches_reference(&eval, &reference, &refs, "mid-sequence");
            }
            // And a full sweep at the end of the sequence.
            for target in jobs.job_ids() {
                let ctx = refs[target.index()].interference_sets();
                prop_assert_eq!(
                    eval.delay(target),
                    reference.delay_bound(kind, target, &ctx),
                    "{}: target {} diverged at end", kind, target
                );
                prop_assert_eq!(
                    eval.fits(target),
                    reference.meets_deadline(kind, target, &ctx)
                );
                let expected_slack = jobs.job(target).deadline()
                    .signed_diff(reference.delay_bound(kind, target, &ctx));
                prop_assert_eq!(eval.slack(target), expected_slack);
            }
        }
    }

    /// The evaluator's effective sets match the reference filters: only
    /// interfering jobs are tracked.
    #[test]
    fn effective_sets_match_window_overlap_filter(
        jobs in arbitrary_jobset(),
        ops in prop::collection::vec((0u8..2, 0usize..8, 0usize..8), 1..40),
    ) {
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let n = jobs.len();
        let mut eval = analysis.evaluator(DelayBoundKind::RefinedPreemptive);
        let mut refs = vec![RefSets::default(); n];
        for &op in &ops {
            apply(&mut eval, &mut refs, op, n);
        }
        for target in jobs.job_ids() {
            let expect_higher: Vec<JobId> = refs[target.index()]
                .higher
                .iter()
                .copied()
                .filter(|&k| k != target && reference.pair(target, k).interferes())
                .collect();
            let got: Vec<JobId> = eval.higher(target).iter().collect();
            prop_assert_eq!(got, expect_higher);
            let expect_lower: Vec<JobId> = refs[target.index()]
                .lower
                .iter()
                .copied()
                .filter(|&k| k != target && reference.pair(target, k).interferes())
                .collect();
            let got: Vec<JobId> = eval.lower(target).iter().collect();
            prop_assert_eq!(got, expect_lower);
        }
    }
}
