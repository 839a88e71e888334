//! Property suite: the incremental [`DelayEvaluator`] must be
//! bit-identical to the naive [`ReferenceBounds`] for all seven
//! [`DelayBoundKind`]s, over random MSMR systems and random
//! add/remove operation sequences.

use std::collections::BTreeSet;

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::{Analysis, DelayBoundKind, DelayEvaluator};
use msmr_model::{Job, JobId, JobSet, Pipeline, PreemptionPolicy, Time};
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
    match code % 4 {
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
        _ => {
            eval.remove_lower(target, k);
            refsets.lower.remove(&k);
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
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..8), 1..60),
    ) {
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let n = jobs.len();
        for kind in DelayBoundKind::all() {
            let mut eval = analysis.evaluator(kind);
            let mut refs = vec![RefSets::default(); n];
            for &op in &ops {
                apply(&mut eval, &mut refs, op, n);
                let target = JobId::new(op.1 % n);
                let ctx = refs[target.index()].interference_sets();
                prop_assert_eq!(
                    eval.delay(target),
                    reference.delay_bound(kind, target, &ctx),
                    "{}: target {} diverged mid-sequence", kind, target
                );
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
