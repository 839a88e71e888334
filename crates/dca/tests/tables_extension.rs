//! Property suite for incremental pair-table changes: growing, shrinking
//! or swap-removing from an [`Analysis`]/[`PairTables`] one job at a time
//! must be bit-identical to a full rebuild on the changed set — the
//! primitive the `msmr-serve` admission session rides on.

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::{Analysis, DelayBoundKind, DelayEvaluator, PairTables};
use msmr_model::{Job, JobBuilder, JobId, JobSet, Pipeline, PreemptionPolicy, Time};
use proptest::prelude::*;

/// Random MSMR job sets: 2–4 stages, up to 3 resources per stage, 3–8
/// jobs, staggered arrivals so some window pairs do not overlap.
fn arbitrary_jobset() -> impl Strategy<Value = JobSet> {
    (2usize..=4, 1usize..=3, 3usize..=8).prop_flat_map(|(stages, max_res, jobs)| {
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

/// The prefix job sets `jobs[..1], jobs[..2], …, jobs[..n]` of a set (a
/// job-by-job arrival trace).
fn prefixes(jobs: &JobSet) -> Vec<JobSet> {
    let ids: Vec<JobId> = jobs.job_ids().collect();
    (1..=ids.len())
        .map(|m| jobs.restrict_to(&ids[..m]).unwrap().0)
        .collect()
}

/// A builder describing `job` (arrival, deadline and every stage).
fn builder(job: &Job) -> JobBuilder {
    job.processing_times().iter().zip(job.resources()).fold(
        Job::builder()
            .arrival(job.arrival())
            .deadline(job.deadline()),
        |b, (&p, &r)| b.stage_time(p, r),
    )
}

/// A total priority order of `n` jobs derived from sort keys.
fn order_from_keys(n: usize, keys: &[u64]) -> Vec<JobId> {
    let mut order: Vec<JobId> = (0..n).map(JobId::new).collect();
    order.sort_by_key(|id| (keys[id.index() % keys.len()], id.index()));
    order
}

/// Asserts that two pair tables describe the same system: identical
/// masks, identical evaluator delays for every bound kind and every
/// target under the given total order, and identical Eq. 5 blocking
/// behaviour. This is a *behavioural* bit-for-bit check — it reads every
/// table the evaluator reads (job-additive scalars, ep rows, self terms,
/// deadlines, interference masks, blocking constants).
fn assert_tables_equivalent(extended: &PairTables, rebuilt: &PairTables, order: &[JobId]) {
    assert_eq!(extended.job_count(), rebuilt.job_count());
    assert_eq!(extended.stage_count(), rebuilt.stage_count());
    let n = rebuilt.job_count();
    for t in 0..n {
        let id = JobId::new(t);
        assert_eq!(
            extended.interference_mask(id),
            rebuilt.interference_mask(id),
            "interference mask of J{t}"
        );
        assert_eq!(
            extended.competitor_mask(id),
            rebuilt.competitor_mask(id),
            "competitor mask of J{t}"
        );
    }
    for kind in DelayBoundKind::all() {
        let mut a = DelayEvaluator::new(extended, kind);
        let mut b = DelayEvaluator::new(rebuilt, kind);
        for (pos, &t) in order.iter().enumerate() {
            for &h in &order[..pos] {
                a.add_higher(t, h);
                b.add_higher(t, h);
            }
            for &l in &order[pos + 1..] {
                a.add_lower(t, l);
                b.add_lower(t, l);
            }
        }
        for &t in order {
            assert_eq!(a.delay(t), b.delay(t), "{kind}: target {t}");
            assert_eq!(a.fits(t), b.fits(t), "{kind}: target {t}");
            assert_eq!(a.slack(t), b.slack(t), "{kind}: target {t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Job-by-job extension from a single job up to the full set matches
    /// a fresh build of every prefix, for every bound kind.
    #[test]
    fn extension_matches_full_rebuild(jobs in arbitrary_jobset(), keys in prop::collection::vec(0u64..1_000, 8)) {
        let sets = prefixes(&jobs);
        let mut analysis = Analysis::new(&sets[0]);
        for m in 1..sets.len() {
            let id = analysis.push(builder(jobs.job(JobId::new(m)))).unwrap();
            prop_assert_eq!(id, JobId::new(m));
            prop_assert_eq!(analysis.jobs(), &sets[m]);
            let rebuilt = Analysis::new(&sets[m]);
            let order = order_from_keys(m + 1, &keys);
            assert_tables_equivalent(analysis.tables(), rebuilt.tables(), &order);

            // The reference bounds of the extended set agree too.
            let reference = ReferenceBounds::new(&sets[m]);
            let target = order[m / 2];
            let ctx = InterferenceSets::from_total_order(&order, target);
            for kind in DelayBoundKind::all() {
                let mut eval = analysis.evaluator(kind);
                for &k in ctx.higher() {
                    eval.add_higher(target, k);
                }
                for &k in ctx.lower() {
                    eval.add_lower(target, k);
                }
                prop_assert_eq!(
                    eval.delay(target),
                    reference.delay_bound(kind, target, &ctx),
                    "reference {} after {} extensions", kind, m
                );
            }
        }
    }

    /// Extending tables whose Eq. 5 blocking cache is already built takes
    /// the incremental-update path and still matches the rebuild.
    #[test]
    fn extension_updates_a_built_opa_cache(jobs in arbitrary_jobset(), keys in prop::collection::vec(0u64..1_000, 8)) {
        let sets = prefixes(&jobs);
        let n = sets.len();
        let mut analysis = Analysis::new(&sets[n - 2]);
        // Force the Eq. 5 blocking cache *before* the extension.
        let _ = analysis.evaluator(DelayBoundKind::NonPreemptiveOpa);
        analysis.push(builder(jobs.job(JobId::new(n - 1)))).unwrap();
        let rebuilt = Analysis::new(&sets[n - 1]);
        let order = order_from_keys(n, &keys);
        assert_tables_equivalent(analysis.tables(), rebuilt.tables(), &order);
    }

    /// `remove_last_job` rolls an extension back to the original tables
    /// (the rejected-admission path).
    #[test]
    fn remove_last_job_rolls_back_an_extension(jobs in arbitrary_jobset(), keys in prop::collection::vec(0u64..1_000, 8)) {
        let sets = prefixes(&jobs);
        let n = sets.len();
        let mut tables = Analysis::new(&sets[n - 2]).tables().clone();
        tables.extend_with_job(&sets[n - 1]);
        tables.remove_last_job();
        let original = Analysis::new(&sets[n - 2]);
        let order = order_from_keys(n - 1, &keys);
        assert_tables_equivalent(&tables, original.tables(), &order);
    }

    /// General swap-removal of *any* job is bit-identical to a rebuild on
    /// the swap-removed set — the `O(n·N)` mid-set withdraw path of the
    /// online solver seam.
    #[test]
    fn remove_job_matches_rebuild_on_the_swap_removed_set(
        jobs in arbitrary_jobset(),
        victim_key in 0usize..64,
        keys in prop::collection::vec(0u64..1_000, 8),
    ) {
        let n = jobs.len();
        let victim = JobId::new(victim_key % n);
        let mut tables = Analysis::new(&jobs).tables().clone();
        tables.remove_job(victim);
        let mut reduced = jobs.clone();
        reduced.swap_remove(victim);
        if victim.index() + 1 < n {
            // The highest-id job took over the victim's id.
            prop_assert_eq!(
                reduced.job(victim).deadline(),
                jobs.job(JobId::new(n - 1)).deadline()
            );
        }
        let rebuilt = Analysis::new(&reduced);
        let order = order_from_keys(n - 1, &keys);
        assert_tables_equivalent(&tables, rebuilt.tables(), &order);
    }

    /// Repeated removals down to a single job stay rebuild-identical at
    /// every step, with a built Eq. 5 cache discarded and rebuilt along
    /// the way; so does a random walk of in-place pushes, pops,
    /// swap-removals and invalid pushes on an owned [`Analysis`], whose
    /// jobs follow a `Vec<Job>` mirror re-validated by [`JobSet::new`].
    #[test]
    fn repeated_removals_stay_rebuild_identical(
        jobs in arbitrary_jobset(),
        victims in prop::collection::vec(0usize..64, 4),
        keys in prop::collection::vec(0u64..1_000, 8),
        walk in prop::collection::vec((0u8..4, 0usize..64), 10),
    ) {
        let mut analysis = Analysis::owned(jobs.clone());
        let mut mirror: Vec<Job> = jobs.jobs().cloned().collect();
        // The generation before the latest op, when that op was a push.
        let mut pushed_over = None;
        for &(op, pick) in &walk {
            let before = analysis.tables().generation();
            let n = mirror.len();
            match op {
                0 => {
                    let arrival = builder(jobs.job(JobId::new(pick % jobs.len())));
                    let id = analysis.push(arrival.clone()).unwrap();
                    prop_assert_eq!(id, JobId::new(n));
                    mirror.push(arrival.build(id).unwrap());
                }
                1 => {
                    let popped = analysis.pop();
                    prop_assert_eq!(popped, mirror.pop());
                    if let Some(generation) = pushed_over {
                        prop_assert_eq!(analysis.tables().generation(), generation);
                    }
                }
                2 if n > 0 => {
                    let victim = JobId::new(pick % n);
                    let removed = analysis.swap_remove(victim);
                    prop_assert_eq!(removed, mirror.swap_remove(victim.index()));
                }
                2 => {}
                _ => {
                    // One stage too few, a zero deadline, or a resource
                    // the pipeline lacks.
                    let valid = jobs.job(JobId::new(pick % jobs.len()));
                    let invalid = match pick % 3 {
                        0 => Job::builder()
                            .deadline(valid.deadline())
                            .stage_time(Time::new(1), 0),
                        1 => builder(valid).deadline(Time::ZERO),
                        _ => Job::builder().deadline(valid.deadline()).stages(
                            (0..jobs.stage_count()).map(|_| (Time::new(1), 9usize)),
                        ),
                    };
                    let expected = analysis.jobs().with_job(invalid.clone()).unwrap_err();
                    prop_assert_eq!(analysis.push(invalid).unwrap_err(), expected);
                    prop_assert_eq!(analysis.tables().generation(), before);
                }
            }
            pushed_over = (op == 0).then_some(before);
            let expected = JobSet::new(jobs.pipeline().clone(), mirror).unwrap();
            prop_assert_eq!(analysis.jobs(), &expected);
            mirror = expected.jobs().cloned().collect();
            if pick % 2 == 0 {
                // Exercise the Eq. 5 cache's update and discard paths.
                let _ = analysis.evaluator(DelayBoundKind::NonPreemptiveOpa);
            }
            let rebuilt = Analysis::new(&expected);
            let order = order_from_keys(expected.len(), &keys);
            assert_tables_equivalent(analysis.tables(), rebuilt.tables(), &order);
        }

        let mut current = jobs;
        let mut tables = Analysis::new(&current).tables().clone();
        for &pick in &victims {
            if current.len() <= 1 {
                break;
            }
            // Force the Eq. 5 cache so removal exercises its discard.
            let _ = DelayEvaluator::new(&tables, DelayBoundKind::NonPreemptiveOpa);
            let victim = JobId::new(pick % current.len());
            tables.remove_job(victim);
            current.swap_remove(victim);
            let rebuilt = Analysis::new(&current);
            let order = order_from_keys(current.len(), &keys);
            assert_tables_equivalent(&tables, rebuilt.tables(), &order);
        }
    }

    /// Pre-reserved capacity changes neither values nor behaviour, and
    /// extensions within capacity never re-stride.
    #[test]
    fn reserve_is_value_neutral(jobs in arbitrary_jobset(), keys in prop::collection::vec(0u64..1_000, 8)) {
        let sets = prefixes(&jobs);
        let n = sets.len();
        let mut tables = Analysis::new(&sets[0]).tables().clone();
        tables.reserve(64);
        prop_assert_eq!(tables.capacity(), 64);
        for set in &sets[1..] {
            tables.extend_with_job(set);
        }
        prop_assert_eq!(tables.capacity(), 64);
        let rebuilt = Analysis::new(&sets[n - 1]);
        let order = order_from_keys(n, &keys);
        assert_tables_equivalent(&tables, rebuilt.tables(), &order);
    }
}

/// Generation stamps follow the contents: an extension mints a fresh
/// stamp and remembers the old one, its rollback restores it, a clone
/// shares it, and a swap-removal or an independent build never repeats
/// one.
#[test]
fn generations_identify_contents() {
    let mut b = msmr_model::JobSetBuilder::new();
    b.stage("cpu", 1, PreemptionPolicy::Preemptive);
    for deadline in [30, 40, 50] {
        b.job()
            .deadline(Time::new(deadline))
            .stage_time(Time::new(3), 0)
            .add()
            .unwrap();
    }
    let jobs = b.build().unwrap();
    let ids: Vec<JobId> = jobs.job_ids().collect();
    let (prefix, _) = jobs.restrict_to(&ids[..2]).unwrap();

    let mut tables = Analysis::new(&prefix).tables().clone();
    let built = tables.generation();
    assert_eq!(tables.parent_generation(), None);
    assert_ne!(Analysis::new(&prefix).tables().generation(), built);

    tables.extend_with_job(&jobs);
    let extended = tables.generation();
    assert_ne!(extended, built);
    assert_eq!(tables.parent_generation(), Some(built));
    let copy = tables.clone();
    assert_eq!(copy.generation(), extended);

    tables.remove_last_job();
    assert_eq!(tables.generation(), built, "a rollback restores the stamp");
    assert_eq!(tables.parent_generation(), None);

    tables.extend_with_job(&jobs);
    tables.remove_job(JobId::new(0));
    let removed = tables.generation();
    assert!(![built, extended].contains(&removed));
    assert_eq!(tables.parent_generation(), None);
    tables.reserve(64);
    assert_eq!(tables.generation(), removed, "capacity is not content");
}
