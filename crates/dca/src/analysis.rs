//! The pair tables of one job set, the input of every delay evaluation.

use std::borrow::Cow;

use msmr_model::{Job, JobBuilder, JobId, JobSet, ModelError};

use crate::PairTables;

/// Precomputed delay composition analysis of one [`JobSet`]: the jobs
/// together with their [`PairTables`], from which every
/// [`DelayEvaluator`](crate::DelayEvaluator) reads.
///
/// Construction is `O(n²·N)`: for every ordered pair of jobs the segment
/// structure and shared-stage processing times are computed once. Every
/// evaluator update afterwards is `O(N)` and every delay read `O(1)`,
/// which keeps the `O(n²)` schedulability-test invocations of OPA and the
/// many evaluations of the pairwise branch-and-bound search cheap.
///
/// An analysis either borrows its jobs ([`Analysis::new`], the cold path)
/// or owns them ([`Analysis::owned`], a long-running admission session).
/// [`Analysis::push`], [`Analysis::pop`] and [`Analysis::swap_remove`]
/// change the jobs and the tables together in place, computing only the
/// pairs an arrival adds (`O(n·N)`) and moving, never recomputing, the
/// pairs a departure leaves; the result is bit-identical to
/// `Analysis::new` on the changed set (property-tested in
/// `tests/tables_extension.rs`). A borrowed analysis clones its jobs on
/// its first change.
#[derive(Debug, Clone)]
pub struct Analysis<'a> {
    jobs: Cow<'a, JobSet>,
    tables: PairTables,
}

impl<'a> Analysis<'a> {
    /// Precomputes the pairwise interference tables of `jobs` (one flat
    /// `O(n²·N)` pass).
    #[must_use]
    pub fn new(jobs: &'a JobSet) -> Self {
        let tables = PairTables::build(jobs);
        Analysis {
            jobs: Cow::Borrowed(jobs),
            tables,
        }
    }

    /// Appends one arriving job at the next dense id (which is
    /// returned) and computes only its row and column of the pair
    /// tables. Only the new job is validated.
    ///
    /// # Errors
    ///
    /// The [`ModelError`]s of [`JobSet::push`]; the jobs and the tables
    /// (their [`PairTables::generation`] included) are then unchanged.
    pub fn push(&mut self, job: JobBuilder) -> Result<JobId, ModelError> {
        let id = self.jobs.to_mut().push(job)?;
        self.tables.extend_with_job(&self.jobs);
        Ok(id)
    }

    /// Removes the job with the highest id, or returns `None` when there
    /// is none. Right after the [`Analysis::push`] that added it, this
    /// rolls the arrival back completely: the tables get their previous
    /// [`PairTables::generation`] back, so state derived from them stays
    /// valid (the rejected-admission path).
    pub fn pop(&mut self) -> Option<Job> {
        let job = self.jobs.to_mut().pop()?;
        self.tables.remove_last_job();
        Some(job)
    }

    /// Removes `removed` by swap-removal ([`JobSet::swap_remove`]
    /// mirrored by [`PairTables::remove_job`]): the highest-id job takes
    /// over `removed`'s id and every other job keeps its own. `O(n·N)`
    /// data movement and no pair recomputation.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn swap_remove(&mut self, removed: JobId) -> Job {
        let job = self.jobs.to_mut().swap_remove(removed);
        self.tables.remove_job(removed);
        job
    }

    /// The job set being analysed.
    #[must_use]
    pub fn jobs(&self) -> &JobSet {
        &self.jobs
    }

    /// The flat struct-of-arrays pair tables read by
    /// [`DelayEvaluator`](crate::DelayEvaluator).
    #[must_use]
    pub fn tables(&self) -> &PairTables {
        &self.tables
    }
}

impl Analysis<'static> {
    /// [`Analysis::new`] over a job set the analysis keeps: the
    /// constructor of an analysis that outlives any one borrow, such as
    /// the one an admission session changes in place across requests.
    #[must_use]
    pub fn owned(jobs: JobSet) -> Self {
        let tables = PairTables::build(&jobs);
        Analysis {
            jobs: Cow::Owned(jobs),
            tables,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The paper's printed numbers and the bounds' ordering facts, asserted
    //! on the shipped evaluator and on the reference oracle alike.

    use super::*;
    use crate::reference::{InterferenceSets, ReferenceBounds};
    use crate::DelayBoundKind;
    use msmr_model::{JobId, JobSetBuilder, PreemptionPolicy, Time};

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    /// The shipped bound: `target`'s delay in a fresh evaluator holding
    /// `ctx`'s higher and lower sets.
    fn shipped(
        analysis: &Analysis<'_>,
        kind: DelayBoundKind,
        target: JobId,
        ctx: &InterferenceSets,
    ) -> Time {
        let mut eval = analysis.evaluator(kind);
        for &k in ctx.higher() {
            eval.add_higher(target, k);
        }
        for &k in ctx.lower() {
            eval.add_lower(target, k);
        }
        eval.delay(target)
    }

    /// Example 1 of the paper: three-stage single-resource pipeline with
    /// four jobs whose stage-processing times are ⟨5,7,15⟩, ⟨7,9,17⟩,
    /// ⟨6,8,30⟩ and ⟨2,4,3⟩. Deadlines are irrelevant for the delay values.
    fn example1() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("s1", 1, PreemptionPolicy::NonPreemptive)
            .stage("s2", 1, PreemptionPolicy::NonPreemptive)
            .stage("s3", 1, PreemptionPolicy::NonPreemptive);
        for times in [[5u64, 7, 15], [7, 9, 17], [6, 8, 30], [2, 4, 3]] {
            b.job()
                .deadline(Time::new(1_000))
                .stage_time(Time::new(times[0]), 0)
                .stage_time(Time::new(times[1]), 0)
                .stage_time(Time::new(times[2]), 0)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    /// The Observation V.1 system: Example 1 processing times, the
    /// job-to-resource mapping of Figure 2(a) and deadlines {60,55,55,50}.
    fn observation_v1() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("s1", 2, PreemptionPolicy::Preemptive)
            .stage("s2", 2, PreemptionPolicy::Preemptive)
            .stage("s3", 2, PreemptionPolicy::Preemptive);
        // J1 <5,7,15>, D=60: S1 resource 0, S2/S3 resource 1.
        b.job()
            .deadline(Time::new(60))
            .stage_time(Time::new(5), 0)
            .stage_time(Time::new(7), 1)
            .stage_time(Time::new(15), 1)
            .add()
            .unwrap();
        // J2 <7,9,17>, D=55: S1 resource 1, S2/S3 resource 1.
        b.job()
            .deadline(Time::new(55))
            .stage_time(Time::new(7), 1)
            .stage_time(Time::new(9), 1)
            .stage_time(Time::new(17), 1)
            .add()
            .unwrap();
        // J3 <6,8,30>, D=55: S1 resource 0, S2/S3 resource 0.
        b.job()
            .deadline(Time::new(55))
            .stage_time(Time::new(6), 0)
            .stage_time(Time::new(8), 0)
            .stage_time(Time::new(30), 0)
            .add()
            .unwrap();
        // J4 <2,4,3>, D=50: S1 resource 1, S2/S3 resource 0.
        b.job()
            .deadline(Time::new(50))
            .stage_time(Time::new(2), 1)
            .stage_time(Time::new(4), 0)
            .stage_time(Time::new(3), 0)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn example1_eq2_reproduces_observation_iv2() {
        let jobs = example1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let kind = DelayBoundKind::NonPreemptiveSingleResource;
        // Priority ordering J1 > J2 > J3 > J4 (ids 0..3): Δ_2 (job id 1) is
        // 92. Swapping J2 and J3 *reduces* Δ_2 to 87 even though J2 moved
        // to a lower priority — the violation of OPA-compatibility
        // condition 3.
        for (order, want) in [
            ([jid(0), jid(1), jid(2), jid(3)], 92),
            ([jid(0), jid(2), jid(1), jid(3)], 87),
        ] {
            let ctx = InterferenceSets::from_total_order(&order, jid(1));
            assert_eq!(
                reference.non_preemptive_single_resource_bound(jid(1), &ctx),
                Time::new(want)
            );
            assert_eq!(shipped(&analysis, kind, jid(1), &ctx), Time::new(want));
        }
    }

    #[test]
    fn example1_eq4_matches_eq2_on_single_resource_pipelines() {
        // With a single resource per stage every pair shares every stage,
        // so the MSMR bound of Eq. 4 degenerates to Eq. 2.
        let jobs = example1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        for target in 0..4 {
            let order = [jid(0), jid(1), jid(2), jid(3)];
            let ctx = InterferenceSets::from_total_order(&order, jid(target));
            assert_eq!(
                reference.non_preemptive_msmr_bound(jid(target), &ctx),
                reference.non_preemptive_single_resource_bound(jid(target), &ctx),
            );
            assert_eq!(
                shipped(
                    &analysis,
                    DelayBoundKind::NonPreemptiveMsmr,
                    jid(target),
                    &ctx
                ),
                shipped(
                    &analysis,
                    DelayBoundKind::NonPreemptiveSingleResource,
                    jid(target),
                    &ctx
                ),
            );
        }
    }

    #[test]
    fn eq5_is_at_least_eq4() {
        let jobs = example1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        for target in 0..4 {
            let order = [jid(3), jid(2), jid(1), jid(0)];
            let ctx = InterferenceSets::from_total_order(&order, jid(target));
            assert!(
                reference.non_preemptive_opa_bound(jid(target), &ctx)
                    >= reference.non_preemptive_msmr_bound(jid(target), &ctx)
            );
            assert!(
                shipped(
                    &analysis,
                    DelayBoundKind::NonPreemptiveOpa,
                    jid(target),
                    &ctx
                ) >= shipped(
                    &analysis,
                    DelayBoundKind::NonPreemptiveMsmr,
                    jid(target),
                    &ctx
                )
            );
        }
    }

    #[test]
    fn eq3_is_at_least_eq6() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        for target in 0..4 {
            let order = [jid(0), jid(1), jid(2), jid(3)];
            let ctx = InterferenceSets::from_total_order(&order, jid(target));
            assert!(
                reference.preemptive_msmr_bound(jid(target), &ctx)
                    >= reference.refined_preemptive_bound(jid(target), &ctx)
            );
            assert!(
                shipped(&analysis, DelayBoundKind::PreemptiveMsmr, jid(target), &ctx)
                    >= shipped(
                        &analysis,
                        DelayBoundKind::RefinedPreemptive,
                        jid(target),
                        &ctx
                    )
            );
        }
    }

    #[test]
    fn observation_v1_pairwise_delays_under_eq6() {
        // Pairwise assignment of Figure 2(b): J3>J1, J1>J2, J2>J4, J4>J3.
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        for (target, higher, lower, want) in [
            (0, 2, 1, 34), // J1: higher {J3}, lower {J2}.
            (1, 0, 3, 55), // J2: higher {J1}, lower {J4}.
            (2, 3, 0, 51), // J3: higher {J4}, lower {J1}.
            (3, 1, 2, 22), // J4: higher {J2}, lower {J3}.
        ] {
            let ctx = InterferenceSets::new([jid(higher)], [jid(lower)]);
            assert_eq!(
                reference.refined_preemptive_bound(jid(target), &ctx),
                Time::new(want)
            );
            assert_eq!(
                shipped(
                    &analysis,
                    DelayBoundKind::RefinedPreemptive,
                    jid(target),
                    &ctx
                ),
                Time::new(want)
            );
        }
    }

    #[test]
    fn observation_v1_no_job_can_take_lowest_priority() {
        // With all three other jobs at higher priority, every job misses
        // its deadline under Eq. 6 — the first OPA step fails, so no total
        // priority ordering exists.
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let kind = DelayBoundKind::RefinedPreemptive;
        let expected = [62u64, 57, 56, 64];
        for (target, &want) in expected.iter().enumerate() {
            let higher: Vec<JobId> = (0..4).filter(|&k| k != target).map(jid).collect();
            let ctx = InterferenceSets::new(higher, []);
            let delta = reference.refined_preemptive_bound(jid(target), &ctx);
            assert_eq!(delta, Time::new(want));
            assert!(delta > jobs.job(jid(target)).deadline());
        }
        let mut eval = analysis.evaluator(kind);
        eval.seed_all_higher();
        assert_eq!(eval.delays(), expected.map(Time::new));
        assert!(jobs.job_ids().all(|t| !eval.fits(t)));
    }

    #[test]
    fn isolated_job_delay_is_its_largest_plus_other_stage_times() {
        // With no interference, Eq. 6 reduces to t_{i,1} plus the
        // processing of every stage but the last... i.e. for a job alone,
        // the stage-additive component is its own processing on stages
        // 1..N-1 and the job-additive component is its largest stage time.
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let ctx = InterferenceSets::default();
        // J1 <5,7,15>: 15 + (5 + 7) = 27.
        assert_eq!(
            reference.refined_preemptive_bound(jid(0), &ctx),
            Time::new(27)
        );
        assert_eq!(
            analysis
                .evaluator(DelayBoundKind::RefinedPreemptive)
                .delay(jid(0)),
            Time::new(27)
        );
    }

    #[test]
    fn higher_priority_job_never_decreases_compatible_bounds() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        for kind in [
            DelayBoundKind::PreemptiveSingleResource,
            DelayBoundKind::PreemptiveMsmr,
            DelayBoundKind::NonPreemptiveOpa,
            DelayBoundKind::RefinedPreemptive,
            DelayBoundKind::EdgeHybrid,
        ] {
            let contexts = [
                InterferenceSets::default(),
                InterferenceSets::new([jid(1)], []),
                InterferenceSets::new([jid(1), jid(2)], []),
            ];
            let by_reference = contexts
                .each_ref()
                .map(|ctx| reference.delay_bound(kind, jid(0), ctx));
            let by_evaluator = contexts
                .each_ref()
                .map(|ctx| shipped(&analysis, kind, jid(0), ctx));
            assert_eq!(by_evaluator, by_reference, "{kind}");
            let [base, with_one, with_two] = by_reference;
            assert!(
                with_one >= base,
                "{kind}: adding interference reduced the bound"
            );
            assert!(with_two >= with_one);
        }
    }

    #[test]
    fn non_interfering_jobs_are_ignored() {
        // A job whose window does not overlap contributes nothing.
        let mut b = JobSetBuilder::new();
        b.stage("s", 1, PreemptionPolicy::Preemptive)
            .stage("t", 1, PreemptionPolicy::Preemptive);
        b.job()
            .arrival(Time::new(0))
            .deadline(Time::new(20))
            .stage_time(Time::new(4), 0)
            .stage_time(Time::new(6), 0)
            .add()
            .unwrap();
        b.job()
            .arrival(Time::new(1_000))
            .deadline(Time::new(20))
            .stage_time(Time::new(9), 0)
            .stage_time(Time::new(9), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let kind = DelayBoundKind::RefinedPreemptive;
        let far_future = InterferenceSets::new([jid(1)], []);
        let alone = reference.refined_preemptive_bound(jid(0), &InterferenceSets::default());
        assert_eq!(
            reference.refined_preemptive_bound(jid(0), &far_future),
            alone
        );
        assert_eq!(shipped(&analysis, kind, jid(0), &far_future), alone);
    }

    #[test]
    fn edge_hybrid_adds_last_stage_blocking() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        // Target J1 (id 0), higher {J3}, lower {J2}: J2 shares stages 2 and
        // 3 with J1, so blocking at the last stage adds ep_{2,3} = 17.
        let ctx = InterferenceSets::new([jid(2)], [jid(1)]);
        let preemptive = reference.refined_preemptive_bound(jid(0), &ctx);
        assert_eq!(
            reference.edge_hybrid_bound(jid(0), &ctx),
            preemptive + Time::new(17)
        );
        assert_eq!(
            shipped(&analysis, DelayBoundKind::EdgeHybrid, jid(0), &ctx),
            shipped(&analysis, DelayBoundKind::RefinedPreemptive, jid(0), &ctx) + Time::new(17)
        );
    }

    #[test]
    fn eq1_accounts_for_late_arriving_higher_priority_jobs() {
        // The target arrives at 0; the higher-priority job at `arrival`.
        let two_jobs = |arrival: u64| {
            let mut b = JobSetBuilder::new();
            b.stage("s", 1, PreemptionPolicy::Preemptive).stage(
                "t",
                1,
                PreemptionPolicy::Preemptive,
            );
            b.job()
                .arrival(Time::new(0))
                .deadline(Time::new(100))
                .stage_time(Time::new(10), 0)
                .stage_time(Time::new(20), 0)
                .add()
                .unwrap();
            b.job()
                .arrival(Time::new(arrival))
                .deadline(Time::new(100))
                .stage_time(Time::new(8), 0)
                .stage_time(Time::new(3), 0)
                .add()
                .unwrap();
            b.build().unwrap()
        };
        // Arriving later, the higher-priority job contributes t_{k,1} and
        // t_{k,2}: Q = {0,1}: t_{0,1}=20, t_{1,1}=8; H^a: t_{1,2}=3;
        // stage-additive j=1: max(10, 8) = 10. Total = 41. Arriving
        // together with the target, the extra t_{k,2} term disappears.
        for (arrival, want) in [(5, 41), (0, 38)] {
            let jobs = two_jobs(arrival);
            let analysis = Analysis::new(&jobs);
            let ctx = InterferenceSets::new([jid(1)], []);
            assert_eq!(
                ReferenceBounds::new(&jobs).preemptive_single_resource_bound(jid(0), &ctx),
                Time::new(want)
            );
            assert_eq!(
                shipped(
                    &analysis,
                    DelayBoundKind::PreemptiveSingleResource,
                    jid(0),
                    &ctx
                ),
                Time::new(want)
            );
        }
    }

    #[test]
    fn delay_bound_dispatch_matches_direct_calls() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let order = [jid(2), jid(0), jid(1), jid(3)];
        let ctx = InterferenceSets::from_total_order(&order, jid(1));
        for (kind, direct) in [
            (
                DelayBoundKind::RefinedPreemptive,
                reference.refined_preemptive_bound(jid(1), &ctx),
            ),
            (
                DelayBoundKind::NonPreemptiveOpa,
                reference.non_preemptive_opa_bound(jid(1), &ctx),
            ),
            (
                DelayBoundKind::EdgeHybrid,
                reference.edge_hybrid_bound(jid(1), &ctx),
            ),
        ] {
            assert_eq!(reference.delay_bound(kind, jid(1), &ctx), direct);
            assert_eq!(shipped(&analysis, kind, jid(1), &ctx), direct);
        }
    }

    #[test]
    fn meets_deadline_compares_against_job_deadline() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let kind = DelayBoundKind::RefinedPreemptive;
        // J1 alone: Δ = 27 ≤ 60.
        assert!(reference.meets_deadline(kind, jid(0), &InterferenceSets::default()));
        assert!(analysis.evaluator(kind).fits(jid(0)));
        // J4 with everyone higher: Δ = 64 > 50.
        let ctx = InterferenceSets::new([jid(0), jid(1), jid(2)], []);
        assert!(!reference.meets_deadline(kind, jid(3), &ctx));
        let mut eval = analysis.evaluator(kind);
        eval.seed_all_higher();
        assert!(!eval.fits(jid(3)));
    }

    /// The oracle range-checks in every build (a release build used to
    /// read another pair's slot for `pair(0, 9)` on four jobs).
    #[test]
    #[should_panic(expected = "out of range")]
    fn pair_lookup_panics_on_bad_id_in_debug_builds() {
        let jobs = example1();
        let _ = ReferenceBounds::new(&jobs).pair(jid(0), jid(9));
    }
}
