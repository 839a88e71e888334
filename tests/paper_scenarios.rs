//! End-to-end reproductions of the concrete scenarios discussed in the
//! paper's text: Example 1, Observations IV.2 and V.1, Figure 1 and
//! Figure 2.

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::{Analysis, DelayBoundKind};
use msmr_model::{JobId, JobSet, JobSetBuilder, PreemptionPolicy, Time};
use msmr_sched::{
    Dm, Opdca, OptPairwise, PairwiseAssignment, PairwiseIlp, SolveCtx, Solver, VerdictKind, Witness,
};

fn jid(i: usize) -> JobId {
    JobId::new(i)
}

/// `target`'s delay on the shipped evaluator, given `ctx`'s sets.
fn shipped(jobs: &JobSet, kind: DelayBoundKind, target: JobId, ctx: &InterferenceSets) -> Time {
    let analysis = Analysis::new(jobs);
    let mut eval = analysis.evaluator(kind);
    for &k in ctx.higher() {
        eval.add_higher(target, k);
    }
    for &k in ctx.lower() {
        eval.add_lower(target, k);
    }
    eval.delay(target)
}

/// Example 1: three-stage single-resource pipeline, four jobs with stage
/// processing times ⟨5,7,15⟩, ⟨7,9,17⟩, ⟨6,8,30⟩, ⟨2,4,3⟩.
fn example1(deadlines: [u64; 4]) -> JobSet {
    let mut b = JobSetBuilder::new();
    b.stage("s1", 1, PreemptionPolicy::NonPreemptive)
        .stage("s2", 1, PreemptionPolicy::NonPreemptive)
        .stage("s3", 1, PreemptionPolicy::NonPreemptive);
    let times = [[5u64, 7, 15], [7, 9, 17], [6, 8, 30], [2, 4, 3]];
    for (t, d) in times.iter().zip(deadlines) {
        b.job()
            .deadline(Time::new(d))
            .stage_time(Time::new(t[0]), 0)
            .stage_time(Time::new(t[1]), 0)
            .stage_time(Time::new(t[2]), 0)
            .add()
            .unwrap();
    }
    b.build().unwrap()
}

/// The Observation V.1 system: Example 1 processing times, the Figure 2(a)
/// mapping onto two resources per stage, deadlines {60, 55, 55, 50}.
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

#[test]
fn observation_iv2_example1_delay_drops_after_a_priority_swap() {
    // Under Eq. 2, Δ_2 = 92 for the ordering J1 > J2 > J3 > J4 and drops
    // to 87 after swapping J2 and J3 — the OPA-incompatibility witness.
    let jobs = example1([1_000; 4]);
    let reference = ReferenceBounds::new(&jobs);
    let before = InterferenceSets::from_total_order(&[jid(0), jid(1), jid(2), jid(3)], jid(1));
    let after = InterferenceSets::from_total_order(&[jid(0), jid(2), jid(1), jid(3)], jid(1));
    let eq2 = DelayBoundKind::NonPreemptiveSingleResource;
    for (ctx, want) in [(&before, 92), (&after, 87)] {
        assert_eq!(
            reference.non_preemptive_single_resource_bound(jid(1), ctx),
            Time::new(want)
        );
        assert_eq!(shipped(&jobs, eq2, jid(1), ctx), Time::new(want));
    }
    // The OPA-compatible Eq. 5 does not decrease under the same swap.
    assert!(
        reference.non_preemptive_opa_bound(jid(1), &after)
            >= reference.non_preemptive_opa_bound(jid(1), &before)
    );
    let eq5 = DelayBoundKind::NonPreemptiveOpa;
    assert!(shipped(&jobs, eq5, jid(1), &after) >= shipped(&jobs, eq5, jid(1), &before));
}

#[test]
fn footnote9_deadline_monotonic_pushes_j1_to_the_lowest_priority() {
    // Footnote 9: with D1 = 60 (the largest deadline of the set) the
    // deadline-monotonic rule gives J1 the lowest priority and Eq. 1
    // yields Δ_1 = 82 > 60.
    let jobs = example1([60, 55, 55, 50]);
    let ctx = SolveCtx::new(&jobs);
    // Every other job has a smaller deadline, so DM ranks it above J1.
    for k in 1..4 {
        assert!(jobs.job(jid(k)).deadline() < jobs.job(jid(0)).deadline());
    }
    let dm = Dm::new(DelayBoundKind::PreemptiveSingleResource).solve(&ctx);
    let delays = dm
        .delays
        .as_deref()
        .expect("DM reports delays on rejection too");
    assert_eq!(delays[0], Time::new(82));
    assert_eq!(dm.kind, VerdictKind::Rejected);
    assert!(dm.unschedulable.contains(&jid(0)));
    // In this single-resource variant the lowest-priority slot costs 82
    // time units for *any* job, so no ordering exists either — Audsley's
    // algorithm agrees.
    let opdca = Opdca::new(DelayBoundKind::PreemptiveSingleResource).solve(&ctx);
    assert_eq!(opdca.kind, VerdictKind::Rejected);
}

#[test]
fn observation_v1_no_ordering_but_a_pairwise_assignment_exists() {
    let jobs = observation_v1();
    let ctx = SolveCtx::new(&jobs);
    let analysis = ctx.analysis();
    let bound = DelayBoundKind::RefinedPreemptive;

    // P1 is infeasible: no total priority ordering passes S_DCA.
    assert_eq!(Opdca::new(bound).solve(&ctx).kind, VerdictKind::Rejected);

    // P2 is feasible: both exact engines find a pairwise assignment, and it
    // matches Figure 2(b) (up to the symmetric reverse cycle).
    let reference = ReferenceBounds::new(&jobs);
    let by_reference = |assignment: &PairwiseAssignment| -> Vec<Time> {
        jobs.job_ids()
            .map(|i| reference.delay_bound(bound, i, &assignment.interference_sets(&jobs, i)))
            .collect()
    };
    let search = OptPairwise::new(bound).solve(&ctx);
    let assignment = search
        .witness
        .as_ref()
        .and_then(Witness::as_pairwise)
        .expect("feasible per Observation V.1");
    let delays = by_reference(assignment);
    assert!(jobs
        .job_ids()
        .all(|i| delays[i.index()] <= jobs.job(i).deadline()));
    assert!(PairwiseIlp::new(bound).solve(&ctx).is_accepted());

    // The Figure 2(b) assignment itself yields the delays computed in the
    // analysis crate's tests, on both implementations: 34, 55, 51, 22.
    let mut fig2b = PairwiseAssignment::new();
    fig2b.set_higher(jid(2), jid(0));
    fig2b.set_higher(jid(0), jid(1));
    fig2b.set_higher(jid(1), jid(3));
    fig2b.set_higher(jid(3), jid(2));
    let expected = vec![Time::new(34), Time::new(55), Time::new(51), Time::new(22)];
    assert_eq!(fig2b.delays(analysis, bound), expected);
    assert_eq!(by_reference(&fig2b), expected);
}

#[test]
fn observation_v1_admission_controller_salvages_most_jobs() {
    // Running OPDCA as an admission controller on the Observation V.1 set
    // schedules three of the four jobs.
    let jobs = observation_v1();
    let outcome = Opdca::new(DelayBoundKind::RefinedPreemptive)
        .admission_control(&SolveCtx::new(&jobs))
        .expect("OPDCA supports admission");
    assert_eq!(outcome.rejected.len(), 1);
    assert_eq!(outcome.accepted.len(), 3);
}

#[test]
fn figure1_job_additive_terms_depend_on_segment_structure() {
    // Figure 1: J_b's interference on J_i grows from zero (no shared
    // resource) to one term (single-stage segment), two terms (two-stage
    // segment) and three terms (one single-stage plus one two-stage
    // segment).
    let build = |jb_resources: [usize; 4]| -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("s1", 2, PreemptionPolicy::Preemptive)
            .stage("s2", 2, PreemptionPolicy::Preemptive)
            .stage("s3", 2, PreemptionPolicy::Preemptive)
            .stage("s4", 2, PreemptionPolicy::Preemptive);
        // J_i uses resource 0 everywhere.
        b.job()
            .deadline(Time::new(1_000))
            .stage_time(Time::new(10), 0)
            .stage_time(Time::new(10), 0)
            .stage_time(Time::new(10), 0)
            .stage_time(Time::new(10), 0)
            .add()
            .unwrap();
        // J_b's mapping varies per scenario.
        b.job()
            .deadline(Time::new(1_000))
            .stage_time(Time::new(7), jb_resources[0])
            .stage_time(Time::new(7), jb_resources[1])
            .stage_time(Time::new(7), jb_resources[2])
            .stage_time(Time::new(7), jb_resources[3])
            .add()
            .unwrap();
        b.build().unwrap()
    };
    let interference = |jobs: &JobSet| -> u64 {
        let reference = ReferenceBounds::new(jobs);
        let alone = InterferenceSets::default();
        let with_b = InterferenceSets::new([jid(1)], []);
        let kind = DelayBoundKind::RefinedPreemptive;
        let by_reference = reference.refined_preemptive_bound(jid(0), &with_b)
            - reference.refined_preemptive_bound(jid(0), &alone);
        let by_evaluator =
            shipped(jobs, kind, jid(0), &with_b) - shipped(jobs, kind, jid(0), &alone);
        assert_eq!(by_evaluator, by_reference);
        by_reference.as_ticks()
    };
    // (a) no shared stage: no interference.
    assert_eq!(interference(&build([1, 1, 1, 1])), 0);
    // (b) one single-stage segment: one job-additive term (7) — the shared
    // stage's stage-additive maximum stays at 10.
    assert_eq!(interference(&build([1, 0, 1, 1])), 7);
    // (c) one two-stage segment: two job-additive terms.
    assert_eq!(interference(&build([1, 0, 0, 1])), 14);
    // (e) a single-stage and a two-stage segment: three terms.
    assert_eq!(interference(&build([0, 1, 0, 0])), 21);
}

#[test]
fn sdca_constructors_match_the_paper_defaults() {
    // The `S_DCA` tests of the paper: preemptive (Eq. 6), non-preemptive
    // (Eq. 5) and edge (Eq. 10), all usable inside OPDCA.
    for (kind, equation) in [
        (DelayBoundKind::RefinedPreemptive, 6),
        (DelayBoundKind::NonPreemptiveOpa, 5),
        (DelayBoundKind::EdgeHybrid, 10),
    ] {
        assert!(kind.is_opa_compatible());
        assert_eq!(kind.equation(), equation);
        assert_eq!(Opdca::new(kind).bound(), kind);
    }
    assert_eq!(Opdca::default().bound(), DelayBoundKind::RefinedPreemptive);
}
