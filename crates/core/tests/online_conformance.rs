//! Conformance suite for the stateful online solver seam: every warm
//! verdict must be **byte-identical** to the cold
//! `SolverRegistry::evaluate` on the same job set once the wall-clock
//! provenance fields (`elapsed_micros`, `cold_fallback`) are zeroed —
//! witnesses, delays and the `sdca_calls` / `nodes_explored` work
//! counters included.
//!
//! The suite drives random admit/withdraw histories through
//! `evaluate_online` over an incrementally maintained `Analysis`
//! (push, pop and general swap-removal) while a mirror rebuilds everything
//! from scratch each step, so it covers the Audsley fast-forward, its
//! divergence and rejection paths, the cold decide after a swap-removal,
//! and the cold adapter in one sweep. The OPDCA histories also pin the
//! recorded Audsley walk: the state a warm decide leaves behind must
//! equal the one a decide on a blank state records, because the next
//! arrival charges its per-level probes to `sdca_calls`.

use msmr_dca::{Analysis, DelayBoundKind, PairTables};
use msmr_model::{Job, JobBuilder, JobId, JobSet, Pipeline, PreemptionPolicy, Time};
use msmr_sched::{Budget, DeciderState, OnlineSuiteState, SolveCtx, SolverRegistry, Verdict};
use proptest::prelude::*;

/// Zeroes the execution-provenance fields every verification path of the
/// workspace ignores when byte-comparing verdicts.
fn normalized(verdict: &Verdict) -> Verdict {
    let mut verdict = verdict.clone();
    verdict.stats.elapsed_micros = 0;
    verdict.stats.cold_fallback = None;
    verdict
}

fn normalized_all(verdicts: &[Verdict]) -> Vec<Verdict> {
    verdicts.iter().map(normalized).collect()
}

/// A deterministic xorshift so the mixed histories are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        self.0 = self.0.wrapping_add(1);
        x
    }
}

/// A pool of job templates with mixed deadlines so histories contain both
/// admissions and rejections.
fn template(pipeline: &Pipeline, rng: &mut Rng) -> Job {
    let stages = pipeline.stage_count();
    let mut builder = Job::builder()
        .arrival(Time::new(rng.next() % 40))
        .deadline(Time::new(20 + rng.next() % 160));
    for j in 0..stages {
        let resources = pipeline
            .stage(msmr_model::StageId::new(j))
            .expect("stage exists")
            .resource_count();
        builder = builder.stage_time(
            Time::new(1 + rng.next() % 12),
            (rng.next() % resources as u64) as usize,
        );
    }
    builder.build(JobId::new(0)).unwrap()
}

fn pipeline(stages: usize, resources: usize) -> Pipeline {
    Pipeline::uniform(&vec![resources; stages], PreemptionPolicy::Preemptive).unwrap()
}

fn builder(job: &Job) -> JobBuilder {
    let mut builder = Job::builder()
        .arrival(job.arrival())
        .deadline(job.deadline());
    for j in 0..job.stage_count() {
        let stage = msmr_model::StageId::new(j);
        builder = builder.stage_time(job.processing(stage), job.resource(stage).index());
    }
    builder
}

fn with_job(jobs: &JobSet, job: &Job) -> JobSet {
    jobs.with_job(builder(job)).unwrap().0
}

/// Drives one random admit/withdraw history through the warm online seam
/// (incremental tables + suite state) and checks, at every step, that the
/// streamed verdicts equal a cold `evaluate` of the same set.
fn run_history(seed: u64, bound: DelayBoundKind, ops: usize) {
    let registry = SolverRegistry::paper_suite(bound);
    let budget = Budget::default().with_node_limit(200_000);
    let mut rng = Rng(seed);
    let pipe = pipeline(2 + (seed as usize % 2), 1 + (seed as usize % 2));

    let mut analysis = Analysis::owned(JobSet::new(pipe.clone(), Vec::new()).unwrap());
    let mut state = OnlineSuiteState::new();

    for step in 0..ops {
        let withdraw = analysis.jobs().len() > 1 && rng.next().is_multiple_of(3);
        let event = if withdraw {
            let victim = JobId::new((rng.next() % analysis.jobs().len() as u64) as usize);
            analysis.swap_remove(victim);
            "withdraw"
        } else {
            let job = template(&pipe, &mut rng);
            analysis.push(builder(&job)).unwrap();
            // Exercise the cache-update path now and then.
            if step % 4 == 1 {
                let _ = analysis.tables().opa_like_touch();
            }
            "admit"
        };

        let ctx = SolveCtx::over(&analysis, budget);
        let mut streamed = Vec::new();
        let warm = registry.evaluate_online(&mut state, &ctx, |v| streamed.push(v.clone()));

        assert_eq!(normalized_all(&warm), normalized_all(&streamed));
        let candidate = analysis.jobs();
        let cold = registry.evaluate(candidate, budget);
        assert_eq!(
            normalized_all(&warm),
            normalized_all(&cold),
            "seed {seed}, step {step}, {} jobs, {event}",
            candidate.len()
        );
    }
}

/// `PairTables` has no public Eq.5 hook; evaluating the OPA bound builds
/// the lazy cache, which is what we want to exercise across
/// extend/remove.
trait OpaTouch {
    fn opa_like_touch(&self) -> usize;
}

impl OpaTouch for PairTables {
    fn opa_like_touch(&self) -> usize {
        msmr_dca::DelayEvaluator::new(self, DelayBoundKind::NonPreemptiveOpa)
            .delays()
            .len()
    }
}

#[test]
fn mixed_histories_match_cold_evaluate_edge_hybrid() {
    for seed in 0..6 {
        run_history(seed, DelayBoundKind::EdgeHybrid, 14);
    }
}

#[test]
fn mixed_histories_match_cold_evaluate_refined_preemptive() {
    for seed in 6..10 {
        run_history(seed, DelayBoundKind::RefinedPreemptive, 14);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized sweep over seeds and history lengths.
    #[test]
    fn warm_histories_are_cold_identical(seed in 0u64..10_000, ops in 4usize..12) {
        run_history(seed, DelayBoundKind::EdgeHybrid, ops);
    }
}

/// The decider-only path: warm single-solver decisions match a cold
/// solve of the same solver, and bypassed solvers are invalidated (their
/// next full evaluation still matches cold).
#[test]
fn decider_only_path_invalidates_bystanders() {
    let bound = DelayBoundKind::EdgeHybrid;
    let registry = SolverRegistry::paper_suite(bound);
    let budget = Budget::default().with_node_limit(200_000);
    let mut rng = Rng(42);
    let pipe = pipeline(3, 2);

    let mut analysis = Analysis::owned(JobSet::new(pipe.clone(), Vec::new()).unwrap());
    let mut state = OnlineSuiteState::new();

    for step in 0..10 {
        let job = template(&pipe, &mut rng);
        analysis.push(builder(&job)).unwrap();
        let candidate = analysis.jobs();
        let ctx = SolveCtx::over(&analysis, budget);
        if step % 2 == 0 {
            // Decider-only admit.
            let warm = registry.decide_online("OPDCA", &mut state, &ctx).unwrap();
            let cold = registry
                .solver("OPDCA")
                .unwrap()
                .solve(&SolveCtx::with_budget(candidate, budget));
            assert_eq!(normalized(&warm), normalized(&cold), "step {step}");
            // Only the decider keeps state.
            assert!(state.states.keys().eq(["OPDCA"]));
        } else {
            // Full-suite admit right after a decider-only one: bystander
            // solvers decide cold (their states were invalidated) and the
            // whole stream still matches offline evaluate.
            let warm = registry.evaluate_online(&mut state, &ctx, |_| {});
            let cold = registry.evaluate(candidate, budget);
            assert_eq!(normalized_all(&warm), normalized_all(&cold), "step {step}");
        }
    }
}

/// Unknown decider names are `None`, and the cold adapter marks verdicts.
#[test]
fn adapter_marks_cold_fallback() {
    let bound = DelayBoundKind::EdgeHybrid;
    let registry = SolverRegistry::paper_suite(bound);
    let mut rng = Rng(7);
    let pipe = pipeline(2, 1);
    let jobs = with_job(&JobSet::new(pipe.clone(), Vec::new()).unwrap(), &{
        let mut j = template(&pipe, &mut rng);
        // Make it trivially schedulable alone.
        j = Job::builder()
            .arrival(j.arrival())
            .deadline(Time::new(10_000))
            .stage_time(Time::new(1), 0)
            .stage_time(Time::new(1), 0)
            .build(JobId::new(0))
            .unwrap();
        j
    });
    let mut state = OnlineSuiteState::new();
    let ctx = SolveCtx::new(&jobs);
    assert!(registry.decide_online("NOPE", &mut state, &ctx).is_none());

    // DM, DMR and DCMP have no online seam: the adapter runs and flags
    // the verdict.
    for name in ["DCMP", "DM", "DMR"] {
        let verdict = registry.decide_online(name, &mut state, &ctx).unwrap();
        assert_eq!(verdict.stats.cold_fallback, Some(true), "{name}");
        assert!(state.is_empty(), "the adapter keeps no state ({name})");
    }

    // OPDCA's warm path never sets the flag.
    let verdict = registry.decide_online("OPDCA", &mut state, &ctx).unwrap();
    assert!(verdict.stats.cold_fallback.is_none());
    assert!(matches!(
        state.states.get("OPDCA"),
        Some(DeciderState::Audsley(_))
    ));
}

/// A malformed (hand-edited) state must not poison the decision: the
/// solver falls back to a cold decide and the verdict still matches.
#[test]
fn malformed_states_degrade_to_cold() {
    let bound = DelayBoundKind::EdgeHybrid;
    let registry = SolverRegistry::paper_suite(bound);
    let budget = Budget::default().with_node_limit(200_000);
    let mut rng = Rng(11);
    let pipe = pipeline(3, 2);
    let mut jobs = JobSet::new(pipe.clone(), Vec::new()).unwrap();
    for _ in 0..4 {
        jobs = with_job(&jobs, &template(&pipe, &mut rng));
    }
    let candidate = with_job(&jobs, &template(&pipe, &mut rng));

    let mut state = OnlineSuiteState::new();
    *state.state_mut("OPDCA") = DeciderState::Audsley(msmr_sched::AudsleyState {
        winners: vec![JobId::new(0), JobId::new(0)],
        probes: vec![1, 1],
        rejected: false,
        ..Default::default()
    });
    let ctx = SolveCtx::with_budget(&candidate, budget);
    let warm = registry.evaluate_online(&mut state, &ctx, |_| {});
    let cold = registry.evaluate(&candidate, budget);
    assert_eq!(normalized_all(&warm), normalized_all(&cold));
}

/// Where a warm admit's re-decision started, for coverage accounting.
#[derive(Debug, Default)]
struct WarmCoverage {
    /// The arrival displaced the lowest level's winner.
    first: usize,
    /// ... a winner strictly between the lowest and the highest level.
    middle: usize,
    /// ... only at the highest old level or above it.
    last: usize,
    /// Warm admits whose previous trace was a rejection.
    on_rejected: usize,
    /// Admits from a blank state (what a snapshot restore gives).
    without_cache: usize,
    /// Admits on a cache computed from another job set of the same size.
    stale: usize,
}

fn audsley(state: &OnlineSuiteState) -> &msmr_sched::AudsleyState {
    match state.states.get("OPDCA") {
        Some(DeciderState::Audsley(trace)) => trace,
        other => panic!("OPDCA keeps an Audsley state, found {other:?}"),
    }
}

/// One warm OPDCA decide over `analysis`, extended or reduced in place,
/// checked against a cold `Solver::solve` of the same set — verdict
/// bytes, recorded walk and bound cache.
fn decide_and_check(
    registry: &SolverRegistry,
    state: &mut OnlineSuiteState,
    analysis: &Analysis<'_>,
    what: &str,
) -> Verdict {
    let budget = Budget::default().with_node_limit(200_000);
    let ctx = SolveCtx::over(analysis, budget);
    let warm = registry
        .decide_online("OPDCA", state, &ctx)
        .expect("OPDCA is registered");
    let jobs = analysis.jobs();
    let cold = registry
        .solver("OPDCA")
        .unwrap()
        .solve(&SolveCtx::with_budget(jobs, budget));
    assert_eq!(normalized(&warm), normalized(&cold), "{what}");
    // The walk the next arrival fast-forwards (and charges to
    // `sdca_calls`) is the one a decide from a blank state records.
    let mut blank = OnlineSuiteState::new();
    let _ = registry.decide_online("OPDCA", &mut blank, &SolveCtx::with_budget(jobs, budget));
    assert_eq!(audsley(state), audsley(&blank), "{what}: recorded walk");
    assert_cache_is_exact(audsley(state), analysis.tables(), what);
    warm
}

/// The recorded cache holds every job's bounds at its own decision
/// level — winners with the levels below them lower and everything else
/// higher, the jobs left at a failing level with every winner lower —
/// exactly as a freshly seeded evaluator computes them.
fn assert_cache_is_exact(trace: &msmr_sched::AudsleyState, tables: &PairTables, what: &str) {
    let cache = trace.cache.as_ref().expect("a decide records its cache");
    let cached = msmr_dca::DelayEvaluator::with_state(tables, (**cache).clone());
    let mut fresh = msmr_dca::DelayEvaluator::new(tables, cache.kind());
    let mut lower = msmr_dca::JobMask::new();
    let mut check = |job: JobId, lower: &msmr_dca::JobMask| {
        fresh.seed_target(job, lower);
        assert_eq!(cached.delay(job), fresh.delay(job), "{what}: job {job}");
        assert_eq!(cached.higher(job), fresh.higher(job), "{what}: job {job}");
        assert_eq!(cached.lower(job), fresh.lower(job), "{what}: job {job}");
    };
    for &winner in &trace.winners {
        check(winner, &lower);
        lower.insert(winner);
    }
    for job in (0..tables.job_count()).map(JobId::new) {
        if !lower.contains(job) {
            check(job, &lower);
        }
    }
}

/// Drives a seeded admit/withdraw/reject history at 40–70 jobs of a heavy
/// edge workload (γ = 0.9, β = 0.2) through the decider-only OPDCA path
/// and checks every warm verdict against a cold solve. Admits mostly roll
/// a rejection back as a session does, but some keep the rejected arrival
/// (so the next admit fast-forwards a rejected trace); some admits run on
/// a state whose cache was dropped by a JSON round trip, and some on a
/// state recorded over a different job set of the same size.
fn run_heavy_history(seed: u64, ops: usize, coverage: &mut WarmCoverage) {
    use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};
    let generator = EdgeWorkloadGenerator::new(
        EdgeWorkloadConfig::scaled(70)
            .with_gamma(0.9)
            .with_beta(0.2),
    )
    .unwrap();
    let pool = generator.generate_seeded(seed);
    let other_pool = generator.generate_seeded(seed + 1_000);
    let registry = SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid);
    let mut rng = Rng(seed);
    let pick = |pool: &JobSet, rng: &mut Rng| -> Job {
        pool.job(JobId::new((rng.next() % pool.len() as u64) as usize))
            .clone()
    };

    let (mut jobs, _) = pool.restrict_to(&[]).unwrap();
    for i in 0..40 {
        jobs = with_job(&jobs, pool.job(JobId::new(i)));
    }
    let mut analysis = Analysis::owned(jobs);
    let mut state = OnlineSuiteState::new();
    decide_and_check(&registry, &mut state, &analysis, "initial cold decide");

    for step in 0..ops {
        let len = analysis.jobs().len();
        let what = format!("seed {seed}, step {step}, {len} jobs");
        let roll = rng.next();
        if len >= 70 || (len > 40 && roll.is_multiple_of(4)) {
            let victim = JobId::new((rng.next() % len as u64) as usize);
            analysis.swap_remove(victim);
            decide_and_check(&registry, &mut state, &analysis, &what);
            continue;
        }

        match step % 9 {
            // A blank state, which is what a snapshot restore gives.
            4 => {
                state = OnlineSuiteState::new();
                coverage.without_cache += 1;
            }
            // A state recorded over a different set of the same size.
            7 => {
                let (mut other, _) = other_pool.restrict_to(&[]).unwrap();
                for _ in 0..len {
                    other = with_job(&other, &pick(&other_pool, &mut rng));
                }
                let mut other_state = OnlineSuiteState::new();
                let _ = decide_and_check(
                    &registry,
                    &mut other_state,
                    &Analysis::new(&other),
                    "stale source",
                );
                state = other_state;
                coverage.stale += 1;
            }
            _ => {}
        }

        // The trace the arrival may fast-forward (none on a blank state).
        let previous = match state.states.get("OPDCA") {
            Some(DeciderState::Audsley(trace)) => trace.clone(),
            _ => msmr_sched::AudsleyState::default(),
        };
        analysis.push(builder(&pick(&pool, &mut rng))).unwrap();
        let saved = state.clone();
        let verdict = decide_and_check(&registry, &mut state, &analysis, &what);

        let warm = previous
            .cache
            .as_ref()
            .is_some_and(|cache| Some(cache.generation()) == analysis.tables().parent_generation());
        assert!(
            !warm || !matches!(step % 9, 4 | 7),
            "{what}: no usable cache"
        );
        if warm {
            let now = audsley(&state);
            let level = previous
                .winners
                .iter()
                .zip(&now.winners)
                .take_while(|(a, b)| a == b)
                .count();
            if level == 0 {
                coverage.first += 1;
            } else if level + 1 < previous.winners.len() {
                coverage.middle += 1;
            } else {
                coverage.last += 1;
            }
            coverage.on_rejected += usize::from(previous.rejected);
        }

        // Keep a rejected arrival now and then instead of rolling back.
        if !verdict.is_accepted() && roll % 5 != 1 {
            analysis.pop();
            state = saved;
        }
    }
}

#[test]
fn heavy_warm_histories_match_cold_solve() {
    let mut coverage = WarmCoverage::default();
    for seed in 0..3 {
        run_heavy_history(seed, 60, &mut coverage);
    }
    eprintln!("{coverage:?}");
    assert!(coverage.first > 0, "{coverage:?}");
    assert!(coverage.middle > 0, "{coverage:?}");
    assert!(coverage.last > 0, "{coverage:?}");
    assert!(coverage.on_rejected > 0, "{coverage:?}");
    assert!(coverage.without_cache > 0 && coverage.stale > 0);
}
