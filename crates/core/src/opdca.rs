//! OPDCA — Algorithm 1: optimal priority assignment driven by `S_DCA`.

use msmr_dca::{Analysis, DelayBoundKind, DelayEvaluator, EvaluatorState, JobMask};
use msmr_model::{JobId, Time};

use crate::online::AudsleyState;
use crate::{InfeasibleError, PriorityOrdering};

/// OPDCA (Algorithm 1 of the paper): Audsley's optimal priority assignment
/// using the OPA-compatible schedulability test `S_DCA` — a
/// [`DelayEvaluator::fits`] read under its [`DelayBoundKind`].
///
/// Priorities are assigned from the lowest (`ρ = n`) to the highest
/// (`ρ = 1`); at each level any job that passes `S_DCA` with all remaining
/// unassigned jobs assumed higher priority receives the level. The
/// algorithm is optimal with respect to `S_DCA` (Observation IV.3): if any
/// fixed-priority ordering passes the test, OPDCA finds one, using at most
/// `O(n²)` test invocations.
///
/// Its [`Solver::admission_control`](crate::Solver::admission_control)
/// variant implements the Fig. 4d behaviour: instead of declaring the whole
/// set infeasible it discards the job with the largest deadline overshoot
/// and keeps assigning priorities to the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opdca {
    bound: DelayBoundKind,
}

impl Opdca {
    /// Creates the algorithm for the given delay bound.
    ///
    /// # Panics
    ///
    /// Panics if the bound is not OPA-compatible (Observation IV.2): using
    /// Eq. 2 or Eq. 4 inside Audsley's algorithm would be unsound. Use the
    /// pairwise algorithms for those bounds instead.
    #[must_use]
    pub fn new(bound: DelayBoundKind) -> Self {
        assert!(
            bound.is_opa_compatible(),
            "OPDCA requires an OPA-compatible schedulability test ({bound} is not)"
        );
        Opdca { bound }
    }

    /// The delay bound behind the `S_DCA` test.
    #[must_use]
    pub const fn bound(&self) -> DelayBoundKind {
        self.bound
    }

    /// The Audsley loop with trace recording and optional warm resumption
    /// — the engine behind both the cold [`Solver::solve`](crate::Solver)
    /// (with [`AudsleyResume::Cold`]) and the
    /// [`OnlineSolver`](crate::OnlineSolver) impl (warm).
    ///
    /// Probes are answered by an incremental [`DelayEvaluator`]: each
    /// `S_DCA` invocation is an `O(1)` read, and assigning one priority
    /// level demotes the winner for every remaining candidate in `O(n·N)`.
    /// A cold run seeds every job with all others at higher priority
    /// (`O(n²·N)`).
    ///
    /// An arrival resumes the previous decide's final evaluator state (its
    /// [`AudsleyState::cache`]), which holds every job's bounds at its own
    /// decision level. The fast-forward is sound *and counter-exact* by
    /// monotonicity: bounds only grow when the assumed-higher set grows,
    /// so every candidate the old trace probed **before** a level's winner
    /// still fails — those probes are charged to `sdca_calls` without
    /// being performed — and the winner's new bound is its cached one plus
    /// the arrival at higher priority: one `add_higher` and one read,
    /// `O(N)`, touching no other job. The first level whose winner no
    /// longer passes is where the arrival perturbs the assignment; only
    /// the jobs still unassigned there are seeded, and the loop re-decides
    /// from exactly that point.
    ///
    /// A departure shrinks bounds instead, so a previously failed probe
    /// is *not* provably still failing and there is no probe to skip: a
    /// departure, like every change other than one arrival, runs
    /// [`AudsleyResume::Cold`].
    pub(crate) fn decide_traced<'t>(
        &self,
        analysis: &'t Analysis<'_>,
        resume: AudsleyResume<'_>,
    ) -> TracedOrdering<'t> {
        let jobs = analysis.jobs();
        let n = jobs.len();
        let mut assigned_lowest_first: Vec<JobId> = Vec::with_capacity(n);
        let mut probes: Vec<u64> = Vec::with_capacity(n + 1);
        let mut sdca_calls: u64 = 0;
        // Set when a fast-forward diverges mid-level: the cold loop
        // resumes probing at this `unassigned` index with this many probes
        // already charged to the level.
        let mut resume_probe: Option<(usize, u64)> = None;

        fn assign(
            evaluator: &mut DelayEvaluator<'_>,
            unassigned: &mut Vec<JobId>,
            idx: usize,
        ) -> JobId {
            let job = unassigned.remove(idx);
            // `job` takes the current lowest priority level: it moves from
            // "assumed higher" to "assigned lower" for every job still
            // awaiting a level.
            for &target in unassigned.iter() {
                evaluator.demote(target, job);
            }
            job
        }

        let mut evaluator;
        let mut unassigned: Vec<JobId>;
        match resume {
            AudsleyResume::Admit { previous, cache } => {
                evaluator = DelayEvaluator::with_state(analysis.tables(), cache);
                let arrival = JobId::new(n - 1);
                let mut lower = JobMask::with_capacity(n);
                let mut diverged = None;
                for (&winner, &charged) in previous.winners.iter().zip(&previous.probes) {
                    sdca_calls += charged;
                    evaluator.add_higher(winner, arrival);
                    if !evaluator.fits(winner) {
                        diverged = Some((winner, charged));
                        break;
                    }
                    lower.insert(winner);
                    assigned_lowest_first.push(winner);
                    probes.push(charged);
                }
                unassigned = jobs.job_ids().filter(|&job| !lower.contains(job)).collect();
                if let Some((winner, charged)) = diverged {
                    // The arrival pushed the old winner over its deadline.
                    // Every job still unassigned now awaits this level, not
                    // its cached one; candidates before the winner provably
                    // still fail, so the cold loop resumes right after it.
                    for &job in &unassigned {
                        evaluator.seed_target(job, &lower);
                    }
                    let idx = unassigned
                        .binary_search(&winner)
                        .expect("the diverging winner is unassigned");
                    resume_probe = Some((idx + 1, charged));
                } else {
                    evaluator.seed_target(arrival, &lower);
                    if previous.rejected {
                        // The previously failing level: the old candidates
                        // hold their bounds at it, and every one of them
                        // still fails once the arrival joins their higher
                        // sets; only the arrival itself — last in id
                        // order — is new.
                        for &job in &unassigned[..unassigned.len() - 1] {
                            evaluator.add_higher(job, arrival);
                        }
                        let charged = previous.probes[previous.winners.len()];
                        sdca_calls += charged;
                        resume_probe = Some((unassigned.len() - 1, charged));
                    }
                }
            }
            AudsleyResume::Cold => {
                evaluator = analysis.evaluator(self.bound);
                evaluator.seed_all_higher();
                unassigned = jobs.job_ids().collect();
            }
        }

        // The cold Audsley loop over whatever is still undecided.
        'levels: while !unassigned.is_empty() {
            let (mut idx, mut level_probes) = resume_probe.take().unwrap_or((0, 0));
            while idx < unassigned.len() {
                let candidate = unassigned[idx];
                sdca_calls += 1;
                level_probes += 1;
                if evaluator.fits(candidate) {
                    assign(&mut evaluator, &mut unassigned, idx);
                    assigned_lowest_first.push(candidate);
                    probes.push(level_probes);
                    continue 'levels;
                }
                idx += 1;
            }
            // No candidate can take the current lowest level.
            probes.push(level_probes);
            return TracedOrdering {
                result: Err(InfeasibleError::new("OPDCA", unassigned)),
                trace: AudsleyState {
                    winners: assigned_lowest_first,
                    probes,
                    rejected: true,
                    cache: None,
                },
                evaluator,
            };
        }

        let order: Vec<JobId> = assigned_lowest_first.iter().rev().copied().collect();
        let ordering = PriorityOrdering::new(order);
        // When a job received its level, its own sets were exactly its
        // final interference sets (remaining jobs higher, earlier levels
        // lower) and were never touched again — so the evaluator already
        // holds every job's delay under the computed ordering.
        let delays = evaluator.delays();
        TracedOrdering {
            result: Ok(OrderingResult {
                ordering,
                delays,
                sdca_calls,
            }),
            trace: AudsleyState {
                winners: assigned_lowest_first,
                probes,
                rejected: false,
                cache: None,
            },
            evaluator,
        }
    }

    /// Runs OPDCA as an admission controller (§VI-B): whenever no job fits
    /// the current priority level, the job with the largest deadline
    /// overshoot `Δ_i − D_i` is rejected and the assignment continues with
    /// the remaining jobs.
    pub(crate) fn admission_control_with_analysis(
        &self,
        analysis: &Analysis<'_>,
    ) -> OrderingAdmissionOutcome {
        let jobs = analysis.jobs();
        let mut evaluator = analysis.evaluator(self.bound);
        evaluator.seed_all_higher();
        let mut unassigned: Vec<JobId> = jobs.job_ids().collect();
        let mut assigned_lowest_first: Vec<JobId> = Vec::with_capacity(jobs.len());
        let mut rejected: Vec<JobId> = Vec::new();

        while !unassigned.is_empty() {
            let mut chosen: Option<usize> = None;
            let mut worst: Option<(usize, i128)> = None;
            for (idx, &candidate) in unassigned.iter().enumerate() {
                let slack = evaluator.slack(candidate);
                if slack >= 0 {
                    chosen = Some(idx);
                    break;
                }
                let overshoot = -slack;
                if worst.is_none_or(|(_, w)| overshoot > w) {
                    worst = Some((idx, overshoot));
                }
            }
            match chosen {
                Some(idx) => {
                    let job = unassigned.remove(idx);
                    for &target in &unassigned {
                        evaluator.demote(target, job);
                    }
                    assigned_lowest_first.push(job);
                }
                None => {
                    let (idx, _) = worst.expect("at least one unassigned job exists");
                    let job = unassigned.remove(idx);
                    // A rejected job interferes with nobody: it leaves the
                    // "assumed higher" sets and never enters a lower set.
                    for &target in &unassigned {
                        evaluator.remove_higher(target, job);
                    }
                    rejected.push(job);
                }
            }
        }

        let mut accepted: Vec<JobId> = assigned_lowest_first.clone();
        accepted.sort_unstable();
        let ordering = PriorityOrdering::new(assigned_lowest_first.into_iter().rev().collect());
        OrderingAdmissionOutcome {
            ordering,
            accepted,
            rejected,
        }
    }
}

impl Default for Opdca {
    fn default() -> Self {
        Opdca::new(DelayBoundKind::RefinedPreemptive)
    }
}

/// How [`Opdca::decide_traced`] resumes from a previous Audsley trace.
pub(crate) enum AudsleyResume<'a> {
    /// No usable history: run the loop cold.
    Cold,
    /// The job set extends the trace's set by one job at the highest id,
    /// and `cache` is the final evaluator state of the decide that
    /// recorded `previous`, over the tables before the arrival.
    Admit {
        previous: &'a AudsleyState,
        cache: EvaluatorState,
    },
}

/// An Audsley decision together with the trace that produced it.
pub(crate) struct TracedOrdering<'t> {
    /// The decision.
    pub(crate) result: Result<OrderingResult, InfeasibleError>,
    /// The recorded walk, for the next warm decide (without its cache).
    pub(crate) trace: AudsleyState,
    /// The final evaluator: every job at its own decision level (the
    /// still-unassigned ones at the failing level of a rejection).
    pub(crate) evaluator: DelayEvaluator<'t>,
}

/// A feasible ordering found by the Audsley loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OrderingResult {
    /// The computed priority ordering (highest priority first).
    pub(crate) ordering: PriorityOrdering,
    /// Delay bounds of all jobs under the ordering, indexed by job id.
    pub(crate) delays: Vec<Time>,
    /// Number of `S_DCA` invocations (at most `n(n+1)/2 ≤ O(n²)`).
    pub(crate) sdca_calls: u64,
}

/// Output of [`Opdca::admission_control_with_analysis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OrderingAdmissionOutcome {
    /// Priority ordering over the accepted jobs (highest priority first).
    pub(crate) ordering: PriorityOrdering,
    /// Accepted jobs in id order.
    pub(crate) accepted: Vec<JobId>,
    /// Rejected jobs in rejection order.
    pub(crate) rejected: Vec<JobId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
    use msmr_model::{JobSet, JobSetBuilder, PreemptionPolicy};

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    /// The cold Audsley loop on `jobs`.
    fn assign(jobs: &JobSet) -> Result<OrderingResult, InfeasibleError> {
        Opdca::default()
            .decide_traced(&Analysis::new(jobs), AudsleyResume::Cold)
            .result
    }

    /// The Observation V.1 system, for which no total ordering exists.
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

    /// A two-job single-CPU system where only one ordering is feasible.
    fn forced_order() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive).stage(
            "net",
            1,
            PreemptionPolicy::Preemptive,
        );
        // J0: tight deadline, must be the higher-priority job.
        b.job()
            .deadline(Time::new(12))
            .stage_time(Time::new(4), 0)
            .stage_time(Time::new(5), 0)
            .add()
            .unwrap();
        // J1: loose deadline.
        b.job()
            .deadline(Time::new(40))
            .stage_time(Time::new(6), 0)
            .stage_time(Time::new(7), 0)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn finds_the_only_feasible_ordering() {
        let jobs = forced_order();
        let result = assign(&jobs).unwrap();
        assert_eq!(result.ordering.as_slice(), &[jid(0), jid(1)]);
        // At most n(n+1)/2 test calls for n=2.
        assert!(result.sdca_calls <= 3);
        // Delays are consistent with the ordering and within deadlines.
        for i in 0..2 {
            assert!(result.delays[i] <= jobs.job(jid(i)).deadline());
        }
        assert_eq!(result.delays.len(), 2);
        assert!(result.ordering.covers(&jobs));
    }

    #[test]
    fn observation_v1_has_no_total_ordering() {
        let jobs = observation_v1();
        let err = assign(&jobs).unwrap_err();
        assert_eq!(err.algorithm, "OPDCA");
        // The failure happens at the very first (lowest) level, so every
        // job is reported unschedulable.
        assert_eq!(err.unschedulable.len(), 4);
    }

    #[test]
    fn admission_control_rejects_and_schedules_the_rest() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let outcome = Opdca::default().admission_control_with_analysis(&analysis);
        assert!(!outcome.rejected.is_empty());
        assert_eq!(outcome.accepted.len() + outcome.rejected.len(), 4);
        // All accepted jobs are feasible under the produced ordering.
        let reference = ReferenceBounds::new(&jobs);
        for &job in &outcome.accepted {
            let ctx = InterferenceSets::from_total_order(outcome.ordering.as_slice(), job);
            assert!(reference.meets_deadline(DelayBoundKind::RefinedPreemptive, job, &ctx));
        }
        // Rejected jobs are not part of the ordering.
        for &job in &outcome.rejected {
            assert!(outcome.ordering.priority_of(job).is_none());
        }
    }

    #[test]
    fn admission_control_accepts_everything_when_feasible() {
        let jobs = forced_order();
        let outcome = Opdca::default().admission_control_with_analysis(&Analysis::new(&jobs));
        assert!(outcome.rejected.is_empty());
        assert_eq!(outcome.accepted.len(), 2);
    }

    #[test]
    fn optimality_against_brute_force_on_small_systems() {
        // For every ordering-feasible system found by brute force, OPDCA
        // must also find an ordering; and when OPDCA fails, brute force
        // must fail too.
        use msmr_workload::{RandomMsmrConfig, RandomMsmrGenerator};
        let generator = RandomMsmrGenerator::new(RandomMsmrConfig {
            jobs: (3, 5),
            stages: (2, 3),
            resources_per_stage: (1, 2),
            deadline_factor: (1.2, 3.0),
            ..RandomMsmrConfig::default()
        })
        .unwrap();
        for seed in 0..40 {
            let jobs = generator.generate_seeded(seed);
            let analysis = Analysis::new(&jobs);
            let brute = brute_force_ordering_exists(
                &ReferenceBounds::new(&jobs),
                DelayBoundKind::RefinedPreemptive,
            );
            let opdca = Opdca::default()
                .decide_traced(&analysis, AudsleyResume::Cold)
                .result;
            assert_eq!(
                brute,
                opdca.is_ok(),
                "seed {seed}: OPDCA disagrees with brute force"
            );
        }
    }

    /// Exhaustively checks whether any total priority ordering passes the
    /// test.
    fn brute_force_ordering_exists(reference: &ReferenceBounds<'_>, bound: DelayBoundKind) -> bool {
        fn permute(
            reference: &ReferenceBounds<'_>,
            bound: DelayBoundKind,
            remaining: &mut Vec<JobId>,
            prefix: &mut Vec<JobId>,
        ) -> bool {
            if remaining.is_empty() {
                return prefix.iter().all(|&i| {
                    let ctx = InterferenceSets::from_total_order(prefix, i);
                    reference.meets_deadline(bound, i, &ctx)
                });
            }
            for idx in 0..remaining.len() {
                let job = remaining.remove(idx);
                prefix.push(job);
                if permute(reference, bound, remaining, prefix) {
                    prefix.pop();
                    remaining.insert(idx, job);
                    return true;
                }
                prefix.pop();
                remaining.insert(idx, job);
            }
            false
        }
        let mut remaining: Vec<JobId> = reference.jobs().job_ids().collect();
        let mut prefix = Vec::new();
        permute(reference, bound, &mut remaining, &mut prefix)
    }

    #[test]
    #[should_panic(expected = "OPA-compatible")]
    fn incompatible_bound_is_rejected() {
        let _ = Opdca::new(DelayBoundKind::NonPreemptiveMsmr);
    }

    #[test]
    fn default_uses_refined_preemptive() {
        assert_eq!(Opdca::default().bound(), DelayBoundKind::RefinedPreemptive);
    }
}
