//! OPT — exact pairwise priority assignment via specialised
//! branch-and-bound.

use std::time::{Duration, Instant};

use msmr_dca::{Analysis, DelayBoundKind, DelayEvaluator};
use msmr_model::{JobId, JobSet, Time};

use crate::PairwiseAssignment;

/// How many search nodes are explored between wall-clock deadline checks;
/// a power of two so the check compiles to a mask test.
const DEADLINE_CHECK_INTERVAL: u64 = 4_096;

/// Result of an exact pairwise priority search (OPT and OPT-ILP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PairwiseSearchOutcome {
    /// A feasible pairwise assignment was found.
    Feasible(PairwiseAssignment),
    /// The search proved that no pairwise assignment satisfies every
    /// deadline under the selected bound.
    Infeasible,
    /// The node or time budget was exhausted before a conclusion was
    /// reached — never reported silently as infeasible.
    Unknown,
}

/// OPT — an exact solver for problem P2: assign a priority direction to
/// every competing job pair such that every job's delay bound stays within
/// its deadline.
///
/// The paper formulates this as an ILP (Eqs. 7–9) and solves it with
/// Gurobi. This engine instead branches directly on the orientation
/// variables `X_{i,k}`, pruning a branch as soon as the partial delay bound
/// of either job of the newly oriented pair exceeds its deadline. Because
/// every delay bound of `msmr-dca` is monotone in both `H_i` and `L_i`,
/// the partial bound is a valid lower bound and the search is exact: on
/// instances completed within the node budget the answer matches the ILP
/// optimum. (The verbatim ILP encoding is available as
/// [`PairwiseIlp`](crate::PairwiseIlp) and is cross-checked against this
/// engine in the test suite.) Run it through [`Solver`](crate::Solver);
/// the context's [`Budget`](crate::Budget) limits the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptPairwise {
    bound: DelayBoundKind,
}

impl OptPairwise {
    /// Creates the solver for the given delay bound.
    #[must_use]
    pub fn new(bound: DelayBoundKind) -> Self {
        OptPairwise { bound }
    }

    /// The delay bound used by the solver.
    #[must_use]
    pub const fn bound(&self) -> DelayBoundKind {
        self.bound
    }

    /// Searches for a feasible pairwise assignment within `node_limit`
    /// nodes and the optional wall-clock `time_limit`, reporting the
    /// outcome and how many nodes the search explored.
    ///
    /// The search keeps a *single* mutable state — an incremental
    /// [`DelayEvaluator`] plus the witness matrix itself — and undoes each
    /// pair decision on backtrack instead of cloning an assignment per
    /// node. For job populations of `n ≤ 64` a search node
    /// therefore performs zero heap allocations.
    pub(crate) fn search(
        &self,
        analysis: &Analysis<'_>,
        node_limit: u64,
        time_limit: Option<Duration>,
    ) -> (PairwiseSearchOutcome, u64) {
        let jobs = analysis.jobs();
        let evaluator = analysis.evaluator(self.bound);

        // Jobs with no interference at all must already be feasible on
        // their own, otherwise nothing can help them. The isolated bounds
        // double as the slack keys of the pair ordering below.
        let mut alone: Vec<Time> = Vec::with_capacity(jobs.len());
        for i in jobs.job_ids() {
            let delay = evaluator.delay(i);
            if delay > jobs.job(i).deadline() {
                return (PairwiseSearchOutcome::Infeasible, 0);
            }
            alone.push(delay);
        }

        // Undirected competing pairs, most critical first (smallest slack
        // of either endpoint when the rest of the system is ignored).
        let mut pairs: Vec<(JobId, JobId)> = Vec::new();
        for i in jobs.job_ids() {
            for k in analysis.tables().competitor_mask(i).iter() {
                if i < k {
                    pairs.push((i, k));
                }
            }
        }
        let slack =
            |job: JobId| -> i128 { jobs.job(job).deadline().signed_diff(alone[job.index()]) };
        pairs.sort_by_cached_key(|&(a, b)| slack(a).min(slack(b)));

        let mut search = PairSearch {
            evaluator,
            assignment: PairwiseAssignment::for_jobs(jobs.len()),
            jobs,
            pairs,
            node_limit,
            deadline: time_limit.map(|limit| Instant::now() + limit),
            nodes: 0,
            truncated: false,
            found: false,
        };
        search.explore(0);

        let outcome = if search.found {
            PairwiseSearchOutcome::Feasible(search.assignment)
        } else if search.truncated {
            PairwiseSearchOutcome::Unknown
        } else {
            PairwiseSearchOutcome::Infeasible
        };
        (outcome, search.nodes)
    }
}

/// Mutable state of one branch-and-bound run: one incremental evaluator
/// and the witness under construction, mutated on the way down and undone
/// on backtrack.
struct PairSearch<'a, 'j> {
    evaluator: DelayEvaluator<'a>,
    assignment: PairwiseAssignment,
    jobs: &'j JobSet,
    pairs: Vec<(JobId, JobId)>,
    node_limit: u64,
    deadline: Option<Instant>,
    nodes: u64,
    truncated: bool,
    /// Every pair is oriented and fits: `assignment` is the witness.
    found: bool,
}

impl PairSearch<'_, '_> {
    /// Depth-first exploration over the pair list. Returns `true` when the
    /// search should stop (solution found or budget exhausted).
    fn explore(&mut self, depth: usize) -> bool {
        if self.nodes >= self.node_limit {
            self.truncated = true;
            return true;
        }
        if let Some(deadline) = self.deadline {
            if self.nodes.is_multiple_of(DEADLINE_CHECK_INTERVAL) && Instant::now() >= deadline {
                self.truncated = true;
                return true;
            }
        }
        self.nodes += 1;

        if depth == self.pairs.len() {
            // Returning `true` unwinds without undoing a decision, so the
            // matrix is left holding the witness.
            self.found = true;
            return true;
        }

        let (a, b) = self.pairs[depth];
        // Deadline-monotonic direction first: it is the direction DM/DMR
        // would pick, which empirically succeeds most often.
        let prefer_a_first = self.jobs.job(a).deadline() <= self.jobs.job(b).deadline();
        let orientations = if prefer_a_first {
            [(a, b), (b, a)]
        } else {
            [(b, a), (a, b)]
        };

        for (winner, loser) in orientations {
            self.assignment.set(winner, loser);
            self.evaluator.add_higher(loser, winner);
            self.evaluator.add_lower(winner, loser);
            // Monotonicity: the partial bounds of the two affected jobs are
            // lower bounds on their final delays, so pruning here is safe.
            if self.evaluator.fits(winner) && self.evaluator.fits(loser) && self.explore(depth + 1)
            {
                return true;
            }
            self.evaluator.remove_higher(loser, winner);
            self.evaluator.remove_lower(winner, loser);
            self.assignment.clear(winner, loser);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::assignment_fits;
    use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
    use msmr_model::{JobSetBuilder, PreemptionPolicy};

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    /// Runs the search with a generous node budget and no time limit.
    fn search(bound: DelayBoundKind, jobs: &JobSet) -> PairwiseSearchOutcome {
        OptPairwise::new(bound)
            .search(&Analysis::new(jobs), 5_000_000, None)
            .0
    }

    /// The Observation V.1 system: a pairwise assignment exists although no
    /// total ordering does.
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
    fn observation_v1_pairwise_assignment_is_found() {
        let jobs = observation_v1();
        let PairwiseSearchOutcome::Feasible(assignment) =
            search(DelayBoundKind::RefinedPreemptive, &jobs)
        else {
            panic!("Observation V.1 is feasible");
        };
        assert!(assignment.is_complete(&jobs));
        assert!(assignment_fits(
            &ReferenceBounds::new(&jobs),
            &assignment,
            DelayBoundKind::RefinedPreemptive
        ));
        // And it must be cyclic across resources (otherwise a total
        // ordering would exist): check it is *not* derivable from any
        // ordering by verifying OPDCA's conclusion indirectly — the four
        // pairwise decisions necessarily form the J3>J1>J2>J4>J3 cycle of
        // Figure 2(b) or its reverse.
        let cycle_a = assignment.is_higher(jid(2), jid(0))
            && assignment.is_higher(jid(0), jid(1))
            && assignment.is_higher(jid(1), jid(3))
            && assignment.is_higher(jid(3), jid(2));
        let cycle_b = assignment.is_higher(jid(0), jid(2))
            && assignment.is_higher(jid(1), jid(0))
            && assignment.is_higher(jid(3), jid(1))
            && assignment.is_higher(jid(2), jid(3));
        assert!(cycle_a || cycle_b, "unexpected assignment: {assignment}");
    }

    #[test]
    fn infeasible_sets_are_proven_infeasible() {
        // Two jobs on one CPU whose combined demand cannot meet the tighter
        // deadline in either order.
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(Time::new(5))
            .stage_time(Time::new(4), 0)
            .add()
            .unwrap();
        b.job()
            .deadline(Time::new(5))
            .stage_time(Time::new(4), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let outcome = search(DelayBoundKind::RefinedPreemptive, &jobs);
        assert_eq!(outcome, PairwiseSearchOutcome::Infeasible);
    }

    #[test]
    fn isolated_overload_is_detected_immediately() {
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(Time::new(3))
            .stage_time(Time::new(10), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let outcome = search(DelayBoundKind::RefinedPreemptive, &jobs);
        assert_eq!(outcome, PairwiseSearchOutcome::Infeasible);
    }

    #[test]
    fn node_limit_reports_unknown() {
        let jobs = observation_v1();
        let solver = OptPairwise::new(DelayBoundKind::RefinedPreemptive);
        let (outcome, nodes) = solver.search(&Analysis::new(&jobs), 1, None);
        // With a single node the search cannot finish; it must not claim
        // infeasibility.
        assert!(matches!(
            outcome,
            PairwiseSearchOutcome::Unknown | PairwiseSearchOutcome::Feasible(_)
        ));
        assert_eq!(nodes, 1);
        assert_eq!(solver.bound(), DelayBoundKind::RefinedPreemptive);
    }

    #[test]
    fn agrees_with_exhaustive_enumeration_on_random_systems() {
        use msmr_workload::{RandomMsmrConfig, RandomMsmrGenerator};
        let generator = RandomMsmrGenerator::new(RandomMsmrConfig {
            jobs: (3, 5),
            stages: (2, 3),
            resources_per_stage: (1, 2),
            deadline_factor: (1.0, 2.5),
            ..RandomMsmrConfig::default()
        })
        .unwrap();
        for seed in 0..30 {
            let jobs = generator.generate_seeded(seed);
            let reference = ReferenceBounds::new(&jobs);
            let bound = DelayBoundKind::RefinedPreemptive;
            let expected = exhaustive_pairwise_exists(&reference, bound);
            let (outcome, _) =
                OptPairwise::new(bound).search(&Analysis::new(&jobs), 5_000_000, None);
            match outcome {
                PairwiseSearchOutcome::Feasible(assignment) => {
                    assert!(expected, "seed {seed} disagrees");
                    assert!(assignment_fits(&reference, &assignment, bound));
                }
                PairwiseSearchOutcome::Infeasible => assert!(!expected, "seed {seed} disagrees"),
                PairwiseSearchOutcome::Unknown => panic!("seed {seed} hit the node limit"),
            }
        }
    }

    /// Enumerates all `2^m` orientations of the competing pairs.
    fn exhaustive_pairwise_exists(reference: &ReferenceBounds<'_>, bound: DelayBoundKind) -> bool {
        let jobs = reference.jobs();
        let mut pairs = Vec::new();
        for i in jobs.job_ids() {
            for k in jobs.competitors(i) {
                if i < k {
                    pairs.push((i, k));
                }
            }
        }
        let m = pairs.len();
        for mask in 0u64..(1 << m) {
            let mut assignment = PairwiseAssignment::new();
            for (idx, &(a, b)) in pairs.iter().enumerate() {
                if mask & (1 << idx) != 0 {
                    assignment.set_higher(a, b);
                } else {
                    assignment.set_higher(b, a);
                }
            }
            if assignment_fits(reference, &assignment, bound) {
                return true;
            }
        }
        m == 0
            && jobs
                .job_ids()
                .all(|i| reference.meets_deadline(bound, i, &InterferenceSets::default()))
    }

    #[test]
    fn edge_hybrid_bound_is_supported() {
        let jobs = observation_v1();
        let outcome = search(DelayBoundKind::EdgeHybrid, &jobs);
        // The hybrid bound adds blocking, so the set may or may not be
        // feasible — but the search must terminate conclusively.
        assert_ne!(outcome, PairwiseSearchOutcome::Unknown);
        if let PairwiseSearchOutcome::Feasible(assignment) = outcome {
            assert!(assignment_fits(
                &ReferenceBounds::new(&jobs),
                &assignment,
                DelayBoundKind::EdgeHybrid
            ));
        }
    }
}
