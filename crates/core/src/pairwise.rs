//! Pairwise priority assignments (problem P2).

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use msmr_dca::reference::InterferenceSets;
use msmr_dca::{Analysis, DelayBoundKind};
use msmr_model::{JobId, JobSet, ResourceRef, StageId, Time};

use crate::PriorityOrdering;

/// A pairwise priority assignment: for pairs of jobs that compete for at
/// least one resource, a relation `J_a > J_b` ("a has higher priority than
/// b", valid across all stages they share).
///
/// Unlike a total [`PriorityOrdering`], a pairwise assignment leaves
/// unrelated jobs unordered and — crucially, per Observation V.1 of the
/// paper — is *not* required to be transitive, which is what makes it
/// strictly more expressive in MSMR systems.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairwiseAssignment {
    /// `higher[(a, b)] = true` means `a > b`. Both orientations are stored
    /// for O(log n) lookups; the two entries are kept consistent.
    relation: BTreeMap<(JobId, JobId), bool>,
}

impl PairwiseAssignment {
    /// Creates an empty assignment (no pair decided).
    #[must_use]
    pub fn new() -> Self {
        PairwiseAssignment::default()
    }

    /// Derives the pairwise assignment induced by a total priority
    /// ordering, restricted to the pairs that actually compete in `jobs`.
    #[must_use]
    pub fn from_ordering(jobs: &JobSet, ordering: &PriorityOrdering) -> Self {
        let mut assignment = PairwiseAssignment::new();
        for i in jobs.job_ids() {
            for k in jobs.competitors(i) {
                if i < k && ordering.priority_of(i).is_some() && ordering.priority_of(k).is_some() {
                    if ordering.outranks(i, k) {
                        assignment.set_higher(i, k);
                    } else {
                        assignment.set_higher(k, i);
                    }
                }
            }
        }
        assignment
    }

    /// Declares `winner > loser`.
    ///
    /// Overwrites any previous decision for the pair.
    ///
    /// # Panics
    ///
    /// Panics if `winner == loser`.
    pub fn set_higher(&mut self, winner: JobId, loser: JobId) {
        assert_ne!(winner, loser, "a job cannot outrank itself");
        self.relation.insert((winner, loser), true);
        self.relation.insert((loser, winner), false);
    }

    /// Returns `true` if the pair has been assigned `a > b`.
    #[must_use]
    pub fn is_higher(&self, a: JobId, b: JobId) -> bool {
        self.relation.get(&(a, b)).copied().unwrap_or(false)
    }

    /// Returns `true` if the relative priority of the pair has been
    /// decided (in either direction).
    #[must_use]
    pub fn is_decided(&self, a: JobId, b: JobId) -> bool {
        self.relation.contains_key(&(a, b))
    }

    /// Number of decided (unordered) pairs.
    #[must_use]
    pub fn decided_pairs(&self) -> usize {
        self.relation.len() / 2
    }

    /// Returns `true` if every competing pair of `jobs` has been decided.
    #[must_use]
    pub fn is_complete(&self, jobs: &JobSet) -> bool {
        jobs.job_ids().all(|i| {
            jobs.competitors(i)
                .into_iter()
                .all(|k| self.is_decided(i, k))
        })
    }

    /// The higher-/lower-priority sets of one job implied by this
    /// assignment: competitors assigned a higher priority form `H_i`,
    /// competitors assigned a lower priority form `L_i`, undecided
    /// competitors and non-competitors appear in neither — the sets the
    /// reference oracle must be fed to check [`PairwiseAssignment::delays`].
    #[must_use]
    pub fn interference_sets(&self, jobs: &JobSet, target: JobId) -> InterferenceSets {
        let mut higher = Vec::new();
        let mut lower = Vec::new();
        for k in jobs.competitors(target) {
            if self.is_higher(k, target) {
                higher.push(k);
            } else if self.is_higher(target, k) {
                lower.push(k);
            }
        }
        InterferenceSets::new(higher, lower)
    }

    /// End-to-end delay bound of every job under this assignment using the
    /// selected bound. Jobs are indexed by id.
    ///
    /// Evaluated through the incremental
    /// [`DelayEvaluator`](msmr_dca::DelayEvaluator) (one `O(N)` update per
    /// decided pair), which is bit-identical to evaluating
    /// [`ReferenceBounds::delay_bound`](msmr_dca::reference::ReferenceBounds::delay_bound)
    /// per job on [`PairwiseAssignment::interference_sets`] (checked by the
    /// test suites).
    #[must_use]
    pub fn delays(&self, analysis: &Analysis<'_>, bound: DelayBoundKind) -> Vec<Time> {
        let tables = analysis.tables();
        let mut evaluator = analysis.evaluator(bound);
        for (winner, loser) in self.iter() {
            // Decided pairs of non-competing jobs are ignored, exactly as
            // `interference_sets` restricts itself to `M_i`.
            if tables.competitor_mask(loser).contains(winner) {
                evaluator.add_higher(loser, winner);
                evaluator.add_lower(winner, loser);
            }
        }
        evaluator.delays()
    }

    /// Iterates over the decided pairs as `(higher, lower)` tuples, each
    /// pair reported once.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, JobId)> + '_ {
        self.relation
            .iter()
            .filter(|(_, &is_higher)| is_higher)
            .map(|(&(a, b), _)| (a, b))
    }

    /// Converts the assignment into per-stage priority values usable by the
    /// simulator: for every resource, the jobs mapped to it are ordered
    /// consistently with the pairwise relation (topological order).
    ///
    /// # Errors
    ///
    /// Returns [`PairwiseCycleError`] if the relation restricted to the
    /// jobs of some resource contains a cycle, in which case no
    /// fixed-priority dispatch order exists for that resource.
    pub fn to_stage_priority_values(
        &self,
        jobs: &JobSet,
    ) -> Result<Vec<Vec<u64>>, PairwiseCycleError> {
        let n = jobs.len();
        let mut values = vec![vec![u64::MAX; n]; jobs.stage_count()];
        for (stage_id, stage) in jobs.pipeline().stages() {
            for resource in stage.resources() {
                let on_resource = jobs.jobs_on_resource(ResourceRef::new(stage_id, resource));
                let order = self.topological_order(&on_resource, stage_id, resource)?;
                for (rank, job) in order.into_iter().enumerate() {
                    values[stage_id.index()][job.index()] = rank as u64;
                }
            }
        }
        Ok(values)
    }

    /// Topologically sorts the jobs of one resource according to the
    /// pairwise relation (undecided pairs fall back to id order).
    fn topological_order(
        &self,
        jobs_on_resource: &[JobId],
        stage: StageId,
        resource: msmr_model::ResourceId,
    ) -> Result<Vec<JobId>, PairwiseCycleError> {
        let mut remaining: BTreeSet<JobId> = jobs_on_resource.iter().copied().collect();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            // A job with no decided higher-priority competitor among the
            // remaining jobs can be emitted next.
            let next = remaining
                .iter()
                .copied()
                .find(|&candidate| {
                    remaining
                        .iter()
                        .all(|&other| other == candidate || !self.is_higher(other, candidate))
                })
                .ok_or(PairwiseCycleError {
                    stage,
                    resource,
                    jobs: remaining.iter().copied().collect(),
                })?;
            remaining.remove(&next);
            order.push(next);
        }
        Ok(order)
    }
}

// Serialized as the list of decided `[winner, loser]` pairs (each pair
// once); a manual impl because the internal double-entry map would need
// tuple-valued JSON object keys.
impl serde::Serialize for PairwiseAssignment {
    fn serialize(&self) -> serde::Value {
        let pairs: Vec<(JobId, JobId)> = self.iter().collect();
        serde::Serialize::serialize(&pairs)
    }
}

impl serde::Deserialize for PairwiseAssignment {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = <Vec<(JobId, JobId)> as serde::Deserialize>::deserialize(value)?;
        let mut assignment = PairwiseAssignment::new();
        for (winner, loser) in pairs {
            if winner == loser {
                return Err(serde::Error::custom(format!(
                    "job {winner} cannot outrank itself"
                )));
            }
            if assignment.is_decided(winner, loser) {
                return Err(serde::Error::custom(format!(
                    "pair ({winner}, {loser}) appears twice in the serialized assignment"
                )));
            }
            assignment.set_higher(winner, loser);
        }
        Ok(assignment)
    }
}

impl<'a> IntoIterator for &'a PairwiseAssignment {
    type Item = (JobId, JobId);
    type IntoIter = Box<dyn Iterator<Item = (JobId, JobId)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl fmt::Display for PairwiseAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (winner, loser) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{winner} > {loser}")?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// Error returned when a pairwise assignment cannot be linearised into a
/// dispatch order for one resource because the relation is cyclic there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseCycleError {
    /// Stage of the offending resource.
    pub stage: StageId,
    /// The offending resource.
    pub resource: msmr_model::ResourceId,
    /// Jobs involved in the cycle.
    pub jobs: Vec<JobId>,
}

impl fmt::Display for PairwiseCycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pairwise priorities of resource {}/{} are cyclic among {}",
            self.stage,
            self.resource,
            self.jobs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl Error for PairwiseCycleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::assignment_fits;
    use msmr_dca::reference::ReferenceBounds;
    use msmr_model::{JobSetBuilder, PreemptionPolicy};

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    /// The Observation V.1 system (Figure 2(a) mapping).
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

    /// The Figure 2(b) pairwise assignment: J3>J1, J1>J2, J2>J4, J4>J3.
    fn figure_2b(jobs: &JobSet) -> PairwiseAssignment {
        let _ = jobs;
        let mut a = PairwiseAssignment::new();
        a.set_higher(jid(2), jid(0)); // J3 > J1
        a.set_higher(jid(0), jid(1)); // J1 > J2
        a.set_higher(jid(1), jid(3)); // J2 > J4
        a.set_higher(jid(3), jid(2)); // J4 > J3
        a
    }

    #[test]
    fn relation_bookkeeping() {
        let mut a = PairwiseAssignment::new();
        assert_eq!(a.decided_pairs(), 0);
        a.set_higher(jid(0), jid(1));
        assert!(a.is_higher(jid(0), jid(1)));
        assert!(!a.is_higher(jid(1), jid(0)));
        assert!(a.is_decided(jid(1), jid(0)));
        assert!(!a.is_decided(jid(0), jid(2)));
        assert_eq!(a.decided_pairs(), 1);
        // Reversing a decision overwrites it.
        a.set_higher(jid(1), jid(0));
        assert!(a.is_higher(jid(1), jid(0)));
        assert_eq!(a.decided_pairs(), 1);
        assert_eq!(a.iter().count(), 1);
        assert_eq!((&a).into_iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot outrank itself")]
    fn self_relation_is_rejected() {
        let mut a = PairwiseAssignment::new();
        a.set_higher(jid(0), jid(0));
    }

    #[test]
    fn observation_v1_assignment_is_feasible_under_eq6() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let assignment = figure_2b(&jobs);
        assert!(assignment.is_complete(&jobs));
        let delays = assignment.delays(&analysis, DelayBoundKind::RefinedPreemptive);
        assert_eq!(
            delays,
            vec![Time::new(34), Time::new(55), Time::new(51), Time::new(22)]
        );
        assert!(assignment_fits(
            &ReferenceBounds::new(&jobs),
            &assignment,
            DelayBoundKind::RefinedPreemptive
        ));
    }

    #[test]
    fn interference_sets_reflect_the_relation() {
        let jobs = observation_v1();
        let assignment = figure_2b(&jobs);
        let ctx = assignment.interference_sets(&jobs, jid(0));
        assert!(ctx.is_higher(jid(2)));
        assert!(ctx.is_lower(jid(1)));
        assert!(!ctx.is_higher(jid(3)) && !ctx.is_lower(jid(3))); // not a competitor
    }

    #[test]
    fn from_ordering_matches_outranks() {
        let jobs = observation_v1();
        let ordering = PriorityOrdering::new(vec![jid(3), jid(1), jid(0), jid(2)]);
        let assignment = PairwiseAssignment::from_ordering(&jobs, &ordering);
        // J1 (id 0) competes with J3 (id 2) and J2 (id 1).
        assert!(assignment.is_higher(jid(1), jid(0)));
        assert!(assignment.is_higher(jid(0), jid(2)));
        // Non-competing pairs stay undecided: J1 (id 0) and J4 (id 3) never
        // share a resource.
        assert!(!assignment.is_decided(jid(0), jid(3)));
        assert!(assignment.is_complete(&jobs));
    }

    #[test]
    fn incomplete_assignment_is_detected() {
        let jobs = observation_v1();
        let mut a = PairwiseAssignment::new();
        a.set_higher(jid(2), jid(0));
        assert!(!a.is_complete(&jobs));
    }

    #[test]
    fn stage_priority_values_respect_the_relation() {
        let jobs = observation_v1();
        let assignment = figure_2b(&jobs);
        let values = assignment.to_stage_priority_values(&jobs).unwrap();
        assert_eq!(values.len(), 3);
        // Stage 0, resource 0 hosts J1 (id 0) and J3 (id 2) with J3 > J1.
        assert!(values[0][2] < values[0][0]);
        // Stage 1, resource 0 hosts J3 (id 2) and J4 (id 3) with J4 > J3.
        assert!(values[1][3] < values[1][2]);
        // Stage 1, resource 1 hosts J1 and J2 with J1 > J2.
        assert!(values[1][0] < values[1][1]);
    }

    #[test]
    fn cyclic_relation_on_one_resource_is_reported() {
        // Three jobs all on one resource with a cyclic relation.
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive);
        for _ in 0..3 {
            b.job()
                .deadline(Time::new(100))
                .stage_time(Time::new(1), 0)
                .add()
                .unwrap();
        }
        let jobs = b.build().unwrap();
        let mut a = PairwiseAssignment::new();
        a.set_higher(jid(0), jid(1));
        a.set_higher(jid(1), jid(2));
        a.set_higher(jid(2), jid(0));
        let err = a.to_stage_priority_values(&jobs).unwrap_err();
        assert_eq!(err.jobs.len(), 3);
        assert!(err.to_string().contains("cyclic"));
    }

    #[test]
    fn display_lists_pairs() {
        let mut a = PairwiseAssignment::new();
        assert_eq!(a.to_string(), "(empty)");
        a.set_higher(jid(1), jid(0));
        assert!(a.to_string().contains("J1 > J0"));
    }
}
