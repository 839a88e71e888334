//! Pairwise priority assignments (problem P2).

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use msmr_dca::reference::InterferenceSets;
use msmr_dca::{Analysis, DelayBoundKind};
use msmr_model::{JobId, JobSet, ResourceRef, StageId, Time};

use crate::PriorityOrdering;

/// Cell of an undecided pair.
const UNDECIDED: u8 = 0;
/// The row job outranks the column job.
const HIGHER: u8 = 1;
/// The column job outranks the row job.
const LOWER: u8 = 2;

/// A pairwise priority assignment: for pairs of jobs that compete for at
/// least one resource, a relation `J_a > J_b` ("a has higher priority than
/// b", valid across all stages they share).
///
/// Unlike a total [`PriorityOrdering`], a pairwise assignment leaves
/// unrelated jobs unordered and — crucially, per Observation V.1 of the
/// paper — is *not* required to be transitive, which is what makes it
/// strictly more expressive in MSMR systems.
///
/// # Storage
///
/// The relation is a flat `n×n` tri-state byte matrix over job ids: cell
/// `(a, b)` says `a > b`, `b > a` or undecided, and both cells of a pair
/// are always written together. [`is_higher`](Self::is_higher) and
/// [`is_decided`](Self::is_decided) are `O(1)` reads. The engines (DM's
/// orientation, DMR's repair, OPT's undo search, the admission loops)
/// decide, flip and clear pairs on the witness itself with plain byte
/// writes into a matrix sized once for the job set;
/// [`set_higher`](Self::set_higher) grows the matrix to fit its ids.
///
/// [`iter`](Self::iter) scans the matrix row by row, so decided pairs come
/// out as `(winner, loser)` in ascending order. That is the serialized
/// order and the order of the `Display` list. Two assignments are equal
/// when they decide the same pairs the same way, whatever their matrix
/// sizes (a decoded witness is sized from its largest id), and `Debug`
/// prints the decided pairs, not the matrix.
#[derive(Clone, Default)]
pub struct PairwiseAssignment {
    /// Matrix dimension: every decided pair has both ids below `n`.
    n: usize,
    /// Row-major `n×n` cells.
    cells: Vec<u8>,
}

impl PairwiseAssignment {
    /// Creates an empty assignment (no pair decided).
    #[must_use]
    pub fn new() -> Self {
        PairwiseAssignment::default()
    }

    /// An undecided matrix over the ids `0..n`, which the engines fill with
    /// [`set`](Self::set) and [`clear`](Self::clear) without allocating.
    pub(crate) fn for_jobs(n: usize) -> Self {
        PairwiseAssignment {
            n,
            cells: vec![UNDECIDED; n * n],
        }
    }

    /// An undecided matrix over the ids `0..=largest`, or `None` where
    /// sizing it would overflow or its cells cannot be allocated.
    fn try_holding(largest: usize) -> Option<Self> {
        let n = largest.checked_add(1)?;
        let len = n.checked_mul(n)?;
        let mut cells = Vec::new();
        cells.try_reserve_exact(len).ok()?;
        cells.resize(len, UNDECIDED);
        Some(PairwiseAssignment { n, cells })
    }

    /// Derives the pairwise assignment induced by a total priority
    /// ordering, restricted to the pairs that actually compete in `jobs`.
    #[must_use]
    pub fn from_ordering(jobs: &JobSet, ordering: &PriorityOrdering) -> Self {
        let mut assignment = PairwiseAssignment::for_jobs(jobs.len());
        for i in jobs.job_ids() {
            for k in jobs.competitors(i) {
                if i < k && ordering.priority_of(i).is_some() && ordering.priority_of(k).is_some() {
                    if ordering.outranks(i, k) {
                        assignment.set(i, k);
                    } else {
                        assignment.set(k, i);
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
    /// Panics if `winner == loser`, or if an id is so large that the
    /// `n×n` matrix holding it cannot be allocated.
    pub fn set_higher(&mut self, winner: JobId, loser: JobId) {
        assert_ne!(winner, loser, "a job cannot outrank itself");
        let largest = winner.index().max(loser.index());
        if largest >= self.n {
            let mut grown = PairwiseAssignment::try_holding(largest)
                .expect("job id too large for a pairwise assignment");
            let rows = grown.cells.chunks_exact_mut(grown.n);
            for (row, old) in rows.zip(self.cells.chunks_exact(self.n.max(1))) {
                row[..self.n].copy_from_slice(old);
            }
            *self = grown;
        }
        self.set(winner, loser);
    }

    /// Declares `winner > loser` in a matrix that already holds both ids:
    /// two byte writes, overwriting any previous decision.
    pub(crate) fn set(&mut self, winner: JobId, loser: JobId) {
        debug_assert_ne!(winner, loser, "a job cannot outrank itself");
        debug_assert!(winner.index() < self.n && loser.index() < self.n);
        self.cells[winner.index() * self.n + loser.index()] = HIGHER;
        self.cells[loser.index() * self.n + winner.index()] = LOWER;
    }

    /// Returns the pair to the undecided state.
    pub(crate) fn clear(&mut self, a: JobId, b: JobId) {
        debug_assert!(a.index() < self.n && b.index() < self.n);
        self.cells[a.index() * self.n + b.index()] = UNDECIDED;
        self.cells[b.index() * self.n + a.index()] = UNDECIDED;
    }

    /// The cell of the ordered pair `(a, b)`; ids beyond the matrix are
    /// undecided.
    fn cell(&self, a: JobId, b: JobId) -> u8 {
        if a.index() < self.n && b.index() < self.n {
            self.cells[a.index() * self.n + b.index()]
        } else {
            UNDECIDED
        }
    }

    /// Returns `true` if the pair has been assigned `a > b`.
    #[must_use]
    pub fn is_higher(&self, a: JobId, b: JobId) -> bool {
        self.cell(a, b) == HIGHER
    }

    /// Returns `true` if the relative priority of the pair has been
    /// decided (in either direction).
    #[must_use]
    pub fn is_decided(&self, a: JobId, b: JobId) -> bool {
        self.cell(a, b) != UNDECIDED
    }

    /// Number of decided (unordered) pairs, counted by scanning the matrix.
    #[must_use]
    pub fn decided_pairs(&self) -> usize {
        self.cells.iter().filter(|&&cell| cell == HIGHER).count()
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
    /// pair reported once, in ascending order (the serialized order).
    pub fn iter(&self) -> impl Iterator<Item = (JobId, JobId)> + '_ {
        let n = self.n;
        self.cells
            .iter()
            .enumerate()
            .filter(|&(_, &cell)| cell == HIGHER)
            .map(move |(at, _)| (JobId::new(at / n), JobId::new(at % n)))
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
// once, in `iter` order), not as the matrix, whose size is an engine
// detail.
impl serde::Serialize for PairwiseAssignment {
    fn serialize(&self) -> serde::Value {
        let pairs: Vec<(JobId, JobId)> = self.iter().collect();
        serde::Serialize::serialize(&pairs)
    }
}

impl serde::Deserialize for PairwiseAssignment {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = <Vec<(JobId, JobId)> as serde::Deserialize>::deserialize(value)?;
        let largest = pairs.iter().map(|&(w, l)| w.index().max(l.index())).max();
        let mut assignment = match largest {
            None => PairwiseAssignment::new(),
            Some(id) => PairwiseAssignment::try_holding(id).ok_or_else(|| {
                serde::Error::custom(format!(
                    "job {} is too large for a pairwise assignment",
                    JobId::new(id)
                ))
            })?,
        };
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
            assignment.set(winner, loser);
        }
        Ok(assignment)
    }
}

impl PartialEq for PairwiseAssignment {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for PairwiseAssignment {}

impl fmt::Debug for PairwiseAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
    fn set_clear_and_query() {
        let mut o = PairwiseAssignment::for_jobs(3);
        assert!(!o.is_higher(jid(0), jid(1)));
        o.set(jid(0), jid(1));
        assert!(o.is_higher(jid(0), jid(1)));
        assert!(!o.is_higher(jid(1), jid(0)));
        o.set(jid(1), jid(0));
        assert!(o.is_higher(jid(1), jid(0)));
        o.clear(jid(0), jid(1));
        assert!(!o.is_higher(jid(0), jid(1)) && !o.is_higher(jid(1), jid(0)));
        assert!(!o.is_decided(jid(0), jid(1)));
    }

    #[test]
    fn converts_to_the_same_assignment_as_direct_construction() {
        // Engine writes into a pre-sized matrix and `set_higher` growing
        // one from empty build equal witnesses.
        let mut o = PairwiseAssignment::for_jobs(6);
        o.set(jid(2), jid(0));
        o.set(jid(0), jid(1));
        o.set(jid(3), jid(2));
        let mut expected = PairwiseAssignment::new();
        expected.set_higher(jid(2), jid(0));
        expected.set_higher(jid(0), jid(1));
        expected.set_higher(jid(3), jid(2));
        assert_eq!(o, expected);
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

    /// The relation as a double-entry `BTreeMap`, `higher[(a, b)] = true`
    /// meaning `a > b`: the model the matrix must agree with on every
    /// query, on `Display` and on serialized bytes.
    #[derive(Default)]
    struct MapRelation(BTreeMap<(JobId, JobId), bool>);

    impl MapRelation {
        fn set_higher(&mut self, winner: JobId, loser: JobId) {
            self.0.insert((winner, loser), true);
            self.0.insert((loser, winner), false);
        }

        fn is_higher(&self, a: JobId, b: JobId) -> bool {
            self.0.get(&(a, b)).copied().unwrap_or(false)
        }

        fn pairs(&self) -> Vec<(JobId, JobId)> {
            self.0
                .iter()
                .filter(|(_, &higher)| higher)
                .map(|(&pair, _)| pair)
                .collect()
        }

        fn display(&self) -> String {
            let pairs = self.pairs();
            if pairs.is_empty() {
                return "(empty)".to_string();
            }
            let pairs: Vec<String> = pairs.iter().map(|(w, l)| format!("{w} > {l}")).collect();
            pairs.join(", ")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `set_higher` sequences from `new()`, with overwrites and
        /// ids in any order, agree with the map model everywhere.
        #[test]
        fn matrix_agrees_with_the_map_model(
            decisions in prop::collection::vec((0usize..40, 0usize..40), 0..60)
        ) {
            let mut matrix = PairwiseAssignment::new();
            let mut model = MapRelation::default();
            for (winner, loser) in decisions {
                if winner != loser {
                    matrix.set_higher(jid(winner), jid(loser));
                    model.set_higher(jid(winner), jid(loser));
                }
            }
            for a in 0..42 {
                for b in 0..42 {
                    let (a, b) = (jid(a), jid(b));
                    prop_assert_eq!(matrix.is_higher(a, b), model.is_higher(a, b));
                    prop_assert_eq!(matrix.is_decided(a, b), model.0.contains_key(&(a, b)));
                }
            }
            prop_assert_eq!(matrix.decided_pairs(), model.0.len() / 2);
            prop_assert_eq!(matrix.iter().collect::<Vec<_>>(), model.pairs());
            prop_assert_eq!(matrix.to_string(), model.display());
            let json = serde_json::to_string(&matrix).unwrap();
            prop_assert_eq!(&json, &serde_json::to_string(&model.pairs()).unwrap());
            let back: PairwiseAssignment = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, matrix);
        }
    }

    #[test]
    fn an_engine_sized_witness_equals_its_json_round_trip() {
        // Sized for 100 jobs, the last ones undecided: the decoded copy is
        // sized from its largest id and must still be equal, print the same
        // and serialize to the same bytes.
        let mut witness = PairwiseAssignment::for_jobs(100);
        witness.set(jid(3), jid(0));
        witness.set(jid(1), jid(7));
        witness.set(jid(40), jid(2));
        witness.set(jid(1), jid(40));
        witness.clear(jid(1), jid(7));
        let json = serde_json::to_string(&witness).unwrap();
        assert_eq!(json, "[[1,40],[3,0],[40,2]]");
        let back: PairwiseAssignment = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n, 41);
        assert_eq!(back, witness);
        assert_eq!(format!("{back:?}"), format!("{witness:?}"));
        assert_eq!(back.to_string(), witness.to_string());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_ne!(back, PairwiseAssignment::for_jobs(100));
    }
}
