//! Total priority orderings (problem P1).

use std::fmt;

use msmr_model::{JobId, JobSet};

/// A total priority ordering of jobs: a permutation listing jobs from the
/// highest priority (`ρ = 1`) to the lowest (`ρ = n`).
///
/// This is the output of [`Opdca`](crate::Opdca) (problem P1 of the paper)
/// and the input to the simulator's global priority maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityOrdering {
    /// Jobs from highest to lowest priority.
    order: Vec<JobId>,
}

impl PriorityOrdering {
    /// Creates an ordering from jobs listed highest priority first.
    ///
    /// # Panics
    ///
    /// Panics if a job id appears more than once.
    #[must_use]
    pub fn new(order: Vec<JobId>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for &id in &order {
            assert!(seen.insert(id), "job {id} appears twice in the ordering");
        }
        PriorityOrdering { order }
    }

    /// Jobs from highest to lowest priority.
    #[must_use]
    pub fn as_slice(&self) -> &[JobId] {
        &self.order
    }

    /// Number of jobs in the ordering.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the ordering is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The priority value `ρ_i ∈ [1, n]` of a job (1 = highest), or `None`
    /// if the job is not part of the ordering (e.g. it was rejected by an
    /// admission controller).
    #[must_use]
    pub fn priority_of(&self, job: JobId) -> Option<usize> {
        self.order.iter().position(|&id| id == job).map(|p| p + 1)
    }

    /// Returns `true` if `a` has higher priority than `b` (both must be in
    /// the ordering).
    #[must_use]
    pub fn outranks(&self, a: JobId, b: JobId) -> bool {
        match (self.priority_of(a), self.priority_of(b)) {
            (Some(pa), Some(pb)) => pa < pb,
            _ => false,
        }
    }

    /// Returns `true` if the ordering covers exactly the jobs of `jobs`.
    #[must_use]
    pub fn covers(&self, jobs: &JobSet) -> bool {
        self.order.len() == jobs.len() && jobs.job_ids().all(|id| self.priority_of(id).is_some())
    }

    /// Iterates over the jobs from highest to lowest priority.
    pub fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.order.iter().copied()
    }
}

// Serialized transparently as the priority-ordered list of job ids; a
// manual impl because deserialization must re-validate uniqueness instead
// of panicking like `PriorityOrdering::new`.
impl serde::Serialize for PriorityOrdering {
    fn serialize(&self) -> serde::Value {
        serde::Serialize::serialize(&self.order)
    }
}

impl serde::Deserialize for PriorityOrdering {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let order = <Vec<JobId> as serde::Deserialize>::deserialize(value)?;
        let mut seen = std::collections::BTreeSet::new();
        for &id in &order {
            if !seen.insert(id) {
                return Err(serde::Error::custom(format!(
                    "job {id} appears twice in the priority ordering"
                )));
            }
        }
        Ok(PriorityOrdering { order })
    }
}

impl fmt::Display for PriorityOrdering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            self.order
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" > ")
        )
    }
}

impl IntoIterator for PriorityOrdering {
    type Item = JobId;
    type IntoIter = std::vec::IntoIter<JobId>;

    fn into_iter(self) -> Self::IntoIter {
        self.order.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_dca::reference::InterferenceSets;
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    #[test]
    fn priorities_and_ranking() {
        let ordering = PriorityOrdering::new(vec![jid(2), jid(0), jid(1)]);
        assert_eq!(ordering.len(), 3);
        assert!(!ordering.is_empty());
        assert_eq!(ordering.priority_of(jid(2)), Some(1));
        assert_eq!(ordering.priority_of(jid(1)), Some(3));
        assert_eq!(ordering.priority_of(jid(9)), None);
        assert!(ordering.outranks(jid(2), jid(1)));
        assert!(!ordering.outranks(jid(1), jid(2)));
        assert!(!ordering.outranks(jid(1), jid(9)));
        assert_eq!(ordering.to_string(), "J2 > J0 > J1");
        assert_eq!(ordering.iter().count(), 3);
        let collected: Vec<JobId> = ordering.clone().into_iter().collect();
        assert_eq!(collected, vec![jid(2), jid(0), jid(1)]);
    }

    #[test]
    fn interference_sets_match_positions() {
        // The slice is highest first, the order the reference splits.
        let ordering = PriorityOrdering::new(vec![jid(2), jid(0), jid(1)]);
        let ctx = InterferenceSets::from_total_order(ordering.as_slice(), jid(0));
        assert!(ctx.is_higher(jid(2)));
        assert!(ctx.is_lower(jid(1)));
    }

    #[test]
    fn covers_checks_against_job_set() {
        let mut b = JobSetBuilder::new();
        b.stage("s", 1, PreemptionPolicy::Preemptive);
        for _ in 0..2 {
            b.job()
                .deadline(Time::new(10))
                .stage_time(Time::new(1), 0)
                .add()
                .unwrap();
        }
        let jobs = b.build().unwrap();
        assert!(PriorityOrdering::new(vec![jid(1), jid(0)]).covers(&jobs));
        assert!(!PriorityOrdering::new(vec![jid(0)]).covers(&jobs));
        assert!(!PriorityOrdering::new(vec![jid(0), jid(2)]).covers(&jobs));
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_jobs_are_rejected() {
        let _ = PriorityOrdering::new(vec![jid(0), jid(0)]);
    }
}
