//! Per-stage fixed-priority assignments used by the simulator.

use msmr_model::{JobId, JobSet, StageId};

/// A fixed-priority assignment for simulation: one numeric priority per job
/// and stage, where a *lower* value means a *higher* priority (matching the
/// paper's convention for `ρ_i`).
///
/// Global priority orderings (problem P1) use the same priority at every
/// stage; the DCMP baseline assigns per-stage priorities derived from
/// virtual deadlines. Ties are broken by job id inside the simulator, so
/// priority values do not need to be distinct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityMap {
    /// `values[stage][job]` — priority of the job at that stage.
    values: Vec<Vec<u64>>,
}

impl PriorityMap {
    /// Builds a map that applies the same global priority order at every
    /// stage. `order` lists job ids from highest to lowest priority; jobs
    /// missing from `order` get the lowest priority band.
    ///
    /// # Panics
    ///
    /// Panics if `order` mentions a job id that is not part of `jobs`.
    #[must_use]
    pub fn from_global_order(jobs: &JobSet, order: &[JobId]) -> Self {
        let mut per_job = vec![u64::MAX; jobs.len()];
        for (rank, &id) in order.iter().enumerate() {
            assert!(id.index() < jobs.len(), "job {id} not in job set");
            per_job[id.index()] = rank as u64;
        }
        let values = vec![per_job; jobs.pipeline().stage_count()];
        PriorityMap { values }
    }

    /// Builds a map from per-stage priority *values* (`values[stage][job]`,
    /// lower = higher priority).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match the job set.
    #[must_use]
    pub fn from_values(jobs: &JobSet, values: Vec<Vec<u64>>) -> Self {
        assert_eq!(
            values.len(),
            jobs.pipeline().stage_count(),
            "one priority vector per stage required"
        );
        for stage_values in &values {
            assert_eq!(
                stage_values.len(),
                jobs.len(),
                "one priority per job required"
            );
        }
        PriorityMap { values }
    }

    /// Builds a map from per-stage orders: `orders[stage]` lists the job
    /// ids of that stage from highest to lowest priority.
    ///
    /// # Panics
    ///
    /// Panics if the number of orders does not match the stage count or an
    /// order mentions an unknown job.
    #[must_use]
    pub fn from_per_stage_orders(jobs: &JobSet, orders: &[Vec<JobId>]) -> Self {
        assert_eq!(
            orders.len(),
            jobs.pipeline().stage_count(),
            "one order per stage required"
        );
        let values = orders
            .iter()
            .map(|order| {
                let mut per_job = vec![u64::MAX; jobs.len()];
                for (rank, &id) in order.iter().enumerate() {
                    assert!(id.index() < jobs.len(), "job {id} not in job set");
                    per_job[id.index()] = rank as u64;
                }
                per_job
            })
            .collect();
        PriorityMap { values }
    }

    /// The priority of `job` at `stage` (lower = higher priority).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn priority(&self, stage: StageId, job: JobId) -> u64 {
        self.values[stage.index()][job.index()]
    }

    /// The priorities of every job at one stage, indexed by job.
    pub(crate) fn stage_values(&self, stage: usize) -> &[u64] {
        &self.values[stage]
    }

    /// Returns `true` if `a` has strictly higher priority than `b` at
    /// `stage` (ties are broken by job id, mirroring the simulator).
    #[must_use]
    pub fn outranks(&self, stage: StageId, a: JobId, b: JobId) -> bool {
        (self.priority(stage, a), a.index()) < (self.priority(stage, b), b.index())
    }

    /// Number of stages covered by the map.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.values.len()
    }

    /// Number of jobs covered by the map.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.values.first().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};

    fn two_stage_three_jobs() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("a", 1, PreemptionPolicy::Preemptive)
            .stage("b", 1, PreemptionPolicy::Preemptive);
        for _ in 0..3 {
            b.job()
                .deadline(Time::new(100))
                .stage_time(Time::new(5), 0)
                .stage_time(Time::new(5), 0)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn global_order_applies_to_every_stage() {
        let jobs = two_stage_three_jobs();
        let map =
            PriorityMap::from_global_order(&jobs, &[JobId::new(2), JobId::new(0), JobId::new(1)]);
        assert_eq!(map.stage_count(), 2);
        assert_eq!(map.job_count(), 3);
        for stage in 0..2 {
            let s = StageId::new(stage);
            assert_eq!(map.priority(s, JobId::new(2)), 0);
            assert_eq!(map.priority(s, JobId::new(0)), 1);
            assert_eq!(map.priority(s, JobId::new(1)), 2);
            assert!(map.outranks(s, JobId::new(2), JobId::new(1)));
            assert!(!map.outranks(s, JobId::new(1), JobId::new(2)));
        }
    }

    #[test]
    fn jobs_missing_from_order_get_lowest_band() {
        let jobs = two_stage_three_jobs();
        let map = PriorityMap::from_global_order(&jobs, &[JobId::new(1)]);
        let s = StageId::new(0);
        assert!(map.outranks(s, JobId::new(1), JobId::new(0)));
        // Among unordered jobs the tie breaks by id.
        assert!(map.outranks(s, JobId::new(0), JobId::new(2)));
    }

    #[test]
    fn per_stage_orders_differ_between_stages() {
        let jobs = two_stage_three_jobs();
        let map = PriorityMap::from_per_stage_orders(
            &jobs,
            &[
                vec![JobId::new(0), JobId::new(1), JobId::new(2)],
                vec![JobId::new(2), JobId::new(1), JobId::new(0)],
            ],
        );
        assert!(map.outranks(StageId::new(0), JobId::new(0), JobId::new(2)));
        assert!(map.outranks(StageId::new(1), JobId::new(2), JobId::new(0)));
    }

    #[test]
    fn from_values_roundtrip() {
        let jobs = two_stage_three_jobs();
        let map = PriorityMap::from_values(&jobs, vec![vec![5, 1, 3], vec![0, 0, 0]]);
        assert_eq!(map.priority(StageId::new(0), JobId::new(1)), 1);
        // Equal values: tie broken by id.
        assert!(map.outranks(StageId::new(1), JobId::new(0), JobId::new(1)));
    }

    #[test]
    #[should_panic(expected = "one priority vector per stage")]
    fn from_values_rejects_wrong_stage_count() {
        let jobs = two_stage_three_jobs();
        let _ = PriorityMap::from_values(&jobs, vec![vec![0, 1, 2]]);
    }

    #[test]
    #[should_panic(expected = "not in job set")]
    fn unknown_job_in_order_panics() {
        let jobs = two_stage_three_jobs();
        let _ = PriorityMap::from_global_order(&jobs, &[JobId::new(7)]);
    }
}
