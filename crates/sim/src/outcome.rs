//! Simulation results and execution traces.

use msmr_model::{JobId, JobSet, ResourceRef, StageId, Time};

/// One contiguous interval during which a job executed on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionSlice {
    /// The resource that executed the job.
    pub resource: ResourceRef,
    /// The executing job.
    pub job: JobId,
    /// The stage being served.
    pub stage: StageId,
    /// Start of the interval (inclusive).
    pub start: Time,
    /// End of the interval (exclusive).
    pub end: Time,
}

impl ExecutionSlice {
    /// Length of the interval.
    #[must_use]
    pub fn duration(&self) -> Time {
        self.end.saturating_sub(self.start)
    }

    /// Returns `true` if two slices overlap in time (touching endpoints do
    /// not count as overlap).
    #[must_use]
    pub fn overlaps(&self, other: &ExecutionSlice) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// The absolute completion time of every job at every stage: what a
/// simulation computes when no trace is asked for
/// ([`Simulator::completions`](crate::Simulator::completions)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionTable {
    stage_count: usize,
    /// `times[job · stage_count + stage]`.
    times: Vec<Time>,
}

impl CompletionTable {
    pub(crate) fn new(stage_count: usize, times: Vec<Time>) -> Self {
        debug_assert_eq!(times.len() % stage_count, 0);
        CompletionTable { stage_count, times }
    }

    /// Absolute completion time of a job (exit from the last stage).
    ///
    /// # Panics
    ///
    /// Panics if the job id is out of range.
    #[must_use]
    pub fn completion(&self, job: JobId) -> Time {
        self.times[(job.index() + 1) * self.stage_count - 1]
    }

    /// Absolute completion time of a job at one stage.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn stage_completion(&self, job: JobId, stage: StageId) -> Time {
        assert!(stage.index() < self.stage_count, "{stage} out of range");
        self.times[job.index() * self.stage_count + stage.index()]
    }

    /// Number of jobs in the simulated set.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.times.len() / self.stage_count
    }
}

/// The result of simulating a job set under a fixed-priority assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationOutcome {
    arrivals: Vec<Time>,
    deadlines: Vec<Time>,
    completions: CompletionTable,
    trace: Vec<ExecutionSlice>,
}

impl SimulationOutcome {
    pub(crate) fn new(
        jobs: &JobSet,
        completions: CompletionTable,
        trace: Vec<ExecutionSlice>,
    ) -> Self {
        SimulationOutcome {
            arrivals: jobs.jobs().map(|j| j.arrival()).collect(),
            deadlines: jobs.jobs().map(|j| j.deadline()).collect(),
            completions,
            trace,
        }
    }

    /// The completion time of every job at every stage.
    #[must_use]
    pub fn completions(&self) -> &CompletionTable {
        &self.completions
    }

    /// Absolute completion time of a job (exit from the last stage).
    ///
    /// # Panics
    ///
    /// Panics if the job id is out of range.
    #[must_use]
    pub fn completion(&self, job: JobId) -> Time {
        self.completions.completion(job)
    }

    /// Absolute completion time of a job at one stage.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn stage_completion(&self, job: JobId, stage: StageId) -> Time {
        self.completions.stage_completion(job, stage)
    }

    /// End-to-end delay `Δ_i` of a job: completion time minus arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the job id is out of range.
    #[must_use]
    pub fn delay(&self, job: JobId) -> Time {
        self.completion(job)
            .saturating_sub(self.arrivals[job.index()])
    }

    /// Returns `true` if the job met its end-to-end deadline
    /// (`Δ_i ≤ D_i`).
    ///
    /// # Panics
    ///
    /// Panics if the job id is out of range.
    #[must_use]
    pub fn meets_deadline(&self, job: JobId) -> bool {
        self.delay(job) <= self.deadlines[job.index()]
    }

    /// Returns `true` if every job met its end-to-end deadline.
    #[must_use]
    pub fn all_deadlines_met(&self) -> bool {
        (0..self.job_count()).all(|i| self.meets_deadline(JobId::new(i)))
    }

    /// Jobs that missed their deadline, in id order.
    #[must_use]
    pub fn deadline_misses(&self) -> Vec<JobId> {
        (0..self.job_count())
            .map(JobId::new)
            .filter(|&i| !self.meets_deadline(i))
            .collect()
    }

    /// The latest completion time over all jobs (makespan).
    #[must_use]
    pub fn makespan(&self) -> Time {
        (0..self.job_count())
            .map(|i| self.completion(JobId::new(i)))
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The full execution trace: one slice per maximal contiguous run of a
    /// job on a resource, ordered by interval start, then by resource.
    #[must_use]
    pub fn trace(&self) -> &[ExecutionSlice] {
        &self.trace
    }

    /// Total executed time of a job summed over the whole trace; equals the
    /// job's total processing demand when the simulation ran to completion.
    #[must_use]
    pub fn executed_time(&self, job: JobId) -> Time {
        self.trace
            .iter()
            .filter(|s| s.job == job)
            .map(ExecutionSlice::duration)
            .sum()
    }

    /// Number of jobs in the simulated set.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.completions.job_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::ResourceId;

    #[test]
    fn slice_duration_and_overlap() {
        let r = ResourceRef::new(StageId::new(0), ResourceId::new(0));
        let a = ExecutionSlice {
            resource: r,
            job: JobId::new(0),
            stage: StageId::new(0),
            start: Time::new(2),
            end: Time::new(5),
        };
        let b = ExecutionSlice {
            resource: r,
            job: JobId::new(1),
            stage: StageId::new(0),
            start: Time::new(5),
            end: Time::new(9),
        };
        assert_eq!(a.duration(), Time::new(3));
        assert!(!a.overlaps(&b)); // touching endpoints are fine
        let c = ExecutionSlice {
            start: Time::new(4),
            ..b
        };
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a));
    }
}
