//! Real-time jobs and their builder.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{JobId, ModelError, ResourceId, StageId, Time};

/// A real-time job `J_i = <A_i, {P_{i,j}}, D_i, {R_{i,j}}>`.
///
/// A job enters the pipeline at its arrival time `A_i`, requires
/// `P_{i,j}` time units of the resource `R_{i,j}` it is mapped to at every
/// stage `S_j`, and must leave the last stage within `D_i` time units of its
/// arrival (end-to-end, *relative* deadline).
///
/// Jobs are immutable once constructed; use [`JobBuilder`] (usually through
/// [`JobSetBuilder::job`](crate::JobSetBuilder::job)) to create them.
///
/// # Example
///
/// ```
/// use msmr_model::{Job, Time};
///
/// # fn main() -> Result<(), msmr_model::ModelError> {
/// let job = Job::builder()
///     .arrival(Time::from_millis(5))
///     .deadline(Time::from_millis(200))
///     .stage_time(Time::from_millis(20), 0)   // stage 0, resource 0
///     .stage_time(Time::from_millis(150), 2)  // stage 1, resource 2
///     .build(0.into())?;
/// assert_eq!(job.max_processing(), Time::from_millis(150));
/// assert_eq!(job.absolute_deadline(), Time::from_millis(205));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    pub(crate) id: JobId,
    arrival: Time,
    deadline: Time,
    processing: Vec<Time>,
    resources: Vec<ResourceId>,
}

impl Job {
    /// Starts building a job.
    #[must_use]
    pub fn builder() -> JobBuilder {
        JobBuilder::new()
    }

    /// The job's identifier within its [`JobSet`](crate::JobSet).
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Arrival (release) time `A_i`.
    #[must_use]
    pub fn arrival(&self) -> Time {
        self.arrival
    }

    /// Relative end-to-end deadline `D_i`.
    #[must_use]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Absolute end-to-end deadline `A_i + D_i`.
    #[must_use]
    pub fn absolute_deadline(&self) -> Time {
        self.arrival.saturating_add(self.deadline)
    }

    /// Number of stages this job traverses (equals the pipeline length once
    /// validated inside a [`JobSet`](crate::JobSet)).
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.processing.len()
    }

    /// Processing time `P_{i,j}` at the given stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage is out of range.
    #[must_use]
    pub fn processing(&self, stage: StageId) -> Time {
        self.processing[stage.index()]
    }

    /// All per-stage processing times, in stage order.
    #[must_use]
    pub fn processing_times(&self) -> &[Time] {
        &self.processing
    }

    /// The resource `R_{i,j}` this job is mapped to at the given stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage is out of range.
    #[must_use]
    pub fn resource(&self, stage: StageId) -> ResourceId {
        self.resources[stage.index()]
    }

    /// All per-stage resource mappings, in stage order.
    #[must_use]
    pub fn resources(&self) -> &[ResourceId] {
        &self.resources
    }

    /// The largest stage processing time `t_{i,1} = max_j P_{i,j}`.
    #[must_use]
    pub fn max_processing(&self) -> Time {
        self.processing.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// The `x`-th largest stage processing time `t_{i,x}` (1-based).
    ///
    /// Returns [`Time::ZERO`] when `x` exceeds the number of stages or is 0,
    /// matching the convention used by the delay composition bounds.
    #[must_use]
    pub fn nth_max_processing(&self, x: usize) -> Time {
        if x == 0 {
            return Time::ZERO;
        }
        let mut sorted = self.processing.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.get(x - 1).copied().unwrap_or(Time::ZERO)
    }

    /// Sum of the processing times over all stages.
    #[must_use]
    pub fn total_processing(&self) -> Time {
        self.processing.iter().copied().sum()
    }

    /// Heaviness `h_{i,j} = P_{i,j} / D_i` of this job at a stage (§VI-A).
    ///
    /// # Panics
    ///
    /// Panics if the stage is out of range.
    #[must_use]
    pub fn heaviness(&self, stage: StageId) -> f64 {
        self.processing(stage).as_ticks() as f64 / self.deadline.as_ticks() as f64
    }

    /// Maximum heaviness of the job over all stages.
    #[must_use]
    pub fn max_heaviness(&self) -> f64 {
        (0..self.stage_count())
            .map(|j| self.heaviness(StageId::new(j)))
            .fold(0.0, f64::max)
    }

    /// Returns `true` if the *interference windows* `[A_i, A_i + D_i]` and
    /// `[A_k, A_k + D_k]` of this job and `other` overlap.
    ///
    /// Per §II of the paper, jobs whose windows do not overlap cannot
    /// interfere with each other and are excluded from the higher-/
    /// lower-priority sets of the delay analysis.
    #[must_use]
    pub fn window_overlaps(&self, other: &Job) -> bool {
        self.arrival <= other.absolute_deadline() && other.arrival <= self.absolute_deadline()
    }

    /// Returns a copy of this job with a different id.
    ///
    /// Used by [`JobSet`](crate::JobSet) construction to densely re-number
    /// jobs.
    #[must_use]
    pub(crate) fn with_id(mut self, id: JobId) -> Job {
        self.id = id;
        self
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}<A={}, D={}, P={:?}>",
            self.id,
            self.arrival,
            self.deadline,
            self.processing
                .iter()
                .map(|t| t.as_ticks())
                .collect::<Vec<_>>()
        )
    }
}

/// Builder for [`Job`] values.
///
/// Stage processing times and resource mappings are appended in pipeline
/// order with [`JobBuilder::stage_time`] (or [`JobBuilder::stages`]).
#[derive(Debug, Clone, Default)]
pub struct JobBuilder {
    arrival: Time,
    deadline: Option<Time>,
    processing: Vec<Time>,
    resources: Vec<ResourceId>,
}

impl JobBuilder {
    /// Creates a builder with arrival time zero and no stages.
    #[must_use]
    pub fn new() -> Self {
        JobBuilder::default()
    }

    /// Sets the arrival time `A_i` (defaults to zero).
    #[must_use]
    pub fn arrival(mut self, arrival: Time) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the relative end-to-end deadline `D_i`.
    #[must_use]
    pub fn deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Appends the next stage's processing time and resource mapping.
    #[must_use]
    pub fn stage_time(mut self, processing: Time, resource: impl Into<ResourceId>) -> Self {
        self.processing.push(processing);
        self.resources.push(resource.into());
        self
    }

    /// Appends several stages at once from `(processing, resource)` pairs.
    #[must_use]
    pub fn stages<I, R>(mut self, stages: I) -> Self
    where
        I: IntoIterator<Item = (Time, R)>,
        R: Into<ResourceId>,
    {
        for (p, r) in stages {
            self.processing.push(p);
            self.resources.push(r.into());
        }
        self
    }

    /// Finalises the job with the given id.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ZeroDeadline`] if no deadline was set or it is zero.
    /// * [`ModelError::ZeroProcessing`] if every stage processing time is
    ///   zero (including the case of no stages at all).
    pub fn build(self, id: JobId) -> Result<Job, ModelError> {
        let deadline = self.deadline.unwrap_or(Time::ZERO);
        if deadline.is_zero() {
            return Err(ModelError::ZeroDeadline { job: id });
        }
        if self.processing.iter().all(|p| p.is_zero()) {
            return Err(ModelError::ZeroProcessing { job: id });
        }
        Ok(Job {
            id,
            arrival: self.arrival,
            deadline,
            processing: self.processing,
            resources: self.resources,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(arrival: u64, deadline: u64, stages: &[(u64, usize)]) -> Job {
        let mut b = Job::builder()
            .arrival(Time::new(arrival))
            .deadline(Time::new(deadline));
        for &(p, r) in stages {
            b = b.stage_time(Time::new(p), r);
        }
        b.build(JobId::new(0)).unwrap()
    }

    #[test]
    fn builder_produces_expected_job() {
        let j = job(5, 100, &[(10, 0), (40, 2), (5, 1)]);
        assert_eq!(j.arrival(), Time::new(5));
        assert_eq!(j.deadline(), Time::new(100));
        assert_eq!(j.absolute_deadline(), Time::new(105));
        assert_eq!(j.stage_count(), 3);
        assert_eq!(j.processing(StageId::new(1)), Time::new(40));
        assert_eq!(j.resource(StageId::new(1)), ResourceId::new(2));
        assert_eq!(j.total_processing(), Time::new(55));
        assert_eq!(j.processing_times().len(), 3);
        assert_eq!(j.resources().len(), 3);
    }

    #[test]
    fn nth_max_processing_is_ordered() {
        let j = job(0, 50, &[(10, 0), (40, 0), (5, 0)]);
        assert_eq!(j.max_processing(), Time::new(40));
        assert_eq!(j.nth_max_processing(1), Time::new(40));
        assert_eq!(j.nth_max_processing(2), Time::new(10));
        assert_eq!(j.nth_max_processing(3), Time::new(5));
        assert_eq!(j.nth_max_processing(4), Time::ZERO);
        assert_eq!(j.nth_max_processing(0), Time::ZERO);
    }

    #[test]
    fn heaviness_matches_definition() {
        let j = job(0, 100, &[(15, 0), (50, 0)]);
        assert!((j.heaviness(StageId::new(0)) - 0.15).abs() < 1e-12);
        assert!((j.heaviness(StageId::new(1)) - 0.5).abs() < 1e-12);
        assert!((j.max_heaviness() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_overlap() {
        let a = job(0, 10, &[(1, 0)]);
        let b = job(10, 5, &[(1, 0)]);
        let c = job(11, 5, &[(1, 0)]);
        // [0,10] and [10,15] touch at a point: they overlap.
        assert!(a.window_overlaps(&b));
        assert!(b.window_overlaps(&a));
        // [0,10] and [11,16] are disjoint.
        assert!(!a.window_overlaps(&c));
        assert!(!c.window_overlaps(&a));
    }

    #[test]
    fn builder_rejects_zero_deadline_and_processing() {
        let err = Job::builder()
            .stage_time(Time::new(5), 0)
            .build(JobId::new(3))
            .unwrap_err();
        assert_eq!(err, ModelError::ZeroDeadline { job: JobId::new(3) });

        let err = Job::builder()
            .deadline(Time::new(10))
            .stage_time(Time::ZERO, 0)
            .build(JobId::new(4))
            .unwrap_err();
        assert_eq!(err, ModelError::ZeroProcessing { job: JobId::new(4) });

        let err = Job::builder()
            .deadline(Time::new(10))
            .build(JobId::new(5))
            .unwrap_err();
        assert_eq!(err, ModelError::ZeroProcessing { job: JobId::new(5) });
    }

    #[test]
    fn stages_bulk_append() {
        let j = Job::builder()
            .deadline(Time::new(30))
            .stages(vec![(Time::new(3), 1usize), (Time::new(7), 0usize)])
            .build(JobId::new(1))
            .unwrap();
        assert_eq!(j.stage_count(), 2);
        assert_eq!(j.resource(StageId::new(0)), ResourceId::new(1));
    }

    #[test]
    fn display_contains_parameters() {
        let j = job(2, 9, &[(4, 0)]);
        let s = j.to_string();
        assert!(s.contains("J0"));
        assert!(s.contains("A=2"));
        assert!(s.contains("D=9"));
    }
}
