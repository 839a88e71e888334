//! Validated job sets and their builder.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{
    Job, JobBuilder, JobId, ModelError, Pipeline, PreemptionPolicy, ResourceRef, Segments,
    SharedStageTimes, Stage, StageId, Time,
};

/// A validated set of real-time jobs together with the pipeline they run
/// on.
///
/// `JobSet` is the central input type of the workspace: the delay
/// composition analysis (`msmr-dca`), all priority-assignment algorithms
/// (`msmr-sched`), the simulator (`msmr-sim`) and the workload generators
/// (`msmr-workload`) operate on it.
///
/// Construction via [`JobSetBuilder`] validates that
///
/// * the pipeline is non-empty and every stage has at least one resource,
/// * every job specifies exactly one processing time and resource per stage,
/// * every resource mapping refers to an existing resource,
/// * deadlines are positive and at least one stage demand is non-zero.
///
/// # Example
///
/// ```
/// use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
///
/// # fn main() -> Result<(), msmr_model::ModelError> {
/// let mut b = JobSetBuilder::new();
/// b.stage("net", 1, PreemptionPolicy::Preemptive)
///     .stage("cpu", 2, PreemptionPolicy::Preemptive);
/// b.job()
///     .deadline(Time::from_millis(50))
///     .stage_time(Time::from_millis(4), 0)
///     .stage_time(Time::from_millis(20), 1)
///     .add()?;
/// let set = b.build()?;
/// assert_eq!(set.len(), 1);
/// assert_eq!(set.pipeline().stage_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSet {
    pipeline: Pipeline,
    jobs: Vec<Job>,
}

impl JobSet {
    /// Creates a job set from a pipeline and pre-built jobs, re-numbering
    /// the jobs densely in the given order.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if any job is inconsistent with the
    /// pipeline (wrong number of stages, unknown resource) or violates the
    /// per-job invariants (zero deadline, all-zero processing).
    pub fn new(pipeline: Pipeline, jobs: Vec<Job>) -> Result<Self, ModelError> {
        let jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| job.with_id(JobId::new(i)))
            .collect();
        let set = JobSet { pipeline, jobs };
        set.validate()?;
        Ok(set)
    }

    /// Re-validates a job set that did not come through the builder —
    /// e.g. one deserialized from an untrusted wire payload, where serde
    /// bypasses the [`JobSet::new`] invariants — returning a copy with
    /// densely re-numbered ids.
    ///
    /// # Errors
    ///
    /// The same [`ModelError`]s as [`JobSet::new`].
    pub fn sanitized(&self) -> Result<JobSet, ModelError> {
        JobSet::new(self.pipeline.clone(), self.jobs.clone())
    }

    fn validate(&self) -> Result<(), ModelError> {
        self.jobs
            .iter()
            .try_for_each(|job| validate_job(&self.pipeline, job))
    }

    /// The pipeline the jobs execute on.
    #[must_use]
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Number of jobs `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if the set contains no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Number of stages `N` of the pipeline.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.pipeline.stage_count()
    }

    /// Returns the job with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range; use [`JobSet::try_job`] for a
    /// fallible lookup.
    #[must_use]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Returns the job with the given id, or an error if it does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownJob`] for out-of-range ids.
    pub fn try_job(&self, id: JobId) -> Result<&Job, ModelError> {
        self.jobs.get(id.index()).ok_or(ModelError::UnknownJob {
            job: id,
            len: self.jobs.len(),
        })
    }

    /// Iterates over the jobs in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Iterates over all job ids `0..n`.
    pub fn job_ids(&self) -> impl Iterator<Item = JobId> {
        (0..self.jobs.len()).map(JobId::new)
    }

    /// Returns `true` if jobs `a` and `b` are mapped to the same resource at
    /// `stage`.
    #[must_use]
    pub fn shares_stage(&self, a: JobId, b: JobId, stage: StageId) -> bool {
        self.job(a).resource(stage) == self.job(b).resource(stage)
    }

    /// `M_{i,j}`: the jobs other than `i` mapped to the same resource as `i`
    /// at `stage`.
    #[must_use]
    pub fn competitors_at(&self, i: JobId, stage: StageId) -> Vec<JobId> {
        self.job_ids()
            .filter(|&k| k != i && self.shares_stage(i, k, stage))
            .collect()
    }

    /// `M_i = ∪_j M_{i,j}`: all jobs that compete with `i` for at least one
    /// resource anywhere in the pipeline.
    #[must_use]
    pub fn competitors(&self, i: JobId) -> BTreeSet<JobId> {
        let mut result = BTreeSet::new();
        for j in self.pipeline.stage_ids() {
            for k in self.competitors_at(i, j) {
                result.insert(k);
            }
        }
        result
    }

    /// The segments of the pair `<a, b>` (see [`Segments`]).
    #[must_use]
    pub fn segments(&self, a: JobId, b: JobId) -> Segments {
        Segments::between(self.job(a), self.job(b))
    }

    /// The shared-stage processing times `ep_{k,·}` / `et_{k,·}` of the
    /// interferer `k` with respect to the target `i`.
    #[must_use]
    pub fn shared_times(&self, interferer: JobId, target: JobId) -> SharedStageTimes {
        SharedStageTimes::of(self.job(interferer), self.job(target))
    }

    /// All jobs mapped to the given physical resource, in id order.
    #[must_use]
    pub fn jobs_on_resource(&self, resource: ResourceRef) -> Vec<JobId> {
        self.jobs()
            .filter(|job| job.resource(resource.stage) == resource.resource)
            .map(Job::id)
            .collect()
    }

    /// Returns `true` if the interference windows of `a` and `b` overlap
    /// (see [`Job::window_overlaps`]).
    #[must_use]
    pub fn windows_overlap(&self, a: JobId, b: JobId) -> bool {
        self.job(a).window_overlaps(self.job(b))
    }

    /// The largest stage processing time over all jobs and stages,
    /// `P = max_{i,j} P_{i,j}` (used as the big-M constant of the ILP
    /// formulation, Eq. 9b).
    #[must_use]
    pub fn max_processing_time(&self) -> Time {
        self.jobs()
            .map(Job::max_processing)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Appends one job at the next dense id (which is returned),
    /// validating only that job: the existing jobs keep their ids and
    /// parameters, so pair-level caches built for this set (e.g.
    /// `msmr_dca::PairTables`) can be extended instead of rebuilt. This
    /// is the arrival primitive of online admission control.
    ///
    /// # Errors
    ///
    /// Returns the usual per-job and pipeline-consistency
    /// [`ModelError`]s if the new job is invalid for this pipeline; the
    /// set is then unchanged.
    pub fn push(&mut self, job: JobBuilder) -> Result<JobId, ModelError> {
        let id = JobId::new(self.jobs.len());
        let job = job.build(id)?;
        validate_job(&self.pipeline, &job)?;
        self.jobs.push(job);
        Ok(id)
    }

    /// Removes the job with the highest id (the rollback of a
    /// [`JobSet::push`]), or returns `None` when the set is empty.
    pub fn pop(&mut self) -> Option<Job> {
        self.jobs.pop()
    }

    /// Removes the job `removed` by **swap-removal**: the job holding the
    /// highest id moves into the vacated slot (taking over `removed`'s
    /// id) and every other job keeps its id (nothing moves when `removed`
    /// already held the highest id). This is the departure primitive of
    /// online admission control: it disturbs exactly one id, so pair-level
    /// caches built for this set (e.g. `msmr_dca::PairTables::remove_job`)
    /// can be patched in `O(n·N)` instead of rebuilt in `O(n²·N)`.
    ///
    /// # Panics
    ///
    /// Panics if `removed` is out of range.
    pub fn swap_remove(&mut self, removed: JobId) -> Job {
        assert!(removed.index() < self.jobs.len(), "job id out of range");
        let job = self.jobs.swap_remove(removed.index());
        if let Some(moved) = self.jobs.get_mut(removed.index()) {
            moved.id = removed;
        }
        job
    }

    /// Returns a copy of this job set with one more job appended at the
    /// next dense id (which is also returned) — [`JobSet::push`] on a
    /// clone.
    ///
    /// # Errors
    ///
    /// The [`ModelError`]s of [`JobSet::push`].
    pub fn with_job(&self, job: JobBuilder) -> Result<(JobSet, JobId), ModelError> {
        let mut set = self.clone();
        let id = set.push(job)?;
        Ok((set, id))
    }

    /// Returns a copy restricted to the given jobs (in the given order),
    /// together with the mapping from new ids to original ids.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownJob`] if any id is out of range.
    pub fn restrict_to(&self, keep: &[JobId]) -> Result<(JobSet, Vec<JobId>), ModelError> {
        let mut kept = Vec::with_capacity(keep.len());
        for &id in keep {
            kept.push(self.try_job(id)?.clone());
        }
        let set = JobSet::new(self.pipeline.clone(), kept)?;
        Ok((set, keep.to_vec()))
    }
}

/// The per-job invariants [`JobSet::new`] checks, for one job against
/// the pipeline it is to run on.
fn validate_job(pipeline: &Pipeline, job: &Job) -> Result<(), ModelError> {
    let n_stages = pipeline.stage_count();
    if job.deadline().is_zero() {
        return Err(ModelError::ZeroDeadline { job: job.id() });
    }
    if job.processing_times().iter().all(|p| p.is_zero()) {
        return Err(ModelError::ZeroProcessing { job: job.id() });
    }
    if job.stage_count() != n_stages {
        return Err(ModelError::StageCountMismatch {
            job: job.id(),
            expected: n_stages,
            actual: job.stage_count(),
        });
    }
    // The builder always produces paired arrays, but a job set
    // assembled another way (e.g. deserialized) can disagree.
    if job.resources().len() != n_stages {
        return Err(ModelError::StageCountMismatch {
            job: job.id(),
            expected: n_stages,
            actual: job.resources().len(),
        });
    }
    for (j, &resource) in job.resources().iter().enumerate() {
        let stage = StageId::new(j);
        let available = pipeline.try_stage(stage)?.resource_count();
        if resource.index() >= available {
            return Err(ModelError::UnknownResource {
                job: job.id(),
                stage,
                resource: resource.index(),
                available,
            });
        }
    }
    Ok(())
}

impl fmt::Display for JobSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "JobSet: {} jobs on {} stages",
            self.jobs.len(),
            self.pipeline.stage_count()
        )?;
        for job in &self.jobs {
            writeln!(f, "  {job}")?;
        }
        Ok(())
    }
}

/// Entry builder returned by [`JobSetBuilder::job`]; finish with
/// [`JobEntryBuilder::add`].
#[derive(Debug)]
pub struct JobEntryBuilder<'a> {
    parent: &'a mut JobSetBuilder,
    inner: JobBuilder,
}

impl JobEntryBuilder<'_> {
    /// Sets the arrival time `A_i` (defaults to zero).
    #[must_use]
    pub fn arrival(mut self, arrival: Time) -> Self {
        self.inner = self.inner.arrival(arrival);
        self
    }

    /// Sets the relative end-to-end deadline `D_i`.
    #[must_use]
    pub fn deadline(mut self, deadline: Time) -> Self {
        self.inner = self.inner.deadline(deadline);
        self
    }

    /// Appends the next stage's processing time and resource mapping.
    #[must_use]
    pub fn stage_time(mut self, processing: Time, resource: impl Into<crate::ResourceId>) -> Self {
        self.inner = self.inner.stage_time(processing, resource);
        self
    }

    /// Validates the per-job invariants and appends the job to the builder.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ZeroDeadline`] / [`ModelError::ZeroProcessing`]
    /// if the job parameters are invalid. Pipeline-level consistency (stage
    /// count, resource range) is checked by [`JobSetBuilder::build`].
    pub fn add(self) -> Result<JobId, ModelError> {
        let id = JobId::new(self.parent.jobs.len());
        let job = self.inner.build(id)?;
        self.parent.jobs.push(job);
        Ok(id)
    }
}

/// Builder for [`JobSet`] values: declare the pipeline stages, then add
/// jobs, then [`build`](JobSetBuilder::build).
#[derive(Debug, Default, Clone)]
pub struct JobSetBuilder {
    stages: Vec<Stage>,
    pipeline: Option<Pipeline>,
    jobs: Vec<Job>,
}

impl JobSetBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        JobSetBuilder::default()
    }

    /// Appends a stage with `resources` resources to the pipeline under
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `resources == 0`; use [`Pipeline::new`] +
    /// [`JobSetBuilder::pipeline`] for fallible pipeline construction.
    pub fn stage(
        &mut self,
        name: impl Into<String>,
        resources: usize,
        preemption: PreemptionPolicy,
    ) -> &mut Self {
        let stage =
            Stage::new(name, resources, preemption).expect("stage must have at least one resource");
        self.stages.push(stage);
        self
    }

    /// Uses a pre-built pipeline instead of per-stage declarations.
    pub fn pipeline(&mut self, pipeline: Pipeline) -> &mut Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Starts describing a new job; finish it with the entry's `add`.
    pub fn job(&mut self) -> JobEntryBuilder<'_> {
        JobEntryBuilder {
            parent: self,
            inner: JobBuilder::new(),
        }
    }

    /// Appends an already-configured [`JobBuilder`].
    ///
    /// # Errors
    ///
    /// Returns the per-job validation errors of [`JobBuilder::build`].
    pub fn push_job(&mut self, job: JobBuilder) -> Result<JobId, ModelError> {
        let id = JobId::new(self.jobs.len());
        self.jobs.push(job.build(id)?);
        Ok(id)
    }

    /// Number of jobs added so far.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Finalises and validates the job set.
    ///
    /// # Errors
    ///
    /// Returns any [`ModelError`] raised by pipeline or job validation.
    pub fn build(self) -> Result<JobSet, ModelError> {
        let pipeline = match self.pipeline {
            Some(p) => p,
            None => Pipeline::new(self.stages)?,
        };
        JobSet::new(pipeline, self.jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceId;

    fn three_stage_set() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("s0", 2, PreemptionPolicy::Preemptive)
            .stage("s1", 2, PreemptionPolicy::Preemptive)
            .stage("s2", 1, PreemptionPolicy::NonPreemptive);
        // J0 and J1 share stage 0 (resource 0) and stage 2 (only resource).
        b.job()
            .deadline(Time::new(100))
            .stage_time(Time::new(10), 0)
            .stage_time(Time::new(20), 0)
            .stage_time(Time::new(5), 0)
            .add()
            .unwrap();
        b.job()
            .deadline(Time::new(90))
            .stage_time(Time::new(8), 0)
            .stage_time(Time::new(12), 1)
            .stage_time(Time::new(6), 0)
            .add()
            .unwrap();
        // J2 is alone on stage-0 resource 1 and stage-1 resource 1... but
        // shares stage 2 with everyone.
        b.job()
            .deadline(Time::new(70))
            .stage_time(Time::new(9), 1)
            .stage_time(Time::new(11), 1)
            .stage_time(Time::new(3), 0)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let set = three_stage_set();
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.stage_count(), 3);
        let ids: Vec<JobId> = set.job_ids().collect();
        assert_eq!(ids, vec![JobId::new(0), JobId::new(1), JobId::new(2)]);
        for (idx, job) in set.jobs().enumerate() {
            assert_eq!(job.id(), JobId::new(idx));
        }
    }

    #[test]
    fn competitors_and_sharing() {
        let set = three_stage_set();
        let j0 = JobId::new(0);
        let j1 = JobId::new(1);
        let j2 = JobId::new(2);
        assert!(set.shares_stage(j0, j1, StageId::new(0)));
        assert!(!set.shares_stage(j0, j1, StageId::new(1)));
        assert!(set.shares_stage(j0, j2, StageId::new(2)));
        assert_eq!(set.competitors_at(j0, StageId::new(0)), vec![j1]);
        assert_eq!(set.competitors_at(j0, StageId::new(1)), Vec::<JobId>::new());
        let m0 = set.competitors(j0);
        assert!(m0.contains(&j1) && m0.contains(&j2));
        assert_eq!(m0.len(), 2);
    }

    #[test]
    fn segments_and_shared_times_via_jobset() {
        let set = three_stage_set();
        let segs = set.segments(JobId::new(0), JobId::new(1));
        assert_eq!(segs.count(), 2); // stage 0 alone, stage 2 alone
        assert_eq!(segs.job_additive_terms(), 2);
        let st = set.shared_times(JobId::new(1), JobId::new(0));
        assert_eq!(st.ep(StageId::new(0)), Time::new(8));
        assert_eq!(st.ep(StageId::new(1)), Time::ZERO);
        assert_eq!(st.ep(StageId::new(2)), Time::new(6));
    }

    #[test]
    fn jobs_on_resource() {
        let set = three_stage_set();
        let r = ResourceRef::new(StageId::new(0), ResourceId::new(0));
        assert_eq!(set.jobs_on_resource(r), vec![JobId::new(0), JobId::new(1)]);
        let r = ResourceRef::new(StageId::new(2), ResourceId::new(0));
        assert_eq!(set.jobs_on_resource(r).len(), 3);
    }

    #[test]
    fn max_processing_time() {
        let set = three_stage_set();
        assert_eq!(set.max_processing_time(), Time::new(20));
    }

    #[test]
    fn swap_remove_moves_only_the_last_job() {
        let set = three_stage_set();
        let mut reduced = set.clone();
        assert_eq!(reduced.swap_remove(JobId::new(0)), *set.job(JobId::new(0)));
        assert_eq!(reduced.len(), 2);
        // J1 keeps its id; the old J2 now answers at id 0.
        assert_eq!(reduced.job(JobId::new(1)), set.job(JobId::new(1)));
        assert_eq!(reduced.job(JobId::new(0)).id(), JobId::new(0));
        assert_eq!(
            reduced.job(JobId::new(0)).deadline(),
            set.job(JobId::new(2)).deadline()
        );
        assert_eq!(
            reduced.job(JobId::new(0)).processing_times(),
            set.job(JobId::new(2)).processing_times()
        );
        // Removing the highest id moves nothing.
        let mut reduced = set.clone();
        reduced.swap_remove(JobId::new(2));
        assert_eq!(reduced.len(), 2);
        for old in reduced.job_ids() {
            assert_eq!(reduced.job(old), set.job(old));
        }
    }

    #[test]
    fn restrict_to_subset() {
        let set = three_stage_set();
        let (reduced, original) = set.restrict_to(&[JobId::new(2), JobId::new(0)]).unwrap();
        assert_eq!(reduced.len(), 2);
        assert_eq!(original, vec![JobId::new(2), JobId::new(0)]);
        assert_eq!(reduced.job(JobId::new(0)).deadline(), Time::new(70));
        assert!(set.restrict_to(&[JobId::new(9)]).is_err());
    }

    #[test]
    fn with_job_appends_at_the_next_dense_id() {
        let set = three_stage_set();
        let (extended, id) = set
            .with_job(
                Job::builder()
                    .deadline(Time::new(40))
                    .stage_time(Time::new(1), 0)
                    .stage_time(Time::new(2), 1)
                    .stage_time(Time::new(3), 0),
            )
            .unwrap();
        assert_eq!(id, JobId::new(3));
        assert_eq!(extended.len(), 4);
        assert_eq!(extended.job(id).deadline(), Time::new(40));
        // The original jobs are untouched, in both sets.
        for old in set.job_ids() {
            assert_eq!(extended.job(old), set.job(old));
        }
        assert_eq!(set.len(), 3);
        // Invalid jobs are rejected with the usual typed errors.
        let err = set
            .with_job(
                Job::builder()
                    .deadline(Time::new(40))
                    .stage_time(Time::new(1), 0),
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::StageCountMismatch { .. }));
        let err = set
            .with_job(
                Job::builder()
                    .deadline(Time::new(40))
                    .stage_time(Time::new(1), 9)
                    .stage_time(Time::new(2), 0)
                    .stage_time(Time::new(3), 0),
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownResource { .. }));
        // In place: a rejected push leaves the set as it was, and `pop`
        // takes a pushed job back out.
        let mut grown = set.clone();
        let err = grown
            .push(
                Job::builder()
                    .deadline(Time::new(40))
                    .stage_time(Time::new(1), 0),
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::StageCountMismatch { .. }));
        assert_eq!(grown, set);
        let id = grown
            .push(
                Job::builder()
                    .deadline(Time::new(40))
                    .stage_time(Time::new(1), 0)
                    .stage_time(Time::new(2), 1)
                    .stage_time(Time::new(3), 0),
            )
            .unwrap();
        assert_eq!((&grown, id), (&extended, JobId::new(3)));
        assert_eq!(grown.pop().as_ref(), Some(extended.job(id)));
        assert_eq!(grown, set);
    }

    #[test]
    fn validation_rejects_stage_mismatch() {
        let pipeline = Pipeline::uniform(&[1, 1], PreemptionPolicy::Preemptive).unwrap();
        let job = Job::builder()
            .deadline(Time::new(10))
            .stage_time(Time::new(1), 0)
            .build(JobId::new(0))
            .unwrap();
        let err = JobSet::new(pipeline, vec![job]).unwrap_err();
        assert!(matches!(err, ModelError::StageCountMismatch { .. }));
    }

    #[test]
    fn validation_rejects_unknown_resource() {
        let pipeline = Pipeline::uniform(&[1], PreemptionPolicy::Preemptive).unwrap();
        let job = Job::builder()
            .deadline(Time::new(10))
            .stage_time(Time::new(1), 3)
            .build(JobId::new(0))
            .unwrap();
        let err = JobSet::new(pipeline, vec![job]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::UnknownResource { resource: 3, .. }
        ));
    }

    #[test]
    fn try_job_lookup() {
        let set = three_stage_set();
        assert!(set.try_job(JobId::new(2)).is_ok());
        assert!(matches!(
            set.try_job(JobId::new(5)),
            Err(ModelError::UnknownJob { .. })
        ));
    }

    #[test]
    fn display_lists_jobs() {
        let set = three_stage_set();
        let text = set.to_string();
        assert!(text.contains("3 jobs"));
        assert!(text.contains("J2"));
    }

    #[test]
    fn windows_overlap_via_jobset() {
        let mut b = JobSetBuilder::new();
        b.stage("s", 1, PreemptionPolicy::Preemptive);
        b.job()
            .arrival(Time::new(0))
            .deadline(Time::new(5))
            .stage_time(Time::new(1), 0)
            .add()
            .unwrap();
        b.job()
            .arrival(Time::new(100))
            .deadline(Time::new(5))
            .stage_time(Time::new(1), 0)
            .add()
            .unwrap();
        let set = b.build().unwrap();
        assert!(!set.windows_overlap(JobId::new(0), JobId::new(1)));
        assert!(set.windows_overlap(JobId::new(0), JobId::new(0)));
    }

    #[test]
    fn push_job_and_prebuilt_pipeline() {
        let mut b = JobSetBuilder::new();
        b.pipeline(Pipeline::uniform(&[2], PreemptionPolicy::Preemptive).unwrap());
        let id = b
            .push_job(
                JobBuilder::new()
                    .deadline(Time::new(10))
                    .stage_time(Time::new(2), 1),
            )
            .unwrap();
        assert_eq!(id, JobId::new(0));
        assert_eq!(b.job_count(), 1);
        let set = b.build().unwrap();
        assert_eq!(set.job(id).resource(StageId::new(0)), ResourceId::new(1));
    }
}
