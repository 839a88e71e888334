//! Precomputed pairwise interference data.

use msmr_model::{JobId, JobSet, Segments, SharedStageTimes, StageId, Time};

/// Precomputed interference data of an ordered job pair
/// *(target `J_i`, interferer `J_k`)*.
///
/// The data combines the segment structure (`m_{i,k}`, `u_{i,k}`,
/// `v_{i,k}`, `w_{i,k}`) with the shared-stage processing times
/// (`ep_{k,j}`, `et_{k,x}`) and the interference-window overlap check of
/// §II. It is computed once per pair by
/// [`ReferenceBounds`](crate::reference::ReferenceBounds); the shipped
/// evaluator reads the same values from [`PairTables`](crate::PairTables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairInterference {
    target: JobId,
    interferer: JobId,
    segments: Segments,
    shared: SharedStageTimes,
    interferes: bool,
}

impl PairInterference {
    /// Computes the pair data for `(target, interferer)` in `jobs`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for `jobs`.
    #[must_use]
    pub fn compute(jobs: &JobSet, target: JobId, interferer: JobId) -> Self {
        let t = jobs.job(target);
        let k = jobs.job(interferer);
        let segments = Segments::between(t, k);
        let shared = SharedStageTimes::of(k, t);
        // A job can always "interfere" with itself (its own processing is
        // part of its delay); other jobs only interfere when their windows
        // overlap (§II).
        let interferes = target == interferer || t.window_overlaps(k);
        PairInterference {
            target,
            interferer,
            segments,
            shared,
            interferes,
        }
    }

    /// The target job `J_i`.
    #[must_use]
    pub fn target(&self) -> JobId {
        self.target
    }

    /// The interfering job `J_k`.
    #[must_use]
    pub fn interferer(&self) -> JobId {
        self.interferer
    }

    /// `true` when the interference windows of the two jobs overlap (always
    /// `true` for the degenerate self pair).
    #[must_use]
    pub fn interferes(&self) -> bool {
        self.interferes
    }

    /// The segments shared by the pair.
    #[must_use]
    pub fn segments(&self) -> &Segments {
        &self.segments
    }

    /// `m_{i,k}`: number of segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.count()
    }

    /// `w_{i,k} = u_{i,k} + 2·v_{i,k}`: refined number of job-additive
    /// terms (Eq. 6). For the self pair the bounds use `w_{i,i} = 1`
    /// regardless of this value.
    #[must_use]
    pub fn job_additive_terms(&self) -> usize {
        self.segments.job_additive_terms()
    }

    /// `true` if the pair shares at least one stage.
    #[must_use]
    pub fn shares_any_stage(&self) -> bool {
        !self.segments.is_empty()
    }

    /// `ep_{k,j}`: the interferer's processing time at `stage` if the pair
    /// shares that stage, zero otherwise.
    #[must_use]
    pub fn ep(&self, stage: StageId) -> Time {
        self.shared.ep(stage)
    }

    /// `et_{k,x}`: the `x`-th largest shared-stage processing time
    /// (1-based).
    #[must_use]
    pub fn et(&self, x: usize) -> Time {
        self.shared.et(x)
    }

    /// `et_{k,1}`.
    #[must_use]
    pub fn max_shared(&self) -> Time {
        self.shared.max()
    }

    /// `Σ_{x=1..count} et_{k,x}`.
    #[must_use]
    pub fn sum_of_largest(&self, count: usize) -> Time {
        self.shared.sum_of_largest(count)
    }

    /// The underlying shared-stage time table.
    #[must_use]
    pub fn shared_times(&self) -> &SharedStageTimes {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};

    fn jobs() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("s0", 2, PreemptionPolicy::Preemptive)
            .stage("s1", 2, PreemptionPolicy::Preemptive)
            .stage("s2", 2, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(Time::new(100))
            .stage_time(Time::new(5), 0)
            .stage_time(Time::new(7), 0)
            .stage_time(Time::new(15), 0)
            .add()
            .unwrap();
        b.job()
            .deadline(Time::new(100))
            .stage_time(Time::new(7), 0)
            .stage_time(Time::new(9), 1)
            .stage_time(Time::new(17), 0)
            .add()
            .unwrap();
        b.job()
            .arrival(Time::new(500))
            .deadline(Time::new(50))
            .stage_time(Time::new(1), 0)
            .stage_time(Time::new(1), 0)
            .stage_time(Time::new(1), 0)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn pair_combines_segments_and_times() {
        let set = jobs();
        let pair = PairInterference::compute(&set, JobId::new(0), JobId::new(1));
        assert_eq!(pair.target(), JobId::new(0));
        assert_eq!(pair.interferer(), JobId::new(1));
        // Shared at stages 0 and 2 (two single-stage segments).
        assert_eq!(pair.segment_count(), 2);
        assert_eq!(pair.job_additive_terms(), 2);
        assert!(pair.shares_any_stage());
        assert_eq!(pair.ep(StageId::new(0)), Time::new(7));
        assert_eq!(pair.ep(StageId::new(1)), Time::ZERO);
        assert_eq!(pair.ep(StageId::new(2)), Time::new(17));
        assert_eq!(pair.et(1), Time::new(17));
        assert_eq!(pair.max_shared(), Time::new(17));
        assert_eq!(pair.sum_of_largest(2), Time::new(24));
        assert!(pair.interferes());
        assert_eq!(pair.segments().count(), 2);
        assert_eq!(pair.shared_times().max(), Time::new(17));
    }

    #[test]
    fn non_overlapping_windows_do_not_interfere() {
        let set = jobs();
        let pair = PairInterference::compute(&set, JobId::new(0), JobId::new(2));
        assert!(!pair.interferes());
        let self_pair = PairInterference::compute(&set, JobId::new(2), JobId::new(2));
        assert!(self_pair.interferes());
    }
}
