//! The naive reference transcription of the paper's delay bounds — the
//! test oracle the shipped [`DelayEvaluator`](crate::DelayEvaluator) is
//! checked against.
//!
//! Every method of [`ReferenceBounds`] recomputes one bound from scratch
//! in `O(|H_i|·N)`, reading one [`PairInterference`] per ordered job pair
//! and taking its interference sets as an [`InterferenceSets`] value. No
//! engine, service or binary runs this code: the property suites, the
//! frozen-oracle corpus and the `delay_bound_naive/*` kernel series do.
//! The formulas are written out as the paper states them, so a reader can
//! check them against the equations line by line.

use msmr_model::{JobId, JobSet, StageId, Time};

use crate::DelayBoundKind;

pub use crate::context::InterferenceSets;
pub use crate::pair::PairInterference;

/// The naive delay bounds of one [`JobSet`] over its eagerly built
/// `n²` [`PairInterference`] table.
#[derive(Debug)]
pub struct ReferenceBounds<'a> {
    jobs: &'a JobSet,
    /// One entry per ordered pair, indexed `target·n + interferer`.
    pairs: Vec<PairInterference>,
}

impl<'a> ReferenceBounds<'a> {
    /// Computes the interference data of every ordered pair of `jobs`
    /// (`O(n²·N)`).
    #[must_use]
    pub fn new(jobs: &'a JobSet) -> Self {
        let n = jobs.len();
        let mut pairs = Vec::with_capacity(n * n);
        for i in 0..n {
            for k in 0..n {
                pairs.push(PairInterference::compute(
                    jobs,
                    JobId::new(i),
                    JobId::new(k),
                ));
            }
        }
        ReferenceBounds { jobs, pairs }
    }

    /// The job set the bounds describe.
    #[must_use]
    pub fn jobs(&self) -> &'a JobSet {
        self.jobs
    }

    /// Precomputed interference data of the ordered pair
    /// *(target, interferer)*.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range, in every build: a flat index
    /// `target·n + interferer` that happens to stay in bounds would
    /// otherwise return another pair's data.
    #[must_use]
    pub fn pair(&self, target: JobId, interferer: JobId) -> &PairInterference {
        let n = self.jobs.len();
        assert!(
            target.index() < n && interferer.index() < n,
            "job id out of range"
        );
        &self.pairs[target.index() * n + interferer.index()]
    }

    /// The higher-priority jobs of `ctx` that can actually interfere with
    /// `target` (overlapping windows), i.e. the effective `H_i`.
    fn effective_higher(&self, target: JobId, ctx: &InterferenceSets) -> Vec<JobId> {
        ctx.higher()
            .iter()
            .copied()
            .filter(|&k| k != target && self.pair(target, k).interferes())
            .collect()
    }

    /// The lower-priority jobs of `ctx` that can actually interfere with
    /// `target`, i.e. the effective `L_i`.
    fn effective_lower(&self, target: JobId, ctx: &InterferenceSets) -> Vec<JobId> {
        ctx.lower()
            .iter()
            .copied()
            .filter(|&k| k != target && self.pair(target, k).interferes())
            .collect()
    }

    /// Stage-additive component `Σ_{j=1}^{N-1} max_{k ∈ Q_i} ep_{k,j}`
    /// (shared-stage variant, used by Eqs. 3–6 and 10).
    fn stage_additive_shared(&self, target: JobId, higher: &[JobId]) -> Time {
        let n_stages = self.jobs.stage_count();
        let mut total = Time::ZERO;
        for j in 0..n_stages.saturating_sub(1) {
            let stage = StageId::new(j);
            let mut max = self.jobs.job(target).processing(stage);
            for &k in higher {
                max = max.max(self.pair(target, k).ep(stage));
            }
            total += max;
        }
        total
    }

    /// Stage-additive component over raw processing times
    /// `Σ_{j=1}^{N-1} max_{k ∈ Q_i} P_{k,j}` (single-resource variant,
    /// Eqs. 1 and 2).
    fn stage_additive_raw(&self, target: JobId, higher: &[JobId]) -> Time {
        let n_stages = self.jobs.stage_count();
        let mut total = Time::ZERO;
        for j in 0..n_stages.saturating_sub(1) {
            let stage = StageId::new(j);
            let mut max = self.jobs.job(target).processing(stage);
            for &k in higher {
                max = max.max(self.jobs.job(k).processing(stage));
            }
            total += max;
        }
        total
    }

    /// Eq. 1 — preemptive scheduling in a multi-stage **single-resource**
    /// pipeline.
    ///
    /// `Δ_i ≤ Σ_{k∈Q_i} t_{k,1} + Σ_{k∈H^a_i} t_{k,2}
    ///        + Σ_{j=1}^{N-1} max_{k∈Q_i} P_{k,j}`
    ///
    /// where `H^a_i ⊆ H_i` contains the higher-priority jobs arriving
    /// strictly after the target.
    #[must_use]
    pub fn preemptive_single_resource_bound(&self, target: JobId, ctx: &InterferenceSets) -> Time {
        let higher = self.effective_higher(target, ctx);
        let target_job = self.jobs.job(target);
        let mut delta = target_job.max_processing();
        for &k in &higher {
            let job_k = self.jobs.job(k);
            delta += job_k.max_processing();
            if job_k.arrival() > target_job.arrival() {
                delta += job_k.nth_max_processing(2);
            }
        }
        delta + self.stage_additive_raw(target, &higher)
    }

    /// Eq. 2 — non-preemptive scheduling in a single-resource pipeline.
    ///
    /// `Δ_i ≤ Σ_{k∈Q_i} t_{k,1} + Σ_{j=1}^{N-1} max_{k∈Q_i} P_{k,j}
    ///        + Σ_{j=1}^{N} max_{k∈L_i} P_{k,j}`
    ///
    /// This bound depends on the *content* of `L_i` and is therefore not
    /// OPA-compatible (Observation IV.2).
    #[must_use]
    pub fn non_preemptive_single_resource_bound(
        &self,
        target: JobId,
        ctx: &InterferenceSets,
    ) -> Time {
        let higher = self.effective_higher(target, ctx);
        let lower = self.effective_lower(target, ctx);
        let mut delta = self.jobs.job(target).max_processing();
        for &k in &higher {
            delta += self.jobs.job(k).max_processing();
        }
        delta += self.stage_additive_raw(target, &higher);
        for j in 0..self.jobs.stage_count() {
            let stage = StageId::new(j);
            let blocking = lower
                .iter()
                .map(|&k| self.jobs.job(k).processing(stage))
                .max()
                .unwrap_or(Time::ZERO);
            delta += blocking;
        }
        delta
    }

    /// Eq. 3 — preemptive MSMR bound with `2·m_{i,k}` job-additive terms
    /// per job of `Q_i` (one pair of terms per shared segment).
    ///
    /// `Δ_i ≤ Σ_{k∈Q_i} 2·m_{i,k}·et_{k,1}
    ///        + Σ_{j=1}^{N-1} max_{k∈Q_i} ep_{k,j}`
    ///
    /// The formula is evaluated literally (including the factor 2 for the
    /// target's own single segment), exactly as stated in the paper; the
    /// refined Eq. 6 ([`ReferenceBounds::refined_preemptive_bound`])
    /// removes that pessimism and is the bound used by the scheduling
    /// algorithms.
    #[must_use]
    pub fn preemptive_msmr_bound(&self, target: JobId, ctx: &InterferenceSets) -> Time {
        let higher = self.effective_higher(target, ctx);
        let mut delta = Time::ZERO;
        let self_pair = self.pair(target, target);
        delta += job_additive_scaled(self_pair, 2 * self_pair.segment_count());
        for &k in &higher {
            let pair = self.pair(target, k);
            delta += job_additive_scaled(pair, 2 * pair.segment_count());
        }
        delta + self.stage_additive_shared(target, &higher)
    }

    /// Eq. 4 — non-preemptive MSMR bound.
    ///
    /// `Δ_i ≤ Σ_{k∈Q_i} m_{i,k}·et_{k,1}
    ///        + Σ_{j=1}^{N-1} max_{k∈Q_i} ep_{k,j}
    ///        + Σ_{j=1}^{N} max_{k∈L_i} ep_{k,j}`
    ///
    /// Like Eq. 2 this depends on the content of `L_i`, so it is
    /// OPA-incompatible; it is however valid (and less pessimistic than
    /// Eq. 5) for checking a *given* assignment, e.g. inside the pairwise
    /// algorithms of §V.
    #[must_use]
    pub fn non_preemptive_msmr_bound(&self, target: JobId, ctx: &InterferenceSets) -> Time {
        let higher = self.effective_higher(target, ctx);
        let lower = self.effective_lower(target, ctx);
        self.non_preemptive_core(target, &higher) + self.blocking_all_stages(target, &lower)
    }

    /// Eq. 5 — OPA-compatible non-preemptive MSMR bound: the blocking term
    /// is taken over every other job instead of `L_i`.
    ///
    /// `Δ_i ≤ Σ_{k∈Q_i} m_{i,k}·et_{k,1}
    ///        + Σ_{j=1}^{N-1} max_{k∈Q_i} ep_{k,j}
    ///        + Σ_{j=1}^{N} max_{k∈J∖J_i} ep_{k,j}`
    #[must_use]
    pub fn non_preemptive_opa_bound(&self, target: JobId, ctx: &InterferenceSets) -> Time {
        let higher = self.effective_higher(target, ctx);
        let everyone_else: Vec<JobId> = self
            .jobs
            .job_ids()
            .filter(|&k| k != target && self.pair(target, k).interferes())
            .collect();
        self.non_preemptive_core(target, &higher) + self.blocking_all_stages(target, &everyone_else)
    }

    /// Shared part of Eqs. 4 and 5: job-additive `m_{i,k}·et_{k,1}` terms
    /// plus the stage-additive component.
    fn non_preemptive_core(&self, target: JobId, higher: &[JobId]) -> Time {
        let mut delta = Time::ZERO;
        let self_pair = self.pair(target, target);
        delta += job_additive_scaled(self_pair, self_pair.segment_count());
        for &k in higher {
            let pair = self.pair(target, k);
            delta += job_additive_scaled(pair, pair.segment_count());
        }
        delta + self.stage_additive_shared(target, higher)
    }

    /// `Σ_{j=1}^{N} max_{k ∈ blockers} ep_{k,j}`.
    fn blocking_all_stages(&self, target: JobId, blockers: &[JobId]) -> Time {
        let mut total = Time::ZERO;
        for j in 0..self.jobs.stage_count() {
            let stage = StageId::new(j);
            let blocking = blockers
                .iter()
                .map(|&k| self.pair(target, k).ep(stage))
                .max()
                .unwrap_or(Time::ZERO);
            total += blocking;
        }
        total
    }

    /// Eq. 6 — refined preemptive MSMR bound.
    ///
    /// `Δ_i ≤ Σ_{k∈Q_i} Σ_{x=1}^{w_{i,k}} et_{k,x}
    ///        + Σ_{j=1}^{N-1} max_{k∈Q_i} ep_{k,j}`
    ///
    /// with `w_{i,i} = 1`: a single-stage segment contributes one
    /// job-additive term, a longer segment two (joining and leaving the
    /// shared pipeline portion).
    #[must_use]
    pub fn refined_preemptive_bound(&self, target: JobId, ctx: &InterferenceSets) -> Time {
        let higher = self.effective_higher(target, ctx);
        let mut delta = self.jobs.job(target).max_processing(); // w_{i,i} = 1
        for &k in &higher {
            let pair = self.pair(target, k);
            delta += pair.sum_of_largest(pair.job_additive_terms());
        }
        delta + self.stage_additive_shared(target, &higher)
    }

    /// Eq. 10 — the edge-computing bound used in §VI: the refined
    /// preemptive interference of Eq. 6 plus one blocking term
    /// `max_{k∈L_i} ep_{k,N}` for the non-preemptive last stage (download
    /// through an access point).
    ///
    /// The paper notes that with simultaneous release (`H^a_i = ∅`) and
    /// blocking only at the last stage this bound remains OPA-compatible
    /// even though the blocking term ranges over `L_i`.
    #[must_use]
    pub fn edge_hybrid_bound(&self, target: JobId, ctx: &InterferenceSets) -> Time {
        let last = StageId::new(self.jobs.stage_count() - 1);
        let blocking = self
            .effective_lower(target, ctx)
            .iter()
            .map(|&k| self.pair(target, k).ep(last))
            .max()
            .unwrap_or(Time::ZERO);
        self.refined_preemptive_bound(target, ctx) + blocking
    }

    /// Evaluates the bound selected by `kind`.
    #[must_use]
    pub fn delay_bound(&self, kind: DelayBoundKind, target: JobId, ctx: &InterferenceSets) -> Time {
        match kind {
            DelayBoundKind::PreemptiveSingleResource => {
                self.preemptive_single_resource_bound(target, ctx)
            }
            DelayBoundKind::NonPreemptiveSingleResource => {
                self.non_preemptive_single_resource_bound(target, ctx)
            }
            DelayBoundKind::PreemptiveMsmr => self.preemptive_msmr_bound(target, ctx),
            DelayBoundKind::NonPreemptiveMsmr => self.non_preemptive_msmr_bound(target, ctx),
            DelayBoundKind::NonPreemptiveOpa => self.non_preemptive_opa_bound(target, ctx),
            DelayBoundKind::RefinedPreemptive => self.refined_preemptive_bound(target, ctx),
            DelayBoundKind::EdgeHybrid => self.edge_hybrid_bound(target, ctx),
        }
    }

    /// Returns `true` if the bound selected by `kind` keeps the target
    /// within its end-to-end deadline, i.e. `Δ_i ≤ D_i`.
    #[must_use]
    pub fn meets_deadline(
        &self,
        kind: DelayBoundKind,
        target: JobId,
        ctx: &InterferenceSets,
    ) -> bool {
        self.delay_bound(kind, target, ctx) <= self.jobs.job(target).deadline()
    }
}

/// `scale · et_{k,1}` — helper for the `m_{i,k}`-scaled job-additive terms
/// of Eqs. 3–5.
fn job_additive_scaled(pair: &PairInterference, scale: usize) -> Time {
    let base = pair.max_shared().as_ticks();
    Time::new(base * scale as u64)
}
