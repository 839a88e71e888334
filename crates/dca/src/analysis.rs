//! Delay-bound evaluation over a precomputed interference table.

use std::sync::OnceLock;

use msmr_model::{JobId, JobSet, StageId, Time};

use crate::{DelayBoundKind, InterferenceSets, PairInterference, PairTables};

/// Precomputed delay composition analysis of one [`JobSet`].
///
/// Construction is `O(n²·N)`: for every ordered pair of jobs the segment
/// structure and shared-stage processing times are computed once. Every
/// delay-bound evaluation afterwards is `O(|H_i|·N)`, which keeps the
/// `O(n²)` schedulability-test invocations of OPA and the many evaluations
/// of the pairwise branch-and-bound search cheap.
///
/// See the crate-level documentation for the mapping between methods and
/// paper equations.
#[derive(Debug)]
pub struct Analysis<'a> {
    jobs: &'a JobSet,
    /// The rich per-pair objects backing the reference bounds. Built
    /// lazily: the incremental hot path ([`crate::DelayEvaluator`]) reads
    /// only the flat `tables`, so callers that never touch a reference
    /// bound skip this `O(n²)` allocation-heavy pass entirely.
    pairs: OnceLock<Vec<PairInterference>>,
    tables: PairTables,
}

impl Clone for Analysis<'_> {
    fn clone(&self) -> Self {
        let pairs = OnceLock::new();
        if let Some(values) = self.pairs.get() {
            let _ = pairs.set(values.clone());
        }
        Analysis {
            jobs: self.jobs,
            pairs,
            tables: self.tables.clone(),
        }
    }
}

impl<'a> Analysis<'a> {
    /// Precomputes the pairwise interference tables of `jobs` (one flat
    /// `O(n²·N)` pass; the per-pair [`PairInterference`] objects of the
    /// reference paths are materialised on first use).
    #[must_use]
    pub fn new(jobs: &'a JobSet) -> Self {
        let tables = PairTables::build(jobs);
        Analysis {
            jobs,
            pairs: OnceLock::new(),
            tables,
        }
    }

    /// Re-assembles an analysis from already-built [`PairTables`] —
    /// the cross-request caching entry point: a long-running admission
    /// session keeps the tables alive (extending them per arrival via
    /// [`PairTables::extend_with_job`]) and wraps them in a fresh
    /// `Analysis` per query instead of paying [`Analysis::new`]'s
    /// `O(n²·N)` pass again.
    ///
    /// # Panics
    ///
    /// Panics if the tables do not describe `jobs` (job or stage count
    /// mismatch). The per-pair *values* are trusted; callers must pass the
    /// job set the tables were built from (and extended with).
    #[must_use]
    pub fn from_tables(jobs: &'a JobSet, tables: PairTables) -> Self {
        assert_eq!(
            tables.job_count(),
            jobs.len(),
            "tables were built for a different number of jobs"
        );
        assert_eq!(
            tables.stage_count(),
            jobs.stage_count(),
            "tables were built for a different pipeline"
        );
        Analysis {
            jobs,
            pairs: OnceLock::new(),
            tables,
        }
    }

    /// Releases the precomputed tables for reuse (the counterpart of
    /// [`Analysis::from_tables`]).
    #[must_use]
    pub fn into_tables(self) -> PairTables {
        self.tables
    }

    /// Extends the analysis with the one job that `jobs` appends to the
    /// analysed set, reusing every already-computed pair: only the new
    /// job's row and column of the pair tables are computed (`O(n·N)`
    /// instead of the `O(n²·N)` rebuild of [`Analysis::new`]). The
    /// returned analysis borrows the extended job set and is bit-identical
    /// to `Analysis::new(jobs)` for every bound (property-tested).
    ///
    /// The lazily-built reference pair objects are discarded (their dense
    /// `n×n` layout cannot be extended in place); they re-materialise on
    /// the next reference-bound evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` does not extend the analysed set by exactly one
    /// job or changes the pipeline.
    #[must_use]
    pub fn extend_with_job(self, jobs: &JobSet) -> Analysis<'_> {
        let mut tables = self.tables;
        tables.extend_with_job(jobs);
        Analysis {
            jobs,
            pairs: OnceLock::new(),
            tables,
        }
    }

    /// The lazily-built per-pair interference objects, indexed
    /// `target·n + interferer`.
    fn pair_table(&self) -> &[PairInterference] {
        self.pairs.get_or_init(|| {
            let n = self.jobs.len();
            let mut pairs = Vec::with_capacity(n * n);
            for i in 0..n {
                for k in 0..n {
                    pairs.push(PairInterference::compute(
                        self.jobs,
                        JobId::new(i),
                        JobId::new(k),
                    ));
                }
            }
            pairs
        })
    }

    /// The job set being analysed (with the full borrow lifetime, so the
    /// reference can outlive the analysis value itself).
    #[must_use]
    pub fn jobs(&self) -> &'a JobSet {
        self.jobs
    }

    /// The flat struct-of-arrays projection of the pair table used by
    /// [`DelayEvaluator`](crate::DelayEvaluator).
    #[must_use]
    pub fn tables(&self) -> &PairTables {
        &self.tables
    }

    /// Precomputed interference data of the ordered pair
    /// *(target, interferer)*.
    ///
    /// Ids are range-checked in debug builds only (this lookup sits on the
    /// reference evaluation hot path); out-of-range ids in release builds
    /// either panic on the underlying slice index or — when
    /// `target·n + interferer` happens to stay in bounds — return data of
    /// a different pair.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either id is out of range.
    #[must_use]
    pub fn pair(&self, target: JobId, interferer: JobId) -> &PairInterference {
        let n = self.jobs.len();
        debug_assert!(
            target.index() < n && interferer.index() < n,
            "job id out of range"
        );
        &self.pair_table()[target.index() * n + interferer.index()]
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
    /// refined Eq. 6 ([`Analysis::refined_preemptive_bound`]) removes that
    /// pessimism and is the bound used by the scheduling algorithms.
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

    /// Generalised hybrid bound: the refined preemptive interference of
    /// Eq. 6 plus a non-preemptive blocking term
    /// `max_{k∈L_i} ep_{k,j}` for every stage in `blocking_stages`.
    ///
    /// [`Analysis::edge_hybrid_bound`] (paper Eq. 10) is the special case
    /// with blocking at the last stage only.
    #[must_use]
    pub fn hybrid_bound(
        &self,
        target: JobId,
        ctx: &InterferenceSets,
        blocking_stages: &[StageId],
    ) -> Time {
        let lower = self.effective_lower(target, ctx);
        let mut delta = self.refined_preemptive_bound(target, ctx);
        for &stage in blocking_stages {
            let blocking = lower
                .iter()
                .map(|&k| self.pair(target, k).ep(stage))
                .max()
                .unwrap_or(Time::ZERO);
            delta += blocking;
        }
        delta
    }

    /// Eq. 10 — the edge-computing bound used in §VI: preemptive analysis
    /// for every stage plus one blocking term for the non-preemptive last
    /// stage (download through an access point).
    ///
    /// The paper notes that with simultaneous release (`H^a_i = ∅`) and
    /// blocking only at the last stage this bound remains OPA-compatible
    /// even though the blocking term ranges over `L_i`.
    #[must_use]
    pub fn edge_hybrid_bound(&self, target: JobId, ctx: &InterferenceSets) -> Time {
        let last = StageId::new(self.jobs.stage_count() - 1);
        self.hybrid_bound(target, ctx, &[last])
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

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy};

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    /// Example 1 of the paper: three-stage single-resource pipeline with
    /// four jobs whose stage-processing times are ⟨5,7,15⟩, ⟨7,9,17⟩,
    /// ⟨6,8,30⟩ and ⟨2,4,3⟩. Deadlines are irrelevant for the delay values.
    fn example1() -> msmr_model::JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("s1", 1, PreemptionPolicy::NonPreemptive)
            .stage("s2", 1, PreemptionPolicy::NonPreemptive)
            .stage("s3", 1, PreemptionPolicy::NonPreemptive);
        for times in [[5u64, 7, 15], [7, 9, 17], [6, 8, 30], [2, 4, 3]] {
            b.job()
                .deadline(Time::new(1_000))
                .stage_time(Time::new(times[0]), 0)
                .stage_time(Time::new(times[1]), 0)
                .stage_time(Time::new(times[2]), 0)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    /// The Observation V.1 system: Example 1 processing times, the
    /// job-to-resource mapping of Figure 2(a) and deadlines {60,55,55,50}.
    fn observation_v1() -> msmr_model::JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("s1", 2, PreemptionPolicy::Preemptive)
            .stage("s2", 2, PreemptionPolicy::Preemptive)
            .stage("s3", 2, PreemptionPolicy::Preemptive);
        // J1 <5,7,15>, D=60: S1 resource 0, S2/S3 resource 1.
        b.job()
            .deadline(Time::new(60))
            .stage_time(Time::new(5), 0)
            .stage_time(Time::new(7), 1)
            .stage_time(Time::new(15), 1)
            .add()
            .unwrap();
        // J2 <7,9,17>, D=55: S1 resource 1, S2/S3 resource 1.
        b.job()
            .deadline(Time::new(55))
            .stage_time(Time::new(7), 1)
            .stage_time(Time::new(9), 1)
            .stage_time(Time::new(17), 1)
            .add()
            .unwrap();
        // J3 <6,8,30>, D=55: S1 resource 0, S2/S3 resource 0.
        b.job()
            .deadline(Time::new(55))
            .stage_time(Time::new(6), 0)
            .stage_time(Time::new(8), 0)
            .stage_time(Time::new(30), 0)
            .add()
            .unwrap();
        // J4 <2,4,3>, D=50: S1 resource 1, S2/S3 resource 0.
        b.job()
            .deadline(Time::new(50))
            .stage_time(Time::new(2), 1)
            .stage_time(Time::new(4), 0)
            .stage_time(Time::new(3), 0)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn example1_eq2_reproduces_observation_iv2() {
        let jobs = example1();
        let analysis = Analysis::new(&jobs);
        // Priority ordering J1 > J2 > J3 > J4 (ids 0..3): Δ_2 (job id 1).
        let order = [jid(0), jid(1), jid(2), jid(3)];
        let ctx = InterferenceSets::from_total_order(&order, jid(1));
        assert_eq!(
            analysis.non_preemptive_single_resource_bound(jid(1), &ctx),
            Time::new(92)
        );
        // Swapping J2 and J3 *reduces* Δ_2 to 87 even though J2 moved to a
        // lower priority — the violation of OPA-compatibility condition 3.
        let swapped = [jid(0), jid(2), jid(1), jid(3)];
        let ctx = InterferenceSets::from_total_order(&swapped, jid(1));
        assert_eq!(
            analysis.non_preemptive_single_resource_bound(jid(1), &ctx),
            Time::new(87)
        );
    }

    #[test]
    fn example1_eq4_matches_eq2_on_single_resource_pipelines() {
        // With a single resource per stage every pair shares every stage,
        // so the MSMR bound of Eq. 4 degenerates to Eq. 2.
        let jobs = example1();
        let analysis = Analysis::new(&jobs);
        for target in 0..4 {
            let order = [jid(0), jid(1), jid(2), jid(3)];
            let ctx = InterferenceSets::from_total_order(&order, jid(target));
            assert_eq!(
                analysis.non_preemptive_msmr_bound(jid(target), &ctx),
                analysis.non_preemptive_single_resource_bound(jid(target), &ctx),
            );
        }
    }

    #[test]
    fn eq5_is_at_least_eq4() {
        let jobs = example1();
        let analysis = Analysis::new(&jobs);
        for target in 0..4 {
            let order = [jid(3), jid(2), jid(1), jid(0)];
            let ctx = InterferenceSets::from_total_order(&order, jid(target));
            assert!(
                analysis.non_preemptive_opa_bound(jid(target), &ctx)
                    >= analysis.non_preemptive_msmr_bound(jid(target), &ctx)
            );
        }
    }

    #[test]
    fn eq3_is_at_least_eq6() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        for target in 0..4 {
            let order = [jid(0), jid(1), jid(2), jid(3)];
            let ctx = InterferenceSets::from_total_order(&order, jid(target));
            assert!(
                analysis.preemptive_msmr_bound(jid(target), &ctx)
                    >= analysis.refined_preemptive_bound(jid(target), &ctx)
            );
        }
    }

    #[test]
    fn observation_v1_pairwise_delays_under_eq6() {
        // Pairwise assignment of Figure 2(b): J3>J1, J1>J2, J2>J4, J4>J3.
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        // Target J1 (id 0): higher = {J3}.
        let ctx = InterferenceSets::new([jid(2)], [jid(1)]);
        assert_eq!(
            analysis.refined_preemptive_bound(jid(0), &ctx),
            Time::new(34)
        );
        // Target J2 (id 1): higher = {J1}.
        let ctx = InterferenceSets::new([jid(0)], [jid(3)]);
        assert_eq!(
            analysis.refined_preemptive_bound(jid(1), &ctx),
            Time::new(55)
        );
        // Target J3 (id 2): higher = {J4}.
        let ctx = InterferenceSets::new([jid(3)], [jid(0)]);
        assert_eq!(
            analysis.refined_preemptive_bound(jid(2), &ctx),
            Time::new(51)
        );
        // Target J4 (id 3): higher = {J2}.
        let ctx = InterferenceSets::new([jid(1)], [jid(2)]);
        assert_eq!(
            analysis.refined_preemptive_bound(jid(3), &ctx),
            Time::new(22)
        );
    }

    #[test]
    fn observation_v1_no_job_can_take_lowest_priority() {
        // With all three other jobs at higher priority, every job misses
        // its deadline under Eq. 6 — the first OPA step fails, so no total
        // priority ordering exists.
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let expected = [62u64, 57, 56, 64];
        for (target, &want) in expected.iter().enumerate() {
            let higher: Vec<JobId> = (0..4).filter(|&k| k != target).map(jid).collect();
            let ctx = InterferenceSets::new(higher, []);
            let delta = analysis.refined_preemptive_bound(jid(target), &ctx);
            assert_eq!(delta, Time::new(want));
            assert!(delta > jobs.job(jid(target)).deadline());
        }
    }

    #[test]
    fn isolated_job_delay_is_its_largest_plus_other_stage_times() {
        // With no interference, Eq. 6 reduces to t_{i,1} plus the
        // processing of every stage but the last... i.e. for a job alone,
        // the stage-additive component is its own processing on stages
        // 1..N-1 and the job-additive component is its largest stage time.
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let ctx = InterferenceSets::default();
        // J1 <5,7,15>: 15 + (5 + 7) = 27.
        assert_eq!(
            analysis.refined_preemptive_bound(jid(0), &ctx),
            Time::new(27)
        );
    }

    #[test]
    fn higher_priority_job_never_decreases_compatible_bounds() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        for kind in [
            DelayBoundKind::PreemptiveSingleResource,
            DelayBoundKind::PreemptiveMsmr,
            DelayBoundKind::NonPreemptiveOpa,
            DelayBoundKind::RefinedPreemptive,
            DelayBoundKind::EdgeHybrid,
        ] {
            let base = analysis.delay_bound(kind, jid(0), &InterferenceSets::default());
            let with_one = analysis.delay_bound(kind, jid(0), &InterferenceSets::new([jid(1)], []));
            let with_two =
                analysis.delay_bound(kind, jid(0), &InterferenceSets::new([jid(1), jid(2)], []));
            assert!(
                with_one >= base,
                "{kind}: adding interference reduced the bound"
            );
            assert!(with_two >= with_one);
        }
    }

    #[test]
    fn non_interfering_jobs_are_ignored() {
        // A job whose window does not overlap contributes nothing.
        let mut b = JobSetBuilder::new();
        b.stage("s", 1, PreemptionPolicy::Preemptive)
            .stage("t", 1, PreemptionPolicy::Preemptive);
        b.job()
            .arrival(Time::new(0))
            .deadline(Time::new(20))
            .stage_time(Time::new(4), 0)
            .stage_time(Time::new(6), 0)
            .add()
            .unwrap();
        b.job()
            .arrival(Time::new(1_000))
            .deadline(Time::new(20))
            .stage_time(Time::new(9), 0)
            .stage_time(Time::new(9), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let analysis = Analysis::new(&jobs);
        let alone = analysis.refined_preemptive_bound(jid(0), &InterferenceSets::default());
        let with_far_future_job =
            analysis.refined_preemptive_bound(jid(0), &InterferenceSets::new([jid(1)], []));
        assert_eq!(alone, with_far_future_job);
    }

    #[test]
    fn edge_hybrid_adds_last_stage_blocking() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        // Target J1 (id 0), higher {J3}, lower {J2}: J2 shares stages 2 and
        // 3 with J1, so blocking at the last stage adds ep_{2,3} = 17.
        let ctx = InterferenceSets::new([jid(2)], [jid(1)]);
        let preemptive = analysis.refined_preemptive_bound(jid(0), &ctx);
        let hybrid = analysis.edge_hybrid_bound(jid(0), &ctx);
        assert_eq!(hybrid, preemptive + Time::new(17));
        // Blocking over an explicitly chosen stage set matches.
        let last = StageId::new(2);
        assert_eq!(analysis.hybrid_bound(jid(0), &ctx, &[last]), hybrid);
        assert_eq!(analysis.hybrid_bound(jid(0), &ctx, &[]), preemptive);
    }

    #[test]
    fn eq1_accounts_for_late_arriving_higher_priority_jobs() {
        let mut b = JobSetBuilder::new();
        b.stage("s", 1, PreemptionPolicy::Preemptive)
            .stage("t", 1, PreemptionPolicy::Preemptive);
        // Target arrives first.
        b.job()
            .arrival(Time::new(0))
            .deadline(Time::new(100))
            .stage_time(Time::new(10), 0)
            .stage_time(Time::new(20), 0)
            .add()
            .unwrap();
        // Higher-priority job arriving later: contributes t_{k,1} and
        // t_{k,2}.
        b.job()
            .arrival(Time::new(5))
            .deadline(Time::new(100))
            .stage_time(Time::new(8), 0)
            .stage_time(Time::new(3), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let analysis = Analysis::new(&jobs);
        let ctx = InterferenceSets::new([jid(1)], []);
        // Q = {0,1}: t_{0,1}=20, t_{1,1}=8; H^a: t_{1,2}=3;
        // stage-additive j=1: max(10, 8) = 10. Total = 41.
        assert_eq!(
            analysis.preemptive_single_resource_bound(jid(0), &ctx),
            Time::new(41)
        );
        // If the higher-priority job arrived together with the target, the
        // extra t_{k,2} term disappears.
        let mut b = JobSetBuilder::new();
        b.stage("s", 1, PreemptionPolicy::Preemptive)
            .stage("t", 1, PreemptionPolicy::Preemptive);
        b.job()
            .arrival(Time::new(0))
            .deadline(Time::new(100))
            .stage_time(Time::new(10), 0)
            .stage_time(Time::new(20), 0)
            .add()
            .unwrap();
        b.job()
            .arrival(Time::new(0))
            .deadline(Time::new(100))
            .stage_time(Time::new(8), 0)
            .stage_time(Time::new(3), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let analysis = Analysis::new(&jobs);
        let ctx = InterferenceSets::new([jid(1)], []);
        assert_eq!(
            analysis.preemptive_single_resource_bound(jid(0), &ctx),
            Time::new(38)
        );
    }

    #[test]
    fn delay_bound_dispatch_matches_direct_calls() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let order = [jid(2), jid(0), jid(1), jid(3)];
        let ctx = InterferenceSets::from_total_order(&order, jid(1));
        assert_eq!(
            analysis.delay_bound(DelayBoundKind::RefinedPreemptive, jid(1), &ctx),
            analysis.refined_preemptive_bound(jid(1), &ctx)
        );
        assert_eq!(
            analysis.delay_bound(DelayBoundKind::NonPreemptiveOpa, jid(1), &ctx),
            analysis.non_preemptive_opa_bound(jid(1), &ctx)
        );
        assert_eq!(
            analysis.delay_bound(DelayBoundKind::EdgeHybrid, jid(1), &ctx),
            analysis.edge_hybrid_bound(jid(1), &ctx)
        );
    }

    #[test]
    fn meets_deadline_compares_against_job_deadline() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        // J1 alone: Δ = 27 ≤ 60.
        assert!(analysis.meets_deadline(
            DelayBoundKind::RefinedPreemptive,
            jid(0),
            &InterferenceSets::default()
        ));
        // J4 with everyone higher: Δ = 64 > 50.
        let ctx = InterferenceSets::new([jid(0), jid(1), jid(2)], []);
        assert!(!analysis.meets_deadline(DelayBoundKind::RefinedPreemptive, jid(3), &ctx));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "out of range"))]
    fn pair_lookup_panics_on_bad_id_in_debug_builds() {
        let jobs = example1();
        let analysis = Analysis::new(&jobs);
        let _ = analysis.pair(jid(0), jid(9));
    }
}
