//! Incremental, allocation-free delay-bound evaluation.

use msmr_model::{JobId, Time};

use crate::tables::JobAdditive;
use crate::{Analysis, DelayBoundKind, JobMask, PairTables};

/// Incremental evaluator of one delay bound over *all* targets of a job
/// set — the library's one bound implementation, run by every engine.
///
/// Recomputing a bound from scratch costs `O(|H_i|·N)` (that is what the
/// test oracle [`ReferenceBounds`](crate::reference::ReferenceBounds)
/// does); search algorithms, however, move between *neighbouring*
/// interference configurations — a branch-and-bound node orients one
/// pair, Audsley's loop moves one job from "higher" to "lower", DMR's
/// repair flips one pair. `DelayEvaluator` maintains, per target job,
///
/// * the running job-additive sum (one addition/subtraction per change),
/// * the per-stage maxima of the stage-additive component together with
///   their running sum, and
/// * the per-stage blocking maxima of the bound's lower-priority term
///   (where the bound has one),
///
/// so [`DelayEvaluator::add_higher`], [`DelayEvaluator::remove_higher`],
/// [`DelayEvaluator::add_lower`] and [`DelayEvaluator::remove_lower`] cost
/// `O(N)` and [`DelayEvaluator::delay`] is `O(1)`. Removing a job that
/// holds a stage maximum triggers an exact recompute of that stage's
/// maximum over the remaining members (the only `O(|H_i|)` path).
/// Audsley's loop uses the fused [`DelayEvaluator::demote`] and sets a
/// target's whole state at once with [`DelayEvaluator::seed_target`];
/// [`DelayEvaluator::into_state`] and [`DelayEvaluator::with_state`] carry
/// the aggregates from one decision to the next.
///
/// After construction no operation allocates (job populations above 128
/// pre-size their [`JobMask`] spill words up front), which is what keeps
/// the OPT branch-and-bound allocation-free per search node.
///
/// Membership is tracked in *effective* terms: jobs whose interference
/// windows do not overlap the target are ignored by every operation. The
/// aggregates are exact integer arithmetic over the same precomputed ticks
/// the reference reads, so for every reachable state `evaluator.delay(i)`
/// is bit-identical to
/// [`ReferenceBounds::delay_bound`](crate::reference::ReferenceBounds::delay_bound)
/// with the corresponding
/// [`InterferenceSets`](crate::reference::InterferenceSets) — a property
/// the test suite asserts for all seven [`DelayBoundKind`]s.
///
/// # Example
///
/// ```
/// use msmr_dca::{Analysis, DelayBoundKind};
/// use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
///
/// # fn main() -> Result<(), msmr_model::ModelError> {
/// let mut b = JobSetBuilder::new();
/// b.stage("cpu", 1, PreemptionPolicy::Preemptive);
/// b.job().deadline(Time::new(20)).stage_time(Time::new(4), 0).add()?;
/// b.job().deadline(Time::new(20)).stage_time(Time::new(9), 0).add()?;
/// let jobs = b.build()?;
/// let analysis = Analysis::new(&jobs);
///
/// let mut eval = analysis.evaluator(DelayBoundKind::RefinedPreemptive);
/// assert_eq!(eval.delay(0.into()), Time::new(4));
/// // Job 1 above job 0 adds its 9 to job 0's delay.
/// eval.add_higher(0.into(), 1.into());
/// assert_eq!(eval.delay(0.into()), Time::new(13));
/// assert!(eval.fits(0.into()));
/// assert_eq!(eval.slack(0.into()), 7);
/// eval.remove_higher(0.into(), 1.into());
/// assert_eq!(eval.delay(0.into()), Time::new(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DelayEvaluator<'a> {
    tables: &'a PairTables,
    /// The bound's job-additive scalars, each read at its own stride.
    job_additive: JobAdditive<'a>,
    /// `true` when the stage-additive component reads raw processing
    /// times (Eqs. 1 and 2) instead of shared-stage times.
    raw_stage_values: bool,
    /// Number of stage-additive stages (`N − 1`).
    add_stages: usize,
    /// Stages carrying a dynamic lower-priority blocking term.
    block_stages: Vec<usize>,
    /// `true` when the blocking term reads raw processing times (Eq. 2).
    raw_block_values: bool,
    /// Per-target constant: self term plus, for Eq. 5, the
    /// content-independent blocking sum.
    base: Vec<u64>,
    /// The per-target aggregates.
    state: EvaluatorState,
}

/// The per-target aggregates of a [`DelayEvaluator`], moved out with
/// [`DelayEvaluator::into_state`] and stamped with the
/// [`PairTables::generation`] they were computed from, so a later
/// [`DelayEvaluator::with_state`] resumes them without re-seeding.
pub struct EvaluatorState {
    /// Generation of the tables the aggregates describe.
    generation: u64,
    kind: DelayBoundKind,
    /// Per-target running job-additive sum over `H_i`.
    ja_sum: Vec<u64>,
    /// Per-target, per-stage maxima of the stage-additive component,
    /// indexed `target·(N−1) + j`; seeded with the target's own time.
    stage_max: Vec<u64>,
    /// Per-target running sum of `stage_max`.
    stage_sum: Vec<u64>,
    /// Per-target, per-blocking-stage maxima over `L_i`, indexed
    /// `target·|block_stages| + b`.
    block_max: Vec<u64>,
    /// Per-target running sum of `block_max`.
    block_sum: Vec<u64>,
    /// Effective `H_i` per target.
    higher: Vec<JobMask>,
    /// Effective `L_i` per target.
    lower: Vec<JobMask>,
}

/// Clones leave room for one more target: a warm admit resumes a clone
/// over tables one arrival larger, which then appends without
/// reallocating (re-growing every vector per admit fragments the heap).
impl Clone for EvaluatorState {
    fn clone(&self) -> Self {
        fn with_room<T: Clone>(v: &[T], extra: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(v.len() + extra);
            out.extend_from_slice(v);
            out
        }
        let per_target = |v: &[u64]| v.len().checked_div(self.job_count()).unwrap_or(0);
        EvaluatorState {
            generation: self.generation,
            kind: self.kind,
            ja_sum: with_room(&self.ja_sum, 1),
            stage_max: with_room(&self.stage_max, per_target(&self.stage_max)),
            stage_sum: with_room(&self.stage_sum, 1),
            block_max: with_room(&self.block_max, per_target(&self.block_max)),
            block_sum: with_room(&self.block_sum, 1),
            higher: with_room(&self.higher, 1),
            lower: with_room(&self.lower, 1),
        }
    }
}

impl EvaluatorState {
    /// The [`PairTables::generation`] the aggregates were computed from.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The bound kind the aggregates belong to.
    #[must_use]
    pub fn kind(&self) -> DelayBoundKind {
        self.kind
    }

    /// Number of targets covered.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.ja_sum.len()
    }
}

impl std::fmt::Debug for EvaluatorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvaluatorState")
            .field("generation", &self.generation)
            .field("kind", &self.kind)
            .field("jobs", &self.job_count())
            .finish_non_exhaustive()
    }
}

/// Stage-additive value of interferer `k` against `target` at stage `j`:
/// raw processing for Eqs. 1–2 (the `ep` diagonal, as a job shares every
/// stage with itself), shared-stage times otherwise.
#[inline]
fn stage_value(tables: &PairTables, raw: bool, target: usize, k: usize, stage: usize) -> u64 {
    tables.ep_at(if raw { k } else { target }, k, stage)
}

/// The per-stage value row of interferer `k` against `target`, read as
/// [`stage_value`] reads one stage.
#[inline]
fn stage_row(tables: &PairTables, raw: bool, target: usize, k: usize) -> &[u64] {
    tables.ep_row(if raw { k } else { target }, k)
}

impl<'a> DelayEvaluator<'a> {
    /// Creates an evaluator for `kind` with empty interference sets for
    /// every target (every delay starts at the job's isolated bound).
    #[must_use]
    pub fn new(tables: &'a PairTables, kind: DelayBoundKind) -> Self {
        Self::assemble(
            tables,
            EvaluatorState {
                generation: tables.generation(),
                kind,
                ja_sum: Vec::new(),
                stage_max: Vec::new(),
                stage_sum: Vec::new(),
                block_max: Vec::new(),
                block_sum: Vec::new(),
                higher: Vec::new(),
                lower: Vec::new(),
            },
        )
    }

    /// Resumes the evaluator whose aggregates
    /// [`DelayEvaluator::into_state`] moved out, over the same tables or
    /// over those tables extended by one job
    /// ([`PairTables::extend_with_job`]); the arrival's target starts with
    /// empty sets, as in [`DelayEvaluator::new`]. Nothing is recomputed
    /// but the per-target constants (`O(n)`).
    ///
    /// # Panics
    ///
    /// Panics unless `state` was taken from an evaluator over `tables`
    /// (equal [`PairTables::generation`]) or over their
    /// [`PairTables::parent_generation`].
    #[must_use]
    pub fn with_state(tables: &'a PairTables, state: EvaluatorState) -> Self {
        let covered = state.ja_sum.len();
        assert!(
            (state.generation == tables.generation() && covered == tables.job_count())
                || (Some(state.generation) == tables.parent_generation()
                    && covered + 1 == tables.job_count()),
            "evaluator state was computed from other tables"
        );
        Self::assemble(tables, state)
    }

    /// Moves the per-target aggregates out, stamped with the tables'
    /// generation, for a later [`DelayEvaluator::with_state`].
    #[must_use]
    pub fn into_state(self) -> EvaluatorState {
        self.state
    }

    /// Wraps `state`'s aggregates, appending empty-set aggregates for the
    /// targets it does not cover, and computes the per-target constants.
    fn assemble(tables: &'a PairTables, mut state: EvaluatorState) -> Self {
        let kind = state.kind;
        let n = tables.job_count();
        let stages = tables.stage_count();
        let add_stages = stages.saturating_sub(1);
        let (block_stages, raw_block_values): (Vec<usize>, bool) = match kind {
            DelayBoundKind::NonPreemptiveSingleResource => ((0..stages).collect(), true),
            DelayBoundKind::NonPreemptiveMsmr => ((0..stages).collect(), false),
            DelayBoundKind::EdgeHybrid => (vec![stages - 1], false),
            _ => (Vec::new(), false),
        };
        let raw_stage_values = matches!(
            kind,
            DelayBoundKind::PreemptiveSingleResource | DelayBoundKind::NonPreemptiveSingleResource
        );

        state.generation = tables.generation();
        // The Eq. 5 blocking constant moves when a job arrives, so the
        // per-target constants are always recomputed.
        let opa_block = (kind == DelayBoundKind::NonPreemptiveOpa).then(|| tables.opa_block());
        let job_additive = tables.job_additive(kind);
        let base = (0..n)
            .map(|t| {
                (tables.jobs.max_proc[t] << job_additive.shift)
                    + opa_block.map_or(0, |block| block[t])
            })
            .collect();
        let missing = n - state.ja_sum.len();
        state.ja_sum.reserve_exact(missing);
        state.stage_max.reserve_exact(missing * add_stages);
        state.stage_sum.reserve_exact(missing);
        state.block_max.reserve_exact(missing * block_stages.len());
        state.block_sum.reserve_exact(missing);
        state.higher.reserve_exact(missing);
        state.lower.reserve_exact(missing);
        for t in n - missing..n {
            state.ja_sum.push(0);
            let seeds = (0..add_stages).map(|j| tables.ep_at(t, t, j));
            state.stage_max.extend(seeds.clone());
            state.stage_sum.push(seeds.sum());
            state
                .block_max
                .extend(std::iter::repeat_n(0, block_stages.len()));
            state.block_sum.push(0);
            state.higher.push(JobMask::with_capacity(n));
            state.lower.push(JobMask::with_capacity(n));
        }

        DelayEvaluator {
            tables,
            job_additive,
            raw_stage_values,
            add_stages,
            block_stages,
            raw_block_values,
            base,
            state,
        }
    }

    /// The bound kind this evaluator maintains.
    #[must_use]
    pub const fn kind(&self) -> DelayBoundKind {
        self.state.kind
    }

    /// The effective higher-priority set of a target (interfering members
    /// only).
    #[must_use]
    pub fn higher(&self, target: JobId) -> &JobMask {
        &self.state.higher[target.index()]
    }

    /// The effective lower-priority set of a target.
    #[must_use]
    pub fn lower(&self, target: JobId) -> &JobMask {
        &self.state.lower[target.index()]
    }

    /// Current delay bound `Δ_target` under the maintained sets — `O(1)`.
    #[must_use]
    pub fn delay(&self, target: JobId) -> Time {
        let t = target.index();
        Time::new(
            self.base[t] + self.state.ja_sum[t] + self.state.stage_sum[t] + self.state.block_sum[t],
        )
    }

    /// `true` iff `Δ_target ≤ D_target`.
    #[must_use]
    pub fn fits(&self, target: JobId) -> bool {
        self.delay(target).as_ticks() <= self.tables.jobs.deadline[target.index()]
    }

    /// Slack `D_target − Δ_target` (negative when the deadline is
    /// missed).
    #[must_use]
    pub fn slack(&self, target: JobId) -> i128 {
        i128::from(self.tables.jobs.deadline[target.index()])
            - i128::from(self.delay(target).as_ticks())
    }

    /// Current delay bounds of every job, indexed by id.
    #[must_use]
    pub fn delays(&self) -> Vec<Time> {
        (0..self.tables.job_count())
            .map(|t| self.delay(JobId::new(t)))
            .collect()
    }

    /// Adds `k` to `H_target`, removing it from `L_target` first if
    /// present. No-op for the target itself, for non-interfering jobs and
    /// for jobs already in `H_target`.
    pub fn add_higher(&mut self, target: JobId, k: JobId) {
        let (t, ki) = (target.index(), k.index());
        if t == ki || !self.tables.interferes[t].contains(k) {
            return;
        }
        if self.state.lower[t].contains(k) {
            self.remove_lower(target, k);
        }
        if !self.state.higher[t].insert(k) {
            return;
        }
        self.state.ja_sum[t] += self.job_additive.pair(t, ki);
        let row = stage_row(self.tables, self.raw_stage_values, t, ki);
        let maxima =
            &mut self.state.stage_max[t * self.add_stages..t * self.add_stages + self.add_stages];
        for (slot, &v) in maxima.iter_mut().zip(row) {
            if v > *slot {
                self.state.stage_sum[t] += v - *slot;
                *slot = v;
            }
        }
    }

    /// Removes `k` from `H_target`. No-op when `k` is not an effective
    /// member.
    pub fn remove_higher(&mut self, target: JobId, k: JobId) {
        if self.state.higher[target.index()].remove(k) {
            self.drop_higher(target.index(), k.index());
        }
    }

    /// Takes interferer `ki`, just removed from `H_t`'s mask, out of the
    /// target's aggregates.
    fn drop_higher(&mut self, t: usize, ki: usize) {
        self.state.ja_sum[t] -= self.job_additive.pair(t, ki);
        let row = stage_row(self.tables, self.raw_stage_values, t, ki);
        for (j, &v) in row.iter().enumerate().take(self.add_stages) {
            let slot = t * self.add_stages + j;
            if v == self.state.stage_max[slot] {
                // The removed job may have held this stage's maximum:
                // recompute it exactly over the remaining members.
                let mut max = self.tables.ep_at(t, t, j);
                for kk in self.state.higher[t].iter() {
                    max = max.max(stage_value(
                        self.tables,
                        self.raw_stage_values,
                        t,
                        kk.index(),
                        j,
                    ));
                }
                self.state.stage_sum[t] -= self.state.stage_max[slot] - max;
                self.state.stage_max[slot] = max;
            }
        }
    }

    /// Adds `k` to `L_target`, removing it from `H_target` first if
    /// present. No-op for the target itself, for non-interfering jobs and
    /// for jobs already in `L_target`.
    pub fn add_lower(&mut self, target: JobId, k: JobId) {
        let (t, ki) = (target.index(), k.index());
        if t == ki || !self.tables.interferes[t].contains(k) {
            return;
        }
        if self.state.higher[t].contains(k) {
            self.remove_higher(target, k);
        }
        if self.state.lower[t].insert(k) {
            self.raise_block(t, ki);
        }
    }

    /// Moves `k` from `H_target` to `L_target` — Audsley's step of `k`
    /// taking the level below `target` — as one call, equivalent to
    /// [`DelayEvaluator::remove_higher`] followed by
    /// [`DelayEvaluator::add_lower`]. No-op for non-interfering jobs.
    pub fn demote(&mut self, target: JobId, k: JobId) {
        let (t, ki) = (target.index(), k.index());
        if !self.tables.interferes[t].contains(k) {
            return;
        }
        if self.state.higher[t].remove(k) {
            self.drop_higher(t, ki);
        }
        if self.state.lower[t].insert(k) {
            self.raise_block(t, ki);
        }
    }

    /// Folds interferer `ki`, just inserted into `L_t`'s mask, into the
    /// target's blocking maxima.
    fn raise_block(&mut self, t: usize, ki: usize) {
        for (b, &j) in self.block_stages.iter().enumerate() {
            let v = stage_value(self.tables, self.raw_block_values, t, ki, j);
            let slot = t * self.block_stages.len() + b;
            if v > self.state.block_max[slot] {
                self.state.block_sum[t] += v - self.state.block_max[slot];
                self.state.block_max[slot] = v;
            }
        }
    }

    /// Removes `k` from `L_target`. No-op when `k` is not an effective
    /// member.
    pub fn remove_lower(&mut self, target: JobId, k: JobId) {
        let (t, ki) = (target.index(), k.index());
        if !self.state.lower[t].remove(k) {
            return;
        }
        for (b, &j) in self.block_stages.iter().enumerate() {
            let v = stage_value(self.tables, self.raw_block_values, t, ki, j);
            let slot = t * self.block_stages.len() + b;
            if v == self.state.block_max[slot] {
                let mut max = 0u64;
                for kk in self.state.lower[t].iter() {
                    max = max.max(stage_value(
                        self.tables,
                        self.raw_block_values,
                        t,
                        kk.index(),
                        j,
                    ));
                }
                self.state.block_sum[t] -= self.state.block_max[slot] - max;
                self.state.block_max[slot] = max;
            }
        }
    }

    /// Seeds every target with *all* interfering jobs at higher priority —
    /// the canonical start state of Audsley's algorithm (every other job
    /// assumed higher): [`DelayEvaluator::seed_target`] with an empty
    /// `lower` for every target, equivalent to but cheaper than `n·(n−1)`
    /// individual [`DelayEvaluator::add_higher`] calls.
    pub fn seed_all_higher(&mut self) {
        let none = JobMask::new();
        for t in 0..self.tables.job_count() {
            self.seed_target(JobId::new(t), &none);
        }
    }

    /// Overwrites one target's sets with `H = I_t ∖ lower` and
    /// `L = I_t ∩ lower` (`I_t` its interfering jobs) — the state of a
    /// job awaiting an Audsley level once `lower` holds the levels below
    /// it — in word operations plus one pass over each set, equivalent
    /// to emptying both sets and calling [`DelayEvaluator::add_higher`]
    /// and [`DelayEvaluator::add_lower`] member by member.
    pub fn seed_target(&mut self, target: JobId, lower: &JobMask) {
        let tables = self.tables;
        let t = target.index();
        let interferes = &tables.interferes[t];
        self.state.higher[t].assign_difference(interferes, lower);
        self.state.lower[t].assign_intersection(interferes, lower);

        let maxima = &mut self.state.stage_max[t * self.add_stages..(t + 1) * self.add_stages];
        for (j, slot) in maxima.iter_mut().enumerate() {
            *slot = tables.ep_at(t, t, j);
        }
        let mut ja = 0u64;
        for k in self.state.higher[t].iter() {
            let ki = k.index();
            ja += self.job_additive.pair(t, ki);
            let row = stage_row(tables, self.raw_stage_values, t, ki);
            for (slot, &v) in maxima.iter_mut().zip(row) {
                *slot = (*slot).max(v);
            }
        }
        self.state.ja_sum[t] = ja;
        self.state.stage_sum[t] = maxima.iter().sum();

        let width = self.block_stages.len();
        let blocks = &mut self.state.block_max[t * width..(t + 1) * width];
        blocks.fill(0);
        for k in self.state.lower[t].iter() {
            for (slot, &j) in blocks.iter_mut().zip(&self.block_stages) {
                *slot = (*slot).max(stage_value(tables, self.raw_block_values, t, k.index(), j));
            }
        }
        self.state.block_sum[t] = blocks.iter().sum();
    }

    /// Returns every target to empty interference sets without releasing
    /// any storage.
    pub fn reset(&mut self) {
        let n = self.tables.job_count();
        for t in 0..n {
            self.state.ja_sum[t] = 0;
            let mut sum = 0u64;
            for j in 0..self.add_stages {
                let seed = self.tables.ep_at(t, t, j);
                self.state.stage_max[t * self.add_stages + j] = seed;
                sum += seed;
            }
            self.state.stage_sum[t] = sum;
            self.state.block_sum[t] = 0;
            self.state.higher[t].clear();
            self.state.lower[t].clear();
        }
        self.state.block_max.fill(0);
    }
}

impl<'a> Analysis<'a> {
    /// Creates an incremental [`DelayEvaluator`] for `kind` over this
    /// analysis' precomputed tables, with empty interference sets for
    /// every target.
    #[must_use]
    pub fn evaluator(&self, kind: DelayBoundKind) -> DelayEvaluator<'_> {
        DelayEvaluator::new(self.tables(), kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{InterferenceSets, ReferenceBounds};
    use msmr_model::{JobSet, JobSetBuilder, PreemptionPolicy};

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

    #[test]
    fn matches_reference_on_total_orders_for_all_kinds() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let order = [jid(2), jid(0), jid(1), jid(3)];
        for kind in DelayBoundKind::all() {
            let mut eval = analysis.evaluator(kind);
            for (pos, &t) in order.iter().enumerate() {
                for &h in &order[..pos] {
                    eval.add_higher(t, h);
                }
                for &l in &order[pos + 1..] {
                    eval.add_lower(t, l);
                }
            }
            for &t in &order {
                let ctx = InterferenceSets::from_total_order(&order, t);
                assert_eq!(
                    eval.delay(t),
                    reference.delay_bound(kind, t, &ctx),
                    "{kind}: target {t}"
                );
                assert_eq!(
                    eval.fits(t),
                    reference.meets_deadline(kind, t, &ctx),
                    "{kind}: target {t}"
                );
            }
        }
    }

    /// Every `(H, L)` split of the other jobs of `target` that a subset
    /// `lower` induces, over all subsets.
    fn lower_subsets(n: usize) -> impl Iterator<Item = JobMask> {
        (0u32..1 << n).map(move |bits| (0..n).filter(|&k| bits & (1 << k) != 0).map(jid).collect())
    }

    #[test]
    fn seed_target_matches_member_by_member_updates() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        for kind in DelayBoundKind::all() {
            let mut seeded = analysis.evaluator(kind);
            // Start from a dirty state: seeding must overwrite it.
            seeded.seed_all_higher();
            for lower in lower_subsets(jobs.len()) {
                for t in jobs.job_ids() {
                    seeded.seed_target(t, &lower);
                    let mut stepped = analysis.evaluator(kind);
                    for k in jobs.job_ids() {
                        if lower.contains(k) {
                            stepped.add_lower(t, k);
                        } else {
                            stepped.add_higher(t, k);
                        }
                    }
                    assert_eq!(seeded.delay(t), stepped.delay(t), "{kind}: target {t}");
                    assert_eq!(seeded.higher(t), stepped.higher(t), "{kind}: target {t}");
                    assert_eq!(seeded.lower(t), stepped.lower(t), "{kind}: target {t}");
                    let ctx = InterferenceSets::new(
                        jobs.job_ids().filter(|&k| k != t && !lower.contains(k)),
                        jobs.job_ids().filter(|&k| k != t && lower.contains(k)),
                    );
                    assert_eq!(
                        seeded.delay(t),
                        reference.delay_bound(kind, t, &ctx),
                        "{kind}: target {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn demote_matches_remove_higher_then_add_lower() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        // Demote jobs one by one in a fixed order, as Audsley's loop does,
        // from every target's point of view.
        let order = [jid(1), jid(3), jid(0), jid(2)];
        for kind in DelayBoundKind::all() {
            let mut fused = analysis.evaluator(kind);
            let mut split = analysis.evaluator(kind);
            fused.seed_all_higher();
            split.seed_all_higher();
            for (step, &k) in order.iter().enumerate() {
                for t in jobs.job_ids() {
                    fused.demote(t, k);
                    split.remove_higher(t, k);
                    split.add_lower(t, k);
                    assert_eq!(fused.delay(t), split.delay(t), "{kind}: {k} below {t}");
                    assert_eq!(fused.higher(t), split.higher(t));
                    assert_eq!(fused.lower(t), split.lower(t));
                    let lower = &order[..=step];
                    let ctx = InterferenceSets::new(
                        jobs.job_ids().filter(|&j| j != t && !lower.contains(&j)),
                        lower.iter().copied().filter(|&j| j != t),
                    );
                    assert_eq!(
                        fused.delay(t),
                        reference.delay_bound(kind, t, &ctx),
                        "{kind}: {k} below {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn state_resumes_over_the_same_or_extended_tables() {
        let jobs = observation_v1();
        let ids: Vec<JobId> = jobs.job_ids().collect();
        let (prefix, _) = jobs.restrict_to(&ids[..3]).unwrap();
        for kind in DelayBoundKind::all() {
            let mut tables = Analysis::new(&prefix).tables().clone();
            let mut eval = DelayEvaluator::new(&tables, kind);
            eval.seed_all_higher();
            eval.demote(jid(0), jid(2));
            let before = eval.delays();
            let sets: Vec<(JobMask, JobMask)> = (0..3)
                .map(|t| (eval.higher(jid(t)).clone(), eval.lower(jid(t)).clone()))
                .collect();
            let state = eval.into_state();
            assert_eq!(state.job_count(), 3);
            let same = DelayEvaluator::with_state(&tables, state.clone());
            assert_eq!(same.delays(), before, "{kind}");

            // Over the extended tables the arrival starts empty, exactly
            // as a fresh evaluator's target does, and the old targets'
            // constants (Eq. 5's blocking term) follow the arrival.
            tables.extend_with_job(&jobs);
            let resumed = DelayEvaluator::with_state(&tables, state);
            let mut fresh = DelayEvaluator::new(&tables, kind);
            for (t, (higher, lower)) in sets.iter().enumerate() {
                higher.iter().for_each(|k| fresh.add_higher(jid(t), k));
                lower.iter().for_each(|k| fresh.add_lower(jid(t), k));
            }
            assert_eq!(resumed.delays(), fresh.delays(), "{kind}");
            assert!(resumed.higher(jid(3)).is_empty() && resumed.lower(jid(3)).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "other tables")]
    fn state_from_other_tables_is_refused() {
        let jobs = observation_v1();
        let a = Analysis::new(&jobs);
        let b = Analysis::new(&jobs);
        let state = a.evaluator(DelayBoundKind::EdgeHybrid).into_state();
        let _ = DelayEvaluator::with_state(b.tables(), state);
    }

    #[test]
    fn removal_restores_the_isolated_bound() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        for kind in DelayBoundKind::all() {
            let mut eval = analysis.evaluator(kind);
            let isolated: Vec<Time> = jobs.job_ids().map(|t| eval.delay(t)).collect();
            for t in jobs.job_ids() {
                for k in jobs.job_ids() {
                    eval.add_higher(t, k);
                }
            }
            for t in jobs.job_ids() {
                for k in jobs.job_ids() {
                    eval.remove_higher(t, k);
                }
            }
            for t in jobs.job_ids() {
                assert_eq!(eval.delay(t), isolated[t.index()], "{kind}");
                assert!(eval.higher(t).is_empty() && eval.lower(t).is_empty());
            }
        }
    }

    #[test]
    fn add_higher_displaces_lower_membership() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let reference = ReferenceBounds::new(&jobs);
        let kind = DelayBoundKind::EdgeHybrid;
        let mut eval = analysis.evaluator(kind);
        eval.add_lower(jid(0), jid(1));
        eval.add_higher(jid(0), jid(1));
        assert!(eval.higher(jid(0)).contains(jid(1)));
        assert!(!eval.lower(jid(0)).contains(jid(1)));
        let ctx = InterferenceSets::new([jid(1)], []);
        assert_eq!(
            eval.delay(jid(0)),
            reference.delay_bound(kind, jid(0), &ctx)
        );
        // And back again.
        eval.add_lower(jid(0), jid(1));
        let ctx = InterferenceSets::new([], [jid(1)]);
        assert_eq!(
            eval.delay(jid(0)),
            reference.delay_bound(kind, jid(0), &ctx)
        );
    }

    #[test]
    fn self_and_duplicate_operations_are_no_ops() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let mut eval = analysis.evaluator(DelayBoundKind::RefinedPreemptive);
        let before = eval.delay(jid(0));
        eval.add_higher(jid(0), jid(0));
        eval.remove_higher(jid(0), jid(2));
        eval.remove_lower(jid(0), jid(2));
        assert_eq!(eval.delay(jid(0)), before);
        eval.add_higher(jid(0), jid(1));
        let once = eval.delay(jid(0));
        eval.add_higher(jid(0), jid(1));
        assert_eq!(eval.delay(jid(0)), once);
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let mut eval = analysis.evaluator(DelayBoundKind::NonPreemptiveMsmr);
        let initial = eval.delays();
        for t in jobs.job_ids() {
            for k in jobs.job_ids() {
                if k < t {
                    eval.add_higher(t, k);
                } else {
                    eval.add_lower(t, k);
                }
            }
        }
        eval.reset();
        assert_eq!(eval.delays(), initial);
        assert_eq!(eval.kind(), DelayBoundKind::NonPreemptiveMsmr);
    }

    #[test]
    fn fits_and_slack_compare_against_the_deadline() {
        // `S_DCA` on two jobs sharing both stages of one resource each.
        let mut b = JobSetBuilder::new();
        b.stage("a", 1, PreemptionPolicy::Preemptive)
            .stage("b", 1, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(Time::new(30))
            .stage_time(Time::new(5), 0)
            .stage_time(Time::new(10), 0)
            .add()
            .unwrap();
        b.job()
            .deadline(Time::new(18))
            .stage_time(Time::new(4), 0)
            .stage_time(Time::new(6), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let analysis = Analysis::new(&jobs);
        let mut eval = analysis.evaluator(DelayBoundKind::RefinedPreemptive);
        // J0 below J1: self 10; J1 shares one two-stage segment (w = 2),
        // 6 + 4 = 10; stage-additive (stage 0): max(5, 4) = 5. Δ = 25 ≤ 30.
        eval.add_higher(jid(0), jid(1));
        assert_eq!(eval.delay(jid(0)), Time::new(25));
        assert!(eval.fits(jid(0)));
        assert_eq!(eval.slack(jid(0)), 5);
        // J1 below J0: 6 + (10 + 5) + max(4, 5) = 26 > 18.
        eval.add_higher(jid(1), jid(0));
        assert_eq!(eval.delay(jid(1)), Time::new(26));
        assert!(!eval.fits(jid(1)));
        assert_eq!(eval.slack(jid(1)), -8);
    }
}
