//! Struct-of-arrays pair tables backing the incremental delay evaluator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use msmr_model::{Job, JobId, JobSet, StageId, Time};

use crate::{DelayBoundKind, JobMask};

/// Flat struct-of-arrays projection of the pairwise interference table.
///
/// The reference bounds read one
/// [`PairInterference`](crate::reference::PairInterference) value per
/// ordered pair; that layout is convenient for a transcription of the
/// formulas but costs a pointer chase and a branch per pair in the hot
/// evaluation loops. `PairTables` holds the same data as dense arrays of
/// raw ticks, each fact stored once:
///
/// * `ep[(target·cap + k)·N + j]` — the shared-stage processing time
///   `ep_{k,j}` of interferer `k` against `target`, contiguous in the
///   stage index so one incremental update touches one cache line. A job
///   shares every stage with itself, so the diagonal `k = target` holds
///   its raw processing times `P_{k,j}`,
/// * `ja_eq1`, `ja_eq45` and `ja_eq6` `[target·cap + k]` — the per-pair
///   job-additive scalars that depend on the pair, folded down to a
///   single addition per membership change. Eq. 3's scalar is twice
///   Eq. 4/5's, and Eq. 2's is the interferer's own `t_{k,1}`, so neither
///   is stored,
/// * `interferes[target]` — a [`JobMask`] with bit `k` set iff the pair
///   `(target, k)` has overlapping interference windows, turning the
///   `effective_higher`/`effective_lower` filters into single AND/test
///   instructions,
/// * per-job scalars (deadline, `t_{k,1}`, `t_{k,2}`, arrival and absolute
///   deadline), computed once when the job joins, and the Eq. 5 blocking
///   data, which does not depend on `H_i`/`L_i` at all.
///
/// All values are stored as raw `u64` ticks; every aggregate computed from
/// them is an exact integer sum, so the incremental evaluator reproduces
/// the reference bounds bit for bit.
///
/// # Online extension
///
/// The pair-indexed arrays are strided by an allocation capacity `cap ≥ n`
/// rather than by the live job count, so
/// [`PairTables::extend_with_job`] appends one arriving job by writing its
/// new row and column only — `O(n·N)` pair computations instead of the
/// `O(n²·N)` full rebuild — which is what keeps per-arrival admission
/// latency in a long-running `msmr-serve` session independent of how the
/// tables were built. When the capacity is exhausted the arrays re-stride
/// geometrically, so the copy cost stays amortized `O(n·N)` per arrival;
/// [`PairTables::reserve`] pre-sizes a session once and removes even that.
/// [`PairTables::remove_last_job`] undoes the most recent extension (the
/// rollback path of a rejected admission).
///
/// # Generations
///
/// Every table content carries a process-unique
/// [`PairTables::generation`] stamp, so state derived from the tables (a
/// [`DelayEvaluator`](crate::DelayEvaluator)'s aggregates moved out with
/// [`DelayEvaluator::into_state`](crate::DelayEvaluator::into_state)) can
/// be tied to the exact tables it was computed from. Building, extending
/// and swap-removing mint a fresh stamp; a clone keeps it (same
/// contents); [`PairTables::remove_last_job`] right after an extension
/// rolls the stamp back, because it restores the previous contents.
#[derive(Debug, Clone)]
pub struct PairTables {
    /// Stamp of the current contents (see "Generations").
    generation: u64,
    /// Stamp before the latest [`PairTables::extend_with_job`], while
    /// that extension is the latest mutation.
    parent_generation: Option<u64>,
    /// Number of live jobs `n`.
    pub(crate) n: usize,
    /// Allocated stride of the pair-indexed arrays (`cap ≥ n`); entries
    /// with either index in `n..cap` are dead storage.
    pub(crate) cap: usize,
    /// Number of pipeline stages `N`.
    pub(crate) stages: usize,
    /// Per-job scalars, indexed by id.
    pub(crate) jobs: JobScalars,
    /// Shared-stage times `ep_{k,j}` per ordered pair, indexed
    /// `(target·cap + k)·N + j`; the diagonal holds `P_{k,j}`.
    pub(crate) ep: Vec<u64>,
    /// Eq. 1 job-additive scalar per pair: `t_{k,1}` plus `t_{k,2}` when
    /// the interferer arrives strictly after the target. It depends on
    /// the pair through the arrival order, so it is stored rather than
    /// derived on every read.
    pub(crate) ja_eq1: Vec<u64>,
    /// Eq. 4/5 job-additive scalar per pair: `m_{i,k}·et_{k,1}` (Eq. 3
    /// reads it doubled).
    pub(crate) ja_eq45: Vec<u64>,
    /// Eq. 6/10 job-additive scalar per pair:
    /// `Σ_{x=1}^{w_{i,k}} et_{k,x}`.
    pub(crate) ja_eq6: Vec<u64>,
    /// Eq. 5 blocking data per target (`Σ_j max_{k ∈ J∖J_i} ep_{k,j}`
    /// over interfering jobs, plus the per-stage maxima needed to update
    /// that sum when a job arrives). Built lazily on the first Eq. 5
    /// evaluator — no other bound reads it.
    pub(crate) opa_block: OnceLock<OpaBlock>,
    /// Per-target interference mask: bit `k` ⇔ `k ≠ target` and the
    /// windows of the pair overlap.
    pub(crate) interferes: Vec<JobMask>,
    /// Per-target competitor mask: bit `k` ⇔ `k ≠ target` and the pair
    /// shares at least one resource (`M_i` of the paper).
    pub(crate) competes: Vec<JobMask>,
}

/// A process-unique [`PairTables::generation`] stamp.
fn fresh_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The lazily-built Eq. 5 blocking constants together with the per-stage
/// maxima they are the sums of. Keeping the maxima makes
/// [`PairTables::extend_with_job`] able to update the cache in `O(n·N)`
/// (a new arrival can only *raise* a maximum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OpaBlock {
    /// Per-target, per-stage maxima `max_{k interfering} ep_{k,j}`,
    /// indexed `target·N + j`.
    pub(crate) maxima: Vec<u64>,
    /// Per-target sum of `maxima` (the Eq. 5 blocking constant).
    pub(crate) sum: Vec<u64>,
}

/// The per-job scalars the pair computations and the evaluator read,
/// indexed by id. Each job's entries are computed once, when it joins the
/// tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct JobScalars {
    /// Relative deadline `D_k`.
    pub(crate) deadline: Vec<u64>,
    /// `t_{k,1}`: the self term of Eqs. 1, 2, 6 and 10 (doubled for
    /// Eq. 3) and `k`'s Eq. 2 job-additive scalar against every target.
    pub(crate) max_proc: Vec<u64>,
    /// `t_{k,2}`.
    second_proc: Vec<u64>,
    /// Arrival `A_k`.
    arrival: Vec<u64>,
    /// Absolute deadline `A_k + D_k`.
    abs_deadline: Vec<u64>,
}

impl JobScalars {
    /// Appends the scalars of `job`, the next id.
    fn push(&mut self, job: &Job) {
        let (first, second) = job
            .processing_times()
            .iter()
            .fold((0, 0), |top, p| fold_top_two(top, p.as_ticks()));
        self.deadline.push(job.deadline().as_ticks());
        self.max_proc.push(first);
        self.second_proc.push(second);
        self.arrival.push(job.arrival().as_ticks());
        self.abs_deadline.push(job.absolute_deadline().as_ticks());
    }

    /// Moves the last job's scalars into slot `r`, as
    /// [`Vec::swap_remove`] does.
    fn swap_remove(&mut self, r: usize) {
        self.deadline.swap_remove(r);
        self.max_proc.swap_remove(r);
        self.second_proc.swap_remove(r);
        self.arrival.swap_remove(r);
        self.abs_deadline.swap_remove(r);
    }
}

/// Folds `v` into the largest and second-largest values seen so far
/// (duplicates counted, zero when absent): from `(0, 0)` over a
/// processing-time row this yields `t_{k,1}` and `t_{k,2}`.
#[inline]
fn fold_top_two((first, second): (u64, u64), v: u64) -> (u64, u64) {
    if v > first {
        (v, first)
    } else if v > second {
        (first, v)
    } else {
        (first, second)
    }
}

/// The scalar projection of one ordered pair *(target, k)*; the pair's
/// `ep` row is written into the caller's slice.
struct PairValues {
    eq1: u64,
    eq45: u64,
    eq6: u64,
    /// `k ≠ target` and the interference windows overlap.
    interferes: bool,
    /// `k ≠ target` and the pair shares at least one resource.
    competes: bool,
}

/// Computes the `ep` row and job-additive scalars of the ordered pair
/// *(target, k)* in one stage scan — the single source of truth shared by
/// the full build and the incremental extension, which is what makes
/// extension ≡ rebuild bit for bit.
fn compute_pair(
    jobs: &JobSet,
    scalars: &JobScalars,
    target: JobId,
    k: JobId,
    ep_row: &mut [u64],
    sorted: &mut Vec<u64>,
) -> PairValues {
    let stages = jobs.stage_count();
    let t = target.index();
    let ki = k.index();
    let target_resources = jobs.job(target).resources();
    let job_k = jobs.job(k);
    let k_resources = job_k.resources();

    // Shared stages, `ep_{k,j}` and the segment counts `m`/`u`/`v` of the
    // pair, in one stage scan.
    let (mut top, mut total) = ((0u64, 0u64), 0u64);
    let (mut m, mut u, mut v) = (0u64, 0usize, 0usize);
    let mut run = 0usize;
    for j in 0..stages {
        let is_shared = k == target || target_resources[j] == k_resources[j];
        let ep = if is_shared {
            job_k.processing(StageId::new(j)).as_ticks()
        } else {
            0
        };
        ep_row[j] = ep;
        total += ep;
        top = fold_top_two(top, ep);
        if is_shared {
            run += 1;
        } else if run > 0 {
            m += 1;
            if run == 1 {
                u += 1;
            } else {
                v += 1;
            }
            run = 0;
        }
    }
    if run > 0 {
        m += 1;
        if run == 1 {
            u += 1;
        } else {
            v += 1;
        }
    }
    let (et1, et2) = top;

    let mut eq1 = scalars.max_proc[ki];
    if scalars.arrival[ki] > scalars.arrival[t] {
        eq1 += scalars.second_proc[ki];
    }

    // `w = u + 2v` never exceeds the number of shared stages, so summing
    // the `w` largest ep values over all stages (zeros for unshared ones)
    // matches `Σ_{x≤w} et_{k,x}`. The common cases fall out of the scan
    // above; only `3 ≤ w < N` (pipelines of four or more stages) needs an
    // actual selection.
    let w = u + 2 * v;
    let eq6 = match w {
        0 => 0,
        1 => et1,
        2 => et1 + et2,
        _ if w >= stages => total,
        _ => {
            sorted.clear();
            sorted.extend_from_slice(ep_row);
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted.iter().take(w).sum()
        }
    };

    PairValues {
        eq1,
        eq45: m * et1,
        eq6,
        interferes: k != target
            && scalars.arrival[t] <= scalars.abs_deadline[ki]
            && scalars.arrival[ki] <= scalars.abs_deadline[t],
        competes: m > 0 && k != target,
    }
}

impl PairTables {
    /// Builds the flat tables directly from the job set in one
    /// `O(n²·N log N)` pass, without materialising any per-pair
    /// intermediate structures (one reusable scratch buffer serves every
    /// pair). The values are defined to be identical to what the
    /// reference's [`PairInterference`](crate::reference::PairInterference)
    /// objects yield — the property suite cross-checks this bit for bit.
    pub(crate) fn build(jobs: &JobSet) -> Self {
        let n = jobs.len();
        let stages = jobs.stage_count();
        let mut scalars = JobScalars::default();
        for job in jobs.jobs() {
            scalars.push(job);
        }
        let mut tables = PairTables {
            generation: fresh_generation(),
            parent_generation: None,
            n,
            cap: n,
            stages,
            jobs: scalars,
            ep: vec![0; n * n * stages],
            ja_eq1: Vec::with_capacity(n * n),
            ja_eq45: Vec::with_capacity(n * n),
            ja_eq6: Vec::with_capacity(n * n),
            opa_block: OnceLock::new(),
            interferes: Vec::with_capacity(n),
            competes: Vec::with_capacity(n),
        };

        // Scratch for the `3 ≤ w < N` selection, reused across all pairs.
        let mut sorted = Vec::new();
        for target in jobs.job_ids() {
            let mut mask = JobMask::with_capacity(n);
            let mut competes = JobMask::with_capacity(n);
            for k in jobs.job_ids() {
                let idx = target.index() * n + k.index();
                let ep_row = &mut tables.ep[idx * stages..(idx + 1) * stages];
                let values = compute_pair(jobs, &tables.jobs, target, k, ep_row, &mut sorted);
                tables.ja_eq1.push(values.eq1);
                tables.ja_eq45.push(values.eq45);
                tables.ja_eq6.push(values.eq6);
                if values.interferes {
                    mask.insert(k);
                }
                if values.competes {
                    competes.insert(k);
                }
            }
            tables.interferes.push(mask);
            tables.competes.push(competes);
        }
        tables
    }

    /// Pre-sizes the pair-indexed arrays for up to `jobs` jobs, so that
    /// many subsequent [`PairTables::extend_with_job`] calls re-stride
    /// nothing. A no-op when the tables already have that capacity.
    pub fn reserve(&mut self, jobs: usize) {
        if jobs > self.cap {
            self.grow(jobs);
        }
    }

    /// Re-strides the pair-indexed arrays to a new capacity. Pure data
    /// movement of the `n` live rows — no pair is recomputed.
    fn grow(&mut self, new_cap: usize) {
        debug_assert!(new_cap > self.cap);
        let (n, cap, stages) = (self.n, self.cap, self.stages);
        let restride = |old: &Vec<u64>, width: usize| -> Vec<u64> {
            let mut grown = vec![0u64; new_cap * new_cap * width];
            for t in 0..n {
                // Within one target the k index is contiguous, so each
                // target's live row moves as one block.
                let src = t * cap * width;
                let dst = t * new_cap * width;
                grown[dst..dst + n * width].copy_from_slice(&old[src..src + n * width]);
            }
            grown
        };
        self.ep = restride(&self.ep, stages);
        self.ja_eq1 = restride(&self.ja_eq1, 1);
        self.ja_eq45 = restride(&self.ja_eq45, 1);
        self.ja_eq6 = restride(&self.ja_eq6, 1);
        self.cap = new_cap;
    }

    /// Extends the tables with the job that `jobs` appends to the set they
    /// were built for: `jobs` must contain the original jobs unchanged
    /// (same ids, same parameters, same pipeline) plus exactly one new job
    /// at the highest id.
    ///
    /// Only the new job's scalars, row and column are computed — `O(n·N)`
    /// work instead of the `O(n²·N)` full rebuild — and the result is
    /// bit-identical to `PairTables::build(jobs)` (property-tested). An
    /// already-built Eq. 5 blocking cache is updated incrementally rather
    /// than discarded.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` does not have exactly one job more than the
    /// tables, or a different stage count.
    pub fn extend_with_job(&mut self, jobs: &JobSet) {
        let new = self.n;
        assert_eq!(
            jobs.len(),
            new + 1,
            "extend_with_job: job set must append exactly one job"
        );
        assert_eq!(
            jobs.stage_count(),
            self.stages,
            "extend_with_job: pipeline stage count changed"
        );
        self.parent_generation = Some(self.generation);
        self.generation = fresh_generation();
        if new + 1 > self.cap {
            // Geometric growth keeps the re-stride cost amortized O(n·N)
            // per arrival.
            self.grow((new + 1).max(self.cap * 2).max(8));
        }
        let cap = self.cap;
        let stages = self.stages;
        let new_id = JobId::new(new);
        self.jobs.push(jobs.job(new_id));
        let mut sorted = Vec::new();

        // New column: every existing target against the arriving job.
        for t in 0..new {
            let target = JobId::new(t);
            let idx = t * cap + new;
            let ep_row = &mut self.ep[idx * stages..(idx + 1) * stages];
            let values = compute_pair(jobs, &self.jobs, target, new_id, ep_row, &mut sorted);
            self.ja_eq1[idx] = values.eq1;
            self.ja_eq45[idx] = values.eq45;
            self.ja_eq6[idx] = values.eq6;
            if values.interferes {
                self.interferes[t].insert(new_id);
            }
            if values.competes {
                self.competes[t].insert(new_id);
            }
        }

        // New row: the arriving job as target against everyone (itself
        // included).
        let mut mask = JobMask::with_capacity(cap);
        let mut competes = JobMask::with_capacity(cap);
        for k in jobs.job_ids() {
            let idx = new * cap + k.index();
            let ep_row = &mut self.ep[idx * stages..(idx + 1) * stages];
            let values = compute_pair(jobs, &self.jobs, new_id, k, ep_row, &mut sorted);
            self.ja_eq1[idx] = values.eq1;
            self.ja_eq45[idx] = values.eq45;
            self.ja_eq6[idx] = values.eq6;
            if values.interferes {
                mask.insert(k);
            }
            if values.competes {
                competes.insert(k);
            }
        }

        self.interferes.push(mask);
        self.competes.push(competes);
        self.n = new + 1;

        // An arrival can only raise the Eq. 5 per-stage blocking maxima of
        // the existing targets, so an already-built cache updates in
        // O(n·N) instead of being rebuilt.
        if let Some(block) = self.opa_block.get_mut() {
            for t in 0..new {
                if !self.interferes[t].contains(new_id) {
                    continue;
                }
                for j in 0..stages {
                    let v = self.ep[(t * cap + new) * stages + j];
                    let slot = t * stages + j;
                    if v > block.maxima[slot] {
                        block.sum[t] += v - block.maxima[slot];
                        block.maxima[slot] = v;
                    }
                }
            }
            let mut sum = 0u64;
            for j in 0..stages {
                let mut max = 0u64;
                for k in self.interferes[new].iter() {
                    max = max.max(self.ep[(new * cap + k.index()) * stages + j]);
                }
                block.maxima.push(max);
                sum += max;
            }
            block.sum.push(sum);
        }
    }

    /// Removes *any* job by swap-removal, mirroring
    /// [`JobSet::swap_remove`](msmr_model::JobSet::swap_remove):
    /// the highest-id job's row, column, masks and per-job scalars move
    /// into the victim's slot, every other job keeps its id, and the freed
    /// last slot stays allocated as dead storage for the next arrival.
    /// `O(n·N)` data movement with **zero pair recomputation** — the
    /// general-withdraw counterpart of [`PairTables::extend_with_job`],
    /// replacing the `O(n²·N)` full rebuild a mid-set departure used to
    /// cost. Pair values depend only on the two jobs' parameters (never on
    /// their ids), so the result is bit-identical to
    /// `PairTables::build(reduced)` on the swap-removed job set
    /// (property-tested).
    ///
    /// The lazily-built Eq. 5 blocking cache is discarded (a removal can
    /// lower a per-stage maximum, which cannot be undone incrementally);
    /// it rebuilds on the next Eq. 5 evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn remove_job(&mut self, removed: JobId) {
        let r = removed.index();
        assert!(r < self.n, "remove_job: job id out of range");
        self.generation = fresh_generation();
        self.parent_generation = None;
        let last = self.n - 1;
        if r != last {
            let cap = self.cap;
            // Column r of every surviving target takes column `last` (the
            // moved job as interferer), and row r takes row `last` (the
            // moved job as target) — with the diagonal mapped onto the
            // moved job's own self pair.
            let move_pairs = |table: &mut Vec<u64>, width: usize| {
                for t in 0..last {
                    if t == r {
                        continue;
                    }
                    let src = (t * cap + last) * width;
                    let dst = (t * cap + r) * width;
                    table.copy_within(src..src + width, dst);
                }
                for k in 0..last {
                    let from = if k == r { last } else { k };
                    let src = (last * cap + from) * width;
                    let dst = (r * cap + k) * width;
                    table.copy_within(src..src + width, dst);
                }
            };
            move_pairs(&mut self.ep, self.stages);
            move_pairs(&mut self.ja_eq1, 1);
            move_pairs(&mut self.ja_eq45, 1);
            move_pairs(&mut self.ja_eq6, 1);
        }
        self.n = last;
        self.jobs.swap_remove(r);
        // The moved job's own masks land in slot r; every survivor drops
        // the victim's bit and renames bit `last` → `r`.
        self.interferes.swap_remove(r);
        self.competes.swap_remove(r);
        let last_id = JobId::new(last);
        for mask in self.interferes.iter_mut().chain(&mut self.competes) {
            mask.remove(removed);
            if mask.remove(last_id) {
                mask.insert(removed);
            }
        }
        self.opa_block = OnceLock::new();
    }

    /// Removes the job with the highest id — the rollback path of a
    /// rejected admission, undoing the matching
    /// [`PairTables::extend_with_job`]. `O(n)`; the dead row and column
    /// stay allocated for the next arrival. Right after that extension
    /// the [`PairTables::generation`] rolls back with the contents.
    ///
    /// The lazily-built Eq. 5 blocking cache is discarded (a removal can
    /// lower a per-stage maximum, which cannot be undone incrementally);
    /// it rebuilds on the next Eq. 5 evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the tables are empty.
    pub fn remove_last_job(&mut self) {
        assert!(self.n > 0, "remove_last_job on empty tables");
        let parent = self.parent_generation;
        self.remove_job(JobId::new(self.n - 1));
        if let Some(parent) = parent {
            self.generation = parent;
        }
    }

    /// The stamp of the current contents: two tables with equal
    /// generations in one process hold identical values.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The [`PairTables::generation`] the tables had before the latest
    /// [`PairTables::extend_with_job`], while that extension is their
    /// latest mutation; `None` otherwise.
    #[must_use]
    pub fn parent_generation(&self) -> Option<u64> {
        self.parent_generation
    }

    /// The Eq. 5 blocking constants, `Σ_j max_{k ∈ J∖J_i, interfering}
    /// ep_{k,j}` per target, computed on first use.
    pub(crate) fn opa_block(&self) -> &[u64] {
        &self
            .opa_block
            .get_or_init(|| {
                let mut maxima = vec![0u64; self.n * self.stages];
                let mut sum = Vec::with_capacity(self.n);
                for t in 0..self.n {
                    let slots = &mut maxima[t * self.stages..(t + 1) * self.stages];
                    for k in self.interferes[t].iter() {
                        let base = (t * self.cap + k.index()) * self.stages;
                        let row = &self.ep[base..base + self.stages];
                        for (slot, &v) in slots.iter_mut().zip(row) {
                            if v > *slot {
                                *slot = v;
                            }
                        }
                    }
                    sum.push(slots.iter().sum());
                }
                OpaBlock { maxima, sum }
            })
            .sum
    }

    /// Number of jobs the tables currently describe.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.n
    }

    /// Number of pipeline stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages
    }

    /// Allocated job capacity of the pair-indexed arrays (grows on demand;
    /// see [`PairTables::reserve`]).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The interference mask of a target: bit `k` is set iff `k ≠ target`
    /// and the interference windows of the pair overlap.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn interference_mask(&self, target: JobId) -> &JobMask {
        &self.interferes[target.index()]
    }

    /// `ep_{k,j}`: the processing time of `interferer` at `stage` if the
    /// pair shares that stage's resource, zero otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the stage is out of range, and in debug builds if either
    /// job id is.
    #[must_use]
    pub fn ep(&self, target: JobId, interferer: JobId, stage: StageId) -> Time {
        debug_assert!(target.index() < self.n && interferer.index() < self.n);
        assert!(stage.index() < self.stages, "stage out of range");
        Time::new(self.ep_at(target.index(), interferer.index(), stage.index()))
    }

    /// The Eq. 6/10 job-additive term of `interferer` against `target`:
    /// `Σ_{x=1}^{w_{i,k}} et_{k,x}`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either job id is out of range.
    #[must_use]
    pub fn ja_eq6(&self, target: JobId, interferer: JobId) -> Time {
        debug_assert!(target.index() < self.n && interferer.index() < self.n);
        Time::new(self.ja_eq6[target.index() * self.cap + interferer.index()])
    }

    /// The competitor mask of a target: bit `k` is set iff `k ≠ target`
    /// and the pair shares at least one resource somewhere in the
    /// pipeline (the set `M_i`, identical to
    /// [`JobSet::competitors`](msmr_model::JobSet::competitors) but with
    /// no allocation).
    #[must_use]
    pub fn competitor_mask(&self, target: JobId) -> &JobMask {
        &self.competes[target.index()]
    }

    /// `ep_{k,j}` of `interferer` against `target`, in raw ticks.
    #[inline]
    pub(crate) fn ep_at(&self, target: usize, k: usize, stage: usize) -> u64 {
        self.ep[(target * self.cap + k) * self.stages + stage]
    }

    /// The `ep` row of `k` against `target`, one value per stage;
    /// `ep_row(k, k)` is `k`'s raw processing times.
    #[inline]
    pub(crate) fn ep_row(&self, target: usize, k: usize) -> &[u64] {
        let base = (target * self.cap + k) * self.stages;
        &self.ep[base..base + self.stages]
    }

    /// The job-additive scalars of one bound kind.
    pub(crate) fn job_additive(&self, kind: DelayBoundKind) -> JobAdditive<'_> {
        let (table, stride, shift) = match kind {
            DelayBoundKind::PreemptiveSingleResource => (&self.ja_eq1, self.cap, 0),
            DelayBoundKind::NonPreemptiveSingleResource => (&self.jobs.max_proc, 0, 0),
            DelayBoundKind::PreemptiveMsmr => (&self.ja_eq45, self.cap, 1),
            DelayBoundKind::NonPreemptiveMsmr | DelayBoundKind::NonPreemptiveOpa => {
                (&self.ja_eq45, self.cap, 0)
            }
            DelayBoundKind::RefinedPreemptive | DelayBoundKind::EdgeHybrid => {
                (&self.ja_eq6, self.cap, 0)
            }
        };
        JobAdditive {
            table,
            stride,
            shift,
        }
    }
}

/// One bound kind's job-additive scalars: interferer `k` adds
/// `table[target·stride + k] << shift` to `target`'s bound, and the
/// target's own term is its `t_{i,1} << shift`. Eq. 2 reads the per-job
/// `t_{k,1}` with stride 0; Eq. 3 reads Eq. 4/5's table doubled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobAdditive<'a> {
    table: &'a [u64],
    stride: usize,
    pub(crate) shift: u32,
}

impl JobAdditive<'_> {
    /// The term interferer `k` adds to `target`'s bound, in raw ticks.
    #[inline]
    pub(crate) fn pair(self, target: usize, k: usize) -> u64 {
        self.table[target * self.stride + k] << self.shift
    }
}
