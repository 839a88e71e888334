//! Delay composition algebra (DCA) end-to-end delay bounds for multi-stage
//! multi-resource (MSMR) pipelines.
//!
//! This crate implements every delay bound used by the paper
//! *"Optimal Fixed Priority Scheduling in Multi-Stage Multi-Resource
//! Distributed Real-Time Systems"* (DATE 2024). A [`DelayBoundKind`]
//! selects one; the table links each to its naive transcription in
//! [`reference`](mod@reference):
//!
//! | Paper equation | Reference transcription | Scope |
//! |----------------|-------------------------|-------|
//! | Eq. 1 | [`ReferenceBounds::preemptive_single_resource_bound`](reference::ReferenceBounds::preemptive_single_resource_bound) | preemptive, multi-stage *single-resource* pipeline |
//! | Eq. 2 | [`ReferenceBounds::non_preemptive_single_resource_bound`](reference::ReferenceBounds::non_preemptive_single_resource_bound) | non-preemptive, single-resource pipeline (OPA-*in*compatible) |
//! | Eq. 3 | [`ReferenceBounds::preemptive_msmr_bound`](reference::ReferenceBounds::preemptive_msmr_bound) | preemptive MSMR, per-segment job-additive terms |
//! | Eq. 4 | [`ReferenceBounds::non_preemptive_msmr_bound`](reference::ReferenceBounds::non_preemptive_msmr_bound) | non-preemptive MSMR (OPA-*in*compatible) |
//! | Eq. 5 | [`ReferenceBounds::non_preemptive_opa_bound`](reference::ReferenceBounds::non_preemptive_opa_bound) | non-preemptive MSMR, pessimistic but OPA-compatible |
//! | Eq. 6 | [`ReferenceBounds::refined_preemptive_bound`](reference::ReferenceBounds::refined_preemptive_bound) | preemptive MSMR, refined `w_{i,k}` job-additive terms |
//! | Eq. 10 | [`ReferenceBounds::edge_hybrid_bound`](reference::ReferenceBounds::edge_hybrid_bound) | preemptive pipeline with a non-preemptive last stage (edge offload/compute/download) |
//!
//! A bound is a function of the *target* job and its sets of higher- and
//! lower-priority jobs (`H_i` and `L_i`); it is an upper bound on the
//! end-to-end delay `Δ_i`. Jobs whose interference windows do not overlap
//! the target's window are ignored automatically, per §II of the paper.
//!
//! # One implementation: the incremental evaluator
//!
//! [`DelayEvaluator`] is what every engine runs — the OPT
//! branch-and-bound, Audsley's loop in OPDCA, DM and DMR's repair phase,
//! and the `msmr-serve` sessions. Search algorithms evaluate millions of
//! *neighbouring* interference configurations, so the evaluator is
//! allocation-free and incremental, built from three pieces:
//!
//! * [`JobMask`] — a bitset over job ids whose first 128 bits live inline
//!   (no heap for `n ≤ 128`; larger populations pre-size their spill words
//!   once). Set membership, the window-overlap filter and iteration are
//!   word operations.
//! * [`PairTables`] — flat struct-of-arrays pair tables, built once inside
//!   [`Analysis::new`], each fact stored once: dense `ep_{k,j}` ticks
//!   contiguous per (target, interferer), whose diagonal is each job's raw
//!   processing times; one precomputed job-additive scalar per pair for
//!   the three bound families whose scalar depends on the pair (Eqs. 1,
//!   4/5 and 6/10 — Eq. 3 reads Eq. 4/5's doubled, Eq. 2 the interferer's
//!   own `t_{k,1}`); per-target interference masks; per-job scalars
//!   computed once when the job joins (deadline, `t_{k,1}`, `t_{k,2}`,
//!   arrival, absolute deadline); and the lazily built Eq. 5 blocking sum.
//! * [`DelayEvaluator`] — maintains, per target, the running job-additive
//!   sum and the per-stage maxima (plus blocking maxima where the bound
//!   has a lower-priority term) under `add_higher`/`remove_higher`/
//!   `add_lower`/`remove_lower` updates in `O(N)` each, with an exact
//!   recompute fallback when a removed job held a stage maximum; reading a
//!   delay is `O(1)`, and [`DelayEvaluator::fits`] is the schedulability
//!   test `S_DCA` (`Δ_i ≤ D_i`).
//!
//! Callers that mutate priority relations (e.g. an undo-based search)
//! apply the inverse operations on backtrack instead of cloning any
//! state.
//!
//! An analysis also changes **in place** for admission-control
//! services: [`Analysis::push`] appends one arriving job by computing
//! only its new row and column (`O(n·N)` pairs, bit-identical to a full
//! rebuild — property-tested in `tests/tables_extension.rs`),
//! [`Analysis::pop`] rolls a rejected arrival back and
//! [`Analysis::swap_remove`] lets any job depart with no pair
//! recomputed. The `msmr-serve` sessions keep one owned
//! ([`Analysis::owned`]) analysis warm across requests this way instead
//! of re-running the `O(n²·N)` pass per arrival.
//!
//! The [`reference`](mod@reference) module is the test oracle: the same
//! bounds written out from scratch over one
//! [`PairInterference`](reference::PairInterference) per job pair. Its
//! evaluations are exact integer sums over the same ticks, so evaluator
//! delays are bit-identical to it for every reachable state and all seven
//! kinds (property-tested in `tests/evaluator_equivalence.rs`). Only tests
//! and the `delay_bound_naive/*` kernel series read it.
//!
//! # Example
//!
//! ```
//! use msmr_dca::{Analysis, DelayBoundKind};
//! use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
//!
//! # fn main() -> Result<(), msmr_model::ModelError> {
//! let mut b = JobSetBuilder::new();
//! b.stage("net", 1, PreemptionPolicy::Preemptive)
//!     .stage("cpu", 1, PreemptionPolicy::Preemptive);
//! b.job()
//!     .deadline(Time::from_millis(100))
//!     .stage_time(Time::from_millis(10), 0)
//!     .stage_time(Time::from_millis(30), 0)
//!     .add()?;
//! b.job()
//!     .deadline(Time::from_millis(60))
//!     .stage_time(Time::from_millis(5), 0)
//!     .stage_time(Time::from_millis(10), 0)
//!     .add()?;
//! let jobs = b.build()?;
//! let analysis = Analysis::new(&jobs);
//! let mut eval = analysis.evaluator(DelayBoundKind::RefinedPreemptive);
//!
//! // Job 1 alone: its largest stage plus its first stage, 10 + 5.
//! assert_eq!(eval.delay(1.into()), Time::from_millis(15));
//!
//! // Job 0 at the lowest priority, below job 1: its own 30, job 1's two
//! // job-additive terms (one two-stage segment: 10 + 5) and the first
//! // stage's maximum, max(10, 5).
//! eval.add_higher(0.into(), 1.into());
//! eval.add_lower(1.into(), 0.into());
//! assert_eq!(eval.delay(0.into()), Time::from_millis(55));
//! assert!(eval.fits(0.into()) && eval.fits(1.into()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bounds;
mod context;
mod evaluator;
mod mask;
mod pair;
pub mod reference;
mod tables;

pub use analysis::Analysis;
pub use bounds::DelayBoundKind;
pub use evaluator::{DelayEvaluator, EvaluatorState};
pub use mask::{JobMask, JobMaskAndIter, JobMaskIter};
pub use tables::PairTables;
