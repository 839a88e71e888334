//! Discrete-event simulator for fixed-priority multi-stage multi-resource
//! (MSMR) pipelines.
//!
//! The simulator executes a [`JobSet`](msmr_model::JobSet) under a
//! per-stage fixed-priority assignment ([`PriorityMap`]) and reports the
//! exact completion time of every job at every stage
//! ([`SimulationOutcome`]). Each stage honours its
//! [`PreemptionPolicy`](msmr_model::PreemptionPolicy): preemptive resources
//! always run the highest-priority ready job, non-preemptive resources run
//! a started job to completion of its stage demand.
//!
//! Inside the workspace the simulator serves two purposes:
//!
//! * it *is* the DCMP baseline of the paper's evaluation (§VI-A), which
//!   decomposes end-to-end deadlines into per-stage virtual deadlines and
//!   then simulates deadline-monotonic execution, and
//! * it provides an executable ground truth against which the delay
//!   composition bounds of `msmr-dca` are validated (simulated delay never
//!   exceeds the analytical bound for priority orderings).
//!
//! # Engine
//!
//! One event-driven engine serves both entry points. It visits only the
//! instants at which a job arrives or a stage completes — at most
//! `(N + 1) · n` of them for `n` jobs on `N` stages — and at each instant
//! re-dispatches only the resources that instant touched: the one a
//! completion freed and the one the job moved on to. The executing job's
//! remaining demand is charged lazily, when it is preempted; pending
//! completions sit in a binary heap; a zero-demand stage completes the
//! moment its job becomes ready, without occupying the resource. With
//! `P ≤ n · N` preemptions and at most `k` jobs ready at one resource,
//! a simulation costs `O((n · N + P) · (log(n · N) + k))` time and, for
//! `R` resources, `O(n · N + R)` memory besides the trace.
//!
//! * [`Simulator::run`] records the execution trace and returns a
//!   [`SimulationOutcome`].
//! * [`Simulator::completions`] records nothing and returns only the
//!   [`CompletionTable`] — the path for callers that simulate thousands
//!   of schedules and read completion times alone, such as the DCMP
//!   solver.
//!
//! Both compute identical completion times: the engine is generic over
//! where slices go, not over how the schedule is built.
//!
//! # Trace contract
//!
//! [`SimulationOutcome::trace`] holds one [`ExecutionSlice`] per *maximal*
//! contiguous run of a job on a resource: a job that is never preempted at
//! a stage has exactly one slice there, each preemption adds one, and a
//! zero-demand stage has none, so a trace has at most `n · N + P` slices.
//! Two slices of one job at one stage never touch. Slices are ordered by
//! start time, then by resource (stage, then index within the stage);
//! slices of one resource never overlap.
//!
//! # Example
//!
//! ```
//! use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
//! use msmr_sim::{PriorityMap, Simulator};
//!
//! # fn main() -> Result<(), msmr_model::ModelError> {
//! let mut b = JobSetBuilder::new();
//! b.stage("cpu", 1, PreemptionPolicy::Preemptive);
//! b.job()
//!     .deadline(Time::from_millis(10))
//!     .stage_time(Time::from_millis(4), 0)
//!     .add()?;
//! b.job()
//!     .deadline(Time::from_millis(20))
//!     .stage_time(Time::from_millis(5), 0)
//!     .add()?;
//! let jobs = b.build()?;
//!
//! // Job 0 gets the higher priority.
//! let priorities = PriorityMap::from_global_order(&jobs, &[0.into(), 1.into()]);
//! let outcome = Simulator::new(&jobs).run(&priorities);
//! assert_eq!(outcome.delay(0.into()), Time::from_millis(4));
//! assert_eq!(outcome.delay(1.into()), Time::from_millis(9));
//! assert!(outcome.all_deadlines_met());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod outcome;
mod priority;
mod render;

pub use engine::Simulator;
pub use outcome::{CompletionTable, ExecutionSlice, SimulationOutcome};
pub use priority::PriorityMap;
pub use render::render_gantt;
