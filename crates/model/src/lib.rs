//! System model for multi-stage multi-resource (MSMR) distributed real-time
//! systems.
//!
//! This crate provides the data model used throughout the `msmr` workspace,
//! reproducing the system model of
//! *"Optimal Fixed Priority Scheduling in Multi-Stage Multi-Resource
//! Distributed Real-Time Systems"* (DATE 2024):
//!
//! * a [`Pipeline`] of `N` stages, each stage holding one or more
//!   heterogeneous resources of the same type and a per-stage
//!   [`PreemptionPolicy`];
//! * real-time [`Job`]s `J_i = <A_i, {P_{i,j}}, D_i, {R_{i,j}}>` with an
//!   arrival time, per-stage processing times, an end-to-end deadline and a
//!   per-stage resource mapping;
//! * a validated [`JobSet`] combining a pipeline and its jobs, offering all
//!   derived quantities used by the delay composition algebra (shared-stage
//!   processing times `ep_{k,j}` / `et_{k,x}`, [`Segments`],
//!   competitor sets `M_{i,j}` / `M_i`) and by the evaluation
//!   (per-job, per-resource and system heaviness, [`HeavinessProfile`]).
//!
//! # Example
//!
//! ```
//! use msmr_model::{JobSet, JobSetBuilder, PreemptionPolicy, Time};
//!
//! # fn main() -> Result<(), msmr_model::ModelError> {
//! // A two-stage pipeline: 2 resources in stage 0, 1 resource in stage 1.
//! let mut builder = JobSetBuilder::new();
//! builder
//!     .stage("network", 2, PreemptionPolicy::NonPreemptive)
//!     .stage("server", 1, PreemptionPolicy::Preemptive);
//! builder
//!     .job()
//!     .arrival(Time::ZERO)
//!     .deadline(Time::from_millis(100))
//!     .stage_time(Time::from_millis(10), 0)
//!     .stage_time(Time::from_millis(40), 0)
//!     .add()?;
//! builder
//!     .job()
//!     .arrival(Time::ZERO)
//!     .deadline(Time::from_millis(80))
//!     .stage_time(Time::from_millis(5), 1)
//!     .stage_time(Time::from_millis(20), 0)
//!     .add()?;
//! let jobs: JobSet = builder.build()?;
//! assert_eq!(jobs.len(), 2);
//! // The two jobs only share the second stage's single resource.
//! assert_eq!(jobs.segments(0.into(), 1.into()).count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod heaviness;
mod ids;
mod interference;
mod job;
mod jobset;
mod pipeline;
mod time;

pub use error::ModelError;
pub use heaviness::{is_heavy, HeavinessProfile, ResourceHeaviness};
pub use ids::{JobId, ResourceId, ResourceRef, StageId};
pub use interference::{Segment, Segments, SharedStageTimes};
pub use job::{Job, JobBuilder};
pub use jobset::{JobSet, JobSetBuilder};
pub use pipeline::{Pipeline, PreemptionPolicy, Stage};
pub use time::Time;

/// Convenience result alias for fallible model-construction operations.
pub type Result<T, E = ModelError> = core::result::Result<T, E>;
