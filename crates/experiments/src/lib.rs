//! Experiment harness reproducing the evaluation of the MSMR scheduling
//! paper (§VI, Fig. 4a–4d).
//!
//! The harness glues the workload generator (`msmr-workload`), the
//! priority-assignment algorithms (`msmr-sched`) and the simulator
//! (`msmr-sim`) together:
//!
//! * [`Approach`] — the five evaluated approaches (DM, DMR, OPDCA, OPT,
//!   DCMP), all applied with the edge-computing delay bound (Eq. 10) and
//!   evaluated through the unified
//!   [`SolverRegistry`](msmr_sched::SolverRegistry) seam (see
//!   [`evaluate_all`]).
//! * [`AcceptanceExperiment`] — the acceptance ratios of one workload
//!   configuration (one point of Fig. 4a–4c), fanning its test cases out
//!   over worker threads via `SolverRegistry::evaluate_batch`.
//! * [`RejectedHeavinessExperiment`] — the admission-controller comparison
//!   of Fig. 4d.
//! * [`Panel`] and [`render`] — the four panels as data (title, parameter
//!   column, labelled points) and the one function that runs a panel and
//!   formats its table.
//!
//! Two binaries sit on top: `fig4 --panel a|b|c|d|all` prints what
//! [`render`] returns, and `inspect_case` diagnoses one generated case.
//! Both take the flags of [`cli::RunOptions`].
//!
//! # Example
//!
//! ```
//! use msmr_experiments::{AcceptanceExperiment, Approach};
//! use msmr_workload::EdgeWorkloadConfig;
//!
//! # fn main() -> Result<(), msmr_workload::WorkloadError> {
//! // A miniature version of the Fig. 4a sweep (2 cases, 20 jobs).
//! let experiment = AcceptanceExperiment::new(2, 42);
//! let config = EdgeWorkloadConfig::default().with_jobs(20).with_beta(0.05);
//! let row = experiment.run(&config)?;
//! assert!(row.acceptance(Approach::Opt) >= row.acceptance(Approach::Opdca));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acceptance;
mod approach;
pub mod cli;
mod figure;
mod rejected;
mod table;

pub use acceptance::{AcceptanceExperiment, AcceptanceRow};
pub use approach::{evaluate_all, Approach, EVALUATION_BOUND};
pub use figure::{render, Panel};
pub use rejected::{RejectedHeavinessExperiment, RejectedHeavinessRow};
pub use table::{format_markdown_table, Cell};
