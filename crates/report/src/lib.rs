//! `msmr-report` — machine-readable benchmark reporting and trend
//! checks for the ns-scale kernel history.
//!
//! The [`report`] module defines the `BENCH_kernels.json` schema: a
//! [`BenchReport`] of named measurements, appended run-by-run (keyed by
//! git SHA + timestamp) into the [`BenchHistory`] by its one writer,
//! `msmr-bench`'s `kernels_json` harness. The [`trend`] module reads
//! that history back and flags kernels that regressed beyond a
//! tolerance — the `bench_trend` binary is the CI gate. Anything that
//! crosses a socket or a thread is measured and judged by the
//! standalone `benchmark/` package instead.
//!
//! This crate is deliberately solver-free (serde only).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod trend;

pub use report::{default_report_path, BenchHistory, BenchRecord, BenchReport, BenchRun};
pub use trend::{check_trend, Regression, TrendConfig, TrendReport};
