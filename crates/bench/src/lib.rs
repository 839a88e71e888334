//! Shared helpers for the criterion benchmarks that regenerate the paper's
//! evaluation figures.
//!
//! Every figure of the paper has a matching bench target
//! (`fig4a`–`fig4d`); each target first prints the figure's data series
//! (acceptance ratios or rejected heaviness, at a reduced number of test
//! cases so `cargo bench` stays tractable) and then measures the runtime of
//! the underlying analysis on representative test cases. The additional
//! `scalability` and `analysis_kernels` targets benchmark how the
//! algorithms scale with the number of jobs and the cost of the individual
//! analysis kernels.

use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

mod kernels;

/// Re-export of the `msmr-report` reporting schema (this crate's
/// historical home for it), so existing `msmr_bench::report::…` paths
/// keep working.
pub use msmr_report as report;

pub use kernels::run_kernel_report;
pub use msmr_report::{
    check_trend, default_report_path, BenchHistory, BenchRecord, BenchReport, BenchRun, Regression,
    TrendConfig, TrendReport,
};

/// Number of test cases used for the data tables printed by the figure
/// benches (the standalone `fig4*` binaries default to the paper's 100).
pub const BENCH_CASES: usize = 5;

/// Base seed shared by every bench so results are reproducible.
pub const BENCH_SEED: u64 = 2024;

/// Generates one paper-scale edge test case for a configuration.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn generate_case(config: &EdgeWorkloadConfig, seed: u64) -> msmr_model::JobSet {
    EdgeWorkloadGenerator::new(config.clone())
        .expect("valid workload configuration")
        .generate_seeded(seed)
}

/// The paper's default configuration (100 jobs, 25 APs, 20 servers).
#[must_use]
pub fn paper_config() -> EdgeWorkloadConfig {
    EdgeWorkloadConfig::default()
}

/// A reduced configuration for micro-benchmarks.
#[must_use]
pub fn small_config(jobs: usize) -> EdgeWorkloadConfig {
    EdgeWorkloadConfig::default()
        .with_jobs(jobs)
        .with_infrastructure((jobs / 4).clamp(2, 25), (jobs / 5).clamp(2, 20))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_valid_cases() {
        let jobs = generate_case(&paper_config().with_jobs(10).with_infrastructure(4, 3), 1);
        assert_eq!(jobs.len(), 10);
        let jobs = generate_case(&small_config(20), 2);
        assert_eq!(jobs.len(), 20);
    }
}
