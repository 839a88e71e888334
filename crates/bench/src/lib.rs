//! Shared helpers for the ns-scale kernel benchmarks.
//!
//! This crate times kernels only: the criterion targets `scalability`
//! (how the algorithms scale with the number of jobs) and
//! `analysis_kernels` (the individual analysis kernels), and the
//! `kernels_json` harness that appends a run to `BENCH_kernels.json`.
//! Anything that crosses a socket or a thread — and the Fig. 4 sweep —
//! is measured by the standalone `benchmark/` package (`fig4_batch`,
//! `admit_*`, `evaluate_direct`), not here.

use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

mod kernels;

pub use kernels::run_kernel_report;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_valid_cases() {
        let jobs = generate_case(&paper_config().with_jobs(10).with_infrastructure(4, 3), 1);
        assert_eq!(jobs.len(), 10);
        let jobs = generate_case(&EdgeWorkloadConfig::scaled(20), 2);
        assert_eq!(jobs.len(), 20);
    }
}
