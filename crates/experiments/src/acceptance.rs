//! Acceptance-ratio experiments (Fig. 4a–4c).

use std::collections::BTreeMap;

use msmr_model::JobSet;
use msmr_sched::{Budget, VerdictKind};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator, WorkloadError};
use serde::{Deserialize, Serialize};

use crate::approach::{evaluation_registry, Approach};

/// An acceptance-ratio experiment: generate `cases` test cases from a
/// workload configuration and record, for every approach, the percentage
/// of cases it accepts.
///
/// Figures 4a–4c of the paper are sweeps of this experiment over β,
/// `[h1,h2,h3]` and γ respectively; [`Panel`](crate::Panel) holds those
/// sweeps' points and [`render`](crate::render) prints one
/// [`AcceptanceRow`] per point.
///
/// Evaluation goes through
/// [`SolverRegistry::evaluate_batch`](msmr_sched::SolverRegistry::evaluate_batch):
/// the generated cases fan out over worker threads while each case is
/// evaluated with one shared analysis and the exact implication
/// shortcuts, so results are identical for every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptanceExperiment {
    cases: usize,
    base_seed: u64,
    opt_node_limit: u64,
    threads: usize,
}

impl AcceptanceExperiment {
    /// Creates an experiment running `cases` test cases per configuration,
    /// seeded deterministically from `base_seed`, evaluated on all
    /// available cores.
    #[must_use]
    pub fn new(cases: usize, base_seed: u64) -> Self {
        AcceptanceExperiment {
            cases,
            base_seed,
            opt_node_limit: 200_000,
            threads: msmr_par::default_threads(),
        }
    }

    /// Overrides the node budget of the exact pairwise search (larger =
    /// fewer `Undecided` outcomes, longer run time).
    #[must_use]
    pub fn with_opt_node_limit(mut self, node_limit: u64) -> Self {
        self.opt_node_limit = node_limit;
        self
    }

    /// Overrides the number of worker threads used to evaluate the batch
    /// of test cases (0 selects the available parallelism). Results do not
    /// depend on this value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            msmr_par::default_threads()
        } else {
            threads
        };
        self
    }

    /// Number of test cases per configuration.
    #[must_use]
    pub fn cases(&self) -> usize {
        self.cases
    }

    /// Worker threads used for the batch evaluation.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the experiment for one workload configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if the configuration is invalid.
    pub fn run(&self, config: &EdgeWorkloadConfig) -> Result<AcceptanceRow, WorkloadError> {
        let generator = EdgeWorkloadGenerator::new(config.clone())?;
        let cases: Vec<JobSet> = (0..self.cases)
            .map(|case| generator.generate_seeded(self.base_seed.wrapping_add(case as u64)))
            .collect();
        let batch = evaluation_registry().evaluate_batch(
            &cases,
            Budget::default().with_node_limit(self.opt_node_limit),
            self.threads,
        );

        let mut accepted: BTreeMap<Approach, usize> =
            Approach::all().into_iter().map(|a| (a, 0usize)).collect();
        let mut undecided = 0usize;
        for verdict in batch.iter().flatten() {
            match verdict.kind {
                VerdictKind::Accepted => {
                    let approach = Approach::from_solver_name(&verdict.solver)
                        .expect("registry contains only the paper approaches");
                    *accepted.get_mut(&approach).expect("initialised above") += 1;
                }
                VerdictKind::Undecided => undecided += 1,
                VerdictKind::Rejected => {}
            }
        }
        Ok(AcceptanceRow {
            config: config.clone(),
            cases: self.cases,
            accepted,
            opt_undecided: undecided,
        })
    }
}

impl Default for AcceptanceExperiment {
    fn default() -> Self {
        AcceptanceExperiment::new(100, 2024)
    }
}

/// One data point of an acceptance-ratio figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptanceRow {
    /// The workload configuration the row was measured for.
    pub config: EdgeWorkloadConfig,
    /// Number of evaluated test cases.
    pub cases: usize,
    /// Accepted-case counts per approach.
    pub accepted: BTreeMap<Approach, usize>,
    /// Number of cases where the exact pairwise search returned no verdict
    /// within its node budget (counted as rejections for OPT).
    pub opt_undecided: usize,
}

impl AcceptanceRow {
    /// Acceptance ratio of one approach, in percent.
    #[must_use]
    pub fn acceptance(&self, approach: Approach) -> f64 {
        if self.cases == 0 {
            return 100.0;
        }
        100.0 * self.accepted.get(&approach).copied().unwrap_or(0) as f64 / self.cases as f64
    }

    /// All acceptance ratios in the paper's legend order
    /// (DM, DMR, OPDCA, OPT, DCMP).
    #[must_use]
    pub fn acceptances(&self) -> Vec<(Approach, f64)> {
        Approach::all()
            .into_iter()
            .map(|a| (a, self.acceptance(a)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EdgeWorkloadConfig {
        EdgeWorkloadConfig::default()
            .with_jobs(12)
            .with_infrastructure(4, 3)
    }

    #[test]
    fn acceptance_ratios_are_consistent() {
        let experiment = AcceptanceExperiment::new(4, 7).with_opt_node_limit(50_000);
        assert_eq!(experiment.cases(), 4);
        let row = experiment.run(&tiny_config()).unwrap();
        assert_eq!(row.cases, 4);
        for (approach, ratio) in row.acceptances() {
            assert!(
                (0.0..=100.0).contains(&ratio),
                "{approach} ratio out of range"
            );
        }
        // Dominance relations guaranteed by construction: OPT accepts
        // whenever OPDCA or DMR does.
        assert!(row.acceptance(Approach::Opt) >= row.acceptance(Approach::Opdca));
        assert!(row.acceptance(Approach::Opt) >= row.acceptance(Approach::Dmr));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let config = tiny_config();
        let sequential = AcceptanceExperiment::new(4, 7)
            .with_opt_node_limit(50_000)
            .with_threads(1);
        let parallel = AcceptanceExperiment::new(4, 7)
            .with_opt_node_limit(50_000)
            .with_threads(4);
        assert_eq!(sequential.threads(), 1);
        assert_eq!(parallel.threads(), 4);
        let a = sequential.run(&config).unwrap();
        let b = parallel.run(&config).unwrap();
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.opt_undecided, b.opt_undecided);
    }

    #[test]
    fn zero_threads_selects_auto_parallelism() {
        let experiment = AcceptanceExperiment::new(1, 1).with_threads(0);
        assert!(experiment.threads() >= 1);
    }

    #[test]
    fn invalid_configuration_is_reported() {
        let experiment = AcceptanceExperiment::default();
        let bad = tiny_config().with_beta(0.0);
        assert!(experiment.run(&bad).is_err());
    }

    #[test]
    fn zero_cases_row_defaults_to_full_acceptance() {
        let experiment = AcceptanceExperiment::new(0, 0);
        let row = experiment.run(&tiny_config()).unwrap();
        assert!((row.acceptance(Approach::Dm) - 100.0).abs() < 1e-12);
    }
}
