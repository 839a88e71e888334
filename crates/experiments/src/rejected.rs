//! Rejected-heaviness experiment (Fig. 4d).

use std::collections::BTreeMap;

use msmr_sched::admission::rejected_heaviness_percent;
use msmr_sched::SolveCtx;
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator, WorkloadError};
use serde::{Deserialize, Serialize};

use crate::approach::{admission_rejects, Approach};

/// The admission-controller experiment of Fig. 4d: OPDCA, DMR and DM are
/// run as admission controllers (rejecting the job with the largest
/// deadline overshoot whenever they get stuck) and the *rejected
/// heaviness* — heaviness of rejected jobs as a percentage of the total —
/// is averaged over the generated test cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectedHeavinessExperiment {
    cases: usize,
    base_seed: u64,
}

impl RejectedHeavinessExperiment {
    /// Creates an experiment running `cases` test cases per configuration.
    #[must_use]
    pub fn new(cases: usize, base_seed: u64) -> Self {
        RejectedHeavinessExperiment { cases, base_seed }
    }

    /// Number of test cases per configuration.
    #[must_use]
    pub fn cases(&self) -> usize {
        self.cases
    }

    /// The approaches evaluated as admission controllers in Fig. 4d.
    #[must_use]
    pub const fn approaches() -> [Approach; 3] {
        [Approach::Opdca, Approach::Dmr, Approach::Dm]
    }

    /// Runs the experiment for one labelled workload configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if the configuration is invalid.
    pub fn run(
        &self,
        label: impl Into<String>,
        config: &EdgeWorkloadConfig,
    ) -> Result<RejectedHeavinessRow, WorkloadError> {
        let generator = EdgeWorkloadGenerator::new(config.clone())?;
        let mut totals: BTreeMap<Approach, f64> =
            Self::approaches().into_iter().map(|a| (a, 0.0)).collect();
        for case in 0..self.cases {
            let jobs = generator.generate_seeded(self.base_seed.wrapping_add(case as u64));
            // One context per case: the three controllers share its analysis.
            let ctx = SolveCtx::new(&jobs);
            for approach in Self::approaches() {
                let rejected = admission_rejects(approach, &ctx)
                    .expect("every Fig. 4d approach supports admission control");
                *totals.get_mut(&approach).expect("initialised above") +=
                    rejected_heaviness_percent(&jobs, &rejected);
            }
        }
        let cases = self.cases.max(1) as f64;
        let rejected_heaviness = totals
            .into_iter()
            .map(|(approach, sum)| (approach, sum / cases))
            .collect();
        Ok(RejectedHeavinessRow {
            label: label.into(),
            config: config.clone(),
            cases: self.cases,
            rejected_heaviness,
        })
    }
}

impl Default for RejectedHeavinessExperiment {
    fn default() -> Self {
        RejectedHeavinessExperiment::new(100, 2024)
    }
}

/// One bar group of Fig. 4d: the mean rejected heaviness of each admission
/// controller under one workload configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectedHeavinessRow {
    /// Human-readable label of the parameter setting (e.g. `"β=0.2"`).
    pub label: String,
    /// The workload configuration the row was measured for.
    pub config: EdgeWorkloadConfig,
    /// Number of evaluated test cases.
    pub cases: usize,
    /// Mean rejected heaviness (percent) per approach.
    pub rejected_heaviness: BTreeMap<Approach, f64>,
}

impl RejectedHeavinessRow {
    /// Mean rejected heaviness of one approach, in percent.
    #[must_use]
    pub fn rejected(&self, approach: Approach) -> f64 {
        self.rejected_heaviness
            .get(&approach)
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejected_heaviness_stays_in_range() {
        let experiment = RejectedHeavinessExperiment::new(3, 11);
        assert_eq!(experiment.cases(), 3);
        let config = EdgeWorkloadConfig::default()
            .with_jobs(12)
            .with_infrastructure(4, 3)
            .with_beta(0.2);
        let row = experiment.run("β=0.2", &config).unwrap();
        assert_eq!(row.label, "β=0.2");
        assert_eq!(row.cases, 3);
        for approach in RejectedHeavinessExperiment::approaches() {
            let value = row.rejected(approach);
            assert!((0.0..=100.0).contains(&value), "{approach}: {value}");
        }
    }

    #[test]
    fn invalid_configuration_is_reported() {
        let experiment = RejectedHeavinessExperiment::default();
        let bad = EdgeWorkloadConfig::default().with_gamma(-1.0);
        assert!(experiment.run("bad", &bad).is_err());
    }
}
