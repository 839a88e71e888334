//! The results file a run writes and `compare` reads.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::stats::Summary;

/// One per-layer value: the median over the repetitions that saw it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerValue {
    pub unit: String,
    pub value: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failed_share: f64,
    /// Untraced repetitions behind every end-to-end summary.
    pub repetitions: u64,
    /// Latency samples behind the smallest per-repetition percentile.
    pub latency_samples_per_repetition: u64,
    /// FNV digest of the first repetition's verdict stream.
    pub digest: String,
    /// Outcome counts of the first repetition (exact for one seed).
    pub counts: BTreeMap<String, u64>,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<String, Summary>,
    pub per_layer: BTreeMap<String, LayerValue>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    pub schema: String,
    pub git_sha: String,
    pub nproc: u64,
    pub loadavg: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    /// This benchmark claims no gain; a change that does names the
    /// (metric, workload) pair here.
    pub claim: Option<String>,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

pub const SCHEMA: &str = "msmr-benchmark/1";

impl Results {
    /// # Errors
    ///
    /// A display string naming the file on I/O, parse or schema errors.
    pub fn load(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let results: Results = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        if results.schema != SCHEMA {
            return Err(format!("{path}: unknown schema `{}`", results.schema));
        }
        Ok(results)
    }
}
