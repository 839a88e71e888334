//! Machine-readable benchmark reporting (`BENCH_kernels.json`).
//!
//! The criterion-style benches print human-readable samples; this module
//! measures the same kernels into a serializable [`BenchReport`] so the
//! performance trajectory of the repository can be tracked commit over
//! commit. The `kernels_json` bench target **appends** each run — keyed
//! by git SHA and timestamp — to the [`BenchHistory`] in
//! `BENCH_kernels.json` at the workspace root (override with the
//! `MSMR_BENCH_OUT` environment variable) instead of clobbering previous
//! measurements, and is the history's only writer. A fast variant of the
//! same harness runs as an ordinary `#[test]` in CI so the report cannot
//! bit-rot.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One measured data point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark name, `group/parameter` style.
    pub name: String,
    /// Measured value (interpretation given by `unit`).
    pub value: f64,
    /// `"ns/op"` for kernels, `"cases/sec"` for throughput.
    pub unit: String,
}

/// A collection of measurements with a stable JSON schema.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema identifier for downstream tooling.
    pub schema: String,
    /// `true` when the report was produced by the reduced CI smoke run
    /// (numbers are then only sanity signals, not trackable).
    pub fast: bool,
    /// The measurements, in execution order.
    pub results: Vec<BenchRecord>,
}

impl BenchReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(fast: bool) -> Self {
        BenchReport {
            schema: "msmr-bench-kernels/1".to_string(),
            fast,
            results: Vec::new(),
        }
    }

    /// Times `iters` executions of `routine` per sample, takes the best of
    /// `samples` samples and records the per-iteration nanoseconds under
    /// `name`. Returns the recorded value.
    pub fn time_ns<T>(
        &mut self,
        name: &str,
        samples: usize,
        iters: usize,
        mut routine: impl FnMut() -> T,
    ) -> f64 {
        let _ = black_box(routine()); // warm-up, not recorded
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(1) {
            let start = Instant::now();
            for _ in 0..iters.max(1) {
                let _ = black_box(routine());
            }
            let elapsed = start.elapsed().as_nanos() as f64 / iters.max(1) as f64;
            best = best.min(elapsed);
        }
        self.record(name, best, "ns/op");
        best
    }

    /// Appends an already-measured value.
    pub fn record(&mut self, name: &str, value: f64, unit: &str) {
        self.results.push(BenchRecord {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Looks a measurement up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&BenchRecord> {
        self.results.iter().find(|record| record.name == name)
    }

    /// Serializes the report to JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization cannot fail")
    }

    /// Prints a human-readable table of the measurements.
    pub fn print_table(&self) {
        for record in &self.results {
            println!(
                "  {:<44} {:>14.1} {}",
                record.name, record.value, record.unit
            );
        }
    }
}

/// One recorded benchmark run of the history file: a [`BenchReport`]
/// keyed by the git commit and wall-clock second it measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRun {
    /// `git rev-parse --short=12 HEAD` at measurement time (`"unknown"`
    /// outside a git checkout; overridable with `MSMR_GIT_SHA`).
    pub git_sha: String,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
    /// Whether the run used smoke-test proportions.
    pub fast: bool,
    /// The measurements, in execution order.
    pub results: Vec<BenchRecord>,
}

/// The append-only measurement history stored in `BENCH_kernels.json`
/// (schema v2). Every `kernels_json` run appends one [`BenchRun`], so the
/// performance trajectory survives across commits instead of being
/// overwritten.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchHistory {
    /// Schema identifier for downstream tooling.
    pub schema: String,
    /// All recorded runs, oldest first.
    pub runs: Vec<BenchRun>,
}

impl Default for BenchHistory {
    fn default() -> Self {
        BenchHistory {
            schema: BenchHistory::SCHEMA.to_string(),
            runs: Vec::new(),
        }
    }
}

impl BenchHistory {
    /// The current history schema identifier.
    pub const SCHEMA: &'static str = "msmr-bench-kernels/2";

    /// Loads the history at `path`. A missing file yields an empty
    /// history.
    ///
    /// # Errors
    ///
    /// Returns an `InvalidData` error when the file exists but is not a
    /// v2 history, and propagates other I/O errors.
    pub fn load(path: &Path) -> std::io::Result<BenchHistory> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(BenchHistory::default())
            }
            Err(e) => return Err(e),
        };
        serde_json::from_str(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not a v2 bench history: {e}", path.display()),
            )
        })
    }

    /// Writes the history to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }

    /// The most recent run, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&BenchRun> {
        self.runs.last()
    }
}

impl BenchReport {
    /// Stamps this report into a history run keyed by the current git
    /// SHA and wall clock.
    #[must_use]
    pub fn to_run(&self) -> BenchRun {
        BenchRun {
            git_sha: git_head_sha(),
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            fast: self.fast,
            results: self.results.clone(),
        }
    }

    /// Appends this report as one run to the history at `path` (creating
    /// it as needed) and returns the updated history.
    ///
    /// # Errors
    ///
    /// Propagates load/write errors.
    pub fn append_to(&self, path: &Path) -> std::io::Result<BenchHistory> {
        let mut history = BenchHistory::load(path)?;
        history.schema = BenchHistory::SCHEMA.to_string();
        history.runs.push(self.to_run());
        history.write(path)?;
        Ok(history)
    }
}

/// The short SHA of the checked-out commit: `MSMR_GIT_SHA` when set,
/// otherwise `git rev-parse`, otherwise `"unknown"`.
fn git_head_sha() -> String {
    if let Ok(sha) = std::env::var("MSMR_GIT_SHA") {
        if !sha.trim().is_empty() {
            return sha.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|sha| sha.trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The default output location: `BENCH_kernels.json` at the workspace
/// root, overridable with `MSMR_BENCH_OUT`.
#[must_use]
pub fn default_report_path() -> PathBuf {
    if let Some(path) = std::env::var_os("MSMR_BENCH_OUT") {
        return PathBuf::from(path);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_kernels.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_serializes_round_trip() {
        let mut report = BenchReport::new(true);
        let measured = report.time_ns("noop", 3, 100, || 1 + 1);
        assert!(measured >= 0.0);
        report.record("throughput", 42.5, "cases/sec");
        assert_eq!(report.get("throughput").unwrap().unit, "cases/sec");
        assert!(report.get("missing").is_none());

        let json = report.to_json();
        assert!(json.contains("msmr-bench-kernels/1"));
        let parsed: BenchReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(parsed, report);
    }

    #[test]
    fn history_appends_runs_instead_of_clobbering() {
        let path = std::env::temp_dir().join(format!(
            "msmr_bench_history_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut first = BenchReport::new(true);
        first.record("kernel/a", 1.0, "ns/op");
        let history = first.append_to(&path).unwrap();
        assert_eq!(history.runs.len(), 1);

        let mut second = BenchReport::new(false);
        second.record("kernel/a", 2.0, "ns/op");
        let history = second.append_to(&path).unwrap();
        assert_eq!(
            history.runs.len(),
            2,
            "second run must append, not overwrite"
        );
        assert_eq!(history.schema, BenchHistory::SCHEMA);
        assert!(history.runs[0].fast && !history.runs[1].fast);
        assert!(history.latest().unwrap().unix_time >= history.runs[0].unix_time);
        assert!(!history.latest().unwrap().git_sha.is_empty());

        // Reload round-trips.
        let reloaded = BenchHistory::load(&path).unwrap();
        assert_eq!(reloaded, history);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_single_report_files_are_invalid_data() {
        let path = std::env::temp_dir().join(format!(
            "msmr_bench_v1_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut legacy = BenchReport::new(false);
        legacy.record("kernel/a", 3.5, "ns/op");
        std::fs::write(&path, legacy.to_json()).unwrap();

        let error = BenchHistory::load(&path).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        // Appending refuses too, and leaves the file as it found it.
        let error = legacy.append_to(&path).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), legacy.to_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_history_files_load_empty() {
        let path = std::env::temp_dir().join("msmr_bench_definitely_missing.json");
        let _ = std::fs::remove_file(&path);
        let history = BenchHistory::load(&path).unwrap();
        assert!(history.runs.is_empty());
        assert_eq!(history.schema, BenchHistory::SCHEMA);
    }

    #[test]
    fn default_path_respects_the_env_override() {
        // Can't mutate the environment safely in a parallel test run, so
        // just check the default shape.
        let path = default_report_path();
        assert!(path.to_string_lossy().contains("BENCH_kernels.json"));
    }
}
