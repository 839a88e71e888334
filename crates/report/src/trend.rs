//! Regression trend checks over the `BENCH_kernels.json` run history.
//!
//! The history accumulates one [`BenchRun`] per `kernels_json`
//! invocation; this module compares the latest run against the best
//! value each of its kernels achieved over that kernel's previous `N`
//! recordings and flags regressions beyond a configurable tolerance.
//! Series the latest run no longer records are reported as `retired`,
//! not judged. The
//! direction of "worse" follows the record's unit: `ns/op` and `us` are
//! latency-like (higher is worse), `cases/sec` and `req/sec` are
//! throughput-like (lower is worse); records with other units (e.g.
//! counts) are skipped. Runs marked `fast` are CI smoke runs whose
//! numbers are sanity signals only, so they are excluded by default.

use crate::report::{BenchHistory, BenchRun};

/// Configuration of a [`check_trend`] pass.
#[derive(Debug, Clone)]
pub struct TrendConfig {
    /// How many runs before the latest form the baseline window.
    pub window: usize,
    /// Allowed degradation, in percent, against the window's best value
    /// before a kernel counts as regressed.
    pub tolerance_pct: f64,
    /// Include `fast` (CI smoke) runs. Off by default: their numbers
    /// are measured at reduced proportions and are not trackable.
    pub include_fast: bool,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            window: 5,
            tolerance_pct: 25.0,
            include_fast: false,
        }
    }
}

/// Whether a record's unit is comparable, and in which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Higher values are worse (`ns/op`, `us`).
    LowerIsBetter,
    /// Lower values are worse (`cases/sec`, `req/sec`).
    HigherIsBetter,
}

fn direction(unit: &str) -> Option<Direction> {
    match unit {
        "ns/op" | "us" => Some(Direction::LowerIsBetter),
        "cases/sec" | "req/sec" => Some(Direction::HigherIsBetter),
        _ => None,
    }
}

/// One kernel that regressed beyond the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The record name (`group/parameter` style).
    pub name: String,
    /// The record unit.
    pub unit: String,
    /// Best value over the baseline window.
    pub baseline: f64,
    /// The latest run's value.
    pub latest: f64,
    /// Degradation in percent (always ≥ 0; sign-normalized for the
    /// unit's direction).
    pub change_pct: f64,
}

/// The outcome of one trend check.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Kernels compared (present in the latest run with a comparable
    /// unit and at least one baseline value).
    pub compared: usize,
    /// Kernels that regressed beyond the tolerance.
    pub regressions: Vec<Regression>,
    /// Human-readable notes (skipped kernels, trivially-passing
    /// checks).
    pub notes: Vec<String>,
}

impl TrendReport {
    /// `true` when no kernel regressed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares every kernel the **newest** eligible run recorded against
/// the best value over that kernel's up-to-`window` earlier recordings.
/// The history has one writer, so the newest run is the current kernel
/// set: a series it no longer records was deleted with its bench and is
/// listed once as `retired` instead of being judged on stale values.
/// Kernels without an earlier recording pass with a note — a fresh
/// repository must not fail its own CI.
#[must_use]
pub fn check_trend(history: &BenchHistory, config: &TrendConfig) -> TrendReport {
    let eligible: Vec<&BenchRun> = history
        .runs
        .iter()
        .filter(|run| config.include_fast || !run.fast)
        .collect();
    let mut report = TrendReport {
        compared: 0,
        regressions: Vec::new(),
        notes: Vec::new(),
    };
    let Some((newest, earlier)) = eligible.split_last() else {
        report
            .notes
            .push("no eligible runs in the history — nothing to compare".to_string());
        return report;
    };

    for record in &newest.results {
        let (name, unit) = (&record.name, &record.unit);
        let Some(direction) = direction(unit) else {
            report
                .notes
                .push(format!("{name}: unit `{unit}` not compared"));
            continue;
        };
        let previous: Vec<f64> = earlier
            .iter()
            .flat_map(|run| &run.results)
            .filter(|r| r.name == *name && r.unit == *unit)
            .map(|r| r.value)
            .collect();
        let window = &previous[previous.len().saturating_sub(config.window.max(1))..];
        let Some(baseline) = window
            .iter()
            .copied()
            .reduce(|best, value| match direction {
                Direction::LowerIsBetter => best.min(value),
                Direction::HigherIsBetter => best.max(value),
            })
        else {
            report
                .notes
                .push(format!("{name}: new kernel, no baseline yet"));
            continue;
        };
        let latest = record.value;
        report.compared += 1;
        if baseline <= 0.0 || !baseline.is_finite() || !latest.is_finite() {
            report
                .notes
                .push(format!("{name}: implausible values, skipped"));
            continue;
        }
        let change_pct = match direction {
            Direction::LowerIsBetter => (latest - baseline) / baseline * 100.0,
            Direction::HigherIsBetter => (baseline - latest) / baseline * 100.0,
        };
        if change_pct > config.tolerance_pct {
            report.regressions.push(Regression {
                name: name.clone(),
                unit: unit.clone(),
                baseline,
                latest,
                change_pct,
            });
        }
    }
    report
        .regressions
        .sort_by(|a, b| b.change_pct.total_cmp(&a.change_pct));

    let mut retired: Vec<&str> = Vec::new();
    for record in earlier.iter().flat_map(|run| &run.results) {
        let current = newest.results.iter().any(|r| r.name == record.name);
        if !current && !retired.contains(&record.name.as_str()) {
            retired.push(&record.name);
            report
                .notes
                .push(format!("{}: retired (not in the newest run)", record.name));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchRecord, BenchRun};

    fn run(fast: bool, records: &[(&str, f64, &str)]) -> BenchRun {
        BenchRun {
            git_sha: "test".to_string(),
            unix_time: 0,
            fast,
            results: records
                .iter()
                .map(|(name, value, unit)| BenchRecord {
                    name: (*name).to_string(),
                    value: *value,
                    unit: (*unit).to_string(),
                })
                .collect(),
        }
    }

    fn history(runs: Vec<BenchRun>) -> BenchHistory {
        BenchHistory {
            schema: BenchHistory::SCHEMA.to_string(),
            runs,
        }
    }

    #[test]
    fn single_run_histories_pass_trivially() {
        let h = history(vec![run(false, &[("k", 10.0, "ns/op")])]);
        let report = check_trend(&h, &TrendConfig::default());
        assert!(report.passed());
        assert_eq!(report.compared, 0);
        assert!(!report.notes.is_empty());
    }

    #[test]
    fn latency_regressions_beyond_tolerance_fail() {
        let h = history(vec![
            run(false, &[("k", 100.0, "ns/op")]),
            run(false, &[("k", 131.0, "ns/op")]),
        ]);
        let report = check_trend(
            &h,
            &TrendConfig {
                tolerance_pct: 30.0,
                ..TrendConfig::default()
            },
        );
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].baseline, 100.0);
        assert!((report.regressions[0].change_pct - 31.0).abs() < 1e-9);

        // Inside the tolerance it passes.
        let report = check_trend(
            &h,
            &TrendConfig {
                tolerance_pct: 35.0,
                ..TrendConfig::default()
            },
        );
        assert!(report.passed());
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn throughput_direction_is_inverted() {
        let h = history(vec![
            run(false, &[("t", 1000.0, "cases/sec")]),
            run(false, &[("t", 600.0, "cases/sec")]),
        ]);
        let report = check_trend(&h, &TrendConfig::default());
        assert!(!report.passed());
        assert!((report.regressions[0].change_pct - 40.0).abs() < 1e-9);

        // A throughput *increase* is never a regression.
        let h = history(vec![
            run(false, &[("t", 1000.0, "cases/sec")]),
            run(false, &[("t", 2000.0, "cases/sec")]),
        ]);
        assert!(check_trend(&h, &TrendConfig::default()).passed());
    }

    #[test]
    fn baseline_is_the_best_of_the_window() {
        // One noisy-slow run inside the window must not raise the bar.
        let h = history(vec![
            run(false, &[("k", 100.0, "ns/op")]),
            run(false, &[("k", 180.0, "ns/op")]),
            run(false, &[("k", 120.0, "ns/op")]),
        ]);
        let report = check_trend(
            &h,
            &TrendConfig {
                tolerance_pct: 15.0,
                ..TrendConfig::default()
            },
        );
        assert!(!report.passed(), "vs best(100), +20% is a regression");

        // With a window of 1 only the 180 run is the baseline.
        let report = check_trend(
            &h,
            &TrendConfig {
                window: 1,
                tolerance_pct: 15.0,
                ..TrendConfig::default()
            },
        );
        assert!(report.passed());
    }

    #[test]
    fn fast_runs_are_excluded_by_default() {
        let h = history(vec![
            run(false, &[("k", 100.0, "ns/op")]),
            run(true, &[("k", 500.0, "ns/op")]), // CI smoke noise
        ]);
        let report = check_trend(&h, &TrendConfig::default());
        assert!(report.passed(), "a fast run must not be the latest");
        let report = check_trend(
            &h,
            &TrendConfig {
                include_fast: true,
                ..TrendConfig::default()
            },
        );
        assert!(!report.passed());
    }

    #[test]
    fn new_kernels_and_unknown_units_are_notes_not_failures() {
        let h = history(vec![
            run(false, &[("old", 10.0, "ns/op")]),
            run(
                false,
                &[
                    ("old", 10.0, "ns/op"),
                    ("fresh", 1.0, "ns/op"),
                    ("counterish", 42.0, "count"),
                ],
            ),
        ]);
        let report = check_trend(&h, &TrendConfig::default());
        assert!(report.passed());
        assert_eq!(report.compared, 1);
        assert!(report.notes.iter().any(|n| n.contains("fresh")));
        assert!(report.notes.iter().any(|n| n.contains("counterish")));
    }

    #[test]
    fn series_the_newest_run_dropped_are_retired_not_judged() {
        // `gone` doubled between its two recordings, then its bench was
        // deleted: the newest run is judged on what it recorded.
        let h = history(vec![
            run(false, &[("kept", 100.0, "ns/op"), ("gone", 100.0, "us")]),
            run(false, &[("kept", 100.0, "ns/op"), ("gone", 200.0, "us")]),
            run(false, &[("kept", 101.0, "ns/op")]),
        ]);
        let report = check_trend(&h, &TrendConfig::default());
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.compared, 1);
        let retired: Vec<&String> = report
            .notes
            .iter()
            .filter(|note| note.contains("retired"))
            .collect();
        assert_eq!(retired, ["gone: retired (not in the newest run)"]);
    }

    #[test]
    fn the_committed_history_passes_its_own_check() {
        // The repo's BENCH_kernels.json must stay green under the CI
        // gate's tolerance (20% — see ci.yml: the history holds ns-scale
        // kernels only), or the trend step would fail on an untouched
        // tree.
        let path = crate::report::default_report_path();
        if let Ok(history) = BenchHistory::load(&path) {
            let report = check_trend(
                &history,
                &TrendConfig {
                    tolerance_pct: 20.0,
                    ..TrendConfig::default()
                },
            );
            assert!(
                report.passed(),
                "committed history regresses: {:?}",
                report.regressions
            );
        }
    }
}
