//! `bench_trend` — the CI trend gate over `BENCH_kernels.json`.
//!
//! ```text
//! bench_trend [--file PATH] [--window N] [--tolerance PCT] [--include-fast]
//! ```
//!
//! Loads the benchmark run history (default: the workspace's
//! `BENCH_kernels.json`, `MSMR_BENCH_OUT` respected), compares the
//! latest non-fast run against the best value each of its kernels
//! achieved over the previous `N` recordings, and exits non-zero when
//! any kernel regressed beyond the tolerance; series the latest run no
//! longer records are listed as `retired` notes. See
//! `msmr_report::trend` for the comparison semantics.

use std::path::PathBuf;
use std::process::ExitCode;

use msmr_report::{check_trend, default_report_path, BenchHistory, TrendConfig};

fn usage() -> &'static str {
    "usage: bench_trend [--file PATH] [--window N] [--tolerance PCT] [--include-fast]\n\n  --file PATH      history file (default: BENCH_kernels.json / $MSMR_BENCH_OUT)\n  --window N       baseline window of runs before the latest (default 5)\n  --tolerance PCT  allowed degradation vs the window's best (default 25)\n  --include-fast   also consider CI smoke (fast) runs"
}

fn main() -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut config = TrendConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let parsed: Result<(), String> = match flag.as_str() {
            "--file" => value("--file").map(|v| path = Some(PathBuf::from(v))),
            "--window" => value("--window").and_then(|v| {
                v.parse()
                    .map(|n| config.window = n)
                    .map_err(|_| "invalid --window value".to_string())
            }),
            "--tolerance" => value("--tolerance").and_then(|v| {
                v.parse()
                    .map(|t| config.tolerance_pct = t)
                    .map_err(|_| "invalid --tolerance value".to_string())
            }),
            "--include-fast" => {
                config.include_fast = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(message) = parsed {
            eprintln!("bench_trend: {message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    }

    let path = path.unwrap_or_else(default_report_path);
    let history = match BenchHistory::load(&path) {
        Ok(history) => history,
        Err(e) => {
            eprintln!("bench_trend: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let report = check_trend(&history, &config);
    println!(
        "bench_trend: {} run(s) in {}, {} kernel(s) compared (window {}, tolerance {}%)",
        history.runs.len(),
        path.display(),
        report.compared,
        config.window,
        config.tolerance_pct
    );
    for note in &report.notes {
        println!("  note: {note}");
    }
    for regression in &report.regressions {
        println!(
            "  REGRESSION {:<44} {:>12.1} -> {:>12.1} {} (+{:.1}%)",
            regression.name,
            regression.baseline,
            regression.latest,
            regression.unit,
            regression.change_pct
        );
    }
    if report.passed() {
        println!("bench_trend: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_trend: {} kernel(s) regressed beyond {}%",
            report.regressions.len(),
            config.tolerance_pct
        );
        ExitCode::FAILURE
    }
}
