//! CI smoke run of the JSON bench harness: the fast variant of
//! `run_kernel_report` must produce a complete, parseable report, and
//! appending it to a history file must accumulate runs instead of
//! clobbering them, so the `BENCH_kernels.json` pipeline cannot bit-rot
//! between releases.

use msmr_bench::run_kernel_report;
use msmr_report::{BenchHistory, BenchReport};

#[test]
fn fast_kernel_report_is_complete_and_parseable() {
    let report = run_kernel_report(true);
    assert!(report.fast);

    for name in [
        "analysis_build",
        "delay_bound_naive/eq6",
        "delay_bound_incremental/eq6",
        "delay_bound_naive/eq10",
        "delay_bound_incremental/eq10",
        "sim/run_ns",
        "sim/completions_ns",
        "dcmp/solve_ns",
        "opdca_solve/edge100",
        "opt_solve/observation_v1",
        "online_admit_warm",
        "online_admit_cold",
        "withdraw_mid",
    ] {
        let record = report
            .get(name)
            .unwrap_or_else(|| panic!("missing record `{name}`"));
        assert!(
            record.value.is_finite() && record.value > 0.0,
            "`{name}` has implausible value {}",
            record.value
        );
    }

    // Round-trips through the serialized form.
    let json = report.to_json();
    let parsed: BenchReport = serde_json::from_str(&json).expect("parseable report");
    assert_eq!(parsed, report);
    assert_eq!(parsed.schema, "msmr-bench-kernels/1");

    // Appending accumulates history instead of clobbering it.
    let path = std::env::temp_dir().join(format!("msmr_bench_smoke_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let history = report.append_to(&path).expect("appendable report");
    assert_eq!(history.runs.len(), 1);
    let history = report.append_to(&path).expect("second append");
    assert_eq!(history.runs.len(), 2);
    assert_eq!(history.schema, BenchHistory::SCHEMA);
    let reloaded = BenchHistory::load(&path).expect("reloadable history");
    assert_eq!(reloaded, history);
    assert_eq!(reloaded.latest().unwrap().results, report.results);
    let _ = std::fs::remove_file(&path);
}
