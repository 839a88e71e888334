//! Machine-readable kernel benchmarks: measures the analysis kernels,
//! the simulator, DCMP, the OPT search and the online admit/withdraw
//! kernels, then **appends** the run — keyed by git SHA and timestamp —
//! to the history in `BENCH_kernels.json` at the workspace root so the
//! performance trajectory is tracked commit over commit. It is the
//! file's only writer.
//!
//! Environment:
//! * `MSMR_BENCH_FAST=1` — smoke-test proportions (CI uses the
//!   `json_smoke` test instead, which calls the same harness).
//! * `MSMR_BENCH_OUT=<path>` — override the output location.
//! * `MSMR_GIT_SHA=<sha>` — override the recorded commit id.

fn main() {
    let fast = std::env::var_os("MSMR_BENCH_FAST").is_some();
    let report = msmr_bench::run_kernel_report(fast);
    println!(
        "\nkernel benchmarks ({} mode):",
        if fast { "fast" } else { "full" }
    );
    report.print_table();
    // Fast-mode numbers are smoke signals, not trackable data: without an
    // explicit MSMR_BENCH_OUT they must not land in the tracked
    // workspace-root history.
    let path = if fast && std::env::var_os("MSMR_BENCH_OUT").is_none() {
        std::env::temp_dir().join("BENCH_kernels.fast.json")
    } else {
        msmr_report::default_report_path()
    };
    let history = report
        .append_to(&path)
        .expect("append to BENCH_kernels.json");
    let latest = history.latest().expect("just appended");
    println!(
        "\nappended run {} @ {} to {} ({} runs tracked)",
        latest.git_sha,
        latest.unix_time,
        path.display(),
        history.runs.len()
    );
}
