//! Evaluate every registered solver — all six engines, including the
//! verbatim ILP formulation of OPT — on one edge workload and print a
//! unified verdict table.
//!
//! DM, DMR, OPDCA and OPT are all driven by the allocation-free
//! incremental `DelayEvaluator` of `msmr-dca` (solver verdicts are
//! bit-identical to the naive reference evaluation; the branch-and-bound
//! performs zero heap allocations per search node). The kernel timings
//! live in `BENCH_kernels.json`, the end-to-end ones in `benchmark/`.
//!
//! Run with `cargo run -p msmr-experiments --example compare_solvers`.

use msmr_experiments::EVALUATION_BOUND;
use msmr_sched::{Budget, SolveCtx, SolverRegistry, VerdictKind};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One moderately loaded edge test case.
    let config = EdgeWorkloadConfig::default()
        .with_jobs(30)
        .with_infrastructure(8, 6)
        .with_beta(0.18);
    let generator = EdgeWorkloadGenerator::new(config)?;
    let jobs = generator.generate_seeded(17);
    println!(
        "evaluating {} jobs with all registered solvers\n",
        jobs.len()
    );

    // The full suite registers DM, DMR, OPDCA, OPT, DCMP and OPT-ILP.
    // Each solver runs on the context's shared analysis; no implication
    // shortcuts (`evaluate_ctx` would take them), so every engine
    // genuinely executes.
    let registry = SolverRegistry::full_suite(EVALUATION_BOUND);
    let ctx = SolveCtx::with_budget(&jobs, Budget::default().with_node_limit(500_000));
    let verdicts: Vec<_> = registry
        .names()
        .into_iter()
        .map(|name| registry.solver(name).expect("registered").solve(&ctx))
        .collect();

    println!(
        "{:<8} {:<10} {:<6} {:<10} {:<12} {:<12} time",
        "solver", "verdict", "exact", "admission", "sdca calls", "nodes"
    );
    for verdict in &verdicts {
        let solver = registry
            .solver(&verdict.solver)
            .expect("verdicts come from registered solvers");
        let kind = match verdict.kind {
            VerdictKind::Accepted => "accepted",
            VerdictKind::Rejected => "rejected",
            VerdictKind::Undecided => "undecided",
        };
        println!(
            "{:<8} {:<10} {:<6} {:<10} {:<12} {:<12} {} us",
            verdict.solver,
            kind,
            solver.is_exact(),
            solver.supports_admission(),
            verdict.stats.sdca_calls,
            verdict.stats.nodes_explored,
            verdict.stats.elapsed_micros,
        );
    }

    // The exact engines must agree with each other.
    let opt = verdicts
        .iter()
        .find(|v| v.solver == "OPT")
        .expect("registered");
    let ilp = verdicts
        .iter()
        .find(|v| v.solver == "OPT-ILP")
        .expect("registered");
    if opt.is_conclusive() && ilp.is_conclusive() {
        assert_eq!(opt.kind, ilp.kind, "exact engines disagree");
        println!("\nexact engines agree: OPT = OPT-ILP = {:?}", opt.kind);
    }

    // Verdicts serialize for transport/storage.
    let json = serde_json::to_string(&verdicts)?;
    println!("\nserialized verdict report: {} bytes of JSON", json.len());
    Ok(())
}
