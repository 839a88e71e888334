//! Running the priority-assignment algorithms as admission controllers
//! (Fig. 4d of the paper): on an overloaded edge system, OPDCA, DMR and DM
//! reject the jobs they cannot schedule and the *rejected heaviness*
//! quantifies how much workload each controller turns away.
//!
//! Run with `cargo run -p msmr-experiments --example admission_control`.

use msmr_experiments::EVALUATION_BOUND;
use msmr_sched::admission::rejected_heaviness_percent;
use msmr_sched::{Dm, Dmr, Opdca, SolveCtx, Solver};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Deliberately overloaded: few servers, many heavy jobs.
    let config = EdgeWorkloadConfig::default()
        .with_jobs(30)
        .with_infrastructure(5, 4)
        .with_beta(0.2)
        .with_heavy_ratios([0.10, 0.15, 0.05])
        .with_gamma(0.9);
    let generator = EdgeWorkloadGenerator::new(config)?;
    let jobs = generator.generate_seeded(11);
    println!(
        "generated an overloaded edge system with {} jobs\n",
        jobs.len()
    );

    // OPDCA, DMR and DM (no repair) as admission controllers, all on one
    // shared analysis of the job set.
    let ctx = SolveCtx::new(&jobs);
    let controllers: [Box<dyn Solver>; 3] = [
        Box::new(Opdca::new(EVALUATION_BOUND)),
        Box::new(Dmr::new(EVALUATION_BOUND)),
        Box::new(Dm::new(EVALUATION_BOUND)),
    ];
    let mut rejected_heaviness = Vec::new();
    for controller in &controllers {
        let verdict = controller.admission_control(&ctx)?;
        let heaviness = rejected_heaviness_percent(&jobs, &verdict.rejected);
        println!(
            "{:<6}: accepted {:>2}, rejected {:>2} ({}), rejected heaviness {:>5.1}%",
            verdict.solver,
            verdict.accepted.len(),
            verdict.rejected.len(),
            format_jobs(&verdict.rejected),
            heaviness
        );
        rejected_heaviness.push(heaviness);
    }

    // Sanity: the optimal ordering algorithm never rejects more heaviness
    // than the plain deadline-monotonic baseline on this instance.
    println!(
        "\nOPDCA rejects {:.1}% of the heaviness vs {:.1}% for DM",
        rejected_heaviness[0], rejected_heaviness[2]
    );
    Ok(())
}

fn format_jobs(jobs: &[msmr_model::JobId]) -> String {
    if jobs.is_empty() {
        return "none".to_string();
    }
    jobs.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}
