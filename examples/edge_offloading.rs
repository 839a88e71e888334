//! Holistic scheduling of an edge-computing offloading scenario (§VI of
//! the paper): generate a synthetic edge workload, run all five evaluated
//! approaches and compare their verdicts, then execute the OPDCA ordering
//! on the discrete-event simulator.
//!
//! Run with `cargo run -p msmr-experiments --example edge_offloading`.

use msmr_experiments::{evaluate_all, Approach, EVALUATION_BOUND};
use msmr_model::HeavinessProfile;
use msmr_sched::{Opdca, SolveCtx, Solver, VerdictKind, Witness};
use msmr_sim::{PriorityMap, Simulator};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A moderately loaded edge system: 10 access points, 8 servers,
    // 40 offloaded jobs, heaviness threshold beta = 0.15.
    let config = EdgeWorkloadConfig::default()
        .with_jobs(40)
        .with_infrastructure(10, 8)
        .with_beta(0.15)
        .with_gamma(0.7);
    let generator = EdgeWorkloadGenerator::new(config)?;
    let jobs = generator.generate_seeded(7);

    let profile = HeavinessProfile::of(&jobs);
    println!(
        "generated {} jobs on {} stages; system heaviness H = {:.3}",
        jobs.len(),
        jobs.pipeline().stage_count(),
        profile.system()
    );

    // Compare the five approaches of the evaluation.
    println!("\nverdicts (edge bound, Eq. 10):");
    for (approach, outcome) in evaluate_all(&jobs, 200_000) {
        println!("  {approach:<6} -> {outcome:?}");
    }

    // If a priority ordering exists, execute it on the simulator and
    // report the observed end-to-end delays.
    let opdca = Opdca::new(EVALUATION_BOUND).solve(&SolveCtx::new(&jobs));
    match opdca.witness.as_ref().and_then(Witness::as_ordering) {
        Some(ordering) => {
            let priorities = PriorityMap::from_global_order(&jobs, ordering.as_slice());
            let outcome = Simulator::new(&jobs).run(&priorities);
            let worst = jobs
                .job_ids()
                .map(|i| (i, outcome.delay(i)))
                .max_by_key(|&(_, d)| d)
                .expect("non-empty job set");
            println!(
                "\nOPDCA ordering simulated: all deadlines met = {}, \
                 worst observed delay = {} ms ({})",
                outcome.all_deadlines_met(),
                worst.1,
                worst.0
            );
            let misses = outcome.deadline_misses();
            assert!(
                misses.is_empty(),
                "jobs accepted by S_DCA missed deadlines in simulation: {misses:?}"
            );
        }
        None => println!("\nno priority ordering exists: {opdca}"),
    }

    // Which approach accepted the case?
    let accepted: Vec<Approach> = evaluate_all(&jobs, 200_000)
        .into_iter()
        .filter(|&(_, o)| o == VerdictKind::Accepted)
        .map(|(a, _)| a)
        .collect();
    println!("accepted by: {accepted:?}");
    Ok(())
}
