//! Diagnostic tool: generate one edge test case and print, per job, the
//! delay bound it would experience at the lowest priority level together
//! with the verdict of every approach. Useful for calibrating the workload
//! generator and understanding why a case is accepted or rejected.
//!
//! `cargo run -p msmr-experiments --release --bin inspect_case -- --jobs 100 --seed 3`

use msmr_experiments::cli::RunOptions;
use msmr_experiments::{evaluate_all, EVALUATION_BOUND};
use msmr_model::HeavinessProfile;
use msmr_sched::{Dm, Opdca, SolveCtx, Solver};
use msmr_workload::EdgeWorkloadGenerator;

fn main() {
    let options = match RunOptions::parse() {
        Ok(options) => options,
        Err(err) => {
            eprintln!("error: {err}\n{}", RunOptions::usage());
            std::process::exit(2);
        }
    };
    let generator = EdgeWorkloadGenerator::new(options.base_config()).expect("valid configuration");
    let jobs = generator.generate_seeded(options.seed);
    let ctx = SolveCtx::new(&jobs);
    let analysis = ctx.analysis();
    let tables = analysis.tables();
    let profile = HeavinessProfile::of(&jobs);

    println!(
        "case: {} jobs, system heaviness H = {:.3}",
        jobs.len(),
        profile.system()
    );

    // Per-job diagnosis at the lowest priority (everyone else higher).
    let mut lowest = analysis.evaluator(EVALUATION_BOUND);
    lowest.seed_all_higher();
    let mut feasible_at_lowest = 0usize;
    let mut worst_ratio = 0.0f64;
    for i in jobs.job_ids() {
        let delta = lowest.delay(i);
        let deadline = jobs.job(i).deadline();
        let ratio = delta.as_ticks() as f64 / deadline.as_ticks() as f64;
        worst_ratio = worst_ratio.max(ratio);
        if delta <= deadline {
            feasible_at_lowest += 1;
        }
    }
    println!(
        "jobs feasible at the lowest priority: {feasible_at_lowest}/{} \
         (max delay/deadline ratio {worst_ratio:.2})",
        jobs.len()
    );

    // OPDCA reports delays exactly when it finds an ordering.
    let opdca = Opdca::new(EVALUATION_BOUND).solve(&ctx);
    match opdca.delays.as_deref() {
        Some(delays) => {
            let min_slack = jobs
                .job_ids()
                .map(|i| jobs.job(i).deadline().signed_diff(delays[i.index()]))
                .min()
                .unwrap_or(0);
            println!("OPDCA: feasible ordering found, minimum slack {min_slack} ms");
        }
        None => println!(
            "{opdca} ({} unschedulable job(s))",
            opdca.unschedulable.len()
        ),
    }

    // Worst offenders under the deadline-monotonic pairwise assignment,
    // with a breakdown of the delay components. The DM verdict carries
    // every job's delay, rejected or not.
    let dm = Dm::new(EVALUATION_BOUND).solve(&ctx);
    let dm_delays = dm.delays.as_deref().expect("DM reports delays");
    let mut offenders: Vec<(msmr_model::JobId, f64)> = jobs
        .job_ids()
        .map(|i| {
            (
                i,
                dm_delays[i.index()].as_ticks() as f64 / jobs.job(i).deadline().as_ticks() as f64,
            )
        })
        .collect();
    offenders.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nworst jobs under the DM assignment (delay/deadline):");
    for &(i, ratio) in offenders.iter().take(5) {
        let job = jobs.job(i);
        // DM ranks a competitor higher iff its deadline is smaller, ties
        // going to the lower id.
        let dm_higher: Vec<_> = jobs
            .competitors(i)
            .into_iter()
            .filter(|&k| (jobs.job(k).deadline(), k) < (job.deadline(), i))
            .collect();
        let higher = dm_higher.len();
        let job_additive: u64 = dm_higher
            .iter()
            .map(|&k| tables.ja_eq6(i, k).as_ticks())
            .sum();
        println!(
            "  {i}: D={} dl-ratio={ratio:.2} own_max={} higher={higher} job_additive={} ",
            job.deadline(),
            job.max_processing(),
            job_additive,
        );
    }

    // Breakdown for the five largest-deadline jobs assuming every
    // competitor has higher priority (the lowest-priority probe of OPA).
    let mut by_deadline: Vec<_> = jobs.job_ids().collect();
    by_deadline.sort_by_key(|&i| std::cmp::Reverse(jobs.job(i).deadline()));
    println!("\nlargest-deadline jobs at the lowest priority:");
    for &i in by_deadline.iter().take(5) {
        let delta = lowest.delay(i);
        let job = jobs.job(i);
        let competitors = jobs.competitors(i);
        let job_additive: u64 = competitors
            .iter()
            .filter(|&&k| tables.interference_mask(i).contains(k))
            .map(|&k| tables.ja_eq6(i, k).as_ticks())
            .sum();
        println!(
            "  {i}: D={} delta={delta} competitors={} job_additive={job_additive} own_max={}",
            job.deadline(),
            competitors.len(),
            job.max_processing(),
        );
    }

    println!("\nverdicts:");
    for (approach, outcome) in evaluate_all(&jobs, options.opt_node_limit) {
        println!("  {approach:<6} {outcome:?}");
    }
}
