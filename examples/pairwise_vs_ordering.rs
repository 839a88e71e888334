//! Observation V.1 of the paper, end to end: a job set for which *no*
//! total priority ordering exists, yet a pairwise priority assignment is
//! feasible.
//!
//! Run with `cargo run -p msmr-experiments --example pairwise_vs_ordering`.

use msmr_dca::DelayBoundKind;
use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
use msmr_sched::{Opdca, OptPairwise, PairwiseIlp, SolveCtx, Solver, Witness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Example 1 processing times, the Figure 2(a) job-to-resource mapping
    // and deadlines {60, 55, 55, 50}.
    let mut builder = JobSetBuilder::new();
    builder
        .stage("S1", 2, PreemptionPolicy::Preemptive)
        .stage("S2", 2, PreemptionPolicy::Preemptive)
        .stage("S3", 2, PreemptionPolicy::Preemptive);
    let rows: [([u64; 3], [usize; 3], u64); 4] = [
        ([5, 7, 15], [0, 1, 1], 60), // J1
        ([7, 9, 17], [1, 1, 1], 55), // J2
        ([6, 8, 30], [0, 0, 0], 55), // J3
        ([2, 4, 3], [1, 0, 0], 50),  // J4
    ];
    for (times, mapping, deadline) in rows {
        builder
            .job()
            .deadline(Time::new(deadline))
            .stage_time(Time::new(times[0]), mapping[0])
            .stage_time(Time::new(times[1]), mapping[1])
            .stage_time(Time::new(times[2]), mapping[2])
            .add()?;
    }
    let jobs = builder.build()?;
    // One context: the three engines share its interference analysis.
    let ctx = SolveCtx::new(&jobs);
    let bound = DelayBoundKind::RefinedPreemptive;

    // 1. OPDCA (problem P1) cannot find a total ordering.
    let opdca = Opdca::new(bound).solve(&ctx);
    match opdca.witness.as_ref().and_then(Witness::as_ordering) {
        Some(ordering) => println!("unexpected: OPDCA found {ordering}"),
        None => println!(
            "{opdca} ({} unschedulable job(s): {})",
            opdca.unschedulable.len(),
            opdca
                .unschedulable
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }

    // 2. The exact pairwise search (problem P2) finds an assignment.
    let opt = OptPairwise::new(bound).solve(&ctx);
    let assignment = opt
        .witness
        .as_ref()
        .and_then(Witness::as_pairwise)
        .expect("Observation V.1 guarantees a pairwise assignment");
    println!("OPT (branch-and-bound): {assignment}");
    let delays = opt
        .delays
        .as_deref()
        .expect("accepted verdicts carry delays");
    for (job, delay) in jobs.job_ids().zip(delays) {
        println!(
            "  {job}: delay bound {delay} <= deadline {}",
            jobs.job(job).deadline()
        );
    }

    // 3. The paper's ILP formulation (Eqs. 7-9), solved with the bundled
    //    branch-and-bound ILP solver, agrees.
    let ilp = PairwiseIlp::new(bound).solve(&ctx);
    println!("OPT (ILP formulation): feasible = {}", ilp.is_accepted());
    assert_eq!(ilp.kind, opt.kind);
    Ok(())
}
