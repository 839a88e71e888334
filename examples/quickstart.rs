//! Quickstart: build a small multi-stage multi-resource job set, evaluate
//! it with the unified `SolverRegistry`, then execute the OPDCA ordering
//! witness on the discrete-event simulator.
//!
//! All engines run on `msmr-dca`'s incremental `DelayEvaluator` (bitset
//! interference sets, flat struct-of-arrays pair tables, undo-based
//! search). Measured on the reference container against the pre-evaluator
//! implementation: a single Eq. 6/Eq. 10 delay probe dropped from ~1.1 µs
//! to ~15 ns (≈70–95×), the Fig. 4d admission controllers from
//! 1.5–5.4 ms to 0.28–0.40 ms per 100-job case (5–14×), and registry
//! batch evaluation from ~780 to ~4 500 cases/sec (5.7×); see
//! `BENCH_kernels.json` for the tracked numbers.
//!
//! Run with `cargo run -p msmr-experiments --example quickstart`.

use msmr_dca::DelayBoundKind;
use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
use msmr_sched::{Budget, SolverRegistry, Witness};
use msmr_sim::{render_gantt, PriorityMap, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A three-stage pipeline modelled after the edge-computing scenario:
    // a non-preemptive uplink with two access points, a preemptive server
    // pool with two servers and a non-preemptive downlink.
    let mut builder = JobSetBuilder::new();
    builder
        .stage("uplink", 2, PreemptionPolicy::NonPreemptive)
        .stage("server", 2, PreemptionPolicy::Preemptive)
        .stage("downlink", 2, PreemptionPolicy::NonPreemptive);

    // Four jobs: (uplink ms / AP, server ms / server, downlink ms / AP,
    // deadline ms).
    let jobs_spec: [([u64; 3], [usize; 3], u64); 4] = [
        ([20, 150, 10], [0, 0, 0], 700),
        ([35, 240, 20], [1, 0, 1], 900),
        ([15, 120, 10], [0, 1, 0], 500),
        ([40, 300, 25], [1, 1, 1], 1_100),
    ];
    for (times, mapping, deadline) in jobs_spec {
        builder
            .job()
            .deadline(Time::from_millis(deadline))
            .stage_time(Time::from_millis(times[0]), mapping[0])
            .stage_time(Time::from_millis(times[1]), mapping[1])
            .stage_time(Time::from_millis(times[2]), mapping[2])
            .add()?;
    }
    let jobs = builder.build()?;
    println!("{jobs}");

    // Evaluate all five paper approaches through the registry with the
    // edge-computing bound (preemptive servers, non-preemptive downlink --
    // paper Eq. 10). One shared analysis serves every solver, and OPT is
    // implied whenever DMR or OPDCA already accepts.
    let registry = SolverRegistry::paper_suite(DelayBoundKind::EdgeHybrid);
    let verdicts = registry.evaluate(&jobs, Budget::default());
    println!("verdicts:");
    for verdict in &verdicts {
        println!("  {verdict}");
    }

    // Pull the OPDCA ordering witness and its per-job delay bounds out of
    // the unified report.
    let opdca = verdicts
        .iter()
        .find(|v| v.solver == "OPDCA")
        .expect("OPDCA is part of the paper suite");
    let Some(Witness::Ordering(ordering)) = &opdca.witness else {
        println!("no feasible priority ordering exists");
        return Ok(());
    };
    let delays = opdca
        .delays
        .as_ref()
        .expect("accepted OPDCA reports delays");
    println!("\npriority ordering (highest first): {ordering}");
    println!("S_DCA invocations: {}", opdca.stats.sdca_calls);
    for job in jobs.jobs() {
        println!(
            "  {}: delay bound {} ms <= deadline {} ms",
            job.id(),
            delays[job.id().index()],
            job.deadline()
        );
    }

    // Cross-check the analytical bound against a discrete-event simulation
    // of the same priority ordering.
    let priorities = PriorityMap::from_global_order(&jobs, ordering.as_slice());
    let outcome = Simulator::new(&jobs).run(&priorities);
    println!("simulated end-to-end delays:");
    for job in jobs.jobs() {
        let simulated = outcome.delay(job.id());
        let bound = delays[job.id().index()];
        println!(
            "  {}: simulated {} ms, analytical bound {} ms",
            job.id(),
            simulated,
            bound
        );
        assert!(simulated <= bound, "simulation exceeded the DCA bound");
    }
    println!(
        "all deadlines met in simulation: {}",
        outcome.all_deadlines_met()
    );

    // A coarse Gantt chart of the simulated schedule (one column = 20 ms).
    println!("\n{}", render_gantt(&jobs, &outcome, 20));
    Ok(())
}
