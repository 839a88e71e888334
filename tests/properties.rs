//! Property-based tests spanning the analysis, the scheduler and the
//! simulator.
//!
//! The central soundness property is that the delay composition bounds of
//! `msmr-dca` dominate the delays observed by the discrete-event simulator
//! for the corresponding scheduling policy; the central OPA properties are
//! the three compatibility conditions of §III-B.

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::DelayBoundKind;
use msmr_model::{JobId, JobSet, PreemptionPolicy};
use msmr_sched::{Opdca, PairwiseAssignment, PriorityOrdering, SolveCtx, Solver};
use msmr_sim::{PriorityMap, Simulator};
use msmr_workload::{RandomMsmrConfig, RandomMsmrGenerator};
use proptest::prelude::*;

/// Strategy: a random MSMR job set plus a random total priority order.
fn jobset_and_order(
    preemption: PreemptionPolicy,
    arrivals: (u64, u64),
) -> impl Strategy<Value = (JobSet, Vec<JobId>)> {
    (0u64..10_000, Just(preemption), Just(arrivals)).prop_flat_map(
        |(seed, preemption, arrivals)| {
            let generator = RandomMsmrGenerator::new(RandomMsmrConfig {
                jobs: (2, 7),
                stages: (2, 4),
                resources_per_stage: (1, 3),
                processing: (1, 15),
                arrivals,
                deadline_factor: (1.0, 5.0),
                preemption,
            })
            .expect("valid generator configuration");
            let jobs = generator.generate_seeded(seed);
            let n = jobs.len();
            (
                Just(jobs),
                Just(()).prop_perturb(move |(), mut rng| {
                    let mut order: Vec<JobId> = (0..n).map(JobId::new).collect();
                    // Fisher-Yates with the proptest RNG for shrink-friendliness.
                    for i in (1..n).rev() {
                        let j = (rng.next_u64() as usize) % (i + 1);
                        order.swap(i, j);
                    }
                    order
                }),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Simulated end-to-end delays never exceed the refined preemptive
    /// bound (Eq. 6) under any total priority ordering with synchronous
    /// release.
    #[test]
    fn eq6_dominates_preemptive_simulation(
        (jobs, order) in jobset_and_order(PreemptionPolicy::Preemptive, (0, 0))
    ) {
        let reference = ReferenceBounds::new(&jobs);
        let priorities = PriorityMap::from_global_order(&jobs, &order);
        let outcome = Simulator::new(&jobs).run(&priorities);
        for &job in &order {
            let ctx = InterferenceSets::from_total_order(&order, job);
            let bound = reference.refined_preemptive_bound(job, &ctx);
            prop_assert!(
                outcome.delay(job) <= bound,
                "{job}: simulated {} > bound {}", outcome.delay(job), bound
            );
        }
    }

    /// The same dominance holds for the per-segment preemptive bound
    /// (Eq. 3), which is never tighter than Eq. 6.
    #[test]
    fn eq3_dominates_eq6(
        (jobs, order) in jobset_and_order(PreemptionPolicy::Preemptive, (0, 0))
    ) {
        let reference = ReferenceBounds::new(&jobs);
        for &job in &order {
            let ctx = InterferenceSets::from_total_order(&order, job);
            prop_assert!(
                reference.preemptive_msmr_bound(job, &ctx)
                    >= reference.refined_preemptive_bound(job, &ctx)
            );
        }
    }

    /// Simulated delays never exceed the OPA-compatible non-preemptive
    /// bound (Eq. 5) under fully non-preemptive execution with synchronous
    /// release; Eq. 5 in turn dominates Eq. 4.
    #[test]
    fn eq5_dominates_non_preemptive_simulation(
        (jobs, order) in jobset_and_order(PreemptionPolicy::NonPreemptive, (0, 0))
    ) {
        let reference = ReferenceBounds::new(&jobs);
        let priorities = PriorityMap::from_global_order(&jobs, &order);
        let outcome = Simulator::new(&jobs).run(&priorities);
        for &job in &order {
            let ctx = InterferenceSets::from_total_order(&order, job);
            let eq5 = reference.non_preemptive_opa_bound(job, &ctx);
            let eq4 = reference.non_preemptive_msmr_bound(job, &ctx);
            prop_assert!(eq5 >= eq4);
            prop_assert!(
                outcome.delay(job) <= eq5,
                "{job}: simulated {} > Eq.5 bound {}", outcome.delay(job), eq5
            );
        }
    }

    /// OPA-compatibility condition 1/2: the bound value depends only on
    /// the *sets* of higher- and lower-priority jobs, never on the order
    /// in which they are supplied — verified by permuting the order used
    /// to construct the sets.
    #[test]
    fn compatible_bounds_ignore_relative_order_of_higher_jobs(
        (jobs, order) in jobset_and_order(PreemptionPolicy::Preemptive, (0, 4))
    ) {
        let reference = ReferenceBounds::new(&jobs);
        let target = *order.last().expect("non-empty");
        let mut shuffled = order.clone();
        shuffled[..order.len() - 1].reverse();
        for kind in [
            DelayBoundKind::RefinedPreemptive,
            DelayBoundKind::NonPreemptiveOpa,
            DelayBoundKind::EdgeHybrid,
            DelayBoundKind::PreemptiveMsmr,
        ] {
            let a = reference.delay_bound(kind, target, &InterferenceSets::from_total_order(&order, target));
            let b = reference.delay_bound(kind, target, &InterferenceSets::from_total_order(&shuffled, target));
            prop_assert_eq!(a, b, "{} changed under a permutation of H_i", kind);
        }
    }

    /// OPA-compatibility condition 3 (monotonicity): moving a job from the
    /// lower-priority side to the higher-priority side never decreases the
    /// bound of the target, for every OPA-compatible bound.
    #[test]
    fn compatible_bounds_are_monotone_in_higher_set(
        (jobs, order) in jobset_and_order(PreemptionPolicy::Preemptive, (0, 3))
    ) {
        let reference = ReferenceBounds::new(&jobs);
        let target = order[0];
        let others: Vec<JobId> = order[1..].to_vec();
        for kind in DelayBoundKind::all() {
            if !kind.is_opa_compatible() {
                continue;
            }
            let mut previous = reference.delay_bound(
                kind,
                target,
                &InterferenceSets::new([], others.clone()),
            );
            for split in 1..=others.len() {
                let ctx = InterferenceSets::new(
                    others[..split].to_vec(),
                    others[split..].to_vec(),
                );
                let current = reference.delay_bound(kind, target, &ctx);
                prop_assert!(
                    current >= previous,
                    "{kind}: promoting a job decreased the bound"
                );
                previous = current;
            }
        }
    }

    /// Audsley optimality: whenever a randomly drawn total ordering is
    /// feasible under Eq. 6, OPDCA also finds a feasible ordering.
    #[test]
    fn opdca_finds_an_ordering_whenever_the_random_one_works(
        (jobs, order) in jobset_and_order(PreemptionPolicy::Preemptive, (0, 0))
    ) {
        let reference = ReferenceBounds::new(&jobs);
        let random_is_feasible = order.iter().all(|&job| {
            let ctx = InterferenceSets::from_total_order(&order, job);
            reference.refined_preemptive_bound(job, &ctx) <= jobs.job(job).deadline()
        });
        if random_is_feasible {
            prop_assert!(
                Opdca::new(DelayBoundKind::RefinedPreemptive)
                    .solve(&SolveCtx::new(&jobs))
                    .is_accepted()
            );
        }
    }

    /// A pairwise assignment derived from a total ordering is never better
    /// than the ordering itself: its per-job delays coincide with the
    /// ordering's delays.
    #[test]
    fn ordering_induced_pairwise_assignment_preserves_delays(
        (jobs, order) in jobset_and_order(PreemptionPolicy::Preemptive, (0, 0))
    ) {
        let reference = ReferenceBounds::new(&jobs);
        let ordering = PriorityOrdering::new(order.clone());
        let assignment = PairwiseAssignment::from_ordering(&jobs, &ordering);
        for &job in &order {
            let via_ordering = reference.refined_preemptive_bound(
                job,
                &InterferenceSets::from_total_order(&order, job),
            );
            let via_pairwise = reference.refined_preemptive_bound(
                job,
                &assignment.interference_sets(&jobs, job),
            );
            prop_assert_eq!(via_ordering, via_pairwise);
        }
    }

    /// The simulator's trace contract, on a fully non-preemptive and a
    /// fully preemptive system: every job executes exactly its demand, no
    /// two slices overlap on one resource, slices are maximal and ordered
    /// by start then resource, a non-preemptive holder is never displaced,
    /// and the trace-free path computes the same completion times.
    #[test]
    fn simulator_trace_invariants(
        non_preemptive in jobset_and_order(PreemptionPolicy::NonPreemptive, (0, 8)),
        preemptive in jobset_and_order(PreemptionPolicy::Preemptive, (0, 8))
    ) {
        for (jobs, order) in [non_preemptive, preemptive] {
            let priorities = PriorityMap::from_global_order(&jobs, &order);
            let simulator = Simulator::new(&jobs);
            let outcome = simulator.run(&priorities);
            prop_assert_eq!(&simulator.completions(&priorities), outcome.completions());
            for job in jobs.jobs() {
                prop_assert_eq!(outcome.executed_time(job.id()), job.total_processing());
                prop_assert!(outcome.completion(job.id()) >= job.arrival());
            }
            let trace = outcome.trace();
            for (i, a) in trace.iter().enumerate() {
                for b in &trace[i + 1..] {
                    prop_assert!((a.start, a.resource) <= (b.start, b.resource));
                    if a.resource == b.resource {
                        prop_assert!(!a.overlaps(b));
                        // Maximality: two runs of one job at one stage are
                        // separated by a preemption, never adjacent.
                        prop_assert!(
                            (a.job, a.stage) != (b.job, b.stage) || a.end != b.start,
                            "{} runs {}..{} and {}..{} as two slices",
                            a.job, a.start, a.end, b.start, b.end
                        );
                    }
                }
                if jobs.pipeline().preemption(a.stage) == PreemptionPolicy::NonPreemptive {
                    prop_assert_eq!(a.duration(), jobs.job(a.job).processing(a.stage));
                }
            }
        }
    }
}
