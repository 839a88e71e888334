//! The paper's ILP formulation of pairwise priority assignment (Eqs. 7–9),
//! solved with the `msmr-ilp` branch-and-bound solver.

use std::collections::BTreeMap;
use std::time::Duration;

use msmr_dca::{Analysis, DelayBoundKind};
use msmr_ilp::{LinExpr, Outcome, Problem, Solver, SolverConfig, VarId};
use msmr_model::{JobId, StageId};

use crate::opt::PairwiseSearchOutcome;
use crate::PairwiseAssignment;

/// The verbatim ILP formulation of OPT (§V-A): binary orientation variables
/// `X_{i,k}` (Eq. 7), the delay expression of Eq. 8 with the refined
/// job-additive terms of Eq. 6, and the big-M encoding of the
/// stage-additive maxima `θ_{i,j}` (Eq. 9), solved as a pure feasibility
/// problem with [`msmr_ilp::Solver`].
///
/// This engine exists to mirror the paper exactly (the authors used
/// Gurobi); it is cross-checked against the specialised
/// [`OptPairwise`](crate::OptPairwise) search in the test suite. For large
/// instances prefer `OptPairwise`, which exploits the monotonicity of the
/// delay bounds and scales much further. Run it through
/// [`Solver`](crate::Solver); the context's [`Budget`](crate::Budget)
/// limits the ILP's branch-and-bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseIlp {
    bound: DelayBoundKind,
}

impl PairwiseIlp {
    /// Creates the encoder/solver for the given delay bound.
    ///
    /// # Panics
    ///
    /// Panics unless the bound is [`DelayBoundKind::RefinedPreemptive`]
    /// (the preemptive formulation of the paper) or
    /// [`DelayBoundKind::EdgeHybrid`] (its extension with a non-preemptive
    /// blocking term at the last stage, Eq. 10).
    #[must_use]
    pub fn new(bound: DelayBoundKind) -> Self {
        assert!(
            matches!(
                bound,
                DelayBoundKind::RefinedPreemptive | DelayBoundKind::EdgeHybrid
            ),
            "the ILP encoding supports the refined preemptive bound (Eq. 6) \
             and the edge hybrid bound (Eq. 10), not {bound}"
        );
        PairwiseIlp { bound }
    }

    /// The delay bound encoded by this instance.
    #[must_use]
    pub const fn bound(&self) -> DelayBoundKind {
        self.bound
    }

    /// Encodes and solves the pairwise assignment problem within
    /// `node_limit` branch-and-bound nodes and the optional wall-clock
    /// `time_limit`, reporting the outcome and the nodes explored.
    pub(crate) fn search(
        &self,
        analysis: &Analysis<'_>,
        node_limit: u64,
        time_limit: Option<Duration>,
    ) -> (PairwiseSearchOutcome, u64) {
        let (problem, variables) = self.encode(analysis);
        let solver = Solver::with_config(SolverConfig {
            node_limit,
            time_limit,
        });
        let (outcome, stats) = solver
            .solve_with_stats(&problem)
            .expect("the encoding only uses variables of its own problem");
        let outcome = match outcome {
            Outcome::Optimal(solution) | Outcome::Feasible(solution) => {
                let mut assignment = PairwiseAssignment::for_jobs(analysis.jobs().len());
                for (&(i, k), &var) in &variables {
                    if solution.value(var) == 1 {
                        assignment.set(i, k);
                    }
                }
                PairwiseSearchOutcome::Feasible(assignment)
            }
            Outcome::Infeasible => PairwiseSearchOutcome::Infeasible,
            Outcome::Unknown => PairwiseSearchOutcome::Unknown,
        };
        (outcome, stats.nodes)
    }

    /// Builds the ILP. Returns the problem and the map from ordered pairs
    /// `(i, k)` to the binary variable `X_{i,k}` ("i outranks k").
    pub(crate) fn encode(
        &self,
        analysis: &Analysis<'_>,
    ) -> (Problem, BTreeMap<(JobId, JobId), VarId>) {
        let jobs = analysis.jobs();
        let tables = analysis.tables();
        let n_stages = jobs.stage_count();
        let big_m = jobs.max_processing_time().as_ticks() as i64;
        let mut problem = Problem::new();

        // X_{i,k} for every ordered competing pair, with X_{i,k}+X_{k,i}=1
        // (Eq. 7). Pairs that cannot interfere (disjoint windows) are fixed
        // arbitrarily — they do not influence any delay.
        let mut x: BTreeMap<(JobId, JobId), VarId> = BTreeMap::new();
        for i in jobs.job_ids() {
            for k in jobs.competitors(i) {
                if i < k {
                    let xik = problem.binary(format!("x_{}_{}", i.index(), k.index()));
                    let xki = problem.binary(format!("x_{}_{}", k.index(), i.index()));
                    problem.equal(LinExpr::new().term(xik, 1).term(xki, 1), 1);
                    x.insert((i, k), xik);
                    x.insert((k, i), xki);
                }
            }
        }

        for i in jobs.job_ids() {
            let job = jobs.job(i);
            let deadline = job.deadline().as_ticks() as i64;
            // Eq. 8: Δ_i = t_{i,1} + Σ_k X_{k,i}·(Σ_x et_{k,x}) + Σ_j θ_{i,j}
            // (θ over the first N−1 stages), plus the non-preemptive
            // blocking term of Eq. 10 when the edge bound is selected.
            let mut delay = LinExpr::new().constant(job.max_processing().as_ticks() as i64);

            for k in jobs.competitors(i) {
                if !tables.interference_mask(i).contains(k) {
                    continue;
                }
                let contribution = tables.ja_eq6(i, k).as_ticks() as i64;
                if contribution > 0 {
                    delay.add_term(x[&(k, i)], contribution);
                }
            }

            // θ_{i,j} via Eq. 9 for stages 1..N-1.
            for j in 0..n_stages.saturating_sub(1) {
                let stage = StageId::new(j);
                let theta = self.encode_theta(&mut problem, analysis, &x, i, stage, big_m);
                delay.add_term(theta, 1);
            }

            if self.bound == DelayBoundKind::EdgeHybrid {
                let last = StageId::new(n_stages - 1);
                let blocking = self.encode_blocking(&mut problem, analysis, &x, i, last, big_m);
                delay.add_term(blocking, 1);
            }

            problem.less_equal(delay, deadline);
        }

        (problem, x)
    }

    /// Encodes `θ_{i,j} = max_{k ∈ Q_{i,j}} ep_{k,j}` with the indicator
    /// constraints of Eq. 9.
    fn encode_theta(
        &self,
        problem: &mut Problem,
        analysis: &Analysis<'_>,
        x: &BTreeMap<(JobId, JobId), VarId>,
        i: JobId,
        stage: StageId,
        big_m: i64,
    ) -> VarId {
        let jobs = analysis.jobs();
        let tables = analysis.tables();
        let own = jobs.job(i).processing(stage).as_ticks() as i64;
        let theta = problem
            .int_var(
                format!("theta_{}_{}", i.index(), stage.index()),
                own,
                big_m.max(own),
            )
            .expect("theta bounds are ordered");

        // Members of Z_{i,j} = M_{i,j} ∪ {J_i} and their selector binaries.
        let mut selectors = LinExpr::new();
        // The target job itself: θ ≥ ep_{i,j} is already the lower bound;
        // θ ≤ ep_{i,j} + (1-b)·M.
        let b_self = problem.binary(format!("b_{}_{}_self", i.index(), stage.index()));
        problem.less_equal(
            LinExpr::new().term(theta, 1).term(b_self, big_m),
            own + big_m,
        );
        selectors.add_term(b_self, 1);

        for k in jobs.competitors_at(i, stage) {
            if !tables.interference_mask(i).contains(k) {
                continue;
            }
            let ep = tables.ep(i, k, stage).as_ticks() as i64;
            let xki = x[&(k, i)];
            // Eq. 9a: θ ≥ ep_{k,j}·X_{k,i}.
            problem.greater_equal(LinExpr::new().term(theta, 1).term(xki, -ep), 0);
            // Eq. 9b: θ ≤ ep_{k,j}·X_{k,i} + (1−b)·M.
            let b = problem.binary(format!("b_{}_{}_{}", i.index(), stage.index(), k.index()));
            problem.less_equal(
                LinExpr::new().term(theta, 1).term(xki, -ep).term(b, big_m),
                big_m,
            );
            selectors.add_term(b, 1);
        }
        // Eq. 9c: exactly one member attains the maximum.
        problem.equal(selectors, 1);
        theta
    }

    /// Encodes the non-preemptive blocking term of Eq. 10:
    /// `max_{k ∈ L_i} ep_{k,last}` where `k ∈ L_i ⇔ X_{i,k} = 1`.
    fn encode_blocking(
        &self,
        problem: &mut Problem,
        analysis: &Analysis<'_>,
        x: &BTreeMap<(JobId, JobId), VarId>,
        i: JobId,
        stage: StageId,
        big_m: i64,
    ) -> VarId {
        let jobs = analysis.jobs();
        let tables = analysis.tables();
        let blocking = problem
            .int_var(format!("block_{}_{}", i.index(), stage.index()), 0, big_m)
            .expect("blocking bounds are ordered");
        for k in jobs.competitors_at(i, stage) {
            if !tables.interference_mask(i).contains(k) {
                continue;
            }
            let ep = tables.ep(i, k, stage).as_ticks() as i64;
            let xik = x[&(i, k)];
            // blocking ≥ ep_{k,last}·X_{i,k}.
            problem.greater_equal(LinExpr::new().term(blocking, 1).term(xik, -ep), 0);
        }
        blocking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::assignment_fits;
    use crate::{OptPairwise, SolveCtx, Solver, Witness};
    use msmr_dca::reference::ReferenceBounds;
    use msmr_model::{JobSet, JobSetBuilder, PreemptionPolicy, Time};

    /// Both exact engines agree on `jobs`, and the ILP's witness (if any)
    /// is feasible.
    fn assert_exact_engines_agree(jobs: &JobSet, bound: DelayBoundKind) {
        let ctx = SolveCtx::new(jobs);
        let ilp = PairwiseIlp::new(bound).solve(&ctx);
        let search = OptPairwise::new(bound).solve(&ctx);
        assert!(ilp.is_conclusive(), "ILP hit its node limit");
        assert!(search.is_conclusive());
        assert_eq!(ilp.kind, search.kind, "ILP and branch-and-bound disagree");
        if let Some(Witness::Pairwise(assignment)) = &ilp.witness {
            assert!(assignment_fits(
                &ReferenceBounds::new(jobs),
                assignment,
                bound
            ));
        }
    }

    /// The Observation V.1 system.
    fn observation_v1() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("s1", 2, PreemptionPolicy::Preemptive)
            .stage("s2", 2, PreemptionPolicy::Preemptive)
            .stage("s3", 2, PreemptionPolicy::Preemptive);
        let rows: [([u64; 3], [usize; 3], u64); 4] = [
            ([5, 7, 15], [0, 1, 1], 60),
            ([7, 9, 17], [1, 1, 1], 55),
            ([6, 8, 30], [0, 0, 0], 55),
            ([2, 4, 3], [1, 0, 0], 50),
        ];
        for (times, resources, deadline) in rows {
            b.job()
                .deadline(Time::new(deadline))
                .stage_time(Time::new(times[0]), resources[0])
                .stage_time(Time::new(times[1]), resources[1])
                .stage_time(Time::new(times[2]), resources[2])
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    #[should_panic(expected = "ILP encoding supports")]
    fn unsupported_bounds_are_rejected() {
        let _ = PairwiseIlp::new(DelayBoundKind::NonPreemptiveOpa);
    }

    #[test]
    fn ilp_finds_the_observation_v1_assignment() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let (outcome, _) =
            PairwiseIlp::new(DelayBoundKind::RefinedPreemptive).search(&analysis, 20_000_000, None);
        let PairwiseSearchOutcome::Feasible(assignment) = outcome else {
            panic!("feasible by Observation V.1");
        };
        assert!(assignment_fits(
            &ReferenceBounds::new(&jobs),
            &assignment,
            DelayBoundKind::RefinedPreemptive
        ));
    }

    #[test]
    fn ilp_encoding_size_is_as_expected() {
        let jobs = observation_v1();
        let analysis = Analysis::new(&jobs);
        let ilp = PairwiseIlp::new(DelayBoundKind::RefinedPreemptive);
        assert_eq!(ilp.bound(), DelayBoundKind::RefinedPreemptive);
        let (problem, x) = ilp.encode(&analysis);
        // Four competing pairs, two ordered variables each.
        assert_eq!(x.len(), 8);
        // 8 X variables + per job and stage (3 jobs compete per stage... )
        // at least the theta variables exist:
        assert!(problem.num_variables() > x.len());
        assert!(problem.num_constraints() > 0);
    }

    #[test]
    fn ilp_agrees_with_the_specialised_search_on_random_systems() {
        use msmr_workload::{RandomMsmrConfig, RandomMsmrGenerator};
        let generator = RandomMsmrGenerator::new(RandomMsmrConfig {
            jobs: (2, 4),
            stages: (2, 3),
            resources_per_stage: (1, 2),
            deadline_factor: (1.0, 2.5),
            ..RandomMsmrConfig::default()
        })
        .unwrap();
        for seed in 0..15 {
            let jobs = generator.generate_seeded(seed);
            assert_exact_engines_agree(&jobs, DelayBoundKind::RefinedPreemptive);
        }
    }

    #[test]
    fn edge_hybrid_encoding_solves_small_instances() {
        assert_exact_engines_agree(&observation_v1(), DelayBoundKind::EdgeHybrid);
    }

    /// The encoder as it read the per-pair
    /// [`PairInterference`](msmr_dca::reference::PairInterference) objects
    /// before it moved onto `PairTables`: the reference the table reader
    /// must reproduce variable for variable and constraint for constraint.
    fn encode_with_pairs(
        bound: DelayBoundKind,
        reference: &ReferenceBounds<'_>,
    ) -> (Problem, BTreeMap<(JobId, JobId), VarId>) {
        let jobs = reference.jobs();
        let n_stages = jobs.stage_count();
        let big_m = jobs.max_processing_time().as_ticks() as i64;
        let mut problem = Problem::new();
        let mut x = BTreeMap::new();
        for i in jobs.job_ids() {
            for k in jobs.competitors(i) {
                if i < k {
                    let xik = problem.binary(format!("x_{}_{}", i.index(), k.index()));
                    let xki = problem.binary(format!("x_{}_{}", k.index(), i.index()));
                    problem.equal(LinExpr::new().term(xik, 1).term(xki, 1), 1);
                    x.insert((i, k), xik);
                    x.insert((k, i), xki);
                }
            }
        }
        for i in jobs.job_ids() {
            let job = jobs.job(i);
            let mut delay = LinExpr::new().constant(job.max_processing().as_ticks() as i64);
            for k in jobs.competitors(i) {
                let pair = reference.pair(i, k);
                if !pair.interferes() {
                    continue;
                }
                let contribution = pair.sum_of_largest(pair.job_additive_terms()).as_ticks() as i64;
                if contribution > 0 {
                    delay.add_term(x[&(k, i)], contribution);
                }
            }
            for j in 0..n_stages.saturating_sub(1) {
                let stage = StageId::new(j);
                let own = job.processing(stage).as_ticks() as i64;
                let theta = problem
                    .int_var(format!("theta_{}_{}", i.index(), j), own, big_m.max(own))
                    .unwrap();
                let mut selectors = LinExpr::new();
                let b_self = problem.binary(format!("b_{}_{}_self", i.index(), j));
                problem.less_equal(
                    LinExpr::new().term(theta, 1).term(b_self, big_m),
                    own + big_m,
                );
                selectors.add_term(b_self, 1);
                for k in jobs.competitors_at(i, stage) {
                    let pair = reference.pair(i, k);
                    if !pair.interferes() {
                        continue;
                    }
                    let ep = pair.ep(stage).as_ticks() as i64;
                    let xki = x[&(k, i)];
                    problem.greater_equal(LinExpr::new().term(theta, 1).term(xki, -ep), 0);
                    let b = problem.binary(format!("b_{}_{}_{}", i.index(), j, k.index()));
                    problem.less_equal(
                        LinExpr::new().term(theta, 1).term(xki, -ep).term(b, big_m),
                        big_m,
                    );
                    selectors.add_term(b, 1);
                }
                problem.equal(selectors, 1);
                delay.add_term(theta, 1);
            }
            if bound == DelayBoundKind::EdgeHybrid {
                let last = StageId::new(n_stages - 1);
                let blocking = problem
                    .int_var(format!("block_{}_{}", i.index(), n_stages - 1), 0, big_m)
                    .unwrap();
                for k in jobs.competitors_at(i, last) {
                    let pair = reference.pair(i, k);
                    if !pair.interferes() {
                        continue;
                    }
                    let ep = pair.ep(last).as_ticks() as i64;
                    problem
                        .greater_equal(LinExpr::new().term(blocking, 1).term(x[&(i, k)], -ep), 0);
                }
                delay.add_term(blocking, 1);
            }
            problem.less_equal(delay, job.deadline().as_ticks() as i64);
        }
        (problem, x)
    }

    #[test]
    fn table_encoding_equals_the_pair_encoding() {
        use msmr_workload::{
            EdgeWorkloadConfig, EdgeWorkloadGenerator, RandomMsmrConfig, RandomMsmrGenerator,
        };
        let random = RandomMsmrGenerator::new(RandomMsmrConfig {
            jobs: (2, 8),
            stages: (2, 5),
            resources_per_stage: (1, 3),
            // Spread arrivals so that some windows do not overlap.
            arrivals: (0, 150),
            deadline_factor: (1.0, 2.5),
            ..RandomMsmrConfig::default()
        })
        .unwrap();
        let edge = EdgeWorkloadGenerator::new(
            EdgeWorkloadConfig::default()
                .with_jobs(24)
                .with_infrastructure(6, 4)
                .with_beta(0.22),
        )
        .unwrap();
        let mut cases = vec![observation_v1()];
        cases.extend((0..20).map(|seed| random.generate_seeded(seed)));
        cases.extend((0..4).map(|seed| edge.generate_seeded(seed)));
        for jobs in &cases {
            for bound in [
                DelayBoundKind::RefinedPreemptive,
                DelayBoundKind::EdgeHybrid,
            ] {
                let by_tables = PairwiseIlp::new(bound).encode(&Analysis::new(jobs));
                assert_eq!(
                    by_tables,
                    encode_with_pairs(bound, &ReferenceBounds::new(jobs))
                );
            }
        }
    }
}
