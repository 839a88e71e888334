//! Equivalence of the incremental-evaluator engines with the original
//! clone-based implementations, frozen here as oracles.
//!
//! The OPT branch-and-bound, OPDCA's Audsley loop and DMR's repair phase
//! were rewritten onto `msmr_dca::DelayEvaluator` (single mutable state,
//! undo on backtrack) purely as a performance optimisation. This suite
//! keeps verbatim copies of the previous implementations and asserts, on
//! the same 220-case fixed-seed corpus the registry equivalence test uses,
//! that verdicts, witnesses, explored node counts, `S_DCA` call counts and
//! admission outcomes are all unchanged. The engines are run the only way
//! the crate offers, through `Solver`, and compared on what their
//! `Verdict` / `AdmissionVerdict` reports.

use std::collections::BTreeSet;

use msmr_dca::reference::{InterferenceSets, ReferenceBounds};
use msmr_dca::{Analysis, DelayBoundKind};
use msmr_model::{JobId, JobSet, Time};
use msmr_sched::{
    Budget, Dm, Dmr, Opdca, OptPairwise, PairwiseAssignment, SolveCtx, Solver, Verdict,
    VerdictKind, Witness,
};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

const BOUND: DelayBoundKind = DelayBoundKind::EdgeHybrid;
const OPT_NODE_LIMIT: u64 = 50_000;

/// The three answers of an exact pairwise search, as the frozen OPT
/// oracle reports them.
#[derive(Debug, PartialEq)]
enum PairwiseSearchOutcome {
    Feasible(PairwiseAssignment),
    Infeasible,
    Unknown,
}

impl PairwiseSearchOutcome {
    /// An exact engine's verdict in the oracle's terms.
    fn of(verdict: &Verdict) -> Self {
        match (verdict.kind, &verdict.witness) {
            (VerdictKind::Accepted, Some(Witness::Pairwise(assignment))) => {
                PairwiseSearchOutcome::Feasible(assignment.clone())
            }
            (VerdictKind::Rejected, None) => PairwiseSearchOutcome::Infeasible,
            (VerdictKind::Undecided, None) => PairwiseSearchOutcome::Unknown,
            (kind, witness) => panic!("malformed exact verdict: {kind:?} with {witness:?}"),
        }
    }
}

/// The registry equivalence corpus: four configurations spanning the
/// evaluation's parameter space, 55 fixed seeds each.
fn corpus() -> Vec<JobSet> {
    let base = EdgeWorkloadConfig::default()
        .with_jobs(12)
        .with_infrastructure(4, 3);
    let configs = vec![
        base.clone().with_beta(0.10),
        base.clone().with_beta(0.20),
        base.clone().with_heavy_ratios([0.10, 0.10, 0.01]),
        base.with_gamma(0.9),
    ];
    let mut cases = Vec::new();
    for config in configs {
        let generator = EdgeWorkloadGenerator::new(config).expect("valid configuration");
        cases.extend((0..55u64).map(|seed| generator.generate_seeded(seed)));
    }
    cases
}

// ---------------------------------------------------------------------
// Frozen oracle: the clone-based OPT branch-and-bound (pre-rewrite).
// ---------------------------------------------------------------------

struct LegacySearch<'a, 'j> {
    analysis: &'a ReferenceBounds<'j>,
    bound: DelayBoundKind,
    pairs: Vec<(JobId, JobId)>,
    node_limit: u64,
    nodes: u64,
    truncated: bool,
    solution: Option<PairwiseAssignment>,
}

impl LegacySearch<'_, '_> {
    fn job_fits(&self, assignment: &PairwiseAssignment, job: JobId) -> bool {
        let ctx = assignment.interference_sets(self.analysis.jobs(), job);
        self.analysis.delay_bound(self.bound, job, &ctx) <= self.analysis.jobs().job(job).deadline()
    }

    fn explore(&mut self, depth: usize, assignment: PairwiseAssignment) -> bool {
        if self.nodes >= self.node_limit {
            self.truncated = true;
            return true;
        }
        self.nodes += 1;

        if depth == self.pairs.len() {
            self.solution = Some(assignment);
            return true;
        }

        let (a, b) = self.pairs[depth];
        let jobs = self.analysis.jobs();
        let prefer_a_first = jobs.job(a).deadline() <= jobs.job(b).deadline();
        let orientations = if prefer_a_first {
            [(a, b), (b, a)]
        } else {
            [(b, a), (a, b)]
        };

        for (winner, loser) in orientations {
            let mut next = assignment.clone();
            next.set_higher(winner, loser);
            if self.job_fits(&next, winner)
                && self.job_fits(&next, loser)
                && self.explore(depth + 1, next)
            {
                return true;
            }
        }
        false
    }
}

fn legacy_opt(
    analysis: &ReferenceBounds<'_>,
    bound: DelayBoundKind,
    node_limit: u64,
) -> (PairwiseSearchOutcome, u64) {
    let jobs = analysis.jobs();
    for i in jobs.job_ids() {
        let alone = analysis.delay_bound(bound, i, &InterferenceSets::default());
        if alone > jobs.job(i).deadline() {
            return (PairwiseSearchOutcome::Infeasible, 0);
        }
    }
    let mut pairs: Vec<(JobId, JobId)> = Vec::new();
    for i in jobs.job_ids() {
        for k in jobs.competitors(i) {
            if i < k {
                pairs.push((i, k));
            }
        }
    }
    let slack = |job: JobId| -> i128 {
        let alone = analysis.delay_bound(bound, job, &InterferenceSets::default());
        jobs.job(job).deadline().signed_diff(alone)
    };
    pairs.sort_by_key(|&(a, b)| slack(a).min(slack(b)));

    let mut search = LegacySearch {
        analysis,
        bound,
        pairs,
        node_limit,
        nodes: 0,
        truncated: false,
        solution: None,
    };
    search.explore(0, PairwiseAssignment::new());
    let outcome = match (search.solution, search.truncated) {
        (Some(assignment), _) => PairwiseSearchOutcome::Feasible(assignment),
        (None, true) => PairwiseSearchOutcome::Unknown,
        (None, false) => PairwiseSearchOutcome::Infeasible,
    };
    (outcome, search.nodes)
}

// ---------------------------------------------------------------------
// Frozen oracle: the probe-per-candidate OPDCA loop (pre-rewrite).
// ---------------------------------------------------------------------

/// Returns the ordering (highest priority first) and `S_DCA` call count,
/// or the unschedulable jobs on failure.
fn legacy_opdca(
    analysis: &ReferenceBounds<'_>,
    bound: DelayBoundKind,
) -> Result<(Vec<JobId>, usize), Vec<JobId>> {
    let jobs = analysis.jobs();
    let mut unassigned: Vec<JobId> = jobs.job_ids().collect();
    let mut assigned_lowest_first: Vec<JobId> = Vec::with_capacity(jobs.len());
    let mut sdca_calls = 0usize;

    while !unassigned.is_empty() {
        let mut chosen: Option<usize> = None;
        for (idx, &candidate) in unassigned.iter().enumerate() {
            let ctx = InterferenceSets::for_opa_probe(
                unassigned.iter().copied(),
                assigned_lowest_first.iter().copied(),
                candidate,
            );
            sdca_calls += 1;
            if analysis.meets_deadline(bound, candidate, &ctx) {
                chosen = Some(idx);
                break;
            }
        }
        match chosen {
            Some(idx) => {
                let job = unassigned.remove(idx);
                assigned_lowest_first.push(job);
            }
            None => return Err(unassigned),
        }
    }
    Ok((
        assigned_lowest_first.into_iter().rev().collect(),
        sdca_calls,
    ))
}

/// The pre-rewrite OPDCA admission controller.
fn legacy_opdca_admission(
    analysis: &ReferenceBounds<'_>,
    bound: DelayBoundKind,
) -> (Vec<JobId>, Vec<JobId>) {
    let jobs = analysis.jobs();
    let mut unassigned: Vec<JobId> = jobs.job_ids().collect();
    let mut assigned_lowest_first: Vec<JobId> = Vec::with_capacity(jobs.len());
    let mut rejected: Vec<JobId> = Vec::new();

    while !unassigned.is_empty() {
        let mut chosen: Option<usize> = None;
        let mut worst: Option<(usize, i128)> = None;
        for (idx, &candidate) in unassigned.iter().enumerate() {
            let ctx = InterferenceSets::for_opa_probe(
                unassigned.iter().copied(),
                assigned_lowest_first.iter().copied(),
                candidate,
            );
            let slack = jobs
                .job(candidate)
                .deadline()
                .signed_diff(analysis.delay_bound(bound, candidate, &ctx));
            if slack >= 0 {
                chosen = Some(idx);
                break;
            }
            let overshoot = -slack;
            if worst.is_none_or(|(_, w)| overshoot > w) {
                worst = Some((idx, overshoot));
            }
        }
        match chosen {
            Some(idx) => {
                let job = unassigned.remove(idx);
                assigned_lowest_first.push(job);
            }
            None => {
                let (idx, _) = worst.expect("at least one unassigned job exists");
                rejected.push(unassigned.remove(idx));
            }
        }
    }
    let mut accepted: Vec<JobId> = assigned_lowest_first;
    accepted.sort_unstable();
    (accepted, rejected)
}

// ---------------------------------------------------------------------
// Frozen oracle: the clone-based DMR repair phase (pre-rewrite).
// ---------------------------------------------------------------------

fn legacy_dm_assignment(jobs: &JobSet, active: &BTreeSet<JobId>) -> PairwiseAssignment {
    let mut assignment = PairwiseAssignment::new();
    for &i in active {
        for k in jobs.competitors(i) {
            if k > i && active.contains(&k) {
                if jobs.job(i).deadline() <= jobs.job(k).deadline() {
                    assignment.set_higher(i, k);
                } else {
                    assignment.set_higher(k, i);
                }
            }
        }
    }
    assignment
}

fn legacy_delay_of(
    analysis: &ReferenceBounds<'_>,
    assignment: &PairwiseAssignment,
    active: &BTreeSet<JobId>,
    job: JobId,
    bound: DelayBoundKind,
) -> Time {
    let mut higher = Vec::new();
    let mut lower = Vec::new();
    for k in analysis.jobs().competitors(job) {
        if !active.contains(&k) {
            continue;
        }
        if assignment.is_higher(k, job) {
            higher.push(k);
        } else if assignment.is_higher(job, k) {
            lower.push(k);
        }
    }
    analysis.delay_bound(bound, job, &InterferenceSets::new(higher, lower))
}

fn legacy_dmr_repair(
    analysis: &ReferenceBounds<'_>,
    active: &BTreeSet<JobId>,
    bound: DelayBoundKind,
) -> (PairwiseAssignment, Vec<JobId>) {
    let jobs = analysis.jobs();
    let mut assignment = legacy_dm_assignment(jobs, active);
    let mut unschedulable = Vec::new();

    let active_vec: Vec<JobId> = active.iter().copied().collect();
    for &job in &active_vec {
        let mut delta = legacy_delay_of(analysis, &assignment, active, job, bound);
        if delta <= jobs.job(job).deadline() {
            continue;
        }
        let mut candidates: Vec<(JobId, i128)> = jobs
            .competitors(job)
            .into_iter()
            .filter(|k| active.contains(k) && assignment.is_higher(*k, job))
            .filter_map(|k| {
                let dk = legacy_delay_of(analysis, &assignment, active, k, bound);
                let slack = jobs.job(k).deadline().signed_diff(dk);
                (slack > 0).then_some((k, slack))
            })
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        for (competitor, _) in candidates {
            let mut trial = assignment.clone();
            trial.set_higher(job, competitor);
            let competitor_delay = legacy_delay_of(analysis, &trial, active, competitor, bound);
            if competitor_delay <= jobs.job(competitor).deadline() {
                assignment = trial;
                delta = legacy_delay_of(analysis, &assignment, active, job, bound);
                if delta <= jobs.job(job).deadline() {
                    break;
                }
            }
        }
        if delta > jobs.job(job).deadline() {
            unschedulable.push(job);
        }
    }
    (assignment, unschedulable)
}

fn legacy_pairwise_admission(
    analysis: &ReferenceBounds<'_>,
    bound: DelayBoundKind,
    use_repair: bool,
) -> (PairwiseAssignment, Vec<JobId>, Vec<JobId>) {
    let jobs = analysis.jobs();
    let mut active: BTreeSet<JobId> = jobs.job_ids().collect();
    let mut rejected = Vec::new();

    loop {
        let assignment = if use_repair {
            legacy_dmr_repair(analysis, &active, bound).0
        } else {
            legacy_dm_assignment(jobs, &active)
        };
        let mut worst: Option<(JobId, i128)> = None;
        for &job in &active {
            let delta = legacy_delay_of(analysis, &assignment, &active, job, bound);
            let overshoot = delta.signed_diff(jobs.job(job).deadline());
            if overshoot > 0 && worst.is_none_or(|(_, w)| overshoot > w) {
                worst = Some((job, overshoot));
            }
        }
        match worst {
            Some((job, _)) => {
                active.remove(&job);
                rejected.push(job);
            }
            None => {
                let accepted: Vec<JobId> = active.iter().copied().collect();
                return (assignment, accepted, rejected);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The equivalence assertions.
// ---------------------------------------------------------------------

#[test]
fn opt_outcomes_and_node_counts_match_the_clone_based_search() {
    let cases = corpus();
    assert!(cases.len() >= 220, "corpus shrank: {}", cases.len());
    let solver = OptPairwise::new(BOUND);
    let budget = Budget::default().with_node_limit(OPT_NODE_LIMIT);
    for (case, jobs) in cases.iter().enumerate() {
        let ctx = SolveCtx::with_budget(jobs, budget);
        let (expected, expected_nodes) =
            legacy_opt(&ReferenceBounds::new(jobs), BOUND, OPT_NODE_LIMIT);
        let verdict = solver.solve(&ctx);
        assert_eq!(
            PairwiseSearchOutcome::of(&verdict),
            expected,
            "case {case}: OPT outcome diverged"
        );
        assert_eq!(
            verdict.stats.nodes_explored, expected_nodes,
            "case {case}: OPT node count diverged"
        );
    }
}

#[test]
fn opdca_orderings_and_sdca_calls_match_the_probe_based_loop() {
    let opdca = Opdca::new(BOUND);
    for (case, jobs) in corpus().iter().enumerate() {
        let ctx = SolveCtx::new(jobs);
        let analysis = ReferenceBounds::new(jobs);
        let verdict = opdca.solve(&ctx);
        match (legacy_opdca(&analysis, BOUND), verdict.kind) {
            (Ok((order, calls)), VerdictKind::Accepted) => {
                let ordering = verdict.witness.as_ref().and_then(Witness::as_ordering);
                assert_eq!(
                    ordering.map(|o| o.as_slice()),
                    Some(&order[..]),
                    "case {case}"
                );
                assert_eq!(
                    verdict.stats.sdca_calls, calls as u64,
                    "case {case}: sdca_calls"
                );
                // Delays reported by the evaluator match the naive
                // per-job evaluation under the computed ordering.
                let expected: Vec<Time> = jobs
                    .job_ids()
                    .map(|i| {
                        let ctx = InterferenceSets::from_total_order(&order, i);
                        analysis.delay_bound(BOUND, i, &ctx)
                    })
                    .collect();
                assert_eq!(verdict.delays, Some(expected), "case {case}: delays");
            }
            (Err(expected), VerdictKind::Rejected) => {
                assert_eq!(verdict.unschedulable, expected, "case {case}");
            }
            (legacy, kind) => panic!(
                "case {case}: OPDCA verdict diverged (legacy ok: {}, new: {kind:?})",
                legacy.is_ok()
            ),
        }
    }
}

#[test]
fn pairwise_delays_match_the_naive_per_job_evaluation() {
    for (case, jobs) in corpus().iter().enumerate().step_by(7) {
        let analysis = Analysis::new(jobs);
        let reference = ReferenceBounds::new(jobs);
        let active: BTreeSet<JobId> = jobs.job_ids().collect();
        let assignment = legacy_dm_assignment(jobs, &active);
        for kind in msmr_dca::DelayBoundKind::all() {
            let expected: Vec<Time> = jobs
                .job_ids()
                .map(|i| {
                    let ctx = assignment.interference_sets(jobs, i);
                    reference.delay_bound(kind, i, &ctx)
                })
                .collect();
            assert_eq!(
                assignment.delays(&analysis, kind),
                expected,
                "case {case}, {kind}"
            );
        }
    }
}

#[test]
fn dmr_assignments_match_the_clone_based_repair() {
    let dmr = Dmr::new(BOUND);
    for (case, jobs) in corpus().iter().enumerate() {
        let ctx = SolveCtx::new(jobs);
        let active: BTreeSet<JobId> = jobs.job_ids().collect();
        let (expected_assignment, expected_unschedulable) =
            legacy_dmr_repair(&ReferenceBounds::new(jobs), &active, BOUND);
        let verdict = dmr.solve(&ctx);
        if verdict.is_accepted() {
            assert!(
                expected_unschedulable.is_empty(),
                "case {case}: DMR verdict diverged (legacy rejected)"
            );
            assert_eq!(
                verdict.witness,
                Some(Witness::Pairwise(expected_assignment)),
                "case {case}"
            );
        } else {
            assert_eq!(verdict.unschedulable, expected_unschedulable, "case {case}");
        }
    }
}

#[test]
fn admission_controllers_match_their_legacy_loops() {
    let opdca = Opdca::new(BOUND);
    let (dm, dmr) = (Dm::new(BOUND), Dmr::new(BOUND));
    for (case, jobs) in corpus().iter().enumerate().step_by(5) {
        let ctx = SolveCtx::new(jobs);
        let analysis = &ReferenceBounds::new(jobs);

        let (expected_accepted, expected_rejected) = legacy_opdca_admission(analysis, BOUND);
        let outcome = opdca.admission_control(&ctx).expect("OPDCA admits");
        assert_eq!(outcome.accepted, expected_accepted, "case {case}: OPDCA");
        assert_eq!(outcome.rejected, expected_rejected, "case {case}: OPDCA");

        for use_repair in [false, true] {
            let (expected_assignment, expected_accepted, expected_rejected) =
                legacy_pairwise_admission(analysis, BOUND, use_repair);
            let solver: &dyn Solver = if use_repair { &dmr } else { &dm };
            let outcome = solver.admission_control(&ctx).expect("DM and DMR admit");
            let label = solver.name();
            assert_eq!(
                outcome.witness,
                Some(Witness::Pairwise(expected_assignment)),
                "case {case}: {label}"
            );
            assert_eq!(outcome.accepted, expected_accepted, "case {case}: {label}");
            assert_eq!(outcome.rejected, expected_rejected, "case {case}: {label}");
        }
    }
}
