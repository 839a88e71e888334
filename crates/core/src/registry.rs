//! [`SolverRegistry`]: named solvers, declarative implication shortcuts and
//! parallel batch evaluation.
//!
//! The registry is the production entry point of the crate: consumers
//! register boxed [`Solver`]s (or start from the paper's suites), then
//! evaluate one job set or a whole batch. The exact-dominance shortcuts of
//! the paper's evaluation — a feasible DMR or OPDCA result *is* a feasible
//! pairwise assignment, so OPT need not run — are expressed as registered
//! implications instead of inline control flow, which keeps them correct
//! for any solver combination a caller assembles.

use std::collections::BTreeMap;

use msmr_dca::DelayBoundKind;
use msmr_model::JobSet;

use crate::online::OnlineSuiteState;
use crate::solver::{Budget, SolveCtx, Solver, SolverStats, Verdict, VerdictKind};
use crate::solvers::{DMR, OPDCA, OPT, OPT_ILP};
use crate::{Dcmp, Dm, Dmr, Opdca, OptPairwise, PairwiseIlp};

struct Entry {
    solver: Box<dyn Solver>,
    /// Names of registered solvers whose *accepted* verdict implies this
    /// solver would accept too, letting the registry skip the run.
    implied_by: Vec<String>,
}

/// A verdict observer installed with [`SolverRegistry::set_verdict_hook`].
type VerdictHook = Box<dyn Fn(&Verdict) + Send + Sync>;

/// An ordered collection of named solvers with implication shortcuts.
#[derive(Default)]
pub struct SolverRegistry {
    entries: Vec<Entry>,
    /// Observability tap: called with every verdict any evaluation path
    /// of this registry produces (see
    /// [`SolverRegistry::set_verdict_hook`]).
    verdict_hook: Option<VerdictHook>,
}

impl SolverRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        SolverRegistry::default()
    }

    /// The five approaches of the paper's evaluation (DM, DMR, OPDCA, OPT,
    /// DCMP) in legend order, with the `DMR ⇒ OPT` and `OPDCA ⇒ OPT`
    /// shortcuts registered.
    #[must_use]
    pub fn paper_suite(bound: DelayBoundKind) -> Self {
        let mut registry = SolverRegistry::new();
        registry.register(Box::new(Dm::new(bound)));
        registry.register(Box::new(Dmr::new(bound)));
        registry.register(Box::new(Opdca::new(bound)));
        registry.register(Box::new(OptPairwise::new(bound)));
        registry.register(Box::new(Dcmp::new()));
        registry.register_implication(DMR, OPT);
        registry.register_implication(OPDCA, OPT);
        registry
    }

    /// All six engines of the workspace: the paper suite plus the verbatim
    /// ILP formulation of OPT, which inherits the same implications (OPT
    /// and OPT-ILP solve the same problem exactly, so each also implies
    /// the other).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is not supported by the ILP encoding (it supports
    /// the refined preemptive and edge hybrid bounds).
    #[must_use]
    pub fn full_suite(bound: DelayBoundKind) -> Self {
        let mut registry = SolverRegistry::paper_suite(bound);
        registry.register(Box::new(PairwiseIlp::new(bound)));
        registry.register_implication(DMR, OPT_ILP);
        registry.register_implication(OPDCA, OPT_ILP);
        registry.register_implication(OPT, OPT_ILP);
        registry
    }

    /// Registers a solver at the end of the evaluation order.
    ///
    /// # Panics
    ///
    /// Panics if a solver with the same name is already registered.
    pub fn register(&mut self, solver: Box<dyn Solver>) -> &mut Self {
        assert!(
            self.solver(solver.name()).is_none(),
            "solver `{}` is already registered",
            solver.name()
        );
        self.entries.push(Entry {
            solver,
            implied_by: Vec::new(),
        });
        self
    }

    /// Declares that an accepted verdict of `accepted_solver` implies
    /// `implied_solver` would accept as well, allowing
    /// [`SolverRegistry::evaluate`] to skip the implied run. The shortcut
    /// must be *exact* (it is for the paper's pairs: a feasible ordering or
    /// repaired pairwise assignment is a feasible pairwise assignment).
    ///
    /// # Panics
    ///
    /// Panics if either name is not registered, or if the implication does
    /// not point forward in evaluation order (the source must run first).
    pub fn register_implication(
        &mut self,
        accepted_solver: &str,
        implied_solver: &str,
    ) -> &mut Self {
        let source = self
            .position(accepted_solver)
            .unwrap_or_else(|| panic!("implication source `{accepted_solver}` is not registered"));
        let target = self
            .position(implied_solver)
            .unwrap_or_else(|| panic!("implication target `{implied_solver}` is not registered"));
        assert!(
            source < target,
            "implication source `{accepted_solver}` must be evaluated before `{implied_solver}`"
        );
        self.entries[target]
            .implied_by
            .push(accepted_solver.to_string());
        self
    }

    /// Installs an observability hook called with **every** verdict this
    /// registry produces — sequential, batch (from worker threads, hence
    /// the `Sync` bound) and online paths alike, implied verdicts
    /// included. The hook observes verdicts by reference and cannot
    /// mutate them, so instrumentation can never perturb the
    /// byte-identity contract between warm and cold evaluation. One hook
    /// per registry; installing again replaces the previous one.
    pub fn set_verdict_hook(&mut self, hook: impl Fn(&Verdict) + Send + Sync + 'static) {
        self.verdict_hook = Some(Box::new(hook));
    }

    /// Fires the verdict hook, when installed.
    fn fire_hook(&self, verdict: &Verdict) {
        if let Some(hook) = &self.verdict_hook {
            hook(verdict);
        }
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.solver.name() == name)
    }

    /// Looks up a registered solver by name (the names the CLI accepts).
    #[must_use]
    pub fn solver(&self, name: &str) -> Option<&dyn Solver> {
        self.entries
            .iter()
            .find(|e| e.solver.name() == name)
            .map(|e| e.solver.as_ref())
    }

    /// Registered solver names in evaluation order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.solver.name()).collect()
    }

    /// Number of registered solvers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no solver is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evaluates every registered solver on one job set, in registration
    /// order, applying implication shortcuts. The interference analysis is
    /// built once and shared by all solvers.
    #[must_use]
    pub fn evaluate(&self, jobs: &JobSet, budget: Budget) -> Vec<Verdict> {
        self.evaluate_ctx(&SolveCtx::with_budget(jobs, budget))
    }

    /// Like [`SolverRegistry::evaluate`] with a caller-provided context
    /// (e.g. to reuse an already-built analysis).
    #[must_use]
    pub fn evaluate_ctx(&self, ctx: &SolveCtx<'_>) -> Vec<Verdict> {
        self.evaluate_each(
            |solver, shortcut| match shortcut {
                Some(source) => Self::implied_verdict(solver.name(), source),
                None => solver.solve(ctx),
            },
            |_| {},
        )
    }

    /// The one sequential evaluation loop behind both the offline
    /// ([`SolverRegistry::evaluate_ctx`]) and the online
    /// ([`SolverRegistry::evaluate_online`]) paths: registration order,
    /// implication-shortcut detection, acceptance tracking and streaming.
    /// Sharing it (and [`SolverRegistry::implied_verdict`]) is what makes
    /// the two paths structurally unable to drift apart — the
    /// byte-identity contract of the online seam depends on it.
    /// `decide` is handed each solver together with the shortcut source
    /// that fired for it, if any.
    fn evaluate_each(
        &self,
        mut decide: impl FnMut(&dyn Solver, Option<&str>) -> Verdict,
        mut sink: impl FnMut(&Verdict),
    ) -> Vec<Verdict> {
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(self.entries.len());
        let mut accepted: BTreeMap<&str, bool> = BTreeMap::new();
        for entry in &self.entries {
            let shortcut = entry
                .implied_by
                .iter()
                .find(|source| accepted.get(source.as_str()).copied().unwrap_or(false));
            let verdict = decide(entry.solver.as_ref(), shortcut.map(String::as_str));
            accepted.insert(entry.solver.name(), verdict.is_accepted());
            self.fire_hook(&verdict);
            sink(&verdict);
            verdicts.push(verdict);
        }
        verdicts
    }

    /// The verdict synthesized for a solver skipped by an exact
    /// implication shortcut.
    fn implied_verdict(solver: &str, source: &str) -> Verdict {
        Verdict {
            stats: SolverStats {
                implied_by: Some(source.to_string()),
                ..SolverStats::default()
            },
            ..Verdict::new(solver, VerdictKind::Accepted)
        }
    }

    /// The stateful counterpart of [`SolverRegistry::evaluate_ctx`]:
    /// identical verdicts in identical order — sequential evaluation,
    /// implication shortcuts applied, every verdict byte-identical to the
    /// cold path once the wall-clock provenance fields are zeroed — but
    /// each solver with an [`OnlineSolver`](crate::OnlineSolver) seam
    /// decides from (and updates) its [`OnlineSuiteState`] slot, which
    /// lets it fast-forward across an arrival instead of re-deciding from
    /// scratch. A blank [`OnlineSuiteState::new`] makes every solver
    /// decide cold once and record its state. Solvers without the seam are
    /// served by the cold adapter, which re-solves on the (warm) context
    /// and marks the verdict with the `cold_fallback` stat; solvers
    /// skipped by a shortcut get their state invalidated (they did not
    /// observe the change and must decide cold next time). `sink` observes
    /// each verdict the moment its solver finishes, so a service can push
    /// DM's answer over the wire while OPT is still searching.
    pub fn evaluate_online(
        &self,
        state: &mut OnlineSuiteState,
        ctx: &SolveCtx<'_>,
        sink: impl FnMut(&Verdict),
    ) -> Vec<Verdict> {
        self.evaluate_each(
            |solver, shortcut| match shortcut {
                Some(source) => {
                    state.invalidate(solver.name());
                    Self::implied_verdict(solver.name(), source)
                }
                None => Self::solve_online(solver, state, ctx),
            },
            sink,
        )
    }

    /// Runs a *single* registered solver through the online seam — the
    /// low-latency decider-only path of an admission session. Every other
    /// solver's state is invalidated (it did not observe the change).
    /// Returns `None` for unregistered names.
    pub fn decide_online(
        &self,
        name: &str,
        state: &mut OnlineSuiteState,
        ctx: &SolveCtx<'_>,
    ) -> Option<Verdict> {
        let solver = self.solver(name)?;
        state.invalidate_except(name);
        let verdict = Self::solve_online(solver, state, ctx);
        self.fire_hook(&verdict);
        Some(verdict)
    }

    /// One solver through the online seam: the warm path when the solver
    /// has one, the cold adapter (re-solve + `cold_fallback` stat)
    /// otherwise.
    fn solve_online(
        solver: &dyn Solver,
        state: &mut OnlineSuiteState,
        ctx: &SolveCtx<'_>,
    ) -> Verdict {
        match solver.online() {
            Some(online) => online.decide(state.state_mut(solver.name()), ctx),
            None => {
                state.invalidate(solver.name());
                let mut verdict = solver.solve(ctx);
                verdict.stats.cold_fallback = Some(true);
                verdict
            }
        }
    }

    /// Evaluates the whole registry over a batch of job sets, fanning the
    /// job sets out over `threads` worker threads. Within one job set the
    /// solvers run sequentially with implication shortcuts, so for
    /// budgets without a wall-clock `time_limit` the result of every job
    /// set is identical to [`SolverRegistry::evaluate`] — only wall-clock
    /// time changes with `threads`. (A `time_limit` budget can truncate
    /// the exact engines differently under scheduler contention, making
    /// `Undecided` verdicts thread-dependent; use `node_limit` when
    /// reproducibility matters.) Results are returned in input order.
    #[must_use]
    pub fn evaluate_batch(
        &self,
        jobsets: &[JobSet],
        budget: Budget,
        threads: usize,
    ) -> Vec<Vec<Verdict>> {
        msmr_par::parallel_map(jobsets, threads, |_, jobs| self.evaluate(jobs, budget))
    }
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("solvers", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};

    const BOUND: DelayBoundKind = DelayBoundKind::RefinedPreemptive;

    fn light_jobs() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("a", 2, PreemptionPolicy::Preemptive)
            .stage("b", 2, PreemptionPolicy::Preemptive);
        for i in 0..4u64 {
            b.job()
                .deadline(Time::new(200))
                .stage_time(Time::new(5), (i % 2) as usize)
                .stage_time(Time::new(10), (i % 2) as usize)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    /// The Observation V.1 system: pairwise-feasible, ordering-infeasible.
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
    fn suites_register_the_documented_solvers() {
        let paper = SolverRegistry::paper_suite(BOUND);
        assert_eq!(paper.names(), vec!["DM", "DMR", "OPDCA", "OPT", "DCMP"]);
        assert_eq!(paper.len(), 5);
        assert!(!paper.is_empty());
        let full = SolverRegistry::full_suite(BOUND);
        assert_eq!(
            full.names(),
            vec!["DM", "DMR", "OPDCA", "OPT", "DCMP", "OPT-ILP"]
        );
        assert!(full.solver("OPT-ILP").is_some());
        assert!(full.solver("NOPE").is_none());
    }

    #[test]
    fn shortcut_synthesizes_the_opt_verdict() {
        // The light system is accepted by DMR, so OPT must be implied, not
        // run.
        let registry = SolverRegistry::paper_suite(BOUND);
        let jobs = light_jobs();
        let verdicts = registry.evaluate(&jobs, Budget::default());
        let opt = verdicts.iter().find(|v| v.solver == "OPT").unwrap();
        assert!(opt.is_accepted());
        assert_eq!(opt.stats.implied_by.as_deref(), Some("DMR"));
        assert!(opt.witness.is_none());
    }

    #[test]
    fn shortcut_does_not_fire_when_sources_reject() {
        // Observation V.1: DMR and OPDCA reject, so OPT really runs and
        // finds the pairwise assignment.
        let registry = SolverRegistry::paper_suite(BOUND);
        let jobs = observation_v1();
        let verdicts = registry.evaluate(&jobs, Budget::default());
        let by_name = |name: &str| verdicts.iter().find(|v| v.solver == name).unwrap();
        assert!(!by_name("DMR").is_accepted());
        assert!(!by_name("OPDCA").is_accepted());
        let opt = by_name("OPT");
        assert!(opt.is_accepted());
        assert!(opt.stats.implied_by.is_none());
        assert!(opt.witness.is_some());
        assert!(opt.stats.nodes_explored > 0);
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let registry = SolverRegistry::paper_suite(BOUND);
        let jobsets = vec![light_jobs(), observation_v1(), light_jobs()];
        let budget = Budget::default().with_node_limit(100_000);
        let sequential = registry.evaluate_batch(&jobsets, budget, 1);
        let parallel = registry.evaluate_batch(&jobsets, budget, 4);
        assert_eq!(sequential.len(), 3);
        for (seq, par) in sequential.iter().zip(&parallel) {
            let seq_kinds: Vec<_> = seq.iter().map(|v| (v.solver.clone(), v.kind)).collect();
            let par_kinds: Vec<_> = par.iter().map(|v| (v.solver.clone(), v.kind)).collect();
            assert_eq!(seq_kinds, par_kinds);
        }
    }

    #[test]
    fn injected_analysis_is_reused_and_reclaimable() {
        let jobs = light_jobs();
        let analysis = msmr_dca::Analysis::new(&jobs);
        let ctx = SolveCtx::over(&analysis, Budget::default());
        assert!(ctx.analysis_is_built());
        assert!(std::ptr::eq(ctx.analysis(), &analysis));
        let registry = SolverRegistry::paper_suite(BOUND);
        let verdicts = registry.evaluate_ctx(&ctx);
        assert_eq!(verdicts.len(), 5);
        // The context only borrowed it: the lender still holds the tables.
        drop(ctx);
        assert_eq!(analysis.tables().job_count(), jobs.len());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_are_rejected() {
        let mut registry = SolverRegistry::paper_suite(BOUND);
        registry.register(Box::new(Dm::new(BOUND)));
    }

    #[test]
    #[should_panic(expected = "is not registered")]
    fn implications_require_registered_names() {
        let mut registry = SolverRegistry::new();
        registry.register(Box::new(Dm::new(BOUND)));
        registry.register_implication("DM", "OPT");
    }

    #[test]
    #[should_panic(expected = "must be evaluated before")]
    fn implications_must_point_forward() {
        let mut registry = SolverRegistry::new();
        registry.register(Box::new(Dm::new(BOUND)));
        registry.register(Box::new(Dmr::new(BOUND)));
        registry.register_implication("DMR", "DM");
    }

    #[test]
    fn verdict_hook_observes_every_path_without_changing_verdicts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let jobs = light_jobs();
        let plain = SolverRegistry::paper_suite(BOUND);
        let baseline = plain.evaluate(&jobs, Budget::default());

        let seen = Arc::new(AtomicUsize::new(0));
        let mut hooked = SolverRegistry::paper_suite(BOUND);
        let counter = Arc::clone(&seen);
        hooked.set_verdict_hook(move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });

        // Sequential (implied verdicts included) ...
        let verdicts = hooked.evaluate(&jobs, Budget::default());
        assert_eq!(seen.load(Ordering::SeqCst), hooked.len());
        // ... with byte-identical results to the uninstrumented run.
        for (a, b) in verdicts.iter().zip(&baseline) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.stats.elapsed_micros = 0;
            b.stats.elapsed_micros = 0;
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }

        // Batch path (hook fires from worker threads).
        seen.store(0, Ordering::SeqCst);
        let _ = hooked.evaluate_batch(&[jobs.clone(), jobs.clone()], Budget::default(), 2);
        assert_eq!(seen.load(Ordering::SeqCst), 2 * hooked.len());

        // Online paths: full suite and single-decider.
        seen.store(0, Ordering::SeqCst);
        let mut state = OnlineSuiteState::new();
        let ctx = SolveCtx::with_budget(&jobs, Budget::default());
        let _ = hooked.evaluate_online(&mut state, &ctx, |_| {});
        assert_eq!(seen.load(Ordering::SeqCst), hooked.len());
        seen.store(0, Ordering::SeqCst);
        let _ = hooked.decide_online(OPDCA, &mut state, &ctx);
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }
}
