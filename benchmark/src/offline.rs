//! The two offline workloads: no sockets, no serde — the registry and
//! solver APIs called in-process, as a researcher reproducing Fig. 4 or
//! cross-checking OPT against the ILP would.

use std::collections::BTreeMap;
use std::time::Instant;

use msmr_dca::DelayBoundKind;
use msmr_sched::{Budget, SolveCtx, SolverRegistry, Verdict, VerdictKind};
use msmr_sim::{PriorityMap, Simulator};

use crate::metrics::{Rep, SOLVERS};
use crate::procs;
use crate::stats::{nearest_rank, sorted};
use crate::trace::Span;
use crate::traffic::{self, Fnv};

const BOUND: DelayBoundKind = DelayBoundKind::EdgeHybrid;

/// Cases handed to one `evaluate_batch` call: large enough that the
/// barrier at the end of a chunk is noise, small enough that the
/// verdicts (with their witnesses) of a chunk stay a few MB.
const CHUNK: usize = 250;

/// Accepted OPDCA witnesses simulated per repetition.
const SIMULATED_WITNESSES: usize = 50;

/// The measured window of an offline repetition: wall time, and the CPU
/// time and peak memory of this process (each repetition has its own).
struct Window {
    start: Instant,
    cpu_before: Result<f64, String>,
}

impl Window {
    fn open() -> Window {
        Window {
            cpu_before: procs::cpu_micros(None),
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the window opened.
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn close(self, rep: &mut Rep, ops: usize) {
        rep.wall_s = self.start.elapsed().as_secs_f64();
        rep.ops = ops as u64;
        match (
            self.cpu_before,
            procs::cpu_micros(None),
            procs::peak_rss_mb(None),
        ) {
            (Ok(before), Ok(after), Ok(rss)) => {
                rep.cpu_us = after - before;
                rep.peak_rss_mb = rss;
            }
            (a, b, c) => rep
                .failures
                .extend([a.err(), b.err(), c.err()].into_iter().flatten()),
        }
    }
}

fn kind_code(kind: &VerdictKind) -> u64 {
    match kind {
        VerdictKind::Accepted => 1,
        VerdictKind::Rejected => 2,
        VerdictKind::Undecided => 3,
    }
}

fn verdict_of<'a>(verdicts: &'a [Verdict], solver: &str) -> &'a Verdict {
    verdicts
        .iter()
        .find(|v| v.solver == solver)
        .unwrap_or_else(|| panic!("the suite has no {solver} verdict"))
}

/// What the checks and the per-layer rows need from a batch, folded
/// chunk by chunk so the verdicts themselves can be dropped.
#[derive(Default)]
struct BatchFold {
    digest: Option<Fnv>,
    accepted: BTreeMap<&'static str, u64>,
    implication_breaks: Vec<String>,
    implied: u64,
    opt_nodes: u64,
    opt_search_us: u64,
    opt_undecided: u64,
    /// Solver time of each case in µs: cases a heuristic settled (OPT
    /// implied), and cases OPT had to search.
    implied_us: Vec<f64>,
    searched_us: Vec<f64>,
    /// `(case index, OPDCA ordering)` of the first accepted witnesses.
    witnesses: Vec<(usize, Vec<msmr_model::JobId>)>,
    cases: usize,
}

impl BatchFold {
    fn add(&mut self, verdicts: &[Verdict]) {
        let index = self.cases;
        self.cases += 1;
        let digest = self.digest.get_or_insert_with(Fnv::new);
        let mut solver_us = 0;
        for verdict in verdicts {
            digest.write_u64(kind_code(&verdict.kind));
            digest.write_u64(verdict.stats.sdca_calls);
            digest.write_u64(verdict.stats.nodes_explored);
            solver_us += verdict.stats.elapsed_micros;
        }
        for solver in SOLVERS {
            *self.accepted.entry(solver).or_default() +=
                u64::from(verdict_of(verdicts, solver).is_accepted());
        }
        let opt = verdict_of(verdicts, "OPT");
        for weaker in ["DMR", "OPDCA"] {
            if verdict_of(verdicts, weaker).is_accepted() && !opt.is_accepted() {
                self.implication_breaks
                    .push(format!("case {index}: {weaker} accepts but OPT does not"));
            }
        }
        if opt.stats.implied_by.is_some() {
            self.implied += 1;
            self.implied_us.push(solver_us as f64);
        } else {
            self.opt_nodes += opt.stats.nodes_explored;
            self.opt_search_us += opt.stats.elapsed_micros;
            self.searched_us.push(solver_us as f64);
        }
        self.opt_undecided += u64::from(opt.kind == VerdictKind::Undecided);
        if self.witnesses.len() < SIMULATED_WITNESSES {
            let opdca = verdict_of(verdicts, "OPDCA");
            if let Some(order) = opdca.witness.as_ref().and_then(|w| w.as_ordering()) {
                if opdca.is_accepted() {
                    self.witnesses.push((index, order.as_slice().to_vec()));
                }
            }
        }
    }
}

pub struct Fig4Workload {
    pub cases: usize,
    pub threads: usize,
}

impl Fig4Workload {
    fn budget() -> Budget {
        Budget::default().with_node_limit(traffic::FIG4_NODE_LIMIT)
    }

    /// One repetition. Untraced, the timed call is
    /// `SolverRegistry::evaluate_batch`; traced, the same fan-out runs
    /// through `msmr_par::parallel_map` with a span around every case.
    pub fn rep(&self, seed: u64, traced: bool) -> Rep {
        let setup_start = Instant::now();
        let cases = traffic::fig4_cases(seed, self.cases);
        let registry = SolverRegistry::paper_suite(BOUND);
        let budget = Self::budget();
        let _ = registry.evaluate_batch(&cases[..self.cases / 10], budget, self.threads);
        let mut rep = Rep {
            setup_s: setup_start.elapsed().as_secs_f64(),
            ..Rep::default()
        };

        let mut fold = BatchFold::default();
        let window = Window::open();
        if traced {
            let traced_cases = msmr_par::parallel_map(&cases, self.threads, |index, jobs| {
                let start = window.now();
                let ctx = SolveCtx::with_budget(jobs, budget);
                let _ = ctx.analysis();
                let built = window.now();
                let verdicts = registry.evaluate_ctx(&ctx);
                (index, start, built, window.now(), verdicts)
            });
            for (index, start, built, end, verdicts) in traced_cases {
                fold.add(&verdicts);
                push_case_spans(&mut rep.spans, index, start, built, end, &verdicts);
            }
        } else {
            for chunk in cases.chunks(CHUNK) {
                for verdicts in registry.evaluate_batch(chunk, budget, self.threads) {
                    fold.add(&verdicts);
                }
            }
        }
        window.close(&mut rep, cases.len());

        // Attempted: every case, the warm-up ones, and the two output
        // checks below, which run outside the timed window.
        rep.attempted = (cases.len() + self.cases / 10) as u64 + 2;
        rep.failures.append(&mut fold.implication_breaks);
        for (index, order) in &fold.witnesses {
            let jobs = &cases[*index];
            let outcome = Simulator::new(jobs).run(&PriorityMap::from_global_order(jobs, order));
            if !outcome.all_deadlines_met() {
                rep.failures.push(format!(
                    "case {index}: the accepted OPDCA witness misses a deadline in msmr-sim"
                ));
            }
        }
        if fold.witnesses.is_empty() {
            rep.failures
                .push("no OPDCA-accepted case to simulate".to_string());
        }

        rep.digest = fold.digest.map_or(0, Fnv::finish);
        let searched = (fold.cases as u64 - fold.implied).max(1) as f64;
        let layers = &mut rep.layers;
        for solver in SOLVERS {
            let accepted = fold.accepted.get(solver).copied().unwrap_or(0);
            rep.counts.insert(format!("accepted.{solver}"), accepted);
            layers.insert(format!("sched.accepted.{solver}"), accepted as f64);
        }
        rep.counts.insert("opt_implied".into(), fold.implied);
        rep.counts
            .insert("opt_undecided".into(), fold.opt_undecided);
        layers.insert(
            "sched.opt_nodes_per_case".into(),
            fold.opt_nodes as f64 / searched,
        );
        layers.insert(
            "sched.opt_ns_per_node".into(),
            fold.opt_search_us as f64 * 1e3 / fold.opt_nodes.max(1) as f64,
        );
        layers.insert(
            "sched.opt_undecided_share".into(),
            fold.opt_undecided as f64 / fold.cases as f64,
        );
        layers.insert(
            "sched.implied_share".into(),
            fold.implied as f64 / fold.cases as f64,
        );
        rep.op_us = fold.implied_us;
        rep.op2_us = fold.searched_us;
        rep
    }
}

/// `case` (observed) ⊃ `dca.analysis_build` (observed) and one
/// `sched.solve.<solver>` per verdict, laid end to end from the solvers'
/// own elapsed times.
fn push_case_spans(
    spans: &mut Vec<Span>,
    index: usize,
    start: u64,
    built: u64,
    end: u64,
    verdicts: &[Verdict],
) {
    let op = format!("case:{index}");
    let root = spans.len();
    let span = |name: String, start_ns, end_ns, parent, derived| Span {
        name,
        op: op.clone(),
        start_ns,
        end_ns,
        parent,
        derived,
    };
    spans.push(span("case".into(), start, end, None, false));
    spans.push(span(
        "dca.analysis_build".into(),
        start,
        built,
        Some(root),
        false,
    ));
    let mut cursor = built;
    for verdict in verdicts {
        let next = cursor + verdict.stats.elapsed_micros * 1_000;
        spans.push(span(
            format!("sched.solve.{}", verdict.solver),
            cursor,
            next,
            Some(root),
            true,
        ));
        cursor = next;
    }
}

pub struct IlpWorkload {
    pub cases: usize,
}

impl IlpWorkload {
    /// One repetition: for every case, `OPT` then `OPT-ILP` through
    /// `Solver::solve` on one shared context — no implication shortcuts,
    /// so the ILP genuinely runs. Spans are observed in place either way;
    /// `traced` only decides whether they are kept.
    pub fn rep(&self, seed: u64, traced: bool) -> Rep {
        let setup_start = Instant::now();
        let cases = traffic::ilp_cases(seed, self.cases);
        let registry = SolverRegistry::full_suite(BOUND);
        let opt = registry.solver("OPT").expect("OPT is registered");
        let ilp = registry.solver("OPT-ILP").expect("OPT-ILP is registered");
        let budget = Budget::default().with_node_limit(traffic::ILP_NODE_LIMIT);
        for jobs in &cases[..self.cases / 10] {
            let ctx = SolveCtx::with_budget(jobs, budget);
            let _ = (opt.solve(&ctx), ilp.solve(&ctx));
        }
        let mut rep = Rep {
            setup_s: setup_start.elapsed().as_secs_f64(),
            ..Rep::default()
        };

        let mut digest = Fnv::new();
        let (mut agree, mut undecided, mut ilp_undecided, mut ilp_nodes) = (0u64, 0u64, 0u64, 0u64);
        let window = Window::open();
        let now = || window.now();
        for (index, jobs) in cases.iter().enumerate() {
            let start = now();
            let ctx = SolveCtx::with_budget(jobs, budget);
            let _ = ctx.analysis();
            let built = now();
            let by_opt = opt.solve(&ctx);
            let opt_done = now();
            let by_ilp = ilp.solve(&ctx);
            let end = now();
            rep.op_us.push((end - opt_done) as f64 / 1e3);
            rep.op2_us.push((opt_done - built) as f64 / 1e3);
            for verdict in [&by_opt, &by_ilp] {
                digest.write_u64(kind_code(&verdict.kind));
                digest.write_u64(verdict.stats.nodes_explored);
            }
            ilp_nodes += by_ilp.stats.nodes_explored;
            ilp_undecided += u64::from(!by_ilp.is_conclusive());
            if !(by_opt.is_conclusive() && by_ilp.is_conclusive()) {
                undecided += 1;
            } else if by_opt.is_accepted() == by_ilp.is_accepted() {
                agree += 1;
            } else {
                rep.failures.push(format!(
                    "case {index}: OPT says {:?} but OPT-ILP says {:?}",
                    by_opt.kind, by_ilp.kind
                ));
            }
            if traced {
                let op = format!("case:{index}");
                let root = rep.spans.len();
                for (name, start_ns, end_ns, parent) in [
                    ("case", start, end, None),
                    ("dca.analysis_build", start, built, Some(root)),
                    ("sched.solve.OPT", built, opt_done, Some(root)),
                    ("ilp.solve", opt_done, end, Some(root)),
                ] {
                    rep.spans.push(Span {
                        name: name.to_string(),
                        op: op.clone(),
                        start_ns,
                        end_ns,
                        parent,
                        derived: false,
                    });
                }
            }
        }
        window.close(&mut rep, cases.len());
        // Every case, the warm-up ones, and the agreement check.
        rep.attempted = (cases.len() + self.cases / 10) as u64 + 1;

        rep.digest = digest.finish();
        rep.counts.insert("agree".into(), agree);
        rep.counts.insert("undecided".into(), undecided);
        let ilp_ms = sorted(rep.op_us.iter().map(|us| us / 1e3).collect());
        let ilp_total_ns: f64 = rep.op_us.iter().sum::<f64>() * 1e3;
        let cases = cases.len() as f64;
        let layers = &mut rep.layers;
        layers.insert("ilp.solve_ms_p50".into(), nearest_rank(&ilp_ms, 0.50));
        layers.insert("ilp.solve_ms_p95".into(), nearest_rank(&ilp_ms, 0.95));
        layers.insert("ilp.nodes_per_case".into(), ilp_nodes as f64 / cases);
        layers.insert(
            "ilp.ns_per_node".into(),
            ilp_total_ns / ilp_nodes.max(1) as f64,
        );
        layers.insert("ilp.undecided_share".into(), ilp_undecided as f64 / cases);
        rep
    }
}
