//! `msmr-benchmark` — the repository's end-to-end and per-layer
//! benchmark. See `benchmark/README.md`; `benchmark/run.sh` builds the
//! release binaries and runs this one.
//!
//! ```text
//! msmr-benchmark run [--workload NAME] [--seed S] [--seconds N]
//!                    [--trace [0|1]] [--quick] [--out PATH] [--pin]
//! msmr-benchmark compare PARENT.json CHANGE.json
//! msmr-benchmark rep WORKLOAD SEED QUICK [TRACE_PATH]    (internal)
//! ```

mod compare;
mod layers;
mod metrics;
mod offline;
mod procs;
mod results;
mod socket;
mod stats;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::{Deserialize, Serialize};

use metrics::{Rep, WorkloadDef, END_TO_END, PER_LAYER, WORKLOADS};
use offline::{Fig4Workload, IlpWorkload};
use results::{LayerValue, Results, WorkloadResult};
use socket::{LiveRun, SocketWorkload};
use stats::{median, nearest_rank, sorted, Summary};
use trace::json_string;
use traffic::SplitMix;

/// The seed whose digests and outcome counts `pins.json` records.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per workload; `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
/// Everything a run writes lands here (ignored by git).
const OUT_DIR: &str = "benchmark/out";
const PINS_PATH: &str = "benchmark/pins.json";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    pin: bool,
}

fn usage() -> &'static str {
    "usage: benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--out PATH] [--pin]\n       benchmark/run.sh compare PARENT.json CHANGE.json\n\n  --workload NAME  one of admit_direct, admit_routed, evaluate_direct, fig4_batch,\n                   ilp_crosscheck (default: all five, repetitions interleaved);\n                   with a name, the last line of stdout is the result as one JSON object\n  --seed S         seed of every generated input (default 1, whose digests are pinned)\n  --seconds N      measured seconds per workload (default 12)\n  --trace [0|1]    also run traced repetitions: per-layer rows and out/trace.<workload>.json\n  --quick          one repetition at a quarter of the op counts (smoke use)\n  --out PATH       results file (default benchmark/out/results.json)\n  --pin            record this run's digests and counts in benchmark/pins.json"
}

fn parse_run_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        pin: false,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                options.workload = Some(name);
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed value")?
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("invalid --seconds value")?;
            }
            "--trace" => {
                options.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => options.quick = true,
            "--out" => options.out = Some(PathBuf::from(value("--out")?)),
            "--pin" => options.pin = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(options)
}

/// The frozen size of one repetition: the same on every commit, about a
/// second of measured work at the commit that defined it.
enum Plan {
    Socket(SocketWorkload),
    Fig4(Fig4Workload),
    Ilp(IlpWorkload),
}

fn plan(name: &str, quick: bool) -> Plan {
    let scale = if quick { 4 } else { 1 };
    let socket = |routed, evaluate, ops: usize| {
        Plan::Socket(SocketWorkload {
            routed,
            evaluate,
            ops_per_client: ops / scale,
        })
    };
    match name {
        "admit_direct" => socket(false, false, 2_000),
        "admit_routed" => socket(true, false, 2_000),
        "evaluate_direct" => socket(false, true, 1_000),
        "fig4_batch" => Plan::Fig4(Fig4Workload {
            cases: 2_000 / scale,
            threads: msmr_par::default_threads(),
        }),
        "ilp_crosscheck" => Plan::Ilp(IlpWorkload { cases: 200 / scale }),
        other => unreachable!("workload names are validated: {other}"),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RepKind {
    /// The only repetitions end-to-end metrics come from.
    Untraced,
    Traced,
    /// `admit_routed` only: the same traffic straight into the daemon,
    /// so that routed − direct isolates the hop inside one run.
    Direct,
}

struct Runner {
    def: &'static WorkloadDef,
    plan: Plan,
    seed: u64,
    quick: bool,
    /// Repetitions run so far, by [`RepKind`].
    reps: [Vec<Rep>; 3],
    /// Digest of the first socket repetition; every later one (the
    /// direct twin of a routed run too) must reproduce it.
    reference: Option<u64>,
    /// The last traced socket run, kept for the per-layer re-enactment.
    traced_live: Option<LiveRun>,
}

impl Runner {
    fn reps(&self, kind: RepKind) -> &[Rep] {
        &self.reps[kind as usize]
    }

    fn measured_s(&self, kind: RepKind) -> f64 {
        self.reps(kind).iter().map(|r| r.wall_s).sum()
    }

    fn step(&mut self, kind: RepKind) -> Result<(), String> {
        let index = self.reps(kind).len() as u64;
        // Offline repetitions each draw their own cases, so the value
        // over repetitions also averages over inputs (a handful of
        // node-limit cases decides a batch's time); repetition 0 is the
        // one whose outcome is pinned.
        let rep_seed =
            SplitMix::new(self.seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64();
        let traced = kind == RepKind::Traced;
        let rep: Rep = match &self.plan {
            Plan::Socket(workload) => {
                let workload = SocketWorkload {
                    routed: workload.routed && kind != RepKind::Direct,
                    ..*workload
                };
                // Decider-only repetitions share one input set and its
                // digest; evaluate ones draw their own and are each
                // replayed in full.
                let (seed, reference) = if workload.evaluate {
                    (rep_seed, None)
                } else {
                    (self.seed, self.reference)
                };
                let live = socket::run_live(workload, seed, traced, &scratch_dir())?;
                let rep = socket::checked_rep(workload, &live, reference);
                self.reference.get_or_insert(rep.digest);
                if traced {
                    self.traced_live = Some(live);
                }
                rep
            }
            Plan::Fig4(_) | Plan::Ilp(_) => {
                let mut args = vec![
                    "rep".to_string(),
                    self.def.name.to_string(),
                    rep_seed.to_string(),
                    self.quick.to_string(),
                ];
                if traced {
                    args.push(trace_path(self.def.name).to_string_lossy().into_owned());
                }
                let printed = procs::run_self(&args)?;
                serde_json::from_str(printed.trim())
                    .map_err(|e| format!("repetition result: {e}"))?
            }
        };
        self.reps[kind as usize].push(rep);
        Ok(())
    }
}

fn scratch_dir() -> PathBuf {
    Path::new(OUT_DIR).join("tmp")
}

fn trace_path(workload: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace.{workload}.json"))
}

fn write_trace(
    workload: &str,
    spans: &[trace::Span],
    counts: &BTreeMap<String, u64>,
) -> Result<(), String> {
    let path = trace_path(workload);
    let mut counts = counts.clone();
    counts.insert("spans".into(), spans.len() as u64);
    trace::write_chrome_trace(&path, workload, spans, &counts)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Median over repetitions of one per-repetition value.
fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Digest and outcome counts of the default seed, per workload.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Pins {
    seed: u64,
    workloads: BTreeMap<String, Pin>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pin {
    digest: String,
    counts: BTreeMap<String, u64>,
}

fn load_pins() -> Result<Pins, String> {
    let text = std::fs::read_to_string(PINS_PATH).map_err(|e| format!("{PINS_PATH}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{PINS_PATH}: {e}"))
}

/// Turns a runner's repetitions into the workload's result, filling the
/// rows only a traced run can give.
fn finish(
    runner: &mut Runner,
    options: &Options,
    pins: Option<&Pins>,
) -> Result<WorkloadResult, String> {
    let name = runner.def.name;
    let [untraced, traced, direct] = &runner.reps;
    let first = untraced.first().ok_or("no repetition ran")?;
    let (digest, counts) = (format!("{:016x}", first.digest), first.counts.clone());
    let samples = first.op_us.len().min(first.op2_us.len()) as u64;

    let mut attempted = 0;
    let mut failures = Vec::new();
    for rep in runner.reps.iter().flatten() {
        attempted += rep.attempted;
        failures.extend(rep.failures.iter().cloned());
    }
    if let Some(pin) = pins.and_then(|p| p.workloads.get(name)) {
        attempted += 1;
        if (pin.digest.as_str(), &pin.counts) != (digest.as_str(), &counts) {
            failures.push(format!(
                "seed {DEFAULT_SEED} must give digest {} and counts {:?} ({PINS_PATH}), got {digest} and {counts:?}",
                pin.digest, pin.counts
            ));
        }
    }

    let per_rep: Vec<[f64; 8]> = untraced.iter().map(Rep::end_to_end).collect();
    let mut end_to_end = BTreeMap::new();
    for (i, def) in END_TO_END.iter().enumerate() {
        let runs = per_rep.iter().map(|values| values[i]).collect();
        end_to_end.insert(
            def.name.to_string(),
            Summary::of(def.unit, def.better, runs),
        );
    }
    let e2e = |metric: &str| end_to_end[metric].value;

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let own: Vec<&Rep> = untraced.iter().chain(traced).collect();
    for key in own.iter().flat_map(|rep| rep.layers.keys()) {
        if !layers.contains_key(key) {
            let values: Vec<f64> = own
                .iter()
                .filter_map(|rep| rep.layers.get(key).copied())
                .collect();
            layers.insert(key.clone(), median(&values));
        }
    }

    if options.trace && !traced.is_empty() {
        let rate = |reps: &[Rep]| median_of(reps, |r| r.ops as f64 / r.wall_s);
        layers.insert(
            "trace.overhead_share".into(),
            1.0 - rate(traced) / rate(untraced),
        );
        match &runner.plan {
            Plan::Socket(workload) => {
                let live = runner
                    .traced_live
                    .take()
                    .ok_or("the traced run was not kept")?;
                let found = layers::socket_layers(*workload, &live, &scratch_dir())?;
                layers.extend(found.rows);
                write_trace(name, &found.spans, &counts)?;
                let p99 = |pick: fn(&Rep) -> &Vec<f64>| {
                    median_of(untraced, |rep| {
                        nearest_rank(&sorted(pick(rep).clone()), 0.99)
                    })
                };
                layers.insert("client.admit_p99_us".into(), p99(|rep| &rep.op_us));
                layers.insert("client.withdraw_p99_us".into(), p99(|rep| &rep.op2_us));
                // By construction: the in-process stages plus this row
                // are the admit round trip the clients saw.
                layers.insert(
                    "client.unattributed_p50_us".into(),
                    e2e("op_p50_us") - found.attributed_admit_ns / 1e3,
                );
                if workload.routed && !direct.is_empty() {
                    for (row, metric, index) in [
                        ("router.hop_p50_us", "op_p50_us", 2),
                        ("router.hop_p90_us", "op_p90_us", 3),
                    ] {
                        let direct = Summary::of(
                            "us",
                            stats::Better::Lower,
                            direct.iter().map(|rep| rep.end_to_end()[index]).collect(),
                        );
                        layers.insert(row.into(), e2e(metric) - direct.value);
                    }
                }
            }
            // Offline repetitions wrote their spans themselves.
            Plan::Fig4(workload) => {
                layers.extend(layers::fig4_layers(runner.seed, workload.threads))
            }
            Plan::Ilp(_) => {
                layers.insert(
                    "workload.generate_ns_per_case".into(),
                    layers::generate_ns_per_case(runner.seed),
                );
            }
        }
        println!("{name}: wrote {}", trace_path(name).display());
    }

    let per_layer = PER_LAYER
        .iter()
        .filter_map(|(row, unit, _)| {
            layers.get(*row).map(|&value| {
                (
                    row.to_string(),
                    LayerValue {
                        unit: unit.to_string(),
                        value,
                    },
                )
            })
        })
        .collect();
    let failed = failures.len() as u64;
    Ok(WorkloadResult {
        correct: failed == 0,
        attempted,
        failed,
        failed_share: failed as f64 / attempted.max(1) as f64,
        repetitions: untraced.len() as u64,
        latency_samples_per_repetition: samples,
        digest,
        counts,
        failures,
        end_to_end,
        per_layer,
    })
}

fn print_workload(def: &WorkloadDef, result: &WorkloadResult) {
    println!("\n== {} — {} ==", def.name, def.why);
    println!(
        "  {} repetitions, at least {} latency samples each; op = {}, op2 = {}",
        result.repetitions, result.latency_samples_per_repetition, def.op, def.op2
    );
    println!(
        "  {:<34} {:>14} {:<6} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "end-to-end (good-side quartile)", "value", "unit", "q1", "median", "q3", "spread", "bound"
    );
    for def in &END_TO_END {
        let s = &result.end_to_end[def.name];
        println!(
            "  {:<34} {:>14.4} {:<6} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}%",
            def.name,
            s.value,
            s.unit,
            s.q1,
            s.median,
            s.q3,
            s.spread() * 100.0,
            def.bound * 100.0
        );
    }
    println!(
        "  {:<34} {:>14.6} {:<6} ({} failed of {} attempted; must stay 0)",
        "failed_share", result.failed_share, "ratio", result.failed, result.attempted
    );
    println!("  digest {}  counts {:?}", result.digest, result.counts);
    println!("  per-layer (rows of layers this workload never touches are absent)");
    for (row, unit, _) in &PER_LAYER {
        if let Some(layer) = result.per_layer.get(*row) {
            println!("  {:<34} {:>14.4} {}", row, layer.value, unit);
        }
    }
    for failure in result.failures.iter().take(20) {
        println!("  FAILED: {failure}");
    }
}

/// The driver's contract: one JSON object with exactly these keys, every
/// end-to-end metric untraced and every per-layer metric traced. A layer
/// the workload never touches reads 0 there (the contract wants every
/// name on every workload); the tables and files above leave it out.
fn contract_line(result: &WorkloadResult, trace: bool) -> String {
    let metric = |name: &str, unit: &str, value: f64| {
        format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        )
    };
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|(row, unit, _)| {
                metric(
                    row,
                    unit,
                    result.per_layer.get(*row).map_or(0.0, |l| l.value),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|def| metric(def.name, def.unit, result.end_to_end[def.name].value))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One offline repetition in this (fresh) process, printed as JSON for the
/// parent run.
fn offline_rep(args: &[String]) -> Result<bool, String> {
    let (name, seed, quick, traced) = match args {
        [name, seed, quick] => (name, seed, quick, false),
        [name, seed, quick, _trace_path] => (name, seed, quick, true),
        _ => return Err("rep takes WORKLOAD SEED QUICK [TRACE_PATH]".to_string()),
    };
    let seed: u64 = seed.parse().map_err(|_| "invalid seed")?;
    let quick: bool = quick.parse().map_err(|_| "invalid quick flag")?;
    let mut rep = match plan(name, quick) {
        Plan::Fig4(workload) => workload.rep(seed, traced),
        Plan::Ilp(workload) => workload.rep(seed, traced),
        Plan::Socket(_) => return Err(format!("`{name}` is not an offline workload")),
    };
    if traced {
        // The spans stay in this process: it writes the trace file and
        // hands the parent only the rows filled from them.
        write_trace(name, &rep.spans, &rep.counts)?;
        let by_name = trace::self_time_by_name(&rep.spans);
        for (row, span) in [
            ("dca.analysis_build_ns", "dca.analysis_build"),
            ("sched.solve_ns.OPT", "sched.solve.OPT"),
        ] {
            if let (Plan::Ilp(_), Some((mean, _))) = (plan(name, quick), by_name.get(span)) {
                rep.layers.insert(row.into(), *mean);
            }
        }
        rep.spans.clear();
    }
    println!(
        "{}",
        serde_json::to_string(&rep).map_err(|e| e.to_string())?
    );
    Ok(true)
}

/// `Ok(true)` when every output check of every workload passed.
fn run(options: &Options) -> Result<bool, String> {
    procs::install_signal_handlers();
    procs::refuse_if_product_running()?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let _ = std::fs::remove_dir_all(scratch_dir());

    let mut runners: Vec<Runner> = WORKLOADS
        .iter()
        .filter(|def| {
            options
                .workload
                .as_deref()
                .is_none_or(|name| name == def.name)
        })
        .map(|def| Runner {
            def,
            plan: plan(def.name, options.quick),
            seed: options.seed,
            quick: options.quick,
            reps: Default::default(),
            reference: None,
            traced_live: None,
        })
        .collect();

    // Repetitions are interleaved round-robin across workloads, so slow
    // drift of the machine lands on all of them alike. End-to-end metrics
    // come from the untraced phase only.
    let budget = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    for kind in [RepKind::Untraced, RepKind::Traced] {
        if kind == RepKind::Traced && !options.trace {
            break;
        }
        loop {
            let mut progressed = false;
            for runner in &mut runners {
                let started = !runner.reps(kind).is_empty();
                if started && (options.quick || runner.measured_s(kind) >= budget) {
                    continue;
                }
                if kind == RepKind::Traced && matches!(runner.plan, Plan::Socket(w) if w.routed) {
                    runner
                        .step(RepKind::Direct)
                        .map_err(|e| format!("{}: {e}", runner.def.name))?;
                }
                runner
                    .step(kind)
                    .map_err(|e| format!("{}: {e}", runner.def.name))?;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    let pinned = options.seed == DEFAULT_SEED && !options.quick;
    let pins = if pinned && !options.pin {
        Some(load_pins()?)
    } else {
        None
    };
    let mut results = Results {
        schema: results::SCHEMA.to_string(),
        git_sha: git_sha(),
        nproc: msmr_par::default_threads() as u64,
        loadavg: procs::loadavg(),
        seed: options.seed,
        seconds: options.seconds,
        quick: options.quick,
        traced: options.trace,
        claim: None,
        workloads: BTreeMap::new(),
    };
    for runner in &mut runners {
        let result = finish(runner, options, pins.as_ref())
            .map_err(|e| format!("{}: {e}", runner.def.name))?;
        print_workload(runner.def, &result);
        results
            .workloads
            .insert(runner.def.name.to_string(), result);
    }
    let _ = std::fs::remove_dir_all(scratch_dir());

    if options.pin {
        if !pinned {
            return Err(format!(
                "--pin needs the default seed {DEFAULT_SEED} and full-size repetitions"
            ));
        }
        let mut pins = load_pins().unwrap_or_default();
        pins.seed = DEFAULT_SEED;
        for (name, result) in &results.workloads {
            pins.workloads.insert(
                name.clone(),
                Pin {
                    digest: result.digest.clone(),
                    counts: result.counts.clone(),
                },
            );
        }
        let text = serde_json::to_string(&pins).map_err(|e| e.to_string())?;
        std::fs::write(PINS_PATH, text + "\n").map_err(|e| format!("{PINS_PATH}: {e}"))?;
        println!(
            "\npinned {} workload(s) in {PINS_PATH}",
            results.workloads.len()
        );
    }

    let out = options
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    let text = serde_json::to_string(&results).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "\nresults ({} at seed {}, nproc {}, loadavg {}) written to {}",
        results.git_sha,
        results.seed,
        results.nproc,
        results.loadavg,
        out.display()
    );

    if let Some(name) = &options.workload {
        println!("{}", contract_line(&results.workloads[name], options.trace));
    }
    Ok(results.workloads.values().all(|w| w.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [parent, change] => compare::compare(parent, change),
            _ => Err(format!("compare takes two results files\n\n{}", usage())),
        },
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some("rep") => offline_rep(&args[1..]),
        Some("run") => parse_run_options(&args[1..]).and_then(|options| run(&options)),
        _ => parse_run_options(&args).and_then(|options| run(&options)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("msmr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
