//! The names the benchmark is judged by: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics — and the result of
//! one repetition they are computed from. `BENCHMARK.json` at the root of
//! the repository lists the same names (a unit test keeps them equal).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::stats::{nearest_rank, sorted, Better};
use crate::trace::Span;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// What `op_*` and `op2_*` time on this workload.
    pub op: &'static str,
    pub op2: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "admit_direct",
        why: "decider-only admit/withdraw churn into one daemon: codec, pool, session lock and sockets dominate, solvers do little",
        op: "admit round trip",
        op2: "withdraw round trip",
    },
    WorkloadDef {
        name: "admit_routed",
        why: "byte-identical traffic through msmr-router to one backend: adds only the router hop and a second request parse",
        op: "admit round trip",
        op2: "withdraw round trip",
    },
    WorkloadDef {
        name: "evaluate_direct",
        why: "same traffic with evaluate=true: five solver verdicts per op, so the online suite and large Verdict frames dominate",
        op: "admit round trip",
        op2: "withdraw round trip",
    },
    WorkloadDef {
        name: "fig4_batch",
        why: "offline paper-suite batch over 100-job cases at the four hard Fig. 4 points: Analysis, OPT search and msmr-par only, no sockets",
        op: "solver time of a case a heuristic settled (OPT implied)",
        op2: "solver time of a case OPT had to search",
    },
    WorkloadDef {
        name: "ilp_crosscheck",
        why: "offline single-thread OPT vs OPT-ILP on 24-job cases: msmr-ilp does nearly all the work here and none elsewhere",
        op: "OPT-ILP solve of one case",
        op2: "OPT solve of one case",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change is rejected.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// Every timing carries the widest bound the contract allows: two sets
/// of runs of one build on the 2-core box this was sized on differ by up
/// to a tenth on these (see the README's A/A table), and a bound has to
/// sit well above what identical code does to itself.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_sec", "1/s", Better::Higher, 0.25),
    e2e("op_p50_us", "us", Better::Lower, 0.25),
    e2e("op_p90_us", "us", Better::Lower, 0.25),
    e2e("op2_p50_us", "us", Better::Lower, 0.25),
    e2e("op2_p90_us", "us", Better::Lower, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

pub const SOLVERS: [&str; 5] = ["DM", "DMR", "OPDCA", "OPT", "DCMP"];

/// Per-layer metrics as `(name, unit, better)`; a layer is a crate.
pub const PER_LAYER: [(&str, &str, Better); 64] = {
    use Better::{Higher, Lower};
    [
        ("serve.encode_request_ns", "ns", Lower),
        ("serve.decode_request_ns", "ns", Lower),
        ("serve.request_bytes", "bytes", Lower),
        ("serve.encode_admit_frame_ns", "ns", Lower),
        ("serve.encode_verdict_frame_ns", "ns", Lower),
        ("serve.decode_verdict_frame_ns", "ns", Lower),
        ("serve.response_bytes_per_op", "bytes", Lower),
        ("serve.frames_per_op", "count", Lower),
        ("serve.decode_submit_request_ns", "ns", Lower),
        ("serve.session_submit_ns", "ns", Lower),
        ("serve.session_admit_ns", "ns", Lower),
        ("serve.session_reject_ns", "ns", Lower),
        ("serve.session_withdraw_ns", "ns", Lower),
        ("serve.session_admit_evaluate_ns", "ns", Lower),
        ("model.with_job_ns", "ns", Lower),
        ("dca.table_extend_ns", "ns", Lower),
        ("dca.table_remove_ns", "ns", Lower),
        ("dca.analysis_build_ns", "ns", Lower),
        ("dca.delay_probe_ns", "ns", Lower),
        ("sched.solve_ns.DM", "ns", Lower),
        ("sched.solve_ns.DMR", "ns", Lower),
        ("sched.solve_ns.OPDCA", "ns", Lower),
        ("sched.solve_ns.OPT", "ns", Lower),
        ("sched.solve_ns.DCMP", "ns", Lower),
        ("sched.server_solve_us_per_op.DM", "us", Lower),
        ("sched.server_solve_us_per_op.DMR", "us", Lower),
        ("sched.server_solve_us_per_op.OPDCA", "us", Lower),
        ("sched.server_solve_us_per_op.OPT", "us", Lower),
        ("sched.server_solve_us_per_op.DCMP", "us", Lower),
        ("sched.sdca_calls_per_op", "count", Lower),
        ("sched.warm_decide_share", "ratio", Higher),
        ("sched.opt_nodes_per_case", "count", Lower),
        ("sched.opt_ns_per_node", "ns", Lower),
        ("sched.opt_undecided_share", "ratio", Lower),
        ("sched.implied_share", "ratio", Higher),
        ("sched.accepted.DM", "count", Higher),
        ("sched.accepted.DMR", "count", Higher),
        ("sched.accepted.OPDCA", "count", Higher),
        ("sched.accepted.OPT", "count", Higher),
        ("sched.accepted.DCMP", "count", Higher),
        ("ilp.solve_ms_p50", "ms", Lower),
        ("ilp.solve_ms_p95", "ms", Lower),
        ("ilp.nodes_per_case", "count", Lower),
        ("ilp.ns_per_node", "ns", Lower),
        ("ilp.undecided_share", "ratio", Lower),
        ("par.batch_speedup", "ratio", Higher),
        ("par.pool_handoff_ns", "ns", Lower),
        ("cluster.shared_admit_ns", "ns", Lower),
        ("cluster.session_overhead_ns", "ns", Lower),
        ("cluster.store_attach_ns", "ns", Lower),
        ("cluster.snapshot_save_ms", "ms", Lower),
        ("cluster.snapshot_load_ms", "ms", Lower),
        ("cluster.overload_retries", "count", Lower),
        ("cluster.cpu_us_per_op", "us", Lower),
        ("router.hop_p50_us", "us", Lower),
        ("router.hop_p90_us", "us", Lower),
        ("router.cpu_us_per_op", "us", Lower),
        ("router.place_ns", "ns", Lower),
        ("stats.admit_overhead_ns", "ns", Lower),
        ("workload.generate_ns_per_case", "ns", Lower),
        ("client.admit_p99_us", "us", Lower),
        ("client.withdraw_p99_us", "us", Lower),
        ("client.unattributed_p50_us", "us", Lower),
        ("trace.overhead_share", "ratio", Lower),
    ]
};

/// Running mean of one timed call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    sum: f64,
    count: u64,
}

impl Mean {
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    pub fn get(self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// What one repetition measured. Latency samples cover the measured
/// window only (the warm-up prefix is already trimmed).
#[derive(Default, Serialize, Deserialize)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Operations completed inside the measured window.
    pub ops: u64,
    pub op_us: Vec<f64>,
    pub op2_us: Vec<f64>,
    /// CPU time the system under test burned inside the window.
    pub cpu_us: f64,
    pub peak_rss_mb: f64,
    /// Everything attempted, warm-up and output checks included.
    pub attempted: u64,
    /// One line per error, refusal after retries or failed output check.
    pub failures: Vec<String>,
    /// FNV digest of the normalised verdict stream.
    pub digest: u64,
    /// Outcome counts that must repeat exactly for one seed.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer values observed in this repetition.
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

impl Rep {
    /// The end-to-end metric values of this repetition, in the order of
    /// [`END_TO_END`].
    pub fn end_to_end(&self) -> [f64; 8] {
        let op = sorted(self.op_us.clone());
        let op2 = sorted(self.op2_us.clone());
        let ops = self.ops.max(1) as f64;
        [
            self.setup_s,
            ops / self.wall_s.max(1e-9),
            nearest_rank(&op, 0.50),
            nearest_rank(&op, 0.90),
            nearest_rank(&op2, 0.50),
            nearest_rank(&op2, 0.90),
            self.cpu_us / ops,
            self.peak_rss_mb,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            let Some(serde::Value::Seq(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            items
                .iter()
                .map(|item| match item.get("name") {
                    Some(serde::Value::Str(name)) => name.clone(),
                    _ => panic!("`{key}` entry without a name"),
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0));
        let Some(serde::Value::Seq(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                item.get("bound"),
                Some(&serde::Value::Float(def.bound)),
                "{}",
                def.name
            );
            assert_eq!(
                item.get("unit"),
                Some(&serde::Value::Str(def.unit.to_string()))
            );
        }
    }

    #[test]
    fn a_repetition_reports_rates_and_nearest_rank_latencies() {
        let rep = Rep {
            setup_s: 0.5,
            wall_s: 2.0,
            ops: 10,
            op_us: (1..=10).rev().map(f64::from).collect(),
            op2_us: vec![7.0],
            cpu_us: 50.0,
            peak_rss_mb: 3.0,
            ..Rep::default()
        };
        assert_eq!(rep.end_to_end(), [0.5, 5.0, 5.0, 9.0, 7.0, 7.0, 5.0, 3.0]);
    }
}
