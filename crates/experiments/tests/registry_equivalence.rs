//! Equivalence of the registry-based `evaluate_all` with the legacy
//! hand-wired evaluation loop, on a fixed-seed corpus of generated job
//! sets: outcomes must be byte-identical (checked on the serialized
//! reports) for every case. The hand-wired loop calls each engine
//! directly through `Solver::solve` on one shared context — no registry,
//! no declarative shortcuts.

use msmr_experiments::{evaluate_all, Approach, EVALUATION_BOUND};
use msmr_model::JobSet;
use msmr_sched::{Budget, Dcmp, Dm, Dmr, Opdca, OptPairwise, SolveCtx, Solver, VerdictKind};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

const OPT_NODE_LIMIT: u64 = 50_000;

/// The seed repository's hand-wired evaluation loop, kept verbatim as the
/// oracle for the registry-based reimplementation.
fn legacy_evaluate_all(jobs: &JobSet, opt_node_limit: u64) -> Vec<(Approach, VerdictKind)> {
    let ctx = SolveCtx::with_budget(jobs, Budget::default().with_node_limit(opt_node_limit));

    let dm_ok = Dm::new(EVALUATION_BOUND).solve(&ctx).is_accepted();
    let dmr_ok = Dmr::new(EVALUATION_BOUND).solve(&ctx).is_accepted();
    let opdca_ok = Opdca::new(EVALUATION_BOUND).solve(&ctx).is_accepted();
    let opt = if dmr_ok || opdca_ok {
        VerdictKind::Accepted
    } else {
        OptPairwise::new(EVALUATION_BOUND).solve(&ctx).kind
    };
    let dcmp_ok = Dcmp::new().evaluate(jobs).accepted;

    let to_outcome = |ok: bool| {
        if ok {
            VerdictKind::Accepted
        } else {
            VerdictKind::Rejected
        }
    };
    vec![
        (Approach::Dm, to_outcome(dm_ok)),
        (Approach::Dmr, to_outcome(dmr_ok)),
        (Approach::Opdca, to_outcome(opdca_ok)),
        (Approach::Opt, opt),
        (Approach::Dcmp, to_outcome(dcmp_ok)),
    ]
}

/// Four workload configurations spanning the evaluation's parameter space.
fn configs() -> Vec<EdgeWorkloadConfig> {
    let base = EdgeWorkloadConfig::default()
        .with_jobs(12)
        .with_infrastructure(4, 3);
    vec![
        base.clone().with_beta(0.10),
        base.clone().with_beta(0.20),
        base.clone().with_heavy_ratios([0.10, 0.10, 0.01]),
        base.with_gamma(0.9),
    ]
}

#[test]
fn registry_evaluation_is_byte_identical_to_the_legacy_loop() {
    let mut corpus_size = 0usize;
    let mut accepted_total = 0usize;
    let mut rejected_total = 0usize;
    for (config_index, config) in configs().iter().enumerate() {
        let generator = EdgeWorkloadGenerator::new(config.clone()).expect("valid configuration");
        for seed in 0..55u64 {
            let jobs = generator.generate_seeded(seed);
            let legacy = legacy_evaluate_all(&jobs, OPT_NODE_LIMIT);
            let unified = evaluate_all(&jobs, OPT_NODE_LIMIT);
            assert_eq!(
                unified, legacy,
                "config {config_index}, seed {seed}: outcomes diverge"
            );
            // Byte-identical on the wire, too.
            let legacy_json = serde_json::to_string(&legacy).expect("serializable");
            let unified_json = serde_json::to_string(&unified).expect("serializable");
            assert_eq!(unified_json, legacy_json);
            corpus_size += 1;
            for (_, outcome) in &unified {
                if *outcome == VerdictKind::Accepted {
                    accepted_total += 1;
                } else {
                    rejected_total += 1;
                }
            }
        }
    }
    assert!(
        corpus_size >= 200,
        "corpus too small to be meaningful: {corpus_size}"
    );
    // The corpus must actually exercise both verdict directions, otherwise
    // the equivalence statement is vacuous.
    assert!(accepted_total > 0, "corpus produced no acceptances");
    assert!(rejected_total > 0, "corpus produced no rejections");
}
