//! Serde round-trip tests for the unified report types: `Verdict`,
//! `SolverStats`, `Witness`, `AdmissionVerdict` and `UnsupportedMode`
//! survive a JSON round trip byte-exactly at the value level, both for
//! hand-built reports and for real solver output.

use msmr_dca::DelayBoundKind;
use msmr_model::{JobId, JobSetBuilder, PreemptionPolicy, Time};
use msmr_sched::{
    AdmissionVerdict, Budget, Dm, PairwiseAssignment, PriorityOrdering, SolveCtx, Solver,
    SolverRegistry, SolverStats, UnsupportedMode, Verdict, VerdictKind, Witness,
};

fn sample_verdict() -> Verdict {
    let mut assignment = PairwiseAssignment::new();
    assignment.set_higher(JobId::new(0), JobId::new(1));
    assignment.set_higher(JobId::new(2), JobId::new(1));
    Verdict {
        solver: "OPT".to_string(),
        kind: VerdictKind::Accepted,
        witness: Some(Witness::Pairwise(assignment)),
        delays: Some(vec![Time::new(10), Time::new(25), Time::new(7)]),
        unschedulable: Vec::new(),
        stats: SolverStats {
            sdca_calls: 12,
            nodes_explored: 345,
            elapsed_micros: 6789,
            implied_by: None,
            cold_fallback: Some(true),
        },
    }
}

#[test]
fn verdict_round_trips_through_json() {
    let verdict = sample_verdict();
    let json = serde_json::to_string(&verdict).expect("serializable");
    assert!(json.contains("\"cold_fallback\":true"));
    let back: Verdict = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, verdict);
}

#[test]
fn rejected_and_implied_verdicts_round_trip() {
    let rejected = Verdict {
        solver: "DMR".to_string(),
        kind: VerdictKind::Rejected,
        witness: None,
        delays: None,
        unschedulable: vec![JobId::new(3), JobId::new(1)],
        stats: SolverStats::default(),
    };
    let json = serde_json::to_string(&rejected).expect("serializable");
    let back: Verdict = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, rejected);

    let implied = Verdict {
        stats: SolverStats {
            implied_by: Some("OPDCA".to_string()),
            ..SolverStats::default()
        },
        ..Verdict::new("OPT", VerdictKind::Accepted)
    };
    let json = serde_json::to_string(&implied).expect("serializable");
    let back: Verdict = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back.stats.implied_by.as_deref(), Some("OPDCA"));
}

#[test]
fn ordering_witness_round_trips_and_rejects_duplicates() {
    let witness = Witness::Ordering(PriorityOrdering::new(vec![
        JobId::new(2),
        JobId::new(0),
        JobId::new(1),
    ]));
    let json = serde_json::to_string(&witness).expect("serializable");
    let back: Witness = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, witness);

    // A corrupted ordering with a duplicate job must be rejected, not
    // panic.
    let bad = "{\"Ordering\":[0,0]}";
    assert!(serde_json::from_str::<Witness>(bad).is_err());
    // Same for a self-relation in a pairwise witness.
    let bad = "{\"Pairwise\":[[1,1]]}";
    assert!(serde_json::from_str::<Witness>(bad).is_err());
    // And for a duplicated (here: contradictory) pair, which would
    // otherwise be silently resolved last-write-wins.
    let bad = "{\"Pairwise\":[[0,1],[1,0]]}";
    assert!(serde_json::from_str::<Witness>(bad).is_err());
}

#[test]
fn malformed_pairwise_witnesses_are_serde_errors_not_panics() {
    let error = |json: &str| {
        serde_json::from_str::<PairwiseAssignment>(json)
            .expect_err(json)
            .to_string()
    };
    assert!(error("[[1,1]]").contains("cannot outrank itself"));
    assert!(error("[[0,1],[0,1]]").contains("appears twice"));
    assert!(error("[[2,0],[1,3],[0,2]]").contains("appears twice"));
    // The matrix holding id `usize::MAX` needs `usize::MAX + 1` rows, and
    // the one holding 2^32 needs more than `usize::MAX` cells.
    assert!(error(&format!("[[{},0]]", usize::MAX)).contains("too large"));
    assert!(error("[[0,1],[4294967296,2]]").contains("too large"));
    // Sparse ids are fine: the decoded witness is sized from the largest.
    let sparse: PairwiseAssignment = serde_json::from_str("[[0,300],[7,1]]").unwrap();
    assert!(sparse.is_higher(JobId::new(0), JobId::new(300)));
    assert!(!sparse.is_decided(JobId::new(0), JobId::new(1)));
    assert_eq!(serde_json::to_string(&sparse).unwrap(), "[[0,300],[7,1]]");
}

#[test]
fn solver_stats_defaults_round_trip() {
    let stats = SolverStats::default();
    let json = serde_json::to_string(&stats).expect("serializable");
    assert!(json.contains("\"implied_by\":null"));
    let back: SolverStats = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, stats);
}

#[test]
fn stats_from_daemons_predating_the_online_seam_still_parse() {
    // Verdict frames written before `cold_fallback` existed carry no such
    // key; newer readers must parse it as `None` instead of erroring
    // (the protocol's missing-optional-field rule).
    let legacy = r#"{"sdca_calls":3,"nodes_explored":0,"elapsed_micros":42,"implied_by":null}"#;
    let back: SolverStats = serde_json::from_str(legacy).expect("legacy stats parse");
    assert_eq!(back.cold_fallback, None);
    assert_eq!(back.sdca_calls, 3);
}

#[test]
fn admission_verdict_and_unsupported_mode_round_trip() {
    let verdict = AdmissionVerdict {
        solver: "OPDCA".to_string(),
        accepted: vec![JobId::new(0), JobId::new(2)],
        rejected: vec![JobId::new(1)],
        witness: Some(Witness::Ordering(PriorityOrdering::new(vec![
            JobId::new(0),
            JobId::new(2),
        ]))),
    };
    let json = serde_json::to_string(&verdict).expect("serializable");
    let back: AdmissionVerdict = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, verdict);

    let err = UnsupportedMode::new("DCMP", "admission control");
    let json = serde_json::to_string(&err).expect("serializable");
    let back: UnsupportedMode = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, err);
}

#[test]
fn real_registry_output_round_trips() {
    let mut b = JobSetBuilder::new();
    b.stage("cpu", 2, PreemptionPolicy::Preemptive).stage(
        "net",
        1,
        PreemptionPolicy::NonPreemptive,
    );
    for i in 0..4u64 {
        b.job()
            .deadline(Time::new(120))
            .stage_time(Time::new(6), (i % 2) as usize)
            .stage_time(Time::new(4), 0)
            .add()
            .unwrap();
    }
    let jobs = b.build().unwrap();
    let registry = SolverRegistry::paper_suite(DelayBoundKind::RefinedPreemptive);
    let verdicts = registry.evaluate(&jobs, Budget::default());
    let json = serde_json::to_string(&verdicts).expect("serializable");
    let back: Vec<Verdict> = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, verdicts);

    // Admission reports serialize too.
    let ctx = SolveCtx::new(&jobs);
    let admission = Solver::admission_control(&Dm::new(DelayBoundKind::RefinedPreemptive), &ctx)
        .expect("DM supports admission");
    let json = serde_json::to_string(&admission).expect("serializable");
    let back: AdmissionVerdict = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, admission);
}
