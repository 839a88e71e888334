//! Frozen search of OPT-ILP at the `ilp_crosscheck` shape.
//!
//! `PairwiseIlp` runs through `Solver::solve` on seeded 24-job edge cases
//! (6 access points, 4 servers, `β = 0.22`, a 500-node budget) and on the
//! Observation V.1 system. Each case folds its verdict kind, the
//! branch-and-bound node count and the witness pairs into one FNV-1a
//! digest. The digests were recorded with the full-sweep propagator that
//! preceded the worklist one, so any change to propagation order that
//! altered a fixpoint (and with it first-fail branching, the node count or
//! the witness) shows up here as a moved row.

use msmr_dca::DelayBoundKind;
use msmr_model::{JobSet, JobSetBuilder, PreemptionPolicy, Time};
use msmr_sched::{Budget, PairwiseIlp, SolveCtx, Solver, Verdict, VerdictKind, Witness};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

/// Node budget of the `ilp_crosscheck` benchmark workload.
const NODE_LIMIT: u64 = 500;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of (kind, nodes explored, witness pairs) of one verdict.
fn digest(verdict: &Verdict) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write(match verdict.kind {
        VerdictKind::Accepted => 1,
        VerdictKind::Rejected => 2,
        VerdictKind::Undecided => 3,
    });
    fnv.write(verdict.stats.nodes_explored);
    match &verdict.witness {
        Some(Witness::Pairwise(assignment)) => {
            for (higher, lower) in assignment.iter() {
                fnv.write(higher.index() as u64);
                fnv.write(lower.index() as u64);
            }
        }
        Some(Witness::Ordering(_)) => panic!("OPT-ILP reports pairwise witnesses"),
        None => fnv.write(u64::MAX),
    }
    fnv.0
}

fn solve(jobs: &JobSet, bound: DelayBoundKind) -> Verdict {
    let ctx = SolveCtx::with_budget(jobs, Budget::default().with_node_limit(NODE_LIMIT));
    PairwiseIlp::new(bound).solve(&ctx)
}

/// The Observation V.1 system: Example 1 processing times, the Figure 2(a)
/// mapping onto two resources per stage, deadlines {60, 55, 55, 50}.
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

/// Per-seed digests of the edge cases under the edge hybrid bound (Eq. 10),
/// the bound `ilp_crosscheck` runs. The corpus holds accepted dives of
/// ~250–310 nodes, root-infeasible rejections (the repeated
/// `0xe1318b941230b9fe`) and two budget-exhausted cases (seeds 29 and 32).
const EDGE_DIGESTS: [u64; 40] = [
    0x51f1db7fdb54fd51,
    0x80cf69527741e9fa,
    0xe1318b941230b9fe,
    0xe1318b941230b9fe,
    0xe1318b941230b9fe,
    0x17934f1411ae9f7b,
    0xe1318b941230b9fe,
    0x24f0196cc34d490d,
    0xe1318b941230b9fe,
    0x82057d9c5bf8b13d,
    0xd6d46f4fac2f93c2,
    0x3da20d037460f0b6,
    0xadeebddc0d69417d,
    0x00d381ce4e22615a,
    0x4500ae91ff138fdc,
    0xbbecd75bc90ed7c1,
    0xe1318b941230b9fe,
    0x2fd45c1c9fbac2c1,
    0x70aa2d6f5911911c,
    0xfe28ffffe1667464,
    0x6531eacb344d01d1,
    0x10b864a06cb24ac1,
    0xae1ee0b4dae39d80,
    0x26d9a6d9969ea78f,
    0xe1318b941230b9fe,
    0xa02a95fa4d0f800e,
    0x661022918e62d8b9,
    0xc8d517177362b9c3,
    0xf6059176ce8d16aa,
    0xee3b7db1ccccec45,
    0xe03d4e30aef8f2c6,
    0x849eae96d0a73ee2,
    0xee3b7db1ccccec45,
    0xe1318b941230b9fe,
    0xbdc82b0be18ab332,
    0x36c247f07c4558e3,
    0xd0bb87dee1dc66f2,
    0xd357d8a853866b64,
    0xcdde493031445e71,
    0x4c5d17bdaa4aeb2f,
];

/// Observation V.1 under Eq. 6 and under Eq. 10.
const OBSERVATION_V1_DIGESTS: [u64; 2] = [0xa51fe91566343c87, 0xf61f1f8bc344697c];

#[test]
fn ilp_search_matches_the_frozen_digests() {
    let generator = EdgeWorkloadGenerator::new(
        EdgeWorkloadConfig::default()
            .with_jobs(24)
            .with_infrastructure(6, 4)
            .with_beta(0.22),
    )
    .expect("valid edge configuration");
    let edge: Vec<u64> = (0..EDGE_DIGESTS.len() as u64)
        .map(|seed| {
            digest(&solve(
                &generator.generate_seeded(seed),
                DelayBoundKind::EdgeHybrid,
            ))
        })
        .collect();
    let v1 = observation_v1();
    let observation: Vec<u64> = [
        DelayBoundKind::RefinedPreemptive,
        DelayBoundKind::EdgeHybrid,
    ]
    .into_iter()
    .map(|bound| digest(&solve(&v1, bound)))
    .collect();
    assert_eq!(
        (edge.as_slice(), observation.as_slice()),
        (&EDGE_DIGESTS[..], &OBSERVATION_V1_DIGESTS[..]),
        "OPT-ILP's search moved: {edge:#018x?} {observation:#018x?}"
    );
}
