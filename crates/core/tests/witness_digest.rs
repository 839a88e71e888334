//! Frozen verdict bytes of every solver at two benchmark shapes.
//!
//! Each seeded case runs DM, DMR, OPDCA, OPT, DCMP and OPT-ILP through
//! `Solver::solve` on one shared context (no registry shortcuts, so OPT
//! and OPT-ILP always search). Every verdict folds its kind, the JSON of
//! its witness, its delays and its `unschedulable` ids into one FNV-1a
//! digest. A seventh column folds the JSON of the DM, DMR and OPDCA
//! admission-control verdicts, whose witnesses the admission loops build.
//! A change to how a witness is stored, built or serialized that moves a
//! single byte of a verdict shows up here as a moved cell.
//!
//! A second table freezes each solver's search work (`nodes_explored`
//! and `sdca_calls`) on the same cases, one cell per solver. It is kept
//! apart so that a change to how much an engine searches, but not to
//! what it decides, moves that table alone.
//!
//! The shapes are a reduced `fig4_batch` hard point (30 jobs, `β = 0.15`,
//! `γ = 0.9`, infrastructure scaled to the job count) and the
//! `ilp_crosscheck` shape (24 jobs, 6 access points, 4 servers,
//! `β = 0.22`), both under the edge hybrid bound (Eq. 10) the benchmark
//! runs.

use msmr_dca::DelayBoundKind;
use msmr_model::JobSet;
use msmr_sched::{Budget, SolveCtx, SolverRegistry, Verdict, VerdictKind};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};
use std::sync::OnceLock;

/// Node budget of both exact engines. Small enough that a debug build
/// settles every case quickly; some OPT and OPT-ILP cells are therefore
/// budget-exhausted `Undecided` verdicts, which are frozen too.
const NODE_LIMIT: u64 = 500;

/// Seeded cases per shape.
const CASES: usize = 12;

/// Columns: the six solvers in registry order (DM, DMR, OPDCA, OPT, DCMP,
/// OPT-ILP), then the admission verdicts.
const COLUMNS: usize = 7;

/// Columns of the work table: the six solvers in registry order.
const SOLVERS: usize = 6;

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

/// Digest of (kind, witness JSON, delays, unschedulable) of one verdict.
fn digest(verdict: &Verdict) -> u64 {
    let mut fnv = Fnv::new();
    fnv.word(match verdict.kind {
        VerdictKind::Accepted => 1,
        VerdictKind::Rejected => 2,
        VerdictKind::Undecided => 3,
    });
    let witness = serde_json::to_string(&verdict.witness).expect("witnesses serialize");
    fnv.bytes(witness.as_bytes());
    match &verdict.delays {
        Some(delays) => {
            fnv.word(delays.len() as u64);
            for delay in delays {
                fnv.word(delay.as_ticks());
            }
        }
        None => fnv.word(u64::MAX),
    }
    fnv.word(verdict.unschedulable.len() as u64);
    for job in &verdict.unschedulable {
        fnv.word(job.index() as u64);
    }
    fnv.0
}

/// Digest of (`nodes_explored`, `sdca_calls`) of one verdict.
fn work_digest(verdict: &Verdict) -> u64 {
    let mut fnv = Fnv::new();
    fnv.word(verdict.stats.nodes_explored);
    fnv.word(verdict.stats.sdca_calls);
    fnv.0
}

/// One verdict row and one work row for `jobs`.
fn row(registry: &SolverRegistry, jobs: &JobSet) -> ([u64; COLUMNS], [u64; SOLVERS]) {
    let ctx = SolveCtx::with_budget(jobs, Budget::default().with_node_limit(NODE_LIMIT));
    let mut row = [0; COLUMNS];
    let mut work = [0; SOLVERS];
    let mut admission = Fnv::new();
    for ((cell, work_cell), name) in row.iter_mut().zip(&mut work).zip(registry.names()) {
        let solver = registry.solver(name).expect("registered");
        let verdict = solver.solve(&ctx);
        *cell = digest(&verdict);
        *work_cell = work_digest(&verdict);
        if let Ok(verdict) = solver.admission_control(&ctx) {
            let json = serde_json::to_string(&verdict).expect("admission verdicts serialize");
            admission.bytes(json.as_bytes());
        }
    }
    row[COLUMNS - 1] = admission.0;
    (row, work)
}

/// The verdict and work tables of one shape.
struct Tables {
    verdicts: Vec<[u64; COLUMNS]>,
    work: Vec<[u64; SOLVERS]>,
}

fn tables(config: EdgeWorkloadConfig) -> Tables {
    let generator = EdgeWorkloadGenerator::new(config).expect("valid edge configuration");
    let registry = SolverRegistry::full_suite(DelayBoundKind::EdgeHybrid);
    let (verdicts, work) = (0..CASES as u64)
        .map(|seed| row(&registry, &generator.generate_seeded(seed)))
        .unzip();
    Tables { verdicts, work }
}

/// Both shapes' tables, solved once for the two tests.
fn shapes() -> &'static (Tables, Tables) {
    static SHAPES: OnceLock<(Tables, Tables)> = OnceLock::new();
    SHAPES.get_or_init(|| {
        let fig4 = tables(
            EdgeWorkloadConfig::scaled(30)
                .with_beta(0.15)
                .with_gamma(0.9),
        );
        let ilp = tables(
            EdgeWorkloadConfig::default()
                .with_jobs(24)
                .with_infrastructure(6, 4)
                .with_beta(0.22),
        );
        (fig4, ilp)
    })
}

/// The reduced `fig4_batch` hard point.
const FIG4_DIGESTS: [[u64; COLUMNS]; CASES] = [
    [
        0x4cdca01b8825d254,
        0x4cdca01b8825d254,
        0xa6883d327c59daaa,
        0x4cdca01b8825d254,
        0xbb58cae0d532d8c9,
        0xee8dc34ae5ba2b21,
        0x8093aa61a724e1a9,
    ],
    [
        0x0408754b0d7f2060,
        0x0408754b0d7f2060,
        0xb5563766788c4a80,
        0x0408754b0d7f2060,
        0xbb58cae0d532d8c9,
        0xa00a103b0cd5fb90,
        0xbad76feeff6ad601,
    ],
    [
        0x78118fe320120450,
        0x51c45715e5f4cd2c,
        0x8567e88e4004df6f,
        0xa6f03f81119d228f,
        0x12e707f51a4f3f42,
        0xa6f03f81119d228f,
        0xfcca4e4ceff95889,
    ],
    [
        0x882910ff4557b606,
        0x4b37cff843cf1089,
        0xbd8b1104b8121a50,
        0x12e707f51a4f3f42,
        0x12e707f51a4f3f42,
        0x12e707f51a4f3f42,
        0x1e81b2d428b0fc3c,
    ],
    [
        0x1d27d04d1d44b98e,
        0x05f257e383ffc4c8,
        0xdde934d8a2eafebe,
        0x2833574ba27c17d8,
        0xbb58cae0d532d8c9,
        0xdf8d2c3bf94eeb17,
        0xa1735b32d1d96805,
    ],
    [
        0x6711c3779ff125e5,
        0x9e21ba231ab146f0,
        0xb62db8615f46c1d1,
        0xe15bd574f4f26e19,
        0xbb58cae0d532d8c9,
        0xa6f03f81119d228f,
        0xb24cba86f7464aea,
    ],
    [
        0x2479ece38840a361,
        0xa6d2ebacfe5ca0dd,
        0xcd80717a2f45d31a,
        0xa608b1c906885674,
        0xbb58cae0d532d8c9,
        0x6571323a662fabd2,
        0xf8bf76aaeb3dfb8a,
    ],
    [
        0x2d414520cf713936,
        0x2d414520cf713936,
        0xcef356d60657594a,
        0x2d414520cf713936,
        0xbb58cae0d532d8c9,
        0x91a41fe377652dfa,
        0x6c1495d6a1e2dbfb,
    ],
    [
        0x160bcd62ed36cf18,
        0x160bcd62ed36cf18,
        0xeb88c381fb5193fa,
        0x160bcd62ed36cf18,
        0x12e707f51a4f3f42,
        0x28104316a2ce0f49,
        0xd07592958cc6c019,
    ],
    [
        0xcea1dd4b3dff8c23,
        0xc9fd010f210eae58,
        0x49b656acb63c954b,
        0xa6f03f81119d228f,
        0xbb58cae0d532d8c9,
        0xa6f03f81119d228f,
        0xe2a9999f3fd256ce,
    ],
    [
        0x9329ebf29d7646c2,
        0x9329ebf29d7646c2,
        0xda7b781e7ac300c7,
        0x9329ebf29d7646c2,
        0xbb58cae0d532d8c9,
        0x41b58272971f3d34,
        0x964c91391dbc55a9,
    ],
    [
        0x2046bf57a021bd34,
        0x16df60becf34156d,
        0xde9308f55cf3e64d,
        0xa6f03f81119d228f,
        0x12e707f51a4f3f42,
        0xa6f03f81119d228f,
        0xe1b6dec89fefe429,
    ],
];

/// The `ilp_crosscheck` shape.
const ILP_DIGESTS: [[u64; COLUMNS]; CASES] = [
    [
        0xa52e43973ec7535a,
        0x81039652b127f5d3,
        0x8f3227d0ba4d0d42,
        0xeeb6a49fe729a297,
        0xbb58cae0d532d8c9,
        0xc1bff36e5efe9e9d,
        0x5f2a3e9440f0cb8b,
    ],
    [
        0x8254bb4f284470af,
        0x8254bb4f284470af,
        0x3952ab4e5aa80e03,
        0x8254bb4f284470af,
        0xbb58cae0d532d8c9,
        0x047ee306f37ba6d5,
        0xd8249a9b60684613,
    ],
    [
        0xb5234318360a55d9,
        0x0d4241e62df07c47,
        0xaab65e81368bf4c9,
        0x12e707f51a4f3f42,
        0xbb58cae0d532d8c9,
        0x12e707f51a4f3f42,
        0x4915aa52330f67ef,
    ],
    [
        0x047a219c2c91dcf9,
        0xfceeb276dce51e57,
        0xfceeb276dce51e57,
        0x12e707f51a4f3f42,
        0x12e707f51a4f3f42,
        0x12e707f51a4f3f42,
        0x972997fb7ca27b0e,
    ],
    [
        0x222688d554dee250,
        0xee477add23013226,
        0x09711fb68231e3be,
        0x12e707f51a4f3f42,
        0xbb58cae0d532d8c9,
        0x12e707f51a4f3f42,
        0x350a5feb27f037a6,
    ],
    [
        0x85a765981201945c,
        0x371d7a4fe25d6773,
        0xe2e896fb7f8f0282,
        0xc51eebbf4b4b39cf,
        0x12e707f51a4f3f42,
        0x801d947f1f5f6ed0,
        0x71ead7b57a74a5f2,
    ],
    [
        0x1c65b3eadb703e16,
        0x4b37cff843cf1089,
        0x4b37cff843cf1089,
        0x12e707f51a4f3f42,
        0x12e707f51a4f3f42,
        0x12e707f51a4f3f42,
        0xa984fa5f1dcadef6,
    ],
    [
        0x628cdb75f4a0ef70,
        0x628cdb75f4a0ef70,
        0xe20f218376ad8223,
        0x628cdb75f4a0ef70,
        0xbb58cae0d532d8c9,
        0xe108795398a11d36,
        0x6acb90ab43574a6d,
    ],
    [
        0xcebda82f5c5230e9,
        0xa8282513649ceeec,
        0xa8282513649ceeec,
        0x12e707f51a4f3f42,
        0xbb58cae0d532d8c9,
        0x12e707f51a4f3f42,
        0xcaf9647111b456a7,
    ],
    [
        0x08859a3b214d1f01,
        0xb0c1a7e192526271,
        0x185937f2f10718ed,
        0xa6f03f81119d228f,
        0xbb58cae0d532d8c9,
        0x301d30b797462f48,
        0x226c6134c9e42658,
    ],
    [
        0x4e877597e69b89d3,
        0x5ffafb6681433722,
        0xe6f64fe026814e68,
        0xd5071718af6f5d02,
        0xbb58cae0d532d8c9,
        0x57be691da9ece8b3,
        0xb41961cef1b163de,
    ],
    [
        0xd03b9935232607c1,
        0xd03b9935232607c1,
        0x6955066e5bf9f5e3,
        0xd03b9935232607c1,
        0x12e707f51a4f3f42,
        0x9f8352451fa486e0,
        0x58769bc4bba1edaf,
    ],
];

/// `nodes_explored` and `sdca_calls` at the reduced `fig4_batch` point.
const FIG4_WORK: [[u64; SOLVERS]; CASES] = [
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0xf597f3b81e182a7b,
        0x54dd1a13fce1b548,
        0x88201fb960ff6465,
        0x1455b49b2621949c,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x0f8db34063911f5f,
        0x7dcfb28c82755f0f,
        0x88201fb960ff6465,
        0xdd485f8bf4d38fbd,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x78f187f9037533d6,
        0x88201fb960ff6465,
        0x78f187f9037533d6,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0xb112b831e6930e2c,
        0x88201fb960ff6465,
        0x392209f14dea4c24,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x29b7623cf4499e06,
        0x41d75b6c3620fe0b,
        0x88201fb960ff6465,
        0x927d6463db8f9aa7,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x561c420d629a6c3a,
        0x88201fb960ff6465,
        0x78f187f9037533d6,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0xbac725dceb48eff4,
        0xdcec6bd36438f340,
        0x88201fb960ff6465,
        0x504e0bbb7275f5a0,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x5254595ef3a67f1b,
        0xa3db2fdc0ff6cd89,
        0x88201fb960ff6465,
        0xf48138d3b5656a25,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x3bb74981dc7c6db5,
        0x2ed19cc46f6046ce,
        0x88201fb960ff6465,
        0xa71e3ebd98a3a553,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x93a2971c37d3f6db,
        0x78f187f9037533d6,
        0x88201fb960ff6465,
        0x78f187f9037533d6,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x17b77af80c16ce57,
        0xf5c060cd1b1e2117,
        0x88201fb960ff6465,
        0x504e0bbb7275f5a0,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x78f187f9037533d6,
        0x88201fb960ff6465,
        0x78f187f9037533d6,
    ],
];

/// `nodes_explored` and `sdca_calls` at the `ilp_crosscheck` shape.
const ILP_WORK: [[u64; SOLVERS]; CASES] = [
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x0abc9b33e95a53e5,
        0x08c61f74e1ded854,
        0x88201fb960ff6465,
        0x5b07441e7da0c85f,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x145ecb4cddc7ead9,
        0x607986b7dd2aa27c,
        0x88201fb960ff6465,
        0xe8e4cc2fd51c7cf1,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0xc41876d9ad53c569,
        0x88201fb960ff6465,
        0x392209f14dea4c24,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0xea23f4293ad533e3,
        0x88201fb960ff6465,
        0x392209f14dea4c24,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0xc6ff9202a56600b6,
        0x88201fb960ff6465,
        0x392209f14dea4c24,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x62a7e8ce44b1dd0b,
        0x117b70efca158a3b,
        0x88201fb960ff6465,
        0x12c77066cbd47219,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x261c4b49872994e7,
        0x88201fb960ff6465,
        0x392209f14dea4c24,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x4d834152796fb3a1,
        0x24812f9790d64178,
        0x88201fb960ff6465,
        0x86e0f7bffb46ad73,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x4c27c89914ab0361,
        0x88201fb960ff6465,
        0x392209f14dea4c24,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x7978e81fa71b7834,
        0x78f187f9037533d6,
        0x88201fb960ff6465,
        0x3a6131eab3a30316,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0xa09d76e05a90714d,
        0xaf779c7ff03fbabd,
        0x88201fb960ff6465,
        0xf4186d9d88c49cbc,
    ],
    [
        0x88201fb960ff6465,
        0x88201fb960ff6465,
        0x160b232274ef5c98,
        0xb6e0ee83d6b784c6,
        0x88201fb960ff6465,
        0xd2f7f25f16498a67,
    ],
];

#[test]
fn every_solver_matches_the_frozen_verdict_digests() {
    let (fig4, ilp) = shapes();
    assert_eq!(
        (fig4.verdicts.as_slice(), ilp.verdicts.as_slice()),
        (&FIG4_DIGESTS[..], &ILP_DIGESTS[..]),
        "a verdict moved: {:#018x?} {:#018x?}",
        fig4.verdicts,
        ilp.verdicts
    );
}

#[test]
fn every_solver_matches_the_frozen_work_digests() {
    let (fig4, ilp) = shapes();
    assert_eq!(
        (fig4.work.as_slice(), ilp.work.as_slice()),
        (&FIG4_WORK[..], &ILP_WORK[..]),
        "a solver's search work moved: {:#018x?} {:#018x?}",
        fig4.work,
        ilp.work
    );
}
