//! Differential corpus for the simulation engine.
//!
//! The golden digests below were frozen from the time-stepped loop this
//! engine replaced (PR 12), over a seeded corpus of paper-scale edge
//! cases and small random systems that exercise every scheduling rule:
//! non-preemptive and mixed-policy pipelines, zero-demand stages,
//! simultaneous arrivals, equal priorities (the tie goes to the lower
//! id) and single-resource stages. Each digest is the FNV-1a hash of
//! every `(completions, stage_completions)` table of its family; the
//! engine must reproduce it on the recording path (`Simulator::run`) and
//! on the trace-free path (`Simulator::completions`).

use msmr_model::{JobBuilder, JobId, JobSet, JobSetBuilder, PreemptionPolicy, Time};
use msmr_sim::{PriorityMap, Simulator};
use msmr_workload::{
    EdgeWorkloadConfig, EdgeWorkloadGenerator, RandomMsmrConfig, RandomMsmrGenerator,
};

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

/// A cheap deterministic mixer for the corpus' own pseudo-random choices.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(c.wrapping_mul(0x94d0_49bb_1331_11eb));
    x ^= x >> 31;
    x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
    x ^ (x >> 29)
}

/// Rebuilds `jobs` with a per-stage policy and per-(job, stage) demand of
/// the corpus' choosing; arrivals are kept unless `synchronous`.
fn reshape(
    jobs: &JobSet,
    policy: impl Fn(usize) -> PreemptionPolicy,
    demand: impl Fn(usize, usize, Time) -> Time,
    synchronous: bool,
) -> JobSet {
    let mut builder = JobSetBuilder::new();
    for (stage_id, stage) in jobs.pipeline().stages() {
        builder.stage(
            stage.name(),
            stage.resource_count(),
            policy(stage_id.index()),
        );
    }
    for job in jobs.jobs() {
        let arrival = if synchronous {
            Time::ZERO
        } else {
            job.arrival()
        };
        let mut entry = JobBuilder::new().arrival(arrival).deadline(job.deadline());
        for stage in jobs.pipeline().stage_ids() {
            entry = entry.stage_time(
                demand(job.id().index(), stage.index(), job.processing(stage)),
                job.resource(stage),
            );
        }
        builder.push_job(entry).expect("reshaped job is valid");
    }
    builder.build().expect("reshaped job set is valid")
}

fn alternating(stage: usize) -> PreemptionPolicy {
    if stage.is_multiple_of(2) {
        PreemptionPolicy::NonPreemptive
    } else {
        PreemptionPolicy::Preemptive
    }
}

/// Zeroes about a third of the demands; stage `job % N` is kept so that
/// every job retains some work.
fn with_zero_demands(jobs: &JobSet, seed: u64, synchronous: bool) -> JobSet {
    let n_stages = jobs.stage_count();
    reshape(
        jobs,
        alternating,
        |job, stage, p| {
            if stage != job % n_stages && mix(seed, job as u64, stage as u64).is_multiple_of(3) {
                Time::ZERO
            } else {
                p
            }
        },
        synchronous,
    )
}

/// The three priority schemes every corpus case runs under.
fn priority_schemes(jobs: &JobSet, seed: u64) -> [PriorityMap; 3] {
    // Deadline-monotonic global order.
    let mut order: Vec<JobId> = jobs.job_ids().collect();
    order.sort_by_key(|&id| (jobs.job(id).deadline(), id.index()));
    // Per-stage values proportional to the stage's share of the job's
    // demand (the shape of DCMP's virtual deadlines).
    let proportional = jobs
        .pipeline()
        .stage_ids()
        .map(|stage| {
            jobs.jobs()
                .map(|job| {
                    job.deadline().as_ticks() * job.processing(stage).as_ticks()
                        / job.total_processing().as_ticks()
                })
                .collect()
        })
        .collect();
    // Two priority bands per stage: nearly every decision is a tie.
    let coarse = jobs
        .pipeline()
        .stage_ids()
        .map(|stage| {
            jobs.job_ids()
                .map(|id| mix(seed, stage.index() as u64, id.index() as u64) % 2)
                .collect()
        })
        .collect();
    [
        PriorityMap::from_global_order(jobs, &order),
        PriorityMap::from_values(jobs, proportional),
        PriorityMap::from_values(jobs, coarse),
    ]
}

/// Simulates one case under the three schemes on both sinks, checks the
/// trace contract and folds the completion tables into `digest`. Returns
/// the largest slice count seen.
fn fold_case(digest: &mut Fnv, jobs: &JobSet, seed: u64) -> usize {
    let mut max_slices = 0;
    for priorities in priority_schemes(jobs, seed) {
        let simulator = Simulator::new(jobs);
        let outcome = simulator.run(&priorities);
        let table = simulator.completions(&priorities);
        digest.write(jobs.len() as u64);
        for id in jobs.job_ids() {
            assert_eq!(table.completion(id), outcome.completion(id));
            digest.write(outcome.completion(id).as_ticks());
            for stage in jobs.pipeline().stage_ids() {
                assert_eq!(
                    table.stage_completion(id, stage),
                    outcome.stage_completion(id, stage)
                );
                digest.write(outcome.stage_completion(id, stage).as_ticks());
            }
        }
        // Maximal slices: one per stage execution plus one per preemption
        // (a slice that ends before its stage completes).
        let preemptions = outcome
            .trace()
            .iter()
            .filter(|s| s.end < outcome.stage_completion(s.job, s.stage))
            .count();
        let slices = outcome.trace().len();
        assert!(
            slices <= jobs.len() * jobs.stage_count() + preemptions,
            "{slices} slices for {} stage executions and {preemptions} preemptions",
            jobs.len() * jobs.stage_count()
        );
        max_slices = max_slices.max(slices);
    }
    max_slices
}

fn random_generator(config: RandomMsmrConfig) -> RandomMsmrGenerator {
    RandomMsmrGenerator::new(config).expect("valid generator configuration")
}

fn random_config(preemption: PreemptionPolicy) -> RandomMsmrConfig {
    RandomMsmrConfig {
        stages: (1, 5),
        resources_per_stage: (1, 3),
        jobs: (2, 12),
        processing: (1, 15),
        arrivals: (0, 12),
        deadline_factor: (1.0, 5.0),
        preemption,
    }
}

const RANDOM_SEEDS: u64 = 200;

fn random_family(shape: impl Fn(u64) -> JobSet) -> u64 {
    let mut digest = Fnv::new();
    for seed in 0..RANDOM_SEEDS {
        fold_case(&mut digest, &shape(seed), seed);
    }
    digest.0
}

#[test]
fn random_preemptive_sets_match_the_frozen_digest() {
    let generator = random_generator(random_config(PreemptionPolicy::Preemptive));
    assert_eq!(
        random_family(|seed| generator.generate_seeded(seed)),
        0xe482_ea5a_d49a_0cf1
    );
}

#[test]
fn random_non_preemptive_sets_match_the_frozen_digest() {
    let generator = random_generator(random_config(PreemptionPolicy::NonPreemptive));
    assert_eq!(
        random_family(|seed| generator.generate_seeded(seed)),
        0xbc9a_ec9d_7e5e_d9a3
    );
}

#[test]
fn random_mixed_policy_sets_match_the_frozen_digest() {
    let generator = random_generator(random_config(PreemptionPolicy::Preemptive));
    assert_eq!(
        random_family(|seed| reshape(
            &generator.generate_seeded(seed),
            alternating,
            |_, _, p| p,
            false
        )),
        0xaead_2cdb_9a8d_5aba
    );
}

#[test]
fn random_zero_demand_sets_match_the_frozen_digest() {
    let generator = random_generator(random_config(PreemptionPolicy::Preemptive));
    assert_eq!(
        random_family(|seed| with_zero_demands(&generator.generate_seeded(seed), seed, false)),
        0x02b3_a851_fc53_3ede
    );
}

#[test]
fn random_simultaneous_arrival_sets_match_the_frozen_digest() {
    let generator = random_generator(random_config(PreemptionPolicy::Preemptive));
    assert_eq!(
        random_family(|seed| with_zero_demands(&generator.generate_seeded(seed), seed, true)),
        0xe79d_48b5_e70f_d2d1
    );
}

#[test]
fn random_single_resource_sets_match_the_frozen_digest() {
    let generator = random_generator(RandomMsmrConfig {
        resources_per_stage: (1, 1),
        ..random_config(PreemptionPolicy::Preemptive)
    });
    assert_eq!(
        random_family(|seed| with_zero_demands(&generator.generate_seeded(seed), seed, false)),
        0xaca5_7df8_c206_7bff
    );
}

/// The four hard Fig. 4 points, `(β, γ)`.
const FIG4_POINTS: [(f64, f64); 4] = [(0.15, 0.7), (0.20, 0.7), (0.15, 0.8), (0.15, 0.9)];
const EDGE_SEEDS: u64 = 8;

/// One digest per Fig. 4 point over `EDGE_SEEDS` generated cases of `n`
/// jobs, plus the largest slice count any of them recorded.
fn edge_digests(n: usize, access_points: usize, servers: usize) -> ([u64; 4], usize) {
    let mut max_slices = 0;
    let digests = FIG4_POINTS.map(|(beta, gamma)| {
        let generator = EdgeWorkloadGenerator::new(
            EdgeWorkloadConfig::default()
                .with_jobs(n)
                .with_beta(beta)
                .with_gamma(gamma)
                .with_infrastructure(access_points, servers),
        )
        .expect("valid generator configuration");
        let mut digest = Fnv::new();
        for seed in 1..=EDGE_SEEDS {
            let slices = fold_case(&mut digest, &generator.generate_seeded(seed), seed);
            max_slices = max_slices.max(slices);
        }
        digest.0
    });
    (digests, max_slices)
}

#[test]
fn edge_cases_of_24_jobs_match_the_frozen_digests() {
    let (digests, _) = edge_digests(24, 6, 4);
    assert_eq!(
        digests,
        [
            0x68f2_2d36_b8c8_36fe,
            0xe0f3_4e94_3994_fe70,
            0xacda_56d0_1a34_12b3,
            0x8c19_c33b_8827_ddb2,
        ]
    );
}

#[test]
fn edge_cases_of_64_jobs_match_the_frozen_digests() {
    let (digests, max_slices) = edge_digests(64, 25, 20);
    assert_eq!(
        digests,
        [
            0x2d8f_dd08_f684_61b3,
            0xbccc_50ea_6541_046d,
            0x42ca_d04f_36a7_cca6,
            0xcb5d_75c2_4f0d_7548,
        ]
    );
    // The time-stepped loop recorded up to 5 157 slices on these cases. A
    // maximal trace has one slice per stage execution (64 · 3) plus one
    // per preemption, and only an arrival at the one preemptive stage can
    // preempt (at most 64).
    assert!(max_slices <= 256, "{max_slices} slices on a 64-job case");
}

#[test]
fn edge_cases_of_100_jobs_match_the_frozen_digests() {
    let (digests, _) = edge_digests(100, 25, 20);
    assert_eq!(
        digests,
        [
            0x2a2f_2f28_6a58_a34a,
            0xc43a_2808_d9b8_40e2,
            0xff5c_b84f_e2b8_555d,
            0x2122_4cdc_fa79_e55a,
        ]
    );
}
