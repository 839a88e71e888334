//! Edge-computing workload generator (§VI-A of the paper).

use msmr_model::{
    HeavinessProfile, JobBuilder, JobSet, JobSetBuilder, PreemptionPolicy, ResourceId, ResourceRef,
    StageId, Time,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::WorkloadError;

/// Configuration of the edge-computing workload generator.
///
/// The defaults reproduce the paper's simulation setup: 25 access points,
/// 20 servers, 100 jobs; offloading, processing and downloading times in
/// `[2, 200]`, `[50, 500]` and `[2, 100]` milliseconds respectively;
/// heaviness threshold `β = 0.15`, per-stage heavy ratios
/// `[h1, h2, h3] = [0.05, 0.05, 0.01]` and taskset heaviness bound
/// `γ = 0.7`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeWorkloadConfig {
    /// Number of access points (used for both uplink and downlink stages).
    pub access_points: usize,
    /// Number of edge servers.
    pub servers: usize,
    /// Number of jobs per generated test case.
    pub jobs: usize,
    /// Admissible offloading (uplink) times in milliseconds.
    pub offload_range: (u64, u64),
    /// Admissible processing times in milliseconds.
    pub processing_range: (u64, u64),
    /// Admissible downloading (downlink) times in milliseconds.
    pub download_range: (u64, u64),
    /// End-to-end deadline range in milliseconds.
    pub deadline_range: (u64, u64),
    /// Heaviness threshold `β`: a job is *heavy* at a stage when its
    /// heaviness there is at least `β`; per-job heaviness is capped at
    /// `2β`.
    pub beta: f64,
    /// Fraction of jobs that are heavy at each stage, `[h1, h2, h3]`.
    pub heavy_ratios: [f64; 3],
    /// Taskset heaviness bound `γ`: the generator keeps the heaviness of
    /// every resource at or below this value.
    pub gamma: f64,
    /// How many alternative resource placements are tried before the
    /// generator shrinks a job to respect `γ`.
    pub placement_retries: usize,
}

impl Default for EdgeWorkloadConfig {
    fn default() -> Self {
        EdgeWorkloadConfig {
            access_points: 25,
            servers: 20,
            jobs: 100,
            offload_range: (2, 200),
            processing_range: (50, 500),
            download_range: (2, 100),
            deadline_range: (800, 3_600),
            beta: 0.15,
            heavy_ratios: [0.05, 0.05, 0.01],
            gamma: 0.7,
            placement_retries: 16,
        }
    }
}

impl EdgeWorkloadConfig {
    /// Sets the number of jobs.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the heaviness threshold `β`.
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the per-stage heavy ratios `[h1, h2, h3]`.
    #[must_use]
    pub fn with_heavy_ratios(mut self, ratios: [f64; 3]) -> Self {
        self.heavy_ratios = ratios;
        self
    }

    /// Sets the taskset heaviness bound `γ`.
    #[must_use]
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the number of access points and servers.
    #[must_use]
    pub fn with_infrastructure(mut self, access_points: usize, servers: usize) -> Self {
        self.access_points = access_points;
        self.servers = servers;
        self
    }

    /// The default configuration at `jobs` jobs, with the infrastructure
    /// scaled to match: `jobs / 4` access points and `jobs / 5` servers,
    /// clamped to the paper's 25 and 20 and to at least 2 each. The one
    /// recipe behind every generated replay trace (the clients, the chaos
    /// scenarios) and the kernel benches' reduced cases.
    #[must_use]
    pub fn scaled(jobs: usize) -> Self {
        EdgeWorkloadConfig::default()
            .with_jobs(jobs)
            .with_infrastructure((jobs / 4).clamp(2, 25), (jobs / 5).clamp(2, 20))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] describing the first inconsistent
    /// parameter.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.access_points == 0 {
            return Err(WorkloadError::ZeroCount {
                parameter: "access_points",
            });
        }
        if self.servers == 0 {
            return Err(WorkloadError::ZeroCount {
                parameter: "servers",
            });
        }
        if self.jobs == 0 {
            return Err(WorkloadError::ZeroCount { parameter: "jobs" });
        }
        for (name, range) in [
            ("offload_range", self.offload_range),
            ("processing_range", self.processing_range),
            ("download_range", self.download_range),
            ("deadline_range", self.deadline_range),
        ] {
            if range.0 > range.1 || range.0 == 0 {
                return Err(WorkloadError::InvalidRange {
                    parameter: name,
                    min: range.0,
                    max: range.1,
                });
            }
        }
        if !(self.beta > 0.0 && self.beta <= 0.5) {
            return Err(WorkloadError::InvalidBeta { value: self.beta });
        }
        if self.gamma <= 0.0 {
            return Err(WorkloadError::InvalidGamma { value: self.gamma });
        }
        for (idx, &ratio) in self.heavy_ratios.iter().enumerate() {
            if !(0.0..=1.0).contains(&ratio) {
                let parameter = match idx {
                    0 => "h1",
                    1 => "h2",
                    _ => "h3",
                };
                return Err(WorkloadError::InvalidRatio {
                    parameter,
                    value: ratio,
                });
            }
        }
        Ok(())
    }

    fn stage_range(&self, stage: usize) -> (u64, u64) {
        match stage {
            0 => self.offload_range,
            1 => self.processing_range,
            _ => self.download_range,
        }
    }
}

/// Generator of edge-computing test cases (Fig. 3 of the paper).
///
/// Each generated [`JobSet`] uses the three-stage pipeline
/// *uplink → server → downlink*, with non-preemptive access-point stages
/// and a preemptive server stage, and obeys the heaviness parameters of the
/// configuration. All jobs arrive at time zero, matching the periodic
/// batch-scheduling assumption of §VI-A (`H^a_i = ∅`).
///
/// Generation procedure (documented in `DESIGN.md`):
///
/// 1. For every stage, `⌊h_j · n⌉` jobs are marked *heavy* at that stage.
/// 2. Every job draws a target heaviness per stage — uniform in
///    `[β, 1.8β]` when heavy, uniform in `[0.1β, β)` (scaled down further
///    for the network stages) otherwise, so raising `β` also raises the
///    processing times of non-heavy jobs as described in §VI-B — and then
///    an end-to-end deadline uniform over `deadline_range`, capped so that
///    the heavy-stage targets remain achievable within the published
///    per-stage time ranges.
/// 3. The per-stage processing time is `heaviness × deadline`, clamped to
///    the published per-stage range.
/// 4. The job picks a server and an access point (the same AP serves its
///    uplink and downlink). Placements that would push a resource's
///    heaviness above `γ` are re-drawn; if no placement fits after
///    `placement_retries` attempts, the job lands on the least-loaded
///    resource and its processing time there is shrunk to respect `γ`.
#[derive(Debug, Clone)]
pub struct EdgeWorkloadGenerator {
    config: EdgeWorkloadConfig,
}

impl EdgeWorkloadGenerator {
    /// Creates a generator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if the configuration is inconsistent.
    pub fn new(config: EdgeWorkloadConfig) -> Result<Self, WorkloadError> {
        config.validate()?;
        Ok(EdgeWorkloadGenerator { config })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EdgeWorkloadConfig {
        &self.config
    }

    /// Generates one test case from an explicit random-number generator.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> JobSet {
        let cfg = &self.config;
        let n = cfg.jobs;

        // 1. Decide which jobs are heavy at which stage.
        let mut heavy = [vec![false; n], vec![false; n], vec![false; n]];
        for (stage, flags) in heavy.iter_mut().enumerate() {
            let count = ((cfg.heavy_ratios[stage] * n as f64).round() as usize).min(n);
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(rng);
            for &id in ids.iter().take(count) {
                flags[id] = true;
            }
        }

        // Running per-resource heaviness, used to enforce `γ`.
        let mut uplink_load = vec![0.0f64; cfg.access_points];
        let mut server_load = vec![0.0f64; cfg.servers];
        let mut downlink_load = vec![0.0f64; cfg.access_points];

        let mut builder = JobSetBuilder::new();
        builder
            .stage("uplink", cfg.access_points, PreemptionPolicy::NonPreemptive)
            .stage("server", cfg.servers, PreemptionPolicy::Preemptive)
            .stage(
                "downlink",
                cfg.access_points,
                PreemptionPolicy::NonPreemptive,
            );

        #[allow(clippy::needless_range_loop)] // `job_idx` indexes the per-stage heavy flags
        for job_idx in 0..n {
            // 2. Target heaviness per stage, then a deadline compatible
            //    with the *heavy* targets and the published per-stage time
            //    ranges (a heavy uplink job, for instance, cannot keep a
            //    very large deadline because its offload time is capped at
            //    200 ms; light stages simply get clamped and become
            //    lighter). Light targets are scaled per stage so that
            //    network stages remain lighter than the compute stage, in
            //    line with the published time ranges.
            // The taskset heaviness bound γ plays the role of a total-load
            // knob in the evaluation (§VI-A sweeps it like a utilisation
            // bound), so the light-job load level scales with γ,
            // normalised at the default γ = 0.7; the hard per-resource cap
            // below additionally guarantees H ≤ γ.
            let light_scale = [0.55, 1.0, 0.35];
            let gamma_scale = (cfg.gamma / 0.7).powi(2);
            let targets: [f64; 3] = std::array::from_fn(|stage| {
                if heavy[stage][job_idx] {
                    rng.gen_range(cfg.beta..=1.8 * cfg.beta)
                } else {
                    (light_scale[stage] * gamma_scale * rng.gen_range(0.1 * cfg.beta..cfg.beta))
                        .min(2.0 * cfg.beta)
                }
            });
            let mut deadline_hi = cfg.deadline_range.1;
            for stage in 0..3 {
                if heavy[stage][job_idx] {
                    let cap = (cfg.stage_range(stage).1 as f64 / targets[stage]).floor() as u64;
                    deadline_hi = deadline_hi.min(cap.max(1));
                }
            }
            let deadline_lo = cfg.deadline_range.0.min(deadline_hi);
            let deadline = rng.gen_range(deadline_lo..=deadline_hi);

            let mut heaviness = [0.0f64; 3];
            let mut processing = [0u64; 3];
            for stage in 0..3 {
                let range = cfg.stage_range(stage);
                let p = ((targets[stage] * deadline as f64).round() as u64).clamp(range.0, range.1);
                heaviness[stage] = p as f64 / deadline as f64;
                processing[stage] = p;
            }

            // 3. Placement subject to the per-resource bound `γ`.
            let ap = self.place(
                rng,
                &[&uplink_load, &downlink_load],
                &[heaviness[0], heaviness[2]],
            );
            let server = self.place(rng, &[&server_load], &[heaviness[1]]);

            // Shrink stages that would overflow `γ` on their chosen
            // resource (fallback when no placement fitted).
            let mut final_processing = processing;
            let mut final_heaviness = heaviness;
            let placements = [
                (0usize, ap, &mut uplink_load),
                (1, server, &mut server_load),
                (2, ap, &mut downlink_load),
            ];
            for (stage, resource, load) in placements {
                let available = (cfg.gamma - load[resource]).max(0.0);
                if final_heaviness[stage] > available {
                    let shrunk = ((available * deadline as f64).floor() as u64)
                        .min(cfg.stage_range(stage).1);
                    final_processing[stage] = shrunk;
                    final_heaviness[stage] = shrunk as f64 / deadline as f64;
                }
                load[resource] += final_heaviness[stage];
            }
            // A job must keep a non-zero demand somewhere; if every stage
            // was shrunk away, give it one tick at the server stage (a
            // negligible, sub-0.1% heaviness overshoot).
            if final_processing.iter().all(|&p| p == 0) {
                final_processing[1] = 1;
            }

            builder
                .push_job(
                    JobBuilder::new()
                        .arrival(Time::ZERO)
                        .deadline(Time::from_millis(deadline))
                        .stage_time(Time::from_millis(final_processing[0]), ap)
                        .stage_time(Time::from_millis(final_processing[1]), server)
                        .stage_time(Time::from_millis(final_processing[2]), ap),
                )
                .expect("generated job parameters are valid");
        }

        builder.build().expect("generated job set is valid")
    }

    /// Generates one test case from a seed (deterministic).
    #[must_use]
    pub fn generate_seeded(&self, seed: u64) -> JobSet {
        let mut rng = StdRng::seed_from_u64(seed);
        self.generate(&mut rng)
    }

    /// Generates `count` independent test cases with consecutive seeds
    /// starting at `base_seed`.
    #[must_use]
    pub fn generate_batch(&self, count: usize, base_seed: u64) -> Vec<JobSet> {
        (0..count)
            .map(|i| self.generate_seeded(base_seed.wrapping_add(i as u64)))
            .collect()
    }

    /// Chooses a resource for a job, mimicking the load-balancing
    /// job-to-resource mapping step that precedes priority assignment in
    /// the paper's edge scenario (the mapping problem is solved separately,
    /// e.g. by the allocation algorithms the paper cites).
    ///
    /// A small random sample of candidate resources is drawn
    /// (`placement_retries` candidates) and the least-loaded candidate that
    /// keeps every affected load vector at or below `γ` is selected; if no
    /// sampled candidate fits, the globally least-loaded resource is used
    /// (the caller then shrinks the job to respect `γ`).
    fn place<R: Rng + ?Sized>(&self, rng: &mut R, loads: &[&Vec<f64>], added: &[f64]) -> usize {
        let count = loads[0].len();
        let combined = |index: usize| -> f64 { loads.iter().map(|l| l[index]).sum() };
        let fits = |index: usize| -> bool {
            loads
                .iter()
                .zip(added)
                .all(|(load, &h)| load[index] + h <= self.config.gamma)
        };
        let samples = self.config.placement_retries.max(1).min(count);
        let mut best: Option<usize> = None;
        for _ in 0..samples {
            let candidate = rng.gen_range(0..count);
            if !fits(candidate) {
                continue;
            }
            if best.is_none_or(|b| combined(candidate) < combined(b)) {
                best = Some(candidate);
            }
        }
        best.unwrap_or_else(|| {
            // No sampled candidate fits: fall back to the globally
            // least-loaded resource.
            (0..count)
                .min_by(|&a, &b| combined(a).total_cmp(&combined(b)))
                .unwrap_or(0)
        })
    }
}

/// Convenience: the heaviness of the busiest resource of a generated set
/// (`H` in the paper), re-exported here for tests and experiments.
#[must_use]
pub fn system_heaviness(jobs: &JobSet) -> f64 {
    HeavinessProfile::of(jobs).system()
}

/// Convenience: the heaviness of one resource of a generated set.
#[must_use]
pub fn resource_heaviness(jobs: &JobSet, stage: StageId, resource: ResourceId) -> f64 {
    HeavinessProfile::of(jobs)
        .resource(ResourceRef::new(stage, resource))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::JobId;

    fn small_config() -> EdgeWorkloadConfig {
        EdgeWorkloadConfig::default()
            .with_jobs(40)
            .with_infrastructure(8, 6)
    }

    #[test]
    fn default_config_matches_paper_parameters() {
        let cfg = EdgeWorkloadConfig::default();
        assert_eq!(cfg.access_points, 25);
        assert_eq!(cfg.servers, 20);
        assert_eq!(cfg.jobs, 100);
        assert_eq!(cfg.offload_range, (2, 200));
        assert_eq!(cfg.processing_range, (50, 500));
        assert_eq!(cfg.download_range, (2, 100));
        assert!((cfg.beta - 0.15).abs() < 1e-12);
        assert_eq!(cfg.heavy_ratios, [0.05, 0.05, 0.01]);
        assert!((cfg.gamma - 0.7).abs() < 1e-12);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn scaled_config_pins_its_infrastructure() {
        for (jobs, access_points, servers) in [(8, 2, 2), (40, 10, 8), (100, 25, 20), (200, 25, 20)]
        {
            let cfg = EdgeWorkloadConfig::scaled(jobs);
            assert_eq!(
                (cfg.jobs, cfg.access_points, cfg.servers),
                (jobs, access_points, servers)
            );
            assert_eq!(
                cfg,
                EdgeWorkloadConfig::default()
                    .with_jobs(jobs)
                    .with_infrastructure(access_points, servers)
            );
        }
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(EdgeWorkloadConfig::default()
            .with_jobs(0)
            .validate()
            .is_err());
        assert!(EdgeWorkloadConfig::default()
            .with_beta(0.0)
            .validate()
            .is_err());
        assert!(EdgeWorkloadConfig::default()
            .with_beta(0.8)
            .validate()
            .is_err());
        assert!(EdgeWorkloadConfig::default()
            .with_gamma(-0.5)
            .validate()
            .is_err());
        assert!(EdgeWorkloadConfig::default()
            .with_heavy_ratios([0.1, 1.5, 0.1])
            .validate()
            .is_err());
        assert!(EdgeWorkloadConfig::default()
            .with_infrastructure(0, 5)
            .validate()
            .is_err());
        let cfg = EdgeWorkloadConfig {
            offload_range: (10, 2),
            ..EdgeWorkloadConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(EdgeWorkloadGenerator::new(cfg).is_err());
    }

    #[test]
    fn generated_structure_matches_the_edge_pipeline() {
        let gen = EdgeWorkloadGenerator::new(small_config()).unwrap();
        let jobs = gen.generate_seeded(7);
        assert_eq!(jobs.len(), 40);
        let pipeline = jobs.pipeline();
        assert_eq!(pipeline.stage_count(), 3);
        assert_eq!(pipeline.stage(StageId::new(0)).unwrap().resource_count(), 8);
        assert_eq!(pipeline.stage(StageId::new(1)).unwrap().resource_count(), 6);
        assert_eq!(pipeline.stage(StageId::new(2)).unwrap().resource_count(), 8);
        assert_eq!(
            pipeline.preemption(StageId::new(0)),
            PreemptionPolicy::NonPreemptive
        );
        assert_eq!(
            pipeline.preemption(StageId::new(1)),
            PreemptionPolicy::Preemptive
        );
        // The same AP serves uplink and downlink.
        for job in jobs.jobs() {
            assert_eq!(job.resource(StageId::new(0)), job.resource(StageId::new(2)));
            assert_eq!(job.arrival(), Time::ZERO);
        }
    }

    #[test]
    fn processing_times_respect_published_ranges() {
        let gen = EdgeWorkloadGenerator::new(small_config()).unwrap();
        let jobs = gen.generate_seeded(11);
        for job in jobs.jobs() {
            let up = job.processing(StageId::new(0)).as_millis();
            let proc = job.processing(StageId::new(1)).as_millis();
            let down = job.processing(StageId::new(2)).as_millis();
            // Processing times never exceed the published per-stage maxima
            // (the generator may shrink a stage below the nominal minimum,
            // even to zero, to respect the taskset heaviness bound γ).
            assert!(up <= 200);
            assert!(proc <= 500);
            assert!(down <= 100);
            assert!(job.total_processing() > Time::ZERO);
            // Deadlines stay below the configured maximum; heavy jobs may
            // receive a smaller deadline than the nominal minimum so their
            // heaviness target remains achievable within the per-stage
            // time ranges.
            let d = job.deadline().as_millis();
            assert!((1..=10_000).contains(&d));
        }
    }

    #[test]
    fn per_job_heaviness_is_capped_at_twice_beta() {
        let cfg = small_config().with_beta(0.2);
        let gen = EdgeWorkloadGenerator::new(cfg).unwrap();
        let jobs = gen.generate_seeded(3);
        for job in jobs.jobs() {
            // Clamping to stage ranges can only lower heaviness, so 2β is
            // an upper bound up to rounding.
            assert!(job.max_heaviness() <= 2.0 * 0.2 + 1e-9);
        }
    }

    #[test]
    fn system_heaviness_respects_gamma() {
        for gamma in [0.6, 0.7, 0.9] {
            let cfg = small_config().with_gamma(gamma);
            let gen = EdgeWorkloadGenerator::new(cfg).unwrap();
            for seed in 0..5 {
                let jobs = gen.generate_seeded(seed);
                let h = system_heaviness(&jobs);
                // The guarantee is exact up to the one-tick fallback for
                // jobs whose demand was shrunk away entirely.
                assert!(
                    h <= gamma + 0.005,
                    "system heaviness {h} exceeds gamma {gamma}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = EdgeWorkloadGenerator::new(small_config()).unwrap();
        let a = gen.generate_seeded(99);
        let b = gen.generate_seeded(99);
        assert_eq!(a, b);
        let c = gen.generate_seeded(100);
        assert_ne!(a, c);
    }

    #[test]
    fn batch_generation_uses_distinct_seeds() {
        let gen = EdgeWorkloadGenerator::new(small_config()).unwrap();
        let batch = gen.generate_batch(3, 5);
        assert_eq!(batch.len(), 3);
        assert_ne!(batch[0], batch[1]);
        assert_eq!(batch[0], gen.generate_seeded(5));
        assert_eq!(batch[2], gen.generate_seeded(7));
    }

    #[test]
    fn heavy_ratio_controls_number_of_heavy_jobs() {
        let cfg = small_config().with_heavy_ratios([0.5, 0.0, 0.0]);
        let gen = EdgeWorkloadGenerator::new(cfg).unwrap();
        let jobs = gen.generate_seeded(13);
        let heavy_at_stage0 = jobs
            .jobs()
            .filter(|j| j.heaviness(StageId::new(0)) >= 0.15 - 1e-9)
            .count();
        // Half of the 40 jobs were targeted as heavy; clamping to the
        // uplink range [2,200] can only push a few below the threshold.
        assert!(heavy_at_stage0 >= 12, "only {heavy_at_stage0} heavy jobs");
        // And with a zero ratio at the server stage, few jobs should be
        // heavy there (clamping from below can lift none above beta since
        // the minimum processing time of 50 ms at a 500 ms deadline equals
        // 0.1 < 0.15).
        let heavy_at_stage1 = jobs
            .jobs()
            .filter(|j| j.heaviness(StageId::new(1)) >= 0.15)
            .count();
        assert_eq!(heavy_at_stage1, 0);
    }

    #[test]
    fn resource_heaviness_helper_matches_profile() {
        let gen = EdgeWorkloadGenerator::new(small_config()).unwrap();
        let jobs = gen.generate_seeded(1);
        let job0 = jobs.job(JobId::new(0));
        let stage = StageId::new(1);
        let value = resource_heaviness(&jobs, stage, job0.resource(stage));
        assert!(value > 0.0);
        assert!(value <= 0.7 + 1e-9);
    }
}
