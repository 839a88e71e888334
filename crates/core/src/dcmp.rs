//! DCMP — the deadline-decomposition baseline of the evaluation (§VI-A).

use msmr_model::{JobId, JobSet, StageId, Time};
use msmr_sim::{CompletionTable, PriorityMap, SimulationOutcome, Simulator};

/// The decomposition baseline: the end-to-end deadline of every job is
/// split into per-stage *virtual deadlines* proportional to the heaviness
/// of the resource the job uses at each stage
/// (`D_i · Υ_{i,j} / Σ_j Υ_{i,j}`), per-stage priorities are assigned in
/// inverse order of those virtual deadlines (deadline-monotonic), and the
/// resulting schedule is *simulated* on the `msmr-sim` engine. A test case
/// is accepted when every decomposed job meets its virtual deadline at
/// every stage.
///
/// The virtual deadlines of a job sum to `D_i` only up to rounding (each
/// is rounded to a whole tick and is at least one tick), so meeting all
/// of them bounds the end-to-end delay by `D_i` plus at most one tick per
/// stage — see [`DcmpOutcome::accepted`] for what that means for the
/// reported deadline misses.
///
/// The paper uses this baseline because no analytical schedulability test
/// applies to the decomposed jobs in this setting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dcmp;

impl Dcmp {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        Dcmp
    }

    /// Virtual deadline of every job at every stage,
    /// `D_i · Υ_{i,j} / Σ_j Υ_{i,j}` (indexed `[job][stage]`).
    #[must_use]
    pub fn virtual_deadlines(&self, jobs: &JobSet) -> Vec<Vec<Time>> {
        by_job(&virtual_deadline_ticks(jobs))
    }

    /// Runs the baseline on a job set: decomposition, per-stage
    /// deadline-monotonic priorities and simulation.
    #[must_use]
    pub fn evaluate(&self, jobs: &JobSet) -> DcmpOutcome {
        let ticks = virtual_deadline_ticks(jobs);
        let virtual_deadlines = by_job(&ticks);
        let priorities = PriorityMap::from_values(jobs, ticks);
        let simulation = Simulator::new(jobs).run(&priorities);
        let accepted = meets_virtual_deadlines(jobs, &priorities, simulation.completions());
        DcmpOutcome {
            virtual_deadlines,
            priorities,
            simulation,
            accepted,
        }
    }

    /// What the [`Solver`](crate::Solver) impl needs of
    /// [`evaluate`](Self::evaluate) — the acceptance decision and the jobs
    /// that missed their end-to-end deadline, in id order — computed
    /// without an execution trace.
    pub(crate) fn decide(&self, jobs: &JobSet) -> (bool, Vec<JobId>) {
        let priorities = PriorityMap::from_values(jobs, virtual_deadline_ticks(jobs));
        let completions = Simulator::new(jobs).completions(&priorities);
        let accepted = meets_virtual_deadlines(jobs, &priorities, &completions);
        let misses = jobs
            .jobs()
            .filter(|job| {
                completions
                    .completion(job.id())
                    .saturating_sub(job.arrival())
                    > job.deadline()
            })
            .map(|job| job.id())
            .collect();
        (accepted, misses)
    }
}

/// The virtual deadlines in ticks, indexed `[stage][job]`: per-stage
/// priority value = virtual deadline (smaller = higher priority), exactly
/// "priorities in the inverse order of the deadline".
fn virtual_deadline_ticks(jobs: &JobSet) -> Vec<Vec<u64>> {
    // `Υ_{i,j}` only depends on the resource job `i` uses at stage
    // `j`, so the per-resource heaviness sums are precomputed once
    // (one `O(n·N)` pass) instead of rescanning the job set for every
    // (job, stage) pair.
    let upsilon_of: Vec<Vec<f64>> = jobs
        .pipeline()
        .stages()
        .map(|(stage_id, stage)| {
            let mut sums = vec![0.0f64; stage.resource_count()];
            for job in jobs.jobs() {
                sums[job.resource(stage_id).index()] += job.heaviness(stage_id);
            }
            sums
        })
        .collect();
    let mut ticks = vec![vec![0u64; jobs.len()]; jobs.stage_count()];
    let mut upsilons = vec![0.0f64; jobs.stage_count()];
    for job in jobs.jobs() {
        for (j, upsilon) in upsilons.iter_mut().enumerate() {
            *upsilon = upsilon_of[j][job.resource(StageId::new(j)).index()];
        }
        let total: f64 = upsilons.iter().sum();
        let deadline = job.deadline().as_ticks() as f64;
        for (j, &upsilon) in upsilons.iter().enumerate() {
            let share = if total > 0.0 { upsilon / total } else { 0.0 };
            ticks[j][job.id().index()] = (deadline * share).round().max(1.0) as u64;
        }
    }
    ticks
}

/// Transposes `[stage][job]` ticks into `[job][stage]` times.
fn by_job(ticks: &[Vec<u64>]) -> Vec<Vec<Time>> {
    let jobs = ticks.first().map_or(0, Vec::len);
    (0..jobs)
        .map(|i| ticks.iter().map(|stage| Time::new(stage[i])).collect())
        .collect()
}

/// Checks whether every decomposed (per-stage) job meets its virtual
/// deadline — its priority value in `priorities`: the stage must complete
/// within `vd_{i,j}` of the moment the job became ready at that stage (its
/// arrival for the first stage, the previous stage's completion
/// afterwards).
fn meets_virtual_deadlines(
    jobs: &JobSet,
    priorities: &PriorityMap,
    completions: &CompletionTable,
) -> bool {
    jobs.jobs().all(|job| {
        let mut ready = job.arrival();
        jobs.pipeline().stage_ids().all(|stage| {
            let completion = completions.stage_completion(job.id(), stage);
            let deadline = ready.saturating_add(Time::new(priorities.priority(stage, job.id())));
            ready = completion;
            completion <= deadline
        })
    })
}

/// Result of one DCMP evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DcmpOutcome {
    /// Virtual deadlines, indexed `[job][stage]`.
    pub virtual_deadlines: Vec<Vec<Time>>,
    /// The per-stage deadline-monotonic priorities derived from them.
    pub priorities: PriorityMap,
    /// The simulated schedule.
    pub simulation: SimulationOutcome,
    /// `true` when every job met its *virtual* deadline at every stage in
    /// the simulation — the paper's acceptance rule for the decomposed
    /// jobs, which is stricter than the end-to-end one.
    ///
    /// Contract with [`deadline_misses`](Self::deadline_misses) (and with
    /// `Verdict::unschedulable` of the DCMP [`Solver`](crate::Solver),
    /// which carries the same list): the misses are *end-to-end* misses.
    /// A rejected case may therefore list no job at all (a stage overran
    /// its share while the pipeline still finished within `D_i`), and an
    /// accepted one lists a job only when virtual-deadline rounding
    /// stretched the sum of its shares past `D_i` (by at most one tick
    /// per stage).
    pub accepted: bool,
}

impl DcmpOutcome {
    /// Virtual deadline of one job at one stage.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn virtual_deadline(&self, job: JobId, stage: StageId) -> Time {
        self.virtual_deadlines[job.index()][stage.index()]
    }

    /// Jobs that missed their *end-to-end* deadline in the simulation (not
    /// the jobs that missed a virtual deadline; see
    /// [`accepted`](Self::accepted)).
    #[must_use]
    pub fn deadline_misses(&self) -> Vec<JobId> {
        self.simulation.deadline_misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy};

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    fn two_stage_jobs() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("net", 1, PreemptionPolicy::NonPreemptive).stage(
            "cpu",
            1,
            PreemptionPolicy::Preemptive,
        );
        // J0: light on net, heavy on cpu.
        b.job()
            .deadline(Time::new(100))
            .stage_time(Time::new(10), 0)
            .stage_time(Time::new(40), 0)
            .add()
            .unwrap();
        // J1: balanced.
        b.job()
            .deadline(Time::new(80))
            .stage_time(Time::new(20), 0)
            .stage_time(Time::new(20), 0)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn virtual_deadlines_split_proportionally_to_upsilon() {
        let jobs = two_stage_jobs();
        let vd = Dcmp::new().virtual_deadlines(&jobs);
        // Υ_{0,0} = 10/100 + 20/80 = 0.35, Υ_{0,1} = 40/100 + 20/80 = 0.65.
        // J0: stage 0 gets 100·0.35 = 35, stage 1 gets 65.
        assert_eq!(vd[0][0], Time::new(35));
        assert_eq!(vd[0][1], Time::new(65));
        // The split sums back to (approximately) the end-to-end deadline.
        let total: u64 = vd[0].iter().map(|t| t.as_ticks()).sum();
        assert!((99..=101).contains(&total));
        // J1 shares the same resources, so the same proportions apply to
        // its deadline of 80.
        assert_eq!(vd[1][0], Time::new(28));
        assert_eq!(vd[1][1], Time::new(52));
    }

    #[test]
    fn evaluate_accepts_a_lightly_loaded_system() {
        let jobs = two_stage_jobs();
        let outcome = Dcmp::new().evaluate(&jobs);
        assert!(outcome.accepted);
        assert!(outcome.deadline_misses().is_empty());
        assert_eq!(
            outcome.virtual_deadline(jid(0), StageId::new(1)),
            Time::new(65)
        );
        // Priorities follow the virtual deadlines: J1 has the smaller
        // virtual deadline at both stages, hence the higher priority.
        assert!(outcome.priorities.outranks(StageId::new(0), jid(1), jid(0)));
    }

    fn overloaded_cpu() -> JobSet {
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive);
        for _ in 0..3 {
            b.job()
                .deadline(Time::new(10))
                .stage_time(Time::new(6), 0)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn evaluate_rejects_an_overloaded_system() {
        let outcome = Dcmp::new().evaluate(&overloaded_cpu());
        assert!(!outcome.accepted);
        assert!(!outcome.deadline_misses().is_empty());
    }

    #[test]
    fn the_trace_free_decision_agrees_with_evaluate() {
        for jobs in [two_stage_jobs(), overloaded_cpu()] {
            let outcome = Dcmp::new().evaluate(&jobs);
            assert_eq!(
                Dcmp::new().decide(&jobs),
                (outcome.accepted, outcome.deadline_misses())
            );
        }
    }

    #[test]
    fn a_rejection_can_name_no_end_to_end_miss() {
        // J2 makes "net" heavy, so J1's share of its deadline at the CPU
        // is only 27 of 100 ticks. J1 arrives one tick after J0 took the
        // non-preemptive CPU for 20: it finishes there at 30 > 1 + 27, yet
        // leaves the pipeline at 40, well within its deadline.
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::NonPreemptive).stage(
            "net",
            2,
            PreemptionPolicy::Preemptive,
        );
        for (arrival, cpu, net, link) in [(0, 20, 1, 0), (1, 10, 10, 1), (0, 0, 70, 1)] {
            b.job()
                .arrival(Time::new(arrival))
                .deadline(Time::new(100))
                .stage_time(Time::new(cpu), 0)
                .stage_time(Time::new(net), link)
                .add()
                .unwrap();
        }
        let jobs = b.build().unwrap();
        let outcome = Dcmp::new().evaluate(&jobs);
        assert_eq!(
            outcome.virtual_deadline(jid(1), StageId::new(0)),
            Time::new(27)
        );
        assert_eq!(
            outcome.simulation.stage_completion(jid(1), StageId::new(0)),
            Time::new(30)
        );
        assert!(!outcome.accepted);
        assert!(outcome.deadline_misses().is_empty());
        assert_eq!(Dcmp::new().decide(&jobs), (false, Vec::new()));
    }
}
