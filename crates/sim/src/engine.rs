//! The event-driven simulation engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use msmr_model::{JobId, JobSet, PreemptionPolicy, ResourceId, ResourceRef, StageId, Time};

use crate::{CompletionTable, ExecutionSlice, PriorityMap, SimulationOutcome};

/// Discrete-event simulator for one [`JobSet`].
///
/// The engine is exact for integer-valued processing times: preemptions and
/// dispatch decisions happen only at event instants (arrivals and stage
/// completions), which is sufficient for fixed-priority scheduling because
/// the ready sets only change at those instants.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    jobs: &'a JobSet,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for the given job set.
    #[must_use]
    pub fn new(jobs: &'a JobSet) -> Self {
        Simulator { jobs }
    }

    /// The simulated job set.
    #[must_use]
    pub fn jobs(&self) -> &JobSet {
        self.jobs
    }

    /// Runs the simulation to completion under the given priorities and
    /// returns the outcome, execution trace included (see the crate docs
    /// for the trace contract).
    ///
    /// # Panics
    ///
    /// Panics if `priorities` does not cover every job and stage of the job
    /// set.
    #[must_use]
    pub fn run(&self, priorities: &PriorityMap) -> SimulationOutcome {
        let mut trace: Vec<ExecutionSlice> = Vec::new();
        let completions = Engine::new(self.jobs, priorities, &mut trace).simulate();
        // Slices are recorded when they end; the contract orders them by
        // start.
        trace.sort_unstable_by_key(|slice| (slice.start, slice.resource));
        SimulationOutcome::new(self.jobs, completions, trace)
    }

    /// Runs the same simulation as [`run`](Self::run) without recording a
    /// trace: only the completion time of every job at every stage.
    ///
    /// # Panics
    ///
    /// Panics if `priorities` does not cover every job and stage of the job
    /// set.
    #[must_use]
    pub fn completions(&self, priorities: &PriorityMap) -> CompletionTable {
        Engine::new(self.jobs, priorities, &mut NoTrace).simulate()
    }
}

/// Where the engine reports each maximal contiguous run of a job on a
/// resource, at the instant the run ends.
trait SliceSink {
    fn record(&mut self, slice: ExecutionSlice);
}

impl SliceSink for Vec<ExecutionSlice> {
    fn record(&mut self, slice: ExecutionSlice) {
        self.push(slice);
    }
}

/// The sink of the trace-free path.
struct NoTrace;

impl SliceSink for NoTrace {
    #[inline]
    fn record(&mut self, _slice: ExecutionSlice) {}
}

/// "No job": end of a waiting list, or an idle resource.
const NIL: u32 = u32::MAX;

/// One simulation in flight. Resources are indexed densely, stage by
/// stage; jobs by their id.
struct Engine<'a, S> {
    jobs: &'a JobSet,
    priorities: &'a PriorityMap,
    sink: &'a mut S,
    n_stages: usize,
    /// Dense index of the first resource of each stage.
    stage_base: Vec<usize>,
    /// Stage of each resource.
    stage_of: Vec<usize>,
    /// Per stage: whether a higher-priority arrival displaces the
    /// executing job.
    preemptive: Vec<bool>,
    /// Per resource: the executing job, or `NIL`.
    running: Vec<u32>,
    /// Per resource: when the executing job was (re)started.
    started_at: Vec<u64>,
    /// Per resource: when the executing job completes its stage unless it
    /// is preempted first; `u64::MAX` when idle.
    finish_at: Vec<u64>,
    /// Per resource: head of the list of jobs ready here but not
    /// executing, linked through `next`.
    waiting: Vec<u32>,
    /// Per job: the next job of the waiting list it is on.
    next: Vec<u32>,
    /// Per job: demand left at its current stage as of the last time it was
    /// started; charged only when it is preempted.
    remaining: Vec<u64>,
    /// Resources whose ready set changed at the current instant, and the
    /// membership flags that keep the list duplicate-free.
    touched: Vec<usize>,
    is_touched: Vec<bool>,
    /// Pending stage completions `(finish_at, resource)`. A preemption
    /// leaves its entry behind; an entry is live iff it still equals the
    /// resource's `finish_at`.
    events: BinaryHeap<Reverse<(u64, usize)>>,
    /// `[job][stage]` completion times, filled in as stages complete.
    completed: Vec<Time>,
}

impl<'a, S: SliceSink> Engine<'a, S> {
    fn new(jobs: &'a JobSet, priorities: &'a PriorityMap, sink: &'a mut S) -> Self {
        let n = jobs.len();
        let n_stages = jobs.stage_count();
        assert_eq!(
            priorities.stage_count(),
            n_stages,
            "priority map stage count mismatch"
        );
        assert_eq!(priorities.job_count(), n, "priority map job count mismatch");
        assert!(n < NIL as usize, "job ids must fit the engine's u32 links");

        let mut stage_base = Vec::with_capacity(n_stages);
        let mut stage_of = Vec::new();
        let mut preemptive = Vec::with_capacity(n_stages);
        for (stage_id, stage) in jobs.pipeline().stages() {
            stage_base.push(stage_of.len());
            stage_of.resize(stage_of.len() + stage.resource_count(), stage_id.index());
            preemptive.push(stage.preemption() == PreemptionPolicy::Preemptive);
        }
        let resources = stage_of.len();
        Engine {
            jobs,
            priorities,
            sink,
            n_stages,
            stage_base,
            stage_of,
            preemptive,
            running: vec![NIL; resources],
            started_at: vec![0; resources],
            finish_at: vec![u64::MAX; resources],
            waiting: vec![NIL; resources],
            next: vec![NIL; n],
            remaining: vec![0; n],
            touched: Vec::new(),
            is_touched: vec![false; resources],
            events: BinaryHeap::with_capacity(resources),
            completed: vec![Time::ZERO; n * n_stages],
        }
    }

    /// Runs to completion: one iteration per instant at which a job
    /// arrives or a stage completes.
    fn simulate(mut self) -> CompletionTable {
        let mut arrivals: Vec<(u64, u32)> = self
            .jobs
            .jobs()
            .map(|job| (job.arrival().as_ticks(), job.id().index() as u32))
            .collect();
        arrivals.sort_unstable();
        let mut arrivals = arrivals.into_iter().peekable();

        loop {
            let arrival = arrivals.peek().map(|&(at, _)| at);
            let now = match (self.next_completion(), arrival) {
                (Some(completion), Some(arrival)) => completion.min(arrival),
                (Some(instant), None) | (None, Some(instant)) => instant,
                (None, None) => break,
            };
            // Every completion and arrival of this instant first, so that
            // dispatch sees the final ready sets.
            while self.next_completion() == Some(now) {
                let Reverse((_, resource)) = self.events.pop().expect("peeked above");
                self.complete(resource, now);
            }
            while let Some(&(_, job)) = arrivals.peek().filter(|&&(at, _)| at == now) {
                arrivals.next();
                self.enter(job, 0, now);
            }
            while let Some(resource) = self.touched.pop() {
                self.is_touched[resource] = false;
                self.dispatch(resource, now);
            }
        }
        CompletionTable::new(self.n_stages, self.completed)
    }

    /// The earliest pending stage completion, dropping the entries that
    /// preemptions left behind.
    fn next_completion(&mut self) -> Option<u64> {
        while let Some(&Reverse((at, resource))) = self.events.peek() {
            if self.finish_at[resource] == at {
                return Some(at);
            }
            self.events.pop();
        }
        None
    }

    fn touch(&mut self, resource: usize) {
        if !self.is_touched[resource] {
            self.is_touched[resource] = true;
            self.touched.push(resource);
        }
    }

    /// `job` becomes ready at `stage` (or leaves the pipeline) at `now`.
    /// Zero-demand stages complete on the spot, whatever their resource is
    /// doing.
    fn enter(&mut self, job: u32, mut stage: usize, now: u64) {
        let spec = self.jobs.job(JobId::new(job as usize));
        while stage < self.n_stages {
            let demand = spec.processing(StageId::new(stage)).as_ticks();
            if demand > 0 {
                let resource = self.stage_base[stage] + spec.resource(StageId::new(stage)).index();
                self.remaining[job as usize] = demand;
                self.next[job as usize] = self.waiting[resource];
                self.waiting[resource] = job;
                self.touch(resource);
                return;
            }
            self.completed[job as usize * self.n_stages + stage] = Time::new(now);
            stage += 1;
        }
    }

    /// The job executing on `resource` completes its stage at `now`.
    fn complete(&mut self, resource: usize, now: u64) {
        let job = self.running[resource];
        let stage = self.stage_of[resource];
        self.record(resource, job, now);
        self.running[resource] = NIL;
        self.finish_at[resource] = u64::MAX;
        self.touch(resource);
        self.completed[job as usize * self.n_stages + stage] = Time::new(now);
        self.enter(job, stage + 1, now);
    }

    /// Re-evaluates who executes on `resource` from `now` on: the
    /// highest-priority ready job (ties to the lower id), except that a
    /// non-preemptive resource keeps a job it has started.
    fn dispatch(&mut self, resource: usize, now: u64) {
        let current = self.running[resource];
        let stage = self.stage_of[resource];
        if current != NIL && !self.preemptive[stage] {
            return;
        }
        let priority = self.priorities.stage_values(stage);
        let key = |job: u32| (priority[job as usize], job);

        // Best waiting job and its predecessor in the list.
        let (mut best, mut before_best) = (NIL, NIL);
        let (mut job, mut before) = (self.waiting[resource], NIL);
        while job != NIL {
            if best == NIL || key(job) < key(best) {
                (best, before_best) = (job, before);
            }
            (before, job) = (job, self.next[job as usize]);
        }
        if best == NIL || (current != NIL && key(current) < key(best)) {
            return;
        }

        // `best` leaves the waiting list; a preempted job takes its place.
        let mut after_best = self.next[best as usize];
        if current != NIL {
            self.remaining[current as usize] -= now - self.started_at[resource];
            self.record(resource, current, now);
            self.next[current as usize] = after_best;
            after_best = current;
        }
        if before_best == NIL {
            self.waiting[resource] = after_best;
        } else {
            self.next[before_best as usize] = after_best;
        }

        let finish = now + self.remaining[best as usize];
        self.running[resource] = best;
        self.started_at[resource] = now;
        self.finish_at[resource] = finish;
        self.events.push(Reverse((finish, resource)));
    }

    /// Reports the run of `job` on `resource` that ends at `now`.
    fn record(&mut self, resource: usize, job: u32, now: u64) {
        let stage = StageId::new(self.stage_of[resource]);
        self.sink.record(ExecutionSlice {
            resource: ResourceRef::new(
                stage,
                ResourceId::new(resource - self.stage_base[stage.index()]),
            ),
            job: JobId::new(job as usize),
            stage,
            start: Time::new(self.started_at[resource]),
            end: Time::new(now),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::JobSetBuilder;

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    fn single_cpu(policy: PreemptionPolicy, jobs: &[(u64, u64, u64)]) -> JobSet {
        // (arrival, processing, deadline)
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, policy);
        for &(a, p, d) in jobs {
            b.job()
                .arrival(Time::new(a))
                .deadline(Time::new(d))
                .stage_time(Time::new(p), 0)
                .add()
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn single_job_runs_unimpeded_through_the_pipeline() {
        let mut b = JobSetBuilder::new();
        b.stage("s0", 1, PreemptionPolicy::Preemptive)
            .stage("s1", 1, PreemptionPolicy::NonPreemptive)
            .stage("s2", 1, PreemptionPolicy::Preemptive);
        b.job()
            .arrival(Time::new(3))
            .deadline(Time::new(100))
            .stage_time(Time::new(4), 0)
            .stage_time(Time::new(5), 0)
            .stage_time(Time::new(6), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert_eq!(outcome.delay(jid(0)), Time::new(15));
        assert_eq!(outcome.completion(jid(0)), Time::new(18));
        assert_eq!(
            outcome.stage_completion(jid(0), StageId::new(0)),
            Time::new(7)
        );
        assert_eq!(
            outcome.stage_completion(jid(0), StageId::new(1)),
            Time::new(12)
        );
        assert_eq!(outcome.executed_time(jid(0)), Time::new(15));
        assert!(outcome.all_deadlines_met());
    }

    #[test]
    fn preemptive_cpu_priority_order() {
        // Both arrive at 0; the higher-priority job finishes first.
        let jobs = single_cpu(PreemptionPolicy::Preemptive, &[(0, 4, 10), (0, 5, 20)]);
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0), jid(1)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert_eq!(outcome.delay(jid(0)), Time::new(4));
        assert_eq!(outcome.delay(jid(1)), Time::new(9));
        assert_eq!(outcome.makespan(), Time::new(9));
    }

    #[test]
    fn preemption_interrupts_a_lower_priority_job() {
        // Low-priority job starts at 0, high-priority job arrives at 2.
        let jobs = single_cpu(PreemptionPolicy::Preemptive, &[(2, 3, 10), (0, 6, 20)]);
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0), jid(1)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        // High priority runs 2..5.
        assert_eq!(outcome.completion(jid(0)), Time::new(5));
        assert_eq!(outcome.delay(jid(0)), Time::new(3));
        // Low priority executes 0..2 and 5..9.
        assert_eq!(outcome.completion(jid(1)), Time::new(9));
        // Its trace has two slices.
        let slices: Vec<_> = outcome.trace().iter().filter(|s| s.job == jid(1)).collect();
        assert_eq!(slices.len(), 2);
    }

    #[test]
    fn non_preemptive_stage_blocks_higher_priority_job() {
        // Same scenario, non-preemptive: the low-priority job runs to
        // completion and blocks the high-priority one.
        let jobs = single_cpu(PreemptionPolicy::NonPreemptive, &[(2, 3, 10), (0, 6, 20)]);
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0), jid(1)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert_eq!(outcome.completion(jid(1)), Time::new(6));
        assert_eq!(outcome.completion(jid(0)), Time::new(9));
        assert_eq!(outcome.delay(jid(0)), Time::new(7));
        // Each job executes in one contiguous slice.
        assert_eq!(outcome.trace().len(), 2);
    }

    #[test]
    fn pipelined_execution_overlaps_stages() {
        // Two jobs, two single-resource stages, preemptive, same arrival.
        let mut b = JobSetBuilder::new();
        b.stage("s0", 1, PreemptionPolicy::Preemptive)
            .stage("s1", 1, PreemptionPolicy::Preemptive);
        for (p0, p1) in [(3u64, 4u64), (2, 5)] {
            b.job()
                .deadline(Time::new(100))
                .stage_time(Time::new(p0), 0)
                .stage_time(Time::new(p1), 0)
                .add()
                .unwrap();
        }
        let jobs = b.build().unwrap();
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0), jid(1)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        // J0: stage0 0..3, stage1 3..7. J1: stage0 3..5, stage1 7..12.
        assert_eq!(outcome.completion(jid(0)), Time::new(7));
        assert_eq!(outcome.completion(jid(1)), Time::new(12));
        // While J0 executes at stage 1 (3..7), J1 runs at stage 0 (3..5):
        // the pipeline genuinely overlaps.
        let j1_stage0 = outcome
            .trace()
            .iter()
            .find(|s| s.job == jid(1) && s.stage == StageId::new(0))
            .unwrap();
        assert_eq!(j1_stage0.start, Time::new(3));
        assert_eq!(j1_stage0.end, Time::new(5));
    }

    #[test]
    fn per_stage_priorities_can_differ() {
        // J0 beats J1 at stage 0, loses at stage 1.
        let mut b = JobSetBuilder::new();
        b.stage("s0", 1, PreemptionPolicy::Preemptive)
            .stage("s1", 1, PreemptionPolicy::Preemptive);
        for _ in 0..2 {
            b.job()
                .deadline(Time::new(100))
                .stage_time(Time::new(2), 0)
                .stage_time(Time::new(10), 0)
                .add()
                .unwrap();
        }
        let jobs = b.build().unwrap();
        let priorities = PriorityMap::from_per_stage_orders(
            &jobs,
            &[vec![jid(0), jid(1)], vec![jid(1), jid(0)]],
        );
        let outcome = Simulator::new(&jobs).run(&priorities);
        // Stage 0: J0 0..2, J1 2..4. Stage 1: J0 ready at 2 and runs 2..4,
        // then J1 (higher priority there) preempts at 4 and runs 4..14,
        // J0 finishes 14..22.
        assert_eq!(outcome.completion(jid(1)), Time::new(14));
        assert_eq!(outcome.completion(jid(0)), Time::new(22));
    }

    #[test]
    fn heterogeneous_resources_at_one_stage_run_in_parallel() {
        let mut b = JobSetBuilder::new();
        b.stage("srv", 2, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(Time::new(10))
            .stage_time(Time::new(6), 0)
            .add()
            .unwrap();
        b.job()
            .deadline(Time::new(10))
            .stage_time(Time::new(7), 1)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0), jid(1)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert_eq!(outcome.completion(jid(0)), Time::new(6));
        assert_eq!(outcome.completion(jid(1)), Time::new(7));
    }

    #[test]
    fn zero_work_stages_complete_instantly() {
        let mut b = JobSetBuilder::new();
        b.stage("s0", 1, PreemptionPolicy::Preemptive)
            .stage("s1", 1, PreemptionPolicy::Preemptive);
        b.job()
            .deadline(Time::new(10))
            .stage_time(Time::ZERO, 0)
            .stage_time(Time::new(5), 0)
            .add()
            .unwrap();
        let jobs = b.build().unwrap();
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert_eq!(outcome.completion(jid(0)), Time::new(5));
        assert_eq!(
            outcome.stage_completion(jid(0), StageId::new(0)),
            Time::ZERO
        );
    }

    #[test]
    fn deadline_misses_are_reported() {
        let jobs = single_cpu(PreemptionPolicy::Preemptive, &[(0, 5, 10), (0, 5, 6)]);
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0), jid(1)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert!(!outcome.all_deadlines_met());
        assert_eq!(outcome.deadline_misses(), vec![jid(1)]);
        assert!(outcome.meets_deadline(jid(0)));
    }

    #[test]
    fn trace_has_no_overlapping_slices_per_resource() {
        let jobs = single_cpu(
            PreemptionPolicy::Preemptive,
            &[(0, 4, 100), (1, 3, 100), (2, 5, 100)],
        );
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(2), jid(1), jid(0)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        let trace = outcome.trace();
        for (i, a) in trace.iter().enumerate() {
            for b in &trace[i + 1..] {
                if a.resource == b.resource {
                    assert!(!a.overlaps(b), "overlapping execution on one resource");
                }
            }
        }
        // Work conservation: every job executes exactly its demand.
        for i in 0..3 {
            assert_eq!(
                outcome.executed_time(jid(i)),
                jobs.job(jid(i)).total_processing()
            );
        }
    }

    #[test]
    fn late_arrivals_idle_the_resource() {
        let jobs = single_cpu(PreemptionPolicy::Preemptive, &[(10, 2, 5)]);
        let priorities = PriorityMap::from_global_order(&jobs, &[jid(0)]);
        let outcome = Simulator::new(&jobs).run(&priorities);
        assert_eq!(outcome.completion(jid(0)), Time::new(12));
        assert_eq!(outcome.delay(jid(0)), Time::new(2));
    }
}
