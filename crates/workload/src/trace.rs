//! Arrival-trace helpers shared by every replay path of the workspace.

use msmr_model::{JobId, JobSet};

/// The canonical arrival order of a job set used as an online trace:
/// ascending arrival time, ties broken by job id. Every replayer in the
/// workspace — `msmr_serve::Client::replay_trace_mixed`, the multi-client
/// `msmr-admit --replay --sessions K`, the end-to-end suites — uses this one
/// definition, so "replaying the same trace" always means the same admit
/// sequence.
#[must_use]
pub fn arrival_order(jobs: &JobSet) -> Vec<JobId> {
    let mut order: Vec<JobId> = jobs.job_ids().collect();
    order.sort_by_key(|&id| (jobs.job(id).arrival(), id));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};

    #[test]
    fn orders_by_arrival_then_id() {
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 1, PreemptionPolicy::Preemptive);
        for arrival in [5u64, 0, 5, 2] {
            b.job()
                .arrival(Time::new(arrival))
                .deadline(Time::new(arrival + 50))
                .stage_time(Time::new(1), 0)
                .add()
                .unwrap();
        }
        let jobs = b.build().unwrap();
        let order: Vec<usize> = arrival_order(&jobs).iter().map(|id| id.index()).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }
}
