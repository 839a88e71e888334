//! Asserts the OPT branch-and-bound performs zero heap allocations per
//! search node (for job populations of `n ≤ 64`), and that one arrival
//! into an analysis allocates the same at every set size.
//!
//! Strategy: wrap the system allocator in a counting shim and run the same
//! search twice through `Solver::solve` with node budgets that differ by
//! orders of magnitude. The analysis is built before measuring; the setup
//! (evaluator, pair list) and the verdict allocate a fixed amount, so the
//! two runs report the same allocation count iff exploring a node
//! allocates nothing. An arrival is measured the same way, as one
//! `Analysis::push` + `pop` on two set sizes. The shim counts per thread,
//! so tests running side by side do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use msmr_dca::{Analysis, DelayBoundKind};
use msmr_model::{Job, JobBuilder};
use msmr_sched::{Budget, OptPairwise, SolveCtx, Solver, Verdict, VerdictKind};
use msmr_workload::{EdgeWorkloadConfig, EdgeWorkloadGenerator};

struct CountingAllocator;

thread_local! {
    // A const-initialised `Cell` has no destructor, so the allocator can
    // touch it at any point of a thread's life without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// A deliberately deep instance: this fixed-seed 20-job edge case needs
/// ~204k search nodes before the first feasible assignment is reached, so
/// any truncating budget below that explores a large tree and never
/// allocates a solution witness.
fn hard_instance() -> msmr_model::JobSet {
    let config = EdgeWorkloadConfig::default()
        .with_jobs(20)
        .with_infrastructure(4, 3)
        .with_beta(0.2);
    EdgeWorkloadGenerator::new(config)
        .expect("valid configuration")
        .generate_seeded(1)
}

#[test]
fn opt_search_nodes_do_not_allocate() {
    let jobs = hard_instance();
    let solver = OptPairwise::new(DelayBoundKind::EdgeHybrid);
    let ctx_with_limit = |node_limit: u64| {
        let ctx = SolveCtx::with_budget(&jobs, Budget::default().with_node_limit(node_limit));
        let _ = ctx.analysis();
        ctx
    };

    // Warm-up: make sure any one-time lazy allocation happens outside the
    // measured runs.
    let _ = solver.solve(&ctx_with_limit(16));

    // The libtest harness may allocate concurrently (timers, capture
    // buffers), so measure each budget several times and take the minimum
    // — the search itself is deterministic.
    let measure = |node_limit: u64| {
        let ctx = ctx_with_limit(node_limit);
        let mut best: Option<(Verdict, u64)> = None;
        for _ in 0..5 {
            let (verdict, allocs) = allocations(|| solver.solve(&ctx));
            if best.as_ref().is_none_or(|(_, b)| allocs < *b) {
                best = Some((verdict, allocs));
            }
        }
        best.expect("at least one measurement")
    };
    let (small, allocs_small) = measure(1_000);
    let (large, allocs_large) = measure(100_000);

    // The two runs must actually have explored very different node counts,
    // with no solution witness allocated in either.
    assert_eq!(small.stats.nodes_explored, 1_000);
    assert_eq!(large.stats.nodes_explored, 100_000);
    assert_eq!(small.kind, VerdictKind::Undecided);
    assert_eq!(large.kind, VerdictKind::Undecided);

    assert_eq!(
        allocs_small, allocs_large,
        "allocation count grew with the node count: {} allocations at {} nodes vs {} at {}",
        allocs_small, small.stats.nodes_explored, allocs_large, large.stats.nodes_explored
    );
}

/// The builder that re-creates `job` (at whatever id it is pushed to).
fn builder(job: &Job) -> JobBuilder {
    Job::builder()
        .arrival(job.arrival())
        .deadline(job.deadline())
        .stages(
            job.processing_times()
                .iter()
                .copied()
                .zip(job.resources().iter().copied()),
        )
}

#[test]
fn an_arrival_allocates_independently_of_the_set_size() {
    // Both sizes stay at or below 128 jobs, where a `JobMask` is inline.
    let arrival_allocations = |jobs: usize| {
        let config = EdgeWorkloadConfig::default()
            .with_jobs(jobs + 1)
            .with_infrastructure(4, 3)
            .with_beta(0.2);
        let mut set = EdgeWorkloadGenerator::new(config)
            .expect("valid configuration")
            .generate_seeded(3);
        let arrival = set.pop().expect("one job to arrive");
        let mut analysis = Analysis::owned(set);
        let mut arrive = || {
            analysis.push(builder(&arrival)).expect("valid arrival");
            analysis.pop().expect("the arrival");
        };
        // Warm-up: the first arrival grows the tables' capacity.
        arrive();
        allocations(arrive).1
    };
    let (small, large) = (arrival_allocations(16), arrival_allocations(64));
    assert_eq!(
        small, large,
        "one arrival allocated {small} times at 16 jobs but {large} times at 64"
    );
}
