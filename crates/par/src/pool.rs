//! A fixed-size worker-pool executor with a bounded submission queue and
//! typed backpressure.
//!
//! [`parallel_map`](crate::parallel_map) fans a *known batch* out and
//! joins; services need the dual shape: a long-lived pool that accepts
//! work one task at a time and **refuses** — rather than buffers without
//! bound — when the system is saturated. [`WorkerPool`] provides exactly
//! that on `std::thread` + `Mutex`/`Condvar` (the container cannot fetch
//! an async runtime), so the admission daemon can hand every solve that
//! would wait — for a busy session, or behind queued work — to a worker
//! thread, while uncontended decider-only ops run on the connection
//! thread.
//!
//! Backpressure is *typed*: [`WorkerPool::try_submit`] returns
//! [`SubmitError::Saturated`] with the observed queue depth instead of
//! blocking, so callers (the cluster connection loop) can answer the
//! client with a structured overload response it can retry on.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work for the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Why a [`WorkerPool::try_submit`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full: the caller should shed or retry later.
    Saturated {
        /// Tasks waiting in the queue at refusal time.
        queued: usize,
        /// The queue capacity the pool was built with.
        capacity: usize,
    },
    /// The pool is shutting down and accepts no further work.
    Terminated,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated { queued, capacity } => {
                write!(
                    f,
                    "worker pool saturated ({queued}/{capacity} tasks queued)"
                )
            }
            SubmitError::Terminated => write!(f, "worker pool is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct PoolState {
    queue: VecDeque<Task>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a task is queued or shutdown is requested.
    work: Condvar,
    capacity: usize,
}

/// A fixed-size pool of worker threads draining a bounded task queue.
///
/// Tasks run in submission order (single FIFO queue, any idle worker
/// picks the front). The queue bound counts *waiting* tasks only — a
/// pool with `workers = 4, capacity = 16` has at most 20 tasks admitted
/// but not finished. Dropping the pool (or calling
/// [`WorkerPool::shutdown`]) drains the remaining queue, then joins the
/// workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to ≥ 1) behind a queue of
    /// `capacity` waiting tasks (clamped to ≥ 1).
    #[must_use]
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            capacity: capacity.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// The number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The submission-queue capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Tasks currently waiting in the queue (not yet picked by a worker).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .queue
            .len()
    }

    /// Queues `task` without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] when the queue is at capacity,
    /// [`SubmitError::Terminated`] after shutdown.
    pub fn try_submit(&self, task: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        if state.shutdown {
            return Err(SubmitError::Terminated);
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(SubmitError::Saturated {
                queued: state.queue.len(),
                capacity: self.shared.capacity,
            });
        }
        state.queue.push_back(Box::new(task));
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Stops accepting work, drains the queued tasks and joins the
    /// workers. Equivalent to dropping the pool, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                if let Some(task) = state.queue.pop_front() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).expect("pool lock poisoned");
            }
        };
        // A panicking task must not shrink the pool: with every worker
        // dead, try_submit would keep accepting tasks nobody runs and
        // the submitters' response channels would never close — a
        // silent total outage. The queue lock is released while the
        // task runs, so nothing is poisoned; the panic is contained to
        // the task (its channel senders drop, which is how submitters
        // observe the failure).
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_tasks() {
        let pool = WorkerPool::new(3, 32);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.try_submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            })
            .unwrap();
        }
        for _ in 0..20 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn saturation_is_a_typed_refusal() {
        let pool = WorkerPool::new(1, 2);
        // Park the single worker so queued tasks pile up.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();

        pool.try_submit(|| {}).unwrap();
        pool.try_submit(|| {}).unwrap();
        let refusal = pool.try_submit(|| {}).unwrap_err();
        assert_eq!(
            refusal,
            SubmitError::Saturated {
                queued: 2,
                capacity: 2
            }
        );
        assert!(refusal.to_string().contains("saturated"));
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        let pool = WorkerPool::new(2, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.try_submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn tasks_run_in_submission_order_on_one_worker() {
        let pool = WorkerPool::new(1, 64);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        for i in 0..10usize {
            let order = Arc::clone(&order);
            let tx = tx.clone();
            pool.try_submit(move || {
                order.lock().unwrap().push(i);
                tx.send(()).unwrap();
            })
            .unwrap();
        }
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_tasks_do_not_kill_workers() {
        let pool = WorkerPool::new(1, 8);
        // Panic the single worker's current task several times…
        for _ in 0..3 {
            pool.try_submit(|| panic!("task panic")).unwrap();
        }
        // …and the same worker must still run later tasks.
        let (tx, rx) = mpsc::channel();
        pool.try_submit(move || tx.send(()).unwrap()).unwrap();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("worker survived the panicking tasks");
    }

    #[test]
    fn zero_sizes_are_clamped() {
        let pool = WorkerPool::new(0, 0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.capacity(), 1);
        let (tx, rx) = mpsc::channel();
        pool.try_submit(move || tx.send(()).unwrap()).unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }
}
