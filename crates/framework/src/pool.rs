//! A fixed-size worker thread pool for the forest-generation compute path and
//! the serving reactor's dispatch stage.
//!
//! The K subtree problems of Algorithm 3 are embarrassingly parallel (each LP
//! instance is independent), so [`super::ForestGenerator`] fans them out over
//! this pool; [`crate::TcpServer`] uses a second instance to keep blocking
//! service calls off the reactor thread.  The implementation is deliberately
//! plain `std::thread` + `std::sync::mpsc` — the offline build environment has
//! no async runtime, and the workload is CPU-bound batch compute.
//!
//! # Panic safety
//!
//! A panicking job can never shrink the pool of a long-lived server: each
//! worker runs every job under `catch_unwind` and goes on to the next one.
//!
//! * jobs submitted through [`ThreadPool::try_run_ordered`] return the panic
//!   to the submitter as a structured [`JobPanic`];
//! * a raw [`ThreadPool::execute`] job that panics is reported by the panic
//!   hook as usual, then caught at the job boundary.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A task submitted to the pool panicked; carries the stringified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Best-effort stringification of a panic payload (shared with the caching
/// layer's leader-panic containment).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// State shared by the pool handle and its workers.
struct PoolShared {
    receiver: Mutex<Receiver<Job>>,
    /// Jobs submitted but not yet finished (queued + running); the signal
    /// admission control reads to decide whether the pool is saturated.
    outstanding: AtomicUsize,
}

/// A fixed-size pool of worker threads executing boxed jobs from a shared queue.
///
/// Dropping the pool closes the queue and joins every worker, so pending jobs
/// finish before the drop returns.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    ///
    /// Pass 0 to size the pool to [`std::thread::available_parallelism`].
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let (sender, receiver) = channel::<Job>();
        let shared = Arc::new(PoolShared {
            receiver: Mutex::new(receiver),
            outstanding: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("corgi-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            shared,
            workers,
        }
    }

    /// Number of worker threads the pool maintains.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted but not yet finished: queued plus currently running.
    ///
    /// A backlog persistently above [`ThreadPool::threads`] means submitters
    /// are producing work faster than the workers retire it; the serving
    /// reactor's admission control sheds requests once this crosses its
    /// configured bound instead of letting the queue (and every queued
    /// request's latency) grow without limit.
    pub fn backlog(&self) -> usize {
        self.shared.outstanding.load(Ordering::Acquire)
    }

    /// Enqueue a job for execution on some worker.
    ///
    /// If the job panics, the panic hook reports it as usual and the worker
    /// catches the unwind and takes the next job; use
    /// [`ThreadPool::try_run_ordered`] when the submitter needs the outcome.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
        self.sender
            .as_ref()
            .expect("pool is live until dropped")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Run a batch of tasks across the pool, returning each task's outcome in
    /// task order with panics captured as [`JobPanic`] errors instead of
    /// unwinding.  Blocks the calling thread until every task has finished.
    pub fn try_run_ordered<T, F>(&self, tasks: Vec<F>) -> Vec<Result<T, JobPanic>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        let (result_tx, result_rx) = channel::<(usize, Result<T, JobPanic>)>();
        for (index, task) in tasks.into_iter().enumerate() {
            let tx = result_tx.clone();
            self.execute(move || {
                // Contain the unwind at the job boundary: the submitter gets
                // the outcome and the worker survives for the next job.
                let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(|payload| JobPanic {
                    message: panic_message(payload.as_ref()),
                });
                // A send failure means the caller stopped listening; fine.
                let _ = tx.send((index, outcome));
            });
        }
        drop(result_tx);
        let mut slots: Vec<Option<Result<T, JobPanic>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (index, outcome) = result_rx
                .recv()
                .expect("every submitted task sends exactly one result");
            slots[index] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("all indices filled"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the queue so workers drain it and exit, then join them.  The
        // last handle can drop inside a job (a reactor task it completes
        // holds the pool); that worker exits once the job returns and cannot
        // join itself.
        drop(self.sender.take());
        let current = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != current {
                let _ = worker.join();
            }
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        // Hold the queue lock only while popping, never while running a job.
        let job = {
            let guard = shared.receiver.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(job) = job else { return };
        // The panic hook has already reported a panicking job; catching the
        // unwind keeps the worker serving and the backlog decrement below
        // unskipped (a phantom backlog entry would eventually wedge admission
        // control into shedding everything).
        let _ = catch_unwind(AssertUnwindSafe(job));
        shared.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers, so every job has run
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn the_last_handle_may_drop_inside_a_job() {
        // A reactor task completed by a job can hold the pool's last handle;
        // dropping it there must not make the worker join itself.
        let pool = Arc::new(ThreadPool::new(2));
        let last = Arc::clone(&pool);
        let (go, wait_for_go) = std::sync::mpsc::channel::<()>();
        let (done, until_done) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            wait_for_go.recv().unwrap();
            drop(last);
            done.send(()).unwrap();
        });
        drop(pool);
        go.send(()).unwrap();
        until_done
            .recv_timeout(Duration::from_secs(10))
            .expect("the job ran past dropping the pool's last handle");
    }

    #[test]
    fn try_run_ordered_preserves_task_order() {
        let pool = ThreadPool::new(3);
        let tasks: Vec<_> = (0..50).map(|i| move || i * i).collect();
        assert_eq!(
            pool.try_run_ordered(tasks),
            (0..50).map(|i| Ok(i * i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_threads_falls_back_to_available_parallelism() {
        let pool = ThreadPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(pool.try_run_ordered(vec![|| 7]), vec![Ok(7)]);
    }

    #[test]
    fn try_run_ordered_surfaces_panics_as_job_errors() {
        let pool = ThreadPool::new(2);
        let outcomes = pool.try_run_ordered(vec![
            Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
            Box::new(|| panic!("LP solver exploded")),
            Box::new(|| 3u32),
        ]);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0], Ok(1));
        let err = outcomes[1].as_ref().unwrap_err();
        assert!(err.message.contains("LP solver exploded"), "{err}");
        assert!(err.to_string().contains("pool job panicked"));
        assert_eq!(outcomes[2], Ok(3));
        // The workers survived (the unwind was contained at the job
        // boundary) and the pool still runs batches.
        assert_eq!(pool.try_run_ordered(vec![|| 1, || 2]), vec![Ok(1), Ok(2)]);
    }

    #[test]
    fn a_panicking_execute_job_leaves_every_worker_serving() {
        // After a raw `execute` job panics, `threads()` jobs that meet at a
        // barrier of that size can only all finish if every worker is still
        // taking jobs.
        let pool = ThreadPool::new(3);
        pool.execute(|| panic!("poison attempt"));
        let barrier = Arc::new(Barrier::new(pool.threads()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..pool.threads() {
            let (barrier, done_tx) = (Arc::clone(&barrier), done_tx.clone());
            pool.execute(move || {
                barrier.wait();
                let _ = done_tx.send(());
            });
        }
        let all_finished =
            (0..pool.threads()).all(|_| done_rx.recv_timeout(Duration::from_secs(10)).is_ok());
        if !all_finished {
            // Dropping the pool would join a worker stuck at the barrier.
            std::mem::forget(pool);
        }
        assert!(all_finished, "a worker stopped taking jobs after a panic");
    }

    #[test]
    fn backlog_tracks_outstanding_jobs_and_drains_to_zero() {
        let pool = ThreadPool::new(1);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        // One job occupies the single worker until released; more queue up.
        for _ in 0..4 {
            let gate_rx = Arc::clone(&gate_rx);
            pool.execute(move || {
                let _ = gate_rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
            });
        }
        assert_eq!(pool.backlog(), 4, "queued + running jobs all count");
        for _ in 0..4 {
            gate_tx.send(()).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.backlog() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.backlog(), 0, "finished jobs leave no phantom backlog");
    }

    #[test]
    fn backlog_decrements_when_a_job_panics() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("sheds must not wedge"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.backlog() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.backlog(), 0, "panicked job still decrements");
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = ThreadPool::new(2);
        for round in 0..5u64 {
            let tasks: Vec<_> = (0..8u64).map(|i| move || round + i).collect();
            let out = pool.try_run_ordered(tasks);
            assert_eq!(out, (0..8).map(|i| Ok(round + i)).collect::<Vec<_>>());
        }
    }
}
