//! A persistent worker pool — the `--batch`/`--jobs` machinery,
//! generalized so one scheduler serves both the one-shot batch driver
//! and the long-running `cundef serve` daemon.
//!
//! The pool is a shared FIFO of boxed jobs drained by `workers` OS
//! threads, each on a [`CHECK_STACK_BYTES`] stack so a check stops at
//! the same recursion depth as on a one-shot run's main thread.
//! [`WorkerPool::run`] is lock + push + notify; workers park on a
//! condvar when the queue is dry. Each job returns its own result on a
//! one-slot channel, so the worker never blocks on delivery.

use crate::check::{check_file, CheckOptions, Checked};
use cundef_semantics::eval::CHECK_STACK_BYTES;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between submitters and workers.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// No further jobs will be submitted; workers drain and exit.
    closed: bool,
}

/// A fixed-size pool of worker threads draining a shared job queue.
/// Dropping it runs every queued job and joins the workers.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (minimum 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .stack_size(CHECK_STACK_BYTES)
                    .spawn(move || loop {
                        let job = {
                            let mut q = shared.queue.lock().expect("pool queue poisoned");
                            loop {
                                if let Some(job) = q.jobs.pop_front() {
                                    break job;
                                }
                                if q.closed {
                                    return;
                                }
                                q = shared.available.wait(q).expect("pool queue poisoned");
                            }
                        };
                        job();
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The machine's available parallelism (the `--jobs` default).
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Enqueue `job`; its result arrives on the returned receiver. A job
    /// that panics drops its sender, so `recv` fails instead of waiting.
    pub fn run<T: Send + 'static>(
        &self,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> mpsc::Receiver<T> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .push_back(Box::new(move || {
                let _ = tx.send(job());
            }));
        self.shared.available.notify_one();
        rx
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Ok(mut q) = self.shared.queue.lock() {
            q.closed = true;
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Check `files` across the pool's workers. Every worker runs its own
/// parser + analyzer + evaluator (translation units share nothing).
/// Results come back in input order for the main thread to render,
/// keeping every format's output byte-identical to a sequential run.
///
/// Duplicate paths are checked **once**: each repeated occurrence
/// replays a clone of the first occurrence's result. Checking is
/// deterministic for fixed bytes + options, so the replay is
/// byte-identical to what a redundant re-check would have printed —
/// the run is just `O(unique)` instead of `O(inputs)`.
pub fn check_batch(files: &[String], jobs: Option<usize>, opts: &CheckOptions) -> Vec<Checked> {
    // Unique paths in first-occurrence order; map every input index to
    // its unique slot.
    let mut slot_of_path: HashMap<&str, usize> = HashMap::with_capacity(files.len());
    let mut unique: Vec<&String> = Vec::with_capacity(files.len());
    let slot_of_input: Vec<usize> = files
        .iter()
        .map(|f| {
            *slot_of_path.entry(f.as_str()).or_insert_with(|| {
                unique.push(f);
                unique.len() - 1
            })
        })
        .collect();

    let workers = jobs
        .unwrap_or_else(WorkerPool::default_workers)
        .min(unique.len().max(1));
    let pool = WorkerPool::new(workers);
    let pending: Vec<mpsc::Receiver<Checked>> = unique
        .iter()
        .map(|path| {
            let path = (*path).clone();
            let opts = *opts;
            pool.run(move || check_file(&path, &opts))
        })
        .collect();
    // Joining first means every result is already buffered, so the main
    // thread wakes once rather than per file.
    drop(pool);
    let results: Vec<Checked> = pending
        .into_iter()
        .map(|rx| rx.recv().expect("every file checked"))
        .collect();
    slot_of_input
        .into_iter()
        .map(|i| results[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::WorkerPool;

    /// Every job answers on its own receiver, whatever order the workers
    /// finish in, and a job that panics leaves its receiver to fail
    /// rather than wait forever.
    #[test]
    fn each_job_answers_on_its_own_receiver() {
        let pool = WorkerPool::new(2);
        let answers: Vec<_> = (0..8u64).map(|i| pool.run(move || i * i)).collect();
        let panicked = pool.run(|| -> u64 { panic!("job panics") });
        for (i, rx) in (0..8u64).zip(answers) {
            assert_eq!(rx.recv(), Ok(i * i));
        }
        assert!(panicked.recv().is_err());
    }
}
