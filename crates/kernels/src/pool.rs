//! Persistent worker-thread pool — the execution engine behind every
//! parallel kernel loop and every [`crate::par::par_map`] fan-out.
//!
//! The paper's deployment step assumes the predicted `M` configuration runs
//! on an accelerator whose execution resources already exist; spawning and
//! joining fresh scoped OS threads inside every parallel region charges a
//! thread-creation tax once per BFS level and twice per PageRank iteration,
//! which dwarfs the actual edge work on small and medium graphs. This pool spawns each
//! worker once, parks it on a condvar between parallel regions, and reuses
//! it for every subsequent kernel invocation, so a full 81-combination
//! bench sweep pays thread creation `O(threads)` times instead of
//! `O(levels x iterations x combos)` times.
//!
//! Design:
//!
//! * Workers are long-lived and numbered `1..=workers`; the calling thread
//!   always participates as index `0`, so a `run(threads, f)` region uses
//!   `threads - 1` pool workers plus the caller.
//! * Jobs are published by bumping an epoch under a mutex and waking the
//!   condvar; workers whose index is `>= threads` simply sleep through that
//!   epoch. The mutex/condvar handshake on entry and exit provides the
//!   happens-before edges kernels rely on, so kernel code may use relaxed
//!   atomics inside a region and plain reads after it.
//! * The pool grows on demand (a request for more threads than workers
//!   spawns the difference) and never shrinks until dropped; `Drop` signals
//!   shutdown and joins every worker, so no threads leak.
//! * Worker panics are caught, forwarded to the caller, and re-raised
//!   there after the region's barrier — matching the propagation semantics
//!   of the scoped-thread code this replaces, without poisoning the pool.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// A type-erased, lifetime-erased handle to the caller's `Fn(usize) + Sync`
/// closure. Safety rests on `ThreadPool::run` blocking until every
/// participant has finished before the closure's stack frame can die.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is `Sync` (enforced by the `F: Sync` bound at the only
// construction site) and outlives the job (the caller blocks on the barrier).
unsafe impl Send for Job {}

impl Job {
    fn erase<F: Fn(usize) + Sync>(f: &F) -> Job {
        unsafe fn shim<F: Fn(usize) + Sync>(data: *const (), index: usize) {
            // SAFETY: `data` was erased from an `&F` that `run` keeps alive
            // until after the completion barrier.
            unsafe { (*(data as *const F))(index) }
        }
        Job {
            data: f as *const F as *const (),
            call: shim::<F>,
        }
    }
}

/// Payload of a worker panic, stashed for re-raising on the caller.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

struct State {
    /// Bumped once per published job; workers detect new work by comparing
    /// against their last-seen epoch.
    epoch: u64,
    /// The current job, present while `remaining > 0`.
    job: Option<Job>,
    /// Worker indices `1..participants` run the current job.
    participants: usize,
    /// Pool workers that have not yet finished the current job.
    remaining: usize,
    /// First worker panic of the current job, re-raised by the caller.
    panic: Option<PanicPayload>,
    /// Set once by `Drop`; workers exit at the next wakeup.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The caller parks here while workers drain the current job.
    done_cv: Condvar,
}

/// A pool of long-lived, parked worker threads executing indexed parallel
/// regions (see the module docs for the design).
///
/// # Example
///
/// ```
/// use heteromap_kernels::pool::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(3);
/// let hits = AtomicUsize::new(0);
/// pool.run(4, |_worker| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Join handles of spawned workers; guarded so `run(&self)` can grow
    /// the pool on demand.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes parallel regions: one region owns all workers at a time.
    region: Mutex<()>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.worker_count())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `workers` pre-spawned worker threads. The pool
    /// grows on demand if a region requests more parallelism.
    pub fn new(workers: usize) -> Self {
        let pool = ThreadPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    epoch: 0,
                    job: None,
                    participants: 0,
                    remaining: 0,
                    panic: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            region: Mutex::new(()),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// The process-wide pool every kernel runs on by default. Sized lazily:
    /// it starts empty and grows to the largest parallelism any region has
    /// requested.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(0))
    }

    /// Number of live pool workers (excluding callers).
    pub fn worker_count(&self) -> usize {
        self.workers.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Spawns workers until at least `target` exist.
    fn ensure_workers(&self, target: usize) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        while workers.len() < target {
            let index = workers.len() + 1;
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("heteromap-worker-{index}"))
                .spawn(move || worker_loop(shared, index))
                .expect("failed to spawn pool worker");
            workers.push(handle);
        }
    }

    /// Runs `work(t)` for every `t in 0..threads`, the caller participating
    /// as index 0, and returns once all participants have finished (a full
    /// barrier). `threads == 1` runs inline with no synchronization.
    ///
    /// # Panics
    ///
    /// Propagates panics from `work` (caller's or any worker's) after the
    /// barrier, so borrowed data is never touched past its lifetime.
    pub fn run<F>(&self, threads: usize, work: F)
    where
        F: Fn(usize) + Sync,
    {
        let threads = threads.max(1);
        // Under full tracing, sample each participant's busy time and report
        // the region to the observability layer (per-worker utilization,
        // the paper's Fig. 13 analogue). The instrumented closure adds two
        // clock reads per participant per region — negligible next to the
        // condvar handshake — and nothing at all below `Full`.
        if heteromap_obs::level() == heteromap_obs::TraceLevel::Full {
            let label = heteromap_obs::current_region_label();
            let busy: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
            let entered = Instant::now();
            self.run_inner(threads, |t| {
                let began = Instant::now();
                work(t);
                busy[t].fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
            heteromap_obs::record_region(
                label,
                entered.elapsed().as_nanos() as u64,
                busy.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            );
        } else {
            self.run_inner(threads, work);
        }
    }

    fn run_inner<F>(&self, threads: usize, work: F)
    where
        F: Fn(usize) + Sync,
    {
        if threads == 1 {
            work(0);
            return;
        }
        self.ensure_workers(threads - 1);
        // One region at a time. Regions must not nest: this mutex is not
        // re-entrant, so a participant entering a second region deadlocks.
        let _region = self.region.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert_eq!(st.remaining, 0, "previous region leaked workers");
            st.job = Some(Job::erase(&work));
            st.participants = threads;
            st.remaining = threads - 1;
            st.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        // The caller is participant 0.
        let caller = catch_unwind(AssertUnwindSafe(|| work(0)));
        // Barrier: `work` must stay alive until every worker is done.
        let worker_panic = {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.remaining > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            // A worker that panicked outside a job is already gone; either
            // way it no longer holds the Arc after join.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if index < st.participants {
                        break st.job.expect("published epoch carries a job");
                    }
                    // Not a participant this round; sleep through it.
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the caller blocks on the completion barrier, keeping
            // the closure alive; `index` is unique among participants.
            unsafe { (job.call)(job.data, index) }
        }));
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = ThreadPool::new(3);
        for threads in [1, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            pool.run(threads, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn grows_on_demand() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.worker_count(), 0);
        pool.run(5, |_| {});
        assert_eq!(pool.worker_count(), 4);
        // Shrinking requests reuse the existing workers.
        pool.run(2, |_| {});
        assert_eq!(pool.worker_count(), 4);
    }

    #[test]
    fn reuse_is_deterministic() {
        let pool = ThreadPool::new(4);
        let run_sum = || {
            let sum = AtomicUsize::new(0);
            pool.run(5, |t| {
                sum.fetch_add(t * t, Ordering::Relaxed);
            });
            sum.load(Ordering::Relaxed)
        };
        let first = run_sum();
        for _ in 0..100 {
            assert_eq!(run_sum(), first);
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, |t| {
                if t == 2 {
                    panic!("boom from worker");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable after a worker panic.
        let hits = AtomicUsize::new(0);
        pool.run(3, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_panic_propagates_after_barrier() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, |t| {
                if t == 0 {
                    panic!("boom from caller");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        // Both workers completed before the panic escaped the barrier.
        assert_eq!(finished.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn drop_terminates_all_workers() {
        let pool = ThreadPool::new(6);
        pool.run(7, |_| {});
        let probe = Arc::downgrade(&pool.shared);
        drop(pool);
        // Every worker held an Arc<Shared>; after Drop joins them all, the
        // caller's was the last and the allocation is gone — no leaked
        // threads can remain.
        assert!(probe.upgrade().is_none(), "worker threads leaked");
    }

    #[test]
    fn single_thread_runs_inline_without_workers() {
        let pool = ThreadPool::new(0);
        let hits = AtomicUsize::new(0);
        pool.run(1, |t| {
            assert_eq!(t, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.worker_count(), 0);
    }
}
