//! Minimal data-parallel helpers on the persistent pool.
//!
//! Every helper funnels through [`run_threads`], which executes parallel
//! regions on the process-wide [`crate::pool::ThreadPool`]; [`par_map`] is
//! the index-ordered fan-out built on it.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Work-distribution policy for a parallel loop — the host realization of
/// the paper's `OMP for schedule` machine choice (`M11`) and chunk size
/// (`M12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Contiguous static ranges, one per thread (`schedule(static)`).
    #[default]
    Static,
    /// Threads grab `grain`-sized chunks from a shared cursor
    /// (`schedule(dynamic, grain)`).
    Dynamic {
        /// Chunk size each thread claims at a time.
        grain: usize,
    },
}

impl Scheduler {
    /// Runs `work` over `0..n` on `threads` threads under this policy.
    pub fn for_each<F>(&self, n: usize, threads: usize, work: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        self.for_each_worker(n, threads, |_, range| work(range));
    }

    /// Like [`Scheduler::for_each`] but also hands `work` the index of the
    /// worker executing the chunk (`0..threads`), so callers can keep
    /// per-worker state — local frontier buffers, scratch arrays — without
    /// locks. A worker may receive many chunks under dynamic scheduling.
    pub fn for_each_worker<F>(&self, n: usize, threads: usize, work: F)
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        match *self {
            Scheduler::Static => {
                let threads = threads.max(1).min(n.max(1));
                let chunk = n.div_ceil(threads);
                run_threads(threads, |t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    if lo < hi {
                        work(t, lo..hi);
                    }
                });
            }
            Scheduler::Dynamic { grain } => {
                let cursor = AtomicUsize::new(0);
                let grain = grain.max(1);
                run_threads(threads, |t| loop {
                    let start = cursor.fetch_add(grain, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = start.saturating_add(grain).min(n);
                    work(t, start..end);
                });
            }
        }
    }
}

/// Runs `work` on `threads` workers, each receiving its worker index, on
/// the persistent [`ThreadPool`](crate::pool::ThreadPool); the caller is
/// worker 0 and the call is a full barrier. `threads <= 1` runs inline.
///
/// Regions on the global pool do not nest: `work` must not enter another
/// parallel region with more than one thread (the region mutex is not
/// re-entrant, so a nested region deadlocks).
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn run_threads<F>(threads: usize, work: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        work(0);
        return;
    }
    crate::pool::ThreadPool::global().run(threads, work);
}

/// Computes `f(i)` for every `i in 0..n` on up to `threads` pool
/// participants and returns the results in index order — the one ordered
/// fan-out every deterministic round loop and parallel evaluator uses.
///
/// Participants claim indices one at a time through
/// [`Scheduler::Dynamic`] with `grain: 1`, and each result lands in its own
/// per-index slot, so the output never depends on which participant
/// computed what. `threads` is clamped to `n`; `threads <= 1` runs inline.
///
/// The same no-nesting rule as [`run_threads`] applies: `f` must not enter
/// another parallel region with more than one thread.
///
/// # Panics
///
/// Propagates panics from `f`.
///
/// # Example
///
/// ```
/// use heteromap_kernels::par::par_map;
///
/// assert_eq!(par_map(5, 3, |i| i * i), vec![0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    Scheduler::Dynamic { grain: 1 }.for_each(n, threads, |range| {
        for i in range {
            let value = f(i);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
        }
    });
    take_slots(slots)
}

/// Splits `0..n` into `threads` contiguous ranges and runs `work(range)` in
/// parallel. Ranges are balanced to within one element.
pub fn par_ranges<F>(n: usize, threads: usize, work: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    Scheduler::Static.for_each(n, threads, work);
}

/// Dynamic work distribution: threads grab `grain`-sized chunks of `0..n`
/// from a shared cursor (the "OMP dynamic schedule" of the paper's M11).
/// The cursor is an `AtomicUsize`, so `n` near `u32::MAX` and grains larger
/// than `u32::MAX` are handled without wrapping or truncation.
pub fn par_dynamic<F>(n: usize, threads: usize, grain: usize, work: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    Scheduler::Dynamic { grain }.for_each(n, threads, work);
}

/// Splits `data` into up to `threads` contiguous chunks, runs
/// `work(offset, chunk)` on each in parallel, and returns the chunks'
/// results in chunk order; `offset` is the chunk's start index in `data`.
/// Each chunk is an exclusive `&mut` — the pool-friendly replacement for
/// spawning scoped threads over `chunks_mut`. Chunk boundaries depend only
/// on `data.len()` and `threads`, so folding the results in order is a
/// reduction that is deterministic at every fixed thread count.
pub fn par_chunks_mut<T, R, F>(data: &mut [T], threads: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(threads.max(1).min(n));
    let chunks = n.div_ceil(chunk);
    struct Base<T>(*mut T);
    // SAFETY: workers only dereference disjoint ranges of the allocation.
    unsafe impl<T: Send> Sync for Base<T> {}
    impl<T> Base<T> {
        // Accessor so closures capture the whole (Sync) wrapper rather
        // than the raw-pointer field (2021 disjoint capture).
        fn get(&self) -> *mut T {
            self.0
        }
    }
    let base = Base(data.as_mut_ptr());
    let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    run_threads(chunks, |t| {
        let lo = t * chunk;
        let hi = (lo + chunk).min(n);
        // SAFETY: each worker index runs exactly once, so the `lo..hi`
        // ranges partition `data` into non-overlapping slices; the
        // barrier in `run_threads` keeps `data` borrowed for the whole
        // region.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
        let result = work(lo, slice);
        *slots[t].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
    });
    take_slots(slots)
}

/// Unwraps the per-index result slots of a finished parallel region.
fn take_slots<T>(slots: Vec<Mutex<Option<T>>>) -> Vec<T> {
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every index is claimed exactly once")
        })
        .collect()
}

/// Atomically lowers `slot` to `min(slot, value)` for f32 bit-packed in
/// `AtomicU32`. Returns `true` if the value was lowered.
///
/// Relies on the fact that for non-negative finite f32 values the bit pattern
/// ordering matches numeric ordering.
pub fn atomic_min_f32(slot: &AtomicU32, value: f32) -> bool {
    debug_assert!(value >= 0.0, "atomic_min_f32 requires non-negative values");
    let new_bits = value.to_bits();
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if f32::from_bits(cur) <= value {
            return false;
        }
        match slot.compare_exchange_weak(cur, new_bits, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_ranges_covers_everything_once() {
        let n = 1003;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_ranges(n, 7, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_dynamic_covers_everything_once() {
        let n = 501;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_dynamic(n, 5, 16, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_dynamic_survives_grain_beyond_u32() {
        // Regression: the seed's `AtomicU32` cursor truncated `grain as u32`
        // and wrapped for large `n`; a grain past `u32::MAX` must now cover
        // the range in one claim instead of re-running chunks forever.
        let n = 257;
        let grain = u32::MAX as usize + 10;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_dynamic(n, 4, grain, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_dynamic_cursor_does_not_overflow_on_huge_grains() {
        // `start + grain` saturates instead of overflowing `usize`.
        let n = 12;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_dynamic(n, 3, usize::MAX, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_runs_inline() {
        let count = AtomicUsize::new(0);
        run_threads(1, |t| {
            assert_eq!(t, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn atomic_min_lowers_concurrently() {
        let slot = AtomicU32::new(f32::INFINITY.to_bits());
        run_threads(8, |t| {
            atomic_min_f32(&slot, 100.0 - t as f32);
        });
        assert_eq!(f32::from_bits(slot.load(Ordering::Relaxed)), 93.0);
    }

    #[test]
    fn atomic_min_refuses_higher_values() {
        let slot = AtomicU32::new(1.0f32.to_bits());
        assert!(!atomic_min_f32(&slot, 2.0));
        assert_eq!(f32::from_bits(slot.load(Ordering::Relaxed)), 1.0);
    }

    #[test]
    fn par_ranges_with_zero_items_is_noop() {
        par_ranges(0, 4, |_| panic!("no work expected"));
    }

    #[test]
    fn par_chunks_mut_partitions_exactly() {
        let mut data = vec![0usize; 1003];
        par_chunks_mut(&mut data, 7, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = offset + i + 1;
            }
        });
        // Every element written exactly once with its own index.
        assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn par_chunks_mut_handles_empty_and_tiny() {
        let mut empty: Vec<u32> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| panic!("no work expected"));
        let mut tiny = vec![0u32; 2];
        par_chunks_mut(&mut tiny, 8, |offset, chunk| {
            for slot in chunk.iter_mut() {
                *slot = offset as u32 + 10;
            }
        });
        assert_eq!(tiny, vec![10, 11]);
    }

    #[test]
    fn par_chunks_mut_returns_results_in_chunk_order() {
        let mut data = vec![0u8; 1003];
        for threads in [1, 3, 7, 16] {
            let spans = par_chunks_mut(&mut data, threads, |offset, chunk| (offset, chunk.len()));
            assert!(spans.len() <= threads, "threads={threads}");
            // The spans tile `0..n` in order.
            let mut next = 0;
            for (offset, len) in spans {
                assert_eq!(offset, next, "threads={threads}");
                next += len;
            }
            assert_eq!(next, data.len(), "threads={threads}");
        }
    }

    #[test]
    fn schedulers_cover_everything_once() {
        for sched in [Scheduler::Static, Scheduler::Dynamic { grain: 7 }] {
            let n = 333;
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            sched.for_each(n, 5, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?}"
            );
        }
    }

    #[test]
    fn for_each_worker_reports_valid_indices() {
        for sched in [Scheduler::Static, Scheduler::Dynamic { grain: 16 }] {
            let threads = 5;
            let n = 400;
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            sched.for_each_worker(n, threads, |worker, r| {
                assert!(worker < threads, "{sched:?}: worker {worker}");
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?}"
            );
        }
    }

    #[test]
    fn par_map_returns_results_in_index_order() {
        let serial: Vec<String> = (0..257).map(|i| format!("v{}", i * 7)).collect();
        for threads in [1, 2, 4, 16, 1000] {
            assert_eq!(
                par_map(257, threads, |i| format!("v{}", i * 7)),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_calls_f_once_per_index() {
        let calls = AtomicUsize::new(0);
        let out = par_map(100, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn par_map_handles_empty_input() {
        let out: Vec<u8> = par_map(0, 8, |_| panic!("no work expected"));
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            par_map(16, 4, |i| {
                assert_ne!(i, 11, "index 11 fails");
                i
            })
        });
        assert!(result.is_err());
        // The pool stays usable after a participant panicked.
        assert_eq!(par_map(3, 2, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn default_scheduler_is_static() {
        assert_eq!(Scheduler::default(), Scheduler::Static);
    }
}
