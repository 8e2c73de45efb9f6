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

/// Participants for a parallel phase of `work` units when `threads` are
/// requested and every participant past the first needs
/// `per_participant` units: one more than the number of whole
/// `per_participant` blocks in `work`, capped at `threads`. A phase below
/// one block runs on the caller without entering the pool.
///
/// Handing a region to the pool costs a fixed wake-up and barrier
/// round-trip `h`. A second participant pays only once the work it takes
/// over costs more than that, so each kernel counts its work in the unit
/// its per-item cost scales with and states its own block size, derived
/// from `h` and that cost: [`BFS_VERTICES_PER_PARTICIPANT`],
/// [`KCORE_EDGES_PER_PARTICIPANT`] and [`BF_EDGES_PER_PARTICIPANT`].
///
/// Only frontier phases, whose size swings from one vertex to most of the
/// graph, ask for this: BFS levels, k-core waves, Bellman-Ford rounds and
/// Δ-stepping bucket passes, all through
/// [`RoundWork`](crate::frontier::RoundWork). Full-graph sweeps and
/// [`par_map`]'s heavy items use the requested count as is.
///
/// # Example
///
/// ```
/// use heteromap_kernels::par::phase_threads;
///
/// assert_eq!(phase_threads(99, 4, 100), 1);
/// assert_eq!(phase_threads(100, 4, 100), 2);
/// assert_eq!(phase_threads(10_000, 4, 100), 4);
/// assert_eq!(phase_threads(10_000, 0, 100), 1);
/// ```
pub fn phase_threads(work: usize, threads: usize, per_participant: usize) -> usize {
    threads.max(1).min(1 + work / per_participant.max(1))
}

/// Frontier vertices a top-down BFS level needs per extra participant.
///
/// An empty 2-participant region takes `h ≈ 15 µs` on a 2-vCPU x86-64
/// VM, and a top-down BFS vertex takes `c ≈ 33–54 ns` at one thread
/// (grid-180: 359 levels, 1.1–1.3 ms; uniform, average degree 3:
/// 42–54 ns). A second participant saves at most `k·c / 2` of a `k`-vertex
/// level, so it pays only once `k > 2h / c`: 550–950 vertices. 512 sits
/// just below the break-even, so a level that could gain from a second
/// participant keeps it, while the hundreds of sub-200-vertex levels of a
/// mesh run inline. BFS counts vertices, not edges: a level's claims are
/// one uncontended CAS per edge, and the per-vertex cost above already
/// holds the average degree of the graphs it was measured on.
///
/// ```
/// use heteromap_kernels::par::{phase_threads, BFS_VERTICES_PER_PARTICIPANT as B};
///
/// assert_eq!(phase_threads(B - 1, 2, B), 1);
/// assert_eq!(phase_threads(B, 2, B), 2);
/// ```
pub const BFS_VERTICES_PER_PARTICIPANT: usize = 512;

/// Frontier in-edges a k-core peeling wave needs per extra participant.
///
/// A wave's work is one `fetch_update` per in-edge of its vertices. If an
/// edge costs `c₁` alone and `c₂` to each of two participants running at
/// once, a second participant saves `e·(c₁ − c₂/2)` of an `e`-edge wave
/// and costs the hand-off `h`, so it pays only once
/// `e > h / (c₁ − c₂/2)`. On a 2-vCPU x86-64 VM, `h ≈ 10–14 µs`, and
/// in-edge decrements cost `c₁ ≈ 8.0–9.3 ns` alone but
/// `c₂ ≈ 16.6–18.3 ns` each at two participants, on every graph measured
/// from 59k to 2M edges (R-MAT scales 14–18, Kronecker, uniform and
/// grid). Plain loads and stores in the same pattern scale no better, so
/// the scattered decrements are bound by memory traffic the two vCPUs
/// share, not by the atomics. `c₁ − c₂/2` is at most 0.5 ns, which puts
/// the break-even above 20k edges, and 32768 = 2¹⁵ sits above it. No wave
/// of the analytics pool reaches it (the largest, on rmat-14, has 16.7k
/// in-edges), so k-core peels on one thread there. On a host whose second
/// CPU does halve the work (`c₂ ≈ c₁`), a 32k-edge wave still gains, as
/// the hand-off is under 5 % of it.
///
/// ```
/// use heteromap_kernels::par::{phase_threads, KCORE_EDGES_PER_PARTICIPANT as E};
///
/// assert_eq!(phase_threads(16_724, 2, E), 1); // rmat-14's largest wave
/// assert_eq!(phase_threads(E, 2, E), 2);
/// ```
pub const KCORE_EDGES_PER_PARTICIPANT: usize = 32_768;

/// Frontier out-edges a Bellman-Ford round (or a Δ-stepping bucket pass,
/// the same relaxation) needs per extra participant.
///
/// A round relaxes every out-edge of its vertices with a CAS loop on the
/// target's distance, and an improved target also swaps its round stamp.
/// By the argument of [`KCORE_EDGES_PER_PARTICIPANT`], a second
/// participant pays once `e > h / (c₁ − c₂/2)`. On the same VM a
/// relaxation costs `c₁ ≈ 5.1–6.4 ns` alone on R-MAT and Kronecker graphs
/// and 11–14 ns on uniform and grid ones, against `c₂ ≈ 11.3–15.7` and
/// 22–28 ns each at two participants: `c₂/2` is within 1 ns of `c₁`, so
/// the break-even is above 11k edges, and is not reached at all where
/// `c₂ > 2c₁`. 32768 sits above it. On the analytics pool only the two or
/// three widest rounds of the 8k- and 16k-vertex R-MAT and Kronecker
/// graphs reach it.
///
/// ```
/// use heteromap_kernels::par::{phase_threads, BF_EDGES_PER_PARTICIPANT as E};
///
/// assert_eq!(phase_threads(E - 1, 2, E), 1);
/// assert_eq!(phase_threads(99_748, 2, E), 2); // rmat-14's widest round
/// assert_eq!(phase_threads(99_748, 4, E), 4);
/// ```
pub const BF_EDGES_PER_PARTICIPANT: usize = 32_768;

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
    fn dynamic_scheduler_survives_grain_beyond_u32() {
        // Regression: the seed's `AtomicU32` cursor truncated `grain as u32`
        // and wrapped for large `n`; a grain past `u32::MAX` must now cover
        // the range in one claim instead of re-running chunks forever.
        let n = 257;
        let grain = u32::MAX as usize + 10;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        Scheduler::Dynamic { grain }.for_each(n, 4, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dynamic_scheduler_cursor_does_not_overflow_on_huge_grains() {
        // `start + grain` saturates instead of overflowing `usize`.
        let n = 12;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        Scheduler::Dynamic { grain: usize::MAX }.for_each(n, 3, |r| {
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
        let dynamic = |grain| Scheduler::Dynamic { grain };
        for (sched, n, threads) in [
            (Scheduler::Static, 333, 5),
            (dynamic(7), 333, 5),
            (Scheduler::Static, 1003, 7),
            (dynamic(16), 501, 5),
            // Zero items: no chunk may reach `work`.
            (Scheduler::Static, 0, 4),
            (dynamic(16), 0, 4),
        ] {
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            sched.for_each(n, threads, |r| {
                assert!(!r.is_empty(), "{sched:?}: empty chunk");
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?} n={n} threads={threads}"
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
    fn phase_threads_grows_one_participant_per_block() {
        for block in [
            BFS_VERTICES_PER_PARTICIPANT,
            KCORE_EDGES_PER_PARTICIPANT,
            BF_EDGES_PER_PARTICIPANT,
        ] {
            assert_eq!(phase_threads(0, 4, block), 1);
            assert_eq!(phase_threads(block - 1, 16, block), 1);
            assert_eq!(phase_threads(block, 16, block), 2);
            assert_eq!(phase_threads(3 * block - 1, 16, block), 3);
            assert_eq!(phase_threads(usize::MAX, 16, block), 16);
            // The request is a cap, and zero threads means one.
            assert_eq!(phase_threads(10 * block, 2, block), 2);
            assert_eq!(phase_threads(10 * block, 0, block), 1);
        }
        // A zero block is read as one unit per participant.
        assert_eq!(phase_threads(3, 8, 0), 4);
    }

    #[test]
    fn default_scheduler_is_static() {
        assert_eq!(Scheduler::default(), Scheduler::Static);
    }
}
