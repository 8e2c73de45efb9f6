//! Lock-free shared frontier buffers for level-synchronous traversals.
//!
//! The seed's BFS funnelled every thread's discoveries through a
//! `Mutex<Vec>` once per level; on power-law graphs whose middle levels hold
//! most of the vertices, that lock serializes exactly the part of the
//! traversal that should scale. [`SharedFrontier`] replaces it with a
//! fixed-capacity buffer and a single atomic cursor: workers accumulate
//! discoveries in per-worker local buffers and flush each batch with one
//! `fetch_add` reservation followed by a plain memcpy into the reserved
//! (disjoint) range. Two frontiers are double-buffered and reused across
//! levels, so a whole BFS allocates its frontier storage once.
//!
//! [`FrontierRounds`] is that loop, written once: the double buffer, the
//! per-worker locals, and rounds sized by [`phase_threads`]. BFS levels,
//! k-core peeling waves and Bellman-Ford relaxation rounds all run on it.

use crate::par::{phase_threads, Scheduler};
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-capacity vertex buffer supporting concurrent lock-free appends
/// from a parallel region and plain reads after the region's barrier.
///
/// Writes use a reserve-then-copy protocol: `fetch_add` on the cursor hands
/// each flush a private range, so concurrent flushes never overlap. The
/// caller must only read ([`SharedFrontier::as_slice`]) outside parallel
/// regions that write — level-synchronous traversals get this for free from
/// the barrier between levels.
pub struct SharedFrontier {
    buf: Box<[UnsafeCell<u32>]>,
    len: AtomicUsize,
}

// SAFETY: concurrent `push_slice` calls write disjoint reserved ranges, and
// reads only happen after the parallel region's barrier (which the thread
// pool's mutex/condvar handshake turns into a happens-before edge).
unsafe impl Sync for SharedFrontier {}

impl std::fmt::Debug for SharedFrontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFrontier")
            .field("len", &self.len())
            .field("capacity", &self.buf.len())
            .finish()
    }
}

impl SharedFrontier {
    /// Creates an empty frontier able to hold `capacity` vertices. For BFS
    /// the capacity is the vertex count: every vertex enters a frontier at
    /// most once.
    pub fn with_capacity(capacity: usize) -> Self {
        SharedFrontier {
            buf: (0..capacity).map(|_| UnsafeCell::new(0)).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of vertices currently in the frontier.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the frontier holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets the frontier to empty, keeping its allocation.
    pub fn clear(&mut self) {
        *self.len.get_mut() = 0;
    }

    /// Appends `items` atomically: one cursor reservation, one copy.
    /// Callable concurrently from many workers.
    ///
    /// # Panics
    ///
    /// Panics if the reservation would exceed capacity (a kernel bug — BFS
    /// admits each vertex at most once, bounding the total by capacity).
    pub fn push_slice(&self, items: &[u32]) {
        if items.is_empty() {
            return;
        }
        let at = self.len.fetch_add(items.len(), Ordering::Relaxed);
        assert!(
            at + items.len() <= self.buf.len(),
            "frontier overflow: {} + {} > {}",
            at,
            items.len(),
            self.buf.len()
        );
        for (slot, &item) in self.buf[at..at + items.len()].iter().zip(items) {
            // SAFETY: `at..at + items.len()` is exclusively ours via the
            // cursor reservation above.
            unsafe { *slot.get() = item };
        }
    }

    /// The frontier's contents. Only sound outside parallel regions that
    /// push (BFS reads the *previous* level's frontier, which no worker
    /// writes).
    pub fn as_slice(&self) -> &[u32] {
        let len = self.len().min(self.buf.len());
        // SAFETY: `UnsafeCell<u32>` and `u32` share layout; no writer is
        // active per this method's contract, and `0..len` is initialized.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr() as *const u32, len) }
    }
}

/// Level-synchronous frontier rounds: a double-buffered pair of
/// [`SharedFrontier`]s plus one reusable discovery buffer per worker.
///
/// Each round hands every participant its share of the work and a local
/// buffer for the vertices it emits; the buffer is flushed into the next
/// frontier with one cursor reservation per chunk, and after the round's
/// barrier the next frontier becomes the current one. Storage is
/// allocated once per traversal.
pub struct FrontierRounds {
    cur: SharedFrontier,
    next: SharedFrontier,
    locals: Vec<Mutex<Vec<u32>>>,
}

impl std::fmt::Debug for FrontierRounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontierRounds")
            .field("current", &self.cur)
            .field("workers", &self.locals.len())
            .finish()
    }
}

impl FrontierRounds {
    /// Empty rounds for up to `threads` workers. `capacity` bounds what
    /// one round may emit (the vertex count, for kernels that emit each
    /// vertex at most once per round); each worker's buffer starts with
    /// room for `local_capacity` vertices and keeps what it grows to.
    pub fn new(capacity: usize, threads: usize, local_capacity: usize) -> Self {
        FrontierRounds {
            cur: SharedFrontier::with_capacity(capacity),
            next: SharedFrontier::with_capacity(capacity),
            locals: (0..threads.max(1))
                .map(|_| Mutex::new(Vec::with_capacity(local_capacity)))
                .collect(),
        }
    }

    /// The current frontier.
    pub fn current(&self) -> &[u32] {
        self.cur.as_slice()
    }

    /// Number of vertices in the current frontier.
    pub fn len(&self) -> usize {
        self.cur.len()
    }

    /// Whether the current frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.cur.is_empty()
    }

    /// Replaces the current frontier with `items`.
    pub fn reset(&mut self, items: &[u32]) {
        self.cur.clear();
        self.cur.push_slice(items);
    }

    /// Runs one round over the current frontier: `visit(v, out)` for every
    /// frontier vertex `v`, pushing the next frontier's vertices to `out`.
    /// The participant count is [`phase_threads`]`(len, threads)`, so a
    /// small frontier runs on the caller without waking the pool.
    pub fn advance<F>(&mut self, scheduler: Scheduler, threads: usize, visit: F)
    where
        F: Fn(u32, &mut Vec<u32>) + Sync,
    {
        let len = self.cur.len();
        let participants = phase_threads(len, threads).min(self.locals.len());
        self.round(len, scheduler, participants, |range, current, out| {
            for &v in &current[range] {
                visit(v, out);
            }
        });
    }

    /// Runs one round as a sweep over `0..n` on all `threads` workers (a
    /// sweep is never small): `scan(range, out)` pushes the next
    /// frontier's vertices to `out`. Bottom-up BFS levels use this.
    pub fn advance_sweep<F>(&mut self, n: usize, scheduler: Scheduler, threads: usize, scan: F)
    where
        F: Fn(Range<usize>, &mut Vec<u32>) + Sync,
    {
        let participants = threads.clamp(1, self.locals.len());
        self.round(n, scheduler, participants, |range, _, out| scan(range, out));
    }

    fn round<F>(&mut self, n: usize, scheduler: Scheduler, participants: usize, work: F)
    where
        F: Fn(Range<usize>, &[u32], &mut Vec<u32>) + Sync,
    {
        let (current, next, locals) = (self.cur.as_slice(), &self.next, &self.locals);
        let flush = |worker: usize, range: Range<usize>| {
            let mut local = locals[worker].lock().unwrap_or_else(|e| e.into_inner());
            work(range, current, &mut local);
            next.push_slice(&local);
            local.clear();
        };
        if participants == 1 {
            // One participant covers `0..n` in order under any policy, so
            // it takes the whole range at once instead of claiming chunks.
            flush(0, 0..n);
        } else {
            scheduler.for_each_worker(n, participants, flush);
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        self.next.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::run_threads;

    #[test]
    fn concurrent_pushes_preserve_every_item() {
        let frontier = SharedFrontier::with_capacity(8 * 100);
        run_threads(8, |t| {
            let items: Vec<u32> = (0..100).map(|i| (t * 100 + i) as u32).collect();
            // Flush in uneven batches to exercise the cursor.
            for batch in items.chunks(7) {
                frontier.push_slice(batch);
            }
        });
        let mut seen: Vec<u32> = frontier.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..800).collect::<Vec<u32>>());
    }

    #[test]
    fn clear_retains_capacity_and_resets_len() {
        let mut frontier = SharedFrontier::with_capacity(16);
        frontier.push_slice(&[1, 2, 3]);
        assert_eq!(frontier.len(), 3);
        frontier.clear();
        assert!(frontier.is_empty());
        frontier.push_slice(&[9; 16]);
        assert_eq!(frontier.as_slice(), &[9; 16]);
    }

    #[test]
    fn empty_push_is_noop() {
        let frontier = SharedFrontier::with_capacity(0);
        frontier.push_slice(&[]);
        assert!(frontier.is_empty());
        assert_eq!(frontier.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn rounds_advance_the_frontier_under_every_policy() {
        // Doubling rounds: {1} -> {2, 3} -> {4..=7} -> ... -> {1024..=2047}.
        for scheduler in [Scheduler::Static, Scheduler::Dynamic { grain: 1 }] {
            for threads in [1, 3] {
                let mut rounds = FrontierRounds::new(2048, threads, 0);
                rounds.reset(&[1]);
                let mut sizes = Vec::new();
                while !rounds.is_empty() {
                    sizes.push(rounds.len());
                    rounds.advance(scheduler, threads, |v, out| {
                        out.extend([2 * v, 2 * v + 1].into_iter().filter(|&t| t < 2048));
                    });
                }
                assert_eq!(sizes, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
            }
        }
    }

    #[test]
    fn sweep_rounds_cover_the_range_once() {
        let mut rounds = FrontierRounds::new(1000, 4, 0);
        rounds.advance_sweep(1000, Scheduler::Dynamic { grain: 7 }, 4, |range, out| {
            out.extend(range.filter(|v| v % 3 == 0).map(|v| v as u32));
        });
        let mut seen = rounds.current().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).step_by(3).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "frontier overflow")]
    fn overflow_panics() {
        let frontier = SharedFrontier::with_capacity(2);
        frontier.push_slice(&[1, 2, 3]);
    }
}
