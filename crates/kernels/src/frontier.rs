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
//! per-worker locals, and rounds sized by [`phase_threads`] from each
//! kernel's own [`RoundWork`]. BFS levels, k-core peeling waves,
//! Bellman-Ford relaxation rounds and Δ-stepping bucket passes all run on
//! it.

use crate::par::{phase_threads, Scheduler};
use heteromap_graph::CsrGraph;
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

    /// Keeps only the vertices for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let len = self.len().min(self.buf.len());
        let mut kept = 0;
        for i in 0..len {
            let v = *self.buf[i].get_mut();
            if keep(v) {
                *self.buf[kept].get_mut() = v;
                kept += 1;
            }
        }
        *self.len.get_mut() = kept;
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

/// How a kind of frontier round counts its work, and how much of it one
/// more participant needs before it pays for its pool hand-off (see
/// [`phase_threads`]). Each kernel passes its own block size from
/// [`crate::par`].
#[derive(Debug, Clone, Copy)]
pub enum RoundWork<'g> {
    /// The frontier's vertices, `per_participant` of them per extra
    /// participant (top-down BFS levels).
    Vertices(usize),
    /// The frontier vertices' out-edges in the graph the round walks,
    /// `per_participant` of them per extra participant (k-core waves
    /// walk the transpose, relaxation rounds the graph itself).
    Edges(&'g CsrGraph, usize),
}

impl RoundWork<'_> {
    /// Participants for a round over `frontier` when `threads` are
    /// requested. Edges are counted only up to the work that would take
    /// every participant, and not at all at one thread.
    ///
    /// ```
    /// use heteromap_graph::EdgeList;
    /// use heteromap_kernels::frontier::RoundWork;
    ///
    /// let mut el = EdgeList::new(4);
    /// for t in 1..4 {
    ///     el.push(0, t, 1.0);
    /// }
    /// let g = el.into_csr().unwrap();
    /// // Vertex 0 has three out-edges, the others none.
    /// assert_eq!(RoundWork::Edges(&g, 2).participants(&[0], 4), 2);
    /// assert_eq!(RoundWork::Edges(&g, 2).participants(&[1, 2, 3], 4), 1);
    /// assert_eq!(RoundWork::Vertices(2).participants(&[1, 2, 3], 4), 2);
    /// ```
    pub fn participants(self, frontier: &[u32], threads: usize) -> usize {
        let threads = threads.max(1);
        match self {
            _ if threads == 1 => 1,
            RoundWork::Vertices(per) => phase_threads(frontier.len(), threads, per),
            RoundWork::Edges(graph, per) => {
                let enough = (threads - 1).saturating_mul(per);
                let mut edges = 0;
                for &v in frontier {
                    edges += graph.out_degree(v);
                    if edges >= enough {
                        break;
                    }
                }
                phase_threads(edges, threads, per)
            }
        }
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

    /// Keeps only the current frontier's vertices for which `keep`
    /// returns `true` (Δ-stepping moves the others to later buckets).
    pub fn retain(&mut self, keep: impl FnMut(u32) -> bool) {
        self.cur.retain(keep);
    }

    /// Runs one round over the current frontier: `visit(v, out)` for every
    /// frontier vertex `v`, pushing the next frontier's vertices to `out`.
    /// The participant count is `work`'s [`RoundWork::participants`], so
    /// a small frontier runs on the caller without waking the pool.
    pub fn advance<F>(
        &mut self,
        work: RoundWork<'_>,
        scheduler: Scheduler,
        threads: usize,
        visit: F,
    ) where
        F: Fn(u32, &mut Vec<u32>) + Sync,
    {
        let len = self.cur.len();
        let participants = work
            .participants(self.cur.as_slice(), threads)
            .min(self.locals.len());
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
                    let work = RoundWork::Vertices(crate::par::BFS_VERTICES_PER_PARTICIPANT);
                    rounds.advance(work, scheduler, threads, |v, out| {
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
    fn retain_keeps_the_chosen_vertices_in_order() {
        let mut rounds = FrontierRounds::new(8, 2, 0);
        rounds.reset(&[5, 1, 4, 2, 3]);
        let mut dropped = Vec::new();
        rounds.retain(|v| {
            if v % 2 == 0 {
                dropped.push(v);
            }
            v % 2 == 1
        });
        assert_eq!(rounds.current(), &[5, 1, 3]);
        assert_eq!(dropped, [4, 2]);
        rounds.retain(|_| false);
        assert!(rounds.is_empty());
    }

    #[test]
    fn edge_work_counts_the_frontiers_out_edges() {
        use heteromap_graph::gen::{GraphGenerator, UniformRandom};
        let g = UniformRandom::new(1_000, 8_000).generate(2);
        let all: Vec<u32> = (0..1_000).collect();
        let edges = g.edge_count();
        for threads in [1, 2, 3, 16] {
            for per in [1, 100, edges / 2, edges, edges + 1] {
                assert_eq!(
                    RoundWork::Edges(&g, per).participants(&all, threads),
                    phase_threads(edges, threads, per),
                    "threads={threads} per={per}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "frontier overflow")]
    fn overflow_panics() {
        let frontier = SharedFrontier::with_capacity(2);
        frontier.push_slice(&[1, 2, 3]);
    }
}
