//! Level-synchronous parallel breadth-first search.
//!
//! BFS is the paper's canonical "Pareto-Division" (B3) workload: each level's
//! frontier is divided among threads, with a global barrier between levels.
//!
//! Two traversal refinements on top of the persistent execution engine:
//!
//! * **Lock-free frontiers** — levels run on [`FrontierRounds`]: workers
//!   collect discoveries in per-worker local buffers (pre-sized from degree
//!   statistics, reused across levels) and flush each batch into the next
//!   [`SharedFrontier`](crate::frontier::SharedFrontier) with a single
//!   atomic-cursor reservation. The two frontier buffers are
//!   double-buffered across levels, so frontier storage is allocated once
//!   per traversal.
//! * **Direction optimization** (Beamer-style) — on sufficiently dense
//!   graphs the traversal switches from top-down *push* (scan the frontier's
//!   out-edges) to bottom-up *pull* (scan unvisited vertices' in-edges via
//!   the cached transpose) when the frontier's edge count crosses
//!   `unexplored / ALPHA`, and back once the frontier shrinks below
//!   `V / BETA`. Power-law graphs stop paying the full push cost on the big
//!   middle levels. Levels are direction-independent, so results stay
//!   bit-identical with the sequential reference.
//! * **Work-sized levels** — a top-down level takes one participant per
//!   [`BFS_VERTICES_PER_PARTICIPANT`] frontier vertices, so the many small
//!   levels of a sparse traversal run on the caller instead of paying a
//!   pool hand-off each.

use crate::frontier::{FrontierRounds, RoundWork};
use crate::par::{Scheduler, BFS_VERTICES_PER_PARTICIPANT};
use crate::UNREACHED;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Push→pull switch: go bottom-up when the frontier's out-edges exceed
/// `unexplored_edges / ALPHA` (Beamer's α).
const ALPHA: usize = 14;
/// Pull→push switch: return top-down when the frontier shrinks below
/// `vertex_count / BETA` (Beamer's β).
const BETA: usize = 24;
/// Direction optimization only pays off when pull levels can amortize the
/// transpose and the dense-frontier scan: require this average degree.
const DIR_OPT_MIN_AVG_DEGREE: f64 = 4.0;
/// ... and at least this many vertices.
const DIR_OPT_MIN_VERTICES: usize = 256;

/// Runs parallel BFS from `source`, returning the level of every vertex
/// (`UNREACHED` for unreachable vertices).
///
/// # Panics
///
/// Panics if `source` is out of bounds.
///
/// # Example
///
/// ```
/// use heteromap_graph::EdgeList;
/// use heteromap_kernels::bfs::bfs;
///
/// let mut el = EdgeList::new(3);
/// el.push(0, 1, 1.0);
/// el.push(1, 2, 1.0);
/// let g = el.into_csr().unwrap();
/// assert_eq!(bfs(&g, 0, 2), vec![0, 1, 2]);
/// ```
pub fn bfs(graph: &CsrGraph, source: VertexId, threads: usize) -> Vec<u32> {
    bfs_with(graph, source, threads, Scheduler::Static)
}

/// Whether [`bfs_with`] will use direction-optimizing traversal on `graph`
/// (the density gate: dense enough that pull levels win, large enough to
/// amortize the cached transpose).
pub fn direction_optimizing(graph: &CsrGraph) -> bool {
    graph.vertex_count() >= DIR_OPT_MIN_VERTICES && graph.average_degree() >= DIR_OPT_MIN_AVG_DEGREE
}

/// [`bfs`] with an explicit work-distribution policy for the frontier loop.
pub fn bfs_with(
    graph: &CsrGraph,
    source: VertexId,
    threads: usize,
    scheduler: Scheduler,
) -> Vec<u32> {
    let n = graph.vertex_count();
    assert!((source as usize) < n, "source out of bounds");
    let threads = threads.max(1);
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    levels[source as usize].store(0, Ordering::Relaxed);

    // Per-worker discovery buffers, pre-sized from degree statistics: a
    // worker's static share of a full frontier emits at most
    // `chunk * avg_degree` vertices in expectation, plus one hub.
    let chunk = n.div_ceil(threads);
    let avg_degree = graph.average_degree().ceil() as usize;
    let local_capacity = chunk
        .saturating_mul(avg_degree.max(1))
        .saturating_add(graph.max_degree())
        .min(n);
    // Every vertex enters a frontier at most once.
    let mut rounds = FrontierRounds::new(n, threads, local_capacity);
    rounds.reset(&[source]);

    let dir_opt = direction_optimizing(graph);
    let transpose = if dir_opt {
        Some(graph.transpose_cached())
    } else {
        None
    };

    let mut level = 0u32;
    let mut bottom_up = false;
    // Edges not yet explored, for the α heuristic (an estimate: edges out of
    // already-visited vertices are subtracted as their levels retire).
    let mut unexplored_edges = graph.edge_count();
    while !rounds.is_empty() {
        if dir_opt {
            // Frontier out-edge volume drives the direction choice.
            let frontier_edges: usize = rounds.current().iter().map(|&v| graph.out_degree(v)).sum();
            if !bottom_up && frontier_edges * ALPHA > unexplored_edges {
                bottom_up = true;
            } else if bottom_up && rounds.len() * BETA < n {
                bottom_up = false;
            }
            unexplored_edges = unexplored_edges.saturating_sub(frontier_edges);
        }
        match &transpose {
            Some(transpose) if bottom_up => {
                // Pull: every unvisited vertex scans its in-neighbours for a
                // parent on the current level. Exactly one worker owns each
                // vertex, so a plain store suffices.
                rounds.advance_sweep(n, scheduler, threads, |range, out| {
                    for v in range {
                        if levels[v].load(Ordering::Relaxed) != UNREACHED {
                            continue;
                        }
                        for &u in transpose.neighbors(v as VertexId) {
                            if levels[u as usize].load(Ordering::Relaxed) == level {
                                levels[v].store(level + 1, Ordering::Relaxed);
                                out.push(v as u32);
                                break;
                            }
                        }
                    }
                });
            }
            _ => {
                // Push: divide the frontier, claim neighbours by CAS.
                let work = RoundWork::Vertices(BFS_VERTICES_PER_PARTICIPANT);
                rounds.advance(work, scheduler, threads, |v, out| {
                    for &t in graph.neighbors(v) {
                        if levels[t as usize]
                            .compare_exchange(
                                UNREACHED,
                                level + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            out.push(t);
                        }
                    }
                });
            }
        }
        level += 1;
    }
    levels.into_iter().map(AtomicU32::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::bfs_seq;
    use heteromap_graph::gen::{GraphGenerator, Grid, PowerLaw, UniformRandom};
    use heteromap_graph::EdgeList;

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..4 {
            let g = UniformRandom::new(300, 1_800).generate(seed);
            assert_eq!(bfs(&g, 0, 4), bfs_seq(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn matches_sequential_on_grid() {
        let g = Grid::new(12, 17).generate(0);
        assert_eq!(bfs(&g, 5, 3), bfs_seq(&g, 5));
    }

    #[test]
    fn matches_sequential_on_power_law() {
        let g = PowerLaw::new(800, 4).generate(2);
        assert_eq!(bfs(&g, 10, 8), bfs_seq(&g, 10));
    }

    #[test]
    fn direction_optimized_matches_sequential_on_dense_graphs() {
        // Dense enough to pass the gate and trigger pull levels.
        for seed in 0..3 {
            let g = UniformRandom::new(600, 6_000).generate(seed);
            assert!(direction_optimizing(&g), "gate should open: seed {seed}");
            assert_eq!(bfs(&g, 0, 4), bfs_seq(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn sparse_graphs_stay_top_down() {
        let g = Grid::new(30, 30).generate(0);
        assert!(!direction_optimizing(&g));
    }

    #[test]
    fn dynamic_scheduler_matches_static_on_dense_graphs() {
        let g = UniformRandom::new(500, 5_000).generate(11);
        assert_eq!(
            bfs_with(&g, 0, 4, Scheduler::Dynamic { grain: 32 }),
            bfs_with(&g, 0, 4, Scheduler::Static),
        );
    }

    #[test]
    fn unreachable_vertices_are_marked() {
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1.0);
        let g = el.into_csr().unwrap();
        let l = bfs(&g, 0, 2);
        assert_eq!(l[0], 0);
        assert_eq!(l[1], 1);
        assert_eq!(l[2], UNREACHED);
        assert_eq!(l[3], UNREACHED);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let g = UniformRandom::new(500, 3_000).generate(7);
        let reference = bfs(&g, 0, 1);
        for threads in [2, 4, 16] {
            assert_eq!(bfs(&g, 0, threads), reference);
        }
    }

    #[test]
    #[should_panic(expected = "source out of bounds")]
    fn bad_source_panics() {
        let g = EdgeList::new(2).into_csr().unwrap();
        let _ = bfs(&g, 9, 1);
    }
}
