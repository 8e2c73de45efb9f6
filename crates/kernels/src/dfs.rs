//! Parallel depth-first reachability with per-thread work stacks — the
//! push-pop (B4) workload of Fig. 5.
//!
//! True DFS ordering is inherently sequential; like CRONO's parallel DFS,
//! threads cooperate on a shared pool of stack segments: each thread pops
//! deep vertices from its own stack and donates its overflow to an idle
//! pool, producing a DFS-like (deep-first) spanning tree rather than the
//! unique recursive ordering. Tests verify the structural invariants every
//! such tree must satisfy.

use crate::UNREACHED;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Result of a parallel DFS traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsResult {
    /// Parent of each vertex in the traversal tree (`UNREACHED` when not
    /// visited; the source is its own parent).
    pub parent: Vec<u32>,
    /// Number of vertices reached.
    pub visited: usize,
}

/// Runs parallel depth-first reachability from `source`.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub fn dfs(graph: &CsrGraph, source: VertexId, threads: usize) -> DfsResult {
    let n = graph.vertex_count();
    assert!((source as usize) < n, "source out of bounds");
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    parent[source as usize].store(source, Ordering::Relaxed);
    let pool: Mutex<Vec<Vec<VertexId>>> = Mutex::new(vec![vec![source]]);
    let active = AtomicU32::new(0);

    crate::par::run_threads(threads.max(1), |_| {
        let mut stack: Vec<VertexId> = Vec::new();
        loop {
            if stack.is_empty() {
                let mut pool_guard = pool.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(seg) = pool_guard.pop() {
                    active.fetch_add(1, Ordering::SeqCst);
                    stack = seg;
                } else if active.load(Ordering::SeqCst) == 0 {
                    return; // no work anywhere and nobody producing
                } else {
                    drop(pool_guard);
                    std::thread::yield_now();
                    continue;
                }
            }
            while let Some(v) = stack.pop() {
                for &t in graph.neighbors(v) {
                    if parent[t as usize]
                        .compare_exchange(UNREACHED, v, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        stack.push(t);
                    }
                }
                // Donate the shallow half of an oversized stack (push-pop
                // load balancing).
                if stack.len() > 64 {
                    let donated: Vec<VertexId> = stack.drain(..stack.len() / 2).collect();
                    pool.lock().unwrap_or_else(|e| e.into_inner()).push(donated);
                }
            }
            active.fetch_sub(1, Ordering::SeqCst);
        }
    });

    let parent: Vec<u32> = parent.into_iter().map(AtomicU32::into_inner).collect();
    let visited = parent.iter().filter(|&&p| p != UNREACHED).count();
    DfsResult { parent, visited }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::bfs_seq;
    use heteromap_graph::gen::{GraphGenerator, Grid, PowerLaw, UniformRandom};
    use heteromap_graph::EdgeList;

    fn check_tree(graph: &CsrGraph, source: VertexId, result: &DfsResult) {
        // Every visited vertex (except the source) has a parent that is
        // visited and actually adjacent (parent -> child edge exists).
        for (v, &p) in result.parent.iter().enumerate() {
            if p == UNREACHED || v as u32 == source {
                continue;
            }
            assert_ne!(result.parent[p as usize], UNREACHED, "orphan parent");
            assert!(
                graph.neighbors(p).contains(&(v as u32)),
                "parent {p} not adjacent to {v}"
            );
        }
        // The visited set equals BFS reachability.
        let reach = bfs_seq(graph, source);
        for (v, (&r, &p)) in reach.iter().zip(&result.parent).enumerate() {
            assert_eq!(
                r != UNREACHED,
                p != UNREACHED,
                "vertex {v} reachability mismatch"
            );
        }
    }

    #[test]
    fn covers_reachable_set_on_random_graph() {
        let g = UniformRandom::new(400, 2_400).generate(1);
        let r = dfs(&g, 0, 4);
        check_tree(&g, 0, &r);
    }

    #[test]
    fn covers_reachable_set_on_grid() {
        let g = Grid::new(20, 20).generate(0);
        let r = dfs(&g, 0, 8);
        assert_eq!(r.visited, 400);
        check_tree(&g, 0, &r);
    }

    #[test]
    fn covers_reachable_set_on_power_law() {
        let g = PowerLaw::new(700, 3).generate(3);
        let r = dfs(&g, 5, 6);
        check_tree(&g, 5, &r);
    }

    #[test]
    fn isolated_source_visits_only_itself() {
        let g = EdgeList::new(3).into_csr().unwrap();
        let r = dfs(&g, 1, 4);
        assert_eq!(r.visited, 1);
        assert_eq!(r.parent[1], 1);
    }

    #[test]
    fn single_thread_matches_reachability() {
        let g = UniformRandom::new(200, 900).generate(7);
        let r = dfs(&g, 0, 1);
        check_tree(&g, 0, &r);
    }
}
