//! Parallel connected components by one union-find pass — indirect
//! label chasing (B8) over read-write shared parents (B10), per Fig. 5.
//!
//! This is ConnectIt's Union-Async (Dhulipala, Hong and Shun, VLDB 2021):
//! every edge joins its endpoints' trees by linking the larger root under
//! the smaller with one compare-and-swap, and finds halve their paths with
//! `fetch_min`. Parents only ever decrease, so every root is the smallest
//! id in its tree, and a final find per vertex yields the component
//! minimum. Those labels are unique, so they do not depend on the thread
//! count or the schedule. The simulated accelerators keep charging the
//! B-profile above, which describes the algorithm class, not this host
//! kernel.

use crate::par::Scheduler;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Computes connected components over the undirected closure of `graph`
/// (each directed edge connects both endpoints), returning for every vertex
/// the minimum vertex id in its component.
///
/// One parallel pass unions the endpoints of every edge, and a second
/// points every vertex at its root: the "data-manipulated addressing" the
/// paper flags as B8 for Conn. Comp.
pub fn conncomp(graph: &CsrGraph, threads: usize) -> Vec<u32> {
    conncomp_with(graph, threads, Scheduler::Static)
}

/// [`conncomp`] with an explicit work-distribution policy.
pub fn conncomp_with(graph: &CsrGraph, threads: usize, scheduler: Scheduler) -> Vec<u32> {
    let n = graph.vertex_count();
    // Relaxed suffices: a parent is a vertex id that publishes no other
    // data, each link is one CAS on the root it moves, and the pool's
    // barrier orders the union pass before the final finds.
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    scheduler.for_each(n, threads, |range| {
        for v in range {
            let mut root = v as VertexId;
            for &t in graph.neighbors(v as VertexId) {
                root = union(&parent, root, t);
            }
        }
    });
    // No link happens any more, so every find ends at the final root.
    scheduler.for_each(n, threads, |range| {
        for v in range {
            let root = find(&parent, v as VertexId);
            parent[v].store(root, Ordering::Relaxed);
        }
    });
    parent.into_iter().map(AtomicU32::into_inner).collect()
}

/// The root of `v`'s tree, pointing each visited vertex at its grandparent
/// on the way (path halving).
fn find(parent: &[AtomicU32], mut v: VertexId) -> VertexId {
    loop {
        let p = parent[v as usize].load(Ordering::Relaxed);
        if p == v {
            return v;
        }
        let grandparent = parent[p as usize].load(Ordering::Relaxed);
        if grandparent == p {
            return p;
        }
        parent[v as usize].fetch_min(grandparent, Ordering::Relaxed);
        v = grandparent;
    }
}

/// Joins the trees of `a` and `b` and returns the joined root: the larger
/// root is linked under the smaller by CAS, retrying if another link moved
/// it first.
fn union(parent: &[AtomicU32], mut a: VertexId, mut b: VertexId) -> VertexId {
    loop {
        a = find(parent, a);
        b = find(parent, b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if lo == hi
            || parent[hi as usize]
                .compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            return lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::conncomp_seq;
    use heteromap_graph::gen::{GraphGenerator, Grid, UniformRandom};
    use heteromap_graph::EdgeList;

    /// Normalizes directed-reachability differences: compare against
    /// union-find over the same (undirected-closure) edge set.
    fn check(graph: &CsrGraph, threads: usize) {
        assert_eq!(conncomp(graph, threads), conncomp_seq(graph));
    }

    #[test]
    fn matches_union_find_on_random_graphs() {
        for seed in 0..4 {
            let g = UniformRandom::new(300, 600).generate(seed);
            check(&g, 4);
        }
    }

    #[test]
    fn grid_is_one_component() {
        let g = Grid::new(15, 15).generate(0);
        let c = conncomp(&g, 8);
        assert!(c.iter().all(|&l| l == 0));
    }

    #[test]
    fn disjoint_edges_form_separate_components() {
        let mut el = EdgeList::new(6);
        el.push_undirected(0, 1, 1.0);
        el.push_undirected(2, 3, 1.0);
        let g = el.into_csr().unwrap();
        assert_eq!(conncomp(&g, 2), vec![0, 0, 2, 2, 4, 5]);
    }

    #[test]
    fn labels_are_component_minima() {
        let g = UniformRandom::new(200, 260).generate(5);
        let c = conncomp(&g, 4);
        for (v, &l) in c.iter().enumerate() {
            assert!(l as usize <= v);
            assert_eq!(c[l as usize], l, "label {l} is not a root");
        }
    }

    #[test]
    fn thread_count_invariant() {
        let g = UniformRandom::new(250, 400).generate(6);
        let one = conncomp(&g, 1);
        assert_eq!(conncomp(&g, 8), one);
    }
}
