//! Parallel triangle counting by sorted-adjacency intersection — the
//! reduction-heavy (B5), read-only-shared (B9) workload of Fig. 5.
//!
//! Each pair `v < u` intersects only the parts of the two sorted adjacency
//! lists above `u`, found by binary search; the prefixes at or below the
//! floor can never close a counted triangle, so they are not merged. The
//! count equals [`triangle_seq`](crate::verify::triangle_seq)'s full-list
//! merge exactly, duplicate (multi-)edges included.

use crate::par::Scheduler;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts triangles (unordered vertex triples mutually connected), assuming
/// an undirected graph stored with both edge directions.
///
/// Each triangle `v < u < w` is counted exactly once at its smallest vertex.
/// Work is distributed dynamically because hub vertices carry quadratic
/// intersection cost (the degree-skew imbalance the paper's M11 dynamic
/// scheduling addresses).
pub fn triangle_count(graph: &CsrGraph, threads: usize) -> u64 {
    triangle_count_with(graph, threads, Scheduler::Dynamic { grain: 64 })
}

/// [`triangle_count`] with an explicit work-distribution policy (static
/// scheduling suffers the hub imbalance the paper's M11 discussion names).
pub fn triangle_count_with(graph: &CsrGraph, threads: usize, scheduler: Scheduler) -> u64 {
    let n = graph.vertex_count();
    let total = AtomicU64::new(0);
    scheduler.for_each(n, threads, |range| {
        let mut local = 0u64;
        for v in range {
            let v = v as VertexId;
            let nv = graph.neighbors(v);
            // Candidates `w > u > v` lie past `u` in both sorted lists.
            for k in above(nv, v)..nv.len() {
                let u = nv[k];
                let nu = graph.neighbors(u);
                local += intersect_count(&nv[k + 1..], &nu[above(nu, u)..]);
            }
        }
        total.fetch_add(local, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// Index of the first element of the sorted slice `a` that is `> floor`.
fn above(a: &[VertexId], floor: VertexId) -> usize {
    a.partition_point(|&x| x <= floor)
}

/// Counts matched pairs of a merge of the sorted slices `a` and `b`.
fn intersect_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::triangle_seq;
    use heteromap_graph::gen::{GraphGenerator, PowerLaw, UniformRandom};
    use heteromap_graph::EdgeList;

    fn undirected_random(n: usize, m: usize, seed: u64) -> CsrGraph {
        // Symmetrize a random graph so triangle semantics hold.
        let g = UniformRandom::new(n, m).generate(seed);
        let mut el = EdgeList::new(n);
        for v in 0..n as VertexId {
            for &t in g.neighbors(v) {
                el.push_undirected(v, t, 1.0);
            }
        }
        el.dedup();
        el.into_csr().unwrap()
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..3 {
            let g = undirected_random(120, 900, seed);
            assert_eq!(triangle_count(&g, 4), triangle_seq(&g), "seed {seed}");
        }
    }

    #[test]
    fn matches_sequential_on_power_law() {
        let g = PowerLaw::new(400, 4).generate(1);
        assert_eq!(triangle_count(&g, 8), triangle_seq(&g));
    }

    #[test]
    fn counts_k5() {
        // K5 has C(5,3) = 10 triangles.
        let mut el = EdgeList::new(5);
        for a in 0..5u32 {
            for b in (a + 1)..5u32 {
                el.push_undirected(a, b, 1.0);
            }
        }
        let g = el.into_csr().unwrap();
        assert_eq!(triangle_count(&g, 3), 10);
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        // Bipartite 3x3: no odd cycles.
        let mut el = EdgeList::new(6);
        for a in 0..3u32 {
            for b in 3..6u32 {
                el.push_undirected(a, b, 1.0);
            }
        }
        let g = el.into_csr().unwrap();
        assert_eq!(triangle_count(&g, 4), 0);
    }

    #[test]
    fn matches_sequential_with_duplicate_edges() {
        // Without dedup, adjacency lists repeat targets; suffix intersection
        // must count matched pairs exactly as the full-list merge does.
        let g = UniformRandom::new(60, 400).generate(5);
        let mut el = EdgeList::new(60);
        for v in 0..60 as VertexId {
            for &t in g.neighbors(v) {
                el.push_undirected(v, t, 1.0);
                if t % 3 == 0 {
                    el.push(v, t, 2.0);
                }
            }
        }
        let g = el.into_csr().unwrap();
        let expected = triangle_seq(&g);
        assert!(expected > 0);
        for threads in [1, 4] {
            assert_eq!(triangle_count(&g, threads), expected);
        }
    }

    #[test]
    fn thread_count_invariant() {
        let g = undirected_random(200, 2_000, 9);
        let one = triangle_count(&g, 1);
        assert_eq!(triangle_count(&g, 7), one);
    }
}
