//! Parallel triangle counting by marked intersection — the
//! reduction-heavy (B5), read-only-shared (B9) workload of Fig. 5.
//!
//! Triangles are counted at their smallest vertex `v` over the upper
//! neighbourhood `N⁺(v)`, the part of `v`'s sorted adjacency list above
//! `v`. A worker marks `N⁺(v)` once in a per-worker array of
//! multiplicities; each `u ∈ N⁺(v)` then walks only `N⁺(u)` and consumes a
//! mark per match. A pair `(v, u)` costs `|N⁺(u)|` instead of a merge's
//! `|N⁺(v)| + |N⁺(u)|`, which removes the quadratic term of a hub `v`. The
//! count equals [`triangle_seq`](crate::verify::triangle_seq)'s full-list
//! merge exactly, duplicate (multi-)edges included.

use crate::par::Scheduler;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts triangles (unordered vertex triples mutually connected), assuming
/// an undirected graph stored with both edge directions.
///
/// Each triangle `v < u < w` is counted exactly once at its smallest vertex.
/// Work is distributed dynamically because hub vertices carry the most
/// intersection work (the degree-skew imbalance the paper's M11 dynamic
/// scheduling addresses).
pub fn triangle_count(graph: &CsrGraph, threads: usize) -> u64 {
    triangle_count_with(graph, threads, Scheduler::Dynamic { grain: 64 })
}

/// [`triangle_count`] with an explicit work-distribution policy (static
/// scheduling suffers the hub imbalance the paper's M11 discussion names).
pub fn triangle_count_with(graph: &CsrGraph, threads: usize, scheduler: Scheduler) -> u64 {
    let n = graph.vertex_count();
    let total = AtomicU64::new(0);
    // One mark array per worker, allocated on its first chunk.
    let marks: Vec<Mutex<Marks>> = (0..threads.max(1))
        .map(|_| Mutex::new(Marks::default()))
        .collect();
    scheduler.for_each_worker(n, threads, |worker, range| {
        let mut marks = marks[worker].lock().unwrap_or_else(|e| e.into_inner());
        if marks.count.len() != n {
            marks.count = vec![0; n];
        }
        let local: u64 = range
            .map(|v| marks.triangles_at(graph, v as VertexId))
            .sum();
        total.fetch_add(local, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// A worker's intersection scratch: `count[w]` is how many marks of `w`
/// are outstanding (zero between calls of [`Marks::triangles_at`]), and
/// `matched` starts with the marks one `u` consumed.
#[derive(Debug, Default)]
struct Marks {
    count: Vec<u32>,
    matched: Vec<VertexId>,
}

impl Marks {
    /// Triangles whose smallest vertex is `v`: for each `u` in `N⁺(v)`, in
    /// order, Σ over `w > u` of `min(mult(w, N⁺(v)), mult(w, N⁺(u)))` —
    /// what a merge of `v`'s list past `u` with `N⁺(u)` counts.
    fn triangles_at(&mut self, graph: &CsrGraph, v: VertexId) -> u64 {
        let nv = graph.neighbors(v);
        let upper = &nv[above(nv, v)..];
        for &w in upper {
            self.count[w as usize] += 1;
        }
        let mut triangles = 0;
        for &u in upper {
            // Marks of vertices at or below `u` are never matched: `N⁺(u)`
            // lies above `u`. Dropping `u`'s own mark here leaves every mark
            // at zero once the loop ends.
            self.count[u as usize] -= 1;
            let nu = graph.neighbors(u);
            let upper_u = &nu[above(nu, u)..];
            if self.matched.len() < upper_u.len() {
                self.matched.resize(upper_u.len(), 0);
            }
            // Branch-free: every candidate is written, and the cursor only
            // moves past the ones that consumed a mark.
            let mut hits = 0;
            for &w in upper_u {
                let mark = &mut self.count[w as usize];
                let hit = u32::from(*mark > 0);
                *mark -= hit;
                self.matched[hits] = w;
                hits += hit as usize;
            }
            triangles += hits as u64;
            for &w in &self.matched[..hits] {
                self.count[w as usize] += 1;
            }
        }
        triangles
    }
}

/// Index of the first element of the sorted slice `a` that is `> floor`.
fn above(a: &[VertexId], floor: VertexId) -> usize {
    a.partition_point(|&x| x <= floor)
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
