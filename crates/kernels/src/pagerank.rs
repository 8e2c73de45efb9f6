//! Pull-based PageRank — FP-heavy vertex division with a convergence
//! reduction (B1 + B5 + B6 in Fig. 5).

use crate::par::par_chunks_mut;
use heteromap_graph::{CsrGraph, VertexId};

/// Damping factor used by all PageRank kernels (the standard 0.85).
pub const DAMPING: f64 = 0.85;

/// Runs parallel pull PageRank for `iterations` rounds, returning the rank
/// vector (which sums to ≈ 1).
///
/// Pull formulation: each vertex gathers `rank[u] / out_deg(u)` over its
/// in-neighbours — read-only sharing (B9), no atomics in the inner loop.
/// Each round first computes every source's contribution `rank[u] /
/// out_deg(u)` once, in the same parallel pass that sums dangling-vertex
/// mass per chunk; the chunk sums fold in chunk order, so the result is
/// bit-identical on every run at a fixed thread count. The in-neighbour
/// view comes from the graph's cached transpose, so repeated PageRank
/// calls on one graph pay the `O(V + E)` transpose once.
pub fn pagerank(graph: &CsrGraph, iterations: u32, threads: usize) -> Vec<f64> {
    let n = graph.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let transpose = graph.transpose_cached();
    let out_deg: Vec<u32> = (0..n)
        .map(|v| graph.out_degree(v as VertexId) as u32)
        .collect();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut contrib = vec![0.0f64; n];
    for _ in 0..iterations {
        // Per-source pass: contributions, and the dangling-mass reduction
        // (B5 phase). A dangling vertex has no out-edges, so its
        // contribution is never gathered.
        let dangling_parts = par_chunks_mut(&mut contrib, threads, |offset, chunk| {
            let mut dangling = 0.0;
            for (off, c) in chunk.iter_mut().enumerate() {
                let u = offset + off;
                match out_deg[u] {
                    0 => dangling += rank[u],
                    deg => *c = rank[u] / deg as f64,
                }
            }
            dangling
        });
        let dangling = dangling_parts.iter().sum::<f64>() / n as f64;
        // Vertex-division gather phase (B1): each worker owns a disjoint
        // slice of `next`, so no synchronization is needed.
        par_chunks_mut(&mut next, threads, |offset, next_chunk| {
            for (off, nx) in next_chunk.iter_mut().enumerate() {
                let v = offset + off;
                let mut sum = 0.0;
                for &u in transpose.neighbors(v as VertexId) {
                    sum += contrib[u as usize];
                }
                *nx = (1.0 - DAMPING) / n as f64 + DAMPING * (sum + dangling);
            }
        });
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::pagerank_seq;
    use heteromap_graph::gen::{GraphGenerator, PowerLaw, UniformRandom};
    use heteromap_graph::EdgeList;

    fn assert_close(a: &[f64], b: &[f64]) {
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-9, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_sequential_reference() {
        let g = UniformRandom::new(150, 900).generate(1);
        assert_close(&pagerank(&g, 15, 4), &pagerank_seq(&g, 15));
    }

    #[test]
    fn matches_sequential_on_power_law() {
        let g = PowerLaw::new(400, 3).generate(2);
        assert_close(&pagerank(&g, 10, 8), &pagerank_seq(&g, 10));
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = UniformRandom::new(200, 1_000).generate(3);
        let r = pagerank(&g, 20, 4);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hub_outranks_leaf() {
        // Star pointing at the hub: hub collects rank.
        let mut el = EdgeList::new(5);
        for i in 1..5 {
            el.push(i, 0, 1.0);
        }
        let g = el.into_csr().unwrap();
        let r = pagerank(&g, 30, 2);
        assert!(r[0] > r[1] * 2.0, "hub {} leaf {}", r[0], r[1]);
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g = EdgeList::new(0).into_csr().unwrap();
        assert!(pagerank(&g, 5, 2).is_empty());
    }

    #[test]
    fn one_thread_equals_sequential_bit_for_bit() {
        let g = PowerLaw::new(400, 3).generate(2);
        assert_eq!(pagerank(&g, 20, 1), pagerank_seq(&g, 20));
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let g = PowerLaw::new(500, 4).generate(5);
        for threads in [3, 4, 16] {
            let first = pagerank(&g, 20, threads);
            for _ in 0..3 {
                assert_eq!(pagerank(&g, 20, threads), first, "threads={threads}");
            }
        }
    }

    #[test]
    fn thread_count_invariant() {
        let g = UniformRandom::new(100, 700).generate(4);
        let base = pagerank(&g, 10, 1);
        for t in [2, 6] {
            assert_close(&pagerank(&g, 10, t), &base);
        }
    }
}
