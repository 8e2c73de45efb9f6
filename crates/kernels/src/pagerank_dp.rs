//! Push-based data-parallel PageRank ("PageRank-DP") — vertex division
//! with contributions scattered to shared rank accumulators (B1 + B6 +
//! B12).
//!
//! The push is *privatized*: each worker scatters over its static source
//! range into its own `f32` accumulator with plain adds, and a parallel
//! pass over destination ranges folds the accumulators in worker order.
//! There are no atomics, so a fixed thread count gives bit-identical ranks
//! on every run, and one thread equals the sequential oracle
//! [`pagerank_push_seq`](crate::verify::pagerank_push_seq) bit for bit.
//! The kernel stays a push on purpose: a gather over the transpose would
//! be the pull kernel in `f32`, and the push variant is the one GARDENIA
//! and the paper's PageRank-DP describe. The simulated accelerators keep
//! charging it the read-write shared (B10) and contended (B12) profile of
//! a shared-accumulator push.

use crate::pagerank::DAMPING;
use crate::par::par_chunks_mut;
use heteromap_graph::{CsrGraph, VertexId};

/// Runs parallel push PageRank for `iterations` rounds.
///
/// Each round, every vertex scatters `rank[v] / out_deg(v)` to its
/// out-neighbours; dangling vertices' rank is spread uniformly. Worker `w`
/// pushes the sources of the `w`-th static range into accumulator `w` and
/// sums its dangling rank. Worker 0's accumulator is the push destination,
/// so privatizing costs `(threads − 1) × n × 4` bytes over a single shared
/// destination; every buffer is allocated once per call. The fold adds
/// accumulators (and dangling partials) in worker order.
/// Accumulation is in `f32`, so results agree with the pull kernel to
/// ~1e-3, and runs at different thread counts to ~1e-6 relative.
pub fn pagerank_dp(graph: &CsrGraph, iterations: u32, threads: usize) -> Vec<f64> {
    let n = graph.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    // Static source ranges, every one non-empty.
    let chunk = n.div_ceil(threads.max(1).min(n));
    let workers = n.div_ceil(chunk);
    let out_deg: Vec<u32> = (0..n)
        .map(|v| graph.out_degree(v as VertexId) as u32)
        .collect();
    let damping = DAMPING as f32;
    let teleport = (1.0 - damping) / n as f32;
    let mut rank = vec![1.0f32 / n as f32; n];
    let mut accs = vec![vec![0.0f32; n]; workers];
    for _ in 0..iterations {
        // Scatter phase: one accumulator per worker, plain adds.
        let dangling_parts = par_chunks_mut(&mut accs, workers, |w, mine| {
            let acc = &mut mine[0];
            acc.fill(0.0);
            let mut dangling = 0.0f32;
            for v in w * chunk..((w + 1) * chunk).min(n) {
                let deg = out_deg[v];
                if deg == 0 {
                    dangling += rank[v];
                    continue;
                }
                let share = rank[v] / deg as f32;
                for &t in graph.neighbors(v as VertexId) {
                    acc[t as usize] += share;
                }
            }
            dangling
        });
        let dangling = dangling_parts.iter().sum::<f32>() / n as f32;
        // Fold phase over destination ranges, accumulators in worker order.
        par_chunks_mut(&mut rank, threads, |offset, dest| {
            let range = offset..offset + dest.len();
            dest.copy_from_slice(&accs[0][range.clone()]);
            for acc in &accs[1..] {
                for (d, &a) in dest.iter_mut().zip(&acc[range.clone()]) {
                    *d += a;
                }
            }
            for d in dest.iter_mut() {
                *d = teleport + damping * (*d + dangling);
            }
        });
    }
    rank.into_iter().map(f64::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::pagerank;
    use crate::verify::pagerank_push_seq;
    use heteromap_graph::gen::{GraphGenerator, PowerLaw, UniformRandom};

    #[test]
    fn agrees_with_pull_pagerank() {
        let g = UniformRandom::new(150, 900).generate(1);
        let push = pagerank_dp(&g, 10, 4);
        let pull = pagerank(&g, 10, 4);
        for (i, (a, b)) in push.iter().zip(pull.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3, "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn one_thread_equals_push_oracle_bit_for_bit() {
        let graphs = [
            UniformRandom::new(150, 900).generate(1),
            PowerLaw::new(400, 3).generate(2),
            heteromap_graph::gen::RMat::new(10, 8.0, 0.57, 0.19, 0.19).generate(5),
        ];
        for (i, g) in graphs.iter().enumerate() {
            assert_eq!(pagerank_dp(g, 20, 1), pagerank_push_seq(g, 20), "graph {i}");
        }
    }

    #[test]
    fn fixed_thread_counts_are_deterministic_and_near_the_oracle() {
        let g = PowerLaw::new(600, 4).generate(6);
        let oracle = pagerank_push_seq(&g, 20);
        for threads in [2, 4, 16] {
            let first = pagerank_dp(&g, 20, threads);
            assert_eq!(pagerank_dp(&g, 20, threads), first, "threads={threads}");
            for (v, (a, b)) in first.iter().zip(&oracle).enumerate() {
                assert!((a - b).abs() <= 1e-5 * b, "threads={threads} vertex {v}");
            }
        }
    }

    #[test]
    fn more_threads_than_vertices() {
        let g = UniformRandom::new(5, 12).generate(7);
        let oracle = pagerank_push_seq(&g, 10);
        let r = pagerank_dp(&g, 10, 16);
        for (a, b) in r.iter().zip(&oracle) {
            assert!((a - b).abs() <= 1e-5 * b, "{a} vs {b}");
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = PowerLaw::new(300, 3).generate(2);
        let r = pagerank_dp(&g, 15, 8);
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "sum {total}");
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g = heteromap_graph::EdgeList::new(0).into_csr().unwrap();
        assert!(pagerank_dp(&g, 5, 2).is_empty());
    }

    #[test]
    fn ranks_are_positive() {
        let g = UniformRandom::new(100, 400).generate(3);
        assert!(pagerank_dp(&g, 10, 2).iter().all(|&r| r > 0.0));
    }
}
