//! k-core decomposition by frontier peeling — the parallel form of
//! Batagelj–Zaversnik peeling (B4 push-pop frontier + B5 degree reduction
//! over B10 read-write shared counters), the second GARDENIA widening of
//! the benchmark space.
//!
//! Peels vertices level by level. Level `k` is the smallest remaining
//! out-degree; one scan of the compacted remaining-vertex list seeds the
//! first wave with the vertices at degree `k`, whose core number is `k`.
//! Each wave walks only its vertices' in-neighbours and decrements a
//! neighbour's remaining degree only while it is above `k`, so the one
//! decrement that takes a degree from `k + 1` to `k` puts that neighbour in
//! the next wave, and no vertex enters twice. Waves run on
//! [`FrontierRounds`] with one participant per
//! [`KCORE_EDGES_PER_PARTICIPANT`] in-edges, so the many small waves of a
//! mesh, and the waves too small to pay for contended decrements, run on
//! the caller. A peeled vertex's degree stops at its core number, so the
//! degree array is the output.
//!
//! The level-`k` fixpoint is unique (peeling is confluent), so the core
//! numbers are bit-identical for every thread count, scheduler, and wave
//! interleaving: only *when* a vertex is removed within a level can race,
//! never *at which level*. The simulated accelerators keep charging the
//! B-profile above, which describes the algorithm class, not this host's
//! frontier.

use crate::frontier::{FrontierRounds, RoundWork};
use crate::par::{Scheduler, KCORE_EDGES_PER_PARTICIPANT};
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Core number of every vertex with [`Scheduler::Static`].
pub fn kcore(graph: &CsrGraph, threads: usize) -> Vec<u32> {
    kcore_with(graph, threads, Scheduler::Static)
}

/// [`kcore`] with an explicit work-distribution policy for the waves.
pub fn kcore_with(graph: &CsrGraph, threads: usize, scheduler: Scheduler) -> Vec<u32> {
    let n = graph.vertex_count();
    let transpose = graph.transpose_cached();
    // Remaining out-degrees. Relaxed suffices: a counter publishes no
    // other data, and the pool's barrier orders each wave's updates before
    // the next wave, the next scan and the final read.
    let deg: Vec<AtomicU32> = (0..n)
        .map(|v| AtomicU32::new(graph.out_degree(v as VertexId) as u32))
        .collect();
    // Every vertex enters a wave at most once. A wave's work is the
    // in-edges it decrements.
    let mut waves = FrontierRounds::new(n, threads, 0);
    let work = RoundWork::Edges(&transpose, KCORE_EDGES_PER_PARTICIPANT);
    let mut remaining: Vec<VertexId> = (0..n as VertexId).collect();
    let mut seeds = Vec::new();
    // Vertices below this degree are peeled.
    let mut floor = 0u32;
    loop {
        // Drop the peeled vertices and find the next level: the smallest
        // remaining degree, and the vertices at it.
        let mut k = u32::MAX;
        seeds.clear();
        remaining.retain(|&v| {
            let d = deg[v as usize].load(Ordering::Relaxed);
            if d < floor {
                return false;
            }
            if d < k {
                k = d;
                seeds.clear();
            }
            if d == k {
                seeds.push(v);
            }
            true
        });
        if remaining.is_empty() {
            break;
        }
        waves.reset(&seeds);
        while !waves.is_empty() {
            waves.advance(work, scheduler, threads, |v, out| {
                for &u in transpose.neighbors(v) {
                    let before =
                        deg[u as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                            (d > k).then(|| d - 1)
                        });
                    if before == Ok(k + 1) {
                        out.push(u);
                    }
                }
            });
        }
        floor = k + 1;
    }
    deg.into_iter().map(AtomicU32::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::kcore_seq;
    use heteromap_graph::gen::{GraphGenerator, PowerLaw, UniformRandom};
    use heteromap_graph::EdgeList;

    #[test]
    fn star_is_a_one_core() {
        let mut el = EdgeList::new(6);
        for i in 1..6 {
            el.push_undirected(0, i, 1.0);
        }
        let g = el.into_csr().unwrap();
        assert_eq!(kcore(&g, 4), vec![1; 6]);
    }

    #[test]
    fn clique_core_is_degree() {
        // K4 (undirected): every vertex sits in the 3-core.
        let mut el = EdgeList::new(4);
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                el.push_undirected(a, b, 1.0);
            }
        }
        let g = el.into_csr().unwrap();
        assert_eq!(kcore(&g, 2), vec![3; 4]);
    }

    #[test]
    fn isolated_vertices_are_zero_core() {
        let g = EdgeList::new(3).into_csr().unwrap();
        assert_eq!(kcore(&g, 2), vec![0; 3]);
    }

    #[test]
    fn matches_sequential_reference_bit_for_bit() {
        for seed in 0..3 {
            let g = UniformRandom::new(250, 1_800).generate(seed);
            let reference = kcore_seq(&g);
            for threads in [1, 4, 16] {
                assert_eq!(kcore(&g, threads), reference, "threads={threads}");
            }
        }
    }

    #[test]
    fn scheduler_invariant_on_skewed_graphs() {
        let g = PowerLaw::new(350, 4).generate(1);
        let reference = kcore_seq(&g);
        assert_eq!(
            kcore_with(&g, 8, Scheduler::Dynamic { grain: 16 }),
            reference
        );
    }
}
