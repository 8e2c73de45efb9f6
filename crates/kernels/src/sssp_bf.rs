//! Data-parallel Bellman-Ford SSSP — the paper's worked example (Fig. 6):
//! pure vertex division (B1 = 1) with atomic relaxations on the shared
//! distance array (B12) and a barrier per round (B13).
//!
//! The rounds are data-driven: round `r` relaxes only the out-edges of the
//! vertices whose distance dropped in round `r − 1`, instead of sweeping
//! every vertex. A per-vertex round stamp admits each vertex to the next
//! round once. Rounds run on [`FrontierRounds`] with one participant per
//! [`BF_EDGES_PER_PARTICIPANT`] out-edges, so the hundreds of small rounds
//! of a mesh run on the caller. The simulated accelerators keep
//! charging the paper's B-profile above; it describes the algorithm class,
//! not this host's worklist.

use crate::frontier::{FrontierRounds, RoundWork};
use crate::par::{atomic_min_f32, Scheduler, BF_EDGES_PER_PARTICIPANT};
use crate::Distance;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Runs parallel Bellman-Ford from `source`, returning the shortest
/// distances (`f32::INFINITY` for unreachable vertices).
///
/// Each round relaxes the out-edges of the previous round's improved
/// vertices in parallel (vertex division); the algorithm converges in at
/// most `diameter` rounds and stops once a round improves nothing. The
/// distances equal [`dijkstra`](crate::verify::dijkstra)'s bit for bit at
/// every thread count: every relaxation order ends at the same fixpoint.
///
/// # Panics
///
/// Panics if `source` is out of bounds or any edge weight is negative.
pub fn sssp_bf(graph: &CsrGraph, source: VertexId, threads: usize) -> Vec<Distance> {
    sssp_bf_with(graph, source, threads, Scheduler::Static)
}

/// [`sssp_bf`] with an explicit work-distribution policy (the deployed
/// `M11`/`M12` choices).
pub fn sssp_bf_with(
    graph: &CsrGraph,
    source: VertexId,
    threads: usize,
    scheduler: Scheduler,
) -> Vec<Distance> {
    let n = graph.vertex_count();
    assert!((source as usize) < n, "source out of bounds");
    let dist: Vec<AtomicU32> = (0..n)
        .map(|_| AtomicU32::new(f32::INFINITY.to_bits()))
        .collect();
    dist[source as usize].store(0.0f32.to_bits(), Ordering::Relaxed);
    // The round that last admitted each vertex to the next frontier, so a
    // vertex improved many times in one round is relaxed once in the next.
    let stamp: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let mut rounds = FrontierRounds::new(n, threads, 0);
    let work = RoundWork::Edges(graph, BF_EDGES_PER_PARTICIPANT);
    rounds.reset(&[source]);
    let mut round = 0u32;
    while !rounds.is_empty() {
        round += 1;
        rounds.advance(work, scheduler, threads, |v, out| {
            let dv = f32::from_bits(dist[v as usize].load(Ordering::Relaxed));
            for (t, w) in graph.edges(v) {
                assert!(w >= 0.0, "negative edge weight");
                if atomic_min_f32(&dist[t as usize], dv + w)
                    && stamp[t as usize].swap(round, Ordering::Relaxed) != round
                {
                    out.push(t);
                }
            }
        });
    }
    dist.into_iter()
        .map(|d| f32::from_bits(d.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::dijkstra;
    use heteromap_graph::gen::{GraphGenerator, Grid, PowerLaw, UniformRandom};
    use heteromap_graph::EdgeList;

    /// Bit equality: every relaxation order ends at the same fixpoint
    /// (see [`dijkstra`]).
    fn assert_bits_eq(a: &[f32], b: &[f32]) {
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..4 {
            let g = UniformRandom::new(200, 1_200).generate(seed);
            assert_bits_eq(&sssp_bf(&g, 0, 4), &dijkstra(&g, 0));
        }
    }

    #[test]
    fn matches_dijkstra_on_weighted_grid() {
        let g = Grid::new(15, 15).generate(3);
        assert_bits_eq(&sssp_bf(&g, 7, 8), &dijkstra(&g, 7));
    }

    #[test]
    fn matches_dijkstra_on_power_law() {
        let g = PowerLaw::new(600, 3).generate(5);
        assert_bits_eq(&sssp_bf(&g, 0, 6), &dijkstra(&g, 0));
    }

    #[test]
    fn source_distance_is_zero() {
        let g = UniformRandom::new(50, 200).generate(0);
        assert_eq!(sssp_bf(&g, 17, 2)[17], 0.0);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut el = EdgeList::new(3);
        el.push(0, 1, 2.0);
        let g = el.into_csr().unwrap();
        let d = sssp_bf(&g, 0, 2);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = UniformRandom::new(300, 2_000).generate(9);
        let one = sssp_bf(&g, 0, 1);
        for t in [2, 8] {
            assert_bits_eq(&sssp_bf(&g, 0, t), &one);
        }
    }
}
