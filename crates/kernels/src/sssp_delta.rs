//! Δ-stepping SSSP (GAP-style): distance buckets processed in order, with a
//! parallel relaxation phase per bucket and a reduction to select the next
//! bucket — the push-pop (B4) + reduction (B5) profile of Fig. 5.
//!
//! A bucket's passes run on [`FrontierRounds`]: a pass is a Bellman-Ford
//! round over the bucket's vertices, so it counts its work in out-edges
//! with [`BF_EDGES_PER_PARTICIPANT`], and a per-vertex pass stamp queues
//! each improved vertex once. After the pass's barrier every queued vertex
//! is filed by its distance at that moment: a vertex that now belongs to a
//! later bucket waits there (once, however often it improves), and the
//! rest form the bucket's next pass.

use crate::frontier::{FrontierRounds, RoundWork};
use crate::par::{atomic_min_f32, Scheduler, BF_EDGES_PER_PARTICIPANT};
use crate::Distance;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Runs Δ-stepping from `source` with bucket width `delta`, returning the
/// shortest distances.
///
/// The current bucket's vertices are relaxed in parallel (light and heavy
/// edges together — a simplification that preserves correctness because
/// settled vertices re-relax no-ops); vertices whose tentative distance
/// drops into a future bucket are re-queued there. Every improved vertex
/// is relaxed again after its last improvement, so the distances are the
/// same fixpoint as [`dijkstra`](crate::verify::dijkstra)'s, bit for bit.
///
/// # Panics
///
/// Panics if `source` is out of bounds, `delta` is not positive, or an edge
/// weight is negative.
pub fn sssp_delta(
    graph: &CsrGraph,
    source: VertexId,
    delta: Distance,
    threads: usize,
) -> Vec<Distance> {
    let n = graph.vertex_count();
    assert!((source as usize) < n, "source out of bounds");
    assert!(delta > 0.0, "delta must be positive");
    let dist: Vec<AtomicU32> = (0..n)
        .map(|_| AtomicU32::new(f32::INFINITY.to_bits()))
        .collect();
    dist[source as usize].store(0.0f32.to_bits(), Ordering::Relaxed);
    let bucket_of =
        |v: VertexId| (f32::from_bits(dist[v as usize].load(Ordering::Relaxed)) / delta) as usize;
    // The pass that last queued each vertex, so a vertex improved many
    // times in one pass is queued once.
    let stamp: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    // The bucket each vertex was last filed into, so a bucket holds each
    // vertex once and fits the frontier.
    let mut filed = vec![usize::MAX; n];
    let mut rounds = FrontierRounds::new(n, threads, 0);
    let work = RoundWork::Edges(graph, BF_EDGES_PER_PARTICIPANT);
    let mut pass = 0u32;

    let mut buckets: Vec<Vec<VertexId>> = vec![vec![source]];
    let mut current = 0usize;
    loop {
        // Reduction phase: select the next non-empty bucket (B5).
        while current < buckets.len() && buckets[current].is_empty() {
            current += 1;
        }
        if current >= buckets.len() {
            break;
        }
        // Relax the bucket until it stops refilling (light-edge
        // reinsertions land back in the same bucket).
        rounds.reset(&buckets[current]);
        buckets[current].clear();
        while !rounds.is_empty() {
            pass += 1;
            rounds.advance(work, Scheduler::Static, threads, |v, out| {
                // Skip stale entries that already left for a later bucket;
                // one settled in an earlier bucket re-relaxes as a no-op.
                if bucket_of(v) > current {
                    return;
                }
                let dv = f32::from_bits(dist[v as usize].load(Ordering::Relaxed));
                for (t, w) in graph.edges(v) {
                    assert!(w >= 0.0, "negative edge weight");
                    if atomic_min_f32(&dist[t as usize], dv + w)
                        && stamp[t as usize].swap(pass, Ordering::Relaxed) != pass
                    {
                        out.push(t);
                    }
                }
            });
            rounds.retain(|v| {
                let b = bucket_of(v);
                if b <= current {
                    return true;
                }
                if std::mem::replace(&mut filed[v as usize], b) != b {
                    if b >= buckets.len() {
                        buckets.resize(b + 1, Vec::new());
                    }
                    buckets[b].push(v);
                }
                false
            });
        }
        current += 1;
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

    /// Bit equality: every relaxation order ends at the same fixpoint
    /// (see [`dijkstra`]).
    fn assert_bits_eq(a: &[f32], b: &[f32]) {
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..4 {
            let g = UniformRandom::new(250, 1_500).generate(seed);
            assert_bits_eq(&sssp_delta(&g, 0, 4.0, 4), &dijkstra(&g, 0));
        }
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let g = Grid::new(14, 14).generate(1);
        assert_bits_eq(&sssp_delta(&g, 0, 2.0, 8), &dijkstra(&g, 0));
    }

    #[test]
    fn matches_dijkstra_on_power_law() {
        let g = PowerLaw::new(500, 3).generate(4);
        assert_bits_eq(&sssp_delta(&g, 0, 8.0, 6), &dijkstra(&g, 0));
    }

    #[test]
    fn delta_width_does_not_change_answers() {
        let g = UniformRandom::new(200, 1_000).generate(2);
        let d1 = sssp_delta(&g, 0, 1.0, 4);
        let d8 = sssp_delta(&g, 0, 8.0, 4);
        let dhuge = sssp_delta(&g, 0, 1e9, 4);
        assert_bits_eq(&d1, &d8);
        assert_bits_eq(&d1, &dhuge);
    }

    #[test]
    fn a_later_bucket_holds_each_vertex_once() {
        use heteromap_graph::EdgeList;
        // A 10-vertex chain in bucket 0 whose every link improves the
        // same 10 targets in bucket 2, one pass after another: 100
        // improvements file into bucket 2, which has room for 20 vertices.
        let (chain, targets) = (10u32, 10u32);
        let mut el = EdgeList::new((chain + targets) as usize);
        for i in 0..chain {
            if i + 1 < chain {
                el.push(i, i + 1, 0.001);
            }
            for t in 0..targets {
                el.push(i, chain + t, 10.0 - 0.01 * i as f32);
            }
        }
        let g = el.into_csr().unwrap();
        for threads in [1, 2] {
            assert_bits_eq(&sssp_delta(&g, 0, 4.0, threads), &dijkstra(&g, 0));
        }
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn zero_delta_panics() {
        let g = UniformRandom::new(10, 30).generate(0);
        let _ = sssp_delta(&g, 0, 0.0, 1);
    }
}
