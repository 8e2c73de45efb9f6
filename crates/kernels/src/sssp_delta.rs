//! Δ-stepping SSSP (GAP-style): distance buckets processed in order, with a
//! parallel relaxation phase per bucket and a reduction to select the next
//! bucket — the push-pop (B4) + reduction (B5) profile of Fig. 5.

use crate::par::{atomic_min_f32, phase_threads, Scheduler};
use crate::Distance;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Runs Δ-stepping from `source` with bucket width `delta`, returning the
/// shortest distances.
///
/// The current bucket's vertices are relaxed in parallel (light and heavy
/// edges together — a simplification that preserves correctness because
/// settled vertices re-relax no-ops); vertices whose tentative distance
/// drops into a future bucket are re-queued there.
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
        // Pop the bucket and relax it in parallel until it stops refilling
        // (light-edge reinsertions land back in the same bucket). A small
        // pass runs on the caller instead of waking the pool.
        while !buckets[current].is_empty() {
            let frontier = std::mem::take(&mut buckets[current]);
            let inserts: Mutex<Vec<(usize, VertexId)>> = Mutex::new(Vec::new());
            let participants = phase_threads(frontier.len(), threads);
            Scheduler::Static.for_each(frontier.len(), participants, |range| {
                let mut local = Vec::new();
                for &v in &frontier[range] {
                    let dv = f32::from_bits(dist[v as usize].load(Ordering::Relaxed));
                    // Skip stale entries that already left this bucket.
                    if (dv / delta) as usize != current && dv.is_finite() {
                        if ((dv / delta) as usize) < current {
                            // settled earlier; re-relax is a cheap no-op pass
                        } else {
                            continue;
                        }
                    }
                    for (t, w) in graph.edges(v) {
                        assert!(w >= 0.0, "negative edge weight");
                        let nd = dv + w;
                        if atomic_min_f32(&dist[t as usize], nd) {
                            local.push(((nd / delta) as usize, t));
                        }
                    }
                }
                if !local.is_empty() {
                    inserts
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .extend_from_slice(&local);
                }
            });
            let inserts = inserts.into_inner().unwrap_or_else(|e| e.into_inner());
            for (b, v) in inserts {
                let b = b.max(current);
                if b >= buckets.len() {
                    buckets.resize(b + 1, Vec::new());
                }
                buckets[b].push(v);
            }
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
    #[should_panic(expected = "delta must be positive")]
    fn zero_delta_panics() {
        let g = UniformRandom::new(10, 30).generate(0);
        let _ = sssp_delta(&g, 0, 0.0, 1);
    }
}
