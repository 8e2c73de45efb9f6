//! Label propagation — push-direction weighted majority vote (B1 + B6 FP
//! scoring over B10 read-write shared labels), the third GARDENIA
//! widening of the benchmark space.
//!
//! Complements [`community`](crate::community): where community detection
//! votes over a vertex's *out*-edges, label propagation here gathers the
//! labels *pushed at* a vertex along its in-edges (via the cached
//! transpose), the GARDENIA formulation. Both tally with the shared sparse
//! accumulator of the crate's `vote` module: each vertex's vote sums serially in
//! in-edge order into a dense per-label slot, and the `(weight desc, label
//! asc)` winner does not depend on the order labels are visited in, so
//! rounds are synchronous (double-buffered) and the result equals
//! [`labelprop_seq`](crate::verify::labelprop_seq) bit for bit at every
//! thread count.

use crate::vote::propagate;
use heteromap_graph::CsrGraph;

/// Runs `iterations` synchronous rounds of push-direction weighted label
/// propagation and returns the final label of each vertex.
pub fn labelprop(graph: &CsrGraph, iterations: u32, threads: usize) -> Vec<u32> {
    let n = graph.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let transpose = graph.transpose_cached();
    // In-neighbors of v with the pushing edge's weight.
    propagate(n, iterations, threads, |v| transpose.edges(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::labelprop_seq;
    use heteromap_graph::gen::{Densifying, GraphGenerator, PowerLaw, UniformRandom};
    use heteromap_graph::EdgeList;

    #[test]
    fn strongly_weighted_source_dominates() {
        // 0 pushes hard at 1 and 2; they adopt 0's label.
        let mut el = EdgeList::new(3);
        el.push(0, 1, 10.0);
        el.push(0, 2, 10.0);
        el.push(1, 2, 0.1);
        let g = el.into_csr().unwrap();
        let labels = labelprop(&g, 3, 2);
        assert_eq!(labels, vec![0, 0, 0]);
    }

    #[test]
    fn vertices_without_in_edges_keep_their_labels() {
        let mut el = EdgeList::new(3);
        el.push(0, 1, 1.0);
        let g = el.into_csr().unwrap();
        let labels = labelprop(&g, 5, 1);
        assert_eq!(labels[0], 0, "no in-edges: label survives");
        assert_eq!(labels[2], 2);
    }

    #[test]
    fn matches_sequential_reference_bit_for_bit() {
        for seed in 0..3 {
            let g = UniformRandom::new(280, 2_000).generate(seed);
            let reference = labelprop_seq(&g, 8);
            for threads in [1, 4, 16] {
                assert_eq!(labelprop(&g, 8, threads), reference, "threads={threads}");
            }
        }
    }

    #[test]
    fn thread_count_invariant_on_skewed_and_densifying_graphs() {
        for g in [
            PowerLaw::new(300, 3).generate(4),
            Densifying::new(300, 6, 200).generate(4),
        ] {
            let one = labelprop(&g, 6, 1);
            for t in [4, 16] {
                assert_eq!(labelprop(&g, 6, t), one);
            }
        }
    }

    #[test]
    fn zero_iterations_is_identity() {
        let g = UniformRandom::new(50, 200).generate(0);
        assert_eq!(labelprop(&g, 0, 4), (0..50).collect::<Vec<u32>>());
    }
}
