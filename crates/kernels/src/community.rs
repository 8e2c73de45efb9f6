//! Community detection by synchronous label propagation — FP scoring over
//! read-write shared labels (B5 + B6 + B10 in Fig. 5).
//!
//! Each vertex votes over its *out*-edges. The tally is the crate's `vote`
//! module (also behind [`labelprop`](crate::labelprop)): stack lanes for
//! low-degree vertices, dense per-label cells for the rest, so no vote
//! hashes or allocates. Each label's weight sums in edge order and the
//! `(weight desc, label asc)` winner does not depend on the order labels are
//! visited in, so labels equal the hash-map oracle
//! [`community_seq`](crate::verify::community_seq) bit for bit.

use crate::vote::propagate;
use heteromap_graph::CsrGraph;

/// Runs `iterations` rounds of weighted label propagation and returns the
/// community label of each vertex.
///
/// Each round, every vertex adopts the label with the largest total incident
/// edge weight among its neighbours (ties break toward the smaller label, so
/// the algorithm is deterministic and thread-count invariant). Labels update
/// synchronously (double-buffered), the phase/barrier structure the paper's
/// B13 counts.
pub fn community(graph: &CsrGraph, iterations: u32, threads: usize) -> Vec<u32> {
    propagate(graph, iterations, threads)
}

/// Number of distinct communities in a labelling.
pub fn community_count(labels: &[u32]) -> usize {
    let mut seen: Vec<u32> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::gen::{GraphGenerator, UniformRandom};
    use heteromap_graph::EdgeList;

    /// Two dense cliques joined by one weak edge.
    fn two_cliques() -> CsrGraph {
        let mut el = EdgeList::new(8);
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                el.push_undirected(a, b, 5.0);
            }
        }
        for a in 4..8u32 {
            for b in (a + 1)..8u32 {
                el.push_undirected(a, b, 5.0);
            }
        }
        el.push_undirected(3, 4, 0.1);
        el.into_csr().unwrap()
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques();
        let labels = community(&g, 10, 4);
        // Clique members agree internally and differ across the weak link.
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
        assert_eq!(community_count(&labels), 2);
    }

    #[test]
    fn isolated_vertices_keep_their_labels() {
        let g = EdgeList::new(3).into_csr().unwrap();
        assert_eq!(community(&g, 5, 2), vec![0, 1, 2]);
    }

    #[test]
    fn thread_count_invariant() {
        let g = UniformRandom::new(200, 1_200).generate(3);
        let one = community(&g, 8, 1);
        for t in [2, 8] {
            assert_eq!(community(&g, 8, t), one);
        }
    }

    #[test]
    fn zero_iterations_is_identity() {
        let g = two_cliques();
        assert_eq!(community(&g, 0, 4), (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn community_count_counts_distinct() {
        assert_eq!(community_count(&[3, 3, 1, 1, 7]), 3);
        assert_eq!(community_count(&[]), 0);
    }
}
