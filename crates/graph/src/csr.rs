//! Compressed sparse row (CSR) graph representation.

use crate::edgelist::EdgeList;
use crate::stats::{measure_uncached, GraphStats};
use crate::{GraphError, VertexId};
use std::sync::{Arc, OnceLock};

/// An immutable directed graph in compressed-sparse-row form.
///
/// Vertices are dense ids `0..vertex_count`. Out-edges of vertex `v` occupy
/// `offsets[v]..offsets[v + 1]` in the `targets`/`weights` arrays. This is the
/// layout every kernel in `heteromap-kernels` consumes, mirroring the CSR
/// layouts used by CRONO / GAP / Pannotia in the paper.
///
/// # Example
///
/// ```
/// use heteromap_graph::{CsrGraph, EdgeList};
///
/// let mut el = EdgeList::new(3);
/// el.push(0, 1, 1.0);
/// el.push(0, 2, 2.0);
/// el.push(1, 2, 3.0);
/// let g = CsrGraph::from_edge_list(el).unwrap();
/// assert_eq!(g.out_degree(0), 2);
/// assert_eq!(g.neighbors(1), &[2]);
/// ```
#[derive(Debug)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f32>,
    // Derived state. Both caches are filled at most once and never
    // invalidated, which is sound only because the three arrays above never
    // change after construction: `CsrGraph` has no public `&mut self`
    // method. Any mutator added later must reset both caches.
    /// Lazily computed transpose, shared by reference across kernels
    /// (pull-PageRank gathers and bottom-up BFS both need in-neighbours).
    transpose_cache: OnceLock<Arc<CsrGraph>>,
    /// Lazily measured structural statistics (the paper's I1–I4 inputs),
    /// so every job on the same graph pays the diameter sweeps once.
    stats_cache: OnceLock<GraphStats>,
}

impl Clone for CsrGraph {
    fn clone(&self) -> Self {
        // The transpose is per-instance and a clone recomputes it lazily;
        // the stats are a 32-byte value, so a clone keeps them.
        CsrGraph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: self.weights.clone(),
            transpose_cache: OnceLock::new(),
            stats_cache: self.stats_cache.clone(),
        }
    }
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        // Equality is structural; both caches are derived state.
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.weights == other.weights
    }
}

impl CsrGraph {
    /// Builds a CSR graph from an [`EdgeList`] using a counting sort, so
    /// construction is `O(V + E)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if any edge endpoint is
    /// outside `0..vertex_count`.
    pub fn from_edge_list(edges: EdgeList) -> Result<Self, GraphError> {
        let (n, sources, targets, weights) = edges.into_parts();
        for &v in sources.iter().chain(targets.iter()) {
            if (v as usize) >= n {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: v,
                    vertex_count: n,
                });
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for &s in &sources {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let m = sources.len();
        let mut out_targets = vec![0 as VertexId; m];
        let mut out_weights = vec![0.0f32; m];
        let mut cursor = offsets.clone();
        for i in 0..m {
            let s = sources[i] as usize;
            let at = cursor[s];
            out_targets[at] = targets[i];
            out_weights[at] = weights[i];
            cursor[s] += 1;
        }
        // Sort each adjacency run for deterministic iteration and fast
        // intersection (triangle counting relies on sorted neighbours).
        let mut g = CsrGraph {
            offsets,
            targets: out_targets,
            weights: out_weights,
            transpose_cache: OnceLock::new(),
            stats_cache: OnceLock::new(),
        };
        g.sort_adjacency();
        Ok(g)
    }

    fn sort_adjacency(&mut self) {
        let n = self.vertex_count();
        for v in 0..n {
            let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
            let mut idx: Vec<usize> = (lo..hi).collect();
            idx.sort_unstable_by_key(|&i| self.targets[i]);
            let t: Vec<VertexId> = idx.iter().map(|&i| self.targets[i]).collect();
            let w: Vec<f32> = idx.iter().map(|&i| self.weights[i]).collect();
            self.targets[lo..hi].copy_from_slice(&t);
            self.weights[lo..hi].copy_from_slice(&w);
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Out-neighbours of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights parallel to [`CsrGraph::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn weights(&self, v: VertexId) -> &[f32] {
        let v = v as usize;
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights(v).iter().copied())
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.vertex_count())
            .map(|v| self.out_degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree (`E / V`), or 0.0 for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.vertex_count() as f64
        }
    }

    /// Returns the transposed graph (every edge reversed), preserving weights.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.vertex_count();
        let mut el = EdgeList::with_capacity(n, self.edge_count());
        for v in 0..n {
            for (t, w) in self.edges(v as VertexId) {
                el.push(t, v as VertexId, w);
            }
        }
        // Cannot fail: all ids came from a valid graph.
        CsrGraph::from_edge_list(el).expect("transpose endpoints are in range")
    }

    /// The transposed graph, computed once per instance and shared by
    /// reference afterwards. Kernels that need in-neighbours repeatedly
    /// (pull PageRank every call, bottom-up BFS every level) amortize the
    /// `O(V + E)` transpose across all invocations on the same graph.
    pub fn transpose_cached(&self) -> Arc<CsrGraph> {
        Arc::clone(
            self.transpose_cache
                .get_or_init(|| Arc::new(self.transpose())),
        )
    }

    /// Structural statistics (sizes, maximum degree, approximate diameter),
    /// computed once per instance on first call and returned from the cache
    /// afterwards; [`GraphStats::measure`] is the same call. Clones keep the
    /// cached value.
    pub fn stats(&self) -> GraphStats {
        *self.stats_cache.get_or_init(|| measure_uncached(self))
    }

    /// Approximate size in bytes of the CSR arrays, used by the memory model
    /// when deciding whether a graph fits in an accelerator's DRAM.
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<f32>()
    }

    /// Extracts the subgraph induced by the vertex range `lo..hi`, with edges
    /// leaving the range dropped. Vertex ids are remapped to `0..(hi - lo)`.
    /// Used by the Stinger-like chunk streamer.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > vertex_count`.
    pub fn vertex_range_subgraph(&self, lo: VertexId, hi: VertexId) -> CsrGraph {
        assert!(lo <= hi && (hi as usize) <= self.vertex_count());
        let n = (hi - lo) as usize;
        let mut el = EdgeList::new(n);
        for v in lo..hi {
            for (t, w) in self.edges(v) {
                if t >= lo && t < hi {
                    el.push(v - lo, t - lo, w);
                }
            }
        }
        CsrGraph::from_edge_list(el).expect("subgraph endpoints are in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1.0);
        el.push(0, 2, 1.0);
        el.push(1, 3, 1.0);
        el.push(2, 3, 1.0);
        el.into_csr().unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut el = EdgeList::new(3);
        el.push(0, 2, 1.0);
        el.push(0, 1, 2.0);
        let g = el.into_csr().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.weights(0), &[2.0, 1.0]);
    }

    #[test]
    fn out_of_bounds_edge_is_rejected() {
        let mut el = EdgeList::new(2);
        el.push(0, 5, 1.0);
        let err = el.into_csr().unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfBounds { vertex: 5, .. }
        ));
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        // Transposing twice gives back the original.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn cached_transpose_matches_and_is_shared() {
        let g = diamond();
        let a = g.transpose_cached();
        assert_eq!(*a, g.transpose());
        let b = g.transpose_cached();
        // Same allocation, not a recomputation.
        assert!(Arc::ptr_eq(&a, &b));
        // Clones do not inherit the cache but recompute identically.
        let c = g.clone();
        assert_eq!(*c.transpose_cached(), *a);
    }

    #[test]
    fn second_stats_call_returns_the_memo() {
        let g = diamond();
        let first = g.stats();
        assert_eq!(first, measure_uncached(&g));
        assert_eq!(g.stats(), first);
    }

    #[test]
    fn clone_returns_the_same_stats() {
        let g = diamond();
        let first = g.stats();
        assert_eq!(g.clone().stats(), first);
        // A clone taken before the first measurement measures on its own.
        assert_eq!(diamond().clone().stats(), first);
    }

    #[test]
    fn filled_caches_do_not_affect_equality() {
        let g = diamond();
        g.stats();
        g.transpose_cached();
        assert_eq!(g, diamond());
        assert_eq!(diamond(), g);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = EdgeList::new(0).into_csr().unwrap();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn subgraph_remaps_and_filters() {
        let g = diamond();
        let s = g.vertex_range_subgraph(1, 4); // vertices 1,2,3 -> 0,1,2
        assert_eq!(s.vertex_count(), 3);
        // edges 1->3 and 2->3 survive as 0->2, 1->2; 0->1 / 0->2 dropped.
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.neighbors(0), &[2]);
        assert_eq!(s.neighbors(1), &[2]);
    }

    #[test]
    fn footprint_is_positive_for_nonempty() {
        let g = diamond();
        assert!(g.footprint_bytes() > 0);
    }

    #[test]
    fn edges_iterator_pairs_targets_with_weights() {
        let g = diamond();
        let pairs: Vec<_> = g.edges(0).collect();
        assert_eq!(pairs, vec![(1, 1.0), (2, 1.0)]);
    }
}
