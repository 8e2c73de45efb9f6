//! Structural graph statistics feeding the paper's `I` input variables.

use crate::csr::CsrGraph;
use crate::VertexId;

/// Structural statistics of a graph.
///
/// The four paper-relevant quantities map to the `I` variables of Section
/// III-B: `vertices` → I1, density (`edges`/`vertices`) → I2, `max_degree` →
/// I3, `diameter` → I4. For the Table I datasets these are taken verbatim
/// from the paper; for generated graphs they are measured with
/// [`GraphStats::measure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Number of vertices (paper variable behind `I1`).
    pub vertices: u64,
    /// Number of directed edges (behind `I2` via density).
    pub edges: u64,
    /// Maximum out-degree (behind `I3`).
    pub max_degree: u64,
    /// Graph diameter — exact on small graphs, double-sweep approximation on
    /// large ones (behind `I4`). The paper obtains it "alongside input graphs
    /// or using runtime approximations".
    pub diameter: u64,
}

impl GraphStats {
    /// Builds stats from already-known quantities (e.g. Table I rows).
    pub fn from_known(vertices: u64, edges: u64, max_degree: u64, diameter: u64) -> Self {
        GraphStats {
            vertices,
            edges,
            max_degree,
            diameter,
        }
    }

    /// Measures statistics of `graph`, once per graph instance: the first
    /// call on a [`CsrGraph`] runs the sweeps and later calls (and calls on
    /// its clones) return the cached value; see [`CsrGraph::stats`].
    ///
    /// The diameter is approximated with the classic *double-sweep* heuristic
    /// (BFS from an arbitrary vertex, then BFS from the farthest vertex
    /// found), repeated from a few seeds; this lower-bounds the true diameter
    /// and is exact on trees and most meshes. Unreachable pairs are ignored —
    /// the eccentricity within the largest reachable region is reported, as
    /// the paper's road/social datasets are connected.
    pub fn measure(graph: &CsrGraph) -> Self {
        graph.stats()
    }

    /// Average degree `E / V` (0.0 when the graph is empty).
    pub fn average_degree(&self) -> f64 {
        if self.vertices == 0 {
            0.0
        } else {
            self.edges as f64 / self.vertices as f64
        }
    }

    /// Approximate in-memory footprint in bytes of a CSR representation with
    /// 4-byte ids and 4-byte weights — the quantity compared against an
    /// accelerator's DRAM capacity by the memory model.
    pub fn footprint_bytes(&self) -> u64 {
        self.vertices * 8 + self.edges * 8
    }
}

/// The uncached measurement behind [`CsrGraph::stats`].
pub(crate) fn measure_uncached(graph: &CsrGraph) -> GraphStats {
    let n = graph.vertex_count();
    let diameter = if n == 0 {
        0
    } else {
        approximate_diameter(graph)
    };
    GraphStats {
        vertices: n as u64,
        edges: graph.edge_count() as u64,
        max_degree: graph.max_degree() as u64,
        diameter,
    }
}

/// Read-only adjacency view shared by every structure the stats code
/// traverses. [`CsrGraph`] implements it, and so does the dynamic graph in
/// `heteromap-dyngraph` — which is what makes the incrementally maintained
/// statistics *bit-identical* to a full recompute: both run the very same
/// BFS over the very same neighbor ordering.
pub trait AdjacencySource {
    /// Number of vertices.
    fn vertex_count(&self) -> usize;
    /// Out-neighbors of `v` in ascending order.
    fn neighbors_of(&self, v: VertexId) -> &[VertexId];
}

impl AdjacencySource for CsrGraph {
    fn vertex_count(&self) -> usize {
        CsrGraph::vertex_count(self)
    }

    fn neighbors_of(&self, v: VertexId) -> &[VertexId] {
        self.neighbors(v)
    }
}

/// Reusable BFS state for the diameter sweeps: one distance buffer and one
/// FIFO, kept across sweeps instead of allocated per sweep.
struct Sweeper {
    /// Hop distance per vertex; `u32::MAX` marks unvisited vertices.
    dist: Vec<u32>,
    /// Vertices in visit order: the BFS FIFO, read through a head cursor
    /// and never popped, so it also lists what the next sweep must reset.
    queue: Vec<VertexId>,
}

impl Sweeper {
    fn new(n: usize) -> Self {
        Sweeper {
            dist: vec![u32::MAX; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// BFS from `src` returning `(farthest_vertex, eccentricity)`: the first
    /// vertex dequeued at the largest hop distance, and that distance.
    fn eccentricity<G: AdjacencySource + ?Sized>(
        &mut self,
        graph: &G,
        src: VertexId,
    ) -> (VertexId, u32) {
        // The previous sweep's queue holds exactly the vertices it visited.
        for &v in &self.queue {
            self.dist[v as usize] = u32::MAX;
        }
        self.queue.clear();
        self.dist[src as usize] = 0;
        self.queue.push(src);
        let mut farthest = src;
        let mut ecc = 0;
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let d = self.dist[v as usize];
            if d > ecc {
                ecc = d;
                farthest = v;
            }
            for &t in graph.neighbors_of(v) {
                if self.dist[t as usize] == u32::MAX {
                    self.dist[t as usize] = d + 1;
                    self.queue.push(t);
                }
            }
        }
        (farthest, ecc)
    }
}

/// Double-sweep diameter approximation with a handful of restarts.
///
/// Public so that any [`AdjacencySource`] (notably the mutable graph of
/// `heteromap-dyngraph`) can reuse the exact BFS the static path uses —
/// the seeds, sweep order, and tie-breaks are part of the contract that
/// keeps incremental statistics bit-identical to [`GraphStats::measure`].
pub fn approximate_diameter<G: AdjacencySource + ?Sized>(graph: &G) -> u64 {
    let n = graph.vertex_count();
    let seeds: [usize; 4] = [0, n / 3, n / 2, (2 * n) / 3];
    let mut sweeper = Sweeper::new(n);
    let mut best = 0u32;
    for &s in &seeds {
        if s >= n {
            continue;
        }
        let (far, _) = sweeper.eccentricity(graph, s as VertexId);
        let (_, ecc) = sweeper.eccentricity(graph, far);
        best = best.max(ecc);
    }
    best as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    fn path(n: usize) -> CsrGraph {
        let mut el = EdgeList::new(n);
        for i in 0..n - 1 {
            el.push_undirected(i as VertexId, (i + 1) as VertexId, 1.0);
        }
        el.into_csr().unwrap()
    }

    fn cycle(n: usize) -> CsrGraph {
        let mut el = EdgeList::new(n);
        for i in 0..n {
            el.push_undirected(i as VertexId, ((i + 1) % n) as VertexId, 1.0);
        }
        el.into_csr().unwrap()
    }

    #[test]
    fn path_diameter_is_exact() {
        let g = path(10);
        let s = GraphStats::measure(&g);
        assert_eq!(s.diameter, 9);
        assert_eq!(s.vertices, 10);
        assert_eq!(s.edges, 18);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn cycle_diameter_is_half() {
        let g = cycle(12);
        let s = GraphStats::measure(&g);
        assert_eq!(s.diameter, 6);
    }

    #[test]
    fn star_diameter_is_two() {
        let mut el = EdgeList::new(6);
        for i in 1..6 {
            el.push_undirected(0, i, 1.0);
        }
        let s = el.into_csr().unwrap().stats();
        assert_eq!(s.diameter, 2);
        assert_eq!(s.max_degree, 5);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = EdgeList::new(0).into_csr().unwrap();
        let s = GraphStats::measure(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.diameter, 0);
        assert_eq!(s.average_degree(), 0.0);
    }

    #[test]
    fn from_known_round_trips() {
        let s = GraphStats::from_known(10, 20, 5, 3);
        assert_eq!(s.average_degree(), 2.0);
        assert_eq!(s.footprint_bytes(), 10 * 8 + 20 * 8);
    }

    #[test]
    fn diameter_handles_disconnected_graphs() {
        // Two disjoint edges: eccentricity within a component is 1.
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1, 1.0);
        el.push_undirected(2, 3, 1.0);
        let s = el.into_csr().unwrap().stats();
        assert_eq!(s.diameter, 1);
    }

    #[test]
    fn double_sweep_is_lower_bound_on_grid() {
        // 4x4 grid: true diameter 6; double-sweep must find at least a long
        // shortest path and never exceed it.
        let side = 4u32;
        let mut el = EdgeList::new((side * side) as usize);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    el.push_undirected(v, v + 1, 1.0);
                }
                if r + 1 < side {
                    el.push_undirected(v, v + side, 1.0);
                }
            }
        }
        let s = el.into_csr().unwrap().stats();
        assert!(s.diameter >= 4 && s.diameter <= 6, "got {}", s.diameter);
    }
}
