//! Integration tests for the persistent execution engine: every kernel,
//! routed through `KernelRunner` onto the shared pool, must match the
//! sequential verifiers at 1, 4 and 16 threads — bit-identical for integer
//! kernels, reference-tolerance for floating-point kernels — and repeated
//! runs on the same (reused) pool must be deterministic.

use heteromap_graph::gen::{GraphGenerator, PowerLaw, UniformRandom};
use heteromap_graph::{CsrGraph, EdgeList, VertexId};
use heteromap_kernels::verify::{
    bfs_seq, community_seq, conncomp_seq, dijkstra, pagerank_seq, triangle_seq,
};
use heteromap_kernels::{KernelOutput, KernelRunner};
use heteromap_model::Workload;

const THREAD_COUNTS: [usize; 3] = [1, 4, 16];

/// A directed test graph dense enough to open BFS's direction-optimizing
/// gate, plus a sparser one and a power-law one.
fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("uniform-sparse", UniformRandom::new(300, 1_500).generate(3)),
        ("uniform-dense", UniformRandom::new(400, 4_000).generate(5)),
        ("power-law", PowerLaw::new(500, 4).generate(7)),
    ]
}

/// Symmetrized graph for triangle counting.
fn symmetrized(g: &CsrGraph) -> CsrGraph {
    let mut el = EdgeList::new(g.vertex_count());
    for v in 0..g.vertex_count() as VertexId {
        for &t in g.neighbors(v) {
            el.push_undirected(v, t, 1.0);
        }
    }
    el.dedup();
    el.into_csr().expect("valid symmetrized graph")
}

/// SSSP distances equal Dijkstra's bit for bit: every relaxation order
/// ends at the same fixpoint.
fn assert_f32_bits_eq(tag: &str, got: &[f32], want: &[f32]) {
    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{tag}");
}

fn assert_f64_close(tag: &str, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{tag}");
    for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert!((a - b).abs() < tol, "{tag}: vertex {i}: {a} vs {b}");
    }
}

#[test]
fn all_nine_kernels_match_verifiers_at_every_thread_count() {
    for (name, g) in test_graphs() {
        let tri_graph = symmetrized(&g);
        let seq_levels = bfs_seq(&g, 0);
        let seq_dist = dijkstra(&g, 0);
        let seq_ranks = pagerank_seq(&g, 8);
        let seq_comps = conncomp_seq(&g);
        let seq_triangles = triangle_seq(&tri_graph);
        // The runner's default 10 label-propagation sweeps.
        let seq_communities = community_seq(&g, 10);
        for threads in THREAD_COUNTS {
            let runner = KernelRunner::new(threads).with_pagerank_iterations(8);
            let tag = format!("{name}/t{threads}");
            for w in Workload::all() {
                let graph = if w == Workload::TriangleCount {
                    &tri_graph
                } else {
                    &g
                };
                match (w, runner.run(w, graph).output) {
                    // Integer kernels: bit-identical with the reference.
                    (Workload::Bfs, KernelOutput::Levels(levels)) => {
                        assert_eq!(levels, seq_levels, "{tag}: bfs")
                    }
                    (Workload::ConnComp, KernelOutput::Labels(labels)) => {
                        assert_eq!(labels, seq_comps, "{tag}: conncomp")
                    }
                    (Workload::TriangleCount, KernelOutput::Count(c)) => {
                        assert_eq!(c, seq_triangles, "{tag}: triangle")
                    }
                    (Workload::Dfs, KernelOutput::Levels(parent)) => {
                        // DFS trees are scheduling-dependent; the visited
                        // set must equal BFS reachability.
                        for (v, (&p, &l)) in parent.iter().zip(&seq_levels).enumerate() {
                            assert_eq!(
                                p != u32::MAX,
                                l != u32::MAX,
                                "{tag}: dfs reachability of {v}"
                            );
                        }
                    }
                    (Workload::Community, KernelOutput::Labels(labels)) => {
                        assert_eq!(labels, seq_communities, "{tag}: community")
                    }
                    // SSSP is exact; the PageRanks compare within a tolerance.
                    (Workload::SsspBf, KernelOutput::Distances(d)) => {
                        assert_f32_bits_eq(&format!("{tag}: sssp_bf"), &d, &seq_dist)
                    }
                    (Workload::SsspDelta, KernelOutput::Distances(d)) => {
                        assert_f32_bits_eq(&format!("{tag}: sssp_delta"), &d, &seq_dist)
                    }
                    (Workload::PageRank, KernelOutput::Ranks(r)) => {
                        assert_f64_close(&format!("{tag}: pagerank"), &r, &seq_ranks, 1e-9)
                    }
                    (Workload::PageRankDp, KernelOutput::Ranks(r)) => {
                        // Push PageRank accumulates in f32.
                        assert_f64_close(&format!("{tag}: pagerank_dp"), &r, &seq_ranks, 1e-3)
                    }
                    (w, out) => panic!("{tag}: unexpected output {out:?} for {w}"),
                }
            }
        }
    }
}

#[test]
fn repeated_runs_on_the_reused_pool_are_deterministic() {
    let g = UniformRandom::new(350, 2_400).generate(11);
    let runner = KernelRunner::new(4).with_pagerank_iterations(6);
    // Deterministic kernels must produce identical outputs when the same
    // pool workers are reused across many invocations.
    for w in [
        Workload::Bfs,
        Workload::SsspBf,
        Workload::SsspDelta,
        Workload::PageRank,
        Workload::PageRankDp,
        Workload::ConnComp,
        Workload::Community,
        Workload::LabelProp,
        Workload::TriangleCount,
    ] {
        let first = runner.run(w, &g).output;
        for round in 0..5 {
            assert_eq!(runner.run(w, &g).output, first, "{w}: round {round}");
        }
    }
}
