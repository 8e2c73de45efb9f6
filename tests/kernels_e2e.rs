//! End-to-end kernel validation on dataset surrogates: every parallel
//! kernel agrees with its sequential reference across thread counts, on
//! every structural graph family the paper evaluates.

use heteromap_graph::datasets::Dataset;
use heteromap_graph::gen::{GraphGenerator, RMat};
use heteromap_graph::{CsrGraph, EdgeList, VertexId};
use heteromap_kernels::runner::KernelOutput;
use heteromap_kernels::verify;
use heteromap_kernels::KernelRunner;
use heteromap_model::Workload;

fn surrogates() -> Vec<(Dataset, CsrGraph)> {
    [Dataset::UsaCal, Dataset::Facebook, Dataset::Cage14]
        .into_iter()
        .map(|d| (d, d.surrogate_graph(1_500, 13)))
        .collect()
}

/// Label-propagation sweeps for the community and labelprop checks.
const SWEEPS: u32 = 10;

/// Seeded R-MAT inputs for the vote and intersection kernels: the raw
/// directed graph (hubs, distinct real weights), and its undirected closure
/// with weights in {1, 2, 3}, so hub neighbourhoods repeat labels and label
/// votes tie often.
fn rmat_graphs() -> Vec<(String, CsrGraph)> {
    let g = RMat::new(11, 8.0, 0.57, 0.19, 0.19).generate(21);
    let mut el = EdgeList::new(g.vertex_count());
    for v in 0..g.vertex_count() as VertexId {
        for (t, w) in g.edges(v) {
            el.push_undirected(v, t, w.floor() % 3.0 + 1.0);
        }
    }
    el.dedup();
    vec![
        ("rmat-11".to_string(), g),
        ("rmat-11-tied".to_string(), el.into_csr().unwrap()),
    ]
}

#[test]
fn bfs_matches_reference_on_all_surrogates() {
    for (d, g) in surrogates() {
        let expected = verify::bfs_seq(&g, 0);
        for threads in [1, 3, 8] {
            let run = KernelRunner::new(threads).run(Workload::Bfs, &g);
            match run.output {
                KernelOutput::Levels(l) => assert_eq!(l, expected, "{d}/{threads}"),
                other => panic!("unexpected output {other:?}"),
            }
        }
    }
}

#[test]
fn both_sssp_kernels_match_dijkstra() {
    for (d, g) in surrogates() {
        let expected = verify::dijkstra(&g, 0);
        for w in [Workload::SsspBf, Workload::SsspDelta] {
            let run = KernelRunner::new(4).run(w, &g);
            match run.output {
                KernelOutput::Distances(dist) => {
                    for (v, (&a, &b)) in dist.iter().zip(expected.iter()).enumerate() {
                        if a.is_finite() || b.is_finite() {
                            assert!((a - b).abs() < 1e-2, "{d}/{w} vertex {v}: {a} vs {b}");
                        }
                    }
                }
                other => panic!("unexpected output {other:?}"),
            }
        }
    }
}

#[test]
fn pagerank_variants_agree_and_sum_to_one() {
    for (d, g) in surrogates() {
        let runner = KernelRunner::new(4).with_pagerank_iterations(10);
        let pull = match runner.run(Workload::PageRank, &g).output {
            KernelOutput::Ranks(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        let push = match runner.run(Workload::PageRankDp, &g).output {
            KernelOutput::Ranks(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        let sum: f64 = pull.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{d}: pull sums to {sum}");
        for (v, (a, b)) in pull.iter().zip(push.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3, "{d} vertex {v}: {a} vs {b}");
        }
    }
}

#[test]
fn triangle_count_matches_reference_on_undirected_surrogates() {
    // Grid and power-law surrogates store both edge directions.
    let mut graphs: Vec<(String, CsrGraph)> = [Dataset::UsaCal, Dataset::Facebook]
        .into_iter()
        .map(|d| (d.to_string(), d.surrogate_graph(1_200, 5)))
        .collect();
    graphs.extend(rmat_graphs());
    for (name, g) in graphs {
        let expected = verify::triangle_seq(&g);
        for threads in [1, 3, 8] {
            let run = KernelRunner::new(threads).run(Workload::TriangleCount, &g);
            assert_eq!(
                run.output,
                KernelOutput::Count(expected),
                "{name}/{threads}"
            );
        }
    }
}

#[test]
fn connected_components_match_union_find() {
    for (d, g) in surrogates() {
        let expected = verify::conncomp_seq(&g);
        let run = KernelRunner::new(4).run(Workload::ConnComp, &g);
        assert_eq!(run.output, KernelOutput::Labels(expected), "{d}");
    }
}

#[test]
fn dfs_reaches_exactly_the_bfs_reachable_set() {
    for (d, g) in surrogates() {
        let reach = verify::bfs_seq(&g, 0);
        let run = KernelRunner::new(4).run(Workload::Dfs, &g);
        let parents = match run.output {
            KernelOutput::Levels(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        for v in 0..g.vertex_count() {
            assert_eq!(
                reach[v] != u32::MAX,
                parents[v] != u32::MAX,
                "{d} vertex {v}"
            );
        }
    }
}

/// The surrogates plus the seeded R-MAT inputs, by name.
fn vote_graphs() -> Vec<(String, CsrGraph)> {
    let mut graphs: Vec<(String, CsrGraph)> = surrogates()
        .into_iter()
        .map(|(d, g)| (d.to_string(), g))
        .collect();
    graphs.extend(rmat_graphs());
    graphs
}

#[test]
fn community_labels_are_stable_across_threads() {
    // The hash-map oracle, not the kernel at one thread, is the reference.
    for (name, g) in vote_graphs() {
        let expected = KernelOutput::Labels(verify::community_seq(&g, SWEEPS));
        for threads in [1, 3, 8] {
            let runner = KernelRunner::new(threads).with_community_iterations(SWEEPS);
            let run = runner.run(Workload::Community, &g);
            assert_eq!(run.output, expected, "{name}/{threads}");
        }
    }
}

#[test]
fn labelprop_matches_sequential_oracle() {
    for (name, g) in vote_graphs() {
        let expected = KernelOutput::Labels(verify::labelprop_seq(&g, SWEEPS));
        for threads in [1, 3, 8] {
            let runner = KernelRunner::new(threads).with_community_iterations(SWEEPS);
            let run = runner.run(Workload::LabelProp, &g);
            assert_eq!(run.output, expected, "{name}/{threads}");
        }
    }
}
