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

/// The bit-exact oracle output for a kernel whose output does not depend
/// on scheduling.
fn exact_oracle(w: Workload, g: &CsrGraph) -> KernelOutput {
    match w {
        Workload::Bfs => KernelOutput::Levels(verify::bfs_seq(g, 0)),
        Workload::TriangleCount => KernelOutput::Count(verify::triangle_seq(g)),
        Workload::ConnComp => KernelOutput::Labels(verify::conncomp_seq(g)),
        Workload::KCore => KernelOutput::Labels(verify::kcore_seq(g)),
        Workload::Community => KernelOutput::Labels(verify::community_seq(g, SWEEPS)),
        Workload::LabelProp => KernelOutput::Labels(verify::labelprop_seq(g, SWEEPS)),
        Workload::Spmv => {
            // The runner's fixed SpMV input vector.
            let x: Vec<f32> = (0..g.vertex_count())
                .map(|i| 1.0 + (i % 7) as f32 * 0.25)
                .collect();
            KernelOutput::Distances(verify::spmv_seq(g, &x))
        }
        other => panic!("{other} has no bit-exact oracle"),
    }
}

#[test]
fn every_workload_matches_its_oracle_at_one_and_four_threads() {
    // The runner's defaults: 20 PageRank iterations, 10 label sweeps.
    const ITERATIONS: u32 = 20;
    for (name, g) in vote_graphs() {
        let levels = verify::bfs_seq(&g, 0);
        let dist = verify::dijkstra(&g, 0);
        let pull = verify::pagerank_seq(&g, ITERATIONS);
        let push = verify::pagerank_push_seq(&g, ITERATIONS);
        for threads in [1, 4] {
            let runner = KernelRunner::new(threads);
            let tag = format!("{name}/t{threads}");
            for w in Workload::extended() {
                match (w, runner.run(w, &g).output) {
                    (Workload::Dfs, KernelOutput::Levels(parent)) => {
                        // DFS trees depend on scheduling; the reached set
                        // must equal BFS's.
                        for (v, (&p, &l)) in parent.iter().zip(&levels).enumerate() {
                            assert_eq!(p != u32::MAX, l != u32::MAX, "{tag}: dfs vertex {v}");
                        }
                    }
                    (Workload::SsspBf | Workload::SsspDelta, KernelOutput::Distances(d)) => {
                        for (v, (&a, &b)) in d.iter().zip(&dist).enumerate() {
                            if a.is_finite() || b.is_finite() {
                                assert!((a - b).abs() < 1e-2, "{tag}/{w} vertex {v}: {a} vs {b}");
                            }
                        }
                    }
                    (Workload::PageRank, KernelOutput::Ranks(r)) if threads == 1 => {
                        assert_eq!(r, pull, "{tag}: pagerank")
                    }
                    (Workload::PageRank, KernelOutput::Ranks(r)) => {
                        for (v, (a, b)) in r.iter().zip(&pull).enumerate() {
                            assert!((a - b).abs() < 1e-9, "{tag}: pagerank vertex {v}");
                        }
                    }
                    (Workload::PageRankDp, KernelOutput::Ranks(r)) if threads == 1 => {
                        assert_eq!(r, push, "{tag}: pagerank_dp")
                    }
                    (Workload::PageRankDp, KernelOutput::Ranks(r)) => {
                        let again = runner.run(w, &g).output;
                        assert_eq!(again, KernelOutput::Ranks(r.clone()), "{tag}: rerun");
                        for (v, (a, b)) in r.iter().zip(&push).enumerate() {
                            assert!((a - b).abs() <= 1e-5 * b, "{tag}: pagerank_dp vertex {v}");
                        }
                    }
                    (w, got) => assert_eq!(got, exact_oracle(w, &g), "{tag}: {w}"),
                }
            }
        }
    }
}
