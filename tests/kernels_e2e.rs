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

/// Distances as raw bits. Both SSSP kernels equal [`verify::dijkstra`] bit
/// for bit, because every relaxation order ends at the same fixpoint.
fn bits(dist: &[f32]) -> Vec<u32> {
    dist.iter().map(|d| d.to_bits()).collect()
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
                    assert_eq!(bits(&dist), bits(&expected), "{d}/{w}")
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
                        assert_eq!(bits(&d), bits(&dist), "{tag}/{w}")
                    }
                    (Workload::PageRank, KernelOutput::Ranks(r)) => {
                        assert_eq!(r, pull, "{tag}: pagerank")
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

/// Thread counts for the kernels whose results must not depend on how a
/// phase is split: 1, both sides of the 2-vCPU host, and oversubscribed.
const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 16];

#[test]
fn pagerank_equals_its_oracle_at_every_thread_count() {
    let mut graphs = vote_graphs();
    graphs.push((
        "rmat-12".to_string(),
        RMat::new(12, 8.0, 0.57, 0.19, 0.19).generate(1),
    ));
    for (name, g) in graphs {
        let expected = KernelOutput::Ranks(verify::pagerank_seq(&g, 20));
        for threads in THREAD_COUNTS {
            let run = KernelRunner::new(threads).run(Workload::PageRank, &g);
            assert_eq!(run.output, expected, "{name}/{threads}");
        }
    }
}

/// The total weight in each bin, for `(bin, weight)` pairs.
fn bin_sizes(bins: impl Iterator<Item = (usize, usize)>) -> Vec<usize> {
    let mut sizes = Vec::new();
    for (b, weight) in bins {
        if b >= sizes.len() {
            sizes.resize(b + 1, 0);
        }
        sizes[b] += weight;
    }
    sizes
}

/// A 200k-edge uniform graph: its widest k-core waves, Bellman-Ford
/// rounds and Δ-stepping buckets pass the edge floors.
fn wide_uniform() -> CsrGraph {
    heteromap_graph::gen::UniformRandom::new(50_000, 200_000).generate(3)
}

#[test]
fn frontier_kernels_match_their_oracles_on_both_sides_of_the_inline_floor() {
    use heteromap_graph::gen::{Grid, UniformRandom};
    use heteromap_kernels::par::{
        BFS_VERTICES_PER_PARTICIPANT as LEVEL_FLOOR, BF_EDGES_PER_PARTICIPANT as BUCKET_FLOOR,
    };
    // The runner's default Δ-stepping bucket width.
    const DELTA: f32 = 4.0;
    let graphs = [
        // Average degree 3: top-down throughout, with levels and buckets
        // from one vertex to thousands.
        (
            "uniform-20k",
            UniformRandom::new(20_000, 60_000).generate(3),
        ),
        // Every level and bucket of a mesh is below the floor.
        ("grid-60", Grid::new(60, 60).generate(3)),
        ("rmat-12", RMat::new(12, 8.0, 0.57, 0.19, 0.19).generate(1)),
        ("uniform-50k", wide_uniform()),
    ];
    let sides = |sizes: &[usize], floor: usize| {
        (
            sizes.iter().any(|&s| s > 0 && s < floor),
            sizes.iter().any(|&s| s >= floor),
        )
    };
    let (mut levels_seen, mut buckets_seen) = ((false, false), (false, false));
    for (name, g) in graphs {
        let levels = verify::bfs_seq(&g, 0);
        let dist = verify::dijkstra(&g, 0);
        // Levels count vertices; buckets count their vertices' out-edges.
        let level_sizes = bin_sizes(
            levels
                .iter()
                .filter(|&&l| l != u32::MAX)
                .map(|&l| (l as usize, 1)),
        );
        let bucket_sizes = bin_sizes(
            dist.iter()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .map(|(v, &d)| ((d / DELTA) as usize, g.out_degree(v as VertexId))),
        );
        let (small, large) = sides(&level_sizes, LEVEL_FLOOR);
        levels_seen = (levels_seen.0 | small, levels_seen.1 | large);
        let (small, large) = sides(&bucket_sizes, BUCKET_FLOOR);
        buckets_seen = (buckets_seen.0 | small, buckets_seen.1 | large);
        for threads in THREAD_COUNTS {
            let runner = KernelRunner::new(threads).with_delta(DELTA);
            let bfs = runner.run(Workload::Bfs, &g).output;
            assert_eq!(
                bfs,
                KernelOutput::Levels(levels.clone()),
                "{name}/{threads}: bfs"
            );
            match runner.run(Workload::SsspDelta, &g).output {
                KernelOutput::Distances(d) => {
                    assert_eq!(bits(&d), bits(&dist), "{name}/{threads}: sssp_delta")
                }
                other => panic!("unexpected output {other:?}"),
            }
        }
    }
    assert_eq!(
        levels_seen,
        (true, true),
        "BFS levels on both sides of the floor"
    );
    assert_eq!(
        buckets_seen,
        (true, true),
        "Δ-stepping buckets on both sides of the floor"
    );
}

/// Sizes of k-core's peeling waves, in the in-edges each decrements. They
/// do not depend on the schedule:
/// a vertex joins the wave after the one that takes its remaining degree
/// to the level, and that count of in-edges is fixed by the graph.
fn kcore_wave_sizes(g: &CsrGraph) -> Vec<usize> {
    let core = verify::kcore_seq(g);
    let mut deg: Vec<u32> = (0..g.vertex_count())
        .map(|v| g.out_degree(v as VertexId) as u32)
        .collect();
    let mut levels: Vec<u32> = core.clone();
    levels.sort_unstable();
    levels.dedup();
    let transpose = g.transpose();
    let mut sizes = Vec::new();
    for k in levels {
        let mut wave: Vec<usize> = (0..g.vertex_count())
            .filter(|&v| core[v] == k && deg[v] == k)
            .collect();
        while !wave.is_empty() {
            sizes.push(
                wave.iter()
                    .map(|&v| transpose.out_degree(v as VertexId))
                    .sum(),
            );
            let mut next = Vec::new();
            for v in wave {
                for &u in transpose.neighbors(v as VertexId) {
                    let d = &mut deg[u as usize];
                    if *d > k {
                        *d -= 1;
                        if *d == k {
                            next.push(u as usize);
                        }
                    }
                }
            }
            wave = next;
        }
    }
    sizes
}

/// Sizes of Bellman-Ford's relaxation rounds at one thread, in the
/// out-edges each relaxes: each round relaxes, in order, the vertices the
/// previous round improved.
fn bf_round_sizes(g: &CsrGraph, source: VertexId) -> Vec<usize> {
    let mut dist = vec![f32::INFINITY; g.vertex_count()];
    let mut queued = vec![0usize; g.vertex_count()];
    dist[source as usize] = 0.0;
    let mut round = vec![source];
    let mut sizes = Vec::new();
    while !round.is_empty() {
        sizes.push(round.iter().map(|&v| g.out_degree(v)).sum());
        let mut next = Vec::new();
        for v in round {
            for (t, w) in g.edges(v) {
                let nd = dist[v as usize] + w;
                if nd < dist[t as usize] {
                    dist[t as usize] = nd;
                    if queued[t as usize] != sizes.len() {
                        queued[t as usize] = sizes.len();
                        next.push(t);
                    }
                }
            }
        }
        round = next;
    }
    sizes
}

#[test]
fn fixpoint_kernels_match_their_oracles_at_every_thread_count_and_schedule() {
    use heteromap_graph::gen::{Grid, UniformRandom};
    use heteromap_kernels::par::{
        Scheduler, BF_EDGES_PER_PARTICIPANT as ROUND_FLOOR,
        KCORE_EDGES_PER_PARTICIPANT as WAVE_FLOOR,
    };
    let graphs = [
        // Hundreds of waves and rounds, every one below the floor.
        ("grid-60", Grid::new(60, 60).generate(3)),
        // Skewed and uniform inputs; the widest phases of the 200k-edge
        // graph reach the floors.
        ("rmat-12", RMat::new(12, 8.0, 0.57, 0.19, 0.19).generate(1)),
        (
            "uniform-20k",
            UniformRandom::new(20_000, 60_000).generate(3),
        ),
        // Half an edge per vertex: thousands of components.
        (
            "uniform-sparse",
            UniformRandom::new(6_000, 3_000).generate(5),
        ),
        ("uniform-50k", wide_uniform()),
    ];
    let schedulers = [
        Scheduler::Static,
        Scheduler::Dynamic { grain: 1 },
        Scheduler::Dynamic { grain: 64 },
    ];
    let sides = |sizes: &[usize], floor: usize| {
        (
            sizes.iter().any(|&s| s < floor),
            sizes.iter().any(|&s| s >= floor),
        )
    };
    let (mut waves, mut rounds) = ((false, false), (false, false));
    for (name, g) in graphs {
        let core = KernelOutput::Labels(verify::kcore_seq(&g));
        let components = verify::conncomp_seq(&g);
        let dist = verify::dijkstra(&g, 0);
        if name == "uniform-sparse" {
            let roots = components
                .iter()
                .enumerate()
                .filter(|&(v, &l)| v == l as usize);
            assert!(roots.count() > 1_000, "{name}: too few components");
        }
        let (small, large) = sides(&kcore_wave_sizes(&g), WAVE_FLOOR);
        waves = (waves.0 | small, waves.1 | large);
        let (small, large) = sides(&bf_round_sizes(&g, 0), ROUND_FLOOR);
        rounds = (rounds.0 | small, rounds.1 | large);
        let components = KernelOutput::Labels(components);
        for threads in THREAD_COUNTS {
            for scheduler in schedulers {
                let runner = KernelRunner::new(threads).with_scheduler(scheduler);
                let tag = format!("{name}/t{threads}/{scheduler:?}");
                assert_eq!(runner.run(Workload::KCore, &g).output, core, "{tag}: kcore");
                assert_eq!(
                    runner.run(Workload::ConnComp, &g).output,
                    components,
                    "{tag}: conncomp"
                );
                match runner.run(Workload::SsspBf, &g).output {
                    KernelOutput::Distances(d) => {
                        assert_eq!(bits(&d), bits(&dist), "{tag}: sssp_bf")
                    }
                    other => panic!("unexpected output {other:?}"),
                }
            }
        }
    }
    assert_eq!(
        waves,
        (true, true),
        "k-core waves on both sides of the floor"
    );
    assert_eq!(rounds, (true, true), "BF rounds on both sides of the floor");
}
