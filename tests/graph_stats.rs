//! Known-answer checks for `GraphStats::measure`: vertex, edge, max-degree
//! and double-sweep diameter values pinned for seeded skewed, mesh and
//! uniform graphs, so a change to the BFS sweeps is checked against fixed
//! numbers rather than against itself. Each graph is also recomputed
//! through `IncrementalStats`, which runs the same sweep without the
//! per-graph memo that `measure` reads.

use heteromap_graph::gen::{GraphGenerator, Grid, RMat, UniformRandom};
use heteromap_graph::{GraphStats, IncrementalStats, VertexId};

/// Asserts `measure` on `gen`'s graph for `seed`, on the first and the
/// memoized second call, equals `[vertices, edges, max_degree, diameter]`
/// and an uncached recompute.
fn pinned(name: &str, gen: impl GraphGenerator, seed: u64, want: [u64; 4]) {
    let [vertices, edges, max_degree, diameter] = want;
    let want = GraphStats::from_known(vertices, edges, max_degree, diameter);
    let g = gen.generate(seed);
    let degrees = (0..g.vertex_count())
        .map(|v| g.out_degree(v as VertexId) as u32)
        .collect();
    let uncached = IncrementalStats::from_degrees(degrees).finalize(&g);
    assert_eq!(GraphStats::measure(&g), want, "{name}");
    assert_eq!(GraphStats::measure(&g), want, "{name}: second call");
    assert_eq!(uncached, want, "{name}: uncached recompute");
}

#[test]
fn measure_matches_pinned_values() {
    let rmat = |scale, edge_factor, a, b| RMat::new(scale, edge_factor, a, b, b);
    pinned(
        "rmat-10",
        rmat(10, 8.0, 0.57, 0.19),
        1,
        [1_024, 6_715, 215, 5],
    );
    pinned(
        "rmat-12",
        rmat(12, 8.0, 0.57, 0.19),
        7,
        [4_096, 28_673, 620, 5],
    );
    pinned(
        "rmat-11-flat",
        rmat(11, 4.0, 0.45, 0.15),
        3,
        [2_048, 7_970, 26, 10],
    );
    pinned("grid-30x40", Grid::new(30, 40), 0, [1_200, 4_660, 4, 68]);
    pinned("grid-64x64", Grid::new(64, 64), 5, [4_096, 16_128, 4, 126]);
    let uniform = UniformRandom::new(2_000, 8_000);
    pinned("uniform-2k", uniform, 5, [2_000, 7_990, 13, 11]);
    let sparse = UniformRandom::new(3_000, 4_500);
    pinned("uniform-3k-sparse", sparse, 2, [3_000, 4_497, 7, 2]);
}

/// Known debt, pinned so that it is fixed on purpose (see ROADMAP.md and
/// EXPERIMENTS.md): `approximate_diameter` keeps only each second sweep's
/// eccentricity, and in a directed graph the first sweep's farthest vertex
/// can be a sink. On this instance (the `analytics-jobs` pool's `rmat-13`
/// at seed 1) the first sweeps from three of the four seeds reach
/// eccentricity 4–6 and end on a sink, and the fourth seed is a sink
/// itself, so the reported diameter, and with it I4, is 0.
#[test]
fn sink_ended_sweeps_report_zero_diameter() {
    pinned(
        "rmat-13-sink",
        RMat::new(13, 8.0, 0.57, 0.19, 0.19),
        0x60c3_e52a_29d5_0407,
        [8_192, 58_834, 973, 0],
    );
}
