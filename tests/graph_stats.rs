//! Known-answer checks for `GraphStats::measure`: vertex, edge, max-degree
//! and double-sweep diameter values pinned for seeded skewed, mesh and
//! uniform graphs, so a change to the BFS sweeps is checked against fixed
//! numbers rather than against itself.

use heteromap_graph::gen::{GraphGenerator, Grid, RMat, UniformRandom};
use heteromap_graph::GraphStats;

/// Asserts `measure` on `gen`'s graph for `seed` equals
/// `[vertices, edges, max_degree, diameter]`.
fn pinned(name: &str, gen: impl GraphGenerator, seed: u64, want: [u64; 4]) {
    let [vertices, edges, max_degree, diameter] = want;
    let want = GraphStats::from_known(vertices, edges, max_degree, diameter);
    assert_eq!(GraphStats::measure(&gen.generate(seed)), want, "{name}");
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
