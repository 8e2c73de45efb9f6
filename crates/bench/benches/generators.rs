//! Synthetic graph generation throughput (the training input pipeline of
//! Table III): min and median wall time per generator over 20 runs.
//!
//! No other benchmark times generation: perfbench builds its graph pools
//! before its clocks start, and the trainer draws synthetic statistics, not
//! graphs. Run with `cargo bench -p heteromap-bench --bench generators`.

use heteromap_graph::gen::{GraphGenerator, Grid, Kronecker, PowerLaw, RMat, UniformRandom};
use std::hint::black_box;
use std::time::Instant;

const RUNS: usize = 20;

fn main() {
    let gens: [(&str, Box<dyn GraphGenerator>); 5] = [
        (
            "uniform_random_10k",
            Box::new(UniformRandom::new(10_000, 80_000)),
        ),
        ("kronecker_2^13", Box::new(Kronecker::new(13, 8.0))),
        ("rmat_2^13", Box::new(RMat::new(13, 8.0, 0.45, 0.25, 0.15))),
        ("grid_100x100", Box::new(Grid::new(100, 100))),
        ("power_law_10k", Box::new(PowerLaw::new(10_000, 4))),
    ];
    for (name, gen) in gens {
        let mut ns: Vec<u128> = (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                black_box(gen.generate(1).edge_count());
                start.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        println!(
            "generators/{name:<20} min {:>10} ns  median {:>10} ns",
            ns[0],
            ns[RUNS / 2]
        );
    }
}
