//! Synthetic benchmark and input generation for offline training (§V,
//! Fig. 9, Table III).
//!
//! "Mixes of phases (varying B1-5 values) are obtained by having different
//! B1-5 phases, along with loop variations such as read-write data,
//! contention, and FP requirements (varying B6-13 values)." Inputs follow
//! Table III's uniform-random and Kronecker families; since the simulator
//! consumes graph *statistics*, the generator samples statistics across the
//! published ranges (16–65M vertices, 16–2B edges) without materializing
//! billion-edge graphs.

use heteromap_graph::datasets::LiteratureMaxima;
use heteromap_graph::GraphStats;
use heteromap_model::workload::IterationModel;
use heteromap_model::{BVector, Grid, IVector};
use rand::rngs::StdRng;
use rand::Rng;

/// A generated synthetic benchmark (Fig. 9's generic micro-benchmarks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticBenchmark {
    /// The benchmark's B profile.
    pub b: BVector,
    /// Iteration scaling (phase loops may be diameter-convergent or fixed).
    pub iteration_model: IterationModel,
    /// Per-edge work of the inner loops.
    pub work_per_edge: f64,
}

/// Input family from Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticFamily {
    /// GTgraph uniform random: moderate skew, logarithmic diameter.
    UniformRandom,
    /// Kronecker: heavy-tailed degrees, tiny diameter.
    Kronecker,
    /// Mesh-like (road/geometric): constant degree, huge diameter. Not in
    /// Table III, but required for the predictors to ever see high-I4
    /// inputs; enabled by [`SyntheticInputs::with_meshes`].
    Mesh,
}

/// Generator of synthetic benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyntheticBenchmarks {
    _priv: (),
}

impl SyntheticBenchmarks {
    /// Creates the generator.
    pub fn new() -> Self {
        SyntheticBenchmarks::default()
    }

    /// Draws one synthetic benchmark: a random point on the B1–B5 simplex
    /// (quantized to the 0.1 grid) plus independent B6–B13 draws.
    pub fn sample(&self, rng: &mut StdRng) -> SyntheticBenchmark {
        // Phase mix: pick 1-3 active phases and split mass on the 0.1 grid.
        let grid = Grid::PAPER;
        let mut phases = [0.0f64; 5];
        let active = rng.gen_range(1..=3usize);
        let mut remaining = 10u32; // tenths
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < active {
            let p = rng.gen_range(0..5);
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        for (k, &p) in chosen.iter().enumerate() {
            let share = if k + 1 == chosen.len() {
                remaining
            } else {
                rng.gen_range(
                    1..=remaining
                        .saturating_sub((chosen.len() - k - 1) as u32)
                        .max(1),
                )
            };
            phases[p] = share as f64 / 10.0;
            remaining -= share;
        }
        let mut v = [0.0f64; 13];
        v[..5].copy_from_slice(&phases);
        for x in v[5..].iter_mut() {
            *x = grid.quantize(rng.gen_range(0.0..=1.0));
        }
        let b = BVector::new_unchecked(v);
        let iteration_model = match rng.gen_range(0..3) {
            0 => IterationModel::DiameterBound {
                factor: rng.gen_range(0.3..1.2),
            },
            1 => IterationModel::Fixed(rng.gen_range(1..40)),
            _ => IterationModel::Single,
        };
        SyntheticBenchmark {
            b,
            iteration_model,
            work_per_edge: rng.gen_range(0.5..4.0),
        }
    }
}

/// Generator of synthetic input statistics (Table III ranges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticInputs {
    meshes: bool,
}

impl SyntheticInputs {
    /// Table III families only (uniform random + Kronecker).
    pub fn table3() -> Self {
        SyntheticInputs { meshes: false }
    }

    /// Adds the mesh family so high-diameter inputs appear in training.
    pub fn with_meshes() -> Self {
        SyntheticInputs { meshes: true }
    }

    /// Draws one `(stats, I)` pair.
    pub fn sample(&self, rng: &mut StdRng) -> (GraphStats, IVector) {
        let family = match rng.gen_range(0..if self.meshes { 3 } else { 2 }) {
            0 => SyntheticFamily::UniformRandom,
            1 => SyntheticFamily::Kronecker,
            _ => SyntheticFamily::Mesh,
        };
        let stats = self.sample_stats(family, rng);
        let i = IVector::from_stats(&stats, &LiteratureMaxima::paper(), Grid::PAPER);
        (stats, i)
    }

    /// Draws statistics for a family: vertices 16K–134M (log-uniform),
    /// average degree 1–1K, with family-specific skew and diameter.
    pub fn sample_stats(&self, family: SyntheticFamily, rng: &mut StdRng) -> GraphStats {
        let v = log_uniform(rng, 16_000.0, 134_000_000.0);
        let avg_deg = log_uniform(rng, 1.0, 1_024.0);
        let e = (v * avg_deg).min(2.15e9);
        let (max_degree, diameter) = match family {
            SyntheticFamily::UniformRandom => {
                // Poisson-ish tail, diameter ~ log(V)/log(avg_deg).
                let md = avg_deg * rng.gen_range(2.0..8.0) + 4.0;
                let dia = (v.ln() / (avg_deg.max(1.5)).ln()).max(2.0) * rng.gen_range(1.0..2.0);
                (md, dia)
            }
            SyntheticFamily::Kronecker => {
                // Heavy tail: hubs take a sizeable fraction of the edges.
                let md = (e * rng.gen_range(0.0005..0.01)).max(avg_deg * 4.0);
                let dia = rng.gen_range(4.0..20.0);
                (md, dia)
            }
            SyntheticFamily::Mesh => {
                let md = rng.gen_range(3.0..8.0);
                let dia = v.sqrt() * rng.gen_range(0.5..2.0);
                (md, dia)
            }
        };
        GraphStats::from_known(
            v as u64,
            e as u64,
            (max_degree as u64).clamp(1, 3_000_000),
            (diameter as u64).clamp(1, 2_622),
        )
    }
}

impl Default for SyntheticInputs {
    fn default() -> Self {
        SyntheticInputs::with_meshes()
    }
}

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..hi.ln())).exp()
}

/// Convenience: the two worked examples of Fig. 9 as fixed benchmarks.
pub fn fig9_examples() -> [SyntheticBenchmark; 2] {
    [
        // Example 1: vertex division writing local computations to shared
        // data via indirect addressing.
        SyntheticBenchmark {
            b: BVector::new_unchecked([
                1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.8, 0.9, 0.0, 0.9, 0.0, 0.0,
            ]),
            iteration_model: IterationModel::Fixed(10),
            work_per_edge: 1.0,
        },
        // Example 2: pareto division + reduction with FP locks and barriers.
        SyntheticBenchmark {
            b: BVector::new_unchecked([
                0.0, 0.0, 0.8, 0.0, 0.2, 0.5, 0.5, 0.0, 0.0, 0.3, 0.8, 0.1, 0.1,
            ]),
            iteration_model: IterationModel::Fixed(10),
            work_per_edge: 1.5,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn phase_mix_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let gen = SyntheticBenchmarks::new();
        for _ in 0..200 {
            let s = gen.sample(&mut rng);
            let sum: f64 = s.b.as_array()[..5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "phases sum to {sum}");
        }
    }

    #[test]
    fn all_b_values_on_grid_and_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let gen = SyntheticBenchmarks::new();
        for _ in 0..100 {
            let s = gen.sample(&mut rng);
            for v in s.b.as_array() {
                assert!((0.0..=1.0).contains(&v));
                assert!((v * 10.0 - (v * 10.0).round()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn table3_stats_stay_in_published_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        let gen = SyntheticInputs::table3();
        for _ in 0..200 {
            let (stats, _) = gen.sample(&mut rng);
            assert!(stats.vertices >= 16_000 && stats.vertices <= 134_000_000);
            assert!(stats.edges <= 2_150_000_000);
            assert!(stats.diameter >= 1);
        }
    }

    #[test]
    fn kronecker_is_skewed_and_small_world() {
        let mut rng = StdRng::seed_from_u64(6);
        let gen = SyntheticInputs::table3();
        let s = gen.sample_stats(SyntheticFamily::Kronecker, &mut rng);
        assert!(s.max_degree as f64 > 3.0 * s.average_degree());
        assert!(s.diameter <= 20);
    }

    #[test]
    fn mesh_has_large_diameter_and_low_degree() {
        let mut rng = StdRng::seed_from_u64(7);
        let gen = SyntheticInputs::with_meshes();
        let s = gen.sample_stats(SyntheticFamily::Mesh, &mut rng);
        assert!(s.max_degree <= 8);
        assert!(s.diameter >= 50);
    }

    #[test]
    fn samples_vary() {
        let mut rng = StdRng::seed_from_u64(8);
        let gen = SyntheticBenchmarks::new();
        let a = gen.sample(&mut rng);
        let b = gen.sample(&mut rng);
        assert_ne!(a.b, b.b);
    }

    #[test]
    fn fig9_examples_are_valid() {
        for e in fig9_examples() {
            let sum: f64 = e.b.as_array()[..5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
