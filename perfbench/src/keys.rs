//! Seeded request-key generators for the decision workloads.
//!
//! A key is a [`WorkloadContext`]: the serving cache keys on its discretized
//! `(B, I)` pair plus the raw statistics, so two contexts with different
//! statistics are always distinct cache entries.

use heteromap_accel::cost::WorkloadContext;
use heteromap_graph::datasets::Dataset;
use heteromap_model::Workload;
use heteromap_predict::synth::{SyntheticBenchmarks, SyntheticFamily, SyntheticInputs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent stream seed from the run seed and a salt.
pub fn stream_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fresh synthetic key: a random benchmark profile on random
/// statistics from one of the three input families (uniform, Kronecker,
/// mesh).
pub fn synthetic_key(rng: &mut StdRng) -> WorkloadContext {
    let bench = SyntheticBenchmarks::new().sample(rng);
    let family = match rng.gen_range(0..3) {
        0 => SyntheticFamily::UniformRandom,
        1 => SyntheticFamily::Kronecker,
        _ => SyntheticFamily::Mesh,
    };
    let stats = SyntheticInputs::with_meshes().sample_stats(family, rng);
    WorkloadContext::synthetic(bench.b, stats, bench.iteration_model, bench.work_per_edge)
}

/// The decide-hot key pool: the 81 Table I combinations (nine paper
/// workloads on nine datasets) followed by `synthetic` draws.
pub fn hot_pool(seed: u64, synthetic: usize) -> Vec<WorkloadContext> {
    let mut pool: Vec<WorkloadContext> = Workload::all()
        .into_iter()
        .flat_map(|w| {
            Dataset::all()
                .into_iter()
                .map(move |d| WorkloadContext::for_workload(w, d.stats()))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0x407));
    pool.extend((0..synthetic).map(|_| synthetic_key(&mut rng)));
    pool
}

/// Zipf-distributed indices over `n` items: item `k` (rank `k + 1`) has
/// weight `(k + 1)^-exponent`. The pool's order sets popularity: the Table
/// I combinations lead and the synthetic draws, already in random order,
/// form the tail. Keeping the hottest keys fixed across seeds means the
/// seed varies the tail, not which handful of keys dominates the cost.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf law over `n ≥ 1` items.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n >= 1, "Zipf over an empty pool");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one item index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The index stream of one client: `len` draws from the client's own
    /// seeded generator.
    pub fn stream(&self, seed: u64, client: usize, len: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0x5EED + client as u64));
        (0..len).map(|_| self.sample(&mut rng) as u32).collect()
    }
}

/// The decide-cold key stream of one client: every key is a fresh draw.
#[derive(Debug)]
pub struct LongTail {
    rng: StdRng,
}

impl LongTail {
    /// The stream for `client` under the run seed; `phase` separates the
    /// warm-up stream from the timed one so timed keys never repeat a
    /// warm-up key.
    pub fn new(seed: u64, phase: u64, client: usize) -> Self {
        LongTail {
            rng: StdRng::seed_from_u64(stream_seed(seed, (phase << 16) + client as u64)),
        }
    }

    /// The next fresh key.
    pub fn next_key(&mut self) -> WorkloadContext {
        synthetic_key(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_streams_are_deterministic_per_seed() {
        let z = Zipf::new(500, 1.0);
        assert_eq!(
            z.stream(9, 0, 2_000),
            Zipf::new(500, 1.0).stream(9, 0, 2_000)
        );
        assert_ne!(
            z.stream(9, 0, 2_000),
            z.stream(9, 1, 2_000),
            "clients differ"
        );
        assert_ne!(
            z.stream(10, 0, 2_000),
            z.stream(9, 0, 2_000),
            "seeds differ"
        );
    }

    #[test]
    fn zipf_is_skewed_and_covers_the_pool() {
        let z = Zipf::new(100, 1.0);
        let mut counts = vec![0usize; 100];
        for i in z.stream(3, 0, 100_000) {
            counts[i as usize] += 1;
        }
        // Rank 1 carries 1 / H(100) ≈ 19% of the mass, rank 2 half that.
        assert!(
            (17_000..21_500).contains(&counts[0]),
            "hottest {}",
            counts[0]
        );
        assert!((8_000..11_000).contains(&counts[1]), "second {}", counts[1]);
        assert!(counts.iter().all(|&c| c > 0), "every key is requested");
    }

    #[test]
    fn long_tail_is_deterministic_and_never_repeats() {
        let draw = |seed, phase, client| {
            let mut t = LongTail::new(seed, phase, client);
            (0..1_000).map(|_| t.next_key()).collect::<Vec<_>>()
        };
        let a = draw(5, 1, 0);
        assert_eq!(a, draw(5, 1, 0));
        assert_ne!(a, draw(5, 0, 0), "warm-up and timed streams differ");
        assert_ne!(a, draw(5, 1, 1), "clients differ");
        let mut stats: Vec<_> = a
            .iter()
            .map(|k| (k.stats.vertices, k.stats.edges, k.stats.diameter))
            .collect();
        stats.sort_unstable();
        stats.dedup();
        assert_eq!(stats.len(), a.len(), "every key is fresh");
    }

    #[test]
    fn hot_pool_is_deterministic_and_starts_with_table1() {
        let pool = hot_pool(4, 50);
        assert_eq!(pool.len(), 81 + 50);
        assert_eq!(pool, hot_pool(4, 50));
        assert_eq!(
            pool[0],
            WorkloadContext::for_workload(Workload::all()[0], Dataset::all()[0].stats())
        );
        assert_ne!(pool[81..], hot_pool(5, 50)[81..]);
    }
}
