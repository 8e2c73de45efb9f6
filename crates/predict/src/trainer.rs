//! Offline training pipeline (§V, Fig. 8 step 1): generate synthetic
//! benchmark-input combinations, autotune each on the multi-accelerator
//! system, and store the optimal `(B, I, M)` tuples in the profiler
//! database.
//!
//! One generation body serves both entry points:
//! [`Trainer::generate_database_parallel`] fans the per-sample tuning runs
//! over the `heteromap-kernels` pool with [`par_map`], which returns them
//! in sample order, and [`Trainer::generate_database`] is the same call at
//! one thread, which `par_map` runs inline in index order. The synthetic
//! `(B, I)` stream is drawn serially *before* the fan-out, so the produced
//! database is bit-identical at any worker count.
//!
//! Each tuned sample can use either the legacy coarse + hill-climb
//! [`CoarseRefine`] or the `heteromap-tune` ensemble (see
//! [`Trainer::with_ensemble`]). Long runs report progress through
//! [`heteromap_obs::diag`] every [`PROGRESS_INTERVAL`] samples — mirrored
//! to stderr unless `--quiet` — and the total oracle evaluations spent are
//! surfaced in the returned set's [`summary`](TrainingSet::summary).

use crate::predictor::{Objective, TrainingSample, TrainingSet};
use crate::synth::{SyntheticBenchmark, SyntheticBenchmarks, SyntheticInputs};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::GraphStats;
use heteromap_kernels::par::par_map;
use heteromap_model::{IVector, MConfig};
use heteromap_tune::{ensemble, CoarseRefine, EnsembleTuner, TuneConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Samples between two `trainer.progress` diagnostics.
pub const PROGRESS_INTERVAL: usize = 16;

/// Which tuner optimizes each synthetic sample.
#[derive(Debug, Clone)]
enum SampleTuner {
    /// The legacy coarse + hill-climb autotuner.
    Legacy(CoarseRefine),
    /// The `heteromap-tune` ensemble; each sample derives its own run seed
    /// from the config's seed and the sample index.
    Ensemble(TuneConfig),
}

/// The offline trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    system: MultiAcceleratorSystem,
    objective: Objective,
    tuner: SampleTuner,
}

impl Trainer {
    /// Creates a trainer for `system` optimizing completion time.
    pub fn new(system: MultiAcceleratorSystem) -> Self {
        Trainer {
            system,
            objective: Objective::Performance,
            tuner: SampleTuner::Legacy(CoarseRefine::FAST),
        }
    }

    /// Switches the tuning objective (§VII-C trains for energy too).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Replaces the autotuner (e.g. [`CoarseRefine::EXHAUSTIVE`] for
    /// slower, closer-to-optimal databases).
    pub fn with_tuner(mut self, tuner: CoarseRefine) -> Self {
        self.tuner = SampleTuner::Legacy(tuner);
        self
    }

    /// Tunes each sample with the `heteromap-tune` ensemble instead of the
    /// legacy coarse sweep. Sample `k` runs with seed
    /// `mix(config.seed, k)`, so the database stays deterministic per seed
    /// and identical between the serial and parallel paths.
    pub fn with_ensemble(mut self, config: TuneConfig) -> Self {
        self.tuner = SampleTuner::Ensemble(config);
        self
    }

    /// The objective being optimized.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The system being trained for.
    pub fn system(&self) -> &MultiAcceleratorSystem {
        &self.system
    }

    /// Cost of deploying `ctx` with `cfg` under the configured objective.
    pub fn cost(&self, ctx: &WorkloadContext, cfg: &MConfig) -> f64 {
        self.objective.cost(&self.system.deploy(ctx, cfg))
    }

    /// Tunes one sample; returns the optimum, its cost, and the oracle
    /// evaluations spent. The per-sample tuner always evaluates inline
    /// (`threads = 1`): the pool's regions do not nest, and the parallel
    /// generation path already owns the pool at the sample level.
    fn tune_sample(&self, ctx: &WorkloadContext, index: usize) -> (MConfig, f64, usize) {
        match &self.tuner {
            SampleTuner::Legacy(tuner) => {
                let r = tuner.tune(|cfg| self.cost(ctx, cfg));
                (r.config, r.cost, r.evaluations)
            }
            SampleTuner::Ensemble(config) => {
                let config = config
                    .clone()
                    .with_threads(1)
                    .with_seed(ensemble::mix(config.seed, index as u64));
                let out = EnsembleTuner::new(config).tune(|cfg| self.cost(ctx, cfg));
                (out.config, out.cost, out.evaluations)
            }
        }
    }

    /// Draws the synthetic `(B, I)` stream for a run, serially and before
    /// any fan-out, so the stream does not depend on the worker count.
    fn draw_inputs(
        &self,
        samples: usize,
        seed: u64,
    ) -> Vec<(SyntheticBenchmark, GraphStats, IVector)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let bench_gen = SyntheticBenchmarks::new();
        let input_gen = SyntheticInputs::with_meshes();
        (0..samples)
            .map(|_| {
                let bench = bench_gen.sample(&mut rng);
                let (stats, i) = input_gen.sample(&mut rng);
                (bench, stats, i)
            })
            .collect()
    }

    /// Generates a profiler database of `samples` autotuned synthetic
    /// combinations ("only one M combination tuple is selected, which
    /// provides the best performance"), one sample at a time.
    pub fn generate_database(&self, samples: usize, seed: u64) -> TrainingSet {
        self.generate_database_parallel(samples, seed, 1)
    }

    /// Generates the same database as [`Trainer::generate_database`] —
    /// bit-identical samples, same order — but fans the per-sample tuning
    /// runs over `threads` pool participants with [`par_map`], which
    /// returns them in sample order, so the output does not depend on
    /// scheduling.
    pub fn generate_database_parallel(
        &self,
        samples: usize,
        seed: u64,
        threads: usize,
    ) -> TrainingSet {
        let _span = heteromap_obs::span_cat("trainer.generate", "tune");
        let inputs = self.draw_inputs(samples, seed);
        let contexts: Vec<WorkloadContext> = inputs
            .iter()
            .map(|(bench, stats, _)| {
                WorkloadContext::synthetic(
                    bench.b,
                    *stats,
                    bench.iteration_model,
                    bench.work_per_edge,
                )
            })
            .collect();
        let done = AtomicUsize::new(0);
        let threads = threads.max(1).min(samples.max(1));
        let results = par_map(samples, threads, |index| {
            let tuned = self.tune_sample(&contexts[index], index);
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if finished.is_multiple_of(PROGRESS_INTERVAL) || finished == samples {
                heteromap_obs::diag("trainer.progress", || {
                    format!("tuned {finished}/{samples} samples ({threads} workers)")
                });
            }
            tuned
        });
        let mut set = TrainingSet::new();
        for ((bench, stats, i), (optimal, optimal_cost, evaluations)) in
            inputs.into_iter().zip(results)
        {
            set.push(TrainingSample {
                b: bench.b,
                i,
                stats,
                iteration_model: bench.iteration_model,
                work_per_edge: bench.work_per_edge,
                optimal,
                optimal_cost,
            });
            set.add_tuning_evaluations(evaluations as u64);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_model::Accelerator;

    #[test]
    fn database_has_requested_size() {
        let trainer = Trainer::new(MultiAcceleratorSystem::primary());
        let set = trainer.generate_database(12, 1);
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn database_is_deterministic_per_seed() {
        let trainer = Trainer::new(MultiAcceleratorSystem::primary());
        let a = trainer.generate_database(5, 9);
        let b = trainer.generate_database(5, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn optimal_costs_are_positive_and_finite() {
        let trainer = Trainer::new(MultiAcceleratorSystem::primary());
        let set = trainer.generate_database(8, 2);
        for s in set.samples() {
            assert!(s.optimal_cost.is_finite() && s.optimal_cost > 0.0);
        }
    }

    #[test]
    fn both_accelerators_appear_in_a_modest_database() {
        let trainer = Trainer::new(MultiAcceleratorSystem::primary());
        let set = trainer.generate_database(40, 3);
        let gpus = set
            .samples()
            .iter()
            .filter(|s| s.optimal.accelerator == Accelerator::Gpu)
            .count();
        assert!(gpus > 0 && gpus < set.len(), "gpu share {gpus}/40");
    }

    #[test]
    fn energy_objective_changes_cost_metric() {
        let perf = Trainer::new(MultiAcceleratorSystem::primary());
        let energy =
            Trainer::new(MultiAcceleratorSystem::primary()).with_objective(Objective::Energy);
        assert_eq!(energy.objective(), Objective::Energy);
        let set = perf.generate_database(3, 5);
        let s = &set.samples()[0];
        let ctx = WorkloadContext::synthetic(s.b, s.stats, s.iteration_model, s.work_per_edge);
        let cfg = MConfig::gpu_default();
        assert_ne!(perf.cost(&ctx, &cfg), energy.cost(&ctx, &cfg));
    }

    #[test]
    fn summary_reports_evaluations_spent() {
        let trainer = Trainer::new(MultiAcceleratorSystem::primary());
        let set = trainer.generate_database(4, 6);
        let summary = set.summary();
        assert_eq!(summary.samples, 4);
        assert!(summary.tuning_evaluations > 0);
        assert_eq!(summary.gpu_optimal + summary.multicore_optimal, 4);
    }

    #[test]
    fn parallel_database_matches_serial_at_any_worker_count() {
        let trainer = Trainer::new(MultiAcceleratorSystem::primary());
        let serial = trainer.generate_database(9, 7);
        for threads in [1, 3, 8] {
            let parallel = trainer.generate_database_parallel(9, 7, threads);
            assert_eq!(parallel, serial, "diverged at {threads} threads");
        }
    }

    #[test]
    fn ensemble_trainer_produces_a_valid_database() {
        let trainer = Trainer::new(MultiAcceleratorSystem::primary())
            .with_ensemble(TuneConfig::default().with_budget(60).with_seed(1));
        let serial = trainer.generate_database(4, 8);
        assert_eq!(serial.len(), 4);
        assert!(serial.tuning_evaluations() <= 4 * 60);
        for s in serial.samples() {
            assert!(s.optimal_cost.is_finite() && s.optimal_cost > 0.0);
        }
        let parallel = trainer.generate_database_parallel(4, 8, 4);
        assert_eq!(parallel, serial);
    }
}
