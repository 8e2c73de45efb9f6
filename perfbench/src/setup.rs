//! The set-up a serving process pays once before its first decision:
//! autotuned training database, Deep.128 training, engine construction and
//! whatever cache warm-up the workload needs.

use crate::stats::median;
use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_predict::nn::TrainConfig;
use heteromap_predict::{NeuralPredictor, Trainer};
use heteromap_serve::{ServeConfig, ServeEngine};
use std::time::Instant;

/// Autotuned synthetic samples in the training database. Fixed, with
/// [`TRAIN_SEED`], so every run serves the same model and decisions differ
/// only by the workload's keys.
pub const TRAIN_SAMPLES: usize = 64;

/// Seed of the training database and network initialisation.
pub const TRAIN_SEED: u64 = 0x4D0D_E128;

/// Serving-engine set-ups per run; `setup_s` is their median. Consecutive
/// set-ups on a shared host differ by up to a third, so a steady median
/// needs several.
pub const SETUP_REPEATS: usize = 7;

/// Set-up times of one run, one sample per set-up. Workloads time their
/// first set-up before the timed phase and the rest after it, so the
/// median samples the host at both ends of the run rather than in one
/// burst that a slow stretch of the shared host can cover.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Whole set-up, warm-up included.
    pub total_s: Vec<f64>,
    /// `Trainer::generate_database`.
    pub database_s: Vec<f64>,
    /// `NeuralPredictor::train`.
    pub train_s: Vec<f64>,
    /// Oracle evaluations the autotuner spent on the database.
    pub oracle_evals: u64,
}

impl SetupTimes {
    /// Runs and times one set-up that has no trained model.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = setup();
        self.total_s.push(start.elapsed().as_secs_f64());
        out
    }

    /// Median whole set-up time.
    pub fn median_s(&self) -> f64 {
        median(&self.total_s)
    }
}

/// Sets up a serving engine (default retry policy) once, runs `warm` on
/// it, and records the set-up's phase times.
pub fn serving_engine(times: &mut SetupTimes, warm: impl Fn(&ServeEngine)) -> ServeEngine {
    let start = Instant::now();
    let system = MultiAcceleratorSystem::primary();
    let db = Trainer::new(system.clone()).generate_database(TRAIN_SAMPLES, TRAIN_SEED);
    let db_done = Instant::now();
    let nn = NeuralPredictor::train(
        &db,
        TrainConfig {
            hidden: 128,
            seed: TRAIN_SEED,
            ..TrainConfig::default()
        },
    );
    let train_done = Instant::now();
    let engine = ServeEngine::new(HeteroMap::new(system, Box::new(nn)), ServeConfig::default());
    warm(&engine);
    times.total_s.push(start.elapsed().as_secs_f64());
    times
        .database_s
        .push(db_done.duration_since(start).as_secs_f64());
    times
        .train_s
        .push(train_done.duration_since(db_done).as_secs_f64());
    times.oracle_evals = db.tuning_evaluations();
    engine
}
