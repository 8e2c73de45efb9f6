//! **Tuning quality**: the `heteromap-tune` ensemble vs the legacy coarse +
//! hill-climb autotuner, swept over evaluation budget × search strategy on
//! real workload/dataset oracles, plus parallel database-generation
//! throughput. Results are written to `BENCH_tune.json`.
//!
//! Three questions, answered in one run:
//!
//! 1. **Optimality gap vs budget** — for each budget, the geomean ratio of
//!    each strategy's best cost to the exhaustive reference optimum across
//!    a spread of (workload, dataset) combinations.
//! 2. **Curves** — best-gap-so-far against evaluations spent, per strategy,
//!    on a representative combination.
//! 3. **Throughput** — profiler-database generation, serial vs fanned over
//!    the kernel pool (bit-identical output; see
//!    `Trainer::generate_database_parallel`).
//!
//! The run also self-checks the CI smoke property: on a fixed convex
//! oracle, the fixed-seed ensemble must match or beat same-budget random
//! search. That check is deterministic and machine-independent.

use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_bench::{all_combos, geomean, TextTable};
use heteromap_model::{Accelerator, MConfig};
use heteromap_predict::Trainer;
use heteromap_tune::{CoarseRefine, EnsembleTuner, Strategy, TuneConfig};
use std::time::Instant;

/// Evaluation budgets swept (the legacy `CoarseRefine::FAST` preset spends ~240).
const BUDGETS: [usize; 4] = [60, 120, 240, 480];
/// Every `COMBO_STRIDE`-th of the 81 workload × dataset combinations.
const COMBO_STRIDE: usize = 7;
/// Samples in the throughput measurement's database.
const THROUGHPUT_SAMPLES: usize = 32;
/// Workers for the parallel database-generation measurement.
const THROUGHPUT_THREADS: usize = 8;

/// Strategies compared against the legacy tuner.
const STRATEGIES: [Strategy; 3] = [
    Strategy::Ensemble,
    Strategy::HillClimbOnly,
    Strategy::RandomOnly,
];

/// A convergence curve: strategy name, budget, (evaluations, cost) points.
type Curve = (String, usize, Vec<(usize, f64)>);

struct Cell {
    strategy: &'static str,
    budget: usize,
    geomean_gap: f64,
    mean_evals: f64,
}

/// The legacy tuner reshaped to spend roughly `budget` evaluations, with
/// the same coarse/refine split ratio as `CoarseRefine::FAST` (five coarse
/// evaluations per refine step).
fn legacy_at_budget(budget: usize) -> CoarseRefine {
    let space = heteromap_model::mspace::MSpace::new().enumerate().len();
    let coarse_target = (budget * 5 / 6).max(1);
    let stride = space.div_ceil(coarse_target).max(1);
    let coarse = space.div_ceil(stride);
    CoarseRefine {
        coarse_stride: stride,
        refine_budget: budget.saturating_sub(coarse),
    }
}

fn convex_smoke() {
    let oracle = |cfg: &MConfig| {
        let accel = match cfg.accelerator {
            Accelerator::Gpu => 0.0,
            Accelerator::Multicore => 5.0,
        };
        accel + (cfg.global_threads - 0.7).powi(2) + (cfg.local_threads - 0.3).powi(2) + 1.0
    };
    let at = |strategy: Strategy| {
        EnsembleTuner::new(
            TuneConfig::default()
                .with_budget(120)
                .with_seed(1)
                .with_strategy(strategy),
        )
        .tune(oracle)
        .cost
    };
    let ensemble = at(Strategy::Ensemble);
    let random = at(Strategy::RandomOnly);
    assert!(
        ensemble <= random,
        "smoke failed: ensemble {ensemble} vs random {random} on the convex oracle"
    );
    println!("smoke: ensemble {ensemble:.6} <= random {random:.6} on the convex oracle ✓");
}

fn main() {
    heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    convex_smoke();

    let sys = MultiAcceleratorSystem::primary();
    let combos: Vec<_> = all_combos().into_iter().step_by(COMBO_STRIDE).collect();
    let contexts: Vec<WorkloadContext> = combos
        .iter()
        .map(|&(w, d)| WorkloadContext::for_workload(w, d.stats()))
        .collect();
    // Reference: the exhaustive + fully-refined legacy tuner.
    let reference: Vec<f64> = contexts
        .iter()
        .map(|ctx| {
            CoarseRefine::EXHAUSTIVE
                .tune(|c| sys.deploy(ctx, c).time_ms)
                .cost
        })
        .collect();

    println!(
        "\nTuning quality: budget x strategy over {} combinations\n",
        combos.len()
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut curves: Vec<Curve> = Vec::new();
    for &budget in &BUDGETS {
        // Legacy coarse + hill-climb at (approximately) this budget.
        let legacy = legacy_at_budget(budget);
        let mut evals = 0usize;
        let gaps: Vec<f64> = contexts
            .iter()
            .zip(&reference)
            .map(|(ctx, &best)| {
                let r = legacy.tune(|c| sys.deploy(ctx, c).time_ms);
                evals += r.evaluations;
                r.cost / best
            })
            .collect();
        cells.push(Cell {
            strategy: "legacy",
            budget,
            geomean_gap: geomean(&gaps),
            mean_evals: evals as f64 / combos.len() as f64,
        });
        // The subsystem strategies at exactly this budget.
        for strategy in STRATEGIES {
            let mut evals = 0usize;
            let gaps: Vec<f64> = contexts
                .iter()
                .zip(&reference)
                .enumerate()
                .map(|(k, (ctx, &best))| {
                    let tuner = EnsembleTuner::new(
                        TuneConfig::default()
                            .with_budget(budget)
                            .with_seed(42 + k as u64)
                            .with_strategy(strategy),
                    );
                    let out = tuner.tune(|c| sys.deploy(ctx, c).time_ms);
                    evals += out.evaluations;
                    if k == 0 && budget == *BUDGETS.last().expect("non-empty") {
                        curves.push((
                            strategy.name().to_string(),
                            budget,
                            out.curve
                                .iter()
                                .map(|p| (p.evaluations, p.cost / best))
                                .collect(),
                        ));
                    }
                    out.cost / best
                })
                .collect();
            cells.push(Cell {
                strategy: strategy.name(),
                budget,
                geomean_gap: geomean(&gaps),
                mean_evals: evals as f64 / combos.len() as f64,
            });
        }
    }

    let mut table = TextTable::new(["strategy", "budget", "geomean gap(%)", "evals/combo"]);
    for c in &cells {
        table.row([
            c.strategy.to_string(),
            c.budget.to_string(),
            format!("{:.2}", (c.geomean_gap - 1.0) * 100.0),
            format!("{:.0}", c.mean_evals),
        ]);
    }
    println!("{}", table.render());

    // The subsystem must not lose to the legacy tuner it replaces at the
    // full budget (the budget class the training pipeline actually uses).
    let gap_of = |name: &str, budget: usize| {
        cells
            .iter()
            .find(|c| c.strategy == name && c.budget == budget)
            .map(|c| c.geomean_gap)
            .expect("cell was measured")
    };
    let full = *BUDGETS.last().expect("non-empty");
    let (ens, leg) = (gap_of("ensemble", full), gap_of("legacy", full));
    assert!(
        ens <= leg + 1e-9,
        "ensemble gap {ens} worse than legacy {leg} at budget {full}"
    );
    println!(
        "ensemble gap {:.2}% <= legacy gap {:.2}% at budget {full} ✓\n",
        (ens - 1.0) * 100.0,
        (leg - 1.0) * 100.0
    );

    // Throughput: serial vs pool-parallel database generation. The outputs
    // are bit-identical; only wall-clock differs (and only on multi-core
    // hosts — the speedup is bounded by the machine's parallelism).
    let trainer = Trainer::new(sys.clone());
    let serial_start = Instant::now();
    let serial_db = trainer.generate_database(THROUGHPUT_SAMPLES, 7);
    let serial_s = serial_start.elapsed().as_secs_f64();
    let parallel_start = Instant::now();
    let parallel_db = trainer.generate_database_parallel(THROUGHPUT_SAMPLES, 7, THROUGHPUT_THREADS);
    let parallel_s = parallel_start.elapsed().as_secs_f64();
    assert_eq!(
        parallel_db, serial_db,
        "parallel generation must be bit-identical"
    );
    let speedup = serial_s / parallel_s;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "database generation ({} samples, {} tuning evaluations): \
         serial {:.2}s, {}-thread {:.2}s -> {:.2}x (host has {host_cpus} cpus)",
        THROUGHPUT_SAMPLES,
        serial_db.tuning_evaluations(),
        serial_s,
        THROUGHPUT_THREADS,
        parallel_s,
        speedup
    );
    if host_cpus >= 4 {
        assert!(
            speedup >= 2.0,
            "parallel generation speedup {speedup:.2}x below 2x on a {host_cpus}-cpu host"
        );
    }

    use heteromap_obs::json::escape;
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"tune_quality\",\n");
    json.push_str(&format!("  \"combos\": {},\n", combos.len()));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str("  \"trials\": 1,\n"); // fixed-seed cells are deterministic

    json.push_str("  \"gap_by_budget\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"strategy\": {}, \"budget\": {}, \"geomean_gap\": {:.6}, \
             \"mean_evaluations\": {:.1}}}{}\n",
            escape(c.strategy),
            c.budget,
            c.geomean_gap,
            c.mean_evals,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"curves\": [\n");
    for (i, (name, budget, points)) in curves.iter().enumerate() {
        let pts: Vec<String> = points
            .iter()
            .map(|(e, g)| format!("[{e}, {g:.6}]"))
            .collect();
        json.push_str(&format!(
            "    {{\"strategy\": {}, \"budget\": {}, \"gap_vs_evaluations\": [{}]}}{}\n",
            escape(name),
            budget,
            pts.join(", "),
            if i + 1 < curves.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"database_generation\": {\n");
    json.push_str(&format!("    \"samples\": {THROUGHPUT_SAMPLES},\n"));
    json.push_str(&format!("    \"threads\": {THROUGHPUT_THREADS},\n"));
    json.push_str(&format!(
        "    \"tuning_evaluations\": {},\n",
        serial_db.tuning_evaluations()
    ));
    json.push_str(&format!("    \"serial_seconds\": {serial_s:.4},\n"));
    json.push_str(&format!("    \"parallel_seconds\": {parallel_s:.4},\n"));
    json.push_str(&format!("    \"speedup\": {speedup:.4},\n"));
    json.push_str("    \"bit_identical\": true\n");
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_tune.json", &json).expect("write BENCH_tune.json");
    println!(
        "\nwrote BENCH_tune.json ({} gap cells, {} curves)",
        cells.len(),
        curves.len()
    );
}
