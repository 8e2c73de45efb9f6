//! Ablation: autotuner evaluation budget vs optimality gap — the trade-off
//! behind the paper's "training takes several hours" OpenTuner pass — now
//! comparing the legacy coarse + hill-climb tuner and the `heteromap-tune`
//! ensemble in one table at matched budgets.

use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_bench::{all_combos, geomean, TextTable};
use heteromap_tune::{CoarseRefine, EnsembleTuner, Strategy, TuneConfig};

fn main() {
    heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let sys = MultiAcceleratorSystem::primary();
    let combos = all_combos();
    let contexts: Vec<WorkloadContext> = combos
        .iter()
        .map(|&(w, d)| WorkloadContext::for_workload(w, d.stats()))
        .collect();
    // Reference: the exhaustive tuner.
    let reference: Vec<f64> = contexts
        .iter()
        .map(|ctx| {
            CoarseRefine::EXHAUSTIVE
                .tune(|c| sys.deploy(ctx, c).time_ms)
                .cost
        })
        .collect();

    println!("Ablation: autotuner budget vs optimality gap (81 combinations)\n");
    let mut t = TextTable::new(["tuner", "budget", "geomean gap(%)", "evals/combo"]);

    // Legacy coarse + hill-climb at its historical operating points.
    for (stride, budget) in [
        (31usize, 0usize),
        (31, 20),
        (7, 0),
        (7, 40),
        (3, 80),
        (1, 200),
    ] {
        let tuner = CoarseRefine {
            coarse_stride: stride,
            refine_budget: budget,
        };
        let mut evals = 0usize;
        let gaps: Vec<f64> = contexts
            .iter()
            .zip(&reference)
            .map(|(ctx, &best)| {
                let r = tuner.tune(|c| sys.deploy(ctx, c).time_ms);
                evals += r.evaluations;
                r.cost / best
            })
            .collect();
        let mean_evals = evals / combos.len();
        t.row([
            format!("legacy s{stride}"),
            format!("{mean_evals}"),
            format!("{:.1}", (geomean(&gaps) - 1.0) * 100.0),
            mean_evals.to_string(),
        ]);
    }

    // The ensemble at matched total budgets.
    for budget in [60usize, 120, 240, 480] {
        let mut evals = 0usize;
        let gaps: Vec<f64> = contexts
            .iter()
            .zip(&reference)
            .enumerate()
            .map(|(k, (ctx, &best))| {
                let out = EnsembleTuner::new(
                    TuneConfig::default()
                        .with_budget(budget)
                        .with_seed(42 + k as u64)
                        .with_strategy(Strategy::Ensemble),
                )
                .tune(|c| sys.deploy(ctx, c).time_ms);
                evals += out.evaluations;
                out.cost / best
            })
            .collect();
        t.row([
            "ensemble".to_string(),
            budget.to_string(),
            format!("{:.1}", (geomean(&gaps) - 1.0) * 100.0),
            (evals / combos.len()).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Gap is relative to the full exhaustive + 200-step-refined tuner.");
    println!("See exp_tune_quality for the full budget x strategy sweep and BENCH_tune.json.");
}
