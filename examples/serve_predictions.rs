//! End-to-end prediction serving: train the Deep.128 learner offline,
//! persist its weights, reload them into a serving engine, and serve a
//! mixed 10k-request stream through the sharded prediction cache,
//! finishing with the metrics snapshot as JSON.
//!
//! Run with: `cargo run --release --example serve_predictions [samples]`
//!
//! With tracing enabled — `HETEROMAP_TRACE=full cargo run --release
//! --example serve_predictions` — the run additionally writes a
//! chrome://tracing profile (open it at `chrome://tracing` or
//! <https://ui.perfetto.dev>) and prints the per-phase time table.

use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::GraphStats;
use heteromap_model::Workload;
use heteromap_predict::nn::TrainConfig;
use heteromap_predict::persist::{load_model_file, save_model_file};
use heteromap_predict::{NeuralPredictor, Objective, PersistedModel, Trainer};
use heteromap_serve::{ServeConfig, ServeEngine};

const REQUESTS: usize = 10_000;
const THREADS: usize = 4;

fn main() {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let system = MultiAcceleratorSystem::primary();

    println!("1. training Deep.128 on {samples} autotuned synthetic combos...");
    let trainer = Trainer::new(system.clone()).with_objective(Objective::Performance);
    let db = trainer.generate_database(samples, 42);
    let nn = NeuralPredictor::train(
        &db,
        TrainConfig {
            hidden: 128,
            seed: 42,
            ..TrainConfig::default()
        },
    );

    let path = std::env::temp_dir().join("heteromap-deep128.model");
    println!("2. persisting weights to {}...", path.display());
    save_model_file(&PersistedModel::Nn(nn), &path).expect("persist model");

    println!("3. reloading the persisted model into a serving engine...");
    let PersistedModel::Nn(reloaded) = load_model_file(&path).expect("reload model") else {
        panic!("expected a neural model");
    };
    let engine = ServeEngine::new(
        HeteroMap::new(system, Box::new(reloaded)),
        ServeConfig::default(),
    );

    // A mixed stream over every (workload, dataset) combination — the
    // repetition a long-running serving process actually sees.
    let combos: Vec<(Workload, GraphStats)> = Workload::all()
        .into_iter()
        .flat_map(|w| Dataset::all().into_iter().map(move |d| (w, d.stats())))
        .collect();
    let requests: Vec<(Workload, GraphStats)> = (0..REQUESTS)
        .map(|idx| combos[(idx * 13) % combos.len()])
        .collect();

    println!(
        "4. serving {REQUESTS} requests ({} distinct combinations) on {THREADS} threads...",
        combos.len()
    );
    let report = engine.run_closed_loop(&requests, THREADS);
    println!(
        "   {} requests in {:.1} ms -> {:.0} req/s\n",
        report.requests, report.wall_ms, report.throughput_rps
    );

    println!("5. metrics snapshot:");
    print!("{}", engine.metrics().snapshot().to_json());

    if heteromap_obs::enabled() {
        let trace_path = heteromap_obs::trace_file_path();
        let snap = heteromap_obs::write_chrome_trace(&trace_path).expect("write chrome trace");
        println!(
            "\n6. wrote {} ({} spans, {} events) -- open in chrome://tracing",
            trace_path.display(),
            snap.spans.len(),
            snap.events.len()
        );
        print!("{}", snap.phase_table());
    }

    std::fs::remove_file(&path).ok();
}
