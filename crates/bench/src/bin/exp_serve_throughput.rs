//! **Serving throughput**: the prediction-serving engine's cached path vs
//! the uncached per-request baseline.
//!
//! A long-running serving process answers repeated `(B, I)` queries; the
//! paper's 0.1-increment grid makes that key space finite, so a placement
//! cache converts most requests from a neural forward pass into a hash
//! lookup plus the deterministic analytic deploy. This experiment serves a
//! mixed stream over every (workload, dataset) combination — with repeats,
//! so the cache warms like a real deployment — across serving modes and
//! thread counts, and reports requests/second, the cached-vs-uncached
//! speedup, hit rates and latency percentiles. Results are written to
//! `BENCH_serve.json`.
//!
//! Two reduced profiles exist for CI:
//!
//! - `--smoke`: a smaller training database but the **full** {1, 4, 16}
//!   thread sweep.
//! - `--quick`: legacy minimal profile (one thread count), kept for local
//!   iteration.
//!
//! **Hard gate (every run):** the warm cached hit path allocates nothing;
//! the process exits non-zero on violation. Wall-clock *scaling* targets
//! (uncached 16t ≥ 4× 1t, cached ≥ 1M req/s at 16t) are physical claims
//! about parallel hardware and are only asserted when the host actually
//! has the cores (`available_parallelism() ≥ 16`); otherwise they are
//! reported but not enforced.

use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_bench::{all_combos, TextTable};
use heteromap_graph::GraphStats;
use heteromap_model::Workload;
use heteromap_predict::nn::TrainConfig;
use heteromap_predict::persist::{read_model, write_model, PersistedModel};
use heteromap_predict::predictor::Objective;
use heteromap_predict::{NeuralPredictor, Trainer};
use heteromap_serve::{ServeConfig, ServeEngine, ServeMode, ServeSource};

struct Row {
    mode: ServeMode,
    threads: usize,
    throughput_rps: f64,
    hit_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn mode_tag(mode: ServeMode) -> &'static str {
    match mode {
        ServeMode::Uncached => "uncached",
        ServeMode::Cached => "cached",
    }
}

/// Serves the stream on a fresh engine `trials` times and returns the
/// best-throughput row. One pass over the stream is only a few
/// milliseconds of serving, so a single OS-scheduler hiccup can swing a
/// lone measurement by ±10%; best-of-N makes the mode-vs-mode ratios
/// reflect the code, not the timeslice lottery.
fn run_mode(
    model: impl Fn() -> HeteroMap,
    mode: ServeMode,
    requests: &[(Workload, GraphStats)],
    threads: usize,
    trials: usize,
) -> Row {
    let mut best: Option<Row> = None;
    for _ in 0..trials {
        let engine = ServeEngine::new(model(), ServeConfig::with_mode(mode));
        let report = engine.run_closed_loop(requests, threads);
        let snap = engine.metrics().snapshot();
        let row = Row {
            mode,
            threads,
            throughput_rps: report.throughput_rps,
            hit_rate: if snap.cache_hit_rate.is_nan() {
                0.0
            } else {
                snap.cache_hit_rate
            },
            p50_ms: snap.schedule_p50_ms,
            p99_ms: snap.schedule_p99_ms,
        };
        if best
            .as_ref()
            .is_none_or(|b| row.throughput_rps > b.throughput_rps)
        {
            best = Some(row);
        }
    }
    best.expect("at least one trial")
}

/// Measures the steady-state allocation count of one full warm pass on a
/// cached engine via the obs counting-allocator probe. `None` when the
/// probe feature is compiled out.
fn measure_steady_state_allocs(
    model: impl Fn() -> HeteroMap,
    requests: &[(Workload, GraphStats)],
) -> Option<u64> {
    if !heteromap_obs::probe_enabled() {
        return None;
    }
    let engine = ServeEngine::new(model(), ServeConfig::with_mode(ServeMode::Cached));
    // Two warm passes: populate the cache and grow every lazy buffer.
    for _ in 0..2 {
        for &(w, stats) in requests {
            engine.schedule_stats(w, stats);
        }
    }
    let before = heteromap_obs::thread_alloc_count();
    for &(w, stats) in requests {
        let served = engine.schedule_stats(w, stats);
        assert_eq!(served.source, ServeSource::CacheHit, "warm pass must hit");
    }
    let after = heteromap_obs::thread_alloc_count();
    Some(after - before)
}

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let smoke = args.iter().any(|a| a == "--smoke");
    let quick = args.iter().any(|a| a == "--quick");
    // Serving a pass takes milliseconds even at the largest size (training
    // dominates wall time, which is why --smoke/--quick shrink the training
    // database, not the stream). The stream must be long enough that
    // per-trial constants — 16 thread spawns, cold TLS scratch — don't
    // drown the steady-state signal, so every profile serves the
    // full-length stream.
    let repeats = 192;
    let thread_counts: &[usize] = if quick { &[4] } else { &[1, 4, 16] };
    let trials = 7;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The mixed 81-combination stream: every (workload, dataset) pair,
    // interleaved, repeated so the cache warms like a real serving process.
    let combos: Vec<(Workload, GraphStats)> = all_combos()
        .into_iter()
        .map(|(w, d)| (w, d.stats()))
        .collect();
    let requests: Vec<(Workload, GraphStats)> = (0..combos.len() * repeats)
        .map(|idx| combos[(idx * 7) % combos.len()])
        .collect();

    // One offline training run; every engine reloads the same persisted
    // weights, so the comparison isolates the serving path.
    println!("training Deep.128 once (shared across modes)...");
    let system = MultiAcceleratorSystem::primary();
    let trainer = Trainer::new(system.clone()).with_objective(Objective::Performance);
    let db = trainer.generate_database(if smoke || quick { 60 } else { 300 }, 42);
    let nn = NeuralPredictor::train(
        &db,
        TrainConfig {
            hidden: 128,
            seed: 42,
            ..TrainConfig::default()
        },
    );
    let mut weights = Vec::new();
    write_model(&PersistedModel::Nn(nn), &mut weights).expect("serialize trained model");
    let model = || {
        let PersistedModel::Nn(nn) = read_model(weights.as_slice()).expect("reload trained model")
        else {
            panic!("expected a neural model");
        };
        HeteroMap::new(system.clone(), Box::new(nn))
    };

    println!(
        "serving {} requests over {} combinations ({} repeats, best of {} trials, {} host cpus){}\n",
        requests.len(),
        combos.len(),
        repeats,
        trials,
        host_cpus,
        if smoke {
            " [smoke]"
        } else if quick {
            " [quick]"
        } else {
            ""
        },
    );

    let mut rows: Vec<Row> = Vec::new();
    for &threads in thread_counts {
        for mode in [ServeMode::Uncached, ServeMode::Cached] {
            let row = run_mode(model, mode, &requests, threads, trials);
            println!(
                "{:>14} x{:<2} {:>12.0} req/s  hit {:>5.1}%  p50 {:.6} ms  p99 {:.6} ms",
                mode_tag(row.mode),
                row.threads,
                row.throughput_rps,
                row.hit_rate * 100.0,
                row.p50_ms,
                row.p99_ms,
            );
            rows.push(row);
        }
    }

    let mut table = TextTable::new([
        "mode",
        "threads",
        "req/s",
        "hit rate",
        "p50 ms",
        "p99 ms",
        "vs uncached",
    ]);
    let mut best_cached = 0.0f64;
    for r in &rows {
        let baseline = rows
            .iter()
            .find(|b| b.threads == r.threads && b.mode == ServeMode::Uncached)
            .expect("uncached baseline per thread count");
        let speedup = r.throughput_rps / baseline.throughput_rps;
        if r.mode == ServeMode::Cached {
            best_cached = best_cached.max(speedup);
        }
        table.row([
            mode_tag(r.mode).to_string(),
            r.threads.to_string(),
            format!("{:.0}", r.throughput_rps),
            format!("{:.1}%", r.hit_rate * 100.0),
            format!("{:.6}", r.p50_ms),
            format!("{:.6}", r.p99_ms),
            format!("{speedup:.2}x"),
        ]);
    }
    println!("\n{}", table.render());

    println!("best cached-vs-uncached throughput speedup: {best_cached:.2}x");
    if best_cached < 5.0 {
        // The acceptance bar for the serving subsystem; don't fail the
        // bench (CI machines vary), but flag it loudly.
        println!("WARNING: below the 5x serving-speedup target");
    }

    let mut gate_failed = false;

    // ---- Scaling targets: only enforceable when the host has the cores.
    let has_1_and_16 = thread_counts.contains(&1) && thread_counts.contains(&16);
    let mut uncached_scaling_16t = f64::NAN;
    let mut cached_rps_16t = f64::NAN;
    if has_1_and_16 {
        let rps = |mode, threads| {
            rows.iter()
                .find(|r| r.threads == threads && r.mode == mode)
                .map_or(f64::NAN, |r| r.throughput_rps)
        };
        uncached_scaling_16t = rps(ServeMode::Uncached, 16) / rps(ServeMode::Uncached, 1);
        cached_rps_16t = rps(ServeMode::Cached, 16);
        let enforce = host_cpus >= 16;
        println!(
            "scaling: uncached 16t/1t = {uncached_scaling_16t:.2}x (target >= 4x), \
             cached 16t = {cached_rps_16t:.0} req/s (target >= 1M) [{}]",
            if enforce {
                "enforced"
            } else {
                "reported only: host lacks 16 cores"
            }
        );
        if enforce {
            gate_failed |= uncached_scaling_16t < 4.0;
            gate_failed |= cached_rps_16t < 1_000_000.0;
        }
    }

    // ---- Zero-allocation steady state, measured with the counting
    // allocator the bench crate compiles in via the obs `alloc-probe`
    // feature. Any allocation on the warm hit path is a regression.
    let steady_allocs = measure_steady_state_allocs(model, &requests);
    match steady_allocs {
        Some(n) => {
            println!(
                "steady-state allocations over {} warm requests: {n}",
                requests.len()
            );
            if n != 0 {
                println!("FAIL: warm cached serving touched the heap {n} times");
                gate_failed = true;
            }
        }
        None => println!("alloc probe compiled out; steady-state allocation check skipped"),
    }

    // No serde_json in the offline workspace; string fields go through the
    // shared heteromap-obs JSON writer.
    use heteromap_obs::json::escape;
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"serve_throughput\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"requests\": {},\n", requests.len()));
    json.push_str(&format!("  \"combinations\": {},\n", combos.len()));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!("  \"trials\": {trials},\n"));
    json.push_str(&format!("  \"best_cached_speedup\": {best_cached:.4},\n"));
    match steady_allocs {
        Some(n) => json.push_str(&format!("  \"steady_state_allocs\": {n},\n")),
        None => json.push_str("  \"steady_state_allocs\": null,\n"),
    }
    if uncached_scaling_16t.is_finite() {
        json.push_str(&format!(
            "  \"uncached_scaling_16t\": {uncached_scaling_16t:.4},\n"
        ));
    }
    if cached_rps_16t.is_finite() {
        json.push_str(&format!("  \"cached_rps_16t\": {cached_rps_16t:.2},\n"));
    }
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": {}, \"threads\": {}, \"throughput_rps\": {:.2}, \
             \"hit_rate\": {:.4}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \
             \"p50_ns\": {:.0}, \"p99_ns\": {:.0}}}{}\n",
            escape(mode_tag(r.mode)),
            r.threads,
            r.throughput_rps,
            r.hit_rate,
            r.p50_ms,
            r.p99_ms,
            r.p50_ms * 1e6,
            r.p99_ms * 1e6,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json ({} result rows)", rows.len());

    if gate_failed {
        eprintln!("SERVE GATE FAILED: see FAIL lines above");
        std::process::exit(1);
    }
}
