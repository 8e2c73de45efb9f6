//! **Observability overhead**: the cost of the tracing subsystem at every
//! level, against a span-free baseline built from the same components.
//!
//! The flight recorder is designed to be deployable in production serving
//! processes, which only holds if the *disabled* instrumentation is free.
//! `HeteroMap::schedule_context` carries the pipeline spans
//! (schedule/ivector/predict/deploy) while the components it composes —
//! [`HeteroMap::ivector`], [`HeteroMap::predict_config`],
//! [`HeteroMap::deploy_predicted`] — are deliberately uninstrumented, so an
//! exact span-free baseline can be assembled from public API. This bench
//! sweeps all 81 (workload, dataset) combinations through both paths at
//! each trace level, takes the min-of-reps per variant (the stable floor),
//! and writes the overhead ratios to `BENCH_obs_overhead.json` (its own
//! artifact; `BENCH_obs.json` belongs to `exp_obs_timeseries`):
//!
//! * `overhead_disabled` — spans compiled in but `HETEROMAP_TRACE=off`
//!   (one relaxed atomic load per span site); must stay within 1%;
//! * `overhead_spans` / `overhead_full` — the price of actually recording.
//!
//! The final full-trace sweep is exported as a chrome://tracing profile and
//! re-parsed through the crate's own JSON parser; the bench panics unless
//! every pipeline stage contributed at least one span (the CI smoke check).
//!
//! Pass `--quick` for a CI-sized run (fewer repetitions).

use heteromap::HeteroMap;
use heteromap_accel::cost::WorkloadContext;
use heteromap_bench::{all_combos, write_artifact, TextTable};
use heteromap_model::Workload;
use heteromap_obs::json::Object;
use heteromap_obs::TraceLevel;
use std::time::Instant;

use heteromap_graph::GraphStats;

/// The four spans `schedule_context` emits, i.e. the pipeline stages the
/// exported trace must cover.
const PIPELINE_STAGES: [&str; 4] = ["schedule", "ivector", "predict", "deploy"];

/// One timed repetition: the full 81-combination sweep, `inner` times.
fn sweep_instrumented(hm: &HeteroMap, combos: &[(Workload, GraphStats)], inner: usize) -> f64 {
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

/// The span-free twin of [`sweep_instrumented`]: identical work (including
/// the modeled overhead charge) assembled from the uninstrumented
/// components.
fn sweep_baseline(hm: &HeteroMap, combos: &[(Workload, GraphStats)], inner: usize) -> f64 {
    let start = Instant::now();
    let mut sum = 0.0;
    for _ in 0..inner {
        for &(w, stats) in combos {
            let ctx = WorkloadContext::for_workload(w, stats);
            let i = hm.ivector(&ctx.stats);
            let (config, fallbacks) = hm.predict_config(&ctx.b, &i);
            let overhead_ms = hm.predictor().overhead_ms();
            sum += hm
                .deploy_predicted(&ctx, config, overhead_ms, fallbacks)
                .report
                .time_ms;
        }
    }
    assert!(sum.is_finite() && sum > 0.0);
    start.elapsed().as_secs_f64() * 1e3
}

/// Min of `reps` timed repetitions (the noise floor of the variant).
fn min_of_reps(reps: usize, mut rep: impl FnMut() -> f64) -> f64 {
    let _ = rep(); // warmup: caches, lazy statics, ring registration
    (0..reps).map(|_| rep()).fold(f64::INFINITY, f64::min)
}

/// Exports the chrome trace from the last full-trace sweep and checks —
/// through the crate's own parser — that it is valid JSON with at least
/// one complete-event span per pipeline stage.
fn export_and_check_trace() -> (std::path::PathBuf, usize) {
    let path = heteromap_obs::trace_file_path();
    let snap = heteromap_obs::write_chrome_trace(&path).expect("write chrome trace");
    let text = std::fs::read_to_string(&path).expect("re-read chrome trace");
    let doc = heteromap_obs::json::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("trace must carry a traceEvents array");
    for stage in PIPELINE_STAGES {
        let spans = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("name").and_then(|n| n.as_str()) == Some(stage)
            })
            .count();
        assert!(spans >= 1, "pipeline stage {stage:?} produced no spans");
    }
    println!("\nper-phase breakdown of the exported trace:");
    print!("{}", snap.phase_table());
    (path, snap.spans.len())
}

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let quick = args.iter().any(|a| a == "--quick");
    // Each rep is `inner` full sweeps so the timed unit sits well above
    // clock granularity; min-of-reps then strips scheduler noise.
    let (reps, inner) = if quick { (15, 5) } else { (60, 20) };

    let combos: Vec<(Workload, GraphStats)> = all_combos()
        .into_iter()
        .map(|(w, d)| (w, d.stats()))
        .collect();
    let hm = HeteroMap::with_decision_tree();

    println!(
        "Observability overhead: {} combinations x {inner} sweeps/rep, \
         min of {reps} reps{}\n",
        combos.len(),
        if quick { " [quick]" } else { "" },
    );

    // The baseline never records, so the level during its measurement is
    // irrelevant — but keep it Off for symmetry with the disabled variant.
    heteromap_obs::set_level(TraceLevel::Off);
    let baseline_ms = min_of_reps(reps, || sweep_baseline(&hm, &combos, inner));

    let mut variant_ms = [0.0f64; 3];
    for (slot, level) in [TraceLevel::Off, TraceLevel::Spans, TraceLevel::Full]
        .into_iter()
        .enumerate()
    {
        heteromap_obs::set_level(level);
        heteromap_obs::reset();
        variant_ms[slot] = min_of_reps(reps, || sweep_instrumented(&hm, &combos, inner));
    }
    let [disabled_ms, spans_ms, full_ms] = variant_ms;

    // One final recorded sweep at Full so the exported trace reflects a
    // clean run rather than the tail of the timing loop.
    heteromap_obs::set_level(TraceLevel::Full);
    heteromap_obs::reset();
    let _ = sweep_instrumented(&hm, &combos, 1);
    let (trace_path, trace_spans) = export_and_check_trace();
    heteromap_obs::set_level(TraceLevel::Off);

    let overhead = |ms: f64| ms / baseline_ms - 1.0;
    let (overhead_disabled, overhead_spans, overhead_full) =
        (overhead(disabled_ms), overhead(spans_ms), overhead(full_ms));

    let mut table = TextTable::new(["variant", "min ms/rep", "overhead"]);
    table.row([
        "baseline (span-free)".into(),
        format!("{baseline_ms:.3}"),
        "-".to_string(),
    ]);
    for (tag, ms, ratio) in [
        ("disabled (off)", disabled_ms, overhead_disabled),
        ("spans", spans_ms, overhead_spans),
        ("full", full_ms, overhead_full),
    ] {
        table.row([
            tag.to_string(),
            format!("{ms:.3}"),
            format!("{:+.2}%", ratio * 100.0),
        ]);
    }
    println!("\n{}", table.render());
    if overhead_disabled > 0.01 {
        println!(
            "WARNING: disabled-instrumentation overhead {:.2}% exceeds the 1% budget",
            overhead_disabled * 100.0
        );
    }

    write_artifact(
        "BENCH_obs_overhead.json",
        "obs_overhead",
        reps,
        Object::new()
            .field("quick", quick)
            .field("combinations", combos.len())
            .field("sweeps_per_rep", inner)
            .field("baseline_ms", baseline_ms)
            .field("disabled_ms", disabled_ms)
            .field("spans_ms", spans_ms)
            .field("full_ms", full_ms)
            .field("overhead_disabled", overhead_disabled)
            .field("overhead_spans", overhead_spans)
            .field("overhead_full", overhead_full)
            .field("trace_spans", trace_spans)
            .field("trace_file", trace_path.display().to_string()),
    );
    println!(
        "wrote BENCH_obs_overhead.json and {} ({trace_spans} spans)",
        trace_path.display()
    );
}
