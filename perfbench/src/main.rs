//! The repository benchmark for the HeteroMap scheduling-decision path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decide-hot|decide-cold|analytics-jobs|fleet-rounds> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, sets up, measures a closed
//! loop for `--seconds`, sets up again a few times (`setup_s` is the median
//! over every set-up of the run), checks
//! every output, and prints the metrics by name with units. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run splits `--seconds`
//! between the untraced loop and the same loop again with bench-owned spans
//! around each layer call. Run metadata, check results and (traced) a
//! Chrome trace are written under `.bench_out/`. `failed` counts ops that
//! did not complete or whose output is wrong; the exit code is non-zero
//! when any output is wrong or a self-check fails.

mod analytics;
mod decide;
mod fleet;
mod harness;
mod keys;
mod report;
mod setup;
mod stats;
mod trace;

use harness::Phase;
use report::{peak_rss_mb, result_json, tool_output, Checks, Meta, Metrics, Tally};
use setup::SetupTimes;
use std::io::Write as _;
use std::process::ExitCode;
use trace::{Tracer, RECONCILE_TOLERANCE};

/// The workloads, by the names `--workload` accepts.
const WORKLOADS: [&str; 4] = [
    "decide-hot",
    "decide-cold",
    "analytics-jobs",
    "fleet-rounds",
];

/// Every per-layer metric with its unit. A traced run prints all of them;
/// layers a workload does not exercise read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.call_ns", "ns"),
    ("serve.self_ns", "ns"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions_per_op", "1/op"),
    ("serve.invalidations", "count"),
    ("serve.mean_batch_size", "requests"),
    ("serve.single_flight_waits", "count"),
    ("serve.op_share", "ratio"),
    ("model.ivector_ns", "ns"),
    ("predict.calls", "count"),
    ("predict.ns_per_call", "ns"),
    ("predict.flops_per_call", "flop"),
    ("predict.fallbacks", "count"),
    ("core.deploy_ns", "ns"),
    ("core.attempts_per_op", "1/op"),
    ("core.failovers_per_op", "1/op"),
    ("core.useful_attempt_ratio", "ratio"),
    ("accel.eval_ns", "ns"),
    ("tune.database_s", "s"),
    ("tune.oracle_evals", "count"),
    ("predict.train_s", "s"),
    ("graph.measure_ns", "ns"),
    ("graph.measure_edges_per_s", "edges/s"),
    ("kernels.run_ns", "ns"),
    ("kernels.edges_per_s", "edges/s"),
    ("kernels.threads_per_job", "threads"),
    ("kernels.sssp_bf.run_ns", "ns"),
    ("kernels.sssp_delta.run_ns", "ns"),
    ("kernels.bfs.run_ns", "ns"),
    ("kernels.dfs.run_ns", "ns"),
    ("kernels.pagerank.run_ns", "ns"),
    ("kernels.pagerank_dp.run_ns", "ns"),
    ("kernels.triangle_count.run_ns", "ns"),
    ("kernels.community.run_ns", "ns"),
    ("kernels.conncomp.run_ns", "ns"),
    ("kernels.spmv.run_ns", "ns"),
    ("kernels.kcore.run_ns", "ns"),
    ("kernels.labelprop.run_ns", "ns"),
    ("fleet.new_ns", "ns"),
    ("fleet.run_ns", "ns"),
    ("fleet.jobs_per_op", "1/op"),
    ("fleet.migrations_per_op", "1/op"),
    ("fleet.breaker_opens_per_op", "1/op"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.reconcile_error_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// What one workload run produced.
pub struct Outcome {
    /// Set-up times, one sample per set-up.
    pub setup: SetupTimes,
    /// The timed phase with tracing off (end-to-end metrics).
    pub untraced: Phase,
    /// The traced phase, its spans and its per-layer metrics.
    pub traced: Option<(Phase, Tracer, Metrics)>,
    /// Failures against attempts over every timed op.
    pub tally: Tally,
    /// Geomean simulated completion time (ms) over a fixed set of
    /// decisions, predictor overhead excluded.
    pub sim_completion_ms: f64,
    /// Useful share of simulated work (fleet: jobs within deadline).
    pub sim_goodput: f64,
    /// Self-checks that the workload stresses what it claims.
    pub checks: Checks,
    /// What `obs.reconcile_error_ratio` measures on this workload.
    pub reconcile: &'static str,
    /// Workload shape, for the metadata.
    pub notes: Vec<String>,
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS.into_iter().find(|w| *w == name).ok_or(format!(
        "unknown workload {name:?}; expected one of {WORKLOADS:?}"
    ))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Trainer progress diagnostics would interleave with the report, and
    // the program's own tracing and metrics stay off whatever the
    // environment says: this benchmark measures the untraced program.
    heteromap_obs::set_quiet(true);
    heteromap_obs::set_level(heteromap_obs::TraceLevel::Off);
    heteromap_obs::set_metrics_enabled(false);
    // A traced run measures two phases in the same wall time.
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let outcome = match args.workload {
        "decide-hot" => decide::run(decide::Kind::Hot, args.seed, phase_s, args.trace),
        "decide-cold" => decide::run(decide::Kind::Cold, args.seed, phase_s, args.trace),
        "analytics-jobs" => analytics::run(args.seed, phase_s, args.trace),
        _ => fleet::run(args.seed, phase_s, args.trace),
    };
    report(&args, outcome)
}

fn report(args: &Args, mut outcome: Outcome) -> ExitCode {
    let phase = &outcome.untraced;
    let p50 = phase.latency_us(0.5);
    let p99 = phase.latency_us(0.99);
    if !args.trace {
        outcome.checks.check(
            p99.is_some(),
            format!(
                "p99 backed by {} latency samples (needs 1000)",
                phase.latencies_ns.len()
            ),
        );
    }
    let mut e2e = Metrics::default();
    e2e.set("setup_s", outcome.setup.median_s(), "s");
    e2e.set("throughput_ops_s", phase.throughput_ops_s(), "ops/s");
    e2e.set("latency_p50_us", p50.unwrap_or(f64::NAN), "us");
    e2e.set("latency_p99_us", p99.unwrap_or(f64::NAN), "us");
    e2e.set("sim_completion_geomean_ms", outcome.sim_completion_ms, "ms");
    e2e.set("sim_goodput_ratio", outcome.sim_goodput, "ratio");
    e2e.set("peak_rss_mb", peak_rss_mb(), "MB");

    let mut layers = Metrics::default();
    for &(name, unit) in PER_LAYER {
        layers.set(name, 0.0, unit);
    }
    let mut snapshot = None;
    if let Some((traced, tracer, measured)) = outcome.traced.take() {
        for (name, value, unit) in measured.0 {
            layers.set(name, value, unit);
        }
        // Workloads without a trained model time no database or training.
        let median_or_0 = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
        layers.set(
            "tune.database_s",
            median_or_0(&outcome.setup.database_s),
            "s",
        );
        layers.set(
            "tune.oracle_evals",
            outcome.setup.oracle_evals as f64,
            "count",
        );
        layers.set("predict.train_s", median_or_0(&outcome.setup.train_s), "s");
        layers.set(
            "obs.trace_overhead_ratio",
            stats::ratio(traced.throughput_ops_s(), phase.throughput_ops_s()),
            "ratio",
        );
        let err = layers.get("obs.reconcile_error_ratio").unwrap_or(f64::NAN);
        outcome.checks.check(
            err <= RECONCILE_TOLERANCE,
            format!(
                "layer self times reconcile with op wall time: error {err:.4} (tolerance {RECONCILE_TOLERANCE}; measures {})",
                outcome.reconcile
            ),
        );
        snapshot = Some(tracer.into_snapshot());
    }
    layers.set("failed_ratio", outcome.tally.failed_ratio(), "ratio");
    let metrics = if args.trace { &layers } else { &e2e };
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    outcome.checks.check(
        finite,
        "every reported metric is a finite number".to_string(),
    );

    let mut meta = Meta::default();
    meta.add("workload", args.workload);
    meta.add("seed", args.seed);
    meta.add("seconds", args.seconds);
    meta.add("trace", u8::from(args.trace));
    meta.add(
        "host_cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    meta.add("rustc", tool_output("rustc", &["--version"]));
    meta.add("git_commit", tool_output("git", &["rev-parse", "HEAD"]));
    meta.add("ops_per_run", phase.ops);
    meta.add("latency_samples_p50", phase.latencies_ns.len());
    meta.add("latency_samples_p99", phase.latencies_ns.len());
    meta.add("throughput_windows", phase.window_ops.len());
    meta.add("window_ops", format!("{:?}", phase.window_ops));
    meta.add("setup_repeats", outcome.setup.total_s.len());
    meta.add("setup_samples_s", format!("{:?}", outcome.setup.total_s));
    for note in &outcome.notes {
        meta.add("shape", note);
    }

    let correct = outcome.tally.wrong == 0 && outcome.checks.all_passed();
    let result = result_json(correct, &outcome.tally, metrics);
    let mut out = String::new();
    for (k, v) in &meta.0 {
        out.push_str(&format!("meta {k} = {v}\n"));
    }
    for (what, ok) in &outcome.checks.0 {
        out.push_str(&format!(
            "check {} {what}\n",
            if *ok { "PASS" } else { "FAIL" }
        ));
    }
    for reason in &outcome.tally.reasons {
        out.push_str(&format!("failure {reason}\n"));
    }
    for (name, value, unit) in e2e.0.iter().chain(if args.trace {
        layers.0.iter()
    } else {
        [].iter()
    }) {
        out.push_str(&format!("metric {name} = {value} {unit}\n"));
    }
    if let Some(snap) = &snapshot {
        out.push_str(&snap.phase_table());
    }
    if let Err(e) = store(args, &meta, &outcome.checks, &result, snapshot) {
        out.push_str(&format!("warning: results not stored: {e}\n"));
    }
    out.push_str(&result);
    out.push('\n');
    let mut stdout = std::io::stdout().lock();
    if stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Stores the result with its metadata and checks (and, traced, the Chrome
/// trace) under `.bench_out/`.
fn store(
    args: &Args,
    meta: &Meta,
    checks: &Checks,
    result: &str,
    snapshot: Option<heteromap_obs::TraceSnapshot>,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let checks: Vec<String> = checks
        .0
        .iter()
        .map(|(what, ok)| {
            format!(
                "{{\"check\": {}, \"passed\": {ok}}}",
                heteromap_obs::json::escape(what)
            )
        })
        .collect();
    let doc = format!(
        "{{\"meta\": {}, \"checks\": [{}], \"result\": {result}}}\n",
        meta.to_json(),
        checks.join(", ")
    );
    std::fs::write(
        dir.join(format!("{stem}-trace{}.json", u8::from(args.trace))),
        doc,
    )?;
    if let Some(snap) = snapshot {
        std::fs::write(
            dir.join(format!("{stem}.chrome-trace.json")),
            snap.chrome_trace_json(),
        )?;
    }
    Ok(())
}
