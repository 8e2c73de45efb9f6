//! Cross-layer observability for the HeteroMap reproduction: spans, a
//! lock-free flight recorder, per-worker utilization, a structured event
//! log, and exporters (chrome://tracing, JSON summaries, phase tables).
//!
//! # Design
//!
//! * **Spans** ([`span`]/[`span_cat`]/[`span!`]) are RAII guards around the
//!   pipeline stages the paper times — ivector construction, prediction,
//!   deployment, kernel execution, batch assembly. Each completed span lands
//!   in a per-thread lock-free ring ([`SpanRing`]) with bounded memory;
//!   overflow overwrites the oldest spans and is counted, flight-recorder
//!   style.
//! * **Utilization** ([`record_region`]/[`utilization_report`]) measures
//!   per-worker busy vs. parked time inside the execution engine's parallel
//!   regions — the runtime analogue of the paper's Fig. 13 core-utilization
//!   study.
//! * **Events** ([`event`]/[`diag`]) capture rare happenings: injected
//!   faults, retries, failovers, cache invalidations. [`diag`] also mirrors
//!   to stderr unless [`quiet`], replacing ad-hoc `eprintln!` diagnostics.
//! * **Metrics** ([`metrics`]) are the numeric complement to spans: a
//!   label-aware time-series registry (sharded counters, gauges,
//!   fixed-bucket histograms) aggregated into windowed ring buckets, with
//!   Prometheus text exposition, JSON snapshots and online drift detection
//!   (EWMA + Page-Hinkley) feeding typed [`metrics::HealthSignal`]s to the
//!   fleet placer. Gated on [`metrics_enabled`] (`HETEROMAP_METRICS`),
//!   same one-relaxed-load cost model as the trace level.
//! * **Exporters** ([`snapshot`], [`TraceSnapshot::chrome_trace_json`],
//!   [`TraceSnapshot::phase_table`], [`TraceSnapshot::summary_json`]) turn
//!   the recorded data into chrome://tracing files, aligned tables, and
//!   JSON objects for bench artifacts.
//!
//! # Cost model
//!
//! Everything is gated on [`level`], a single process-wide atomic read from
//! `HETEROMAP_TRACE` (`off`/`spans`/`full`) or [`set_level`]. With tracing
//! off, a [`span!`] costs one relaxed load and a branch — no clock read, no
//! allocation, no lock. The `exp_obs_overhead` bench in `heteromap-bench`
//! quantifies this against an uninstrumented baseline.
//!
//! This crate has no dependencies (so the leaf kernel crates can depend on
//! it without cycles) and does nothing until instrumentation runs.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

pub mod alloc;
mod clock;
mod config;
mod event;
pub mod export;
pub mod json;
pub mod metrics;
mod recorder;
mod span;
pub mod util;

pub use alloc::{probe_enabled, thread_alloc_count};
pub use clock::{now_ns, thread_id};
pub use config::{
    enabled, level, quiet, set_level, set_quiet, TraceLevel, QUIET_ENV_VAR, TRACE_ENV_VAR,
};
pub use event::{diag, event, reset_events, snapshot_events, EventRecord, EVENT_LOG_CAPACITY};
pub use export::{
    reset, snapshot, trace_file_path, write_chrome_trace, PhaseStat, TraceSnapshot,
    DEFAULT_TRACE_FILE, TRACE_FILE_ENV_VAR,
};
pub use metrics::{metrics_enabled, set_metrics_enabled, MetricsHub, METRICS_ENV_VAR};
pub use recorder::{reset_spans, snapshot_spans, SpanRecord, SpanRing, DEFAULT_RING_CAPACITY};
pub use span::{span, span_cat, spans_named, SpanGuard};
pub use util::{
    current_region_label, record_region, region_scope, reset_regions, utilization_report,
    RegionLabelGuard, RegionUtil, UtilizationReport, WorkerUtil,
};

/// Serializes tests that touch the process-wide level/quiet state (Rust
/// runs tests concurrently; the flight recorder is global).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: record real spans and an event, export to
    /// chrome://tracing, parse the file back, and find every record.
    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let _guard = test_lock();
        set_level(TraceLevel::Full);
        {
            let _outer = span_cat("lib_test_pipeline", "test");
            let _inner = span!("lib_test_stage", "test");
            event("lib_test.event", || "k=v".to_string());
        }
        set_level(TraceLevel::Off);

        let snap = snapshot();
        let doc = json::parse(&snap.chrome_trace_json()).expect("exporter emits valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let find = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(json::Value::as_str) == Some(name))
        };
        let outer = find("lib_test_pipeline").expect("outer span exported");
        let inner = find("lib_test_stage").expect("inner span exported");
        let instant = find("lib_test.event").expect("event exported");
        assert_eq!(outer.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(inner.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(instant.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(
            inner.get("args").unwrap().get("parent").unwrap().as_f64(),
            outer.get("args").unwrap().get("id").unwrap().as_f64(),
            "parent link survives export"
        );
    }

    /// Acceptance gate: the disabled-mode overhead recorded in
    /// `BENCH_obs_overhead.json` (tracing, written by `exp_obs_overhead`)
    /// and in `BENCH_obs.json` (metrics, written by `exp_obs_timeseries`)
    /// must each stay within 1%. Skips an artifact that has not been
    /// generated in this checkout.
    #[test]
    fn bench_artifact_disabled_overhead_within_one_percent() {
        for (file, bench) in [
            ("BENCH_obs_overhead.json", "exp_obs_overhead"),
            ("BENCH_obs.json", "exp_obs_timeseries"),
        ] {
            let Some(text) = [file.to_string(), format!("../../{file}")]
                .iter()
                .find_map(|p| std::fs::read_to_string(p).ok())
            else {
                eprintln!("{file} not present; run {bench} to enable this check");
                continue;
            };
            let doc = json::parse(&text).unwrap_or_else(|e| panic!("{file} parses: {e:?}"));
            let overhead = doc
                .get("overhead_disabled")
                .and_then(json::Value::as_f64)
                .expect("overhead_disabled field");
            assert!(
                overhead <= 0.01,
                "{file}: disabled-path overhead {overhead:.4} exceeds the 1% budget"
            );
        }
    }
}
