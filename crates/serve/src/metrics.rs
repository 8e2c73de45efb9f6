//! Atomic metrics registry for the serving engine.
//!
//! The recording primitives — sharded [`Counter`]s and fixed-bucket
//! [`Histogram`]s — live in [`heteromap_obs::metrics`] and are re-exported
//! here; this module keeps the serving-specific registry: typed fields
//! covering the cache (hits, misses, evictions, invalidations), scheduling
//! outcomes (per-accelerator placement counts, failures) and latency
//! distributions (schedule and kernel p50/p95/p99).
//!
//! Every field is an `Arc` handle registered once on the registry's own
//! private [`MetricsHub`], which is where each series' Prometheus name,
//! labels and help live. [`MetricsRegistry::series`] is that hub's
//! snapshot, and [`MetricsRegistry::snapshot`] freezes the typed fields
//! into a [`MetricsSnapshot`] that renders as JSON with no external
//! dependencies. The hub is per registry, never the process-wide one, so
//! per-engine counts stay exact and are not gated on `HETEROMAP_METRICS`.

use heteromap::Placement;
use heteromap_model::Accelerator;
use heteromap_obs::metrics::{MetricsHub, SeriesSnapshot, SeriesValue, LATENCY_BOUNDS_MS};
use std::sync::Arc;

pub use heteromap_obs::metrics::{Counter, Histogram};

/// Series name of the ad-hoc counters [`MetricsRegistry::counter`]
/// registers, labeled `name="<slug>"`.
const EXTRA_SERIES: &str = "serve_extra_total";

/// The serving engine's metrics registry.
///
/// Typed fields cover the built-in instrumentation; [`MetricsRegistry::counter`]
/// registers ad-hoc named counters (e.g. per-workload kernel runs) that ride
/// along in the snapshot.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Cache lookups that returned a stored prediction.
    pub cache_hits: Arc<Counter>,
    /// Cache lookups that fell through to inference.
    pub cache_misses: Arc<Counter>,
    /// LRU evictions performed by inserts.
    pub cache_evictions: Arc<Counter>,
    /// Explicit invalidations (fault-plan or predictor changes).
    pub cache_invalidations: Arc<Counter>,
    /// Placements routed to the GPU.
    pub gpu_placements: Arc<Counter>,
    /// Placements routed to the multicore.
    pub multicore_placements: Arc<Counter>,
    /// Placements that exhausted every accelerator.
    pub failed_placements: Arc<Counter>,
    /// Chunks scheduled through the streaming path.
    pub stream_chunks: Arc<Counter>,
    /// OOM re-streams performed by the streaming path.
    pub stream_restreams: Arc<Counter>,
    /// Requests admitted by the admission controller.
    pub admitted: Arc<Counter>,
    /// Requests rejected for overload (in-flight budget full, no cached
    /// prediction to shed onto).
    pub rejected_overload: Arc<Counter>,
    /// Requests rejected because every accelerator's breaker was open or
    /// every deploy leg failed.
    pub rejected_unhealthy: Arc<Counter>,
    /// Requests that could not complete within their deadline.
    pub deadline_misses: Arc<Counter>,
    /// Overloaded requests served a stale cached prediction instead of
    /// being dropped.
    pub stale_served: Arc<Counter>,
    /// Circuit-breaker trips (Closed/Half-open → Open).
    pub breaker_opens: Arc<Counter>,
    /// Circuit-breaker recoveries (Half-open → Closed).
    pub breaker_closes: Arc<Counter>,
    /// End-to-end serve latency per request (ms).
    pub schedule_latency: Arc<Histogram>,
    /// Host kernel-execution latency (ms), fed by `MeteredRunner`.
    pub kernel_latency: Arc<Histogram>,
    hub: MetricsHub,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry, registering every typed field on a fresh
    /// private hub.
    pub fn new() -> Self {
        let hub = MetricsHub::new();
        let counter = |name, help| hub.counter(name, &[], help);
        let placements = |accelerator| {
            hub.counter(
                "serve_placements_total",
                &[("accelerator", accelerator)],
                "Placements routed per accelerator",
            )
        };
        let latency = |name, help| hub.histogram(name, &[], help, &LATENCY_BOUNDS_MS);
        MetricsRegistry {
            cache_hits: counter("serve_cache_hits_total", "Cache hits"),
            cache_misses: counter("serve_cache_misses_total", "Cache misses"),
            cache_evictions: counter("serve_cache_evictions_total", "LRU evictions"),
            cache_invalidations: counter(
                "serve_cache_invalidations_total",
                "Explicit cache invalidations",
            ),
            gpu_placements: placements("gpu"),
            multicore_placements: placements("multicore"),
            failed_placements: counter(
                "serve_failed_placements_total",
                "Placements that exhausted every accelerator",
            ),
            stream_chunks: counter(
                "serve_stream_chunks_total",
                "Chunks scheduled through the streaming path",
            ),
            stream_restreams: counter("serve_stream_restreams_total", "OOM re-streams"),
            admitted: counter(
                "serve_admitted_total",
                "Requests admitted by the admission controller",
            ),
            rejected_overload: counter(
                "serve_rejected_overload_total",
                "Requests rejected for overload",
            ),
            rejected_unhealthy: counter(
                "serve_rejected_unhealthy_total",
                "Requests rejected with every accelerator unhealthy",
            ),
            deadline_misses: counter(
                "serve_deadline_misses_total",
                "Requests that missed their deadline",
            ),
            stale_served: counter(
                "serve_stale_served_total",
                "Overloaded requests shed onto stale cached predictions",
            ),
            breaker_opens: counter("serve_breaker_opens_total", "Circuit-breaker trips"),
            breaker_closes: counter("serve_breaker_closes_total", "Circuit-breaker recoveries"),
            schedule_latency: latency(
                "serve_schedule_latency_ms",
                "End-to-end serve latency per request (ms)",
            ),
            kernel_latency: latency(
                "serve_kernel_latency_ms",
                "Host kernel-execution latency (ms)",
            ),
            hub,
        }
    }

    /// Registers (or fetches) a named counter, exposed as
    /// `serve_extra_total{name="<slug>"}`. Names are sanitized to
    /// `[a-z0-9_]` so they embed cleanly in the JSON snapshot.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let slug: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        self.hub.counter(
            EXTRA_SERIES,
            &[("name", &slug)],
            "Ad-hoc registered counters",
        )
    }

    /// Records the outcome of one placement (accelerator routing and
    /// completion).
    pub fn record_placement(&self, placement: &Placement) {
        match placement.accelerator() {
            Accelerator::Gpu => self.gpu_placements.inc(),
            Accelerator::Multicore => self.multicore_placements.inc(),
        }
        if !placement.completed() {
            self.failed_placements.inc();
        }
    }

    /// Freezes every metric into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let lookups = hits + misses;
        MetricsSnapshot {
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if lookups == 0 {
                f64::NAN
            } else {
                hits as f64 / lookups as f64
            },
            cache_evictions: self.cache_evictions.get(),
            cache_invalidations: self.cache_invalidations.get(),
            single_flight_waits: 0,
            batches: 0,
            batched_requests: 0,
            gpu_placements: self.gpu_placements.get(),
            multicore_placements: self.multicore_placements.get(),
            failed_placements: self.failed_placements.get(),
            stream_chunks: self.stream_chunks.get(),
            stream_restreams: self.stream_restreams.get(),
            admitted: self.admitted.get(),
            rejected_overload: self.rejected_overload.get(),
            rejected_unhealthy: self.rejected_unhealthy.get(),
            deadline_misses: self.deadline_misses.get(),
            stale_served: self.stale_served.get(),
            breaker_opens: self.breaker_opens.get(),
            breaker_closes: self.breaker_closes.get(),
            requests: self.schedule_latency.count(),
            schedule_p50_ms: self.schedule_latency.quantile(0.50),
            schedule_p95_ms: self.schedule_latency.quantile(0.95),
            schedule_p99_ms: self.schedule_latency.quantile(0.99),
            schedule_mean_ms: self.schedule_latency.mean(),
            kernel_runs: self.kernel_latency.count(),
            kernel_p50_ms: self.kernel_latency.quantile(0.50),
            kernel_p99_ms: self.kernel_latency.quantile(0.99),
            extra: self
                .series()
                .into_iter()
                .filter(|s| s.name == EXTRA_SERIES)
                .filter_map(|s| match (s.labels.into_iter().next(), s.value) {
                    (Some((_, slug)), SeriesValue::Counter(v)) => Some((slug, v)),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Every registered series (sorted by name, then labels) for the shared
    /// exposition pipeline: the private hub's snapshot.
    pub fn series(&self) -> Vec<SeriesSnapshot> {
        self.hub.snapshot()
    }

    /// Renders every metric in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.hub.prometheus_text()
    }
}

/// A frozen view of the registry (plain values, JSON-renderable).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MetricsSnapshot {
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)` (`NaN` with no lookups).
    pub cache_hit_rate: f64,
    /// LRU evictions.
    pub cache_evictions: u64,
    /// Explicit invalidations.
    pub cache_invalidations: u64,
    /// Always 0: the engine neither batches nor deduplicates misses. Kept,
    /// with [`MetricsSnapshot::batches`] and
    /// [`MetricsSnapshot::batched_requests`], only because the repo
    /// benchmark (`perfbench`) still reads all three.
    pub single_flight_waits: u64,
    /// Always 0; see [`MetricsSnapshot::single_flight_waits`].
    pub batches: u64,
    /// Always 0; see [`MetricsSnapshot::single_flight_waits`].
    pub batched_requests: u64,
    /// Placements routed to the GPU.
    pub gpu_placements: u64,
    /// Placements routed to the multicore.
    pub multicore_placements: u64,
    /// Placements that exhausted every accelerator.
    pub failed_placements: u64,
    /// Streamed chunks scheduled.
    pub stream_chunks: u64,
    /// OOM re-streams.
    pub stream_restreams: u64,
    /// Requests admitted by the admission controller.
    pub admitted: u64,
    /// Requests rejected for overload.
    pub rejected_overload: u64,
    /// Requests rejected with every accelerator unhealthy.
    pub rejected_unhealthy: u64,
    /// Requests that missed their deadline.
    pub deadline_misses: u64,
    /// Overloaded requests shed onto stale cached predictions.
    pub stale_served: u64,
    /// Circuit-breaker trips.
    pub breaker_opens: u64,
    /// Circuit-breaker recoveries.
    pub breaker_closes: u64,
    /// Scheduled requests (latency samples).
    pub requests: u64,
    /// Median serve latency (ms).
    pub schedule_p50_ms: f64,
    /// 95th-percentile serve latency (ms).
    pub schedule_p95_ms: f64,
    /// 99th-percentile serve latency (ms).
    pub schedule_p99_ms: f64,
    /// Mean serve latency (ms).
    pub schedule_mean_ms: f64,
    /// Metered kernel executions.
    pub kernel_runs: u64,
    /// Median kernel latency (ms).
    pub kernel_p50_ms: f64,
    /// 99th-percentile kernel latency (ms).
    pub kernel_p99_ms: f64,
    /// Registered ad-hoc counters.
    pub extra: Vec<(String, u64)>,
}

/// Fixed-precision rendering for latency/ratio fields; non-finite values
/// become `null` via the shared writer.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        heteromap_obs::json::num(v)
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object via the shared
    /// [`heteromap_obs::json`] writer (the workspace vendors no serde_json;
    /// non-finite values render as `null`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let mut field = |k: &str, v: String| {
            s.push_str(&format!("  {}: {v},\n", heteromap_obs::json::escape(k)));
        };
        field("cache_hits", self.cache_hits.to_string());
        field("cache_misses", self.cache_misses.to_string());
        field("cache_hit_rate", json_num(self.cache_hit_rate));
        field("cache_evictions", self.cache_evictions.to_string());
        field("cache_invalidations", self.cache_invalidations.to_string());
        field("gpu_placements", self.gpu_placements.to_string());
        field(
            "multicore_placements",
            self.multicore_placements.to_string(),
        );
        field("failed_placements", self.failed_placements.to_string());
        field("stream_chunks", self.stream_chunks.to_string());
        field("stream_restreams", self.stream_restreams.to_string());
        field("admitted", self.admitted.to_string());
        field("rejected_overload", self.rejected_overload.to_string());
        field("rejected_unhealthy", self.rejected_unhealthy.to_string());
        field("deadline_misses", self.deadline_misses.to_string());
        field("stale_served", self.stale_served.to_string());
        field("breaker_opens", self.breaker_opens.to_string());
        field("breaker_closes", self.breaker_closes.to_string());
        field("requests", self.requests.to_string());
        field("schedule_p50_ms", json_num(self.schedule_p50_ms));
        field("schedule_p95_ms", json_num(self.schedule_p95_ms));
        field("schedule_p99_ms", json_num(self.schedule_p99_ms));
        field("schedule_mean_ms", json_num(self.schedule_mean_ms));
        field("kernel_runs", self.kernel_runs.to_string());
        field("kernel_p50_ms", json_num(self.kernel_p50_ms));
        field("kernel_p99_ms", json_num(self.kernel_p99_ms));
        let extras: Vec<String> = self
            .extra
            .iter()
            .map(|(k, v)| format!("{}: {v}", heteromap_obs::json::escape(k)))
            .collect();
        s.push_str(&format!("  \"extra\": {{{}}}\n", extras.join(", ")));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.cache_hits.inc();
        m.cache_hits.add(4);
        m.cache_misses.inc();
        let snap = m.snapshot();
        assert_eq!(snap.cache_hits, 5);
        assert_eq!(snap.cache_misses, 1);
        assert!((snap.cache_hit_rate - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_is_nan_without_lookups() {
        assert!(MetricsRegistry::new().snapshot().cache_hit_rate.is_nan());
    }

    #[test]
    fn percentiles_come_from_the_shared_histogram() {
        // The serve snapshot's p50/p99 fields and the shared obs histogram
        // must agree — one bucket-math implementation, not two.
        let m = MetricsRegistry::new();
        for _ in 0..90 {
            m.schedule_latency.record_ns(180);
        }
        for _ in 0..10 {
            m.schedule_latency.record_ns(900);
        }
        let snap = m.snapshot();
        assert_eq!(snap.schedule_p50_ms, m.schedule_latency.quantile(0.50));
        assert_eq!(snap.schedule_p50_ms, 0.0002);
        assert_eq!(snap.schedule_p99_ms, 0.001);
        assert_eq!(snap.requests, 100);
    }

    #[test]
    fn named_counters_are_shared_and_sanitized() {
        let m = MetricsRegistry::new();
        let a = m.counter("Kernel Runs: BFS");
        let b = m.counter("kernel_runs__bfs");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same slug, same counter");
        let snap = m.snapshot();
        assert_eq!(snap.extra, vec![("kernel_runs__bfs".to_string(), 2)]);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = MetricsRegistry::new();
        m.cache_hits.inc();
        m.schedule_latency.record(0.5);
        m.counter("custom").add(7);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache_hits\": 1"));
        assert!(json.contains("\"custom\": 7"));
        // NaN quantities must render as null, not NaN.
        assert!(!json.contains("NaN"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn series_expose_and_round_trip() {
        let m = MetricsRegistry::new();
        m.cache_hits.add(3);
        m.gpu_placements.add(2);
        m.multicore_placements.inc();
        m.schedule_latency.record(0.5);
        m.counter("bfs runs").add(4);
        let series = m.series();
        let text = m.prometheus_text();
        assert!(text.contains("serve_cache_hits_total 3\n"));
        assert!(text.contains("serve_placements_total{accelerator=\"gpu\"} 2\n"));
        assert!(text.contains("serve_placements_total{accelerator=\"multicore\"} 1\n"));
        assert!(text.contains("serve_extra_total{name=\"bfs_runs\"} 4\n"));
        assert!(text.contains("serve_schedule_latency_ms_count 1\n"));
        let parsed = heteromap_obs::metrics::parse_prometheus(&text).unwrap();
        assert_eq!(parsed, heteromap_obs::metrics::samples(&series));
        // Grouped by name: one TYPE header per metric even with two labels.
        assert_eq!(
            text.matches("# TYPE serve_placements_total counter")
                .count(),
            1
        );
    }
}
