//! Label-aware time-series metrics: a lock-free registry of counters,
//! gauges and histograms aggregated into fixed-width windowed ring buckets,
//! with Prometheus text exposition, JSON snapshots, and online drift
//! detection over the windows.
//!
//! # Architecture
//!
//! * [`timeseries`] holds the recording primitives. Counters are sharded
//!   per thread and histograms keep integer bucket/sum atomics, so every
//!   recording operation is a commutative `fetch_add` — totals are exact
//!   and independent of thread count or interleaving. That is what lets
//!   the chaos/fleet simulators publish live telemetry while keeping their
//!   cross-thread digests bit-identical.
//! * [`MetricsHub`] owns the series. Registration hands out `Arc`s to the
//!   primitives (hot paths record through those, never through the hub);
//!   [`MetricsHub::roll`] — called from a *serial* phase, e.g. once per
//!   simulated round — closes the current window by diffing each series'
//!   cumulative state against the previous roll and pushes a
//!   [`WindowStat`] into that series' bounded ring. No wall clock is ever
//!   read: the window index is the roll count, and the nominal window
//!   width is caller-supplied metadata, so windowed series are
//!   seeded-deterministic under the simulators' virtual clocks.
//! * [`expose`] renders a frozen snapshot as Prometheus text or JSON (and
//!   parses the text back, so benches can prove the round trip).
//! * [`drift`] folds windowed series through EWMA-band and Page-Hinkley
//!   detectors that emit typed [`HealthSignal`]s; the fleet placer consumes
//!   them as avoid/penalty input.
//!
//! # Cost model
//!
//! Like span tracing, library instrumentation is gated on one process-wide
//! atomic ([`metrics_enabled`], bootstrapped from `HETEROMAP_METRICS`):
//! with metrics off, an instrumentation site costs one relaxed load and a
//! branch. The `exp_obs_timeseries` bench hard-gates that budget at ≤1%.

pub mod drift;
pub mod expose;
pub mod timeseries;

pub use drift::{
    Direction, DriftConfig, HealthBoard, HealthSignal, SeriesDetector, SignalKind, Verdict,
};
pub use expose::{
    parse_prometheus, prometheus_text, samples, snapshot_json, PromSample, SeriesSnapshot,
    SeriesValue,
};
pub use timeseries::{
    quantile_from_buckets, Counter, Gauge, Histogram, PeakGauge, WindowRing, WindowStat,
    BATCH_BOUNDS, COUNTER_SHARDS, LATENCY_BOUNDS_MS, WINDOW_RING_CAPACITY,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable enabling library-level metrics instrumentation
/// (`1`/`true`/`on`/`yes`).
pub const METRICS_ENV_VAR: &str = "HETEROMAP_METRICS";

/// Sentinel meaning "not yet initialized from the environment".
const UNINIT: u8 = u8::MAX;

static ENABLED: AtomicU8 = AtomicU8::new(UNINIT);

#[cold]
fn init_enabled() -> bool {
    let on = std::env::var(METRICS_ENV_VAR)
        .map(|v| {
            matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "1" | "true" | "on" | "yes"
            )
        })
        .unwrap_or(false);
    // Racing initializers agree (same env), and a concurrent
    // `set_metrics_enabled` wins via the compare_exchange failure path —
    // the same pattern as the trace level.
    match ENABLED.compare_exchange(UNINIT, on as u8, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => on,
        Err(current) => current != 0,
    }
}

/// Whether library instrumentation should record into the global hub. One
/// relaxed load on the steady-state path (the disabled-path budget the
/// `exp_obs_timeseries` bench enforces).
#[inline]
pub fn metrics_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        UNINIT => init_enabled(),
        v => v != 0,
    }
}

/// Overrides the metrics gate for the whole process (benches flip it;
/// tests pin a known state).
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on as u8, Ordering::Relaxed);
}

/// The process-wide hub that gated library instrumentation (core retries,
/// accel fault injections, serve placements) records into. Simulators that
/// need per-run isolation build their own [`MetricsHub`] instead.
pub fn global() -> &'static MetricsHub {
    static HUB: OnceLock<MetricsHub> = OnceLock::new();
    HUB.get_or_init(MetricsHub::new)
}

/// What one registered series records through.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    PeakGauge(Arc<PeakGauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::PeakGauge(_) => "peak gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct SeriesEntry {
    help: &'static str,
    instrument: Instrument,
    /// Cumulative state at the previous roll, diffed to close a window.
    prev_count: u64,
    prev_sum: f64,
    prev_buckets: Vec<u64>,
    ring: WindowRing,
}

/// Name plus canonically sorted label pairs: the identity of one series.
type SeriesKey = (String, Vec<(String, String)>);

#[derive(Debug, Default)]
struct HubInner {
    windows: u64,
    series: BTreeMap<SeriesKey, SeriesEntry>,
}

/// A label-aware registry of counters, gauges, peak gauges and histograms
/// with windowed ring aggregation. See the [module docs](self) for the
/// design.
#[derive(Debug)]
pub struct MetricsHub {
    /// Nominal window width in milliseconds — metadata only (no clock is
    /// read); simulators set it to their round tick.
    window_ms: f64,
    inner: Mutex<HubInner>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::new()
    }
}

fn canonical_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

fn assert_metric_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit()),
        "invalid metric name {name:?}"
    );
}

impl MetricsHub {
    /// Creates an empty hub with a 1000 ms nominal window.
    pub fn new() -> Self {
        MetricsHub::with_window_ms(1000.0)
    }

    /// Creates an empty hub with the given nominal window width (metadata
    /// recorded for exposition; rolling is always explicit).
    pub fn with_window_ms(window_ms: f64) -> Self {
        MetricsHub {
            window_ms,
            inner: Mutex::new(HubInner::default()),
        }
    }

    /// The nominal window width in milliseconds.
    pub fn window_ms(&self) -> f64 {
        self.window_ms
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner.lock().expect("metrics hub poisoned")
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert_metric_name(name);
        let key = (name.to_string(), canonical_labels(labels));
        let mut inner = self.lock();
        let entry = inner.series.entry(key).or_insert_with(|| {
            let instrument = make();
            let prev_buckets = match &instrument {
                Instrument::Histogram(h) => vec![0; h.bounds().len() + 1],
                _ => Vec::new(),
            };
            SeriesEntry {
                help,
                instrument,
                prev_count: 0,
                prev_sum: 0.0,
                prev_buckets,
                ring: WindowRing::new(),
            }
        });
        entry.instrument.clone()
    }

    /// Registers (or fetches) a counter series.
    ///
    /// # Panics
    ///
    /// Panics if the name is not `[a-zA-Z_:][a-zA-Z0-9_:]*` or the series
    /// already exists with a different instrument kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Arc<Counter> {
        match self.register(name, labels, help, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            other => panic!("series {name:?} already registered as {}", other.kind()),
        }
    }

    /// Registers (or fetches) a gauge series.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MetricsHub::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Arc<Gauge> {
        match self.register(name, labels, help, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            other => panic!("series {name:?} already registered as {}", other.kind()),
        }
    }

    /// Registers (or fetches) a high-watermark gauge series: it keeps the
    /// largest value observed, is exposed as a Prometheus gauge, and rolls
    /// like a [`MetricsHub::gauge`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`MetricsHub::counter`].
    pub fn peak_gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
    ) -> Arc<PeakGauge> {
        match self.register(name, labels, help, || {
            Instrument::PeakGauge(Arc::new(PeakGauge::new()))
        }) {
            Instrument::PeakGauge(g) => g,
            other => panic!("series {name:?} already registered as {}", other.kind()),
        }
    }

    /// Registers (or fetches) a histogram series over `bounds`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MetricsHub::counter`].
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        bounds: &'static [f64],
    ) -> Arc<Histogram> {
        match self.register(name, labels, help, || {
            Instrument::Histogram(Arc::new(Histogram::with_bounds(bounds)))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("series {name:?} already registered as {}", other.kind()),
        }
    }

    /// Closes the current aggregation window: every series diffs its
    /// cumulative state against the previous roll and pushes a
    /// [`WindowStat`] into its ring. Call from a serial phase (e.g. once
    /// per simulated round); returns the new window index (1-based).
    pub fn roll(&self) -> u64 {
        let mut inner = self.lock();
        inner.windows += 1;
        let index = inner.windows;
        for entry in inner.series.values_mut() {
            let stat = match &entry.instrument {
                Instrument::Counter(c) => {
                    let total = c.get();
                    let delta = total.wrapping_sub(entry.prev_count);
                    entry.prev_count = total;
                    WindowStat {
                        index,
                        count: delta,
                        sum: delta as f64,
                        p99: f64::NAN,
                    }
                }
                Instrument::Gauge(g) => WindowStat {
                    index,
                    count: 1,
                    sum: g.get(),
                    p99: f64::NAN,
                },
                Instrument::PeakGauge(g) => WindowStat {
                    index,
                    count: 1,
                    sum: g.get() as f64,
                    p99: f64::NAN,
                },
                Instrument::Histogram(h) => {
                    let buckets = h.bucket_counts();
                    let count = h.count();
                    let sum = h.sum();
                    let delta_buckets: Vec<u64> = buckets
                        .iter()
                        .zip(&entry.prev_buckets)
                        .map(|(cur, prev)| cur.wrapping_sub(*prev))
                        .collect();
                    let stat = WindowStat {
                        index,
                        count: count.wrapping_sub(entry.prev_count),
                        sum: sum - entry.prev_sum,
                        p99: quantile_from_buckets(h.bounds(), &delta_buckets, 0.99),
                    };
                    entry.prev_buckets = buckets;
                    entry.prev_count = count;
                    entry.prev_sum = sum;
                    stat
                }
            };
            entry.ring.push(stat);
        }
        index
    }

    /// Number of windows rolled so far.
    pub fn window_index(&self) -> u64 {
        self.lock().windows
    }

    /// The retained windows for one series, oldest first (empty when the
    /// series is unknown or never rolled).
    pub fn windows(&self, name: &str, labels: &[(&str, &str)]) -> Vec<WindowStat> {
        let key = (name.to_string(), canonical_labels(labels));
        self.lock()
            .series
            .get(&key)
            .map(|e| e.ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Freezes every series (sorted by name, then labels) for exposition.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        self.lock()
            .series
            .iter()
            .map(|((name, labels), entry)| SeriesSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                help: entry.help.to_string(),
                value: match &entry.instrument {
                    Instrument::Counter(c) => SeriesValue::Counter(c.get()),
                    Instrument::Gauge(g) => SeriesValue::Gauge(g.get()),
                    Instrument::PeakGauge(g) => SeriesValue::Gauge(g.get() as f64),
                    Instrument::Histogram(h) => SeriesValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                },
            })
            .collect()
    }

    /// Renders the current state in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        prometheus_text(&self.snapshot())
    }

    /// Renders the current state as a JSON object via [`crate::json`].
    pub fn snapshot_json(&self) -> String {
        snapshot_json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_label_order_insensitive() {
        let hub = MetricsHub::new();
        let a = hub.counter("x_total", &[("a", "1"), ("b", "2")], "h");
        let b = hub.counter("x_total", &[("b", "2"), ("a", "1")], "h");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same canonical key, same counter");
        assert_eq!(hub.snapshot().len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let hub = MetricsHub::new();
        hub.counter("x_total", &[], "h");
        hub.gauge("x_total", &[], "h");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        MetricsHub::new().counter("bad name", &[], "h");
    }

    #[test]
    fn roll_closes_windows_with_deltas() {
        let hub = MetricsHub::with_window_ms(50.0);
        assert_eq!(hub.window_ms(), 50.0);
        let c = hub.counter("jobs_total", &[], "jobs");
        let g = hub.gauge("util", &[], "utilization");
        let h = hub.histogram("lat_ms", &[], "latency", &LATENCY_BOUNDS_MS);
        c.add(3);
        g.set(0.5);
        h.record(0.4);
        h.record(0.4);
        assert_eq!(hub.roll(), 1);
        c.add(2);
        g.set(0.75);
        h.record(80.0);
        assert_eq!(hub.roll(), 2);

        let jobs = hub.windows("jobs_total", &[]);
        assert_eq!(jobs.len(), 2);
        assert_eq!((jobs[0].index, jobs[0].count), (1, 3));
        assert_eq!((jobs[1].index, jobs[1].count), (2, 2));

        let util = hub.windows("util", &[]);
        assert_eq!(util[0].sum, 0.5);
        assert_eq!(util[1].sum, 0.75);

        let lat = hub.windows("lat_ms", &[]);
        assert_eq!(lat[0].count, 2);
        assert!((lat[0].sum - 0.8).abs() < 1e-9);
        assert_eq!(lat[0].p99, 0.5, "windowed p99 sees only this window");
        assert_eq!(lat[1].count, 1);
        assert_eq!(lat[1].p99, 100.0, "next window forgets the fast samples");
        assert_eq!(hub.window_index(), 2);
    }

    #[test]
    fn peak_gauges_expose_and_roll_as_gauges() {
        let hub = MetricsHub::new();
        let peak = hub.peak_gauge("depth_peak", &[("lane", "0")], "peak depth");
        peak.observe(4);
        peak.observe(2);
        hub.roll();
        peak.observe(7);
        hub.roll();
        let windows = hub.windows("depth_peak", &[("lane", "0")]);
        assert_eq!((windows[0].count, windows[0].sum), (1, 4.0));
        assert_eq!(windows[1].sum, 7.0);
        let text = hub.prometheus_text();
        assert!(text.contains("# TYPE depth_peak gauge\n"));
        assert!(text.contains("depth_peak{lane=\"0\"} 7\n"));
    }

    #[test]
    #[should_panic(expected = "already registered as peak gauge")]
    fn peak_gauge_kind_is_checked() {
        let hub = MetricsHub::new();
        hub.peak_gauge("depth_peak", &[], "h");
        hub.gauge("depth_peak", &[], "h");
    }

    #[test]
    fn empty_histogram_window_has_nan_p99() {
        let hub = MetricsHub::new();
        let _h = hub.histogram("lat_ms", &[], "latency", &LATENCY_BOUNDS_MS);
        hub.roll();
        let lat = hub.windows("lat_ms", &[]);
        assert_eq!(lat[0].count, 0);
        assert!(lat[0].p99.is_nan());
    }

    #[test]
    fn unknown_series_has_no_windows() {
        assert!(MetricsHub::new().windows("nope", &[]).is_empty());
    }

    #[test]
    fn exposition_is_identical_whatever_the_recording_thread_count() {
        let render = |threads: usize| -> String {
            let hub = std::sync::Arc::new(MetricsHub::new());
            let c = hub.counter("jobs_total", &[("device", "gpu0")], "jobs");
            let h = hub.histogram("lat_ms", &[], "latency", &LATENCY_BOUNDS_MS);
            // Each run records the same global sample sequence, partitioned
            // across the threads — the multiset of recordings is identical,
            // only the interleaving differs.
            let per_thread = 1200 / threads;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (c, h) = (c.clone(), h.clone());
                    std::thread::spawn(move || {
                        for i in (t * per_thread)..((t + 1) * per_thread) {
                            c.inc();
                            h.record((i % 7) as f64 * 0.01);
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            hub.roll();
            hub.prometheus_text()
        };
        let reference = render(1);
        assert_eq!(render(4), reference);
        assert_eq!(render(16), reference);
    }

    #[test]
    fn hub_exposition_round_trips() {
        let hub = MetricsHub::new();
        hub.counter("a_total", &[("k", "v w")], "a").add(9);
        hub.gauge("b", &[], "b").set(1.25);
        hub.histogram("c_ms", &[], "c", &BATCH_BOUNDS).record(3.0);
        let snap = hub.snapshot();
        let parsed = parse_prometheus(&hub.prometheus_text()).unwrap();
        assert_eq!(parsed, samples(&snap));
        let doc = crate::json::parse(&hub.snapshot_json()).expect("valid JSON");
        assert_eq!(
            doc.get("series").unwrap().as_array().unwrap().len(),
            snap.len()
        );
    }

    #[test]
    fn metrics_gate_toggles() {
        let _guard = crate::test_lock();
        set_metrics_enabled(true);
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
    }

    #[test]
    fn global_hub_is_a_singleton() {
        let a = global() as *const MetricsHub;
        let b = global() as *const MetricsHub;
        assert_eq!(a, b);
    }
}
