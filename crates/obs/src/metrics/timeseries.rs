//! Lock-free metric primitives: sharded counters, gauges and fixed-bucket
//! histograms, plus the fixed-width window ring they aggregate into.
//!
//! Counters and histograms record through `std::sync::atomic` integer
//! operations only — `fetch_add` is commutative and associative, so the totals a
//! [`crate::metrics::MetricsHub`] reads are bit-identical no matter how many
//! threads recorded or in what order. That integer-only discipline is what
//! lets the chaos/fleet simulators publish telemetry without perturbing
//! their cross-thread digest guarantees.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of per-thread shards in a [`Counter`] (power of two; the shard is
/// picked by masking the dense [`crate::thread_id`]).
pub const COUNTER_SHARDS: usize = 8;

/// One cache-line-aligned counter shard. Alignment keeps two shards (or a
/// shard and an unrelated metric) from sharing a line and ping-ponging it
/// between cores — the false sharing that showed up at 16 threads in the
/// serving engine before padding.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard(AtomicU64);

/// A monotonically increasing counter, sharded per thread.
///
/// Each increment lands in the shard selected by the caller's dense thread
/// id, so concurrent writers on different threads usually touch different
/// cache lines. [`Counter::get`] sums the shards; because addition over
/// `u64` is commutative, the total is exact and thread-count independent.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [Shard; COUNTER_SHARDS],
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let shard = crate::thread_id() as usize & (COUNTER_SHARDS - 1);
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }
}

/// A last-value gauge holding an `f64` (stored as raw bits in one atomic).
///
/// `set` is a plain store, *not* commutative — deterministic users must set
/// gauges only from serial phases (the simulators set them from the
/// fold-in-slot-order step, never from parallel evaluation).
#[derive(Debug)]
#[repr(align(64))]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Creates a gauge holding `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Stores a new value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The last stored value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Upper bucket bounds for latency histograms, in milliseconds
/// (25 ns … 5 s; one overflow bucket follows). The sub-microsecond decades
/// are deliberately dense: cached serves complete in a few hundred
/// nanoseconds, and with a 0.0005 → 0.001 jump every sub-µs request
/// collapsed into the 1 µs bucket, so p50 read a flat 0.001 ms.
pub const LATENCY_BOUNDS_MS: [f64; 31] = [
    0.000025, 0.00005, 0.0001, 0.0002, 0.0003, 0.0005, 0.00075, 0.001, 0.0015, 0.002, 0.003, 0.005,
    0.0075, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
];

/// Words in one [`Line`].
const LINE_WORDS: usize = 8;

/// One cache line of atomic words: the unit a [`Histogram`] shard is laid
/// out in, so no two shards share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Line([AtomicU64; LINE_WORDS]);

/// A fixed-bucket histogram with atomic buckets, sharded per thread.
///
/// Quantiles are resolved to the upper bound of the bucket holding the
/// requested rank — a deliberate over-estimate bounded by the bucket
/// spacing, which is the standard trade for lock-free recording. The sum
/// is kept as a ×1e6 scaled integer so concurrent recording stays exact
/// and order-independent.
///
/// Each of the [`COUNTER_SHARDS`] shards holds its own bucket counts, count
/// and scaled sum on cache lines of its own, and a sample lands in the
/// shard [`Counter`] would pick for the recording thread. Every reading
/// sums the shards with integer adds, so it is exact and the same whatever
/// the thread count.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    /// Lines per shard: `bounds.len() + 1` bucket words (the last is the
    /// overflow bucket), then the count word and the scaled-sum word.
    stride: usize,
    /// `COUNTER_SHARDS × stride` lines, shard after shard.
    lines: Box<[Line]>,
}

impl Histogram {
    /// A histogram over [`LATENCY_BOUNDS_MS`] (values in milliseconds).
    pub fn latency_ms() -> Self {
        Histogram::with_bounds(&LATENCY_BOUNDS_MS)
    }

    /// A histogram over caller-supplied upper bounds (ascending; one
    /// overflow bucket is appended).
    pub fn with_bounds(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        let stride = (bounds.len() + 3).div_ceil(LINE_WORDS);
        Histogram {
            bounds,
            stride,
            lines: (0..COUNTER_SHARDS * stride)
                .map(|_| Line::default())
                .collect(),
        }
    }

    /// Word `word` of shard `shard` (bucket words first, then count, then
    /// the scaled sum).
    #[inline]
    fn word(&self, shard: usize, word: usize) -> &AtomicU64 {
        &self.lines[shard * self.stride + word / LINE_WORDS].0[word % LINE_WORDS]
    }

    /// The count word's index; the scaled-sum word follows it.
    #[inline]
    fn count_word(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Word `word` summed over every shard.
    fn total(&self, word: usize) -> u64 {
        (0..COUNTER_SHARDS)
            .map(|shard| self.word(shard, word).load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }

    /// Records one sample (negative/NaN samples count into bucket 0).
    pub fn record(&self, v: f64) {
        // "Not greater than the bound" is `v <= b` for real samples and
        // true for NaN, so NaN lands in bucket 0 as documented instead of
        // the overflow bucket a plain `v <= b` would send it to.
        let idx = self
            .bounds
            .iter()
            .position(|&b| !matches!(v.partial_cmp(&b), Some(std::cmp::Ordering::Greater)))
            .unwrap_or(self.bounds.len());
        let shard = crate::thread_id() as usize & (COUNTER_SHARDS - 1);
        self.word(shard, idx).fetch_add(1, Ordering::Relaxed);
        self.word(shard, self.count_word())
            .fetch_add(1, Ordering::Relaxed);
        if v.is_finite() && v > 0.0 {
            self.word(shard, self.count_word() + 1)
                .fetch_add((v * 1e6).round() as u64, Ordering::Relaxed);
        }
    }

    /// Records one sample given in integer nanoseconds — the serving path
    /// measures `Instant::elapsed().as_nanos()` and records through this, so
    /// sub-microsecond latencies keep their resolution end to end.
    pub fn record_ns(&self, ns: u64) {
        self.record(ns as f64 / 1e6);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total(self.count_word())
    }

    /// The upper bucket bounds (excluding the overflow bucket).
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts, one per bound plus the trailing overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        (0..=self.bounds.len()).map(|b| self.total(b)).collect()
    }

    /// Sum of recorded samples (exact to 1e-6 by construction).
    pub fn sum(&self) -> f64 {
        self.total(self.count_word() + 1) as f64 / 1e6
    }

    /// Mean of recorded samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        self.sum() / n as f64
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// containing that rank; `NaN` when empty, the last bound when the rank
    /// lands in the overflow bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        quantile_from_buckets(self.bounds, &counts, q)
    }
}

/// Resolves the `q`-quantile over explicit bucket counts (the shared
/// routine behind both live histograms and windowed deltas): the upper
/// bound of the bucket holding the requested rank, `NaN` when empty, the
/// last bound for overflow ranks.
pub fn quantile_from_buckets(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (idx, &bucket) in counts.iter().enumerate() {
        seen += bucket;
        if seen >= rank {
            return bounds
                .get(idx)
                .copied()
                .unwrap_or_else(|| *bounds.last().expect("histogram has bounds"));
        }
    }
    *bounds.last().expect("histogram has bounds")
}

/// Capacity of a [`WindowRing`]: windows retained per series before the
/// oldest is overwritten, flight-recorder style.
pub const WINDOW_RING_CAPACITY: usize = 256;

/// One closed aggregation window of a series.
///
/// The meaning of the fields depends on the instrument: for counters,
/// `count` and `sum` are the increment delta over the window; for gauges,
/// `count` is 1 and `sum` the sampled value; for histograms, `count` is the
/// sample delta, `sum` the sample-sum delta and `p99` the windowed
/// 99th-percentile (bucket upper bound, `NaN` when the window is empty).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Sequence number of the window (the hub's roll count when closed).
    pub index: u64,
    /// Events in the window (see type-specific meaning above).
    pub count: u64,
    /// Value accumulated over the window (see type-specific meaning above).
    pub sum: f64,
    /// Windowed p99 for histograms; `NaN` for counters and gauges.
    pub p99: f64,
}

impl WindowStat {
    /// Mean sample value in the window (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A bounded ring of the most recent [`WindowStat`]s for one series.
#[derive(Debug, Default, Clone)]
pub struct WindowRing {
    slots: VecDeque<WindowStat>,
}

impl WindowRing {
    /// Creates an empty ring.
    pub fn new() -> Self {
        WindowRing::default()
    }

    /// Appends a closed window, evicting the oldest past
    /// [`WINDOW_RING_CAPACITY`].
    pub fn push(&mut self, stat: WindowStat) {
        if self.slots.len() == WINDOW_RING_CAPACITY {
            self.slots.pop_front();
        }
        self.slots.push_back(stat);
    }

    /// Retained windows, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &WindowStat> {
        self.slots.iter()
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&WindowStat> {
        self.slots.back()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no window has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small integer bounds, so quantiles land on exact values.
    const SMALL_BOUNDS: [f64; 12] = [
        1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    ];

    #[test]
    fn counters_accumulate_across_shards() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_stores_last_value() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn hot_atomics_are_cache_line_padded() {
        assert!(std::mem::align_of::<Counter>() >= 64);
        assert!(std::mem::align_of::<Gauge>() >= 64);
        // Histogram shards start on their own lines and span whole lines.
        let h = Histogram::latency_ms();
        assert_eq!(h.lines.as_ptr() as usize % 64, 0);
        assert_eq!(h.lines.len(), COUNTER_SHARDS * h.stride);
        assert!(h.stride * LINE_WORDS >= LATENCY_BOUNDS_MS.len() + 3);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::latency_ms();
        for _ in 0..90 {
            h.record(0.004); // -> 0.005 bucket
        }
        for _ in 0..10 {
            h.record(3.0); // -> 5.0 bucket
        }
        assert_eq!(h.count(), 100);
        assert!(
            (h.quantile(0.5) - 0.005).abs() < 1e-12,
            "{}",
            h.quantile(0.5)
        );
        assert!(
            (h.quantile(0.99) - 5.0).abs() < 1e-12,
            "{}",
            h.quantile(0.99)
        );
        let mean = h.mean();
        assert!(mean > 0.004 && mean < 3.0, "{mean}");
    }

    #[test]
    fn histogram_overflow_reports_last_bound() {
        let h = Histogram::latency_ms();
        h.record(1e9);
        assert_eq!(h.quantile(0.5), 5000.0);
    }

    #[test]
    fn empty_histogram_quantile_is_nan() {
        assert!(Histogram::latency_ms().quantile(0.5).is_nan());
        assert!(Histogram::latency_ms().mean().is_nan());
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        // 100 samples, exactly one per 0.01 step in (0, 1.0]: sample k is
        // (k+1)/100 ms. Ranks are exact, so each quantile must resolve to
        // the upper bound of the bucket holding that rank.
        let h = Histogram::latency_ms();
        for k in 0..100 {
            h.record((k + 1) as f64 / 100.0);
        }
        // Rank 50 is sample 0.50 ms -> bucket (0.2, 0.5].
        assert_eq!(h.quantile(0.50), 0.5);
        // Rank 95 is sample 0.95 ms -> bucket (0.5, 1.0].
        assert_eq!(h.quantile(0.95), 1.0);
        // Rank 99 is sample 0.99 ms -> same bucket.
        assert_eq!(h.quantile(0.99), 1.0);
        // Rank 100 is sample 1.00 ms, on the bucket boundary -> still 1.0.
        assert_eq!(h.quantile(1.0), 1.0);
        let mean = h.mean();
        assert!((mean - 0.505).abs() < 1e-6, "{mean}");
    }

    #[test]
    fn boundary_samples_land_in_the_lower_bucket() {
        // `v <= bound` means a sample exactly on a bound belongs to that
        // bound's bucket, not the next one.
        let h = Histogram::latency_ms();
        h.record(0.005);
        assert_eq!(h.quantile(1.0), 0.005);
        let h = Histogram::latency_ms();
        h.record(0.0050001);
        assert_eq!(h.quantile(1.0), 0.0075);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::latency_ms();
        h.record(0.3); // -> 0.5 bucket
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.5, "q={q}");
        }
        assert_eq!(h.count(), 1);
        assert!((h.mean() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn tiny_and_extreme_quantiles_are_clamped() {
        let h = Histogram::latency_ms();
        h.record(0.05);
        h.record(40.0);
        // q=0 clamps to rank 1 (the smallest sample's bucket).
        assert_eq!(h.quantile(0.0), 0.05);
        assert_eq!(h.quantile(-3.0), 0.05);
        // q>1 clamps to the full population.
        assert_eq!(h.quantile(7.0), 50.0);
    }

    #[test]
    fn negative_and_nan_samples_count_into_bucket_zero() {
        let h = Histogram::latency_ms();
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
        // Both land in the first bucket; they contribute nothing to the sum.
        assert_eq!(h.quantile(1.0), 0.000025);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn nanosecond_recording_resolves_sub_microsecond_quantiles() {
        // The bench regression this fixes: sub-µs latencies must not all
        // collapse into one bucket that reads 0.001 ms.
        let h = Histogram::latency_ms();
        for _ in 0..90 {
            h.record_ns(180); // 0.00018 ms -> 0.0002 bucket
        }
        for _ in 0..10 {
            h.record_ns(900); // 0.0009 ms -> 0.001 bucket
        }
        assert_eq!(h.quantile(0.50), 0.0002);
        assert_eq!(h.quantile(0.99), 0.001);
        let mean = h.mean();
        assert!((mean - 0.000252).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn small_integer_bounds_resolve_quantiles_exactly() {
        let h = Histogram::with_bounds(&SMALL_BOUNDS);
        for size in [1.0, 2.0, 3.0, 4.0] {
            h.record(size);
        }
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.75), 3.0);
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::latency_ms();
        let samples = [0.003, 0.02, 0.02, 0.4, 1.5, 1.5, 80.0, 4000.0];
        for s in samples {
            h.record(s);
        }
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let values: Vec<f64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for pair in values.windows(2) {
            assert!(pair[0] <= pair[1], "{values:?}");
        }
        // And every quantile is a real bucket bound.
        for v in values {
            assert!(LATENCY_BOUNDS_MS.contains(&v), "{v}");
        }
    }

    #[test]
    fn histogram_accessors_expose_buckets_and_sum() {
        let h = Histogram::with_bounds(&SMALL_BOUNDS);
        h.record(1.0);
        h.record(1.0);
        h.record(300.0); // overflow bucket
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), SMALL_BOUNDS.len() + 1);
        assert_eq!(counts[0], 2);
        assert_eq!(*counts.last().unwrap(), 1);
        assert!((h.sum() - 302.0).abs() < 1e-9);
        assert_eq!(h.bounds(), &SMALL_BOUNDS);
    }

    #[test]
    fn window_ring_is_bounded() {
        let mut ring = WindowRing::new();
        for i in 0..(WINDOW_RING_CAPACITY as u64 + 10) {
            ring.push(WindowStat {
                index: i,
                count: 1,
                sum: i as f64,
                p99: f64::NAN,
            });
        }
        assert_eq!(ring.len(), WINDOW_RING_CAPACITY);
        assert_eq!(ring.iter().next().unwrap().index, 10);
        assert_eq!(
            ring.latest().unwrap().index,
            WINDOW_RING_CAPACITY as u64 + 9
        );
    }

    #[test]
    fn window_stat_mean_handles_empty() {
        let empty = WindowStat {
            index: 0,
            count: 0,
            sum: 0.0,
            p99: f64::NAN,
        };
        assert!(empty.mean().is_nan());
        let full = WindowStat {
            index: 0,
            count: 4,
            sum: 10.0,
            p99: f64::NAN,
        };
        assert_eq!(full.mean(), 2.5);
    }
}
