//! The concurrent prediction-serving engine.
//!
//! [`ServeEngine`] wraps a [`HeteroMap`] instance behind a sharded
//! prediction cache and a batched inference path, so a long-running serving
//! process answers repeated `(B, I)` queries without re-running the neural
//! forward pass:
//!
//! * **cache hit** — the stored [`MConfig`] is re-deployed through the
//!   analytic cost model (deterministic, sub-microsecond) and charged
//!   [`ServeConfig::hit_overhead_ms`] of predictor overhead;
//! * **cache miss** — the predictor runs (optionally batched across
//!   concurrent misses into one matrix-matrix forward pass, with
//!   single-flight dedup of identical keys) and the completion time is
//!   charged the full inference cost,
//!   `inference_flops × flop_ns` (§V-A's overhead accounting made
//!   deterministic — no wall clock in the placement).
//!
//! Because the cache stores the *prediction* and deploy re-runs per request,
//! every mode returns the same placement for the same (workload, statistics,
//! fault plan): hits, batched misses and the uncached baseline differ only
//! in the overhead they charge.

use crate::cache::{CachedPrediction, IdentityState, InsertOutcome, PredKey, ShardedCache};
use crate::metrics::{Counter, MetricsRegistry, PeakGauge};
use crate::mpsc::SlotRing;
use crate::pad::CacheAligned;
use heteromap::{DeployOptions, HeteroMap, Placement, StreamReport};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::FaultPlan;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::{CsrGraph, GraphStats};
use heteromap_kernels::par::{par_map, run_threads};
use heteromap_model::{BVector, IVector, MConfig, Workload};
use heteromap_obs::metrics::SeriesSnapshot;
use heteromap_predict::Predictor;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// How a request resolves its prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Always run the predictor (the pre-serving baseline).
    Uncached,
    /// Consult the sharded cache; misses run the predictor individually.
    Cached,
    /// Consult the cache; concurrent misses coalesce into batched forward
    /// passes with single-flight dedup of identical keys.
    CachedBatched,
}

/// Serving-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Prediction-resolution strategy.
    pub mode: ServeMode,
    /// Cache shard count (lock granularity).
    pub shards: usize,
    /// Total cached predictions across shards.
    pub capacity: usize,
    /// Largest coalesced inference batch.
    pub max_batch: usize,
    /// Batch-assembly lanes. Each lane is an independent lock-free
    /// submission ring with its own single-flight map and leader, selected
    /// by key hash — concurrent misses on different lanes never contend, so
    /// batching scales with threads instead of convoying behind one global
    /// leader.
    pub lanes: usize,
    /// Simulated cost of one predictor FLOP in nanoseconds; a miss charges
    /// `inference_flops × flop_ns` into the placement's completion time.
    pub flop_ns: f64,
    /// Predictor overhead charged on a cache hit (milliseconds). The paper
    /// charges inference latency into completion time (§V-A); a hit skips
    /// inference, so this defaults to zero.
    pub hit_overhead_ms: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mode: ServeMode::CachedBatched,
            shards: 16,
            capacity: 65_536,
            max_batch: 64,
            lanes: default_lanes(),
            flop_ns: 1.0,
            hit_overhead_ms: 0.0,
        }
    }
}

impl ServeConfig {
    /// A configuration with the given mode and defaults elsewhere.
    pub fn with_mode(mode: ServeMode) -> Self {
        ServeConfig {
            mode,
            ..ServeConfig::default()
        }
    }

    /// Overrides the batch-assembly lane count (builder style). Any
    /// positive count is valid — lane selection is a modulo over the key
    /// hash — and results are lane-count-independent; the count only sets
    /// how many concurrent misses can assemble batches without contending.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }
}

/// The default lane count: one per available hardware thread (clamped to
/// `[1, 64]`), so batch assembly scales with the host without tuning. Falls
/// back to 8 lanes when the host's parallelism cannot be queried.
pub fn default_lanes() -> usize {
    std::thread::available_parallelism().map_or(8, |n| n.get().clamp(1, 64))
}

/// Where one request's prediction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// Found in the cache.
    CacheHit,
    /// Computed by the predictor.
    Computed {
        /// Whether the prediction rode in a coalesced batch.
        batched: bool,
    },
    /// Served from the cache by the overload-shedding path: under
    /// admission-control pressure a possibly-stale cached prediction beats
    /// dropping the request (see `heteromap_serve::admission`).
    StaleHit,
}

/// One served request: the placement plus serving provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The scheduling decision and simulated outcome.
    pub placement: Placement,
    /// Where the prediction came from.
    pub source: ServeSource,
    /// Measured wall-clock serving latency (milliseconds). Unlike the
    /// simulated overhead inside the placement this is real time — it feeds
    /// the metrics histograms, not the cost model.
    pub serve_latency_ms: f64,
}

/// Throughput summary from [`ServeEngine::run_closed_loop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopReport {
    /// Requests served.
    pub requests: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock duration of the loop (milliseconds).
    pub wall_ms: f64,
    /// Requests per second.
    pub throughput_rps: f64,
}

/// Single-flight rendezvous: the first thread to miss a key computes it,
/// duplicates block here until the value lands.
#[derive(Debug, Default)]
struct Slot {
    ready: Mutex<Option<CachedPrediction>>,
    cond: Condvar,
}

impl Slot {
    fn try_get(&self) -> Option<CachedPrediction> {
        *self.ready.lock().expect("slot poisoned")
    }

    fn wait(&self) -> CachedPrediction {
        let mut ready = self.ready.lock().expect("slot poisoned");
        loop {
            if let Some(v) = *ready {
                return v;
            }
            ready = self.cond.wait(ready).expect("slot poisoned");
        }
    }

    /// Waits at most `timeout` for the value. Owners use this while another
    /// thread leads their lane: the bounded sleep yields the core (vital on
    /// low-core hosts) without risking a missed wakeup hang.
    fn wait_timeout(&self, timeout: Duration) -> Option<CachedPrediction> {
        let ready = self.ready.lock().expect("slot poisoned");
        if ready.is_some() {
            return *ready;
        }
        let (ready, _) = self
            .cond
            .wait_timeout(ready, timeout)
            .expect("slot poisoned");
        *ready
    }

    fn fill(&self, value: CachedPrediction) {
        *self.ready.lock().expect("slot poisoned") = Some(value);
        self.cond.notify_all();
    }
}

/// One queued inference request awaiting a batch leader.
#[derive(Debug)]
struct BatchItem {
    key: PredKey,
    b: BVector,
    i: IVector,
    generation: u64,
    slot: Arc<Slot>,
}

/// One independent batch-assembly lane: a lock-free submission ring, the
/// lane's single-flight dedup map, and a leader mutex that serializes only
/// *this lane's* drains. Lanes are selected by key hash (high bits, so lane
/// choice is independent of cache-shard choice) and each sits on its own
/// cache line.
///
/// The occupancy metrics are registered once, at construction, on the
/// engine's metrics hub under `lane="<index>"`; the lane keeps the handles,
/// so the warm request path records without allocation or hub lookup.
#[derive(Debug)]
struct Lane {
    inflight: Mutex<HashMap<PredKey, Arc<Slot>, IdentityState>>,
    queue: SlotRing<BatchItem>,
    leader: Mutex<()>,
    /// Drains led on this lane.
    drains: Arc<Counter>,
    /// Items resolved by this lane's drains.
    drained_items: Arc<Counter>,
    /// Peak ring occupancy observed at enqueue time.
    occupancy_peak: Arc<PeakGauge>,
}

impl Lane {
    fn new(queue_capacity: usize, metrics: &MetricsRegistry, index: usize) -> Self {
        let hub = metrics.hub();
        let index = index.to_string();
        let labels = [("lane", index.as_str())];
        Lane {
            inflight: Mutex::new(HashMap::default()),
            queue: SlotRing::new(queue_capacity),
            leader: Mutex::new(()),
            drains: hub.counter(
                "serve_lane_drains_total",
                &labels,
                "Batch drains led per lane",
            ),
            drained_items: hub.counter(
                "serve_lane_drained_items_total",
                &labels,
                "Requests resolved by per-lane drains",
            ),
            occupancy_peak: hub.peak_gauge(
                "serve_lane_occupancy_peak",
                &labels,
                "Peak submission-ring occupancy per lane",
            ),
        }
    }
}

/// Reusable per-thread buffers for batch assembly: the drained items, the
/// flattened queries and the prediction outputs. Warm after the first batch
/// on each thread, making the miss path allocation-free in steady state too.
#[derive(Debug, Default)]
struct AssemblyScratch {
    batch: Vec<BatchItem>,
    queries: Vec<(BVector, IVector)>,
    raw: Vec<MConfig>,
    preds: Vec<(MConfig, u32)>,
}

thread_local! {
    static ASSEMBLY: RefCell<AssemblyScratch> = RefCell::new(AssemblyScratch::default());
}

/// How long a queued owner sleeps on its slot while another thread holds the
/// lane leadership, before re-checking for the leader lock itself.
const OWNER_WAIT: Duration = Duration::from_micros(100);

/// A concurrent prediction-serving engine over one [`HeteroMap`] instance.
///
/// Shared-state layout: the model sits behind a `RwLock` (requests read,
/// fault-plan/predictor swaps write and invalidate the cache while holding
/// the write lock, so no request ever pairs an old-generation value with a
/// new model). Batch assembly is sharded across [`ServeConfig::lanes`]
/// independent lanes: a miss reserves a slot in its lane's lock-free ring,
/// then whichever owner takes that lane's leader lock drains up to
/// [`ServeConfig::max_batch`] queued items — its own and any concurrent
/// same-lane misses — and resolves them with one batched
/// [`HeteroMap::predict_configs_into`] call. Misses on different lanes
/// proceed fully in parallel, which is what keeps batched throughput at or
/// above plain cached throughput at every thread count.
#[derive(Debug)]
pub struct ServeEngine {
    model: RwLock<HeteroMap>,
    cache: ShardedCache,
    lanes: Vec<CacheAligned<Lane>>,
    metrics: Arc<MetricsRegistry>,
    config: ServeConfig,
}

impl ServeEngine {
    /// Wraps `model` in a serving engine.
    pub fn new(model: HeteroMap, config: ServeConfig) -> Self {
        // Each lane's ring holds several max batches so producers only hit
        // the full-ring fallback under extreme skew.
        let queue_capacity = config.max_batch.max(1).saturating_mul(4).max(64);
        let metrics = Arc::new(MetricsRegistry::new());
        ServeEngine {
            model: RwLock::new(model),
            cache: ShardedCache::new(config.shards, config.capacity),
            lanes: (0..config.lanes.max(1))
                .map(|i| CacheAligned::new(Lane::new(queue_capacity, &metrics, i)))
                .collect(),
            metrics,
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The engine's metrics registry (shared; snapshot at any time).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Per-lane occupancy series: drains led, items drained and peak ring
    /// occupancy for each batch-assembly lane, labeled `lane="<index>"`.
    pub fn lane_series(&self) -> Vec<SeriesSnapshot> {
        let mut series = self.metrics.series();
        series.retain(|s| s.name.starts_with("serve_lane_"));
        series
    }

    /// Renders the registry, per-lane occupancy series included, in the
    /// Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// Cached predictions currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The deterministic predictor overhead charged on a miss:
    /// `inference_flops × flop_ns`, in milliseconds.
    pub fn miss_overhead_ms(&self) -> f64 {
        let model = self.model.read().expect("model lock poisoned");
        model.predictor().inference_flops() as f64 * self.config.flop_ns * 1e-6
    }

    /// Serves a named paper workload on a Table I dataset.
    pub fn schedule(&self, workload: Workload, dataset: Dataset) -> Served {
        self.schedule_stats(workload, dataset.stats())
    }

    /// Serves a named workload on arbitrary input statistics.
    pub fn schedule_stats(&self, workload: Workload, stats: GraphStats) -> Served {
        self.schedule_context(&WorkloadContext::for_workload(workload, stats))
    }

    /// Serves a fully custom workload context.
    pub fn schedule_context(&self, ctx: &WorkloadContext) -> Served {
        self.schedule_context_opts(ctx, DeployOptions::default())
    }

    /// [`ServeEngine::schedule_context`] with per-request
    /// [`DeployOptions`]: the deadline and breaker routing are threaded
    /// through prediction resolution (cache, single-flight, batching) into
    /// the resilient deploy loop, so backoff never outlives the request's
    /// budget and open-breaker accelerators are routed around with the
    /// configuration re-clamped.
    pub fn schedule_context_opts(&self, ctx: &WorkloadContext, opts: DeployOptions) -> Served {
        let _span = heteromap_obs::span_cat("serve", "serve");
        let start = Instant::now();
        let model = self.model.read().expect("model lock poisoned");
        let i = model.ivector(&ctx.stats);
        let key = PredKey::new(&ctx.b, &i);
        let miss_ms = model.predictor().inference_flops() as f64 * self.config.flop_ns * 1e-6;

        let (prediction, source, overhead_ms) = match self.config.mode {
            ServeMode::Uncached => {
                let (config, fallbacks) = model.predict_config(&ctx.b, &i);
                let pred = CachedPrediction { config, fallbacks };
                (pred, ServeSource::Computed { batched: false }, miss_ms)
            }
            ServeMode::Cached => match self.cache.get(&key) {
                Some(pred) => {
                    self.metrics.cache_hits.inc();
                    (pred, ServeSource::CacheHit, self.config.hit_overhead_ms)
                }
                None => {
                    self.metrics.cache_misses.inc();
                    let generation = self.cache.generation();
                    let (config, fallbacks) = model.predict_config(&ctx.b, &i);
                    let pred = CachedPrediction { config, fallbacks };
                    self.insert_counted(key, pred, generation);
                    (pred, ServeSource::Computed { batched: false }, miss_ms)
                }
            },
            ServeMode::CachedBatched => match self.cache.get(&key) {
                Some(pred) => {
                    self.metrics.cache_hits.inc();
                    (pred, ServeSource::CacheHit, self.config.hit_overhead_ms)
                }
                None => {
                    self.metrics.cache_misses.inc();
                    let pred = self.compute_batched(&model, key, ctx.b, i);
                    (pred, ServeSource::Computed { batched: true }, miss_ms)
                }
            },
        };

        self.finish(&model, ctx, prediction, source, overhead_ms, opts, start)
    }

    /// Peeks the cache for an already-resolved prediction without running
    /// any inference — the overload-shedding path uses this to serve a
    /// possibly-stale answer instead of dropping the request.
    pub fn peek_cached(&self, ctx: &WorkloadContext) -> Option<CachedPrediction> {
        let model = self.model.read().expect("model lock poisoned");
        let i = model.ivector(&ctx.stats);
        self.cache.get(&PredKey::new(&ctx.b, &i))
    }

    /// Deploys an already-cached prediction under [`DeployOptions`],
    /// charging only [`ServeConfig::hit_overhead_ms`] — the shedding path
    /// of the admission controller ([`ServeSource::StaleHit`]).
    pub fn serve_stale(&self, ctx: &WorkloadContext, opts: DeployOptions) -> Option<Served> {
        let start = Instant::now();
        let model = self.model.read().expect("model lock poisoned");
        let i = model.ivector(&ctx.stats);
        let prediction = self.cache.get(&PredKey::new(&ctx.b, &i))?;
        Some(self.finish(
            &model,
            ctx,
            prediction,
            ServeSource::StaleHit,
            self.config.hit_overhead_ms,
            opts,
            start,
        ))
    }

    /// Shared tail of every serving path: deploy the prediction, record
    /// metrics, and time the request.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        model: &HeteroMap,
        ctx: &WorkloadContext,
        prediction: CachedPrediction,
        source: ServeSource,
        overhead_ms: f64,
        opts: DeployOptions,
        start: Instant,
    ) -> Served {
        let placement = model.deploy_predicted_opts(
            ctx,
            prediction.config,
            overhead_ms,
            prediction.fallbacks,
            opts,
        );
        self.metrics.record_placement(&placement);
        // Nanosecond-resolution recording: sub-µs cached serves must land in
        // distinct histogram buckets, not collapse into "1 µs".
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        self.metrics.schedule_latency.record_ns(elapsed_ns);
        let serve_latency_ms = elapsed_ns as f64 / 1e6;
        Served {
            placement,
            source,
            serve_latency_ms,
        }
    }

    /// Resolves one miss through the sharded single-flight/batching
    /// machinery.
    ///
    /// The key's hash selects an assembly lane. The first thread to miss a
    /// key owns its slot and reserves a ring position lock-free; duplicates
    /// wait on the slot. Owners then try the *lane's* leader lock: whoever
    /// holds it drains up to `max_batch` queued items (its own plus any
    /// concurrent same-lane misses) and resolves them with one batched
    /// forward pass. An owner that loses the race sleeps on its slot with a
    /// bounded timeout instead of blocking on the lock, so it never convoys
    /// behind an unrelated drain. Items are only removed from the ring — and
    /// slots only filled — under the lane leader lock, so an owner whose
    /// slot is still empty after taking the lock is guaranteed its item is
    /// still queued.
    fn compute_batched(
        &self,
        model: &HeteroMap,
        key: PredKey,
        b: BVector,
        i: IVector,
    ) -> CachedPrediction {
        let lane: &Lane = &self.lanes[key.lane_index(self.lanes.len())];
        let (slot, owner) = {
            let mut inflight = lane.inflight.lock().expect("inflight lock poisoned");
            match inflight.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot::default());
                    inflight.insert(key, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if !owner {
            self.metrics.single_flight_waits.inc();
            let _span = heteromap_obs::span_cat("batch.wait", "serve");
            return slot.wait();
        }

        // Uncontended fast path: if lane leadership is free and nothing is
        // queued, there is nothing to batch with — resolve inline, skipping
        // the ring round-trip. This keeps a cold or low-traffic miss as
        // cheap as the plain cached path; the assembly machinery below only
        // engages when a drain is already running or other misses are
        // queued behind it. Filling the slot under the leader lock
        // preserves the lane invariant (slots are only filled by the
        // current leader).
        if let Ok(_lead) = lane.leader.try_lock() {
            if lane.queue.is_empty() {
                let generation = self.cache.generation();
                let (config, fallbacks) = model.predict_config(&b, &i);
                let value = CachedPrediction { config, fallbacks };
                self.insert_counted(key, value, generation);
                lane.inflight
                    .lock()
                    .expect("inflight lock poisoned")
                    .remove(&key);
                self.metrics.batches.inc();
                self.metrics.batched_requests.inc();
                self.metrics.batch_sizes.record(1.0);
                // A batch of one is a queue of depth one, so every batched
                // request is reflected in the depth peak.
                self.metrics.queue_depth_peak.observe(1);
                slot.fill(value);
                return value;
            }
        }

        let item = BatchItem {
            key,
            b,
            i,
            generation: self.cache.generation(),
            slot: Arc::clone(&slot),
        };
        if let Err(item) = lane.queue.push(item) {
            // Ring full (extreme skew onto one lane): resolve inline instead
            // of spinning for a slot.
            let (config, fallbacks) = model.predict_config(&item.b, &item.i);
            let value = CachedPrediction { config, fallbacks };
            self.insert_counted(item.key, value, item.generation);
            lane.inflight
                .lock()
                .expect("inflight lock poisoned")
                .remove(&item.key);
            item.slot.fill(value);
            return value;
        }
        let depth = lane.queue.len() as u64;
        self.metrics.queue_depth_peak.observe(depth);
        lane.occupancy_peak.observe(depth);

        loop {
            if let Some(value) = slot.try_get() {
                return value;
            }
            match lane.leader.try_lock() {
                Ok(_lead) => {
                    // A drain that completed between our try_get and the
                    // lock may have served us already.
                    if let Some(value) = slot.try_get() {
                        return value;
                    }
                    self.drain_lane(model, lane);
                }
                Err(_) => {
                    // Another thread leads this lane; it fills our slot (or
                    // leaves our item queued for the next drain). Bounded
                    // sleep, then re-check rather than convoying on the lock.
                    if let Some(value) = slot.wait_timeout(OWNER_WAIT) {
                        return value;
                    }
                }
            }
        }
    }

    /// Drains up to `max_batch` items from `lane`'s ring and resolves them
    /// with one batched prediction. Caller must hold the lane's leader lock.
    fn drain_lane(&self, model: &HeteroMap, lane: &Lane) {
        ASSEMBLY.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.batch.clear();
            while scratch.batch.len() < self.config.max_batch.max(1) {
                match lane.queue.pop() {
                    Some(item) => scratch.batch.push(item),
                    None => break,
                }
            }
            if scratch.batch.is_empty() {
                std::thread::yield_now();
                return;
            }
            let _span = heteromap_obs::span_cat("batch.assemble", "serve");
            scratch.queries.clear();
            scratch
                .queries
                .extend(scratch.batch.iter().map(|it| (it.b, it.i)));
            model.predict_configs_into(&scratch.queries, &mut scratch.raw, &mut scratch.preds);
            self.metrics.batches.inc();
            self.metrics
                .batched_requests
                .add(scratch.batch.len() as u64);
            self.metrics.batch_sizes.record(scratch.batch.len() as f64);
            lane.drains.inc();
            lane.drained_items.add(scratch.batch.len() as u64);
            let mut inflight = lane.inflight.lock().expect("inflight lock poisoned");
            for (item, &(config, fallbacks)) in scratch.batch.iter().zip(&scratch.preds) {
                let value = CachedPrediction { config, fallbacks };
                self.insert_counted(item.key, value, item.generation);
                inflight.remove(&item.key);
                item.slot.fill(value);
            }
            scratch.batch.clear();
        });
    }

    fn insert_counted(&self, key: PredKey, value: CachedPrediction, generation: u64) {
        if self.cache.insert(key, value, generation) == InsertOutcome::InsertedEvicting {
            self.metrics.cache_evictions.inc();
        }
    }

    /// Drops every cached prediction and bumps the cache generation.
    pub fn invalidate(&self) {
        self.cache.invalidate();
        self.metrics.cache_invalidations.inc();
        heteromap_obs::event("cache.invalidate", || "cause=explicit".to_string());
    }

    /// Installs a new fault plan and invalidates the cache atomically (the
    /// invalidation happens under the model write lock, so no request can
    /// pair an old-plan prediction with the new system).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut model = self.model.write().expect("model lock poisoned");
        model.set_fault_plan(plan);
        self.cache.invalidate();
        self.metrics.cache_invalidations.inc();
        heteromap_obs::event("cache.invalidate", || "cause=fault_plan_change".to_string());
    }

    /// Swaps in a new predictor (e.g. a freshly re-trained model, §VII-D)
    /// and invalidates the cache atomically.
    pub fn replace_predictor(&self, predictor: Box<dyn Predictor + Send + Sync>) {
        let mut model = self.model.write().expect("model lock poisoned");
        model.set_predictor(predictor);
        self.cache.invalidate();
        self.metrics.cache_invalidations.inc();
        heteromap_obs::event("cache.invalidate", || "cause=predictor_swap".to_string());
    }

    /// Runs a closure against the wrapped model (read-locked).
    pub fn with_model<R>(&self, f: impl FnOnce(&HeteroMap) -> R) -> R {
        f(&self.model.read().expect("model lock poisoned"))
    }

    /// Streams `graph` through byte-budgeted chunks with this engine
    /// scheduling each chunk — the cached counterpart of
    /// [`HeteroMap::schedule_stream`], with identical chunking and OOM
    /// re-stream semantics.
    pub fn schedule_stream(
        &self,
        workload: Workload,
        graph: &CsrGraph,
        chunk_byte_budget: usize,
    ) -> StreamReport {
        let report = heteromap::stream_with(graph, chunk_byte_budget, &mut |stats| {
            self.schedule_stats(workload, *stats).placement
        });
        self.metrics.stream_chunks.add(report.chunks.len() as u64);
        self.metrics
            .stream_restreams
            .add(u64::from(report.restreams));
        report
    }

    /// Serves every request across `threads` pool participants, returning
    /// results in request order. Participants claim requests one at a time,
    /// so concurrent misses on the same key exercise the single-flight and
    /// batching paths.
    pub fn serve_all(&self, requests: &[(Workload, GraphStats)], threads: usize) -> Vec<Served> {
        par_map(requests.len(), threads, |idx| {
            let (workload, stats) = requests[idx];
            self.schedule_stats(workload, stats)
        })
    }

    /// Closed-loop throughput driver: serves every request across `threads`
    /// pool participants as fast as they are claimed, and reports wall time
    /// and requests/second. The per-request results are discarded (they
    /// remain observable through the metrics registry).
    pub fn run_closed_loop(
        &self,
        requests: &[(Workload, GraphStats)],
        threads: usize,
    ) -> ClosedLoopReport {
        let threads = threads.max(1).min(requests.len().max(1));
        let cursor = AtomicUsize::new(0);
        let start = Instant::now();
        run_threads(threads, |_| loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(workload, stats)) = requests.get(idx) else {
                break;
            };
            // Results are dropped on the spot: the throughput loop must not
            // grow a per-participant Vec (which would put an allocator call
            // on every request and skew the zero-allocation steady state it
            // exists to measure).
            let _ = self.schedule_stats(workload, stats);
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        ClosedLoopReport {
            requests: requests.len(),
            threads,
            wall_ms,
            throughput_rps: if wall_ms > 0.0 {
                requests.len() as f64 / (wall_ms / 1e3)
            } else {
                f64::INFINITY
            },
        }
    }
}

/// Helper for tests: predictions for one combination must agree exactly.
#[cfg(test)]
fn assert_same_config(a: &heteromap_model::MConfig, b: &heteromap_model::MConfig) {
    assert_eq!(a, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::gen::{GraphGenerator, PowerLaw};

    fn engine(mode: ServeMode) -> ServeEngine {
        ServeEngine::new(
            HeteroMap::with_decision_tree(),
            ServeConfig::with_mode(mode),
        )
    }

    #[test]
    fn hit_after_miss_on_repeated_request() {
        let e = engine(ServeMode::Cached);
        let first = e.schedule(Workload::Bfs, Dataset::Facebook);
        let second = e.schedule(Workload::Bfs, Dataset::Facebook);
        assert_eq!(first.source, ServeSource::Computed { batched: false });
        assert_eq!(second.source, ServeSource::CacheHit);
        assert_eq!(e.cache_len(), 1);
        let snap = e.metrics().snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        assert_same_config(&first.placement.config, &second.placement.config);
    }

    #[test]
    fn uncached_mode_never_caches() {
        let e = engine(ServeMode::Uncached);
        for _ in 0..3 {
            let s = e.schedule(Workload::PageRank, Dataset::LiveJournal);
            assert_eq!(s.source, ServeSource::Computed { batched: false });
        }
        assert_eq!(e.cache_len(), 0);
        assert_eq!(e.metrics().snapshot().cache_hits, 0);
    }

    #[test]
    fn batched_single_thread_still_serves() {
        let e = engine(ServeMode::CachedBatched);
        let s = e.schedule(Workload::SsspDelta, Dataset::UsaCal);
        assert_eq!(s.source, ServeSource::Computed { batched: true });
        let snap = e.metrics().snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.batched_requests, 1);
        assert_eq!(
            e.schedule(Workload::SsspDelta, Dataset::UsaCal).source,
            ServeSource::CacheHit
        );
    }

    #[test]
    fn lane_series_cover_every_lane_and_round_trip() {
        let e = engine(ServeMode::CachedBatched);
        e.schedule(Workload::Bfs, Dataset::Facebook);
        e.schedule(Workload::PageRank, Dataset::LiveJournal);
        let lanes = e.config().lanes;
        let series = e.lane_series();
        assert_eq!(series.len(), lanes * 3, "three series per lane");
        let text = e.prometheus_text();
        assert!(text.contains("serve_lane_drains_total{lane=\"0\"}"));
        assert!(text.contains("serve_cache_misses_total 2"));
        let parsed = heteromap_obs::metrics::parse_prometheus(&text).unwrap();
        assert!(!parsed.is_empty());
        // The inline fast path resolves solo misses without a drain, so
        // drained items can be zero — but never more than the misses.
        let drained: u64 = series
            .iter()
            .filter(|s| s.name == "serve_lane_drained_items_total")
            .map(|s| match s.value {
                heteromap_obs::metrics::SeriesValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert!(drained <= 2);
    }

    #[test]
    fn invalidation_forces_recompute() {
        let e = engine(ServeMode::Cached);
        e.schedule(Workload::Bfs, Dataset::Facebook);
        e.invalidate();
        assert_eq!(e.cache_len(), 0);
        let s = e.schedule(Workload::Bfs, Dataset::Facebook);
        assert_eq!(s.source, ServeSource::Computed { batched: false });
        assert_eq!(e.metrics().snapshot().cache_invalidations, 1);
    }

    #[test]
    fn fault_plan_change_invalidates_and_changes_outcomes() {
        let e = engine(ServeMode::Cached);
        // SSSP-BF on USA-Cal routes to the GPU when healthy (Fig. 7).
        let healthy = e.schedule(Workload::SsspBf, Dataset::UsaCal);
        assert_eq!(
            healthy.placement.accelerator(),
            heteromap_model::Accelerator::Gpu
        );
        e.set_fault_plan(FaultPlan::gpu_down());
        assert_eq!(e.cache_len(), 0, "plan change must clear the cache");
        let faulted = e.schedule(Workload::SsspBf, Dataset::UsaCal);
        assert_eq!(
            faulted.placement.accelerator(),
            heteromap_model::Accelerator::Multicore,
            "stale cached placement would have kept the dead GPU"
        );
    }

    #[test]
    fn predictor_swap_invalidates() {
        let e = engine(ServeMode::Cached);
        e.schedule(Workload::Bfs, Dataset::Facebook);
        assert_eq!(e.cache_len(), 1);
        e.replace_predictor(Box::new(heteromap_predict::DecisionTree::paper()));
        assert_eq!(e.cache_len(), 0);
        assert!(e.with_model(|m| m.predictor_name().contains("Decision")));
    }

    #[test]
    fn serve_all_preserves_request_order() {
        let e = engine(ServeMode::CachedBatched);
        let requests: Vec<(Workload, GraphStats)> =
            [Dataset::Facebook, Dataset::LiveJournal, Dataset::UsaCal]
                .iter()
                .cycle()
                .take(30)
                .enumerate()
                .map(|(idx, d)| {
                    (
                        if idx % 2 == 0 {
                            Workload::Bfs
                        } else {
                            Workload::PageRank
                        },
                        d.stats(),
                    )
                })
                .collect();
        let served = e.serve_all(&requests, 4);
        assert_eq!(served.len(), requests.len());
        // Order check: re-serving sequentially must give the same configs.
        for (s, (w, stats)) in served.iter().zip(&requests) {
            let again = e.schedule_stats(*w, *stats);
            assert_same_config(&s.placement.config, &again.placement.config);
        }
        let snap = e.metrics().snapshot();
        assert!(snap.cache_hits > 0, "repeats must hit: {snap:?}");
    }

    #[test]
    fn streamed_chunks_are_cached_and_counted() {
        let e = engine(ServeMode::Cached);
        let g = PowerLaw::new(2_000, 4).generate(1);
        let budget = g.footprint_bytes() / 4;
        let report = e.schedule_stream(Workload::PageRank, &g, budget);
        assert!(report.chunks.len() >= 3);
        let snap = e.metrics().snapshot();
        assert_eq!(snap.stream_chunks, report.chunks.len() as u64);
        // The plain and served streaming paths agree chunk by chunk.
        let plain = e.with_model(|m| m.schedule_stream(Workload::PageRank, &g, budget));
        assert_eq!(plain.chunks.len(), report.chunks.len());
        for (a, b) in plain.chunks.iter().zip(&report.chunks) {
            assert_same_config(&a.config, &b.config);
        }
    }

    #[test]
    fn closed_loop_reports_throughput() {
        let e = engine(ServeMode::Cached);
        let requests: Vec<(Workload, GraphStats)> = (0..50)
            .map(|_| (Workload::Bfs, Dataset::Facebook.stats()))
            .collect();
        let report = e.run_closed_loop(&requests, 2);
        assert_eq!(report.requests, 50);
        assert!(report.throughput_rps > 0.0);
        assert!(report.wall_ms >= 0.0);
    }
}
