//! The concurrent prediction-serving engine.
//!
//! [`ServeEngine`] wraps a [`HeteroMap`] instance behind a sharded
//! prediction cache, so a long-running serving process answers repeated
//! `(B, I)` queries without re-running the neural forward pass:
//!
//! * **cache hit** — the stored [`MConfig`] is re-deployed through the
//!   analytic cost model (deterministic, sub-microsecond) and charged no
//!   predictor overhead, since no inference ran;
//! * **cache miss** — the predictor runs inline on the calling thread and
//!   the completion time is charged the modeled inference cost,
//!   [`Predictor::overhead_ms`] (§V-A; no wall clock in the placement).
//!
//! Because the cache stores the *prediction* and deploy re-runs per request,
//! every mode returns the same placement for the same (workload, statistics,
//! fault plan): hits, misses and the uncached baseline differ only in the
//! overhead they charge.
//!
//! [`MConfig`]: heteromap_model::MConfig
//! [`Predictor::overhead_ms`]: heteromap_predict::Predictor::overhead_ms

use crate::cache::{CachedPrediction, InsertOutcome, PredKey, ShardedCache};
use crate::metrics::MetricsRegistry;
use crate::slots::ReaderSlots;
use heteromap::{DeployOptions, HeteroMap, Placement, StreamReport};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::FaultPlan;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::{CsrGraph, GraphStats};
use heteromap_kernels::par::{par_map, run_threads};
use heteromap_model::Workload;
use heteromap_predict::Predictor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a request resolves its prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Always run the predictor (the pre-serving baseline).
    Uncached,
    /// Consult the sharded cache; a miss runs the predictor inline and
    /// stores the result.
    #[default]
    Cached,
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mode: ServeMode::default(),
            shards: 16,
            capacity: 65_536,
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
}

/// Where one request's prediction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// Found in the cache.
    CacheHit,
    /// Computed by the predictor.
    Computed,
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

/// A concurrent prediction-serving engine over one [`HeteroMap`] instance.
///
/// Shared-state layout: the model sits behind per-thread reader slots,
/// [`COUNTER_SHARDS`](heteromap_obs::metrics::COUNTER_SHARDS) cache-aligned
/// locks, each thread picking one as a sharded counter picks its shard. A
/// request read-locks only its own slot, so cache hits on different cores
/// write no shared lock word. Fault-plan and predictor swaps write-lock
/// every slot in index order and invalidate the cache while holding them
/// all, so no request ever pairs an old-generation value with a new model.
/// Concurrent misses on the same key each run the predictor and insert the
/// same value; the deterministic predictor makes the duplicate work
/// harmless, and a miss costs one inline forward pass either way.
#[derive(Debug)]
pub struct ServeEngine {
    model: ReaderSlots<HeteroMap>,
    cache: ShardedCache,
    metrics: Arc<MetricsRegistry>,
    config: ServeConfig,
}

impl ServeEngine {
    /// Wraps `model` in a serving engine.
    pub fn new(model: HeteroMap, config: ServeConfig) -> Self {
        ServeEngine {
            model: ReaderSlots::new(model),
            cache: ShardedCache::new(config.shards, config.capacity),
            metrics: Arc::new(MetricsRegistry::new()),
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

    /// Renders the registry in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// Cached predictions currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The deterministic predictor overhead charged on a miss,
    /// [`Predictor::overhead_ms`], in milliseconds.
    pub fn miss_overhead_ms(&self) -> f64 {
        let model = self.model.read();
        model.predictor().overhead_ms()
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
    /// through prediction resolution into the resilient deploy loop, so
    /// backoff never outlives the request's budget and open-breaker
    /// accelerators are routed around with the configuration re-clamped.
    pub fn schedule_context_opts(&self, ctx: &WorkloadContext, opts: DeployOptions) -> Served {
        let _span = heteromap_obs::span_cat("serve", "serve");
        let start = Instant::now();
        let model = self.model.read();
        let i = model.ivector(&ctx.stats);
        let key = PredKey::new(&ctx.b, &i);
        let miss_ms = model.predictor().overhead_ms();
        let predict = || {
            let (config, fallbacks) = model.predict_config(&ctx.b, &i);
            CachedPrediction { config, fallbacks }
        };

        let (prediction, source, overhead_ms) = match self.config.mode {
            ServeMode::Uncached => (predict(), ServeSource::Computed, miss_ms),
            ServeMode::Cached => match self.cache.get(&key) {
                Some(pred) => {
                    self.metrics.cache_hits.inc();
                    (pred, ServeSource::CacheHit, 0.0)
                }
                None => {
                    self.metrics.cache_misses.inc();
                    // Read before predicting, so a value computed against a
                    // model that an invalidation has since replaced is dropped.
                    let generation = self.cache.generation();
                    let pred = predict();
                    self.insert_counted(key, pred, generation);
                    (pred, ServeSource::Computed, miss_ms)
                }
            },
        };

        self.finish(&model, ctx, prediction, source, overhead_ms, opts, start)
    }

    /// Peeks the cache for an already-resolved prediction without running
    /// any inference — the overload-shedding path uses this to serve a
    /// possibly-stale answer instead of dropping the request.
    pub fn peek_cached(&self, ctx: &WorkloadContext) -> Option<CachedPrediction> {
        let model = self.model.read();
        let i = model.ivector(&ctx.stats);
        self.cache.get(&PredKey::new(&ctx.b, &i))
    }

    /// Deploys an already-cached prediction under [`DeployOptions`],
    /// charging no predictor overhead — the shedding path of the admission
    /// controller ([`ServeSource::StaleHit`]).
    pub fn serve_stale(&self, ctx: &WorkloadContext, opts: DeployOptions) -> Option<Served> {
        let start = Instant::now();
        let model = self.model.read();
        let i = model.ivector(&ctx.stats);
        let prediction = self.cache.get(&PredKey::new(&ctx.b, &i))?;
        Some(self.finish(
            &model,
            ctx,
            prediction,
            ServeSource::StaleHit,
            0.0,
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
    /// invalidation happens while every reader slot is write-locked, so no
    /// request can pair an old-plan prediction with the new system).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut model = self.model.write();
        model.set_fault_plan(plan);
        self.cache.invalidate();
        self.metrics.cache_invalidations.inc();
        heteromap_obs::event("cache.invalidate", || "cause=fault_plan_change".to_string());
    }

    /// Swaps in a new predictor (e.g. a freshly re-trained model, §VII-D)
    /// and invalidates the cache atomically.
    pub fn replace_predictor(&self, predictor: Box<dyn Predictor + Send + Sync>) {
        let mut model = self.model.write();
        model.set_predictor(predictor);
        self.cache.invalidate();
        self.metrics.cache_invalidations.inc();
        heteromap_obs::event("cache.invalidate", || "cause=predictor_swap".to_string());
    }

    /// Runs a closure against the wrapped model (the calling thread's
    /// reader slot read-locked).
    pub fn with_model<R>(&self, f: impl FnOnce(&HeteroMap) -> R) -> R {
        f(&self.model.read())
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
    /// so concurrent misses on the same key race on the cache insert.
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
        assert_eq!(first.source, ServeSource::Computed);
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
            assert_eq!(s.source, ServeSource::Computed);
        }
        assert_eq!(e.cache_len(), 0);
        assert_eq!(e.metrics().snapshot().cache_hits, 0);
    }

    #[test]
    fn exposition_counts_misses_and_round_trips() {
        let e = engine(ServeMode::Cached);
        e.schedule(Workload::Bfs, Dataset::Facebook);
        e.schedule(Workload::PageRank, Dataset::LiveJournal);
        let text = e.prometheus_text();
        assert!(text.contains("serve_cache_misses_total 2"));
        let parsed = heteromap_obs::metrics::parse_prometheus(&text).unwrap();
        assert_eq!(
            parsed,
            heteromap_obs::metrics::samples(&e.metrics().series())
        );
    }

    #[test]
    fn invalidation_forces_recompute() {
        let e = engine(ServeMode::Cached);
        e.schedule(Workload::Bfs, Dataset::Facebook);
        e.invalidate();
        assert_eq!(e.cache_len(), 0);
        let s = e.schedule(Workload::Bfs, Dataset::Facebook);
        assert_eq!(s.source, ServeSource::Computed);
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
        let e = engine(ServeMode::Cached);
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
