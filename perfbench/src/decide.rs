//! decide-hot and decide-cold: closed loops of scheduling decisions, each
//! one `ServeEngine::schedule_context_opts` call (ivector → cache hit or
//! predictor inference → resilient deploy → simulated run).
//!
//! decide-cold is runnable by hand but not listed in `BENCHMARK.json`: it
//! is the least steady of the decision workloads. Most of a miss is serve's
//! own work (about 190 of 210 µs per call), which includes the LRU victim
//! scan over a full 4,096-entry shard. On a shared 2-vCPU virtual machine
//! its throughput, p50 and p99 spread (quartiles over median) reached
//! 0.26–0.28 across ten seeds in one of four sets of runs, above the
//! largest regression bound the benchmark may set.

use crate::harness::{closed_loop, Client, Phase};
use crate::keys::{hot_pool, stream_seed, LongTail, Zipf};
use crate::report::{Checks, Metrics, Tally};
use crate::setup::{serving_engine, SetupTimes, SETUP_REPEATS};
use crate::stats::{geomean, ratio};
use crate::trace::{serve_self_ns, Tracer};
use crate::Outcome;
use heteromap::{AttemptOutcome, DeployOptions, Placement};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::{FaultPlan, FaultState};
use heteromap_model::Accelerator;
use heteromap_serve::{MetricsSnapshot, ServeEngine, ServeSource, Served};
use std::hint::black_box;
use std::time::Instant;

/// Concurrent clients of both decision workloads.
pub const CLIENTS: usize = 2;

/// Synthetic keys added to the 81 Table I combinations of decide-hot: a
/// few thousand distinct keys, all far below the cache capacity.
pub const HOT_SYNTHETIC_KEYS: usize = 3_000;

/// Skew of decide-hot's key popularity.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Length of each decide-hot client's pre-drawn index stream (it wraps).
const HOT_STREAM_LEN: usize = 1 << 20;

/// decide-hot's fault-plan schedule, in requests of the first client (the
/// one that swaps): healthy epochs, then shorter transient ones. Each swap
/// invalidates the cache and the refill costs one predictor call per
/// distinct key, about 2.5% of requests, so p99 sits inside the refill
/// misses rather than on the edge between hits and misses. Three quarters
/// of requests run healthy, so p50 sits inside the healthy hits rather
/// than between the healthy and transient clusters.
pub const HEALTHY_EPOCH: u64 = 90_000;
/// See [`HEALTHY_EPOCH`].
pub const TRANSIENT_EPOCH: u64 = 30_000;

/// Per-attempt failure rate of the GPU under the transient fault plan.
pub const TRANSIENT_RATE: f64 = 0.3;

/// Seed of the transient plan's failure draws. Fixed, so the hottest keys
/// retry the same way under every run seed.
const FAULT_SEED: u64 = 0xFA17;

/// Fresh synthetic keys (besides the 81 Table I combinations) both
/// decision workloads score decision quality on. Simulated times span
/// orders of magnitude across keys, so the set is large enough that its
/// geomean moves little from seed to seed.
pub const QUALITY_KEYS: usize = 16_384;

/// Which decision workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf-skewed repeated keys with fault-plan swaps.
    Hot,
    /// A long tail of fresh keys on a full cache.
    Cold,
}

impl Kind {
    /// Latency sample stride, direct-check period and (traced) re-issue
    /// period, in ops per client.
    fn periods(self) -> (u64, u64, u64) {
        match self {
            Kind::Hot => (8, 4_096, 1_024),
            Kind::Cold => (1, 256, 64),
        }
    }
}

/// Placement accounting for the core layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlacementCounts {
    /// Placements served.
    pub placements: u64,
    /// Deploy attempts across them.
    pub attempts: u64,
    /// Attempts that completed.
    pub successes: u64,
    /// Failovers to the other accelerator.
    pub failovers: u64,
    /// Predictor fallback steps.
    pub fallbacks: u64,
}

impl PlacementCounts {
    /// Counts one placement.
    pub fn add(&mut self, p: &Placement) {
        self.placements += 1;
        self.attempts += p.attempts.total_attempts() as u64;
        self.successes += p
            .attempts
            .records
            .as_slice()
            .iter()
            .filter(|r| matches!(r.outcome, AttemptOutcome::Success))
            .count() as u64;
        self.failovers += u64::from(p.attempts.failovers);
        self.fallbacks += u64::from(p.attempts.predictor_fallbacks);
    }

    /// Adds another client's counts.
    pub fn merge(&mut self, o: &PlacementCounts) {
        self.placements += o.placements;
        self.attempts += o.attempts;
        self.successes += o.successes;
        self.failovers += o.failovers;
        self.fallbacks += o.fallbacks;
    }
}

/// Re-issues one served request through the model's public steps, outside
/// the timed serve call, so the traced run can split the call by layer.
pub fn reissue(engine: &ServeEngine, tracer: &mut Tracer, ctx: &WorkloadContext, served: &Served) {
    let start = Instant::now();
    tracer.begin_op("bench.reissue");
    engine.with_model(|m| {
        let i = tracer.span("model.ivector", "model", || m.ivector(&ctx.stats));
        let (config, fallbacks) = tracer.span("predict.predict_config", "predict", || {
            m.predict_config(&ctx.b, &i)
        });
        let placed = tracer.span("core.deploy", "core", || {
            m.deploy_predicted_opts(
                ctx,
                config,
                served.placement.predictor_overhead_ms,
                fallbacks,
                DeployOptions::default(),
            )
        });
        black_box(tracer.span("accel.eval", "accel", || {
            m.system().deploy(ctx, &placed.config)
        }));
    });
    tracer.end_op("bench", start, Instant::now());
}

/// Whether the served configuration is the one a direct `predict_config`
/// on the same key gives. Placements that failed over run a configuration
/// re-clamped for the survivor, so only the others are comparable.
pub fn matches_direct(engine: &ServeEngine, ctx: &WorkloadContext, served: &Served) -> bool {
    let p = &served.placement;
    if p.attempts.failovers > 0 || p.attempts.degraded_deploys > 0 {
        return true;
    }
    let direct = engine.with_model(|m| m.predict_config(&ctx.b, &m.ivector(&ctx.stats)).0);
    direct == p.config
}

enum Keys<'a> {
    Hot {
        pool: &'a [WorkloadContext],
        stream: Vec<u32>,
        /// The request at which this client next swaps the plan (`None`
        /// for clients that never swap).
        next_swap: Option<u64>,
        transient: bool,
        plan: FaultPlan,
    },
    Cold {
        tail: LongTail,
        next: WorkloadContext,
    },
}

struct DecideClient<'a> {
    engine: &'a ServeEngine,
    keys: Keys<'a>,
    periods: (u64, u64, u64),
    ctx: WorkloadContext,
    last: Option<Served>,
    tally: Tally,
    counts: PlacementCounts,
    tracer: Option<Tracer>,
}

impl Client for DecideClient<'_> {
    fn op(&mut self, i: u64) {
        match &mut self.keys {
            Keys::Hot {
                pool,
                stream,
                next_swap,
                transient,
                plan,
            } => {
                if *next_swap == Some(i) {
                    // The write beside the reads: a fault-plan swap
                    // invalidates every cached prediction.
                    if let Some(t) = &mut self.tracer {
                        t.begin_op("serve.fault_swap");
                    }
                    *transient = !*transient;
                    let (next, epoch) = if *transient {
                        (*plan, TRANSIENT_EPOCH)
                    } else {
                        (FaultPlan::healthy(), HEALTHY_EPOCH)
                    };
                    self.engine.set_fault_plan(next);
                    *next_swap = Some(i + epoch);
                    self.last = None;
                    return;
                }
                self.ctx = pool[stream[i as usize % stream.len()] as usize];
            }
            Keys::Cold { next, .. } => self.ctx = *next,
        }
        if let Some(t) = &mut self.tracer {
            t.begin_op("serve.call");
        }
        self.last = Some(
            self.engine
                .schedule_context_opts(&self.ctx, DeployOptions::default()),
        );
    }

    fn after(&mut self, i: u64, start: Instant, end: Instant) {
        if let Some(t) = &mut self.tracer {
            t.end_op("serve", start, end);
        }
        if let Keys::Cold { tail, next } = &mut self.keys {
            *next = tail.next_key();
        }
        let Some(served) = self.last.take() else {
            self.tally.record(true, true, String::new);
            return;
        };
        let p = &served.placement;
        self.tally.record(p.completed(), true, || {
            format!("op {i}: placement did not complete")
        });
        self.counts.add(p);
        let (_, check_every, reissue_every) = self.periods;
        if i.is_multiple_of(check_every) && !matches_direct(self.engine, &self.ctx, &served) {
            self.tally.wrong_counted(|| {
                format!("op {i}: served config differs from direct predict_config")
            });
        }
        if let Some(t) = &mut self.tracer {
            if i.is_multiple_of(reissue_every) {
                reissue(self.engine, t, &self.ctx, &served);
            }
        }
    }
}

/// Serve-counter deltas over one phase.
fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    d.cache_hits -= before.cache_hits;
    d.cache_misses -= before.cache_misses;
    d.cache_evictions -= before.cache_evictions;
    d.cache_invalidations -= before.cache_invalidations;
    d.single_flight_waits -= before.single_flight_waits;
    d.batches -= before.batches;
    d.batched_requests -= before.batched_requests;
    d.requests -= before.requests;
    d
}

/// The serve, model, predict, core and accel per-layer metrics of a traced
/// phase in which every op made one serve call (`call` names its span).
pub fn serve_layers(
    layers: &mut Metrics,
    engine: &ServeEngine,
    before: &MetricsSnapshot,
    tracer: &Tracer,
    call: &str,
    counts: &PlacementCounts,
) -> f64 {
    let d = delta(before, &engine.metrics().snapshot());
    let requests = d.requests as f64;
    let predict_calls = d.cache_misses.saturating_sub(d.single_flight_waits) as f64;
    let call_ns = tracer.totals(call).mean_ns();
    let ivector_ns = tracer.totals("model.ivector").mean_ns();
    let predict_ns = tracer.totals("predict.predict_config").mean_ns();
    let deploy_ns = tracer.totals("core.deploy").mean_ns();
    let serve_self = serve_self_ns(
        call_ns,
        ivector_ns,
        predict_ns,
        ratio(predict_calls, requests),
        deploy_ns,
    );
    layers.set("serve.call_ns", call_ns, "ns");
    layers.set("serve.self_ns", serve_self, "ns");
    layers.set(
        "serve.hit_ratio",
        ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
        "ratio",
    );
    layers.set(
        "serve.evictions_per_op",
        ratio(d.cache_evictions as f64, requests),
        "1/op",
    );
    layers.set("serve.invalidations", d.cache_invalidations as f64, "count");
    layers.set(
        "serve.mean_batch_size",
        ratio(d.batched_requests as f64, d.batches as f64),
        "requests",
    );
    layers.set(
        "serve.single_flight_waits",
        d.single_flight_waits as f64,
        "count",
    );
    layers.set("model.ivector_ns", ivector_ns, "ns");
    layers.set("predict.calls", predict_calls, "count");
    layers.set("predict.ns_per_call", predict_ns, "ns");
    layers.set(
        "predict.flops_per_call",
        engine.with_model(|m| m.predictor().inference_flops()) as f64,
        "flop",
    );
    layers.set("predict.fallbacks", counts.fallbacks as f64, "count");
    layers.set("core.deploy_ns", deploy_ns, "ns");
    let placements = counts.placements as f64;
    layers.set(
        "core.attempts_per_op",
        ratio(counts.attempts as f64, placements),
        "1/op",
    );
    layers.set(
        "core.failovers_per_op",
        ratio(counts.failovers as f64, placements),
        "1/op",
    );
    layers.set(
        "core.useful_attempt_ratio",
        ratio(counts.successes as f64, counts.attempts as f64),
        "ratio",
    );
    layers.set("accel.eval_ns", tracer.totals("accel.eval").mean_ns(), "ns");
    // The serve call is split by estimate and serve.self_ns is whatever
    // the components leave, so only over-attribution (a negative
    // remainder) shows as error; under-attribution lands in serve.self_ns.
    ratio((-serve_self).max(0.0), call_ns)
}

/// Simulated completion (overhead excluded) and useful simulated time of
/// one placement, for the decision-quality metrics.
pub fn sim_times(p: &Placement) -> Option<(f64, f64)> {
    p.completed().then(|| {
        let completion = p.report.time_ms - p.predictor_overhead_ms;
        (completion, completion - p.attempts.retry_time_ms)
    })
}

/// Geomean completion and goodput (useful ÷ total simulated time) over
/// placements; incomplete placements count against goodput.
pub fn quality(placements: &[Placement]) -> (f64, f64) {
    let times: Vec<(f64, f64)> = placements.iter().filter_map(sim_times).collect();
    let total: f64 = times.iter().map(|t| t.0).sum();
    let useful: f64 = times.iter().map(|t| t.1).sum();
    let complete_share = ratio(times.len() as f64, placements.len() as f64);
    (
        geomean(times.iter().map(|t| t.0)),
        ratio(useful, total) * complete_share,
    )
}

/// The transient fault plan: the GPU fails [`TRANSIENT_RATE`] of its
/// attempts and the multicore stays healthy. Under the program's default
/// retry policy, GPU placements retry and, once the GPU's attempts are
/// exhausted, fail over to a multicore that completes, so the retry loop
/// and failover run while no placement is left incomplete.
pub fn transient_plan() -> FaultPlan {
    FaultPlan::transient(TRANSIENT_RATE, FAULT_SEED)
        .with_state(Accelerator::Multicore, FaultState::Healthy)
}

/// Runs one decision workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let plan = transient_plan();
    let pool = match kind {
        Kind::Hot => hot_pool(seed, HOT_SYNTHETIC_KEYS),
        Kind::Cold => Vec::new(),
    };
    let zipf = (kind == Kind::Hot).then(|| Zipf::new(pool.len(), ZIPF_EXPONENT));
    let warm = |engine: &ServeEngine| match kind {
        Kind::Hot => {
            for ctx in &pool {
                engine.schedule_context(ctx);
            }
        }
        Kind::Cold => {
            engine.set_fault_plan(plan);
            fill_cache(engine, seed);
        }
    };
    let mut times = SetupTimes::default();
    let engine = serving_engine(&mut times, warm);
    let mut checks = Checks::default();
    let capacity = engine.config().capacity;
    if kind == Kind::Cold {
        checks.check(
            engine.cache_len() == capacity,
            format!(
                "cache at capacity before timing: {} of {capacity} entries",
                engine.cache_len()
            ),
        );
    }

    let clients = |phase: u64, tracer: bool| -> Vec<DecideClient<'_>> {
        let epoch = Instant::now();
        (0..CLIENTS)
            .map(|c| {
                let (keys, ctx) = match kind {
                    Kind::Hot => (
                        Keys::Hot {
                            pool: &pool,
                            stream: zipf.as_ref().expect("hot keys").stream(
                                stream_seed(seed, phase),
                                c,
                                HOT_STREAM_LEN,
                            ),
                            next_swap: (c == 0).then_some(HEALTHY_EPOCH),
                            transient: false,
                            plan,
                        },
                        pool[0],
                    ),
                    Kind::Cold => {
                        let mut tail = LongTail::new(seed, phase, c);
                        let next = tail.next_key();
                        (Keys::Cold { tail, next }, next)
                    }
                };
                DecideClient {
                    engine: &engine,
                    keys,
                    periods: kind.periods(),
                    ctx,
                    last: None,
                    tally: Tally::default(),
                    counts: PlacementCounts::default(),
                    tracer: tracer.then(|| Tracer::new(epoch, c as u32 + 1)),
                }
            })
            .collect()
    };
    let stride = kind.periods().0;

    let before = engine.metrics().snapshot();
    let (untraced, done) = closed_loop(clients(1, false), seconds, stride);
    let after = engine.metrics().snapshot();
    let mut tally = Tally::default();
    for c in &done {
        tally.merge(&c.tally);
    }
    let d = delta(&before, &after);
    match kind {
        Kind::Hot => {
            checks.check(
                after.cache_evictions == 0,
                format!(
                    "no capacity evictions: {} evictions, {} invalidations",
                    after.cache_evictions, d.cache_invalidations
                ),
            );
            checks.check(
                d.cache_invalidations > 0,
                format!(
                    "fault-plan swaps invalidated the cache {} times",
                    d.cache_invalidations
                ),
            );
        }
        Kind::Cold => {
            let per_op = ratio(d.cache_evictions as f64, d.requests as f64);
            checks.check(
                (0.95..=1.05).contains(&per_op),
                format!("every timed miss evicts: {per_op:.4} evictions per op"),
            );
        }
    }

    let mut traced_phase: Option<(Phase, Tracer, Metrics)> = None;
    if traced {
        if kind == Kind::Hot {
            // The untraced phase may have ended in a transient epoch.
            engine.set_fault_plan(FaultPlan::healthy());
        }
        let before = engine.metrics().snapshot();
        let (phase, done) = closed_loop(clients(2, true), seconds, stride);
        let mut counts = PlacementCounts::default();
        let mut tracer: Option<Tracer> = None;
        for c in done {
            tally.merge(&c.tally);
            counts.merge(&c.counts);
            let t = c.tracer.expect("traced client");
            match &mut tracer {
                Some(all) => all.merge(t),
                None => tracer = Some(t),
            }
        }
        let tracer = tracer.expect("at least one client");
        let mut layers = Metrics::default();
        let unreconciled = serve_layers(
            &mut layers,
            &engine,
            &before,
            &tracer,
            "serve.call",
            &counts,
        );
        layers.set("obs.reconcile_error_ratio", unreconciled, "ratio");
        layers.set("serve.op_share", 1.0, "ratio");
        traced_phase = Some((phase, tracer, layers));
    }
    for _ in 1..SETUP_REPEATS {
        serving_engine(&mut times, warm);
    }

    // Decision quality on a fixed, seed-determined key set (untimed). The
    // plan swaps invalidate the cache first, so every key is decided
    // afresh, and no insert has to evict.
    let quality_keys = hot_pool(stream_seed(seed, 0x9A1), QUALITY_KEYS);
    let plans = match kind {
        Kind::Hot => vec![FaultPlan::healthy(), plan],
        Kind::Cold => vec![plan],
    };
    let mut placements = Vec::new();
    for p in plans {
        engine.set_fault_plan(p);
        placements.extend(
            quality_keys
                .iter()
                .map(|ctx| engine.schedule_context(ctx).placement),
        );
    }
    let (sim_completion_ms, sim_goodput) = quality(&placements);

    Outcome {
        setup: times,
        untraced,
        traced: traced_phase,
        tally,
        sim_completion_ms,
        sim_goodput,
        checks,
        reconcile: "over-attribution only: serve.self_ns is the call's remainder after its re-issued components, so under-attribution reads 0",
        notes: vec![
            format!("clients={CLIENTS} closed loop"),
            format!("distinct_keys={}", if kind == Kind::Hot { pool.len().to_string() } else { "fresh per request".into() }),
        ],
    }
}

/// Fills decide-cold's cache until every shard is full, from two threads
/// drawing fresh keys (the warm-up stream, disjoint from the timed ones).
fn fill_cache(engine: &ServeEngine, seed: u64) {
    let capacity = engine.config().capacity;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut tail = LongTail::new(seed, 0, c);
                while engine.cache_len() < capacity {
                    for _ in 0..1_024 {
                        let served = engine.schedule_context(&tail.next_key());
                        debug_assert!(matches!(served.source, ServeSource::Computed { .. }));
                    }
                }
            });
        }
    });
}
