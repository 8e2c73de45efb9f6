//! Concurrency and determinism tests for the serving engine.
//!
//! The load-bearing property: serving is an *optimization*, never a
//! different answer. Cached and uncached serving must return
//! bit-identical placements for the same (workload, statistics, fault plan)
//! at any thread count, while hits charge (near-)zero predictor overhead
//! and misses charge the full inference cost.

// These tests race free-running OS threads (an invalidator spinning against
// pool-served requests, independent callers) against each other, which the
// pool's barrier-style regions cannot express.
#![allow(clippy::disallowed_methods)]

use heteromap::HeteroMap;
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::GraphStats;
use heteromap_model::Workload;
use heteromap_predict::nn::TrainConfig;
use heteromap_predict::persist::{read_model, write_model, PersistedModel};
use heteromap_predict::predictor::Objective;
use heteromap_predict::{NeuralPredictor, Trainer};
use heteromap_serve::{ServeConfig, ServeEngine, ServeMode, ServeSource, Served};
use std::sync::OnceLock;

/// A mixed request stream over every (workload, dataset) combination, with
/// repeats so caches actually hit. `salt` interleaves the order.
fn mixed_requests(repeats: usize, salt: usize) -> Vec<(Workload, GraphStats)> {
    let workloads = Workload::all();
    let datasets = Dataset::all();
    let mut combos: Vec<(Workload, GraphStats)> = Vec::new();
    for &w in &workloads {
        for &d in &datasets {
            combos.push((w, d.stats()));
        }
    }
    (0..combos.len() * repeats)
        .map(|idx| combos[(idx * (salt * 2 + 1)) % combos.len()])
        .collect()
}

/// The trained deep predictor, trained once per test binary and cloned out
/// of the model-persistence round trip (training dominates test time;
/// deserialization is microseconds and bit-exact).
fn deep_nn() -> NeuralPredictor {
    static TRAINED: OnceLock<Vec<u8>> = OnceLock::new();
    let bytes = TRAINED.get_or_init(|| {
        // Small training run keeps the test fast; the NN still has real
        // inference_flops, so overhead charging is observable.
        let system = MultiAcceleratorSystem::primary();
        let trainer = Trainer::new(system).with_objective(Objective::Performance);
        let db = trainer.generate_database(40, 9);
        let config = TrainConfig {
            hidden: 128,
            seed: 9,
            ..TrainConfig::default()
        };
        let nn = NeuralPredictor::train(&db, config);
        let mut out = Vec::new();
        write_model(&PersistedModel::Nn(nn), &mut out).expect("serialize trained model");
        out
    });
    let PersistedModel::Nn(nn) = read_model(bytes.as_slice()).expect("reload trained model") else {
        panic!("expected a neural model");
    };
    nn
}

/// A deep-NN HeteroMap over the shared trained predictor.
fn deep_model() -> HeteroMap {
    HeteroMap::new(MultiAcceleratorSystem::primary(), Box::new(deep_nn()))
}

fn deep_engine(mode: ServeMode) -> ServeEngine {
    ServeEngine::new(deep_model(), ServeConfig::with_mode(mode))
}

/// Asserts that `a` and `b`, two answers to `request`, placed identically:
/// the same configuration, energy and utilization bit for bit, and each
/// completion time exactly the healthy fast path's
/// `system.deploy(ctx, &config).time_ms + predictor_overhead_ms`. Hits and
/// misses charge different overheads, so the times are checked against that
/// exact sum rather than by subtracting the overhead back out, which can
/// lose the last ulp.
fn assert_identical(request: (Workload, GraphStats), a: &Served, b: &Served, what: &str) {
    assert_eq!(a.placement.config, b.placement.config, "{what}: config");
    let (workload, stats) = request;
    let ctx = WorkloadContext::for_workload(workload, stats);
    let base_ms = MultiAcceleratorSystem::primary()
        .deploy(&ctx, &a.placement.config)
        .time_ms;
    for (side, s) in [("left", a), ("right", b)] {
        assert_eq!(
            s.placement.report.time_ms.to_bits(),
            (base_ms + s.placement.predictor_overhead_ms).to_bits(),
            "{what}: {side} completion time"
        );
    }
    assert_eq!(
        a.placement.report.energy_j.to_bits(),
        b.placement.report.energy_j.to_bits(),
        "{what}: energy"
    );
    assert_eq!(
        a.placement.report.utilization.to_bits(),
        b.placement.report.utilization.to_bits(),
        "{what}: utilization"
    );
}

#[test]
fn all_modes_agree_across_thread_counts() {
    let requests = mixed_requests(2, 1);
    let uncached = deep_engine(ServeMode::Uncached);
    let baseline = uncached.serve_all(&requests, 1);

    for mode in [ServeMode::Uncached, ServeMode::Cached] {
        for threads in [1usize, 4, 16] {
            let engine = deep_engine(mode);
            let served = engine.serve_all(&requests, threads);
            assert_eq!(served.len(), baseline.len());
            for ((s, b), &request) in served.iter().zip(&baseline).zip(&requests) {
                assert_identical(request, s, b, &format!("{mode:?} x{threads}"));
            }
        }
    }
}

#[test]
fn zero_overhead_config_makes_placements_fully_bit_identical() {
    // With flop_ns = 0 every path charges zero overhead, so entire
    // placements — including time_ms — compare equal across modes.
    let requests = mixed_requests(2, 0);
    let config = ServeConfig {
        flop_ns: 0.0,
        hit_overhead_ms: 0.0,
        ..ServeConfig::default()
    };
    let make = |mode| {
        ServeEngine::new(
            HeteroMap::with_trained_deep(40, 9),
            ServeConfig { mode, ..config },
        )
    };
    let baseline = make(ServeMode::Uncached).serve_all(&requests, 1);
    let served = make(ServeMode::Cached).serve_all(&requests, 8);
    for (s, b) in served.iter().zip(&baseline) {
        assert_eq!(s.placement, b.placement);
    }
}

#[test]
fn hits_charge_near_zero_overhead_and_misses_charge_full_inference_cost() {
    let engine = deep_engine(ServeMode::Cached);
    let expected_miss_ms = engine.miss_overhead_ms();
    assert!(
        expected_miss_ms > 0.0,
        "a trained NN must have nonzero inference cost"
    );

    let miss = engine.schedule(Workload::PageRank, Dataset::LiveJournal);
    assert_eq!(miss.source, ServeSource::Computed);
    assert_eq!(
        miss.placement.predictor_overhead_ms.to_bits(),
        expected_miss_ms.to_bits(),
        "miss charges inference_flops x flop_ns deterministically"
    );

    let hit = engine.schedule(Workload::PageRank, Dataset::LiveJournal);
    assert_eq!(hit.source, ServeSource::CacheHit);
    assert_eq!(
        hit.placement.predictor_overhead_ms, 0.0,
        "default hit overhead is zero"
    );
    assert!(
        hit.placement.report.time_ms < miss.placement.report.time_ms,
        "the miss's completion time carries the inference cost: hit {} vs miss {}",
        hit.placement.report.time_ms,
        miss.placement.report.time_ms
    );
    assert_eq!(
        (miss.placement.report.time_ms - expected_miss_ms).to_bits(),
        hit.placement.report.time_ms.to_bits(),
        "hit and miss differ by exactly the charged overhead"
    );

    // A configured hit overhead is charged verbatim.
    let priced = ServeEngine::new(
        deep_model(),
        ServeConfig {
            hit_overhead_ms: 0.25,
            ..ServeConfig::default()
        },
    );
    priced.schedule(Workload::PageRank, Dataset::LiveJournal);
    let priced_hit = priced.schedule(Workload::PageRank, Dataset::LiveJournal);
    assert_eq!(priced_hit.placement.predictor_overhead_ms, 0.25);
}

#[test]
fn concurrent_identical_requests_agree_and_leave_one_entry() {
    let engine = deep_engine(ServeMode::Cached);
    // 64 concurrent requests for the SAME combination: each either misses
    // and runs the predictor or hits an entry an earlier miss stored.
    let requests: Vec<(Workload, GraphStats)> = (0..64)
        .map(|_| (Workload::Bfs, Dataset::Facebook.stats()))
        .collect();
    let served = engine.serve_all(&requests, 16);
    let computed = served
        .iter()
        .filter(|s| s.source == ServeSource::Computed)
        .count();
    assert!(computed >= 1);
    let snap = engine.metrics().snapshot();
    assert_eq!(
        snap.cache_misses, computed as u64,
        "every computed result is exactly one recorded miss"
    );
    assert_eq!(
        snap.cache_hits + snap.cache_misses,
        64,
        "every request is a hit or a miss"
    );
    assert_eq!(engine.cache_len(), 1, "one combination, one entry");
    // All 64 answers agree.
    for s in &served {
        assert_eq!(s.placement.config, served[0].placement.config);
    }
}

#[test]
fn invalidation_under_concurrency_is_safe_and_counted() {
    let engine = deep_engine(ServeMode::Cached);
    let requests = mixed_requests(1, 0);
    std::thread::scope(|scope| {
        let eng = &engine;
        let reqs = &requests;
        for worker in 0..4 {
            scope.spawn(move || {
                for (w, stats) in reqs.iter().skip(worker).step_by(4) {
                    eng.schedule_stats(*w, *stats);
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..5 {
                engine.invalidate();
                std::thread::yield_now();
            }
        });
    });
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.cache_invalidations, 5);
    // Every request resolved despite racing invalidations.
    assert_eq!(snap.requests, requests.len() as u64);
    // And the engine still serves correct answers afterwards.
    let (w, stats) = requests[0];
    let after = engine.schedule_stats(w, stats);
    let reference = engine.with_model(|m| m.schedule_stats(w, stats));
    assert_eq!(after.placement.config, reference.config);
}

#[test]
fn invalidation_races_inference_while_faults_are_active() {
    use heteromap_accel::{FaultPlan, FaultState};
    use heteromap_model::Accelerator;
    use heteromap_predict::DecisionTree;

    let engine = deep_engine(ServeMode::Cached);
    // Fault schedules the chaos thread cycles through mid-flight: flaky GPU,
    // throttled multicore, dead GPU, healthy again.
    let plans = [
        FaultPlan::transient(0.7, 0xBAD),
        FaultPlan::healthy().with_state(
            Accelerator::Multicore,
            FaultState::Degraded {
                surviving_core_fraction: 0.1,
            },
        ),
        FaultPlan::gpu_down(),
        FaultPlan::healthy(),
    ];
    let requests = mixed_requests(3, 1);
    let served: Vec<Served> = std::thread::scope(|scope| {
        let eng = &engine;
        let reqs = &requests;
        let workers: Vec<_> = (0..8)
            .map(|worker| {
                scope.spawn(move || {
                    reqs.iter()
                        .skip(worker)
                        .step_by(8)
                        .map(|(w, stats)| eng.schedule_stats(*w, *stats))
                        .collect::<Vec<Served>>()
                })
            })
            .collect();
        // The chaos thread: swap fault plans (each swap invalidates the
        // cache), interleave explicit invalidations, and hot-swap the
        // predictor once — all while misses are predicting.
        scope.spawn(|| {
            for (i, plan) in plans.iter().cycle().take(12).enumerate() {
                engine.set_fault_plan(*plan);
                if i == 5 {
                    engine.replace_predictor(Box::new(DecisionTree::paper()));
                }
                engine.invalidate();
                std::thread::yield_now();
            }
        });
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("serving worker panicked"))
            .collect()
    });

    // No panic, no deadlock, and every request resolved to a placement —
    // possibly a failed-over or incomplete one while the GPU was down, but
    // always a returned answer with a coherent attempt log.
    assert_eq!(served.len(), requests.len());
    for s in &served {
        assert!(
            s.placement.completed() || !s.placement.attempts.records.is_empty(),
            "an unfinished placement must carry the failure evidence"
        );
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.requests, requests.len() as u64);
    assert!(
        snap.cache_invalidations >= 12,
        "both invalidation paths count"
    );

    // The engine settles: with the final healthy plan installed, a fresh
    // answer matches the live model exactly.
    let (w, stats) = requests[0];
    let after = engine.schedule_stats(w, stats);
    let reference = engine.with_model(|m| m.schedule_stats(w, stats));
    assert_eq!(after.placement.config, reference.config);
    assert!(after.placement.completed());
}

#[test]
fn metrics_snapshot_reports_rates_distribution_and_latency() {
    let engine = deep_engine(ServeMode::Cached);
    let requests = mixed_requests(3, 1);
    engine.serve_all(&requests, 4);
    let snap = engine.metrics().snapshot();

    assert_eq!(snap.requests, requests.len() as u64);
    assert!(snap.cache_hits > 0, "repeated combos must hit");
    assert!(
        snap.cache_hit_rate > 0.0 && snap.cache_hit_rate < 1.0,
        "hit rate {}",
        snap.cache_hit_rate
    );
    assert!(snap.schedule_p50_ms > 0.0);
    assert!(snap.schedule_p99_ms >= snap.schedule_p50_ms);
    assert!(snap.schedule_p95_ms >= snap.schedule_p50_ms);
    assert!(
        snap.gpu_placements + snap.multicore_placements == snap.requests,
        "every request routes somewhere"
    );

    let json = snap.to_json();
    assert!(json.contains("\"cache_hit_rate\""));
    assert!(json.contains("\"schedule_p99_ms\""));
    assert!(!json.contains("NaN"));
}

#[test]
fn cached_serving_is_bit_identical_under_contention_with_racing_invalidation() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // 16 threads hammering the cached engine while another thread
    // repeatedly invalidates the cache must still produce answers
    // bit-identical to the single-threaded uncached baseline. Invalidation
    // changes which path (miss/hit) serves a request, never the answer —
    // the model itself is untouched.
    let requests = mixed_requests(2, 3);
    let baseline = deep_engine(ServeMode::Uncached).serve_all(&requests, 1);

    let engine = deep_engine(ServeMode::Cached);
    let done = AtomicBool::new(false);
    let served = std::thread::scope(|scope| {
        let invalidator = scope.spawn(|| {
            let mut rounds = 0u32;
            while !done.load(Ordering::Relaxed) {
                engine.invalidate();
                rounds += 1;
                std::thread::yield_now();
            }
            rounds
        });
        let out = engine.serve_all(&requests, 16);
        done.store(true, Ordering::Relaxed);
        let rounds = invalidator.join().expect("invalidator panicked");
        assert!(rounds >= 1, "invalidations actually raced the serving");
        out
    });

    assert_eq!(served.len(), baseline.len());
    for ((s, b), &request) in served.iter().zip(&baseline).zip(&requests) {
        assert_identical(
            request,
            s,
            b,
            "cached x16 vs uncached x1 under invalidation",
        );
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.requests, requests.len() as u64);
}

#[test]
fn blocked_forward_is_bit_identical_to_scalar_reference_across_combo_sweep() {
    // The optimized inference path (lane-unrolled dots, cache-blocked
    // GEMM, flat activation arena) must agree bit-for-bit with the
    // deliberately naive scalar reference on every (workload, dataset)
    // combination.
    let nn = deep_nn();
    let model = deep_model();
    let mut queries = Vec::new();
    for &w in &Workload::all() {
        for &d in &Dataset::all() {
            let i = model.ivector(&d.stats());
            queries.push((w.b_vector(), i));
        }
    }
    assert_eq!(queries.len(), 81, "the full 81-combo sweep");

    use heteromap_predict::Predictor;
    for (b, i) in &queries {
        let single = nn.predict(b, i);
        let reference = nn.predict_reference(b, i);
        for (k, (fast, slow)) in single
            .as_array()
            .iter()
            .zip(reference.as_array().iter())
            .enumerate()
        {
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "single vs reference, output {k}"
            );
        }
    }
}
