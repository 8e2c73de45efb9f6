//! Cross-crate regression tests for the prediction-serving subsystem: the
//! §V-A overhead accounting must survive the cache. A hit charges
//! (near-)zero predictor overhead; a miss charges the full neural inference
//! cost; and neither changes the predicted configuration or the deploy's
//! base completion time.

use heteromap::HeteroMap;
use heteromap_accel::FaultPlan;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::gen::{GraphGenerator, PowerLaw};
use heteromap_model::Workload;
use heteromap_serve::{ServeConfig, ServeEngine, ServeMode, ServeSource};

#[test]
fn cache_hits_skip_the_inference_cost_misses_pay_it() {
    // A real trained network, so inference_flops is the Deep.128 figure the
    // paper's overhead numbers are built on.
    let engine = ServeEngine::new(
        HeteroMap::with_trained_deep(30, 11),
        ServeConfig::with_mode(ServeMode::Cached),
    );
    let miss_cost_ms = engine.miss_overhead_ms();
    assert!(miss_cost_ms > 0.0, "Deep.128 inference is not free");

    for (w, d) in [
        (Workload::Bfs, Dataset::Facebook),
        (Workload::PageRank, Dataset::LiveJournal),
        (Workload::SsspDelta, Dataset::UsaCal),
    ] {
        let miss = engine.schedule(w, d);
        let hit = engine.schedule(w, d);
        assert_eq!(miss.source, ServeSource::Computed { batched: false }, "{w}");
        assert_eq!(hit.source, ServeSource::CacheHit, "{w}");

        // Miss: full deterministic inference cost, charged into time_ms.
        assert_eq!(
            miss.placement.predictor_overhead_ms.to_bits(),
            miss_cost_ms.to_bits(),
            "{w}: miss overhead"
        );
        // Hit: zero predictor overhead by default.
        assert_eq!(
            hit.placement.predictor_overhead_ms, 0.0,
            "{w}: hit overhead"
        );
        // Identical decision, identical base completion time: the placements
        // differ by exactly the charged overhead.
        assert_eq!(miss.placement.config, hit.placement.config, "{w}");
        assert_eq!(
            (miss.placement.report.time_ms - miss_cost_ms).to_bits(),
            hit.placement.report.time_ms.to_bits(),
            "{w}: base completion time"
        );
    }

    let snap = engine.metrics().snapshot();
    assert_eq!(snap.cache_hits, 3);
    assert_eq!(snap.cache_misses, 3);
    assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
}

#[test]
fn serving_matches_the_framework_decision_for_every_combination() {
    // The decision tree needs no training, so the full 81-combination sweep
    // stays fast: for every pair, the served placement must carry the exact
    // configuration the bare framework picks.
    let engine = ServeEngine::new(HeteroMap::with_decision_tree(), ServeConfig::default());
    let reference = HeteroMap::with_decision_tree();
    for w in Workload::all() {
        for d in Dataset::all() {
            // Twice: once as a miss, once as a hit.
            for _ in 0..2 {
                let served = engine.schedule(w, d);
                let bare = reference.schedule(w, d);
                assert_eq!(served.placement.config, bare.config, "{w} on {d}");
                assert_eq!(
                    served.placement.attempts.predictor_fallbacks,
                    bare.attempts.predictor_fallbacks,
                    "{w} on {d}"
                );
            }
        }
    }
    let snap = engine.metrics().snapshot();
    assert!(
        snap.cache_hit_rate >= 0.5 - 1e-12,
        "{}",
        snap.cache_hit_rate
    );
}

/// The engine's exposition with histogram buckets and sums dropped: those
/// carry wall-clock latencies. Every other line stays, `_count` included.
fn pinned_exposition(engine: &ServeEngine) -> String {
    engine
        .prometheus_text()
        .lines()
        .filter(|line| {
            let name = line.split(['{', ' ']).next().unwrap_or("");
            !name.ends_with("_bucket") && !name.ends_with("_sum")
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn serve_exposition_is_pinned() {
    // A fixed single-threaded sequence: distinct misses, repeated hits, one
    // stream, one ad-hoc counter, and a fault-plan swap that invalidates
    // the cache and re-routes the repeats.
    let engine = ServeEngine::new(
        HeteroMap::with_decision_tree(),
        ServeConfig::default().with_lanes(2),
    );
    let requests = [
        (Workload::Bfs, Dataset::Facebook),
        (Workload::PageRank, Dataset::LiveJournal),
        (Workload::SsspDelta, Dataset::UsaCal),
        (Workload::SsspBf, Dataset::UsaCal),
    ];
    for _ in 0..3 {
        for (w, d) in requests {
            engine.schedule(w, d);
        }
    }
    let g = PowerLaw::new(2_000, 4).generate(1);
    engine.schedule_stream(Workload::PageRank, &g, g.footprint_bytes() / 4);
    engine.metrics().counter("pinned runs").add(3);
    engine.set_fault_plan(FaultPlan::gpu_down());
    for _ in 0..2 {
        for (w, d) in requests {
            engine.schedule(w, d);
        }
    }
    let text = pinned_exposition(&engine);
    assert_eq!(text, EXPECTED_EXPOSITION);
}

/// Computed before serve registered on a metrics hub; must not move.
const EXPECTED_EXPOSITION: &str = r#"# HELP serve_admitted_total Requests admitted by the admission controller
# TYPE serve_admitted_total counter
serve_admitted_total 0
# HELP serve_batch_size Batched-inference batch sizes
# TYPE serve_batch_size histogram
serve_batch_size_count 12
# HELP serve_batched_requests_total Requests served through batches
# TYPE serve_batched_requests_total counter
serve_batched_requests_total 12
# HELP serve_batches_total Batched inference passes
# TYPE serve_batches_total counter
serve_batches_total 12
# HELP serve_breaker_closes_total Circuit-breaker recoveries
# TYPE serve_breaker_closes_total counter
serve_breaker_closes_total 0
# HELP serve_breaker_opens_total Circuit-breaker trips
# TYPE serve_breaker_opens_total counter
serve_breaker_opens_total 0
# HELP serve_cache_evictions_total LRU evictions
# TYPE serve_cache_evictions_total counter
serve_cache_evictions_total 0
# HELP serve_cache_hits_total Cache hits
# TYPE serve_cache_hits_total counter
serve_cache_hits_total 12
# HELP serve_cache_invalidations_total Explicit cache invalidations
# TYPE serve_cache_invalidations_total counter
serve_cache_invalidations_total 1
# HELP serve_cache_misses_total Cache misses
# TYPE serve_cache_misses_total counter
serve_cache_misses_total 12
# HELP serve_deadline_misses_total Requests that missed their deadline
# TYPE serve_deadline_misses_total counter
serve_deadline_misses_total 0
# HELP serve_extra_total Ad-hoc registered counters
# TYPE serve_extra_total counter
serve_extra_total{name="pinned_runs"} 3
# HELP serve_failed_placements_total Placements that exhausted every accelerator
# TYPE serve_failed_placements_total counter
serve_failed_placements_total 0
# HELP serve_kernel_latency_ms Host kernel-execution latency (ms)
# TYPE serve_kernel_latency_ms histogram
serve_kernel_latency_ms_count 0
# HELP serve_lane_drained_items_total Requests resolved by per-lane drains
# TYPE serve_lane_drained_items_total counter
serve_lane_drained_items_total{lane="0"} 0
serve_lane_drained_items_total{lane="1"} 0
# HELP serve_lane_drains_total Batch drains led per lane
# TYPE serve_lane_drains_total counter
serve_lane_drains_total{lane="0"} 0
serve_lane_drains_total{lane="1"} 0
# HELP serve_lane_occupancy_peak Peak submission-ring occupancy per lane
# TYPE serve_lane_occupancy_peak gauge
serve_lane_occupancy_peak{lane="0"} 0
serve_lane_occupancy_peak{lane="1"} 0
# HELP serve_placements_total Placements routed per accelerator
# TYPE serve_placements_total counter
serve_placements_total{accelerator="gpu"} 9
serve_placements_total{accelerator="multicore"} 15
# HELP serve_queue_depth_peak Peak submission-queue depth
# TYPE serve_queue_depth_peak gauge
serve_queue_depth_peak 1
# HELP serve_rejected_overload_total Requests rejected for overload
# TYPE serve_rejected_overload_total counter
serve_rejected_overload_total 0
# HELP serve_rejected_unhealthy_total Requests rejected with every accelerator unhealthy
# TYPE serve_rejected_unhealthy_total counter
serve_rejected_unhealthy_total 0
# HELP serve_schedule_latency_ms End-to-end serve latency per request (ms)
# TYPE serve_schedule_latency_ms histogram
serve_schedule_latency_ms_count 24
# HELP serve_single_flight_waits_total Duplicate requests that waited on an in-flight key
# TYPE serve_single_flight_waits_total counter
serve_single_flight_waits_total 0
# HELP serve_stale_served_total Overloaded requests shed onto stale cached predictions
# TYPE serve_stale_served_total counter
serve_stale_served_total 0
# HELP serve_stream_chunks_total Chunks scheduled through the streaming path
# TYPE serve_stream_chunks_total counter
serve_stream_chunks_total 4
# HELP serve_stream_restreams_total OOM re-streams
# TYPE serve_stream_restreams_total counter
serve_stream_restreams_total 0
"#;
