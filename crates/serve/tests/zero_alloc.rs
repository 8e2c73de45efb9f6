//! Steady-state zero-allocation regression tests.
//!
//! The serving hot path — cache lookup, deterministic deploy, metrics — must
//! not touch the heap once warm. These tests bracket warm serving with the
//! obs counting-allocator probe (`alloc-probe` feature, enabled through this
//! crate's dev-dependencies) and assert the per-thread allocation delta is
//! exactly zero. If the probe is compiled out the tests skip rather than
//! report a vacuous pass.

use heteromap::HeteroMap;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::GraphStats;
use heteromap_model::Workload;
use heteromap_serve::{ServeConfig, ServeEngine, ServeMode, ServeSource};

fn combos() -> Vec<(Workload, GraphStats)> {
    let mut out = Vec::new();
    for &w in &Workload::all() {
        for &d in &Dataset::all() {
            out.push((w, d.stats()));
        }
    }
    out
}

fn assert_steady_state_alloc_free(engine: &ServeEngine, what: &str) {
    let requests = combos();
    // Warm-up: populate the cache and grow every lazy buffer (thread-local
    // scratches, metrics, hash maps) to steady-state size.
    for _ in 0..2 {
        for &(w, stats) in &requests {
            engine.schedule_stats(w, stats);
        }
    }

    let before = heteromap_obs::thread_alloc_count();
    for _ in 0..3 {
        for &(w, stats) in &requests {
            let served = engine.schedule_stats(w, stats);
            assert_eq!(served.source, ServeSource::CacheHit, "{what}: warm = hit");
        }
    }
    let after = heteromap_obs::thread_alloc_count();
    assert_eq!(
        after - before,
        0,
        "{what}: steady-state cached serving allocated {} times",
        after - before
    );
}

#[test]
fn cached_steady_state_is_allocation_free() {
    if !heteromap_obs::probe_enabled() {
        eprintln!("alloc-probe feature off; skipping");
        return;
    }
    // Both predictor kinds: the closed-form tree and the deep network, whose
    // misses warm the thread-local inference scratch.
    for (model, what) in [
        (HeteroMap::with_decision_tree(), "cached/decision-tree"),
        (HeteroMap::with_trained_deep(20, 5), "cached/deep"),
    ] {
        let engine = ServeEngine::new(model, ServeConfig::with_mode(ServeMode::Cached));
        assert_steady_state_alloc_free(&engine, what);
    }
}

#[test]
fn uncached_neural_inference_is_allocation_free_once_warm() {
    // The inference kernel itself (flat ping-pong arena + thread-local
    // scratch) must also run without heap traffic after the first call.
    if !heteromap_obs::probe_enabled() {
        eprintln!("alloc-probe feature off; skipping");
        return;
    }
    let engine = ServeEngine::new(
        HeteroMap::with_trained_deep(20, 5),
        ServeConfig::with_mode(ServeMode::Uncached),
    );
    let requests = combos();
    for &(w, stats) in &requests {
        engine.schedule_stats(w, stats);
    }
    let before = heteromap_obs::thread_alloc_count();
    for &(w, stats) in &requests {
        let served = engine.schedule_stats(w, stats);
        assert_eq!(served.source, ServeSource::Computed);
    }
    let after = heteromap_obs::thread_alloc_count();
    assert_eq!(
        after - before,
        0,
        "uncached warm inference allocated {} times",
        after - before
    );
}
