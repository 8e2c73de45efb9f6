//! **heteromap-serve** — a concurrent prediction-serving subsystem for the
//! HeteroMap reproduction.
//!
//! The paper's framework predicts machine choices per (workload, input)
//! combination; a long-running serving process sees the *same* discretized
//! `(B, I)` pairs over and over (the 0.1-increment grid of §III makes the
//! key space finite). This crate exploits that:
//!
//! * [`cache`] — a sharded LRU cache of predictions keyed by the exact bit
//!   patterns of the `(B, I)` pair, with generation-based invalidation when
//!   the fault plan or predictor changes;
//! * [`engine`] — [`ServeEngine`], which runs the predictor inline on a
//!   miss and charges deterministic predictor overhead into each placement
//!   (§V-A): a miss pays `inference_flops × flop_ns`, a hit pays
//!   [`ServeConfig::hit_overhead_ms`] (zero by default);
//! * [`metrics`] — an atomic [`MetricsRegistry`] (cache hit/miss counters,
//!   latency histograms with p50/p95/p99, per-accelerator placement counts)
//!   registered on a private `MetricsHub`, snapshotable as JSON and as
//!   Prometheus text;
//! * [`instrument`] — [`MeteredRunner`], which feeds host kernel latencies
//!   into the same registry;
//! * [`admission`] — [`AdmissionController`], the resilience front-end: a
//!   bounded in-flight budget that sheds overload onto stale cached
//!   predictions, per-request deadlines threaded into the core retry loop,
//!   and per-accelerator circuit breakers that route requests around a
//!   persistently failing accelerator. Refusals are typed ([`Rejected`]),
//!   never silent.
//!
//! Because the cache stores predictions and re-runs the deterministic
//! analytic deploy per request, cached and uncached serving return identical
//! placements — caching changes cost, never answers.
//!
//! # Example
//!
//! ```
//! use heteromap::HeteroMap;
//! use heteromap_graph::datasets::Dataset;
//! use heteromap_model::Workload;
//! use heteromap_serve::{ServeConfig, ServeEngine, ServeSource};
//!
//! let engine = ServeEngine::new(HeteroMap::with_decision_tree(), ServeConfig::default());
//! let first = engine.schedule(Workload::PageRank, Dataset::LiveJournal);
//! let second = engine.schedule(Workload::PageRank, Dataset::LiveJournal);
//! assert_eq!(second.source, ServeSource::CacheHit);
//! assert_eq!(first.placement.config, second.placement.config);
//! println!("{}", engine.metrics().snapshot().to_json());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod instrument;
pub mod metrics;
pub mod pad;

pub use admission::{AdmissionConfig, AdmissionController, AdmittedLoopReport, Rejected};
pub use cache::{CachedPrediction, InsertOutcome, PredKey, ShardedCache};
pub use engine::{ClosedLoopReport, ServeConfig, ServeEngine, ServeMode, ServeSource, Served};
pub use instrument::MeteredRunner;
pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use pad::CacheAligned;
