//! **HeteroMap** — a runtime performance predictor for efficient processing
//! of graph analytics on heterogeneous multi-accelerators.
//!
//! Reproduction of Ahmad, Dogan, Michael & Khan, ISPASS 2019. The framework
//! couples:
//!
//! * a **multi-accelerator system** (GPU + multicore with discrete memories;
//!   physical hardware is replaced by the calibrated analytical simulator of
//!   [`heteromap_accel`] — see DESIGN.md §2),
//! * **variable spaces** `B` (13 benchmark variables), `I` (4 input
//!   variables) and `M` (20 machine choices) from [`heteromap_model`],
//! * **predictors** from [`heteromap_predict`]: the §IV decision tree and
//!   the §V automated learners (deep networks, regressions, adaptive
//!   library), trained offline on autotuned synthetic benchmarks,
//! * **real graph kernels** ([`heteromap_kernels`]) and **graph substrate**
//!   ([`heteromap_graph`]) for host execution and input characterization.
//!
//! # Quick start
//!
//! ```
//! use heteromap::HeteroMap;
//! use heteromap_graph::datasets::Dataset;
//! use heteromap_model::Workload;
//!
//! // The zero-training decision-tree heuristic of Section IV:
//! let hm = HeteroMap::with_decision_tree();
//! let placement = hm.schedule(Workload::PageRank, Dataset::LiveJournal);
//! println!(
//!     "PR/LJ -> {} in {:.2} ms",
//!     placement.accelerator(),
//!     placement.report.time_ms
//! );
//! ```
//!
//! For the paper's best results, train the Deep.128 learner offline:
//!
//! ```no_run
//! use heteromap::HeteroMap;
//! let hm = HeteroMap::with_trained_deep(2_000, 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breaker;
pub mod framework;
pub mod online;
pub mod report;
pub mod resilient;
mod telemetry;

pub use breaker::{BreakerBoard, BreakerConfig, BreakerState, CircuitBreaker};
pub use framework::HeteroMap;
pub use heteromap_kernels::par::par_map;
pub use online::stream_with;
pub use report::{Placement, StreamReport};
pub use resilient::{
    clamp_config_for, AttemptLog, AttemptOutcome, AttemptRecord, DeployOptions, RetryPolicy,
    StaticDefault,
};
