//! Real multithreaded graph-analytics kernels.
//!
//! The paper's benchmarks come from CRONO, GAP, MiBench, Rodinia and
//! Pannotia; this crate reimplements the nine evaluated kernels in Rust on a
//! persistent worker-thread [`pool`], so the reproduction can execute the
//! actual algorithms on host hardware (the accelerator *performance* numbers
//! come from `heteromap-accel`'s simulator — see DESIGN.md §2 — but
//! correctness, thread-count scaling and the algorithms themselves are real):
//!
//! * [`bfs`] — level-synchronous breadth-first search,
//! * [`sssp_bf`] — Bellman-Ford shortest paths (data-parallel relaxation),
//! * [`sssp_delta`] — Δ-stepping shortest paths (buckets + reductions),
//! * [`dfs`] — work-list depth-first reachability,
//! * [`pagerank`] / [`pagerank_dp`] — pull- and push-based PageRank,
//! * [`triangle`] — triangle counting by sorted intersection,
//! * [`conncomp`] — connected components by one union-find pass,
//! * [`community`] — community detection by label propagation,
//! * [`spmv`] / [`kcore`] / [`labelprop`] — the GARDENIA widening of the
//!   benchmark space (sparse matrix–vector multiply, k-core peeling,
//!   push-direction label propagation); community detection and label
//!   propagation share one hash-free sparse-accumulator vote,
//! * [`verify`] — sequential reference implementations used in tests,
//! * [`runner`] — uniform dispatch used by examples and benches.
//!
//! The execution engine lives in [`pool`] (long-lived parked workers,
//! spawned once per process) and [`frontier`] (lock-free shared frontier
//! buffers and the frontier rounds that BFS, k-core, Bellman-Ford and
//! Δ-stepping run on); [`par`] exposes the schedulers, the per-kernel
//! round floors and the ordered fan-out [`par::par_map`].
//!
//! BFS, Bellman-Ford, k-core and connected components are work-efficient:
//! each round touches only the vertices whose state can still change. Their
//! outputs are unique fixpoints (BFS levels, the least rounded path sums,
//! core numbers, component minima), so they equal the [`verify`] oracles
//! bit for bit at every thread count and schedule. The simulated
//! accelerators keep charging each workload the paper's B-profile, which
//! describes the algorithm class rather than these host kernels.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bfs;
pub mod community;
pub mod conncomp;
pub mod dfs;
pub mod frontier;
pub mod kcore;
pub mod labelprop;
pub mod pagerank;
pub mod pagerank_dp;
pub mod par;
pub mod pool;
pub mod runner;
pub mod spmv;
pub mod sssp_bf;
pub mod sssp_delta;
pub mod triangle;
pub mod verify;
mod vote;

pub use runner::{KernelOutput, KernelRunner};

/// Distance value used by the shortest-path kernels.
pub type Distance = f32;

/// Sentinel for "unreached" in level/distance arrays.
pub const UNREACHED: u32 = u32::MAX;
