//! HeteroMap variable spaces: benchmark (`B`), input (`I`), machine (`M`).
//!
//! Section III of the paper discretizes every benchmark into 13 variables
//! `B1..B13`, every input graph into 4 variables `I1..I4`, and exposes 20
//! machine choices `M1..M20`; prediction is the mapping
//! `(B, I) -> M`. This crate implements those spaces:
//!
//! * [`BVector`] — benchmark variables with the paper's mutual-exclusion
//!   invariant on the phase variables B1–B5,
//! * [`IVector`] — input variables, log-normalized against literature maxima
//!   exactly as Section III-B describes,
//! * [`MConfig`] — machine configuration with deployable (unnormalized)
//!   accessors,
//! * [`discretize`] — the 0.1-increment grid (plus finer grids for the
//!   ablation study),
//! * [`mspace`] — enumeration/sampling of the M search space for autotuning,
//! * [`workload`] — the named graph benchmarks of Fig. 5 with their
//!   published/derived B profiles,
//! * [`hash`] — [`StableHasher`], the specified SipHash-1-3 behind every
//!   seeded draw and digest in the workspace.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bvec;
pub mod discretize;
pub mod hash;
pub mod ivec;
pub mod mconfig;
pub mod mspace;
pub mod workload;

pub use bvec::BVector;
pub use discretize::Grid;
pub use hash::{fold_digest, seeded_draw, seeded_pick, seeded_unit, StableHasher};
pub use ivec::IVector;
pub use mconfig::{Accelerator, MConfig, OmpSchedule};
pub use workload::Workload;

/// Number of benchmark variables (B1..B13).
pub const B_DIM: usize = 13;
/// Number of input variables (I1..I4).
pub const I_DIM: usize = 4;
/// Number of machine variables (M1..M20).
pub const M_DIM: usize = 20;
/// Model input dimensionality: the paper's 17 input neurons (13 B + 4 I).
pub const BI_DIM: usize = B_DIM + I_DIM;
