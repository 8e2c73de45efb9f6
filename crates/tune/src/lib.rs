//! `heteromap-tune` — the parallel autotuning subsystem.
//!
//! An OpenTuner-style ensemble tuner over the HeteroMap `MSpace`
//! (the M1–M20 mapping-parameter space): several independent search
//! techniques — seeded random sampling, hill-climbing with random restarts,
//! steady-state genetic search, and pattern/coordinate descent — coordinated
//! by a sliding-window AUC credit bandit that allocates each oracle
//! evaluation to the technique with the best recent improvement record.
//!
//! Three properties shape the design:
//!
//! * **Determinism.** Proposals are generated serially; only oracle
//!   evaluation is parallel, with pre-assigned indices merged back in order.
//!   Same seed + budget ⇒ bit-identical results at any worker count.
//! * **No wasted budget.** A bit-exact visited memo ([`config_key`]) ensures
//!   an oracle is never called twice for the same configuration — neither by
//!   the ensemble nor by the legacy [`CoarseRefine`] strategy.
//! * **Resumability.** [`TuneLog`] persists provenance plus every
//!   evaluation; replaying it through the deterministic loop reconstructs
//!   the run's exact state and continues where it stopped.

#![warn(missing_docs)]

pub mod bandit;
pub mod coarse;
pub mod ensemble;
pub mod log;
pub mod placement;
pub mod technique;
pub mod visited;

pub use bandit::AucBandit;
pub use coarse::{CoarseOutcome, CoarseRefine};
pub use ensemble::{
    mix, CurvePoint, EnsembleTuner, StopReason, Strategy, TechniqueStats, TuneConfig, TuneOutcome,
};
pub use log::{EvalRecord, TuneLog, TuneLogError};
pub use placement::{PlacementSpace, PLACEMENT_SLOTS};
pub use technique::{
    Evolution, GridSweep, HillClimb, PatternSearch, RandomSearch, SearchState, Technique,
};
pub use visited::config_key;
