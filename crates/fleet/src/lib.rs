//! Fleet-scale co-scheduling of concurrent graph jobs over a heterogeneous
//! accelerator cluster.
//!
//! HeteroMap (ISPASS 2019) predicts the best (accelerator, M-config) for
//! *one* job on *one* machine. This crate scales that decision up: a
//! [`Cluster`] models N instances of each paper accelerator with per-device
//! queues ([`heteromap_accel::Occupancy`]) and per-episode health, a
//! [`FleetTrace`] generates a seeded concurrent job stream over the B×I
//! space, and a [`Placer`] decides where each job runs:
//!
//! * **random / round-robin** — health- and predictor-blind baselines;
//! * **greedy** — predicted completion = predicted run time + queue
//!   backlog, skipping Down devices and open circuit breakers
//!   ([`heteromap::CircuitBreaker`] per device);
//! * **evolution** — batch placement-vector search with the
//!   `heteromap-tune` ensemble through the
//!   [`heteromap_tune::PlacementSpace`] adapter, guarded by a greedy
//!   incumbent.
//!
//! Jobs caught on failing devices are re-predicted and migrated (the
//! M-config is re-clamped per target via [`heteromap::clamp_config_for`],
//! the same path the resilient deploy loop uses), with deadline-aware
//! shedding under overload. Rounds run on the [`heteromap::rounds`] engine,
//! so [`FleetReport::digest`] is bit-identical at any thread count.
//!
//! ```
//! use heteromap_fleet::{Cluster, FleetSim, FleetTrace, Placer};
//!
//! let sim = FleetSim::new(FleetTrace::smoke(42, 0.3), Cluster::uniform(1), Placer::Greedy);
//! let report = sim.run(4);
//! assert!(report.fully_accounted());
//! assert_eq!(report.digest, sim.run(1).digest);
//! ```

pub mod cluster;
pub mod placer;
pub mod sim;
pub mod trace;

pub use cluster::Cluster;
pub use placer::{batch_cost, evolve_batch, greedy_assign, BatchJob, Placer};
pub use sim::{FleetReport, FleetSim};
pub use trace::{FleetTrace, DATASETS, WORKLOADS};
