//! Deterministic accelerator fault injection.
//!
//! The paper's runtime assumes both accelerators of Fig. 2 are always
//! healthy; production deployments cannot. This module models the failure
//! modes a scheduler must survive, per accelerator:
//!
//! * [`FaultState::Healthy`] — behaves exactly like the seed simulator;
//! * [`FaultState::Degraded`] — a fraction of cores survived (partial board
//!   failure, thermal throttling to a core subset); deploys succeed on the
//!   surviving silicon;
//! * [`FaultState::Transient`] — each deploy attempt fails independently
//!   with a fixed probability (ECC storms, driver resets, preemption);
//! * [`FaultState::Down`] — every deploy fails (device lost).
//!
//! In addition, disabling streaming in the [`FaultPlan`] turns
//! working-set-exceeds-memory situations into hard
//! [`DeployError::OutOfMemory`] failures instead of the cost model's
//! Stinger-style chunking — the "OOM mid-stream" case.
//!
//! Everything is **deterministic**: whether attempt `k` of a given
//! combination fails is a pure function of the plan seed, the accelerator,
//! the workload context, the configuration, and `k`. Retrying the same
//! attempt reproduces the same outcome; retrying with the next attempt index
//! redraws. This keeps experiments bit-reproducible while still modelling
//! independent per-attempt failures.

use crate::cost::WorkloadContext;
use heteromap_model::{Accelerator, MConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Health of one accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum FaultState {
    /// Fully operational — deploys behave exactly like the seed simulator.
    #[default]
    Healthy,
    /// Only a fraction of the cores survived; deploys succeed but run on the
    /// surviving silicon (compute throughput scales with the fraction).
    Degraded {
        /// Fraction of cores still usable, clamped to `(0, 1]` on use.
        surviving_core_fraction: f64,
    },
    /// Each deploy attempt fails independently with this probability.
    Transient {
        /// Per-attempt failure probability in `[0, 1]`.
        failure_rate: f64,
    },
    /// The accelerator is lost; every deploy fails.
    Down,
}

impl FaultState {
    /// Whether deploys behave exactly like the fault-free simulator.
    pub fn is_healthy(&self) -> bool {
        matches!(self, FaultState::Healthy)
    }

    /// The usable core fraction under this state (1.0 unless `Degraded`).
    pub fn surviving_fraction(&self) -> f64 {
        match *self {
            FaultState::Degraded {
                surviving_core_fraction,
            } => surviving_core_fraction.clamp(1e-3, 1.0),
            _ => 1.0,
        }
    }
}

/// Fault-injection plan for a GPU + multicore pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// GPU health.
    pub gpu: FaultState,
    /// Multicore health.
    pub multicore: FaultState,
    /// When `false`, a working set larger than the accelerator's memory is a
    /// hard [`DeployError::OutOfMemory`] instead of being streamed in
    /// chunks by the cost model.
    pub streaming_enabled: bool,
    /// Seed for the deterministic per-attempt failure draws.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::healthy()
    }
}

impl FaultPlan {
    /// Both accelerators healthy, streaming enabled — the seed behaviour.
    pub fn healthy() -> Self {
        FaultPlan {
            gpu: FaultState::Healthy,
            multicore: FaultState::Healthy,
            streaming_enabled: true,
            seed: 0,
        }
    }

    /// GPU lost, multicore healthy — the canonical failover scenario.
    pub fn gpu_down() -> Self {
        FaultPlan {
            gpu: FaultState::Down,
            ..FaultPlan::healthy()
        }
    }

    /// Multicore lost, GPU healthy.
    pub fn multicore_down() -> Self {
        FaultPlan {
            multicore: FaultState::Down,
            ..FaultPlan::healthy()
        }
    }

    /// Both accelerators flaking with the same per-attempt failure rate.
    pub fn transient(failure_rate: f64, seed: u64) -> Self {
        FaultPlan {
            gpu: FaultState::Transient { failure_rate },
            multicore: FaultState::Transient { failure_rate },
            streaming_enabled: true,
            seed,
        }
    }

    /// Replaces the state of one accelerator.
    pub fn with_state(mut self, accelerator: Accelerator, state: FaultState) -> Self {
        match accelerator {
            Accelerator::Gpu => self.gpu = state,
            Accelerator::Multicore => self.multicore = state,
        }
        self
    }

    /// Disables streaming so oversize working sets OOM.
    pub fn without_streaming(mut self) -> Self {
        self.streaming_enabled = false;
        self
    }

    /// The state of `accelerator`.
    pub fn state_for(&self, accelerator: Accelerator) -> FaultState {
        match accelerator {
            Accelerator::Gpu => self.gpu,
            Accelerator::Multicore => self.multicore,
        }
    }

    /// Whether the plan is indistinguishable from a fault-free system.
    pub fn is_all_healthy(&self) -> bool {
        self.gpu.is_healthy() && self.multicore.is_healthy() && self.streaming_enabled
    }

    /// Deterministic failure draw for one deploy attempt: `Some(fraction)`
    /// when the attempt fails, where `fraction ∈ (0, 1)` is how far through
    /// the (fault-free) run the failure strikes. `None` when it succeeds.
    pub fn transient_failure_at(
        &self,
        accelerator: Accelerator,
        ctx: &WorkloadContext,
        cfg: &MConfig,
        attempt: u32,
    ) -> Option<f64> {
        let failure_rate = match self.state_for(accelerator) {
            FaultState::Transient { failure_rate } => failure_rate.clamp(0.0, 1.0),
            _ => return None,
        };
        let draw = hash_unit(self.seed, accelerator, ctx, cfg, attempt, 0x51);
        if draw < failure_rate {
            // Second, independent draw for the failure point; keep it off the
            // exact endpoints so a charged partial run is always positive.
            let frac = hash_unit(self.seed, accelerator, ctx, cfg, attempt, 0xA7);
            Some(frac.clamp(0.05, 0.95))
        } else {
            None
        }
    }
}

/// Deterministic draw in `[0, 1)` from the fault scenario fingerprint.
fn hash_unit(
    seed: u64,
    accelerator: Accelerator,
    ctx: &WorkloadContext,
    cfg: &MConfig,
    attempt: u32,
    salt: u8,
) -> f64 {
    let mut h = heteromap_model::StableHasher::new();
    seed.hash(&mut h);
    salt.hash(&mut h);
    (accelerator == Accelerator::Gpu).hash(&mut h);
    attempt.hash(&mut h);
    ctx.stats.vertices.hash(&mut h);
    ctx.stats.edges.hash(&mut h);
    ctx.stats.diameter.hash(&mut h);
    for x in ctx.b.as_array() {
        x.to_bits().hash(&mut h);
    }
    for x in cfg.as_array() {
        x.to_bits().hash(&mut h);
    }
    h.finish() as f64 / (u64::MAX as f64 + 1.0)
}

/// Why a deploy attempt failed.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DeployError {
    /// The selected accelerator is [`FaultState::Down`].
    AcceleratorDown {
        /// The dead accelerator.
        accelerator: Accelerator,
    },
    /// A transient fault killed this attempt partway through.
    TransientFailure {
        /// The faulting accelerator.
        accelerator: Accelerator,
        /// Zero-based attempt index that failed.
        attempt: u32,
        /// Simulated milliseconds spent before the fault struck (this is
        /// the cost a retry policy must charge for the wasted attempt).
        failed_after_ms: f64,
    },
    /// The working set exceeds the accelerator's memory and streaming is
    /// disabled in the [`FaultPlan`].
    OutOfMemory {
        /// The accelerator that could not hold the working set.
        accelerator: Accelerator,
        /// Working-set footprint in bytes.
        footprint_bytes: u64,
        /// Accelerator memory capacity in bytes.
        capacity_bytes: u64,
    },
}

impl DeployError {
    /// The accelerator the failed deploy targeted.
    pub fn accelerator(&self) -> Accelerator {
        match *self {
            DeployError::AcceleratorDown { accelerator }
            | DeployError::TransientFailure { accelerator, .. }
            | DeployError::OutOfMemory { accelerator, .. } => accelerator,
        }
    }

    /// Whether retrying the same accelerator can possibly succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, DeployError::TransientFailure { .. })
    }
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::AcceleratorDown { accelerator } => {
                write!(f, "{accelerator} is down")
            }
            DeployError::TransientFailure {
                accelerator,
                attempt,
                failed_after_ms,
            } => write!(
                f,
                "transient fault on {accelerator} (attempt {attempt}, after {failed_after_ms:.3} ms)"
            ),
            DeployError::OutOfMemory {
                accelerator,
                footprint_bytes,
                capacity_bytes,
            } => write!(
                f,
                "{accelerator} out of memory: working set {footprint_bytes} B exceeds {capacity_bytes} B with streaming disabled"
            ),
        }
    }
}

impl std::error::Error for DeployError {}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::datasets::Dataset;
    use heteromap_model::Workload;

    fn ctx() -> WorkloadContext {
        WorkloadContext::for_workload(Workload::Bfs, Dataset::Facebook.stats())
    }

    #[test]
    fn healthy_plan_is_all_healthy() {
        assert!(FaultPlan::healthy().is_all_healthy());
        assert!(!FaultPlan::gpu_down().is_all_healthy());
        assert!(!FaultPlan::healthy().without_streaming().is_all_healthy());
    }

    #[test]
    fn transient_draws_are_deterministic_per_attempt() {
        let plan = FaultPlan::transient(0.5, 42);
        let cfg = MConfig::gpu_default();
        let a = plan.transient_failure_at(Accelerator::Gpu, &ctx(), &cfg, 0);
        let b = plan.transient_failure_at(Accelerator::Gpu, &ctx(), &cfg, 0);
        assert_eq!(a, b, "same attempt must reproduce");
        // Across many attempts roughly half must fail — loose bounds.
        let failures = (0..200)
            .filter(|&k| {
                plan.transient_failure_at(Accelerator::Gpu, &ctx(), &cfg, k)
                    .is_some()
            })
            .count();
        assert!(
            (60..140).contains(&failures),
            "{failures} failures at p=0.5"
        );
    }

    #[test]
    fn transient_rate_extremes() {
        let cfg = MConfig::gpu_default();
        let never = FaultPlan::transient(0.0, 1);
        let always = FaultPlan::transient(1.0, 1);
        for k in 0..50 {
            assert!(never
                .transient_failure_at(Accelerator::Gpu, &ctx(), &cfg, k)
                .is_none());
            let frac = always
                .transient_failure_at(Accelerator::Gpu, &ctx(), &cfg, k)
                .expect("p=1 always fails");
            assert!((0.0..1.0).contains(&frac));
        }
    }

    #[test]
    fn healthy_and_down_states_never_draw_transients() {
        let plan = FaultPlan::gpu_down();
        let cfg = MConfig::gpu_default();
        assert!(plan
            .transient_failure_at(Accelerator::Gpu, &ctx(), &cfg, 0)
            .is_none());
        assert!(plan
            .transient_failure_at(Accelerator::Multicore, &ctx(), &cfg, 0)
            .is_none());
    }

    #[test]
    fn degraded_fraction_is_clamped() {
        let s = FaultState::Degraded {
            surviving_core_fraction: 7.0,
        };
        assert_eq!(s.surviving_fraction(), 1.0);
        let z = FaultState::Degraded {
            surviving_core_fraction: 0.0,
        };
        assert!(z.surviving_fraction() > 0.0);
        assert_eq!(FaultState::Down.surviving_fraction(), 1.0);
    }

    #[test]
    fn error_display_names_the_accelerator() {
        let e = DeployError::AcceleratorDown {
            accelerator: Accelerator::Gpu,
        };
        assert!(e.to_string().contains("GPU"));
        assert!(!e.is_retryable());
        let t = DeployError::TransientFailure {
            accelerator: Accelerator::Multicore,
            attempt: 2,
            failed_after_ms: 1.5,
        };
        assert!(t.is_retryable());
        assert_eq!(t.accelerator(), Accelerator::Multicore);
    }
}
