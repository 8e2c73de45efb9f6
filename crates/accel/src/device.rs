//! Device instances for fleet-scale clusters.
//!
//! [`crate::system::MultiAcceleratorSystem`] models the paper's Fig. 2 pair:
//! exactly one GPU and one multicore. A fleet scheduler needs *N devices*,
//! each an independent instance of some spec with its own memory, its own
//! health and its own queue. This module supplies that substrate:
//!
//! * [`DeviceInstance`] — one physical device: a spec, a stable id, a memory
//!   capacity, and fallible evaluation under a per-device [`FaultState`]
//!   (reusing PR 1's fault semantics: `Down` rejects, `Degraded` runs on the
//!   surviving silicon via [`AcceleratorSpec::degraded`], `Transient` fails
//!   per attempt with a deterministic draw);
//! * [`Occupancy`] — the device's simulated queue: when it next falls idle,
//!   cumulative busy time, jobs absorbed. Schedulers read the backlog to
//!   estimate completion times and commit work through [`Occupancy::admit`].
//!
//! Everything is deterministic: a transient draw is a pure function of
//! `(seed, device id, job uid, attempt)`, so a simulation replaying the same
//! trace reproduces every outcome bit for bit regardless of thread count.

use crate::cost::{CostModel, SimReport, WorkloadContext};
use crate::fault::{DeployError, FaultState};
use crate::spec::AcceleratorSpec;
use heteromap_model::{Accelerator, MConfig};
use std::hash::{Hash, Hasher};

/// One accelerator instance in a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceInstance {
    /// Stable cluster-wide identifier (index into the device list).
    pub id: usize,
    /// The hardware this instance is a copy of.
    pub spec: AcceleratorSpec,
    /// Device-local memory capacity in GiB. Defaults to the spec's own
    /// capacity — fleet devices own their memory, unlike the paper pair's
    /// pinned-to-smallest setup.
    pub mem_gb: f64,
}

impl DeviceInstance {
    /// A device instance of `spec` with its native memory capacity.
    pub fn new(id: usize, spec: AcceleratorSpec) -> Self {
        let mem_gb = spec.mem_gb;
        DeviceInstance { id, spec, mem_gb }
    }

    /// The scheduling role this device plays (`M1` routing): GPUs take GPU
    /// configurations, everything else takes multicore configurations.
    pub fn role(&self) -> Accelerator {
        if self.spec.is_gpu() {
            Accelerator::Gpu
        } else {
            Accelerator::Multicore
        }
    }

    /// The spec the device presents under `state`: full silicon when
    /// healthy, the surviving fraction when degraded.
    pub fn effective_spec(&self, state: FaultState) -> AcceleratorSpec {
        match state {
            FaultState::Degraded { .. } => self.spec.degraded(state.surviving_fraction()),
            _ => self.spec.clone(),
        }
    }

    /// Infallible cost-model evaluation under `state` — `None` when the
    /// device is [`FaultState::Down`]. Transient states evaluate like
    /// healthy ones (the flakiness is per *attempt*, not per quote); use
    /// [`DeviceInstance::try_run_attempt`] to resolve an actual run.
    pub fn evaluate(
        &self,
        model: &CostModel,
        ctx: &WorkloadContext,
        cfg: &MConfig,
        state: FaultState,
    ) -> Option<SimReport> {
        if state == FaultState::Down {
            return None;
        }
        Some(model.evaluate_with_memory(&self.effective_spec(state), ctx, cfg, self.mem_gb))
    }

    /// Fallible execution of attempt `attempt` of job `job` under `state`,
    /// mirroring [`crate::system::MultiAcceleratorSystem::try_deploy_attempt`]
    /// for a single device:
    ///
    /// * `Down` — always [`DeployError::AcceleratorDown`];
    /// * `Transient` — fails with the state's probability, drawn
    ///   deterministically from `(seed, device id, job, attempt)`; the error
    ///   carries the simulated time wasted before the fault struck;
    /// * `Degraded` — succeeds on the surviving core fraction;
    /// * `Healthy` — always succeeds.
    #[allow(clippy::too_many_arguments)] // the (seed, job, attempt) draw fingerprint
    pub fn try_run_attempt(
        &self,
        model: &CostModel,
        ctx: &WorkloadContext,
        cfg: &MConfig,
        state: FaultState,
        seed: u64,
        job: u64,
        attempt: u32,
    ) -> Result<SimReport, DeployError> {
        let accelerator = self.role();
        let Some(report) = self.evaluate(model, ctx, cfg, state) else {
            return Err(DeployError::AcceleratorDown { accelerator });
        };
        if let FaultState::Transient { failure_rate } = state {
            let rate = failure_rate.clamp(0.0, 1.0);
            if self.hash_unit(seed, job, attempt, 0x51) < rate {
                let frac = self.hash_unit(seed, job, attempt, 0xA7).clamp(0.05, 0.95);
                return Err(DeployError::TransientFailure {
                    accelerator,
                    attempt,
                    failed_after_ms: frac * report.time_ms,
                });
            }
        }
        Ok(report)
    }

    /// Deterministic draw in `[0, 1)` from the device/job/attempt
    /// fingerprint.
    fn hash_unit(&self, seed: u64, job: u64, attempt: u32, salt: u8) -> f64 {
        let mut h = heteromap_model::StableHasher::new();
        seed.hash(&mut h);
        (self.id as u64).hash(&mut h);
        job.hash(&mut h);
        attempt.hash(&mut h);
        salt.hash(&mut h);
        h.finish() as f64 / (u64::MAX as f64 + 1.0)
    }
}

/// Simulated queue state of one device: everything a scheduler needs to
/// reason about *when* new work would complete.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Occupancy {
    free_at_ms: f64,
    busy_ms: f64,
    jobs: u64,
}

impl Occupancy {
    /// An idle device at simulated time zero.
    pub fn new() -> Self {
        Occupancy::default()
    }

    /// Absolute simulated time at which the device next falls idle.
    pub fn free_at_ms(&self) -> f64 {
        self.free_at_ms
    }

    /// Cumulative simulated milliseconds of admitted work.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Jobs admitted so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Queue backlog as seen at `now_ms`: how long new work would wait
    /// before starting (zero when the device is idle).
    pub fn backlog_ms(&self, now_ms: f64) -> f64 {
        (self.free_at_ms - now_ms).max(0.0)
    }

    /// Admits `work_ms` of simulated work at `now_ms` and returns its
    /// `(start, finish)` times. Work runs serially after the existing
    /// backlog.
    pub fn admit(&mut self, now_ms: f64, work_ms: f64) -> (f64, f64) {
        let start = self.free_at_ms.max(now_ms);
        let finish = start + work_ms.max(0.0);
        self.free_at_ms = finish;
        self.busy_ms += work_ms.max(0.0);
        self.jobs += 1;
        (start, finish)
    }

    /// Fraction of `horizon_ms` the device spent busy (clamped to `[0, 1]`).
    pub fn utilization(&self, horizon_ms: f64) -> f64 {
        if horizon_ms <= 0.0 {
            return 0.0;
        }
        (self.busy_ms / horizon_ms).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::datasets::Dataset;
    use heteromap_model::Workload;

    fn ctx() -> WorkloadContext {
        WorkloadContext::for_workload(Workload::Bfs, Dataset::Facebook.stats())
    }

    #[test]
    fn role_follows_spec_kind() {
        assert_eq!(
            DeviceInstance::new(0, AcceleratorSpec::gtx_970()).role(),
            Accelerator::Gpu
        );
        assert_eq!(
            DeviceInstance::new(1, AcceleratorSpec::cpu_40core()).role(),
            Accelerator::Multicore
        );
    }

    #[test]
    fn degraded_devices_run_slower_and_down_devices_reject() {
        let model = CostModel::paper();
        let dev = DeviceInstance::new(0, AcceleratorSpec::xeon_phi_7120p());
        let cfg = heteromap_model::MConfig::multicore_default();
        let healthy = dev
            .evaluate(&model, &ctx(), &cfg, FaultState::Healthy)
            .expect("healthy evaluates");
        let degraded = dev
            .evaluate(
                &model,
                &ctx(),
                &cfg,
                FaultState::Degraded {
                    surviving_core_fraction: 0.25,
                },
            )
            .expect("degraded evaluates");
        assert!(degraded.time_ms > healthy.time_ms);
        assert!(dev
            .evaluate(&model, &ctx(), &cfg, FaultState::Down)
            .is_none());
        let err = dev
            .try_run_attempt(&model, &ctx(), &cfg, FaultState::Down, 1, 1, 0)
            .expect_err("down devices reject");
        assert!(!err.is_retryable());
    }

    #[test]
    fn transient_draws_reproduce_and_redraw_per_attempt() {
        let model = CostModel::paper();
        let dev = DeviceInstance::new(3, AcceleratorSpec::gtx_750ti());
        let cfg = heteromap_model::MConfig::gpu_default();
        let state = FaultState::Transient { failure_rate: 0.5 };
        let once = dev.try_run_attempt(&model, &ctx(), &cfg, state, 9, 7, 0);
        let again = dev.try_run_attempt(&model, &ctx(), &cfg, state, 9, 7, 0);
        assert_eq!(once.is_ok(), again.is_ok(), "same attempt reproduces");
        let failures = (0..200)
            .filter(|&a| {
                dev.try_run_attempt(&model, &ctx(), &cfg, state, 9, 7, a)
                    .is_err()
            })
            .count();
        assert!((60..140).contains(&failures), "{failures} of 200 at p=0.5");
    }

    #[test]
    fn occupancy_queues_work_serially() {
        let mut occ = Occupancy::new();
        assert_eq!(occ.backlog_ms(0.0), 0.0);
        let (s1, f1) = occ.admit(10.0, 5.0);
        assert_eq!((s1, f1), (10.0, 15.0));
        // Admitted while busy: starts when the device frees up.
        let (s2, f2) = occ.admit(11.0, 2.0);
        assert_eq!((s2, f2), (15.0, 17.0));
        assert_eq!(occ.backlog_ms(11.0), 6.0);
        assert_eq!(occ.jobs(), 2);
        assert_eq!(occ.busy_ms(), 7.0);
        assert!(occ.utilization(100.0) > 0.0);
    }
}
