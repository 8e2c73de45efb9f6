//! Seeded chaos plans: which fault hits which accelerator, when, how hard.
//!
//! A [`ChaosPlan`] is a pure function from `(seed, intensity)` to a fault
//! schedule — no RNG state, no wall clock. Time is divided into **episodes**
//! of [`ChaosPlan::episode_len`] rounds; each episode draws one
//! [`ChaosEvent`] from the seed, so faults persist long enough for circuit
//! breakers to trip, route around them, cool down and probe — the dynamics
//! the harness exists to exercise. Requests are drawn from the same seed,
//! independently of the fault schedule, so resilient and baseline runs see
//! bit-identical workloads.

use heteromap_accel::{FaultPlan, FaultState};
use heteromap_graph::datasets::Dataset;
use heteromap_model::{seeded_pick, seeded_unit, Accelerator, Workload};

/// The workload pool requests are drawn from.
pub const WORKLOADS: [Workload; 5] = [
    Workload::Bfs,
    Workload::PageRank,
    Workload::SsspBf,
    Workload::SsspDelta,
    Workload::ConnComp,
];

/// The dataset pool requests are drawn from. Friendster's working set
/// exceeds the pinned 2 GB, so it is the victim of
/// [`ChaosEvent::OomBurst`] episodes (and streams harmlessly otherwise).
pub const DATASETS: [Dataset; 4] = [
    Dataset::UsaCal,
    Dataset::Facebook,
    Dataset::LiveJournal,
    Dataset::Friendster,
];

/// One episode's fault scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// Both accelerators healthy.
    Calm,
    /// One accelerator flakes per attempt.
    Transient {
        /// The flaking accelerator.
        accelerator: Accelerator,
        /// Per-attempt failure probability.
        failure_rate: f64,
    },
    /// One accelerator throttles to a sliver of its cores, inflating
    /// latency past typical deadlines without failing outright.
    LatencySpike {
        /// The throttled accelerator.
        accelerator: Accelerator,
        /// Surviving core fraction.
        surviving: f64,
    },
    /// One accelerator is lost entirely.
    Outage {
        /// The dead accelerator.
        accelerator: Accelerator,
    },
    /// Streaming is disabled system-wide: oversized working sets become
    /// hard out-of-memory failures.
    OomBurst,
    /// Both accelerators are lost — nothing can complete.
    CorrelatedOutage,
}

/// A deterministic chaos schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed for every draw (faults, severities, request mix).
    pub seed: u64,
    /// Fraction of episodes that are faulty, in `[0, 1]`.
    pub intensity: f64,
    /// Rounds to drive.
    pub rounds: u32,
    /// Requests evaluated per round.
    pub requests_per_round: u32,
    /// Rounds per fault episode.
    pub episode_len: u32,
    /// Per-request deadline as a multiple of the *worst-leg* fault-free
    /// completion time of the same (workload, dataset) combination, so a
    /// healthy system meets every deadline on either accelerator.
    pub deadline_factor: f64,
}

impl ChaosPlan {
    /// The standard plan: 96 rounds × 32 requests in 8-round episodes.
    pub fn seeded(seed: u64, intensity: f64) -> Self {
        ChaosPlan {
            seed,
            intensity: intensity.clamp(0.0, 1.0),
            rounds: 96,
            requests_per_round: 32,
            episode_len: 8,
            deadline_factor: 3.0,
        }
    }

    /// A small plan for CI smoke runs and unit tests.
    pub fn smoke(seed: u64, intensity: f64) -> Self {
        ChaosPlan {
            rounds: 24,
            requests_per_round: 8,
            episode_len: 4,
            ..ChaosPlan::seeded(seed, intensity)
        }
    }

    /// The episode a round belongs to.
    pub fn episode_of(&self, round: u32) -> u32 {
        round / self.episode_len.max(1)
    }

    /// The fault scenario of one episode — a pure function of
    /// `(seed, intensity, episode)`.
    pub fn event_for_episode(&self, episode: u32) -> ChaosEvent {
        if self.hash_unit(episode, 0x01) >= self.intensity {
            return ChaosEvent::Calm;
        }
        let severity = self.hash_unit(episode, 0x03);
        let accelerator = if self.hash_unit(episode, 0x04) < 0.5 {
            Accelerator::Gpu
        } else {
            Accelerator::Multicore
        };
        // 8 kind slots: transients and latency spikes dominate, correlated
        // outages stay rare (they are unrecoverable by construction).
        match (self.hash_unit(episode, 0x02) * 8.0) as u32 {
            0..=2 => ChaosEvent::Transient {
                accelerator,
                failure_rate: 0.55 + 0.4 * severity,
            },
            3..=4 => ChaosEvent::LatencySpike {
                accelerator,
                surviving: 0.08 + 0.12 * severity,
            },
            5 => ChaosEvent::Outage { accelerator },
            6 => ChaosEvent::OomBurst,
            _ => ChaosEvent::CorrelatedOutage,
        }
    }

    /// The [`FaultPlan`] to install for one round.
    pub fn fault_plan_for_round(&self, round: u32) -> FaultPlan {
        let episode = self.episode_of(round);
        let plan_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(episode));
        let base = FaultPlan {
            seed: plan_seed,
            ..FaultPlan::healthy()
        };
        match self.event_for_episode(episode) {
            ChaosEvent::Calm => base,
            ChaosEvent::Transient {
                accelerator,
                failure_rate,
            } => base.with_state(accelerator, FaultState::Transient { failure_rate }),
            ChaosEvent::LatencySpike {
                accelerator,
                surviving,
            } => base.with_state(
                accelerator,
                FaultState::Degraded {
                    surviving_core_fraction: surviving,
                },
            ),
            ChaosEvent::Outage { accelerator } => base.with_state(accelerator, FaultState::Down),
            ChaosEvent::OomBurst => base.without_streaming(),
            ChaosEvent::CorrelatedOutage => base
                .with_state(Accelerator::Gpu, FaultState::Down)
                .with_state(Accelerator::Multicore, FaultState::Down),
        }
    }

    /// The `(workload index, dataset index)` of one request slot — indices
    /// into [`WORKLOADS`] / [`DATASETS`], drawn independently of the fault
    /// schedule.
    pub fn request_for(&self, round: u32, slot: u32) -> (usize, usize) {
        seeded_pick(
            self.seed,
            0x00C0_FFEE,
            round,
            slot,
            WORKLOADS.len(),
            DATASETS.len(),
        )
    }

    /// Deterministic draw in `[0, 1)` for one `(episode, salt)` pair.
    fn hash_unit(&self, episode: u32, salt: u8) -> f64 {
        seeded_unit(self.seed, episode, salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_is_always_calm() {
        let plan = ChaosPlan::seeded(7, 0.0);
        for episode in 0..64 {
            assert_eq!(plan.event_for_episode(episode), ChaosEvent::Calm);
            assert!(plan
                .fault_plan_for_round(episode * plan.episode_len)
                .is_all_healthy());
        }
    }

    #[test]
    fn full_intensity_is_never_calm() {
        let plan = ChaosPlan::seeded(7, 1.0);
        let faulty = (0..64)
            .filter(|&e| plan.event_for_episode(e) != ChaosEvent::Calm)
            .count();
        assert_eq!(faulty, 64);
    }

    #[test]
    fn events_are_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::seeded(1, 0.5);
        let b = ChaosPlan::seeded(1, 0.5);
        let c = ChaosPlan::seeded(2, 0.5);
        let events_a: Vec<_> = (0..32).map(|e| a.event_for_episode(e)).collect();
        let events_b: Vec<_> = (0..32).map(|e| b.event_for_episode(e)).collect();
        let events_c: Vec<_> = (0..32).map(|e| c.event_for_episode(e)).collect();
        assert_eq!(events_a, events_b);
        assert_ne!(events_a, events_c, "different seed, different schedule");
    }

    #[test]
    fn rounds_within_an_episode_share_one_fault_plan() {
        let plan = ChaosPlan::seeded(11, 1.0);
        let first = plan.fault_plan_for_round(0);
        for round in 1..plan.episode_len {
            assert_eq!(plan.fault_plan_for_round(round), first);
        }
    }

    #[test]
    fn requests_stay_inside_the_pools() {
        let plan = ChaosPlan::smoke(3, 0.5);
        let mut seen_w = [false; WORKLOADS.len()];
        let mut seen_d = [false; DATASETS.len()];
        for round in 0..plan.rounds {
            for slot in 0..plan.requests_per_round {
                let (wi, di) = plan.request_for(round, slot);
                seen_w[wi] = true;
                seen_d[di] = true;
            }
        }
        assert!(seen_w.iter().all(|&s| s), "every workload drawn");
        assert!(seen_d.iter().all(|&s| s), "every dataset drawn");
    }

    #[test]
    fn moderate_intensity_mixes_calm_and_faulty_episodes() {
        let plan = ChaosPlan::seeded(42, 0.3);
        let faulty = (0..200)
            .filter(|&e| plan.event_for_episode(e) != ChaosEvent::Calm)
            .count();
        assert!((30..90).contains(&faulty), "{faulty} faulty of 200");
    }
}
