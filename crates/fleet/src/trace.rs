//! Seeded synthetic job traces: which jobs arrive when, and which devices
//! fault when.
//!
//! A [`FleetTrace`] is a pure function from `(seed, knobs)` to a concurrent
//! job stream over the B×I space plus a per-device fault schedule — no RNG
//! state, no wall clock, mirroring the chaos crate's [`ChaosPlan`]
//! discipline (`heteromap-chaos`). Time advances in **rounds** of a fixed
//! simulated tick; arrivals are drawn per round (with seeded bursts), and
//! device health is drawn per **episode** of [`FleetTrace::episode_len`]
//! rounds so faults persist long enough for breakers to trip, reroute, cool
//! down and probe.
//!
//! Two runs over the same trace see bit-identical arrivals and faults, so
//! placer comparisons isolate placement quality.

use heteromap_accel::FaultState;
use heteromap_graph::datasets::Dataset;
use heteromap_model::Workload;
use std::hash::{Hash, Hasher};

/// The workload pool jobs are drawn from.
pub const WORKLOADS: [Workload; 5] = [
    Workload::Bfs,
    Workload::PageRank,
    Workload::SsspBf,
    Workload::SsspDelta,
    Workload::ConnComp,
];

/// The dataset pool jobs are drawn from: a road network, two social graphs
/// and a dense matrix, so the pool spans the paper's GPU-optimal and
/// multicore-optimal regimes (Fig. 1) and placement quality actually
/// matters.
pub const DATASETS: [Dataset; 4] = [
    Dataset::UsaCal,
    Dataset::Facebook,
    Dataset::LiveJournal,
    Dataset::Cage14,
];

/// A deterministic fleet trace: job arrivals plus per-device fault episodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTrace {
    /// Seed for every draw (arrivals, job mix, faults).
    pub seed: u64,
    /// Fraction of `(device, episode)` cells that are faulty, in `[0, 1]`.
    pub fault_intensity: f64,
    /// Rounds with new arrivals (the simulation drains pending work after).
    pub rounds: u32,
    /// Rounds per fault episode.
    pub episode_len: u32,
    /// Average jobs arriving per round.
    pub mean_arrivals: f64,
    /// Probability that a round is a burst (3× the drawn arrivals).
    pub burst: f64,
    /// Offered load relative to cluster capacity, where capacity is
    /// normalized to every job running on its *best* device; the simulation
    /// derives its tick length so the arrival stream works out to this
    /// utilization. On a heterogeneous cluster that bar is optimistic, so
    /// 1.0 genuinely saturates the fleet.
    pub load: f64,
    /// Per-job deadline as a multiple of its best-device fault-free
    /// completion time.
    pub deadline_factor: f64,
    /// Times a job may be migrated (re-placed after a device failure)
    /// before it is declared failed.
    pub max_migrations: u32,
}

impl FleetTrace {
    /// The heavy trace: sustained oversubscription with bursts — the regime
    /// the bench compares placers under.
    pub fn heavy(seed: u64, fault_intensity: f64) -> Self {
        FleetTrace {
            seed,
            fault_intensity: fault_intensity.clamp(0.0, 1.0),
            rounds: 64,
            episode_len: 8,
            mean_arrivals: 12.0,
            burst: 0.15,
            load: 1.05,
            deadline_factor: 8.0,
            max_migrations: 3,
        }
    }

    /// A moderate steady-state trace: below saturation, fewer bursts — the
    /// second regime for the greedy-vs-evolutionary comparison.
    pub fn steady(seed: u64, fault_intensity: f64) -> Self {
        FleetTrace {
            rounds: 48,
            mean_arrivals: 8.0,
            burst: 0.05,
            load: 0.7,
            ..FleetTrace::heavy(seed, fault_intensity)
        }
    }

    /// A small trace for CI smoke runs and unit tests.
    pub fn smoke(seed: u64, fault_intensity: f64) -> Self {
        FleetTrace {
            rounds: 16,
            episode_len: 4,
            mean_arrivals: 4.0,
            ..FleetTrace::heavy(seed, fault_intensity)
        }
    }

    /// The episode a round belongs to.
    pub fn episode_of(&self, round: u32) -> u32 {
        round / self.episode_len.max(1)
    }

    /// Jobs arriving in one round: a seeded draw around
    /// [`FleetTrace::mean_arrivals`], tripled on burst rounds.
    pub fn arrivals(&self, round: u32) -> u32 {
        if round >= self.rounds {
            return 0;
        }
        let base = self.mean_arrivals * (0.5 + self.hash_unit(u64::from(round), 0x11));
        let spiked = if self.hash_unit(u64::from(round), 0x12) < self.burst {
            base * 3.0
        } else {
            base
        };
        spiked.round() as u32
    }

    /// The `(workload index, dataset index)` of arrival `k` in `round` —
    /// indices into [`WORKLOADS`] / [`DATASETS`], drawn independently of the
    /// fault schedule.
    pub fn job_for(&self, round: u32, k: u32) -> (usize, usize) {
        let mut h = heteromap_model::StableHasher::new();
        self.seed.hash(&mut h);
        0x00F1_EE70_u32.hash(&mut h);
        round.hash(&mut h);
        k.hash(&mut h);
        let draw = h.finish();
        (
            (draw % WORKLOADS.len() as u64) as usize,
            ((draw / WORKLOADS.len() as u64) % DATASETS.len() as u64) as usize,
        )
    }

    /// The health of one device during one episode — a pure function of
    /// `(seed, fault_intensity, device, episode)`. Transients dominate,
    /// degradations follow, full outages stay rarer.
    pub fn fault_for(&self, device: usize, episode: u32) -> FaultState {
        let cell = (device as u64) << 32 | u64::from(episode);
        if self.hash_unit(cell, 0x21) >= self.fault_intensity {
            return FaultState::Healthy;
        }
        let severity = self.hash_unit(cell, 0x22);
        match (self.hash_unit(cell, 0x23) * 8.0) as u32 {
            0..=3 => FaultState::Transient {
                failure_rate: 0.5 + 0.45 * severity,
            },
            4..=5 => FaultState::Degraded {
                surviving_core_fraction: 0.08 + 0.17 * severity,
            },
            _ => FaultState::Down,
        }
    }

    /// Deterministic draw in `[0, 1)` for one `(cell, salt)` pair.
    fn hash_unit(&self, cell: u64, salt: u8) -> f64 {
        let mut h = heteromap_model::StableHasher::new();
        self.seed.hash(&mut h);
        cell.hash(&mut h);
        salt.hash(&mut h);
        h.finish() as f64 / (u64::MAX as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_is_always_healthy() {
        let trace = FleetTrace::heavy(7, 0.0);
        for device in 0..16 {
            for episode in 0..32 {
                assert_eq!(trace.fault_for(device, episode), FaultState::Healthy);
            }
        }
    }

    #[test]
    fn full_intensity_is_never_healthy() {
        let trace = FleetTrace::heavy(7, 1.0);
        let faulty = (0..8)
            .flat_map(|d| (0..16).map(move |e| (d, e)))
            .filter(|&(d, e)| trace.fault_for(d, e) != FaultState::Healthy)
            .count();
        assert_eq!(faulty, 8 * 16);
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FleetTrace::heavy(1, 0.5);
        let b = FleetTrace::heavy(1, 0.5);
        let c = FleetTrace::heavy(2, 0.5);
        let sample = |t: &FleetTrace| -> Vec<(u32, usize, usize)> {
            (0..t.rounds)
                .flat_map(|r| (0..t.arrivals(r)).map(move |k| (r, k)))
                .map(|(r, k)| {
                    let (wi, di) = t.job_for(r, k);
                    (r, wi, di)
                })
                .collect()
        };
        assert_eq!(sample(&a), sample(&b));
        assert_ne!(sample(&a), sample(&c), "different seed, different stream");
    }

    #[test]
    fn jobs_stay_inside_the_pools_and_cover_them() {
        let trace = FleetTrace::heavy(3, 0.5);
        let mut seen_w = [false; WORKLOADS.len()];
        let mut seen_d = [false; DATASETS.len()];
        for round in 0..trace.rounds {
            for k in 0..trace.arrivals(round) {
                let (wi, di) = trace.job_for(round, k);
                seen_w[wi] = true;
                seen_d[di] = true;
            }
        }
        assert!(seen_w.iter().all(|&s| s), "every workload drawn");
        assert!(seen_d.iter().all(|&s| s), "every dataset drawn");
    }

    #[test]
    fn no_arrivals_after_the_arrival_window() {
        let trace = FleetTrace::smoke(5, 0.2);
        assert_eq!(trace.arrivals(trace.rounds), 0);
        assert_eq!(trace.arrivals(trace.rounds + 7), 0);
        let total: u32 = (0..trace.rounds).map(|r| trace.arrivals(r)).sum();
        assert!(total > 0, "the trace must produce jobs");
    }

    #[test]
    fn bursts_inflate_some_rounds() {
        let trace = FleetTrace::heavy(11, 0.0);
        let max = (0..trace.rounds).map(|r| trace.arrivals(r)).max().unwrap();
        assert!(
            f64::from(max) > trace.mean_arrivals * 1.5,
            "max {max} should show a burst"
        );
    }
}
