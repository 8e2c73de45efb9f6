//! Scheduling decision and outcome types.

use crate::resilient::AttemptLog;
use heteromap_accel::SimReport;
use heteromap_model::{Accelerator, MConfig};

/// One scheduling decision: the predicted machine configuration and the
/// simulated outcome of deploying it (Fig. 8 steps 2–3).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The predicted machine choices (`M1..M20`).
    pub config: MConfig,
    /// Simulated completion time / energy / utilization of the deployment,
    /// including the predictor's modeled overhead.
    pub report: SimReport,
    /// Charged predictor overhead in milliseconds
    /// ([`heteromap_predict::Predictor::overhead_ms`], or 0 for a cached
    /// prediction; already included in `report.time_ms`, as in §V-A).
    pub predictor_overhead_ms: f64,
    /// Audit trail of the deploy attempts behind this placement (a single
    /// clean success on a healthy system; retries, failovers and degraded
    /// deploys under faults). Its `retry_time_ms` is already included in
    /// `report.time_ms`, like the predictor overhead.
    pub attempts: AttemptLog,
}

impl Placement {
    /// The accelerator the combination was routed to.
    pub fn accelerator(&self) -> Accelerator {
        self.config.accelerator
    }

    /// Whether the deployment actually completed (a placement produced
    /// after exhausting every accelerator carries an infinite time and a
    /// failed final attempt).
    pub fn completed(&self) -> bool {
        self.report.time_ms.is_finite() && self.attempts.succeeded()
    }
}

/// Aggregated outcome of a chunked (streamed) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Per-chunk placements in temporal order.
    pub chunks: Vec<Placement>,
    /// How many chunk ranges had to be re-streamed at a halved byte budget
    /// after an out-of-memory deploy failure (0 on a healthy system).
    pub restreams: u32,
}

impl StreamReport {
    /// Total simulated completion time across chunks (chunks are processed
    /// "one by one spatiotemporally", §VI-C, so times add).
    pub fn total_time_ms(&self) -> f64 {
        self.chunks.iter().map(|p| p.report.time_ms).sum()
    }

    /// Total energy across chunks.
    pub fn total_energy_j(&self) -> f64 {
        self.chunks.iter().map(|p| p.report.energy_j).sum()
    }

    /// Total deploy attempts across all chunks.
    pub fn total_attempts(&self) -> usize {
        self.chunks
            .iter()
            .map(|p| p.attempts.total_attempts())
            .sum()
    }

    /// Total failovers across all chunks.
    pub fn total_failovers(&self) -> u32 {
        self.chunks.iter().map(|p| p.attempts.failovers).sum()
    }

    /// Total simulated retry/backoff time charged across all chunks.
    pub fn total_retry_time_ms(&self) -> f64 {
        self.chunks.iter().map(|p| p.attempts.retry_time_ms).sum()
    }

    /// Number of chunks routed to each accelerator `(gpu, multicore)`.
    pub fn accelerator_split(&self) -> (usize, usize) {
        let gpu = self
            .chunks
            .iter()
            .filter(|p| p.accelerator() == Accelerator::Gpu)
            .count();
        (gpu, self.chunks.len() - gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement(accel: Accelerator, time: f64) -> Placement {
        let mut config = MConfig::gpu_default();
        config.accelerator = accel;
        Placement {
            config,
            report: SimReport {
                time_ms: time,
                energy_j: 2.0 * time,
                utilization: 0.5,
            },
            predictor_overhead_ms: 0.01,
            attempts: AttemptLog::clean_success(accel),
        }
    }

    #[test]
    fn stream_report_totals() {
        let r = StreamReport {
            chunks: vec![
                placement(Accelerator::Gpu, 10.0),
                placement(Accelerator::Multicore, 5.0),
            ],
            restreams: 0,
        };
        assert_eq!(r.total_time_ms(), 15.0);
        assert_eq!(r.total_energy_j(), 30.0);
        assert_eq!(r.accelerator_split(), (1, 1));
        assert_eq!(r.total_attempts(), 2);
        assert_eq!(r.total_failovers(), 0);
        assert_eq!(r.total_retry_time_ms(), 0.0);
    }

    #[test]
    fn placement_accessor() {
        let p = placement(Accelerator::Multicore, 1.0);
        assert_eq!(p.accelerator(), Accelerator::Multicore);
        assert!(p.completed());
    }

    #[test]
    fn infinite_placement_is_not_completed() {
        let mut p = placement(Accelerator::Gpu, 1.0);
        p.report.time_ms = f64::INFINITY;
        assert!(!p.completed());
    }
}
