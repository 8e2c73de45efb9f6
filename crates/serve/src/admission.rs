//! Admission control, load shedding and circuit-breaker routing in front of
//! the serving engine.
//!
//! [`ServeEngine`] always serves; production front-ends must sometimes *not*
//! serve. [`AdmissionController`] adds the three refusal mechanisms a
//! resilient endpoint needs, each returning a typed [`Rejected`] error
//! instead of an unbounded queue or a panic:
//!
//! * **Overload** — a bounded in-flight budget
//!   ([`AdmissionConfig::max_inflight`]). When the budget is full the
//!   controller prefers *shedding onto staleness* over dropping: if the
//!   cache already holds a prediction for the key, the request is served
//!   from it ([`ServeSource::StaleHit`](crate::ServeSource::StaleHit))
//!   without touching the inference path; only a cold key is rejected
//!   with [`Rejected::Overload`].
//! * **Deadlines** — each request carries a simulated completion budget,
//!   threaded through [`DeployOptions`] into the core retry loop so backoff
//!   never outlives the caller. A deploy that cannot fit returns
//!   [`Rejected::Deadline`] and counts a deadline miss.
//! * **Circuit breakers** — a per-accelerator [`BreakerBoard`] fed by every
//!   placement's attempt log. An accelerator failing
//!   `failure_threshold` consecutive requests is routed around (the core
//!   loop re-clamps the predicted configuration for the survivor); after a
//!   request-counted cooldown it is probed Half-open and closed on
//!   consecutive successes. Both breakers open means nothing can be
//!   targeted: [`Rejected::Unhealthy`].
//!
//! Every admission decision, shed, deadline miss and breaker transition
//! emits an obs event and ticks a typed metrics counter, so a degraded
//! serving process explains itself through the flight recorder and the
//! metrics snapshot.

use crate::engine::{ServeEngine, Served};
use crate::metrics::MetricsRegistry;
use heteromap::rounds::Resolution;
use heteromap::{BreakerBoard, BreakerConfig, BreakerState, DeployOptions};
use heteromap_accel::cost::WorkloadContext;
use heteromap_graph::GraphStats;
use heteromap_model::{Accelerator, Workload};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Why a request was refused. Every refusal is typed — callers can retry
/// overloads, relax deadlines, or back off from an unhealthy system without
/// parsing strings.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Rejected {
    /// The in-flight budget is full and no cached prediction was available
    /// to shed onto.
    Overload {
        /// The configured in-flight ceiling that was hit.
        max_inflight: usize,
    },
    /// The request could not complete inside its simulated budget.
    Deadline {
        /// Simulated completion time the request would have needed
        /// (`INFINITY` when the budget died before any attempt fit).
        needed_ms: f64,
        /// The budget the caller granted.
        deadline_ms: f64,
    },
    /// No accelerator could take the request: both circuit breakers were
    /// open, or every deploy leg failed.
    Unhealthy,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::Overload { max_inflight } => {
                write!(f, "overloaded: in-flight budget of {max_inflight} is full")
            }
            Rejected::Deadline {
                needed_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline exceeded: needed {needed_ms:.3} ms of a {deadline_ms:.3} ms budget"
            ),
            Rejected::Unhealthy => {
                write!(f, "unhealthy: no accelerator can take the request")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Admission-control tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Concurrent requests allowed past admission.
    pub max_inflight: usize,
    /// Deadline applied by [`AdmissionController::try_schedule_stats`] when
    /// the caller does not supply one (`INFINITY` disables deadlines).
    pub default_deadline_ms: f64,
    /// Per-accelerator circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Whether overloaded requests may be served stale cached predictions
    /// instead of being rejected outright.
    pub stale_on_overload: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 1024,
            default_deadline_ms: f64::INFINITY,
            breaker: BreakerConfig::default(),
            stale_on_overload: true,
        }
    }
}

/// The breaker board plus the open/close totals already flushed to the
/// metrics registry, so counter deltas survive arbitrary interleavings.
#[derive(Debug)]
struct BoardSync {
    board: BreakerBoard,
    reported_opens: u64,
    reported_closes: u64,
}

/// Admission control in front of one [`ServeEngine`].
///
/// The controller owns no engine reference — it is passed per call — so one
/// controller can front several engines in tests, and the engine's public
/// API stays usable without admission for trusted internal traffic.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    inflight: AtomicUsize,
    breakers: Mutex<BoardSync>,
}

/// RAII release of one in-flight slot.
struct InflightGuard<'a>(&'a AtomicUsize);

impl<'a> InflightGuard<'a> {
    fn acquire(inflight: &'a AtomicUsize, max: usize) -> Option<Self> {
        if inflight.fetch_add(1, Ordering::AcqRel) >= max {
            inflight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(InflightGuard(inflight))
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl AdmissionController {
    /// A controller with the given configuration and both breakers Closed.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            breakers: Mutex::new(BoardSync {
                board: BreakerBoard::new(config.breaker),
                reported_opens: 0,
                reported_closes: 0,
            }),
            inflight: AtomicUsize::new(0),
            config,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Requests currently past admission.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Current `(gpu, multicore)` breaker states.
    pub fn breaker_states(&self) -> (BreakerState, BreakerState) {
        let sync = self.breakers.lock().expect("breaker board poisoned");
        (
            sync.board.breaker(Accelerator::Gpu).state(),
            sync.board.breaker(Accelerator::Multicore).state(),
        )
    }

    /// Admits and serves one named workload on arbitrary statistics under
    /// the configured default deadline.
    pub fn try_schedule_stats(
        &self,
        engine: &ServeEngine,
        workload: Workload,
        stats: GraphStats,
    ) -> Result<Served, Rejected> {
        self.try_schedule_context(
            engine,
            &WorkloadContext::for_workload(workload, stats),
            self.config.default_deadline_ms,
        )
    }

    /// Admits and serves one request: in-flight budget, breaker routing,
    /// deadline propagation, then classification of the outcome.
    ///
    /// Admitted requests always resolve — to a placement that completed
    /// within `deadline_ms`, or to a typed [`Rejected`] error. Nothing is
    /// silently dropped.
    pub fn try_schedule_context(
        &self,
        engine: &ServeEngine,
        ctx: &WorkloadContext,
        deadline_ms: f64,
    ) -> Result<Served, Rejected> {
        let metrics = engine.metrics();
        let Some(_guard) = InflightGuard::acquire(&self.inflight, self.config.max_inflight) else {
            return self.shed_overload(engine, ctx, deadline_ms, &metrics);
        };

        let avoid = {
            let mut sync = self.breakers.lock().expect("breaker board poisoned");
            if sync.board.all_open() {
                sync.board.on_shed_open();
                flush_breaker_metrics(&mut sync, &metrics);
                drop(sync);
                metrics.rejected_unhealthy.inc();
                heteromap_obs::event("admit.reject", || "cause=all_breakers_open".to_string());
                return Err(Rejected::Unhealthy);
            }
            let avoid = sync.board.route_avoid();
            if avoid.is_some() {
                sync.board.on_shed_open();
                flush_breaker_metrics(&mut sync, &metrics);
            }
            avoid
        };

        metrics.admitted.inc();
        let opts = DeployOptions::with_deadline_ms(deadline_ms).avoiding(avoid);
        let served = engine.schedule_context_opts(ctx, opts);
        self.classify(served, deadline_ms, &metrics)
    }

    /// Overload path: prefer a stale cached prediction over dropping.
    fn shed_overload(
        &self,
        engine: &ServeEngine,
        ctx: &WorkloadContext,
        deadline_ms: f64,
        metrics: &MetricsRegistry,
    ) -> Result<Served, Rejected> {
        if self.config.stale_on_overload {
            let avoid = {
                let sync = self.breakers.lock().expect("breaker board poisoned");
                sync.board.route_avoid()
            };
            let opts = DeployOptions::with_deadline_ms(deadline_ms).avoiding(avoid);
            if let Some(served) = engine.serve_stale(ctx, opts) {
                metrics.stale_served.inc();
                heteromap_obs::event("admit.shed_stale", || {
                    format!(
                        "vertices={} edges={} deadline_ms={deadline_ms}",
                        ctx.stats.vertices, ctx.stats.edges
                    )
                });
                return self.classify(served, deadline_ms, metrics);
            }
        }
        metrics.rejected_overload.inc();
        let max_inflight = self.config.max_inflight;
        heteromap_obs::event("admit.reject", || {
            format!("cause=overload max_inflight={max_inflight}")
        });
        Err(Rejected::Overload { max_inflight })
    }

    /// Shared tail: feed the attempt log into the breakers, flush breaker
    /// counters, and turn the placement into `Ok` or a typed rejection.
    fn classify(
        &self,
        served: Served,
        deadline_ms: f64,
        metrics: &MetricsRegistry,
    ) -> Result<Served, Rejected> {
        {
            let mut sync = self.breakers.lock().expect("breaker board poisoned");
            sync.board.on_placement(&served.placement, deadline_ms);
            flush_breaker_metrics(&mut sync, metrics);
        }
        let resolution = Resolution::of(&served.placement, deadline_ms);
        if resolution == Resolution::Good {
            return Ok(served);
        }
        let time_ms = served.placement.report.time_ms;
        if resolution == Resolution::Late && deadline_ms.is_finite() {
            metrics.deadline_misses.inc();
            heteromap_obs::event("deadline.miss", || {
                format!("needed_ms={time_ms} deadline_ms={deadline_ms}")
            });
            Err(Rejected::Deadline {
                needed_ms: time_ms,
                deadline_ms,
            })
        } else {
            metrics.rejected_unhealthy.inc();
            heteromap_obs::event("admit.reject", || "cause=all_legs_failed".to_string());
            Err(Rejected::Unhealthy)
        }
    }
}

/// Flushes breaker open/close deltas into the metrics counters.
fn flush_breaker_metrics(sync: &mut BoardSync, metrics: &MetricsRegistry) {
    let opens = sync.board.total_opens();
    let closes = sync.board.total_closes();
    metrics.breaker_opens.add(opens - sync.reported_opens);
    metrics.breaker_closes.add(closes - sync.reported_closes);
    sync.reported_opens = opens;
    sync.reported_closes = closes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServeConfig, ServeMode, ServeSource};
    use heteromap::HeteroMap;
    use heteromap_accel::{FaultPlan, FaultState};
    use heteromap_graph::datasets::Dataset;

    fn engine() -> ServeEngine {
        ServeEngine::new(
            HeteroMap::with_decision_tree(),
            ServeConfig::with_mode(ServeMode::Cached),
        )
    }

    #[test]
    fn defaults_admit_and_serve() {
        let e = engine();
        let ac = AdmissionController::new(AdmissionConfig::default());
        let served = ac
            .try_schedule_stats(&e, Workload::Bfs, Dataset::Facebook.stats())
            .expect("healthy request admitted");
        assert!(served.placement.completed());
        let snap = e.metrics().snapshot();
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.rejected_overload + snap.rejected_unhealthy, 0);
        assert_eq!(ac.inflight(), 0, "guard released");
    }

    #[test]
    fn overload_rejects_cold_keys_and_sheds_warm_ones() {
        let e = engine();
        let ac = AdmissionController::new(AdmissionConfig {
            max_inflight: 0,
            ..AdmissionConfig::default()
        });
        // Cold cache: nothing to shed onto.
        let err = ac
            .try_schedule_stats(&e, Workload::Bfs, Dataset::Facebook.stats())
            .expect_err("budget of zero admits nothing");
        assert_eq!(err, Rejected::Overload { max_inflight: 0 });
        // Warm the cache outside admission, then overload again.
        e.schedule(Workload::Bfs, Dataset::Facebook);
        let served = ac
            .try_schedule_stats(&e, Workload::Bfs, Dataset::Facebook.stats())
            .expect("warm key sheds to stale");
        assert_eq!(served.source, ServeSource::StaleHit);
        let snap = e.metrics().snapshot();
        assert_eq!(snap.rejected_overload, 1);
        assert_eq!(snap.stale_served, 1);
    }

    #[test]
    fn overload_without_stale_shedding_always_rejects() {
        let e = engine();
        let ac = AdmissionController::new(AdmissionConfig {
            max_inflight: 0,
            stale_on_overload: false,
            ..AdmissionConfig::default()
        });
        e.schedule(Workload::Bfs, Dataset::Facebook);
        let err = ac
            .try_schedule_stats(&e, Workload::Bfs, Dataset::Facebook.stats())
            .expect_err("shedding disabled");
        assert!(matches!(err, Rejected::Overload { .. }));
    }

    #[test]
    fn impossible_deadline_is_a_typed_error() {
        let e = engine();
        let ac = AdmissionController::new(AdmissionConfig::default());
        let ctx = WorkloadContext::for_workload(Workload::PageRank, Dataset::LiveJournal.stats());
        let err = ac
            .try_schedule_context(&e, &ctx, 1e-12)
            .expect_err("nothing completes in a picosecond");
        assert!(matches!(err, Rejected::Deadline { .. }), "{err}");
        assert_eq!(e.metrics().snapshot().deadline_misses, 1);
    }

    #[test]
    fn breaker_opens_then_routes_around_the_dead_accelerator() {
        let e = engine();
        e.set_fault_plan(FaultPlan::gpu_down());
        let ac = AdmissionController::new(AdmissionConfig {
            breaker: BreakerConfig {
                failure_threshold: 1,
                ..BreakerConfig::default()
            },
            ..AdmissionConfig::default()
        });
        // SSSP-BF on USA-Cal prefers the GPU; the first request fails over.
        let first = ac
            .try_schedule_stats(&e, Workload::SsspBf, Dataset::UsaCal.stats())
            .expect("failover succeeds");
        assert_eq!(first.placement.accelerator(), Accelerator::Multicore);
        assert!(first
            .placement
            .attempts
            .records
            .iter()
            .any(|r| r.accelerator == Accelerator::Gpu));
        assert_eq!(ac.breaker_states().0, BreakerState::Open);
        // The second request never touches the GPU at all.
        let second = ac
            .try_schedule_stats(&e, Workload::SsspBf, Dataset::UsaCal.stats())
            .expect("routed around the open breaker");
        assert!(second
            .placement
            .attempts
            .records
            .iter()
            .all(|r| r.accelerator == Accelerator::Multicore));
        assert_eq!(e.metrics().snapshot().breaker_opens, 1);
    }

    #[test]
    fn healed_accelerator_closes_after_cooldown_probes() {
        let e = engine();
        e.set_fault_plan(FaultPlan::gpu_down());
        let ac = AdmissionController::new(AdmissionConfig {
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown_requests: 2,
                probe_successes: 1,
            },
            ..AdmissionConfig::default()
        });
        let stats = Dataset::UsaCal.stats();
        ac.try_schedule_stats(&e, Workload::SsspBf, stats)
            .expect("failover");
        assert_eq!(ac.breaker_states().0, BreakerState::Open);
        // The accelerator heals; the breaker still needs its cooldown.
        e.set_fault_plan(FaultPlan::healthy());
        ac.try_schedule_stats(&e, Workload::SsspBf, stats)
            .expect("shed 1");
        ac.try_schedule_stats(&e, Workload::SsspBf, stats)
            .expect("shed 2 -> half-open");
        assert_eq!(ac.breaker_states().0, BreakerState::HalfOpen);
        let probed = ac
            .try_schedule_stats(&e, Workload::SsspBf, stats)
            .expect("probe succeeds");
        assert_eq!(probed.placement.accelerator(), Accelerator::Gpu);
        assert_eq!(ac.breaker_states().0, BreakerState::Closed);
        assert_eq!(e.metrics().snapshot().breaker_closes, 1);
    }

    #[test]
    fn all_breakers_open_rejects_unhealthy() {
        let e = engine();
        e.set_fault_plan(
            FaultPlan::gpu_down().with_state(Accelerator::Multicore, FaultState::Down),
        );
        let ac = AdmissionController::new(AdmissionConfig {
            breaker: BreakerConfig {
                failure_threshold: 1,
                ..BreakerConfig::default()
            },
            ..AdmissionConfig::default()
        });
        let err = ac
            .try_schedule_stats(&e, Workload::Bfs, Dataset::Facebook.stats())
            .expect_err("every leg fails");
        assert_eq!(err, Rejected::Unhealthy);
        assert_eq!(
            ac.breaker_states(),
            (BreakerState::Open, BreakerState::Open)
        );
        // Now requests are refused at admission, before any deploy.
        let before = e.metrics().snapshot().admitted;
        let err = ac
            .try_schedule_stats(&e, Workload::Bfs, Dataset::Facebook.stats())
            .expect_err("all breakers open");
        assert_eq!(err, Rejected::Unhealthy);
        assert_eq!(e.metrics().snapshot().admitted, before);
        assert_eq!(e.metrics().snapshot().rejected_unhealthy, 2);
    }

    #[test]
    fn rejection_display_is_typed_and_readable() {
        let o = Rejected::Overload { max_inflight: 8 };
        let d = Rejected::Deadline {
            needed_ms: 5.0,
            deadline_ms: 1.0,
        };
        assert!(o.to_string().contains("in-flight budget of 8"));
        assert!(d.to_string().contains("deadline exceeded"));
        assert!(Rejected::Unhealthy.to_string().contains("unhealthy"));
    }
}
