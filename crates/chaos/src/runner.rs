//! The chaos round driver: deterministic execution of a [`ChaosPlan`]
//! through the serving stack at any thread count.
//!
//! Determinism strategy, in order of importance:
//!
//! 1. **Simulated time only.** Placements charge simulated milliseconds, and
//!    the chaos engine zeroes every real-time-adjacent overhead knob
//!    (`flop_ns`, `hit_overhead_ms`), so a request's outcome is identical
//!    whether it hit or missed the cache — races on the cache cannot leak
//!    into results.
//! 2. **Round-granular routing.** The breaker board is snapshotted at round
//!    start; every request in the round routes from that snapshot, and the
//!    board is updated by a *serial fold in slot order* after the parallel
//!    evaluation. Mid-round interleavings therefore cannot influence breaker
//!    evolution.
//! 3. **Pure per-slot outcomes.** Given the snapshot and the installed
//!    fault plan, each slot's placement is a pure function of the plan seed
//!    — worker threads only decide *who* computes a slot, never *what* it
//!    resolves to.
//!
//! The digest chains every `(round, slot, outcome, accelerator, time,
//! config)` through one hasher, so two runs agree on the digest iff they
//! agreed on every single request.

use crate::plan::{ChaosEvent, ChaosPlan, DATASETS, WORKLOADS};
use heteromap::{AttemptOutcome, BreakerBoard, BreakerConfig, DeployOptions, HeteroMap};
use heteromap_accel::cost::WorkloadContext;
use heteromap_model::{fold_digest, Accelerator};
use heteromap_obs::metrics::{
    DriftConfig, HealthBoard, HealthSignal, MetricsHub, SeriesDetector, SignalKind,
    LATENCY_BOUNDS_MS,
};
use heteromap_serve::{ServeConfig, ServeEngine, ServeMode, Served};

/// How one chaos request resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    /// Completed within its deadline.
    Good,
    /// Resolved, but outside the deadline (typed deadline error territory).
    Late,
    /// Every leg failed (outage, OOM on both accelerators).
    Failed,
    /// Refused at round start because both breakers were open.
    Shed,
}

impl Resolution {
    fn tag(self) -> u64 {
        match self {
            Resolution::Good => 1,
            Resolution::Late => 2,
            Resolution::Failed => 3,
            Resolution::Shed => 4,
        }
    }
}

/// Aggregated outcome of one chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosReport {
    /// Requests driven (`rounds × requests_per_round`).
    pub requests: usize,
    /// Requests that completed within their deadline.
    pub good: usize,
    /// Requests that resolved outside their deadline.
    pub late: usize,
    /// Requests whose every leg failed.
    pub failed: usize,
    /// Requests shed with both breakers open.
    pub shed: usize,
    /// 99th-percentile simulated completion time of resolved requests (ms;
    /// `NaN` when nothing resolved).
    pub p99_ms: f64,
    /// Breaker trips over the run (0 in baseline mode).
    pub breaker_opens: u64,
    /// Breaker recoveries over the run (0 in baseline mode).
    pub breaker_closes: u64,
    /// Order-independent-of-threads digest over every request's resolution.
    pub digest: u64,
}

impl ChaosReport {
    /// Fraction of driven requests that completed within deadline.
    pub fn goodput_fraction(&self) -> f64 {
        if self.requests == 0 {
            return f64::NAN;
        }
        self.good as f64 / self.requests as f64
    }

    /// Whether every driven request resolved to exactly one bucket.
    pub fn fully_accounted(&self) -> bool {
        self.good + self.late + self.failed + self.shed == self.requests
    }
}

/// Per-round tally handed to the telemetry observer by
/// [`ChaosRunner::run_observed`]. Built inside the serial fold, so its
/// contents are independent of worker count.
struct RoundStats<'a> {
    /// Requests driven this round.
    n: usize,
    good: usize,
    late: usize,
    failed: usize,
    shed: usize,
    /// Requests that needed more than one deploy attempt.
    multi_attempt: usize,
    /// Attempts beyond the first, summed over the round's requests.
    extra_attempts: usize,
    /// Σ max(0, time/reference − 1) over resolved finite-time requests —
    /// exactly 0.0 on a fault-free round (every natural placement is no
    /// slower than its worst-leg reference).
    overdraft_sum: f64,
    /// Finite completion times of this round's resolved requests.
    times: &'a [f64],
    /// Cumulative breaker trips/recoveries through this round.
    breaker_opens: u64,
    breaker_closes: u64,
}

/// Telemetry captured by [`ChaosRunner::run_telemetry`]: the ordinary
/// [`ChaosReport`] (digest included, bit-identical to [`ChaosRunner::run`])
/// plus a private metrics hub with one aggregation window per round and the
/// drift detectors' verdicts.
#[derive(Debug)]
pub struct ChaosTelemetry {
    /// The run's report — same digest as an unobserved run of the plan.
    pub report: ChaosReport,
    /// Episodes flagged by either drift detector, ascending.
    pub flagged_episodes: Vec<u32>,
    /// Episodes whose planned event is not [`ChaosEvent::Calm`], ascending
    /// (ground truth for coverage checks).
    pub faulty_episodes: Vec<u32>,
    /// Raised/recovered health signals in raise order.
    pub signals: Vec<HealthSignal>,
    hub: MetricsHub,
}

impl ChaosTelemetry {
    /// Fraction of planned faulty episodes the detectors flagged
    /// (`NaN` when the plan had none).
    pub fn coverage(&self) -> f64 {
        if self.faulty_episodes.is_empty() {
            return f64::NAN;
        }
        let hits = self
            .flagged_episodes
            .iter()
            .filter(|e| self.faulty_episodes.binary_search(e).is_ok())
            .count();
        hits as f64 / self.faulty_episodes.len() as f64
    }

    /// Flagged episodes whose planned event was calm. Under a faulty plan
    /// these are not necessarily detector errors — breaker recovery from a
    /// preceding incident legitimately degrades trailing calm episodes —
    /// so the zero-false-positive gate is evaluated on a calm-regime run
    /// (intensity 0), where this must be empty.
    pub fn calm_episodes_flagged(&self) -> Vec<u32> {
        self.flagged_episodes
            .iter()
            .copied()
            .filter(|e| self.faulty_episodes.binary_search(e).is_err())
            .collect()
    }

    /// The run's metrics hub (one rolled window per round).
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// Prometheus text exposition of the run's metrics.
    pub fn prometheus_text(&self) -> String {
        self.hub.prometheus_text()
    }
}

/// Drives one [`ChaosPlan`] through a private serving engine.
///
/// `resilient` selects the machinery under test: `true` threads deadlines
/// into the deploy loop and routes around open breakers; `false` is the
/// no-resilience baseline — same faults, same requests, same deadlines for
/// *classification*, but deploys run unconstrained and nothing is ever
/// routed around. The gap between the two is the harness's measure of what
/// the resilience layer buys.
#[derive(Debug)]
pub struct ChaosRunner {
    plan: ChaosPlan,
    resilient: bool,
    breaker: BreakerConfig,
    engine: ServeEngine,
    /// Worst-leg fault-free completion time per `(workload, dataset)` pool
    /// entry — the slower of "forced onto the GPU" and "forced onto the
    /// multicore". Deadlines are `deadline_factor ×` these, so re-routing
    /// around an open breaker always fits the budget on a healthy survivor.
    reference_ms: [[f64; DATASETS.len()]; WORKLOADS.len()],
}

impl ChaosRunner {
    /// A runner over a fresh decision-tree engine.
    pub fn new(plan: ChaosPlan, resilient: bool) -> Self {
        ChaosRunner::with_breaker(plan, resilient, BreakerConfig::default())
    }

    /// A runner with explicit breaker tuning.
    pub fn with_breaker(plan: ChaosPlan, resilient: bool, breaker: BreakerConfig) -> Self {
        // Zero overhead knobs: cache hit/miss races must not shift times.
        let config = ServeConfig {
            mode: ServeMode::Cached,
            flop_ns: 0.0,
            hit_overhead_ms: 0.0,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(HeteroMap::with_decision_tree(), config);
        let mut reference_ms = [[0.0; DATASETS.len()]; WORKLOADS.len()];
        for (wi, workload) in WORKLOADS.iter().enumerate() {
            for (di, dataset) in DATASETS.iter().enumerate() {
                let ctx = WorkloadContext::for_workload(*workload, dataset.stats());
                let forced = |avoid| {
                    engine
                        .schedule_context_opts(&ctx, DeployOptions::default().avoiding(Some(avoid)))
                        .placement
                        .report
                        .time_ms
                };
                reference_ms[wi][di] = forced(Accelerator::Multicore).max(forced(Accelerator::Gpu));
            }
        }
        ChaosRunner {
            plan,
            resilient,
            breaker,
            engine,
            reference_ms,
        }
    }

    /// The plan under execution.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// The runner's engine (for metrics/event inspection after a run).
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// The deadline of one request slot.
    fn deadline_ms(&self, wi: usize, di: usize) -> f64 {
        self.plan.deadline_factor * self.reference_ms[wi][di]
    }

    /// Executes the plan across `threads` workers and returns the tally.
    ///
    /// The digest (and every count) is a pure function of the plan — rerun
    /// with any thread count and it must match bit for bit.
    pub fn run(&self, threads: usize) -> ChaosReport {
        self.run_observed(threads, |_, _| {})
    }

    /// [`ChaosRunner::run`] with a per-round observer. The observer fires
    /// from the serial fold after each round's breaker/digest bookkeeping,
    /// so anything it records is deterministic at any worker count — and
    /// because it is passive, the returned report (digest included) is
    /// bit-identical to an unobserved run.
    fn run_observed<F: for<'a> FnMut(u32, &RoundStats<'a>)>(
        &self,
        threads: usize,
        mut observe: F,
    ) -> ChaosReport {
        let threads = threads.max(1);
        let mut board = BreakerBoard::new(self.breaker);
        let mut digest: u64 = self.plan.seed ^ 0x5EED_C4A0_5B01_7E55;
        let mut times: Vec<f64> = Vec::new();
        let mut report = ChaosReport {
            requests: 0,
            good: 0,
            late: 0,
            failed: 0,
            shed: 0,
            p99_ms: f64::NAN,
            breaker_opens: 0,
            breaker_closes: 0,
            digest: 0,
        };

        for round in 0..self.plan.rounds {
            let fault_plan = self.plan.fault_plan_for_round(round);
            if round % self.plan.episode_len.max(1) == 0 {
                let episode = self.plan.episode_of(round);
                let event = self.plan.event_for_episode(episode);
                heteromap_obs::event("chaos.episode", || {
                    format!("episode={episode} round={round} event={event:?}")
                });
            }
            self.engine.set_fault_plan(fault_plan);

            let n = self.plan.requests_per_round as usize;
            report.requests += n;
            // Snapshot routing for the whole round.
            let (all_open, avoid) = if self.resilient {
                (board.all_open(), board.route_avoid())
            } else {
                (false, None)
            };
            if all_open {
                for slot in 0..n {
                    board.on_shed_open();
                    report.shed += 1;
                    digest = fold_digest(
                        digest,
                        &[u64::from(round), slot as u64, Resolution::Shed.tag()],
                    );
                }
                observe(
                    round,
                    &RoundStats {
                        n,
                        good: 0,
                        late: 0,
                        failed: 0,
                        shed: n,
                        multi_attempt: 0,
                        extra_attempts: 0,
                        overdraft_sum: 0.0,
                        times: &[],
                        breaker_opens: board.total_opens(),
                        breaker_closes: board.total_closes(),
                    },
                );
                continue;
            }

            let outcomes = self.evaluate_round(round, n, avoid, threads);
            let round_times_start = times.len();
            let (mut good, mut late, mut failed) = (0usize, 0usize, 0usize);
            let mut multi_attempt = 0usize;
            let mut extra_attempts = 0usize;
            let mut overdraft_sum = 0.0f64;
            // Serial fold in slot order: breaker evolution and the digest
            // are independent of which worker computed which slot.
            for (slot, (deadline, served)) in outcomes.iter().enumerate() {
                let time_ms = served.placement.report.time_ms;
                let within = time_ms <= *deadline;
                let completed = served.placement.completed();
                if self.resilient {
                    if let Some(accelerator) = avoid {
                        board.on_routed_around(accelerator);
                    }
                    board.on_placement(&served.placement, *deadline);
                }
                let resolution = if completed && within {
                    Resolution::Good
                } else if !within
                    || served
                        .placement
                        .attempts
                        .records
                        .iter()
                        .any(|r| matches!(r.outcome, AttemptOutcome::DeadlineExceeded { .. }))
                {
                    Resolution::Late
                } else {
                    Resolution::Failed
                };
                match resolution {
                    Resolution::Good => good += 1,
                    Resolution::Late => late += 1,
                    Resolution::Failed => failed += 1,
                    Resolution::Shed => unreachable!("sheds never reach evaluation"),
                }
                let attempts = served.placement.attempts.total_attempts();
                if attempts > 1 {
                    multi_attempt += 1;
                    extra_attempts += attempts - 1;
                }
                if time_ms.is_finite() {
                    times.push(time_ms);
                    // Overdraft against the worst-leg fault-free reference
                    // (deadline = factor × reference): exactly 0 when the
                    // run is no slower than a healthy worst-leg deploy.
                    let reference = *deadline / self.plan.deadline_factor;
                    if reference.is_finite() && reference > 0.0 {
                        overdraft_sum += (time_ms / reference - 1.0).max(0.0);
                    }
                }
                let mut parts = vec![
                    u64::from(round),
                    slot as u64,
                    resolution.tag(),
                    u64::from(served.placement.accelerator() == Accelerator::Gpu),
                    time_ms.to_bits(),
                ];
                parts.extend(
                    served
                        .placement
                        .config
                        .as_array()
                        .iter()
                        .map(|x| x.to_bits()),
                );
                digest = fold_digest(digest, &parts);
            }
            report.good += good;
            report.late += late;
            report.failed += failed;
            observe(
                round,
                &RoundStats {
                    n,
                    good,
                    late,
                    failed,
                    shed: 0,
                    multi_attempt,
                    extra_attempts,
                    overdraft_sum,
                    times: &times[round_times_start..],
                    breaker_opens: board.total_opens(),
                    breaker_closes: board.total_closes(),
                },
            );
        }

        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        report.p99_ms = if times.is_empty() {
            f64::NAN
        } else {
            let rank = ((0.99 * times.len() as f64).ceil() as usize).clamp(1, times.len());
            times[rank - 1]
        };
        report.breaker_opens = board.total_opens();
        report.breaker_closes = board.total_closes();
        report.digest = digest;
        report
    }

    /// Executes the plan with live telemetry: a private [`MetricsHub`]
    /// aggregates per-round counters/histograms (one rolled window per
    /// round), and two drift detectors watch the rounds — one over the
    /// latency-overdraft series, one over the bad-outcome fraction. Both
    /// series are exactly `0.0` on fault-free rounds, so the calm regime
    /// can never false-positive; detectors re-arm at episode boundaries so
    /// an early incident cannot mask a later one.
    ///
    /// The observer runs in the serial fold, so everything here — the
    /// hub's contents, the flagged set, and the embedded report's digest —
    /// is bit-identical at any `threads`.
    pub fn run_telemetry(&self, threads: usize) -> ChaosTelemetry {
        let hub = MetricsHub::new();
        let outcome = |o: &'static str| {
            hub.counter(
                "chaos_requests_total",
                &[("outcome", o)],
                "Chaos requests by resolution bucket",
            )
        };
        let good_c = outcome("good");
        let late_c = outcome("late");
        let failed_c = outcome("failed");
        let shed_c = outcome("shed");
        let extra_attempts_c = hub.counter(
            "chaos_extra_attempts_total",
            &[],
            "Deploy attempts beyond the first (retries + failovers)",
        );
        let completion_h = hub.histogram(
            "chaos_completion_ms",
            &[],
            "Simulated completion time of resolved chaos requests",
            &LATENCY_BOUNDS_MS,
        );
        let opens_g = hub.gauge(
            "chaos_breaker_opens",
            &[],
            "Cumulative circuit-breaker trips",
        );
        let closes_g = hub.gauge(
            "chaos_breaker_closes",
            &[],
            "Cumulative circuit-breaker recoveries",
        );
        let latency_g = hub.gauge(
            "chaos_latency_overdraft",
            &[],
            "Mean per-request overdraft vs. the fault-free reference",
        );
        let outcome_g = hub.gauge(
            "chaos_outcome_anomaly",
            &[],
            "Fraction of requests late, failed, shed, or retried",
        );

        // Both series sit at exactly 0.0 when healthy, so arm the EWMA
        // baseline at 0 and flag any excursion past the minimum band.
        let detector_cfg = DriftConfig {
            min_band: 0.02,
            baseline: Some(0.0),
            ..DriftConfig::upward()
        };
        let mut latency_det = SeriesDetector::new(detector_cfg);
        let mut outcome_det = SeriesDetector::new(detector_cfg);
        let episode_len = self.plan.episode_len.max(1);
        let mut board = HealthBoard::new(u64::from(episode_len));
        let mut flagged = std::collections::BTreeSet::new();

        let report = self.run_observed(threads, |round, stats| {
            if round % episode_len == 0 {
                latency_det.reset();
                outcome_det.reset();
            }
            good_c.add(stats.good as u64);
            late_c.add(stats.late as u64);
            failed_c.add(stats.failed as u64);
            shed_c.add(stats.shed as u64);
            extra_attempts_c.add(stats.extra_attempts as u64);
            for &t in stats.times {
                completion_h.record(t);
            }
            opens_g.set(stats.breaker_opens as f64);
            closes_g.set(stats.breaker_closes as f64);

            let n = stats.n.max(1) as f64;
            let latency_score = stats.overdraft_sum / n;
            let outcome_score =
                (stats.late + stats.failed + stats.shed + stats.multi_attempt) as f64 / n;
            latency_g.set(latency_score);
            outcome_g.set(outcome_score);
            let window = hub.roll();

            let episode = round / episode_len;
            let lat = latency_det.observe(latency_score);
            if lat.drift {
                board.raise(
                    "chaos/latency",
                    SignalKind::LatencyInflation,
                    window,
                    lat.score,
                );
                flagged.insert(episode);
            }
            let out = outcome_det.observe(outcome_score);
            if out.drift {
                board.raise(
                    "chaos/outcomes",
                    SignalKind::OutcomeAnomaly,
                    window,
                    out.score,
                );
                flagged.insert(episode);
            }
            board.expire(window);
        });

        let episodes = self.plan.rounds.div_ceil(episode_len);
        let faulty_episodes: Vec<u32> = (0..episodes)
            .filter(|&e| self.plan.event_for_episode(e) != ChaosEvent::Calm)
            .collect();
        ChaosTelemetry {
            report,
            flagged_episodes: flagged.into_iter().collect(),
            faulty_episodes,
            signals: board.signals().to_vec(),
            hub,
        }
    }

    /// Evaluates one round's slots on the pool, in slot order. Slots are
    /// pure given the routing snapshot, so which participant computes a
    /// slot never changes what it resolves to.
    fn evaluate_round(
        &self,
        round: u32,
        n: usize,
        avoid: Option<Accelerator>,
        threads: usize,
    ) -> Vec<(f64, Served)> {
        heteromap::par_map(n, threads, |slot| {
            let (wi, di) = self.plan.request_for(round, slot as u32);
            let deadline = self.deadline_ms(wi, di);
            let ctx = WorkloadContext::for_workload(WORKLOADS[wi], DATASETS[di].stats());
            let opts = if self.resilient {
                DeployOptions::with_deadline_ms(deadline).avoiding(avoid)
            } else {
                DeployOptions::default()
            };
            (deadline, self.engine.schedule_context_opts(&ctx, opts))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChaosPlan;

    #[test]
    fn fault_free_run_is_all_good() {
        let runner = ChaosRunner::new(ChaosPlan::smoke(5, 0.0), true);
        let report = runner.run(2);
        assert!(report.fully_accounted());
        assert_eq!(report.good, report.requests);
        assert_eq!(report.breaker_opens, 0);
        assert!(report.p99_ms.is_finite());
    }

    #[test]
    fn digests_are_identical_across_thread_counts_and_reruns() {
        for resilient in [true, false] {
            let runner = ChaosRunner::new(ChaosPlan::smoke(42, 0.5), resilient);
            let single = runner.run(1);
            let quad = runner.run(4);
            let rerun = runner.run(4);
            assert_eq!(single.digest, quad.digest, "resilient={resilient}");
            assert_eq!(quad.digest, rerun.digest, "resilient={resilient}");
            assert_eq!(
                (single.good, single.late, single.failed, single.shed),
                (quad.good, quad.late, quad.failed, quad.shed),
            );
            assert!(single.fully_accounted());
        }
    }

    #[test]
    fn different_seeds_give_different_digests() {
        let a = ChaosRunner::new(ChaosPlan::smoke(1, 0.5), true).run(2);
        let b = ChaosRunner::new(ChaosPlan::smoke(2, 0.5), true).run(2);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn telemetry_preserves_the_digest_and_is_thread_count_independent() {
        let runner = ChaosRunner::new(ChaosPlan::smoke(42, 0.5), true);
        let plain = runner.run(2);
        let t1 = runner.run_telemetry(1);
        let t4 = runner.run_telemetry(4);
        assert_eq!(t1.report.digest, plain.digest, "observer must be passive");
        assert_eq!(t1.report.digest, t4.report.digest);
        assert_eq!(t1.flagged_episodes, t4.flagged_episodes);
        assert_eq!(t1.signals, t4.signals);
        assert_eq!(t1.prometheus_text(), t4.prometheus_text());
        assert_eq!(
            t1.hub().window_index(),
            u64::from(runner.plan().rounds),
            "one rolled window per round"
        );
    }

    #[test]
    fn calm_regime_raises_no_signals() {
        let telemetry = ChaosRunner::new(ChaosPlan::smoke(7, 0.0), true).run_telemetry(2);
        assert!(telemetry.flagged_episodes.is_empty());
        assert!(telemetry.faulty_episodes.is_empty());
        assert!(telemetry.signals.is_empty());
        assert_eq!(telemetry.report.good, telemetry.report.requests);
    }

    #[test]
    fn chaotic_run_flags_its_faulty_episodes() {
        let telemetry = ChaosRunner::new(ChaosPlan::smoke(42, 0.7), true).run_telemetry(2);
        assert!(
            !telemetry.faulty_episodes.is_empty(),
            "plan must inject faults"
        );
        let coverage = telemetry.coverage();
        assert!(
            coverage >= 0.99,
            "detectors missed faulty episodes: coverage {coverage:.2}, \
             flagged {:?} of {:?}",
            telemetry.flagged_episodes,
            telemetry.faulty_episodes
        );
        assert!(telemetry
            .signals
            .iter()
            .any(|s| s.kind != SignalKind::Recovered));
    }

    #[test]
    fn telemetry_counters_reconcile_with_the_report() {
        use heteromap_obs::metrics::SeriesValue;
        let telemetry = ChaosRunner::new(ChaosPlan::smoke(11, 0.5), true).run_telemetry(2);
        let count = |outcome: &str| {
            telemetry
                .hub()
                .snapshot()
                .into_iter()
                .find(|s| {
                    s.name == "chaos_requests_total" && s.labels.iter().any(|(_, v)| v == outcome)
                })
                .map(|s| match s.value {
                    SeriesValue::Counter(v) => v as usize,
                    other => panic!("not a counter: {other:?}"),
                })
                .unwrap_or(0)
        };
        assert_eq!(count("good"), telemetry.report.good);
        assert_eq!(count("late"), telemetry.report.late);
        assert_eq!(count("failed"), telemetry.report.failed);
        assert_eq!(count("shed"), telemetry.report.shed);
    }

    #[test]
    fn resilient_mode_beats_the_baseline_under_heavy_chaos() {
        let plan = ChaosPlan::seeded(42, 0.5);
        let resilient = ChaosRunner::new(plan, true).run(4);
        let baseline = ChaosRunner::new(plan, false).run(4);
        assert!(resilient.fully_accounted() && baseline.fully_accounted());
        assert!(
            resilient.good > baseline.good,
            "resilient {} vs baseline {} of {}",
            resilient.good,
            baseline.good,
            resilient.requests
        );
        assert!(resilient.breaker_opens > 0, "breakers exercised");
        assert_eq!(baseline.breaker_opens, 0);
        assert_eq!(baseline.shed, 0, "baseline never sheds");
    }
}
