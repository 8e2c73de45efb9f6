//! The chaos round driver: a [`ChaosPlan`] executed through the serving
//! stack as a policy over [`heteromap::rounds`].
//!
//! The round engine supplies the determinism: routing is snapshotted at
//! round start, slots are evaluated in parallel as pure functions of the
//! snapshot, and the breaker board, tallies and digest evolve in one serial
//! fold in slot order. This module adds simulated time: placements charge
//! simulated milliseconds. The engine serves the decision tree, whose
//! modeled inference cost is zero, so a cache miss charges the same as a
//! hit: a request's outcome is identical whether it hit or missed the
//! cache, and races on the cache cannot leak into results.
//!
//! The digest chains every `(round, slot, outcome, accelerator, time,
//! config)`, so two runs agree on the digest iff they agreed on every
//! single request.

use crate::plan::{ChaosEvent, ChaosPlan, DATASETS, WORKLOADS};
use heteromap::rounds::{self, Ledger, Resolution, RoundPolicy};
use heteromap::{BreakerBoard, BreakerConfig, DeployOptions, HeteroMap};
use heteromap_accel::cost::WorkloadContext;
use heteromap_model::Accelerator;
use heteromap_obs::metrics::{
    DriftConfig, HealthBoard, HealthSignal, MetricsHub, SeriesDetector, SignalKind,
    LATENCY_BOUNDS_MS,
};
use heteromap_serve::{ServeConfig, ServeEngine, ServeMode, Served};

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

/// One round's tally, handed to the telemetry observer with the ledger
/// and the breaker board after the serial fold, so what the observer sees
/// is independent of worker count.
#[derive(Debug, Default)]
struct RoundStats {
    /// The ledger's counts and time count when the round opened.
    start: ([usize; 4], usize),
    /// Requests that needed more than one deploy attempt.
    multi_attempt: usize,
    /// Attempts beyond the first, summed over the round's requests.
    extra_attempts: usize,
    /// Σ max(0, time/reference − 1) over resolved finite-time requests —
    /// exactly 0.0 on a fault-free round (every natural placement is no
    /// slower than its worst-leg reference).
    overdraft_sum: f64,
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
        let engine = ServeEngine::new(
            HeteroMap::with_decision_tree(),
            ServeConfig::with_mode(ServeMode::Cached),
        );
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

    /// Executes the plan across `threads` workers and returns the tally.
    ///
    /// The digest (and every count) is a pure function of the plan — rerun
    /// with any thread count and it must match bit for bit.
    pub fn run(&self, threads: usize) -> ChaosReport {
        self.run_observed(threads, |_, _, _, _| {})
    }

    /// [`ChaosRunner::run`] with a per-round observer. The observer fires
    /// after each round's serial fold, so anything it records is
    /// deterministic at any worker count — and because it is passive, the
    /// returned report (digest included) is bit-identical to an unobserved
    /// run.
    fn run_observed<F>(&self, threads: usize, observe: F) -> ChaosReport
    where
        F: FnMut(u32, &RoundStats, &Ledger, &BreakerBoard) + Sync,
    {
        let mut policy = ChaosRound {
            runner: self,
            board: BreakerBoard::new(self.breaker),
            avoid: None,
            stats: RoundStats::default(),
            observe,
        };
        let ledger = rounds::run(&mut policy, threads);
        let [good, late, failed, shed] = ledger.counts;
        ChaosReport {
            requests: self.plan.rounds as usize * self.plan.requests_per_round as usize,
            good,
            late,
            failed,
            shed,
            p99_ms: ledger.p99_ms(),
            breaker_opens: policy.board.total_opens(),
            breaker_closes: policy.board.total_closes(),
            digest: ledger.digest(),
        }
    }

    /// Executes the plan with live telemetry: a private [`MetricsHub`]
    /// aggregates per-round counters/histograms (one rolled window per
    /// round), and two drift detectors watch the rounds — one over the
    /// latency-overdraft series, one over the bad-outcome fraction. Both
    /// series are exactly `0.0` on fault-free rounds, so the calm regime
    /// can never false-positive; detectors re-arm at episode boundaries so
    /// an early incident cannot mask a later one.
    ///
    /// The observer runs after the serial fold, so everything here — the
    /// hub's contents, the flagged set, and the embedded report's digest —
    /// is bit-identical at any `threads`.
    pub fn run_telemetry(&self, threads: usize) -> ChaosTelemetry {
        let hub = MetricsHub::new();
        let outcome_c = ["good", "late", "failed", "shed"].map(|o| {
            let help = "Chaos requests by resolution bucket";
            hub.counter("chaos_requests_total", &[("outcome", o)], help)
        });
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
        let gauge = |name, help| hub.gauge(name, &[], help);
        let opens_g = gauge("chaos_breaker_opens", "Cumulative circuit-breaker trips");
        let closes_g = gauge(
            "chaos_breaker_closes",
            "Cumulative circuit-breaker recoveries",
        );
        let latency_g = gauge(
            "chaos_latency_overdraft",
            "Mean per-request overdraft vs. the fault-free reference",
        );
        let outcome_g = gauge(
            "chaos_outcome_anomaly",
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
        let n = self.plan.requests_per_round.max(1) as f64;

        let report = self.run_observed(threads, |round, stats, ledger, breakers| {
            if round % episode_len == 0 {
                latency_det.reset();
                outcome_det.reset();
            }
            let (counts, times) = stats.start;
            let tally: [usize; 4] = std::array::from_fn(|k| ledger.counts[k] - counts[k]);
            for (counter, k) in outcome_c.iter().zip(tally) {
                counter.add(k as u64);
            }
            extra_attempts_c.add(stats.extra_attempts as u64);
            for &t in &ledger.times[times..] {
                completion_h.record(t);
            }
            opens_g.set(breakers.total_opens() as f64);
            closes_g.set(breakers.total_closes() as f64);

            let latency_score = stats.overdraft_sum / n;
            let outcome_score = (tally[1] + tally[2] + tally[3] + stats.multi_attempt) as f64 / n;
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
}

/// One run of a plan: the breaker board, the round's routing snapshot and
/// tally, and the per-round observer.
struct ChaosRound<'r, F> {
    runner: &'r ChaosRunner,
    board: BreakerBoard,
    /// Routing snapshot: the accelerator this round's requests avoid.
    avoid: Option<Accelerator>,
    stats: RoundStats,
    observe: F,
}

impl<F> RoundPolicy for ChaosRound<'_, F>
where
    F: FnMut(u32, &RoundStats, &Ledger, &BreakerBoard) + Sync,
{
    type Outcome = (f64, Served);
    const CATEGORY: &'static str = "chaos";
    const EPISODE_EVENT: &'static str = "chaos.episode";

    fn digest_seed(&self) -> u64 {
        self.runner.plan.seed ^ 0x5EED_C4A0_5B01_7E55
    }

    fn episode_len(&self) -> u32 {
        self.runner.plan.episode_len
    }

    fn runs(&self, round: u32) -> bool {
        round < self.runner.plan.rounds
    }

    /// Installs the episode's fault plan, which empties the engine's cache.
    fn begin_episode(&mut self, episode: u32) {
        let plan = &self.runner.plan;
        let fault_plan = plan.fault_plan_for_round(episode * plan.episode_len.max(1));
        self.runner.engine.set_fault_plan(fault_plan);
    }

    fn describe_episode(&self, episode: u32) -> String {
        format!("event={:?}", self.runner.plan.event_for_episode(episode))
    }

    /// Snapshots breaker routing. With both breakers open every request is
    /// shed without evaluation.
    fn open_round(&mut self, round: u32, ledger: &mut Ledger) -> usize {
        let runner = self.runner;
        self.stats = RoundStats {
            start: (ledger.counts, ledger.times.len()),
            ..RoundStats::default()
        };
        let n = runner.plan.requests_per_round as usize;
        self.avoid = None;
        if runner.resilient {
            if self.board.all_open() {
                for slot in 0..n {
                    self.board.on_shed_open();
                    ledger.resolve(round, slot as u64, Resolution::Shed, []);
                }
                return 0;
            }
            self.avoid = self.board.route_avoid();
        }
        n
    }

    fn evaluate(&self, round: u32, slot: usize) -> (f64, Served) {
        let runner = self.runner;
        let (wi, di) = runner.plan.request_for(round, slot as u32);
        let deadline = runner.plan.deadline_factor * runner.reference_ms[wi][di];
        let ctx = WorkloadContext::for_workload(WORKLOADS[wi], DATASETS[di].stats());
        let opts = if runner.resilient {
            DeployOptions::with_deadline_ms(deadline).avoiding(self.avoid)
        } else {
            DeployOptions::default()
        };
        (deadline, runner.engine.schedule_context_opts(&ctx, opts))
    }

    fn fold(&mut self, round: u32, slot: usize, outcome: (f64, Served), ledger: &mut Ledger) {
        let (deadline, served) = outcome;
        let placement = &served.placement;
        let time_ms = placement.report.time_ms;
        if self.runner.resilient {
            if let Some(accelerator) = self.avoid {
                self.board.on_routed_around(accelerator);
            }
            self.board.on_placement(placement, deadline);
        }
        let resolution = Resolution::of(placement, deadline);
        let attempts = placement.attempts.total_attempts();
        if attempts > 1 {
            self.stats.multi_attempt += 1;
            self.stats.extra_attempts += attempts - 1;
        }
        if time_ms.is_finite() {
            ledger.times.push(time_ms);
            // Overdraft against the worst-leg fault-free reference
            // (deadline = factor × reference): exactly 0 when the run is no
            // slower than a healthy worst-leg deploy.
            let reference = deadline / self.runner.plan.deadline_factor;
            if reference.is_finite() && reference > 0.0 {
                self.stats.overdraft_sum += (time_ms / reference - 1.0).max(0.0);
            }
        }
        let gpu = u64::from(placement.accelerator() == Accelerator::Gpu);
        let config = placement.config.as_array().map(f64::to_bits);
        let rest = [gpu, time_ms.to_bits()].into_iter().chain(config);
        ledger.resolve(round, slot as u64, resolution, rest);
    }

    fn close_round(&mut self, round: u32, ledger: &Ledger) {
        (self.observe)(round, &self.stats, ledger, &self.board);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChaosPlan;
    use heteromap_accel::FaultPlan;
    use heteromap_serve::ServeSource;

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
    fn cache_hits_and_misses_charge_the_same() {
        // The decision tree's modeled inference cost is zero, so whether a
        // racing worker finds a request cached cannot move its time.
        let runner = ChaosRunner::new(ChaosPlan::smoke(5, 0.0), true);
        let engine = runner.engine();
        assert_eq!(engine.miss_overhead_ms(), 0.0);
        let ctx = WorkloadContext::for_workload(WORKLOADS[0], DATASETS[0].stats());
        engine.set_fault_plan(FaultPlan::healthy());
        let miss = engine.schedule_context(&ctx);
        let hit = engine.schedule_context(&ctx);
        assert_eq!(miss.source, ServeSource::Computed);
        assert_eq!(hit.source, ServeSource::CacheHit);
        assert_eq!(miss.placement, hit.placement);
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
