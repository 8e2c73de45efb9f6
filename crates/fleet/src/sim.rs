//! The fleet round driver: deterministic co-scheduling of a job trace over
//! a cluster at any thread count.
//!
//! The loop follows the chaos-crate discipline (`heteromap-chaos`):
//!
//! 1. **Simulated time only.** Rounds advance a fixed tick of simulated
//!    milliseconds derived from the trace's offered load; completions,
//!    queues and deadlines all live on that clock.
//! 2. **Snapshot-route.** Device health is fixed per episode, and breaker
//!    state is only read/updated in the serial phase, so routing inputs
//!    never race.
//! 3. **Parallel slot evaluation.** Each pending job's outcome *on every
//!    device* (attempt-by-attempt transient draws, wasted charge, clean run
//!    time) is a pure function of `(trace seed, job uid, device id,
//!    episode health)`; worker threads only decide *who* computes a slot,
//!    never *what* it resolves to.
//! 4. **Serial fold.** Placement decisions, queue commits, breaker
//!    evolution, migrations and the completion digest happen in one serial
//!    pass in slot order.
//!
//! The digest chains every `(round, uid, resolution, device, finish,
//! config)` through one hasher, so two runs agree on the digest iff they
//! agreed on every single job — the bench asserts it is bit-identical at
//! 1, 4 and 16 threads.

use crate::cluster::Cluster;
use crate::placer::{best_candidate, evolve_batch, BatchJob, Placer};
use crate::trace::{FleetTrace, DATASETS, WORKLOADS};
use heteromap::{clamp_config_for, BreakerConfig, CircuitBreaker, HeteroMap};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::{DeployError, FaultState, Occupancy};
use heteromap_model::{fold_digest, MConfig};
use heteromap_obs::metrics::{
    Counter, DriftConfig, Gauge, HealthBoard, SeriesDetector, SignalKind,
};
use heteromap_tune::{mix, PLACEMENT_SLOTS};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Deploy attempts per device before a job gives up and migrates.
const MAX_ATTEMPTS: u32 = 3;

/// Oracle budget per evolutionary chunk search.
const EVOLVE_BUDGET: usize = 56;

/// Cost multiplier applied to a device's quotes while its health signal is
/// raised: drift-flagged devices look this much slower to the placers, so
/// load drains away before the circuit breaker has to trip.
const DRIFT_PENALTY: f64 = 0.3;

/// How one job resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    /// Completed within its deadline.
    Good,
    /// Completed outside its deadline.
    Late,
    /// Gave up: migration budget exhausted (or the run was cut off).
    Failed,
    /// Dropped by deadline-aware shedding or because no device was
    /// targetable.
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

/// Digest tag for a migration re-queue (jobs resolve later).
const MIGRATE_TAG: u64 = 5;

/// A job waiting for placement.
#[derive(Debug, Clone, Copy)]
struct PendingJob {
    uid: u64,
    wi: usize,
    di: usize,
    arrival_ms: f64,
    deadline_abs_ms: f64,
    migrations: u32,
}

/// Predicted behaviour of one combo on one device under the current
/// episode's health.
#[derive(Debug, Clone, Copy)]
struct Quote {
    /// Re-clamped M-config for this device's role and surviving fraction.
    cfg: MConfig,
    /// What the placer budgets: the fault-free run time under the episode
    /// health (∞ when Down), inflated for known transient flakiness so
    /// health-aware placers prefer stable devices.
    expected_ms: f64,
}

/// The drawn outcome of running one job on one device.
#[derive(Debug, Clone, Copy)]
struct DeviceOutcome {
    /// Whether an attempt succeeded within [`MAX_ATTEMPTS`].
    success: bool,
    /// Clean run time of the successful attempt (0 when every attempt
    /// failed).
    run_ms: f64,
    /// Simulated time wasted on failed attempts (still occupies the
    /// device).
    charge_ms: f64,
}

/// Aggregated outcome of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetReport {
    /// Jobs the trace generated.
    pub jobs: usize,
    /// Jobs completed within their deadline.
    pub good: usize,
    /// Jobs completed outside their deadline.
    pub late: usize,
    /// Jobs that exhausted their migration budget.
    pub failed: usize,
    /// Jobs dropped by deadline-aware shedding / unplaceable jobs.
    pub shed: usize,
    /// Migration re-queues (a job leaving a failed device).
    pub migrations: u64,
    /// 99th-percentile completion (sojourn) time of completed jobs in
    /// simulated ms (`NaN` when nothing completed).
    pub p99_ms: f64,
    /// Goodput: deadline-met jobs per simulated second of the run's span.
    pub jobs_per_sec: f64,
    /// Simulated span: arrival horizon or last device-idle time, whichever
    /// is later.
    pub span_ms: f64,
    /// Mean device busy fraction over the span.
    pub avg_utilization: f64,
    /// Breaker trips over the run (0 for naive placers).
    pub breaker_opens: u64,
    /// Breaker recoveries over the run (0 for naive placers).
    pub breaker_closes: u64,
    /// Health signals raised by the per-device drift detectors (0 for
    /// naive placers, which ignore health entirely).
    pub drift_signals: u64,
    /// Thread-count-independent digest over every job's resolution.
    pub digest: u64,
}

impl FleetReport {
    /// Whether every generated job resolved to exactly one bucket.
    pub fn fully_accounted(&self) -> bool {
        self.good + self.late + self.failed + self.shed == self.jobs
    }

    /// Fraction of generated jobs that completed within deadline.
    pub fn goodput_fraction(&self) -> f64 {
        if self.jobs == 0 {
            return f64::NAN;
        }
        self.good as f64 / self.jobs as f64
    }
}

/// Drives one [`FleetTrace`] over a [`Cluster`] with one [`Placer`].
///
/// Construction predicts a base M-config per (workload, dataset) combo with
/// the decision-tree predictor and calibrates the round tick so the trace's
/// arrival stream offers [`FleetTrace::load`] of cluster capacity. The same
/// simulator instance can be run repeatedly; every run is a pure function
/// of the trace.
#[derive(Debug)]
pub struct FleetSim {
    trace: FleetTrace,
    cluster: Cluster,
    placer: Placer,
    /// Per combo (`wi * DATASETS + di`): the workload context and the
    /// predictor's base configuration.
    base: Vec<(WorkloadContext, MConfig)>,
    /// Per combo: fault-free completion on its best device (deadline and
    /// load reference).
    ref_ms: Vec<f64>,
    /// Simulated milliseconds per round.
    tick_ms: f64,
}

impl FleetSim {
    /// A simulator over a fresh decision-tree predictor.
    pub fn new(trace: FleetTrace, cluster: Cluster, placer: Placer) -> Self {
        let predictor = HeteroMap::with_decision_tree();
        let mut base = Vec::with_capacity(WORKLOADS.len() * DATASETS.len());
        let mut ref_ms = Vec::with_capacity(base.capacity());
        for &workload in &WORKLOADS {
            for &dataset in &DATASETS {
                let ctx = WorkloadContext::for_workload(workload, dataset.stats());
                let ivec = predictor.ivector(&ctx.stats);
                let (cfg, _flops) = predictor.predict_config(&ctx.b, &ivec);
                let best = cluster
                    .devices()
                    .iter()
                    .map(|device| {
                        let clamped = clamp_config_for(&cfg, device.role(), 1.0);
                        device
                            .evaluate(cluster.model(), &ctx, &clamped, FaultState::Healthy)
                            .expect("healthy devices evaluate")
                            .time_ms
                    })
                    .fold(f64::INFINITY, f64::min);
                base.push((ctx, cfg));
                ref_ms.push(best);
            }
        }
        let mean_ref = ref_ms.iter().sum::<f64>() / ref_ms.len() as f64;
        let tick_ms =
            mean_ref * trace.mean_arrivals / (cluster.len() as f64 * trace.load.max(0.05));
        FleetSim {
            trace,
            cluster,
            placer,
            base,
            ref_ms,
            tick_ms,
        }
    }

    /// The trace under execution.
    pub fn trace(&self) -> &FleetTrace {
        &self.trace
    }

    /// The cluster under scheduling.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The placement policy.
    pub fn placer(&self) -> Placer {
        self.placer
    }

    /// Simulated milliseconds per round (derived from the trace's load).
    pub fn tick_ms(&self) -> f64 {
        self.tick_ms
    }

    fn combo(&self, wi: usize, di: usize) -> usize {
        wi * DATASETS.len() + di
    }

    /// Recomputes the per-combo × per-device quote table for one episode:
    /// the base prediction re-clamped for each device's role and surviving
    /// fraction (the same [`clamp_config_for`] path the resilient deploy
    /// loop uses for failover), evaluated under the episode health.
    fn quotes_for(&self, states: &[FaultState]) -> Vec<Vec<Quote>> {
        self.base
            .iter()
            .map(|(ctx, cfg)| {
                self.cluster
                    .devices()
                    .iter()
                    .map(|device| {
                        let state = states[device.id];
                        let clamped =
                            clamp_config_for(cfg, device.role(), state.surviving_fraction());
                        let clean_ms = device
                            .evaluate(self.cluster.model(), ctx, &clamped, state)
                            .map_or(f64::INFINITY, |r| r.time_ms);
                        let expected_ms = match state {
                            FaultState::Transient { failure_rate } => {
                                clean_ms / (1.0 - 0.85 * failure_rate.clamp(0.0, 1.0))
                            }
                            _ => clean_ms,
                        };
                        Quote {
                            cfg: clamped,
                            expected_ms,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Executes the trace across `threads` workers and returns the tally.
    ///
    /// The digest (and every count) is a pure function of the trace — rerun
    /// with any thread count and it must match bit for bit.
    pub fn run(&self, threads: usize) -> FleetReport {
        let threads = threads.max(1);
        let n_dev = self.cluster.len();
        let predictor_driven = self.placer.is_predictor_driven();
        let mut occ = vec![Occupancy::new(); n_dev];
        let mut breakers: Vec<CircuitBreaker> = self
            .cluster
            .devices()
            .iter()
            .map(|d| CircuitBreaker::new(d.role(), BreakerConfig::default()))
            .collect();
        let mut states = vec![FaultState::Healthy; n_dev];
        let mut quotes: Vec<Vec<Quote>> = Vec::new();
        let mut pending: Vec<PendingJob> = Vec::new();
        let mut requeue: Vec<PendingJob> = Vec::new();
        let mut times: Vec<f64> = Vec::new();
        let mut digest: u64 = self.trace.seed ^ 0xF1EE_7C4A_0D1E_5E57;
        let mut uid: u64 = 0;
        let mut rr_cursor: usize = 0;

        // Per-device drift detection feeding the predictor-driven placers:
        // the migration rate off a healthy device is exactly 0, so the
        // detectors are armed at baseline 0 and re-armed every episode.
        // A raised signal inflates the device's quotes by [`DRIFT_PENALTY`]
        // until it expires — soft avoidance ahead of the breaker's hard cut.
        let detector_cfg = DriftConfig {
            min_band: 0.05,
            baseline: Some(0.0),
            ..DriftConfig::upward()
        };
        let mut detectors: Vec<SeriesDetector> = vec![SeriesDetector::new(detector_cfg); n_dev];
        let mut health = HealthBoard::new(u64::from(self.trace.episode_len.max(1)));
        let device_keys: Vec<String> = (0..n_dev).map(|d| format!("device/{d}")).collect();
        let mut penalties = vec![1.0f64; n_dev];
        let mut placed_on = vec![0u64; n_dev];
        let mut migrations_off = vec![0u64; n_dev];

        // Numeric telemetry to the global hub, only when enabled; recording
        // happens exclusively in the serial phases, so enabling metrics
        // cannot perturb the digest.
        let hub_series = heteromap_obs::metrics_enabled().then(|| HubSeries::new(n_dev));
        let mut report = FleetReport {
            jobs: 0,
            good: 0,
            late: 0,
            failed: 0,
            shed: 0,
            migrations: 0,
            p99_ms: f64::NAN,
            jobs_per_sec: f64::NAN,
            span_ms: 0.0,
            avg_utilization: 0.0,
            breaker_opens: 0,
            breaker_closes: 0,
            drift_signals: 0,
            digest: 0,
        };

        let drain_limit = self.trace.rounds + self.trace.max_migrations + 4;
        let mut rounds_driven = 0u32;
        let mut round = 0u32;
        while round < self.trace.rounds || !pending.is_empty() || !requeue.is_empty() {
            if round >= drain_limit {
                break;
            }
            let now_ms = f64::from(round) * self.tick_ms;
            let episode_len = self.trace.episode_len.max(1);
            if round.is_multiple_of(episode_len) || quotes.is_empty() {
                let episode = self.trace.episode_of(round);
                for (d, state) in states.iter_mut().enumerate() {
                    *state = self.trace.fault_for(d, episode);
                }
                quotes = self.quotes_for(&states);
                // New episode, new fault regime: re-arm the drift detectors
                // so an earlier incident cannot mask this episode's.
                for det in detectors.iter_mut() {
                    det.reset();
                }
                heteromap_obs::event("fleet.episode", || {
                    let down = states.iter().filter(|s| **s == FaultState::Down).count();
                    let healthy = states.iter().filter(|s| s.is_healthy()).count();
                    format!(
                        "episode={episode} round={round} healthy={healthy} down={down} of {n_dev}"
                    )
                });
            }

            // Migrated jobs re-enter ahead of this round's arrivals.
            if !requeue.is_empty() {
                let _span = heteromap_obs::span_cat("fleet.migrate", "fleet");
                pending.append(&mut requeue);
            }
            for k in 0..self.trace.arrivals(round) {
                let (wi, di) = self.trace.job_for(round, k);
                let combo = self.combo(wi, di);
                pending.push(PendingJob {
                    uid,
                    wi,
                    di,
                    arrival_ms: now_ms,
                    deadline_abs_ms: now_ms + self.trace.deadline_factor * self.ref_ms[combo],
                    migrations: 0,
                });
                uid += 1;
                report.jobs += 1;
            }
            if pending.is_empty() {
                round += 1;
                continue;
            }
            rounds_driven = round + 1;
            let _round_span = heteromap_obs::span_cat("fleet.round", "fleet");

            // Parallel slot evaluation: every pending job's drawn outcome on
            // every device. Pure per slot; workers only claim indices.
            let outcomes = {
                let _span = heteromap_obs::span_cat("fleet.eval", "fleet");
                self.evaluate_slots(&pending, &quotes, &states, threads)
            };

            // Serial place-and-fold in slot order.
            let _span = heteromap_obs::span_cat("fleet.place", "fleet");
            let decisions = self.place(
                &pending,
                &quotes,
                &states,
                &occ,
                &breakers,
                &penalties,
                now_ms,
                round,
                &mut rr_cursor,
            );
            for (slot, job) in pending.iter().enumerate() {
                let combo = self.combo(job.wi, job.di);
                match decisions[slot] {
                    None => {
                        // Shed: unplaceable or hopelessly late.
                        report.shed += 1;
                        if let Some(hub) = &hub_series {
                            hub.shed.inc();
                        }
                        if predictor_driven {
                            for b in breakers.iter_mut() {
                                b.on_shed();
                            }
                        }
                        heteromap_obs::event("fleet.shed", || {
                            format!(
                                "uid={} round={round} migrations={}",
                                job.uid, job.migrations
                            )
                        });
                        digest = fold_digest(
                            digest,
                            &[u64::from(round), job.uid, Resolution::Shed.tag(), 0],
                        );
                    }
                    Some(device) => {
                        let outcome = outcomes[slot][device];
                        let quote = &quotes[combo][device];
                        let work = outcome.charge_ms + outcome.run_ms;
                        let (_start, finish) = occ[device].admit(now_ms, work);
                        placed_on[device] += 1;
                        if predictor_driven {
                            for (d, b) in breakers.iter_mut().enumerate() {
                                if d == device {
                                    b.on_outcome(outcome.success);
                                } else {
                                    b.on_shed();
                                }
                            }
                        }
                        let mut parts = vec![
                            u64::from(round),
                            job.uid,
                            device as u64 + 1,
                            finish.to_bits(),
                            outcome.charge_ms.to_bits(),
                        ];
                        if outcome.success {
                            let sojourn = finish - job.arrival_ms;
                            times.push(sojourn);
                            let resolution = if finish <= job.deadline_abs_ms {
                                report.good += 1;
                                Resolution::Good
                            } else {
                                report.late += 1;
                                Resolution::Late
                            };
                            if let Some(hub) = &hub_series {
                                match resolution {
                                    Resolution::Good => hub.good.inc(),
                                    _ => hub.late.inc(),
                                }
                            }
                            parts.insert(2, resolution.tag());
                            parts.extend(quote.cfg.as_array().iter().map(|x| x.to_bits()));
                        } else if job.migrations < self.trace.max_migrations {
                            // The device failed under the job: re-predict
                            // and migrate next round (the quote table
                            // re-clamps the M-config for whatever device
                            // the next placement picks).
                            report.migrations += 1;
                            migrations_off[device] += 1;
                            if let Some(hub) = &hub_series {
                                hub.migrations.inc();
                            }
                            let mut moved = *job;
                            moved.migrations += 1;
                            requeue.push(moved);
                            parts.insert(2, MIGRATE_TAG);
                            heteromap_obs::event("fleet.migrate", || {
                                format!(
                                    "uid={} round={round} off_device={device} migrations={}",
                                    job.uid, moved.migrations
                                )
                            });
                        } else {
                            report.failed += 1;
                            if let Some(hub) = &hub_series {
                                hub.failed.inc();
                            }
                            parts.insert(2, Resolution::Failed.tag());
                        }
                        digest = fold_digest(digest, &parts);
                    }
                }
            }
            pending.clear();

            // End-of-round health pass (serial): fold each device's
            // migration rate into its drift detector, refresh the penalty
            // table for next round's placement, and mirror gauges to the
            // global hub.
            if predictor_driven {
                let window = u64::from(round) + 1;
                for d in 0..n_dev {
                    let rate = migrations_off[d] as f64 / placed_on[d].max(1) as f64;
                    let verdict = detectors[d].observe(rate);
                    if verdict.drift {
                        health.raise(
                            &device_keys[d],
                            SignalKind::OutcomeAnomaly,
                            window,
                            verdict.score,
                        );
                        report.drift_signals += 1;
                        if let Some(hub) = &hub_series {
                            hub.drift.inc();
                        }
                        let key = &device_keys[d];
                        heteromap_obs::event("fleet.drift", || {
                            format!(
                                "key={key} round={round} rate={rate:.3} score={:.3}",
                                verdict.score
                            )
                        });
                    }
                    migrations_off[d] = 0;
                    placed_on[d] = 0;
                }
                health.expire(window);
                for d in 0..n_dev {
                    penalties[d] = if health.is_flagged(&device_keys[d]) {
                        1.0 + DRIFT_PENALTY
                    } else {
                        1.0
                    };
                }
            }
            if let Some(hub) = &hub_series {
                let span_so_far = (f64::from(round) + 1.0) * self.tick_ms;
                for (d, o) in occ.iter().enumerate() {
                    hub.util[d].set(o.utilization(span_so_far));
                    hub.queue_depth[d].set((o.free_at_ms() - now_ms).max(0.0));
                }
            }
            round += 1;
        }
        // Safety net for the drain cap: anything still pending failed.
        for job in pending.iter().chain(requeue.iter()) {
            report.failed += 1;
            digest = fold_digest(
                digest,
                &[u64::from(round), job.uid, Resolution::Failed.tag()],
            );
        }

        let horizon_ms = f64::from(rounds_driven) * self.tick_ms;
        let makespan_ms = occ.iter().map(|o| o.free_at_ms()).fold(0.0, f64::max);
        report.span_ms = horizon_ms.max(makespan_ms);
        report.avg_utilization = if report.span_ms > 0.0 {
            occ.iter()
                .map(|o| o.utilization(report.span_ms))
                .sum::<f64>()
                / n_dev as f64
        } else {
            0.0
        };
        report.jobs_per_sec = if report.span_ms > 0.0 {
            report.good as f64 * 1000.0 / report.span_ms
        } else {
            f64::NAN
        };
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite sojourns"));
        report.p99_ms = if times.is_empty() {
            f64::NAN
        } else {
            let rank = ((0.99 * times.len() as f64).ceil() as usize).clamp(1, times.len());
            times[rank - 1]
        };
        report.breaker_opens = breakers.iter().map(|b| b.opens()).sum();
        report.breaker_closes = breakers.iter().map(|b| b.closes()).sum();
        report.digest = digest;
        report
    }

    /// Evaluates every pending job's outcome on every device on the pool,
    /// in slot order. Slots are pure given the episode snapshot, so which
    /// participant computes a slot never changes what it resolves to.
    fn evaluate_slots(
        &self,
        pending: &[PendingJob],
        quotes: &[Vec<Quote>],
        states: &[FaultState],
        threads: usize,
    ) -> Vec<Vec<DeviceOutcome>> {
        heteromap::par_map(pending.len(), threads, |slot| {
            let job = &pending[slot];
            let combo = self.combo(job.wi, job.di);
            self.cluster
                .devices()
                .iter()
                .map(|device| {
                    self.resolve_on(
                        &self.base[combo].0,
                        &quotes[combo][device.id],
                        states[device.id],
                        device.id,
                        job,
                    )
                })
                .collect()
        })
    }

    /// Resolves one (job, device) pair: up to [`MAX_ATTEMPTS`] attempts
    /// with deterministic per-attempt transient draws, charging the wasted
    /// partial runs.
    fn resolve_on(
        &self,
        ctx: &WorkloadContext,
        quote: &Quote,
        state: FaultState,
        device_id: usize,
        job: &PendingJob,
    ) -> DeviceOutcome {
        let device = &self.cluster.devices()[device_id];
        let mut charge_ms = 0.0;
        for attempt in 0..MAX_ATTEMPTS {
            match device.try_run_attempt(
                self.cluster.model(),
                ctx,
                &quote.cfg,
                state,
                self.trace.seed,
                job.uid,
                attempt,
            ) {
                Ok(run) => {
                    return DeviceOutcome {
                        success: true,
                        run_ms: run.time_ms,
                        charge_ms,
                    }
                }
                Err(DeployError::TransientFailure {
                    failed_after_ms, ..
                }) => {
                    charge_ms += failed_after_ms;
                }
                Err(_) => break,
            }
        }
        DeviceOutcome {
            success: false,
            run_ms: 0.0,
            charge_ms,
        }
    }

    /// The serial placement decision for every pending slot: `Some(device)`
    /// or `None` (shed). Naive placers never shed; predictor-driven
    /// placers filter Down devices and open breakers and shed jobs whose
    /// best predicted finish busts the deadline.
    #[allow(clippy::too_many_arguments)]
    fn place(
        &self,
        pending: &[PendingJob],
        quotes: &[Vec<Quote>],
        states: &[FaultState],
        occ: &[Occupancy],
        breakers: &[CircuitBreaker],
        penalties: &[f64],
        now_ms: f64,
        round: u32,
        rr_cursor: &mut usize,
    ) -> Vec<Option<usize>> {
        let n_dev = self.cluster.len();
        match self.placer {
            Placer::Random => pending
                .iter()
                .map(|job| {
                    let mut h = heteromap_model::StableHasher::new();
                    self.trace.seed.hash(&mut h);
                    job.uid.hash(&mut h);
                    0x31_u8.hash(&mut h);
                    Some((h.finish() % n_dev as u64) as usize)
                })
                .collect(),
            Placer::RoundRobin => pending
                .iter()
                .map(|_| {
                    let device = *rr_cursor % n_dev;
                    *rr_cursor += 1;
                    Some(device)
                })
                .collect(),
            Placer::Greedy => {
                let mut free: Vec<f64> = occ.iter().map(|o| o.free_at_ms()).collect();
                pending
                    .iter()
                    .map(|job| {
                        let batch = self.batch_view(job, quotes, states, breakers, penalties);
                        let job_view = batch?;
                        let pick = best_candidate(&job_view, &free, now_ms);
                        let device = job_view.allowed[pick];
                        let finish = free[device].max(now_ms) + job_view.expected_ms[pick];
                        if finish > job.deadline_abs_ms {
                            return None; // deadline-aware shed
                        }
                        free[device] = finish;
                        Some(device)
                    })
                    .collect()
            }
            Placer::Evolution => {
                let mut free: Vec<f64> = occ.iter().map(|o| o.free_at_ms()).collect();
                let mut decisions: Vec<Option<usize>> = vec![None; pending.len()];
                // Shadow greedy pre-pass: shed exactly the jobs sequential
                // greedy would shed (against an evolving queue estimate), so
                // the batch search only ever re-places the same admitted
                // set — its incumbent guard then makes it no worse than
                // greedy on the batch cost.
                let mut shadow = free.clone();
                let mut batch: Vec<(usize, BatchJob)> = Vec::new();
                for (slot, job) in pending.iter().enumerate() {
                    let Some(view) = self.batch_view(job, quotes, states, breakers, penalties)
                    else {
                        continue;
                    };
                    let pick = best_candidate(&view, &shadow, now_ms);
                    let device = view.allowed[pick];
                    let finish = shadow[device].max(now_ms) + view.expected_ms[pick];
                    if finish > job.deadline_abs_ms {
                        continue; // deadline-aware shed
                    }
                    shadow[device] = finish;
                    batch.push((slot, view));
                }
                // Chunked placement-vector search, committing queue state
                // between chunks.
                for (chunk_idx, chunk) in batch.chunks(PLACEMENT_SLOTS).enumerate() {
                    let jobs: Vec<BatchJob> = chunk.iter().map(|(_, v)| v.clone()).collect();
                    let seed = mix(
                        self.trace.seed ^ 0x0E60_17E5,
                        (u64::from(round) << 8) | chunk_idx as u64,
                    );
                    let picks = evolve_batch(&jobs, &free, now_ms, seed, EVOLVE_BUDGET);
                    for ((slot, view), pick) in chunk.iter().zip(picks) {
                        let device = view.allowed[pick];
                        free[device] = free[device].max(now_ms) + view.expected_ms[pick];
                        decisions[*slot] = Some(device);
                    }
                }
                decisions
            }
        }
    }

    /// The candidate view of one job: targetable devices (not Down, breaker
    /// allows) with their predicted costs, inflated by the drift-detector
    /// penalty while a device's health signal is raised. `None` when
    /// nothing is targetable.
    fn batch_view(
        &self,
        job: &PendingJob,
        quotes: &[Vec<Quote>],
        states: &[FaultState],
        breakers: &[CircuitBreaker],
        penalties: &[f64],
    ) -> Option<BatchJob> {
        let combo = self.combo(job.wi, job.di);
        let mut allowed = Vec::new();
        let mut expected = Vec::new();
        for device in self.cluster.devices() {
            if states[device.id] == FaultState::Down || !breakers[device.id].allows() {
                continue;
            }
            let quote = &quotes[combo][device.id];
            if !quote.expected_ms.is_finite() {
                continue;
            }
            allowed.push(device.id);
            expected.push(quote.expected_ms * penalties[device.id]);
        }
        if allowed.is_empty() {
            return None;
        }
        Some(BatchJob {
            arrival_ms: job.arrival_ms,
            deadline_abs_ms: job.deadline_abs_ms,
            allowed,
            expected_ms: expected,
        })
    }
}

/// Global-hub series handles for one fleet run, resolved only when
/// `HETEROMAP_METRICS` is enabled (the disabled path never reaches this).
struct HubSeries {
    util: Vec<Arc<Gauge>>,
    queue_depth: Vec<Arc<Gauge>>,
    migrations: Arc<Counter>,
    good: Arc<Counter>,
    late: Arc<Counter>,
    failed: Arc<Counter>,
    shed: Arc<Counter>,
    drift: Arc<Counter>,
}

impl HubSeries {
    #[cold]
    fn new(n_dev: usize) -> Self {
        let hub = heteromap_obs::metrics::global();
        let outcome = |o: &'static str| {
            hub.counter(
                "fleet_jobs_total",
                &[("outcome", o)],
                "Fleet jobs by resolution bucket",
            )
        };
        let per_device = |name: &str, help: &'static str| {
            (0..n_dev)
                .map(|d| hub.gauge(name, &[("device", &d.to_string())], help))
                .collect()
        };
        HubSeries {
            util: per_device(
                "fleet_device_utilization",
                "Busy fraction of one device over the simulated span so far",
            ),
            queue_depth: per_device(
                "fleet_device_queue_ms",
                "Committed backlog of one device in simulated ms",
            ),
            migrations: hub.counter(
                "fleet_migrations_total",
                &[],
                "Migration re-queues (jobs leaving a failed device)",
            ),
            good: outcome("good"),
            late: outcome("late"),
            failed: outcome("failed"),
            shed: outcome("shed"),
            drift: hub.counter(
                "fleet_drift_signals_total",
                &[],
                "Health signals raised by the per-device drift detectors",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(placer: Placer, intensity: f64) -> FleetSim {
        FleetSim::new(
            FleetTrace::smoke(42, intensity),
            Cluster::uniform(2),
            placer,
        )
    }

    #[test]
    fn fault_free_undersubscribed_greedy_run_is_all_good() {
        // Below saturation with no bursts and healthy devices, nothing
        // should miss a deadline, migrate or shed.
        let trace = FleetTrace {
            load: 0.5,
            burst: 0.0,
            deadline_factor: 12.0,
            ..FleetTrace::smoke(42, 0.0)
        };
        let report = FleetSim::new(trace, Cluster::uniform(2), Placer::Greedy).run(2);
        assert!(report.fully_accounted());
        assert_eq!(report.good, report.jobs, "{report:?}");
        assert_eq!(report.migrations, 0);
        assert_eq!(report.breaker_opens, 0);
        assert!(report.p99_ms.is_finite());
        assert!(report.jobs_per_sec > 0.0);
    }

    #[test]
    fn the_oversubscribed_smoke_trace_sheds_rather_than_running_late() {
        // The smoke trace offers 1.05× capacity with bursts: deadline-aware
        // shedding must engage even fault-free, and nothing fails.
        let report = sim(Placer::Greedy, 0.0).run(2);
        assert!(report.fully_accounted());
        assert!(report.shed > 0, "{report:?}");
        assert_eq!(report.failed, 0);
        assert_eq!(report.migrations, 0);
    }

    #[test]
    fn digests_are_identical_across_thread_counts_and_reruns() {
        for placer in Placer::ALL {
            let s = sim(placer, 0.5);
            let single = s.run(1);
            let quad = s.run(4);
            let rerun = s.run(4);
            assert_eq!(single.digest, quad.digest, "{placer}");
            assert_eq!(quad.digest, rerun.digest, "{placer}");
            assert_eq!(
                (single.good, single.late, single.failed, single.shed),
                (quad.good, quad.late, quad.failed, quad.shed),
                "{placer}"
            );
            assert!(single.fully_accounted(), "{placer}: {single:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_digests() {
        let a = FleetSim::new(
            FleetTrace::smoke(1, 0.5),
            Cluster::uniform(2),
            Placer::Greedy,
        )
        .run(2);
        let b = FleetSim::new(
            FleetTrace::smoke(2, 0.5),
            Cluster::uniform(2),
            Placer::Greedy,
        )
        .run(2);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn faults_force_migrations_and_breaker_trips() {
        let greedy = sim(Placer::Greedy, 0.9).run(2);
        assert!(greedy.fully_accounted(), "{greedy:?}");
        assert!(greedy.migrations > 0, "transient storms force migrations");
        assert!(greedy.breaker_opens > 0, "breakers must trip");
        let random = sim(Placer::Random, 0.9).run(2);
        assert!(random.fully_accounted(), "{random:?}");
        assert!(
            random.migrations > 0,
            "naive placement lands on sick devices"
        );
        assert_eq!(random.breaker_opens, 0, "naive placers have no breakers");
        assert_eq!(random.shed, 0, "naive placers never shed");
    }

    #[test]
    fn predictor_placers_beat_naive_ones_under_faults() {
        let greedy = sim(Placer::Greedy, 0.4).run(2);
        let random = sim(Placer::Random, 0.4).run(2);
        assert!(
            greedy.good > random.good,
            "greedy {} vs random {} of {}",
            greedy.good,
            random.good,
            greedy.jobs
        );
    }

    #[test]
    fn drift_detectors_flag_fault_storms_for_predictor_placers_only() {
        let greedy = sim(Placer::Greedy, 0.9).run(2);
        assert!(
            greedy.drift_signals > 0,
            "migration storms must raise health signals: {greedy:?}"
        );
        let random = sim(Placer::Random, 0.9).run(2);
        assert_eq!(random.drift_signals, 0, "naive placers ignore health");
        let calm = sim(Placer::Greedy, 0.0).run(2);
        assert_eq!(calm.drift_signals, 0, "no faults, no signals: {calm:?}");
    }

    #[test]
    fn drift_signals_are_thread_count_independent() {
        let s = sim(Placer::Greedy, 0.7);
        let one = s.run(1);
        let sixteen = s.run(16);
        assert_eq!(one.digest, sixteen.digest);
        assert_eq!(one.drift_signals, sixteen.drift_signals);
        assert_eq!(one.migrations, sixteen.migrations);
    }

    #[test]
    fn enabling_metrics_does_not_change_the_digest() {
        use heteromap_obs::metrics::SeriesValue;
        let s = sim(Placer::Greedy, 0.6);
        let plain = s.run(2);
        heteromap_obs::set_metrics_enabled(true);
        let observed = s.run(2);
        heteromap_obs::set_metrics_enabled(false);
        assert_eq!(plain.digest, observed.digest);
        // The run must have mirrored its tallies to the global hub.
        let migrated = heteromap_obs::metrics::global()
            .snapshot()
            .into_iter()
            .find(|series| series.name == "fleet_migrations_total")
            .map(|series| match series.value {
                SeriesValue::Counter(v) => v,
                other => panic!("not a counter: {other:?}"),
            })
            .unwrap_or(0);
        assert!(
            migrated >= observed.migrations,
            "hub counter {migrated} < report {}",
            observed.migrations
        );
    }

    #[test]
    fn evolution_matches_or_beats_greedy_goodput_on_the_smoke_trace() {
        let greedy = sim(Placer::Greedy, 0.3).run(2);
        let evolution = sim(Placer::Evolution, 0.3).run(2);
        assert!(
            evolution.good >= greedy.good,
            "evolution {} vs greedy {} of {}",
            evolution.good,
            greedy.good,
            greedy.jobs
        );
    }
}
