//! The fleet round driver: a job trace co-scheduled over a cluster as a
//! policy over [`heteromap::rounds`].
//!
//! Rounds advance a fixed tick of simulated milliseconds derived from the
//! trace's offered load; completions, queues and deadlines all live on that
//! clock. Device health is fixed per episode. Each round opens serially:
//! migrated jobs re-enter ahead of the round's arrivals, and the placer
//! picks every pending job's device (or sheds it) from the current queues,
//! breakers and drift penalties. The engine then evaluates each placed
//! job's attempts on its device in parallel, a pure function of `(trace
//! seed, job uid, device, episode health)`, and folds the outcomes in slot
//! order into queues, breakers, migrations and the digest. An end-of-round
//! health pass feeds each device's migration rate to its drift detector.
//!
//! The digest chains every `(round, uid, resolution, device, finish,
//! config)`, so two runs agree on the digest iff they agreed on every
//! single job — the bench asserts it is bit-identical at 1, 4 and 16
//! threads.

use crate::cluster::Cluster;
use crate::placer::{best_candidate, evolve_batch, BatchJob, Placer};
use crate::trace::{FleetTrace, DATASETS, WORKLOADS};
use heteromap::rounds::{self, Ledger, Resolution, RoundPolicy};
use heteromap::{clamp_config_for, BreakerConfig, CircuitBreaker, HeteroMap};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::{DeployError, FaultState, Occupancy};
use heteromap_model::{seeded_draw, MConfig};
use heteromap_obs::metrics::{
    Counter, DriftConfig, Gauge, HealthBoard, SeriesDetector, SignalKind,
};
use heteromap_tune::{mix, PLACEMENT_SLOTS};
use std::sync::Arc;

/// Deploy attempts per device before a job gives up and migrates.
const MAX_ATTEMPTS: u32 = 3;

/// Oracle budget per evolutionary chunk search.
const EVOLVE_BUDGET: usize = 56;

/// Cost multiplier applied to a device's quotes while its health signal is
/// raised: drift-flagged devices look this much slower to the placers, so
/// load drains away before the circuit breaker has to trip.
const DRIFT_PENALTY: f64 = 0.3;

/// Digest tag for a migration re-queue (jobs resolve later).
const MIGRATE_TAG: u64 = 5;

/// A job waiting for placement.
#[derive(Debug, Clone, Copy)]
struct PendingJob {
    uid: u64,
    /// Index into the simulator's per-combo tables.
    combo: usize,
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
        let n_dev = self.cluster.len();
        // Per-device drift detection feeding the predictor-driven placers:
        // the migration rate off a healthy device is exactly 0, so the
        // detectors are armed at baseline 0 and re-armed every episode.
        let detector_cfg = DriftConfig {
            min_band: 0.05,
            baseline: Some(0.0),
            ..DriftConfig::upward()
        };
        let mut policy = FleetRound {
            sim: self,
            states: vec![FaultState::Healthy; n_dev],
            quotes: Vec::new(),
            occ: vec![Occupancy::new(); n_dev],
            breakers: self
                .cluster
                .devices()
                .iter()
                .map(|d| CircuitBreaker::new(d.role(), BreakerConfig::default()))
                .collect(),
            pending: Vec::new(),
            requeue: Vec::new(),
            decisions: Vec::new(),
            now_ms: 0.0,
            jobs: 0,
            rr_cursor: 0,
            rounds_driven: 0,
            migrations: 0,
            detectors: vec![SeriesDetector::new(detector_cfg); n_dev],
            health: HealthBoard::new(u64::from(self.trace.episode_len.max(1))),
            device_keys: (0..n_dev).map(|d| format!("device/{d}")).collect(),
            penalties: vec![1.0; n_dev],
            placed_on: vec![0; n_dev],
            migrations_off: vec![0; n_dev],
            // Recording happens only in the serial phases, so enabling
            // metrics cannot perturb the digest.
            hub: heteromap_obs::metrics_enabled().then(|| HubSeries::new(n_dev)),
        };
        let mut ledger = rounds::run(&mut policy, threads);
        // Safety net for the drain cap: anything still queued failed.
        for job in &policy.requeue {
            ledger.resolve(self.drain_limit(), job.uid, Resolution::Failed, []);
        }

        let occ = &policy.occ;
        let horizon_ms = f64::from(policy.rounds_driven) * self.tick_ms;
        let makespan_ms = occ.iter().map(|o| o.free_at_ms()).fold(0.0, f64::max);
        let span_ms = horizon_ms.max(makespan_ms);
        let positive = span_ms > 0.0;
        let [good, late, failed, shed] = ledger.counts;
        FleetReport {
            jobs: policy.jobs,
            good,
            late,
            failed,
            shed,
            migrations: policy.migrations,
            p99_ms: ledger.p99_ms(),
            jobs_per_sec: if positive {
                good as f64 * 1000.0 / span_ms
            } else {
                f64::NAN
            },
            span_ms,
            avg_utilization: if positive {
                occ.iter().map(|o| o.utilization(span_ms)).sum::<f64>() / n_dev as f64
            } else {
                0.0
            },
            breaker_opens: policy.breakers.iter().map(|b| b.opens()).sum(),
            breaker_closes: policy.breakers.iter().map(|b| b.closes()).sum(),
            drift_signals: policy.health.raised_count(),
            digest: ledger.digest(),
        }
    }

    /// The round at which a run stops draining migrated jobs.
    fn drain_limit(&self) -> u32 {
        self.trace.rounds + self.trace.max_migrations + 4
    }
}

/// One run of a trace: episode health and quotes, device queues and
/// breakers, the job queues, and the per-device drift detection whose
/// penalties steer the predictor-driven placers.
struct FleetRound<'s> {
    sim: &'s FleetSim,
    /// This episode's health per device.
    states: Vec<FaultState>,
    /// This episode's quote per combo per device.
    quotes: Vec<Vec<Quote>>,
    occ: Vec<Occupancy>,
    breakers: Vec<CircuitBreaker>,
    /// This round's jobs, in slot order.
    pending: Vec<PendingJob>,
    /// Jobs migrated this round; they re-enter ahead of the next arrivals.
    requeue: Vec<PendingJob>,
    /// The placer's pick per pending slot (`None` sheds the job).
    decisions: Vec<Option<usize>>,
    now_ms: f64,
    /// Jobs generated so far, which is also the next job's uid.
    jobs: usize,
    rr_cursor: usize,
    /// One past the last round that placed work.
    rounds_driven: u32,
    migrations: u64,
    detectors: Vec<SeriesDetector>,
    health: HealthBoard,
    device_keys: Vec<String>,
    /// Quote multiplier per device: [`DRIFT_PENALTY`] extra while its
    /// health signal is raised, a soft avoidance ahead of the breaker's
    /// hard cut.
    penalties: Vec<f64>,
    /// This round's placements and migrations per device.
    placed_on: Vec<u64>,
    migrations_off: Vec<u64>,
    hub: Option<HubSeries>,
}

impl RoundPolicy for FleetRound<'_> {
    type Outcome = Option<(usize, DeviceOutcome)>;
    const CATEGORY: &'static str = "fleet";
    const EPISODE_EVENT: &'static str = "fleet.episode";

    fn digest_seed(&self) -> u64 {
        self.sim.trace.seed ^ 0xF1EE_7C4A_0D1E_5E57
    }

    fn episode_len(&self) -> u32 {
        self.sim.trace.episode_len
    }

    fn runs(&self, round: u32) -> bool {
        round < self.sim.drain_limit()
            && (round < self.sim.trace.rounds || !self.requeue.is_empty())
    }

    /// Re-draws device health and the quote table, and re-arms the drift
    /// detectors so an earlier incident cannot mask this episode's.
    fn begin_episode(&mut self, episode: u32) {
        for (d, state) in self.states.iter_mut().enumerate() {
            *state = self.sim.trace.fault_for(d, episode);
        }
        self.quotes = self.sim.quotes_for(&self.states);
        for det in self.detectors.iter_mut() {
            det.reset();
        }
    }

    fn describe_episode(&self, _episode: u32) -> String {
        let down = self
            .states
            .iter()
            .filter(|s| **s == FaultState::Down)
            .count();
        let healthy = self.states.iter().filter(|s| s.is_healthy()).count();
        format!("healthy={healthy} down={down} of {}", self.states.len())
    }

    /// Queues migrated jobs ahead of this round's arrivals and places them.
    fn open_round(&mut self, round: u32, _ledger: &mut Ledger) -> usize {
        let sim = self.sim;
        self.now_ms = f64::from(round) * sim.tick_ms;
        if !self.requeue.is_empty() {
            let _span = heteromap_obs::span_cat("fleet.migrate", "fleet");
            self.pending.append(&mut self.requeue);
        }
        for k in 0..sim.trace.arrivals(round) {
            let (wi, di) = sim.trace.job_for(round, k);
            let combo = wi * DATASETS.len() + di;
            self.pending.push(PendingJob {
                uid: self.jobs as u64,
                combo,
                arrival_ms: self.now_ms,
                deadline_abs_ms: self.now_ms + sim.trace.deadline_factor * sim.ref_ms[combo],
                migrations: 0,
            });
            self.jobs += 1;
        }
        if self.pending.is_empty() {
            return 0;
        }
        self.rounds_driven = round + 1;
        self.decisions = self.place(round);
        self.pending.len()
    }

    /// Runs the slot's job on its placed device: up to [`MAX_ATTEMPTS`]
    /// attempts with deterministic per-attempt transient draws, charging
    /// the wasted partial runs.
    fn evaluate(&self, _round: u32, slot: usize) -> Option<(usize, DeviceOutcome)> {
        let (job, sim) = (&self.pending[slot], self.sim);
        let device = self.decisions[slot]?;
        let mut outcome = DeviceOutcome {
            success: false,
            run_ms: 0.0,
            charge_ms: 0.0,
        };
        for attempt in 0..MAX_ATTEMPTS {
            match sim.cluster.devices()[device].try_run_attempt(
                sim.cluster.model(),
                &sim.base[job.combo].0,
                &self.quotes[job.combo][device].cfg,
                self.states[device],
                sim.trace.seed,
                job.uid,
                attempt,
            ) {
                Ok(run) => {
                    (outcome.success, outcome.run_ms) = (true, run.time_ms);
                    break;
                }
                Err(DeployError::TransientFailure {
                    failed_after_ms, ..
                }) => outcome.charge_ms += failed_after_ms,
                Err(_) => break,
            }
        }
        Some((device, outcome))
    }

    fn fold(&mut self, round: u32, slot: usize, outcome: Self::Outcome, ledger: &mut Ledger) {
        let job = self.pending[slot];
        let predictor_driven = self.sim.placer.is_predictor_driven();
        let Some((device, outcome)) = outcome else {
            // Shed: unplaceable or hopelessly late.
            if predictor_driven {
                for b in self.breakers.iter_mut() {
                    b.on_shed();
                }
            }
            heteromap_obs::event("fleet.shed", || {
                format!(
                    "uid={} round={round} migrations={}",
                    job.uid, job.migrations
                )
            });
            self.resolve(ledger, round, job.uid, Resolution::Shed, [0]);
            return;
        };
        let work = outcome.charge_ms + outcome.run_ms;
        let (_start, finish) = self.occ[device].admit(self.now_ms, work);
        self.placed_on[device] += 1;
        if predictor_driven {
            for (d, b) in self.breakers.iter_mut().enumerate() {
                if d == device {
                    b.on_outcome(outcome.success);
                } else {
                    b.on_shed();
                }
            }
        }
        let rest = [
            device as u64 + 1,
            finish.to_bits(),
            outcome.charge_ms.to_bits(),
        ];
        if outcome.success {
            ledger.times.push(finish - job.arrival_ms);
            let resolution = if finish <= job.deadline_abs_ms {
                Resolution::Good
            } else {
                Resolution::Late
            };
            let config = self.quotes[job.combo][device]
                .cfg
                .as_array()
                .map(f64::to_bits);
            self.resolve(
                ledger,
                round,
                job.uid,
                resolution,
                rest.into_iter().chain(config),
            );
        } else if job.migrations < self.sim.trace.max_migrations {
            // The device failed under the job: re-predict and migrate next
            // round (the quote table re-clamps the M-config for whatever
            // device the next placement picks).
            self.migrations += 1;
            self.migrations_off[device] += 1;
            if let Some(hub) = &self.hub {
                hub.migrations.inc();
            }
            let moved = PendingJob {
                migrations: job.migrations + 1,
                ..job
            };
            self.requeue.push(moved);
            ledger.chain(round, job.uid, MIGRATE_TAG, rest);
            heteromap_obs::event("fleet.migrate", || {
                format!(
                    "uid={} round={round} off_device={device} migrations={}",
                    job.uid, moved.migrations
                )
            });
        } else {
            self.resolve(ledger, round, job.uid, Resolution::Failed, rest);
        }
    }

    /// The end-of-round health pass of a round that placed work: fold each
    /// device's migration rate into its drift detector, refresh the
    /// penalty table for next round's placement, and mirror gauges to the
    /// global hub.
    fn close_round(&mut self, round: u32, _ledger: &Ledger) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.clear();
        if self.sim.placer.is_predictor_driven() {
            let window = u64::from(round) + 1;
            for d in 0..self.detectors.len() {
                let rate = self.migrations_off[d] as f64 / self.placed_on[d].max(1) as f64;
                let verdict = self.detectors[d].observe(rate);
                if verdict.drift {
                    let key = &self.device_keys[d];
                    self.health
                        .raise(key, SignalKind::OutcomeAnomaly, window, verdict.score);
                    if let Some(hub) = &self.hub {
                        hub.drift.inc();
                    }
                    heteromap_obs::event("fleet.drift", || {
                        format!(
                            "key={key} round={round} rate={rate:.3} score={:.3}",
                            verdict.score
                        )
                    });
                }
                self.migrations_off[d] = 0;
                self.placed_on[d] = 0;
            }
            self.health.expire(window);
            for (penalty, key) in self.penalties.iter_mut().zip(&self.device_keys) {
                *penalty = if self.health.is_flagged(key) {
                    1.0 + DRIFT_PENALTY
                } else {
                    1.0
                };
            }
        }
        if let Some(hub) = &self.hub {
            let span_so_far = (f64::from(round) + 1.0) * self.sim.tick_ms;
            for (d, o) in self.occ.iter().enumerate() {
                hub.util[d].set(o.utilization(span_so_far));
                hub.queue_depth[d].set((o.free_at_ms() - self.now_ms).max(0.0));
            }
        }
    }
}

impl FleetRound<'_> {
    /// [`Ledger::resolve`], mirrored to the global hub when it is on.
    fn resolve(
        &self,
        ledger: &mut Ledger,
        round: u32,
        uid: u64,
        resolution: Resolution,
        rest: impl IntoIterator<Item = u64>,
    ) {
        if let Some(hub) = &self.hub {
            hub.outcomes[resolution as usize].inc();
        }
        ledger.resolve(round, uid, resolution, rest);
    }

    /// The placement decision for every pending slot: `Some(device)` or
    /// `None` (shed). Naive placers never shed; predictor-driven placers
    /// filter Down devices and open breakers and shed jobs whose best
    /// predicted finish busts the deadline.
    fn place(&mut self, round: u32) -> Vec<Option<usize>> {
        let sim = self.sim;
        let n_dev = self.occ.len();
        match sim.placer {
            Placer::Random => self
                .pending
                .iter()
                .map(|job| {
                    Some((seeded_draw(sim.trace.seed, job.uid, 0x31_u8) % n_dev as u64) as usize)
                })
                .collect(),
            Placer::RoundRobin => {
                let first = self.rr_cursor;
                self.rr_cursor += self.pending.len();
                (first..self.rr_cursor).map(|k| Some(k % n_dev)).collect()
            }
            Placer::Greedy => self
                .greedy_pass()
                .into_iter()
                .map(|admitted| admitted.map(|(view, pick)| view.allowed[pick]))
                .collect(),
            Placer::Evolution => {
                // The greedy pass sheds exactly the jobs sequential greedy
                // would shed, so the batch search only ever re-places the
                // same admitted set — its incumbent guard then makes it no
                // worse than greedy on the batch cost.
                let batch: Vec<(usize, BatchJob)> = self
                    .greedy_pass()
                    .into_iter()
                    .enumerate()
                    .filter_map(|(slot, admitted)| admitted.map(|(view, _)| (slot, view)))
                    .collect();
                // Chunked placement-vector search, committing queue state
                // between chunks.
                let mut free = self.free_at();
                let mut decisions = vec![None; self.pending.len()];
                for (chunk_idx, chunk) in batch.chunks(PLACEMENT_SLOTS).enumerate() {
                    let jobs: Vec<BatchJob> = chunk.iter().map(|(_, v)| v.clone()).collect();
                    let seed = mix(
                        sim.trace.seed ^ 0x0E60_17E5,
                        (u64::from(round) << 8) | chunk_idx as u64,
                    );
                    let picks = evolve_batch(&jobs, &free, self.now_ms, seed, EVOLVE_BUDGET);
                    for ((slot, view), pick) in chunk.iter().zip(picks) {
                        let device = view.allowed[pick];
                        free[device] = free[device].max(self.now_ms) + view.expected_ms[pick];
                        decisions[*slot] = Some(device);
                    }
                }
                decisions
            }
        }
    }

    /// Sequential greedy placement against an evolving queue estimate:
    /// each admitted job's candidate view and pick, `None` for a shed
    /// (nothing targetable, or the best predicted finish busts the
    /// deadline).
    fn greedy_pass(&self) -> Vec<Option<(BatchJob, usize)>> {
        let mut free = self.free_at();
        self.pending
            .iter()
            .map(|job| {
                let view = self.batch_view(job)?;
                let pick = best_candidate(&view, &free, self.now_ms);
                let device = view.allowed[pick];
                let finish = free[device].max(self.now_ms) + view.expected_ms[pick];
                if finish > job.deadline_abs_ms {
                    return None;
                }
                free[device] = finish;
                Some((view, pick))
            })
            .collect()
    }

    /// Each device's committed free time.
    fn free_at(&self) -> Vec<f64> {
        self.occ.iter().map(|o| o.free_at_ms()).collect()
    }

    /// The candidate view of one job: targetable devices (not Down, breaker
    /// allows) with their predicted costs, inflated by the drift-detector
    /// penalty while a device's health signal is raised. `None` when
    /// nothing is targetable.
    fn batch_view(&self, job: &PendingJob) -> Option<BatchJob> {
        let mut allowed = Vec::new();
        let mut expected = Vec::new();
        for (device, quote) in self.quotes[job.combo].iter().enumerate() {
            if self.states[device] == FaultState::Down
                || !self.breakers[device].allows()
                || !quote.expected_ms.is_finite()
            {
                continue;
            }
            allowed.push(device);
            expected.push(quote.expected_ms * self.penalties[device]);
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
    /// Jobs by resolution, indexed like [`Ledger::counts`].
    outcomes: [Arc<Counter>; 4],
    drift: Arc<Counter>,
}

impl HubSeries {
    #[cold]
    fn new(n_dev: usize) -> Self {
        let hub = heteromap_obs::metrics::global();
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
            outcomes: ["good", "late", "failed", "shed"].map(|o| {
                let help = "Fleet jobs by resolution bucket";
                hub.counter("fleet_jobs_total", &[("outcome", o)], help)
            }),
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
