//! The HeteroMap framework (Fig. 8): discretize → predict → deploy.

use crate::report::Placement;
use crate::resilient::{
    config_is_feasible, AttemptLog, AttemptOutcome, AttemptRecord, DeployOptions, RetryPolicy,
    StaticDefault,
};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::fault::{DeployError, FaultState};
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_accel::SimReport;
use heteromap_graph::datasets::{Dataset, LiteratureMaxima};
use heteromap_graph::GraphStats;
use heteromap_model::{Accelerator, BVector, Grid, IVector, MConfig, Workload};
use heteromap_predict::nn::TrainConfig;
use heteromap_predict::predictor::Objective;
use heteromap_predict::{DecisionTree, NeuralPredictor, Predictor, Trainer};

/// The runtime performance predictor for a GPU + multicore pair.
///
/// Flow per Fig. 8: the programmer supplies a benchmark profile and input
/// statistics (step 1), HeteroMap discretizes them into `(B, I)` and asks
/// its predictor for the machine choices (step 2), then deploys the
/// combination on the selected accelerator with the predicted
/// intra-accelerator configuration (step 3).
///
/// # Example
///
/// ```
/// use heteromap::HeteroMap;
/// use heteromap_graph::datasets::Dataset;
/// use heteromap_model::{Accelerator, Workload};
///
/// let hm = HeteroMap::with_decision_tree();
/// let placement = hm.schedule(Workload::SsspBf, Dataset::UsaCal);
/// // Fig. 7: the decision tree maps SSSP-BF on USA-Cal to the GPU.
/// assert_eq!(placement.accelerator(), Accelerator::Gpu);
/// ```
pub struct HeteroMap {
    system: MultiAcceleratorSystem,
    predictor: Box<dyn Predictor + Send + Sync>,
    maxima: LiteratureMaxima,
    grid: Grid,
    retry: RetryPolicy,
}

impl std::fmt::Debug for HeteroMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeteroMap")
            .field("system", &self.system)
            .field("predictor", &self.predictor.name())
            .field("grid", &self.grid)
            .finish()
    }
}

impl HeteroMap {
    /// HeteroMap on the primary setup (GTX-750Ti + Xeon Phi) with the §IV
    /// decision-tree heuristic — no training required.
    pub fn with_decision_tree() -> Self {
        HeteroMap::new(
            MultiAcceleratorSystem::primary(),
            Box::new(DecisionTree::paper()),
        )
    }

    /// HeteroMap on the primary setup with the paper's best learner
    /// (Deep.128), trained offline on `samples` autotuned synthetic
    /// combinations (§V). Takes seconds for a few hundred samples.
    pub fn with_trained_deep(samples: usize, seed: u64) -> Self {
        let system = MultiAcceleratorSystem::primary();
        Self::train_deep_for(system, samples, seed, Objective::Performance)
    }

    /// Trains a Deep.128 HeteroMap for an arbitrary system/objective (the
    /// paper re-learns models per accelerator change, §VII-D).
    pub fn train_deep_for(
        system: MultiAcceleratorSystem,
        samples: usize,
        seed: u64,
        objective: Objective,
    ) -> Self {
        Self::train_deep_with(
            system,
            samples,
            objective,
            TrainConfig {
                hidden: 128,
                seed,
                ..TrainConfig::default()
            },
        )
    }

    /// Trains a deep HeteroMap with explicit network hyper-parameters
    /// (width ablations, fast test configurations).
    pub fn train_deep_with(
        system: MultiAcceleratorSystem,
        samples: usize,
        objective: Objective,
        config: TrainConfig,
    ) -> Self {
        let trainer = Trainer::new(system.clone()).with_objective(objective);
        let db = trainer.generate_database(samples, config.seed);
        let nn = NeuralPredictor::train(&db, config);
        HeteroMap::new(system, Box::new(nn))
    }

    /// Like [`HeteroMap::train_deep_with`], but generates the training
    /// database with per-sample tuning runs fanned over `threads` workers
    /// of the kernel thread pool. The database — and therefore the trained
    /// model — is bit-identical to the serial path's at any worker count,
    /// so this is a pure wall-clock optimization for large `samples`.
    pub fn train_deep_parallel(
        system: MultiAcceleratorSystem,
        samples: usize,
        objective: Objective,
        config: TrainConfig,
        threads: usize,
    ) -> Self {
        let trainer = Trainer::new(system.clone()).with_objective(objective);
        let db = trainer.generate_database_parallel(samples, config.seed, threads);
        let nn = NeuralPredictor::train(&db, config);
        HeteroMap::new(system, Box::new(nn))
    }

    /// Builds HeteroMap from parts.
    pub fn new(
        system: MultiAcceleratorSystem,
        predictor: Box<dyn Predictor + Send + Sync>,
    ) -> Self {
        HeteroMap {
            system,
            predictor,
            maxima: LiteratureMaxima::paper(),
            grid: Grid::PAPER,
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the normalization maxima (for non-Table-I corpora).
    pub fn with_maxima(mut self, maxima: LiteratureMaxima) -> Self {
        self.maxima = maxima;
        self
    }

    /// Replaces the retry/backoff policy used when the system carries a
    /// fault plan (see [`crate::resilient`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The underlying multi-accelerator system.
    pub fn system(&self) -> &MultiAcceleratorSystem {
        &self.system
    }

    /// The active predictor's name.
    pub fn predictor_name(&self) -> &str {
        self.predictor.name()
    }

    /// Schedules a named paper workload on a Table I dataset.
    pub fn schedule(&self, workload: Workload, dataset: Dataset) -> Placement {
        let ctx = WorkloadContext::for_workload(workload, dataset.stats());
        self.schedule_context(&ctx)
    }

    /// Schedules a named workload on arbitrary input statistics (e.g. a
    /// streamed chunk or a generated graph).
    pub fn schedule_stats(&self, workload: Workload, stats: GraphStats) -> Placement {
        self.schedule_context(&WorkloadContext::for_workload(workload, stats))
    }

    /// Schedules a fully custom workload context (synthetic benchmarks).
    ///
    /// On a fault-free system this is the paper's Fig. 8 flow and produces
    /// the same report as the seed implementation. Under an installed
    /// [`heteromap_accel::FaultPlan`] (or a finite per-attempt timeout) the
    /// resilient path takes over: transient failures are retried per the
    /// [`RetryPolicy`] with backoff charged to the completion time exactly
    /// like predictor overhead (§V-A), and `Down`/OOM/timeout/exhausted
    /// accelerators fail over to the survivor with the configuration
    /// re-clamped for it. The returned [`Placement::attempts`] records every
    /// attempt.
    pub fn schedule_context(&self, ctx: &WorkloadContext) -> Placement {
        // One relaxed load decides between the span-free flow and its
        // traced twin: per-schedule work sits well under a microsecond, so
        // even inert per-stage guards would eat the 1% overhead budget
        // (measured by `exp_obs_overhead`).
        if heteromap_obs::enabled() {
            return self.schedule_context_traced(ctx);
        }
        // Step 1: discretize the input into I variables.
        let i = self.ivector(&ctx.stats);
        // Step 2: predict M choices, falling down the predictor chain if the
        // prediction is not deployable. The modeled inference cost is
        // charged to the completion time (§V-A).
        let (config, predictor_fallbacks) = self.predict_config(&ctx.b, &i);
        let overhead_ms = self.predictor.overhead_ms();
        self.deploy_predicted(ctx, config, overhead_ms, predictor_fallbacks)
    }

    /// [`HeteroMap::schedule_context`] with the pipeline spans
    /// (schedule/ivector/predict/deploy) recorded into the flight
    /// recorder. Must stay step-for-step identical to the span-free flow.
    #[cold]
    fn schedule_context_traced(&self, ctx: &WorkloadContext) -> Placement {
        let _schedule = heteromap_obs::span_cat("schedule", "core");
        let i = {
            let _span = heteromap_obs::span_cat("ivector", "core");
            self.ivector(&ctx.stats)
        };
        let (config, predictor_fallbacks) = {
            let _span = heteromap_obs::span_cat("predict", "core");
            self.predict_config(&ctx.b, &i)
        };
        let overhead_ms = self.predictor.overhead_ms();
        let _deploy = heteromap_obs::span_cat("deploy", "core");
        self.deploy_predicted(ctx, config, overhead_ms, predictor_fallbacks)
    }

    /// Discretizes raw input statistics into the `I` variables with this
    /// instance's maxima and grid (Fig. 8 step 1 in isolation — the serving
    /// layer uses it to form cache keys).
    pub fn ivector(&self, stats: &GraphStats) -> IVector {
        IVector::from_stats(stats, &self.maxima, self.grid)
    }

    /// Step 3 in isolation: deploys an already-predicted configuration,
    /// charging `overhead_ms` of predictor cost into the completion time
    /// (§V-A). `predictor_fallbacks` is recorded in the attempt log.
    ///
    /// [`HeteroMap::schedule_context`] is `predict_config` + this; callers
    /// that obtain configurations elsewhere (a placement cache) use it
    /// directly, and a deterministic `overhead_ms` makes the returned
    /// placement fully deterministic.
    pub fn deploy_predicted(
        &self,
        ctx: &WorkloadContext,
        config: MConfig,
        overhead_ms: f64,
        predictor_fallbacks: u32,
    ) -> Placement {
        self.deploy_predicted_opts(
            ctx,
            config,
            overhead_ms,
            predictor_fallbacks,
            DeployOptions::default(),
        )
    }

    /// [`HeteroMap::deploy_predicted`] with per-request [`DeployOptions`]:
    /// a completion deadline the retry loop may never charge past, and an
    /// accelerator to route around (its circuit breaker is open). The
    /// serving layer threads both through here so backoff never outlives
    /// the caller's budget and open breakers re-route with the predicted
    /// configuration re-clamped for the survivor.
    pub fn deploy_predicted_opts(
        &self,
        ctx: &WorkloadContext,
        config: MConfig,
        overhead_ms: f64,
        predictor_fallbacks: u32,
        opts: DeployOptions,
    ) -> Placement {
        let placement = if self.system.faults().is_all_healthy()
            && self.retry.attempt_timeout_ms.is_infinite()
            && opts.is_unconstrained()
        {
            // Fast path — bit-identical to the infallible seed flow.
            let mut report = self.system.deploy(ctx, &config);
            report.time_ms += overhead_ms;
            let mut attempts = AttemptLog::clean_success(config.accelerator);
            attempts.predictor_fallbacks = predictor_fallbacks;
            Placement {
                config,
                report,
                predictor_overhead_ms: overhead_ms,
                attempts,
            }
        } else {
            self.schedule_resilient(ctx, config, overhead_ms, predictor_fallbacks, opts)
        };
        // Every deploy path (direct, traced, resilient, serving) funnels
        // through here, so one gated fold covers the whole retry loop.
        if heteromap_obs::metrics_enabled() {
            crate::telemetry::record_placement(&placement);
        }
        placement
    }

    /// Predictor fallback chain (Fig. 8 step 2 in isolation): the
    /// trained/installed predictor first, the §IV decision tree if that
    /// prediction is undeployable (NaN/∞), and a static default as the
    /// unconditional last resort. Returns the chosen configuration and how
    /// many fallback steps were taken.
    pub fn predict_config(&self, b: &BVector, i: &IVector) -> (MConfig, u32) {
        self.rescue_infeasible(self.predictor.predict(b, i), b, i)
    }

    fn rescue_infeasible(&self, config: MConfig, b: &BVector, i: &IVector) -> (MConfig, u32) {
        if config_is_feasible(&config) {
            return (config, 0);
        }
        let predictor = self.predictor.name();
        let config = DecisionTree::paper().predict(b, i);
        if config_is_feasible(&config) {
            heteromap_obs::event("predict.fallback", || {
                format!("from={predictor} to=decision_tree cause=infeasible_prediction")
            });
            return (config, 1);
        }
        heteromap_obs::event("predict.fallback", || {
            format!("from={predictor} to=static_default cause=infeasible_prediction")
        });
        (StaticDefault::default().predict(b, i), 2)
    }

    /// The installed predictor (callers that deploy through
    /// [`HeteroMap::deploy_predicted`] charge its
    /// [`Predictor::overhead_ms`]).
    pub fn predictor(&self) -> &(dyn Predictor + Send + Sync) {
        self.predictor.as_ref()
    }

    /// Replaces the fault plan in place (the predictor and its training are
    /// untouched). Serving layers must invalidate any cached placements
    /// after this — the same configuration can deploy differently under the
    /// new plan.
    pub fn set_fault_plan(&mut self, plan: heteromap_accel::FaultPlan) {
        self.system = self.system.clone().with_faults(plan);
    }

    /// Replaces the predictor in place (§VII-D re-learns models per
    /// accelerator change; a serving process swaps in the re-trained model
    /// without rebuilding the system). Serving layers must invalidate
    /// cached placements afterwards.
    pub fn set_predictor(&mut self, predictor: Box<dyn Predictor + Send + Sync>) {
        self.predictor = predictor;
    }

    /// The resilient deploy loop: retry transients with backoff on the
    /// selected accelerator, then fail over to the other one; all simulated
    /// retry/backoff/timeout cost is charged to the final completion time.
    ///
    /// [`DeployOptions`] constrain the loop: an accelerator in
    /// `opts.avoid` is never targeted (the configuration is re-clamped for
    /// the survivor), and no attempt or backoff wait is charged past
    /// `opts.deadline_ms` — the simulator knows every attempt's exact cost
    /// up front, so doomed work is skipped with a
    /// [`AttemptOutcome::DeadlineExceeded`] record instead of discovered
    /// late.
    fn schedule_resilient(
        &self,
        ctx: &WorkloadContext,
        predicted: MConfig,
        overhead_ms: f64,
        predictor_fallbacks: u32,
        opts: DeployOptions,
    ) -> Placement {
        let mut log = AttemptLog {
            predictor_fallbacks,
            ..AttemptLog::default()
        };
        let mut charged_ms = 0.0;
        let max_attempts = self.retry.max_attempts.max(1);
        let order: Vec<Accelerator> = [predicted.accelerator, predicted.accelerator.other()]
            .into_iter()
            .filter(|&a| Some(a) != opts.avoid)
            .collect();
        let mut last_config = predicted;
        let mut deadline_hit = false;

        'legs: for (leg, &accelerator) in order.iter().enumerate() {
            if accelerator != predicted.accelerator {
                log.failovers += 1;
                let cause = if leg == 0 {
                    "breaker_open"
                } else {
                    "exhausted"
                };
                heteromap_obs::event("retry.failover", || {
                    format!(
                        "vertices={} edges={} to={accelerator:?} cause={cause}",
                        ctx.stats.vertices, ctx.stats.edges
                    )
                });
            }
            let config = self.config_for_accelerator(&predicted, accelerator);
            last_config = config;
            let degraded = matches!(
                self.system.faults().state_for(accelerator),
                FaultState::Degraded { .. }
            );
            for attempt in 0..max_attempts {
                let remaining_ms = opts.deadline_ms - overhead_ms - charged_ms;
                if remaining_ms <= 0.0 {
                    // Budget exhausted before this attempt could start:
                    // stop the whole loop, nothing more may be charged.
                    heteromap_obs::event("retry.deadline", || {
                        format!(
                            "accelerator={accelerator:?} attempt={attempt} \
                             remaining_ms={remaining_ms:.3} cause=budget_exhausted"
                        )
                    });
                    log.records.push(AttemptRecord {
                        accelerator,
                        attempt,
                        outcome: AttemptOutcome::DeadlineExceeded {
                            would_take_ms: f64::INFINITY,
                            remaining_ms,
                        },
                        charged_ms: 0.0,
                    });
                    deadline_hit = true;
                    break 'legs;
                }
                match self.system.try_deploy_attempt(ctx, &config, attempt) {
                    Ok(mut report) => {
                        if report.time_ms > self.retry.attempt_timeout_ms {
                            // The simulation is deterministic, so retrying
                            // the same accelerator would reproduce the same
                            // time: charge one timeout budget and fail over.
                            charged_ms += self.retry.attempt_timeout_ms;
                            heteromap_obs::event("retry.timeout", || {
                                format!(
                                    "accelerator={accelerator:?} attempt={attempt} \
                                     would_take_ms={:.3} budget_ms={:.3}",
                                    report.time_ms, self.retry.attempt_timeout_ms
                                )
                            });
                            log.records.push(AttemptRecord {
                                accelerator,
                                attempt,
                                outcome: AttemptOutcome::Timeout {
                                    would_take_ms: report.time_ms,
                                },
                                charged_ms: self.retry.attempt_timeout_ms,
                            });
                            break;
                        }
                        if report.time_ms > remaining_ms {
                            // Launching would bust the caller's deadline.
                            // Charge nothing (the cost model priced the run
                            // before any cycles burned) and try the other
                            // accelerator, which may be fast enough.
                            heteromap_obs::event("retry.deadline", || {
                                format!(
                                    "accelerator={accelerator:?} attempt={attempt} \
                                     would_take_ms={:.3} remaining_ms={remaining_ms:.3} \
                                     cause=predicted_miss",
                                    report.time_ms
                                )
                            });
                            log.records.push(AttemptRecord {
                                accelerator,
                                attempt,
                                outcome: AttemptOutcome::DeadlineExceeded {
                                    would_take_ms: report.time_ms,
                                    remaining_ms,
                                },
                                charged_ms: 0.0,
                            });
                            deadline_hit = true;
                            break;
                        }
                        if degraded {
                            log.degraded_deploys += 1;
                        }
                        log.records.push(AttemptRecord {
                            accelerator,
                            attempt,
                            outcome: AttemptOutcome::Success,
                            charged_ms: 0.0,
                        });
                        if log.records.len() > 1 {
                            // Recovery after at least one failed attempt —
                            // close the audit trail in the flight recorder
                            // too, not just in the AttemptLog.
                            let attempts = log.records.len();
                            let failovers = log.failovers;
                            heteromap_obs::event("retry.success", || {
                                format!(
                                    "accelerator={accelerator:?} attempt={attempt} \
                                     total_attempts={attempts} failovers={failovers} \
                                     charged_ms={charged_ms:.3}"
                                )
                            });
                        }
                        log.retry_time_ms = charged_ms;
                        report.time_ms += overhead_ms + charged_ms;
                        return Placement {
                            config,
                            report,
                            predictor_overhead_ms: overhead_ms,
                            attempts: log,
                        };
                    }
                    Err(DeployError::TransientFailure {
                        failed_after_ms, ..
                    }) => {
                        // Charge the wasted partial run, plus the backoff
                        // wait if another attempt on this accelerator
                        // follows — but never a backoff that outlives the
                        // caller's budget: when the wait alone would bust
                        // the deadline, stop retrying this leg instead.
                        let backoff = if attempt + 1 < max_attempts {
                            self.retry.backoff_ms(attempt + 1)
                        } else {
                            0.0
                        };
                        let budget_left = remaining_ms - failed_after_ms;
                        let retry_fits = backoff < budget_left;
                        let backoff = if retry_fits { backoff } else { 0.0 };
                        let charge = failed_after_ms + backoff;
                        charged_ms += charge;
                        heteromap_obs::event("retry.transient", || {
                            format!(
                                "accelerator={accelerator:?} attempt={attempt} \
                                 failed_after_ms={failed_after_ms:.3} backoff_ms={backoff:.3}"
                            )
                        });
                        log.records.push(AttemptRecord {
                            accelerator,
                            attempt,
                            outcome: AttemptOutcome::TransientFailure { failed_after_ms },
                            charged_ms: charge,
                        });
                        if !retry_fits {
                            break;
                        }
                    }
                    Err(DeployError::AcceleratorDown { .. }) => {
                        heteromap_obs::event("retry.down", || {
                            format!("accelerator={accelerator:?} attempt={attempt}")
                        });
                        log.records.push(AttemptRecord {
                            accelerator,
                            attempt,
                            outcome: AttemptOutcome::AcceleratorDown,
                            charged_ms: 0.0,
                        });
                        break;
                    }
                    Err(DeployError::OutOfMemory {
                        footprint_bytes,
                        capacity_bytes,
                        ..
                    }) => {
                        heteromap_obs::event("retry.oom", || {
                            format!(
                                "accelerator={accelerator:?} attempt={attempt} \
                                 footprint={footprint_bytes} capacity={capacity_bytes}"
                            )
                        });
                        log.records.push(AttemptRecord {
                            accelerator,
                            attempt,
                            outcome: AttemptOutcome::OutOfMemory {
                                footprint_bytes,
                                capacity_bytes,
                            },
                            charged_ms: 0.0,
                        });
                        break;
                    }
                    Err(_) => {
                        // `DeployError` is non-exhaustive; treat unknown
                        // failures as non-retryable on this accelerator.
                        break;
                    }
                }
            }
        }

        // Every usable accelerator exhausted (or the deadline budget ran
        // dry): report an unbounded completion time so callers can rank the
        // outcome (and see exactly why in the log).
        let cause = if deadline_hit {
            "deadline"
        } else {
            "exhausted"
        };
        heteromap_obs::event("retry.exhausted", || {
            format!(
                "vertices={} attempts={} charged_ms={charged_ms:.3} cause={cause}",
                ctx.stats.vertices,
                log.total_attempts()
            )
        });
        log.retry_time_ms = charged_ms;
        Placement {
            config: last_config,
            report: SimReport {
                time_ms: f64::INFINITY,
                energy_j: f64::INFINITY,
                utilization: 0.0,
            },
            predictor_overhead_ms: overhead_ms,
            attempts: log,
        }
    }

    /// Re-clamps a predicted configuration for a (possibly degraded) target
    /// accelerator: `M1` is forced to the target, and on degraded silicon
    /// the concurrency knobs `M2`/`M3` (and the GPU's `M19`) are scaled up
    /// so the predicted *absolute* concurrency lands on the surviving cores
    /// (the normalized values denormalize against the shrunken maxima).
    fn config_for_accelerator(&self, predicted: &MConfig, accelerator: Accelerator) -> MConfig {
        let frac = self
            .system
            .faults()
            .state_for(accelerator)
            .surviving_fraction();
        crate::resilient::clamp_config_for(predicted, accelerator, frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_model::Accelerator;

    #[test]
    fn decision_tree_schedules_fig7_pair() {
        let hm = HeteroMap::with_decision_tree();
        let bf = hm.schedule(Workload::SsspBf, Dataset::UsaCal);
        let delta = hm.schedule(Workload::SsspDelta, Dataset::UsaCal);
        assert_eq!(bf.accelerator(), Accelerator::Gpu);
        assert_eq!(delta.accelerator(), Accelerator::Multicore);
        assert!(bf.report.time_ms > 0.0);
    }

    #[test]
    fn overhead_is_charged_to_completion_time() {
        let hm = HeteroMap::with_decision_tree();
        let p = hm.schedule(Workload::Bfs, Dataset::Facebook);
        assert_eq!(p.predictor_overhead_ms, hm.predictor().overhead_ms());
        let raw = hm
            .system()
            .deploy(
                &WorkloadContext::for_workload(Workload::Bfs, Dataset::Facebook.stats()),
                &p.config,
            )
            .time_ms;
        assert_eq!(
            p.report.time_ms.to_bits(),
            (raw + p.predictor_overhead_ms).to_bits()
        );
    }

    #[test]
    fn trained_deep_predictor_schedules_everything() {
        // Small training run to keep the test fast.
        let hm = HeteroMap::with_trained_deep(30, 7);
        assert_eq!(hm.predictor_name(), "Deep.128");
        for w in Workload::all() {
            let p = hm.schedule(w, Dataset::LiveJournal);
            assert!(
                p.report.time_ms.is_finite() && p.report.time_ms > 0.0,
                "{w}"
            );
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let hm = HeteroMap::with_decision_tree();
        assert!(format!("{hm:?}").contains("Decision Tree"));
    }

    #[test]
    fn healthy_schedule_logs_one_clean_attempt() {
        let hm = HeteroMap::with_decision_tree();
        let p = hm.schedule(Workload::Bfs, Dataset::Facebook);
        assert_eq!(p.attempts.total_attempts(), 1);
        assert!(p.attempts.succeeded());
        assert_eq!(p.attempts.failovers, 0);
        assert_eq!(p.attempts.retry_time_ms, 0.0);
        assert!(p.completed());
    }

    #[test]
    fn gpu_down_fails_over_to_multicore() {
        use heteromap_accel::FaultPlan;
        let system = MultiAcceleratorSystem::primary().with_faults(FaultPlan::gpu_down());
        let hm = HeteroMap::new(system, Box::new(DecisionTree::paper()));
        // SSSP-BF on USA-Cal is a GPU pick (Fig. 7) — it must fail over.
        let p = hm.schedule(Workload::SsspBf, Dataset::UsaCal);
        assert_eq!(p.accelerator(), Accelerator::Multicore);
        assert!(p.completed());
        assert_eq!(p.attempts.failovers, 1);
        assert_eq!(p.attempts.total_attempts(), 2);
        assert_eq!(
            p.attempts.records[0].outcome,
            AttemptOutcome::AcceleratorDown
        );
        assert_eq!(p.attempts.records[0].accelerator, Accelerator::Gpu);
        assert_eq!(p.attempts.records[1].outcome, AttemptOutcome::Success);
    }

    #[test]
    fn transient_faults_charge_retry_time() {
        use heteromap_accel::FaultPlan;
        // Scan seeds for one where the first GPU attempt fails and a retry
        // succeeds, then check the retry cost lands in the completion time.
        for seed in 0..64 {
            let system =
                MultiAcceleratorSystem::primary().with_faults(FaultPlan::transient(0.6, seed));
            let hm = HeteroMap::new(system, Box::new(DecisionTree::paper()));
            let p = hm.schedule(Workload::SsspBf, Dataset::UsaCal);
            if p.attempts.total_attempts() > 1
                && p.attempts.succeeded()
                && p.attempts.failovers == 0
            {
                assert!(p.attempts.retry_time_ms > 0.0);
                let clean =
                    HeteroMap::with_decision_tree().schedule(Workload::SsspBf, Dataset::UsaCal);
                assert!(
                    p.report.time_ms
                        >= clean.report.time_ms - clean.predictor_overhead_ms
                            + p.attempts.retry_time_ms,
                    "retry cost must be charged: {} vs clean {} + retry {}",
                    p.report.time_ms,
                    clean.report.time_ms,
                    p.attempts.retry_time_ms
                );
                return;
            }
        }
        panic!("no seed produced a retried-then-successful GPU deploy");
    }

    #[test]
    fn both_down_yields_infinite_time_with_full_log() {
        use heteromap_accel::{FaultPlan, FaultState};
        let plan = FaultPlan::gpu_down().with_state(Accelerator::Multicore, FaultState::Down);
        let system = MultiAcceleratorSystem::primary().with_faults(plan);
        let hm = HeteroMap::new(system, Box::new(DecisionTree::paper()));
        let p = hm.schedule(Workload::Bfs, Dataset::Facebook);
        assert!(!p.completed());
        assert!(p.report.time_ms.is_infinite());
        assert_eq!(p.attempts.failovers, 1);
        assert_eq!(p.attempts.total_attempts(), 2);
        assert!(p
            .attempts
            .records
            .iter()
            .all(|r| r.outcome == AttemptOutcome::AcceleratorDown));
    }

    #[test]
    fn degraded_multicore_is_counted_and_slower() {
        use heteromap_accel::{FaultPlan, FaultState};
        let plan = FaultPlan::healthy().with_state(
            Accelerator::Multicore,
            FaultState::Degraded {
                surviving_core_fraction: 0.25,
            },
        );
        let system = MultiAcceleratorSystem::primary().with_faults(plan);
        let hm = HeteroMap::new(system, Box::new(DecisionTree::paper()));
        // SSSP-Delta on USA-Cal is a multicore pick (Fig. 7).
        let p = hm.schedule(Workload::SsspDelta, Dataset::UsaCal);
        assert_eq!(p.accelerator(), Accelerator::Multicore);
        assert_eq!(p.attempts.degraded_deploys, 1);
        let healthy =
            HeteroMap::with_decision_tree().schedule(Workload::SsspDelta, Dataset::UsaCal);
        assert!(
            p.report.time_ms > healthy.report.time_ms,
            "degraded {} vs healthy {}",
            p.report.time_ms,
            healthy.report.time_ms
        );
    }

    #[test]
    fn timeout_fails_over_and_charges_the_budget() {
        // A 0.0001 ms budget is unmeetable: both accelerators time out.
        let hm = HeteroMap::with_decision_tree()
            .with_retry_policy(RetryPolicy::no_retry().with_timeout_ms(1e-4));
        let p = hm.schedule(Workload::PageRank, Dataset::LiveJournal);
        assert!(!p.completed());
        assert_eq!(p.attempts.failovers, 1);
        assert!(p
            .attempts
            .records
            .iter()
            .all(|r| matches!(r.outcome, AttemptOutcome::Timeout { .. })));
        assert!((p.attempts.retry_time_ms - 2e-4).abs() < 1e-9);
    }

    #[test]
    fn static_default_fallback_rescues_nan_predictor() {
        struct NanPredictor;
        impl Predictor for NanPredictor {
            fn name(&self) -> &str {
                "NaN"
            }
            fn predict(&self, _b: &BVector, _i: &IVector) -> MConfig {
                let mut cfg = MConfig::gpu_default();
                cfg.cores = f64::NAN;
                cfg
            }
        }
        let hm = HeteroMap::new(MultiAcceleratorSystem::primary(), Box::new(NanPredictor));
        let p = hm.schedule(Workload::Bfs, Dataset::Facebook);
        assert!(p.completed());
        // The decision tree (fallback step 1) rescued the prediction.
        assert_eq!(p.attempts.predictor_fallbacks, 1);
        assert!(p.report.time_ms.is_finite());
    }
}
