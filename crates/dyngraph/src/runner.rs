//! The phase loop: kernel epochs interleaved with delta batches, watched
//! by drift detectors, re-predicted and live-migrated mid-run.
//!
//! Each trace entry is one *epoch*: apply the entry's [`DeltaBatch`]
//! (empty = calm), refresh the incremental statistics and I-variables,
//! consult the adaptive triggers, then deploy the current configuration
//! through the paper's cost model *and* execute the real kernel on the
//! host at the deployed thread budget. Two triggers can force a mid-run
//! re-prediction through `HeteroMap::predict_config`:
//!
//! * **I-variable crossing** — any quantized I-component moved at least
//!   `ivar_threshold` from its value at the last prediction (the paper's
//!   I-variables are the predictor's own inputs, so a moved input is the
//!   most direct evidence the last prediction is stale);
//! * **drift signal** — a [`SeriesDetector`] (EWMA band + Page-Hinkley,
//!   from PR 9's observability layer) raised a new [`HealthSignal`] on the
//!   frontier-density or per-worker-utilization series.
//!
//! When the fresh prediction names a different configuration the run
//! *live-migrates*: the new configuration is re-clamped for the target's
//! surviving silicon (`clamp_config_for`) and the switch is charged with
//! the §V-A overhead model — predictor inference FLOPs at `flop_ns` plus
//! the graph-footprint transfer at `migration_gb_per_s` — so adaptivity
//! pays its true cost in the makespan it reports.
//!
//! Determinism: every signal fed to the detectors is a pure function of
//! the (deterministic) simulated report and the incremental statistics —
//! per-worker utilization is modeled over a *fixed* number of virtual
//! lanes, not host threads — so the whole decision sequence, and the run
//! digest, are bit-identical at any host thread count (for kernels that
//! are themselves thread-invariant; see the 81-combo sweep in
//! `heteromap-kernels`).

use crate::graph::{DeltaBatch, DynGraph};
use crate::telemetry;
use heteromap::{clamp_config_for, HeteroMap};
use heteromap_accel::WorkloadContext;
use heteromap_graph::GraphStats;
use heteromap_kernels::KernelRunner;
use heteromap_model::{fold_digest, Accelerator, IVector, MConfig, Workload};
use heteromap_obs::metrics::drift::{DriftConfig, HealthBoard, SeriesDetector, SignalKind};

/// Fixed number of virtual worker lanes the utilization signal is modeled
/// over. A constant (rather than the host thread count) so the signal —
/// and everything downstream of it — is invariant to the host budget.
pub const VIRTUAL_WORKERS: usize = 8;

/// Tuning for one [`DynRunner`].
#[derive(Debug, Clone, PartialEq)]
pub struct DynRunnerConfig {
    /// Host thread budget handed to [`KernelRunner::from_mconfig`].
    pub threads: usize,
    /// Label-propagation sweeps per kernel epoch (bounds host wall time;
    /// the simulated cost model uses the workload's own iteration model).
    pub kernel_iterations: u32,
    /// `false` freezes the epoch-0 prediction for the whole run (the
    /// static baseline the adaptive mode is benchmarked against).
    pub adaptive: bool,
    /// Minimum quantized I-component movement that forces re-prediction.
    pub ivar_threshold: f64,
    /// Predictor cost per FLOP in nanoseconds (§V-A overhead model).
    pub flop_ns: f64,
    /// Simulated state-transfer bandwidth charged on live migration.
    pub migration_gb_per_s: f64,
    /// Detector tuning for the frontier-density series (degradation-is-up).
    pub frontier_drift: DriftConfig,
    /// Detector tuning for the min-worker-utilization series
    /// (degradation-is-down).
    pub utilization_drift: DriftConfig,
    /// Health-board TTL in epochs.
    pub signal_ttl: u64,
}

impl Default for DynRunnerConfig {
    fn default() -> Self {
        DynRunnerConfig {
            threads: 4,
            kernel_iterations: 2,
            adaptive: true,
            ivar_threshold: 0.1,
            flop_ns: 1.0,
            migration_gb_per_s: 4.0,
            frontier_drift: DriftConfig::upward(),
            utilization_drift: DriftConfig::downward(),
            signal_ttl: 4,
        }
    }
}

/// One epoch of a [`DynRunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (position in the trace).
    pub epoch: usize,
    /// Edges inserted by this epoch's batch.
    pub inserted: usize,
    /// Edges deleted by this epoch's batch.
    pub deleted: usize,
    /// Statistics after the batch applied.
    pub stats: GraphStats,
    /// Accelerator the epoch ran on.
    pub accelerator: Accelerator,
    /// Simulated epoch time, including any charged re-prediction and
    /// migration overhead.
    pub time_ms: f64,
    /// Simulated overall utilization.
    pub utilization: f64,
    /// Min virtual-worker utilization (the Down-detector's input).
    pub min_worker_utilization: f64,
    /// Frontier-density signal (the Up-detector's input).
    pub frontier_density: f64,
    /// Whether a mid-run re-prediction fired this epoch.
    pub repredicted: bool,
    /// Whether the run live-migrated this epoch.
    pub migrated: bool,
    /// Real kernel output checksum at the deployed configuration.
    pub checksum: f64,
}

/// The full result of one dynamic run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynRunReport {
    /// Workload the epochs executed.
    pub workload: Workload,
    /// Per-epoch records in trace order.
    pub epochs: Vec<EpochRecord>,
    /// Sum of simulated epoch times (adaptivity overheads included).
    pub makespan_ms: f64,
    /// Mid-run re-predictions taken.
    pub repredictions: u64,
    /// Live migrations taken.
    pub migrations: u64,
    /// Order-sensitive fold of every epoch's decision-relevant state;
    /// bit-identical across host thread counts for thread-invariant
    /// kernels.
    pub digest: u64,
    /// Statistics of the final graph.
    pub final_stats: GraphStats,
}

impl DynRunReport {
    /// Epoch indices where a re-prediction fired.
    pub fn reprediction_epochs(&self) -> Vec<usize> {
        self.epochs
            .iter()
            .filter(|e| e.repredicted)
            .map(|e| e.epoch)
            .collect()
    }
}

/// Executes kernel epochs over a [`DynGraph`] trace with optional
/// drift-triggered re-prediction and live migration (see the module docs).
#[derive(Debug)]
pub struct DynRunner<'a> {
    hm: &'a HeteroMap,
    workload: Workload,
    config: DynRunnerConfig,
}

impl<'a> DynRunner<'a> {
    /// A runner with default tuning.
    pub fn new(hm: &'a HeteroMap, workload: Workload) -> Self {
        DynRunner {
            hm,
            workload,
            config: DynRunnerConfig::default(),
        }
    }

    /// Replaces the tuning knobs.
    pub fn with_config(mut self, config: DynRunnerConfig) -> Self {
        self.config = config;
        self
    }

    /// The runner's tuning.
    pub fn config(&self) -> &DynRunnerConfig {
        &self.config
    }

    /// §V-A predictor overhead for one inference, in milliseconds.
    fn prediction_overhead_ms(&self) -> f64 {
        self.hm.predictor().inference_flops() as f64 * self.config.flop_ns * 1e-6
    }

    /// Simulated cost of moving the working set to another accelerator.
    fn migration_overhead_ms(&self, stats: &GraphStats) -> f64 {
        stats.footprint_bytes() as f64 / (self.config.migration_gb_per_s * 1e9) * 1e3
    }

    /// Re-clamps `predicted` for its own target's surviving silicon.
    fn clamp_for_target(&self, predicted: &MConfig) -> MConfig {
        let faults = self.hm.system().faults();
        let surviving = match predicted.accelerator {
            Accelerator::Gpu => faults.gpu.surviving_fraction(),
            Accelerator::Multicore => faults.multicore.surviving_fraction(),
        };
        clamp_config_for(predicted, predicted.accelerator, surviving)
    }

    /// Drives `graph` through `trace`, one kernel epoch per batch.
    pub fn run(&self, graph: &mut DynGraph, trace: &[DeltaBatch]) -> DynRunReport {
        let b = self.workload.b_vector();
        let mut frontier_det = SeriesDetector::new(self.config.frontier_drift);
        let mut util_det = SeriesDetector::new(self.config.utilization_drift);
        let mut board = HealthBoard::new(self.config.signal_ttl);
        let mut raises_seen = 0u64;

        // Epoch-0 prediction on the initial graph (both modes pay this).
        let predict_ms = self.prediction_overhead_ms();
        let ivec = self.hm.ivector(&graph.stats());
        let (predicted, mut fallbacks) = self.hm.predict_config(&b, &ivec);
        let mut config = self.clamp_for_target(&predicted);
        let mut last_predicted_ivec = ivec;
        let mut pending_overhead_ms = predict_ms;

        let mut epochs = Vec::with_capacity(trace.len());
        let mut makespan_ms = 0.0;
        let mut repredictions = 0u64;
        let mut migrations = 0u64;
        let mut digest = 0u64;

        for (epoch, batch) in trace.iter().enumerate() {
            let effect = graph.apply(batch);
            let stats = graph.stats();
            let ivec = self.hm.ivector(&stats);
            let frontier = frontier_signal(&stats);
            let mut repredicted = false;
            let mut migrated = false;

            if self.config.adaptive {
                // Pre-epoch triggers: the frontier detector sees the
                // post-batch graph now; the utilization detector raised (if
                // at all) at the end of the previous epoch, and both kinds
                // of raise are consumed here as a new-raise delta (the
                // board's active flags persist for the TTL — the *delta*
                // is what distinguishes a fresh signal from an old one).
                let verdict = frontier_det.observe(frontier);
                if verdict.drift {
                    board.raise(
                        "frontier_density",
                        SignalKind::OutcomeAnomaly,
                        epoch as u64,
                        verdict.score,
                    );
                }
                let drift_raised = board.raised_count() > raises_seen;
                let ivar_shift = max_component_shift(&ivec, &last_predicted_ivec);
                let ivar_crossed = ivar_shift >= self.config.ivar_threshold;

                if ivar_crossed || drift_raised {
                    let trigger = if ivar_crossed { "ivar" } else { "drift" };
                    let (fresh, fresh_fallbacks) = self.hm.predict_config(&b, &ivec);
                    repredictions += 1;
                    repredicted = true;
                    fallbacks = fresh_fallbacks;
                    pending_overhead_ms += predict_ms;
                    last_predicted_ivec = ivec;
                    if heteromap_obs::metrics_enabled() {
                        telemetry::record_reprediction(trigger);
                    }
                    let fresh = self.clamp_for_target(&fresh);
                    if fresh != config {
                        migrations += 1;
                        migrated = true;
                        pending_overhead_ms += self.migration_overhead_ms(&stats);
                        if heteromap_obs::metrics_enabled() {
                            telemetry::record_migration(fresh.accelerator);
                        }
                        config = fresh;
                    }
                    // The regime changed (or was re-baselined): re-arm both
                    // detectors and seed the frontier series with the new
                    // regime so the next calm epoch compares against it.
                    frontier_det.reset();
                    util_det.reset();
                    let _ = frontier_det.observe(frontier);
                }
                raises_seen = board.raised_count();
            }

            // Simulated deployment through the paper's cost model, charged
            // with any adaptivity overhead accrued this epoch.
            let ctx = WorkloadContext::for_workload(self.workload, stats);
            let placement = self
                .hm
                .deploy_predicted(&ctx, config, pending_overhead_ms, fallbacks);
            pending_overhead_ms = 0.0;
            fallbacks = 0;
            let time_ms = placement.report.time_ms;
            let utilization = placement.report.utilization;
            makespan_ms += time_ms;

            // Real kernel epoch on the host at the deployed configuration.
            let limits = self
                .hm
                .system()
                .spec_for(config.accelerator)
                .deploy_limits();
            let csr = graph.to_csr();
            let checksum = KernelRunner::from_mconfig(&config, &limits, self.config.threads)
                .with_pagerank_iterations(self.config.kernel_iterations)
                .with_community_iterations(self.config.kernel_iterations)
                .run(self.workload, &csr)
                .output
                .checksum();

            // Post-epoch utilization signal; a raise here is consumed by
            // the next epoch's pre-epoch check.
            let min_util = min_worker_utilization(utilization, &stats);
            if self.config.adaptive {
                let verdict = util_det.observe(min_util);
                if verdict.drift {
                    board.raise(
                        "worker_utilization",
                        SignalKind::UtilizationDrop,
                        epoch as u64,
                        verdict.score,
                    );
                }
                board.expire(epoch as u64);
            }

            digest = fold_digest(
                digest,
                &[
                    epoch as u64,
                    effect.inserted as u64,
                    effect.deleted as u64,
                    stats.vertices,
                    stats.edges,
                    stats.max_degree,
                    stats.diameter,
                    match config.accelerator {
                        Accelerator::Gpu => 0,
                        Accelerator::Multicore => 1,
                    },
                    time_ms.to_bits(),
                    utilization.to_bits(),
                    min_util.to_bits(),
                    frontier.to_bits(),
                    checksum.to_bits(),
                    u64::from(repredicted),
                    u64::from(migrated),
                ],
            );
            epochs.push(EpochRecord {
                epoch,
                inserted: effect.inserted,
                deleted: effect.deleted,
                stats,
                accelerator: config.accelerator,
                time_ms,
                utilization,
                min_worker_utilization: min_util,
                frontier_density: frontier,
                repredicted,
                migrated,
                checksum,
            });
        }

        DynRunReport {
            workload: self.workload,
            final_stats: graph.stats(),
            epochs,
            makespan_ms,
            repredictions,
            migrations,
            digest,
        }
    }
}

/// The frontier-density signal: average degree over (diameter + 1) — how
/// much of the graph a level-synchronous frontier touches per step.
/// Densification pushes it up from both ends, which is exactly the regime
/// change the Up-detector watches for.
fn frontier_signal(stats: &GraphStats) -> f64 {
    stats.average_degree() / (stats.diameter as f64 + 1.0)
}

/// Minimum per-virtual-worker utilization: the simulated overall
/// utilization degraded linearly across [`VIRTUAL_WORKERS`] lanes by the
/// graph's degree skew (a hub-dominated graph starves the unlucky lane).
/// A pure function of the report and the statistics, so thread-invariant.
fn min_worker_utilization(utilization: f64, stats: &GraphStats) -> f64 {
    let avg = if stats.vertices == 0 {
        0.0
    } else {
        stats.edges as f64 / stats.vertices as f64
    };
    let skew = (((stats.max_degree as f64 + 1.0) / (avg + 1.0)).log2() / 14.0).clamp(0.0, 1.0);
    (0..VIRTUAL_WORKERS)
        .map(|lane| utilization * (1.0 - skew * lane as f64 / (VIRTUAL_WORKERS - 1) as f64))
        .fold(f64::INFINITY, f64::min)
}

/// Largest absolute movement of any quantized I-component.
fn max_component_shift(a: &IVector, b: &IVector) -> f64 {
    a.as_array()
        .iter()
        .zip(b.as_array())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::gen::Densifying;

    fn densifying_trace(gen: &Densifying, seed: u64, calm_between: usize) -> Vec<DeltaBatch> {
        let mut trace = vec![DeltaBatch::from_edges(&gen.batch(seed, 0))];
        for _ in 0..calm_between {
            trace.push(DeltaBatch::new());
        }
        for i in 1..gen.batches() {
            trace.push(DeltaBatch::from_edges(&gen.batch(seed, i)));
        }
        for _ in 0..calm_between {
            trace.push(DeltaBatch::new());
        }
        trace
    }

    #[test]
    fn static_mode_never_repredicts() {
        let hm = HeteroMap::with_decision_tree();
        let gen = Densifying::new(300, 4, 400);
        let trace = densifying_trace(&gen, 11, 2);
        let mut graph = DynGraph::new(gen.vertices());
        let cfg = DynRunnerConfig {
            adaptive: false,
            threads: 2,
            kernel_iterations: 1,
            ..Default::default()
        };
        let report = DynRunner::new(&hm, Workload::LabelProp)
            .with_config(cfg)
            .run(&mut graph, &trace);
        assert_eq!(report.repredictions, 0);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.epochs.len(), trace.len());
        assert!(report.makespan_ms > 0.0);
    }

    #[test]
    fn calm_trace_triggers_nothing_in_adaptive_mode() {
        let hm = HeteroMap::with_decision_tree();
        let gen = Densifying::new(300, 2, 200);
        // Pre-load the skeleton so the epoch-0 prediction already sees it,
        // then run nothing but calm epochs: constant statistics mean
        // constant signals, so no detector may fire and no I-var may move.
        let mut graph = DynGraph::new(gen.vertices());
        graph.apply(&DeltaBatch::from_edges(&gen.batch(3, 0)));
        let trace: Vec<DeltaBatch> = (0..6).map(|_| DeltaBatch::new()).collect();
        let cfg = DynRunnerConfig {
            threads: 2,
            kernel_iterations: 1,
            ..Default::default()
        };
        let report = DynRunner::new(&hm, Workload::Bfs)
            .with_config(cfg)
            .run(&mut graph, &trace);
        assert_eq!(report.repredictions, 0, "calm epochs must stay calm");
    }

    /// The digest pins the fold, the hasher and every epoch's outcome; the
    /// value was computed before the fold moved into `heteromap-model`.
    #[test]
    fn digest_is_pinned() {
        let hm = HeteroMap::with_decision_tree();
        let gen = Densifying::new(250, 5, 350);
        let trace = densifying_trace(&gen, 7, 1);
        for threads in [1, 4] {
            let mut graph = DynGraph::new(gen.vertices());
            let cfg = DynRunnerConfig {
                threads,
                kernel_iterations: 2,
                ..Default::default()
            };
            let report = DynRunner::new(&hm, Workload::LabelProp)
                .with_config(cfg)
                .run(&mut graph, &trace);
            assert_eq!(
                report.digest, 0xa09d_4759_0a6f_43a7,
                "threads={threads}: got {:#018x}",
                report.digest
            );
        }
    }

    #[test]
    fn digest_is_identical_across_host_thread_budgets() {
        let hm = HeteroMap::with_decision_tree();
        let gen = Densifying::new(250, 5, 350);
        let trace = densifying_trace(&gen, 7, 1);
        let mut reference = None;
        for threads in [1, 4, 16] {
            let mut graph = DynGraph::new(gen.vertices());
            let cfg = DynRunnerConfig {
                threads,
                kernel_iterations: 2,
                ..Default::default()
            };
            let report = DynRunner::new(&hm, Workload::LabelProp)
                .with_config(cfg)
                .run(&mut graph, &trace);
            match &reference {
                None => reference = Some(report),
                Some(want) => {
                    assert_eq!(report.digest, want.digest, "threads={threads}");
                    assert_eq!(report.makespan_ms, want.makespan_ms, "threads={threads}");
                    assert_eq!(
                        report.reprediction_epochs(),
                        want.reprediction_epochs(),
                        "threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn densification_forces_a_reprediction() {
        let hm = HeteroMap::with_decision_tree();
        // A hard densification: enough new edges per batch to move the
        // quantized I-variables and the frontier signal.
        let gen = Densifying::new(200, 6, 900);
        let trace = densifying_trace(&gen, 19, 2);
        let mut graph = DynGraph::new(gen.vertices());
        let cfg = DynRunnerConfig {
            threads: 2,
            kernel_iterations: 1,
            ..Default::default()
        };
        let report = DynRunner::new(&hm, Workload::LabelProp)
            .with_config(cfg)
            .run(&mut graph, &trace);
        assert!(
            report.repredictions > 0,
            "a densifying run must re-predict at least once"
        );
    }
}
