//! Table IV evaluation machinery: speedup over the GPU baseline, choice
//! accuracy against the ideal, and measured prediction latency.

use crate::predictor::{Objective, Predictor};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::{Dataset, LiteratureMaxima};
use heteromap_model::mspace::MSpace;
use heteromap_model::{Accelerator, Grid, IVector, MConfig, Workload, M_DIM};
use heteromap_tune::CoarseRefine;
use std::time::Instant;

/// One Table IV row.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnerReport {
    /// Learner name.
    pub name: String,
    /// Geomean speedup (%) over the GPU-only baseline ("Speedup shown over
    /// the GTX-750 GPU as it is the better baseline case").
    pub speedup_over_gpu_pct: f64,
    /// Geomean speedup (%) over the multicore-only baseline.
    pub speedup_over_multicore_pct: f64,
    /// Accuracy (%): average fraction of the 20 integer machine choices
    /// matching the ideal configuration.
    pub accuracy_pct: f64,
    /// Measured prediction latency per combination, in milliseconds (the
    /// printed `Overhead(ms)` column; the charged overhead is modeled).
    pub overhead_ms: f64,
    /// Gap (%) of the learner's geomean completion time from the ideal
    /// (paper: HeteroMap "is within 10% performance of an ideal case").
    pub gap_from_ideal_pct: f64,
}

/// Pre-computed per-combination reference data, shared across learners.
#[derive(Debug, Clone)]
pub struct ComboReference {
    /// The combination.
    pub workload: Workload,
    /// The input.
    pub dataset: Dataset,
    /// Simulator context.
    pub ctx: WorkloadContext,
    /// Input variables.
    pub i: IVector,
    /// Best cost restricted to the GPU.
    pub best_gpu: f64,
    /// The GPU configuration that reaches `best_gpu` (the first in
    /// enumeration order when several tie).
    pub best_gpu_config: MConfig,
    /// Best cost restricted to the multicore.
    pub best_multicore: f64,
    /// The multicore configuration that reaches `best_multicore`.
    pub best_multicore_config: MConfig,
    /// Ideal (exhaustively tuned) configuration and cost.
    pub ideal: MConfig,
    /// Cost at the ideal configuration.
    pub ideal_cost: f64,
}

/// Evaluates predictors on the real benchmark-input grid against tuned
/// baselines and the ideal, mirroring §VI-C's processing metrics.
#[derive(Debug, Clone)]
pub struct Evaluator {
    system: MultiAcceleratorSystem,
    objective: Objective,
    references: Vec<ComboReference>,
}

impl Evaluator {
    /// Builds the evaluator over all 9 × 9 benchmark-input combinations,
    /// precomputing tuned baselines and ideal configurations (the expensive
    /// exhaustive sweeps the paper attributes to manual tuning).
    pub fn new(system: MultiAcceleratorSystem, objective: Objective) -> Self {
        Self::with_combos(
            system,
            objective,
            &Workload::all()
                .into_iter()
                .flat_map(|w| Dataset::all().into_iter().map(move |d| (w, d)))
                .collect::<Vec<_>>(),
        )
    }

    /// Builds the evaluator over a custom combination list (fast tests).
    pub fn with_combos(
        system: MultiAcceleratorSystem,
        objective: Objective,
        combos: &[(Workload, Dataset)],
    ) -> Self {
        let space = MSpace::new();
        let gpu_cfgs = space.enumerate_for(Accelerator::Gpu);
        let mc_cfgs = space.enumerate_for(Accelerator::Multicore);
        let cost = |ctx: &WorkloadContext, cfg: &MConfig| objective.cost(&system.deploy(ctx, cfg));
        let references = combos
            .iter()
            .map(|&(workload, dataset)| {
                let stats = dataset.stats();
                let ctx = WorkloadContext::for_workload(workload, stats);
                let i = IVector::from_stats(&stats, &LiteratureMaxima::paper(), Grid::PAPER);
                let best_of = |cfgs: &[MConfig]| {
                    cfgs.iter()
                        .map(|c| (*c, cost(&ctx, c)))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("non-empty config list")
                };
                let (best_gpu_config, best_gpu) = best_of(&gpu_cfgs);
                let (best_multicore_config, best_multicore) = best_of(&mc_cfgs);
                let tuned = CoarseRefine::EXHAUSTIVE.tune(|c| cost(&ctx, c));
                ComboReference {
                    workload,
                    dataset,
                    ctx,
                    i,
                    best_gpu,
                    best_gpu_config,
                    best_multicore,
                    best_multicore_config,
                    ideal: tuned.config,
                    ideal_cost: tuned.cost,
                }
            })
            .collect();
        Evaluator {
            system,
            objective,
            references,
        }
    }

    /// The precomputed per-combination references.
    pub fn references(&self) -> &[ComboReference] {
        &self.references
    }

    /// The system under evaluation.
    pub fn system(&self) -> &MultiAcceleratorSystem {
        &self.system
    }

    /// The objective every cost is measured in.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Evaluates one learner, producing its Table IV row. The predictor's
    /// modeled overhead ([`Predictor::overhead_ms`]) is added to each
    /// combination's completion time, as in §V-A ("the overhead of
    /// HeteroMap during runtime evaluation phase is added to the overall
    /// completion time"); under [`Objective::Energy`] it is charged to time
    /// only, so energy costs carry none. The measured prediction latency is
    /// reported as [`LearnerReport::overhead_ms`] and feeds no cost.
    pub fn evaluate(&self, predictor: &dyn Predictor) -> LearnerReport {
        let charge_ms = predictor.overhead_ms();
        let mut ln_pred = 0.0;
        let mut ln_gpu = 0.0;
        let mut ln_mc = 0.0;
        let mut ln_ideal = 0.0;
        let mut matches = 0usize;
        let mut overhead_total = 0.0f64;
        for r in &self.references {
            let b = r.workload.b_vector();
            let start = Instant::now();
            let cfg = predictor.predict(&b, &r.i);
            overhead_total += start.elapsed().as_secs_f64() * 1e3;
            let mut report = self.system.deploy(&r.ctx, &cfg);
            report.time_ms += charge_ms;
            ln_pred += self.objective.cost(&report).ln();
            ln_gpu += r.best_gpu.ln();
            ln_mc += r.best_multicore.ln();
            ln_ideal += r.ideal_cost.ln();
            // "Percentage accuracies are found by comparing the integer
            // outputs (constituting choice selections)": compare on the
            // coarse choice grid the search space enumerates.
            matches += cfg.matching_choices(&r.ideal, Grid::new(4));
        }
        let n = self.references.len().max(1) as f64;
        let geo = |ln: f64| (ln / n).exp();
        let pred = geo(ln_pred);
        LearnerReport {
            name: predictor.name().to_string(),
            speedup_over_gpu_pct: (geo(ln_gpu) / pred - 1.0) * 100.0,
            speedup_over_multicore_pct: (geo(ln_mc) / pred - 1.0) * 100.0,
            accuracy_pct: matches as f64 / (n * M_DIM as f64) * 100.0,
            overhead_ms: overhead_total / n,
            gap_from_ideal_pct: (pred / geo(ln_ideal) - 1.0) * 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision_tree::DecisionTree;

    fn small_evaluator() -> Evaluator {
        Evaluator::with_combos(
            MultiAcceleratorSystem::primary(),
            Objective::Performance,
            &[
                (Workload::SsspBf, Dataset::Cage14),
                (Workload::SsspDelta, Dataset::UsaCal),
                (Workload::PageRank, Dataset::LiveJournal),
            ],
        )
    }

    #[test]
    fn baselines_are_positive_and_ideal_is_best() {
        let e = small_evaluator();
        for r in e.references() {
            assert!(r.best_gpu > 0.0 && r.best_multicore > 0.0);
            // Ideal searches both machines plus refinement, so it is at
            // least as good as either restricted baseline.
            assert!(r.ideal_cost <= r.best_gpu.min(r.best_multicore) + 1e-9);
        }
    }

    /// Replays each combination's ideal configuration at a modeled cost
    /// of `flops` per inference.
    struct Oracle {
        references: Vec<ComboReference>,
        flops: usize,
    }

    impl Predictor for Oracle {
        fn name(&self) -> &str {
            "Oracle"
        }
        fn predict(&self, b: &heteromap_model::BVector, i: &IVector) -> MConfig {
            self.references
                .iter()
                .find(|r| r.workload.b_vector() == *b && r.i == *i)
                .map(|r| r.ideal)
                .expect("combo known")
        }
        fn inference_flops(&self) -> usize {
            self.flops
        }
    }

    #[test]
    fn ideal_predictor_scores_100_accuracy_and_no_gap() {
        let e = small_evaluator();
        let oracle = Oracle {
            references: e.references().to_vec(),
            flops: 0,
        };
        let report = e.evaluate(&oracle);
        assert!(report.accuracy_pct > 99.0, "{}", report.accuracy_pct);
        // The oracle charges no modeled overhead, so its costs are the
        // ideal's bit for bit.
        assert_eq!(report.gap_from_ideal_pct, 0.0);
    }

    #[test]
    fn modeled_overhead_is_charged_to_time_only() {
        // 10^6 FLOPs at FLOP_NS = 1 ns is a 1 ms charge per combination.
        let oracle = |e: &Evaluator| Oracle {
            references: e.references().to_vec(),
            flops: 1_000_000,
        };
        let perf = small_evaluator();
        let gap = perf.evaluate(&oracle(&perf)).gap_from_ideal_pct;
        assert!(gap > 0.0, "the 1 ms charge must show in time: {gap}");
        assert_eq!(gap, perf.evaluate(&oracle(&perf)).gap_from_ideal_pct);
        let energy = Evaluator::with_combos(
            MultiAcceleratorSystem::primary(),
            Objective::Energy,
            &[(Workload::SsspBf, Dataset::Cage14)],
        );
        let report = energy.evaluate(&oracle(&energy));
        assert_eq!(report.gap_from_ideal_pct, 0.0, "no milliseconds in joules");
    }

    #[test]
    fn decision_tree_report_is_sane() {
        let e = small_evaluator();
        let report = e.evaluate(&DecisionTree::paper());
        assert!(report.accuracy_pct > 20.0 && report.accuracy_pct <= 100.0);
        assert!(report.overhead_ms >= 0.0);
        assert!(report.gap_from_ideal_pct > -1.0);
    }
}
