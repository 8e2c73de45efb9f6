//! Shared experiment harness for the scheduler-comparison figures
//! (Figs. 11–15): the trained HeteroMap predictor against the tuned
//! baselines and the ideal of an [`Evaluator`]'s per-combination
//! references.

use crate::geomean;
use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::Dataset;
use heteromap_model::{Accelerator, Workload};
use heteromap_predict::{Evaluator, Objective};

/// Per-combination results of one scheduler comparison.
#[derive(Debug, Clone)]
pub struct ComboRow {
    /// The benchmark.
    pub workload: Workload,
    /// The input.
    pub dataset: Dataset,
    /// Best tuned GPU-only completion time (ms) or energy (J).
    pub gpu_only: f64,
    /// Best tuned multicore-only cost.
    pub multicore_only: f64,
    /// HeteroMap's cost (predictor overhead included).
    pub heteromap: f64,
    /// Ideal (exhaustively tuned over both machines) cost.
    pub ideal: f64,
    /// Accelerator HeteroMap selected.
    pub selected: Accelerator,
    /// Utilization HeteroMap achieved.
    pub utilization: f64,
    /// Utilizations `(gpu, multicore)` at the tuned single-accelerator
    /// configurations.
    pub utilization_baselines: (f64, f64),
}

/// A full scheduler comparison over the 81 combinations.
#[derive(Debug, Clone)]
pub struct SchedulerComparison {
    /// Per-combination rows in workload-major order.
    pub rows: Vec<ComboRow>,
}

impl SchedulerComparison {
    /// Runs the comparison: trains a Deep.128 HeteroMap for `system` with
    /// `train_samples` synthetic combinations, then evaluates everything.
    pub fn run(
        system: &MultiAcceleratorSystem,
        objective: Objective,
        train_samples: usize,
        seed: u64,
    ) -> Self {
        let hm = HeteroMap::train_deep_for(system.clone(), train_samples, seed, objective);
        Self::run_with(&Evaluator::new(system.clone(), objective), &hm)
    }

    /// Runs the comparison with an already-built HeteroMap instance over
    /// `evaluator`'s combinations, reading the tuned baselines and the
    /// ideal from its references: only HeteroMap's column is computed here.
    pub fn run_with(evaluator: &Evaluator, hm: &HeteroMap) -> Self {
        let system = evaluator.system();
        let rows = evaluator
            .references()
            .iter()
            .map(|r| {
                let placement = hm.schedule_context(&r.ctx);
                let utilization = |cfg| system.deploy(&r.ctx, cfg).utilization;
                ComboRow {
                    workload: r.workload,
                    dataset: r.dataset,
                    gpu_only: r.best_gpu,
                    multicore_only: r.best_multicore,
                    heteromap: evaluator.objective().cost(&placement.report),
                    ideal: r.ideal_cost,
                    selected: placement.accelerator(),
                    utilization: placement.report.utilization,
                    utilization_baselines: (
                        utilization(&r.best_gpu_config),
                        utilization(&r.best_multicore_config),
                    ),
                }
            })
            .collect();
        SchedulerComparison { rows }
    }

    /// Geomean of a per-row metric.
    pub fn geomean_of<F: Fn(&ComboRow) -> f64>(&self, f: F) -> f64 {
        geomean(&self.rows.iter().map(f).collect::<Vec<_>>())
    }

    /// The headline speedups `(over_gpu_pct, over_multicore_pct,
    /// gap_from_ideal_pct)`.
    pub fn headline(&self) -> (f64, f64, f64) {
        let hm = self.geomean_of(|r| r.heteromap);
        let gpu = self.geomean_of(|r| r.gpu_only);
        let mc = self.geomean_of(|r| r.multicore_only);
        let ideal = self.geomean_of(|r| r.ideal);
        (
            (gpu / hm - 1.0) * 100.0,
            (mc / hm - 1.0) * 100.0,
            (hm / ideal - 1.0) * 100.0,
        )
    }

    /// Rows for one workload, in Table I dataset order.
    pub fn rows_for(&self, workload: Workload) -> Vec<&ComboRow> {
        self.rows
            .iter()
            .filter(|r| r.workload == workload)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_predict::DecisionTree;

    #[test]
    fn comparison_covers_all_combinations() {
        // Decision tree avoids training cost in tests.
        let system = MultiAcceleratorSystem::primary();
        let hm = HeteroMap::new(system.clone(), Box::new(DecisionTree::paper()));
        let cmp =
            SchedulerComparison::run_with(&Evaluator::new(system, Objective::Performance), &hm);
        assert_eq!(cmp.rows.len(), 81);
        for r in &cmp.rows {
            assert!(r.ideal <= r.gpu_only + 1e-9);
            assert!(r.ideal <= r.multicore_only + 1e-9);
            assert!(r.heteromap > 0.0);
        }
        let (over_gpu, over_mc, gap) = cmp.headline();
        assert!(over_gpu.is_finite() && over_mc.is_finite());
        // The predictor can be worse than ideal but never absurdly so.
        assert!(gap > -1.0 && gap < 500.0, "gap {gap}");
    }
}
