//! Shared experiment harness for the scheduler-comparison figures
//! (Figs. 11–15): per-combination tuned baselines, the trained HeteroMap
//! predictor, and the ideal.

use crate::{all_combos, geomean};
use heteromap::HeteroMap;
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::Dataset;
use heteromap_model::mspace::MSpace;
use heteromap_model::{Accelerator, MConfig, Workload};
use heteromap_predict::Objective;
use heteromap_tune::CoarseRefine;

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
    /// Best single-accelerator utilizations `(gpu, multicore)`.
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
        Self::run_with(system, objective, &hm)
    }

    /// Runs the comparison with an already-built HeteroMap instance.
    pub fn run_with(system: &MultiAcceleratorSystem, objective: Objective, hm: &HeteroMap) -> Self {
        let space = MSpace::new();
        let gpu_cfgs = space.enumerate_for(Accelerator::Gpu);
        let mc_cfgs = space.enumerate_for(Accelerator::Multicore);
        let cost = |ctx: &WorkloadContext, cfg: &MConfig| -> (f64, f64) {
            let r = system.deploy(ctx, cfg);
            let c = match objective {
                Objective::Performance => r.time_ms,
                Objective::Energy => r.energy_j,
            };
            (c, r.utilization)
        };
        let rows = all_combos()
            .into_iter()
            .map(|(workload, dataset)| {
                let ctx = WorkloadContext::for_workload(workload, dataset.stats());
                let best_over = |cfgs: &[MConfig]| -> (f64, f64) {
                    cfgs.iter()
                        .map(|c| cost(&ctx, c))
                        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"))
                        .expect("non-empty config list")
                };
                let (gpu_only, gpu_util) = best_over(&gpu_cfgs);
                let (multicore_only, mc_util) = best_over(&mc_cfgs);
                let ideal = CoarseRefine::EXHAUSTIVE.tune(|c| cost(&ctx, c).0).cost;
                let placement = hm.schedule(workload, dataset);
                let heteromap = match objective {
                    Objective::Performance => placement.report.time_ms,
                    Objective::Energy => placement.report.energy_j,
                };
                ComboRow {
                    workload,
                    dataset,
                    gpu_only,
                    multicore_only,
                    heteromap,
                    ideal,
                    selected: placement.accelerator(),
                    utilization: placement.report.utilization,
                    utilization_baselines: (gpu_util, mc_util),
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
        let cmp = SchedulerComparison::run_with(&system, Objective::Performance, &hm);
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
