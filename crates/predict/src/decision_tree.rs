//! The hand-built decision-tree heuristic of Section IV.
//!
//! A 3-layer tree selects the accelerator (`M1`) from `(B, I)` with the
//! paper's default 0.5 thresholds; the intra-accelerator variables follow
//! the published linear `M = a(B, I) + k` equations (normalized form — the
//! `× max + k` denormalization happens at deployment through
//! `DeployLimits`).

use crate::predictor::Predictor;
use heteromap_model::{Accelerator, BVector, Grid, IVector, MConfig, OmpSchedule};

/// The decision-tree predictor. Stateless (no training), tunable threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTree {
    /// Decision threshold on normalized variables (paper default 0.5: "the
    /// unbiased mid-point in normalized B, I values"; "other thresholds may
    /// also work by fine tuning" — swept by the ablation bench).
    pub threshold: f64,
    /// Discretization grid applied to predicted M values.
    pub grid: Grid,
}

impl DecisionTree {
    /// The paper's configuration: 0.5 threshold, 0.1 grid.
    pub fn paper() -> Self {
        DecisionTree {
            threshold: 0.5,
            grid: Grid::PAPER,
        }
    }

    /// A tree with a custom threshold (ablation).
    pub fn with_threshold(threshold: f64) -> Self {
        DecisionTree {
            threshold,
            grid: Grid::PAPER,
        }
    }

    /// The inter-accelerator (`M1`) model: the 3-layer decision tree of §IV.
    pub fn select_accelerator(&self, b: &BVector, i: &IVector) -> Accelerator {
        let t = self.threshold;
        // Layer 0: graphs whose edge count approaches the literature maximum
        // (I2 >= 0.8) exceed any discrete accelerator memory and stream
        // through chunks; the GPU's thread surplus wins that regime ("Frnd.
        // and Kron. ... perform better on the GPU because they are large and
        // require more threads", §VII-B).
        if i.i2() >= 0.8 {
            return Accelerator::Gpu;
        }
        // Layer 1: dominant phase type.
        // "if a combination has B1 or B2 or B3 each with a value greater
        //  than 0.5 ... then a GPU is chosen".
        if b.get(1) > t || b.get(2) > t || b.get(3) > t {
            // Layer 2 refinements:
            // - large graphs with indirect addressing or FP fall back to the
            //   multicore ("For large graphs with I1 > 0.5, benchmarks with
            //   indirect addressing are also run on the multicore ...
            //   requiring FP operations (B6) are also run on the multicore");
            if i.i1() > t && (b.get(8) > t || b.get(6) > t) {
                return Accelerator::Multicore;
            }
            // - FP workloads exploit the multicore's SIMD only when the
            //   graph has density ("PR-CA does not perform well on a Xeon
            //   Phi, because it cannot take advantage of the SIMD
            //   capabilities due to the lack of density");
            if b.get(6) > t && i.density() > 0.3 {
                return Accelerator::Multicore;
            }
            // - heavy indirect addressing on dense graphs keeps the shared
            //   metadata in the multicore's caches (Conn. Comp. in §VII-B).
            if b.get(8) >= t && i.density() > 0.3 {
                return Accelerator::Multicore;
            }
            return Accelerator::Gpu;
        }
        // "if a benchmark has serial Push-Pop accesses (B4) with a high
        //  graph density, then the multicore is selected" (the dense graph
        //  fits in its local caches); push-pop-dominated workloads on sparse
        //  graphs keep the GPU's thread surplus (the DFS behaviour of
        //  §VII-B, with DFS-CO as the dense exception).
        if b.get(4) > t {
            return if i.density() > t {
                Accelerator::Multicore
            } else {
                Accelerator::Gpu
            };
        }
        // "if a benchmark has a high value of B5 (reductions) with some FP
        //  (B6), and negligible local computations (B11), then the GPU is
        //  selected".
        if b.get(5) > t && b.get(6) > 0.0 && b.get(11) < 0.2 {
            return Accelerator::Gpu;
        }
        // "The multicore is selected for the case with reductions (B5) and
        //  read-write shared data (B10)."
        if b.get(5) > t && b.get(10) > t {
            return Accelerator::Multicore;
        }
        // Large graphs with indirect addressing or FP: multicore.
        if i.i1() > t && (b.get(8) > 0.3 || b.get(6) > t) {
            return Accelerator::Multicore;
        }
        // Layer 3: weighted default — GPU affinity from parallel phases,
        // multicore affinity from sharing/sync/indirection.
        let gpu_score = b.parallel_phase_fraction() + b.get(11);
        let mc_score =
            b.get(4) + b.get(5) * 0.5 + b.get(8) + b.get(10) + b.get(12) + b.get(6) * 0.5;
        if gpu_score >= mc_score {
            Accelerator::Gpu
        } else {
            Accelerator::Multicore
        }
    }
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree::paper()
    }
}

impl Predictor for DecisionTree {
    fn name(&self) -> &str {
        "Decision Tree"
    }

    /// Applies the §IV equations. Quotes reference the paper's equation
    /// derivations:
    ///
    /// * `M19 = I1 * max_global_threads + k`
    /// * `M20 = Avg.Deg * max_local_threads + k`
    /// * `M2 = I1 * max_cores + k`
    /// * `M3, M10 = Avg.Deg * max_multi-threading + k`
    /// * `M4 = (B12 + B13)/2 * max_thread_wait_time + k`
    /// * `M5-7 = Avg.Deg.Dia * max_thread_placement + k`
    /// * `M8 = (Avg.Deg.Dia + B10)/2 * max_thread_placement + k`
    fn predict(&self, b: &BVector, i: &IVector) -> MConfig {
        let accel = self.select_accelerator(b, i);
        let avg_deg = i.avg_deg();
        let avg_deg_dia = i.avg_deg_dia();
        let contention = b.contention();
        let mut cfg = match accel {
            Accelerator::Gpu => MConfig::gpu_default(),
            Accelerator::Multicore => MConfig::multicore_default(),
        };
        cfg.accelerator = accel;
        // GPU hardware choices.
        cfg.global_threads = i.i1();
        cfg.local_threads = avg_deg;
        // Multicore hardware choices.
        cfg.cores = i.i1();
        cfg.threads_per_core = avg_deg;
        cfg.simd_width = avg_deg;
        cfg.simd = b.get(6);
        cfg.blocktime = contention;
        cfg.place_core_ids = avg_deg_dia;
        cfg.place_thread_ids = avg_deg_dia;
        cfg.place_offsets = avg_deg_dia;
        cfg.affinity = (avg_deg_dia + b.get(10)) / 2.0;
        // OpenMP choices (M9, M11-18): dynamic scheduling for read-write
        // shared data; chunk shrinks with degree skew (I3); nested
        // parallelism for dense graphs; spin/wait track contention.
        cfg.schedule = if b.get(10) >= self.threshold {
            OmpSchedule::Dynamic
        } else {
            OmpSchedule::Static
        };
        cfg.chunk_size = 1.0 - i.i3();
        cfg.nested = i.density() >= self.threshold;
        cfg.max_active_levels = if cfg.nested { 1.0 } else { 0.0 };
        cfg.spin_count = contention;
        cfg.wait_policy_active = contention < self.threshold;
        cfg.proc_bind = b.get(10);
        cfg.dynamic_adjust = i.i3() >= self.threshold;
        cfg.quantized(self.grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::datasets::{Dataset, LiteratureMaxima};
    use heteromap_model::Workload;

    fn ivec(d: Dataset) -> IVector {
        IVector::from_stats(&d.stats(), &LiteratureMaxima::paper(), Grid::PAPER)
    }

    #[test]
    fn fig7_sssp_bf_on_usa_cal_selects_gpu() {
        // Paper Fig. 7: "SSSP-BF is expected to perform optimally on a GPU".
        let tree = DecisionTree::paper();
        let cfg = tree.predict(&Workload::SsspBf.b_vector(), &ivec(Dataset::UsaCal));
        assert_eq!(cfg.accelerator, Accelerator::Gpu);
        // "These resolve to values of 0.1 for M19 and 1 for M20": some
        // global threading, maximum local threading.
        assert!((cfg.global_threads - 0.1).abs() < 1e-9);
        assert!((cfg.local_threads - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig7_sssp_delta_on_usa_cal_selects_multicore() {
        // Paper Fig. 7: "SSSP-Delta is expected to perform optimally on a
        // multicore (Xeon Phi used in this case)".
        let tree = DecisionTree::paper();
        let cfg = tree.predict(&Workload::SsspDelta.b_vector(), &ivec(Dataset::UsaCal));
        assert_eq!(cfg.accelerator, Accelerator::Multicore);
        // "M2 resolving to 7 cores and M3 resolving to its maximum":
        // normalized cores = I1 = 0.1, threads/core = Avg.Deg = 1.
        assert!((cfg.cores - 0.1).abs() < 1e-9);
        assert!((cfg.threads_per_core - 1.0).abs() < 1e-9);
        // "Thread placement variables, M5-7, resolve to 0.9 due to the high
        // indicated diameter" (with our I4 = 0.6 smoothing the placement
        // lands at 0.8 — same loose-placement regime).
        assert!(cfg.placement() >= 0.7, "placement {}", cfg.placement());
    }

    #[test]
    fn bfs_selects_gpu_everywhere() {
        let tree = DecisionTree::paper();
        for d in Dataset::all() {
            // BFS is pure pareto-division (B3 = 1) with no FP/indirect.
            let cfg = tree.predict(&Workload::Bfs.b_vector(), &ivec(d));
            assert_eq!(cfg.accelerator, Accelerator::Gpu, "{d}");
        }
    }

    #[test]
    fn dfs_on_dense_connectome_selects_multicore() {
        let tree = DecisionTree::paper();
        let cfg = tree.predict(&Workload::Dfs.b_vector(), &ivec(Dataset::MouseRetina));
        assert_eq!(cfg.accelerator, Accelerator::Multicore);
        // And on a sparse road network the GPU runs it.
        let cfg = tree.predict(&Workload::Dfs.b_vector(), &ivec(Dataset::UsaCal));
        assert_eq!(cfg.accelerator, Accelerator::Gpu);
    }

    #[test]
    fn streaming_scale_graphs_go_to_gpu() {
        // §VII-B's named exceptions: Friendster and KronLarge exceed the
        // discrete memories and flip to the GPU even for FP workloads.
        let tree = DecisionTree::paper();
        for d in [Dataset::Friendster, Dataset::KronLarge] {
            let cfg = tree.predict(&Workload::PageRank.b_vector(), &ivec(d));
            assert_eq!(cfg.accelerator, Accelerator::Gpu, "{d}");
        }
        // Mid-size FP graphs still take the multicore ("larger graphs
        // running with benchmarks requiring FP ... run on the multicore").
        let cfg = tree.predict(&Workload::PageRank.b_vector(), &ivec(Dataset::LiveJournal));
        assert_eq!(cfg.accelerator, Accelerator::Multicore);
    }

    #[test]
    fn schedule_follows_read_write_sharing() {
        let tree = DecisionTree::paper();
        let delta = tree.predict(&Workload::SsspDelta.b_vector(), &ivec(Dataset::Facebook));
        assert_eq!(delta.schedule, OmpSchedule::Dynamic); // B10 = 0.6
        let bfs = tree.predict(&Workload::Bfs.b_vector(), &ivec(Dataset::Facebook));
        assert_eq!(bfs.schedule, OmpSchedule::Static); // B10 = 0.4
    }

    #[test]
    fn blocktime_tracks_contention() {
        let tree = DecisionTree::paper();
        let cfg = tree.predict(&Workload::SsspBf.b_vector(), &ivec(Dataset::UsaCal));
        // SSSP-BF: B12 = B13 = 0.2 -> M4 = 0.2.
        assert!((cfg.blocktime - 0.2).abs() < 1e-9);
    }

    #[test]
    fn predictions_are_grid_aligned() {
        let tree = DecisionTree::paper();
        for w in Workload::all() {
            let cfg = tree.predict(&w.b_vector(), &ivec(Dataset::LiveJournal));
            for (d, v) in cfg.as_array().iter().enumerate() {
                if d == 10 {
                    continue; // schedule encodes in thirds
                }
                assert!(
                    (v * 10.0 - (v * 10.0).round()).abs() < 1e-9,
                    "{w} dim {d}: {v}"
                );
            }
        }
    }

    #[test]
    fn threshold_changes_decisions() {
        // With an extreme threshold the B1-3 rule can no longer fire, so
        // some GPU decision must flip.
        let strict = DecisionTree::with_threshold(1.1);
        let cfg = strict.predict(&Workload::Bfs.b_vector(), &ivec(Dataset::Facebook));
        // Layer-3 fallback: BFS parallel score still wins.
        assert_eq!(cfg.accelerator, Accelerator::Gpu);
        let delta = strict.predict(&Workload::SsspDelta.b_vector(), &ivec(Dataset::Facebook));
        assert_eq!(delta.accelerator, Accelerator::Multicore);
    }
}
