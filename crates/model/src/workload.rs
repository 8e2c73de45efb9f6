//! Named graph benchmarks (Fig. 5) and their `B` profiles.

use crate::bvec::BVector;
use std::fmt;

/// The nine graph benchmarks evaluated in the paper (§VI-B), sourced from
/// CRONO, GAP, MiBench, Rodinia and Pannotia.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Workload {
    /// Single-source shortest paths, Bellman-Ford (data-parallel edge relax).
    SsspBf,
    /// Single-source shortest paths, Δ-stepping (GAP; buckets + reductions).
    SsspDelta,
    /// Breadth-first search (frontier expansion — "Pareto-Division" B3).
    Bfs,
    /// Depth-first search (stack push-pop ordering — B4).
    Dfs,
    /// PageRank, pull-based with floating-point rank computation.
    PageRank,
    /// PageRank-DP, push/data-parallel variant.
    PageRankDp,
    /// Triangle counting (sorted adjacency intersection + reduction).
    TriangleCount,
    /// Community detection (label propagation with FP modularity scoring).
    Community,
    /// Connected components (label exchange with indirect hooks).
    ConnComp,
    /// Sparse matrix–vector multiply (GARDENIA; per-row FP dot products).
    Spmv,
    /// k-core decomposition (GARDENIA; synchronous peeling waves).
    KCore,
    /// Label propagation (GARDENIA; push-direction weighted majority vote).
    LabelProp,
}

/// How a workload's outer iteration count scales with the input — consumed
/// by the accelerator cost model (traversals converge in `O(diameter)`
/// rounds; PageRank runs a fixed number of power iterations; triangle
/// counting is a single sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IterationModel {
    /// Iterations ≈ `factor × diameter` (Bellman-Ford style convergence).
    DiameterBound {
        /// Multiplier on the graph diameter.
        factor: f64,
    },
    /// Fixed iteration count (e.g. 20 PageRank power iterations).
    Fixed(u32),
    /// One pass over the graph.
    Single,
}

impl Workload {
    /// All nine workloads in Fig. 5 order.
    pub fn all() -> [Workload; 9] {
        [
            Workload::SsspBf,
            Workload::SsspDelta,
            Workload::Bfs,
            Workload::Dfs,
            Workload::PageRank,
            Workload::PageRankDp,
            Workload::TriangleCount,
            Workload::Community,
            Workload::ConnComp,
        ]
    }

    /// The widened benchmark set: the nine Fig. 5 workloads plus the three
    /// GARDENIA additions (SpMV, k-core, label propagation) that broaden
    /// the `B` space beyond classic traversals. Paper-figure sweeps keep
    /// iterating [`Workload::all`]; dynamic-engine and kernel-validation
    /// sweeps use this.
    pub fn extended() -> [Workload; 12] {
        [
            Workload::SsspBf,
            Workload::SsspDelta,
            Workload::Bfs,
            Workload::Dfs,
            Workload::PageRank,
            Workload::PageRankDp,
            Workload::TriangleCount,
            Workload::Community,
            Workload::ConnComp,
            Workload::Spmv,
            Workload::KCore,
            Workload::LabelProp,
        ]
    }

    /// Short name used on the figures' x-axes.
    pub fn abbrev(&self) -> &'static str {
        match self {
            Workload::SsspBf => "SSSP-BF",
            Workload::SsspDelta => "SSSP-Delta",
            Workload::Bfs => "BFS",
            Workload::Dfs => "DFS",
            Workload::PageRank => "PR",
            Workload::PageRankDp => "PR-DP",
            Workload::TriangleCount => "TRI",
            Workload::Community => "COMM",
            Workload::ConnComp => "CC",
            Workload::Spmv => "SPMV",
            Workload::KCore => "KCORE",
            Workload::LabelProp => "LP",
        }
    }

    /// The benchmark's `B` profile.
    ///
    /// SSSP-BF follows the paper's worked Fig. 6 discretization exactly; the
    /// others are derived from the Fig. 5 check-matrix (which variables are
    /// present) with magnitudes assigned per the prose: BFS is pure
    /// pareto-division, DFS pure push-pop with indirect addressing, the
    /// PageRanks are FP-heavy vertex division + reduction, Δ-stepping mixes
    /// push-pop buckets with a bucket-selection reduction, triangle counting
    /// is reduction + read-only-shared heavy, community detection and
    /// connected components carry read-write shared data (and CC indirect
    /// addressing).
    pub fn b_vector(&self) -> BVector {
        let v: [f64; 13] = match self {
            //                 B1   B2   B3   B4   B5   B6   B7   B8   B9   B10  B11  B12  B13
            Workload::SsspBf => {
                return BVector::sssp_bf_example();
            }
            Workload::SsspDelta => [
                0.4, 0.0, 0.0, 0.4, 0.2, 0.0, 0.6, 0.0, 0.3, 0.6, 0.1, 0.4, 0.4,
            ],
            Workload::Bfs => [
                0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.8, 0.0, 0.5, 0.4, 0.1, 0.1, 0.2,
            ],
            Workload::Dfs => [
                0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5, 0.3, 0.3, 0.4, 0.1, 0.2, 0.1,
            ],
            Workload::PageRank => [
                0.7, 0.0, 0.0, 0.0, 0.3, 0.9, 0.8, 0.0, 0.5, 0.5, 0.3, 0.3, 0.2,
            ],
            Workload::PageRankDp => [
                0.8, 0.0, 0.0, 0.0, 0.2, 0.9, 0.8, 0.0, 0.5, 0.5, 0.2, 0.3, 0.2,
            ],
            Workload::TriangleCount => [
                0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.6, 0.4, 0.7, 0.3, 0.4, 0.4, 0.1,
            ],
            Workload::Community => [
                0.5, 0.0, 0.0, 0.0, 0.5, 0.6, 0.6, 0.2, 0.4, 0.6, 0.2, 0.4, 0.3,
            ],
            Workload::ConnComp => [
                0.6, 0.0, 0.0, 0.0, 0.4, 0.0, 0.4, 0.5, 0.3, 0.6, 0.1, 0.4, 0.2,
            ],
            // GARDENIA additions: SpMV is vertex-division FP with strong
            // coalescing and read-only shared rows; k-core is peeling waves
            // (push-pop frontier + reduction over remaining degrees) with
            // heavy read-write shared counters; label propagation is a
            // FP-weighted majority vote over read-write shared labels.
            Workload::Spmv => [
                0.8, 0.0, 0.0, 0.0, 0.2, 0.9, 0.7, 0.0, 0.6, 0.2, 0.3, 0.1, 0.2,
            ],
            Workload::KCore => [
                0.5, 0.0, 0.0, 0.2, 0.3, 0.0, 0.7, 0.3, 0.3, 0.7, 0.2, 0.5, 0.3,
            ],
            Workload::LabelProp => [
                0.6, 0.0, 0.0, 0.0, 0.4, 0.6, 0.7, 0.2, 0.4, 0.7, 0.2, 0.4, 0.3,
            ],
        };
        BVector::new(v).expect("built-in workload profiles are valid")
    }

    /// Outer-iteration scaling for the cost model.
    pub fn iteration_model(&self) -> IterationModel {
        match self {
            Workload::SsspBf => IterationModel::DiameterBound { factor: 1.0 },
            Workload::SsspDelta => IterationModel::DiameterBound { factor: 0.6 },
            Workload::Bfs => IterationModel::DiameterBound { factor: 1.0 },
            Workload::Dfs => IterationModel::DiameterBound { factor: 1.0 },
            Workload::PageRank | Workload::PageRankDp => IterationModel::Fixed(20),
            Workload::TriangleCount => IterationModel::Single,
            Workload::Community => IterationModel::Fixed(10),
            Workload::ConnComp => IterationModel::DiameterBound { factor: 0.5 },
            Workload::Spmv => IterationModel::Single,
            Workload::KCore => IterationModel::Fixed(12),
            Workload::LabelProp => IterationModel::Fixed(15),
        }
    }

    /// Work per edge relative to a simple relax (triangle counting's sorted
    /// intersections are much heavier than BFS's visited check).
    pub fn work_per_edge(&self) -> f64 {
        match self {
            Workload::SsspBf => 1.0,
            Workload::SsspDelta => 1.3,
            Workload::Bfs => 0.7,
            Workload::Dfs => 1.1,
            Workload::PageRank => 1.5,
            Workload::PageRankDp => 1.4,
            Workload::TriangleCount => 4.0,
            Workload::Community => 2.0,
            Workload::ConnComp => 1.0,
            Workload::Spmv => 0.9,
            Workload::KCore => 1.2,
            Workload::LabelProp => 1.8,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_workloads_in_fig5() {
        assert_eq!(Workload::all().len(), 9);
    }

    #[test]
    fn all_profiles_are_valid_bvectors() {
        for w in Workload::all() {
            let b = w.b_vector();
            let phases: f64 = b.as_array()[..5].iter().sum();
            assert!((phases - 1.0).abs() < 0.06, "{w}: phases sum {phases}");
        }
    }

    #[test]
    fn fig5_checkmarks_hold() {
        // BFS uses only Pareto-division B3; DFS only push-pop B4.
        assert_eq!(Workload::Bfs.b_vector().get(3), 1.0);
        assert_eq!(Workload::Bfs.b_vector().get(1), 0.0);
        assert_eq!(Workload::Dfs.b_vector().get(4), 1.0);
        // DFS and Conn. Comp. have complex indirect accesses (B8).
        assert!(Workload::Dfs.b_vector().get(8) > 0.0);
        assert!(Workload::ConnComp.b_vector().get(8) > 0.0);
        // SSSP-Delta pushes/pops buckets (B4) and reduces (B5).
        assert!(Workload::SsspDelta.b_vector().get(4) > 0.0);
        assert!(Workload::SsspDelta.b_vector().get(5) > 0.0);
        // The PageRanks and community detection need FP (B6).
        assert!(Workload::PageRank.b_vector().get(6) > 0.5);
        assert!(Workload::PageRankDp.b_vector().get(6) > 0.5);
        assert!(Workload::Community.b_vector().get(6) > 0.0);
        // Everything has data-driven accesses B7 and read-write shared B10.
        for w in Workload::all() {
            assert!(w.b_vector().get(7) > 0.0, "{w} missing B7");
            assert!(w.b_vector().get(10) > 0.0, "{w} missing B10");
        }
    }

    #[test]
    fn traversals_scale_with_diameter() {
        assert!(matches!(
            Workload::Bfs.iteration_model(),
            IterationModel::DiameterBound { .. }
        ));
        assert!(matches!(
            Workload::PageRank.iteration_model(),
            IterationModel::Fixed(20)
        ));
        assert!(matches!(
            Workload::TriangleCount.iteration_model(),
            IterationModel::Single
        ));
    }

    #[test]
    fn abbrevs_are_unique() {
        let mut names: Vec<_> = Workload::all().iter().map(|w| w.abbrev()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn extended_set_appends_the_gardenia_workloads() {
        let ext = Workload::extended();
        assert_eq!(ext.len(), 12);
        assert_eq!(&ext[..9], &Workload::all()[..], "Fig. 5 prefix preserved");
        assert_eq!(
            &ext[9..],
            &[Workload::Spmv, Workload::KCore, Workload::LabelProp]
        );
        // Extended profiles obey the same phase-sum and uniqueness rules.
        let mut names: Vec<_> = ext.iter().map(|w| w.abbrev()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        for w in ext {
            let phases: f64 = w.b_vector().as_array()[..5].iter().sum();
            assert!((phases - 1.0).abs() < 0.06, "{w}: phases sum {phases}");
            assert!(w.b_vector().get(7) > 0.0, "{w} missing B7");
            assert!(w.work_per_edge() > 0.0);
        }
        // SpMV is FP and coalesced; k-core is not FP; LP is FP over
        // read-write shared labels.
        assert!(Workload::Spmv.b_vector().get(6) > 0.5);
        assert_eq!(Workload::KCore.b_vector().get(6), 0.0);
        assert!(Workload::LabelProp.b_vector().get(6) > 0.5);
        assert!(Workload::LabelProp.b_vector().get(10) > 0.5);
    }

    #[test]
    fn triangle_counting_is_heaviest_per_edge() {
        let max = Workload::all()
            .iter()
            .map(|w| w.work_per_edge())
            .fold(0.0, f64::max);
        assert_eq!(max, Workload::TriangleCount.work_per_edge());
    }
}
