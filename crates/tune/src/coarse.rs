//! The legacy coarse-sweep + hill-climb tuner, kept as a strategy of the
//! subsystem with its exact search semantics: [`CoarseRefine::EXHAUSTIVE`]
//! produces the "ideal" baselines of the figure reproductions and
//! [`CoarseRefine::FAST`] tunes each training-database sample.
//!
//! One behavioural fix over the seed implementation: a visited-set memo.
//! The old refine loop re-evaluated already-measured configurations — after
//! every hill-climb step the *previous* best is a neighbour of the new best
//! and called the oracle again on each iteration. The memo replays such
//! steps instead of re-measuring: the budget is still charged (so the
//! search trajectory, stopping point, and result are bit-identical to the
//! seed tuner's) but the duplicate oracle call is elided — its cost is
//! already known and was never strictly below the incumbent best, so the
//! replayed step is exactly the no-op the seed performed, minus the
//! measurement.

use crate::visited::config_key;
use heteromap_model::mspace::MSpace;
use heteromap_model::MConfig;
use std::collections::HashSet;

/// Result of a coarse-refine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseOutcome {
    /// The best configuration found.
    pub config: MConfig,
    /// Objective value at the best configuration.
    pub cost: f64,
    /// Number of oracle evaluations spent (duplicates excluded).
    pub evaluations: usize,
}

/// The coarse enumeration + hill-climb refinement strategy (the seed's
/// autotuner algorithm, with the duplicate-evaluation memo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarseRefine {
    /// Stride over the coarse enumeration (1 = full sweep).
    pub coarse_stride: usize,
    /// Maximum oracle evaluations the refinement loop may spend.
    pub refine_budget: usize,
}

impl CoarseRefine {
    /// Full-fidelity preset: complete coarse enumeration + 200 refinement
    /// evaluations (the "ideal" baseline).
    pub const EXHAUSTIVE: CoarseRefine = CoarseRefine {
        coarse_stride: 1,
        refine_budget: 200,
    };

    /// Bulk training-database preset: strided coarse pass + a short
    /// refinement.
    pub const FAST: CoarseRefine = CoarseRefine {
        coarse_stride: 7,
        refine_budget: 40,
    };

    /// Finds a near-optimal configuration for `oracle` (lower is better).
    ///
    /// # Panics
    ///
    /// Panics if `coarse_stride` is zero.
    pub fn tune<F: FnMut(&MConfig) -> f64>(&self, mut oracle: F) -> CoarseOutcome {
        assert!(self.coarse_stride > 0, "stride must be positive");
        let _span = heteromap_obs::span_cat("tune.coarse_refine", "tune");
        let space = MSpace::new();
        let mut visited: HashSet<[u64; heteromap_model::M_DIM]> = HashSet::new();
        let mut evaluations = 0usize;
        let mut best = MConfig::gpu_default();
        let mut best_cost = f64::INFINITY;
        for cfg in space.enumerate().into_iter().step_by(self.coarse_stride) {
            visited.insert(config_key(&cfg));
            let cost = oracle(&cfg);
            evaluations += 1;
            if cost < best_cost {
                best_cost = cost;
                best = cfg;
            }
        }
        // Hill-climb on the fine grid, replaying configurations whose cost
        // is already known: the budget is charged either way so the
        // trajectory matches the memo-free tuner, but the oracle only runs
        // for genuinely new points.
        let mut remaining = self.refine_budget;
        loop {
            let mut improved = false;
            for n in space.neighbors(&best) {
                if remaining == 0 {
                    break;
                }
                remaining -= 1;
                if !visited.insert(config_key(&n)) {
                    // A revisited neighbour was >= the best when first
                    // measured and the best only decreases, so the seed's
                    // step here was a no-op; reproduce it without the call.
                    continue;
                }
                let cost = oracle(&n);
                evaluations += 1;
                if cost < best_cost {
                    best_cost = cost;
                    best = n;
                    improved = true;
                }
            }
            if !improved || remaining == 0 {
                break;
            }
        }
        CoarseOutcome {
            config: best,
            cost: best_cost,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visited::config_key;
    use heteromap_model::Accelerator;
    use std::collections::HashSet;

    fn convex_oracle(cfg: &MConfig) -> f64 {
        let accel_penalty = match cfg.accelerator {
            Accelerator::Gpu => 0.0,
            Accelerator::Multicore => 5.0,
        };
        accel_penalty + (cfg.global_threads - 0.7).powi(2) + (cfg.local_threads - 0.3).powi(2) + 1.0
    }

    #[test]
    fn finds_the_convex_optimum() {
        let r = CoarseRefine::EXHAUSTIVE.tune(convex_oracle);
        assert_eq!(r.config.accelerator, Accelerator::Gpu);
        assert!((r.config.global_threads - 0.7).abs() <= 0.051);
        assert!((r.config.local_threads - 0.3).abs() <= 0.051);
    }

    #[test]
    fn refinement_improves_on_coarse_grid() {
        // Refinement starts from the coarse grid's best and only accepts
        // strict improvements, so it can never end above it.
        let coarse_only = CoarseRefine {
            refine_budget: 0,
            ..CoarseRefine::EXHAUSTIVE
        }
        .tune(convex_oracle);
        let refined = CoarseRefine::EXHAUSTIVE.tune(convex_oracle);
        assert!(refined.cost <= coarse_only.cost);
    }

    #[test]
    fn fast_preset_spends_fewer_evaluations() {
        let fast = CoarseRefine::FAST.tune(convex_oracle);
        let full = CoarseRefine::EXHAUSTIVE.tune(convex_oracle);
        assert!(fast.evaluations < full.evaluations);
    }

    #[test]
    fn cost_matches_oracle_at_result() {
        let r = CoarseRefine::FAST.tune(convex_oracle);
        assert!((convex_oracle(&r.config) - r.cost).abs() < 1e-12);
    }

    #[test]
    fn never_evaluates_a_configuration_twice() {
        let mut seen: HashSet<[u64; heteromap_model::M_DIM]> = HashSet::new();
        let mut calls = 0usize;
        let r = CoarseRefine::EXHAUSTIVE.tune(|cfg| {
            calls += 1;
            assert!(
                seen.insert(config_key(cfg)),
                "oracle called twice for {cfg:?}"
            );
            convex_oracle(cfg)
        });
        assert_eq!(calls, r.evaluations);
    }

    /// The seed's refine loop without the memo, for trajectory comparison.
    fn memo_free_reference<F: FnMut(&MConfig) -> f64>(
        stride: usize,
        refine_budget: usize,
        mut oracle: F,
    ) -> (MConfig, f64) {
        let space = MSpace::new();
        let mut best = MConfig::gpu_default();
        let mut best_cost = f64::INFINITY;
        for cfg in space.enumerate().into_iter().step_by(stride) {
            let cost = oracle(&cfg);
            if cost < best_cost {
                best_cost = cost;
                best = cfg;
            }
        }
        let mut remaining = refine_budget;
        loop {
            let mut improved = false;
            for n in space.neighbors(&best) {
                if remaining == 0 {
                    break;
                }
                remaining -= 1;
                let cost = oracle(&n);
                if cost < best_cost {
                    best_cost = cost;
                    best = n;
                    improved = true;
                }
            }
            if !improved || remaining == 0 {
                break;
            }
        }
        (best, best_cost)
    }

    #[test]
    fn memo_preserves_the_seed_trajectory_exactly() {
        // A rugged oracle so the climb takes several non-trivial steps.
        let rugged = |cfg: &MConfig| {
            let a = cfg.as_array();
            let mut c = 1.0;
            for (d, v) in a.iter().enumerate() {
                c += (v - 0.37).powi(2) + 0.05 * (v * 9.0 + d as f64).sin();
            }
            c
        };
        for budget in [0usize, 20, 80, 200] {
            let memo = CoarseRefine {
                coarse_stride: 7,
                refine_budget: budget,
            }
            .tune(rugged);
            let (ref_cfg, ref_cost) = memo_free_reference(7, budget, rugged);
            assert_eq!(
                memo.config.as_array(),
                ref_cfg.as_array(),
                "budget {budget}"
            );
            assert_eq!(memo.cost.to_bits(), ref_cost.to_bits(), "budget {budget}");
        }
    }

    #[test]
    fn evaluation_count_excludes_skipped_duplicates() {
        // With the memo, a climb of k improving steps spends at most
        // coarse + refine_budget evaluations, every one of them distinct.
        let r = CoarseRefine {
            coarse_stride: 1,
            refine_budget: 40,
        }
        .tune(convex_oracle);
        let coarse = MSpace::new().enumerate().len();
        assert!(r.evaluations <= coarse + 40);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = CoarseRefine {
            coarse_stride: 0,
            refine_budget: 1,
        }
        .tune(convex_oracle);
    }
}
