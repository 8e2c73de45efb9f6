//! Regression predictors (§V-C): a simple linear regression and the
//! non-linear polynomial ("Multi Regression") model the paper fits to 7th
//! order, both solved in-crate by ridge-regularized normal equations.

use crate::linalg::{ridge_solve, Matrix};
use crate::predictor::{features, Predictor, TrainingSet};
use heteromap_model::{BVector, IVector, MConfig, BI_DIM, M_DIM};

/// Polynomial-feature regression predictor.
///
/// Features: a bias term, per-dimension powers `x, x², …, x^order`, and for
/// `order ≥ 2` all pairwise products `xᵢ·xⱼ` ("higher orders and variable
/// coefficients, which demand more multiplications"). One ridge solution per
/// output dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionPredictor {
    name: String,
    order: u32,
    /// `M_DIM` weight vectors, one per machine variable.
    weights: Vec<Vec<f64>>,
}

impl RegressionPredictor {
    /// Trains a linear (order-1) regression — Table IV's "Linear Regression".
    pub fn train_linear(set: &TrainingSet) -> Self {
        Self::train(set, 1, 1e-6)
    }

    /// Trains the paper's 7th-order model — Table IV's "Multi Regression".
    pub fn train_multi(set: &TrainingSet) -> Self {
        Self::train(set, 7, 1e-4)
    }

    /// Trains a polynomial regression of arbitrary order with ridge
    /// regularization `lambda` (used by the order-ablation bench).
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty or `order == 0`.
    pub fn train(set: &TrainingSet, order: u32, lambda: f64) -> Self {
        assert!(!set.is_empty(), "cannot train on an empty set");
        assert!(order > 0, "order must be at least 1");
        let rows: Vec<Vec<f64>> = set
            .samples()
            .iter()
            .map(|s| expand(&features(&s.b, &s.i), order))
            .collect();
        let cols = rows[0].len();
        let mut a = Matrix::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                a[(r, c)] = v;
            }
        }
        let mut weights = Vec::with_capacity(M_DIM);
        for m in 0..M_DIM {
            let y: Vec<f64> = set
                .samples()
                .iter()
                .map(|s| s.optimal.as_array()[m])
                .collect();
            let w = ridge_solve(&a, &y, lambda)
                .expect("ridge system is regularized, hence non-singular");
            weights.push(w);
        }
        let name = if order == 1 {
            "Linear Regression".to_string()
        } else {
            format!("Multi Regression (order {order})")
        };
        RegressionPredictor {
            name,
            order,
            weights,
        }
    }

    /// The polynomial order of the model.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Number of multiplications per inference (overhead analysis).
    pub fn flops_per_inference(&self) -> usize {
        self.weights.iter().map(Vec::len).sum()
    }

    /// Mean squared error over a set (diagnostics).
    pub fn mse(&self, set: &TrainingSet) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for s in set.samples() {
            let pred = self.predict(&s.b, &s.i).as_array();
            for (p, t) in pred.iter().zip(s.optimal.as_array().iter()) {
                total += (p - t) * (p - t);
                n += 1;
            }
        }
        total / n.max(1) as f64
    }
}

/// Expands raw features into the polynomial basis.
fn expand(x: &[f64; BI_DIM], order: u32) -> Vec<f64> {
    let mut out = Vec::with_capacity(1 + BI_DIM * order as usize + BI_DIM * BI_DIM / 2);
    out.push(1.0);
    for &xi in x.iter() {
        let mut p = xi;
        for _ in 0..order {
            out.push(p);
            p *= xi;
        }
    }
    if order >= 2 {
        for i in 0..BI_DIM {
            for j in (i + 1)..BI_DIM {
                out.push(x[i] * x[j]);
            }
        }
    }
    out
}

impl Predictor for RegressionPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, b: &BVector, i: &IVector) -> MConfig {
        let phi = expand(&features(b, i), self.order);
        let mut arr = [0.0; M_DIM];
        for (m, w) in self.weights.iter().enumerate() {
            arr[m] = phi.iter().zip(w.iter()).map(|(p, w)| p * w).sum();
        }
        MConfig::from_array(arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::TrainingSample;
    use heteromap_graph::GraphStats;
    use heteromap_model::workload::IterationModel;
    use heteromap_model::{Accelerator, Workload};

    fn toy_set() -> TrainingSet {
        let mut set = TrainingSet::new();
        for k in 0..60 {
            let parallel = k % 2 == 0;
            let b = if parallel {
                Workload::Bfs.b_vector()
            } else {
                Workload::TriangleCount.b_vector()
            };
            let stats = GraphStats::from_known(1000, 8000, 50, 10);
            let i = IVector::from_normalized([0.1 * (k % 10) as f64, 0.4, 0.3, 0.2], stats);
            set.push(TrainingSample {
                b,
                i,
                stats,
                iteration_model: IterationModel::Fixed(5),
                work_per_edge: 1.0,
                optimal: if parallel {
                    MConfig::gpu_default()
                } else {
                    MConfig::multicore_default()
                },
                optimal_cost: 1.0,
            });
        }
        set
    }

    #[test]
    fn linear_model_learns_linear_separation() {
        let reg = RegressionPredictor::train_linear(&toy_set());
        let stats = GraphStats::from_known(1000, 8000, 50, 10);
        let i = IVector::from_normalized([0.5, 0.4, 0.3, 0.2], stats);
        assert_eq!(
            reg.predict(&Workload::Bfs.b_vector(), &i).accelerator,
            Accelerator::Gpu
        );
        assert_eq!(
            reg.predict(&Workload::TriangleCount.b_vector(), &i)
                .accelerator,
            Accelerator::Multicore
        );
    }

    #[test]
    fn higher_order_fits_at_least_as_well() {
        let set = toy_set();
        let lin = RegressionPredictor::train(&set, 1, 1e-6);
        let poly = RegressionPredictor::train(&set, 7, 1e-6);
        assert!(poly.mse(&set) <= lin.mse(&set) + 1e-9);
    }

    #[test]
    fn seventh_order_has_more_flops_than_linear() {
        let set = toy_set();
        let lin = RegressionPredictor::train_linear(&set);
        let multi = RegressionPredictor::train_multi(&set);
        assert!(multi.flops_per_inference() > 3 * lin.flops_per_inference());
    }

    #[test]
    fn expand_sizes() {
        let x = [0.5; BI_DIM];
        assert_eq!(expand(&x, 1).len(), 1 + BI_DIM);
        assert_eq!(
            expand(&x, 2).len(),
            1 + 2 * BI_DIM + BI_DIM * (BI_DIM - 1) / 2
        );
    }

    #[test]
    fn names_match_table4() {
        let set = toy_set();
        assert_eq!(
            RegressionPredictor::train_linear(&set).name(),
            "Linear Regression"
        );
        assert!(RegressionPredictor::train_multi(&set)
            .name()
            .starts_with("Multi Regression"));
    }

    #[test]
    #[should_panic(expected = "order must be at least 1")]
    fn zero_order_panics() {
        let _ = RegressionPredictor::train(&toy_set(), 0, 1e-6);
    }
}
