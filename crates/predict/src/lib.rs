//! HeteroMap's prediction stack: the decision-tree heuristic (§IV), the
//! automated learners (§V — deep networks, linear/polynomial regression,
//! adaptive library), synthetic training-data generation (Fig. 9 / Table III), the profiler database,
//! and the Table IV evaluation machinery.
//!
//! # Example
//!
//! ```
//! use heteromap_accel::system::MultiAcceleratorSystem;
//! use heteromap_predict::decision_tree::DecisionTree;
//! use heteromap_predict::predictor::Predictor;
//! use heteromap_graph::datasets::{Dataset, LiteratureMaxima};
//! use heteromap_model::{Grid, IVector, Workload};
//!
//! let tree = DecisionTree::paper();
//! let i = IVector::from_stats(
//!     &Dataset::UsaCal.stats(),
//!     &LiteratureMaxima::paper(),
//!     Grid::PAPER,
//! );
//! let cfg = tree.predict(&Workload::SsspBf.b_vector(), &i);
//! // Fig. 7: SSSP-BF on USA-Cal maps to the GPU.
//! assert_eq!(cfg.accelerator, heteromap_model::Accelerator::Gpu);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod decision_tree;
pub mod eval;
pub mod knn;
pub mod linalg;
pub mod nn;
pub mod persist;
pub mod predictor;
pub mod regression;
pub mod synth;
pub mod trainer;

pub use adaptive::AdaptiveLibrary;
pub use decision_tree::DecisionTree;
pub use eval::{Evaluator, LearnerReport};
pub use knn::KnnPredictor;
pub use nn::{NeuralPredictor, TrainConfig};
pub use persist::PersistedModel;
pub use predictor::{DatabaseSummary, Objective, Predictor, TrainingSample, TrainingSet};
pub use regression::RegressionPredictor;
pub use trainer::Trainer;
