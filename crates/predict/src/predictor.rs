//! The predictor interface and the training database ("profiler database"
//! of §V: `B, I, M` tuples indexed by `B, I`).

use heteromap_accel::SimReport;
use heteromap_graph::GraphStats;
use heteromap_model::workload::IterationModel;
use heteromap_model::{BVector, IVector, MConfig, BI_DIM};

/// Objective the framework optimizes (§VII-C trains HeteroMap "for the
/// energy objective" as well).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize completion time.
    #[default]
    Performance,
    /// Minimize energy.
    Energy,
}

impl Objective {
    /// The objective's value for one simulated run: ms or J.
    pub fn cost(self, report: &SimReport) -> f64 {
        match self {
            Objective::Performance => report.time_ms,
            Objective::Energy => report.energy_j,
        }
    }
}

/// Simulated cost of one predictor FLOP in nanoseconds: the only constant
/// of the §V-A overhead model ([`Predictor::overhead_ms`]).
pub const FLOP_NS: f64 = 1.0;

/// A predictor maps discretized benchmark + input variables to machine
/// choices (`(B, I) -> M`), the `X(M) = Min_Perf(B, I)` of §III-A.
pub trait Predictor {
    /// Short name for tables (e.g. `"Decision Tree"`, `"Deep.128"`).
    fn name(&self) -> &str;

    /// Predicts the machine configuration for one benchmark-input pair.
    fn predict(&self, b: &BVector, i: &IVector) -> MConfig;

    /// Deterministic cost of one inference in multiply-accumulates
    /// (0 for closed-form predictors like the decision tree).
    fn inference_flops(&self) -> usize {
        0
    }

    /// The predictor overhead of §V-A in milliseconds,
    /// `inference_flops × FLOP_NS`: what every scheduling path charges into
    /// a combination's completion time for one inference. A model rather
    /// than a stopwatch, so every charged time is a pure function of the
    /// predictor.
    fn overhead_ms(&self) -> f64 {
        self.inference_flops() as f64 * FLOP_NS * 1e-6
    }
}

/// Flattens `(B, I)` into the 17 input features of the paper's Fig. 10
/// network (13 B neurons + 4 I neurons).
pub fn features(b: &BVector, i: &IVector) -> [f64; BI_DIM] {
    let mut f = [0.0; BI_DIM];
    f[..13].copy_from_slice(&b.as_array());
    f[13..].copy_from_slice(&i.as_array());
    f
}

/// One row of the offline profiler database: a synthetic benchmark-input
/// combination and the autotuned-optimal machine configuration for it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSample {
    /// Benchmark variables.
    pub b: BVector,
    /// Input variables.
    pub i: IVector,
    /// Statistics the input variables were derived from.
    pub stats: GraphStats,
    /// Iteration scaling of the synthetic benchmark.
    pub iteration_model: IterationModel,
    /// Per-edge work of the synthetic benchmark.
    pub work_per_edge: f64,
    /// The best configuration the autotuner found.
    pub optimal: MConfig,
    /// Objective value at the optimum (ms or J).
    pub optimal_cost: f64,
}

/// The offline profiler database (§V: "a profiler database of B, I, M
/// tuples residing in the CPU file system").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingSet {
    samples: Vec<TrainingSample>,
    /// Total oracle evaluations the autotuner spent producing the samples
    /// (provenance; zero for hand-built or pre-subsystem databases).
    tuning_evaluations: u64,
}

impl TrainingSet {
    /// Creates an empty database.
    pub fn new() -> Self {
        TrainingSet::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: TrainingSample) {
        self.samples.push(sample);
    }

    /// All samples.
    pub fn samples(&self) -> &[TrainingSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total autotuner oracle evaluations spent generating the database.
    pub fn tuning_evaluations(&self) -> u64 {
        self.tuning_evaluations
    }

    /// Adds `n` to the evaluations-spent total (the trainer calls this once
    /// per tuned sample).
    pub fn add_tuning_evaluations(&mut self, n: u64) {
        self.tuning_evaluations += n;
    }

    /// One-line provenance summary of the database.
    pub fn summary(&self) -> DatabaseSummary {
        let gpu = self
            .samples
            .iter()
            .filter(|s| s.optimal.accelerator == heteromap_model::Accelerator::Gpu)
            .count();
        DatabaseSummary {
            samples: self.samples.len(),
            tuning_evaluations: self.tuning_evaluations,
            gpu_optimal: gpu,
            multicore_optimal: self.samples.len() - gpu,
        }
    }

    /// Looks up the nearest stored sample by `(B, I)` Euclidean distance —
    /// the paper's database "is indexed using B, I tuples to get M
    /// solutions".
    pub fn nearest(&self, b: &BVector, i: &IVector) -> Option<&TrainingSample> {
        let query = features(b, i);
        self.samples.iter().min_by(|x, y| {
            let dx = dist2(&features(&x.b, &x.i), &query);
            let dy = dist2(&features(&y.b, &y.i), &query);
            dx.partial_cmp(&dy).expect("distances are finite")
        })
    }
}

impl Extend<TrainingSample> for TrainingSet {
    fn extend<T: IntoIterator<Item = TrainingSample>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

/// Provenance summary of a profiler database (what the trainer reports at
/// the end of a generation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseSummary {
    /// Number of `(B, I, M)` tuples.
    pub samples: usize,
    /// Total autotuner oracle evaluations spent.
    pub tuning_evaluations: u64,
    /// Samples whose optimum maps to the GPU.
    pub gpu_optimal: usize,
    /// Samples whose optimum maps to the multicore.
    pub multicore_optimal: usize,
}

impl std::fmt::Display for DatabaseSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples ({} gpu-optimal, {} multicore-optimal), {} tuning evaluations",
            self.samples, self.gpu_optimal, self.multicore_optimal, self.tuning_evaluations
        )
    }
}

fn dist2(a: &[f64; BI_DIM], b: &[f64; BI_DIM]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::datasets::{Dataset, LiteratureMaxima};
    use heteromap_model::{Grid, Workload};

    fn sample_for(w: Workload, d: Dataset) -> TrainingSample {
        let stats = d.stats();
        TrainingSample {
            b: w.b_vector(),
            i: IVector::from_stats(&stats, &LiteratureMaxima::paper(), Grid::PAPER),
            stats,
            iteration_model: w.iteration_model(),
            work_per_edge: w.work_per_edge(),
            optimal: MConfig::gpu_default(),
            optimal_cost: 1.0,
        }
    }

    #[test]
    fn features_concatenates_b_then_i() {
        let s = sample_for(Workload::SsspBf, Dataset::UsaCal);
        let f = features(&s.b, &s.i);
        assert_eq!(f[0], 1.0); // B1 of SSSP-BF
        assert_eq!(f[13], s.i.i1());
        assert_eq!(f[16], s.i.i4());
    }

    #[test]
    fn nearest_finds_exact_match() {
        let mut set = TrainingSet::new();
        set.push(sample_for(Workload::SsspBf, Dataset::UsaCal));
        set.push(sample_for(Workload::PageRank, Dataset::Twitter));
        let q = sample_for(Workload::PageRank, Dataset::Twitter);
        let hit = set.nearest(&q.b, &q.i).unwrap();
        assert_eq!(hit.b, q.b);
    }

    #[test]
    fn nearest_on_empty_is_none() {
        let set = TrainingSet::new();
        let s = sample_for(Workload::Bfs, Dataset::Facebook);
        assert!(set.nearest(&s.b, &s.i).is_none());
    }

    #[test]
    fn extend_appends() {
        let mut set = TrainingSet::new();
        set.extend(vec![
            sample_for(Workload::Bfs, Dataset::Facebook),
            sample_for(Workload::Dfs, Dataset::Cage14),
        ]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn objective_default_is_performance() {
        assert_eq!(Objective::default(), Objective::Performance);
    }
}
