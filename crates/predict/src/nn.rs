//! Feed-forward deep-learning predictor (§V-B, Fig. 10).
//!
//! The paper's network has 17 input neurons (13 B + 4 I), two internal
//! layers, and one output neuron per `M` choice; internal width is swept
//! over 16/32/64/128 in Table IV ("Deep.16" … "Deep.128"). Training is
//! per-sample (online) SGD with momentum on MSE loss, implemented from
//! scratch (no external ML dependency).

use crate::linalg::{dot_lanes_reference, matmul_bias_blocked, matvec_bias};
use crate::predictor::{features, Predictor, TrainingSet};
use heteromap_model::{BVector, IVector, MConfig, BI_DIM, M_DIM};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// One fully-connected layer with sigmoid activation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Layer {
    pub(crate) inputs: usize,
    pub(crate) outputs: usize,
    /// Row-major `outputs × inputs`.
    pub(crate) weights: Vec<f64>,
    pub(crate) biases: Vec<f64>,
    /// Momentum buffers.
    pub(crate) w_vel: Vec<f64>,
    pub(crate) b_vel: Vec<f64>,
}

impl Layer {
    /// Rebuilds a trained layer from persisted weights (velocities reset —
    /// they are training state, not inference state).
    pub(crate) fn from_parts(
        inputs: usize,
        outputs: usize,
        weights: Vec<f64>,
        biases: Vec<f64>,
    ) -> Self {
        assert_eq!(weights.len(), inputs * outputs, "weight matrix shape");
        assert_eq!(biases.len(), outputs, "bias vector shape");
        Layer {
            inputs,
            outputs,
            w_vel: vec![0.0; weights.len()],
            b_vel: vec![0.0; biases.len()],
            weights,
            biases,
        }
    }

    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // Xavier-style init.
        let scale = (2.0 / (inputs + outputs) as f64).sqrt();
        Layer {
            inputs,
            outputs,
            weights: (0..inputs * outputs)
                .map(|_| rng.gen_range(-scale..scale))
                .collect(),
            biases: vec![0.0; outputs],
            w_vel: vec![0.0; inputs * outputs],
            b_vel: vec![0.0; outputs],
        }
    }

    /// `out = sigmoid(W · input + bias)` through the lane-unrolled kernel.
    fn forward_into(&self, input: &[f64], out: &mut [f64]) {
        matvec_bias(&self.weights, &self.biases, self.inputs, input, out);
        for v in out.iter_mut() {
            *v = sigmoid(*v);
        }
    }

    /// One fused, row-oriented backward pass: for each output row `o`,
    /// adds the row's weights times `delta[o]` into `back` (when given) and
    /// only then applies the momentum update to the row and its bias, so
    /// `back` ends as `Wᵀ · delta` under the pre-step weights. The order of
    /// every operation is the contract documented on
    /// [`NeuralPredictor::train`].
    fn backward_update(
        &mut self,
        input: &[f64],
        delta: &[f64],
        mut back: Option<&mut [f64]>,
        momentum: f64,
        learning_rate: f64,
    ) {
        if let Some(back) = back.as_deref_mut() {
            back.fill(0.0);
        }
        let rows = self
            .weights
            .chunks_exact_mut(self.inputs)
            .zip(self.w_vel.chunks_exact_mut(self.inputs));
        let biases = self.biases.iter_mut().zip(self.b_vel.iter_mut());
        for (((w_row, v_row), &d), (b, bv)) in rows.zip(delta).zip(biases) {
            if let Some(back) = back.as_deref_mut() {
                for (c, &w) in back.iter_mut().zip(w_row.iter()) {
                    *c += w * d;
                }
            }
            for ((w, v), &xi) in w_row.iter_mut().zip(v_row.iter_mut()).zip(input) {
                let g = d * xi;
                let nv = *v * momentum - learning_rate * g;
                *v = nv;
                *w += nv;
            }
            let nv = *bv * momentum - learning_rate * d;
            *bv = nv;
            *b += nv;
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Reusable flat activation arena for the forward pass: two row-major
/// ping-pong buffers sized `batch × widest-layer`. One scratch per worker
/// thread makes inference allocation-free in steady state — the buffers grow
/// to the largest batch seen and are then reused verbatim.
#[derive(Debug, Default, Clone)]
pub struct InferenceScratch {
    ping: Vec<f64>,
    pong: Vec<f64>,
}

impl InferenceScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        InferenceScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch backing [`Predictor::predict`]: first use warms
    /// the buffers, every later inference on the thread is allocation-free.
    static TLS_SCRATCH: RefCell<InferenceScratch> = RefCell::new(InferenceScratch::new());
}

/// Hyper-parameters for training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Internal layer width (Table IV sweeps 16/32/64/128).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// RNG seed (weights + shuffling).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            hidden: 128,
            epochs: 250,
            learning_rate: 0.15,
            momentum: 0.85,
            seed: 42,
        }
    }
}

/// The trained deep predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralPredictor {
    name: String,
    layers: Vec<Layer>,
}

impl NeuralPredictor {
    /// Trains a `17 → hidden → hidden → 20` network on the profiler
    /// database with per-sample (online) SGD with momentum on MSE loss.
    ///
    /// # Arithmetic order
    ///
    /// The trained weights, biases and velocities are a pure function of
    /// the set and `config`, and the order of every floating-point
    /// operation is part of that contract (the golden training digests pin
    /// it):
    ///
    /// * the forward pass is [`matvec_bias`]'s lane order, as in inference;
    /// * an output delta is `(a - y) * a * (1 - a)`;
    /// * a hidden delta `δ[h]` starts at `0.0`, adds `w[o][h] * δ'[o]` for
    ///   `o = 0..n` in index order, and is then scaled by `a * (1 - a)`;
    /// * layers are processed from last to first in one fused pass, and
    ///   each weight row is read into the lower layer's delta *before* it
    ///   is updated, so every delta sees the pre-step weights;
    /// * each weight and bias update is the elementwise
    ///   `v = v * momentum - learning_rate * g; w += v` with
    ///   `g = δ[o] * input[i]` (or `δ[o]` for a bias).
    ///
    /// All activation and delta buffers are sized before the first epoch,
    /// so the loop allocates nothing per step.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or `hidden == 0`.
    pub fn train(set: &TrainingSet, config: TrainConfig) -> Self {
        assert!(!set.is_empty(), "cannot train on an empty set");
        assert!(config.hidden > 0, "hidden width must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = vec![
            Layer::new(BI_DIM, config.hidden, &mut rng),
            Layer::new(config.hidden, config.hidden, &mut rng),
            Layer::new(config.hidden, M_DIM, &mut rng),
        ];
        let data: Vec<([f64; BI_DIM], [f64; M_DIM])> = set
            .samples()
            .iter()
            .map(|s| (features(&s.b, &s.i), s.optimal.as_array()))
            .collect();
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut acts: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.outputs]).collect();
        let mut deltas: Vec<Vec<f64>> = acts.clone();
        let last = layers.len() - 1;
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &idx in &order {
                let (x, y) = &data[idx];
                // Forward.
                for (l, layer) in layers.iter().enumerate() {
                    let (head, tail) = acts.split_at_mut(l);
                    let src: &[f64] = if l == 0 { x } else { &head[l - 1] };
                    layer.forward_into(src, &mut tail[0]);
                }
                // Output deltas (MSE with sigmoid derivative).
                for ((d, &a), &t) in deltas[last].iter_mut().zip(&acts[last]).zip(y) {
                    *d = (a - t) * a * (1.0 - a);
                }
                // Fused backward pass and gradient step, last layer first.
                for l in (0..=last).rev() {
                    let (below, from_l) = deltas.split_at_mut(l);
                    let input: &[f64] = if l == 0 { x } else { &acts[l - 1] };
                    let back = below.last_mut().map(Vec::as_mut_slice);
                    layers[l].backward_update(
                        input,
                        &from_l[0],
                        back,
                        config.momentum,
                        config.learning_rate,
                    );
                    if l > 0 {
                        for (c, &a) in deltas[l - 1].iter_mut().zip(&acts[l - 1]) {
                            *c = *c * a * (1.0 - a);
                        }
                    }
                }
            }
        }
        NeuralPredictor {
            name: format!("Deep.{}", config.hidden),
            layers,
        }
    }

    /// Mean squared error over a set (diagnostics / convergence tests).
    pub fn mse(&self, set: &TrainingSet) -> f64 {
        let mut total = 0.0;
        let mut n = 0;
        let mut scratch = InferenceScratch::new();
        let mut out = [0.0; M_DIM];
        for s in set.samples() {
            self.forward_into(&features(&s.b, &s.i), &mut scratch, &mut out);
            for (o, t) in out.iter().zip(s.optimal.as_array().iter()) {
                total += (o - t) * (o - t);
                n += 1;
            }
        }
        total / n.max(1) as f64
    }

    /// The widest activation any layer produces (scratch sizing).
    fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.outputs.max(l.inputs))
            .max()
            .unwrap_or(0)
    }

    /// Single-sample forward pass into a caller-provided output buffer,
    /// using `scratch` for intermediate activations. Allocation-free once
    /// the scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the output layer's width.
    pub fn forward_into(&self, x: &[f64; BI_DIM], scratch: &mut InferenceScratch, out: &mut [f64]) {
        self.forward_batch_into(x.as_slice(), 1, scratch, out);
    }

    /// Batched forward pass over a flat row-major `n × BI_DIM` input arena
    /// into a flat row-major `n × M_DIM` output buffer — the allocation-free
    /// core every prediction path funnels through.
    ///
    /// Each layer is one cache-blocked matrix-matrix product
    /// ([`matmul_bias_blocked`]): weight-row blocks stay L1-resident while
    /// sweeping the batch, intermediate activations live in the flat
    /// ping-pong arena of `scratch`. Every `(sample, neuron)` element is
    /// reduced by the same lane-ordered kernel as single-sample inference,
    /// so batched outputs are **bit-identical** to per-sample outputs, and
    /// both are bit-identical to [`NeuralPredictor::forward_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n × BI_DIM` or `out.len() != n × M_DIM`.
    pub fn forward_batch_into(
        &self,
        xs: &[f64],
        n: usize,
        scratch: &mut InferenceScratch,
        out: &mut [f64],
    ) {
        assert_eq!(xs.len(), n * BI_DIM, "input arena shape");
        let last = self.layers.len() - 1;
        assert_eq!(out.len(), n * self.layers[last].outputs, "output shape");
        let width = self.max_width();
        scratch.ping.resize(n * width, 0.0);
        scratch.pong.resize(n * width, 0.0);
        // `ping` holds the current layer's input (except layer 0, which
        // reads `xs` directly); each layer writes `pong` (or `out`) and the
        // buffers swap.
        let mut first = true;
        for (l, layer) in self.layers.iter().enumerate() {
            let input: &[f64] = if first { xs } else { &scratch.ping };
            let target: &mut [f64] = if l == last {
                out
            } else {
                &mut scratch.pong[..n * layer.outputs]
            };
            matmul_bias_blocked(
                &layer.weights,
                &layer.biases,
                layer.inputs,
                &input[..n * layer.inputs],
                n,
                target,
            );
            for v in target.iter_mut() {
                *v = sigmoid(*v);
            }
            std::mem::swap(&mut scratch.ping, &mut scratch.pong);
            first = false;
        }
    }

    /// The deliberately naive scalar forward pass: plain indexed loops over
    /// freshly allocated activations, mirroring the lane kernels' arithmetic
    /// order via [`dot_lanes_reference`]. This is the bit-equivalence oracle
    /// for the optimized paths — kept slow and obvious on purpose.
    pub fn forward_reference(&self, x: &[f64; BI_DIM]) -> Vec<f64> {
        let mut cur: Vec<f64> = x.to_vec();
        for layer in &self.layers {
            let mut next = vec![0.0; layer.outputs];
            for (o, slot) in next.iter_mut().enumerate() {
                let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                *slot = sigmoid(dot_lanes_reference(row, &cur) + layer.biases[o]);
            }
            cur = next;
        }
        cur
    }

    /// [`Predictor::predict`] through the scalar reference path (tests).
    pub fn predict_reference(&self, b: &BVector, i: &IVector) -> MConfig {
        let out = self.forward_reference(&features(b, i));
        let mut arr = [0.0; M_DIM];
        arr.copy_from_slice(&out);
        MConfig::from_array(arr)
    }

    /// Approximate multiply count per inference (overhead analysis).
    pub fn flops_per_inference(&self) -> usize {
        self.layers.iter().map(|l| l.inputs * l.outputs).sum()
    }

    /// The trained layers (persistence support).
    pub(crate) fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Rebuilds a predictor from persisted layers.
    pub(crate) fn from_layers(name: String, layers: Vec<Layer>) -> Self {
        NeuralPredictor { name, layers }
    }
}

impl Predictor for NeuralPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, b: &BVector, i: &IVector) -> MConfig {
        // Allocation-free in steady state: features on the stack, the
        // activation arena reused from thread-local scratch.
        let mut arr = [0.0; M_DIM];
        TLS_SCRATCH.with(|scratch| {
            self.forward_into(&features(b, i), &mut scratch.borrow_mut(), &mut arr);
        });
        MConfig::from_array(arr)
    }

    fn inference_flops(&self) -> usize {
        self.flops_per_inference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::TrainingSample;
    use heteromap_graph::GraphStats;
    use heteromap_model::workload::IterationModel;
    use heteromap_model::{Accelerator, Workload};

    /// A tiny synthetic task: parallel workloads -> GPU, shared-data -> MC.
    fn toy_set() -> TrainingSet {
        let mut set = TrainingSet::new();
        for k in 0..40 {
            let parallel = k % 2 == 0;
            let b = if parallel {
                Workload::SsspBf.b_vector()
            } else {
                Workload::SsspDelta.b_vector()
            };
            let stats = GraphStats::from_known(1000 + k, 8000, 50, 10);
            let i = IVector::from_normalized([0.1 * (k % 10) as f64, 0.5, 0.2, 0.1], stats);
            let optimal = if parallel {
                MConfig::gpu_default()
            } else {
                MConfig::multicore_default()
            };
            set.push(TrainingSample {
                b,
                i,
                stats,
                iteration_model: IterationModel::Fixed(10),
                work_per_edge: 1.0,
                optimal,
                optimal_cost: 1.0,
            });
        }
        set
    }

    #[test]
    fn learns_accelerator_separation() {
        let set = toy_set();
        let nn = NeuralPredictor::train(
            &set,
            TrainConfig {
                hidden: 16,
                epochs: 200,
                ..TrainConfig::default()
            },
        );
        let i = set.samples()[0].i;
        let gpu_pred = nn.predict(&Workload::SsspBf.b_vector(), &i);
        let mc_pred = nn.predict(&Workload::SsspDelta.b_vector(), &i);
        assert_eq!(gpu_pred.accelerator, Accelerator::Gpu);
        assert_eq!(mc_pred.accelerator, Accelerator::Multicore);
    }

    #[test]
    fn training_reduces_mse() {
        let set = toy_set();
        let short = NeuralPredictor::train(
            &set,
            TrainConfig {
                hidden: 16,
                epochs: 1,
                seed: 1,
                ..TrainConfig::default()
            },
        );
        let long = NeuralPredictor::train(
            &set,
            TrainConfig {
                hidden: 16,
                epochs: 150,
                seed: 1,
                ..TrainConfig::default()
            },
        );
        assert!(
            long.mse(&set) < short.mse(&set),
            "long {} vs short {}",
            long.mse(&set),
            short.mse(&set)
        );
    }

    #[test]
    fn name_reflects_width() {
        let set = toy_set();
        let nn = NeuralPredictor::train(
            &set,
            TrainConfig {
                hidden: 32,
                epochs: 1,
                ..TrainConfig::default()
            },
        );
        assert_eq!(nn.name(), "Deep.32");
    }

    #[test]
    fn wider_network_has_more_flops() {
        let set = toy_set();
        let cfg = |h| TrainConfig {
            hidden: h,
            epochs: 1,
            ..TrainConfig::default()
        };
        let small = NeuralPredictor::train(&set, cfg(16));
        let big = NeuralPredictor::train(&set, cfg(128));
        assert!(big.flops_per_inference() > small.flops_per_inference());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_set_panics() {
        let _ = NeuralPredictor::train(&TrainingSet::new(), TrainConfig::default());
    }

    #[test]
    fn inference_flops_matches_flops_per_inference() {
        let set = toy_set();
        let nn = NeuralPredictor::train(
            &set,
            TrainConfig {
                hidden: 16,
                epochs: 1,
                ..TrainConfig::default()
            },
        );
        assert_eq!(Predictor::inference_flops(&nn), nn.flops_per_inference());
        assert!(nn.flops_per_inference() > 0);
    }

    /// FxHash-style multiply-rotate fold of every layer's `weights`,
    /// `biases`, `w_vel` and `b_vel` bit patterns (lengths folded in too),
    /// spelled out so the digest does not depend on std's unstable hasher.
    fn training_digest(nn: &NeuralPredictor) -> u64 {
        fn fold(h: u64, x: u64) -> u64 {
            (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
        }
        let mut h = 0u64;
        for layer in nn.layers() {
            for buf in [&layer.weights, &layer.biases, &layer.w_vel, &layer.b_vel] {
                h = fold(h, buf.len() as u64);
                for v in buf.iter() {
                    h = fold(h, v.to_bits());
                }
            }
        }
        h
    }

    /// Trains on the serving benchmark's fixed database and returns the
    /// digest of the trained state.
    fn golden_digest(hidden: usize, epochs: usize) -> u64 {
        let set = crate::Trainer::new(heteromap_accel::system::MultiAcceleratorSystem::primary())
            .generate_database(64, 0x4D0D_E128);
        let nn = NeuralPredictor::train(
            &set,
            TrainConfig {
                hidden,
                epochs,
                seed: 0x4D0D_E128,
                ..TrainConfig::default()
            },
        );
        training_digest(&nn)
    }

    /// The digests pin the trainer's arithmetic-order contract (documented
    /// on [`NeuralPredictor::train`]): reordering any sum or update changes
    /// a bit of the trained state.
    #[test]
    fn golden_training_digest_deep16_full_schedule() {
        let digest = golden_digest(16, 250);
        assert_eq!(
            digest, 0xf6b1_87a5_4a65_9b68,
            "Deep.16 digest {digest:#018x}"
        );
    }

    /// Deep.128 at a short schedule keeps debug-mode test time low while
    /// still exercising the 128×128 layer's fused pass.
    #[test]
    fn golden_training_digest_deep128_short_schedule() {
        let digest = golden_digest(128, 4);
        assert_eq!(
            digest, 0x901c_02e0_66d3_e24c,
            "Deep.128 digest {digest:#018x}"
        );
    }

    #[test]
    fn outputs_are_in_unit_range() {
        let set = toy_set();
        let nn = NeuralPredictor::train(
            &set,
            TrainConfig {
                hidden: 16,
                epochs: 5,
                ..TrainConfig::default()
            },
        );
        let s = &set.samples()[0];
        for v in nn.predict(&s.b, &s.i).as_array() {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
