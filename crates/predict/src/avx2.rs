//! AVX2 copies of the neural predictor's two inner loops:
//! [`matvec_bias`] (every forward pass, in inference and training) and
//! [`backward_update`] (every training step).
//!
//! Both perform exactly the scalar code's floating-point operations in the
//! same order, four `f64` lanes per instruction, so every output and every
//! trained bit is unchanged:
//!
//! * a matvec row keeps its [`LANES`] accumulators as two 4-wide vectors
//!   (lanes 0–3 and 4–7), combines them in the fixed tree
//!   `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`, then adds the tail elements
//!   one at a time and finally the bias;
//! * the backward pass works on columns, four at a time, and within a
//!   column visits the rows in ascending order, so `back[c]` sums
//!   `w[o][c]·δ[o]` in the same row order as the scalar loop.
//!
//! Four rows form a block and share each load of `x` (or of `input` and
//! `back`). Every multiply and add is a separate instruction: a fused
//! multiply-add rounds once where the contract rounds twice, so these
//! kernels never use FMA and never enable the `fma` target feature.
//! Callers select them at run time with [`available`] and fall back to the
//! scalar code on CPUs without AVX2.

use crate::linalg::{dot_lanes, LANES};
use crate::nn::Layer;
use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_hadd_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd,
    _mm256_set1_pd, _mm256_set_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
};

/// Rows per block.
const ROWS: usize = 4;

/// Whether this CPU can run the kernels (std caches the CPUID probe).
#[inline]
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// `out = W · x + bias` in [`crate::linalg::matvec_bias`]'s lane order.
/// Rows past the last full block of four go through the scalar
/// [`dot_lanes`].
///
/// # Safety
///
/// The CPU must support AVX2 ([`available`]), and the shapes must be the
/// ones [`crate::linalg::matvec_bias`] asserts: `weights.len() == inputs *
/// biases.len()`, `x.len() == inputs` and `out.len() == biases.len()`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn matvec_bias(
    weights: &[f64],
    biases: &[f64],
    inputs: usize,
    x: &[f64],
    out: &mut [f64],
) {
    let outputs = biases.len();
    let full = inputs - inputs % LANES;
    let (w, xp) = (weights.as_ptr(), x.as_ptr());
    for o in (0..outputs - outputs % ROWS).step_by(ROWS) {
        // SAFETY: rows `o..o + ROWS` lie inside the `outputs × inputs`
        // matrix, every column read is below `inputs`, and `o + ROWS <=
        // outputs` bounds the bias load and the output store.
        unsafe {
            let row = w.add(o * inputs);
            let mut lo = [_mm256_setzero_pd(); ROWS];
            let mut hi = [_mm256_setzero_pd(); ROWS];
            for k in (0..full).step_by(LANES) {
                let (xl, xh) = (_mm256_loadu_pd(xp.add(k)), _mm256_loadu_pd(xp.add(k + 4)));
                for r in 0..ROWS {
                    let p = row.add(r * inputs + k);
                    lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(_mm256_loadu_pd(p), xl));
                    hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(_mm256_loadu_pd(p.add(4)), xh));
                }
            }
            let mut sum = _mm256_add_pd(pair_sums(lo), pair_sums(hi));
            for k in full..inputs {
                let col = _mm256_set_pd(
                    *row.add(3 * inputs + k),
                    *row.add(2 * inputs + k),
                    *row.add(inputs + k),
                    *row.add(k),
                );
                sum = _mm256_add_pd(sum, _mm256_mul_pd(col, _mm256_set1_pd(*xp.add(k))));
            }
            let bias = _mm256_loadu_pd(biases.as_ptr().add(o));
            _mm256_storeu_pd(out.as_mut_ptr().add(o), _mm256_add_pd(sum, bias));
        }
    }
    for o in outputs - outputs % ROWS..outputs {
        out[o] = dot_lanes(&weights[o * inputs..(o + 1) * inputs], x) + biases[o];
    }
}

/// For four rows' 4-lane accumulators `a[r] = [q0, q1, q2, q3]`, returns
/// `[(q0+q1)+(q2+q3)]` per row: one half of the lane combine tree.
#[target_feature(enable = "avx2")]
fn pair_sums(a: [__m256d; ROWS]) -> __m256d {
    // [r0 q0+q1, r1 q0+q1, r0 q2+q3, r1 q2+q3], and likewise rows 2 and 3.
    let h01 = _mm256_hadd_pd(a[0], a[1]);
    let h23 = _mm256_hadd_pd(a[2], a[3]);
    let q01 = _mm256_permute2f128_pd::<0x20>(h01, h23);
    let q23 = _mm256_permute2f128_pd::<0x31>(h01, h23);
    _mm256_add_pd(q01, q23)
}

/// [`Layer::backward_update`] in the scalar code's order: `back` (when
/// given) ends as `Wᵀ · delta` under the pre-step weights, then every
/// weight and bias takes its momentum step `v = v·m − lr·g; w += v`.
///
/// # Safety
///
/// The CPU must support AVX2 ([`available`]), and the shapes must be the
/// ones [`Layer::backward_update`] asserts: the weight and velocity
/// matrices hold `outputs × inputs` values, the bias vectors and `delta`
/// hold `outputs`, and `input` and `back` hold `inputs`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn backward_update(
    layer: &mut Layer,
    input: &[f64],
    delta: &[f64],
    mut back: Option<&mut [f64]>,
    momentum: f64,
    learning_rate: f64,
) {
    if let Some(back) = back.as_deref_mut() {
        back.fill(0.0);
    }
    let (m, lr) = (momentum, learning_rate);
    let blocks = layer.outputs - layer.outputs % ROWS;
    for o in (0..blocks).step_by(ROWS) {
        // SAFETY: forwarded from this function's contract; `o + ROWS <= outputs`.
        unsafe { backward_rows::<ROWS>(layer, o, input, delta, back.as_deref_mut(), m, lr) };
    }
    for o in blocks..layer.outputs {
        // SAFETY: as above; `o + 1 <= outputs`.
        unsafe { backward_rows::<1>(layer, o, input, delta, back.as_deref_mut(), m, lr) };
    }
    let biases = layer.biases.iter_mut().zip(&mut layer.b_vel);
    for ((b, bv), &d) in biases.zip(delta) {
        let nv = *bv * m - lr * d;
        *bv = nv;
        *b += nv;
    }
}

/// Rows `o..o + R` of [`backward_update`]: four columns at a time, then
/// the column tail one element at a time.
///
/// # Safety
///
/// As [`backward_update`], with `o + R <= outputs`.
#[target_feature(enable = "avx2")]
unsafe fn backward_rows<const R: usize>(
    layer: &mut Layer,
    o: usize,
    input: &[f64],
    delta: &[f64],
    back: Option<&mut [f64]>,
    momentum: f64,
    learning_rate: f64,
) {
    let n = layer.inputs;
    let full = n - n % 4;
    let d: [f64; R] = std::array::from_fn(|r| delta[o + r]);
    let dv: [__m256d; R] = std::array::from_fn(|r| _mm256_set1_pd(d[r]));
    let (m, lr) = (_mm256_set1_pd(momentum), _mm256_set1_pd(learning_rate));
    let back = back.map(<[f64]>::as_mut_ptr);
    let xp = input.as_ptr();
    // SAFETY: every access below is at row `o + r < outputs` and column
    // `c < inputs` of the `outputs × inputs` matrices, or at column
    // `c < inputs` of `input` and `back`.
    unsafe {
        let w = layer.weights.as_mut_ptr().add(o * n);
        let v = layer.w_vel.as_mut_ptr().add(o * n);
        for c in (0..full).step_by(4) {
            let x = _mm256_loadu_pd(xp.add(c));
            let mut acc = back.map(|p| _mm256_loadu_pd(p.add(c)));
            for (r, &d) in dv.iter().enumerate() {
                let (wp, vp) = (w.add(r * n + c), v.add(r * n + c));
                let wr = _mm256_loadu_pd(wp);
                if let Some(acc) = acc.as_mut() {
                    *acc = _mm256_add_pd(*acc, _mm256_mul_pd(wr, d));
                }
                let g = _mm256_mul_pd(d, x);
                let nv = _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(vp), m), _mm256_mul_pd(lr, g));
                _mm256_storeu_pd(vp, nv);
                _mm256_storeu_pd(wp, _mm256_add_pd(wr, nv));
            }
            if let (Some(p), Some(acc)) = (back, acc) {
                _mm256_storeu_pd(p.add(c), acc);
            }
        }
        for c in full..n {
            for (r, &d) in d.iter().enumerate() {
                let (wp, vp) = (w.add(r * n + c), v.add(r * n + c));
                if let Some(p) = back {
                    *p.add(c) += *wp * d;
                }
                let g = d * *xp.add(c);
                let nv = *vp * momentum - learning_rate * g;
                *vp = nv;
                *wp += nv;
            }
        }
    }
}
