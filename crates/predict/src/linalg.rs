//! Minimal dense linear algebra: ridge regression via normal equations
//! (the paper fits its regression in Matlab and ports it to C++; we solve
//! in-crate instead — DESIGN.md §2) plus the lane-unrolled dense kernels
//! behind the neural predictor's forward pass (DESIGN.md §14).
//!
//! # Lane-order arithmetic
//!
//! [`dot_lanes`] accumulates a dot product into [`LANES`] independent
//! partial sums (one per unrolled lane) and combines them in a **fixed
//! reduction tree**. The combine order is part of the contract:
//! [`dot_lanes_reference`] is a deliberately naive scalar transcription of
//! the *same* arithmetic order, kept as the bit-equivalence oracle for the
//! optimized kernels. Inference and training share [`matvec_bias`], and
//! both must agree with the reference bit-for-bit.
//!
//! # Dispatch
//!
//! On the default x86-64 target the compiler emits SSE2 only, and the
//! scalar loops here stay two-wide at best. So [`matvec_bias`] (and the
//! trainer's backward pass) check `is_x86_feature_detected!("avx2")` and,
//! when it holds, run a hand-written AVX2 copy in the crate-private `avx2`
//! module: the same lanes as two 4-wide vectors, four rows sharing each
//! load of `x`, the same combine tree and tail order. The kernels use
//! separate multiplies and adds and never FMA, which would round once
//! where the contract rounds twice. Other CPUs and targets run the scalar
//! code; the tests call both paths against the reference.

/// Unroll width of the lane kernels: eight f64 accumulators, two 4-wide
/// vectors in the AVX2 kernel and a plain scalar loop elsewhere.
pub const LANES: usize = 8;

/// Lane-unrolled dot product of `a` and `b` over the shorter length.
///
/// Accumulation order: element `k` of chunk `c` adds into lane accumulator
/// `k`; lanes combine as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`; the tail
/// (length `< LANES`) is then added sequentially. Bit-identical to
/// [`dot_lanes_reference`] by construction — asserted across the 81-combo
/// sweep in the workspace serving tests.
#[inline]
pub fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for k in 0..LANES {
            acc[k] += ca[k] * cb[k];
        }
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        sum += x * y;
    }
    sum
}

/// Naive scalar mirror of [`dot_lanes`]: the same arithmetic in the same
/// order, written with plain indexed loops and no unrolling hints. This is
/// the reference the optimized kernels are tested against — do not "fix" its
/// accumulation order.
pub fn dot_lanes_reference(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let mut acc = [0.0f64; LANES];
    let full = n - n % LANES;
    let mut i = 0;
    while i < full {
        acc[i % LANES] += a[i] * b[i];
        i += 1;
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    while i < n {
        sum += a[i] * b[i];
        i += 1;
    }
    sum
}

/// Dense `out = W · x + bias` for a row-major `outputs × inputs` weight
/// matrix, each row reduced in [`dot_lanes`]'s order: by the AVX2 kernel
/// where the CPU has it, else by [`dot_lanes`] itself (module docs).
///
/// # Panics
///
/// Panics if the slice shapes disagree.
pub fn matvec_bias(weights: &[f64], biases: &[f64], inputs: usize, x: &[f64], out: &mut [f64]) {
    let outputs = biases.len();
    assert_eq!(weights.len(), inputs * outputs, "weight matrix shape");
    assert_eq!(x.len(), inputs, "input vector shape");
    assert_eq!(out.len(), outputs, "output vector shape");
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: the CPU supports AVX2, and the shapes are asserted above.
        unsafe { crate::avx2::matvec_bias(weights, biases, inputs, x, out) };
        return;
    }
    matvec_bias_scalar(weights, biases, inputs, x, out);
}

/// The portable [`matvec_bias`]: each row through [`dot_lanes`]. Shapes
/// as [`matvec_bias`] asserts.
fn matvec_bias_scalar(weights: &[f64], biases: &[f64], inputs: usize, x: &[f64], out: &mut [f64]) {
    for (o, (row, slot)) in weights.chunks_exact(inputs).zip(out.iter_mut()).enumerate() {
        *slot = dot_lanes(row, x) + biases[o];
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `Aᵀ · A` (Gram matrix), the left side of the normal equations.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut sum = 0.0;
                for r in 0..self.rows {
                    sum += self[(r, i)] * self[(r, j)];
                }
                out[(i, j)] = sum;
                out[(j, i)] = sum;
            }
        }
        out
    }

    /// `Aᵀ · y` for a right-hand-side vector.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub fn transpose_mul_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "rhs length mismatch");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c] += self[(r, c)] * y[r];
            }
        }
        out
    }

    /// Solves `self · x = b` in place via Gaussian elimination with partial
    /// pivoting. Returns `None` if the matrix is (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[r * n + col].abs() > a[pivot * n + col].abs() {
                    pivot = r;
                }
            }
            if a[pivot * n + col].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                x.swap(col, pivot);
            }
            let diag = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for c in (col + 1)..n {
                sum -= a[col * n + c] * x[c];
            }
            x[col] = sum / a[col * n + col];
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Solves the ridge-regularized least squares `min ‖A·w − y‖² + λ‖w‖²` via
/// the normal equations `(AᵀA + λI) w = Aᵀy`.
///
/// Returns `None` only if the regularized system is singular (λ = 0 with
/// rank-deficient `A`).
///
/// # Panics
///
/// Panics if `y.len() != a.rows()` or `lambda < 0`.
pub fn ridge_solve(a: &Matrix, y: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    let mut gram = a.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    gram.solve(&a.transpose_mul_vec(y))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn solve_identity_returns_rhs() {
        let i = Matrix::identity(3);
        assert_eq!(i.solve(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_2x2() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[7.0, 9.0]).unwrap();
        assert_eq!(x, vec![9.0, 7.0]);
    }

    #[test]
    fn ridge_recovers_exact_line() {
        // y = 2x + 1 sampled exactly; λ = 0 recovers coefficients.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let mut a = Matrix::zeros(4, 2);
        let mut y = Vec::new();
        for (r, &x) in xs.iter().enumerate() {
            a[(r, 0)] = 1.0;
            a[(r, 1)] = x;
            y.push(2.0 * x + 1.0);
        }
        let w = ridge_solve(&a, &y, 0.0).unwrap();
        assert!((w[0] - 1.0).abs() < 1e-9);
        assert!((w[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let mut a = Matrix::zeros(4, 2);
        let mut y = Vec::new();
        for (r, &x) in xs.iter().enumerate() {
            a[(r, 0)] = 1.0;
            a[(r, 1)] = x;
            y.push(2.0 * x + 1.0);
        }
        let w0 = ridge_solve(&a, &y, 0.0).unwrap();
        let w9 = ridge_solve(&a, &y, 100.0).unwrap();
        assert!(w9[1].abs() < w0[1].abs());
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gram();
        assert_eq!(g[(0, 1)], g[(1, 0)]);
        assert!(g[(0, 0)] >= 0.0 && g[(1, 1)] >= 0.0);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn bad_dimensions_panic() {
        let _ = Matrix::from_rows(2, 2, vec![1.0]);
    }

    /// Deterministic pseudo-random test vectors (no RNG dependency here).
    fn wavy(len: usize, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64) * 0.7 + phase).sin() * 3.0 + 0.1)
            .collect()
    }

    #[test]
    fn dot_lanes_matches_reference_bitwise_across_lengths() {
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 64, 65, 100, 128, 129] {
            let a = wavy(len, 0.3);
            let b = wavy(len, 1.9);
            assert_eq!(
                dot_lanes(&a, &b).to_bits(),
                dot_lanes_reference(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn dot_lanes_is_a_real_dot_product() {
        let a = wavy(37, 0.0);
        let b = wavy(37, 2.2);
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_lanes(&a, &b) - naive).abs() < 1e-9 * naive.abs().max(1.0));
    }

    /// Test values that stress bit identity: `±0`, subnormals and large
    /// magnitudes mixed into [`wavy`]'s sine data. No product or row sum
    /// of two such vectors overflows, so every result is a finite number.
    pub(crate) fn edgy(len: usize, phase: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match (i * 7 + phase) % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => 4.9e-324 * (i + 1) as f64,
                3 => -2.2e-310,
                4 => 1.0e150,
                5 => -3.0e149,
                6 => 1.0e-160,
                _ => ((i as f64) * 0.7 + phase as f64).sin() * 3.0 + 0.1,
            })
            .collect()
    }

    /// Input widths and output heights covering every lane and row-block
    /// remainder, plus the Deep.128 layer shapes.
    pub(crate) const INPUTS: [usize; 9] = [1, 3, 4, 7, 8, 9, 17, 128, 131];
    pub(crate) const OUTPUTS: [usize; 6] = [1, 3, 4, 5, 20, 128];

    /// The dispatched kernel (AVX2 where the CPU has it) and the scalar
    /// fallback, called directly, both against the reference.
    #[test]
    fn matvec_bias_matches_reference_bitwise_across_shapes_and_special_values() {
        for inputs in INPUTS {
            for outputs in OUTPUTS {
                let weights = edgy(inputs * outputs, 3);
                let biases = edgy(outputs, 5);
                let x = edgy(inputs, 1);
                let mut out = vec![f64::NAN; outputs];
                let mut scalar = vec![f64::NAN; outputs];
                matvec_bias(&weights, &biases, inputs, &x, &mut out);
                matvec_bias_scalar(&weights, &biases, inputs, &x, &mut scalar);
                for (o, (got, fallback)) in out.iter().zip(&scalar).enumerate() {
                    let row = &weights[o * inputs..(o + 1) * inputs];
                    let expect = dot_lanes_reference(row, &x) + biases[o];
                    assert!(expect.is_finite(), "{inputs}x{outputs} row {o}");
                    let shape = format!("{inputs} inputs, {outputs} outputs, row {o}");
                    assert_eq!(got.to_bits(), expect.to_bits(), "{shape}");
                    assert_eq!(fallback.to_bits(), expect.to_bits(), "scalar {shape}");
                }
            }
        }
    }
}
