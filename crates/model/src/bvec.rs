//! Benchmark (`B`) variables — Section III-C of the paper.

use crate::discretize::Grid;
use crate::B_DIM;
use std::fmt;

/// The 13 benchmark variables `B1..B13`, each in `[0, 1]`.
///
/// Semantics (Fig. 5):
///
/// | var | meaning |
/// |---|---|
/// | B1 | % of program in data-parallel **vertex division** phases |
/// | B2 | % in **pareto front** phases (static chunk growth) |
/// | B3 | % in **pareto-division** phases (dynamic chunk growth) |
/// | B4 | % in **push-pop** phases (queues, ordering constraints) |
/// | B5 | % in **reduction** phases |
/// | B6 | % of program data needing **floating point** |
/// | B7 | % of data addressed by **loop indexes** (data-driven) |
/// | B8 | % addressed **indirectly** (double pointers) |
/// | B9 | % **read-only shared** data |
/// | B10 | % **read-write shared** data |
/// | B11 | % **locally accessed** data |
/// | B12 | % of data **contended** via atomics/locks |
/// | B13 | # global **barriers** per iteration (×0.1 each) |
///
/// Invariant: B1–B5 describe mutually-exclusive program phases, so they sum
/// to 1 for a complete benchmark ("values for B1-5 variables for phases add
/// to 1 for all benchmarks").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BVector {
    values: [f64; B_DIM],
}

/// Error returned when constructing an invalid [`BVector`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BVectorError {
    /// A variable was outside `[0, 1]`.
    OutOfRange {
        /// Zero-based variable index (0 = B1).
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The phase variables B1–B5 did not sum to 1 (within tolerance).
    PhasesNotNormalized {
        /// The actual sum of B1–B5.
        sum: f64,
    },
}

impl fmt::Display for BVectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BVectorError::OutOfRange { index, value } => {
                write!(f, "B{} = {value} is outside [0, 1]", index + 1)
            }
            BVectorError::PhasesNotNormalized { sum } => {
                write!(f, "phase variables B1-B5 sum to {sum}, expected 1")
            }
        }
    }
}

impl std::error::Error for BVectorError {}

impl BVector {
    /// Tolerance for the B1–B5 sum check (a 0.1 grid can ring at ±0.05).
    const PHASE_TOL: f64 = 0.051;

    /// Constructs a `BVector` from raw values `[B1, ..., B13]`.
    ///
    /// # Errors
    ///
    /// Returns [`BVectorError::OutOfRange`] for any value outside `[0,1]`,
    /// or [`BVectorError::PhasesNotNormalized`] if B1–B5 do not sum to ~1.
    pub fn new(values: [f64; B_DIM]) -> Result<Self, BVectorError> {
        for (i, &v) in values.iter().enumerate() {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(BVectorError::OutOfRange { index: i, value: v });
            }
        }
        let phase_sum: f64 = values[..5].iter().sum();
        if (phase_sum - 1.0).abs() > Self::PHASE_TOL {
            return Err(BVectorError::PhasesNotNormalized { sum: phase_sum });
        }
        Ok(BVector { values })
    }

    /// Constructs without the phase-sum check — used for synthetic partial
    /// phase mixes during training-data generation, where the generator
    /// normalizes later. Values are still clamped into `[0, 1]`.
    pub fn new_unchecked(mut values: [f64; B_DIM]) -> Self {
        for v in values.iter_mut() {
            *v = v.clamp(0.0, 1.0);
        }
        BVector { values }
    }

    /// The paper's worked SSSP-Bellman-Ford example (Fig. 6): B1=1, B7=0.8,
    /// B9=B10=0.5, B11=0.2, B12=B13=0.2, everything else 0.
    pub fn sssp_bf_example() -> Self {
        BVector::new([
            1.0, 0.0, 0.0, 0.0, 0.0, // phases: pure vertex division
            0.0, // B6 no FP
            0.8, 0.0, // B7 loop-indexed, B8 no indirect
            0.5, 0.5, 0.2, // B9, B10, B11
            0.2, 0.2, // B12, B13
        ])
        .expect("paper example is valid")
    }

    /// Variable `Bn` (1-based, matching the paper's numbering).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=13`.
    pub fn get(&self, n: usize) -> f64 {
        assert!((1..=B_DIM).contains(&n), "B index must be 1..=13");
        self.values[n - 1]
    }

    /// All 13 values as an array `[B1, ..., B13]`.
    pub fn as_array(&self) -> [f64; B_DIM] {
        self.values
    }

    /// Fraction of the program in GPU-friendly data-parallel phases
    /// (B1 + B2 + B3).
    pub fn parallel_phase_fraction(&self) -> f64 {
        self.values[0] + self.values[1] + self.values[2]
    }

    /// Fraction in serial-leaning phases (push-pop B4 + reductions B5).
    pub fn serial_phase_fraction(&self) -> f64 {
        self.values[3] + self.values[4]
    }

    /// Contention pressure: the average of B12 (atomics) and B13 (barriers),
    /// the quantity behind the paper's blocktime equation `M4`.
    pub fn contention(&self) -> f64 {
        (self.values[11] + self.values[12]) / 2.0
    }

    /// Quantizes every variable to `grid` (paper default: 0.1 increments).
    pub fn quantized(&self, grid: Grid) -> BVector {
        let mut v = self.values;
        grid.quantize_slice(&mut v);
        BVector { values: v }
    }
}

impl Default for BVector {
    /// A neutral all-vertex-division profile.
    fn default() -> Self {
        BVector::new_unchecked([
            1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0,
        ])
    }
}

impl fmt::Display for BVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v:.1}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sssp_bf_values_match_fig6() {
        let b = BVector::sssp_bf_example();
        assert_eq!(b.get(1), 1.0);
        assert_eq!(b.get(6), 0.0);
        assert_eq!(b.get(7), 0.8);
        assert_eq!(b.get(8), 0.0);
        assert_eq!(b.get(9), 0.5);
        assert_eq!(b.get(10), 0.5);
        assert_eq!(b.get(11), 0.2);
        assert_eq!(b.get(12), 0.2);
        assert_eq!(b.get(13), 0.2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut v = BVector::sssp_bf_example().as_array();
        v[6] = 1.4;
        assert!(matches!(
            BVector::new(v),
            Err(BVectorError::OutOfRange { index: 6, .. })
        ));
    }

    #[test]
    fn unnormalized_phases_rejected() {
        let v = [
            0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0,
        ];
        assert!(matches!(
            BVector::new(v),
            Err(BVectorError::PhasesNotNormalized { .. })
        ));
    }

    #[test]
    fn phase_fractions_partition() {
        let b = BVector::new([
            0.3, 0.1, 0.1, 0.3, 0.2, 0.0, 0.5, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0,
        ])
        .unwrap();
        assert!((b.parallel_phase_fraction() - 0.5).abs() < 1e-12);
        assert!((b.serial_phase_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contention_is_mean_of_b12_b13() {
        let b = BVector::sssp_bf_example();
        assert!((b.contention() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn quantized_snaps_to_grid() {
        let mut v = BVector::sssp_bf_example().as_array();
        v[8] = 0.47;
        let b = BVector::new_unchecked(v).quantized(Grid::PAPER);
        assert_eq!(b.get(9), 0.5);
    }

    #[test]
    fn new_unchecked_clamps() {
        let b = BVector::new_unchecked([
            2.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        ]);
        assert_eq!(b.get(1), 1.0);
        assert_eq!(b.get(2), 0.0);
    }

    #[test]
    fn display_shows_all_values() {
        let s = BVector::sssp_bf_example().to_string();
        assert!(s.starts_with("B["));
        assert_eq!(s.matches(' ').count(), 12);
    }

    #[test]
    #[should_panic]
    fn get_zero_panics() {
        let _ = BVector::sssp_bf_example().get(0);
    }

    #[test]
    fn nan_is_rejected() {
        let mut v = BVector::sssp_bf_example().as_array();
        v[5] = f64::NAN;
        assert!(BVector::new(v).is_err());
    }
}
