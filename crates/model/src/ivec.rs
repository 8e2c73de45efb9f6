//! Input (`I`) variables — Section III-B of the paper.

use crate::discretize::Grid;
use crate::I_DIM;
use heteromap_graph::datasets::LiteratureMaxima;
use heteromap_graph::GraphStats;
use std::fmt;

/// Smoothing exponent applied to the linear ratio `x / x_max`.
///
/// The paper normalizes each graph characteristic "by comparing ... to the
/// maximum values available in literature" and then applies "a logarithmic
/// normalization ... to further smoothen I values". A power-law smoothing
/// `(x / x_max)^0.45` reproduces the paper's worked examples: USA-Cal gets
/// I1 = I2 = 0.1, I3 = 0 and a large I4; Friendster gets I1 ≈ 0.7–0.8 and
/// I2 ≈ 0.9; Twitter gets I3 = 1. (The paper quotes I4 = 0.8 for USA-Cal
/// where this formula yields 0.6; both sit on the same side of every 0.5
/// decision threshold, which is what the models consume.)
pub const SMOOTHING_EXPONENT: f64 = 0.45;

/// The four input variables `I1..I4`, each in `[0, 1]`, plus the raw
/// statistics they were derived from.
///
/// * `I1` — normalized vertex count (graph size),
/// * `I2` — normalized edge count (edge density of computations),
/// * `I3` — normalized maximum degree,
/// * `I4` — normalized diameter.
///
/// # Example
///
/// ```
/// use heteromap_graph::datasets::{Dataset, LiteratureMaxima};
/// use heteromap_model::{Grid, IVector};
///
/// let i = IVector::from_stats(
///     &Dataset::UsaCal.stats(),
///     &LiteratureMaxima::paper(),
///     Grid::PAPER,
/// );
/// assert_eq!(i.i1(), 0.1); // "I1,2 are set to 0.1 for USA-Cal"
/// assert_eq!(i.i3(), 0.0); // "I3 is set as 0 in this case"
/// assert!(i.i4() > 0.5);   // high-diameter road network
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IVector {
    values: [f64; I_DIM],
    raw: GraphStats,
}

impl IVector {
    /// Derives the `I` variables from measured/published statistics,
    /// normalized against `maxima` and quantized to `grid`.
    pub fn from_stats(stats: &GraphStats, maxima: &LiteratureMaxima, grid: Grid) -> Self {
        let norm = |x: u64, max: u64| -> f64 {
            if max == 0 {
                return 0.0;
            }
            let ratio = (x as f64 / max as f64).clamp(0.0, 1.0);
            grid.quantize(ratio.powf(SMOOTHING_EXPONENT))
        };
        IVector {
            values: [
                norm(stats.vertices, maxima.vertices),
                norm(stats.edges, maxima.edges),
                norm(stats.max_degree, maxima.max_degree),
                norm(stats.diameter, maxima.diameter),
            ],
            raw: *stats,
        }
    }

    /// Builds an `IVector` directly from already-normalized values (used by
    /// the synthetic training generator). Values are clamped into `[0, 1]`.
    pub fn from_normalized(values: [f64; I_DIM], raw: GraphStats) -> Self {
        let mut v = values;
        for x in v.iter_mut() {
            *x = x.clamp(0.0, 1.0);
        }
        IVector { values: v, raw }
    }

    /// Normalized vertex count.
    pub fn i1(&self) -> f64 {
        self.values[0]
    }

    /// Normalized edge count / computation density.
    pub fn i2(&self) -> f64 {
        self.values[1]
    }

    /// Normalized maximum degree.
    pub fn i3(&self) -> f64 {
        self.values[2]
    }

    /// Normalized diameter.
    pub fn i4(&self) -> f64 {
        self.values[3]
    }

    /// All values as `[I1, I2, I3, I4]`.
    pub fn as_array(&self) -> [f64; I_DIM] {
        self.values
    }

    /// The raw statistics this vector was derived from.
    pub fn raw(&self) -> &GraphStats {
        &self.raw
    }

    /// The paper's normalized average-degree proxy used in the `M20`/`M3`
    /// equations: `Avg.Deg = |I3 - (I2 / I1)|`, with the `I2` fallback when
    /// `I1 = 0` (degenerate for tiny dense graphs like the connectome).
    /// Clamped to `[0, 1]`.
    pub fn avg_deg(&self) -> f64 {
        let ratio = if self.values[0] > 0.0 {
            self.values[1] / self.values[0]
        } else {
            self.values[1]
        };
        (self.values[2] - ratio).abs().clamp(0.0, 1.0)
    }

    /// The paper's placement proxy: `Avg.Deg.Dia = |(I4 + Avg.Deg) / 2|`.
    pub fn avg_deg_dia(&self) -> f64 {
        ((self.values[3] + self.avg_deg()) / 2.0).clamp(0.0, 1.0)
    }

    /// A direct density signal in `[0, 1]`: the raw average degree smoothed
    /// against a saturation point of 64 edges/vertex. Used by the decision
    /// tree's "push-pop with a high graph density" rule, where the paper's
    /// `Avg.Deg` formula degenerates (see [`IVector::avg_deg`]).
    pub fn density(&self) -> f64 {
        (self.raw.average_degree() / 64.0).clamp(0.0, 1.0).sqrt()
    }
}

impl fmt::Display for IVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "I[{:.1} {:.1} {:.1} {:.1}]",
            self.values[0], self.values[1], self.values[2], self.values[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::datasets::Dataset;

    fn ivec(d: Dataset) -> IVector {
        IVector::from_stats(&d.stats(), &LiteratureMaxima::paper(), Grid::PAPER)
    }

    #[test]
    fn usa_cal_matches_paper_quotes() {
        let i = ivec(Dataset::UsaCal);
        assert_eq!(i.i1(), 0.1, "paper: I1 = 0.1 for USA-Cal");
        assert_eq!(i.i2(), 0.1, "paper: I2 = 0.1 for USA-Cal");
        assert_eq!(i.i3(), 0.0, "paper: I3 = 0 for USA-Cal");
        assert!(i.i4() >= 0.5, "USA-Cal diameter is high: {}", i.i4());
    }

    #[test]
    fn twitter_has_max_degree_one() {
        let i = ivec(Dataset::Twitter);
        assert_eq!(i.i3(), 1.0, "paper: largest available degree in Twitter");
    }

    #[test]
    fn rgg_has_max_diameter_one() {
        let i = ivec(Dataset::RggN24);
        assert_eq!(i.i4(), 1.0, "paper: 1 for the Rgg graph");
    }

    #[test]
    fn friendster_is_large() {
        let i = ivec(Dataset::Friendster);
        assert!(i.i1() >= 0.7, "paper: 0.8 for Friendster, got {}", i.i1());
        assert!(i.i2() >= 0.8, "edges near the maximum, got {}", i.i2());
    }

    #[test]
    fn kron_is_the_largest() {
        let i = ivec(Dataset::KronLarge);
        assert_eq!(i.i1(), 1.0);
        assert_eq!(i.i2(), 1.0);
    }

    #[test]
    fn usa_cal_avg_deg_matches_worked_example() {
        // Paper's M-selection example: with I1 = I2 = 0.1 and I3 = 0,
        // Avg.Deg = |0 - 0.1/0.1| = 1, driving M3/M20 to their maxima.
        let i = ivec(Dataset::UsaCal);
        assert!((i.avg_deg() - 1.0).abs() < 1e-9, "got {}", i.avg_deg());
    }

    #[test]
    fn connectome_density_is_maximal() {
        let i = ivec(Dataset::MouseRetina);
        assert_eq!(i.density(), 1.0);
        let road = ivec(Dataset::UsaCal);
        assert!(road.density() < 0.3, "roads are sparse: {}", road.density());
    }

    #[test]
    fn values_are_grid_aligned() {
        for d in Dataset::all() {
            let i = ivec(d);
            for v in i.as_array() {
                let snapped = Grid::PAPER.quantize(v);
                assert!((snapped - v).abs() < 1e-12, "{d}: {v} off-grid");
            }
        }
    }

    #[test]
    fn zero_maxima_yield_zero_values() {
        let m = LiteratureMaxima {
            vertices: 0,
            edges: 0,
            max_degree: 0,
            diameter: 0,
        };
        let i = IVector::from_stats(&GraphStats::from_known(5, 5, 5, 5), &m, Grid::PAPER);
        assert_eq!(i.as_array(), [0.0; 4]);
    }

    #[test]
    fn from_normalized_clamps() {
        let i = IVector::from_normalized([1.5, -0.5, 0.5, 0.5], GraphStats::from_known(1, 1, 1, 1));
        assert_eq!(i.i1(), 1.0);
        assert_eq!(i.i2(), 0.0);
    }

    #[test]
    fn avg_deg_dia_is_bounded() {
        for d in Dataset::all() {
            let i = ivec(d);
            let v = i.avg_deg_dia();
            assert!((0.0..=1.0).contains(&v), "{d}: {v}");
        }
    }
}
