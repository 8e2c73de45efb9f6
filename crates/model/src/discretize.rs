//! Discretization grids.
//!
//! The paper expresses every B and I variable "within a range of 0 and 1,
//! with increments of 0.1" and notes "finer increments may be applied,
//! however we keep the model simple". [`Grid`] captures that choice so the
//! ablation bench can compare 0.1 against finer grids.

/// A uniform quantization grid over `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grid {
    steps: u32,
}

impl Grid {
    /// The paper's default grid: increments of 0.1 (10 steps).
    pub const PAPER: Grid = Grid { steps: 10 };

    /// Creates a grid with `steps` uniform increments (e.g. 10 → 0.1 grid).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn new(steps: u32) -> Self {
        assert!(steps > 0, "grid must have at least one step");
        Grid { steps }
    }

    /// Number of increments.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Grid resolution (`1 / steps`).
    pub fn resolution(&self) -> f64 {
        1.0 / self.steps as f64
    }

    /// Quantizes `x` to the nearest grid level, clamping into `[0, 1]`.
    ///
    /// ```
    /// use heteromap_model::Grid;
    ///
    /// assert_eq!(Grid::PAPER.quantize(0.84), 0.8);
    /// assert_eq!(Grid::PAPER.quantize(0.85), 0.9);
    /// assert_eq!(Grid::PAPER.quantize(-3.0), 0.0);
    /// assert_eq!(Grid::PAPER.quantize(7.0), 1.0);
    /// ```
    pub fn quantize(&self, x: f64) -> f64 {
        let clamped = x.clamp(0.0, 1.0);
        (clamped * self.steps as f64).round() / self.steps as f64
    }

    /// Quantizes every element of `values` in place.
    pub fn quantize_slice(&self, values: &mut [f64]) {
        for v in values.iter_mut() {
            *v = self.quantize(*v);
        }
    }

    /// Iterates all levels of the grid: `0, 1/steps, …, 1`.
    pub fn levels(&self) -> impl Iterator<Item = f64> + '_ {
        (0..=self.steps).map(move |i| i as f64 / self.steps as f64)
    }

    /// Index of the level closest to `x` (0..=steps).
    pub fn level_index(&self, x: f64) -> u32 {
        (x.clamp(0.0, 1.0) * self.steps as f64).round() as u32
    }
}

impl Default for Grid {
    fn default() -> Self {
        Grid::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_eleven_levels() {
        let levels: Vec<f64> = Grid::PAPER.levels().collect();
        assert_eq!(levels.len(), 11);
        assert_eq!(levels[0], 0.0);
        assert_eq!(levels[10], 1.0);
    }

    #[test]
    fn quantize_is_idempotent() {
        let g = Grid::PAPER;
        for x in [0.0, 0.13, 0.51, 0.99, 1.0] {
            let q = g.quantize(x);
            assert_eq!(g.quantize(q), q);
        }
    }

    #[test]
    fn finer_grid_has_smaller_error() {
        let coarse = Grid::new(10);
        let fine = Grid::new(100);
        let x = 0.123;
        assert!((fine.quantize(x) - x).abs() <= (coarse.quantize(x) - x).abs());
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        assert_eq!(Grid::PAPER.quantize(1.7), 1.0);
        assert_eq!(Grid::PAPER.quantize(-0.2), 0.0);
    }

    #[test]
    fn level_index_round_trips_levels() {
        let g = Grid::new(10);
        for (i, l) in g.levels().enumerate() {
            assert_eq!(g.level_index(l) as usize, i);
        }
    }

    #[test]
    #[should_panic]
    fn zero_steps_panics() {
        let _ = Grid::new(0);
    }

    #[test]
    fn quantize_slice_quantizes_all() {
        let mut v = [0.11, 0.27, 0.93];
        Grid::PAPER.quantize_slice(&mut v);
        assert_eq!(v, [0.1, 0.3, 0.9]);
    }
}
