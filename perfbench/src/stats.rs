//! Summary statistics: medians, quartiles, geometric means and the
//! percentile sample rule.

/// A percentile is only reported when at least this many samples lie
/// beyond it, so a tail figure never rests on one or two outliers.
pub const TAIL_SAMPLES: usize = 10;

/// The smallest sample count for which percentile `p` (in `(0, 1)`) has at
/// least [`TAIL_SAMPLES`] samples beyond it: `ceil(TAIL_SAMPLES / (1 - p))`.
pub fn min_samples_for(p: f64) -> usize {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    // Round before ceil so 10 / 0.01 lands on 1000, not 1001.
    ((TAIL_SAMPLES as f64 / (1.0 - p) * 1e6).round() / 1e6).ceil() as usize
}

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than [`min_samples_for`] samples back it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.len() < min_samples_for(p) {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (the mean of the middle pair for even counts);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Geometric mean of the positive finite values; `NaN` when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        if v.is_finite() && v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for(0.99), 1_000);
        assert_eq!(min_samples_for(0.5), 20);
        let sorted: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&sorted, 0.99),
            None,
            "999 samples leave 9.99 beyond p99"
        );
        let sorted: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let p99 = percentile(&sorted, 0.99).expect("1000 samples back p99");
        assert_eq!(p99, 990.0);
        assert_eq!(sorted.iter().filter(|&&x| x > p99).count(), TAIL_SAMPLES);
        assert_eq!(percentile(&sorted, 0.5), Some(500.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert!((geomean([1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        // Non-completing (infinite) and empty values are skipped.
        assert!((geomean([2.0, f64::INFINITY, 8.0, 0.0]) - 4.0).abs() < 1e-12);
        assert!(geomean([]).is_nan());
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
