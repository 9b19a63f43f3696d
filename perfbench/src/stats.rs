//! Order statistics over measured samples.

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// closest ranks. `NaN` for an empty slice; an infinite sample (a failed
/// launch counted as a miss) sorts last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi].is_infinite() {
        return v[if pos - lo as f64 > 0.0 { hi } else { lo }];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Largest value (`NaN` when empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Geometric mean: each factor weighs the same whatever its scale, so one
/// method or application with a large absolute time cannot dominate.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median, over consecutive windows of about `window` samples, of
/// `f(window)`. A burst of host noise then spoils the windows it falls in,
/// not the whole figure.
pub fn windowed_median(values: &[f64], window: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let k = (values.len() / window).max(1);
    let per = values.len().div_ceil(k).max(1);
    let each: Vec<f64> = values.chunks(per).map(f).collect();
    median(&each)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn misses_sort_last() {
        let v = [1.0, f64::INFINITY, 2.0, 3.0];
        assert_eq!(quantile(&v, 1.0), f64::INFINITY);
        assert!(quantile(&v, 0.9).is_infinite());
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn windowed_median_discards_a_noisy_window() {
        let mut v = vec![1.0; 30];
        v[10..20].fill(100.0);
        assert_eq!(windowed_median(&v, 10, |w| quantile(w, 0.9)), 1.0);
        assert_eq!(windowed_median(&v[..5], 10, median), 1.0);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
