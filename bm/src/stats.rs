//! Order statistics for the reported metrics and for the A/A check.

/// `v` sorted ascending (NaN-safe total order).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Quantile `q ∈ [0, 1]` of an ascending slice, linear interpolation
/// between the two nearest ranks. `NaN` for an empty slice.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), 0.5)
}

/// The reporting rule of the metrics guide: a percentile is quoted
/// with confidence only when at least ten of the `n` samples lie
/// beyond it.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9 == 0.09999999999999998`.
    (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) gives them — the spread the driver computes. Needs at
/// least two values.
pub fn quartiles_exclusive(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the "spread" of
/// the benchmark contract.
pub fn iqr_spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(v);
    (q3 - q1) / median(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p90() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.9), 91.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 101.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(!percentile_supported(99, 0.9));
        assert!(percentile_supported(100, 0.9));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(1000, 0.99));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        assert_eq!(iqr_spread(&v), 1.0);
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(
            quartiles_exclusive(&[9.0, 2.0, 4.0, 11.0, 4.0, 5.0, 7.0]),
            (4.0, 9.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), (0.75, 2.25));
    }
}
