//! Small statistical helpers: the normal CDF via a rational erf
//! approximation.

/// The error function, via Abramowitz & Stegun 7.1.26.
///
/// Absolute error below 1.5e-7, ample for the occupancy model's
/// probability sums.
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// The standard-normal–family cumulative distribution function
/// Φ((x − μ) / σ).
///
/// Degenerate distributions (σ = 0) step at μ.
///
/// # Panics
///
/// Panics if `sd` is negative or any argument is NaN.
pub(crate) fn normal_cdf(x: f64, mean: f64, sd: f64) -> f64 {
    assert!(!x.is_nan() && !mean.is_nan() && !sd.is_nan(), "NaN argument");
    assert!(sd >= 0.0, "standard deviation must be non-negative, got {sd}");
    if sd == 0.0 {
        return if x < mean { 0.0 } else { 1.0 };
    }
    0.5 * (1.0 + erf((x - mean) / (sd * std::f64::consts::SQRT_2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // Reference values from tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204999),
            (1.0, 0.8427008),
            (2.0, 0.9953223),
            (-1.0, -0.8427008),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 2e-7, "erf({x}) = {} want {want}", erf(x));
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96, 0.0, 1.0) - 0.9750021).abs() < 1e-5);
        assert!((normal_cdf(-1.96, 0.0, 1.0) - 0.0249979).abs() < 1e-5);
        // Shift and scale.
        assert!((normal_cdf(10.0, 10.0, 3.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(13.0, 10.0, 3.0) - normal_cdf(1.0, 0.0, 1.0)).abs() < 1e-9);
    }

    #[test]
    fn degenerate_distribution_steps() {
        assert_eq!(normal_cdf(0.9, 1.0, 0.0), 0.0);
        assert_eq!(normal_cdf(1.0, 1.0, 0.0), 1.0);
        assert_eq!(normal_cdf(1.1, 1.0, 0.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut prev = 0.0;
        for i in -40..=40 {
            let v = normal_cdf(i as f64 / 10.0, 0.0, 1.0);
            assert!(v + 1e-12 >= prev, "cdf not monotone at {i}");
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sd_panics() {
        let _ = normal_cdf(0.0, 0.0, -1.0);
    }
}
