//! Hypothesis tests that turn sensor windows into p-values.
//!
//! The detector's statistical core (§IV): each monitored sensor window is
//! tested against its trained baseline for a shift in the mean of the
//! sampling distribution. Rejection = potential anomaly; the p-values feed
//! the multiple-testing procedures in [`crate::multiple`].

use crate::distributions::{chi_square_cdf, erfc, students_t_cdf};

/// Two-sided p-value of a standard-normal z statistic: `2·P(Z > |z|)`,
/// taken from the tail itself (not as `1 − Φ`), so it keeps full relative
/// precision out to 37 σ and strong anomalies stay ranked by strength.
#[inline]
pub fn two_sided_p_from_z(z: f64) -> f64 {
    erfc(z.abs() * std::f64::consts::FRAC_1_SQRT_2)
}

/// A one-sample z-test of a window mean against a trained baseline with
/// known mean and standard deviation.
#[derive(Debug, Clone, Copy)]
pub struct ZTest {
    /// Baseline (trained) mean.
    pub mean: f64,
    /// Baseline (trained) standard deviation of a single observation.
    pub std_dev: f64,
}

impl ZTest {
    /// z statistic for a window of `n` observations with mean `window_mean`.
    ///
    /// Returns 0 when the baseline is degenerate (σ = 0) and the window mean
    /// equals the baseline; returns infinity when it does not, so degenerate
    /// sensors still flag genuine level changes.
    pub fn z_statistic(&self, window_mean: f64, n: usize) -> f64 {
        assert!(n > 0, "window must be non-empty");
        if self.std_dev == 0.0 {
            return if window_mean == self.mean {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (window_mean - self.mean) / (self.std_dev / (n as f64).sqrt())
    }

    /// Two-sided p-value for a window.
    pub fn p_value(&self, window: &[f64]) -> f64 {
        let n = window.len();
        assert!(n > 0, "window must be non-empty");
        let mean = window.iter().sum::<f64>() / n as f64;
        let z = self.z_statistic(mean, n);
        if z.is_infinite() {
            0.0
        } else {
            two_sided_p_from_z(z)
        }
    }
}

/// Two-sided one-sample t-test p-value for a window against a hypothesised
/// mean, estimating the variance from the window itself. Used when the
/// baseline variance is not trusted (e.g. early in a unit's life).
pub fn mean_shift_p_value(window: &[f64], hypothesized_mean: f64) -> f64 {
    let n = window.len();
    assert!(n >= 2, "t-test needs at least 2 observations");
    let mean = window.iter().sum::<f64>() / n as f64;
    let var = window.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    if var == 0.0 {
        return if mean == hypothesized_mean { 1.0 } else { 0.0 };
    }
    let t = (mean - hypothesized_mean) / (var / n as f64).sqrt();
    let nu = (n - 1) as f64;
    (2.0 * (1.0 - students_t_cdf(t.abs(), nu))).clamp(0.0, 1.0)
}

/// Hotelling-style T² statistic of an observation against a trained
/// principal-axis model.
///
/// Given the eigendecomposition of the baseline covariance (eigenvalues
/// `lambda`, eigenvectors as columns of a matrix applied by the caller), the
/// statistic of a centred, rotated observation `scores` is
/// `Σ scoresᵢ² / λᵢ` over components with λᵢ > `eps`; under the null it is
/// χ²-distributed with as many degrees of freedom as retained components.
/// Returns `(t2, dof)`.
pub fn t_square_statistic(scores: &[f64], lambda: &[f64], eps: f64) -> (f64, usize) {
    assert_eq!(
        scores.len(),
        lambda.len(),
        "scores/eigenvalue length mismatch"
    );
    let mut t2 = 0.0;
    let mut dof = 0;
    for (&s, &l) in scores.iter().zip(lambda) {
        if l > eps {
            t2 += s * s / l;
            dof += 1;
        }
    }
    (t2, dof)
}

/// p-value of a T² statistic under the χ² null.
#[inline]
pub fn t_square_p_value(t2: f64, dof: usize) -> f64 {
    if dof == 0 {
        return 1.0;
    }
    (1.0 - chi_square_cdf(t2, dof as f64)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn z_of_null_window_is_small() {
        let t = ZTest {
            mean: 10.0,
            std_dev: 2.0,
        };
        let window = vec![10.0; 25];
        assert_eq!(t.z_statistic(10.0, 25), 0.0);
        assert!((t.p_value(&window) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_scales_with_sqrt_n() {
        let t = ZTest {
            mean: 0.0,
            std_dev: 1.0,
        };
        // Same shift, four times the samples → twice the z.
        let z1 = t.z_statistic(0.5, 25);
        let z2 = t.z_statistic(0.5, 100);
        assert!((z2 / z1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_sided_p_symmetry() {
        assert_eq!(two_sided_p_from_z(1.5), two_sided_p_from_z(-1.5));
        assert_eq!(two_sided_p_from_z(0.0), 1.0);
        // z = 1.96 → p ≈ 0.05.
        assert!((two_sided_p_from_z(1.959964) - 0.05).abs() < 1e-5);
    }

    #[test]
    fn two_sided_p_keeps_its_tail() {
        // 2·(1 − Φ(z)) from an independent libm; `1 − Φ` itself reads
        // 1.97317540e-9 at 6 σ and exactly 0 from 8.3 σ on.
        for (z, p) in [
            (6.0, 1.973_175_290_075_4e-9),
            (10.0, 1.523_970_604_832_1e-23),
            (30.0, 9.813_427_854_297_5e-198),
        ] {
            let got = two_sided_p_from_z(z);
            assert!((got / p - 1.0).abs() < 1e-12, "p({z}) = {got:e}");
        }
        // Strictly decreasing, never 0, all the way to 37 σ.
        let mut last = 2.0;
        for i in 0..=3700 {
            let p = two_sided_p_from_z(i as f64 * 0.01);
            assert!(
                p < last && p > 0.0,
                "p({}) = {p:e} after {last:e}",
                i as f64 * 0.01
            );
            last = p;
        }
        assert!(last < 1e-298);
    }

    #[test]
    fn degenerate_baseline_flags_only_real_shifts() {
        let t = ZTest {
            mean: 5.0,
            std_dev: 0.0,
        };
        assert_eq!(t.p_value(&[5.0, 5.0]), 1.0);
        assert_eq!(t.p_value(&[5.0, 5.1]), 0.0);
    }

    #[test]
    fn t_test_detects_clear_shift() {
        let shifted: Vec<f64> = (0..30).map(|i| 3.0 + 0.01 * i as f64).collect();
        let p = mean_shift_p_value(&shifted, 0.0);
        assert!(p < 1e-6, "p={p}");
        let null: Vec<f64> = (0..30)
            .map(|i| if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let p0 = mean_shift_p_value(&null, 0.0);
        assert!(p0 > 0.5, "p0={p0}");
    }

    #[test]
    fn t_test_degenerate_window() {
        assert_eq!(mean_shift_p_value(&[2.0, 2.0, 2.0], 2.0), 1.0);
        assert_eq!(mean_shift_p_value(&[2.0, 2.0, 2.0], 1.0), 0.0);
    }

    #[test]
    fn t_square_sums_normalized_scores() {
        let (t2, dof) = t_square_statistic(&[2.0, 3.0], &[4.0, 9.0], 1e-12);
        assert!((t2 - (1.0 + 1.0)).abs() < 1e-12);
        assert_eq!(dof, 2);
    }

    #[test]
    fn t_square_skips_null_components() {
        let (t2, dof) = t_square_statistic(&[2.0, 3.0, 100.0], &[4.0, 9.0, 0.0], 1e-12);
        assert!((t2 - 2.0).abs() < 1e-12);
        assert_eq!(dof, 2);
    }

    #[test]
    fn t_square_p_value_bounds() {
        assert_eq!(t_square_p_value(0.0, 0), 1.0);
        let p_small = t_square_p_value(100.0, 2);
        assert!(p_small < 1e-10);
        let p_large = t_square_p_value(0.1, 5);
        assert!(p_large > 0.99);
    }
}
