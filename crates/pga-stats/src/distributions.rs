//! Probability distributions implemented from scratch.
//!
//! Only what the platform needs: the standard normal (CDF, quantile, PDF,
//! sampling), the χ² CDF (for T² thresholds), and the Student-t CDF (for
//! small-window mean tests). [`erfc`], which every sensor-window p-value
//! goes through, keeps full *relative* precision down to 1e-300 — the
//! online-FDR rules and the alert ranking live on the tails. The χ² and
//! Student-t CDFs are good to ~1e-8 absolute and the normal quantile to
//! ~1e-9, plenty where the procedures compare against thresholds like 1e-2.

use rand::Rng;

/// 1/sqrt(2π).
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Standard normal density.
#[inline]
pub fn normal_pdf(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal CDF via the complementary error function.
#[inline]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Complementary error function by the piecewise rational approximations
/// of fdlibm's `s_erf.c` (Sun Microsystems, 1993): under 1 ulp over the
/// whole line, at full relative precision down to `erfc(26.5) ≈ 1e-307`,
/// for one division and at most two `exp` calls. `erfc(−x) = 2 − erfc(x)`;
/// `erfc(∞) = 0`, `erfc(−∞) = 2`, `erfc(NaN) = NaN`.
pub fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 0.84375 {
        let y = erf_small_ratio(x * x);
        return if x < 0.25 {
            1.0 - (x + x * y)
        } else {
            0.5 - (x - 0.5 + x * y)
        };
    }
    if ax < 28.0 {
        let tail = erfc_tail(ax);
        return if x < 0.0 { 2.0 - tail } else { tail };
    }
    if x.is_nan() {
        x
    } else if x < 0.0 {
        2.0
    } else {
        0.0
    }
}

/// Evaluate `c[0] + z·(c[1] + z·(…))`.
#[inline]
fn horner(z: f64, c: &[f64]) -> f64 {
    c.iter().rev().fold(0.0, |acc, &k| acc * z + k)
}

/// `(erf(x) − x) / x` on `|x| < 0.84375`, as a rational function of `z = x²`.
#[inline]
#[allow(clippy::excessive_precision)] // fdlibm's published coefficients, verbatim
fn erf_small_ratio(z: f64) -> f64 {
    const PP: [f64; 5] = [
        1.28379167095512558561e-01,
        -3.25042107247001499370e-01,
        -2.84817495755985104766e-02,
        -5.77027029648944159157e-03,
        -2.37630166566501626084e-05,
    ];
    const QQ: [f64; 6] = [
        1.0,
        3.97917223959155352819e-01,
        6.50222499887672944485e-02,
        5.08130628187576562776e-03,
        1.32494738004321644526e-04,
        -3.96022827877536812320e-06,
    ];
    horner(z, &PP) / horner(z, &QQ)
}

/// `erfc(x)` for `0.84375 ≤ x < 28`.
#[allow(clippy::excessive_precision)] // fdlibm's published coefficients, verbatim
fn erfc_tail(x: f64) -> f64 {
    /// `erf(1)` rounded to 24 bits, so `1 − ERX` is exact.
    const ERX: f64 = 8.45062911510467529297e-01;
    const PA: [f64; 7] = [
        -2.36211856075265944077e-03,
        4.14856118683748331666e-01,
        -3.72207876035701323847e-01,
        3.18346619901161753674e-01,
        -1.10894694282396677476e-01,
        3.54783043256182359371e-02,
        -2.16637559486879084300e-03,
    ];
    const QA: [f64; 7] = [
        1.0,
        1.06420880400844228286e-01,
        5.40397917702171048937e-01,
        7.18286544141962662868e-02,
        1.26171219808761642112e-01,
        1.36370839120290507362e-02,
        1.19844998467991074170e-02,
    ];
    const RA: [f64; 8] = [
        -9.86494403484714822705e-03,
        -6.93858572707181764372e-01,
        -1.05586262253232909814e+01,
        -6.23753324503260060396e+01,
        -1.62396669462573470355e+02,
        -1.84605092906711035994e+02,
        -8.12874355063065934246e+01,
        -9.81432934416914548592e+00,
    ];
    const SA: [f64; 9] = [
        1.0,
        1.96512716674392571292e+01,
        1.37657754143519042600e+02,
        4.34565877475229228821e+02,
        6.45387271733267880336e+02,
        4.29008140027567833386e+02,
        1.08635005541779435134e+02,
        6.57024977031928170135e+00,
        -6.04244152148580987438e-02,
    ];
    const RB: [f64; 7] = [
        -9.86494292470009928597e-03,
        -7.99283237680523006574e-01,
        -1.77579549177547519889e+01,
        -1.60636384855821916062e+02,
        -6.37566443368389627722e+02,
        -1.02509513161107724954e+03,
        -4.83519191608651397019e+02,
    ];
    const SB: [f64; 8] = [
        1.0,
        3.03380607434824582924e+01,
        3.25792512996573918826e+02,
        1.53672958608443695994e+03,
        3.19985821950859553908e+03,
        2.55305040643316442583e+03,
        4.74528541206955367215e+02,
        -2.24409524465858183362e+01,
    ];
    if x < 1.25 {
        let s = x - 1.0;
        return 1.0 - ERX - horner(s, &PA) / horner(s, &QA);
    }
    let s = 1.0 / (x * x);
    let ratio = if x < 1.0 / 0.35 {
        horner(s, &RA) / horner(s, &SA)
    } else {
        horner(s, &RB) / horner(s, &SB)
    };
    // exp(−x²) loses relative precision as x² grows; with z = x truncated
    // to 21 significant bits z² is exact, and the rest of −x² rides along
    // with the (small) rational term.
    let z = f64::from_bits(x.to_bits() & 0xffff_ffff_0000_0000);
    (-z * z - 0.5625).exp() * ((z - x) * (z + x) + ratio).exp() / x
}

/// Error function: `erf(x) = P(1/2, x²)` for `x ≥ 0`, odd in `x`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        regularized_gamma_p(0.5, x * x)
    } else {
        -regularized_gamma_p(0.5, x * x)
    }
}

/// Standard normal quantile (inverse CDF), Acklam's algorithm refined with
/// one Halley step; accurate to better than 1e-9 over (0, 1).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
    // Coefficients for Acklam's rational approximation (published values,
    // kept verbatim).
    #[allow(clippy::excessive_precision)]
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement against the high-accuracy CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Regularised lower incomplete gamma function `P(a, x)`, by series when
/// `x < a + 1` and continued fraction otherwise (Numerical Recipes style).
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularised upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`,
/// computed directly so tail values keep full relative precision.
pub fn regularized_gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain: a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series representation of `P(a, x)`, convergent for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Lentz continued fraction for `Q(a, x)`, convergent for `x ≥ a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / 1e-300;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = b + an / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    // Published Lanczos coefficients, kept verbatim.
    #[allow(clippy::excessive_precision)]
    const G: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// χ² CDF with `k` degrees of freedom.
#[inline]
pub fn chi_square_cdf(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    regularized_gamma_p(0.5 * k, 0.5 * x)
}

/// Regularised incomplete beta function `I_x(a, b)` by continued fraction.
pub fn regularized_beta(x: f64, a: f64, b: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x), "beta domain: x={x}");
    if x == 0.0 || x == 1.0 {
        return x;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    // Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(x, a, b) / a
    } else {
        1.0 - regularized_beta(1.0 - x, b, a)
    }
}

fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < 1e-300 {
        d = 1e-300;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = 1.0 + aa / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = 1.0 + aa / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Student-t CDF with `nu` degrees of freedom.
pub fn students_t_cdf(t: f64, nu: f64) -> f64 {
    assert!(nu > 0.0, "degrees of freedom must be positive");
    let x = nu / (nu + t * t);
    let p = 0.5 * regularized_beta(x, 0.5 * nu, 0.5);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// A normal distribution with sampling support.
///
/// Sampling uses the Marsaglia polar method: exact, branchy but cheap, and
/// driven entirely by the caller's RNG so experiments stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (must be >= 0).
    pub std_dev: f64,
}

impl Normal {
    /// Standard normal.
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Construct with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "std_dev must be finite and non-negative"
        );
        Normal { mean, std_dev }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }

    /// Fill a slice with independent samples.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for v in out {
            *v = self.sample(rng);
        }
    }

    /// CDF of this distribution at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x >= self.mean { 1.0 } else { 0.0 };
        }
        normal_cdf((x - self.mean) / self.std_dev)
    }
}

/// One standard-normal draw via the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_cdf_reference_values() {
        // Φ(0)=0.5, Φ(1.96)≈0.975, Φ(-1.6449)≈0.05.
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-1.644854) - 0.05).abs() < 1e-6);
        assert!((normal_cdf(3.0) - 0.9986501).abs() < 1e-6);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[1e-6, 0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999, 1.0 - 1e-6] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-9, "p={p}, x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0,1)")]
    fn quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn chi_square_reference_values() {
        // χ²(k=1): CDF at 3.841459 ≈ 0.95. χ²(k=5): CDF at 11.0705 ≈ 0.95.
        assert!((chi_square_cdf(3.841459, 1.0) - 0.95).abs() < 1e-6);
        assert!((chi_square_cdf(11.0705, 5.0) - 0.95).abs() < 1e-5);
        assert_eq!(chi_square_cdf(0.0, 3.0), 0.0);
        assert_eq!(chi_square_cdf(-1.0, 3.0), 0.0);
    }

    #[test]
    fn students_t_reference_values() {
        // t(ν=10): CDF at 1.812 ≈ 0.95; symmetric about 0.
        assert!((students_t_cdf(1.8125, 10.0) - 0.95).abs() < 1e-4);
        assert!((students_t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
        let p = students_t_cdf(-2.0, 12.0);
        let q = students_t_cdf(2.0, 12.0);
        assert!((p + q - 1.0).abs() < 1e-10);
    }

    #[test]
    fn t_converges_to_normal_for_large_nu() {
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            let t = students_t_cdf(x, 1e6);
            let n = normal_cdf(x);
            assert!((t - n).abs() < 1e-4, "x={x}: t={t} vs n={n}");
        }
    }

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n-1)!
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn sampling_moments_match() {
        let mut rng = StdRng::seed_from_u64(42);
        let d = Normal::new(3.0, 2.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn degenerate_normal_cdf_is_step() {
        let d = Normal::new(1.0, 0.0);
        assert_eq!(d.cdf(0.999), 0.0);
        assert_eq!(d.cdf(1.0), 1.0);
    }

    #[test]
    fn empirical_cdf_matches_analytic() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut below = 0usize;
        for _ in 0..n {
            if standard_normal(&mut rng) < 1.0 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - normal_cdf(1.0)).abs() < 0.005);
    }
}
