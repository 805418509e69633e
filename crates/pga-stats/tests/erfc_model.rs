//! Model test: the rational `erfc` against the incomplete-gamma one it
//! replaced, which stays the oracle (slow, and accurate in the tail). The
//! incomplete gamma functions live here: nothing else computes them.

use pga_stats::distributions::{erfc, ln_gamma};

/// Regularised lower incomplete gamma function `P(a, x)`, by series when
/// `x < a + 1` and continued fraction otherwise (Numerical Recipes style).
fn regularized_gamma_p(a: f64, x: f64) -> f64 {
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
fn regularized_gamma_q(a: f64, x: f64) -> f64 {
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

/// The error function on the oracle's path: `erf(x) = P(1/2, x²)` for
/// `x ≥ 0`, odd in `x`.
fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        regularized_gamma_p(0.5, x * x)
    } else {
        -regularized_gamma_p(0.5, x * x)
    }
}

/// `erfc` as the product computed it until ISSUE 23: `Q(1/2, x²)`.
fn gamma_erfc(x: f64) -> f64 {
    if x >= 0.0 {
        regularized_gamma_q(0.5, x * x)
    } else {
        1.0 + regularized_gamma_p(0.5, x * x)
    }
}

/// Largest relative difference from the oracle over `[lo, hi]` in `steps`.
fn worst_relative(lo: f64, hi: f64, steps: usize) -> (f64, f64) {
    let mut worst = (0.0, lo);
    for i in 0..=steps {
        let x = lo + (hi - lo) * i as f64 / steps as f64;
        let rel = (erfc(x) / gamma_erfc(x) - 1.0).abs();
        if rel > worst.0 {
            worst = (rel, x);
        }
    }
    worst
}

#[test]
fn agrees_with_the_gamma_oracle_on_a_dense_grid() {
    // The grid steps are irrational in binary, so every branch boundary
    // (0.25, 0.84375, 1.25, 1/0.35) is approached from both sides.
    let (rel, at) = worst_relative(-6.0, 6.0, 120_000);
    assert!(rel <= 2e-14, "[-6, 6]: {rel:e} at x = {at}");
    let (rel, at) = worst_relative(6.0, 26.5, 205_000);
    assert!(rel <= 2e-13, "[6, 26.5]: {rel:e} at x = {at}");
    for x in [0.25, 0.84375, 1.25, 1.0 / 0.35, 6.0, 26.5] {
        for x in [x, -x, x - x * f64::EPSILON, x + x * f64::EPSILON] {
            let rel = (erfc(x) / gamma_erfc(x) - 1.0).abs();
            assert!(rel <= 2e-13, "seam {x}: {rel:e}");
        }
    }
}

#[test]
fn reflection_and_complement_hold_to_an_ulp() {
    for i in 0..=2800 {
        let x = i as f64 * 0.01;
        // By construction from 0.84375 on, by rounding below it.
        assert!((erfc(-x) - (2.0 - erfc(x))).abs() <= 2.3e-16, "x = {x}");
        // erf on the oracle's (gamma-series) path; the two still add up.
        assert!((erf(x) + erfc(x) - 1.0).abs() <= 2e-15, "x = {x}");
    }
}

#[test]
fn monotone_over_the_whole_range() {
    let mut last = erfc(-7.0);
    for i in 1..=340_000 {
        let x = -7.0 + i as f64 * 1e-4;
        let y = erfc(x);
        assert!(y <= last, "erfc({x}) = {y:e} > {last:e}");
        last = y;
    }
    // Strictly, where neighbouring values are distinguishable at all.
    for i in 0..270 {
        let x = i as f64 * 0.1;
        assert!(erfc(x + 0.1) < erfc(x), "x = {x}");
    }
}

#[test]
fn ends_of_the_line() {
    assert_eq!(erfc(0.0), 1.0);
    assert_eq!(erfc(-0.0), 1.0);
    assert_eq!(erfc(f64::INFINITY), 0.0);
    assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
    assert_eq!(erfc(28.0), 0.0);
    assert_eq!(erfc(-28.0), 2.0);
    assert_eq!(erfc(-6.5), 2.0);
    assert!(erfc(f64::NAN).is_nan());
    assert_eq!(erfc(1e-300), 1.0);
    // Deep tail: erfc(26.5) ≈ 2.2e-307 is still a normal number.
    let deep = erfc(26.5);
    assert!(deep > f64::MIN_POSITIVE && deep < 1e-300, "{deep:e}");
}

/// The oracle itself against published χ² quantiles: the χ² CDF with `k`
/// degrees of freedom is `P(k/2, x/2)`.
#[test]
fn the_gamma_oracle_meets_chi_square_reference_values() {
    // χ²(k=1): CDF at 3.841459 ≈ 0.95. χ²(k=5): CDF at 11.0705 ≈ 0.95.
    assert!((regularized_gamma_p(0.5, 3.841459 / 2.0) - 0.95).abs() < 1e-6);
    assert!((regularized_gamma_p(2.5, 11.0705 / 2.0) - 0.95).abs() < 1e-5);
    assert!((regularized_gamma_q(2.5, 11.0705 / 2.0) - 0.05).abs() < 1e-5);
    assert_eq!(regularized_gamma_p(1.5, 0.0), 0.0);
}
