//! Model test: the rational `erfc` against the incomplete-gamma one it
//! replaced, which stays the oracle (slow, and accurate in the tail).

use pga_stats::distributions::{erf, erfc, regularized_gamma_p, regularized_gamma_q};

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
        // erf keeps its own (gamma-series) path; the two still add up.
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
