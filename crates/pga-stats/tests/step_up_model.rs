//! Model test: BH and BY, which sort only the p-values that can be
//! rejected, against the step-up walk over a full sort they replaced
//! (`step_up/mod.rs`).
//! `Rejections` must be equal field for field — the mask and the bits of
//! the threshold.

mod step_up;

use pga_stats::{benjamini_hochberg, benjamini_yekutieli};
use proptest::prelude::*;
use step_up::full_sort_step_up;

fn harmonic(m: usize) -> f64 {
    (1..=m.max(1)).map(|i| 1.0 / i as f64).sum()
}

fn assert_matches_model(p: &[f64], alpha: f64) {
    for (name, got, deflate) in [
        ("BH", benjamini_hochberg(p, alpha), 1.0),
        ("BY", benjamini_yekutieli(p, alpha), harmonic(p.len())),
    ] {
        let want = full_sort_step_up(p, alpha, deflate);
        assert_eq!(got.rejected, want.rejected, "{name} α={alpha} p={p:?}");
        assert_eq!(
            got.threshold.to_bits(),
            want.threshold.to_bits(),
            "{name} α={alpha} p={p:?}: {} vs {}",
            got.threshold,
            want.threshold
        );
    }
}

/// p-values on a coarse grid, so that ties — at the cut too — are common.
fn tied_family() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u32..=40).prop_map(|k| k as f64 / 400.0), 0..60)
}

/// Mostly nulls with a few strong signals: the detector's family.
fn detector_family() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            4 => 0.0f64..=1.0,
            1 => (0.0f64..=1.0).prop_map(|u| u * 1e-6),
        ],
        0..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn uniform_families_match_the_full_sort(
        p in proptest::collection::vec(0.0f64..=1.0, 0..80),
        alpha in 0.0f64..=1.0,
    ) {
        assert_matches_model(&p, alpha);
    }

    #[test]
    fn tied_families_match_the_full_sort(p in tied_family(), alpha in 0.0f64..=0.2) {
        assert_matches_model(&p, alpha);
        assert_matches_model(&p, 0.05);
    }

    #[test]
    fn detector_families_match_the_full_sort(p in detector_family(), alpha in 0.001f64..=0.2) {
        assert_matches_model(&p, alpha);
    }
}

#[test]
fn edge_families_match_the_full_sort() {
    let ramp: Vec<f64> = (1..=20).map(|k| k as f64 * 0.05 / 20.0).collect();
    let families: Vec<Vec<f64>> = vec![
        vec![],
        vec![0.0],
        vec![1.0],
        vec![0.05],
        vec![1.0; 17],
        vec![0.0; 17],
        vec![0.5, 0.9, 0.3, 0.7],             // nothing ≤ α
        vec![0.02, 0.02, 0.02, 0.02],         // one tie, all at the cut
        vec![0.025, 0.9, 0.025, 0.025, 0.01], // ties straddling rank 2..4
        vec![0.9, 0.05, 0.05, 0.05, 0.05],    // ties at α itself
        ramp.clone(),                         // p_(k) = t_k exactly, every k
        ramp.iter().rev().copied().collect(),
        ramp.iter().map(|p| p * (1.0 + f64::EPSILON)).collect(),
        vec![-0.0, 0.0, 1.0, 0.3],
    ];
    for p in &families {
        for alpha in [0.0, 0.05, 1.0] {
            assert_matches_model(p, alpha);
        }
    }
}

// A NaN is refused by name in the optimised build the benchmark runs; a
// debug build's range assertion gets to it first.
#[test]
#[cfg_attr(not(debug_assertions), should_panic(expected = "NaN p-value"))]
#[cfg_attr(debug_assertions, should_panic(expected = "p-values must be in [0,1]"))]
fn a_nan_among_p_values_above_alpha_panics() {
    // No candidate to sort: only the filter pass can notice.
    benjamini_hochberg(&[0.9, f64::NAN, 0.5, 0.7], 0.05);
}

#[test]
#[cfg_attr(not(debug_assertions), should_panic(expected = "NaN p-value"))]
#[cfg_attr(debug_assertions, should_panic(expected = "p-values must be in [0,1]"))]
fn a_nan_among_p_values_below_alpha_panics() {
    benjamini_yekutieli(&[0.001, 0.002, f64::NAN, 0.0001], 0.05);
}
