//! Multiple-testing procedures.
//!
//! The heart of the paper's §IV: with `m` simultaneous per-sensor tests the
//! naive per-test α compounds (α = 0.05 over 10 sensors → 40% family-wise
//! false-alarm probability), so a correction is applied to the family of
//! p-values. The platform uses the Benjamini–Hochberg FDR procedure; the
//! classical FWER corrections are implemented as baselines, exactly as the
//! paper positions them.
//!
//! Every procedure consumes a slice of p-values and returns a [`Rejections`]
//! mask plus the effective per-test threshold it used.

use serde::{Deserialize, Serialize};

/// Which correction to apply to a family of p-values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Procedure {
    /// No correction: reject every p ≤ α. The paper's strawman.
    Uncorrected,
    /// Bonferroni: reject p ≤ α/m. Controls FWER, very conservative.
    Bonferroni,
    /// Šidák: reject p ≤ 1 − (1−α)^(1/m). FWER under independence.
    Sidak,
    /// Holm step-down. Uniformly more powerful than Bonferroni, still FWER.
    Holm,
    /// Hochberg step-up (FWER under independence/positive dependence).
    Hochberg,
    /// Benjamini–Hochberg step-up: controls FDR at level α. The paper's
    /// chosen algorithm.
    BenjaminiHochberg,
    /// Benjamini–Yekutieli: FDR control under arbitrary dependence, at the
    /// price of an extra harmonic-sum factor.
    BenjaminiYekutieli,
}

impl Procedure {
    /// Apply this procedure at level `alpha`.
    pub fn apply(self, p_values: &[f64], alpha: f64) -> Rejections {
        match self {
            Procedure::Uncorrected => uncorrected(p_values, alpha),
            Procedure::Bonferroni => bonferroni(p_values, alpha),
            Procedure::Sidak => sidak(p_values, alpha),
            Procedure::Holm => holm(p_values, alpha),
            Procedure::Hochberg => hochberg(p_values, alpha),
            Procedure::BenjaminiHochberg => benjamini_hochberg(p_values, alpha),
            Procedure::BenjaminiYekutieli => benjamini_yekutieli(p_values, alpha),
        }
    }

    /// Stable, human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Procedure::Uncorrected => "uncorrected",
            Procedure::Bonferroni => "bonferroni",
            Procedure::Sidak => "sidak",
            Procedure::Holm => "holm",
            Procedure::Hochberg => "hochberg",
            Procedure::BenjaminiHochberg => "benjamini-hochberg",
            Procedure::BenjaminiYekutieli => "benjamini-yekutieli",
        }
    }

    /// All implemented procedures, in report order.
    pub fn all() -> [Procedure; 7] {
        [
            Procedure::Uncorrected,
            Procedure::Bonferroni,
            Procedure::Sidak,
            Procedure::Holm,
            Procedure::Hochberg,
            Procedure::BenjaminiHochberg,
            Procedure::BenjaminiYekutieli,
        ]
    }
}

/// Outcome of applying a procedure to a p-value family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rejections {
    /// `rejected[i]` is true when hypothesis `i` is rejected (flagged).
    pub rejected: Vec<bool>,
    /// The largest p-value threshold any hypothesis was compared against
    /// (for step procedures this is the data-dependent cut).
    pub threshold: f64,
}

impl Rejections {
    /// Number of rejected hypotheses.
    pub fn count(&self) -> usize {
        self.rejected.iter().filter(|&&r| r).count()
    }

    /// Indices of rejected hypotheses.
    pub fn indices(&self) -> Vec<usize> {
        self.rejected
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| r.then_some(i))
            .collect()
    }
}

fn validate(p_values: &[f64], alpha: f64) {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "alpha must be in [0,1], got {alpha}"
    );
    debug_assert!(
        p_values.iter().all(|p| (0.0..=1.0).contains(p)),
        "p-values must be in [0,1]"
    );
}

/// Reject each hypothesis with `p ≤ alpha`, no correction.
pub fn uncorrected(p_values: &[f64], alpha: f64) -> Rejections {
    validate(p_values, alpha);
    Rejections {
        rejected: p_values.iter().map(|&p| p <= alpha).collect(),
        threshold: alpha,
    }
}

/// Bonferroni correction: per-test threshold `alpha / m`.
pub fn bonferroni(p_values: &[f64], alpha: f64) -> Rejections {
    validate(p_values, alpha);
    let m = p_values.len().max(1) as f64;
    let t = alpha / m;
    Rejections {
        rejected: p_values.iter().map(|&p| p <= t).collect(),
        threshold: t,
    }
}

/// Šidák correction: per-test threshold `1 − (1−alpha)^(1/m)`.
pub fn sidak(p_values: &[f64], alpha: f64) -> Rejections {
    validate(p_values, alpha);
    let m = p_values.len().max(1) as f64;
    let t = 1.0 - (1.0 - alpha).powf(1.0 / m);
    Rejections {
        rejected: p_values.iter().map(|&p| p <= t).collect(),
        threshold: t,
    }
}

/// Indices that sort the p-values ascending.
fn ascending_order(p_values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..p_values.len()).collect();
    order.sort_by(|&a, &b| p_values[a].partial_cmp(&p_values[b]).expect("NaN p-value"));
    order
}

/// Holm step-down procedure (FWER).
///
/// Walk p-values ascending; stop at the first `p_(k) > alpha / (m - k)`.
/// Everything before the stop is rejected.
pub fn holm(p_values: &[f64], alpha: f64) -> Rejections {
    validate(p_values, alpha);
    let m = p_values.len();
    let order = ascending_order(p_values);
    let mut rejected = vec![false; m];
    let mut threshold = 0.0f64;
    for (k, &idx) in order.iter().enumerate() {
        let t = alpha / (m - k) as f64;
        if p_values[idx] <= t {
            rejected[idx] = true;
            threshold = threshold.max(p_values[idx]);
        } else {
            break;
        }
    }
    Rejections {
        rejected,
        threshold,
    }
}

/// Hochberg step-up procedure (FWER under independence).
///
/// Walk p-values descending; the first `p_(k) ≤ alpha / (m - k + 1)` rejects
/// that hypothesis and every smaller one.
pub fn hochberg(p_values: &[f64], alpha: f64) -> Rejections {
    validate(p_values, alpha);
    let m = p_values.len();
    let order = ascending_order(p_values);
    let mut rejected = vec![false; m];
    let mut threshold = 0.0;
    // k is 1-based rank ascending; thresholds alpha / (m - k + 1).
    let mut cut = None;
    for k in (1..=m).rev() {
        let idx = order[k - 1];
        let t = alpha / (m - k + 1) as f64;
        if p_values[idx] <= t {
            cut = Some(k);
            threshold = p_values[idx];
            break;
        }
    }
    if let Some(k) = cut {
        for &idx in &order[..k] {
            rejected[idx] = true;
        }
    }
    Rejections {
        rejected,
        threshold,
    }
}

/// Benjamini–Hochberg step-up procedure: controls the false discovery rate
/// at level `alpha` (valid under independence and positive regression
/// dependence). This is the algorithm the paper adopts (§IV, refs [7], [8]).
///
/// Find the largest rank `k` with `p_(k) ≤ (k/m) · alpha`; reject the `k`
/// smallest p-values. Only the p-values at or under `alpha` can hold such a
/// rank, so only those are sorted: under the null that is `alpha · m` of
/// them, and the cost per family is one pass plus that small sort.
///
/// # Panics
/// Panics on a NaN p-value.
///
/// ```
/// use pga_stats::benjamini_hochberg;
///
/// // Two strong signals among mostly-null p-values.
/// let p = [0.001, 0.004, 0.30, 0.55, 0.80];
/// let r = benjamini_hochberg(&p, 0.05);
/// assert_eq!(r.indices(), vec![0, 1]);
/// ```
pub fn benjamini_hochberg(p_values: &[f64], alpha: f64) -> Rejections {
    step_up_fdr(p_values, alpha, 1.0)
}

/// Benjamini–Yekutieli procedure: FDR control under *arbitrary* dependence.
/// Identical to BH but with `alpha` deflated by `c(m) = Σ_{i=1}^m 1/i`.
/// Relevant here because the paper injects faults *correlated across
/// sensors* (§II-A), violating BH's independence assumption.
pub fn benjamini_yekutieli(p_values: &[f64], alpha: f64) -> Rejections {
    let m = p_values.len().max(1);
    let harmonic: f64 = (1..=m).map(|i| 1.0 / i as f64).sum();
    step_up_fdr(p_values, alpha, harmonic)
}

/// The step-up walk shared by BH and BY, thresholds `(k/m) · alpha / deflate`.
///
/// Only p-values at or under the largest threshold (rank `m`'s) can pass
/// any: thresholds grow with the rank, in floating point too. Those
/// candidates are exactly the smallest ranks, so they alone are sorted and
/// the walk starts at their count — O(m + c log c) for `c` candidates.
fn step_up_fdr(p_values: &[f64], alpha: f64, deflate: f64) -> Rejections {
    validate(p_values, alpha);
    let m = p_values.len();
    let threshold_at = |k: usize| (k as f64 / m as f64) * alpha / deflate;
    let bound = threshold_at(m);
    let mut candidates = Vec::new();
    for (idx, &p) in p_values.iter().enumerate() {
        // The comparison below would drop a NaN silently.
        assert!(!p.is_nan(), "NaN p-value");
        if p <= bound {
            candidates.push(idx);
        }
    }
    candidates.sort_by(|&a, &b| p_values[a].partial_cmp(&p_values[b]).expect("NaN p-value"));
    let mut rejected = vec![false; m];
    let mut threshold = 0.0;
    for k in (1..=candidates.len()).rev() {
        let t = threshold_at(k);
        if p_values[candidates[k - 1]] <= t {
            threshold = t;
            for &idx in &candidates[..k] {
                rejected[idx] = true;
            }
            break;
        }
    }
    Rejections {
        rejected,
        threshold,
    }
}

/// Storey's adaptive Benjamini–Hochberg procedure: estimate the null
/// proportion `π₀` from the p-value mass above `lambda` and run BH at the
/// inflated level `alpha / π₀`. Strictly more powerful than plain BH when
/// many hypotheses are non-null (a fleet in widespread distress), while
/// still controlling FDR at `alpha` asymptotically. Implemented as the
/// natural extension of the paper's §IV choice.
pub fn storey_bh(p_values: &[f64], alpha: f64, lambda: f64) -> Rejections {
    validate(p_values, alpha);
    assert!(
        (0.0..1.0).contains(&lambda),
        "lambda must be in [0,1), got {lambda}"
    );
    let m = p_values.len();
    if m == 0 {
        return Rejections {
            rejected: Vec::new(),
            threshold: 0.0,
        };
    }
    let above = p_values.iter().filter(|&&p| p > lambda).count();
    // Storey estimator with the +1 finite-sample guard, clamped to (0, 1].
    let pi0 = ((above as f64 + 1.0) / (m as f64 * (1.0 - lambda))).min(1.0);
    benjamini_hochberg(p_values, (alpha / pi0).min(1.0))
}

/// Benjamini–Hochberg adjusted p-values (q-values): the smallest FDR level
/// at which each hypothesis would be rejected. Useful for reporting the
/// "strength" of each flagged anomaly in the dashboard.
pub fn bh_adjusted_p_values(p_values: &[f64]) -> Vec<f64> {
    let m = p_values.len();
    if m == 0 {
        return Vec::new();
    }
    let order = ascending_order(p_values);
    let mut adjusted = vec![0.0; m];
    let mut running_min = 1.0f64;
    for k in (1..=m).rev() {
        let idx = order[k - 1];
        let q = (p_values[idx] * m as f64 / k as f64).min(1.0);
        running_min = running_min.min(q);
        adjusted[idx] = running_min;
    }
    adjusted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic worked example from Benjamini & Hochberg (1995), m = 15
    /// p-values, α = 0.05: BH rejects the 4 smallest.
    const BH_1995: [f64; 15] = [
        0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298, 0.0344, 0.0459, 0.3240, 0.4262,
        0.5719, 0.6528, 0.7590, 1.0000,
    ];

    #[test]
    fn bh_reproduces_1995_worked_example() {
        let r = benjamini_hochberg(&BH_1995, 0.05);
        assert_eq!(r.count(), 4);
        assert_eq!(r.indices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn bonferroni_on_1995_example_rejects_three() {
        // alpha/m = 0.05/15 = 0.00333; p1..p3 qualify.
        let r = bonferroni(&BH_1995, 0.05);
        assert_eq!(r.count(), 3);
    }

    #[test]
    fn uncorrected_rejects_everything_small() {
        let r = uncorrected(&BH_1995, 0.05);
        assert_eq!(r.count(), 9);
        assert_eq!(r.threshold, 0.05);
    }

    #[test]
    fn rejection_monotonicity_chain() {
        // Power ordering on any family: bonferroni ⊆ holm ⊆ hochberg ⊆ bh ⊆ uncorrected,
        // and by ⊆ sign bh ⊇ by.
        let fams: Vec<Vec<f64>> = vec![
            BH_1995.to_vec(),
            vec![0.01, 0.02, 0.03, 0.04, 0.05],
            vec![0.9, 0.8, 0.7],
            vec![0.001; 10],
        ];
        for f in fams {
            let bon = bonferroni(&f, 0.05);
            let hol = holm(&f, 0.05);
            let hoc = hochberg(&f, 0.05);
            let bh = benjamini_hochberg(&f, 0.05);
            let by = benjamini_yekutieli(&f, 0.05);
            let unc = uncorrected(&f, 0.05);
            let subset = |a: &Rejections, b: &Rejections| {
                a.rejected.iter().zip(&b.rejected).all(|(&x, &y)| !x || y)
            };
            assert!(subset(&bon, &hol));
            assert!(subset(&hol, &hoc));
            assert!(subset(&hoc, &bh));
            assert!(subset(&bh, &unc));
            assert!(subset(&by, &bh));
        }
    }

    #[test]
    fn empty_family_is_fine() {
        for proc in Procedure::all() {
            let r = proc.apply(&[], 0.05);
            assert_eq!(r.count(), 0);
        }
    }

    #[test]
    fn single_hypothesis_all_procedures_agree() {
        for proc in Procedure::all() {
            assert_eq!(proc.apply(&[0.01], 0.05).count(), 1, "{}", proc.name());
            assert_eq!(proc.apply(&[0.2], 0.05).count(), 0, "{}", proc.name());
        }
    }

    #[test]
    fn sidak_threshold_value() {
        let r = sidak(&[0.001, 0.5], 0.05);
        let expected = 1.0 - 0.95f64.powf(0.5);
        assert!((r.threshold - expected).abs() < 1e-12);
        assert_eq!(r.count(), 1);
    }

    #[test]
    fn holm_stops_at_first_failure() {
        // m=3: thresholds 0.05/3, 0.05/2, 0.05.
        // p = [0.01, 0.04, 0.03]: sorted 0.01(ok, <0.0167), 0.03(no, >0.025) → only 1.
        let r = holm(&[0.01, 0.04, 0.03], 0.05);
        assert_eq!(r.count(), 1);
        assert!(r.rejected[0]);
    }

    #[test]
    fn hochberg_rejects_all_when_largest_qualifies() {
        // m=3, largest p=0.04 ≤ 0.05/1 → all rejected even though
        // Holm would stop earlier.
        let r = hochberg(&[0.035, 0.04, 0.03], 0.05);
        assert_eq!(r.count(), 3);
    }

    #[test]
    fn by_is_more_conservative_than_bh() {
        let p = [0.003, 0.006, 0.01, 0.04, 0.2];
        let bh = benjamini_hochberg(&p, 0.05);
        let by = benjamini_yekutieli(&p, 0.05);
        assert!(by.count() <= bh.count());
        assert!(by.count() < bh.count(), "expected strict on this family");
    }

    #[test]
    fn bh_adjusted_p_values_monotone_in_raw_order() {
        let q = bh_adjusted_p_values(&BH_1995);
        // q-values respect the ordering of p-values.
        for i in 1..BH_1995.len() {
            assert!(q[i] >= q[i - 1] - 1e-15);
        }
        // Rejection via q-values matches the procedure.
        let via_q: Vec<bool> = q.iter().map(|&qi| qi <= 0.05).collect();
        let direct = benjamini_hochberg(&BH_1995, 0.05).rejected;
        assert_eq!(via_q, direct);
    }

    #[test]
    fn bh_threshold_reported_is_step_cut() {
        let p = [0.01, 0.02, 0.9];
        let r = benjamini_hochberg(&p, 0.05);
        // k=2: t = 2/3*0.05 = 0.0333 ≥ 0.02 → cut at k=2.
        assert_eq!(r.count(), 2);
        assert!((r.threshold - 2.0 / 3.0 * 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn invalid_alpha_panics() {
        benjamini_hochberg(&[0.5], 1.5);
    }

    #[test]
    fn storey_bh_at_least_as_powerful_as_bh() {
        // Mixed family: strong signals push π̂₀ below 1 → inflated level.
        let mut p = vec![0.0001; 30];
        p.extend((1..=70).map(|i| i as f64 / 70.0));
        let bh = benjamini_hochberg(&p, 0.05);
        let storey = storey_bh(&p, 0.05, 0.5);
        assert!(storey.count() >= bh.count());
        // Under the global null, Storey stays conservative.
        let nulls: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        assert_eq!(storey_bh(&nulls, 0.05, 0.5).count(), 0);
    }

    #[test]
    fn storey_bh_pi0_estimate_clamps() {
        // All p-values tiny: π̂₀ ≈ 1/(m(1-λ)) — well under 1; procedure
        // must still behave.
        let p = vec![1e-6; 20];
        let r = storey_bh(&p, 0.05, 0.5);
        assert_eq!(r.count(), 20);
        // Empty family.
        assert_eq!(storey_bh(&[], 0.05, 0.5).count(), 0);
    }

    #[test]
    #[should_panic(expected = "lambda must be in [0,1)")]
    fn storey_bh_rejects_bad_lambda() {
        storey_bh(&[0.5], 0.05, 1.0);
    }

    #[test]
    fn ties_are_handled_consistently() {
        let p = [0.02, 0.02, 0.02, 0.02];
        // BH: k=4 → t = 0.05 ≥ 0.02 → all rejected.
        assert_eq!(benjamini_hochberg(&p, 0.05).count(), 4);
        // Bonferroni: t = 0.0125 < 0.02 → none.
        assert_eq!(bonferroni(&p, 0.05).count(), 0);
    }
}
