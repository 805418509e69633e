//! The step-up walk over a full sort that `pga_stats`' BH and BY were until
//! ISSUE 24, kept as the model the candidates-only walk is compared with.

use pga_stats::Rejections;

/// `step_up_fdr` as the product computed it until ISSUE 24: index-sort all
/// `m` p-values, walk ranks down from `m`.
pub fn full_sort_step_up(p_values: &[f64], alpha: f64, deflate: f64) -> Rejections {
    let m = p_values.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| p_values[a].partial_cmp(&p_values[b]).expect("NaN p-value"));
    let mut rejected = vec![false; m];
    let mut threshold = 0.0;
    let mut cut = None;
    for k in (1..=m).rev() {
        let idx = order[k - 1];
        let t = (k as f64 / m as f64) * alpha / deflate;
        if p_values[idx] <= t {
            cut = Some(k);
            threshold = t;
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
