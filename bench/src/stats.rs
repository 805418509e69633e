//! Order statistics over small samples of timings.

/// Median of `values` (mean of the two middle elements for an even
/// count). Panics on an empty slice: every caller times at least one op.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in `0..=100` (whole percents, so ranks are
/// exact integer arithmetic).
pub fn percentile(values: &[f64], q: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len()).div_ceil(100);
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99/p95/p90/p75 that still has ten samples beyond it,
/// as `(q, value)`; `None` when even p75 does not.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(usize, f64)> {
    [99, 95, 90, 75]
        .into_iter()
        .find(|q| values.len() - (q * values.len()).div_ceil(100) >= 10)
        .map(|q| (q, percentile(values, q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&v).map(|p| p.0), Some(90));
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&v).map(|p| p.0), Some(99));
        assert_eq!(highest_supported_percentile(&[1.0; 30]), None);
    }
}
