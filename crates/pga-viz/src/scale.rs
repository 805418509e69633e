//! Linear scales and tick generation.

/// A linear mapping from a data domain to a pixel range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearScale {
    d0: f64,
    d1: f64,
    r0: f64,
    r1: f64,
}

impl LinearScale {
    /// Scale mapping `[d0, d1] → [r0, r1]`. A degenerate domain
    /// (`d0 == d1`) maps everything to the range midpoint.
    pub fn new(d0: f64, d1: f64, r0: f64, r1: f64) -> Self {
        LinearScale { d0, d1, r0, r1 }
    }

    /// Build from a data slice, padding the domain by `pad` fraction so
    /// lines do not kiss the chart edges.
    pub fn from_values(values: impl IntoIterator<Item = f64>, r0: f64, r1: f64, pad: f64) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in values {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            lo = 0.0;
            hi = 1.0;
        }
        let span = (hi - lo).abs().max(f64::MIN_POSITIVE);
        LinearScale::new(lo - span * pad, hi + span * pad, r0, r1)
    }

    /// Map a domain value to the range.
    pub fn map(&self, v: f64) -> f64 {
        if self.d1 == self.d0 {
            return 0.5 * (self.r0 + self.r1);
        }
        self.r0 + (v - self.d0) / (self.d1 - self.d0) * (self.r1 - self.r0)
    }

    /// Domain bounds.
    pub fn domain(&self) -> (f64, f64) {
        (self.d0, self.d1)
    }

    /// ~`count` round-valued ticks covering the domain.
    pub fn ticks(&self, count: usize) -> Vec<f64> {
        let (lo, hi) = if self.d0 <= self.d1 {
            (self.d0, self.d1)
        } else {
            (self.d1, self.d0)
        };
        if !(hi - lo).is_finite() || hi == lo || count == 0 {
            return vec![lo];
        }
        let raw_step = (hi - lo) / count as f64;
        let mag = 10f64.powf(raw_step.log10().floor());
        let norm = raw_step / mag;
        let step = if norm < 1.5 {
            mag
        } else if norm < 3.0 {
            2.0 * mag
        } else if norm < 7.0 {
            5.0 * mag
        } else {
            10.0 * mag
        };
        let start = (lo / step).ceil() * step;
        let mut ticks = Vec::new();
        let mut t = start;
        while t <= hi + step * 1e-9 {
            // Snap tiny float error to zero.
            ticks.push(if t.abs() < step * 1e-9 { 0.0 } else { t });
            // A step below half the float spacing at `t` no longer moves it
            // (a narrow domain of large values): stop there.
            let next = t + step;
            if next == t {
                break;
            }
            t = next;
        }
        ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_endpoints_and_midpoint() {
        let s = LinearScale::new(0.0, 10.0, 0.0, 100.0);
        assert_eq!(s.map(0.0), 0.0);
        assert_eq!(s.map(10.0), 100.0);
        assert_eq!(s.map(5.0), 50.0);
    }

    #[test]
    fn inverted_range_for_svg_y() {
        // SVG y grows downward: map data up to pixel down.
        let s = LinearScale::new(0.0, 1.0, 100.0, 0.0);
        assert_eq!(s.map(0.0), 100.0);
        assert_eq!(s.map(1.0), 0.0);
    }

    #[test]
    fn degenerate_domain_maps_to_midpoint() {
        let s = LinearScale::new(5.0, 5.0, 0.0, 10.0);
        assert_eq!(s.map(5.0), 5.0);
        assert_eq!(s.map(99.0), 5.0);
    }

    #[test]
    fn from_values_pads_domain() {
        let s = LinearScale::from_values([1.0, 3.0], 0.0, 1.0, 0.1);
        let (lo, hi) = s.domain();
        assert!(lo < 1.0 && hi > 3.0);
        assert!((lo - 0.8).abs() < 1e-12);
        assert!((hi - 3.2).abs() < 1e-12);
    }

    #[test]
    fn from_values_handles_empty_and_nan() {
        let s = LinearScale::from_values([f64::NAN], 0.0, 1.0, 0.0);
        let (lo, hi) = s.domain();
        assert_eq!((lo, hi), (0.0, 1.0));
        let e = LinearScale::from_values([], 0.0, 1.0, 0.0);
        assert_eq!(e.domain(), (0.0, 1.0));
    }

    #[test]
    fn ticks_are_round_and_cover_domain() {
        let s = LinearScale::new(0.0, 100.0, 0.0, 1.0);
        let t = s.ticks(5);
        assert!(t.contains(&0.0));
        assert!(t.contains(&100.0));
        for w in t.windows(2) {
            assert!(
                (w[1] - w[0] - 20.0).abs() < 1e-9,
                "step should be 20: {t:?}"
            );
        }
    }

    #[test]
    fn ticks_of_awkward_domain() {
        let s = LinearScale::new(47.3, 53.1, 0.0, 1.0);
        let t = s.ticks(4);
        assert!(!t.is_empty());
        assert!(t.iter().all(|v| (47.3 - 1e-9..=53.1 + 1e-9).contains(v)));
    }

    /// 1e17's float spacing is 16, so a 5-wide step never moves a tick:
    /// generation must end, not grow until the process is killed.
    #[test]
    fn ticks_end_on_a_narrow_domain_of_large_values() {
        let s = LinearScale::from_values([1e17, 1e17 + 16.0], 0.0, 1.0, 0.1);
        let t = s.ticks(4);
        assert!(!t.is_empty() && t.len() <= 8, "{t:?}");
        let (lo, hi) = s.domain();
        assert!(t.iter().all(|v| (lo..=hi).contains(v)), "{t:?}");
    }

    #[test]
    fn negative_domain_ticks_include_zero() {
        let s = LinearScale::new(-10.0, 10.0, 0.0, 1.0);
        let t = s.ticks(4);
        assert!(t.contains(&0.0), "{t:?}");
    }
}
