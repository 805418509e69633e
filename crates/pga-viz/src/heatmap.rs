//! Fleet anomaly heatmap: units × time buckets, shaded by anomaly count.
//!
//! The §V "analytics summarize global system status" view at fleet scale:
//! one row per unit, one column per time bucket, a sequential single-hue
//! ramp (light → dark blue, magnitude encoding) with native tooltips and a
//! zero-value cell that recedes to the surface.

use crate::svg::{document, el};

/// Sequential blue ramp (steps 100 → 700 of the validated palette).
/// Light end means "near zero" and may recede toward the surface.
const RAMP: [&str; 7] = [
    "#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5", "#256abf", "#184f95", "#0d366b",
];

/// Input to the heatmap: `counts[u][b]` anomalies for unit `u` in bucket
/// `b`.
#[derive(Debug, Clone)]
pub struct HeatmapData {
    /// Unit ids, one per row.
    pub units: Vec<u32>,
    /// Bucket start timestamps, one per column.
    pub bucket_starts: Vec<u64>,
    /// `units.len() × bucket_starts.len()` anomaly counts.
    pub counts: Vec<Vec<u32>>,
}

impl HeatmapData {
    /// Build from raw `(unit, timestamp)` anomaly events.
    pub fn from_events(
        events: &[(u32, u64)],
        units: Vec<u32>,
        start: u64,
        end: u64,
        bucket_secs: u64,
    ) -> Self {
        assert!(bucket_secs > 0 && end >= start);
        let n_buckets = ((end - start) / bucket_secs + 1) as usize;
        let bucket_starts: Vec<u64> = (0..n_buckets)
            .map(|b| start + b as u64 * bucket_secs)
            .collect();
        let index: std::collections::HashMap<u32, usize> =
            units.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        let mut counts = vec![vec![0u32; n_buckets]; units.len()];
        for &(unit, ts) in events {
            if ts < start || ts > end {
                continue;
            }
            if let Some(&row) = index.get(&unit) {
                let b = ((ts - start) / bucket_secs) as usize;
                counts[row][b] += 1;
            }
        }
        HeatmapData {
            units,
            bucket_starts,
            counts,
        }
    }

    /// Largest cell count (drives the ramp scale).
    pub fn max_count(&self) -> u32 {
        self.counts
            .iter()
            .flat_map(|row| row.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// Render the heatmap as a standalone SVG fragment.
pub fn anomaly_heatmap(data: &HeatmapData, cell: u32) -> String {
    assert!(cell >= 4, "cells smaller than 4px are unreadable");
    let label_w = 56u32;
    let label_h = 18u32;
    let rows = data.units.len() as u32;
    let cols = data.bucket_starts.len() as u32;
    let width = label_w + cols * cell + 8;
    let height = label_h + rows * cell + 8;
    let max = data.max_count().max(1);
    // About 200 bytes a cell.
    let mut out = String::with_capacity(1024 + 200 * data.units.len() * data.bucket_starts.len());
    document(&mut out, width, height).children(|out| {
        for (r, &unit) in data.units.iter().enumerate() {
            // Row label in secondary ink.
            el::text(
                out,
                label_w as f64 - 6.0,
                label_h as f64 + r as f64 * cell as f64 + cell as f64 * 0.7,
            )
            .attr("fill", "var(--text-secondary)")
            .attr("font-size", "10")
            .attr("text-anchor", "end")
            .text(format_args!("u{unit}"));
            for (b, &count) in data.counts[r].iter().enumerate() {
                let x = label_w as f64 + b as f64 * cell as f64;
                let y = label_h as f64 + r as f64 * cell as f64;
                let color = if count == 0 {
                    "var(--surface-2)"
                } else {
                    // Map 1..=max onto the ramp.
                    let idx =
                        ((count as f64 / max as f64) * (RAMP.len() - 1) as f64).ceil() as usize;
                    RAMP[idx.min(RAMP.len() - 1)]
                };
                // 1px gap = the spacer between adjacent fills.
                el::rect(out, x, y, cell as f64 - 1.0, cell as f64 - 1.0)
                    .attr("fill", color)
                    .attr("rx", "1.5")
                    .children(|out| {
                        el::title(
                            out,
                            format_args!(
                                "unit {unit}, t={}..{}: {count} anomalies",
                                data.bucket_starts[b],
                                data.bucket_starts[b]
                                    + data
                                        .bucket_starts
                                        .get(1)
                                        .map_or(0, |s| s - data.bucket_starts[0]),
                            ),
                        )
                    });
            }
        }
        // Column labels: first, middle, last bucket starts.
        for b in [0usize, (cols as usize) / 2, cols as usize - 1] {
            if b < data.bucket_starts.len() {
                el::text(out, label_w as f64 + b as f64 * cell as f64, 12.0)
                    .attr("fill", "var(--text-secondary)")
                    .attr("font-size", "9")
                    .text(format_args!("t={}", data.bucket_starts[b]));
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HeatmapData {
        HeatmapData::from_events(
            &[(1, 0), (1, 5), (1, 6), (2, 25), (7, 11)],
            vec![1, 2, 7],
            0,
            29,
            10,
        )
    }

    #[test]
    fn bucketing_counts_events() {
        let d = sample();
        assert_eq!(d.bucket_starts, vec![0, 10, 20]);
        assert_eq!(d.counts[0], vec![3, 0, 0]); // unit 1
        assert_eq!(d.counts[1], vec![0, 0, 1]); // unit 2
        assert_eq!(d.counts[2], vec![0, 1, 0]); // unit 7
        assert_eq!(d.max_count(), 3);
    }

    #[test]
    fn out_of_range_and_unknown_units_ignored() {
        let d = HeatmapData::from_events(&[(9, 5), (1, 500)], vec![1], 0, 29, 10);
        assert_eq!(d.max_count(), 0);
    }

    #[test]
    fn svg_contains_cells_and_tooltips() {
        let svg = anomaly_heatmap(&sample(), 12);
        assert_eq!(svg.matches("<rect").count(), 9, "3 units x 3 buckets");
        assert!(svg.contains("unit 1, t=0..10: 3 anomalies"));
        assert!(svg.contains("u7"));
        // Zero cells recede to the surface token.
        assert!(svg.contains("var(--surface-2)"));
        // The busiest cell wears the darkest ramp step.
        assert!(svg.contains("#0d366b"));
    }

    #[test]
    fn ramp_scales_to_max() {
        // Max = 1: single anomalies still get the darkest step (idx = ceil(1/1*6) = 6).
        let d = HeatmapData::from_events(&[(1, 0)], vec![1], 0, 9, 10);
        let svg = anomaly_heatmap(&d, 10);
        assert!(svg.contains("#0d366b"));
    }

    #[test]
    #[should_panic(expected = "unreadable")]
    fn tiny_cells_rejected() {
        anomaly_heatmap(&sample(), 2);
    }
}
