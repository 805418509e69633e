//! Chart renderers: sensor sparklines and the drill-down detail chart.
//!
//! Mark specs follow the dataviz method: 2px series lines in one
//! categorical hue, recessive 1px grid, anomaly markers ≥ 8px in the
//! reserved *critical* status color with a 2px surface ring and a native
//! `<title>` tooltip, text in ink tokens (never series colors).

use crate::scale::LinearScale;
use crate::svg::{document, el};

/// Colors and geometry shared by the charts. Values reference the CSS
/// custom properties defined by the dashboard pages, so light/dark mode
/// swaps in one place.
#[derive(Debug, Clone)]
pub struct ChartConfig {
    /// Series stroke (categorical slot 1).
    pub series_color: String,
    /// Anomaly marker fill (reserved critical status color).
    pub anomaly_color: String,
    /// Grid/axis stroke.
    pub grid_color: String,
    /// Axis label ink.
    pub label_color: String,
    /// Chart surface (used for marker rings).
    pub surface_color: String,
}

impl Default for ChartConfig {
    fn default() -> Self {
        ChartConfig {
            series_color: "var(--series-1)".into(),
            anomaly_color: "var(--status-critical)".into(),
            grid_color: "var(--grid)".into(),
            label_color: "var(--text-secondary)".into(),
            surface_color: "var(--surface-1)".into(),
        }
    }
}

/// A compact sparkline: the per-sensor cell of the machine page grid.
///
/// `points` are `(timestamp, value)` ascending; `anomalies` are the
/// timestamps flagged by the detector (must be a subset of the points'
/// timestamps to be drawn). Appends a standalone `<svg>` fragment to `out`.
pub fn sparkline(
    out: &mut String,
    points: &[(u64, f64)],
    anomalies: &[u64],
    width: u32,
    height: u32,
    cfg: &ChartConfig,
) {
    document(out, width, height).children(|out| {
        if points.is_empty() {
            return;
        }
        let x = LinearScale::from_values(
            points.iter().map(|p| p.0 as f64),
            2.0,
            width as f64 - 2.0,
            0.0,
        );
        let y =
            LinearScale::from_values(points.iter().map(|p| p.1), height as f64 - 3.0, 3.0, 0.15);
        el::polyline(
            out,
            points.iter().map(|&(t, v)| (x.map(t as f64), y.map(v))),
        )
        .attr("stroke", &cfg.series_color)
        .attr("stroke-width", "1.5")
        .attr("stroke-linejoin", "round")
        .empty();
        let anomaly_set: std::collections::HashSet<u64> = anomalies.iter().copied().collect();
        for &(t, v) in points {
            if anomaly_set.contains(&t) {
                el::circle(out, x.map(t as f64), y.map(v), 3.5)
                    .attr("fill", &cfg.anomaly_color)
                    .attr("stroke", &cfg.surface_color)
                    .attr("stroke-width", "2")
                    .children(|out| el::title(out, format_args!("anomaly at t={t}, value {v:.2}")));
            }
        }
    });
}

/// The drill-down detail chart: axes with ticks, the full series, anomaly
/// markers with tooltips, and a caption. `title` names the sensor.
/// Appends a standalone `<svg>` fragment to `out`.
pub fn detail_chart(
    out: &mut String,
    title: impl std::fmt::Display,
    points: &[(u64, f64)],
    anomalies: &[u64],
    width: u32,
    height: u32,
    cfg: &ChartConfig,
) {
    const M_LEFT: f64 = 48.0;
    const M_RIGHT: f64 = 12.0;
    const M_TOP: f64 = 28.0;
    const M_BOTTOM: f64 = 28.0;
    document(out, width, height).children(|out| {
        // Title in primary ink.
        el::text(out, M_LEFT, 18.0)
            .attr("fill", "var(--text-primary)")
            .attr("font-size", "13")
            .attr("font-weight", "600")
            .text(title);
        if points.is_empty() {
            el::text(out, width as f64 / 2.0, height as f64 / 2.0)
                .attr("fill", &cfg.label_color)
                .attr("text-anchor", "middle")
                .text("no data");
            return;
        }
        let x = LinearScale::from_values(
            points.iter().map(|p| p.0 as f64),
            M_LEFT,
            width as f64 - M_RIGHT,
            0.0,
        );
        let y = LinearScale::from_values(
            points.iter().map(|p| p.1),
            height as f64 - M_BOTTOM,
            M_TOP,
            0.1,
        );
        // Recessive grid + tick labels in secondary ink.
        let (y_ticks, x_ticks) = (y.ticks(4), x.ticks(6));
        el::group(out)
            .attr("stroke", &cfg.grid_color)
            .attr("stroke-width", "1")
            .children(|out| {
                for &tick in &y_ticks {
                    let py = y.map(tick);
                    el::line(out, M_LEFT, py, width as f64 - M_RIGHT, py).empty();
                }
            });
        el::group(out)
            .attr("fill", &cfg.label_color)
            .attr("font-size", "10")
            .children(|out| {
                for &tick in &y_ticks {
                    el::text(out, M_LEFT - 6.0, y.map(tick) + 3.0)
                        .attr("text-anchor", "end")
                        .text(format_args!("{tick:.1}"));
                }
                for &tick in &x_ticks {
                    el::text(out, x.map(tick), height as f64 - M_BOTTOM + 16.0)
                        .attr("text-anchor", "middle")
                        .text(format_args!("{tick:.0}"));
                }
            });
        // Series line (2px per mark spec).
        el::polyline(
            out,
            points.iter().map(|&(t, v)| (x.map(t as f64), y.map(v))),
        )
        .attr("stroke", &cfg.series_color)
        .attr("stroke-width", "2")
        .attr("stroke-linejoin", "round")
        .empty();
        // Anomaly markers with tooltips and a surface ring.
        let anomaly_set: std::collections::HashSet<u64> = anomalies.iter().copied().collect();
        for &(t, v) in points {
            if anomaly_set.contains(&t) {
                el::circle(out, x.map(t as f64), y.map(v), 4.5)
                    .attr("fill", &cfg.anomaly_color)
                    .attr("stroke", &cfg.surface_color)
                    .attr("stroke-width", "2")
                    .children(|out| el::title(out, format_args!("anomaly at t={t}, value {v:.3}")));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: u64) -> Vec<(u64, f64)> {
        (0..n).map(|t| (t, (t as f64 * 0.3).sin())).collect()
    }

    fn spark(points: &[(u64, f64)], anomalies: &[u64]) -> String {
        let mut out = String::new();
        sparkline(
            &mut out,
            points,
            anomalies,
            320,
            48,
            &ChartConfig::default(),
        );
        out
    }

    fn detail(title: &str, points: &[(u64, f64)], anomalies: &[u64]) -> String {
        let cfg = ChartConfig::default();
        let mut out = String::new();
        detail_chart(&mut out, title, points, anomalies, 640, 240, &cfg);
        out
    }

    #[test]
    fn sparkline_contains_line_and_markers() {
        let s = spark(&pts(50), &[10, 20]);
        assert!(s.contains("<polyline"));
        assert_eq!(s.matches("<circle").count(), 2);
        assert!(s.contains("anomaly at t=10"));
        assert!(s.contains("var(--status-critical)"));
    }

    #[test]
    fn sparkline_without_anomalies_has_no_markers() {
        let s = spark(&pts(20), &[]);
        assert!(!s.contains("<circle"));
    }

    #[test]
    fn empty_sparkline_is_valid_svg() {
        let s = spark(&[], &[100]);
        assert!(s.starts_with("<svg"));
        assert!(!s.contains("polyline"));
    }

    #[test]
    fn anomaly_not_in_points_is_not_drawn() {
        let s = spark(&pts(10), &[999]);
        assert!(!s.contains("<circle"));
    }

    #[test]
    fn detail_chart_has_axes_title_and_markers() {
        let s = detail("sensor 917", &pts(100), &[30]);
        assert!(s.contains("sensor 917"));
        assert!(s.contains("<line"), "grid lines expected");
        assert!(s.contains("text-anchor"));
        assert!(s.contains("anomaly at t=30"));
        // Text wears ink tokens, not the series color.
        assert!(s.contains("var(--text-secondary)"));
    }

    #[test]
    fn detail_chart_empty_shows_placeholder() {
        let s = detail("s", &[], &[]);
        assert!(s.contains("no data"));
    }

    #[test]
    fn marker_coordinates_inside_viewbox() {
        let s = spark(&pts(50), &[0, 49]);
        // Extract cx values and check bounds.
        for cap in s.split("cx=\"").skip(1) {
            let v: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=320.0).contains(&v), "cx {v} outside");
        }
        for cap in s.split("cy=\"").skip(1) {
            let v: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=48.0).contains(&v), "cy {v} outside");
        }
    }
}
