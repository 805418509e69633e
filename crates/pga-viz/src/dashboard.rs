//! Dashboard page assembly: the machine page (Figure 3) and the fleet
//! overview.

use std::fmt::{Display, Write};

use serde::{Deserialize, Serialize};

use crate::charts::{detail_chart, sparkline, ChartConfig};
use crate::svg::escape_into;

/// Health state of a unit, driven by the detector's flags. Maps to the
/// reserved status palette and is always shown with a text label (never
/// color alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Health {
    /// No active anomalies.
    Good,
    /// A small number of flagged sensors.
    Warning,
    /// Many flagged sensors or a persistent fault.
    Critical,
}

impl Health {
    /// CSS custom property carrying this state's color.
    pub fn color_var(self) -> &'static str {
        match self {
            Health::Good => "var(--status-good)",
            Health::Warning => "var(--status-warning)",
            Health::Critical => "var(--status-critical)",
        }
    }

    /// Text label (the non-color channel).
    pub fn label(self) -> &'static str {
        match self {
            Health::Good => "healthy",
            Health::Warning => "warning",
            Health::Critical => "critical",
        }
    }

    /// Classify from the number of currently flagged sensors.
    pub fn from_flag_count(flags: usize) -> Health {
        match flags {
            0 => Health::Good,
            1..=3 => Health::Warning,
            _ => Health::Critical,
        }
    }
}

/// One unit's summary line in the fleet overview / status bar.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitStatus {
    /// Unit id.
    pub unit: u32,
    /// Health state.
    pub health: Health,
    /// Currently flagged sensors.
    pub flagged_sensors: usize,
    /// Most recent anomaly timestamp, if any.
    pub last_anomaly: Option<u64>,
}

/// One sensor's panel on the machine page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensorPanel {
    /// Sensor id.
    pub sensor: u32,
    /// `(timestamp, value)` points, ascending.
    pub points: Vec<(u64, f64)>,
    /// Flagged timestamps.
    pub anomalies: Vec<u64>,
}

/// Input to the machine page (Figure 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachinePage {
    /// Unit shown.
    pub unit: u32,
    /// Health summary.
    pub status: UnitStatus,
    /// Sensor panels (typically the most interesting subset).
    pub panels: Vec<SensorPanel>,
    /// Index into `panels` of the drill-down detail view, if any.
    pub detail: Option<usize>,
}

/// Input to the fleet overview.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetOverview {
    /// Every unit's status.
    pub units: Vec<UnitStatus>,
    /// Global ingest rate (samples/sec) for the analytics strip.
    pub ingest_rate: f64,
    /// Global evaluation rate (samples/sec) for the analytics strip.
    pub eval_rate: f64,
}

/// Palette + base styles shared by every page: light and dark values of a
/// validated palette, swapped via `prefers-color-scheme`.
pub const STYLE: &str = r#"
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #e3e2de;
  --series-1: #2a78d6;
  --status-good: #0ca30c; --status-warning: #fab219; --status-critical: #d03b3b;
  background: var(--surface-1); color: var(--text-primary);
  font-family: system-ui, -apple-system, sans-serif;
  margin: 0; padding: 16px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --surface-2: #383835;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #3a3a37;
    --series-1: #3987e5;
  }
}
h1 { font-size: 18px; margin: 0 0 4px 0; }
h2 { font-size: 14px; margin: 16px 0 8px 0; color: var(--text-secondary); }
.statusbar { display: flex; gap: 12px; align-items: center; padding: 10px 12px;
  background: var(--surface-2); border-radius: 8px; margin: 12px 0; flex-wrap: wrap; }
.statusbar .pill { display: inline-flex; align-items: center; gap: 6px;
  font-size: 13px; color: var(--text-primary); }
.dot { width: 10px; height: 10px; border-radius: 50%; display: inline-block; }
.grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(340px, 1fr)); gap: 10px; }
.panel { background: var(--surface-2); border-radius: 6px; padding: 8px; }
.panel .label { font-size: 12px; color: var(--text-secondary); margin-bottom: 2px;
  display: flex; justify-content: space-between; }
.detail { margin-top: 16px; background: var(--surface-2); border-radius: 8px; padding: 12px; }
a { color: var(--series-1); text-decoration: none; }
table.units { border-collapse: collapse; width: 100%; font-size: 13px; }
table.units th, table.units td { text-align: left; padding: 6px 10px;
  border-bottom: 1px solid var(--grid); }
table.units th { color: var(--text-secondary); font-weight: 600; }
.analytics { display: flex; gap: 24px; margin: 12px 0; }
.stat { background: var(--surface-2); border-radius: 8px; padding: 12px 16px; }
.stat .v { font-size: 22px; font-weight: 700; }
.stat .k { font-size: 12px; color: var(--text-secondary); }
"#;

/// Append the page head and the opening `<body>`; [`page_end`] closes.
pub(crate) fn page_start(out: &mut String, title: impl Display) {
    out.push_str(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\
         <title>",
    );
    escape_into(out, title);
    out.push_str("</title><style>");
    out.push_str(STYLE);
    out.push_str("</style></head><body class=\"viz-root\">");
}

/// Close the page [`page_start`] opened.
pub(crate) fn page_end(out: &mut String) {
    out.push_str("</body></html>");
}

/// Append formatted text to a page.
fn put(out: &mut String, args: std::fmt::Arguments) {
    out.write_fmt(args).expect("a String takes any write");
}

fn status_pill(out: &mut String, status: &UnitStatus) {
    put(
        out,
        format_args!(
            "<span class=\"pill\"><span class=\"dot\" style=\"background:{}\"></span>\
             unit {} &middot; {} &middot; {} flagged</span>",
            status.health.color_var(),
            status.unit,
            status.health.label(),
            status.flagged_sensors
        ),
    );
}

/// Render the machine page (Figure 3): status bar, sparkline grid with
/// anomalies flagged in red, optional drill-down detail chart. Every
/// chart is written straight into the page.
pub fn machine_page(page: &MachinePage) -> String {
    let cfg = ChartConfig::default();
    let detail = page.detail.and_then(|idx| page.panels.get(idx));
    // About 14 bytes a sparkline point, 20 a detail point, 700 a panel.
    let points: usize = page.panels.iter().map(|p| p.points.len()).sum();
    let mut html = String::with_capacity(
        STYLE.len()
            + 4096
            + 700 * page.panels.len()
            + 14 * points
            + detail.map_or(0, |p| 4096 + 20 * p.points.len()),
    );
    let out = &mut html;
    page_start(out, format_args!("Machine {}", page.unit));
    put(
        out,
        format_args!("<h1>Machine {}</h1><div class=\"statusbar\">", page.unit),
    );
    status_pill(out, &page.status);
    if let Some(t) = page.status.last_anomaly {
        put(
            out,
            format_args!("<span class=\"pill\">last anomaly at t={t}</span>"),
        );
    }
    out.push_str("</div><h2>Sensor readings</h2><div class=\"grid\">");
    for panel in &page.panels {
        put(
            out,
            format_args!(
                "<div class=\"panel\"><div class=\"label\"><span>sensor {}</span><span>",
                panel.sensor
            ),
        );
        if !panel.anomalies.is_empty() {
            put(out, format_args!("{} anomalies", panel.anomalies.len()));
        }
        out.push_str("</span></div>");
        sparkline(out, &panel.points, &panel.anomalies, 340, 48, &cfg);
        out.push_str("</div>");
    }
    out.push_str("</div>");
    if let Some(panel) = detail {
        out.push_str("<div class=\"detail\">");
        detail_chart(
            out,
            format_args!("sensor {} — detail", panel.sensor),
            &panel.points,
            &panel.anomalies,
            900,
            260,
            &cfg,
        );
        out.push_str("</div>");
    }
    // Accessibility: a table view of the same data, so nothing is
    // conveyed by the charts alone.
    out.push_str(
        "<details><summary>Data table</summary>\
         <table class=\"units\"><tr><th>sensor</th><th>latest value</th>\
         <th>min</th><th>max</th><th>anomalies</th></tr>",
    );
    for panel in &page.panels {
        let latest = panel.points.last().map_or(f64::NAN, |p| p.1);
        let min = panel
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min);
        let max = panel
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max);
        put(
            out,
            format_args!(
                "<tr><td>{}</td><td>{latest:.3}</td><td>{min:.3}</td><td>{max:.3}</td><td>{}</td></tr>",
                panel.sensor,
                panel.anomalies.len()
            ),
        );
    }
    out.push_str("</table></details>");
    page_end(out);
    html
}

/// Render the fleet overview: analytics strip plus a unit table with
/// status dots, labels and links to machine pages.
pub fn fleet_overview_page(overview: &FleetOverview) -> String {
    let good = overview
        .units
        .iter()
        .filter(|u| u.health == Health::Good)
        .count();
    let warning = overview
        .units
        .iter()
        .filter(|u| u.health == Health::Warning)
        .count();
    let critical = overview
        .units
        .iter()
        .filter(|u| u.health == Health::Critical)
        .count();
    let mut body = String::new();
    page_start(&mut body, "Fleet overview");
    body.push_str("<h1>Fleet overview</h1>");
    body.push_str(&format!(
        "<div class=\"analytics\">\
         <div class=\"stat\"><div class=\"v\">{:.0}</div><div class=\"k\">samples/sec ingested</div></div>\
         <div class=\"stat\"><div class=\"v\">{:.0}</div><div class=\"k\">samples/sec evaluated</div></div>\
         <div class=\"stat\"><div class=\"v\">{}</div><div class=\"k\">units healthy</div></div>\
         <div class=\"stat\"><div class=\"v\">{}</div><div class=\"k\">units warning</div></div>\
         <div class=\"stat\"><div class=\"v\">{}</div><div class=\"k\">units critical</div></div>\
         </div>",
        overview.ingest_rate, overview.eval_rate, good, warning, critical
    ));
    body.push_str(
        "<table class=\"units\"><tr><th>unit</th><th>status</th>\
         <th>flagged sensors</th><th>last anomaly</th><th></th></tr>",
    );
    for u in &overview.units {
        body.push_str(&format!(
            "<tr><td>{}</td>\
             <td><span class=\"dot\" style=\"background:{}\"></span> {}</td>\
             <td>{}</td><td>{}</td>\
             <td><a href=\"/machine/{}\">view</a></td></tr>",
            u.unit,
            u.health.color_var(),
            u.health.label(),
            u.flagged_sensors,
            u.last_anomaly
                .map(|t| format!("t={t}"))
                .unwrap_or_else(|| "—".into()),
            u.unit
        ));
    }
    body.push_str("</table>");
    page_end(&mut body);
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_page() -> MachinePage {
        MachinePage {
            unit: 80,
            status: UnitStatus {
                unit: 80,
                health: Health::Warning,
                flagged_sensors: 2,
                last_anomaly: Some(412),
            },
            panels: vec![
                SensorPanel {
                    sensor: 0,
                    points: (0..50).map(|t| (t, t as f64)).collect(),
                    anomalies: vec![40, 41],
                },
                SensorPanel {
                    sensor: 1,
                    points: (0..50).map(|t| (t, 1.0)).collect(),
                    anomalies: vec![],
                },
            ],
            detail: Some(0),
        }
    }

    #[test]
    fn machine_page_structure() {
        let html = machine_page(&sample_page());
        assert!(html.contains("<h1>Machine 80</h1>"));
        assert!(html.contains("statusbar"));
        assert!(html.contains("sensor 0"));
        assert!(html.contains("sensor 1"));
        assert!(html.contains("2 anomalies"));
        assert!(html.contains("sensor 0 — detail"));
        assert!(html.contains("last anomaly at t=412"));
        // Health label present as text, not just color.
        assert!(html.contains("warning"));
        // Dark-mode palette defined.
        assert!(html.contains("prefers-color-scheme: dark"));
        // Mobile viewport (the paper's §V-A mobile access).
        assert!(html.contains("viewport"));
    }

    #[test]
    fn machine_page_includes_data_table_view() {
        let html = machine_page(&sample_page());
        assert!(html.contains("<details><summary>Data table</summary>"));
        // One row per panel plus the header.
        assert!(html.matches("<tr>").count() >= 3);
        // The anomalous panel's count appears.
        assert!(html.contains("<td>2</td>"));
    }

    #[test]
    fn machine_page_without_detail() {
        let mut p = sample_page();
        p.detail = None;
        let html = machine_page(&p);
        assert!(!html.contains("detail</h"));
        assert!(!html.contains("— detail"));
    }

    #[test]
    fn detail_index_out_of_bounds_is_ignored() {
        let mut p = sample_page();
        p.detail = Some(99);
        let html = machine_page(&p);
        assert!(!html.contains("— detail"));
    }

    #[test]
    fn health_classification() {
        assert_eq!(Health::from_flag_count(0), Health::Good);
        assert_eq!(Health::from_flag_count(1), Health::Warning);
        assert_eq!(Health::from_flag_count(3), Health::Warning);
        assert_eq!(Health::from_flag_count(4), Health::Critical);
    }

    #[test]
    fn fleet_overview_counts_and_links() {
        let overview = FleetOverview {
            units: vec![
                UnitStatus {
                    unit: 0,
                    health: Health::Good,
                    flagged_sensors: 0,
                    last_anomaly: None,
                },
                UnitStatus {
                    unit: 1,
                    health: Health::Critical,
                    flagged_sensors: 8,
                    last_anomaly: Some(99),
                },
                UnitStatus {
                    unit: 2,
                    health: Health::Good,
                    flagged_sensors: 0,
                    last_anomaly: None,
                },
            ],
            ingest_rate: 399_000.0,
            eval_rate: 939_000.0,
        };
        let html = fleet_overview_page(&overview);
        assert!(html.contains("399000"));
        assert!(html.contains("939000"));
        assert!(html.contains(">2</div><div class=\"k\">units healthy"));
        assert!(html.contains(">1</div><div class=\"k\">units critical"));
        assert!(html.contains("href=\"/machine/1\""));
        assert!(html.contains("t=99"));
        assert!(html.contains("—"));
    }

    #[test]
    fn pages_are_self_contained_html() {
        let html = machine_page(&sample_page());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>"));
        assert!(html.contains("<style>"));
    }
}
