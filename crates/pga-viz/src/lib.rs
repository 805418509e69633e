//! Anomaly visualization — the paper's §V dashboard, rendered as static
//! HTML + SVG by a Rust library instead of a JS web app.
//!
//! Figure 3's machine page is reproduced faithfully in structure:
//!
//! * a **status bar** summarising unit health at the top ("unit status is
//!   summarized neatly into a single status bar"),
//! * a grid of **compact sparkline charts**, one per sensor, with
//!   "anomalies annotated directly" in the critical status color,
//! * a **drill-down detail chart** ("operators can click on anomalies
//!   which surfaces a detailed view of the sensor data").
//!
//! A fleet overview page plays the role of the global control center, and
//! [`server::DashboardServer`] serves both over HTTP so the dashboard is
//! reachable from desktop and mobile browsers alike (§V-A).
//!
//! Styling follows a validated light/dark palette: one series hue for
//! sensor traces, reserved status colors (never reused as series colors)
//! for health states, text in ink tokens rather than series colors, and
//! native `<title>` tooltips on anomaly markers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charts;
pub mod cluster;
pub mod dashboard;
pub mod heatmap;
pub mod scale;
pub mod server;
pub mod svg;

pub use charts::{detail_chart, sparkline, ChartConfig};
pub use cluster::{cluster_page, ClusterNodeRow, ClusterView, StatTile};
pub use dashboard::{
    fleet_overview_page, machine_page, FleetOverview, Health, MachinePage, SensorPanel, UnitStatus,
};
pub use heatmap::{anomaly_heatmap, HeatmapData};
pub use scale::LinearScale;
pub use server::{DashboardServer, HttpRequest, HttpResponse};
