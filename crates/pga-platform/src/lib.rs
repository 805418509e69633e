//! The integrated PGA monitoring platform.
//!
//! This is the facade crate tying the reproduction together, mirroring the
//! paper's Figure 1 architecture:
//!
//! ```text
//!  fleet generator → reverse proxy → TSD daemons → MiniBase region servers
//!        (pga-sensorgen)  (pga-ingest)  (pga-tsdb)       (pga-minibase)
//!                                 │
//!                     query sensor windows back
//!                                 │
//!                 offline training + online FDR evaluation
//!                     (pga-dataflow, pga-detect, pga-stats)
//!                                 │
//!                anomalies written back to the TSDB and
//!                rendered in the dashboard (pga-viz)
//! ```
//!
//! [`Monitor`] drives the full loop; [`PlatformConfig`] sizes it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alerts;
mod config;
mod monitor;
mod routes;

pub use alerts::{rank_alerts, Alert};
pub use config::{PlatformConfig, QueryConfig};
pub use monitor::{AnomalyRecord, Monitor, MonitorError};
pub use routes::dashboard_routes;
