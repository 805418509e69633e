//! Fleet telemetry for the power-grid ingestion architecture.
//!
//! The paper provisions its HBase/OpenTSDB cluster statically (29 region
//! servers, §III-A); this crate is how an operator sees that fleet. One
//! metric table ([`METRICS`]) declares every per-node metric, and the
//! per-node [`NodeStats`] sample, the fleet folds
//! ([`FleetSnapshot::fold`]), the `/cluster` tiles and the `/metrics`
//! exposition are all derived from it. The layers that own the counters
//! keep their own atomics; [`collect_node_stats`] (storage nodes) and the
//! platform monitor's front-end sample read them directly, with no RPC to
//! the node being measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod telemetry;

pub use telemetry::{collect_node_stats, FleetSnapshot, Metric, MetricDef, NodeStats, METRICS};
