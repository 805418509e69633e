//! Elastic control plane for the power-grid ingestion architecture.
//!
//! The paper provisions its HBase/OpenTSDB cluster statically (29 region
//! servers, §III-A) and demonstrates both linear scale-up (~11k samples
//! /sec/node, Fig. 2) and the failure mode of undersizing: unthrottled
//! writes overflow a region server's RPC queue until it crashes (§III-B).
//! This crate closes the loop between those two observations: it watches
//! per-node telemetry and grows or shrinks the cluster so the fleet stays
//! on the linear-scaling line without entering the overload regime.
//!
//! Three layers:
//!
//! * [`telemetry`] — one metric table ([`METRICS`]) from which the
//!   per-node [`NodeStats`] record, its `/stats` JSON, the fleet folds
//!   ([`telemetry::FleetSnapshot::fold`]), the `/cluster` tiles and the
//!   `/metrics` exposition are all derived. The layers that own the
//!   counters keep their own atomics; [`collect_node_stats`] (storage
//!   nodes) and the platform monitor's front-end sample read them, and
//!   samples are published as ephemeral znodes under `/stats`;
//! * [`policy`] — the pluggable [`policy::ScalingPolicy`] trait with a
//!   hysteresis default (EMA smoothing, high/low water marks, K
//!   consecutive ticks, cooldown) plus a hot-region detector proposing
//!   migrations;
//! * [`elastic`] — a deterministic discrete-time elastic-cluster simulator
//!   (the E16 vehicle) and [`controller`] — the same loop run against the
//!   real in-process [`pga_minibase::Master`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod elastic;
pub mod policy;
pub mod telemetry;

pub use controller::{collect_node_stats, ControlReport, ElasticController};
pub use elastic::{run_elastic, ElasticRunReport, ElasticSimConfig, ScaleEvent};
pub use policy::{
    ClusterObservation, HysteresisConfig, HysteresisPolicy, ScalingDecision, ScalingPolicy,
    StaticPolicy,
};
pub use telemetry::{FleetSnapshot, Metric, MetricDef, NodeStats, METRICS};
