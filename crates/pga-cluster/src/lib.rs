//! Simulated cluster substrate.
//!
//! The paper runs on a 32-node HDFS/HBase/OpenTSDB deployment (§III-A):
//! region servers with RPC queues, coordinated through Apache ZooKeeper,
//! fronted by a reverse proxy for backpressure. This crate provides the
//! equivalent building blocks for an in-process cluster:
//!
//! * [`rpc`] — typed RPC servers backed by real threads and **bounded**
//!   request queues. Queue overflow is a first-class event: sustained
//!   overload *crashes* the server, reproducing the paper's §III-B finding
//!   that "Regionservers \[crash\] due to overloaded RPC Queues" when no
//!   backpressure is applied.
//! * [`coordinator`] — a ZooKeeper analog: a namespace of znodes with
//!   ephemeral ownership, session leases and heartbeats, used by the
//!   storage master for liveness detection and leader election.
//! * [`sim`] — a deterministic discrete-time queueing simulator for
//!   cluster-scale experiments (10–70 nodes). Experiments that sweep node
//!   counts beyond the host's core count (Fig. 2 reproduction, salting and
//!   proxy ablations) use this model, fed with *real* per-server key
//!   routing shares computed by the storage layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod rpc;
pub mod sim;

pub use coordinator::{Coordinator, CoordinatorError, SessionId};
pub use rpc::{
    default_clock_ms, ClockMs, PendingReply, RpcError, RpcHandle, RpcServerBuilder, RpcStats,
    ServerState, FULL_QUEUE_RETRY_AFTER_MS,
};
pub use sim::{
    hotspot_shares, simulate_ingestion, simulate_overload, uniform_shares, IngestReport,
    OverloadConfig, OverloadMode, OverloadReport, ProxyMode, SimClusterConfig, SimServerState,
};

/// Identifier of a node (region server / TSD daemon) in the cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}
