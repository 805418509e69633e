//! Simulated cluster substrate.
//!
//! The paper runs on a 32-node HDFS/HBase/OpenTSDB deployment (§III-A):
//! region servers with RPC queues, coordinated through Apache ZooKeeper,
//! fronted by a reverse proxy for backpressure. This crate provides the
//! equivalent building blocks for an in-process cluster:
//!
//! * [`rpc`] — typed RPC servers backed by real threads and **bounded**
//!   request queues. A full queue makes a blocking caller wait
//!   (backpressure) and refuses a non-blocking send with a typed `Busy`;
//!   a server stops only when it is shut down.
//! * [`coordinator`] — a ZooKeeper analog reduced to what the storage
//!   master uses for liveness: session leases, heartbeats, and ephemeral
//!   znodes that vanish when their session's lease lapses.
//! * [`sim`] — a deterministic discrete-time queueing simulator for
//!   cluster-scale experiments (10–70 nodes). Experiments that sweep node
//!   counts beyond the host's core count (Fig. 2 reproduction, salting and
//!   proxy ablations) use this model, fed with *real* per-server key
//!   routing shares computed by the storage layer. It is also where the
//!   paper's §III-B finding that "Regionservers \[crash\] due to
//!   overloaded RPC Queues" without backpressure is reproduced.

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
