//! Region replication protocol for the minibase storage tier.
//!
//! The source paper's storage substrate descends from HBase/OpenTSDB,
//! where each region is served by exactly one server: a crash means the
//! region is unavailable until the master's lease recovery notices, and
//! the always-on dashboards the paper assumes go dark for the whole lease
//! window. This crate holds the *protocol* side of the fix — the pure,
//! mechanism-free rules for quorum-acked WAL shipping, epoch fencing,
//! hedged scans, and failover promotion. The *mechanism* (region servers that apply shipped WAL,
//! clients that collect quorums, a master that promotes) lives in
//! `pga-minibase`, which depends on this crate; keeping the protocol
//! dependency-free lets the master, the client, and the fault simulator
//! all evaluate the same rules without import cycles.
//!
//! Protocol summary:
//!
//! * Every replicated region has one **primary** and `factor - 1`
//!   **followers**, each on a distinct server. The region's route entry
//!   carries an **epoch**; every write and ship is stamped with the epoch
//!   the writer believes is current, and replicas reject mismatches.
//! * A put is acknowledged only once a **write quorum** (majority of
//!   `factor`) has the batch durable in its WAL — the primary's own
//!   append plus `write_quorum - 1` follower ship-acks, tracked by
//!   [`QuorumTracker`].
//! * On primary failure the master promotes the **most-caught-up**
//!   surviving follower ([`choose_promotee`]) and bumps the epoch, so a
//!   deposed primary's acks can never reach quorum again (fencing).
//! * Scatter-gather scans **hedge** ([`HedgePolicy`]): when the primary
//!   is refused, late, or gone, the same scan is sent to a follower copy
//!   and the first copy that answers wins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lag;
pub mod promote;
pub mod quorum;
pub mod read;
pub mod repair;

pub use config::ReplicationConfig;
pub use lag::{LagBook, LagSnapshot};
pub use promote::choose_promotee;
pub use quorum::{QuorumDecision, QuorumTracker};
pub use read::HedgePolicy;
pub use repair::{rank_repair_sources, RepairSource, MAX_REPAIR_ATTEMPTS_PER_TICK};

/// Epoch (generation) number of a region's replication group. Bumped on
/// every promotion; replicas reject writes and ships stamped with any
/// other epoch, which fences a deposed primary out of the quorum.
pub type Epoch = u64;

/// A replica's role within a region's replication group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ReplicaRole {
    /// Serves writes, assigns WAL sequence ids, and is the scan authority.
    Primary,
    /// Applies shipped WAL and answers hedged scans.
    Follower,
}

/// Outcome of applying a primary-assigned WAL batch on a replica.
///
/// The promotion rule ([`choose_promotee`]) trusts a replica's applied
/// sequence as proof it holds *every* batch up to that sequence, so a
/// follower WAL must stay a contiguous prefix of the primary's: a ship
/// that would leave a hole is rejected as [`ShipOutcome::Gap`] and the
/// shipper backfills the missing batches before the follower may vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipOutcome {
    /// The batch extended the replica's WAL (`seq == last + 1`).
    Applied,
    /// Duplicate or stale ship (`seq <= last`) — already durable here,
    /// so the shipper may still count the replica toward the quorum.
    Stale,
    /// The ship would leave a sequence hole (`seq > last + 1`); nothing
    /// was applied. The shipper must backfill `(last, seq)` from the
    /// primary's WAL tail before this replica can vote.
    Gap,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_roundtrip_through_serde() {
        for role in [ReplicaRole::Primary, ReplicaRole::Follower] {
            let json = serde_json::to_string(&role).unwrap();
            let back: ReplicaRole = serde_json::from_str(&json).unwrap();
            assert_eq!(role, back);
        }
    }
}
