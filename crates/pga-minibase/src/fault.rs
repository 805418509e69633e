//! Injectable fault plane for deterministic simulation testing.
//!
//! Every hook has a faithful no-op default ([`NoFaults`]), so production
//! code paths behave identically unless a harness (the `pga-faultsim`
//! crate) installs a plane via [`crate::Master::set_fault_plane`]. The
//! hooks sit at the exact protocol points where a real deployment can
//! fail:
//!
//! * [`FaultPlane::skip_wal_append`] — models the "ack before the WAL
//!   append is durable" protocol bug (seeded mutant A).
//! * [`FaultPlane::skip_crash_replay`] — models recovery that forgets to
//!   replay the unflushed WAL tail (seeded mutant B).
//! * [`FaultPlane::drop_memstore_on_move`] — models a migration that ships
//!   store files but loses the memstore (seeded mutant C).
//! * [`FaultPlane::tear_wal`] — mutates the encoded WAL bytes observed at
//!   crash-recovery time, modelling a torn/truncated tail from a record
//!   that was in flight when the process died.
//! * [`FaultPlane::skew_ms`] — skews the clock a node stamps on its
//!   coordinator heartbeats, modelling clock drift that can expire a
//!   healthy lease.
//! * [`FaultPlane::drop_ship`] — loses a replication ship in transit
//!   while the follower stays live, modelling a
//!   transient partition on the ship path.
//! * [`FaultPlane::allow_ship_gap`] — a follower accepts ships past a
//!   missing batch, leaving a hole in its WAL (seeded mutant D: the
//!   gapped follower reports the highest applied sequence and would be
//!   promoted over replicas that actually hold every acked write).
//! * [`FaultPlane::drop_sealed_overlap`] — the compaction rewriter drops
//!   raw cells overlapping an already-sealed block instead of merging
//!   them (seeded mutant E: late-arriving points vanish at the next
//!   compaction).
//! * [`FaultPlane::scribble_repair`] — corrupts the bytes a scrub repair
//!   fetched from a peer while they are in flight, modelling the
//!   transit/bit-rot window between fetch and install. The faithful
//!   scrubber's pre-install CRC re-verification rejects the scribbled
//!   payload.
//! * [`FaultPlane::skip_repair_verify`] — the scrubber installs a fetched
//!   repair payload **without** re-verifying its CRC first (seeded mutant
//!   F: a corrupt fetch becomes a corrupt "repair" and the quarantine
//!   entry is cleared over bad bytes).

use std::sync::Arc;

use pga_cluster::NodeId;

use crate::region::RegionId;

/// Shared handle to a fault plane (cloned into every region and master).
pub type FaultHandle = Arc<dyn FaultPlane>;

/// Injection points consulted by the live storage stack. All methods
/// default to the faithful behaviour; implementations must be cheap and
/// deterministic — they run inside the serving path.
pub trait FaultPlane: Send + Sync + std::fmt::Debug {
    /// When `true`, the region acks a `put_batch` **without** appending to
    /// the WAL (deliberately broken durability — mutant A).
    fn skip_wal_append(&self, _region: RegionId) -> bool {
        false
    }

    /// When `true`, crash recovery skips replaying the unflushed WAL tail
    /// into the rebuilt memstore (deliberately broken recovery — mutant B).
    fn skip_crash_replay(&self, _region: RegionId) -> bool {
        false
    }

    /// When `true`, a master-driven migration drops the region's memstore
    /// instead of shipping it (deliberately broken migration — mutant C).
    fn drop_memstore_on_move(&self, _region: RegionId) -> bool {
        false
    }

    /// Mutate the encoded WAL bytes a recovering region reads back, e.g.
    /// append a partial record or truncate the tail. The decoder must
    /// recover exactly the durable prefix regardless.
    fn tear_wal(&self, _region: RegionId, _encoded: &mut Vec<u8>) {}

    /// Skew the timestamp `node` stamps on coordinator heartbeats.
    /// Returning a value in the past makes the node's lease appear stale.
    fn skew_ms(&self, _node: NodeId, now_ms: u64) -> u64 {
        now_ms
    }

    /// When `true`, the next replication ship to a copy of `region` is
    /// lost in transit: the follower stays live but never applies the
    /// batch, and the shipper sees an unusable answer (no quorum vote) —
    /// the transient loss that the follower's contiguity check must
    /// surface as a gap on the *next* ship.
    fn drop_ship(&self, _region: RegionId) -> bool {
        false
    }

    /// When `true`, a follower applies shipped batches without the WAL
    /// contiguity check, silently retaining holes (deliberately broken
    /// replication — mutant D).
    fn allow_ship_gap(&self, _region: RegionId) -> bool {
        false
    }

    /// When `true`, a follower flips a bit of the first value of each
    /// batch shipped to it before it applies the batch (deliberately
    /// broken replication — mutant G): its copy holds every key the
    /// primary does, some with another value.
    fn flip_shipped_value(&self, _region: RegionId) -> bool {
        false
    }

    /// When `true`, the compaction rewriter drops raw cells that overlap
    /// an existing sealed block instead of merging them — the "the block
    /// is already complete" bug that silently loses late-arriving points
    /// (deliberately broken compaction — mutant E).
    fn drop_sealed_overlap(&self, _region: RegionId) -> bool {
        false
    }

    /// Mutate repair bytes fetched from a peer before the scrubber gets
    /// to verify/install them — the in-flight corruption window. The
    /// faithful repair path must catch any change here by CRC
    /// re-verification and refuse the install.
    fn scribble_repair(&self, _region: RegionId, _value: &mut Vec<u8>) {}

    /// When `true`, the scrubber installs fetched repair bytes without
    /// re-verifying their checksum first (deliberately broken repair —
    /// mutant F).
    fn skip_repair_verify(&self, _region: RegionId) -> bool {
        false
    }

    /// Observation tap, not an injection: the scrubber reports every
    /// repair payload it actually installs, so a harness can check the
    /// "installed repairs are always checksum-valid" invariant from
    /// outside the repair path.
    fn observe_repair_install(&self, _region: RegionId, _value: &[u8]) {}
}

/// The faithful plane: every hook is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultPlane for NoFaults {}

/// The default shared handle used when no harness is attached.
pub fn no_faults() -> FaultHandle {
    Arc::new(NoFaults)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_faithful() {
        let plane = no_faults();
        assert!(!plane.skip_wal_append(RegionId(1)));
        assert!(!plane.skip_crash_replay(RegionId(1)));
        assert!(!plane.drop_memstore_on_move(RegionId(1)));
        let mut bytes = vec![1, 2, 3];
        plane.tear_wal(RegionId(1), &mut bytes);
        assert_eq!(bytes, vec![1, 2, 3]);
        assert_eq!(plane.skew_ms(NodeId(0), 42), 42);
        assert!(!plane.drop_ship(RegionId(1)));
        assert!(!plane.allow_ship_gap(RegionId(1)));
        assert!(!plane.drop_sealed_overlap(RegionId(1)));
        let mut repair = vec![9, 8, 7];
        plane.scribble_repair(RegionId(1), &mut repair);
        assert_eq!(repair, vec![9, 8, 7]);
        assert!(!plane.skip_repair_verify(RegionId(1)));
        plane.observe_repair_install(RegionId(1), &repair); // no-op tap
    }
}
