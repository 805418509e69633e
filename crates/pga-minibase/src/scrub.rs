//! Background scrub, quarantine, and replica-backed repair.
//!
//! Closes the corruption loop the storage tier only half-had: sealed
//! blocks and store files *detect* bit rot (CRC-32 everywhere), but a
//! detected-corrupt span used to stay broken forever even when a
//! byte-identical healthy copy sat on a follower one RPC away. The
//! pieces here:
//!
//! * [`CellVerifier`] — pluggable integrity check for stored cells. The
//!   storage tier cannot decode sealed blocks itself (the block codec
//!   lives a layer up in `pga-tsdb`), so the verifier is injected, the
//!   same inversion as [`crate::rewrite::CompactionRewriter`].
//! * [`ScrubState`] — the shared quarantine set and counters. Fed from
//!   two sides: the read path (a query that trips over a corrupt block)
//!   and the background scrub walk.
//! * [`scrub_tick`] — one low-priority pass, designed to ride the
//!   compaction cadence: walk every hosted copy verifying covered cells,
//!   then try to repair each quarantined span from the best healthy copy
//!   ([`pga_repl::rank_repair_sources`]): fetch via the epoch-fenced
//!   `RepairFetch` RPC, re-verify the fetched bytes (repairs must
//!   round-trip the checksum **before** install — skipping this is
//!   seeded mutant F), install on every stale copy with the `Repair`
//!   RPC, which each copy fences by the fetch-time epoch, and only then
//!   clear the quarantine entry. A span with no healthy copy stays quarantined
//!   and is retried next tick; reads of it keep returning typed errors,
//!   never silent holes.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::client::Client;
use crate::fault::FaultHandle;
use crate::kv::{CellRef, RowRange};
use crate::master::{locate, Master};
use crate::server::{Request, Response};

/// Pluggable integrity checker for stored cells. Implementations must be
/// cheap, deterministic and side-effect free — they run inside scrub
/// walks and repair installs.
pub trait CellVerifier: Send + Sync + std::fmt::Debug {
    /// Does this verifier understand the cell (e.g. a sealed block)?
    /// Uncovered cells are skipped, not counted.
    fn covers(&self, cell: CellRef<'_>) -> bool;
    /// Is a covered cell's payload intact? `false` quarantines it.
    fn verify(&self, cell: CellRef<'_>) -> bool;
}

/// Shared handle to a cell verifier.
pub type VerifierHandle = Arc<dyn CellVerifier>;

/// What one region scrub pass found.
#[derive(Debug, Default)]
pub struct ScrubFinding {
    /// Covered cells checked.
    pub scanned: u64,
    /// Keys whose payload failed verification.
    pub corrupt: Vec<(Bytes, Bytes)>,
}

/// `(row, qualifier)` of a quarantined cell. Rows are globally unique
/// across regions (regions partition the row space), so no region id is
/// needed — and must not be, because a key stays quarantined across
/// splits and moves.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct QuarantineKey {
    /// Row key.
    pub row: Bytes,
    /// Column qualifier.
    pub qualifier: Bytes,
}

/// Shared quarantine set plus monotonic scrub counters. One per
/// deployment, shared between the read path (which quarantines on a
/// corrupt read) and the background scrubber (which detects and
/// repairs).
#[derive(Debug, Default)]
pub struct ScrubState {
    quarantine: Mutex<BTreeSet<QuarantineKey>>,
    /// Covered cells verified across all scrub walks.
    pub cells_scrubbed: AtomicU64,
    /// Distinct corrupt keys ever quarantined.
    pub corrupt_found: AtomicU64,
    /// Repairs installed after checksum round-trip.
    pub repairs_ok: AtomicU64,
    /// Fetched payloads rejected by pre-install verification.
    pub repairs_rejected: AtomicU64,
    /// Scrub ticks run.
    pub scrub_ticks: AtomicU64,
}

impl ScrubState {
    /// Fresh shared state.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Quarantine a key. Returns `true` when newly added. Never retries
    /// the corrupt bytes blindly and never forgets: only a verified
    /// repair install ([`ScrubState::clear`]) removes an entry.
    pub fn quarantine(&self, row: Bytes, qualifier: Bytes) -> bool {
        let newly = self
            .quarantine
            .lock()
            .insert(QuarantineKey { row, qualifier });
        if newly {
            self.corrupt_found.fetch_add(1, Ordering::Relaxed);
        }
        newly
    }

    /// Remove a repaired key.
    pub fn clear(&self, key: &QuarantineKey) {
        self.quarantine.lock().remove(key);
    }

    /// Is the key currently quarantined?
    pub fn is_quarantined(&self, row: &[u8], qualifier: &[u8]) -> bool {
        self.quarantine
            .lock()
            .iter()
            .any(|k| k.row == row && k.qualifier == qualifier)
    }

    /// Snapshot of the current quarantine set, sorted.
    pub fn quarantined(&self) -> Vec<QuarantineKey> {
        self.quarantine.lock().iter().cloned().collect()
    }

    /// Number of quarantined keys.
    pub fn len(&self) -> usize {
        self.quarantine.lock().len()
    }

    /// Whether the quarantine is empty.
    pub fn is_empty(&self) -> bool {
        self.quarantine.lock().is_empty()
    }
}

/// Outcome of one [`scrub_tick`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubTickReport {
    /// Covered cells verified this tick.
    pub cells_scrubbed: u64,
    /// Keys newly quarantined by this walk.
    pub newly_quarantined: u64,
    /// Quarantined keys repaired and cleared this tick.
    pub repairs_installed: u64,
    /// Fetched payloads rejected by pre-install verification.
    pub repairs_rejected: u64,
    /// Quarantined keys with no verifiable copy reachable this tick
    /// (left quarantined for the next tick).
    pub repairs_unavailable: u64,
    /// Quarantine size after the tick.
    pub quarantined_after: u64,
}

/// The smallest range containing exactly `row`: `[row, row ++ 0x00)`.
fn single_row_range(row: &[u8]) -> RowRange {
    let mut end = row.to_vec();
    end.push(0);
    RowRange::new(row.to_vec(), end)
}

/// One background scrub pass over the whole deployment: detect, then
/// repair. See the module docs for the protocol; the fault plane is
/// consulted only at the seeded-mutant hooks and the repair-install
/// observation tap, so production callers pass [`crate::no_faults`].
pub fn scrub_tick(
    master: &Master,
    client: &Client,
    verifier: &VerifierHandle,
    state: &ScrubState,
    fault: &FaultHandle,
) -> ScrubTickReport {
    let mut report = ScrubTickReport::default();
    state.scrub_ticks.fetch_add(1, Ordering::Relaxed);

    // Detect: one scrub walk over every hosted copy on every live node.
    // Dead and stopped nodes are skipped — their copies are the failover
    // machinery's problem.
    for node in master.live_nodes() {
        let Some(server) = master.server(node) else {
            continue;
        };
        let Ok(Response::Scrubbed(finding)) =
            server.handle().call(Request::Scrub(verifier.clone()))
        else {
            continue;
        };
        report.cells_scrubbed += finding.scanned;
        for (row, qualifier) in finding.corrupt {
            if state.quarantine(row, qualifier) {
                report.newly_quarantined += 1;
            }
        }
    }
    state
        .cells_scrubbed
        .fetch_add(report.cells_scrubbed, Ordering::Relaxed);

    // Repair: for each quarantined key, fetch the span from every copy
    // (epoch-fenced), rank the answers, and take the first payload that
    // survives re-verification. Install on every stale copy, then clear.
    for key in state.quarantined() {
        let range = single_row_range(&key.row);
        let info = locate(&master.directory(), &key.row);
        let Some(info) = info else {
            report.repairs_unavailable += 1;
            continue;
        };
        let copies = client.repair_fetch(&range);
        let ranked = pga_repl::rank_repair_sources(
            copies
                .iter()
                .map(|c| pga_repl::RepairSource {
                    node: u64::from(c.node.0),
                    applied_seq: c.applied_seq,
                    primary: c.node == info.server,
                })
                .collect(),
        );
        let mut candidate: Option<Bytes> = None;
        for source in ranked.iter().take(pga_repl::MAX_REPAIR_ATTEMPTS_PER_TICK) {
            let Some(copy) = copies.iter().find(|c| u64::from(c.node.0) == source.node) else {
                continue;
            };
            let Some(cell) = copy
                .cells
                .iter()
                .find(|kv| kv.row == key.row && kv.qualifier == key.qualifier)
            else {
                continue;
            };
            // The in-flight corruption window between fetch and install.
            let mut value = cell.value.to_vec();
            fault.scribble_repair(info.id, &mut value);
            let patched = CellRef {
                value: &value,
                ..CellRef::from(cell)
            };
            // Repairs must round-trip the checksum before install —
            // skipping this re-verification is seeded mutant F.
            if fault.skip_repair_verify(info.id) || verifier.verify(patched) {
                candidate = Some(Bytes::from(value));
                break;
            }
            report.repairs_rejected += 1;
            state.repairs_rejected.fetch_add(1, Ordering::Relaxed);
        }
        match candidate {
            Some(value) => {
                // Fence the install: a promotion between fetch and
                // install makes `info` stale — the payload was fetched
                // under `info.epoch`, and installing it onto a replica
                // set chosen under a newer epoch could resurrect bytes
                // the promoted primary never served. Leave the key
                // quarantined and retry next tick under the fresh view.
                let current = locate(&master.directory(), &key.row);
                if current.map(|c| c.epoch) != Some(info.epoch) {
                    report.repairs_unavailable += 1;
                    continue;
                }
                // Each copy fences the install again, against the epoch
                // the payload was fetched under.
                fault.observe_repair_install(info.id, &value);
                for node in info.replicas() {
                    let repair = Request::Repair(info.id, info.epoch, key.clone(), value.clone());
                    let _ = master.server(node).map(|s| s.handle().call(repair));
                }
                state.clear(&key);
                state.repairs_ok.fetch_add(1, Ordering::Relaxed);
                report.repairs_installed += 1;
            }
            None => report.repairs_unavailable += 1,
        }
    }
    report.quarantined_after = state.len() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_set_semantics() {
        let state = ScrubState::new();
        assert!(state.is_empty());
        assert!(state.quarantine(Bytes::copy_from_slice(b"r1"), Bytes::copy_from_slice(b"q1")));
        assert!(
            !state.quarantine(Bytes::copy_from_slice(b"r1"), Bytes::copy_from_slice(b"q1")),
            "re-quarantine is idempotent"
        );
        assert!(state.quarantine(Bytes::copy_from_slice(b"r2"), Bytes::copy_from_slice(b"q1")));
        assert_eq!(state.len(), 2);
        assert_eq!(state.corrupt_found.load(Ordering::Relaxed), 2);
        assert!(state.is_quarantined(b"r1", b"q1"));
        assert!(!state.is_quarantined(b"r1", b"q2"));
        let key = QuarantineKey {
            row: Bytes::copy_from_slice(b"r1"),
            qualifier: Bytes::copy_from_slice(b"q1"),
        };
        state.clear(&key);
        assert_eq!(state.len(), 1);
        assert!(!state.is_quarantined(b"r1", b"q1"));
    }

    #[test]
    fn single_row_range_contains_only_that_row() {
        let r = single_row_range(b"abc");
        assert!(r.contains(b"abc"));
        assert!(!r.contains(b"abd"));
        assert!(!r.contains(b"ab"));
        // The zero-extended successor is excluded too.
        assert!(!r.contains(b"abc\x00"));
    }
}
