//! A model of the `pga-repl` replication protocol for the state-space
//! explorer: one primary plus two followers, quorum-acked puts shipped
//! as `ShipBatch`/`ShipAck` with droppable messages (seq gaps), WAL-tail
//! backfill, bounded primary crashes, and epoch-bumping promotion of the
//! most-caught-up live node — the protocol DESIGN.md §10 describes,
//! small enough to exhaust.
//!
//! What each transition mirrors in the running code, all requests served
//! by `pga-minibase/src/server.rs`'s `handle_request`:
//!
//! - ship delivery — the `Request::Ship` arm: compare epochs, then
//!   `apply_replicated`, answering `ShipAck` or `ShipGap` by contiguity;
//! - backfill — the `Request::WalTail` arm: compare epochs, then serve
//!   `wal_batches_after`;
//! - promotion — the master's failover sweep sends `Request::SetEpoch`
//!   to every surviving copy, which answers with its applied sequence,
//!   and `pga_repl::choose_promotee` picks the highest (ties to the
//!   lowest id); a region with no surviving copy is reopened by
//!   `Request::Open(_, Some(epoch))` under the bumped epoch, a path these
//!   budgets never reach (it needs every copy dead);
//! - votes — `pga_repl::QuorumTracker`.
//!
//! Checked invariants (every step and at quiescence):
//!
//! 1. **At most one primary per epoch** — promotion must fence the old
//!    epoch before a new primary serves it.
//! 2. **The primary's WAL is a contiguous prefix** — a gapped follower
//!    never wins promotion (contiguity is what makes `applied_seq` proof
//!    of holding every batch at or below it).
//! 3. **No acked write lost** — every client-acked sequence is present
//!    in the live primary's WAL.
//!
//! [`ReplMutant`] seeds the three protocol bugs the checker must catch;
//! the faithful model must pass its full bounded space. The default
//! config (2 puts, 1 primary crash, 1 dropped ship, quorum 2 of 3) stays
//! inside the loss the quorum tolerates — a second crash would lose
//! acked data *by design* (RF 3, W 2 survives one replica loss), which
//! is a config error, not a protocol bug.

use crate::interleave::Model;

/// Seeded protocol bugs. Each mirrors a discipline the real code earned
/// in PR 6 review: contiguity-checked ships, fenced promotion, and
/// quorum votes only from followers that actually hold the prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplMutant {
    /// The faithful protocol.
    None,
    /// Follower applies a non-contiguous ship (leaves a WAL hole) and
    /// acks as if caught up — the bug `ShipOutcome::Gap` exists to stop.
    GapTolerantFollower,
    /// Promotion installs a new primary without bumping the epoch — the
    /// old epoch now has two primaries in history.
    PromotionWithoutFencing,
    /// Follower answers `ShipGap` (does not apply) but the shipper counts
    /// its vote anyway — acks can then cover writes no live replica holds.
    QuorumCountsGapped,
}

/// Replica count. Fixed: 3 is the smallest fleet where quorum, lag, and
/// promotion choice all diverge.
const N: usize = 3;

/// Model configuration: transition budgets and the seeded mutant.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationModel {
    /// Client puts to issue (each consumes one WAL sequence).
    pub max_puts: u8,
    /// Primary crashes the adversary may inject.
    pub crash_budget: u8,
    /// Ship messages the adversary may drop in flight.
    pub drop_budget: u8,
    /// Votes (including the primary's own) required to ack a put.
    pub quorum: u8,
    /// Which protocol bug, if any, is seeded.
    pub mutant: ReplMutant,
}

impl ReplicationModel {
    /// The faithful protocol under the default budgets.
    pub fn faithful() -> Self {
        ReplicationModel {
            max_puts: 2,
            crash_budget: 1,
            drop_budget: 1,
            quorum: 2,
            mutant: ReplMutant::None,
        }
    }

    /// The default budgets with `mutant` seeded.
    pub fn with_mutant(mutant: ReplMutant) -> Self {
        ReplicationModel {
            mutant,
            ..ReplicationModel::faithful()
        }
    }
}

/// One per-sequence quorum tracker (mirrors `pga_repl::QuorumTracker`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PendingSeq {
    /// 1-based WAL sequence.
    seq: u8,
    /// Bitmask of nodes whose durability vote the client has counted.
    votes: u8,
    /// Already acknowledged to the client?
    acked: bool,
}

/// Full protocol state. WALs are bitmasks (bit `s-1` = sequence `s`
/// present), so budgets must keep sequences ≤ 8.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplState {
    alive: [bool; N],
    /// Epoch each node believes is current (fencing compares against it).
    node_epoch: [u8; N],
    wal: [u8; N],
    /// Next sequence the shipper will send to each node.
    cursor: [u8; N],
    primary: u8,
    epoch: u8,
    next_seq: u8,
    puts_done: u8,
    pending: Vec<PendingSeq>,
    /// Client-acknowledged sequences, in ack order.
    acked: Vec<u8>,
    /// Every `(epoch, node)` that has ever served as primary.
    primaries_seen: Vec<(u8, u8)>,
    crashes_left: u8,
    drops_left: u8,
}

fn bit(seq: u8) -> u8 {
    1u8 << (seq - 1)
}

/// Length of the contiguous prefix: `0b0111` → 3, `0b0101` → 1.
fn prefix_len(mask: u8) -> u8 {
    mask.trailing_ones() as u8
}

fn contiguous(mask: u8) -> bool {
    mask & mask.wrapping_add(1) == 0
}

/// Highest sequence present, 0 when empty.
fn highest(mask: u8) -> u8 {
    8 - mask.leading_zeros() as u8
}

impl ReplicationModel {
    /// The applied sequence node `j` *reports* in acks and promotion
    /// surveys. Faithfully that is the contiguous prefix; the
    /// gap-tolerant mutant believes its highest applied batch implies
    /// everything below it.
    fn reported_applied(&self, s: &ReplState, j: usize) -> u8 {
        if self.mutant == ReplMutant::GapTolerantFollower {
            highest(s.wal[j])
        } else {
            prefix_len(s.wal[j])
        }
    }

    /// Count node `j`'s durability vote for every pending sequence at or
    /// below `through` (a `ShipAck { applied_seq }` covers all of them).
    fn vote(s: &mut ReplState, j: usize, through: u8) {
        for p in &mut s.pending {
            if p.seq <= through {
                p.votes |= 1 << j;
            }
        }
    }

    fn ship_ready(&self, s: &ReplState, j: usize) -> bool {
        let p = s.primary as usize;
        j != p
            && s.alive[j]
            && s.alive[p]
            && s.node_epoch[j] == s.epoch
            && s.cursor[j] < s.next_seq
            && s.wal[p] & bit(s.cursor[j]) != 0
    }
}

/// Thread layout: 0 = put, 1–3 = deliver ship to node `tid-1`,
/// 4–6 = drop ship to node `tid-4`, 7–9 = backfill node `tid-7`,
/// 10 = ack, 11 = crash primary, 12 = promote.
impl Model for ReplicationModel {
    type State = ReplState;

    fn name(&self) -> &'static str {
        match self.mutant {
            ReplMutant::None => "replication-faithful",
            ReplMutant::GapTolerantFollower => "replication-gap-tolerant",
            ReplMutant::PromotionWithoutFencing => "replication-unfenced-promotion",
            ReplMutant::QuorumCountsGapped => "replication-gapped-quorum",
        }
    }

    fn threads(&self) -> usize {
        4 + 3 * N
    }

    fn init(&self) -> ReplState {
        ReplState {
            alive: [true; N],
            node_epoch: [1; N],
            wal: [0; N],
            cursor: [1; N],
            primary: 0,
            epoch: 1,
            next_seq: 1,
            puts_done: 0,
            pending: Vec::new(),
            acked: Vec::new(),
            primaries_seen: vec![(1, 0)],
            crashes_left: self.crash_budget,
            drops_left: self.drop_budget,
        }
    }

    fn finished(&self, s: &ReplState, tid: usize) -> bool {
        // Actor model: an actor is done exactly when it has nothing left
        // to do, so quiescence = no enabled actions and "deadlock" cannot
        // be misreported.
        !self.enabled(s, tid)
    }

    fn enabled(&self, s: &ReplState, tid: usize) -> bool {
        let p = s.primary as usize;
        match tid {
            0 => s.alive[p] && s.puts_done < self.max_puts,
            1..=3 => self.ship_ready(s, tid - 1),
            4..=6 => s.drops_left > 0 && self.ship_ready(s, tid - 4),
            7..=9 => {
                let j = tid - 7;
                j != p
                    && s.alive[j]
                    && s.alive[p]
                    && s.node_epoch[j] == s.epoch
                    && s.wal[p] & !s.wal[j] != 0
            }
            10 => s
                .pending
                .iter()
                .any(|q| !q.acked && q.votes.count_ones() >= u32::from(self.quorum)),
            11 => s.crashes_left > 0 && s.alive[p],
            12 => !s.alive[p] && s.alive.iter().any(|&a| a),
            _ => false,
        }
    }

    fn step(&self, s: &mut ReplState, tid: usize) {
        let p = s.primary as usize;
        match tid {
            // Client put: primary appends and votes for itself.
            0 => {
                let seq = s.next_seq;
                s.wal[p] |= bit(seq);
                s.pending.push(PendingSeq {
                    seq,
                    votes: 1 << p,
                    acked: false,
                });
                s.next_seq += 1;
                s.puts_done += 1;
            }
            // Ship delivery: contiguity decides apply vs gap.
            1..=3 => {
                let j = tid - 1;
                let seq = s.cursor[j];
                s.cursor[j] += 1;
                if seq == prefix_len(s.wal[j]) + 1 || s.wal[j] & bit(seq) != 0 {
                    // In-order (or duplicate) ship: apply and ack with the
                    // applied position.
                    s.wal[j] |= bit(seq);
                    Self::vote(s, j, self.reported_applied(s, j));
                } else {
                    match self.mutant {
                        // Faithful: ShipGap — refuse the hole, no vote;
                        // the backfill path heals it.
                        ReplMutant::None | ReplMutant::PromotionWithoutFencing => {}
                        // Bug: apply around the hole and ack as caught-up.
                        ReplMutant::GapTolerantFollower => {
                            s.wal[j] |= bit(seq);
                            Self::vote(s, j, self.reported_applied(s, j));
                        }
                        // Bug: refuse the hole but the shipper counts the
                        // ShipGap answer as a durability vote anyway.
                        ReplMutant::QuorumCountsGapped => {
                            Self::vote(s, j, seq);
                        }
                    }
                }
            }
            // Adversary drops the in-flight ship.
            4..=6 => {
                s.cursor[tid - 4] += 1;
                s.drops_left -= 1;
            }
            // WalTail backfill from the primary: copy everything it has,
            // fast-forward the ship cursor, vote for the healed position.
            7..=9 => {
                let j = tid - 7;
                s.wal[j] |= s.wal[p];
                s.cursor[j] = s.next_seq;
                Self::vote(s, j, self.reported_applied(s, j));
            }
            // Client acks the lowest quorum-satisfied put.
            10 => {
                if let Some(q) = s
                    .pending
                    .iter_mut()
                    .filter(|q| !q.acked && q.votes.count_ones() >= u32::from(self.quorum))
                    .min_by_key(|q| q.seq)
                {
                    q.acked = true;
                    let seq = q.seq;
                    s.acked.push(seq);
                }
            }
            // Adversary crashes the primary.
            11 => {
                s.alive[p] = false;
                s.crashes_left -= 1;
            }
            // Master promotes the most-caught-up live node (ties to the
            // lowest id), fences the new epoch onto every live node, and
            // re-syncs the survivors to the new primary's WAL.
            12 => {
                let chosen = (0..N)
                    .filter(|&j| s.alive[j])
                    .max_by_key(|&j| (self.reported_applied(s, j), std::cmp::Reverse(j)))
                    .expect("enabled() guarantees a live node");
                if self.mutant != ReplMutant::PromotionWithoutFencing {
                    s.epoch += 1;
                    for j in 0..N {
                        if s.alive[j] {
                            s.node_epoch[j] = s.epoch;
                        }
                    }
                }
                s.primary = chosen as u8;
                s.primaries_seen.push((s.epoch, chosen as u8));
                // The new primary's WAL is authoritative: unacked tail
                // sequences above it are aborted, survivors re-sync.
                s.next_seq = highest(s.wal[chosen]) + 1;
                let authoritative = s.wal[chosen];
                for j in 0..N {
                    if j != chosen && s.alive[j] {
                        s.wal[j] &= authoritative;
                    }
                    s.cursor[j] = s.next_seq;
                }
                s.pending
                    .retain(|q| q.acked || authoritative & bit(q.seq) != 0);
            }
            _ => unreachable!("thread id out of range"),
        }
    }

    fn check(&self, s: &ReplState, _quiescent: bool) -> Result<(), String> {
        // (1) At most one primary per epoch.
        for (i, &(e1, n1)) in s.primaries_seen.iter().enumerate() {
            for &(e2, n2) in &s.primaries_seen[i + 1..] {
                if e1 == e2 && n1 != n2 {
                    return Err(format!(
                        "two primaries in epoch {e1}: node {n1} and node {n2} — promotion must fence the old epoch"
                    ));
                }
            }
        }
        let p = s.primary as usize;
        if s.alive[p] {
            // (2) The serving primary's WAL is a contiguous prefix.
            if !contiguous(s.wal[p]) {
                return Err(format!(
                    "primary node {p} serves a gapped WAL (mask {:#010b}) — a gapped follower won promotion",
                    s.wal[p]
                ));
            }
            // (3) No acked write lost.
            for &a in &s.acked {
                if s.wal[p] & bit(a) == 0 {
                    return Err(format!(
                        "acked write seq {a} lost: not in primary node {p}'s WAL (mask {:#010b})",
                        s.wal[p]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::explore_dedup;

    #[test]
    fn faithful_passes_default_budgets() {
        let out = explore_dedup(&ReplicationModel::faithful());
        assert!(out.passed(), "faithful model failed: {out:?}");
    }

    #[test]
    fn prefix_and_contiguity_math() {
        assert_eq!(prefix_len(0b0111), 3);
        assert_eq!(prefix_len(0b0101), 1);
        assert_eq!(prefix_len(0), 0);
        assert!(contiguous(0b0011));
        assert!(contiguous(0));
        assert!(!contiguous(0b0101));
        assert_eq!(highest(0b0100), 3);
        assert_eq!(highest(0), 0);
    }
}
