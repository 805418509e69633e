//! Routing client: groups batches by region, retries on stale directory.
//!
//! Every region is a replication group — a single-copy region is a group
//! of one — and the client runs the protocol inside [`Client::put`]: the
//! batch goes to the primary under the group's epoch (one durable vote),
//! ships to every follower under the primary-assigned WAL sequence, and
//! the put is acknowledged only once a write quorum of copies is durable.
//! Epoch fencing keeps a deposed primary's acks out of the quorum.
//! Read-side, scans go to the primary; a hedged scan
//! ([`Client::scan_hedged`]) fails a shard over to a follower copy when
//! its primary is slow or gone.
//!
//! Three scans exist: the blocking [`Client::scan_spec`] (a full queue
//! makes it wait), the admitted [`Client::send_scan_admitted`] (a full
//! queue refuses it with `Busy`) and the hedged scan. Admitted and hedged
//! scans come in two steps: the send step queues one request per
//! overlapping region and returns a [`PendingScan`], and its wait step
//! collects the replies. A caller with several scans to make sends them
//! all before it waits on any, so the region servers — each its own
//! thread — serve them at once.

use std::collections::HashMap;
use std::sync::Arc;

use crate::batch::PutBatch;
use crate::kv::{CellRef, KeyValue, RowRange, ScanSpec};
use crate::master::{Directory, Master, RegionInfo};
use crate::scanner::ScanCells;
use crate::server::{Request, Response};
use crate::wal::MAX_KEY_LEN;
use pga_cluster::rpc::{PendingReply, RpcError, RpcHandle};
use pga_cluster::NodeId;
use pga_repl::{LagBook, QuorumDecision, QuorumTracker};

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No region covers the row (directory empty or table missing).
    NoRegionForRow(Vec<u8>),
    /// RPC to a region server failed.
    Rpc(RpcError),
    /// A read found the server's queue full; retry after the hinted
    /// delay.
    Busy {
        /// Suggested minimum backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before the server served it.
    DeadlineExpired,
    /// Routing kept failing after directory refreshes.
    RetriesExhausted,
    /// A replicated put could not reach its write quorum (replicas dead,
    /// fenced, or unreachable) even after directory refreshes. The batch
    /// was NOT acknowledged; resubmitting it whole is safe — any copies
    /// that did land are idempotent (same row/qualifier/timestamp).
    NoQuorum,
    /// A put held a row key or qualifier longer than the write-ahead log
    /// can hold ([`MAX_KEY_LEN`] bytes). Nothing of it was sent.
    KeyTooLong {
        /// The longest key's length.
        len: usize,
    },
}

impl ClientError {
    /// Retry hint if this is a `Busy` rejection.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Busy { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NoRegionForRow(r) => write!(f, "no region for row {r:?}"),
            ClientError::Rpc(e) => write!(f, "rpc error: {e}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms}ms")
            }
            ClientError::DeadlineExpired => write!(f, "deadline expired before service"),
            ClientError::RetriesExhausted => write!(f, "routing retries exhausted"),
            ClientError::NoQuorum => write!(f, "replicated put failed to reach write quorum"),
            ClientError::KeyTooLong { len } => {
                write!(f, "a {len}-byte key exceeds the WAL's {MAX_KEY_LEN}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

fn map_rpc(e: RpcError) -> ClientError {
    match e {
        RpcError::Busy { retry_after_ms } => ClientError::Busy { retry_after_ms },
        RpcError::DeadlineExpired => ClientError::DeadlineExpired,
        other => ClientError::Rpc(other),
    }
}

/// Join per-region scan answers — each sorted, handed over in directory
/// order — into one sorted answer. Regions partition the row space, so only
/// the seams are compared: the last cell of one answer against the first of
/// the next. A directory caught mid-split can hand back overlapping
/// answers, and only then are the cells sorted, by reference (stably: the
/// result is what sorting the concatenation gives in every case).
pub fn concat_region_scans(parts: Vec<ScanCells>) -> ScanCells {
    let mut out = ScanCells::default();
    let mut in_order = true;
    for part in parts {
        in_order &= part.is_empty() || out.last() <= part.first();
        out.append(part);
    }
    if in_order {
        return out;
    }
    let mut cells: Vec<(CellRef<'_>, &Arc<PutBatch>, usize)> = out
        .runs()
        .iter()
        .flat_map(|(batch, range)| range.clone().map(move |at| (batch.cell(at), batch, at)))
        .collect();
    cells.sort_by_key(|&(cell, ..)| cell);
    let mut sorted = ScanCells::default();
    for (_, batch, at) in cells {
        sorted.push(batch, at..at + 1);
    }
    sorted
}

/// A region server's answer to one shard scan. No cells when a split raced
/// the scan — the daughters are in the directory and cover the range.
fn scan_cells(answer: Result<Response, RpcError>) -> Result<ScanCells, RpcError> {
    match answer? {
        Response::Cells(cells) => Ok(cells),
        Response::WrongRegion => Ok(ScanCells::default()),
        _ => Err(RpcError::Stopped),
    }
}

/// Shard scans sent and not yet awaited ([`Client::send_scan_admitted`],
/// [`Client::send_scan_hedged`]): one reply per overlapping region, in
/// directory order.
pub struct PendingScan<'c> {
    client: &'c Client,
    regions: Vec<(RegionInfo, Result<PendingReply<Response>, RpcError>)>,
    /// For a hedged scan, the spec and deadline its followers answer under.
    hedge: Option<(ScanSpec, Option<u64>)>,
}

impl PendingScan<'_> {
    /// Collect the replies in directory order into what the blocking scan
    /// returns: the first region that fails — refused at send time or
    /// failed in service — is the error, unless a hedged scan's follower
    /// answers for it.
    pub fn wait(self) -> Result<ScanCells, ClientError> {
        let mut parts = Vec::with_capacity(self.regions.len());
        for (info, sent) in self.regions {
            let primary_err = match sent.and_then(|reply| scan_cells(reply.wait())) {
                Ok(cells) => {
                    parts.push(cells);
                    continue;
                }
                Err(e) => e,
            };
            let Some((scan, deadline_ms)) = &self.hedge else {
                return Err(map_rpc(primary_err));
            };
            // Hedge: first follower copy that answers wins.
            let hedged = info
                .followers
                .iter()
                .find_map(|&f| self.client.scan_follower(&info, f, scan, *deadline_ms));
            match hedged {
                Some(cells) => {
                    self.client.repl.record_hedged_scan();
                    parts.push(cells);
                }
                None => return Err(map_rpc(primary_err)),
            }
        }
        Ok(concat_region_scans(parts))
    }
}

/// A MiniBase client bound to one in-process cluster.
///
/// Holds the shared directory plus each server's RPC handle. Batched puts
/// are grouped per region so one RPC carries many cells — the behaviour
/// OpenTSDB relies on for throughput.
pub struct Client {
    directory: Directory,
    handles: HashMap<NodeId, RpcHandle<Request, Response>>,
    max_retries: usize,
    /// Replication health observed by this client (lag per region,
    /// fence rejections, hedged scans) — telemetry scrapes it.
    repl: Arc<LagBook>,
}

/// One copy's answer to a scrub repair fetch ([`Client::repair_fetch`]).
#[derive(Debug, Clone)]
pub struct RepairCopy {
    /// Node hosting the copy.
    pub node: NodeId,
    /// The copy's last durable WAL sequence (source-ranking input).
    pub applied_seq: u64,
    /// Cells in the requested span on this copy.
    pub cells: Vec<KeyValue>,
}

/// Outcome of one replicated-put attempt (internal).
enum ReplPut {
    /// Quorum durable; the batch is acknowledged.
    Done,
    /// Stale view — re-locate and retry the cells. `quorum` marks a
    /// genuine quorum shortfall (dead/unreachable followers) as opposed
    /// to fencing or mis-routing, so exhaustion can report `NoQuorum`.
    Refresh {
        /// Whether the failure was a quorum shortfall.
        quorum: bool,
        /// The batch, back for the retry.
        batch: PutBatch,
    },
}

impl Client {
    /// Build a client from a master (grabs every live server handle).
    pub fn connect(master: &Master) -> Self {
        let mut handles = HashMap::new();
        for node in master.live_nodes() {
            if let Some(s) = master.server(node) {
                handles.insert(node, s.handle());
            }
        }
        Client {
            directory: master.directory(),
            handles,
            max_retries: 3,
            repl: Arc::new(LagBook::new()),
        }
    }

    /// The replication-health ledger this client maintains (shared with
    /// telemetry exporters).
    pub fn repl_book(&self) -> Arc<LagBook> {
        self.repl.clone()
    }

    /// Write a batch of cells, routing each run of it to its region.
    /// Returns the number of cells written. A full server queue applies
    /// backpressure by making this call wait. A batch with a key longer
    /// than [`MAX_KEY_LEN`] is refused whole before anything is sent.
    pub fn put(&self, batch: impl Into<PutBatch>) -> Result<usize, ClientError> {
        let mut pending = batch.into();
        let total = pending.len();
        let len = pending.longest_key();
        if len > MAX_KEY_LEN {
            return Err(ClientError::KeyTooLong { len });
        }
        let mut quorum_failed = false;
        for _attempt in 0..=self.max_retries {
            if pending.is_empty() {
                return Ok(total);
            }
            // Group by region under one read of the current directory (an
            // entry carries the primary and any follower copies). The
            // guard is gone before the first RPC, which then leave in
            // directory order.
            let groups: Vec<(RegionInfo, PutBatch)> = {
                let dir = self.directory.read();
                // Neighbouring runs mostly share a region: try the
                // previous run's entry before searching.
                let mut at = 0;
                let mut targets = Vec::with_capacity(pending.runs.len());
                for row in pending.rows() {
                    let serves = |info: &RegionInfo| info.range.contains(row);
                    if !dir.get(at).is_some_and(serves) {
                        at = dir
                            .iter()
                            .position(serves)
                            .ok_or_else(|| ClientError::NoRegionForRow(row.to_vec()))?;
                    }
                    targets.push(at);
                }
                let parts = std::mem::take(&mut pending).partition(&targets, dir.len());
                dir.iter()
                    .zip(parts)
                    .filter(|(_, batch)| !batch.is_empty())
                    .map(|(info, batch)| (info.clone(), batch))
                    .collect()
            };
            let mut retry = PutBatch::new();
            quorum_failed = false;
            for (info, batch) in groups {
                match self.put_replicated(&info, batch)? {
                    ReplPut::Done => {}
                    ReplPut::Refresh { quorum, batch } => {
                        quorum_failed |= quorum;
                        retry.append(batch);
                    }
                }
            }
            pending = retry;
        }
        if pending.is_empty() {
            Ok(total)
        } else if quorum_failed {
            Err(ClientError::NoQuorum)
        } else {
            Err(ClientError::RetriesExhausted)
        }
    }

    /// One put attempt under the directory's current view of the region's
    /// replication group: primary append (one vote), follower ships,
    /// quorum decision. A single-copy region is a group of one, so its
    /// put is the primary append alone, and the batch goes to the primary
    /// by value; a group with followers sends the primary a copy and
    /// ships one copy per follower. `Refresh` means the view was stale
    /// (fenced, mis-routed, or quorum short) and hands the batch back —
    /// a refusing primary returns it in its answer — so the caller
    /// re-locates and retries it, which is safe because shipped copies
    /// are idempotent.
    fn put_replicated(&self, info: &RegionInfo, batch: PutBatch) -> Result<ReplPut, ClientError> {
        // The effective write quorum was resolved from the deployment's
        // ReplicationConfig when the table was created and rides on the
        // directory entry — an explicit quorum == factor must bind here,
        // not be silently replaced by the default majority. A group with
        // no followers left (never replicated, or every follower pruned
        // and none re-forked yet) acks on its primary alone.
        let quorum = if info.followers.is_empty() {
            1
        } else {
            info.write_quorum.max(1)
        };
        let mut tracker = QuorumTracker::new(quorum);
        let handle = self
            .handles
            .get(&info.server)
            .ok_or(ClientError::Rpc(RpcError::Stopped))?;
        let (sent, batch) = match info.followers.is_empty() {
            true => (batch, PutBatch::new()),
            false => (batch.clone(), batch),
        };
        let req = Request::PutReplicated {
            region: info.id,
            epoch: info.epoch,
            batch: sent,
        };
        let seq = match handle.call(req) {
            Ok(Response::Appended { seq }) => {
                tracker.record_ack(info.server);
                seq
            }
            Ok(Response::PutRefused { fenced, batch }) => {
                if fenced.is_some() {
                    self.repl.record_fence_rejection();
                }
                return Ok(ReplPut::Refresh {
                    quorum: false,
                    batch,
                });
            }
            Ok(_) => return Err(ClientError::Rpc(RpcError::Stopped)),
            Err(e) => return Err(map_rpc(e)),
        };
        let mut applied = Vec::with_capacity(info.followers.len());
        for &follower in &info.followers {
            let Some(h) = self.handles.get(&follower) else {
                continue;
            };
            let req = Request::Ship {
                region: info.id,
                epoch: info.epoch,
                seq,
                batch: batch.clone(),
            };
            match h.call(req) {
                Ok(Response::ShipAck { applied_seq }) => {
                    tracker.record_ack(follower);
                    applied.push(applied_seq);
                }
                Ok(Response::ShipGap { applied_seq }) => {
                    // The follower refused to open a WAL hole: an earlier
                    // ship to it was lost (shed, partitioned, dropped).
                    // Backfill the missing batches from the primary's
                    // retained tail — a caught-up follower still earns
                    // its quorum vote for this batch.
                    if let Some(pos) = self.backfill_follower(info, follower, applied_seq, seq) {
                        tracker.record_ack(follower);
                        applied.push(pos);
                    }
                }
                Ok(Response::Fenced { epoch }) => {
                    tracker.record_fenced(epoch);
                    self.repl.record_fence_rejection();
                }
                // A mis-routed or otherwise unusable answer is no vote.
                Ok(_) => {}
                // A dead, partitioned, or saturated follower is no vote;
                // the quorum decision below settles the outcome.
                Err(_) => {}
            }
        }
        match tracker.decision() {
            QuorumDecision::Committed => {
                if let Some(&min_applied) = applied.iter().min() {
                    self.repl.observe(info.id.0, seq, min_applied);
                }
                Ok(ReplPut::Done)
            }
            QuorumDecision::Fenced(_) => Ok(ReplPut::Refresh {
                quorum: false,
                batch,
            }),
            QuorumDecision::Pending => Ok(ReplPut::Refresh {
                quorum: true,
                batch,
            }),
        }
    }

    /// Catch a gapped follower up from the primary's retained WAL tail.
    ///
    /// `follower_at` is the follower's contiguous position, `target_seq`
    /// the batch whose ship was refused as a gap. Reads the primary's
    /// tail past `follower_at`, verifies it runs contiguously from
    /// `follower_at + 1` through at least `target_seq`, and re-ships
    /// every batch in order. Returns the follower's new position once
    /// caught up; `None` when backfill could not complete — the tail was
    /// flushed away, the follower died or re-gapped mid-stream, or a
    /// promotion fenced the epoch. Failing is safe: the follower's WAL
    /// stays a contiguous prefix, so its applied sequence keeps honestly
    /// reporting what it holds and it simply casts no vote for this put.
    fn backfill_follower(
        &self,
        info: &RegionInfo,
        follower: NodeId,
        follower_at: u64,
        target_seq: u64,
    ) -> Option<u64> {
        let primary = self.handles.get(&info.server)?;
        let req = Request::WalTail {
            region: info.id,
            epoch: info.epoch,
            from_seq: follower_at,
        };
        let batches = match primary.call(req) {
            Ok(Response::WalBatches { batches }) => batches,
            _ => return None,
        };
        // The tail must cover (follower_at, target_seq] without holes;
        // anything short means the primary already flushed part of it.
        // Batches past target_seq (concurrent writers) ship too — their
        // own writers just collect Stale acks, which is harmless.
        let mut expect = follower_at + 1;
        for (s, _) in &batches {
            if *s != expect {
                return None;
            }
            expect += 1;
        }
        if expect <= target_seq {
            return None;
        }
        let h = self.handles.get(&follower)?;
        let mut position = follower_at;
        for (s, batch) in batches {
            let req = Request::Ship {
                region: info.id,
                epoch: info.epoch,
                seq: s,
                batch,
            };
            match h.call(req) {
                Ok(Response::ShipAck { applied_seq }) => position = applied_seq,
                _ => return None,
            }
        }
        (position >= target_seq).then_some(position)
    }

    /// Directory entries of the regions overlapping `rows`.
    fn regions_overlapping(&self, rows: &RowRange) -> Vec<RegionInfo> {
        let dir = self.directory.read();
        dir.iter()
            .filter(|i| i.range.overlaps(rows))
            .cloned()
            .collect()
    }

    /// Send one region's shard of `scan` to its primary under
    /// `deadline_ms`, refused with `Busy` if its queue is full.
    fn send_primary(
        &self,
        info: &RegionInfo,
        scan: &ScanSpec,
        deadline_ms: Option<u64>,
    ) -> Result<PendingReply<Response>, RpcError> {
        let handle = self.handles.get(&info.server).ok_or(RpcError::Stopped)?;
        let req = Request::Scan {
            region: info.id,
            scan: scan.clone(),
        };
        handle.send_with(req, deadline_ms)
    }

    /// The same shard from the follower copy on `node`; `None` when that
    /// copy cannot answer.
    fn scan_follower(
        &self,
        info: &RegionInfo,
        node: NodeId,
        scan: &ScanSpec,
        deadline_ms: Option<u64>,
    ) -> Option<ScanCells> {
        let req = Request::FollowerScan {
            region: info.id,
            scan: scan.clone(),
        };
        match self.handles.get(&node)?.call_with(req, deadline_ms) {
            Ok(Response::FollowerCells { cells, .. }) => Some(cells),
            _ => None,
        }
    }

    /// Send a non-blocking scan: one request per overlapping region, in
    /// directory order. A region whose server queue is full refuses its
    /// shard with [`ClientError::Busy`] instead of making the reader wait,
    /// and `deadline_ms` bounds how long a queued shard stays worth
    /// serving. Sending stops at the first region refused, as the
    /// blocking scan stops there; [`PendingScan::wait`] collects.
    pub fn send_scan_admitted(&self, scan: &ScanSpec, deadline_ms: Option<u64>) -> PendingScan<'_> {
        let mut regions = Vec::new();
        for info in self.regions_overlapping(scan.rows()) {
            let sent = self.send_primary(&info, scan, deadline_ms);
            let refused = sent.is_err();
            regions.push((info, sent));
            if refused {
                break;
            }
        }
        PendingScan {
            client: self,
            regions,
            hedge: None,
        }
    }

    /// Scan whole rows of a row range across every overlapping region,
    /// merged in order, into owned cells. What row compaction, scrub and
    /// the reference read path use: they need every cell of a row, not a
    /// window of it.
    pub fn scan(&self, range: &RowRange) -> Result<Vec<KeyValue>, ClientError> {
        Ok(self.scan_spec(&range.clone().into())?.to_vec())
    }

    /// Blocking scan of whatever `scan` selects (rows and, when set, the
    /// column window the region servers seek to): a full server queue
    /// makes this call wait.
    pub fn scan_spec(&self, scan: &ScanSpec) -> Result<ScanCells, ClientError> {
        let mut parts = Vec::new();
        for info in self.regions_overlapping(scan.rows()) {
            let handle = self
                .handles
                .get(&info.server)
                .ok_or(ClientError::Rpc(RpcError::Stopped))?;
            let req = Request::Scan {
                region: info.id,
                scan: scan.clone(),
            };
            parts.push(scan_cells(handle.call(req)).map_err(map_rpc)?);
        }
        Ok(concat_region_scans(parts))
    }

    /// Hedged scan: try each region's primary under `primary_deadline_ms`
    /// (set near the fleet's scan p99 — the hedge trigger), and when the
    /// primary is saturated, late, or gone, fail the shard over to its
    /// follower copies under `deadline_ms`. Unreplicated regions
    /// propagate the primary's error unchanged. A hedged answer may
    /// trail the primary by in-flight ships.
    pub fn scan_hedged(
        &self,
        scan: &ScanSpec,
        primary_deadline_ms: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> Result<ScanCells, ClientError> {
        self.send_scan_hedged(scan, primary_deadline_ms, deadline_ms)
            .wait()
    }

    /// The send step of [`Client::scan_hedged`]: one primary request per
    /// overlapping region under `primary_deadline_ms`. A primary that
    /// refuses or fails is failed over to its followers in the wait step.
    pub fn send_scan_hedged(
        &self,
        scan: &ScanSpec,
        primary_deadline_ms: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> PendingScan<'_> {
        let regions = self
            .regions_overlapping(scan.rows())
            .into_iter()
            .map(|info| {
                let sent = self.send_primary(&info, scan, primary_deadline_ms);
                (info, sent)
            })
            .collect();
        PendingScan {
            client: self,
            regions,
            hedge: Some((scan.clone(), deadline_ms)),
        }
    }

    /// Fetch a span from **every reachable copy** of the region(s)
    /// overlapping `range`, for scrub repair. Infallible by design: an
    /// unreachable, fenced, or mis-routed copy is simply absent from the
    /// answer — the scrubber treats "no verifiable copy" as
    /// repair-unavailable and retries next tick rather than erroring.
    /// Each fetch is epoch-fenced at the replica; on a fence the client
    /// refreshes its view from the shared directory and retries that
    /// copy once under the new epoch.
    pub fn repair_fetch(&self, range: &RowRange) -> Vec<RepairCopy> {
        let mut copies = Vec::new();
        for info in self.regions_overlapping(range) {
            let mut epoch = info.epoch;
            for node in info.replicas() {
                let Some(handle) = self.handles.get(&node) else {
                    continue;
                };
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    match handle.call_with(
                        Request::RepairFetch {
                            region: info.id,
                            range: range.clone(),
                            epoch,
                        },
                        None,
                    ) {
                        Ok(Response::RepairCells { cells, applied_seq }) => {
                            copies.push(RepairCopy {
                                node,
                                applied_seq,
                                cells,
                            });
                            break;
                        }
                        // Our epoch is stale (a promotion raced us):
                        // refresh from the master-updated directory and
                        // retry this copy once under the current epoch.
                        Ok(Response::Fenced { .. }) if attempts < 2 => {
                            let dir = self.directory.read();
                            if let Some(fresh) = dir.iter().find(|i| i.id == info.id) {
                                epoch = fresh.epoch;
                            } else {
                                break;
                            }
                        }
                        Ok(_) | Err(_) => break,
                    }
                }
            }
        }
        copies
    }

    /// Flush then major-compact every region copy — with a compaction
    /// rewriter installed this is what seals finished rows into columnar
    /// blocks. Follower copies compact too (the rewriter is deterministic,
    /// so copies holding the same cells seal byte-identical blocks): that
    /// keeps caught-up replicas comparable cell-for-cell *and* gives the
    /// scrub repair path block-for-block healthy sources to fetch from.
    pub fn compact_all(&self) -> Result<(), ClientError> {
        let infos: Vec<_> = self.directory.read().clone();
        for info in infos {
            for node in info.replicas() {
                if let Some(handle) = self.handles.get(&node) {
                    match handle.call(Request::Flush { region: info.id }) {
                        Ok(_) => {}
                        Err(e) => return Err(ClientError::Rpc(e)),
                    }
                    match handle.call(Request::Compact { region: info.id }) {
                        Ok(_) => {}
                        Err(e) => return Err(ClientError::Rpc(e)),
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::TableDescriptor;
    use crate::region::{RegionConfig, RegionId};
    use crate::server::{Request, Response, ServerConfig};
    use bytes::Bytes;
    use pga_cluster::coordinator::Coordinator;

    fn cluster(nodes: usize, splits: &[&[u8]]) -> (Master, Client) {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
        m.create_table(&TableDescriptor {
            name: "t".into(),
            split_points: splits.iter().map(|s| Bytes::from(s.to_vec())).collect(),
            region_config: RegionConfig::default(),
        });
        let c = Client::connect(&m);
        (m, c)
    }

    fn kv(row: &str, ts: u64) -> KeyValue {
        KeyValue::new(row.as_bytes().to_vec(), b"q".to_vec(), ts, b"v".to_vec())
    }

    #[test]
    fn put_and_scan_across_regions() {
        let (m, c) = cluster(3, &[b"h", b"q"]);
        c.put(vec![kv("a", 1), kv("m", 1), kv("z", 1)]).unwrap();
        let cells = c.scan(&RowRange::all()).unwrap();
        assert_eq!(cells.len(), 3);
        let rows: Vec<_> = cells.iter().map(|c| c.row.clone()).collect();
        assert_eq!(rows, vec!["a", "m", "z"]);
        m.shutdown();
    }

    #[test]
    fn scan_subrange_touches_only_matching_regions() {
        let (m, c) = cluster(2, &[b"m"]);
        c.put(vec![kv("a", 1), kv("b", 1), kv("x", 1)]).unwrap();
        let cells = c
            .scan(&RowRange::new(b"a".to_vec(), b"c".to_vec()))
            .unwrap();
        assert_eq!(cells.len(), 2);
        m.shutdown();
    }

    #[test]
    fn put_retries_after_split() {
        let (mut m, c) = cluster(2, &[]);
        for i in 0..60 {
            c.put(vec![kv(&format!("row{i:03}"), 1)]).unwrap();
        }
        let rid = m.directory().read()[0].id;
        m.split_region(rid).unwrap();
        // Directory changed under the client; puts must still route.
        c.put(vec![kv("row000", 2), kv("row059", 2)]).unwrap();
        let cells = c.scan(&RowRange::all()).unwrap();
        assert_eq!(cells.len(), 62);
        m.shutdown();
    }

    #[test]
    fn empty_directory_reports_no_region() {
        let coord = Coordinator::new(1000);
        let m = Master::bootstrap(1, ServerConfig::default(), coord, 0);
        let c = Client::connect(&m);
        let err = c.put(vec![kv("a", 1)]).unwrap_err();
        assert!(matches!(err, ClientError::NoRegionForRow(_)));
        m.shutdown();
    }

    fn replicated_cluster(
        nodes: usize,
        factor: usize,
        splits: &[&[u8]],
        lease_ms: u64,
    ) -> (Master, Client) {
        let coord = Coordinator::new(lease_ms);
        let mut m = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
        m.create_replicated_table(
            &TableDescriptor {
                name: "t".into(),
                split_points: splits.iter().map(|s| Bytes::from(s.to_vec())).collect(),
                region_config: RegionConfig::default(),
            },
            factor,
        );
        let c = Client::connect(&m);
        (m, c)
    }

    #[test]
    fn replicated_put_ships_to_quorum_and_followers_mirror() {
        let (m, c) = replicated_cluster(3, 3, &[], 1000);
        c.put(vec![kv("a", 1), kv("b", 1)]).unwrap();
        let info = m.directory().read()[0].clone();
        assert_eq!(info.followers.len(), 2);
        // Every follower applied the shipped batch.
        for &f in &info.followers {
            match m
                .server(f)
                .unwrap()
                .handle()
                .call(Request::FollowerScan {
                    region: info.id,
                    scan: RowRange::all().into(),
                })
                .unwrap()
            {
                Response::FollowerCells { cells, applied_seq } => {
                    assert_eq!(cells.len(), 2);
                    assert_eq!(applied_seq, 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let snap = c.repl_book().snapshot();
        assert_eq!(snap.replicated_regions, 1);
        assert_eq!(snap.max_lag_batches, 0);
        m.shutdown();
    }

    #[test]
    fn dead_follower_denies_quorum_at_factor_two() {
        let (mut m, c) = replicated_cluster(2, 2, &[], 1000);
        let info = m.directory().read()[0].clone();
        // Kill the only follower: quorum is 2, the primary alone has 1 vote.
        m.server(info.followers[0]).unwrap().shutdown();
        let err = c.put(vec![kv("a", 1)]).unwrap_err();
        assert!(matches!(err, ClientError::NoQuorum), "got {err:?}");
        // Once the liveness sweep prunes the dead follower and no spare
        // node can take a new copy, the group is its primary alone: the
        // stamped quorum stays 2, yet a put acks on the primary's vote.
        m.heartbeat(info.server, 1500);
        m.tick(1500);
        let pruned = m.directory().read()[0].clone();
        assert_eq!((pruned.server, pruned.epoch), (info.server, info.epoch));
        assert!(pruned.followers.is_empty(), "no spare node to re-fork onto");
        assert_eq!(pruned.write_quorum, 2);
        assert_eq!(c.put(vec![kv("b", 1)]).unwrap(), 1);
        let cells = c.scan(&RowRange::all()).unwrap();
        assert!(cells.iter().any(|kv| kv.row == "b"));
        m.shutdown();
    }

    #[test]
    fn explicit_full_quorum_is_enforced_on_the_write_path() {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(3, ServerConfig::default(), coord, 0);
        m.create_replicated_table_cfg(
            &TableDescriptor {
                name: "t".into(),
                split_points: vec![],
                region_config: RegionConfig::default(),
            },
            &pga_repl::ReplicationConfig {
                factor: 3,
                write_quorum: 3,
                ..pga_repl::ReplicationConfig::default()
            },
        );
        let c = Client::connect(&m);
        // All copies live: a full-quorum write commits.
        c.put(vec![kv("a", 1)]).unwrap();
        // One dead follower leaves 2 of 3 copies — a majority, which the
        // old default-quorum path would happily ack. The configured
        // quorum of 3 must refuse instead.
        let info = m.directory().read()[0].clone();
        m.server(info.followers[1]).unwrap().shutdown();
        let err = c.put(vec![kv("b", 1)]).unwrap_err();
        assert!(matches!(err, ClientError::NoQuorum), "got {err:?}");
        m.shutdown();
    }

    /// Fault plane that loses the next `n` replication ships in transit.
    #[derive(Debug)]
    struct DropNextShips(std::sync::atomic::AtomicI64);
    impl crate::fault::FaultPlane for DropNextShips {
        fn drop_ship(&self, _region: RegionId) -> bool {
            self.0.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) > 0
        }
    }

    #[test]
    fn lost_ship_gaps_the_follower_and_backfill_restores_the_vote() {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(3, ServerConfig::default(), coord, 0);
        m.create_replicated_table(
            &TableDescriptor {
                name: "t".into(),
                split_points: vec![],
                region_config: RegionConfig::default(),
            },
            2,
        );
        let c = Client::connect(&m);
        c.put(vec![kv("a", 1)]).unwrap();
        // Lose exactly one ship: the follower misses that batch while
        // staying live, so the next ship arrives non-contiguous.
        m.set_fault_plane(std::sync::Arc::new(DropNextShips(
            std::sync::atomic::AtomicI64::new(1),
        )));
        c.put(vec![kv("b", 1)]).unwrap();
        c.put(vec![kv("c", 1)]).unwrap();
        // The quorum held throughout (backfill re-earned the follower's
        // vote) and the follower holds every batch with no hole — its
        // position matches the primary's exactly.
        let info = m.directory().read()[0].clone();
        let report = m.replication_report();
        assert_eq!(report.len(), 1);
        assert_eq!(
            report[0].followers[0].1, report[0].primary_seq,
            "follower caught up contiguously"
        );
        match m
            .server(info.followers[0])
            .unwrap()
            .handle()
            .call(Request::FollowerScan {
                region: info.id,
                scan: RowRange::all().into(),
            })
            .unwrap()
        {
            Response::FollowerCells { cells, .. } => {
                assert_eq!(cells.len(), 3, "no acked write missing on the follower");
            }
            other => panic!("unexpected {other:?}"),
        }
        m.shutdown();
    }

    #[test]
    fn scan_hedged_serves_from_follower_when_primary_is_down() {
        let (m, c) = replicated_cluster(3, 2, &[], 1000);
        c.put(vec![kv("a", 1), kv("z", 1)]).unwrap();
        let info = m.directory().read()[0].clone();
        m.server(info.server).unwrap().shutdown();
        // Deadlines are absolute on the servers' shared clock.
        let wall = pga_cluster::rpc::default_clock_ms();
        let cells = c
            .scan_hedged(
                &RowRange::all().into(),
                Some(wall + 1000),
                Some(wall + 1000),
            )
            .unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(c.repl_book().snapshot().hedged_scans, 1);
        m.shutdown();
    }

    /// A column window and a row-word filter are answered alike by every
    /// read path: blocking, admitted and hedged (served by the follower
    /// once the primary is down) all return the whole-row scan filtered by
    /// qualifier and by row key, across regions.
    #[test]
    fn column_windows_are_answered_alike_by_primaries_and_followers() {
        use crate::kv::{ColumnRange, RowWords};
        let (m, c) = replicated_cluster(3, 2, &[b"m"], 1000);
        let cell = |row: &str, q: u8| KeyValue::new(row.as_bytes().to_vec(), vec![q], 1, vec![q]);
        // Two-byte words: `ab` in a row of each region, and spelled across
        // a word boundary in `xaby`, which does not hold it.
        c.put(PutBatch::from(
            ["abxy", "xaby", "xyab"]
                .iter()
                .flat_map(|row| (0u8..8).map(move |q| cell(row, q)))
                .collect::<Vec<_>>(),
        ))
        .unwrap();
        let window = vec![
            ColumnRange::new(vec![2u8], vec![4u8]),
            ColumnRange::new(vec![6u8], vec![7u8]),
        ];
        let spec = ScanSpec::windowed(RowRange::all(), window);
        let ab = RowWords::new(0, 2, [b"ab"]);
        let whole = c.scan(&RowRange::all()).unwrap();
        let in_window = |kv: &KeyValue| matches!(kv.qualifier[0], 2 | 3 | 6);
        let pick = |keep: &dyn Fn(&KeyValue) -> bool| -> Vec<KeyValue> {
            whole.iter().filter(|kv| keep(kv)).cloned().collect()
        };
        let cases = [
            (spec.clone(), pick(&in_window)),
            (
                spec.with_words(ab.clone()),
                pick(&|kv| in_window(kv) && ab.matches(&kv.row)),
            ),
            (
                ScanSpec::from(RowRange::all()).with_words(ab.clone()),
                pick(&|kv| ab.matches(&kv.row)),
            ),
        ];
        let lens: Vec<usize> = cases.iter().map(|(_, expect)| expect.len()).collect();
        assert_eq!(lens, [9, 6, 16]);
        let deadline = || Some(pga_cluster::rpc::default_clock_ms() + 1000);
        for (spec, expect) in &cases {
            assert_eq!(&c.scan_spec(spec).unwrap().to_vec(), expect);
            assert_eq!(
                &c.send_scan_admitted(spec, deadline())
                    .wait()
                    .unwrap()
                    .to_vec(),
                expect
            );
        }
        // One node down: every region it led still has its follower, on
        // another node.
        let down = m.directory().read()[0].server;
        m.server(down).unwrap().shutdown();
        for (spec, expect) in &cases {
            assert_eq!(
                &c.scan_hedged(spec, deadline(), deadline())
                    .unwrap()
                    .to_vec(),
                expect
            );
        }
        assert!(c.repl_book().snapshot().hedged_scans >= 1);
        m.shutdown();
    }

    #[test]
    fn acked_writes_survive_primary_crash_and_failover() {
        let (mut m, c) = replicated_cluster(3, 2, &[], 100);
        for i in 0..20 {
            c.put(vec![kv(&format!("row{i:02}"), 1)]).unwrap();
        }
        let info = m.directory().read()[0].clone();
        let old_primary = info.server;
        let follower = info.followers[0];
        m.server(old_primary).unwrap().shutdown();
        // Survivors heartbeat; the dead primary's lease expires.
        for n in m.nodes() {
            if n != old_primary {
                m.heartbeat(n, 500);
            }
        }
        m.tick(500);
        let promoted = m.directory().read()[0].clone();
        assert_eq!(
            promoted.server, follower,
            "most-caught-up follower promoted"
        );
        assert!(
            promoted.epoch > info.epoch,
            "promotion must fence the old epoch"
        );
        // Every acked write is still readable through the ordinary path.
        let cells = c.scan(&RowRange::all()).unwrap();
        assert_eq!(cells.len(), 20);
        assert_eq!(m.failovers(), 1);
        m.shutdown();
    }
}
