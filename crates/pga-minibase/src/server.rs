//! Region server: an RPC thread serving the regions assigned to it.
//!
//! Each region server is one [`pga_cluster::rpc`] server — a thread behind
//! a **bounded** request queue, exactly one per node like the paper's
//! deployment ("each node is also running an instance of a TSD Daemon";
//! the region server is its storage-side peer). Overload semantics come
//! from the RPC layer: unthrottled `try_call` traffic can crash the server.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use pga_cluster::rpc::{AdmissionConfig, RequestClass, RpcHandle, RpcServerBuilder, ServerRunner};
use pga_cluster::NodeId;

use crate::kv::{KeyValue, RowRange, ScanSpec};
use crate::region::{Region, RegionId, RegionMetrics};

/// Region-server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// RPC queue capacity (requests).
    pub queue_capacity: usize,
    /// Overload strikes before the server crashes (u64::MAX = never).
    pub crash_after_overloads: u64,
    /// Watermark admission policy for admission-controlled callers
    /// ([`RpcHandle::call_with`]). Disabled by default (seed behavior);
    /// overload-aware deployments enable it so producers get typed
    /// `Busy{retry_after}` rejections instead of blocking forever.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 1024,
            crash_after_overloads: u64::MAX,
            admission: AdmissionConfig::disabled(),
        }
    }
}

/// Admission class of a request: puts/flushes/compactions degrade first
/// (the proxy retries them losslessly); scans and metrics reads keep the
/// fleet view alive until the critical watermark.
pub fn request_class(req: &Request) -> RequestClass {
    match req {
        Request::Put { .. }
        | Request::PutReplicated { .. }
        | Request::Ship { .. }
        | Request::Flush { .. }
        | Request::Compact { .. } => RequestClass::Write,
        // WalTail is repair traffic: it reads the primary's retained WAL
        // so a gapped follower can rejoin the quorum. Classing it as a
        // read keeps backfill alive under the very overload that shed
        // the ship in the first place.
        // RepairFetch is scrub-repair traffic: like WalTail it reads an
        // authoritative copy so corruption elsewhere can be healed, and
        // it must stay admissible under the write-shedding watermark.
        Request::Scan { .. }
        | Request::FollowerScan { .. }
        | Request::ReplicaStatus { .. }
        | Request::WalTail { .. }
        | Request::RepairFetch { .. }
        | Request::Metrics => RequestClass::Read,
    }
}

/// RPC requests served by a region server.
#[derive(Debug)]
pub enum Request {
    /// Write a batch into a region.
    Put {
        /// Target region.
        region: RegionId,
        /// Cells to write.
        kvs: Vec<KeyValue>,
    },
    /// Scan a row range within a region, whole rows or a column window.
    Scan {
        /// Target region.
        region: RegionId,
        /// Rows and columns to scan.
        scan: ScanSpec,
    },
    /// Write a batch into a replicated region's primary, fenced by the
    /// writer's epoch. Answers [`Response::Appended`] with the WAL
    /// sequence id the writer must stamp on follower ships.
    PutReplicated {
        /// Target region.
        region: RegionId,
        /// The replication-group epoch the writer believes is current.
        epoch: u64,
        /// Cells to write.
        kvs: Vec<KeyValue>,
    },
    /// Replicate a primary-assigned WAL batch onto a follower copy.
    Ship {
        /// Target region.
        region: RegionId,
        /// The replication-group epoch the writer believes is current.
        epoch: u64,
        /// Sequence id the primary assigned to this batch.
        seq: u64,
        /// Cells in the batch.
        kvs: Vec<KeyValue>,
    },
    /// Scan a follower copy; the answer carries the follower's applied
    /// sequence so the reader can enforce its staleness bound.
    FollowerScan {
        /// Target region.
        region: RegionId,
        /// Rows and columns to scan.
        scan: ScanSpec,
    },
    /// Ask a replica for its replication position (last durable WAL
    /// sequence and epoch).
    ReplicaStatus {
        /// Target region.
        region: RegionId,
    },
    /// Read the primary's retained WAL batches newer than `from_seq` —
    /// the backfill source for a follower whose ship was rejected as a
    /// gap ([`Response::ShipGap`]).
    WalTail {
        /// Target region.
        region: RegionId,
        /// The replication-group epoch the reader believes is current.
        epoch: u64,
        /// Return batches with sequence ids strictly greater than this.
        from_seq: u64,
    },
    /// Read a span from any copy of a region for scrub repair, fenced by
    /// the reader's epoch so a deposed primary can never serve a stale
    /// span as authoritative. Answers [`Response::RepairCells`] with the
    /// copy's applied sequence so the scrubber can rank sources.
    RepairFetch {
        /// Target region.
        region: RegionId,
        /// Row range to read (typically a single quarantined row).
        range: RowRange,
        /// The replication-group epoch the reader believes is current.
        epoch: u64,
    },
    /// Force a memstore flush.
    Flush {
        /// Target region.
        region: RegionId,
    },
    /// Force a major compaction.
    Compact {
        /// Target region.
        region: RegionId,
    },
    /// Fetch metrics for every hosted region.
    Metrics,
}

/// RPC responses.
#[derive(Debug)]
pub enum Response {
    /// Operation succeeded.
    Ok,
    /// Scan results.
    Cells(Vec<KeyValue>),
    /// The region is not hosted here, or a row fell outside it — the
    /// caller's directory is stale and must be refreshed.
    WrongRegion,
    /// Region metrics by id.
    Metrics(Vec<(RegionId, RegionMetrics)>),
    /// A replicated put is durable on the primary under this WAL
    /// sequence id (one quorum vote; ship it to followers next).
    Appended {
        /// Sequence id assigned to the batch.
        seq: u64,
    },
    /// The sender's epoch is stale: the replication group has moved on
    /// (a promotion happened) and this replica will not accept the
    /// write. Carries the replica's current epoch.
    Fenced {
        /// The replica's current epoch.
        epoch: u64,
    },
    /// A shipped batch is durable on this follower.
    ShipAck {
        /// The follower's last durable WAL sequence after the ship.
        applied_seq: u64,
    },
    /// A shipped batch was rejected because an earlier batch is missing
    /// here: applying it would leave a hole in the follower's WAL, which
    /// would let failover promote a copy missing acked writes. Nothing
    /// was applied; the shipper must backfill from `applied_seq + 1`.
    ShipGap {
        /// The follower's last durable WAL sequence (its contiguous
        /// prefix — everything at or below this is held).
        applied_seq: u64,
    },
    /// The primary's retained WAL tail (see [`Request::WalTail`]).
    WalBatches {
        /// `(sequence, cells)` per retained batch, ascending. Starts at
        /// `from_seq + 1` only if that batch is still retained (not yet
        /// flushed away); the caller must verify contiguity.
        batches: Vec<(u64, Vec<KeyValue>)>,
    },
    /// Follower scan results plus the follower's replication position.
    FollowerCells {
        /// Cells scanned.
        cells: Vec<KeyValue>,
        /// The follower's last durable WAL sequence.
        applied_seq: u64,
    },
    /// Repair-fetch results plus the copy's replication position (see
    /// [`Request::RepairFetch`]).
    RepairCells {
        /// Cells in the requested span on this copy.
        cells: Vec<KeyValue>,
        /// The copy's last durable WAL sequence.
        applied_seq: u64,
    },
    /// A replica's replication position.
    Status {
        /// Last durable WAL sequence on this replica.
        last_seq: u64,
        /// The replica's current epoch.
        epoch: u64,
    },
}

/// A running region server plus its assignment surface.
pub struct RegionServer {
    node: NodeId,
    regions: Arc<RwLock<HashMap<RegionId, Region>>>,
    handle: RpcHandle<Request, Response>,
    _runner: ServerRunner,
}

impl RegionServer {
    /// Spawn a region server thread for `node`.
    pub fn spawn(node: NodeId, config: ServerConfig) -> Self {
        let regions: Arc<RwLock<HashMap<RegionId, Region>>> = Arc::new(RwLock::new(HashMap::new()));
        let serving = regions.clone();
        let (handle, runner) = RpcServerBuilder::new(format!("rs-{}", node.0))
            .queue_capacity(config.queue_capacity)
            .crash_after_overloads(config.crash_after_overloads)
            .admission(config.admission)
            .spawn(move |req: Request| handle_request(&serving, req));
        RegionServer {
            node,
            regions,
            handle,
            _runner: runner,
        }
    }

    /// This server's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// RPC handle for clients.
    pub fn handle(&self) -> RpcHandle<Request, Response> {
        self.handle.clone()
    }

    /// Assign a region to this server (master-driven).
    pub fn assign(&self, region: Region) {
        self.regions.write().insert(region.id(), region);
    }

    /// Remove a region (for reassignment or split). Returns it if hosted.
    pub fn unassign(&self, id: RegionId) -> Option<Region> {
        self.regions.write().remove(&id)
    }

    /// Ids of regions currently hosted, sorted — callers (the master's
    /// reassignment sweep, the fault harness) rely on a deterministic
    /// order for replayable traces.
    pub fn hosted_regions(&self) -> Vec<RegionId> {
        let mut ids: Vec<RegionId> = self.regions.read().keys().copied().collect();
        ids.sort();
        ids
    }

    /// Install a fault plane on every currently hosted region (simulation
    /// harnesses only; regions assigned later inherit through the master).
    pub fn set_fault_plane(&self, fault: crate::fault::FaultHandle) {
        let mut map = self.regions.write();
        for region in map.values_mut() {
            region.set_fault_plane(fault.clone());
        }
    }

    /// Install a compaction rewriter on every currently hosted region
    /// (regions assigned later inherit through the master, mirroring
    /// [`RegionServer::set_fault_plane`]).
    pub fn set_compaction_rewriter(&self, rewriter: crate::rewrite::RewriterHandle) {
        let mut map = self.regions.write();
        for region in map.values_mut() {
            region.set_compaction_rewriter(rewriter.clone());
        }
    }

    /// Last durable WAL sequence of a hosted copy of `id`, or `None`
    /// when not hosted. The master's failover sweep reads this directly
    /// (in-process) to pick the most-caught-up surviving follower.
    pub fn region_applied_seq(&self, id: RegionId) -> Option<u64> {
        self.regions.read().get(&id).map(|r| r.applied_seq())
    }

    /// Promote a hosted follower copy of `id` to primary under
    /// `new_epoch` (master-driven failover). Returns `false` when the
    /// region is not hosted here.
    pub fn promote_region(&self, id: RegionId, new_epoch: u64) -> bool {
        let mut map = self.regions.write();
        match map.get_mut(&id) {
            Some(r) => {
                r.set_role(pga_repl::ReplicaRole::Primary);
                r.set_epoch(new_epoch);
                true
            }
            None => false,
        }
    }

    /// Install `new_epoch` on a hosted copy of `id` (master-driven after
    /// a promotion elsewhere, so surviving followers fence the deposed
    /// primary's writer too). Returns `false` when not hosted.
    pub fn set_region_epoch(&self, id: RegionId, new_epoch: u64) -> bool {
        let mut map = self.regions.write();
        match map.get_mut(&id) {
            Some(r) => {
                r.set_epoch(new_epoch);
                true
            }
            None => false,
        }
    }

    /// Fork a fresh follower copy of a hosted region (see
    /// [`Region::fork_follower`]); the master assigns the fork to
    /// another server to (re)establish the replication factor.
    pub fn fork_region_follower(&self, id: RegionId) -> Option<Region> {
        self.regions.read().get(&id).map(|r| r.fork_follower())
    }

    /// Verify every covered store-file cell of a hosted copy of `id`
    /// with `verifier` (the background scrub walk). Returns `None` when
    /// the region is not hosted here.
    pub fn scrub_region(
        &self,
        id: RegionId,
        verifier: &dyn crate::scrub::CellVerifier,
    ) -> Option<crate::scrub::ScrubFinding> {
        self.regions
            .read()
            .get(&id)
            .map(|r| r.scrub_cells(verifier))
    }

    /// Corrupt one stored cell of a hosted copy of `id` (fault-injection
    /// harnesses only; see [`Region::corrupt_cell_for_fault_injection`]).
    /// Returns the affected `(row, qualifier)` when a cell was mutated.
    pub fn corrupt_region_cell(
        &self,
        id: RegionId,
        pick: u64,
        selector: &dyn Fn(&KeyValue) -> bool,
        mutate: &dyn Fn(&mut Vec<u8>),
    ) -> Option<(bytes::Bytes, bytes::Bytes)> {
        let mut map = self.regions.write();
        map.get_mut(&id)
            .and_then(|r| r.corrupt_cell_for_fault_injection(pick, selector, mutate))
    }

    /// Install a verified repair payload on a hosted copy of `id` (see
    /// [`Region::replace_cell_value`]). Returns how many store-file cells
    /// were replaced (0 when not hosted or already healthy).
    pub fn repair_region_cell(
        &self,
        id: RegionId,
        row: &[u8],
        qualifier: &[u8],
        value: &[u8],
    ) -> usize {
        let mut map = self.regions.write();
        match map.get_mut(&id) {
            Some(r) => r.replace_cell_value(row, qualifier, &bytes::Bytes::copy_from_slice(value)),
            None => 0,
        }
    }

    /// [`RegionMetrics`] summed over the hosted regions (monitoring). Read
    /// from the assignment surface, not over RPC, so it answers at once
    /// while the queue is full and keeps a crashed or stopped server's
    /// totals.
    pub fn total_metrics(&self) -> RegionMetrics {
        self.regions.read().values().map(Region::metrics).sum()
    }

    /// Stop serving.
    pub fn shutdown(&self) {
        self.handle.shutdown();
    }
}

// Region operations run under the server's `regions` map lock by design:
// the map lock is what serialises request handling against reassignment
// (unassign/assign from the master). The WAL mutex acquired inside
// put_batch/flush always nests under it — `regions` → WAL-`inner` is this
// server's fixed order and nothing acquires them the other way around.
fn handle_request(regions: &Arc<RwLock<HashMap<RegionId, Region>>>, req: Request) -> Response {
    match req {
        Request::Put { region, kvs } => {
            let mut map = regions.write();
            match map.get_mut(&region) {
                // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                Some(r) => match r.put_batch(kvs) {
                    Ok(()) => Response::Ok,
                    Err(_) => Response::WrongRegion,
                },
                None => Response::WrongRegion,
            }
        }
        Request::Scan { region, scan } => {
            let map = regions.read();
            match map.get(&region) {
                Some(r) => Response::Cells(r.scan_spec(&scan)),
                None => Response::WrongRegion,
            }
        }
        Request::PutReplicated { region, epoch, kvs } => {
            let mut map = regions.write();
            match map.get_mut(&region) {
                Some(r) => {
                    if r.epoch() != epoch {
                        return Response::Fenced { epoch: r.epoch() };
                    }
                    // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                    match r.put_batch_assign(kvs) {
                        Ok(seq) => Response::Appended { seq },
                        Err(_) => Response::WrongRegion,
                    }
                }
                None => Response::WrongRegion,
            }
        }
        Request::Ship {
            region,
            epoch,
            seq,
            kvs,
        } => {
            let mut map = regions.write();
            match map.get_mut(&region) {
                Some(r) => {
                    if r.epoch() != epoch {
                        return Response::Fenced { epoch: r.epoch() };
                    }
                    // Deliberate injection site: a ship-drop fault loses
                    // this RPC before the follower applies it — the
                    // follower stays live but misses the batch, exactly
                    // the transient loss the contiguity check must catch
                    // on the next ship. The shipper sees an unusable
                    // answer (no quorum vote), same as a lost RPC.
                    if r.ship_dropped() {
                        return Response::WrongRegion;
                    }
                    // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                    match r.apply_replicated(seq, kvs) {
                        // Duplicate/stale ships are already durable here,
                        // so both outcomes ack with the current position.
                        Ok(pga_repl::ShipOutcome::Applied | pga_repl::ShipOutcome::Stale) => {
                            Response::ShipAck {
                                // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                                applied_seq: r.applied_seq(),
                            }
                        }
                        // An earlier batch is missing: refuse the hole
                        // and report the contiguous position so the
                        // shipper can backfill from the primary's tail.
                        Ok(pga_repl::ShipOutcome::Gap) => Response::ShipGap {
                            // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                            applied_seq: r.applied_seq(),
                        },
                        Err(_) => Response::WrongRegion,
                    }
                }
                None => Response::WrongRegion,
            }
        }
        Request::WalTail {
            region,
            epoch,
            from_seq,
        } => {
            let map = regions.read();
            match map.get(&region) {
                Some(r) => {
                    if r.epoch() != epoch {
                        return Response::Fenced { epoch: r.epoch() };
                    }
                    Response::WalBatches {
                        // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                        batches: r.wal_batches_after(from_seq),
                    }
                }
                None => Response::WrongRegion,
            }
        }
        Request::FollowerScan { region, scan } => {
            let map = regions.read();
            match map.get(&region) {
                Some(r) => Response::FollowerCells {
                    cells: r.scan_spec(&scan),
                    // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                    applied_seq: r.applied_seq(),
                },
                None => Response::WrongRegion,
            }
        }
        Request::ReplicaStatus { region } => {
            let map = regions.read();
            match map.get(&region) {
                Some(r) => Response::Status {
                    // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                    last_seq: r.applied_seq(),
                    epoch: r.epoch(),
                },
                None => Response::WrongRegion,
            }
        }
        Request::RepairFetch {
            region,
            range,
            epoch,
        } => {
            let map = regions.read();
            match map.get(&region) {
                Some(r) => {
                    // Fence before serving any bytes: a deposed primary
                    // answering a repair fetch would launder stale data
                    // into a "repair" install on every copy.
                    if r.epoch() != epoch {
                        return Response::Fenced { epoch: r.epoch() };
                    }
                    Response::RepairCells {
                        cells: r.scan(&range),
                        // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                        applied_seq: r.applied_seq(),
                    }
                }
                None => Response::WrongRegion,
            }
        }
        Request::Flush { region } => {
            let mut map = regions.write();
            match map.get_mut(&region) {
                Some(r) => {
                    // pga-allow(lock-discipline): regions → WAL-inner is the fixed order (see above)
                    r.flush();
                    Response::Ok
                }
                None => Response::WrongRegion,
            }
        }
        Request::Compact { region } => {
            let mut map = regions.write();
            match map.get_mut(&region) {
                Some(r) => {
                    r.compact();
                    Response::Ok
                }
                None => Response::WrongRegion,
            }
        }
        Request::Metrics => {
            let map = regions.read();
            Response::Metrics(map.iter().map(|(&id, r)| (id, r.metrics())).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionConfig;

    fn kv(row: &str) -> KeyValue {
        KeyValue::new(row.as_bytes().to_vec(), b"q".to_vec(), 1, b"v".to_vec())
    }

    #[test]
    fn put_scan_through_rpc() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        server.assign(Region::new(
            RegionId(1),
            RowRange::all(),
            RegionConfig::default(),
        ));
        let h = server.handle();
        match h
            .call(Request::Put {
                region: RegionId(1),
                kvs: vec![kv("a"), kv("b")],
            })
            .unwrap()
        {
            Response::Ok => {}
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::Scan {
                region: RegionId(1),
                scan: RowRange::all().into(),
            })
            .unwrap()
        {
            Response::Cells(cells) => assert_eq!(cells.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unknown_region_reports_wrong_region() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        let h = server.handle();
        match h
            .call(Request::Put {
                region: RegionId(9),
                kvs: vec![kv("a")],
            })
            .unwrap()
        {
            Response::WrongRegion => {}
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn out_of_range_row_reports_wrong_region() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        server.assign(Region::new(
            RegionId(1),
            RowRange::new(b"a".to_vec(), b"m".to_vec()),
            RegionConfig::default(),
        ));
        let h = server.handle();
        match h
            .call(Request::Put {
                region: RegionId(1),
                kvs: vec![kv("z")],
            })
            .unwrap()
        {
            Response::WrongRegion => {}
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unassign_moves_region_with_data() {
        let a = RegionServer::spawn(NodeId(0), ServerConfig::default());
        let b = RegionServer::spawn(NodeId(1), ServerConfig::default());
        a.assign(Region::new(
            RegionId(1),
            RowRange::all(),
            RegionConfig::default(),
        ));
        a.handle()
            .call(Request::Put {
                region: RegionId(1),
                kvs: vec![kv("x")],
            })
            .unwrap();
        let moved = a.unassign(RegionId(1)).unwrap();
        b.assign(moved);
        match b
            .handle()
            .call(Request::Scan {
                region: RegionId(1),
                scan: RowRange::all().into(),
            })
            .unwrap()
        {
            Response::Cells(cells) => assert_eq!(cells.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(a.hosted_regions().is_empty());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn replicated_put_ship_and_fencing_through_rpc() {
        let primary = RegionServer::spawn(NodeId(0), ServerConfig::default());
        let follower = RegionServer::spawn(NodeId(1), ServerConfig::default());
        let region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        let fork = region.fork_follower();
        primary.assign(region);
        follower.assign(fork);

        // Primary append under the current epoch.
        let seq = match primary
            .handle()
            .call(Request::PutReplicated {
                region: RegionId(1),
                epoch: 1,
                kvs: vec![kv("a")],
            })
            .unwrap()
        {
            Response::Appended { seq } => seq,
            other => panic!("unexpected {other:?}"),
        };

        // Ship to the follower; it acks with its new position.
        match follower
            .handle()
            .call(Request::Ship {
                region: RegionId(1),
                epoch: 1,
                seq,
                kvs: vec![kv("a")],
            })
            .unwrap()
        {
            Response::ShipAck { applied_seq } => assert_eq!(applied_seq, seq),
            other => panic!("unexpected {other:?}"),
        }

        // Follower scan reports cells plus position.
        match follower
            .handle()
            .call(Request::FollowerScan {
                region: RegionId(1),
                scan: RowRange::all().into(),
            })
            .unwrap()
        {
            Response::FollowerCells { cells, applied_seq } => {
                assert_eq!(cells.len(), 1);
                assert_eq!(applied_seq, seq);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Epoch bump fences the old writer on both replicas.
        assert!(follower.set_region_epoch(RegionId(1), 2));
        match follower
            .handle()
            .call(Request::Ship {
                region: RegionId(1),
                epoch: 1,
                seq: seq + 1,
                kvs: vec![kv("b")],
            })
            .unwrap()
        {
            Response::Fenced { epoch } => assert_eq!(epoch, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(primary.promote_region(RegionId(1), 2));
        match primary
            .handle()
            .call(Request::PutReplicated {
                region: RegionId(1),
                epoch: 1,
                kvs: vec![kv("c")],
            })
            .unwrap()
        {
            Response::Fenced { epoch } => assert_eq!(epoch, 2),
            other => panic!("unexpected {other:?}"),
        }

        // Status reflects position and epoch.
        match primary
            .handle()
            .call(Request::ReplicaStatus {
                region: RegionId(1),
            })
            .unwrap()
        {
            Response::Status { last_seq, epoch } => {
                assert_eq!(last_seq, seq);
                assert_eq!(epoch, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(primary.region_applied_seq(RegionId(1)), Some(seq));
        primary.shutdown();
        follower.shutdown();
    }

    #[test]
    fn gapped_ship_reports_position_and_wal_tail_backfills() {
        let primary = RegionServer::spawn(NodeId(0), ServerConfig::default());
        let follower = RegionServer::spawn(NodeId(1), ServerConfig::default());
        let region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        let fork = region.fork_follower();
        primary.assign(region);
        follower.assign(fork);
        let mut seqs = Vec::new();
        for row in ["a", "b", "c"] {
            match primary
                .handle()
                .call(Request::PutReplicated {
                    region: RegionId(1),
                    epoch: 1,
                    kvs: vec![kv(row)],
                })
                .unwrap()
            {
                Response::Appended { seq } => seqs.push(seq),
                other => panic!("unexpected {other:?}"),
            }
        }
        let ship = |seq: u64, row: &str| {
            follower
                .handle()
                .call(Request::Ship {
                    region: RegionId(1),
                    epoch: 1,
                    seq,
                    kvs: vec![kv(row)],
                })
                .unwrap()
        };
        // First batch lands; the second ship is "lost"; the third must be
        // refused as a gap, reporting the follower's contiguous position.
        match ship(seqs[0], "a") {
            Response::ShipAck { applied_seq } => assert_eq!(applied_seq, seqs[0]),
            other => panic!("unexpected {other:?}"),
        }
        match ship(seqs[2], "c") {
            Response::ShipGap { applied_seq } => assert_eq!(applied_seq, seqs[0]),
            other => panic!("unexpected {other:?}"),
        }
        // A stale-epoch tail read is fenced like any replication RPC.
        assert!(follower.set_region_epoch(RegionId(1), 1)); // no-op, keeps epoch 1
        match primary
            .handle()
            .call(Request::WalTail {
                region: RegionId(1),
                epoch: 9,
                from_seq: seqs[0],
            })
            .unwrap()
        {
            Response::Fenced { epoch } => assert_eq!(epoch, 1),
            other => panic!("unexpected {other:?}"),
        }
        // The primary's tail covers the hole; replaying it in order heals
        // the follower and the once-gapped ship acks as stale.
        let batches = match primary
            .handle()
            .call(Request::WalTail {
                region: RegionId(1),
                epoch: 1,
                from_seq: seqs[0],
            })
            .unwrap()
        {
            Response::WalBatches { batches } => batches,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            batches.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![seqs[1], seqs[2]]
        );
        for (seq, kvs) in batches {
            match follower
                .handle()
                .call(Request::Ship {
                    region: RegionId(1),
                    epoch: 1,
                    seq,
                    kvs,
                })
                .unwrap()
            {
                Response::ShipAck { applied_seq } => assert_eq!(applied_seq, seq),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(follower.region_applied_seq(RegionId(1)), Some(seqs[2]));
        primary.shutdown();
        follower.shutdown();
    }

    #[test]
    fn metrics_roundtrip() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        server.assign(Region::new(
            RegionId(1),
            RowRange::all(),
            RegionConfig::default(),
        ));
        server
            .handle()
            .call(Request::Put {
                region: RegionId(1),
                kvs: vec![kv("a"), kv("b"), kv("c")],
            })
            .unwrap();
        let per_region = match server.handle().call(Request::Metrics).unwrap() {
            Response::Metrics(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(per_region.len(), 1);
        assert_eq!(per_region[0].1.cells_written, 3);
        // The assignment-surface total is the same answer, with no RPC.
        assert_eq!(server.total_metrics(), per_region[0].1);
        server.shutdown();
    }
}
