//! Region server: an RPC thread that owns the regions assigned to it.
//!
//! Each region server is one [`pga_cluster::rpc`] server — a thread behind
//! a **bounded** request queue, exactly one per node like the paper's
//! deployment ("each node is also running an instance of a TSD Daemon";
//! the region server is its storage-side peer). The thread owns its
//! regions outright, in a map no lock guards, and everything that touches
//! them is a [`Request`]: clients' puts, ships and scans, and the master's
//! placement, the scrubber's walk and the fault harnesses' corruption.
//! Overload semantics come from the RPC layer: a full queue makes writers
//! wait and refuses non-blocking reads with `Busy`. After each request
//! that moves them, the thread publishes its regions' metrics and applied
//! sequences for telemetry to read without queueing. When the server
//! stops, its thread hands the regions back: the stand-in for the WAL and
//! store files that lease recovery reads.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::Mutex;

use pga_cluster::rpc::{RpcHandle, RpcServerBuilder};
use pga_cluster::NodeId;

use crate::batch::PutBatch;
use crate::fault::FaultHandle;
use crate::kv::{CellRef, KeyValue, RowRange, ScanSpec};
use crate::region::{Region, RegionId, RegionMetrics};
use crate::rewrite::RewriterHandle;
use crate::scanner::ScanCells;
use crate::scrub::{QuarantineKey, ScrubFinding, VerifierHandle};

/// Region-server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// RPC queue capacity (requests).
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 1024,
        }
    }
}

/// RPC requests served by a region server.
pub enum Request {
    /// Scan a row range within a region, whole rows or a column window.
    Scan {
        /// Target region.
        region: RegionId,
        /// Rows and columns to scan.
        scan: ScanSpec,
    },
    /// Write a batch into a region's primary, fenced by the writer's
    /// epoch (every region is a replication group, a single-copy region
    /// a group of one). Answers [`Response::Appended`] with the WAL
    /// sequence id the writer must stamp on follower ships, or
    /// [`Response::PutRefused`] with the batch handed back.
    PutReplicated {
        /// Target region.
        region: RegionId,
        /// The replication-group epoch the writer believes is current.
        epoch: u64,
        /// Cells to write.
        batch: PutBatch,
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
        batch: PutBatch,
    },
    /// Scan a follower copy (the hedged-scan fallback); the answer carries
    /// the follower's applied sequence.
    FollowerScan {
        /// Target region.
        region: RegionId,
        /// Rows and columns to scan.
        scan: ScanSpec,
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
    /// Install a verified repair payload `(region, epoch, key, value)`:
    /// replace the value of every store-file cell at `key`, fenced like
    /// every write by the epoch the payload was fetched under.
    Repair(RegionId, u64, QuarantineKey, Bytes),
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
    /// Open a region here: the master's placement. With an epoch, the
    /// region is a dead node's copy and opens as lease recovery: its WAL
    /// replayed ([`Region::crash_recover`]), then served under that epoch.
    /// Answers [`Response::Opened`].
    Open(Box<Region>, Option<u64>),
    /// Close a region and hand it over ([`Response::Region`]).
    Close(RegionId),
    /// Fork a fresh follower copy ([`Region::fork_follower`]); answers
    /// [`Response::Region`].
    Fork(RegionId),
    /// Install a new epoch on a copy (failover fences the deposed
    /// primary everywhere). Answers [`Response::EpochSet`].
    SetEpoch(RegionId, u64),
    /// Install a fault plane and, if given, a compaction rewriter on every
    /// hosted region.
    Equip(FaultHandle, Option<RewriterHandle>),
    /// The scrub walk over every hosted region; answers
    /// [`Response::Scrubbed`].
    Scrub(VerifierHandle),
    /// Fault injection `(region, pick, selector, mutate)`: mutate the value
    /// of the `pick % n`-th stored cell of the region that `selector`
    /// matches ([`Region::corrupt_cell_for_fault_injection`]). Answers
    /// [`Response::Corrupted`].
    Corrupt(RegionId, u64, fn(CellRef<'_>) -> bool, CellMutation),
    /// Hand every region back and keep none: the last request
    /// [`RegionServer::shutdown`] sends. Answers [`Response::Stopped`].
    Stop,
}

/// RPC responses.
#[derive(Debug)]
pub enum Response {
    /// Operation succeeded.
    Ok,
    /// Scan results, shared with the region's store files.
    Cells(ScanCells),
    /// The region is not hosted here, or a row fell outside it — the
    /// caller's directory is stale and must be refreshed.
    WrongRegion,
    /// Region metrics by id.
    Metrics(Vec<(RegionId, RegionMetrics)>),
    /// A put the primary did not take, its cells handed back so the
    /// writer re-routes them without having kept a copy of its own.
    PutRefused {
        /// `Some(epoch)` when the writer's epoch is stale: a promotion
        /// moved the group on, and this is the replica's current epoch.
        /// `None` when the region is not hosted here or a row lies
        /// outside it: the writer's directory is stale.
        fenced: Option<u64>,
        /// The batch, as it was sent.
        batch: PutBatch,
    },
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
        batches: Vec<(u64, PutBatch)>,
    },
    /// Follower scan results plus the follower's replication position.
    FollowerCells {
        /// Cells scanned.
        cells: ScanCells,
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
    /// A region handed over by [`Request::Close`] or [`Request::Fork`].
    Region(Box<Region>),
    /// A region opened; `true` when lease recovery replayed a WAL image
    /// that decoded torn.
    Opened(bool),
    /// A copy took the new epoch; its last durable WAL sequence.
    EpochSet(u64),
    /// The scrub walk's findings over every hosted region.
    Scrubbed(ScrubFinding),
    /// The `(row, qualifier)` a corruption hit, if any cell matched.
    Corrupted(Option<(Bytes, Bytes)>),
    /// Every region the server owned, handed back as it stops.
    Stopped(HashMap<RegionId, Region>),
}

/// The value mutation of a [`Request::Corrupt`].
pub type CellMutation = Box<dyn Fn(&mut Vec<u8>) + Send>;

/// Per hosted region, its metrics and last durable WAL sequence, written
/// only by the server thread.
type Published = Mutex<HashMap<RegionId, (RegionMetrics, u64)>>;

/// A running region server: its RPC handle, what its thread publishes,
/// and the regions it handed back when it stopped.
pub struct RegionServer {
    handle: RpcHandle<Request, Response>,
    published: Arc<Published>,
    left: OnceLock<HashMap<RegionId, Region>>,
}

impl RegionServer {
    /// Spawn a region server thread for `node`, hosting no region yet.
    pub fn spawn(node: NodeId, config: ServerConfig) -> Self {
        let published: Arc<Published> = Arc::default();
        let publishing = published.clone();
        let mut regions = HashMap::new();
        // The runner detaches on drop: the thread ends with its last handle.
        let (handle, _) = RpcServerBuilder::new(format!("rs-{}", node.0))
            .queue_capacity(config.queue_capacity)
            .spawn(move |req: Request| handle_request(&mut regions, &publishing, req));
        RegionServer {
            handle,
            published,
            left: OnceLock::new(),
        }
    }

    /// RPC handle for clients.
    pub fn handle(&self) -> RpcHandle<Request, Response> {
        self.handle.clone()
    }

    /// [`RegionMetrics`] summed over the hosted regions as last published:
    /// answers at once while the queue is full, and a stopped server keeps
    /// its totals until the master recovers its regions.
    pub fn published_totals(&self) -> RegionMetrics {
        self.published.lock().values().map(|&(m, _)| m).sum()
    }

    /// Last published durable WAL sequence of this server's copy of `id`.
    pub fn published_seq(&self, id: RegionId) -> Option<u64> {
        self.published.lock().get(&id).map(|&(_, seq)| seq)
    }

    /// Stop serving (a crash or a clean stop): later requests fail with
    /// `Stopped`, queued ones are still answered, then the thread hands
    /// its regions back. A second call does nothing.
    pub fn shutdown(&self) {
        self.left
            .get_or_init(|| match self.handle.shutdown_with(Request::Stop) {
                Ok(Response::Stopped(regions)) => regions,
                _ => HashMap::new(),
            });
    }

    /// Stop the server and take its regions, clearing what it published.
    pub(crate) fn take_left(&mut self) -> HashMap<RegionId, Region> {
        self.shutdown();
        self.published.lock().clear();
        self.left.take().unwrap_or_default()
    }
}

/// Publish `region`'s metrics and applied sequence.
fn publish(published: &Published, region: &Region) {
    let gauges = (region.metrics(), region.applied_seq());
    published.lock().insert(region.id(), gauges);
}

/// Serve one request against the regions this thread owns.
fn handle_request(
    regions: &mut HashMap<RegionId, Region>,
    published: &Published,
    req: Request,
) -> Response {
    match req {
        Request::Scan { region, scan } => match regions.get(&region) {
            Some(r) => Response::Cells(r.scan_spec(&scan)),
            None => Response::WrongRegion,
        },
        Request::PutReplicated {
            region,
            epoch,
            batch,
        } => {
            let Some(r) = regions.get_mut(&region) else {
                return Response::PutRefused {
                    fenced: None,
                    batch,
                };
            };
            if r.epoch() != epoch {
                let fenced = Some(r.epoch());
                return Response::PutRefused { fenced, batch };
            }
            let resp = match r.put_batch(batch) {
                Ok(seq) => Response::Appended { seq },
                Err((_, batch)) => Response::PutRefused {
                    fenced: None,
                    batch,
                },
            };
            publish(published, r);
            resp
        }
        Request::Ship {
            region,
            epoch,
            seq,
            batch,
        } => {
            let Some(r) = regions.get_mut(&region) else {
                return Response::WrongRegion;
            };
            if r.epoch() != epoch {
                return Response::Fenced { epoch: r.epoch() };
            }
            // Deliberate injection site: a ship-drop fault loses this RPC
            // before the follower applies it — the follower stays live but
            // misses the batch, exactly the transient loss the contiguity
            // check must catch on the next ship. The shipper sees an
            // unusable answer (no quorum vote), same as a lost RPC.
            if r.ship_dropped() {
                return Response::WrongRegion;
            }
            let resp = match r.apply_replicated(seq, batch) {
                // Duplicate/stale ships are already durable here, so both
                // outcomes ack with the current position.
                Ok(pga_repl::ShipOutcome::Applied | pga_repl::ShipOutcome::Stale) => {
                    Response::ShipAck {
                        applied_seq: r.applied_seq(),
                    }
                }
                // An earlier batch is missing: refuse the hole and report
                // the contiguous position so the shipper can backfill from
                // the primary's tail.
                Ok(pga_repl::ShipOutcome::Gap) => Response::ShipGap {
                    applied_seq: r.applied_seq(),
                },
                Err(_) => Response::WrongRegion,
            };
            publish(published, r);
            resp
        }
        Request::WalTail {
            region,
            epoch,
            from_seq,
        } => match regions.get(&region) {
            Some(r) if r.epoch() != epoch => Response::Fenced { epoch: r.epoch() },
            Some(r) => Response::WalBatches {
                batches: r.wal_batches_after(from_seq),
            },
            None => Response::WrongRegion,
        },
        Request::FollowerScan { region, scan } => match regions.get(&region) {
            Some(r) => Response::FollowerCells {
                cells: r.scan_spec(&scan),
                applied_seq: r.applied_seq(),
            },
            None => Response::WrongRegion,
        },
        // Fence before serving any bytes: a deposed primary answering a
        // repair fetch would launder stale data into a "repair" install
        // on every copy.
        Request::RepairFetch {
            region,
            range,
            epoch,
        } => match regions.get(&region) {
            Some(r) if r.epoch() != epoch => Response::Fenced { epoch: r.epoch() },
            Some(r) => Response::RepairCells {
                cells: r.scan(&range),
                applied_seq: r.applied_seq(),
            },
            None => Response::WrongRegion,
        },
        Request::Repair(region, epoch, key, value) => match regions.get_mut(&region) {
            Some(r) if r.epoch() != epoch => Response::Fenced { epoch: r.epoch() },
            Some(r) => {
                r.replace_cell_value(&key.row, &key.qualifier, &value);
                Response::Ok
            }
            None => Response::WrongRegion,
        },
        Request::Flush { region } => match regions.get_mut(&region) {
            Some(r) => {
                r.flush();
                publish(published, r);
                Response::Ok
            }
            None => Response::WrongRegion,
        },
        Request::Compact { region } => match regions.get_mut(&region) {
            Some(r) => {
                r.compact();
                publish(published, r);
                Response::Ok
            }
            None => Response::WrongRegion,
        },
        Request::Metrics => {
            Response::Metrics(regions.iter().map(|(&id, r)| (id, r.metrics())).collect())
        }
        Request::Open(region, recovery) => {
            let mut region = *region;
            let torn = recovery.is_some_and(|epoch| {
                region.set_epoch(epoch);
                region.crash_recover()
            });
            publish(published, &region);
            regions.insert(region.id(), region);
            Response::Opened(torn)
        }
        Request::Close(region) => match regions.remove(&region) {
            Some(r) => {
                published.lock().remove(&region);
                Response::Region(Box::new(r))
            }
            None => Response::WrongRegion,
        },
        Request::Fork(region) => match regions.get(&region) {
            Some(r) => Response::Region(Box::new(r.fork_follower())),
            None => Response::WrongRegion,
        },
        Request::SetEpoch(region, epoch) => match regions.get_mut(&region) {
            Some(r) => {
                r.set_epoch(epoch);
                Response::EpochSet(r.applied_seq())
            }
            None => Response::WrongRegion,
        },
        Request::Equip(fault, rewriter) => {
            for r in regions.values_mut() {
                r.set_fault_plane(fault.clone());
                if let Some(rewriter) = &rewriter {
                    r.set_compaction_rewriter(rewriter.clone());
                }
            }
            Response::Ok
        }
        Request::Scrub(verifier) => {
            let mut found = ScrubFinding::default();
            for r in regions.values() {
                r.scrub_cells(verifier.as_ref(), &mut found);
            }
            Response::Scrubbed(found)
        }
        Request::Corrupt(region, pick, selector, mutate) => Response::Corrupted(
            regions
                .get_mut(&region)
                .and_then(|r| r.corrupt_cell_for_fault_injection(pick, &selector, &*mutate)),
        ),
        Request::Stop => Response::Stopped(std::mem::take(regions)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionConfig;

    fn kv(row: &str) -> KeyValue {
        KeyValue::new(row.as_bytes().to_vec(), b"q".to_vec(), 1, b"v".to_vec())
    }

    fn open(server: &RegionServer, region: Region) {
        match server.handle().call(Request::Open(Box::new(region), None)) {
            Ok(Response::Opened(false)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    fn set_epoch(server: &RegionServer, epoch: u64) {
        match server.handle().call(Request::SetEpoch(RegionId(1), epoch)) {
            Ok(Response::EpochSet(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn put_scan_through_rpc() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        open(
            &server,
            Region::new(RegionId(1), RowRange::all(), RegionConfig::default()),
        );
        let h = server.handle();
        match h
            .call(Request::PutReplicated {
                region: RegionId(1),
                epoch: 1,
                batch: vec![kv("a"), kv("b")].into(),
            })
            .unwrap()
        {
            Response::Appended { seq } => assert_eq!(seq, 1),
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
            .call(Request::PutReplicated {
                region: RegionId(9),
                epoch: 1,
                batch: vec![kv("a")].into(),
            })
            .unwrap()
        {
            Response::PutRefused {
                fenced: None,
                batch,
            } => assert_eq!(batch.into_kvs(), vec![kv("a")]),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn out_of_range_row_reports_wrong_region() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        open(
            &server,
            Region::new(
                RegionId(1),
                RowRange::new(b"a".to_vec(), b"m".to_vec()),
                RegionConfig::default(),
            ),
        );
        let h = server.handle();
        match h
            .call(Request::PutReplicated {
                region: RegionId(1),
                epoch: 1,
                batch: vec![kv("z")].into(),
            })
            .unwrap()
        {
            Response::PutRefused {
                fenced: None,
                batch,
            } => assert_eq!(batch.into_kvs(), vec![kv("z")]),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unassign_moves_region_with_data() {
        let a = RegionServer::spawn(NodeId(0), ServerConfig::default());
        let b = RegionServer::spawn(NodeId(1), ServerConfig::default());
        open(
            &a,
            Region::new(RegionId(1), RowRange::all(), RegionConfig::default()),
        );
        a.handle()
            .call(Request::PutReplicated {
                region: RegionId(1),
                epoch: 1,
                batch: vec![kv("x")].into(),
            })
            .unwrap();
        let moved = match a.handle().call(Request::Close(RegionId(1))) {
            Ok(Response::Region(region)) => *region,
            other => panic!("unexpected {other:?}"),
        };
        open(&b, moved);
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
        assert!(matches!(
            a.handle().call(Request::Scan {
                region: RegionId(1),
                scan: RowRange::all().into(),
            }),
            Ok(Response::WrongRegion)
        ));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn replicated_put_ship_and_fencing_through_rpc() {
        let primary = RegionServer::spawn(NodeId(0), ServerConfig::default());
        let follower = RegionServer::spawn(NodeId(1), ServerConfig::default());
        let region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        let fork = region.fork_follower();
        open(&primary, region);
        open(&follower, fork);

        // Primary append under the current epoch.
        let seq = match primary
            .handle()
            .call(Request::PutReplicated {
                region: RegionId(1),
                epoch: 1,
                batch: vec![kv("a")].into(),
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
                batch: vec![kv("a")].into(),
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
        set_epoch(&follower, 2);
        match follower
            .handle()
            .call(Request::Ship {
                region: RegionId(1),
                epoch: 1,
                seq: seq + 1,
                batch: vec![kv("b")].into(),
            })
            .unwrap()
        {
            Response::Fenced { epoch } => assert_eq!(epoch, 2),
            other => panic!("unexpected {other:?}"),
        }
        set_epoch(&primary, 2);
        match primary
            .handle()
            .call(Request::PutReplicated {
                region: RegionId(1),
                epoch: 1,
                batch: vec![kv("c")].into(),
            })
            .unwrap()
        {
            Response::PutRefused {
                fenced: Some(epoch),
                batch,
            } => {
                let kvs = batch.into_kvs();
                assert_eq!(epoch, 2);
                assert_eq!(kvs, vec![kv("c")]);
            }
            other => panic!("unexpected {other:?}"),
        }

        assert_eq!(primary.published_seq(RegionId(1)), Some(seq));
        primary.shutdown();
        follower.shutdown();
    }

    #[test]
    fn gapped_ship_reports_position_and_wal_tail_backfills() {
        let primary = RegionServer::spawn(NodeId(0), ServerConfig::default());
        let follower = RegionServer::spawn(NodeId(1), ServerConfig::default());
        let region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        let fork = region.fork_follower();
        open(&primary, region);
        open(&follower, fork);
        let mut seqs = Vec::new();
        for row in ["a", "b", "c"] {
            match primary
                .handle()
                .call(Request::PutReplicated {
                    region: RegionId(1),
                    epoch: 1,
                    batch: vec![kv(row)].into(),
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
                    batch: vec![kv(row)].into(),
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
        set_epoch(&follower, 1); // no-op, keeps epoch 1
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
        for (seq, batch) in batches {
            match follower
                .handle()
                .call(Request::Ship {
                    region: RegionId(1),
                    epoch: 1,
                    seq,
                    batch,
                })
                .unwrap()
            {
                Response::ShipAck { applied_seq } => assert_eq!(applied_seq, seq),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(follower.published_seq(RegionId(1)), Some(seqs[2]));
        primary.shutdown();
        follower.shutdown();
    }

    #[test]
    fn metrics_roundtrip() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        open(
            &server,
            Region::new(RegionId(1), RowRange::all(), RegionConfig::default()),
        );
        server
            .handle()
            .call(Request::PutReplicated {
                region: RegionId(1),
                epoch: 1,
                batch: vec![kv("a"), kv("b"), kv("c")].into(),
            })
            .unwrap();
        let per_region = match server.handle().call(Request::Metrics).unwrap() {
            Response::Metrics(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(per_region.len(), 1);
        assert_eq!(per_region[0].1.cells_written, 3);
        // The published total is the same answer, with no RPC, and a
        // stopped server keeps it.
        assert_eq!(server.published_totals(), per_region[0].1);
        server.shutdown();
        assert_eq!(server.published_totals(), per_region[0].1);
    }

    /// A stop hands the regions back, memstore and WAL as they were, and
    /// refuses every later request.
    #[test]
    fn shutdown_hands_the_regions_back() {
        let mut server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        open(
            &server,
            Region::new(RegionId(1), RowRange::all(), RegionConfig::default()),
        );
        let h = server.handle();
        h.call(Request::PutReplicated {
            region: RegionId(1),
            epoch: 1,
            batch: vec![kv("a")].into(),
        })
        .unwrap();
        server.shutdown();
        server.shutdown();
        assert!(h.call(Request::Metrics).is_err());
        let mut left = server.take_left();
        let region = left.remove(&RegionId(1)).unwrap();
        assert_eq!(region.scan(&RowRange::all()), vec![kv("a")]);
        assert_eq!(region.applied_seq(), 1);
        assert_eq!(server.published_seq(RegionId(1)), None);
    }

    /// A repair fetch is fenced before it serves a byte: a reader still
    /// on the old epoch gets `Fenced` and no cells.
    #[test]
    fn repair_fetch_is_fenced_by_epoch() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        open(
            &server,
            Region::new(RegionId(1), RowRange::all(), RegionConfig::default()),
        );
        let h = server.handle();
        h.call(Request::PutReplicated {
            region: RegionId(1),
            epoch: 1,
            batch: vec![kv("a")].into(),
        })
        .unwrap();
        set_epoch(&server, 2);
        let fetch = |epoch: u64| {
            h.call(Request::RepairFetch {
                region: RegionId(1),
                range: RowRange::all(),
                epoch,
            })
            .unwrap()
        };
        assert!(matches!(fetch(1), Response::Fenced { epoch: 2 }));
        match fetch(2) {
            Response::RepairCells { cells, applied_seq } => {
                assert_eq!(cells, vec![kv("a")]);
                assert_eq!(applied_seq, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    /// A repair install is fenced like every other write: the epoch it
    /// was fetched under must still be the copy's.
    #[test]
    fn repair_install_is_fenced_by_epoch() {
        let server = RegionServer::spawn(NodeId(0), ServerConfig::default());
        open(
            &server,
            Region::new(RegionId(1), RowRange::all(), RegionConfig::default()),
        );
        let h = server.handle();
        h.call(Request::PutReplicated {
            region: RegionId(1),
            epoch: 1,
            batch: vec![kv("a")].into(),
        })
        .unwrap();
        h.call(Request::Flush {
            region: RegionId(1),
        })
        .unwrap();
        set_epoch(&server, 2);
        let repair = |epoch: u64| {
            let key = QuarantineKey {
                row: Bytes::copy_from_slice(b"a"),
                qualifier: Bytes::copy_from_slice(b"q"),
            };
            let value = Bytes::copy_from_slice(b"w");
            h.call(Request::Repair(RegionId(1), epoch, key, value))
                .unwrap()
        };
        let scan = || match h.call(Request::Scan {
            region: RegionId(1),
            scan: RowRange::all().into(),
        }) {
            Ok(Response::Cells(cells)) => cells.iter().next().unwrap().value.to_vec(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(matches!(repair(1), Response::Fenced { epoch: 2 }));
        assert_eq!(&scan()[..], b"v");
        assert!(matches!(repair(2), Response::Ok));
        assert_eq!(&scan()[..], b"w");
        server.shutdown();
    }
}
