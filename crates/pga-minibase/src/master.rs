//! The master: region directory, table creation with pre-splits, liveness
//! and reassignment.
//!
//! Mirrors the paper's deployment: "HDFS was set up with one NameNode
//! (co-running HBase master), … and 29 Regionservers that communicate
//! through the built-in Apache Zookeeper coordination service" (§III-A).
//! The master tracks which server hosts which row range, pre-splits tables
//! so "each region handle\[s\] an equal proportion of the writes" (§III-B),
//! and uses coordinator leases to detect dead servers and reassign their
//! regions. It places them by message on the servers' RPC queues, so a
//! stopped server refuses placement ([`PlacementError`]) until its lease
//! expires and [`Master::tick`] recovers what it left.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use pga_cluster::coordinator::{Coordinator, SessionId};
use pga_cluster::rpc::ServerState;
use pga_cluster::NodeId;
use pga_repl::{choose_promotee, ReplicationConfig};

use crate::fault::{no_faults, FaultHandle};
use crate::kv::RowRange;
use crate::region::{Region, RegionConfig, RegionId};
use crate::server::{RegionServer, Request, Response, ServerConfig};

/// Descriptor used to create a table.
#[derive(Debug, Clone)]
pub struct TableDescriptor {
    /// Table name (one table per deployment is enough for TSDB).
    pub name: String,
    /// Pre-split points: region boundaries, ascending. `n` split points
    /// make `n + 1` regions.
    pub split_points: Vec<Bytes>,
    /// Region tuning applied to every region.
    pub region_config: RegionConfig,
}

/// One directory entry: a region and the node hosting it.
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// Region id.
    pub id: RegionId,
    /// Row range served.
    pub range: RowRange,
    /// Hosting node (the primary copy when `followers` is non-empty).
    pub server: NodeId,
    /// Nodes hosting follower copies (empty = unreplicated). The
    /// replication driver ships every primary-acked WAL batch here.
    pub followers: Vec<NodeId>,
    /// Replication-group epoch. Writes and ships stamped with any other
    /// epoch are rejected by the replicas (fencing); bumped on every
    /// promotion.
    pub epoch: u64,
    /// Copies that must hold a batch durably before the client may ack
    /// it — the *effective* write quorum resolved from the deployment's
    /// [`ReplicationConfig`] at table creation (1 for unreplicated
    /// regions). Deliberately **not** reduced when copies die: a
    /// `quorum == factor` deployment keeps failing writes honestly until
    /// re-replication restores the factor.
    pub write_quorum: usize,
}

impl RegionInfo {
    /// Every node hosting a copy of this region (primary first).
    pub fn replicas(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.server).chain(self.followers.iter().copied())
    }

    /// Whether `node` hosts any copy of this region.
    pub fn hosts_copy(&self, node: NodeId) -> bool {
        self.server == node || self.followers.contains(&node)
    }
}

/// Why the master refused a placement change; the directory is as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// No directory entry has this id, or its server does not host it.
    UnknownRegion(RegionId),
    /// The node does not serve: stopped, its lease expired, or unknown.
    NodeDown(NodeId),
    /// The target already hosts a copy of the region.
    HostsCopy(NodeId),
    /// A replicated region: a split would have to cut every copy at one
    /// WAL point.
    Replicated(RegionId),
    /// Too little data to split.
    Unsplittable(RegionId),
}

/// One failover performed by [`Master::tick`]: a dead primary's region
/// promoted onto its most-caught-up surviving follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEvent {
    /// The region that failed over.
    pub region: RegionId,
    /// The dead primary.
    pub from: NodeId,
    /// The promoted follower.
    pub to: NodeId,
    /// The epoch installed by the promotion.
    pub epoch: u64,
    /// Master-clock time of the sweep that promoted.
    pub at_ms: u64,
}

/// Replication position of one region: the primary's last assigned WAL
/// sequence against each follower's applied sequence.
#[derive(Debug, Clone)]
pub struct RegionReplicationStatus {
    /// Region id.
    pub region: RegionId,
    /// Primary node.
    pub primary: NodeId,
    /// Current epoch.
    pub epoch: u64,
    /// Primary's last assigned WAL sequence.
    pub primary_seq: u64,
    /// `(follower node, applied sequence)` per follower copy.
    pub followers: Vec<(NodeId, u64)>,
}

impl RegionReplicationStatus {
    /// Batches the slowest follower trails the primary by.
    pub fn max_lag(&self) -> u64 {
        self.followers
            .iter()
            .map(|&(_, seq)| self.primary_seq.saturating_sub(seq))
            .max()
            .unwrap_or(0)
    }
}

/// Shared region directory — the `hbase:meta` analog. Clients hold a clone
/// and refresh after `WrongRegion` responses.
pub type Directory = Arc<RwLock<Vec<RegionInfo>>>;

/// The cluster master. Owns the region servers for this in-process
/// deployment and the authoritative directory.
pub struct Master {
    servers: HashMap<NodeId, RegionServer>,
    sessions: HashMap<NodeId, SessionId>,
    /// Nodes whose sessions have expired — never assignment targets again.
    dead: HashSet<NodeId>,
    directory: Directory,
    coordinator: Coordinator,
    next_region: u64,
    fault: FaultHandle,
    /// Optional compaction rewriter installed on every region (existing
    /// and future), mirroring the fault-plane propagation.
    rewriter: Option<crate::rewrite::RewriterHandle>,
    /// Copies per region the master maintains (1 = unreplicated). Set by
    /// [`Master::create_replicated_table`]; re-replication after a
    /// failover restores this factor when spare nodes exist.
    desired_factor: usize,
    /// Round-robin cursor for re-replication placement.
    repl_rr: usize,
    /// Every promotion, in sweep order.
    failover_log: Vec<FailoverEvent>,
    /// Lease recoveries whose replayed WAL image decoded torn.
    torn_replays: u64,
}

impl Master {
    /// Boot a cluster of `nodes` region servers registered with the
    /// coordinator at time `now_ms`.
    pub fn bootstrap(
        nodes: usize,
        server_config: ServerConfig,
        coordinator: Coordinator,
        now_ms: u64,
    ) -> Self {
        let mut servers = HashMap::new();
        let mut sessions = HashMap::new();
        for i in 0..nodes {
            let node = NodeId(i as u32);
            let server = RegionServer::spawn(node, server_config);
            let session = coordinator.connect(now_ms);
            coordinator
                .create_ephemeral(
                    &format!("/rs/{}", node.0),
                    node.0.to_le_bytes().to_vec(),
                    session,
                )
                // pga-allow(panic-path): bootstrap-time only — the /rs namespace is empty before any node registers
                .expect("fresh namespace");
            servers.insert(node, server);
            sessions.insert(node, session);
        }
        Master {
            servers,
            sessions,
            dead: HashSet::new(),
            directory: Arc::new(RwLock::new(Vec::new())),
            coordinator,
            next_region: 0,
            fault: no_faults(),
            rewriter: None,
            desired_factor: 1,
            repl_rr: 0,
            failover_log: Vec::new(),
            torn_replays: 0,
        }
    }

    /// Install a fault plane on the master and every hosted region
    /// (simulation harnesses only; the default plane is a no-op). Regions
    /// created or split later inherit the handle.
    pub fn set_fault_plane(&mut self, fault: FaultHandle) {
        self.fault = fault;
        self.equip_all();
    }

    /// Install a compaction rewriter on every hosted region; regions
    /// created or split later inherit it, mirroring
    /// [`Master::set_fault_plane`].
    pub fn set_compaction_rewriter(&mut self, rewriter: crate::rewrite::RewriterHandle) {
        self.rewriter = Some(rewriter);
        self.equip_all();
    }

    /// Send the fault plane and rewriter to every serving node.
    fn equip_all(&self) {
        for node in self.nodes() {
            let _ = self.request(
                node,
                Request::Equip(self.fault.clone(), self.rewriter.clone()),
            );
        }
    }

    /// Create a table: build regions from the split points and assign them
    /// round-robin across servers.
    pub fn create_table(&mut self, desc: &TableDescriptor) {
        assert!(
            desc.split_points
                .iter()
                .zip(desc.split_points.iter().skip(1))
                .all(|(a, b)| a < b),
            "split points must be ascending and unique"
        );
        let mut boundaries: Vec<Bytes> = Vec::with_capacity(desc.split_points.len() + 2);
        boundaries.push(Bytes::new());
        boundaries.extend(desc.split_points.iter().cloned());
        boundaries.push(Bytes::new());
        let nodes = self.nodes();
        assert!(!nodes.is_empty(), "create_table needs a live server pool");
        let mut dir = Vec::new();
        let ranges = boundaries.iter().zip(boundaries.iter().skip(1));
        for ((start, end), &node) in ranges.zip(nodes.iter().cycle()) {
            self.next_region += 1;
            let id = RegionId(self.next_region);
            let range = RowRange {
                start: start.clone(),
                end: end.clone(),
            };
            let mut region = Region::new(id, range.clone(), desc.region_config);
            region.set_fault_plane(self.fault.clone());
            if let Some(rewriter) = &self.rewriter {
                region.set_compaction_rewriter(rewriter.clone());
            }
            let opened = self.open(node, region);
            assert!(
                opened.is_ok(),
                "create_table needs every server: {opened:?}"
            );
            dir.push(RegionInfo {
                id,
                range,
                server: node,
                followers: Vec::new(),
                epoch: 1,
                write_quorum: 1,
            });
        }
        *self.directory.write() = dir;
    }

    /// Create a table with `factor` copies of every region: the primary
    /// is assigned round-robin exactly as [`Master::create_table`] does,
    /// and `factor - 1` follower copies (forked empty from the primary)
    /// land on the next distinct nodes in the rotation. Requires at
    /// least `factor` live servers so every copy sits on its own node —
    /// a server's regions are keyed by id, so two copies on one server
    /// would silently collide. `factor <= 1` degenerates to an
    /// unreplicated table.
    pub fn create_replicated_table(&mut self, desc: &TableDescriptor, factor: usize) {
        self.create_replicated_table_cfg(
            desc,
            &ReplicationConfig {
                factor,
                ..ReplicationConfig::default()
            },
        );
    }

    /// [`Master::create_replicated_table`] with the full replication
    /// config: the config's **effective write quorum** (majority by
    /// default, or the explicit `write_quorum` knob) is stamped on every
    /// directory entry, so clients enforce the deployment's configured
    /// durability on the write path rather than re-deriving a default.
    pub fn create_replicated_table_cfg(&mut self, desc: &TableDescriptor, cfg: &ReplicationConfig) {
        self.create_table(desc);
        let factor = cfg.factor;
        if factor <= 1 {
            self.desired_factor = 1;
            return;
        }
        let nodes = self.live_nodes();
        assert!(
            nodes.len() >= factor,
            "replication factor {factor} needs at least that many live servers, have {}",
            nodes.len()
        );
        self.desired_factor = factor;
        let quorum = cfg.effective_quorum();
        let mut dir = self.directory.write();
        for info in dir.iter_mut() {
            info.write_quorum = quorum;
            let primary_pos = nodes.iter().position(|&n| n == info.server).unwrap_or(0);
            let targets = nodes.iter().cycle().skip(primary_pos + 1).take(factor - 1);
            for &target in targets {
                let forked = self.fork_onto(info, target);
                assert!(forked, "create_replicated_table needs every server");
                info.followers.push(target);
            }
        }
    }

    /// The shared directory handle for clients.
    pub fn directory(&self) -> Directory {
        self.directory.clone()
    }

    /// The region server hosting `node`, if alive.
    pub fn server(&self, node: NodeId) -> Option<&RegionServer> {
        self.servers.get(&node)
    }

    /// All node ids, sorted (including nodes that have since died).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.servers.keys().copied().collect();
        v.sort();
        v
    }

    /// Live node ids, sorted — the only valid assignment targets.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        let mut v = self.nodes();
        v.retain(|n| !self.dead.contains(n));
        v
    }

    /// Whether `node` takes requests: lease alive, server not stopped.
    fn serving(&self, node: NodeId) -> bool {
        !self.dead.contains(&node)
            && self
                .servers
                .get(&node)
                .is_some_and(|s| s.handle().state() == ServerState::Healthy)
    }

    /// Send `req` to `node`'s server; a node that does not serve refuses.
    fn request(&self, node: NodeId, req: Request) -> Result<Response, PlacementError> {
        let down = PlacementError::NodeDown(node);
        let server = self
            .servers
            .get(&node)
            .filter(|_| !self.dead.contains(&node));
        server.ok_or(down)?.handle().call(req).map_err(|_| down)
    }

    /// Open `region` on `node`; callers check [`Master::serving`] first,
    /// as a refused open loses the region.
    fn open(&self, node: NodeId, region: Region) -> Result<(), PlacementError> {
        self.request(node, Request::Open(Box::new(region), None))
            .map(drop)
    }

    /// Close region `id` on `node`, taking it over.
    fn close(&self, node: NodeId, id: RegionId) -> Result<Region, PlacementError> {
        match self.request(node, Request::Close(id))? {
            Response::Region(region) => Ok(*region),
            _ => Err(PlacementError::UnknownRegion(id)),
        }
    }

    /// Fork a follower of `info`'s region onto `target`; `false` if refused.
    fn fork_onto(&self, info: &RegionInfo, target: NodeId) -> bool {
        match self.request(info.server, Request::Fork(info.id)) {
            Ok(Response::Region(fork)) => self.open(target, *fork).is_ok(),
            _ => false,
        }
    }

    /// A copy of the directory.
    fn entries(&self) -> Vec<RegionInfo> {
        self.directory.read().clone()
    }

    /// A copy of `id`'s directory entry.
    fn entry(&self, id: RegionId) -> Result<RegionInfo, PlacementError> {
        let entry = self.entries().into_iter().find(|i| i.id == id);
        entry.ok_or(PlacementError::UnknownRegion(id))
    }

    /// Heartbeat one server's coordinator session (driven by the harness).
    /// The timestamp passes through the fault plane's clock-skew hook, so
    /// a skewed node stamps stale heartbeats and can lose its lease.
    pub fn heartbeat(&self, node: NodeId, now_ms: u64) {
        let stamped = self.fault.skew_ms(node, now_ms);
        if let Some(&session) = self.sessions.get(&node) {
            let _ = self.coordinator.heartbeat(session, stamped);
        }
    }

    /// Liveness sweep at `now_ms`: expire silent servers and move their
    /// regions' copies onto live ones. Every region is a replication
    /// group — a single-copy region is a group of one — and one sweep
    /// over the directory handles them all: dead followers are pruned, a
    /// dead primary is promoted around when a follower survives, and
    /// recovered from the WAL it left under a bumped epoch when none
    /// does. Returns the ids of the regions the sweep touched.
    pub fn tick(&mut self, now_ms: u64) -> Vec<RegionId> {
        let removed = self.coordinator.expire_stale_sessions(now_ms);
        let mut reassigned = Vec::new();
        let mut dead_nodes = Vec::new();
        for path in removed {
            if let Some(rest) = path.strip_prefix("/rs/") {
                if let Ok(n) = rest.parse::<u32>() {
                    dead_nodes.push(NodeId(n));
                }
            }
        }
        if dead_nodes.is_empty() {
            return reassigned;
        }
        // Deterministic sweep order regardless of coordinator/session map
        // iteration order — fault-simulation traces must be replayable.
        dead_nodes.sort();
        self.dead.extend(dead_nodes.iter().copied());
        let live = self.live_nodes();
        assert!(!live.is_empty(), "entire cluster died");
        // Stop each dead server and take what it left (WAL and store
        // files), by node: a region's copies may die together.
        let mut left: HashMap<(NodeId, RegionId), Region> = HashMap::new();
        for &node in &dead_nodes {
            let regions = self.servers.get_mut(&node).map(RegionServer::take_left);
            for (id, region) in regions.into_iter().flatten() {
                left.insert((node, id), region);
            }
        }
        // The directory write lock is held across the sweep: clients never
        // see an entry pointing at a dead server mid-reassignment.
        let mut dir = self.directory.write();
        let mut rr = 0usize;
        // A dead primary is *promoted around* when a follower survives:
        // the most-caught-up one (which holds every quorum-acked write)
        // leads under a bumped epoch that fences the deposed writer. Its
        // memstore is intact, so nothing replays — the availability win
        // over lease recovery.
        for info in dir.iter_mut() {
            let primary_dead = dead_nodes.contains(&info.server);
            let followers_before = info.followers.len();
            info.followers.retain(|n| !dead_nodes.contains(n));
            if !primary_dead {
                if info.followers.len() < followers_before {
                    reassigned.push(info.id);
                }
                continue;
            }
            // Every serving follower takes the new epoch and answers with
            // its position.
            let new_epoch = info.epoch + 1;
            let survivors: Vec<(NodeId, u64)> = info
                .followers
                .iter()
                .filter_map(
                    |&n| match self.request(n, Request::SetEpoch(info.id, new_epoch)) {
                        Ok(Response::EpochSet(seq)) => Some((n, seq)),
                        _ => None,
                    },
                )
                .collect();
            if let Some(promotee) = choose_promotee(&survivors) {
                self.failover_log.push(FailoverEvent {
                    region: info.id,
                    from: info.server,
                    to: promotee,
                    epoch: new_epoch,
                    at_ms: now_ms,
                });
                info.server = promotee;
                info.followers.retain(|&n| n != promotee);
                info.epoch = new_epoch;
                reassigned.push(info.id);
                continue;
            }
            // No copy survives (always so for a single-copy region): lease
            // recovery on a serving node replays the WAL the dead node left
            // (its memstore died with it) under the bumped epoch.
            let Some(region) = left.remove(&(info.server, info.id)) else {
                continue;
            };
            // Like an empty live set, no serving node at all is a cluster
            // that has died: fail loudly rather than drop the region.
            let Some(target) = (0..live.len())
                .filter_map(|i| live.get((rr + i) % live.len()).copied())
                .find(|&n| self.serving(n))
            else {
                panic!("no serving node to recover region {} onto", info.id.0);
            };
            rr += 1;
            let recover = Request::Open(Box::new(region), Some(new_epoch));
            if let Ok(Response::Opened(torn)) = self.request(target, recover) {
                self.torn_replays += u64::from(torn);
            }
            info.server = target;
            info.followers.clear();
            info.epoch = new_epoch;
            reassigned.push(info.id);
        }
        // Re-replication: fork fresh followers from each primary onto
        // serving nodes without a copy, back up to the desired factor.
        if self.desired_factor > 1 {
            for info in dir.iter_mut() {
                while 1 + info.followers.len() < self.desired_factor {
                    let Some((i, target)) = (0..live.len())
                        .filter_map(|i| live.get((self.repl_rr + i) % live.len()).map(|&n| (i, n)))
                        .find(|&(_, n)| !info.hosts_copy(n) && self.serving(n))
                    else {
                        break;
                    };
                    self.repl_rr += i + 1;
                    if !self.fork_onto(info, target) {
                        break;
                    }
                    info.followers.push(target);
                }
            }
        }
        reassigned
    }

    /// Split one region in place: close it, split it at the median row,
    /// open the daughters (left stays, right goes to the next node round-
    /// robin) and update the directory. Returns the daughter ids.
    pub fn split_region(&mut self, rid: RegionId) -> Result<(RegionId, RegionId), PlacementError> {
        let info = self.entry(rid)?;
        if !info.followers.is_empty() {
            // Splitting a replicated region would need a coordinated
            // multi-copy split (every replica at the same WAL point);
            // refuse rather than diverge the copies.
            return Err(PlacementError::Replicated(rid));
        }
        let nodes = self.live_nodes();
        let pos = nodes.iter().position(|&n| n == info.server).unwrap_or(0);
        let right_node = nodes
            .iter()
            .cycle()
            .nth(pos + 1)
            .copied()
            .unwrap_or(info.server);
        if !self.serving(right_node) {
            return Err(PlacementError::NodeDown(right_node));
        }
        let region = self.close(info.server, rid)?;
        self.next_region += 1;
        let left_id = RegionId(self.next_region);
        self.next_region += 1;
        let right_id = RegionId(self.next_region);
        let (left, right) = match region.split(left_id, right_id) {
            Ok(daughters) => daughters,
            Err(region) => {
                // Could not split: put it back untouched.
                self.open(info.server, region)?;
                return Err(PlacementError::Unsplittable(rid));
            }
        };
        let daughter = |id: RegionId, region: &Region, server: NodeId| RegionInfo {
            id,
            range: region.range().clone(),
            server,
            followers: Vec::new(),
            epoch: 1,
            write_quorum: 1,
        };
        let left_info = daughter(left_id, &left, info.server);
        let right_info = daughter(right_id, &right, right_node);
        self.open(info.server, left)?;
        self.open(right_node, right)?;
        let mut dir = self.directory.write();
        dir.retain(|i| i.id != rid);
        dir.push(left_info);
        dir.push(right_info);
        dir.sort_by(|a, b| a.range.start.cmp(&b.range.start));
        Ok((left_id, right_id))
    }

    /// Migrate one region to `target` while clients keep writing.
    ///
    /// The directory write lock is held across close → open → update, so
    /// clients either see the old entry (and get `WrongRegion` from the
    /// source, triggering their retry-with-refresh loop) or the new entry
    /// pointing at a server that already hosts the region. The region
    /// moves with its memstore and files, so no datapoint is lost or
    /// double-served. Both ends must serve: a stopped source keeps its
    /// regions for lease recovery, which replays them from the WAL.
    pub fn move_region(&mut self, rid: RegionId, target: NodeId) -> Result<(), PlacementError> {
        if !self.serving(target) {
            return Err(PlacementError::NodeDown(target));
        }
        let info = self.entry(rid)?;
        if info.followers.contains(&target) {
            return Err(PlacementError::HostsCopy(target));
        }
        if info.server == target {
            return Ok(());
        }
        let mut dir = self.directory.write();
        let mut region = self.close(info.server, rid)?;
        // Deliberate injection site: mutant C drops the memstore during
        // migration; the faithful plane ships the region intact.
        if self.fault.drop_memstore_on_move(rid) {
            region.clear_memstore();
        }
        self.open(target, region)?;
        for entry in dir.iter_mut().filter(|i| i.id == rid) {
            entry.server = target;
        }
        Ok(())
    }

    /// Promotions performed across all liveness sweeps.
    pub fn failovers(&self) -> u64 {
        self.failover_log.len() as u64
    }

    /// Every promotion performed, in sweep order.
    pub fn failover_events(&self) -> &[FailoverEvent] {
        &self.failover_log
    }

    /// Lease recoveries whose replayed WAL image decoded torn, across all
    /// liveness sweeps.
    pub fn torn_replays(&self) -> u64 {
        self.torn_replays
    }

    /// The replication factor the master maintains (1 = unreplicated).
    pub fn replication_factor(&self) -> usize {
        self.desired_factor
    }

    /// Replication position of every replicated region: the primary's
    /// last WAL sequence against each follower's applied sequence, as
    /// each server last published them. Feeds telemetry (max lag) and
    /// the fault harness's divergence oracle.
    pub fn replication_report(&self) -> Vec<RegionReplicationStatus> {
        let seq = |node: NodeId, id: RegionId| {
            self.servers
                .get(&node)
                .and_then(|s| s.published_seq(id))
                .unwrap_or(0)
        };
        self.entries()
            .into_iter()
            .filter(|info| !info.followers.is_empty())
            .map(|info| RegionReplicationStatus {
                region: info.id,
                primary: info.server,
                epoch: info.epoch,
                primary_seq: seq(info.server, info.id),
                followers: info
                    .followers
                    .iter()
                    .map(|&n| (n, seq(n, info.id)))
                    .collect(),
            })
            .collect()
    }

    /// Shut every server down.
    pub fn shutdown(&self) {
        for s in self.servers.values() {
            s.shutdown();
        }
    }
}

/// Find the directory entry serving `row`.
pub fn locate(directory: &Directory, row: &[u8]) -> Option<RegionInfo> {
    let dir = directory.read();
    dir.iter().find(|info| info.range.contains(row)).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KeyValue;
    use crate::server::{Request, Response};
    use pga_cluster::rpc::RpcError;

    fn scan(m: &Master, node: NodeId, region: RegionId) -> Result<Response, RpcError> {
        m.server(node).unwrap().handle().call(Request::Scan {
            region,
            scan: RowRange::all().into(),
        })
    }

    fn table(splits: &[&[u8]]) -> TableDescriptor {
        TableDescriptor {
            name: "tsdb".into(),
            split_points: splits.iter().map(|s| Bytes::from(s.to_vec())).collect(),
            region_config: RegionConfig::default(),
        }
    }

    #[test]
    fn create_table_assigns_round_robin() {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(3, ServerConfig::default(), coord, 0);
        m.create_table(&table(&[b"g", b"p"]));
        let dir = m.directory();
        let d = dir.read();
        assert_eq!(d.len(), 3);
        // Each of 3 regions on a distinct node.
        let mut nodes: Vec<u32> = d.iter().map(|i| i.server.0).collect();
        nodes.sort();
        assert_eq!(nodes, vec![0, 1, 2]);
        m.shutdown();
    }

    #[test]
    fn locate_routes_rows_to_ranges() {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        m.create_table(&table(&[b"m"]));
        let dir = m.directory();
        let first = locate(&dir, b"a").unwrap();
        let second = locate(&dir, b"z").unwrap();
        assert_ne!(first.id, second.id);
        assert!(first.range.contains(b"a"));
        assert!(second.range.contains(b"z"));
        m.shutdown();
    }

    #[test]
    fn dead_server_regions_are_reassigned_with_data() {
        let coord = Coordinator::new(100);
        let mut m = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        m.create_table(&table(&[b"m"]));
        let dir = m.directory();
        // Find the region on node 0 and write into it.
        let info = dir
            .read()
            .iter()
            .find(|i| i.server == NodeId(0))
            .unwrap()
            .clone();
        let server = m.server(NodeId(0)).unwrap();
        let row: &[u8] = if info.range.contains(b"a") {
            b"a"
        } else {
            b"z"
        };
        match server
            .handle()
            .call(Request::PutReplicated {
                region: info.id,
                epoch: 1,
                batch: vec![KeyValue::new(row.to_vec(), b"q".to_vec(), 1, b"v".to_vec())].into(),
            })
            .unwrap()
        {
            Response::Appended { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        // Node 1 heartbeats; node 0 goes silent past the lease.
        m.heartbeat(NodeId(1), 500);
        let reassigned = m.tick(500);
        assert_eq!(reassigned, vec![info.id]);
        // Directory now points at node 1 and the data is there.
        let moved = locate(&dir, row).unwrap();
        assert_eq!(moved.server, NodeId(1));
        match m
            .server(NodeId(1))
            .unwrap()
            .handle()
            .call(Request::Scan {
                region: info.id,
                scan: RowRange::all().into(),
            })
            .unwrap()
        {
            Response::Cells(cells) => assert_eq!(cells.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        m.shutdown();
    }

    /// A single-copy region is a replication group of one: lease
    /// recovery bumps its epoch in the directory and on the region alike,
    /// so a writer still holding the old epoch is fenced.
    #[test]
    fn lease_recovery_bumps_a_single_copy_regions_epoch_and_fences_the_old_one() {
        let coord = Coordinator::new(100);
        let mut m = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        m.create_table(&table(&[]));
        let dir = m.directory();
        let before = dir.read()[0].clone();
        assert_eq!(before.epoch, 1);
        let survivor = NodeId(1 - before.server.0);
        m.heartbeat(survivor, 500);
        assert_eq!(m.tick(500), vec![before.id]);
        let after = dir.read()[0].clone();
        assert_eq!((after.server, after.epoch), (survivor, 2));
        assert!(after.followers.is_empty());
        assert_eq!(m.failovers(), 0, "recovery is not a promotion");
        let put = |epoch: u64| {
            m.server(survivor)
                .unwrap()
                .handle()
                .call(Request::PutReplicated {
                    region: after.id,
                    epoch,
                    batch: vec![KeyValue::new(
                        b"k".to_vec(),
                        b"q".to_vec(),
                        1,
                        b"v".to_vec(),
                    )]
                    .into(),
                })
                .unwrap()
        };
        match put(1) {
            Response::PutRefused {
                fenced: Some(epoch),
                batch,
            } => {
                let kvs = batch.into_kvs();
                assert_eq!(epoch, 2);
                assert_eq!(kvs.len(), 1);
                assert_eq!(&kvs[0].row[..], b"k");
            }
            other => panic!("unexpected {other:?}"),
        }
        match put(2) {
            Response::Appended { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        m.shutdown();
    }

    #[test]
    fn split_region_updates_directory() {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        m.create_table(&table(&[]));
        let dir = m.directory();
        let rid = dir.read()[0].id;
        let info = dir.read()[0].clone();
        let server = m.server(info.server).unwrap();
        for i in 0..50 {
            server
                .handle()
                .call(Request::PutReplicated {
                    region: rid,
                    epoch: 1,
                    batch: vec![KeyValue::new(
                        format!("row{i:03}").into_bytes(),
                        b"q".to_vec(),
                        1,
                        b"v".to_vec(),
                    )]
                    .into(),
                })
                .unwrap();
        }
        let (l, r) = m.split_region(rid).unwrap();
        let d = dir.read();
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|i| i.id == l));
        assert!(d.iter().any(|i| i.id == r));
        // Ranges partition the keyspace.
        assert!(locate(&dir, b"row000").is_some());
        assert!(locate(&dir, b"row049").is_some());
        m.shutdown();
    }

    #[test]
    fn move_region_carries_data_and_updates_directory() {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        m.create_table(&table(&[]));
        let dir = m.directory();
        let info = dir.read()[0].clone();
        let source = info.server;
        m.server(source)
            .unwrap()
            .handle()
            .call(Request::PutReplicated {
                region: info.id,
                epoch: 1,
                batch: vec![KeyValue::new(
                    b"k".to_vec(),
                    b"q".to_vec(),
                    1,
                    b"v".to_vec(),
                )]
                .into(),
            })
            .unwrap();
        let target = m.nodes().into_iter().find(|&n| n != source).unwrap();
        assert_eq!(m.move_region(info.id, target), Ok(()));
        assert_eq!(locate(&dir, b"k").unwrap().server, target);
        // Source now answers WrongRegion; target serves the datapoint.
        match m.server(source).unwrap().handle().call(Request::Scan {
            region: info.id,
            scan: RowRange::all().into(),
        }) {
            Ok(Response::WrongRegion) => {}
            other => panic!("unexpected {other:?}"),
        }
        match m.server(target).unwrap().handle().call(Request::Scan {
            region: info.id,
            scan: RowRange::all().into(),
        }) {
            Ok(Response::Cells(cells)) => assert_eq!(cells.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        m.shutdown();
    }

    #[test]
    fn split_of_empty_region_is_refused_and_region_survives() {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(1, ServerConfig::default(), coord, 0);
        m.create_table(&table(&[]));
        let rid = m.directory().read()[0].id;
        assert_eq!(m.split_region(rid), Err(PlacementError::Unsplittable(rid)));
        assert_eq!(m.directory().read().len(), 1);
        assert!(matches!(
            scan(&m, NodeId(0), rid),
            Ok(Response::Cells(cells)) if cells.is_empty()
        ));
        m.shutdown();
    }

    /// Ship `seq` directly to a follower copy so replicas diverge in lag.
    fn ship_to(m: &Master, node: NodeId, info: &RegionInfo, seq: u64, row: &[u8]) {
        match m
            .server(node)
            .unwrap()
            .handle()
            .call(Request::Ship {
                region: info.id,
                epoch: info.epoch,
                seq,
                batch: vec![KeyValue::new(row.to_vec(), b"q".to_vec(), 1, b"v".to_vec())].into(),
            })
            .unwrap()
        {
            Response::ShipAck { applied_seq } => assert_eq!(applied_seq, seq),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failover_promotes_most_caught_up_follower_and_fences_epoch() {
        let coord = Coordinator::new(100);
        let mut m = Master::bootstrap(4, ServerConfig::default(), coord, 0);
        m.create_replicated_table(&table(&[]), 3);
        let info = m.directory().read()[0].clone();
        let (lagging, ahead) = (info.followers[0], info.followers[1]);
        // One follower applies two shipped batches, the other only one.
        ship_to(&m, lagging, &info, 1, b"a");
        ship_to(&m, ahead, &info, 1, b"a");
        ship_to(&m, ahead, &info, 2, b"b");
        m.server(info.server).unwrap().shutdown();
        for n in m.nodes() {
            if n != info.server {
                m.heartbeat(n, 500);
            }
        }
        m.tick(500);
        let promoted = m.directory().read()[0].clone();
        assert_eq!(
            promoted.server, ahead,
            "promotion must pick max applied seq"
        );
        assert_eq!(promoted.epoch, info.epoch + 1);
        assert_eq!(m.failovers(), 1);
        let ev = &m.failover_events()[0];
        assert_eq!(
            (ev.from, ev.to, ev.epoch),
            (info.server, ahead, info.epoch + 1)
        );
        // The surviving (now lagging) follower was fenced to the new epoch:
        // a ship stamped with the old epoch is rejected.
        match m
            .server(lagging)
            .unwrap()
            .handle()
            .call(Request::Ship {
                region: info.id,
                epoch: info.epoch,
                seq: 2,
                batch: vec![KeyValue::new(
                    b"c".to_vec(),
                    b"q".to_vec(),
                    1,
                    b"v".to_vec(),
                )]
                .into(),
            })
            .unwrap()
        {
            Response::Fenced { epoch } => assert_eq!(epoch, info.epoch + 1),
            other => panic!("unexpected {other:?}"),
        }
        m.shutdown();
    }

    #[test]
    fn failover_rereplicates_back_to_desired_factor() {
        let coord = Coordinator::new(100);
        let mut m = Master::bootstrap(3, ServerConfig::default(), coord, 0);
        m.create_replicated_table(&table(&[]), 2);
        let info = m.directory().read()[0].clone();
        m.server(info.server).unwrap().shutdown();
        for n in m.nodes() {
            if n != info.server {
                m.heartbeat(n, 500);
            }
        }
        m.tick(500);
        // The follower was promoted and a fresh copy forked onto the spare
        // node, restoring the replication factor.
        let report = m.replication_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].primary, info.followers[0]);
        assert_eq!(report[0].followers.len(), 1);
        assert_ne!(
            report[0].followers[0].0, info.server,
            "dead node not reused"
        );
        assert_ne!(report[0].followers[0].0, report[0].primary);
        m.shutdown();
    }

    #[test]
    fn replicated_table_cfg_stamps_effective_quorum_on_directory() {
        let coord = Coordinator::new(100);
        let mut m = Master::bootstrap(3, ServerConfig::default(), coord, 0);
        m.create_replicated_table_cfg(
            &table(&[b"m"]),
            &ReplicationConfig {
                factor: 3,
                write_quorum: 3,
                ..ReplicationConfig::default()
            },
        );
        for info in m.directory().read().iter() {
            assert_eq!(info.write_quorum, 3, "explicit quorum threads through");
            assert_eq!(info.followers.len(), 2);
        }
        // The factor-only path resolves to a majority quorum, and the
        // stamp survives promotion (directory entries mutate in place).
        let coord = Coordinator::new(100);
        let mut m2 = Master::bootstrap(3, ServerConfig::default(), coord, 0);
        m2.create_replicated_table(&table(&[]), 3);
        let info = m2.directory().read()[0].clone();
        assert_eq!(info.write_quorum, 2, "majority of 3");
        m2.server(info.server).unwrap().shutdown();
        for n in m2.nodes() {
            if n != info.server {
                m2.heartbeat(n, 500);
            }
        }
        m2.tick(500);
        let promoted = m2.directory().read()[0].clone();
        assert_ne!(promoted.server, info.server);
        assert_eq!(promoted.write_quorum, 2, "quorum survives failover");
        m.shutdown();
        m2.shutdown();
    }

    #[test]
    fn replicated_regions_refuse_split_and_follower_targeted_moves() {
        let coord = Coordinator::new(1000);
        let mut m = Master::bootstrap(3, ServerConfig::default(), coord, 0);
        m.create_replicated_table(&table(&[]), 2);
        let info = m.directory().read()[0].clone();
        assert_eq!(
            m.split_region(info.id),
            Err(PlacementError::Replicated(info.id))
        );
        assert_eq!(
            m.move_region(info.id, info.followers[0]),
            Err(PlacementError::HostsCopy(info.followers[0]))
        );
        m.shutdown();
    }

    /// A crashed node serves no placement: before its lease expires a
    /// move or split of its region is refused and the directory stays as
    /// it was; after, the sweep recovers the region from its WAL onto a
    /// live node with every acked cell.
    #[test]
    fn placement_never_reaches_a_crashed_server() {
        let coord = Coordinator::new(100);
        let mut m = Master::bootstrap(3, ServerConfig::default(), coord, 0);
        m.create_table(&table(&[b"m"]));
        let dir = m.directory();
        let info = dir.read()[0].clone();
        let rows: Vec<Vec<u8>> = (0..20).map(|i| format!("a{i:02}").into_bytes()).collect();
        for (i, row) in rows.iter().enumerate() {
            let kvs = vec![KeyValue::new(row.clone(), b"q".to_vec(), 1, b"v".to_vec())];
            match m
                .server(info.server)
                .unwrap()
                .handle()
                .call(Request::PutReplicated {
                    region: info.id,
                    epoch: 1,
                    batch: kvs.into(),
                })
                .unwrap()
            {
                Response::Appended { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
            if i == 9 {
                m.server(info.server)
                    .unwrap()
                    .handle()
                    .call(Request::Flush { region: info.id })
                    .unwrap();
            }
        }
        m.server(info.server).unwrap().shutdown();
        let target = m.nodes().into_iter().find(|&n| n != info.server).unwrap();
        let down = Err(PlacementError::NodeDown(info.server));
        assert_eq!(m.move_region(info.id, target), down);
        assert_eq!(m.split_region(info.id).map(drop), down);
        assert_eq!(m.move_region(dir.read()[1].id, info.server), down);
        let entries = |m: &Master| {
            let d = m.directory();
            let d = d.read();
            d.iter()
                .map(|i| (i.id, i.server, i.epoch))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            entries(&m),
            vec![
                (info.id, info.server, 1),
                (dir.read()[1].id, dir.read()[1].server, 1)
            ]
        );

        for n in m.nodes() {
            if n != info.server {
                m.heartbeat(n, 500);
            }
        }
        assert_eq!(m.tick(500), vec![info.id]);
        let recovered = dir.read()[0].clone();
        assert_ne!(recovered.server, info.server);
        assert_eq!(recovered.epoch, 2);
        match scan(&m, recovered.server, info.id) {
            Ok(Response::Cells(cells)) => {
                let got: Vec<Vec<u8>> = cells.iter().map(|kv| kv.row.to_vec()).collect();
                assert_eq!(got, rows);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.torn_replays(), 0);
        m.shutdown();
    }
}
