//! The master: region directory, table creation with pre-splits, liveness
//! and reassignment.
//!
//! Mirrors the paper's deployment: "HDFS was set up with one NameNode
//! (co-running HBase master), … and 29 Regionservers that communicate
//! through the built-in Apache Zookeeper coordination service" (§III-A).
//! The master tracks which server hosts which row range, pre-splits tables
//! so "each region handle\[s\] an equal proportion of the writes" (§III-B),
//! and uses coordinator leases to detect dead servers and reassign their
//! regions.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use pga_cluster::coordinator::{Coordinator, SessionId};
use pga_cluster::NodeId;
use pga_repl::{choose_promotee, ReplicationConfig};

use crate::fault::{no_faults, FaultHandle};
use crate::kv::RowRange;
use crate::region::{Region, RegionConfig, RegionId};
use crate::server::{RegionServer, ServerConfig};

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
    dead: std::collections::HashSet<NodeId>,
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
    /// Promotions performed across all ticks.
    failovers: u64,
    /// Every promotion, in sweep order.
    failover_log: Vec<FailoverEvent>,
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
            dead: std::collections::HashSet::new(),
            directory: Arc::new(RwLock::new(Vec::new())),
            coordinator,
            next_region: 0,
            fault: no_faults(),
            rewriter: None,
            desired_factor: 1,
            repl_rr: 0,
            failovers: 0,
            failover_log: Vec::new(),
        }
    }

    /// Install a fault plane on the master and every hosted region
    /// (simulation harnesses only; the default plane is a no-op). Regions
    /// created or split later inherit the handle.
    pub fn set_fault_plane(&mut self, fault: FaultHandle) {
        self.fault = fault.clone();
        for server in self.servers.values() {
            server.set_fault_plane(fault.clone());
        }
    }

    /// Install a compaction rewriter on every hosted region; regions
    /// created or split later inherit it, mirroring
    /// [`Master::set_fault_plane`].
    pub fn set_compaction_rewriter(&mut self, rewriter: crate::rewrite::RewriterHandle) {
        self.rewriter = Some(rewriter.clone());
        for server in self.servers.values() {
            server.set_compaction_rewriter(rewriter.clone());
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
        let nodes: Vec<NodeId> = {
            let mut v: Vec<NodeId> = self.servers.keys().copied().collect();
            v.sort();
            v
        };
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
            // pga-allow(panic-path): node is drawn from servers.keys(), so the entry exists
            self.servers[&node].assign(region);
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
    /// the region map is keyed by id, so two copies on one server would
    /// silently collide. `factor <= 1` degenerates to an unreplicated
    /// table.
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
            // pga-allow(panic-path): create_table just assigned this region to info.server
            let primary_pos = nodes.iter().position(|&n| n == info.server).unwrap();
            for k in 1..factor {
                // pga-allow(panic-path): index is taken modulo nodes.len(), non-empty at bootstrap
                let target = nodes[(primary_pos + k) % nodes.len()];
                // pga-allow(panic-path): the primary server hosts the region it was just assigned
                let fork = self.servers[&info.server]
                    // pga-allow(lock-discipline): bootstrap-time; directory → server-regions is the global lock order
                    .fork_region_follower(info.id)
                    // pga-allow(panic-path): the primary server hosts the region it was just assigned
                    .expect("primary hosts the region");
                // pga-allow(panic-path, lock-discipline): target ∈ nodes ⊆ servers.keys(); directory → server-regions is the global lock order
                self.servers[&target].assign(fork);
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
        let mut v: Vec<NodeId> = self
            .servers
            .keys()
            .copied()
            .filter(|n| !self.dead.contains(n))
            .collect();
        v.sort();
        v
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

    /// Liveness sweep at `now_ms`: expire silent servers and reassign
    /// their regions to the remaining live ones (recovering unflushed data
    /// through each region's shared WAL). Returns reassigned region ids.
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
        // The directory write lock is deliberately held across the whole
        // unassign → recover → assign sweep: clients must never observe a
        // directory entry pointing at a dead server mid-reassignment. The
        // server-side locks acquired inside these calls (each server's
        // region map, each region's WAL) always nest *under* the directory
        // lock, here and in move_region — one global order, no cycle.
        let dead_set: std::collections::HashSet<NodeId> = dead_nodes.iter().copied().collect();
        let mut dir = self.directory.write();
        let mut rr = 0usize;
        // Phase 1 — replicated regions. A dead primary is *promoted
        // around*, not recovered: the most-caught-up surviving follower
        // (which holds every quorum-acked write by construction) becomes
        // primary under a bumped epoch, fencing the deposed primary's
        // writer out of future quorums. Dead follower copies are pruned.
        // No WAL replay happens on this path — the survivor's memstore is
        // intact, which is exactly the availability win over lease
        // recovery.
        let mut handled: std::collections::HashSet<RegionId> = std::collections::HashSet::new();
        for info in dir.iter_mut() {
            if info.followers.is_empty() {
                continue;
            }
            let primary_dead = dead_set.contains(&info.server);
            let dead_followers: Vec<NodeId> = info
                .followers
                .iter()
                .copied()
                .filter(|n| dead_set.contains(n))
                .collect();
            if !primary_dead && dead_followers.is_empty() {
                continue;
            }
            handled.insert(info.id);
            for &n in &dead_followers {
                if let Some(s) = self.servers.get(&n) {
                    // pga-allow(lock-discipline): directory → server-regions is the global lock order (see above)
                    s.unassign(info.id);
                }
            }
            info.followers.retain(|n| !dead_set.contains(n));
            if !primary_dead {
                reassigned.push(info.id);
                continue;
            }
            let survivors: Vec<(NodeId, u64)> = info
                .followers
                .iter()
                .filter_map(|&n| {
                    self.servers
                        .get(&n)
                        // pga-allow(lock-discipline): directory → server-regions is the global lock order (see above)
                        .and_then(|s| s.region_applied_seq(info.id))
                        .map(|seq| (n, seq))
                })
                .collect();
            let new_epoch = info.epoch + 1;
            if let Some(promotee) = choose_promotee(&survivors) {
                if let Some(s) = self.servers.get(&info.server) {
                    // pga-allow(lock-discipline): directory → server-regions is the global lock order (see above)
                    s.unassign(info.id);
                }
                // pga-allow(panic-path, lock-discipline): promotee ∈ info.followers ⊆ servers.keys(); directory → server-regions is the global lock order
                self.servers[&promotee].promote_region(info.id, new_epoch);
                for &(n, _) in &survivors {
                    if n != promotee {
                        // pga-allow(panic-path, lock-discipline): survivor nodes were just read from servers; directory → server-regions is the global lock order
                        self.servers[&n].set_region_epoch(info.id, new_epoch);
                    }
                }
                self.failovers += 1;
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
            } else if let Some(mut region) = self
                .servers
                .get(&info.server)
                // pga-allow(lock-discipline): directory → server-regions is the global lock order (see above)
                .and_then(|s| s.unassign(info.id))
            {
                // Every copy died in one sweep: fall back to single-copy
                // lease recovery from the primary's shared WAL, still
                // under a bumped epoch so stragglers stay fenced.
                // pga-allow(lock-discipline): directory → region-WAL is the global lock order (see above)
                region.crash_recover();
                region.set_epoch(new_epoch);
                // pga-allow(panic-path): live is asserted non-empty above
                let target = live[rr % live.len()];
                rr += 1;
                // pga-allow(panic-path, lock-discipline): target ∈ live ⊆ servers.keys(); directory → server-regions is the global lock order
                self.servers[&target].assign(region);
                info.server = target;
                info.followers.clear();
                info.epoch = new_epoch;
                reassigned.push(info.id);
            }
        }
        // Phase 1b — re-replication: restore the desired factor by
        // forking fresh follower copies from each primary onto live
        // nodes not yet hosting a copy.
        if self.desired_factor > 1 {
            for info in dir.iter_mut() {
                while 1 + info.followers.len() < self.desired_factor {
                    let mut target = None;
                    for i in 0..live.len() {
                        // pga-allow(panic-path): index is taken modulo live.len(), non-zero inside this loop
                        let cand = live[(self.repl_rr + i) % live.len()];
                        if !info.hosts_copy(cand) {
                            target = Some(cand);
                            self.repl_rr += i + 1;
                            break;
                        }
                    }
                    let Some(target) = target else { break };
                    let Some(fork) = self
                        .servers
                        .get(&info.server)
                        // pga-allow(lock-discipline): directory → server-regions is the global lock order (see above)
                        .and_then(|s| s.fork_region_follower(info.id))
                    else {
                        break;
                    };
                    // pga-allow(panic-path, lock-discipline): target ∈ live ⊆ servers.keys(); directory → server-regions is the global lock order
                    self.servers[&target].assign(fork);
                    info.followers.push(target);
                }
            }
        }
        // Phase 2 — unreplicated regions: the original crash-recovery
        // sweep (drop memstore, replay the shared WAL through its byte
        // encoding, reassign round-robin).
        for dead in &dead_nodes {
            let dead_server = match self.servers.get(dead) {
                Some(s) => s,
                None => continue,
            };
            // pga-allow(lock-discipline): directory → server-regions is the global lock order (see above)
            for rid in dead_server.hosted_regions() {
                if handled.contains(&rid) {
                    continue;
                }
                // pga-allow(lock-discipline): directory → server-regions is the global lock order (see above)
                if let Some(mut region) = dead_server.unassign(rid) {
                    // A real crash loses the memstore with the process:
                    // crash_recover drops it, reads the WAL back through
                    // its byte encoding (where the fault plane may tear
                    // the tail) and replays the surviving records.
                    // pga-allow(lock-discipline): directory → region-WAL is the global lock order (see above)
                    region.crash_recover();
                    // pga-allow(panic-path): live is asserted non-empty above
                    let target = live[rr % live.len()];
                    rr += 1;
                    // pga-allow(panic-path, lock-discipline): target ∈ live ⊆ servers.keys(); directory → server-regions order (see above)
                    self.servers[&target].assign(region);
                    for info in dir.iter_mut() {
                        if info.id == rid {
                            info.server = target;
                        }
                    }
                    reassigned.push(rid);
                }
            }
        }
        for dead in dead_nodes {
            if let Some(s) = self.servers.get(&dead) {
                s.shutdown();
            }
        }
        reassigned
    }

    /// Split one region in place: unassign, split at the median row,
    /// assign daughters (left stays, right goes to the next node round-
    /// robin), update the directory. Returns the daughter ids on success.
    pub fn split_region(&mut self, rid: RegionId) -> Option<(RegionId, RegionId)> {
        let info = {
            let dir = self.directory.read();
            dir.iter().find(|i| i.id == rid)?.clone()
        };
        if !info.followers.is_empty() {
            // Splitting a replicated region would need a coordinated
            // multi-copy split (every replica at the same WAL point);
            // refuse rather than diverge the copies.
            return None;
        }
        let server = self.servers.get(&info.server)?;
        let region = server.unassign(rid)?;
        self.next_region += 1;
        let left_id = RegionId(self.next_region);
        self.next_region += 1;
        let right_id = RegionId(self.next_region);
        match region.split(left_id, right_id) {
            Ok((left, right)) => {
                let nodes = self.live_nodes();
                let pos = nodes.iter().position(|&n| n == info.server).unwrap_or(0);
                // pga-allow(panic-path): the hosting server just answered unassign, so the live set is non-empty
                let right_node = nodes[(pos + 1) % nodes.len()];
                let left_info = RegionInfo {
                    id: left_id,
                    range: left.range().clone(),
                    server: info.server,
                    followers: Vec::new(),
                    epoch: 1,
                    write_quorum: 1,
                };
                let right_info = RegionInfo {
                    id: right_id,
                    range: right.range().clone(),
                    server: right_node,
                    followers: Vec::new(),
                    epoch: 1,
                    write_quorum: 1,
                };
                server.assign(left);
                // pga-allow(panic-path): right_node is drawn from live_nodes() ⊆ servers.keys()
                self.servers[&right_node].assign(right);
                let mut dir = self.directory.write();
                dir.retain(|i| i.id != rid);
                dir.push(left_info);
                dir.push(right_info);
                dir.sort_by(|a, b| a.range.start.cmp(&b.range.start));
                Some((left_id, right_id))
            }
            Err(region) => {
                // Could not split: put it back untouched.
                server.assign(region);
                None
            }
        }
    }

    /// Migrate one region to `target` while clients keep writing.
    ///
    /// The directory write lock is held across unassign → assign → update,
    /// so clients either see the old entry (and get `WrongRegion` from the
    /// source, triggering their retry-with-refresh loop) or the new entry
    /// pointing at a server that already hosts the region. The in-process
    /// `Region` struct moves with its memstore and files, so no datapoint
    /// is lost or double-served.
    pub fn move_region(&mut self, rid: RegionId, target: NodeId) -> bool {
        if self.dead.contains(&target) || !self.servers.contains_key(&target) {
            return false;
        }
        let source = {
            let dir = self.directory.read();
            match dir.iter().find(|i| i.id == rid) {
                Some(info) => {
                    if info.followers.contains(&target) {
                        // The target already hosts a follower copy; the
                        // region map is keyed by id, so assigning the
                        // primary there would silently overwrite it.
                        return false;
                    }
                    info.server
                }
                None => return false,
            }
        };
        if source == target {
            return true;
        }
        let mut dir = self.directory.write();
        // pga-allow(lock-discipline): directory → server-regions is the global lock order (see tick)
        let mut region = match self.servers.get(&source).and_then(|s| s.unassign(rid)) {
            Some(r) => r,
            None => return false,
        };
        // Deliberate injection site: mutant C drops the memstore during
        // migration; the faithful plane ships the region intact.
        if self.fault.drop_memstore_on_move(rid) {
            region.clear_memstore();
        }
        // pga-allow(panic-path, lock-discipline): target checked in servers above; directory → server-regions order
        self.servers[&target].assign(region);
        for info in dir.iter_mut() {
            if info.id == rid {
                info.server = target;
            }
        }
        true
    }

    /// Promotions performed across all liveness sweeps.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Every promotion performed, in sweep order.
    pub fn failover_events(&self) -> &[FailoverEvent] {
        &self.failover_log
    }

    /// The replication factor the master maintains (1 = unreplicated).
    pub fn replication_factor(&self) -> usize {
        self.desired_factor
    }

    /// Replication position of every replicated region: the primary's
    /// last WAL sequence against each follower's applied sequence. Feeds
    /// telemetry (max lag) and the fault harness's divergence oracle.
    pub fn replication_report(&self) -> Vec<RegionReplicationStatus> {
        let dir = self.directory.read();
        dir.iter()
            .filter(|info| !info.followers.is_empty())
            .map(|info| RegionReplicationStatus {
                region: info.id,
                primary: info.server,
                epoch: info.epoch,
                primary_seq: self
                    .servers
                    .get(&info.server)
                    // pga-allow(lock-discipline): directory → server-regions is the global lock order (see tick)
                    .and_then(|s| s.region_applied_seq(info.id))
                    .unwrap_or(0),
                followers: info
                    .followers
                    .iter()
                    .map(|&n| {
                        (
                            n,
                            self.servers
                                .get(&n)
                                // pga-allow(lock-discipline): directory → server-regions is the global lock order (see tick)
                                .and_then(|s| s.region_applied_seq(info.id))
                                .unwrap_or(0),
                        )
                    })
                    .collect(),
            })
            .collect()
    }

    /// The coordinator this master registers servers with.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
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
            .call(Request::Put {
                region: info.id,
                kvs: vec![KeyValue::new(row.to_vec(), b"q".to_vec(), 1, b"v".to_vec())],
            })
            .unwrap()
        {
            Response::Ok => {}
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
                .call(Request::Put {
                    region: rid,
                    kvs: vec![KeyValue::new(
                        format!("row{i:03}").into_bytes(),
                        b"q".to_vec(),
                        1,
                        b"v".to_vec(),
                    )],
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
            .call(Request::Put {
                region: info.id,
                kvs: vec![KeyValue::new(
                    b"k".to_vec(),
                    b"q".to_vec(),
                    1,
                    b"v".to_vec(),
                )],
            })
            .unwrap();
        let target = m.nodes().into_iter().find(|&n| n != source).unwrap();
        assert!(m.move_region(info.id, target));
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
        assert!(m.split_region(rid).is_none());
        assert_eq!(m.directory().read().len(), 1);
        assert!(m.server(NodeId(0)).unwrap().hosted_regions().contains(&rid));
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
                kvs: vec![KeyValue::new(row.to_vec(), b"q".to_vec(), 1, b"v".to_vec())],
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
                kvs: vec![KeyValue::new(
                    b"c".to_vec(),
                    b"q".to_vec(),
                    1,
                    b"v".to_vec(),
                )],
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
        assert!(m.split_region(info.id).is_none());
        assert!(!m.move_region(info.id, info.followers[0]));
        m.shutdown();
    }
}
