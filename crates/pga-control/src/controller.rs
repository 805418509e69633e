//! The control loop against the real in-process cluster.
//!
//! [`ElasticController::step`] is one tick of the loop the elastic
//! simulator models: collect per-node telemetry from the live region
//! servers, publish it to the coordinator's `/stats` namespace (bound to
//! each node's session, so stats die with their node), scrape the fleet
//! snapshot back, ask the [`ScalingPolicy`] for a verdict, and actuate it
//! through the [`Master`] — `add_server` on scale-out, drain-and-
//! decommission on scale-in, and hot-region migrations proposed by the
//! [`HotRegionDetector`]. The harness drives ticks explicitly (no
//! background thread), keeping runs deterministic.

use std::collections::HashMap;

use pga_cluster::rpc::ServerState;
use pga_cluster::NodeId;
use pga_minibase::{Master, RegionId, Request, Response, ServerConfig};

use crate::policy::{
    ClusterObservation, HotRegionDetector, RegionLoad, ScalingDecision, ScalingPolicy,
};
use crate::telemetry::{publish, FleetSnapshot, Metric, NodeStats};

/// Sample one storage node's stats: queue, shed and write counters from
/// its RPC surface, replication placement from the master. `None` when
/// the master has never hosted `node`.
pub fn collect_node_stats(master: &Master, node: NodeId, tick: u64) -> Option<NodeStats> {
    let server = master.server(node)?;
    let handle = server.handle();
    let mut stats = NodeStats::new(node.0, tick);
    stats.crashed = handle.state() == ServerState::Crashed;
    // Region-level counters; a crashed server can't answer RPC, so
    // fall back to the assignment-surface totals.
    let (flushes, compactions) = if stats.crashed {
        (0, 0)
    } else {
        match handle.call(Request::Metrics) {
            Ok(Response::Metrics(per_region)) => per_region
                .iter()
                .fold((0, 0), |(f, c), (_, m)| (f + m.flushes, c + m.compactions)),
            _ => (0, 0),
        }
    };
    // Replication plane: worst follower lag and region count for the
    // regions this node leads, plus the promotions that made it a
    // primary — all from the master's authoritative view, so they
    // stay correct even while the node itself is unreachable.
    let (repl_lag_batches, repl_regions) = master
        .replication_report()
        .iter()
        .filter(|s| s.primary == node)
        .fold((0u64, 0u64), |(lag, n), s| (lag.max(s.max_lag()), n + 1));
    let repl_failovers = master
        .failover_events()
        .iter()
        .filter(|e| e.to == node)
        .count() as u64;
    stats
        .set(Metric::QueueDepth, handle.queue_depth() as u64)
        .set(Metric::QueueCapacity, handle.queue_capacity() as u64)
        .set(Metric::SamplesWritten, server.total_cells_written())
        .set(Metric::Flushes, flushes)
        .set(Metric::Compactions, compactions)
        .set(Metric::Overloads, handle.overloads())
        .set(Metric::ShedWrites, handle.shed_writes())
        .set(Metric::ShedReads, handle.shed_reads())
        .set(Metric::DeadlineExpired, handle.deadline_expired())
        .set(Metric::ReplLagBatches, repl_lag_batches)
        .set(Metric::ReplRegions, repl_regions)
        .set(Metric::ReplFailovers, repl_failovers);
    Some(stats)
}

/// What one control tick did.
#[derive(Debug, Clone)]
pub struct ControlReport {
    /// Tick number.
    pub tick: u64,
    /// Fleet view the decision was based on.
    pub snapshot: FleetSnapshot,
    /// Observation fed to the policy.
    pub observation: ClusterObservation,
    /// The policy's verdict.
    pub decision: ScalingDecision,
    /// Nodes provisioned this tick.
    pub added: Vec<NodeId>,
    /// Nodes drained and decommissioned this tick.
    pub decommissioned: Vec<NodeId>,
    /// Hot-region migration executed this tick, `(region, from, to)`.
    pub migration: Option<(RegionId, NodeId, NodeId)>,
}

/// Telemetry-driven controller over a [`Master`].
pub struct ElasticController<P: ScalingPolicy> {
    policy: P,
    detector: HotRegionDetector,
    server_config: ServerConfig,
    tick: u64,
    /// Per-region cumulative writes at the previous tick, for share deltas.
    prev_region_writes: HashMap<RegionId, u64>,
    prev_total_written: u64,
    /// Latest ingest-proxy stats handed in via [`Self::report_ingest`].
    ingest_stats: Vec<NodeStats>,
}

impl<P: ScalingPolicy> ElasticController<P> {
    /// Controller that sizes new nodes with `server_config`.
    pub fn new(policy: P, server_config: ServerConfig) -> Self {
        ElasticController {
            policy,
            detector: HotRegionDetector::default(),
            server_config,
            tick: 0,
            prev_region_writes: HashMap::new(),
            prev_total_written: 0,
            ingest_stats: Vec::new(),
        }
    }

    /// Replace the hot-region detector (e.g. to tune tolerance).
    pub fn with_detector(mut self, detector: HotRegionDetector) -> Self {
        self.detector = detector;
        self
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Report ingest-proxy stats for the next tick. The proxy is not a
    /// cluster node (it holds no coordinator session), so the harness
    /// hands its overload snapshot to the controller, which folds it into
    /// the fleet view and the policy's backlog-pressure signal.
    pub fn report_ingest(&mut self, stats: NodeStats) {
        self.ingest_stats.retain(|s| s.node != stats.node);
        self.ingest_stats.push(stats);
    }

    /// Per-region write shares since the previous tick, for the hot-region
    /// detector. Returns `(loads, live_nodes)`.
    fn region_loads(&mut self, master: &Master) -> (Vec<RegionLoad>, Vec<u32>) {
        let mut current: HashMap<RegionId, (u32, u64)> = HashMap::new();
        for node in master.live_nodes() {
            if let Some(server) = master.server(node) {
                if server.handle().state() != ServerState::Healthy {
                    continue;
                }
                if let Ok(Response::Metrics(per_region)) = server.handle().call(Request::Metrics) {
                    for (rid, m) in per_region {
                        current.insert(rid, (node.0, m.cells_written));
                    }
                }
            }
        }
        let mut deltas: Vec<(RegionId, u32, u64)> = current
            .iter()
            .map(|(&rid, &(node, written))| {
                let prev = self.prev_region_writes.get(&rid).copied().unwrap_or(0);
                (rid, node, written.saturating_sub(prev))
            })
            .collect();
        deltas.sort_by_key(|&(rid, _, _)| rid.0);
        self.prev_region_writes = current
            .iter()
            .map(|(&rid, &(_, written))| (rid, written))
            .collect();
        let total: u64 = deltas.iter().map(|&(_, _, d)| d).sum();
        let loads = if total == 0 {
            Vec::new()
        } else {
            deltas
                .into_iter()
                .map(|(rid, node, d)| RegionLoad {
                    region: rid.0,
                    node,
                    write_share: d as f64 / total as f64,
                })
                .collect()
        };
        let nodes: Vec<u32> = master.live_nodes().iter().map(|n| n.0).collect();
        (loads, nodes)
    }

    /// Run one control tick at `now_ms`: telemetry → policy → actuation.
    pub fn step(&mut self, master: &mut Master, now_ms: u64) -> ControlReport {
        self.tick += 1;
        let tick = self.tick;

        // 1. Telemetry: publish every live node's stats under /stats.
        for node in master.live_nodes() {
            if let (Some(stats), Some(session)) =
                (collect_node_stats(master, node, tick), master.session(node))
            {
                let _ = publish(master.coordinator(), session, &stats);
            }
        }
        let mut snapshot = FleetSnapshot::scrape(master.coordinator());
        // Fold in ingest-proxy stats (sessionless, so never scraped).
        snapshot.nodes.extend(self.ingest_stats.iter().cloned());
        snapshot.nodes.sort_by_key(|s| s.node);

        // 2. Observe. Service utilization is approximated by write-rate
        //    growth; without a wall clock the queue signals dominate.
        //    Backlog pressure is the ingest side backing up: proxy buffer
        //    occupancy is the leading indicator that offered load exceeds
        //    what admission control is letting through.
        let total_written = snapshot.fold(Metric::SamplesWritten);
        let wrote_something = total_written > self.prev_total_written;
        self.prev_total_written = total_written;
        let observation = ClusterObservation {
            tick,
            active_nodes: snapshot.live_nodes(),
            mean_queue_utilization: snapshot.mean_queue_utilization(),
            service_utilization: if wrote_something { 0.5 } else { 0.0 },
            backlog_pressure: snapshot.ingest_pressure(),
            crashed_nodes: snapshot.crashed_nodes(),
        };

        // 3. Decide and actuate.
        let decision = self.policy.observe(&observation);
        let mut added = Vec::new();
        let mut decommissioned = Vec::new();
        match decision {
            ScalingDecision::Hold => {}
            ScalingDecision::ScaleOut(k) => {
                for _ in 0..k {
                    added.push(master.add_server(self.server_config, now_ms));
                }
            }
            ScalingDecision::ScaleIn(k) => {
                // Highest node ids first, never below one node.
                let mut live = master.live_nodes();
                live.reverse();
                for node in live.into_iter().take(k) {
                    if master.live_nodes().len() <= 1 {
                        break;
                    }
                    if master.decommission_server(node).is_some() {
                        decommissioned.push(node);
                    }
                }
            }
        }

        // 4. Hot-region migration (at most one per tick).
        let (loads, live) = self.region_loads(master);
        let migration = self.detector.detect(&loads, &live).and_then(|p| {
            let rid = RegionId(p.region);
            master
                .move_region(rid, NodeId(p.to))
                .then_some((rid, NodeId(p.from), NodeId(p.to)))
        });

        ControlReport {
            tick,
            snapshot,
            observation,
            decision,
            added,
            decommissioned,
            migration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{KeyValue, RegionConfig, TableDescriptor};

    /// Plays back a scripted decision sequence.
    struct Scripted(Vec<ScalingDecision>);

    impl ScalingPolicy for Scripted {
        fn observe(&mut self, _obs: &ClusterObservation) -> ScalingDecision {
            if self.0.is_empty() {
                ScalingDecision::Hold
            } else {
                self.0.remove(0)
            }
        }

        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    fn boot(nodes: usize, splits: &[&[u8]]) -> Master {
        let coord = Coordinator::new(60_000);
        let mut m = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
        m.create_table(&TableDescriptor {
            name: "tsdb".into(),
            split_points: splits.iter().map(|s| Bytes::from(s.to_vec())).collect(),
            region_config: RegionConfig::default(),
        });
        m
    }

    #[test]
    fn scale_out_then_in_actuates_through_master() {
        let mut master = boot(2, &[b"m"]);
        let mut ctl = ElasticController::new(
            Scripted(vec![
                ScalingDecision::ScaleOut(1),
                ScalingDecision::Hold,
                ScalingDecision::ScaleIn(1),
            ]),
            ServerConfig::default(),
        );
        let r1 = ctl.step(&mut master, 1000);
        assert_eq!(r1.added, vec![NodeId(2)]);
        assert_eq!(master.live_nodes().len(), 3);
        // Stats were published for the original nodes.
        assert_eq!(r1.snapshot.nodes.len(), 2);

        let r2 = ctl.step(&mut master, 2000);
        assert_eq!(r2.decision, ScalingDecision::Hold);
        // The new node now publishes too.
        assert_eq!(r2.snapshot.nodes.len(), 3);

        let r3 = ctl.step(&mut master, 3000);
        assert_eq!(r3.decommissioned, vec![NodeId(2)]);
        assert_eq!(master.live_nodes().len(), 2);
        master.shutdown();
    }

    #[test]
    fn reported_ingest_stats_drive_backlog_pressure() {
        let mut master = boot(2, &[b"m"]);
        let mut ctl = ElasticController::new(Scripted(Vec::new()), ServerConfig::default());
        let mut proxy = NodeStats::new(1000, 0);
        proxy.is_proxy = true;
        proxy
            .set(Metric::ShedWrites, 7)
            .set(Metric::BreakerTrips, 1)
            .set(Metric::IngestBufferDepth, 80)
            .set(Metric::IngestBufferCapacity, 100);
        ctl.report_ingest(proxy.clone());
        let r = ctl.step(&mut master, 1000);
        assert!((r.observation.backlog_pressure - 0.8).abs() < 1e-9);
        // The proxy appears in the fleet view but never in the serving count.
        assert!(r.snapshot.nodes.iter().any(|n| n.is_proxy));
        assert_eq!(r.observation.active_nodes, 2);
        // Re-reporting the same proxy replaces, not duplicates.
        proxy.set(Metric::IngestBufferDepth, 10);
        ctl.report_ingest(proxy);
        let r = ctl.step(&mut master, 2000);
        assert!((r.observation.backlog_pressure - 0.1).abs() < 1e-9);
        assert_eq!(r.snapshot.nodes.iter().filter(|n| n.is_proxy).count(), 1);
        master.shutdown();
    }

    #[test]
    fn hot_region_is_migrated_off_the_loaded_node() {
        // 3 nodes so one node's 100% share clears the 2× fair-share bar.
        let mut master = boot(3, &[b"g", b"p"]);
        let mut ctl = ElasticController::new(Scripted(Vec::new()), ServerConfig::default());
        // Tick once to establish the write baseline.
        ctl.step(&mut master, 1000);
        // Hammer one region on node 0 so its share dwarfs the rest.
        let dir = master.directory();
        let info = dir
            .read()
            .iter()
            .find(|i| i.server == NodeId(0))
            .unwrap()
            .clone();
        let row: &[u8] = if info.range.contains(b"a") {
            b"a"
        } else if info.range.contains(b"j") {
            b"j"
        } else {
            b"z"
        };
        let server = master.server(NodeId(0)).unwrap();
        for i in 0..200u64 {
            server
                .handle()
                .call(Request::Put {
                    region: info.id,
                    kvs: vec![KeyValue::new(row.to_vec(), b"q".to_vec(), i, b"v".to_vec())],
                })
                .unwrap();
        }
        let r = ctl.step(&mut master, 2000);
        let (rid, from, to) = r.migration.expect("hot region must move");
        assert_eq!(rid, info.id);
        assert_eq!(from, NodeId(0));
        assert_eq!(to, NodeId(1));
        // Directory reflects the migration.
        assert!(dir
            .read()
            .iter()
            .any(|i| i.id == rid && i.server == NodeId(1)));
        master.shutdown();
    }
}
