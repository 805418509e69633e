//! Per-node telemetry: one metric table, the per-node sample built from
//! it, and the fleet-wide folds over those samples.
//!
//! Every metric is declared once, as a row of the `metrics!` table
//! below; [`FleetSnapshot::fold`], the `/cluster` tiles and the
//! `/metrics` exposition are all loops over [`METRICS`]. The layers that
//! own the counters keep their own atomics; whoever can see them
//! *samples* them into a [`NodeStats`] — [`collect_node_stats`] for a
//! storage node, the platform monitor for its own front end.

use std::sync::atomic::{AtomicU64, Ordering};

use pga_cluster::rpc::ServerState;
use pga_cluster::NodeId;
use pga_minibase::Master;

/// Number of power-of-two histogram buckets: bucket `i` counts values in
/// `[2^i, 2^(i+1))`, with bucket 0 also holding zeros and ones.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Lock-free power-of-two histogram for hot-path recordings (batch sizes,
/// queue depths at admission).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// Bucket index for `value`: `floor(log2(value))` clamped to the last
/// bucket, with 0 and 1 both landing in bucket 0. The last bucket is
/// open-ended — it holds everything from `2^31` up to `u64::MAX`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((63 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one value.
    ///
    /// Write order is the publish protocol readers rely on: bucket and
    /// sum first (Relaxed), then `count` with Release. A reader that
    /// Acquire-loads `count` and sees `n` recordings is guaranteed the
    /// bucket and sum contributions of all `n` are visible — see the
    /// `histogram-snapshot` model in `pga-analyze::interleave`.
    ///
    /// `sum` wraps modulo 2^64 (`fetch_add` wraps by definition); `count`
    /// stays exact, so the mean degrades but never panics.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Number of recordings. Acquire pairs with the Release in
    /// [`Histogram::record`]: every counted recording's bucket/sum writes
    /// happen-before this load returns.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (approximate,
    /// within 2× of the true value below the last bucket). 0 when empty;
    /// `u64::MAX` when the quantile lands in the open-ended last bucket —
    /// its values are unbounded, so `2^32` (the old answer) could be
    /// wrong by a factor of 2^32.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return if i + 1 >= HISTOGRAM_BUCKETS {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
            }
        }
        u64::MAX
    }
}

/// How a metric combines across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Add every counted node's value.
    Sum,
    /// Take the worst (largest) counted node's value.
    Max,
}

/// Which samples a fleet fold counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every sample: crashed nodes' history, proxies and front ends too.
    All,
    /// Live region servers only — not crashed, not a proxy or front end:
    /// the fleet whose RPC queues these rows describe.
    Serving,
}

/// One row of the metric table.
#[derive(Debug)]
pub struct MetricDef {
    /// The variant this row declares.
    pub metric: Metric,
    /// Wire name: the sample name on `/metrics`.
    pub name: &'static str,
    /// What the value counts (also the variant's rustdoc).
    pub help: &'static str,
    /// How [`FleetSnapshot::fold`] combines it across nodes.
    pub fold: Fold,
    /// Which nodes that fold counts.
    pub scope: Scope,
    /// `/cluster` tile label; `None` keeps the metric off the page.
    pub tile: Option<&'static str>,
}

/// Declares every per-node metric once. A row expands to a [`Metric`]
/// variant and its [`MetricDef`] in [`METRICS`]; the fleet fold, the
/// `/metrics` sample and the `/cluster` tile are all derived from the
/// row, so adding a metric is one row here plus one [`NodeStats::set`]
/// where the value is known.
macro_rules! metrics {
    ($($variant:ident, $name:literal, $fold:ident, $scope:ident, $tile:expr, $help:literal;)*) => {
        /// A per-node metric: one row of [`METRICS`], indexing
        /// [`NodeStats`] values and selecting a [`FleetSnapshot::fold`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $help] $variant,)*
        }

        /// The metric table, in wire order: `METRICS[m as usize].metric == m`.
        pub const METRICS: &[MetricDef] = &[
            $(MetricDef {
                metric: Metric::$variant,
                name: $name,
                help: $help,
                fold: Fold::$fold,
                scope: Scope::$scope,
                tile: $tile,
            },)*
        ];
    };
}

metrics! {
    QueueDepth, "queue_depth", Sum, Serving, None, "RPC queue depth at snapshot time.";
    QueueCapacity, "queue_capacity", Sum, Serving, None, "RPC queue capacity.";
    SamplesWritten, "samples_written", Sum, All, None, "Cumulative samples written.";
    Flushes, "flushes", Sum, All, None, "Cumulative flushes.";
    Compactions, "compactions", Sum, All, None, "Cumulative compactions.";
    Overloads, "overloads", Sum, All, None, "Cumulative overload strikes.";
    ShedWrites, "shed_writes", Sum, All, None, "Cumulative write RPCs shed by admission control.";
    ShedReads, "shed_reads", Sum, All, None, "Cumulative read RPCs shed by admission control.";
    DeadlineExpired, "deadline_expired", Sum, All, None, "Cumulative requests dropped on deadline expiry.";
    ReplLagBatches, "repl_lag_batches", Max, All, Some("worst lag (batches)"), "Worst follower lag (WAL batches behind the primary) across the replicated regions this node leads.";
    ReplRegions, "repl_regions", Sum, All, None, "Replicated regions this node is the primary for.";
    ReplFailovers, "repl_failovers", Sum, All, Some("failovers"), "Promotions that made this node a primary.";
    ReplFenceRejections, "repl_fence_rejections", Sum, All, Some("fence rejections"), "Epoch-fenced replication RPCs (deposed writers denied a vote).";
    ReplFollowerReads, "repl_follower_reads", Sum, All, Some("follower reads"), "Scans served from a follower copy under bounded staleness.";
    ReplHedgedScans, "repl_hedged_scans", Sum, All, Some("hedged scans"), "Scans hedged to a follower after a slow/dead primary.";
    ScrubCells, "scrub_cells", Sum, All, None, "Cells checksum-verified by the background scrub walk.";
    ScrubCorruptBlocks, "scrub_corrupt_blocks", Sum, All, Some("corrupt blocks"), "Corrupt blocks ever detected (scrub walk plus read path).";
    ScrubQuarantined, "scrub_quarantined", Sum, All, Some("quarantined spans"), "Spans sitting in quarantine at snapshot time.";
    ScrubRepairs, "scrub_repairs", Sum, All, Some("blocks repaired"), "Blocks repaired from a healthy replica (CRC round-trip passed before install).";
    ScrubRejected, "scrub_rejected", Sum, All, None, "Fetched repair payloads rejected by pre-install verification.";
    ScrubSalvagedReads, "scrub_salvaged_reads", Sum, All, Some("salvaged reads"), "Reads transparently answered from a replica after the local copy failed verification.";
    SchedTasks, "sched_tasks", Sum, All, Some("sched tasks"), "Tasks executed by the node's batch scheduler.";
    SchedSteals, "sched_steals", Sum, All, Some("tasks stolen"), "Successful work steals in the batch scheduler.";
    SchedStealAttempts, "sched_steal_attempts", Sum, All, None, "Steal probes (successful or not) in the batch scheduler.";
    SchedMaxQueueDepth, "sched_max_queue_depth", Max, All, Some("max queue depth"), "High-water mark of any scheduler worker's deque depth.";
    SchedTaskNs, "sched_task_ns", Sum, All, None, "Total nanoseconds spent inside scheduler task bodies.";
    QueryCacheHits, "query_cache_hits", Sum, All, None, "Cumulative serving-layer result-cache hits.";
    QueryCacheMisses, "query_cache_misses", Sum, All, None, "Cumulative serving-layer result-cache misses.";
    QueryFanout, "query_fanout", Sum, All, Some("query fan-out"), "Cumulative scatter-gather shard scans fanned out by the serving layer.";
    QueryPartials, "query_partials", Sum, All, Some("partial results"), "Cumulative queries answered with partial results.";
    QueryCellsScanned, "query_cells_scanned", Sum, All, None, "Cumulative cells the region servers returned to serving-layer scans (over query_points_served: read amplification).";
    QueryPointsServed, "query_points_served", Sum, All, None, "Cumulative points in the answers the serving layer executed (cache hits excluded).";
    TsdSeries, "tsd_series", Sum, All, Some("series"), "Series in the front end's series table at snapshot time: cardinality, not volume, and what bounds the table's memory.";
}

/// `num / den`, or 0 when nothing has been counted yet (never NaN).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One node's sampled stats: the header fields below plus one value per
/// [`METRICS`] row. The owning layers keep their own counters; whoever
/// can see them samples them into one of these with [`NodeStats::set`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Node id.
    pub node: u32,
    /// Whether the node has crashed.
    pub crashed: bool,
    /// This sample comes from an ingest proxy or a TSD/query front end,
    /// not a region server: it is excluded from [`Scope::Serving`] folds.
    pub is_proxy: bool,
    values: [u64; METRICS.len()],
}

impl NodeStats {
    /// An all-zero sample for `node`.
    pub fn new(node: u32) -> Self {
        NodeStats {
            node,
            crashed: false,
            is_proxy: false,
            values: [0; METRICS.len()],
        }
    }

    /// The sampled value of `metric` (0 until set).
    pub fn get(&self, metric: Metric) -> u64 {
        self.values[metric as usize]
    }

    /// Record the sampled value of `metric`; chains.
    pub fn set(&mut self, metric: Metric, value: u64) -> &mut Self {
        self.values[metric as usize] = value;
        self
    }
}

/// Sample one storage node's stats: queue and shed counters from its RPC
/// handle, write, flush and compaction totals from the regions it hosts,
/// replication placement from the master. Nothing is asked of the node
/// over RPC, so a full queue cannot stall the sample and a crashed or
/// stopped node keeps reporting its cumulative counters. `None` when the
/// master has never hosted `node`.
pub fn collect_node_stats(master: &Master, node: NodeId) -> Option<NodeStats> {
    let server = master.server(node)?;
    let handle = server.handle();
    let mut stats = NodeStats::new(node.0);
    stats.crashed = handle.state() == ServerState::Crashed;
    let regions = server.total_metrics();
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
        .set(Metric::SamplesWritten, regions.cells_written)
        .set(Metric::Flushes, regions.flushes)
        .set(Metric::Compactions, regions.compactions)
        .set(Metric::Overloads, handle.overloads())
        .set(Metric::ShedWrites, handle.shed_writes())
        .set(Metric::ShedReads, handle.shed_reads())
        .set(Metric::DeadlineExpired, handle.deadline_expired())
        .set(Metric::ReplLagBatches, repl_lag_batches)
        .set(Metric::ReplRegions, repl_regions)
        .set(Metric::ReplFailovers, repl_failovers);
    Some(stats)
}

/// Fleet-wide view: one sample per node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSnapshot {
    /// Per-node stats.
    pub nodes: Vec<NodeStats>,
}

impl FleetSnapshot {
    /// The samples `scope` counts. Serving nodes are live region servers:
    /// crashed nodes, proxies and front ends never count there.
    fn counted(&self, scope: Scope) -> impl Iterator<Item = &NodeStats> {
        self.nodes
            .iter()
            .filter(move |n| scope == Scope::All || (!n.crashed && !n.is_proxy))
    }

    /// Fleet-wide value of `metric`: its row's [`Fold`] over the nodes
    /// its row's [`Scope`] counts (0 for an empty fleet).
    pub fn fold(&self, metric: Metric) -> u64 {
        let def = &METRICS[metric as usize];
        let values = self.counted(def.scope).map(|n| n.get(metric));
        match def.fold {
            Fold::Sum => values.sum(),
            Fold::Max => values.max().unwrap_or(0),
        }
    }

    /// Number of live (non-crashed, non-proxy) serving nodes.
    pub fn live_nodes(&self) -> usize {
        self.counted(Scope::Serving).count()
    }

    /// Fleet-wide serving-layer cache hit ratio in `[0, 1]` (0 before
    /// any query anywhere).
    pub fn query_cache_hit_ratio(&self) -> f64 {
        let hits = self.fold(Metric::QueryCacheHits);
        ratio(hits, hits + self.fold(Metric::QueryCacheMisses))
    }

    /// Mean scheduler task latency in microseconds across the fleet's
    /// schedulers (0 before any task).
    pub fn sched_mean_task_us(&self) -> f64 {
        ratio(
            self.fold(Metric::SchedTaskNs),
            self.fold(Metric::SchedTasks),
        ) / 1_000.0
    }

    /// The `/cluster` stat strip as `(label, value)`: the fleet fold of
    /// every labelled table row, in table order, then the two signals
    /// that combine rows.
    pub fn tiles(&self) -> Vec<(&'static str, String)> {
        let mut tiles: Vec<_> = METRICS
            .iter()
            .filter_map(|def| Some((def.tile?, self.fold(def.metric).to_string())))
            .collect();
        tiles.push((
            "mean task latency",
            format!("{:.1}µs", self.sched_mean_task_us()),
        ));
        tiles.push((
            "cache hit ratio",
            format!("{:.0}%", 100.0 * self.query_cache_hit_ratio()),
        ));
        tiles
    }

    /// Prometheus text exposition for `/metrics`: one fleet-fold sample
    /// per table row. Every row is a gauge — the values are sampled
    /// mirrors of counters their layers own, not counters of this
    /// process.
    pub fn prometheus_text(&self) -> String {
        METRICS
            .iter()
            .map(|def| {
                format!(
                    "# HELP {0} {1}\n# TYPE {0} gauge\n{0} {2}\n",
                    def.name,
                    def.help,
                    self.fold(def.metric)
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_cluster::coordinator::Coordinator;
    use pga_cluster::rpc::RpcError;
    use pga_minibase::{KeyValue, RegionConfig, Request, ServerConfig, TableDescriptor};

    fn stats(node: u32, depth: u64, cap: u64) -> NodeStats {
        let mut s = NodeStats::new(node);
        s.set(Metric::QueueDepth, depth)
            .set(Metric::QueueCapacity, cap)
            .set(Metric::SamplesWritten, 100 * node as u64);
        s
    }

    /// Two serving nodes, one crashed node and one proxy, every metric
    /// set to a distinct per-node value: each table row must come out of
    /// the fleet fold, `/metrics` and the tile strip as declared.
    #[test]
    fn every_metric_row_is_wired_end_to_end() {
        let node = |id: u32, base: u64| {
            let mut s = NodeStats::new(id);
            for (i, def) in METRICS.iter().enumerate() {
                s.set(def.metric, base + i as u64);
            }
            s
        };
        let (a, b, mut dead, mut proxy) = (node(0, 100), node(1, 300), node(2, 5000), node(9, 700));
        dead.crashed = true;
        proxy.is_proxy = true;
        let fleet = FleetSnapshot {
            nodes: vec![a, b, dead, proxy],
        };
        let text = fleet.prometheus_text();
        let tiles = fleet.tiles();
        let max_rows = [Metric::ReplLagBatches, Metric::SchedMaxQueueDepth];
        let serving_rows = [Metric::QueueDepth, Metric::QueueCapacity];
        for (i, def) in METRICS.iter().enumerate() {
            let m = def.metric;
            assert_eq!(m as usize, i, "{}: table order is index order", def.name);
            // Fold kind and scope.
            let i = i as u64;
            let want = match (max_rows.contains(&m), serving_rows.contains(&m)) {
                (false, false) => (100 + i) + (300 + i) + (5000 + i) + (700 + i),
                (false, true) => (100 + i) + (300 + i),
                (true, false) => 5000 + i,
                (true, true) => 300 + i,
            };
            assert_eq!(fleet.fold(m), want, "{} fold", def.name);
            // Exposition and tile.
            let sample = format!("# TYPE {0} gauge\n{0} {want}\n", def.name);
            assert!(text.contains(&sample), "{} sample line", def.name);
            assert!(text.contains(&format!("# HELP {} {}\n", def.name, def.help)));
            let tile = tiles.iter().find(|(label, _)| Some(*label) == def.tile);
            assert_eq!(
                tile.map(|(_, v)| v.clone()),
                def.tile.map(|_| want.to_string())
            );
        }
        // 33 rows, three lines each; the five rows nothing ever set
        // (memstore bytes, breaker trips, ingest buffer depth/capacity,
        // dirty units) are gone from the exposition.
        assert_eq!(METRICS.len(), 33);
        assert_eq!(text.lines().count(), 3 * METRICS.len());
        for retired in [
            "memstore_bytes",
            "breaker_trips",
            "ingest_buffer_depth",
            "ingest_buffer_capacity",
            "sched_dirty_units",
        ] {
            assert!(!text.contains(retired), "{retired} is retired");
        }
        let labelled = METRICS.iter().filter(|d| d.tile.is_some()).count();
        assert_eq!(tiles.len(), labelled + 2, "labelled rows plus two ratios");
        assert_eq!(FleetSnapshot::default().fold(Metric::ReplLagBatches), 0);
    }

    #[test]
    fn combined_signals_fold_across_the_fleet() {
        let mut a = stats(0, 0, 64);
        a.set(Metric::QueryCacheHits, 60)
            .set(Metric::QueryCacheMisses, 20)
            .set(Metric::SchedTasks, 1700)
            .set(Metric::SchedTaskNs, 3_400_000);
        let mut b = stats(1, 0, 64);
        b.set(Metric::QueryCacheHits, 20)
            .set(Metric::QueryCacheMisses, 20);
        let fleet = FleetSnapshot { nodes: vec![a, b] };
        // (60 + 20) hits over (80 + 40) lookups.
        assert!((fleet.query_cache_hit_ratio() - 80.0 / 120.0).abs() < 1e-9);
        assert!((fleet.sched_mean_task_us() - 2.0).abs() < 1e-9);
        let tiles = fleet.tiles();
        assert!(tiles.contains(&("mean task latency", "2.0µs".to_string())));
        assert!(tiles.contains(&("cache hit ratio", "67%".to_string())));
        // A fleet that never queried or scheduled reports 0, not NaN.
        assert_eq!(FleetSnapshot { nodes: vec![] }.query_cache_hit_ratio(), 0.0);
        assert_eq!(FleetSnapshot { nodes: vec![] }.sched_mean_task_us(), 0.0);
    }

    #[test]
    fn histogram_quantiles_bracket_recordings() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        // p50 falls in the bucket holding 100 → upper bound 128.
        assert_eq!(h.quantile(0.5), 128);
        // p99 falls in the bucket holding 1000 → upper bound 1024.
        assert_eq!(h.quantile(0.99), 1024);
    }

    #[test]
    fn bucket_index_boundaries() {
        // Zero and one share bucket 0; every power of two opens its own
        // bucket up to the clamp.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        for i in 1..(HISTOGRAM_BUCKETS - 1) {
            let edge = 1u64 << i;
            assert_eq!(bucket_index(edge), i, "2^{i} opens bucket {i}");
            assert_eq!(bucket_index(edge - 1), i - 1, "2^{i}-1 stays below");
            assert_eq!(bucket_index(edge + 1), i, "2^{i}+1 stays inside");
        }
        // Everything at and past 2^31 lands in the open-ended last bucket.
        assert_eq!(bucket_index(1u64 << 31), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 32), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_extreme_values_count_consistently() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        // Sum wraps modulo 2^64 exactly like wrapping_add.
        let expected = 0u64.wrapping_add(1).wrapping_add(u64::MAX);
        assert!((h.mean() - expected as f64 / 3.0).abs() < 1e-9);
        // A quantile landing in the open-ended last bucket reports
        // u64::MAX, not the old (wrong by 2^32) upper bound of 2^32.
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Quantiles below the last bucket still report real bounds.
        assert_eq!(h.quantile(0.3), 2);
    }

    #[test]
    fn histogram_sum_wraps_without_losing_count() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(2);
        assert_eq!(h.count(), 3);
        let wrapped = u64::MAX.wrapping_add(u64::MAX).wrapping_add(2);
        assert_eq!(wrapped, 0);
        assert!(h.mean().abs() < 1e-9, "wrapped sum of 0 gives mean 0");
    }

    #[test]
    fn proxy_stats_count_in_all_folds_but_not_serving_aggregates() {
        let mut proxy = stats(100, 0, 0);
        proxy.is_proxy = true;
        proxy.set(Metric::ShedWrites, 5);
        let mut server = stats(0, 10, 100);
        server
            .set(Metric::ShedReads, 3)
            .set(Metric::DeadlineExpired, 4);
        let snap = FleetSnapshot {
            nodes: vec![server, proxy],
        };
        // Serving aggregates exclude the proxy.
        assert_eq!(snap.live_nodes(), 1);
        assert_eq!(snap.fold(Metric::QueueDepth), 10);
        // Overload counters from either side come through.
        assert_eq!(snap.fold(Metric::ShedWrites), 5);
        assert_eq!(snap.fold(Metric::ShedReads), 3);
        assert_eq!(snap.fold(Metric::DeadlineExpired), 4);
    }

    #[test]
    fn aggregation_ignores_crashed_nodes() {
        let mut a = stats(0, 50, 100);
        let mut b = stats(1, 100, 100);
        b.crashed = true;
        a.set(Metric::SamplesWritten, 10);
        b.set(Metric::SamplesWritten, 20);
        let snap = FleetSnapshot { nodes: vec![a, b] };
        assert_eq!(snap.live_nodes(), 1);
        assert_eq!(snap.fold(Metric::QueueDepth), 50);
        // Written totals still count the crashed node's history.
        assert_eq!(snap.fold(Metric::SamplesWritten), 30);
    }

    /// The sample reads the server's regions, not its RPC queue: a node
    /// that crashed after flushing and compacting still reports those
    /// cumulative counts beside its cells written.
    #[test]
    fn a_crashed_node_still_reports_its_flushes_and_compactions() {
        let config = ServerConfig {
            queue_capacity: 2,
            crash_after_overloads: 5,
            ..ServerConfig::default()
        };
        let mut master = Master::bootstrap(1, config, Coordinator::new(60_000), 0);
        master.create_table(&TableDescriptor {
            name: "tsdb".into(),
            split_points: Vec::new(),
            region_config: RegionConfig::default(),
        });
        let node = NodeId(0);
        let region = master.directory().read()[0].id;
        let handle = master.server(node).unwrap().handle();
        let put = |row: String| Request::Put {
            region,
            kvs: vec![KeyValue::new(
                row.into_bytes(),
                b"q".to_vec(),
                1,
                b"v".to_vec(),
            )],
        };
        for row in ["a", "b"] {
            handle.call(put(row.to_string())).unwrap();
            handle.call(Request::Flush { region }).unwrap();
        }
        handle.call(Request::Compact { region }).unwrap();
        let before = collect_node_stats(&master, node).unwrap();
        assert!(!before.crashed);
        assert_eq!(before.get(Metric::Flushes), 2);
        assert_eq!(before.get(Metric::Compactions), 1);

        // Unthrottled casts overflow the two-slot queue until it crashes.
        let crashed =
            (0..10_000).any(|i| handle.cast(put(format!("r{i}"))) == Err(RpcError::Crashed));
        assert!(crashed, "the server must crash from sustained overload");
        let after = collect_node_stats(&master, node).unwrap();
        assert!(after.crashed);
        assert_eq!(after.get(Metric::Flushes), 2);
        assert_eq!(after.get(Metric::Compactions), 1);
        assert!(after.get(Metric::SamplesWritten) >= before.get(Metric::SamplesWritten));
        assert!(after.get(Metric::Overloads) >= 5);
        master.shutdown();
    }
}
