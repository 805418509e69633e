//! Per-node telemetry: one metric table, the `/stats/<node>` record built
//! from it, and fleet-wide scraping and folding through the coordinator.
//!
//! Every metric is declared once, as a row of the `metrics!` table
//! below; [`NodeStats`] serde, [`FleetSnapshot::fold`], the `/cluster`
//! tiles and the `/metrics` exposition are all loops over [`METRICS`].
//! The layers that own the counters keep their own atomics; the control
//! plane *samples* them into a [`NodeStats`] and publishes it to the
//! coordinator as an **ephemeral** znode under `/stats/<node>`, bound to
//! the node's session. A node that dies takes its stat znode with it, so
//! the control plane's [`FleetSnapshot::scrape`] view never contains
//! ghosts, and the coordinator's watch API streams churn under `/stats`
//! without polling.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use serde_json::{Error, Map, Value};

use pga_cluster::coordinator::{Coordinator, CoordinatorError, SessionId};

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

/// Which published samples a fleet fold counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every sample: crashed nodes' history, proxies and front ends too.
    All,
    /// Live region servers only — not crashed, not a proxy or front end.
    Serving,
}

/// One row of the metric table.
#[derive(Debug)]
pub struct MetricDef {
    /// The variant this row declares.
    pub metric: Metric,
    /// Wire name: the JSON key in `/stats/<node>` and the sample name on
    /// `/metrics`.
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
/// variant and its [`MetricDef`] in [`METRICS`]; the `/stats` JSON key,
/// the fleet fold, the `/metrics` sample and the `/cluster` tile are all
/// derived from the row, so adding a metric is one row here plus one
/// [`NodeStats::set`] where the value is known.
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
    MemstoreBytes, "memstore_bytes", Sum, Serving, None, "Memstore bytes held.";
    Flushes, "flushes", Sum, All, None, "Cumulative flushes.";
    Compactions, "compactions", Sum, All, None, "Cumulative compactions.";
    Overloads, "overloads", Sum, All, None, "Cumulative overload strikes.";
    ShedWrites, "shed_writes", Sum, All, None, "Cumulative write RPCs shed by admission control.";
    ShedReads, "shed_reads", Sum, All, None, "Cumulative read RPCs shed by admission control.";
    DeadlineExpired, "deadline_expired", Sum, All, None, "Cumulative requests dropped on deadline expiry.";
    BreakerTrips, "breaker_trips", Sum, All, None, "Cumulative circuit-breaker trips (proxy side).";
    IngestBufferDepth, "ingest_buffer_depth", Sum, All, None, "Batches buffered in the ingest proxy at snapshot time.";
    IngestBufferCapacity, "ingest_buffer_capacity", Sum, All, None, "Ingest proxy buffer capacity.";
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
    SchedDirtyUnits, "sched_dirty_units", Sum, All, Some("dirty units"), "Units with pending incremental retrain work at snapshot time.";
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

/// `depth / capacity` in `[0, 1]` (0 when capacity is unknown/unbounded).
fn occupancy(depth: u64, capacity: u64) -> f64 {
    if capacity == u64::MAX {
        0.0
    } else {
        ratio(depth, capacity)
    }
}

/// One node's published stats — the JSON payload of `/stats/<node>`: a
/// flat object of the five header fields below plus one key per
/// [`METRICS`] row. The owning layers keep their own counters; whoever
/// can see them samples them into one of these with [`NodeStats::set`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Node id.
    pub node: u32,
    /// Publisher's control tick when the snapshot was taken.
    pub tick: u64,
    /// Whether the node has crashed.
    pub crashed: bool,
    /// This snapshot comes from an ingest proxy or a TSD/query front
    /// end, not a region server: it is excluded from
    /// [`Scope::Serving`] folds and feeds the backlog-pressure signal.
    pub is_proxy: bool,
    /// Mean admitted batch size.
    pub mean_batch: f64,
    values: [u64; METRICS.len()],
}

impl NodeStats {
    /// An all-zero sample for `node` at `tick`.
    pub fn new(node: u32, tick: u64) -> Self {
        NodeStats {
            node,
            tick,
            crashed: false,
            is_proxy: false,
            mean_batch: 0.0,
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

    /// Queue occupancy in `[0, 1]` (0 when capacity is unknown/unbounded).
    pub fn queue_utilization(&self) -> f64 {
        occupancy(
            self.get(Metric::QueueDepth),
            self.get(Metric::QueueCapacity),
        )
    }

    /// Ingest buffer occupancy in `[0, 1]` (0 when capacity is unknown).
    pub fn ingest_buffer_utilization(&self) -> f64 {
        occupancy(
            self.get(Metric::IngestBufferDepth),
            self.get(Metric::IngestBufferCapacity),
        )
    }

    /// Total RPCs this node shed under admission control.
    pub fn total_sheds(&self) -> u64 {
        self.get(Metric::ShedWrites) + self.get(Metric::ShedReads)
    }
}

impl Serialize for NodeStats {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("node".into(), self.node.to_value());
        map.insert("tick".into(), self.tick.to_value());
        map.insert("crashed".into(), self.crashed.to_value());
        map.insert("is_proxy".into(), self.is_proxy.to_value());
        map.insert("mean_batch".into(), self.mean_batch.to_value());
        for (def, value) in METRICS.iter().zip(&self.values) {
            map.insert(def.name.into(), value.to_value());
        }
        Value::Object(map)
    }
}

/// The four founding header keys are required; `is_proxy` and every
/// metric key default to `false`/0 and unknown keys are ignored, so a
/// snapshot from an older or newer publisher still loads.
impl Deserialize for NodeStats {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::msg("expected object for NodeStats"))?;
        fn required<T: Deserialize>(obj: &Map, key: &str) -> Result<T, Error> {
            let value = obj
                .get(key)
                .ok_or_else(|| Error::msg(format!("missing field `{key}` in NodeStats")))?;
            T::from_value(value)
        }
        let mut stats = NodeStats::new(required(obj, "node")?, required(obj, "tick")?);
        stats.crashed = required(obj, "crashed")?;
        stats.mean_batch = required(obj, "mean_batch")?;
        if let Some(v) = obj.get("is_proxy") {
            stats.is_proxy = bool::from_value(v)?;
        }
        for (def, slot) in METRICS.iter().zip(&mut stats.values) {
            if let Some(v) = obj.get(def.name) {
                *slot = u64::from_value(v)?;
            }
        }
        Ok(stats)
    }
}

/// Znode prefix stats are published under.
pub const STATS_PREFIX: &str = "/stats";

/// Publish `stats` as `/stats/<node>`, creating or updating the ephemeral
/// znode bound to `session`. Returns the znode version.
pub fn publish(
    coord: &Coordinator,
    session: SessionId,
    stats: &NodeStats,
) -> Result<u64, CoordinatorError> {
    let path = format!("{}/{}", STATS_PREFIX, stats.node);
    let bytes = serde_json::to_vec(stats).expect("NodeStats serializes");
    coord.upsert_ephemeral(&path, bytes, session)
}

/// Fleet-wide view assembled from every `/stats/*` znode.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Per-node stats, sorted by node id.
    pub nodes: Vec<NodeStats>,
}

impl FleetSnapshot {
    /// Scrape all published stats from the coordinator. Unparseable or
    /// concurrently-deleted znodes are skipped — a scrape races session
    /// expiry by design and must tolerate it.
    pub fn scrape(coord: &Coordinator) -> FleetSnapshot {
        let mut nodes: Vec<NodeStats> = coord
            .children(STATS_PREFIX)
            .into_iter()
            .filter_map(|path| {
                let (bytes, _version) = coord.get(&path).ok()?;
                serde_json::from_slice::<NodeStats>(&bytes).ok()
            })
            .collect();
        nodes.sort_by_key(|s| s.node);
        FleetSnapshot { nodes }
    }

    /// The samples `scope` counts. Serving nodes are live region servers:
    /// scaling decisions size that fleet, so crashed nodes, proxies and
    /// front ends never count there.
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

    /// Mean queue occupancy across live serving nodes (0 when empty).
    pub fn mean_queue_utilization(&self) -> f64 {
        let live = self.live_nodes();
        if live == 0 {
            return 0.0;
        }
        self.counted(Scope::Serving)
            .map(|n| n.queue_utilization())
            .sum::<f64>()
            / live as f64
    }

    /// Highest queue occupancy across live serving nodes.
    pub fn max_queue_utilization(&self) -> f64 {
        self.counted(Scope::Serving)
            .map(|n| n.queue_utilization())
            .fold(0.0, f64::max)
    }

    /// Nodes flagged crashed (proxies included — a dead proxy matters).
    pub fn crashed_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.crashed).count()
    }

    /// Highest ingest-proxy buffer occupancy in `[0, 1]` — the primary
    /// "storm is backing up" signal for the scaling policy.
    pub fn ingest_pressure(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.is_proxy && !n.crashed)
            .map(|n| n.ingest_buffer_utilization())
            .fold(0.0, f64::max)
    }

    /// Cumulative admission sheds across the whole fleet (servers and
    /// proxies alike).
    pub fn total_sheds(&self) -> u64 {
        self.nodes.iter().map(NodeStats::total_sheds).sum()
    }

    /// Fleet-wide serving-layer cache hit ratio in `[0, 1]` (0 before
    /// any query anywhere).
    pub fn query_cache_hit_ratio(&self) -> f64 {
        let hits = self.fold(Metric::QueryCacheHits);
        ratio(hits, hits + self.fold(Metric::QueryCacheMisses))
    }

    /// Cumulative follower-served reads (bounded-staleness plus hedged)
    /// across the fleet.
    pub fn total_follower_reads(&self) -> u64 {
        self.fold(Metric::ReplFollowerReads) + self.fold(Metric::ReplHedgedScans)
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
    use std::collections::BTreeSet;

    fn stats(node: u32, depth: u64, cap: u64) -> NodeStats {
        let mut s = NodeStats::new(node, 1);
        s.set(Metric::QueueDepth, depth)
            .set(Metric::QueueCapacity, cap)
            .set(Metric::SamplesWritten, 100 * node as u64);
        s
    }

    /// `/stats/<node>` payload exactly as the parent commit's derived
    /// serializer wrote it: 40 keys in struct order.
    const PARENT_STATS_JSON: &str = r#"{"node":7,"tick":3,"queue_depth":37,"queue_capacity":1024,
        "samples_written":4200,"memstore_bytes":1,"flushes":2,"compactions":3,"overloads":4,
        "crashed":false,"mean_batch":100.0,"is_proxy":true,"shed_writes":5,"shed_reads":6,
        "deadline_expired":7,"breaker_trips":8,"ingest_buffer_depth":9,
        "ingest_buffer_capacity":10,"query_cache_hits":11,"query_cache_misses":12,
        "query_fanout":13,"query_partials":14,"repl_lag_batches":15,"repl_regions":16,
        "repl_failovers":17,"repl_fence_rejections":18,"repl_follower_reads":19,
        "repl_hedged_scans":20,"scrub_cells":21,"scrub_corrupt_blocks":22,
        "scrub_quarantined":23,"scrub_repairs":24,"scrub_rejected":25,
        "scrub_salvaged_reads":26,"sched_tasks":27,"sched_steals":28,
        "sched_steal_attempts":29,"sched_max_queue_depth":30,"sched_task_ns":31,
        "sched_dirty_units":32}"#;

    fn keys(v: &serde_json::Value) -> BTreeSet<String> {
        v.as_object()
            .expect("NodeStats must serialize to an object")
            .keys()
            .cloned()
            .collect()
    }

    #[test]
    fn registry_snapshot_round_trips_through_json() {
        let mut snap = NodeStats::new(7, 3);
        snap.mean_batch = 100.0;
        for (i, def) in METRICS.iter().enumerate() {
            snap.set(def.metric, 1000 + i as u64);
        }
        assert_eq!(snap.get(Metric::QueueDepth), 1000);
        let json = serde_json::to_string(&snap).unwrap();
        let back: NodeStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn parent_commit_snapshot_parses_and_key_set_is_unchanged() {
        let s: NodeStats = serde_json::from_str(PARENT_STATS_JSON).unwrap();
        assert_eq!((s.node, s.tick, s.crashed, s.is_proxy), (7, 3, false, true));
        assert_eq!(s.mean_batch, 100.0);
        assert_eq!(s.get(Metric::QueueDepth), 37);
        assert_eq!(s.get(Metric::ReplFenceRejections), 18);
        assert_eq!(s.get(Metric::SchedDirtyUnits), 32);
        // Every key of that snapshot is still written; rows added since
        // (which it reads as 0) are the only other keys.
        let mut expected = keys(&serde_json::from_str(PARENT_STATS_JSON).unwrap());
        expected
            .extend(["query_cells_scanned", "query_points_served", "tsd_series"].map(String::from));
        assert_eq!(keys(&serde_json::to_value(&s)), expected);
        assert_eq!(s.get(Metric::QueryCellsScanned), 0);
        // Keys this build has never heard of are skipped, not fatal.
        let newer = PARENT_STATS_JSON.replacen('{', r#"{"added_later":9,"#, 1);
        assert_eq!(serde_json::from_str::<NodeStats>(&newer).unwrap(), s);
    }

    /// Two serving nodes, one crashed node and one proxy, every metric
    /// set to a distinct per-node value: each table row must come out of
    /// serde, the fleet fold, `/metrics` and the tile strip as declared.
    #[test]
    fn every_metric_row_is_wired_end_to_end() {
        let node = |id: u32, base: u64| {
            let mut s = NodeStats::new(id, 1);
            for (i, def) in METRICS.iter().enumerate() {
                s.set(def.metric, base + i as u64);
            }
            s
        };
        let (a, b, mut dead, mut proxy) = (node(0, 100), node(1, 300), node(2, 5000), node(9, 700));
        dead.crashed = true;
        proxy.is_proxy = true;
        let fleet = FleetSnapshot {
            nodes: vec![a.clone(), b, dead, proxy],
        };
        let text = fleet.prometheus_text();
        let tiles = fleet.tiles();
        let wire = serde_json::to_value(&a);
        let max_rows = [Metric::ReplLagBatches, Metric::SchedMaxQueueDepth];
        let serving_rows = [
            Metric::QueueDepth,
            Metric::QueueCapacity,
            Metric::MemstoreBytes,
        ];
        for (i, def) in METRICS.iter().enumerate() {
            let m = def.metric;
            assert_eq!(m as usize, i, "{}: table order is index order", def.name);
            // Serde: the key is written, and a snapshot without it reads 0.
            assert_eq!(wire[def.name].as_u64(), Some(100 + i as u64));
            let mut pruned = serde_json::Map::new();
            for (k, v) in wire.as_object().unwrap().iter() {
                if k != def.name {
                    pruned.insert(k.clone(), v.clone());
                }
            }
            let back: NodeStats =
                serde_json::from_value(serde_json::Value::Object(pruned)).unwrap();
            assert_eq!(back.get(m), 0, "{} defaults to 0", def.name);
            assert_eq!(back.tick, a.tick);
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
        assert_eq!(text.lines().count(), 3 * METRICS.len());
        let labelled = METRICS.iter().filter(|d| d.tile.is_some()).count();
        assert_eq!(tiles.len(), labelled + 2, "labelled rows plus two ratios");
        assert_eq!(FleetSnapshot::default().fold(Metric::ReplLagBatches), 0);
    }

    #[test]
    fn combined_signals_fold_across_the_fleet() {
        let mut a = stats(0, 0, 64);
        a.set(Metric::QueryCacheHits, 60)
            .set(Metric::QueryCacheMisses, 20)
            .set(Metric::ReplFollowerReads, 40)
            .set(Metric::ReplHedgedScans, 7)
            .set(Metric::SchedTasks, 1700)
            .set(Metric::SchedTaskNs, 3_400_000);
        let mut b = stats(1, 0, 64);
        b.set(Metric::QueryCacheHits, 20)
            .set(Metric::QueryCacheMisses, 20)
            .set(Metric::ReplHedgedScans, 6);
        let fleet = FleetSnapshot { nodes: vec![a, b] };
        // (60 + 20) hits over (80 + 40) lookups.
        assert!((fleet.query_cache_hit_ratio() - 80.0 / 120.0).abs() < 1e-9);
        assert_eq!(fleet.total_follower_reads(), 53);
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
    fn publish_scrape_round_trip_and_expiry_removes_ghosts() {
        let coord = Coordinator::new(100);
        let s0 = coord.connect(0);
        let s1 = coord.connect(0);
        publish(&coord, s0, &stats(0, 10, 100)).unwrap();
        publish(&coord, s1, &stats(1, 90, 100)).unwrap();
        let snap = FleetSnapshot::scrape(&coord);
        assert_eq!(snap.nodes.len(), 2);
        assert_eq!(snap.fold(Metric::QueueDepth), 100);
        assert!((snap.mean_queue_utilization() - 0.5).abs() < 1e-9);
        assert!((snap.max_queue_utilization() - 0.9).abs() < 1e-9);
        // Republish updates in place (ephemeral upsert, version bumps).
        let v = publish(&coord, s0, &stats(0, 20, 100)).unwrap();
        assert!(v >= 1);
        // Node 1 goes silent past the lease: its stats vanish.
        coord.heartbeat(s0, 50).unwrap();
        coord.expire_stale_sessions(150);
        let snap = FleetSnapshot::scrape(&coord);
        assert_eq!(snap.nodes.len(), 1);
        assert_eq!(snap.nodes[0].node, 0);
        assert_eq!(snap.nodes[0].get(Metric::QueueDepth), 20);
    }

    #[test]
    fn proxy_stats_feed_pressure_but_not_serving_aggregates() {
        let mut proxy = stats(100, 0, 0);
        proxy.is_proxy = true;
        proxy
            .set(Metric::IngestBufferDepth, 90)
            .set(Metric::IngestBufferCapacity, 100)
            .set(Metric::ShedWrites, 5)
            .set(Metric::BreakerTrips, 2);
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
        assert!((snap.max_queue_utilization() - 0.1).abs() < 1e-9);
        // Overload signals come through.
        assert!((snap.ingest_pressure() - 0.9).abs() < 1e-9);
        assert_eq!(snap.total_sheds(), 8);
        assert_eq!(snap.fold(Metric::DeadlineExpired), 4);
        assert_eq!(snap.fold(Metric::BreakerTrips), 2);
    }

    #[test]
    fn pre_overload_snapshots_still_parse() {
        // A snapshot published before the overload fields existed must
        // deserialize with all-default overload telemetry.
        let legacy = r#"{"node":3,"tick":9,"queue_depth":5,"queue_capacity":64,
            "samples_written":12,"memstore_bytes":0,"flushes":1,"compactions":0,
            "overloads":0,"crashed":false,"mean_batch":2.5}"#;
        let s: NodeStats = serde_json::from_str(legacy).unwrap();
        assert!(!s.is_proxy);
        assert_eq!(s.total_sheds(), 0);
        assert_eq!(s.ingest_buffer_utilization(), 0.0);
        // Pre-serving snapshots report no query activity either.
        assert_eq!(
            s.get(Metric::QueryCacheHits) + s.get(Metric::QueryCacheMisses),
            0
        );
        assert_eq!(s.get(Metric::QueryFanout), 0);
        assert_eq!(
            FleetSnapshot { nodes: vec![s] }.query_cache_hit_ratio(),
            0.0
        );
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
        assert_eq!(snap.crashed_nodes(), 1);
        assert_eq!(snap.fold(Metric::QueueDepth), 50);
        assert!((snap.max_queue_utilization() - 0.5).abs() < 1e-9);
        // Written totals still count the crashed node's history.
        assert_eq!(snap.fold(Metric::SamplesWritten), 30);
    }
}
