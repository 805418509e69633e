//! The integrated monitor: ingest → store → query → detect → visualize.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pga_cluster::NodeId;
use pga_control::{collect_node_stats, FleetSnapshot, Metric, NodeStats};
use pga_dataflow::Dataflow;
use pga_detect::{train_unit_columns, BatchEvaluator, ColumnWindow, EvalOutcome, UnitModel};
use pga_ingest::{IngestionPipeline, PipelineReport};
use pga_linalg::Matrix;
use pga_minibase::Client;
use pga_query::{QueryEngine, RollupWriter};
use pga_sensorgen::Fleet;
use pga_tsdb::{BatchPoint, DataPoint, QueryFilter};
use pga_viz::{
    cluster_page, fleet_overview_page, machine_page, ClusterNodeRow, ClusterView, FleetOverview,
    Health, MachinePage, SensorPanel, StatTile, UnitStatus,
};

use crate::config::PlatformConfig;

/// One detected anomaly, as recorded by the monitor and written back to
/// the TSDB ("results from online evaluation are reported back to
/// OpenTSDB for use by the integrated visualization tool", §IV-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyRecord {
    /// Unit flagged.
    pub unit: u32,
    /// Sensor flagged.
    pub sensor: u32,
    /// End timestamp of the window that triggered the flag.
    pub timestamp: u64,
    /// Raw p-value of the sensor test.
    pub p_value: f64,
}

/// Monitor failures.
#[derive(Debug)]
pub enum MonitorError {
    /// Configuration failed validation.
    Config(String),
    /// Detection requested before training.
    NotTrained,
    /// Storage-layer failure.
    Storage(String),
    /// A queried window was missing samples for a sensor.
    IncompleteWindow {
        /// Unit queried.
        unit: u32,
        /// Sensor with missing data.
        sensor: u32,
        /// Points found (expected the window length); for a window that
        /// would start before tick 0, the ticks that exist up to its end.
        found: usize,
    },
    /// Offline training failed.
    Train(String),
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Config(e) => write!(f, "invalid config: {e}"),
            MonitorError::NotTrained => write!(f, "monitor not trained yet"),
            MonitorError::Storage(e) => write!(f, "storage error: {e}"),
            MonitorError::IncompleteWindow {
                unit,
                sensor,
                found,
            } => write!(
                f,
                "unit {unit} sensor {sensor}: incomplete window ({found} points)"
            ),
            MonitorError::Train(e) => write!(f, "training failed: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

/// Node id of the monitor's own telemetry sample: no storage node's id.
const FRONT_END_NODE: u32 = u32::MAX;

/// A window read back from the store column by column: sensor `j` of the
/// `k`-th unit read is `values[(k · sensors + j) · len ..][..len]`, oldest
/// tick first.
struct Columns {
    sensors: usize,
    len: usize,
    values: Vec<f64>,
}

impl Columns {
    /// The `k`-th unit read, as per-sensor column slices.
    fn unit(&self, k: usize) -> ColumnWindow<'_> {
        let width = self.sensors * self.len;
        self.values[k * width..][..width].chunks(self.len).collect()
    }
}

/// `tag` as an index, if it is exactly the decimal the fleet writes for
/// one (`i.to_string()`: no sign, no leading zero).
fn tag_index(tag: &str) -> Option<u32> {
    let canonical = !tag.starts_with('+') && (tag == "0" || !tag.starts_with('0'));
    tag.parse().ok().filter(|_| canonical)
}

/// The tags of the fleet series `(unit, sensor)`, as the cache matches them.
fn series_tags(unit: u32, sensor: u32) -> BTreeMap<String, String> {
    [("unit", unit), ("sensor", sensor)]
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .into()
}

/// The integrated monitoring platform.
pub struct Monitor {
    config: PlatformConfig,
    fleet: Fleet,
    pipeline: IngestionPipeline,
    engine: Arc<QueryEngine>,
    /// One work-stealing dataflow engine for the monitor's lifetime, so
    /// its scheduler counters accumulate across training rounds and feed
    /// the front-end telemetry sample.
    dataflow: Dataflow,
    /// One evaluator per trained unit, scoring a cycle's columnar window
    /// in one pass; empty until training.
    evaluator: BatchEvaluator,
    anomalies: Vec<AnomalyRecord>,
    last_ingest: Option<PipelineReport>,
}

impl Monitor {
    /// Build the platform from a validated configuration.
    pub fn new(config: PlatformConfig) -> Result<Self, MonitorError> {
        config.validate().map_err(MonitorError::Config)?;
        let fleet = Fleet::new(config.fleet.clone());
        let pipeline = IngestionPipeline::new_with_replication(
            config.storage_nodes,
            config.tsd_count,
            config.batch_size,
            &config.replication,
        );
        // Write-time rollup maintenance: one observer per TSD daemon, the
        // daemon index doubling as the rollup writer id so concurrent
        // writers never collide on a cell.
        if config.query.rollups_enabled {
            for (i, tsd) in pipeline.tsds().iter().enumerate() {
                tsd.set_observer(Arc::new(RollupWriter::new(
                    tsd.codec().clone(),
                    config.query.tiers.clone(),
                    i as u8,
                )));
            }
        }
        // The serving-layer engine reads through its own storage client so
        // dashboard scatter-gather never contends on the ingest clients.
        let engine = Arc::new(QueryEngine::new(
            pipeline.tsd().codec().clone(),
            Client::connect(pipeline.master()),
            config.query.engine_config(config.hedge_policy()),
        ));
        let dataflow = Dataflow::new(config.workers);
        let evaluator = BatchEvaluator::new(Vec::new(), config.procedure, config.alpha);
        Ok(Monitor {
            config,
            fleet,
            pipeline,
            engine,
            dataflow,
            evaluator,
            anomalies: Vec::new(),
            last_ingest: None,
        })
    }

    /// Borrow the serving-layer query engine — the mount point for the
    /// dashboard's `/api/query` ([`pga_tsdb::handle_query_with`]).
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }

    /// Borrow the fleet (ground truth access for experiments).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Detected anomalies so far.
    pub fn anomalies(&self) -> &[AnomalyRecord] {
        &self.anomalies
    }

    /// The `k` most concerning alerts over the last `horizon` seconds of
    /// anomaly records (§V-A's "selectively surfacing").
    pub fn top_alerts(&self, k: usize, now: u64, horizon: u64) -> Vec<crate::alerts::Alert> {
        let mut alerts = crate::alerts::rank_alerts(&self.anomalies, now, horizon);
        alerts.truncate(k);
        alerts
    }

    /// Borrow a TSD daemon handle — also the mount point for the
    /// OpenTSDB-compatible JSON API ([`pga_tsdb::handle_put`] /
    /// [`pga_tsdb::handle_query`]).
    pub fn tsd(&self) -> &std::sync::Arc<pga_tsdb::Tsd> {
        self.pipeline.tsd()
    }

    /// Ingest fleet ticks `[t0, t1)` through the proxy into storage.
    pub fn ingest_range(&mut self, t0: u64, t1: u64) -> PipelineReport {
        let report = self.pipeline.run_range(&self.fleet, t0, t1);
        // Seal open rollup buckets at the tick boundary. Best-effort: on
        // failure the cells stay buffered in the TSDs and ride with the
        // next put or flush, and the engine's raw tail patching covers the
        // still-open horizon meanwhile.
        let _ = self.pipeline.flush_observers();
        self.last_ingest = Some(report.clone());
        report
    }

    /// The monitor's one window read: a single engine query over ticks
    /// `(t_end - len, t_end]` for the whole fleet (`unit` = `None`) or for
    /// one unit under a `unit` tag filter — the full storage round-trip,
    /// not a shortcut through the generator.
    ///
    /// A series fills a column only if its tags are exactly `unit` and
    /// `sensor`, each the decimal the fleet writes for one of its indices;
    /// whatever else `POST /api/put` lets in (a sensor id the fleet lacks,
    /// `unit="00"`, a third tag) is no part of the model. Every column must
    /// hold one point per tick, checked unit by unit and sensor by sensor;
    /// a window that would start before tick 0 fails before any query.
    fn read_columns(
        &self,
        unit: Option<u32>,
        t_end: u64,
        len: usize,
    ) -> Result<Columns, MonitorError> {
        assert!(len > 0);
        let period = self.config.fleet.sample_period_secs;
        let (filter, first, units) = match unit {
            Some(u) => (QueryFilter::any().with("unit", &u.to_string()), u, 1),
            None => (QueryFilter::any(), 0, self.config.fleet.units),
        };
        let Some(start_tick) = t_end.checked_sub(len as u64 - 1) else {
            return Err(MonitorError::IncompleteWindow {
                unit: first,
                sensor: 0,
                found: t_end as usize + 1,
            });
        };
        // Full-resolution read through the serving engine: a raw plan, but
        // scatter-gathered across shards and result-cached for the
        // dashboard's repeated renders of the same window.
        let out = self
            .engine
            .query("energy", &filter, start_tick * period, t_end * period, None);
        if let Some(p) = out.partial {
            return Err(MonitorError::Storage(format!(
                "partial result: {}/{} shards failed",
                p.failed_shards.len(),
                p.total_shards
            )));
        }
        let sensors = self.config.fleet.sensors_per_unit;
        let p = sensors as usize;
        let mut placed: Vec<&[DataPoint]> = vec![&[]; units as usize * p];
        for s in out.series.iter().filter(|s| s.tags.len() == 2) {
            let index = |key: &str| s.tags.get(key).and_then(|tag| tag_index(tag));
            let unit = index("unit")
                .and_then(|u| u.checked_sub(first))
                .filter(|&k| k < units);
            let sensor = index("sensor").filter(|&j| j < sensors);
            if let (Some(k), Some(j)) = (unit, sensor) {
                placed[k as usize * p + j as usize] = &s.points;
            }
        }
        let mut values = vec![0.0; placed.len() * len];
        for (slot, (points, column)) in placed.iter().zip(values.chunks_mut(len)).enumerate() {
            // One point per tick of the window, or the window is incomplete.
            if points.len() != len {
                let (unit, sensor) = (first + (slot / p) as u32, (slot % p) as u32);
                // The missing points may yet arrive: drop the short answer
                // from the cache so that a retry reads the store again.
                self.engine
                    .invalidate_series("energy", &series_tags(unit, sensor));
                return Err(MonitorError::IncompleteWindow {
                    unit,
                    sensor,
                    found: points.len(),
                });
            }
            for pt in *points {
                column[(pt.timestamp / period - start_tick) as usize] = pt.value;
            }
        }
        Ok(Columns {
            sensors: p,
            len,
            values,
        })
    }

    /// Read one unit's observation window back from the TSDB (the
    /// one-unit case of the monitor's window read). Rows are ticks
    /// `(t_end - len, t_end]`.
    pub fn window_from_store(
        &self,
        unit: u32,
        t_end: u64,
        len: usize,
    ) -> Result<Matrix, MonitorError> {
        let read = self.read_columns(Some(unit), t_end, len)?;
        let mut m = Matrix::zeros(len, read.sensors);
        for (j, column) in read.unit(0).iter().enumerate() {
            for (r, &v) in column.iter().enumerate() {
                m.set(r, j, v);
            }
        }
        Ok(m)
    }

    /// Offline training: read the fleet's training window from storage in
    /// one query and fit models in parallel on the dataflow engine.
    pub fn train(&mut self, t_end: u64) -> Result<(), MonitorError> {
        let units = self.config.fleet.units;
        let read = self.read_columns(None, t_end, self.config.training_window)?;
        let windows: Vec<(u32, ColumnWindow<'_>)> =
            (0..units).map(|u| (u, read.unit(u as usize))).collect();
        let results: Vec<Result<UnitModel, String>> = self
            .dataflow
            .parallelize(windows, self.config.workers * 2)
            .map(|(u, columns)| train_unit_columns(u, &columns).map_err(|e| e.to_string()))
            .collect();
        let mut models = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(MonitorError::Train)?;
        models.sort_by_key(|m| m.unit);
        self.evaluator = BatchEvaluator::new(models, self.config.procedure, self.config.alpha);
        Ok(())
    }

    /// Whether training has produced evaluators.
    pub fn is_trained(&self) -> bool {
        self.evaluator.units() > 0
    }

    /// Evaluate every unit's window ending at `t_end` against its model:
    /// one read of the whole fleet's window, scored in one
    /// [`BatchEvaluator`] pass. Detected anomalies are written back to the
    /// TSDB under the `anomaly` metric, all of a cycle's in one put, and
    /// recorded.
    ///
    /// A cycle is all or nothing: the read comes first, so an incomplete
    /// window fails the cycle before any flag is written back, and flags
    /// are recorded (and their cached series dropped) only once the
    /// write-back has landed, so a failed write records nothing.
    pub fn evaluate_at(&mut self, t_end: u64) -> Result<Vec<EvalOutcome>, MonitorError> {
        if !self.is_trained() {
            return Err(MonitorError::NotTrained);
        }
        let period = self.config.fleet.sample_period_secs;
        let read = self.read_columns(None, t_end, self.config.eval_window)?;
        let windows: Vec<Option<ColumnWindow<'_>>> = self
            .evaluator
            .evaluators()
            .iter()
            .map(|ev| Some(read.unit(ev.model().unit as usize)))
            .collect();
        let outcomes: Vec<EvalOutcome> = self
            .evaluator
            .evaluate_columns(&windows)
            .into_iter()
            .flatten()
            .collect();
        let timestamp = t_end * period;
        let flags: Vec<AnomalyRecord> = outcomes
            .iter()
            .flat_map(|out| {
                out.flags.iter().map(|flag| AnomalyRecord {
                    unit: out.unit,
                    sensor: flag.sensor,
                    timestamp,
                    p_value: flag.p_value,
                })
            })
            .collect();
        // Report back to the TSDB, every flag of the cycle in one put (they
        // share metric and timestamp): value = −log10(p), clamped.
        let names: Vec<[String; 2]> = flags
            .iter()
            .map(|a| [a.unit.to_string(), a.sensor.to_string()])
            .collect();
        let tags: Vec<[(&str, &str); 2]> = names
            .iter()
            .map(|[u, s]| [("unit", u.as_str()), ("sensor", s.as_str())])
            .collect();
        let points: Vec<BatchPoint<'_>> = flags
            .iter()
            .zip(&tags)
            .map(|(a, tags)| {
                let strength = if a.p_value > 0.0 {
                    (-a.p_value.log10()).min(300.0)
                } else {
                    300.0
                };
                (&tags[..], timestamp, strength)
            })
            .collect();
        self.pipeline
            .tsd()
            .put_batch("anomaly", &points)
            .map_err(|e| MonitorError::Storage(e.to_string()))?;
        // Written, so recorded; and a freshly flagged series must never hide
        // behind a stale chart: drop every cached result covering it.
        for a in &flags {
            let flagged = series_tags(a.unit, a.sensor);
            self.engine.invalidate_series("energy", &flagged);
            self.engine.invalidate_series("anomaly", &flagged);
        }
        self.anomalies.extend(flags);
        Ok(outcomes)
    }

    /// Anomaly timestamps recorded for `(unit, sensor)`, in ticks.
    fn anomaly_ticks(&self, unit: u32, sensor: u32) -> Vec<u64> {
        let period = self.config.fleet.sample_period_secs;
        self.anomalies
            .iter()
            .filter(|a| a.unit == unit && a.sensor == sensor)
            .map(|a| a.timestamp / period)
            .collect()
    }

    /// Status summary of one unit from the recorded anomalies.
    pub fn unit_status(&self, unit: u32) -> UnitStatus {
        let flagged: std::collections::HashSet<u32> = self
            .anomalies
            .iter()
            .filter(|a| a.unit == unit)
            .map(|a| a.sensor)
            .collect();
        UnitStatus {
            unit,
            health: Health::from_flag_count(flagged.len()),
            flagged_sensors: flagged.len(),
            last_anomaly: self
                .anomalies
                .iter()
                .filter(|a| a.unit == unit)
                .map(|a| a.timestamp)
                .max(),
        }
    }

    /// Build the Figure-3 machine page for `unit`: sensor panels over the
    /// window `(t_end - len, t_end]`, flagged sensors first, drill-down on
    /// the strongest anomaly. `max_panels` bounds the grid size.
    pub fn machine_page_data(
        &self,
        unit: u32,
        t_end: u64,
        len: usize,
        max_panels: usize,
    ) -> Result<MachinePage, MonitorError> {
        let w = self.window_from_store(unit, t_end, len)?;
        let start_tick = t_end + 1 - len as u64;
        let p = w.cols();
        let mut panels: Vec<SensorPanel> = (0..p)
            .map(|j| {
                let points: Vec<(u64, f64)> = (0..len)
                    .map(|r| (start_tick + r as u64, w.get(r, j)))
                    .collect();
                let anomalies: Vec<u64> = self
                    .anomaly_ticks(unit, j as u32)
                    .into_iter()
                    .filter(|t| *t >= start_tick && *t <= t_end)
                    .collect();
                SensorPanel {
                    sensor: j as u32,
                    points,
                    anomalies,
                }
            })
            .collect();
        // Flagged sensors first, then by id; cap the panel count.
        panels.sort_by_key(|pnl| (pnl.anomalies.is_empty(), pnl.sensor));
        panels.truncate(max_panels);
        let detail = panels.iter().position(|pnl| !pnl.anomalies.is_empty());
        Ok(MachinePage {
            unit,
            status: self.unit_status(unit),
            panels,
            detail,
        })
    }

    /// Render the machine page to HTML.
    pub fn machine_page_html(
        &self,
        unit: u32,
        t_end: u64,
        len: usize,
        max_panels: usize,
    ) -> Result<String, MonitorError> {
        Ok(machine_page(
            &self.machine_page_data(unit, t_end, len, max_panels)?,
        ))
    }

    /// Build the fleet overview from recorded anomalies and the last
    /// ingest measurement.
    pub fn fleet_overview_data(&self, eval_rate: f64) -> FleetOverview {
        FleetOverview {
            units: (0..self.config.fleet.units)
                .map(|u| self.unit_status(u))
                .collect(),
            ingest_rate: self.last_ingest.as_ref().map_or(0.0, |r| r.throughput),
            eval_rate,
        }
    }

    /// Render the fleet overview to HTML.
    pub fn fleet_overview_html(&self, eval_rate: f64) -> String {
        fleet_overview_page(&self.fleet_overview_data(eval_rate))
    }

    /// Sample the counters only this process can see — the serving
    /// engine's, every storage client's lag book (the ingest TSDs plus
    /// the engine), the TSDs' scrub state and the training scheduler's —
    /// as one non-serving telemetry sample.
    fn front_end_stats(&self) -> NodeStats {
        let mut stats = NodeStats::new(FRONT_END_NODE);
        stats.is_proxy = true;
        let query = self.engine.stats();
        let mut books = self.engine.client().repl_book().snapshot();
        // The scrub state owns detection/quarantine/repair totals (the
        // read path quarantines through the same state, so `corrupt_found`
        // counts each span once) and the TSD metrics own salvaged reads.
        use std::sync::atomic::Ordering::Relaxed;
        let (mut cells, mut corrupt, mut quarantined) = (0u64, 0u64, 0u64);
        let (mut repairs, mut rejected, mut salvaged) = (0u64, 0u64, 0u64);
        for tsd in self.pipeline.tsds() {
            books = books.merge(&tsd.client().repl_book().snapshot());
            let scrub = tsd.scrub_state();
            // pga-allow(relaxed-atomics): independent monotonic counters; reporting tolerates skew
            cells += scrub.cells_scrubbed.load(Relaxed);
            corrupt += scrub.corrupt_found.load(Relaxed);
            quarantined += scrub.len() as u64;
            repairs += scrub.repairs_ok.load(Relaxed);
            rejected += scrub.repairs_rejected.load(Relaxed);
            salvaged += tsd.metrics().salvaged_reads.load(Relaxed);
        }
        // Every training graph the dataflow engine ran since construction.
        let sched = self.dataflow.stats();
        stats
            .set(Metric::QueryCacheHits, query.cache_hits)
            .set(Metric::QueryCacheMisses, query.cache_misses)
            .set(Metric::QueryFanout, query.fanout_total)
            .set(Metric::QueryPartials, query.partials)
            .set(Metric::QueryCellsScanned, query.cells_scanned)
            .set(Metric::QueryPointsServed, query.points_served)
            .set(Metric::ReplFenceRejections, books.fence_rejections)
            .set(Metric::ReplFollowerReads, books.follower_reads)
            .set(Metric::ReplHedgedScans, books.hedged_scans)
            .set(Metric::ScrubCells, cells)
            .set(Metric::ScrubCorruptBlocks, corrupt)
            .set(Metric::ScrubQuarantined, quarantined)
            .set(Metric::ScrubRepairs, repairs)
            .set(Metric::ScrubRejected, rejected)
            .set(Metric::ScrubSalvagedReads, salvaged)
            .set(Metric::SchedTasks, sched.tasks_run)
            .set(Metric::SchedSteals, sched.steals)
            .set(Metric::SchedStealAttempts, sched.steal_attempts)
            .set(Metric::SchedMaxQueueDepth, sched.max_queue_depth)
            .set(Metric::SchedTaskNs, sched.task_ns_total)
            // Every TSD encodes through a clone of one codec: one table.
            .set(
                Metric::TsdSeries,
                self.pipeline.tsd().codec().series_count() as u64,
            );
        stats
    }

    /// The fleet's telemetry right now: one sample per storage node
    /// ([`collect_node_stats`]) plus this process's
    /// front-end sample. `/cluster` and `/metrics` both render from it.
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        let master = self.pipeline.master();
        let mut nodes: Vec<NodeStats> = master
            .nodes()
            .into_iter()
            .filter_map(|node| collect_node_stats(master, node))
            .collect();
        nodes.push(self.front_end_stats());
        FleetSnapshot { nodes }
    }

    /// Build the cluster replication view: region placement from the
    /// master's directory, each node's lag and failover columns from its
    /// telemetry sample, and the stat strip from the fleet folds.
    pub fn cluster_view_data(&self) -> ClusterView {
        let master = self.pipeline.master();
        let fleet = self.fleet_snapshot();
        let live: std::collections::BTreeSet<_> = master.live_nodes().into_iter().collect();
        let directory = master.directory().read().clone();
        let nodes = fleet
            .nodes
            .iter()
            .filter(|stats| !stats.is_proxy)
            .map(|stats| {
                let node = NodeId(stats.node);
                ClusterNodeRow {
                    node: stats.node,
                    alive: live.contains(&node),
                    primary_regions: directory.iter().filter(|r| r.server == node).count(),
                    follower_regions: directory
                        .iter()
                        .filter(|r| r.followers.contains(&node))
                        .count(),
                    replication_lag: stats.get(Metric::ReplLagBatches),
                    failovers: stats.get(Metric::ReplFailovers),
                }
            })
            .collect();
        let tiles = fleet
            .tiles()
            .into_iter()
            .map(|(label, value)| StatTile {
                label: label.to_string(),
                value,
            })
            .collect();
        ClusterView {
            replication_factor: master.replication_factor(),
            nodes,
            lag_alert: self.config.replication.follower_read_max_lag,
            tiles,
        }
    }

    /// Render the cluster replication page to HTML.
    pub fn cluster_page_html(&self) -> String {
        cluster_page(&self.cluster_view_data())
    }

    /// Render the fleet anomaly heatmap (units × time buckets) as a
    /// standalone HTML page. Events are read back from the `anomaly`
    /// metric **through the serving engine** (cached, scatter-gathered) —
    /// the heatmap shows what the storage layer has, not what this
    /// process remembers.
    pub fn heatmap_html(&self, start: u64, end: u64, bucket_secs: u64) -> String {
        let out = self
            .engine
            .query("anomaly", &QueryFilter::any(), start, end, None);
        let events: Vec<(u32, u64)> = out
            .series
            .iter()
            .filter_map(|s| {
                let unit: u32 = s.tags.get("unit")?.parse().ok()?;
                Some(s.points.iter().map(move |p| (unit, p.timestamp)))
            })
            .flatten()
            .collect();
        let units: Vec<u32> = (0..self.config.fleet.units).collect();
        let data = pga_viz::HeatmapData::from_events(&events, units, start, end, bucket_secs);
        let svg = pga_viz::anomaly_heatmap(&data, 14);
        format!(
            "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>Anomaly heatmap</title>\
             <style>:root {{ color-scheme: light dark; }}\
             body {{ --surface-2:#f0efec; --text-secondary:#52514e; background:#fcfcfb;\
                     font-family:system-ui,sans-serif; padding:16px; }}\
             @media (prefers-color-scheme: dark) {{ body {{ --surface-2:#383835;\
                     --text-secondary:#c3c2b7; background:#1a1a19; color:#fff; }} }}\
             </style></head><body><h1 style=\"font-size:18px\">Fleet anomaly heatmap</h1>{svg}</body></html>"
        )
    }

    /// Shut the storage cluster down.
    pub fn shutdown(&self) {
        self.pipeline.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_trained_error_before_training() {
        let mut m = Monitor::new(PlatformConfig::demo(3)).unwrap();
        m.ingest_range(0, 4);
        assert!(matches!(m.evaluate_at(3), Err(MonitorError::NotTrained)));
        m.shutdown();
    }

    #[test]
    fn incomplete_window_is_detected() {
        let m = Monitor::new(PlatformConfig::demo(5)).unwrap();
        // Nothing ingested: the window cannot be assembled.
        assert!(matches!(
            m.window_from_store(0, 9, 10),
            Err(MonitorError::IncompleteWindow { .. }) | Err(MonitorError::Storage(_))
        ));
        m.shutdown();
    }

    #[test]
    fn window_from_store_matches_generator() {
        let mut m = Monitor::new(PlatformConfig::demo(7)).unwrap();
        m.ingest_range(0, 6);
        let w = m.window_from_store(2, 5, 6).unwrap();
        for t in 0..6u64 {
            for s in 0..4u32 {
                assert_eq!(w.get(t as usize, s as usize), m.fleet().sample(2, s, t));
            }
        }
        m.shutdown();
    }

    #[test]
    fn cluster_view_reflects_replicated_placement() {
        let mut config = PlatformConfig::demo(9);
        config.fleet.units = 2;
        config.fleet.sensors_per_unit = 8;
        config.replication.factor = 2;
        let mut m = Monitor::new(config).unwrap();
        m.ingest_range(0, 4);
        let view = m.cluster_view_data();
        assert_eq!(view.replication_factor, 2);
        assert_eq!(view.nodes.len(), 4);
        assert_eq!(view.live_nodes(), 4);
        // RF=2: every region led somewhere and followed somewhere else.
        let primaries: usize = view.nodes.iter().map(|n| n.primary_regions).sum();
        let followers: usize = view.nodes.iter().map(|n| n.follower_regions).sum();
        assert!(primaries > 0);
        assert_eq!(primaries, followers);
        let fleet = m.fleet_snapshot();
        assert_eq!(fleet.live_nodes(), 4, "the front end is not a serving node");
        assert_eq!(fleet.fold(Metric::ReplFailovers), 0);
        assert_eq!(fleet.fold(Metric::ReplRegions) as usize, primaries);
        // Clean cluster: nothing detected, quarantined, or repaired.
        assert_eq!(fleet.fold(Metric::ScrubCorruptBlocks), 0);
        assert_eq!(fleet.fold(Metric::ScrubQuarantined), 0);
        assert_eq!(fleet.fold(Metric::ScrubRepairs), 0);
        assert!(fleet.fold(Metric::SamplesWritten) > 0);
        let html = m.cluster_page_html();
        assert!(html.contains("Cluster replication"));
        assert!(html.contains("RF 2"));
        for (label, value) in fleet.tiles() {
            assert!(
                html.contains(&format!("{value}</div><div class=\"k\">{label}</div>")),
                "tile {label} renders"
            );
        }
        assert!(html.contains("<div class=\"k\">corrupt blocks</div>"));
        assert!(html.contains("<div class=\"k\">quarantined spans</div>"));
        m.shutdown();
    }

    #[test]
    fn training_runs_scheduler_tasks() {
        let mut config = PlatformConfig::demo(13);
        config.fleet.units = 2;
        config.fleet.sensors_per_unit = 8;
        let mut m = Monitor::new(config).unwrap();
        m.ingest_range(0, 210);
        assert_eq!(m.fleet_snapshot().fold(Metric::SchedTasks), 0);
        m.train(149).unwrap();
        assert!(m.is_trained());
        // Scheduler counters from the training graph reach the fleet
        // snapshot.
        assert!(
            m.fleet_snapshot().fold(Metric::SchedTasks) > 0,
            "training ran scheduler tasks"
        );
        let out = m.evaluate_at(205).unwrap();
        assert_eq!(out.len(), 2);
        m.shutdown();
    }

    /// A window longer than the ticks up to its end fails typed, before
    /// any query: its first tick would be negative.
    #[test]
    fn a_window_starting_before_tick_0_is_incomplete() {
        let mut config = PlatformConfig::demo(17);
        config.fleet.units = 2;
        config.fleet.sensors_per_unit = 8;
        let mut m = Monitor::new(config).unwrap();
        m.ingest_range(0, 210);
        let early = |r: Result<_, MonitorError>, ticks: usize| match r {
            Err(MonitorError::IncompleteWindow { unit: 0, found, .. }) => assert_eq!(found, ticks),
            Err(e) => panic!("expected an incomplete window, got {e}"),
            Ok(_) => panic!("expected an incomplete window"),
        };
        early(m.train(100), 101);
        early(m.window_from_store(0, 9, 50).map(|_| ()), 10);
        m.train(149).unwrap();
        early(m.evaluate_at(10).map(|_| ()), 11);
        // The windows that do fit still read.
        assert_eq!(m.window_from_store(1, 49, 50).unwrap().rows(), 50);
        assert_eq!(m.evaluate_at(49).unwrap().len(), 2);
        m.shutdown();
    }

    /// The write side of an all-or-nothing cycle: the read succeeds (the
    /// followers serve the crashed primary's regions) but the flags'
    /// write-back cannot land, so the cycle fails and records nothing —
    /// where recording each flag before its own put left the flags up to
    /// the failing one recorded, and again on every retry.
    #[test]
    fn a_failed_write_back_records_nothing() {
        let mut config = PlatformConfig::demo(103);
        config.fleet.units = 4;
        config.fleet.sensors_per_unit = 16;
        config.replication.factor = 2;
        let mut m = Monitor::new(config).unwrap();
        m.ingest_range(0, 650);
        m.train(149).unwrap();
        m.evaluate_at(649).unwrap();
        let recorded = m.anomalies().to_vec();
        assert!(!recorded.is_empty(), "the fleet has faulted units");

        // Crash the primary of the region the first flag's anomaly row is
        // written to.
        let (u, s) = (recorded[0].unit.to_string(), recorded[0].sensor.to_string());
        let tags = [("unit", u.as_str()), ("sensor", s.as_str())];
        let row = m.tsd().codec().row_key("anomaly", &tags, 649);
        let master = m.pipeline.master();
        let primary = master
            .directory()
            .read()
            .iter()
            .find(|info| info.range.contains(&row))
            .map(|info| info.server)
            .unwrap();
        master.server(primary).unwrap().shutdown();

        // The store still serves reads, off the followers.
        assert_eq!(m.window_from_store(3, 649, 50).unwrap().rows(), 50);
        // Same window, same model: the same flags, whose write now fails
        // after the read succeeded (a failed read is a partial result).
        for _ in 0..2 {
            match m.evaluate_at(649) {
                Err(MonitorError::Storage(e)) => assert!(!e.starts_with("partial"), "{e}"),
                other => panic!("expected the write-back to fail: {other:?}"),
            }
            assert_eq!(m.anomalies(), &recorded[..], "nothing recorded");
        }
        m.shutdown();
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = PlatformConfig::demo(1);
        c.tsd_count = 0;
        assert!(matches!(Monitor::new(c), Err(MonitorError::Config(_))));
    }
}
