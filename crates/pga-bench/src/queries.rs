//! E19 — serving-layer query performance: raw scans vs write-time rollups
//! vs the sharded result cache, measured while ingest keeps running.
//!
//! Three arms answer the same dashboard workload (per-unit averages over
//! the full retained history) through [`pga_query::QueryEngine`] instances
//! that differ only in configuration:
//!
//! * **raw** — no rollup tiers, cache disabled: every query is a salted
//!   scatter-gather scan over raw cells (the pre-serving behaviour).
//! * **rollup** — tiered pre-aggregates enabled, cache disabled: the
//!   planner serves interior windows from 60 s/600 s rollup rows and only
//!   scans raw cells for the unaligned head and the hot tail.
//! * **rollup+cache** — rollups plus the sharded TTL result cache; the
//!   repeated panel refreshes of a dashboard hit cached entries.
//!
//! While the arms are measured, a background thread keeps ingesting fleet
//! ticks through the reverse proxy, so latencies include write-path
//! contention. Two oracles gate the verdict: rollup answers must equal raw
//! answers bit-for-bit under every aggregator, and a cached
//! anomaly view must reflect a freshly flagged series immediately after
//! the engine's explicit invalidation (zero stale anomaly flags). An exact
//! counter gates it too: a raw panel query must scan fewer than twice the
//! cells its one unit holds, which only holds while the tag filter reaches
//! the region servers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use crate::detection::paper_fleet;
use crate::table::{render_table, row};

use pga_ingest::IngestionPipeline;
use pga_minibase::Client;
use pga_query::{CacheConfig, ExecConfig, QueryEngine, QueryEngineConfig, RollupWriter};
use pga_tsdb::{Aggregator, QueryFilter, TimeSeries};

/// Rollup tier widths used by the serving arms.
const TIERS: [u64; 2] = [60, 600];

/// Every aggregator the answer oracle asks both engines.
const AGGREGATORS: [Aggregator; 5] = [
    Aggregator::Avg,
    Aggregator::Sum,
    Aggregator::Min,
    Aggregator::Max,
    Aggregator::Count,
];

/// Sizing for [`query_serving_experiment`].
#[derive(Debug, Clone, Serialize)]
pub struct QueryBenchConfig {
    /// Region-server nodes (also the salt-bucket count).
    pub nodes: usize,
    /// TSD daemons behind the proxy (one rollup writer each).
    pub tsd_count: usize,
    /// Fleet units.
    pub units: u32,
    /// Sensors per unit.
    pub sensors_per_unit: u32,
    /// Seconds of history prefilled before measurement.
    pub history_secs: u64,
    /// Queries measured per arm.
    pub queries: usize,
    /// Dashboard downsample window in seconds.
    pub downsample_secs: u64,
    /// Fleet seed.
    pub seed: u64,
}

impl QueryBenchConfig {
    /// CI-sized configuration (a few seconds end to end).
    pub fn quick() -> Self {
        QueryBenchConfig {
            nodes: 3,
            tsd_count: 2,
            units: 6,
            sensors_per_unit: 8,
            history_secs: 5_400,
            queries: 24,
            downsample_secs: 60,
            seed: 2024,
        }
    }

    /// Paper-style configuration for the full report.
    pub fn full() -> Self {
        QueryBenchConfig {
            nodes: 4,
            tsd_count: 2,
            units: 8,
            sensors_per_unit: 16,
            history_secs: 7_200,
            queries: 48,
            downsample_secs: 60,
            seed: 2024,
        }
    }
}

/// One serving arm's measured latency/throughput profile.
#[derive(Debug, Clone, Serialize)]
pub struct QueryArm {
    /// Arm label (`raw`, `rollup`, `rollup+cache`).
    pub label: String,
    /// Median query latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile query latency in milliseconds.
    pub p99_ms: f64,
    /// Mean query latency in milliseconds.
    pub mean_ms: f64,
    /// Queries per second sustained over the measured batch.
    pub sustained_qps: f64,
    /// Rollup-plan executions during measurement.
    pub rollup_plans: u64,
    /// Result-cache hits during measurement.
    pub cache_hits: u64,
    /// Queries that returned partial results (must be 0 for a pass).
    pub partials: u64,
    /// Cells the region servers returned over the timed loop (the cached
    /// arm's untimed warm pass excluded).
    pub cells_scanned: u64,
}

/// E19 artifact: the three arms plus the correctness/staleness oracles.
#[derive(Debug, Clone, Serialize)]
pub struct QueryServingReport {
    /// Sizing used.
    pub config: QueryBenchConfig,
    /// Raw-scan arm.
    pub raw: QueryArm,
    /// Rollup arm (cache disabled).
    pub rollup: QueryArm,
    /// Rollup + result-cache arm.
    pub cached: QueryArm,
    /// Ingest rate (samples/s) sustained by the background writer while
    /// queries were measured.
    pub ingest_throughput: f64,
    /// Samples ingested concurrently with the measurement.
    pub ingest_samples: u64,
    /// Sustained-QPS speedup of the rollup arm over raw.
    pub qps_speedup_rollup: f64,
    /// Sustained-QPS speedup of the rollup+cache arm over raw.
    pub qps_speedup_cached: f64,
    /// p99 latency speedup (raw p99 / cached p99).
    pub p99_speedup_cached: f64,
    /// Rollup answers disagreeing with raw answers, one panel per unit
    /// under each aggregator (must be 0).
    pub answer_mismatches: u64,
    /// Cached anomaly views that missed a freshly flagged series after
    /// explicit invalidation (must be 0).
    pub stale_anomaly_flags: u64,
}

impl QueryServingReport {
    /// Raw cells one unit holds over the history: what a raw panel query
    /// reads when only its own unit's rows come back.
    fn unit_cells(&self) -> u64 {
        u64::from(self.config.sensors_per_unit) * self.config.history_secs
    }

    /// Cells the raw arm scanned per query.
    fn raw_cells_per_query(&self) -> f64 {
        self.raw.cells_scanned as f64 / self.config.queries as f64
    }

    /// E19 verdict: exact answers, no stale flags, no partial results,
    /// a raw panel query that scans under twice its own unit's cells (the
    /// tag filter reached the region servers; a stray duplicate version is
    /// tolerated), and the serving layer clears the 10x bar on sustained
    /// QPS or p99.
    pub fn passed(&self) -> bool {
        self.answer_mismatches == 0
            && self.stale_anomaly_flags == 0
            && self.raw.partials + self.rollup.partials + self.cached.partials == 0
            && self.raw_cells_per_query() < 2.0 * self.unit_cells() as f64
            && (self.qps_speedup_cached >= 10.0 || self.p99_speedup_cached >= 10.0)
    }

    /// The E19 table and measured summary (no verdict line).
    pub fn render(&self) -> String {
        let arm = |a: &QueryArm| {
            vec![
                a.label.clone(),
                format!("{:.2}", a.p50_ms),
                format!("{:.2}", a.p99_ms),
                format!("{:.0}", a.sustained_qps),
                a.rollup_plans.to_string(),
                a.cache_hits.to_string(),
                a.partials.to_string(),
                a.cells_scanned.to_string(),
            ]
        };
        let rows = [
            row("arm|p50 (ms)|p99 (ms)|QPS|rollup plans|cache hits|partials|cells scanned"),
            arm(&self.raw),
            arm(&self.rollup),
            arm(&self.cached),
        ];
        format!(
            "{}\nconcurrent ingest: {} samples at {:.0} samples/s\n\
             raw scan: {:.0} cells per query for a unit holding {} (bar: under 2x)\n\
             speedups vs raw: rollup {:.1}x QPS, rollup+cache {:.1}x QPS / {:.1}x p99\n\
             oracles: {} answer mismatches, {} stale anomaly flags",
            render_table(&rows),
            self.ingest_samples,
            self.ingest_throughput,
            self.raw_cells_per_query(),
            self.unit_cells(),
            self.qps_speedup_rollup,
            self.qps_speedup_cached,
            self.p99_speedup_cached,
            self.answer_mismatches,
            self.stale_anomaly_flags
        )
    }
}

fn make_engine(pipeline: &IngestionPipeline, tiers: Vec<u64>, ttl_ms: u64) -> QueryEngine {
    QueryEngine::new(
        pipeline.tsd().codec().clone(),
        Client::connect(pipeline.master()),
        QueryEngineConfig {
            exec: ExecConfig {
                tiers,
                // Far above the slowest raw scan: the experiment measures
                // latency, and a shard shed mid-benchmark would truncate
                // answers and distort the comparison.
                shard_deadline_ms: 15_000,
                tail_buckets: 2,
                hedge: None,
            },
            cache: CacheConfig {
                shards: 8,
                ttl_ms,
                capacity_per_shard: 256,
            },
        },
    )
}

/// The dashboard panel for query index `i`: one unit's fleet-wide average.
fn panel_filter(i: usize, units: u32) -> QueryFilter {
    QueryFilter::any().with("unit", &(i as u32 % units).to_string())
}

fn run_arm(label: &str, engine: &QueryEngine, cfg: &QueryBenchConfig, warm: bool) -> QueryArm {
    if warm {
        // The cached arm measures steady-state dashboard refreshes: one
        // untimed pass populates the panels, the timed loop then refreshes
        // them the way an open dashboard does every few seconds.
        for i in 0..cfg.units as usize {
            let filter = panel_filter(i, cfg.units);
            engine.query(
                "energy",
                &filter,
                0,
                cfg.history_secs - 1,
                Some((cfg.downsample_secs, Aggregator::Avg)),
            );
        }
    }
    let mut latencies_ms = Vec::with_capacity(cfg.queries);
    let before = engine.stats();
    let started = Instant::now();
    for i in 0..cfg.queries {
        let filter = panel_filter(i, cfg.units);
        let t = Instant::now();
        let out = engine.query(
            "energy",
            &filter,
            0,
            cfg.history_secs - 1,
            Some((cfg.downsample_secs, Aggregator::Avg)),
        );
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(out);
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let n = latencies_ms.len();
    let stats = engine.stats();
    QueryArm {
        label: label.to_string(),
        p50_ms: latencies_ms[n / 2],
        p99_ms: latencies_ms[(n * 99 / 100).min(n - 1)],
        mean_ms: latencies_ms.iter().sum::<f64>() / n as f64,
        sustained_qps: n as f64 / elapsed,
        rollup_plans: stats.rollup_plans,
        cache_hits: stats.cache_hits,
        partials: stats.partials,
        cells_scanned: stats.cells_scanned - before.cells_scanned,
    }
}

/// Bit-for-bit series-set equality (tags and `(timestamp, value)` pairs).
fn same_answer(a: &[TimeSeries], b: &[TimeSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.tags == y.tags
                && x.points.len() == y.points.len()
                && x.points.iter().zip(&y.points).all(|(p, q)| {
                    p.timestamp == q.timestamp && p.value.to_be_bytes() == q.value.to_be_bytes()
                })
        })
}

/// Run E19 against the real storage stack.
pub fn query_serving_experiment(cfg: &QueryBenchConfig) -> QueryServingReport {
    let pipeline = IngestionPipeline::new(cfg.nodes, cfg.tsd_count, 256);
    for (i, tsd) in pipeline.tsds().iter().enumerate() {
        tsd.set_observer(Arc::new(RollupWriter::new(
            tsd.codec().clone(),
            TIERS.to_vec(),
            i as u8,
        )));
    }
    let fleet = paper_fleet(cfg.units, cfg.sensors_per_unit, cfg.seed);

    // Prefill the retained history and seal the rollup buckets covering it.
    pipeline.run_range(&fleet, 0, cfg.history_secs);
    pipeline
        .flush_observers()
        .expect("prefill rollup flush succeeds");

    let raw_engine = make_engine(&pipeline, Vec::new(), 0);
    let rollup_engine = make_engine(&pipeline, TIERS.to_vec(), 0);
    let cached_engine = make_engine(&pipeline, TIERS.to_vec(), 600_000);

    let stop = AtomicBool::new(false);
    let ingest_samples = AtomicU64::new(0);
    let ingest_secs_bits = AtomicU64::new(0);

    let mut report = std::thread::scope(|scope| {
        // Background writer: keeps the proxy -> TSD -> region-server path
        // busy (and the rollup writers accumulating) during measurement.
        scope.spawn(|| {
            let mut t = cfg.history_secs;
            let mut secs = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                let rep = pipeline.run_range(&fleet, t, t + 120);
                t += 120;
                secs += rep.elapsed_secs;
                ingest_samples.fetch_add(rep.samples, Ordering::Relaxed);
                ingest_secs_bits.store(secs.to_bits(), Ordering::Relaxed);
            }
        });

        let raw = run_arm("raw", &raw_engine, cfg, false);
        let rollup = run_arm("rollup", &rollup_engine, cfg, false);
        let cached = run_arm("rollup+cache", &cached_engine, cfg, true);

        // The timed arms above competed with live ingest — that is the
        // measurement. The oracles below are correctness checks, so the
        // writers quiesce first: a loaded box must never turn contention
        // into a phantom "mismatch".
        stop.store(true, Ordering::Relaxed);

        // Oracle 1: rollup answers equal raw answers bit-for-bit under
        // every aggregator. Each series travels in one proxy lane, so one
        // rollup writer folds its buckets in time order, as raw does.
        let mut answer_mismatches = 0u64;
        for u in 0..cfg.units as usize {
            let filter = panel_filter(u, cfg.units);
            for agg in AGGREGATORS {
                let ds = Some((cfg.downsample_secs, agg));
                let a = raw_engine.query("energy", &filter, 0, cfg.history_secs - 1, ds);
                let b = rollup_engine.query("energy", &filter, 0, cfg.history_secs - 1, ds);
                if !same_answer(&a.series, &b.series) {
                    answer_mismatches += 1;
                }
            }
        }

        // Oracle 2: flag anomalies on cached series; after the engine's
        // explicit invalidation every cached view must show the new flag.
        let mut stale_anomaly_flags = 0u64;
        for u in 0..cfg.units {
            let unit = u.to_string();
            let filter = QueryFilter::any().with("unit", &unit);
            let primed = cached_engine.query("anomaly", &filter, 0, cfg.history_secs, None);
            assert!(!primed.from_cache, "first anomaly view must execute");
            let flag_ts = 100 + u as u64;
            pipeline
                .tsd()
                .put("anomaly", &[("unit", &unit), ("sensor", "0")], flag_ts, 1.0)
                .expect("anomaly flag write succeeds");
            let mut flagged = BTreeMap::new();
            flagged.insert("unit".to_string(), unit.clone());
            flagged.insert("sensor".to_string(), "0".to_string());
            cached_engine.invalidate_series("anomaly", &flagged);
            let after = cached_engine.query("anomaly", &filter, 0, cfg.history_secs, None);
            let visible = after
                .series
                .iter()
                .any(|s| s.points.iter().any(|p| p.timestamp == flag_ts));
            if after.from_cache || !visible {
                stale_anomaly_flags += 1;
            }
        }

        QueryServingReport {
            config: cfg.clone(),
            qps_speedup_rollup: rollup.sustained_qps / raw.sustained_qps,
            qps_speedup_cached: cached.sustained_qps / raw.sustained_qps,
            p99_speedup_cached: raw.p99_ms / cached.p99_ms.max(1e-6),
            raw,
            rollup,
            cached,
            ingest_throughput: 0.0,
            ingest_samples: 0,
            answer_mismatches,
            stale_anomaly_flags,
        }
    });

    let samples = ingest_samples.load(Ordering::Relaxed);
    let secs = f64::from_bits(ingest_secs_bits.load(Ordering::Relaxed));
    report.ingest_samples = samples;
    report.ingest_throughput = if secs > 0.0 {
        samples as f64 / secs
    } else {
        0.0
    };
    pipeline.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_oracles_hold_on_a_small_stack() {
        let cfg = QueryBenchConfig {
            nodes: 2,
            tsd_count: 2,
            units: 3,
            sensors_per_unit: 4,
            history_secs: 1_800,
            queries: 9,
            downsample_secs: 60,
            seed: 7,
        };
        let rep = query_serving_experiment(&cfg);
        assert_eq!(rep.answer_mismatches, 0, "rollup answers must equal raw");
        assert_eq!(rep.stale_anomaly_flags, 0, "invalidation must be immediate");
        assert_eq!(
            rep.raw.partials + rep.rollup.partials + rep.cached.partials,
            0
        );
        assert_eq!(rep.raw.rollup_plans, 0, "raw arm must never plan rollups");
        assert!(
            rep.raw_cells_per_query() < 2.0 * rep.unit_cells() as f64,
            "a panel query scans its own unit: {} cells for {}",
            rep.raw_cells_per_query(),
            rep.unit_cells()
        );
        assert_eq!(rep.rollup.rollup_plans, cfg.queries as u64);
        assert!(rep.cached.cache_hits > 0, "dashboard refreshes must hit");
        assert!(
            rep.ingest_samples > 0,
            "ingest must overlap the measurement"
        );
        // Latency ordering is timing-dependent; only sanity-check it here.
        // The >= 10x acceptance bar is asserted by `pga queries` / report_all.
        assert!(rep.qps_speedup_cached > 1.0);
    }
}
