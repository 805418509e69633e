//! The serving-layer query engine for interactive dashboards (the paper's
//! §IV visualization layer reads through this instead of raw scans).
//!
//! The paper's dashboards re-render fleet heatmaps and per-machine charts
//! continuously while ingestion runs at full rate; answering every render
//! with a raw range scan makes dashboard latency degrade with data volume.
//! This crate adds the classic serving-layer remedies on top of
//! [`pga_tsdb`]:
//!
//! * [`rollup`] — write-time tiered pre-aggregates (1 m / 10 m buckets of
//!   min/max/sum/count per series) maintained as a [`pga_tsdb::PutObserver`]
//!   on the TSD put path, stored in the same salted row space.
//! * [`plan`] — a planner that serves a `(range, downsample)` request from
//!   the cheapest tier, falling back to raw scans only for fine-grained
//!   drill-down.
//! * [`exec`] — parallel scatter-gather over the salt shards with
//!   per-shard deadlines and typed partial results (reusing the overload
//!   vocabulary of the ingest path).
//! * [`cache`] — a sharded TTL result cache, explicitly invalidated when
//!   the detection layer flags an anomaly on a cached series.
//!
//! [`QueryEngine`] ties the four together and implements
//! [`pga_tsdb::QueryExecutor`], so it drops in behind the
//! OpenTSDB-compatible `/api/query` endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exec;
pub mod plan;
pub mod rollup;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pga_cluster::rpc::{default_clock_ms, ClockMs};
use pga_minibase::Client;
use pga_tsdb::{
    Aggregator, ExecOutcome, KeyCodec, PartialInfo, QueryExecutor, QueryFilter, TimeSeries,
};
use serde::Serialize;
use std::sync::Arc;

pub use cache::{CacheConfig, CacheKey, ResultCache};
pub use exec::{ExecConfig, ExecResult};
pub use plan::Plan;
pub use rollup::{RollupCompactor, RollupWriter};

/// Engine configuration: executor knobs plus cache sizing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryEngineConfig {
    /// Planner tiers, shard deadlines, tail horizon.
    pub exec: ExecConfig,
    /// Result cache sizing and TTL.
    pub cache: CacheConfig,
}

/// Monotone engine counters, sampled into the fleet telemetry so
/// `/cluster` and `/metrics` show serving-layer health.
#[derive(Default)]
pub struct EngineStats {
    /// Queries answered (cached or executed).
    pub queries: AtomicU64,
    /// Queries executed with a raw plan.
    pub raw_plans: AtomicU64,
    /// Queries executed with a rollup plan.
    pub rollup_plans: AtomicU64,
    /// Total shard scans fanned out.
    pub fanout_total: AtomicU64,
    /// Queries that returned partial results.
    pub partials: AtomicU64,
    /// Cells the region servers returned to executed queries.
    pub cells_scanned: AtomicU64,
    /// Points in the answers of executed queries.
    pub points_served: AtomicU64,
}

/// Point-in-time copy of every counter the engine exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EngineStatsSnapshot {
    /// Queries answered (cached or executed).
    pub queries: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Cache entries removed by anomaly invalidation.
    pub cache_invalidated: u64,
    /// Raw-plan executions.
    pub raw_plans: u64,
    /// Rollup-plan executions.
    pub rollup_plans: u64,
    /// Total shard scans fanned out.
    pub fanout_total: u64,
    /// Queries that returned partial results.
    pub partials: u64,
    /// Cells the region servers returned to executed queries (every
    /// segment, raw and rollup). Over `points_served` it is the serving
    /// layer's read amplification; cache hits scan and count nothing.
    pub cells_scanned: u64,
    /// Points in the answers of executed queries.
    pub points_served: u64,
}

/// What a [`QueryEngine::query`] call produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Assembled (and downsampled, when requested) series.
    pub series: Vec<TimeSeries>,
    /// Present when some shards failed; cached results are never partial.
    pub partial: Option<PartialInfo>,
    /// The plan class that served (or would serve) the request.
    pub plan: Plan,
    /// `true` when the result came from the cache.
    pub from_cache: bool,
}

/// The serving-layer engine: planner + scatter-gather executor + result
/// cache over one storage client.
pub struct QueryEngine {
    codec: KeyCodec,
    client: Client,
    config: QueryEngineConfig,
    cache: ResultCache,
    clock: ClockMs,
    stats: EngineStats,
}

impl QueryEngine {
    /// Build an engine on the process-wide monotone clock.
    pub fn new(codec: KeyCodec, client: Client, config: QueryEngineConfig) -> Self {
        Self::with_clock(codec, client, config, Arc::new(default_clock_ms))
    }

    /// Build an engine with an injected clock (tests, fault simulation).
    pub fn with_clock(
        codec: KeyCodec,
        client: Client,
        config: QueryEngineConfig,
        clock: ClockMs,
    ) -> Self {
        let cache = ResultCache::new(config.cache, clock.clone());
        QueryEngine {
            codec,
            client,
            config,
            cache,
            clock,
            stats: EngineStats::default(),
        }
    }

    /// The planner tiers in effect.
    pub fn tiers(&self) -> &[u64] {
        &self.config.exec.tiers
    }

    /// The storage client the executor scatter-gathers through. Exposed
    /// so the platform can fold its replication lag book (follower
    /// reads, hedged scans, fence rejections) into cluster telemetry.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Answer one query, consulting the cache first. Complete results are
    /// cached; partial results are returned but never cached.
    pub fn query(
        &self,
        metric: &str,
        filter: &QueryFilter,
        start: u64,
        end: u64,
        downsample: Option<(u64, Aggregator)>,
    ) -> QueryOutcome {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let plan = plan::choose(&self.config.exec.tiers, downsample.map(|(d, _)| d));
        let key = CacheKey::new(metric, filter, start, end, downsample);
        if let Some(series) = self.cache.get(&key) {
            return QueryOutcome {
                series,
                partial: None,
                plan,
                from_cache: true,
            };
        }
        let r = exec::execute(
            &self.client,
            &self.codec,
            &self.config.exec,
            &self.clock,
            metric,
            filter,
            start,
            end,
            downsample,
        );
        match r.plan {
            Plan::Raw => self.stats.raw_plans.fetch_add(1, Ordering::Relaxed),
            Plan::Rollup { .. } => self.stats.rollup_plans.fetch_add(1, Ordering::Relaxed),
        };
        self.stats
            .fanout_total
            .fetch_add(r.fanout as u64, Ordering::Relaxed);
        self.stats
            .cells_scanned
            .fetch_add(r.cells_scanned, Ordering::Relaxed);
        self.stats
            .points_served
            .fetch_add(r.points_served(), Ordering::Relaxed);
        if r.partial.is_some() {
            self.stats.partials.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache.insert(key, r.series.clone());
        }
        QueryOutcome {
            series: r.series,
            partial: r.partial,
            plan: r.plan,
            from_cache: false,
        }
    }

    /// Drop every cached result covering `(metric, tags)` — the anomaly
    /// path calls this the moment a series is flagged, so no dashboard
    /// serves a pre-anomaly chart for it. Returns entries removed.
    pub fn invalidate_series(&self, metric: &str, tags: &BTreeMap<String, String>) -> usize {
        self.cache.invalidate(metric, tags)
    }

    /// Counter snapshot for telemetry scrapes.
    pub fn stats(&self) -> EngineStatsSnapshot {
        let c = self.cache.stats();
        EngineStatsSnapshot {
            // pga-allow(relaxed-atomics): independent counters; scrape tolerates inter-field skew
            queries: self.stats.queries.load(Ordering::Relaxed),
            cache_hits: c.hits.load(Ordering::Relaxed),
            cache_misses: c.misses.load(Ordering::Relaxed),
            cache_invalidated: c.invalidated.load(Ordering::Relaxed),
            raw_plans: self.stats.raw_plans.load(Ordering::Relaxed),
            rollup_plans: self.stats.rollup_plans.load(Ordering::Relaxed),
            fanout_total: self.stats.fanout_total.load(Ordering::Relaxed),
            partials: self.stats.partials.load(Ordering::Relaxed),
            cells_scanned: self.stats.cells_scanned.load(Ordering::Relaxed),
            points_served: self.stats.points_served.load(Ordering::Relaxed),
        }
    }
}

impl QueryExecutor for QueryEngine {
    fn execute(
        &self,
        metric: &str,
        filter: &QueryFilter,
        start: u64,
        end: u64,
        downsample: Option<(u64, Aggregator)>,
    ) -> ExecOutcome {
        let o = self.query(metric, filter, start, end, downsample);
        ExecOutcome {
            series: o.series,
            partial: o.partial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{Master, RegionConfig, ServerConfig, TableDescriptor};
    use pga_tsdb::{KeyCodecConfig, Tsd, TsdConfig, UidTable};

    fn stack(nodes: usize, salt_buckets: u8) -> (Master, Arc<Tsd>) {
        let codec = KeyCodec::new(
            KeyCodecConfig {
                salt_buckets,
                row_span_secs: 3600,
            },
            UidTable::new(),
        );
        let coord = Coordinator::new(10_000);
        let mut master = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
        master.create_table(&TableDescriptor {
            name: "tsdb".into(),
            split_points: codec.split_points(),
            region_config: RegionConfig::default(),
        });
        let client = Client::connect(&master);
        let tsd = Arc::new(Tsd::new(codec, client, TsdConfig::default()));
        (master, tsd)
    }

    fn engine_for(master: &Master, tsd: &Tsd) -> QueryEngine {
        QueryEngine::new(
            tsd.codec().clone(),
            Client::connect(master),
            QueryEngineConfig::default(),
        )
    }

    fn ingest(tsd: &Tsd, n: u64) {
        for unit in 0..2 {
            let u = unit.to_string();
            for ts in 0..n {
                tsd.put(
                    "energy",
                    &[("unit", u.as_str()), ("sensor", "0")],
                    ts,
                    (ts % 17) as f64 + unit as f64,
                )
                .unwrap();
            }
        }
    }

    /// Sealing rows into columnar blocks must be invisible to the query
    /// engine: identical answers before and after compaction, and the
    /// rollup splice path still matches raw downsampling over blocks.
    #[test]
    fn engine_answers_survive_block_sealing() {
        let (mut master, tsd) = stack(3, 4);
        master.set_compaction_rewriter(tsd.block_rewriter());
        ingest(&tsd, 7200);
        let engine = engine_for(&master, &tsd);
        let before = engine.query("energy", &QueryFilter::any(), 0, 10_000, None);
        assert!(before.partial.is_none());
        tsd.compact_now().unwrap();
        let after = engine.query("energy", &QueryFilter::any(), 0, 10_000, None);
        assert!(after.partial.is_none());
        assert_eq!(before.series, after.series);
        let pts: usize = after.series.iter().map(|s| s.points.len()).sum();
        assert_eq!(pts, 2 * 7200);
        master.shutdown();
    }

    /// Canonicalizing compaction (rollup cells folded per bucket, raw rows
    /// sealed into blocks) must leave rollup-served answers byte-for-byte
    /// identical to downsampling raw data.
    #[test]
    fn rollup_answers_survive_canonicalizing_compaction() {
        let (mut master, tsd) = stack(3, 4);
        master.set_compaction_rewriter(Arc::new(crate::rollup::RollupCompactor::new(
            tsd.codec().clone(),
            Some(tsd.block_rewriter()),
        )));
        tsd.set_observer(Arc::new(RollupWriter::new(
            tsd.codec().clone(),
            vec![60, 600],
            0,
        )));
        ingest(&tsd, 7200);
        tsd.flush_observer().unwrap();
        let engine = engine_for(&master, &tsd);
        let before = engine.query(
            "energy",
            &QueryFilter::any(),
            130,
            7100,
            Some((60, Aggregator::Sum)),
        );
        assert_eq!(before.plan, Plan::Rollup { tier: 60 });
        tsd.compact_now().unwrap();
        let after = engine.query(
            "energy",
            &QueryFilter::any(),
            130,
            7100,
            Some((60, Aggregator::Sum)),
        );
        assert_eq!(after.plan, Plan::Rollup { tier: 60 });
        assert!(after.partial.is_none());
        assert_eq!(before.series.len(), after.series.len());
        for (b, a) in before.series.iter().zip(&after.series) {
            assert_eq!(b.tags, a.tags);
            assert_eq!(b.points.len(), a.points.len());
            for (bp, ap) in b.points.iter().zip(&a.points) {
                assert_eq!(bp.timestamp, ap.timestamp);
                assert_eq!(bp.value.to_be_bytes(), ap.value.to_be_bytes());
            }
        }
        // Raw-plan answers survive too (blocks spliced transparently).
        let raw = engine.query("energy", &QueryFilter::any(), 0, 10_000, None);
        assert!(raw.partial.is_none());
        let pts: usize = raw.series.iter().map(|s| s.points.len()).sum();
        assert_eq!(pts, 2 * 7200);
        master.shutdown();
    }

    /// The tentpole correctness bar: for every aggregator, a rollup-served
    /// query is **byte-for-byte** identical to downsampling the raw data,
    /// including the raw head/tail splices.
    #[test]
    fn rollup_answers_equal_raw_downsample_exactly() {
        let (master, tsd) = stack(3, 4);
        tsd.set_observer(Arc::new(RollupWriter::new(
            tsd.codec().clone(),
            vec![60, 600],
            0,
        )));
        ingest(&tsd, 7200);
        tsd.flush_observer().unwrap();
        let engine = engine_for(&master, &tsd);
        for agg in [
            Aggregator::Avg,
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::Count,
        ] {
            // Unaligned range on purpose: head [130, 300) and the tail
            // horizon are patched from raw.
            let got = engine.query("energy", &QueryFilter::any(), 130, 7100, Some((60, agg)));
            assert_eq!(got.plan, Plan::Rollup { tier: 60 });
            assert!(got.partial.is_none());
            let raw: Vec<TimeSeries> = tsd
                .query("energy", &QueryFilter::any(), 130, 7100)
                .unwrap()
                .into_iter()
                .map(|s| s.downsample(60, agg))
                .collect();
            assert_eq!(got.series.len(), raw.len());
            for (g, r) in got.series.iter().zip(&raw) {
                assert_eq!(g.tags, r.tags);
                assert_eq!(g.points.len(), r.points.len(), "agg {agg:?}");
                for (gp, rp) in g.points.iter().zip(&r.points) {
                    assert_eq!(gp.timestamp, rp.timestamp);
                    assert_eq!(
                        gp.value.to_be_bytes(),
                        rp.value.to_be_bytes(),
                        "agg {agg:?} window {}",
                        gp.timestamp
                    );
                }
            }
        }
        master.shutdown();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3))]

        /// Sub-windows (ISSUE 19): on ranges aligned to neither the minute
        /// nor the hour — so the raw scan, the rollup-tier scan and both
        /// raw patches each read a row-hour part-way — a raw plan equals
        /// `Tsd::query` and a rollup plan equals `Tsd::query` + `downsample`,
        /// and a raw plan has the region servers return exactly the points
        /// it serves.
        #[test]
        fn plans_on_unaligned_windows_equal_tsd_query(
            windows in proptest::collection::vec((0u64..8_900, 1u64..9_000), 10),
            agg in proptest::prop_oneof![
                proptest::Just(Aggregator::Avg),
                proptest::Just(Aggregator::Sum),
                proptest::Just(Aggregator::Max),
                proptest::Just(Aggregator::Count),
            ],
        ) {
            let (master, tsd) = stack(3, 4);
            tsd.set_observer(Arc::new(RollupWriter::new(
                tsd.codec().clone(),
                vec![60, 600],
                0,
            )));
            ingest(&tsd, 9_000); // two row-hour seams
            tsd.flush_observer().unwrap();
            let engine = engine_for(&master, &tsd);
            let any = QueryFilter::any();
            // Each seam straddled closely, then the drawn windows.
            let fixed = [(3_590, 3_650), (130, 7_300), (3_601, 7_199), (59, 8_941)];
            let drawn = windows.iter().map(|&(start, len)| (start, (start + len).min(8_999)));
            for (start, end) in fixed.into_iter().chain(drawn) {
                let truth = tsd.query("energy", &any, start, end).unwrap();
                let before = engine.stats();
                let raw = engine.query("energy", &any, start, end, None);
                let after = engine.stats();
                assert_eq!(raw.plan, Plan::Raw);
                assert_eq!(raw.series, truth, "raw [{start}, {end}]");
                let served = after.points_served - before.points_served;
                assert_eq!(served, 2 * (end - start + 1));
                assert_eq!(after.cells_scanned - before.cells_scanned, served);
                let rolled = engine.query("energy", &any, start, end, Some((60, agg)));
                assert!(rolled.partial.is_none());
                let downsampled: Vec<TimeSeries> =
                    truth.iter().map(|s| s.downsample(60, agg)).collect();
                assert_eq!(rolled.series, downsampled, "{agg:?} [{start}, {end}]");
                // Long enough for a whole window outside the tail horizon:
                // the rollup tier served the middle.
                if end - start >= 300 {
                    assert_eq!(rolled.plan, Plan::Rollup { tier: 60 });
                }
            }
            // An open end (the API's default, far past any row key) reads
            // to the end of the data.
            let open = engine.query("energy", &any, 8_990, u64::MAX / 2, None);
            assert_eq!(open.series, tsd.query("energy", &any, 8_990, 8_999).unwrap());
            master.shutdown();
        }
    }

    #[test]
    fn coarse_downsample_uses_larger_tier() {
        let (master, tsd) = stack(3, 4);
        tsd.set_observer(Arc::new(RollupWriter::new(
            tsd.codec().clone(),
            vec![60, 600],
            0,
        )));
        ingest(&tsd, 7200);
        tsd.flush_observer().unwrap();
        let engine = engine_for(&master, &tsd);
        let got = engine.query(
            "energy",
            &QueryFilter::any(),
            0,
            7199,
            Some((600, Aggregator::Max)),
        );
        assert_eq!(got.plan, Plan::Rollup { tier: 600 });
        let raw: Vec<TimeSeries> = tsd
            .query("energy", &QueryFilter::any(), 0, 7199)
            .unwrap()
            .into_iter()
            .map(|s| s.downsample(600, Aggregator::Max))
            .collect();
        assert_eq!(got.series, raw);
        master.shutdown();
    }

    #[test]
    fn fine_drilldown_and_point_queries_run_raw() {
        let (master, tsd) = stack(2, 2);
        tsd.set_observer(Arc::new(RollupWriter::new(
            tsd.codec().clone(),
            vec![60],
            0,
        )));
        ingest(&tsd, 600);
        tsd.flush_observer().unwrap();
        let engine = engine_for(&master, &tsd);
        let filter = QueryFilter::any().with("unit", "1");
        let point = engine.query("energy", &filter, 0, 599, None);
        assert_eq!(point.plan, Plan::Raw);
        assert_eq!(point.series, tsd.query("energy", &filter, 0, 599).unwrap());
        let fine = engine.query("energy", &filter, 0, 599, Some((30, Aggregator::Avg)));
        assert_eq!(fine.plan, Plan::Raw);
        assert_eq!(engine.stats().raw_plans, 2);
        master.shutdown();
    }

    #[test]
    fn cache_hits_skip_execution_and_anomaly_invalidates() {
        let (master, tsd) = stack(2, 2);
        tsd.set_observer(Arc::new(RollupWriter::new(
            tsd.codec().clone(),
            vec![60],
            0,
        )));
        ingest(&tsd, 3600);
        tsd.flush_observer().unwrap();
        let engine = engine_for(&master, &tsd);
        let q = |e: &QueryEngine| {
            e.query(
                "energy",
                &QueryFilter::any().with("unit", "1"),
                0,
                3599,
                Some((60, Aggregator::Avg)),
            )
        };
        let first = q(&engine);
        assert!(!first.from_cache);
        let second = q(&engine);
        assert!(second.from_cache);
        assert_eq!(first.series, second.series);
        let s = engine.stats();
        assert_eq!((s.cache_hits, s.queries), (1, 2));
        // Anomaly on unit 1: its cached views drop, next query recomputes.
        let flagged: BTreeMap<String, String> = [
            ("unit".to_string(), "1".to_string()),
            ("sensor".to_string(), "0".to_string()),
        ]
        .into();
        assert!(engine.invalidate_series("energy", &flagged) >= 1);
        assert!(!q(&engine).from_cache, "invalidated entry must recompute");
        // A different unit's flag leaves unrelated entries alone.
        let other: BTreeMap<String, String> = [("unit".to_string(), "0".to_string())].into();
        engine.invalidate_series("energy", &other);
        assert!(q(&engine).from_cache);
        master.shutdown();
    }

    /// Multi-writer: the same series streamed through two TSDs (round-robin
    /// proxy style). Disjoint batches merge exactly; a duplicated batch
    /// taints its window and the engine recomputes it from raw instead of
    /// double-counting.
    #[test]
    fn multi_writer_merge_and_taint_recovery() {
        let (master, tsd_a) = stack(3, 4);
        let tsd_b = Arc::new(Tsd::new(
            tsd_a.codec().clone(),
            Client::connect(&master),
            TsdConfig::default(),
        ));
        tsd_a.set_observer(Arc::new(RollupWriter::new(
            tsd_a.codec().clone(),
            vec![60],
            0,
        )));
        tsd_b.set_observer(Arc::new(RollupWriter::new(
            tsd_b.codec().clone(),
            vec![60],
            1,
        )));
        let tags = [("unit", "1"), ("sensor", "2")];
        // Round-robin seconds across the two writers.
        for ts in 0..600u64 {
            let t = if ts % 2 == 0 { &tsd_a } else { &tsd_b };
            t.put("energy", &tags, ts, ts as f64).unwrap();
        }
        // Duplicate delivery: writer B re-ingests seconds 120..180 that
        // writer A already counted (retried batch landing twice).
        for ts in 120..180u64 {
            if ts % 2 == 0 {
                tsd_b.put("energy", &tags, ts, ts as f64).unwrap();
            }
        }
        tsd_a.flush_observer().unwrap();
        tsd_b.flush_observer().unwrap();
        let engine = engine_for(&master, &tsd_a);
        let got = engine.query(
            "energy",
            &QueryFilter::any(),
            0,
            599,
            Some((60, Aggregator::Sum)),
        );
        assert_eq!(got.plan, Plan::Rollup { tier: 60 });
        assert!(got.partial.is_none());
        // Raw truth: each second counted once (dedup by timestamp).
        let raw: Vec<TimeSeries> = tsd_a
            .query("energy", &QueryFilter::any(), 0, 599)
            .unwrap()
            .into_iter()
            .map(|s| s.downsample(60, Aggregator::Sum))
            .collect();
        assert_eq!(got.series, raw, "tainted windows must match raw exactly");
        master.shutdown();
    }

    /// A query for a metric nobody wrote has no segment to scan: it sends
    /// no RPC, raw or rollup, and still counts one fan-out unit per salt.
    #[test]
    fn a_never_written_metric_sends_no_rpc() {
        let (master, tsd) = stack(3, 4);
        tsd.set_observer(Arc::new(RollupWriter::new(
            tsd.codec().clone(),
            vec![60],
            0,
        )));
        ingest(&tsd, 600);
        tsd.flush_observer().unwrap();
        let engine = engine_for(&master, &tsd);
        let served = || -> u64 {
            master
                .nodes()
                .into_iter()
                .map(|n| master.server(n).unwrap().handle().processed())
                .sum()
        };
        let before = served();
        let raw = engine.query("never.written", &QueryFilter::any(), 0, 599, None);
        let ds = Some((60, Aggregator::Avg));
        let rolled = engine.query("never.written", &QueryFilter::any(), 0, 599, ds);
        assert_eq!(served(), before, "no request reached a server");
        for out in [&raw, &rolled] {
            assert!(out.series.is_empty() && out.partial.is_none());
        }
        let s = engine.stats();
        assert_eq!((s.fanout_total, s.cells_scanned), (8, 0));
        // The written metric, for contrast, is served by the servers.
        assert_eq!(
            engine
                .query("energy", &QueryFilter::any(), 0, 599, ds)
                .series
                .len(),
            2
        );
        assert!(served() > before);
        master.shutdown();
    }

    #[test]
    fn executor_trait_surfaces_partials_to_api() {
        let (master, tsd) = stack(2, 2);
        ingest(&tsd, 60);
        let engine = engine_for(&master, &tsd);
        let out = QueryExecutor::execute(&engine, "energy", &QueryFilter::any(), 0, 59, None);
        assert!(out.partial.is_none());
        assert_eq!(out.series.len(), 2);
        master.shutdown();
    }
}
