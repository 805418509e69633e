//! The layer ladder: the same generated inputs fed to each layer's public
//! entry point in isolation, one rung per layer.
//!
//! Rungs run one after another, each on a fresh copy of whatever it
//! mutates, and each is a span whose parent is the rung that *contains*
//! its call in the product. A self time is taken only between two rungs
//! on the same kind of stack with the same number of lanes — or, where the
//! product counts it, inside one pass (`RpcHandle::busy_ns`) — see
//! `catalog::DIFFERENCES` and `catalog::NESTED`. Batches stay below a
//! region's first flush so every write rung does the same work; flush and
//! compaction are timed on their own. Nothing inside the product is
//! instrumented.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use pga_cluster::coordinator::Coordinator;
use pga_dataflow::Dataflow;
use pga_detect::{train_unit, BatchEvaluator, ColumnWindow, FleetTrainer, OnlineEvaluator};
use pga_ingest::{IngestionPipeline, ProxyConfig, ReverseProxy};
use pga_linalg::{covariance_matrix, svd, Matrix};
use pga_minibase::{
    Client, KeyValue, Master, MemStore, Region, RegionConfig, RegionId, Request, Response,
    RowRange, ServerConfig, TableDescriptor, WriteAheadLog,
};
use pga_platform::{Monitor, PlatformConfig};
use pga_query::RollupWriter;
use pga_sensorgen::{Fleet, SensorSample};
use pga_stats::benjamini_hochberg;
use pga_tsdb::{
    decode_block, encode_block, handle_query_with, Aggregator, BatchPoint, KeyCodec,
    KeyCodecConfig, QueryFilter, Tsd, TsdConfig, UidTable,
};
use pga_viz::{anomaly_heatmap, cluster_page, fleet_overview_page, machine_page, HeatmapData};

use crate::catalog::LayerMetrics;
use crate::trace::{Parent, Tracer};
use crate::workloads::dashboard_read::{self, query_body};
use crate::workloads::host_config;

/// The inputs a workload's ladder is fed.
pub struct Shape {
    /// The workload's own configuration (fleet, seed, windows): the
    /// compute rungs use it whole.
    pub config: PlatformConfig,
    /// The storage rungs' configuration: the same fleet cut to its first
    /// few units, so that `ticks` ticks stay below a region's first flush
    /// and still cover a training window.
    pub storage: PlatformConfig,
    /// Ticks of the storage fleet every storage rung ingests.
    pub ticks: u64,
    smoke: bool,
}

impl Shape {
    pub fn new(config: PlatformConfig, smoke: bool) -> Self {
        // A region flushes at 8 MiB ≈ 97 500 cells; the standalone region
        // rung takes every sample, so stay under that.
        let (samples, sensors_per_tick) = if smoke { (24_000, 32) } else { (90_000, 400) };
        let sensors = config.fleet.sensors_per_unit;
        let units = (sensors_per_tick / sensors).clamp(1, config.fleet.units);
        let mut storage = host_config(units, sensors, config.fleet.seed);
        storage.training_window = config.training_window;
        storage.eval_window = config.eval_window;
        let ticks = samples / u64::from(units * sensors);
        Shape {
            config,
            storage,
            ticks,
            smoke,
        }
    }

    /// Repetitions of a cheap rung: enough for a median.
    fn reps(&self, full: usize) -> usize {
        if self.smoke {
            3
        } else {
            full
        }
    }
}

/// Batch size of the ingest path (`PlatformConfig::batch_size`).
const BATCH: usize = 256;

/// Time one rung: a span plus its duration in nanoseconds.
fn rung<R>(
    tr: &mut Tracer,
    name: &'static str,
    parent: Parent,
    call: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = Instant::now();
    let out = tr.leaf(name, 0, parent, call);
    (out, t0.elapsed().as_nanos() as f64)
}

fn codec() -> KeyCodec {
    KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: 2,
            row_span_secs: 3600,
        },
        UidTable::new(),
    )
}

/// The stack `IngestionPipeline::new` assembles: two region servers, a
/// pre-split table with one salt bucket per server.
fn pipeline(tsds: usize) -> IngestionPipeline {
    IngestionPipeline::new(2, tsds, BATCH)
}

/// Tag strings per sample, formatted the way the proxy formats them.
struct Tagged<'a> {
    samples: &'a [SensorSample],
    units: Vec<String>,
    sensors: Vec<String>,
}

impl<'a> Tagged<'a> {
    fn new(samples: &'a [SensorSample]) -> Self {
        Tagged {
            samples,
            units: samples.iter().map(|s| s.unit.to_string()).collect(),
            sensors: samples.iter().map(|s| s.sensor.to_string()).collect(),
        }
    }

    fn tags(&self) -> Vec<[(&str, &str); 2]> {
        self.units
            .iter()
            .zip(&self.sensors)
            .map(|(u, s)| [("unit", u.as_str()), ("sensor", s.as_str())])
            .collect()
    }

    /// The samples as `Tsd::put_batch` takes them.
    fn with_points<R>(&self, then: impl FnOnce(&[BatchPoint]) -> R) -> R {
        let tags = self.tags();
        let points: Vec<BatchPoint> = self
            .samples
            .iter()
            .zip(&tags)
            .map(|(s, tags)| (&tags[..], s.timestamp, s.value))
            .collect();
        then(&points)
    }
}

/// `Tsd::put_batch` of every sample in proxy-sized batches; returns the
/// nanoseconds spent inside the puts. Each batch's tag strings are
/// formatted right before its put, untimed, as the proxy's worker formats
/// them, so that the puts read them as warm here as they do there.
fn put_all(tsd: &Tsd, samples: &[SensorSample]) -> Result<f64, pga_tsdb::TsdError> {
    let mut ns = 0.0;
    for batch in samples.chunks(BATCH) {
        ns += Tagged::new(batch).with_points(|points| {
            let t0 = Instant::now();
            tsd.put_batch("energy", points)
                .map(|()| t0.elapsed().as_nanos() as f64)
        })?;
    }
    Ok(ns)
}

fn rollup_observer(tsd: &Tsd, config: &PlatformConfig, writer_id: u8) -> Arc<RollupWriter> {
    Arc::new(RollupWriter::new(
        tsd.codec().clone(),
        config.query.tiers.clone(),
        writer_id,
    ))
}

/// What the write rungs leave behind for the read rungs: a two-server
/// stack one TSD wrote every sample into, rollups included.
struct Written {
    stack: IngestionPipeline,
    cells: usize,
}

/// Handler time of every region server of `stack` so far, in nanoseconds.
fn servers_busy_ns(stack: &IngestionPipeline) -> f64 {
    let master = stack.master();
    master
        .nodes()
        .into_iter()
        .filter_map(|node| master.server(node))
        .map(|server| server.handle().busy_ns())
        .sum::<u64>() as f64
}

fn write_rungs(shape: &Shape, tr: &mut Tracer, layers: &mut LayerMetrics) -> Written {
    let fleet = Fleet::new(shape.storage.fleet.clone());
    let mut set = |name, value| layers.set(name, value);

    // pga-sensorgen
    let mut samples = Vec::new();
    let (_, ns) = rung(
        tr,
        "ladder.sensorgen.tick",
        Parent::Rung("ladder.platform.ingest_range"),
        || {
            for t in 0..shape.ticks {
                fleet.tick_into(t, &mut samples);
            }
        },
    );
    let n = samples.len() as f64;
    set("sensorgen.tick_ns_per_sample", ns / n);
    let tagged = Tagged::new(&samples);

    // pga-tsdb: key, qualifier and value of every sample.
    let codec = codec();
    let tags = tagged.tags();
    let (kvs, encode_ns) = rung(
        tr,
        "ladder.tsdb.encode",
        Parent::Rung("ladder.tsdb.put_batch"),
        || {
            samples
                .iter()
                .zip(&tags)
                .map(|(s, tags)| {
                    KeyValue::new(
                        codec.row_key("energy", tags, s.timestamp),
                        codec.qualifier(s.timestamp),
                        s.timestamp * 1000,
                        codec.value(s.value),
                    )
                })
                .collect::<Vec<KeyValue>>()
        },
    );
    set("tsdb.encode_ns_per_sample", encode_ns / n);
    let batches = || -> Vec<Vec<KeyValue>> { kvs.chunks(BATCH).map(<[_]>::to_vec).collect() };

    // pga-minibase: WAL and memstore alone, then a whole region. Each stays
    // alive until all three have run: a region built in the pages a dropped
    // memstore had just given back came out faster than the memstore alone.
    let wal = WriteAheadLog::new();
    let (_, ns) = rung(
        tr,
        "ladder.minibase.wal_append",
        Parent::Rung("ladder.minibase.region_put"),
        || {
            for batch in kvs.chunks(BATCH) {
                wal.append_batch(batch);
            }
        },
    );
    set("minibase.wal_append_ns_per_sample", ns / n);

    let mut memstore = MemStore::new();
    let owned = kvs.clone();
    let (_, ns) = rung(
        tr,
        "ladder.minibase.memstore_put",
        Parent::Rung("ladder.minibase.region_put"),
        || {
            for kv in owned {
                memstore.put(kv);
            }
        },
    );
    set("minibase.memstore_put_ns_per_sample", ns / n);
    set(
        "minibase.heap_bytes_per_cell",
        memstore.heap_size() as f64 / memstore.len() as f64,
    );

    let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
    let owned = batches();
    let (_, ns) = rung(
        tr,
        "ladder.minibase.region_put",
        Parent::Rung("ladder.minibase.client_put"),
        || {
            for batch in owned {
                region
                    .put_batch(batch)
                    .expect("probe region takes every row");
            }
        },
    );
    set("minibase.region_put_ns_per_sample", ns / n);
    drop((wal, memstore, region));

    // Flush and major compaction, driven by hand on a region whose own
    // triggers are off: eight files of an eighth of the samples each.
    let manual = RegionConfig {
        memstore_flush_bytes: usize::MAX,
        compaction_file_threshold: usize::MAX,
        ..RegionConfig::default()
    };
    let per_file = kvs.len().div_ceil(8);
    for _ in 0..shape.reps(3) {
        let mut r = Region::new(RegionId(2), RowRange::all(), manual);
        for file in kvs.chunks(per_file) {
            r.put_batch(file.to_vec())
                .expect("probe region takes every row");
            rung(
                tr,
                "ladder.minibase.flush",
                Parent::Rung("ladder.minibase.region_put"),
                || r.flush(),
            );
        }
        rung(
            tr,
            "ladder.minibase.compact",
            Parent::Rung("ladder.minibase.region_put"),
            || r.compact(),
        );
    }
    set(
        "minibase.flush_ms_p50",
        tr.p50_ns("ladder.minibase.flush") / 1e6,
    );
    set(
        "minibase.compact_ms_p50",
        tr.p50_ns("ladder.minibase.compact") / 1e6,
    );

    // Write amplification under the region's own policy: the product's
    // thresholds scaled so these samples fill ten memstores, which takes
    // the region through its first size-triggered compaction.
    let scaled = RegionConfig {
        memstore_flush_bytes: kvs.iter().map(KeyValue::heap_size).sum::<usize>() / 10,
        ..RegionConfig::default()
    };
    let mut r = Region::new(RegionId(3), RowRange::all(), scaled);
    for batch in batches() {
        r.put_batch(batch).expect("probe region takes every row");
    }
    let m = r.metrics();
    set(
        "minibase.write_amplification",
        (m.cells_written + m.compacted_cells) as f64 / m.cells_written as f64,
    );
    drop(r);

    // pga-cluster: the same batches through client, RPC and region server.
    // The servers count their own handler time, so what client and RPC
    // add is taken inside the one pass.
    let stack = pipeline(1);
    let client = Client::connect(stack.master());
    let owned = batches();
    let busy_before = servers_busy_ns(&stack);
    let (_, client_ns) = rung(
        tr,
        "ladder.minibase.client_put",
        Parent::Rung("ladder.tsdb.put_batch"),
        || {
            for batch in owned {
                client.put(batch).expect("probe client put");
            }
        },
    );
    set("minibase.client_put_ns_per_sample", client_ns / n);
    set(
        "cluster.rpc_self_ns_per_sample",
        (client_ns - (servers_busy_ns(&stack) - busy_before)) / n,
    );
    let server = stack
        .master()
        .server(stack.master().nodes()[0])
        .expect("bootstrapped server");
    for _ in 0..shape.reps(200) {
        rung(
            tr,
            "ladder.cluster.rpc_roundtrip",
            Parent::Rung("ladder.minibase.client_put"),
            || server.handle().call(Request::Metrics).expect("metrics rpc"),
        );
    }
    set(
        "cluster.rpc_roundtrip_us_p50",
        tr.p50_ns("ladder.cluster.rpc_roundtrip") / 1e3,
    );
    stack.shutdown();
    drop((client, stack));

    // pga-tsdb: one TSD, without and with the rollup observer.
    let stack = pipeline(1);
    let (put_ns, _) = rung(
        tr,
        "ladder.tsdb.put_batch",
        Parent::Rung("ladder.tsdb.put_batch_observed"),
        || put_all(stack.tsd(), &samples).expect("probe put_batch"),
    );
    set("tsdb.put_batch_ns_per_sample", put_ns / n);
    set(
        "tsdb.rpcs_per_point",
        stack.tsd().metrics().rpcs_per_point(),
    );
    stack.shutdown();
    drop(stack);

    let stack = pipeline(1);
    stack
        .tsd()
        .set_observer(rollup_observer(stack.tsd(), &shape.storage, 0));
    let (observed_ns, _) = rung(
        tr,
        "ladder.tsdb.put_batch_observed",
        Parent::Rung("ladder.ingest.proxy_one_lane"),
        || put_all(stack.tsd(), &samples).expect("probe put_batch"),
    );
    stack.flush_observers().expect("probe rollup flush");
    set("tsdb.put_batch_observed_ns_per_sample", observed_ns / n);

    // pga-ingest, one lane: one worker over one observed TSD does what the
    // rung beneath did plus the proxy's own work, one batch after another.
    let owned = || -> Vec<Vec<SensorSample>> { samples.chunks(BATCH).map(<[_]>::to_vec).collect() };
    let one_lane = pipeline(1);
    one_lane
        .tsd()
        .set_observer(rollup_observer(one_lane.tsd(), &shape.storage, 0));
    let batches_in = owned();
    let (_, ns) = rung(tr, "ladder.ingest.proxy_one_lane", Parent::None, || {
        let config = ProxyConfig {
            workers: 1,
            ..ProxyConfig::default()
        };
        let proxy = ReverseProxy::spawn(one_lane.tsds().to_vec(), config).expect("probe proxy");
        for batch in batches_in {
            proxy.submit(batch).expect("probe proxy stays up");
        }
        proxy.drain_and_join()
    });
    set("ingest.proxy_one_lane_ns_per_sample", ns / n);
    one_lane.shutdown();
    drop(one_lane);

    // pga-ingest as the monitor runs it: two workers over two observed
    // TSDs. The lanes overlap, so this rung is below the one-lane one.
    let proxied = pipeline(2);
    for (i, tsd) in proxied.tsds().iter().enumerate() {
        tsd.set_observer(rollup_observer(tsd, &shape.storage, i as u8));
    }
    let busy_before = servers_busy_ns(&proxied);
    let batches_in = owned();
    let mut blocked_ns = 0.0;
    let (metrics, proxy_ns) = rung(
        tr,
        "ladder.ingest.proxy",
        Parent::Rung("ladder.platform.ingest_range"),
        || {
            let proxy = ReverseProxy::spawn(proxied.tsds().to_vec(), ProxyConfig::default())
                .expect("probe proxy");
            for batch in batches_in {
                let t0 = Instant::now();
                proxy.submit(batch).expect("probe proxy stays up");
                blocked_ns += t0.elapsed().as_nanos() as f64;
            }
            proxy.drain_and_join()
        },
    );
    let busy = servers_busy_ns(&proxied) - busy_before;
    set("ingest.proxy_ns_per_sample", proxy_ns / n);
    set("ingest.submit_blocked_share", blocked_ns / proxy_ns);
    set("ingest.retries", metrics.retries.load(Relaxed) as f64);
    set("ingest.errors", metrics.errors.load(Relaxed) as f64);
    set(
        "cluster.server_busy_share",
        busy / (proxy_ns * proxied.master().nodes().len() as f64),
    );
    proxied.shutdown();
    drop(proxied);

    Written {
        stack,
        cells: samples.len(),
    }
}

fn read_rungs(shape: &Shape, w: Written, tr: &mut Tracer, layers: &mut LayerMetrics) {
    let mut set = |name, value| layers.set(name, value);

    // One query per unit, each of which scans every unit's rows, and after
    // each the same row ranges scanned through the same client, so the
    // two rungs and the servers' own share of the scan see the same store
    // in the same state.
    let tsd = w.stack.tsd();
    let codec = tsd.codec();
    let ranges: Vec<RowRange> = codec
        .salt_range()
        .map(|salt| {
            let (start, end) = codec.scan_range(salt, "energy", 0, shape.ticks);
            RowRange::new(start, end)
        })
        .collect();
    let units = shape.storage.fleet.units;
    let (mut points, mut scanned) = (0usize, 0usize);
    let (mut query_ns, mut scan_ns, mut busy_ns) = (0.0, 0.0, 0.0);
    for unit in 0..units {
        let filter = QueryFilter::any().with("unit", &unit.to_string());
        let (series, ns) = rung(
            tr,
            "ladder.tsdb.query_columns",
            Parent::Rung("ladder.query.engine_raw_cold"),
            || {
                tsd.query_columns("energy", &filter, 0, shape.ticks)
                    .expect("probe query")
            },
        );
        points += series.iter().map(|s| s.len()).sum::<usize>();
        query_ns += ns;
        drop(series);

        let busy_before = servers_busy_ns(&w.stack);
        let (cells, ns) = rung(
            tr,
            "ladder.minibase.client_scan",
            Parent::Rung("ladder.tsdb.query_columns"),
            || {
                ranges
                    .iter()
                    .map(|range| tsd.client().scan(range).expect("probe range scan").len())
                    .sum::<usize>()
            },
        );
        scanned += cells;
        scan_ns += ns;
        busy_ns += servers_busy_ns(&w.stack) - busy_before;
    }
    assert_eq!(points, w.cells, "probe queries lost points");
    // Cells in the row ranges the codec hands a query to scan (the unit
    // filter only applies after decoding), times the queries made.
    let scanned = scanned as f64;
    set("minibase.region_scan_ns_per_cell", busy_ns / scanned);
    set("minibase.client_scan_ns_per_cell", scan_ns / scanned);
    set("tsdb.query_columns_ns_per_cell", query_ns / scanned);
    set("tsdb.read_amplification", scanned / points as f64);
    w.stack.shutdown();
}

/// Sealed columnar blocks. `Monitor` never installs the block rewriter, so
/// no end-to-end workload reads a sealed block; these rungs size what
/// wiring it would gain.
fn block_rungs(shape: &Shape, tr: &mut Tracer, layers: &mut LayerMetrics) -> Result<(), String> {
    let mut set = |name, value| layers.set(name, value);
    let fleet = Fleet::new(shape.storage.fleet.clone());
    let codec = codec();
    let mut master = Master::bootstrap(2, ServerConfig::default(), Coordinator::new(60_000), 0);
    master.create_table(&TableDescriptor {
        name: "tsdb".into(),
        split_points: codec.split_points(),
        region_config: RegionConfig::default(),
    });
    let tsd = Tsd::new(codec, Client::connect(&master), TsdConfig::default());
    master.set_compaction_rewriter(tsd.block_rewriter());

    let mut samples = Vec::new();
    for t in 0..shape.ticks {
        fleet.tick_into(t, &mut samples);
    }
    // A row seals once every writer is past its hour: one late point
    // moves the seal watermark there.
    samples.push(SensorSample {
        unit: 0,
        sensor: 0,
        timestamp: 3600,
        value: 0.0,
    });
    put_all(&tsd, &samples).map_err(|e| e.to_string())?;
    tsd.compact_now().map_err(|e| e.to_string())?;
    let sealed_rows: u64 = master
        .nodes()
        .into_iter()
        .filter_map(|node| master.server(node))
        .filter_map(|s| match s.handle().call(Request::Metrics) {
            Ok(Response::Metrics(regions)) => {
                Some(regions.iter().map(|(_, m)| m.rewritten_rows).sum::<u64>())
            }
            _ => None,
        })
        .sum();
    if sealed_rows == 0 {
        return Err("block rung: compaction sealed no row".into());
    }

    let (series, ns) = rung(tr, "ladder.tsdb.sealed_query_columns", Parent::None, || {
        tsd.query_columns("energy", &QueryFilter::any(), 0, shape.ticks - 1)
    });
    let series = series.map_err(|e| e.to_string())?;
    let returned: usize = series.iter().map(|s| s.len()).sum();
    if returned != samples.len() - 1 {
        return Err(format!(
            "block rung: sealed store returned {returned} of {} points",
            samples.len() - 1
        ));
    }
    set(
        "tsdb.sealed_query_columns_ns_per_point",
        ns / returned as f64,
    );

    // The codec alone, on every series' columns.
    let (blocks, ns) = rung(
        tr,
        "ladder.tsdb.block_encode",
        Parent::Rung("ladder.tsdb.sealed_query_columns"),
        || {
            series
                .iter()
                .map(|s| encode_block(&s.timestamps, &s.values))
                .collect::<Result<Vec<_>, _>>()
        },
    );
    let blocks = blocks.map_err(|e| e.to_string())?;
    set("tsdb.block_encode_ns_per_point", ns / returned as f64);
    set(
        "tsdb.block_bytes_per_point",
        blocks.iter().map(Vec::len).sum::<usize>() as f64 / returned as f64,
    );
    let (decoded, ns) = rung(
        tr,
        "ladder.tsdb.block_decode",
        Parent::Rung("ladder.tsdb.sealed_query_columns"),
        || {
            blocks
                .iter()
                .map(|b| decode_block(b).map(|d| d.values.len()))
                .sum::<Result<usize, _>>()
        },
    );
    if decoded.map_err(|e| e.to_string())? != returned {
        return Err("block rung: decode lost points".into());
    }
    set("tsdb.block_decode_ns_per_point", ns / returned as f64);
    master.shutdown();
    Ok(())
}

/// A probe `Monitor` on the storage fleet: the platform's own calls, the
/// query engine beneath them and the renderers above.
fn platform_rungs(shape: &Shape, tr: &mut Tracer, layers: &mut LayerMetrics) -> Result<(), String> {
    let err = |e: pga_platform::MonitorError| e.to_string();
    let config = &shape.storage;
    let units = config.fleet.units;
    let samples = (config.fleet.total_sensors() * shape.ticks) as f64;
    let mut m = Monitor::new(config.clone()).map_err(err)?;
    let (_, ns) = rung(tr, "ladder.platform.ingest_range", Parent::None, || {
        m.ingest_range(0, shape.ticks)
    });
    layers.set("platform.ingest_range_ns_per_sample", ns / samples);
    m.train(config.training_window as u64 - 1).map_err(err)?;
    let engine = m.engine().clone();
    let window = config.eval_window;
    let last = shape.ticks - 1;

    // pga-query under pga-platform: every iteration reads fresh keys, so
    // "cold" calls miss the cache and the repeats right after them hit.
    // Window ends step by four, and each kind of read below owns one
    // residue, so no two of them ever ask for the same range.
    let mut fill_ns = Vec::new();
    for i in 0..shape.reps(9) as u64 {
        let unit = (i % u64::from(units)) as u32;
        let t_end = last - 4 * i;
        let start = t_end + 1 - window as u64;
        let filter = QueryFilter::any().with("unit", &unit.to_string());
        rung(
            tr,
            "ladder.platform.window_from_store",
            Parent::Rung("ladder.platform.evaluate_at"),
            || m.window_from_store(unit, t_end, window),
        )
        .0
        .map_err(err)?;
        // An untimed hit first: it leaves the allocator holding a buffer
        // of the answer's size, as each of the two timed reads then finds.
        drop(engine.query("energy", &filter, start, t_end, None));
        let (hit, hit_ns) = rung(
            tr,
            "ladder.query.engine_hit",
            Parent::Rung("ladder.platform.window_from_store"),
            || engine.query("energy", &filter, start, t_end, None),
        );
        if !hit.from_cache {
            return Err("ladder: repeat of a window read missed the cache".into());
        }
        let (filled, warm_ns) = rung(
            tr,
            "ladder.platform.window_from_store_warm",
            Parent::None,
            || m.window_from_store(unit, t_end, window),
        );
        filled.map_err(err)?;
        // The same cached answer with and without the platform filling a
        // matrix from it, back to back.
        fill_ns.push(warm_ns - hit_ns);
        rung(
            tr,
            "ladder.query.engine_raw_cold",
            Parent::Rung("ladder.platform.window_from_store"),
            || engine.query("energy", &filter, start - 1, t_end - 1, None),
        );
        rung(tr, "ladder.query.engine_rollup_cold", Parent::None, || {
            engine.query("energy", &filter, 0, t_end, Some((60, Aggregator::Avg)))
        });
        rung(
            tr,
            "ladder.query.scatter_overhead",
            Parent::Rung("ladder.query.engine_raw_cold"),
            || engine.query("bench.never_written", &QueryFilter::any(), 0, t_end, None),
        );
    }
    let mut set = |name, value| layers.set(name, value);
    set(
        "platform.window_from_store_ms_p50",
        tr.p50_ns("ladder.platform.window_from_store") / 1e6,
    );
    set(
        "platform.window_fill_self_ms_p50",
        crate::stats::median(&fill_ns) / 1e6,
    );
    set(
        "query.engine_hit_us_p50",
        tr.p50_ns("ladder.query.engine_hit") / 1e3,
    );
    set(
        "query.engine_raw_cold_ms_p50",
        tr.p50_ns("ladder.query.engine_raw_cold") / 1e6,
    );
    set(
        "query.engine_rollup_cold_ms_p50",
        tr.p50_ns("ladder.query.engine_rollup_cold") / 1e6,
    );
    set(
        "query.scatter_overhead_us_p50",
        tr.p50_ns("ladder.query.scatter_overhead") / 1e3,
    );
    let tiers = engine.tiers().to_vec();
    for _ in 0..shape.reps(64) {
        rung(
            tr,
            "ladder.query.plan_x1000",
            Parent::Rung("ladder.query.engine_raw_cold"),
            || {
                for d in 0..1000u64 {
                    std::hint::black_box(pga_query::plan::choose(
                        std::hint::black_box(&tiers),
                        Some(60 + d % 7),
                    ));
                }
            },
        );
    }
    set(
        "query.plan_ns_p50",
        tr.p50_ns("ladder.query.plan_x1000") / 1e3,
    );

    // pga-platform: a whole evaluation, and the write-back of one flag as
    // `evaluate_at` performs it (anomaly put + two cache invalidations).
    for i in 0..shape.reps(5) as u64 {
        rung(tr, "ladder.platform.evaluate_at", Parent::None, || {
            m.evaluate_at(last - 2 - 4 * i)
        })
        .0
        .map_err(err)?;
    }
    set(
        "platform.evaluate_at_ms_p50",
        tr.p50_ns("ladder.platform.evaluate_at") / 1e6,
    );
    let flags = shape.reps(64) as u32;
    let (written, ns) = rung(
        tr,
        "ladder.platform.writeback",
        Parent::Rung("ladder.platform.evaluate_at"),
        || {
            (0..flags).try_for_each(|i| {
                let (unit, sensor) = ((i % units).to_string(), (i / units).to_string());
                m.tsd().put(
                    "anomaly",
                    &[("unit", unit.as_str()), ("sensor", sensor.as_str())],
                    last,
                    3.0,
                )?;
                let series: BTreeMap<String, String> =
                    [("unit".to_string(), unit), ("sensor".to_string(), sensor)].into();
                engine.invalidate_series("energy", &series);
                engine.invalidate_series("anomaly", &series);
                Ok::<(), pga_tsdb::TsdError>(())
            })
        },
    );
    written.map_err(|e| e.to_string())?;
    set(
        "platform.writeback_us_per_flag",
        ns / 1e3 / f64::from(flags),
    );

    // The dashboard's request kinds, each at its own `now`.
    let rows = (shape.ticks / 2).min(300) as usize;
    for i in 0..shape.reps(5) as u64 {
        let unit = (i % u64::from(units)) as u32;
        let now = last - 3 - 4 * i;
        for name in [
            "ladder.platform.machine_page_cold",
            "ladder.platform.machine_page_warm",
        ] {
            rung(tr, name, Parent::None, || {
                m.machine_page_html(unit, now, rows, 24)
            })
            .0
            .map_err(err)?;
        }
        rung(tr, "ladder.platform.heatmap", Parent::None, || {
            m.heatmap_html(0, now, 300)
        });
        let rollup = query_body(0, now, unit, None, true);
        let raw = query_body(now - rows as u64 / 2, now, unit, None, false);
        for (name, body) in [
            ("ladder.platform.api_rollup_cold", &rollup),
            ("ladder.platform.api_rollup_warm", &rollup),
            ("ladder.platform.api_raw", &raw),
        ] {
            rung(tr, name, Parent::None, || {
                handle_query_with(engine.as_ref(), body)
            })
            .0
            .map_err(|e| e.to_string())?;
        }
    }
    for (metric, _, rung) in dashboard_read::KINDS {
        set(metric, tr.p50_ns(rung) / 1e6);
    }

    // pga-viz: rendering alone, on data fetched beforehand; and the JSON
    // side of /api/query as the difference between a cached answer served
    // through the handler and the same cached answer from the engine.
    let page = m.machine_page_data(0, last, rows, 24).map_err(err)?;
    let anomalies = engine.query("anomaly", &QueryFilter::any(), 0, last, None);
    let events: Vec<(u32, u64)> = anomalies
        .series
        .iter()
        .filter_map(|s| {
            let unit: u32 = s.tags.get("unit")?.parse().ok()?;
            Some(s.points.iter().map(move |p| (unit, p.timestamp)))
        })
        .flatten()
        .collect();
    let overview = m.fleet_overview_data(0.0);
    let cluster = m.cluster_view_data();
    let mut page_bytes = 0;
    for _ in 0..shape.reps(20) {
        page_bytes = rung(
            tr,
            "ladder.viz.machine_page_render",
            Parent::Rung("ladder.platform.machine_page_warm"),
            || machine_page(&page),
        )
        .0
        .len();
        rung(
            tr,
            "ladder.viz.heatmap_render",
            Parent::Rung("ladder.platform.heatmap"),
            || {
                let data = HeatmapData::from_events(&events, (0..units).collect(), 0, last, 300);
                anomaly_heatmap(&data, 14)
            },
        );
        rung(tr, "ladder.viz.fleet_overview_render", Parent::None, || {
            fleet_overview_page(&overview)
        });
        rung(tr, "ladder.viz.cluster_page_render", Parent::None, || {
            cluster_page(&cluster)
        });
    }
    set(
        "viz.machine_page_render_ms_p50",
        tr.p50_ns("ladder.viz.machine_page_render") / 1e6,
    );
    set("viz.bytes_per_machine_page", page_bytes as f64);
    set(
        "viz.heatmap_render_us_p50",
        tr.p50_ns("ladder.viz.heatmap_render") / 1e3,
    );
    set(
        "viz.fleet_overview_render_us_p50",
        tr.p50_ns("ladder.viz.fleet_overview_render") / 1e3,
    );
    set(
        "viz.cluster_page_render_us_p50",
        tr.p50_ns("ladder.viz.cluster_page_render") / 1e3,
    );
    let (start, end) = (last - rows as u64, last - 1);
    let body = query_body(start, end, 0, None, false);
    let filter = QueryFilter::any().with("unit", "0");
    let answer = engine.query("energy", &filter, start, end, None);
    let points: usize = answer.series.iter().map(|s| s.points.len()).sum();
    let mut json_ns = Vec::new();
    for _ in 0..shape.reps(9) {
        let (answered, api_ns) = rung(
            tr,
            "ladder.tsdb.api_query_cached",
            Parent::Rung("ladder.platform.api_raw"),
            || handle_query_with(engine.as_ref(), &body),
        );
        answered.map_err(|e| e.to_string())?;
        let (_, hit_ns) = rung(
            tr,
            "ladder.query.engine_hit_wide",
            Parent::Rung("ladder.tsdb.api_query_cached"),
            || engine.query("energy", &filter, start, end, None),
        );
        json_ns.push(api_ns - hit_ns);
    }
    set(
        "tsdb.api_json_ns_per_point",
        crate::stats::median(&json_ns) / points as f64,
    );

    let stats = engine.stats();
    set(
        "query.cache_hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64,
    );
    set(
        "query.fanout_per_query",
        stats.fanout_total as f64 / (stats.raw_plans + stats.rollup_plans) as f64,
    );
    set("query.partials", stats.partials as f64);
    m.shutdown();
    Ok(())
}

/// pga-detect, pga-stats, pga-linalg, pga-dataflow and pga-sched on
/// windows of the workload's own fleet.
fn compute_rungs(shape: &Shape, tr: &mut Tracer, layers: &mut LayerMetrics) -> Result<(), String> {
    let mut set = |name, value| layers.set(name, value);
    let config = &shape.config;
    let fleet = Fleet::new(config.fleet.clone());
    let units = config.fleet.units.min(8);
    let sensors = config.fleet.sensors_per_unit as usize;
    let (train_rows, eval_rows) = (config.training_window, config.eval_window);
    let training: Vec<(u32, Matrix)> = (0..units)
        .map(|u| {
            (
                u,
                fleet.observation_window(u, train_rows as u64 - 1, train_rows),
            )
        })
        .collect();

    // pga-linalg at the shapes `train_unit` uses: one 32-sensor block.
    let block = pga_detect::BLOCK_SENSORS.min(sensors);
    let mut sub = Matrix::zeros(train_rows, block);
    for r in 0..train_rows {
        sub.row_mut(r)
            .copy_from_slice(&training[0].1.row(r)[..block]);
    }
    let transposed = sub.transpose();
    let flops = 2.0 * (block * train_rows * block) as f64;
    for _ in 0..shape.reps(20) {
        let (cov, _) = rung(
            tr,
            "ladder.linalg.covariance",
            Parent::Rung("ladder.detect.train_unit"),
            || covariance_matrix(&sub),
        );
        let cov = cov.map_err(|e| e.to_string())?;
        rung(
            tr,
            "ladder.linalg.svd",
            Parent::Rung("ladder.detect.train_unit"),
            || svd(&cov),
        )
        .0
        .map_err(|e| e.to_string())?;
        rung(
            tr,
            "ladder.linalg.matmul",
            Parent::Rung("ladder.linalg.covariance"),
            || transposed.matmul(&sub),
        )
        .0
        .map_err(|e| e.to_string())?;
    }
    set(
        "linalg.covariance_ms_p50",
        tr.p50_ns("ladder.linalg.covariance") / 1e6,
    );
    set("linalg.svd_us_p50", tr.p50_ns("ladder.linalg.svd") / 1e3);
    set(
        "linalg.matmul_gflops",
        flops / tr.p50_ns("ladder.linalg.matmul"),
    );

    // pga-detect: training, then row-major and columnar scoring.
    let mut models = Vec::new();
    for (u, obs) in &training {
        let (model, _) = rung(
            tr,
            "ladder.detect.train_unit",
            Parent::Rung("ladder.sched.round_2w"),
            || train_unit(*u, obs),
        );
        models.push(model.map_err(|e| e.to_string())?);
    }
    set(
        "detect.train_unit_ms_p50",
        tr.p50_ns("ladder.detect.train_unit") / 1e6,
    );
    let windows: Vec<Matrix> = (0..units)
        .map(|u| fleet.observation_window(u, (train_rows + eval_rows) as u64 - 1, eval_rows))
        .collect();
    let columns: Vec<Vec<Vec<f64>>> = windows
        .iter()
        .map(|w| (0..w.cols()).map(|c| w.col(c)).collect())
        .collect();
    let batch = BatchEvaluator::new(models, config.procedure, config.alpha);
    let scored = (units as usize * eval_rows * sensors) as f64;
    let mut p_values = Vec::new();
    for _ in 0..shape.reps(10) {
        rung(tr, "ladder.detect.evaluate", Parent::None, || {
            for (ev, w) in batch.evaluators().iter().zip(&windows) {
                p_values = OnlineEvaluator::evaluate(ev, w).p_values;
            }
        });
        let slots: Vec<Option<ColumnWindow<'_>>> = columns
            .iter()
            .map(|cols| Some(cols.iter().map(Vec::as_slice).collect()))
            .collect();
        rung(tr, "ladder.detect.evaluate_columns", Parent::None, || {
            batch.evaluate_columns(&slots)
        });
        rung(
            tr,
            "ladder.stats.bh",
            Parent::Rung("ladder.detect.evaluate"),
            || benjamini_hochberg(&p_values, config.alpha),
        );
    }
    set(
        "detect.evaluate_ns_per_sample",
        tr.p50_ns("ladder.detect.evaluate") / scored,
    );
    set(
        "detect.evaluate_columns_ns_per_sample",
        tr.p50_ns("ladder.detect.evaluate_columns") / scored,
    );
    set(
        "stats.bh_ns_per_pvalue",
        tr.p50_ns("ladder.stats.bh") / p_values.len() as f64,
    );

    // pga-dataflow / pga-sched: a training round at two workers and at one
    // (the single-threaded baseline), the cost of a no-op task, and an
    // incremental retrain with an eighth of 32 units dirty.
    let train_round = |dataflow: &Dataflow| {
        dataflow
            .parallelize(training.iter().collect(), 4)
            .map(|(u, obs)| train_unit(*u, obs).is_ok())
            .collect()
    };
    let two = Dataflow::new(2);
    let one = Dataflow::new(1);
    for _ in 0..shape.reps(5) {
        rung(tr, "ladder.sched.round_2w", Parent::None, || {
            train_round(&two)
        });
        rung(tr, "ladder.sched.round_1w", Parent::None, || {
            train_round(&one)
        });
    }
    let rounds = shape.reps(5) as f64;
    let stats = two.stats();
    set("sched.tasks_per_round", stats.tasks_run as f64 / rounds);
    set("sched.steals_per_round", stats.steals as f64 / rounds);
    set("sched.max_queue_depth", stats.max_queue_depth as f64);
    set(
        "sched.speedup_2w",
        tr.p50_ns("ladder.sched.round_1w") / tr.p50_ns("ladder.sched.round_2w"),
    );
    for _ in 0..shape.reps(20) {
        rung(
            tr,
            "ladder.dataflow.noop_x64",
            Parent::Rung("ladder.sched.round_2w"),
            || {
                two.parallelize((0..64u32).collect(), 64)
                    .map(|x| x)
                    .collect()
            },
        );
    }
    set(
        "dataflow.task_overhead_us",
        tr.p50_ns("ladder.dataflow.noop_x64") / 1e3 / 64.0,
    );

    let trainer_units: Vec<u32> = (0..32).collect();
    let mut trainer = FleetTrainer::new(&trainer_units, sensors);
    let rows_of = |obs: &Matrix, from: usize, to: usize| -> Vec<Vec<f64>> {
        (from..to).map(|r| obs.row(r).to_vec()).collect()
    };
    for &u in &trainer_units {
        let obs = &training[u as usize % training.len()].1;
        trainer.ingest(u, &rows_of(obs, 0, train_rows - 20));
    }
    if let Some((unit, e)) = trainer.retrain_dirty(&two).first() {
        return Err(format!("ladder: seeding trainer unit {unit} failed: {e}"));
    }
    for step in 0..shape.reps(5) {
        for &u in &trainer_units[..4] {
            let obs = &training[u as usize % training.len()].1;
            let from = train_rows - 20 + 4 * step;
            trainer.ingest(u, &rows_of(obs, from, from + 4));
        }
        let (failures, _) = rung(tr, "ladder.detect.retrain_dirty", Parent::None, || {
            trainer.retrain_dirty(&two)
        });
        if let Some((unit, e)) = failures.first() {
            return Err(format!("ladder: retraining dirty unit {unit} failed: {e}"));
        }
    }
    set(
        "detect.retrain_dirty_ms_p50",
        tr.p50_ns("ladder.detect.retrain_dirty") / 1e6,
    );
    Ok(())
}

/// Climb the whole ladder for one workload's inputs.
pub fn run(shape: &Shape, tr: &mut Tracer, layers: &mut LayerMetrics) -> Result<(), String> {
    tr.set_recording(true);
    let written = write_rungs(shape, tr, layers);
    read_rungs(shape, written, tr, layers);
    block_rungs(shape, tr, layers)?;
    platform_rungs(shape, tr, layers)?;
    compute_rungs(shape, tr, layers)?;
    tr.set_recording(false);
    Ok(())
}
