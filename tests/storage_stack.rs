//! Storage-stack integration: TSDB semantics over the distributed store
//! under flushes, compactions, splits and server failure.

use pga_cluster::coordinator::Coordinator;
use pga_cluster::NodeId;
use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
use pga_tsdb::{Aggregator, KeyCodec, KeyCodecConfig, QueryFilter, Tsd, TsdConfig, UidTable};
use std::sync::Arc;

fn stack(nodes: usize, salt_buckets: u8) -> (Master, Tsd, Coordinator) {
    let codec = KeyCodec::new(
        KeyCodecConfig {
            salt_buckets,
            row_span_secs: 3600,
        },
        UidTable::new(),
    );
    let coord = Coordinator::new(10_000);
    let mut master = Master::bootstrap(nodes, ServerConfig::default(), coord.clone(), 0);
    master.create_table(&TableDescriptor {
        name: "tsdb".into(),
        split_points: codec.split_points(),
        region_config: RegionConfig {
            memstore_flush_bytes: 4096, // tiny: force frequent flushes
            compaction_file_threshold: 3,
        },
    });
    let tsd = Tsd::new(codec, Client::connect(&master), TsdConfig::default());
    (master, tsd, coord)
}

#[test]
fn data_survives_flush_and_compaction_cycles() {
    let (master, tsd, _c) = stack(3, 6);
    // Enough writes to trip many flushes and compactions.
    for unit in 0..20u32 {
        let u = unit.to_string();
        for ts in 0..50u64 {
            tsd.put(
                "energy",
                &[("unit", &u), ("sensor", "0")],
                ts,
                (unit as f64) + ts as f64,
            )
            .unwrap();
        }
    }
    let series = tsd.query("energy", &QueryFilter::any(), 0, 100).unwrap();
    assert_eq!(series.len(), 20);
    for s in &series {
        assert_eq!(s.points.len(), 50);
        let unit: f64 = s.tags.get("unit").unwrap().parse().unwrap();
        assert_eq!(s.points[7].value, unit + 7.0);
    }
    master.shutdown();
}

#[test]
fn downsampled_query_aggregates_correctly() {
    let (master, tsd, _c) = stack(2, 4);
    for ts in 0..60u64 {
        tsd.put("energy", &[("unit", "1"), ("sensor", "2")], ts, ts as f64)
            .unwrap();
    }
    let series = tsd.query("energy", &QueryFilter::any(), 0, 59).unwrap();
    let ds = series[0].downsample(10, Aggregator::Avg);
    assert_eq!(ds.points.len(), 6);
    // Window [0,10): mean of 0..9 = 4.5.
    assert_eq!(ds.points[0].value, 4.5);
    assert_eq!(ds.points[5].value, 54.5);
    let max = series[0].downsample(30, Aggregator::Max);
    assert_eq!(max.points[0].value, 29.0);
    assert_eq!(max.points[1].value, 59.0);
    master.shutdown();
}

#[test]
fn region_split_keeps_series_intact() {
    let (mut master, tsd, _c) = stack(2, 2);
    for unit in 0..30u32 {
        let u = unit.to_string();
        for ts in 0..10u64 {
            tsd.put("energy", &[("unit", &u), ("sensor", "1")], ts, 1.0)
                .unwrap();
        }
    }
    // Split every region once.
    let rids: Vec<_> = master.directory().read().iter().map(|i| i.id).collect();
    let mut splits = 0;
    for rid in rids {
        if master.split_region(rid).is_ok() {
            splits += 1;
        }
    }
    assert!(splits > 0, "at least one region should split");
    let series = tsd.query("energy", &QueryFilter::any(), 0, 100).unwrap();
    assert_eq!(series.len(), 30);
    assert!(series.iter().all(|s| s.points.len() == 10));
    master.shutdown();
}

#[test]
fn server_failure_recovers_through_wal_and_reassignment() {
    let (mut master, tsd, _c) = stack(3, 6);
    for unit in 0..12u32 {
        let u = unit.to_string();
        tsd.put("energy", &[("unit", &u), ("sensor", "0")], 5, unit as f64)
            .unwrap();
    }
    // Node 0 stops heartbeating; others stay alive.
    master.heartbeat(NodeId(1), 20_000);
    master.heartbeat(NodeId(2), 20_000);
    let moved = master.tick(20_000);
    assert!(!moved.is_empty(), "node 0's regions reassigned");
    // All data (including unflushed memstore contents recovered via the
    // WAL) remains queryable. The client needs fresh handles because the
    // cluster membership changed.
    let tsd2 = Tsd::new(
        tsd.codec().clone(),
        Client::connect(&master),
        TsdConfig::default(),
    );
    let series = tsd2.query("energy", &QueryFilter::any(), 0, 100).unwrap();
    assert_eq!(series.len(), 12, "all series survive the failover");
    master.shutdown();
}

#[test]
fn uid_table_shared_across_tsd_instances() {
    let (master, tsd, _c) = stack(2, 4);
    // A second TSD over the same codec/uid table sees the first's writes.
    let tsd2 = Tsd::new(
        tsd.codec().clone(),
        Client::connect(&master),
        TsdConfig::default(),
    );
    tsd.put("energy", &[("unit", "9"), ("sensor", "3")], 1, 42.0)
        .unwrap();
    let series = tsd2
        .query("energy", &QueryFilter::any().with("unit", "9"), 0, 10)
        .unwrap();
    assert_eq!(series.len(), 1);
    assert_eq!(series[0].points[0].value, 42.0);
    master.shutdown();
}

/// Passes every acknowledged put on to a rollup writer, and records its
/// `(timestamp, value bits)` — which lane parts reached this daemon in
/// each put, run by run, in the order its writer saw them.
struct Recording {
    writer: pga_query::RollupWriter,
    seen: std::sync::Mutex<Vec<Vec<(u64, u64)>>>,
}

impl pga_tsdb::PutObserver for Recording {
    fn on_batch(&self, runs: &pga_tsdb::SeriesRuns) -> pga_minibase::PutBatch {
        let mut seen = self.seen.lock().unwrap();
        let points = runs.iter().flat_map(|run| run.points());
        seen.push(points.map(|(ts, v)| (ts, v.to_bits())).collect());
        self.writer.on_batch(runs)
    }

    fn flush(&self) -> pga_minibase::PutBatch {
        self.writer.flush()
    }
}

/// The proxy forwards series it resolved itself, by `(unit, sensor)`; a
/// direct `put_batch` resolves tag strings. Both must store the same
/// bytes: every raw cell and, after the observers flush, every rollup
/// cell, by row key, qualifier, version and value. An odd × odd fleet over
/// a row-hour boundary, two daemons and two proxy workers. Each daemon of
/// the direct stack is fed the lane parts its twin was, in the same
/// order and joined into the same puts, because a rollup cell is one
/// writer's share of its bucket. Both daemons group a put by series the
/// same way, so both observers see the same runs.
#[test]
fn the_forwarding_path_stores_what_the_string_path_stores() {
    use pga_ingest::IngestionPipeline;
    use pga_query::RollupWriter;
    use pga_sensorgen::{Fleet, FleetConfig};

    let fleet = Fleet::new(FleetConfig {
        units: 7,
        sensors_per_unit: 75,
        ..FleetConfig::small(41)
    });
    let (t0, t1, batch) = (3_550, 3_650, 256);
    let stack = || {
        let stack = IngestionPipeline::new(3, 2, batch);
        // UIDs in one order on both stacks: the direct stack, fed daemon
        // by daemon, would otherwise name the fleet in another order.
        let codec = stack.tsd().codec();
        for unit in 0..7u32 {
            for sensor in 0..75u32 {
                let (u, s) = (unit.to_string(), sensor.to_string());
                codec.resolve("energy", &[("unit", &u), ("sensor", &s)]);
            }
        }
        stack
    };
    let writer =
        |tsd: &Tsd, id: usize| RollupWriter::new(tsd.codec().clone(), vec![60, 600], id as u8);

    let proxied = stack();
    let recorders: Vec<Arc<Recording>> = proxied
        .tsds()
        .iter()
        .enumerate()
        .map(|(i, tsd)| {
            let recorder = Arc::new(Recording {
                writer: writer(tsd, i),
                seen: Default::default(),
            });
            tsd.set_observer(recorder.clone());
            recorder
        })
        .collect();
    let report = proxied.run_range(&fleet, t0, t1);
    proxied.flush_observers().unwrap();
    assert_eq!((report.samples, report.dropped_batches), (52_500, 0));

    // The run's batches, cut as `run_range` cuts them.
    let mut samples = Vec::new();
    let mut tick = Vec::new();
    for t in t0..t1 {
        fleet.tick_into(t, &mut tick);
        samples.append(&mut tick);
    }
    // Each batch split into its lanes' parts: a series' lane is its salt
    // modulo the daemon count.
    let lanes = proxied.tsds().len();
    let lane = |s: &pga_sensorgen::SensorSample| {
        let (u, v) = (s.unit.to_string(), s.sensor.to_string());
        let row = proxied
            .tsd()
            .codec()
            .row_key("energy", &[("unit", &u), ("sensor", &v)], 0);
        row[0] as usize % lanes
    };
    let parts: Vec<Vec<Vec<&pga_sensorgen::SensorSample>>> = samples
        .chunks(batch)
        .map(|b| {
            (0..lanes)
                .map(|l| b.iter().filter(|s| lane(s) == l).collect())
                .collect()
        })
        .collect();
    // `samples` grouped by series, stably, the series in the order they
    // first appear: what a put of them records.
    let grouped = |samples: &[&pga_sensorgen::SensorSample]| -> Vec<(u64, u64)> {
        let mut first = std::collections::HashMap::new();
        for (at, s) in samples.iter().enumerate() {
            first.entry((s.unit, s.sensor)).or_insert(at);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by_key(|s| first[&(s.unit, s.sensor)]); // stable
        sorted
            .iter()
            .map(|s| (s.timestamp, s.value.to_bits()))
            .collect()
    };
    // A worker puts whatever its queue holds as one put per lane, so each
    // recorded put is a run of one lane's consecutive parts. The direct
    // stack's daemon is fed each run as one batch, as its twin was.
    let direct = stack();
    for (i, (tsd, recorder)) in direct.tsds().iter().zip(&recorders).enumerate() {
        tsd.set_observer(Arc::new(writer(tsd, i)));
        let mut lane_parts = parts.iter().map(|b| &b[i]).filter(|p| !p.is_empty());
        for seen in recorder.seen.lock().unwrap().iter() {
            let mut run: Vec<&pga_sensorgen::SensorSample> = Vec::new();
            while run.len() < seen.len() {
                run.extend(
                    lane_parts
                        .next()
                        .expect("a recorded put is the run's parts"),
                );
            }
            assert!(
                grouped(&run) == *seen,
                "a recorded put is a run of consecutive lane parts"
            );
            let tags: Vec<[(String, String); 2]> = run
                .iter()
                .map(|s| {
                    [
                        ("unit".to_string(), s.unit.to_string()),
                        ("sensor".to_string(), s.sensor.to_string()),
                    ]
                })
                .collect();
            let tags: Vec<[(&str, &str); 2]> = tags
                .iter()
                .map(|[(uk, uv), (sk, sv)]| [(&uk[..], &uv[..]), (&sk[..], &sv[..])])
                .collect();
            let points: Vec<pga_tsdb::BatchPoint> = run
                .iter()
                .zip(&tags)
                .map(|(s, tags)| (&tags[..], s.timestamp, s.value))
                .collect();
            tsd.put_batch("energy", &points).unwrap();
        }
        assert!(
            lane_parts.next().is_none(),
            "every lane part reached its daemon once"
        );
    }
    assert!(recorders.iter().all(|r| !r.seen.lock().unwrap().is_empty()));
    direct.flush_observers().unwrap();

    // Every cell of both stores, raw and rollup apart by metric UID.
    let energy = proxied
        .tsd()
        .codec()
        .row_key("energy", &[("unit", "0"), ("sensor", "0")], t0);
    let cells = |stack: &IngestionPipeline| {
        let all = Client::connect(stack.master())
            .scan(&pga_minibase::RowRange::all())
            .unwrap();
        let cell = |kv: &pga_minibase::KeyValue| {
            (
                kv.row.to_vec(),
                kv.qualifier.to_vec(),
                kv.timestamp,
                kv.value.to_vec(),
            )
        };
        let (raw, rollup): (Vec<_>, Vec<_>) = all
            .iter()
            .map(cell)
            .partition(|c| c.0[1..4] == energy[1..4]);
        (raw, rollup)
    };
    let (raw, rollup) = cells(&proxied);
    assert_eq!(raw.len(), 52_500);
    assert!(!rollup.is_empty());
    assert_eq!((raw, rollup), cells(&direct));
    proxied.shutdown();
    direct.shutdown();
}
