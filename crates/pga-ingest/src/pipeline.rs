//! End-to-end ingestion pipeline over the real (threaded) stack.
//!
//! Drives fleet ticks through the reverse proxy into TSD daemons and
//! measures wall-clock throughput. This is the thread-scale counterpart of
//! the queueing-model experiments in [`crate::experiment`]; it validates
//! that the actual storage stack sustains high sample rates on the host.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use pga_cluster::coordinator::Coordinator;
use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
use pga_repl::ReplicationConfig;
use pga_sensorgen::{Fleet, SensorSample};
use pga_tsdb::{KeyCodec, KeyCodecConfig, Tsd, TsdConfig, UidTable};

use crate::proxy::{ProxyConfig, ReverseProxy, Settlement};

/// A fully assembled thread-scale ingestion stack.
///
/// The stack keeps one proxy, started with it: every [`run_range`] call
/// submits through the same workers and series table, and
/// [`IngestionPipeline::shutdown`] (or drop) joins them.
///
/// [`run_range`]: IngestionPipeline::run_range
pub struct IngestionPipeline {
    /// First, so that a dropped pipeline drains and joins its workers
    /// before the cluster goes.
    proxy: ReverseProxy,
    master: Master,
    tsds: Vec<Arc<Tsd>>,
    batch_size: usize,
}

/// Wall-clock ingestion measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Samples ingested.
    pub samples: u64,
    /// Elapsed wall seconds.
    pub elapsed_secs: f64,
    /// Samples per second.
    pub throughput: f64,
    /// Cells visible in the storage layer afterwards.
    pub stored_cells: u64,
    /// Batches the proxy forwarded. With [`PipelineReport::dropped_batches`]
    /// they make `ceil(samples / batch_size)`.
    #[serde(default)]
    pub batches: u64,
    /// Batches the proxy gave up on after its forwarding attempts (its
    /// `errors`): a storage error that outlived the retries, or a timestamp
    /// no row key can hold. Their samples count in `samples`, which is
    /// what was submitted, but are not stored.
    #[serde(default)]
    pub dropped_batches: u64,
}

impl IngestionPipeline {
    /// Assemble a stack: `nodes` region servers, `tsd_count` TSD daemons,
    /// salted keys with one bucket per node, pre-split table.
    pub fn new(nodes: usize, tsd_count: usize, batch_size: usize) -> Self {
        Self::new_with_replication(nodes, tsd_count, batch_size, &ReplicationConfig::default())
    }

    /// Like [`IngestionPipeline::new`], but every region gets
    /// `replication.factor` copies (primary + followers on distinct nodes,
    /// so `factor` must not exceed `nodes`): puts quorum-ack through the
    /// client's WAL shipping, scans can hedge to followers. An explicit
    /// `write_quorum` is stamped onto every region so the client's
    /// quorum-acked write path enforces it instead of the majority default.
    pub fn new_with_replication(
        nodes: usize,
        tsd_count: usize,
        batch_size: usize,
        replication: &ReplicationConfig,
    ) -> Self {
        let codec = KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: nodes as u8,
                row_span_secs: 3600,
            },
            UidTable::new(),
        );
        let coord = Coordinator::new(60_000);
        let mut master = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
        master.create_replicated_table_cfg(
            &TableDescriptor {
                name: "tsdb".into(),
                split_points: codec.split_points(),
                region_config: RegionConfig::default(),
            },
            replication,
        );
        let tsds: Vec<Arc<Tsd>> = (0..tsd_count)
            .map(|_| {
                Arc::new(Tsd::new(
                    codec.clone(),
                    Client::connect(&master),
                    TsdConfig::default(),
                ))
            })
            .collect();
        let proxy = ReverseProxy::spawn(tsds.clone(), ProxyConfig::default())
            .expect("pipeline constructs a non-empty TSD pool");
        IngestionPipeline {
            proxy,
            master,
            tsds,
            batch_size,
        }
    }

    /// Ingest `ticks` full fleet ticks starting at tick 0.
    pub fn run(&self, fleet: &Fleet, ticks: u64) -> PipelineReport {
        self.run_range(fleet, 0, ticks)
    }

    /// Ingest fleet ticks `[t0, t1)`, returning the measured throughput.
    ///
    /// Samples are moved into batches of `batch_size` whatever the tick
    /// they belong to, so a batch may span ticks; only the range's last
    /// batch may be short. The batches go to the proxy in groups of one
    /// proxy queue's worth, and at most one group is held here at a time.
    /// A group costs one hand-off per proxy worker and one put per lane
    /// however many batches it holds, so a range of up to one group goes
    /// out as one put per TSD whatever the scheduler does.
    ///
    /// Returns once every batch of this call has settled, after the TSDs'
    /// observers took its points, so a following
    /// [`IngestionPipeline::flush_observers`] seals all of them. The
    /// report counts this call's batches only.
    pub fn run_range(&self, fleet: &Fleet, t0: u64, t1: u64) -> PipelineReport {
        let settlement = Arc::new(Settlement::default());
        let start = Instant::now();
        let mut samples = 0u64;
        let group_len = self.proxy.group_len();
        let mut hand_over = |group: Vec<Vec<SensorSample>>| {
            samples += group.iter().map(|b| b.len() as u64).sum::<u64>();
            self.proxy
                .submit_group(group, &settlement)
                .expect("proxy stays up until the pipeline shuts down");
        };
        let mut tick = Vec::with_capacity(fleet.config().total_sensors() as usize);
        let mut batch = Vec::with_capacity(self.batch_size);
        let mut group = Vec::with_capacity(group_len);
        for t in t0..t1 {
            fleet.tick_into(t, &mut tick);
            for sample in tick.drain(..) {
                batch.push(sample);
                if batch.len() == self.batch_size {
                    group.push(std::mem::replace(
                        &mut batch,
                        Vec::with_capacity(self.batch_size),
                    ));
                    if group.len() == group_len {
                        hand_over(std::mem::replace(&mut group, Vec::with_capacity(group_len)));
                    }
                }
            }
        }
        if !batch.is_empty() {
            group.push(batch);
        }
        if !group.is_empty() {
            hand_over(group);
        }
        let settled = settlement.wait();
        let elapsed = start.elapsed().as_secs_f64();
        let stored_cells = self
            .master
            .nodes()
            .iter()
            .map(|&n| {
                self.master
                    .server(n)
                    .map_or(0, |s| s.published_totals().cells_written)
            })
            .sum();
        // A batch is forwarded whole or dropped whole. Every batch of the
        // call has settled, so the two counts are final.
        PipelineReport {
            samples,
            elapsed_secs: elapsed,
            throughput: samples as f64 / elapsed,
            stored_cells,
            batches: settled.forwarded,
            dropped_batches: settled.errors,
        }
    }

    /// Borrow one TSD for queries.
    pub fn tsd(&self) -> &Arc<Tsd> {
        &self.tsds[0]
    }

    /// Borrow every TSD daemon (the serving layer installs write-path
    /// observers per daemon; observer writer ids are the indices here).
    pub fn tsds(&self) -> &[Arc<Tsd>] {
        &self.tsds
    }

    /// Borrow the master (read-path subsystems connect their own clients).
    pub fn master(&self) -> &Master {
        &self.master
    }

    /// Seal and persist every TSD's open write-path observer buckets
    /// (rollup accumulators). No-op for TSDs without observers.
    pub fn flush_observers(&self) -> Result<(), pga_tsdb::TsdError> {
        for tsd in &self.tsds {
            tsd.flush_observer()?;
        }
        Ok(())
    }

    /// Drain and join the proxy's workers, then shut the cluster down.
    pub fn shutdown(&self) {
        self.proxy.shutdown();
        self.master.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::tests::{settles_at, Gate};
    use pga_sensorgen::FleetConfig;
    use pga_tsdb::QueryFilter;
    use std::sync::atomic::Ordering;

    #[test]
    fn pipeline_ingests_and_stores_everything() {
        let fleet = Fleet::new(FleetConfig::small(3));
        let pipeline = IngestionPipeline::new(3, 2, 16);
        let report = pipeline.run(&fleet, 4);
        let expected = fleet.config().total_sensors() * 4;
        assert_eq!(report.samples, expected);
        assert_eq!(report.stored_cells, expected);
        assert!(report.throughput > 0.0);
        // Data queryable end to end.
        let series = pipeline
            .tsd()
            .query(
                "energy",
                &QueryFilter::any().with("unit", "0").with("sensor", "0"),
                0,
                10,
            )
            .unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points.len(), 4);
        pipeline.shutdown();
    }

    /// A batch fills across ticks: `ceil(samples / batch_size)` batches,
    /// where cutting at every tick sent 50 (one short batch a tick) and
    /// 150 (two full and one short a tick). Every sample is stored once
    /// and reads back bit for bit.
    #[test]
    fn batches_fill_across_ticks() {
        for (units, sensors, batches) in [(2, 16, 7), (7, 75, 103)] {
            let fleet = Fleet::new(FleetConfig {
                units,
                sensors_per_unit: sensors,
                ..FleetConfig::small(29)
            });
            let pipeline = IngestionPipeline::new(2, 2, 256);
            let report = pipeline.run_range(&fleet, 100, 150);
            let samples = u64::from(units * sensors) * 50;
            assert_eq!(report.samples, samples);
            assert_eq!(report.batches, batches, "{units} × {sensors}");
            assert_eq!(report.batches, samples.div_ceil(256));
            assert_eq!(report.stored_cells, samples);
            let series = pipeline
                .tsd()
                .query("energy", &QueryFilter::any(), 0, 1000)
                .unwrap();
            assert_eq!(series.len() as u32, units * sensors);
            for s in &series {
                let unit: u32 = s.tags["unit"].parse().unwrap();
                let sensor: u32 = s.tags["sensor"].parse().unwrap();
                let stored: Vec<(u64, u64)> = s
                    .points
                    .iter()
                    .map(|p| (p.timestamp, p.value.to_bits()))
                    .collect();
                let generated: Vec<(u64, u64)> = (100..150)
                    .map(|t| (t, fleet.sample(unit, sensor, t).to_bits()))
                    .collect();
                assert_eq!(stored, generated, "unit {unit} sensor {sensor}");
            }
            pipeline.shutdown();
        }
    }

    /// Put RPCs each TSD of `pipeline` made.
    fn puts(pipeline: &IngestionPipeline) -> Vec<u64> {
        let puts = |tsd: &Arc<Tsd>| tsd.metrics().put_rpcs.load(Ordering::Relaxed);
        pipeline.tsds().iter().map(puts).collect()
    }

    /// A range of a few batches goes out as one put per TSD, whatever the
    /// scheduler does. Each range's first put is held until every batch
    /// is handed over, so batches handed over one at a time would queue
    /// behind it and go out in a second put (unless the worker happened
    /// to wake after the last one, hence five ranges).
    #[test]
    fn a_range_goes_out_as_one_put_per_tsd() {
        let fleet = Fleet::new(FleetConfig {
            units: 2,
            sensors_per_unit: 16,
            ..FleetConfig::small(3)
        });
        let pipeline = IngestionPipeline::new(2, 2, 32);
        let metrics = pipeline.proxy.metrics();
        for k in 0..5u64 {
            let gate = Gate::install(&pipeline.tsds()[0]);
            let (handed_over, report) = std::thread::scope(|s| {
                let run = s.spawn(|| pipeline.run_range(&fleet, 10 * k, 10 * k + 10));
                gate.gate.wait();
                let handed_over = settles_at(&metrics.batches_in, 10 * (k + 1));
                gate.gate.wait();
                (handed_over, run.join().unwrap())
            });
            assert_eq!(handed_over, 10 * (k + 1));
            assert_eq!((report.batches, report.stored_cells), (10, 320 * (k + 1)));
            assert_eq!(puts(&pipeline), [k + 1, k + 1], "range {k}");
        }
        pipeline.shutdown();
    }

    /// A range longer than a group goes out as one put per lane per
    /// group: here one batch a tick, each with a part in both lanes, and
    /// 300 batches in groups of 128.
    #[test]
    fn a_long_range_goes_out_as_one_put_per_lane_per_group() {
        let fleet = Fleet::new(FleetConfig {
            units: 2,
            sensors_per_unit: 16,
            ..FleetConfig::small(3)
        });
        let pipeline = IngestionPipeline::new(2, 2, 32);
        assert_eq!(pipeline.proxy.group_len(), 128);
        let report = pipeline.run_range(&fleet, 0, 300);
        assert_eq!((report.batches, report.stored_cells), (300, 9600));
        assert_eq!(puts(&pipeline), [3, 3], "ceil(300 / 128) a lane");
        pipeline.shutdown();
    }

    /// A batch the proxy gives up on — here every one, its timestamps past
    /// the last row a key can hold — is reported, not a panic.
    #[test]
    fn batches_the_proxy_gives_up_on_are_reported_as_dropped() {
        let fleet = Fleet::new(FleetConfig {
            units: 2,
            sensors_per_unit: 8,
            ..FleetConfig::small(5)
        });
        let pipeline = IngestionPipeline::new(2, 2, 5);
        let t0 = pipeline.tsd().codec().max_timestamp() + 1;
        let report = pipeline.run_range(&fleet, t0, t0 + 3);
        assert_eq!(report.samples, 48);
        assert_eq!((report.batches, report.dropped_batches), (0, 10));
        assert_eq!(report.stored_cells, 0);
        pipeline.shutdown();
    }

    #[test]
    fn values_survive_the_full_stack_exactly() {
        let fleet = Fleet::new(FleetConfig::small(17));
        let pipeline = IngestionPipeline::new(2, 1, 8);
        pipeline.run(&fleet, 2);
        let series = pipeline
            .tsd()
            .query(
                "energy",
                &QueryFilter::any().with("unit", "1").with("sensor", "5"),
                0,
                10,
            )
            .unwrap();
        assert_eq!(series[0].points[0].value, fleet.sample(1, 5, 0));
        assert_eq!(series[0].points[1].value, fleet.sample(1, 5, 1));
        pipeline.shutdown();
    }
}
