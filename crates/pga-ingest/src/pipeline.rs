//! End-to-end ingestion pipeline over the real (threaded) stack.
//!
//! Drives fleet ticks through the reverse proxy into TSD daemons and
//! measures wall-clock throughput. This is the thread-scale counterpart of
//! the queueing-model experiments in [`crate::experiment`]; it validates
//! that the actual storage stack sustains high sample rates on the host.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use pga_cluster::coordinator::Coordinator;
use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
use pga_repl::ReplicationConfig;
use pga_sensorgen::{Fleet, SensorSample};
use pga_tsdb::{KeyCodec, KeyCodecConfig, Tsd, TsdConfig, UidTable};

use crate::proxy::{ProxyConfig, ReverseProxy};

/// A fully assembled thread-scale ingestion stack.
pub struct IngestionPipeline {
    master: Master,
    tsds: Vec<Arc<Tsd>>,
    proxy_config: ProxyConfig,
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
    /// Batches the proxy forwarded: `ceil(samples / batch_size)`.
    #[serde(default)]
    pub batches: u64,
}

impl IngestionPipeline {
    /// Assemble a stack: `nodes` region servers, `tsd_count` TSD daemons,
    /// salted keys with one bucket per node, pre-split table.
    pub fn new(nodes: usize, tsd_count: usize, batch_size: usize) -> Self {
        Self::new_replicated(nodes, tsd_count, batch_size, 1)
    }

    /// Like [`IngestionPipeline::new`], but every region gets `factor`
    /// copies (primary + followers on distinct nodes): puts quorum-ack
    /// through the client's WAL shipping, scans can hedge to followers.
    /// `factor <= 1` is exactly [`IngestionPipeline::new`]; `factor`
    /// must not exceed `nodes`.
    pub fn new_replicated(
        nodes: usize,
        tsd_count: usize,
        batch_size: usize,
        factor: usize,
    ) -> Self {
        Self::new_with_replication(
            nodes,
            tsd_count,
            batch_size,
            &ReplicationConfig {
                factor,
                ..ReplicationConfig::default()
            },
        )
    }

    /// Like [`IngestionPipeline::new_replicated`], but honours the full
    /// replication config — in particular an explicit `write_quorum` is
    /// stamped onto every region so the client's quorum-acked write path
    /// enforces it instead of the majority default.
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
        IngestionPipeline {
            master,
            tsds,
            proxy_config: ProxyConfig::default(),
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
    /// batch may be short. Every batch costs the same hand-offs (producer →
    /// proxy worker → TSD → one RPC per region) however few samples it
    /// carries, so a small fleet is not cut into one short batch a tick.
    pub fn run_range(&self, fleet: &Fleet, t0: u64, t1: u64) -> PipelineReport {
        let proxy = ReverseProxy::spawn(self.tsds.clone(), self.proxy_config)
            .expect("pipeline constructs a non-empty TSD pool");
        let start = Instant::now();
        let (mut samples, mut submitted) = (0u64, 0u64);
        let mut submit = |batch: Vec<SensorSample>| {
            samples += batch.len() as u64;
            submitted += 1;
            proxy
                .submit(batch)
                .expect("proxy stays up for the whole run");
        };
        let mut tick = Vec::with_capacity(fleet.config().total_sensors() as usize);
        let mut batch = Vec::with_capacity(self.batch_size);
        for t in t0..t1 {
            fleet.tick_into(t, &mut tick);
            for sample in tick.drain(..) {
                batch.push(sample);
                if batch.len() == self.batch_size {
                    submit(std::mem::replace(
                        &mut batch,
                        Vec::with_capacity(self.batch_size),
                    ));
                }
            }
        }
        if !batch.is_empty() {
            submit(batch);
        }
        let metrics = proxy.drain_and_join();
        let elapsed = start.elapsed().as_secs_f64();
        let stored_cells = self
            .master
            .nodes()
            .iter()
            .map(|&n| {
                self.master
                    .server(n)
                    .map_or(0, |s| s.total_metrics().cells_written)
            })
            .sum();
        // A batch is forwarded whole or not at all, so every batch
        // forwarded is every sample forwarded.
        let batches = metrics.batches_out.load(Ordering::Relaxed);
        assert_eq!(batches, submitted, "proxy must forward every batch");
        PipelineReport {
            samples,
            elapsed_secs: elapsed,
            throughput: samples as f64 / elapsed,
            stored_cells,
            batches,
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

    /// Shut the cluster down.
    pub fn shutdown(&self) {
        self.master.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_sensorgen::FleetConfig;
    use pga_tsdb::QueryFilter;

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
