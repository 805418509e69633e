//! The TSD daemon: put/query over MiniBase, with RPC accounting and
//! optional write-path row compaction.
//!
//! §III-A: "For storing data, the TSD Daemon takes a metric, timestamp,
//! data value, and tag identifiers as input and produces an entry to be
//! written to an HBase table."
//!
//! §III-B: "Compaction was also disabled on OpenTSDB to reduce RPC calls
//! to HBase." When [`TsdConfig::write_path_compaction`] is on, every
//! series-row rollover triggers a read-modify-write of the finished row
//! (one extra scan RPC + one extra put RPC), exactly the extra chatter the
//! paper eliminated; experiment E8 measures the difference.

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pga_minibase::{Client, ClientError, KeyValue, RowRange};

use crate::block::BlockError;
use crate::codec::KeyCodec;
use crate::query::{
    assemble_columns, assemble_columns_salvage, finish_columns, AssembledColumns, ColumnSeries,
    CorruptBlock, QueryFilter, TimeSeries,
};
use crate::series::Series;

/// One `(tags, timestamp, value)` element of a batched put.
pub type BatchPoint<'a> = (&'a [(&'a str, &'a str)], u64, f64);

/// A batch point after its name was resolved: `(series, timestamp, value)`.
pub type SeriesPoint = (Arc<Series>, u64, f64);

/// Write-path observer: sees every **successfully acknowledged** batch and
/// may derive extra cells (rollup pre-aggregates, indexes) to be persisted
/// alongside the raw data. Derived cells are buffered by the TSD and ride
/// along with the *next* storage RPC, so a failed batch never
/// contributes — the observer only accumulates data the storage layer has
/// acked, and buffered cells are retried until a put succeeds (or
/// [`Tsd::flush_observer`] writes them out).
pub trait PutObserver: Send + Sync {
    /// `points` were durably acknowledged. Returns derived cells now ready
    /// to persist (typically aggregate buckets sealed by this batch's
    /// arrival). Every series comes from one table — the codec's of the
    /// TSD the observer is installed on — so state may be kept by
    /// [`Series::id`].
    fn on_batch(&self, points: &[SeriesPoint]) -> Vec<KeyValue>;

    /// Seal and return every open accumulator (shutdown / idle flush).
    fn flush(&self) -> Vec<KeyValue>;
}

/// TSD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsdConfig {
    /// Enable OpenTSDB-style write-path row compaction (the paper runs
    /// with this **disabled**, so the default is off).
    pub write_path_compaction: bool,
    /// Salvage reads (default **on**): a sealed block failing CRC/decode
    /// is quarantined and its span transparently re-read from a healthy
    /// replica, so the query still answers exactly. Off, the pre-salvage
    /// behaviour: any corrupt block aborts the query with a typed
    /// [`TsdError::Corrupt`] (the E22 benchmark's "before" arm).
    pub salvage_reads: bool,
}

impl Default for TsdConfig {
    fn default() -> Self {
        TsdConfig {
            write_path_compaction: false,
            salvage_reads: true,
        }
    }
}

/// Counters for one TSD daemon.
#[derive(Debug, Default)]
pub struct TsdMetrics {
    /// Data points written.
    pub points_written: AtomicU64,
    /// Put RPCs issued to the storage layer.
    pub put_rpcs: AtomicU64,
    /// Scan RPCs issued to the storage layer.
    pub scan_rpcs: AtomicU64,
    /// Row compactions performed on the write path.
    pub row_compactions: AtomicU64,
    /// Corrupt sealed blocks encountered on the read path.
    pub corrupt_blocks_seen: AtomicU64,
    /// Reads answered exactly by splicing a healthy replica's copy over a
    /// corrupt local block.
    pub salvaged_reads: AtomicU64,
}

impl TsdMetrics {
    /// Total storage RPCs. Approximate under concurrent traffic: the two
    /// counters are independent monotonic totals read for reporting, so
    /// one being a beat ahead of the other is tolerated.
    pub fn total_rpcs(&self) -> u64 {
        // pga-allow(relaxed-atomics): independent monotonic counters; reporting tolerates skew
        self.put_rpcs.load(Ordering::Relaxed) + self.scan_rpcs.load(Ordering::Relaxed)
    }

    /// RPCs per written data point (the E8 ablation metric).
    pub fn rpcs_per_point(&self) -> f64 {
        let points = self.points_written.load(Ordering::Relaxed);
        if points == 0 {
            0.0
        } else {
            self.total_rpcs() as f64 / points as f64
        }
    }
}

/// TSD errors.
#[derive(Debug)]
pub enum TsdError {
    /// Storage-layer failure.
    Storage(ClientError),
    /// A sealed block failed to decode — corrupt storage surfaced as a
    /// typed error instead of a silent wrong answer.
    Corrupt(BlockError),
    /// A put named a timestamp past the last row a key can hold
    /// ([`KeyCodec::max_timestamp`]) — milliseconds where seconds were
    /// meant, typically. Nothing of its batch was written.
    TimestampOutOfRange {
        /// The offending timestamp.
        timestamp: u64,
        /// The last timestamp the row key can hold.
        max: u64,
    },
}

impl std::fmt::Display for TsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsdError::Storage(e) => write!(f, "storage error: {e}"),
            TsdError::Corrupt(e) => write!(f, "corrupt sealed block: {e}"),
            TsdError::TimestampOutOfRange { timestamp, max } => write!(
                f,
                "timestamp {timestamp} out of range: seconds, at most {max}"
            ),
        }
    }
}

impl TsdError {
    /// `true` when a read found a server's queue full (a typed `Busy`) —
    /// safe to retry after the hinted delay.
    pub fn is_busy(&self) -> bool {
        self.retry_after_ms().is_some()
    }

    /// Retry hint carried by a `Busy` rejection, if any.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            TsdError::Storage(e) => e.retry_after_ms(),
            TsdError::Corrupt(_) | TsdError::TimestampOutOfRange { .. } => None,
        }
    }

    /// `true` when the request's deadline expired before service.
    pub fn is_deadline_expired(&self) -> bool {
        matches!(self, TsdError::Storage(ClientError::DeadlineExpired))
    }
}

impl From<ClientError> for TsdError {
    fn from(e: ClientError) -> Self {
        TsdError::Storage(e)
    }
}

/// [`pga_minibase::CellVerifier`] over the sealed-block codec: covers
/// exactly the block-qualifier cells and verifies them by the whole-buffer
/// CRC ([`crate::block::verify_block`]). This is the integrity check the
/// background scrubber walks store files with, and the pre-install gate
/// every replica-fetched repair payload must round-trip.
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockVerifier;

impl pga_minibase::CellVerifier for BlockVerifier {
    fn covers(&self, kv: &KeyValue) -> bool {
        crate::block::is_block_qualifier(&kv.qualifier)
    }

    fn verify(&self, kv: &KeyValue) -> bool {
        crate::block::verify_block(&kv.value).is_ok()
    }
}

/// Shared handle to the sealed-block verifier (what
/// [`pga_minibase::scrub_tick`] and the scrub CLI install).
pub fn block_verifier() -> pga_minibase::VerifierHandle {
    Arc::new(BlockVerifier)
}

/// A TSD daemon bound to one MiniBase client.
pub struct Tsd {
    codec: KeyCodec,
    client: Client,
    config: TsdConfig,
    metrics: Arc<TsdMetrics>,
    /// By series id, the row the series last wrote to: `(row base time,
    /// row key)`. Every cell a series writes in a row-hour shares this one
    /// key buffer, and a series moving off its row is the rollover the
    /// write-path compaction model acts on.
    rows: Mutex<Vec<Option<(u64, Bytes)>>>,
    /// Write-path observer (rollup maintenance), if installed.
    observer: parking_lot::RwLock<Option<Arc<dyn PutObserver>>>,
    /// Observer-derived cells awaiting the next successful put.
    pending_derived: Mutex<Vec<KeyValue>>,
    /// Highest acknowledged write timestamp — the seal watermark. The
    /// compaction rewriter only seals rows wholly below it, so a row with
    /// in-flight writers is never frozen mid-fill.
    seal_watermark: Arc<AtomicU64>,
    /// Quarantine set + scrub counters, shared with the background
    /// scrubber: the read path feeds it on every corrupt block it trips
    /// over, so scrub repair does not wait for the next full walk.
    scrub: Arc<pga_minibase::ScrubState>,
}

impl Tsd {
    /// Create a daemon.
    pub fn new(codec: KeyCodec, client: Client, config: TsdConfig) -> Self {
        Tsd {
            codec,
            client,
            config,
            metrics: Arc::new(TsdMetrics::default()),
            rows: Mutex::new(Vec::new()),
            observer: parking_lot::RwLock::new(None),
            pending_derived: Mutex::new(Vec::new()),
            seal_watermark: Arc::new(AtomicU64::new(0)),
            scrub: pga_minibase::ScrubState::new(),
        }
    }

    /// Shared quarantine/scrub state. Pass the same handle to
    /// [`pga_minibase::scrub_tick`] (or [`Tsd::scrub_tick`]) so
    /// read-path-detected corruption and scrub-walk-detected corruption
    /// drain through one repair queue.
    pub fn scrub_state(&self) -> Arc<pga_minibase::ScrubState> {
        self.scrub.clone()
    }

    /// One background scrub pass over the cluster this daemon is bound
    /// to, using the sealed-block verifier and this daemon's shared
    /// quarantine state. See [`pga_minibase::scrub_tick`].
    pub fn scrub_tick(
        &self,
        master: &pga_minibase::Master,
        fault: &pga_minibase::FaultHandle,
    ) -> pga_minibase::ScrubTickReport {
        pga_minibase::scrub_tick(master, &self.client, &block_verifier(), &self.scrub, fault)
    }

    /// Shared seal-watermark handle: the highest timestamp this daemon has
    /// acknowledged. Wire it into a
    /// [`crate::compact::BlockRewriter`] so compaction only seals rows
    /// every writer has moved past.
    pub fn seal_watermark(&self) -> Arc<AtomicU64> {
        self.seal_watermark.clone()
    }

    /// Build a compaction rewriter wired to this daemon's codec geometry
    /// and seal watermark. Install it on the storage master
    /// (`Master::set_compaction_rewriter`) to enable background sealing of
    /// finished rows into columnar blocks.
    pub fn block_rewriter(&self) -> pga_minibase::RewriterHandle {
        Arc::new(crate::compact::BlockRewriter::new(
            self.codec.config().row_span_secs,
            self.seal_watermark.clone(),
        ))
    }

    /// Flush memstores and major-compact every region, running any
    /// installed compaction rewriter (block sealing) over the result.
    pub fn compact_now(&self) -> Result<(), TsdError> {
        self.client.compact_all().map_err(TsdError::from)
    }

    /// Borrow the codec.
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// Borrow the storage client (read-path subsystems issue their own
    /// scans through it).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Install a write-path observer. At most one; installing replaces
    /// the previous one (pending derived cells are kept — they are
    /// already acknowledged data).
    pub fn set_observer(&self, observer: Arc<dyn PutObserver>) {
        *self.observer.write() = Some(observer);
    }

    /// Seal every open observer accumulator and persist all buffered
    /// derived cells in one put. No-op without an observer or pending
    /// cells. On failure the cells stay buffered for the next attempt.
    pub fn flush_observer(&self) -> Result<(), TsdError> {
        let observer = self.observer.read().clone();
        let mut cells = std::mem::take(&mut *self.pending_derived.lock());
        if let Some(obs) = observer {
            cells.extend(obs.flush());
        }
        if cells.is_empty() {
            return Ok(());
        }
        // pga-allow(lock-discipline): the observer read guard above is a temporary dropped at its own statement; only the cloned Arc reaches this put
        match self.client.put(cells.clone()) {
            Ok(_) => {
                self.metrics.put_rpcs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                let mut pending = self.pending_derived.lock();
                cells.append(&mut pending);
                *pending = cells;
                Err(e.into())
            }
        }
    }

    /// Shared metrics handle.
    pub fn metrics(&self) -> Arc<TsdMetrics> {
        self.metrics.clone()
    }

    /// `Err` for a timestamp past the last row a key can hold. A put
    /// checks its whole batch with this before it writes anything.
    pub fn check_timestamp(&self, timestamp: u64) -> Result<(), TsdError> {
        let max = self.codec.max_timestamp();
        if timestamp > max {
            return Err(TsdError::TimestampOutOfRange { timestamp, max });
        }
        Ok(())
    }

    /// Write one data point.
    pub fn put(
        &self,
        metric: &str,
        tags: &[(&str, &str)],
        timestamp: u64,
        value: f64,
    ) -> Result<(), TsdError> {
        self.put_batch(metric, &[(tags, timestamp, value)])
    }

    /// Write a batch of points of one metric in a single storage RPC
    /// per region (OpenTSDB's batched `put`). Each element is
    /// `(tags, timestamp, value)`.
    pub fn put_batch(&self, metric: &str, points: &[BatchPoint<'_>]) -> Result<(), TsdError> {
        if points.is_empty() {
            return Ok(());
        }
        for &(_, timestamp, _) in points {
            self.check_timestamp(timestamp)?;
        }
        let resolved: Vec<SeriesPoint> = points
            .iter()
            .map(|&(tags, ts, value)| (self.codec.resolve(metric, tags), ts, value))
            .collect();
        let (mut kvs, finished) = self.raw_cells(&resolved);
        if self.config.write_path_compaction {
            for row in finished {
                self.compact_row(row)?;
            }
        }
        let n = kvs.len() as u64;
        // Derived cells buffered by the observer ride along with this RPC.
        let carried: Vec<KeyValue> = std::mem::take(&mut *self.pending_derived.lock());
        let carried_n = carried.len();
        kvs.extend(carried.iter().cloned());
        if let Err(e) = self.client.put(kvs) {
            // Re-buffer the derived cells (ahead of any buffered since);
            // the raw batch itself is the caller's to retry.
            if carried_n > 0 {
                let mut pending = self.pending_derived.lock();
                let mut restored = carried;
                restored.append(&mut pending);
                *pending = restored;
            }
            return Err(e.into());
        }
        self.metrics.put_rpcs.fetch_add(1, Ordering::Relaxed);
        self.metrics.points_written.fetch_add(n, Ordering::Relaxed);
        if let Some(max_ts) = points.iter().map(|&(_, ts, _)| ts).max() {
            self.seal_watermark.fetch_max(max_ts, Ordering::AcqRel);
        }
        // Only acknowledged points reach the observer: a failed batch
        // above returned early, so a proxy retrying it elsewhere
        // cannot double-count its contribution.
        let observer = self.observer.read().clone();
        if let Some(obs) = observer {
            let sealed = obs.on_batch(&resolved);
            if !sealed.is_empty() {
                self.pending_derived.lock().extend(sealed);
            }
        }
        Ok(())
    }

    /// The raw cell of every point, plus the rows a series of the batch
    /// moved off (its previous row-hour, finished unless data arrives
    /// late). A cell takes its row key from the series' slot in `rows`;
    /// only the first cell of a series in a row-hour builds one.
    fn raw_cells(&self, points: &[SeriesPoint]) -> (Vec<KeyValue>, Vec<Bytes>) {
        let span = self.codec.config().row_span_secs;
        let mut kvs = Vec::with_capacity(points.len());
        let mut finished = Vec::new();
        let mut rows = self.rows.lock();
        for (series, ts, value) in points {
            let (id, base) = (series.id() as usize, ts - ts % span);
            if rows.len() <= id {
                rows.resize(id + 1, None);
            }
            let row = match &rows[id] {
                Some((open, row)) if *open == base => row.clone(),
                _ => {
                    let row = self.codec.row_of(series, base);
                    if let Some((_, previous)) = rows[id].replace((base, row.clone())) {
                        finished.push(previous);
                    }
                    row
                }
            };
            kvs.push(KeyValue::new(
                row,
                self.codec.qualifier(*ts),
                ts * 1000,
                self.codec.value(*value),
            ));
        }
        (kvs, finished)
    }

    /// The write-path compaction model: read a finished row back and
    /// rewrite it as one consolidated cell.
    fn compact_row(&self, row: Bytes) -> Result<(), TsdError> {
        let mut end = row.to_vec();
        end.push(0);
        let cells = self.client.scan(&RowRange::new(row.clone(), end))?;
        self.metrics.scan_rpcs.fetch_add(1, Ordering::Relaxed);
        if cells.is_empty() {
            return Ok(());
        }
        // Qualifier 0xFFFF marks a compacted column, mirroring OpenTSDB's
        // wide column.
        let mut blob = Vec::with_capacity(cells.len() * 10);
        for c in &cells {
            blob.extend_from_slice(&c.qualifier);
            blob.extend_from_slice(&c.value);
        }
        self.client.put(vec![KeyValue::new(
            row,
            Bytes::copy_from_slice(&[0xFF, 0xFF]),
            u64::MAX / 2,
            blob,
        )])?;
        self.metrics.put_rpcs.fetch_add(1, Ordering::Relaxed);
        self.metrics.row_compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Query `[start, end]` of one metric, filtered by tags, grouped into
    /// one series per distinct tag combination, points ascending.
    ///
    /// Block-aware: sealed columnar blocks and the mutable raw tail are
    /// spliced into one answer (raw wins where the two overlap). A block
    /// that fails to decode is a typed [`TsdError::Corrupt`], never a
    /// silent hole.
    pub fn query(
        &self,
        metric: &str,
        filter: &QueryFilter,
        start: u64,
        end: u64,
    ) -> Result<Vec<TimeSeries>, TsdError> {
        Ok(self
            .query_columns(metric, filter, start, end)?
            .iter()
            .map(ColumnSeries::to_series)
            .collect())
    }

    /// [`Tsd::query`] in columnar form: flat timestamp/value slices per
    /// series, the shape the batch detector kernels consume directly.
    ///
    /// The tag filter runs at assembly, after the scan: every series of
    /// the metric comes back from the region servers, where the serving
    /// engine (`pga-query`) sends [`KeyCodec::row_words`] with its scans.
    /// That is deliberate. This read is the unfiltered reference the
    /// engine's answers are tested against, and the benchmark ladder nests
    /// it under the whole-range client scan (`tsdb.query_columns ≥ 0.8 ×
    /// minibase.client_scan`); it can take the filter once that rung is
    /// redefined.
    pub fn query_columns(
        &self,
        metric: &str,
        filter: &QueryFilter,
        start: u64,
        end: u64,
    ) -> Result<Vec<ColumnSeries>, TsdError> {
        let mut assembled = AssembledColumns::new();
        let mut corrupt: Vec<CorruptBlock> = Vec::new();
        // Segments come back in row order (salt, then base time), so the
        // cells reach assembly in storage scan order one segment at a time.
        for salt in self.codec.salt_range() {
            for segment in self.codec.scan_segments(salt, metric, start, end) {
                let cells = self.client.scan_spec(&segment)?;
                self.metrics.scan_rpcs.fetch_add(1, Ordering::Relaxed);
                if self.config.salvage_reads {
                    assemble_columns_salvage(
                        &self.codec,
                        &cells,
                        filter,
                        start,
                        end,
                        &mut assembled,
                        &mut corrupt,
                    );
                } else {
                    assemble_columns(&self.codec, &cells, filter, start, end, &mut assembled)
                        .map_err(TsdError::Corrupt)?;
                }
            }
        }
        self.salvage_corrupt_blocks(corrupt, start, end, &mut assembled)?;
        Ok(finish_columns(metric, assembled))
    }

    /// Replica-backed read salvage: every corrupt block the assembly
    /// reported is quarantined (the scrubber repairs it in the
    /// background), and its span is re-read from the region's other
    /// copies right now so *this* query still answers exactly. Only when
    /// no copy decodes does the original typed error surface — partial
    /// silence is never an option.
    fn salvage_corrupt_blocks(
        &self,
        corrupt: Vec<CorruptBlock>,
        start: u64,
        end: u64,
        assembled: &mut AssembledColumns,
    ) -> Result<(), TsdError> {
        for cb in corrupt {
            self.metrics
                .corrupt_blocks_seen
                .fetch_add(1, Ordering::Relaxed);
            self.scrub.quarantine(
                Bytes::copy_from_slice(&cb.row),
                Bytes::copy_from_slice(&cb.qualifier),
            );
            let mut row_end = cb.row.clone();
            row_end.push(0);
            let copies = self
                .client
                .repair_fetch(&RowRange::new(cb.row.clone(), row_end));
            let mut healed = false;
            for copy in &copies {
                let Some(cell) = copy
                    .cells
                    .iter()
                    .find(|kv| kv.row == cb.row[..] && kv.qualifier == cb.qualifier[..])
                else {
                    continue;
                };
                let Ok(decoded) = crate::block::decode_block(&cell.value) else {
                    continue;
                };
                // Splice the healthy copy's windowed points in. They are
                // appended *after* everything assembly produced, so at a
                // duplicate timestamp the local raw cell still wins
                // (canonicalization keeps the first point in push order).
                let (timestamps, values) = assembled.entry(cb.tags.clone()).or_default();
                for (&ts, &v) in decoded.timestamps.iter().zip(decoded.values.iter()) {
                    if ts >= start && ts <= end {
                        timestamps.push(ts);
                        values.push(v);
                    }
                }
                healed = true;
                self.metrics.salvaged_reads.fetch_add(1, Ordering::Relaxed);
                break;
            }
            if !healed {
                return Err(TsdError::Corrupt(cb.error));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::KeyCodecConfig;
    use crate::uid::UidTable;
    use bytes::Bytes;
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{Master, RegionConfig, ServerConfig, TableDescriptor};

    fn tsd(nodes: usize, salt_buckets: u8, compaction: bool) -> (Master, Tsd) {
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
        let t = Tsd::new(
            codec,
            client,
            TsdConfig {
                write_path_compaction: compaction,
                ..TsdConfig::default()
            },
        );
        (master, t)
    }

    #[test]
    fn put_query_roundtrip() {
        let (m, t) = tsd(3, 8, false);
        for ts in 0..10u64 {
            t.put("energy", &[("unit", "1"), ("sensor", "2")], ts, ts as f64)
                .unwrap();
        }
        let series = t.query("energy", &QueryFilter::any(), 0, 100).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points.len(), 10);
        assert_eq!(series[0].points[3].value, 3.0);
        assert_eq!(series[0].tags.get("unit").unwrap(), "1");
        m.shutdown();
    }

    #[test]
    fn query_filters_by_tag() {
        let (m, t) = tsd(2, 4, false);
        t.put("energy", &[("unit", "1"), ("sensor", "a")], 5, 1.0)
            .unwrap();
        t.put("energy", &[("unit", "2"), ("sensor", "a")], 5, 2.0)
            .unwrap();
        t.put("energy", &[("unit", "1"), ("sensor", "b")], 5, 3.0)
            .unwrap();
        let unit1 = t
            .query("energy", &QueryFilter::any().with("unit", "1"), 0, 10)
            .unwrap();
        assert_eq!(unit1.len(), 2);
        let s_a = t
            .query(
                "energy",
                &QueryFilter::any().with("unit", "1").with("sensor", "a"),
                0,
                10,
            )
            .unwrap();
        assert_eq!(s_a.len(), 1);
        assert_eq!(s_a[0].points[0].value, 1.0);
        m.shutdown();
    }

    #[test]
    fn query_time_window_is_inclusive() {
        let (m, t) = tsd(1, 2, false);
        for ts in [10u64, 20, 30] {
            t.put("energy", &[("unit", "1")], ts, ts as f64).unwrap();
        }
        let s = t.query("energy", &QueryFilter::any(), 10, 20).unwrap();
        assert_eq!(s[0].points.len(), 2);
        m.shutdown();
    }

    #[test]
    fn unknown_metric_returns_empty() {
        let (m, t) = tsd(1, 2, false);
        assert!(t
            .query("nope", &QueryFilter::any(), 0, 10)
            .unwrap()
            .is_empty());
        m.shutdown();
    }

    #[test]
    fn batch_put_counts_one_rpc() {
        let (m, t) = tsd(2, 4, false);
        let tags: &[(&str, &str)] = &[("unit", "1"), ("sensor", "1")];
        let points: Vec<BatchPoint> = (0..50u64).map(|ts| (tags, ts, 1.0)).collect();
        t.put_batch("energy", &points).unwrap();
        let metrics = t.metrics();
        assert_eq!(metrics.points_written.load(Ordering::Relaxed), 50);
        assert_eq!(metrics.put_rpcs.load(Ordering::Relaxed), 1);
        m.shutdown();
    }

    #[test]
    fn write_path_compaction_adds_rpcs_on_rollover() {
        let (m, t) = tsd(1, 2, true);
        let tags = [("unit", "1"), ("sensor", "1")];
        // Fill two consecutive hourly rows.
        for ts in [100u64, 200, 3700, 3800, 7300] {
            t.put("energy", &tags, ts, 1.0).unwrap();
        }
        let metrics = t.metrics();
        assert_eq!(metrics.row_compactions.load(Ordering::Relaxed), 2);
        assert!(metrics.scan_rpcs.load(Ordering::Relaxed) >= 2);
        // Data is still fully queryable after compaction rewrites.
        let s = t.query("energy", &QueryFilter::any(), 0, 10_000).unwrap();
        assert_eq!(s[0].points.len(), 5);
        m.shutdown();
    }

    #[test]
    fn compaction_disabled_keeps_rpcs_near_one_per_batch() {
        let (m, t) = tsd(1, 2, false);
        let tags = [("unit", "1"), ("sensor", "1")];
        for ts in [100u64, 3700, 7300, 10900] {
            t.put("energy", &tags, ts, 1.0).unwrap();
        }
        let metrics = t.metrics();
        assert_eq!(metrics.row_compactions.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.scan_rpcs.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.put_rpcs.load(Ordering::Relaxed), 4);
        m.shutdown();
    }

    #[test]
    fn salted_writes_touch_many_servers() {
        let (m, t) = tsd(4, 8, false);
        for unit in 0..40 {
            let u = unit.to_string();
            t.put("energy", &[("unit", &u), ("sensor", "0")], 0, 1.0)
                .unwrap();
        }
        let mut busy = 0;
        for node in m.nodes() {
            if m.server(node).unwrap().total_metrics().cells_written > 0 {
                busy += 1;
            }
        }
        assert!(busy >= 3, "expected most servers busy, got {busy}");
        m.shutdown();
    }

    #[test]
    fn unsalted_writes_hotspot_one_server() {
        let (m, t) = tsd(4, 0, false);
        for unit in 0..40 {
            let u = unit.to_string();
            t.put("energy", &[("unit", &u), ("sensor", "0")], 0, 1.0)
                .unwrap();
        }
        let writes: Vec<u64> = m
            .nodes()
            .iter()
            .map(|&n| m.server(n).unwrap().total_metrics().cells_written)
            .collect();
        let busy = writes.iter().filter(|&&w| w > 0).count();
        assert_eq!(busy, 1, "unsalted keys must land on one region: {writes:?}");
        m.shutdown();
    }

    #[test]
    fn compacted_blob_column_is_skipped_by_queries() {
        let (m, t) = tsd(1, 2, true);
        let tags = [("unit", "9")];
        t.put("energy", &tags, 10, 5.0).unwrap();
        t.put("energy", &tags, 3700, 6.0).unwrap(); // rollover compacts row 0
        let s = t.query("energy", &QueryFilter::any(), 0, 4000).unwrap();
        assert_eq!(s.len(), 1);
        let vals: Vec<f64> = s[0].points.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![5.0, 6.0]);
        m.shutdown();
    }

    #[test]
    fn late_write_after_seal_wins_on_requery() {
        let (mut m, t) = tsd(1, 2, false);
        m.set_compaction_rewriter(t.block_rewriter());
        let tags = [("unit", "7")];
        for ts in [10u64, 20, 30] {
            t.put("energy", &tags, ts, ts as f64).unwrap();
        }
        // Advance the watermark past row 0 and seal it.
        t.put("energy", &tags, 4000, 0.0).unwrap();
        t.compact_now().unwrap();
        // A late raw write into the sealed row must override the block.
        t.put("energy", &tags, 20, 99.0).unwrap();
        let s = t.query("energy", &QueryFilter::any(), 0, 100).unwrap();
        let vals: Vec<f64> = s[0].points.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![10.0, 99.0, 30.0]);
        // Re-sealing folds the late write in.
        t.compact_now().unwrap();
        let s2 = t.query("energy", &QueryFilter::any(), 0, 100).unwrap();
        assert_eq!(s, s2);
        m.shutdown();
    }

    #[test]
    fn split_points_bytes_are_salt_aligned() {
        let (m, t) = tsd(2, 4, false);
        let pts = t.codec().split_points();
        assert_eq!(
            pts,
            vec![
                Bytes::copy_from_slice(&[1]),
                Bytes::copy_from_slice(&[2]),
                Bytes::copy_from_slice(&[3]),
            ]
        );
        m.shutdown();
    }
}
