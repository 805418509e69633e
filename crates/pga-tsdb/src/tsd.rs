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
//!
//! Every cell the TSD writes lies in the columns of a [`PutBatch`]: a
//! put's raw cells, the derived cells its [`PutObserver`] seals (buffered
//! in one batch until a put carries them) and the compaction model's
//! consolidated cell.

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pga_minibase::{CellRef, Client, ClientError, PutBatch, RowRange};

use crate::block::BlockError;
use crate::codec::KeyCodec;
use crate::query::{Assembler, ColumnSeries, QueryFilter, SeriesPoints, TimeSeries};
use crate::runs::{SeriesPoint, SeriesRuns};

/// One `(tags, timestamp, value)` element of a batched put.
pub type BatchPoint<'a> = (&'a [(&'a str, &'a str)], u64, f64);

/// Write-path observer: sees every **successfully acknowledged** batch and
/// may derive extra cells (rollup pre-aggregates, indexes) to be persisted
/// alongside the raw data. Derived cells come back as a [`PutBatch`], the
/// form every cell takes below the TSD. The TSD buffers them, in one batch,
/// and they ride along with the *next* storage RPC, so a failed batch
/// never contributes — the observer only accumulates data the storage
/// layer has acked, and buffered cells are retried until a put succeeds
/// (or [`Tsd::flush_observer`] writes them out). The TSD holds no lock
/// while an observer runs.
pub trait PutObserver: Send + Sync {
    /// `runs` were durably acknowledged: the put's points, one run per
    /// series, each series' points in the order they arrived (the order
    /// of the runs themselves is the put's, not the series'). Returns
    /// derived cells now ready to persist (typically aggregate buckets
    /// sealed by this batch's arrival). Every series comes from one table
    /// — the codec's of the TSD the observer is installed on — so state
    /// may be kept by [`crate::Series::id`], and looked up once a run.
    fn on_batch(&self, runs: &SeriesRuns) -> PutBatch;

    /// Seal and return every open accumulator (shutdown / idle flush).
    fn flush(&self) -> PutBatch;
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
    /// A resolved put named a series of another codec's series table,
    /// whose id means a different series here, or an id no series of the
    /// table has. Nothing of its batch was written.
    ForeignSeries,
    /// A put named a point with more tags than a row key can hold
    /// ([`KeyCodec::max_tags`]): its key would be longer than the storage
    /// layer can log. Nothing of its batch was written.
    TooManyTags {
        /// The point's tag count.
        tags: usize,
        /// The most a row key holds.
        max: usize,
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
            TsdError::ForeignSeries => {
                write!(f, "series resolved through another codec's series table")
            }
            TsdError::TooManyTags { tags, max } => {
                write!(f, "{tags} tags: a row key holds at most {max}")
            }
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
            TsdError::Corrupt(_)
            | TsdError::TimestampOutOfRange { .. }
            | TsdError::ForeignSeries
            | TsdError::TooManyTags { .. } => None,
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
    fn covers(&self, cell: CellRef<'_>) -> bool {
        crate::block::is_block_qualifier(cell.qualifier)
    }

    fn verify(&self, cell: CellRef<'_>) -> bool {
        crate::block::verify_block(cell.value).is_ok()
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
    /// [`Tsd::put_batch`]'s runs, kept between puts so grouping a steady
    /// put allocates nothing; a put beside another one groups into its own.
    put_runs: Mutex<Option<SeriesRuns>>,
    /// Write-path observer (rollup maintenance), if installed.
    observer: parking_lot::RwLock<Option<Arc<dyn PutObserver>>>,
    /// Observer-derived cells awaiting the next successful put, in the
    /// order they were sealed.
    pending_derived: Mutex<PutBatch>,
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
            put_runs: Mutex::new(None),
            observer: parking_lot::RwLock::new(None),
            pending_derived: Mutex::default(),
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
        if let Some(obs) = observer {
            let sealed = obs.flush();
            self.pending_derived.lock().append(sealed);
        }
        self.put_with_derived(PutBatch::new())
    }

    /// Put `batch` with the buffered derived cells after it, in a single
    /// storage RPC per region; nothing to put is no RPC. The put's batch
    /// copies the derived cells: if it fails they are buffered again,
    /// ahead of any sealed since, and `batch` itself is the caller's to
    /// retry.
    fn put_with_derived(&self, mut batch: PutBatch) -> Result<(), TsdError> {
        let carried = std::mem::take(&mut *self.pending_derived.lock());
        batch.extend_from(&carried);
        if batch.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.client.put(batch) {
            let mut pending = self.pending_derived.lock();
            let since = std::mem::replace(&mut *pending, carried);
            pending.append(since);
            return Err(e.into());
        }
        self.metrics.put_rpcs.fetch_add(1, Ordering::Relaxed);
        Ok(())
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

    /// `Err` for a point with more tags than a row key can hold. A put
    /// checks its whole batch with this before it writes anything.
    pub fn check_tags(&self, tags: usize) -> Result<(), TsdError> {
        let max = KeyCodec::max_tags();
        if tags > max {
            return Err(TsdError::TooManyTags { tags, max });
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
    /// `(tags, timestamp, value)`; each name is resolved through the
    /// codec, the points are grouped into runs ([`SeriesRuns::group`]),
    /// and the runs are [`Tsd::put_series_batch`]'s.
    pub fn put_batch(&self, metric: &str, points: &[BatchPoint<'_>]) -> Result<(), TsdError> {
        // A batch that cannot be written interns none of its names.
        for &(tags, timestamp, _) in points {
            self.check_timestamp(timestamp)?;
            self.check_tags(tags.len())?;
        }
        let resolved: Vec<SeriesPoint> = points
            .iter()
            .map(|&(tags, ts, value)| (self.codec.resolve(metric, tags).id(), ts, value))
            .collect();
        let mut runs = self.put_runs.lock().take().unwrap_or_default();
        let put = runs
            .group(&self.codec, [&resolved[..]])
            .and_then(|()| self.put_series_batch(&runs));
        *self.put_runs.lock() = Some(runs);
        put
    }

    /// Write a put's points, grouped into series runs through this
    /// daemon's codec or a clone of it ([`SeriesRuns::group`]), in a single
    /// storage RPC per region. The put is refused whole, before anything is
    /// written, for a timestamp past [`KeyCodec::max_timestamp`] or a
    /// series of another codec's table ([`TsdError::ForeignSeries`]).
    pub fn put_series_batch(&self, runs: &SeriesRuns) -> Result<(), TsdError> {
        let mut newest = None;
        for run in runs.iter() {
            if !self.codec.owns(run.series) {
                return Err(TsdError::ForeignSeries);
            }
            let last = run.timestamps.iter().copied().max();
            if let Some(last) = last {
                self.check_timestamp(last)?;
            }
            newest = newest.max(last);
        }
        let Some(newest) = newest else {
            return Ok(());
        };
        let (batch, finished) = self.raw_cells(runs);
        if self.config.write_path_compaction {
            for row in finished {
                self.compact_row(row)?;
            }
        }
        let n = batch.len() as u64;
        // Derived cells buffered by the observer ride along with this RPC.
        self.put_with_derived(batch)?;
        self.metrics.points_written.fetch_add(n, Ordering::Relaxed);
        self.seal_watermark.fetch_max(newest, Ordering::AcqRel);
        // Only acknowledged points reach the observer: a failed batch
        // above returned early, so a proxy retrying it elsewhere
        // cannot double-count its contribution.
        let observer = self.observer.read().clone();
        if let Some(obs) = observer {
            let sealed = obs.on_batch(runs);
            self.pending_derived.lock().append(sealed);
        }
        Ok(())
    }

    /// The raw cell of every point, as one batch of row runs, plus the
    /// rows a series of the put moved off (its previous row-hour,
    /// finished unless data arrives late). A cell is its qualifier's two
    /// bytes, its version and its value's eight bytes, each written into
    /// its column of the batch: nothing is allocated or looked up per
    /// point.
    ///
    /// Cells come out in the put's series runs, so neighbouring cells
    /// share a row: a batch run per series and row-hour, which a region
    /// finds once ([`pga_minibase::MemStore::put_batch`]), and a key
    /// written twice keeps its later value. Each series run looks up its
    /// slot in `rows` once, and again only where its points change
    /// row-hour; only the first cell of a series in a row-hour builds a
    /// row key.
    fn raw_cells(&self, runs: &SeriesRuns) -> (PutBatch, Vec<Bytes>) {
        let span = self.codec.config().row_span_secs;
        let points = runs.points();
        let qualifier_bytes = points * std::mem::size_of::<u16>();
        let value_bytes = points * std::mem::size_of::<f64>();
        let mut batch = PutBatch::with_capacity(runs.len(), points, qualifier_bytes, value_bytes);
        let mut finished = Vec::new();
        let mut rows = self.rows.lock();
        for run in runs.iter() {
            let id = run.series.id() as usize;
            if rows.len() <= id {
                rows.resize(id + 1, None);
            }
            let slot = &mut rows[id];
            let mut at = 0;
            // One stretch of the run's points a row-hour.
            while let Some(&first) = run.timestamps.get(at) {
                let base = first - first % span;
                if slot.as_ref().is_some_and(|(open, _)| *open != base) {
                    finished.extend(slot.take().map(|(_, row)| row));
                }
                let (_, row) =
                    slot.get_or_insert_with(|| (base, self.codec.row_of(run.series, base)));
                for (&ts, &value) in run.timestamps[at..].iter().zip(&run.values[at..]) {
                    if ts.wrapping_sub(base) >= span {
                        break;
                    }
                    let qualifier = self.codec.qualifier_bytes(ts);
                    batch.push(row, &qualifier, ts * 1000, &self.codec.value_bytes(value));
                    at += 1;
                }
            }
        }
        (batch, finished)
    }

    /// The write-path compaction model: read a finished row back, through
    /// views of the scanned cells, and rewrite it as one consolidated
    /// cell.
    fn compact_row(&self, row: Bytes) -> Result<(), TsdError> {
        let mut end = row.to_vec();
        end.push(0);
        let cells = self
            .client
            .scan_spec(&RowRange::new(row.clone(), end).into())?;
        self.metrics.scan_rpcs.fetch_add(1, Ordering::Relaxed);
        if cells.is_empty() {
            return Ok(());
        }
        // Qualifier 0xFFFF marks a compacted column, mirroring OpenTSDB's
        // wide column.
        let mut blob = Vec::with_capacity(cells.len() * 10);
        for c in &cells {
            blob.extend_from_slice(c.qualifier);
            blob.extend_from_slice(c.value);
        }
        let mut batch = PutBatch::new();
        batch.push(&row, &[0xFF, 0xFF], u64::MAX / 2, &blob);
        self.client.put(batch)?;
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
            .assemble(metric, filter, start, end)?
            .into_iter()
            .map(|(series, points)| TimeSeries {
                metric: metric.to_string(),
                tags: series.tags().iter().cloned().collect(),
                points,
            })
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
        Ok(self
            .assemble(metric, filter, start, end)?
            .into_iter()
            .map(|(series, points)| ColumnSeries {
                metric: metric.to_string(),
                tags: series.tags().iter().cloned().collect(),
                timestamps: points.iter().map(|p| p.timestamp).collect(),
                values: points.iter().map(|p| p.value).collect(),
            })
            .collect())
    }

    /// The series and points of [`Tsd::query`], in answer order.
    fn assemble(
        &self,
        metric: &str,
        filter: &QueryFilter,
        start: u64,
        end: u64,
    ) -> Result<Vec<SeriesPoints>, TsdError> {
        let window = [(start, end)];
        let mut assembler = Assembler::new(&self.codec, filter, &window);
        // Segments come back in row order (salt, then base time), so the
        // cells reach assembly in storage scan order one segment at a time.
        for salt in self.codec.salt_range() {
            for segment in self.codec.scan_segments(salt, metric, start, end) {
                let cells = self.client.scan_spec(&segment)?;
                self.metrics.scan_rpcs.fetch_add(1, Ordering::Relaxed);
                assembler.add(&cells);
                if let Some(cb) = assembler.corrupt().first() {
                    if !self.config.salvage_reads {
                        return Err(TsdError::Corrupt(cb.error.clone()));
                    }
                }
            }
        }
        // Salvage: quarantine each corrupt block for the scrubber, and
        // re-read it from another copy now so this query still answers
        // exactly. Only a block no copy heals fails it, with a typed error.
        let corrupt = assembler.corrupt();
        if !corrupt.is_empty() {
            let seen = corrupt.len() as u64;
            self.metrics
                .corrupt_blocks_seen
                .fetch_add(seen, Ordering::Relaxed);
            for cb in corrupt {
                self.scrub.quarantine(
                    Bytes::copy_from_slice(&cb.row),
                    Bytes::copy_from_slice(&cb.qualifier),
                );
            }
            let unhealed = assembler.salvage(&self.client);
            self.metrics
                .salvaged_reads
                .fetch_add(seen - unhealed.len() as u64, Ordering::Relaxed);
            if let Some(cb) = unhealed.into_iter().next() {
                return Err(TsdError::Corrupt(cb.error));
            }
        }
        Ok(assembler.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::KeyCodecConfig;
    use crate::uid::UidTable;
    use bytes::Bytes;
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{KeyValue, Master, RegionConfig, ServerConfig, TableDescriptor};

    fn tsd(nodes: usize, salt_buckets: u8, compaction: bool) -> (Master, Tsd) {
        let config = KeyCodecConfig {
            salt_buckets,
            row_span_secs: 3600,
        };
        tsd_over(KeyCodec::new(config, UidTable::new()), nodes, compaction)
    }

    fn tsd_over(codec: KeyCodec, nodes: usize, compaction: bool) -> (Master, Tsd) {
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

    /// Derived cells a failed put could not write stay buffered, ahead of
    /// any the observer seals later, for the next put or flush to carry.
    #[test]
    fn a_failed_observer_flush_re_buffers_its_cells() {
        struct Sealed(Mutex<PutBatch>);
        impl PutObserver for Sealed {
            fn on_batch(&self, _runs: &SeriesRuns) -> PutBatch {
                PutBatch::new()
            }
            fn flush(&self) -> PutBatch {
                std::mem::take(&mut *self.0.lock())
            }
        }
        let (m, t) = tsd(2, 2, false);
        let cell = |q: u8| KeyValue::new(vec![0u8, q], vec![q, 0, 0, 0], 1, vec![q; 40]);
        t.set_observer(Arc::new(Sealed(Mutex::new(PutBatch::from(vec![
            cell(1),
            cell(2),
        ])))));
        *t.pending_derived.lock() = PutBatch::from(vec![cell(0)]);
        m.shutdown();
        assert!(t.flush_observer().is_err());
        let pending = t.pending_derived.lock().clone().into_kvs();
        assert_eq!(pending, vec![cell(0), cell(1), cell(2)]);
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

    /// The runs of `points`, grouped through `codec`.
    fn runs(codec: &KeyCodec, points: &[SeriesPoint]) -> SeriesRuns {
        let mut runs = SeriesRuns::new();
        runs.group(codec, [points]).unwrap();
        runs
    }

    /// Series ids are local to one table: a series resolved through
    /// another codec would index this daemon's row slots and observer
    /// state as a different series. The put is refused whole.
    #[test]
    fn a_series_of_another_table_is_refused_before_anything_is_written() {
        struct Counting(AtomicU64);
        impl PutObserver for Counting {
            fn on_batch(&self, _: &SeriesRuns) -> PutBatch {
                self.0.fetch_add(1, Ordering::Relaxed);
                PutBatch::new()
            }
            fn flush(&self) -> PutBatch {
                PutBatch::new()
            }
        }
        let stacks = [tsd(2, 4, false), tsd(2, 4, false)];
        let observers: Vec<Arc<Counting>> = stacks
            .iter()
            .map(|(_, t)| {
                let observer = Arc::new(Counting(AtomicU64::new(0)));
                t.set_observer(observer.clone());
                observer
            })
            .collect();
        let [(ma, a), (mb, b)] = &stacks;
        let own = a
            .codec()
            .resolve("energy", &[("unit", "1"), ("sensor", "2")]);
        let theirs = b
            .codec()
            .resolve("energy", &[("unit", "7"), ("sensor", "9")]);
        let (ours, foreign) = (a.codec(), b.codec());
        a.put_series_batch(&runs(ours, &[(own.id(), 5, 1.0)]))
            .unwrap();
        b.put_series_batch(&runs(foreign, &[(theirs.id(), 5, 2.0)]))
            .unwrap();
        // Both are the first series of their table.
        assert_eq!((own.id(), theirs.id()), (0, 0));
        let state = |t: &Tsd, observer: &Counting| {
            let m = t.metrics();
            (
                t.query("energy", &QueryFilter::any(), 0, 100).unwrap(),
                m.points_written.load(Ordering::Relaxed),
                m.put_rpcs.load(Ordering::Relaxed),
                t.seal_watermark().load(Ordering::Relaxed),
                observer.0.load(Ordering::Relaxed),
            )
        };
        let before = [state(a, &observers[0]), state(b, &observers[1])];
        for ts in [6, 7] {
            let theirs = runs(foreign, &[(theirs.id(), ts, 3.0)]);
            let err = a.put_series_batch(&theirs).unwrap_err();
            assert!(matches!(err, TsdError::ForeignSeries), "{err}");
            let own = runs(ours, &[(own.id(), ts, 6.0)]);
            let err = b.put_series_batch(&own).unwrap_err();
            assert!(matches!(err, TsdError::ForeignSeries), "{err}");
        }
        let after = [state(a, &observers[0]), state(b, &observers[1])];
        assert_eq!(after, before, "nothing written to either store");
        ma.shutdown();
        mb.shutdown();
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
            if m.server(node).unwrap().published_totals().cells_written > 0 {
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
            .map(|&n| m.server(n).unwrap().published_totals().cells_written)
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

    /// A 2-byte qualifier holds the offsets below the `0xFFFF` compacted
    /// column marker. A longer row span would wrap its offsets into wrong
    /// timestamps, and offset 65 535 would read as that marker, which
    /// queries skip and compaction never seals.
    #[test]
    fn a_row_span_the_qualifier_cannot_hold_is_refused() {
        let config = |row_span_secs| KeyCodecConfig {
            salt_buckets: 2,
            row_span_secs,
        };
        for span in [0, 65_536, 100_000] {
            let made = std::panic::catch_unwind(|| KeyCodec::new(config(span), UidTable::new()));
            assert!(made.is_err(), "a span of {span} s is refused");
        }
        let codec = KeyCodec::new(config(65_535), UidTable::new());
        let (m, t) = tsd_over(codec, 1, false);
        let tags = [("unit", "1")];
        let last = 2 * 65_535 - 1; // offset 65 534 of the second row
        for ts in [0, 65_534, 65_535, last] {
            t.put("energy", &tags, ts, ts as f64).unwrap();
        }
        assert_eq!(&t.codec().qualifier(last)[..], &[0xFF, 0xFE]);
        let s = t.query("energy", &QueryFilter::any(), 0, last).unwrap();
        let read: Vec<(u64, f64)> = s[0].points.iter().map(|p| (p.timestamp, p.value)).collect();
        assert_eq!(
            read,
            [0, 65_534, 65_535, last].map(|ts| (ts, ts as f64)),
            "every offset reads back"
        );
        let s = t.query("energy", &QueryFilter::any(), last, last).unwrap();
        assert_eq!(s[0].points.len(), 1, "a window ending on the last offset");
        m.shutdown();
    }

    /// A put whose points interleave series stores — and, after its
    /// server dies, replays from its WAL — the cells the same points
    /// ordered by series store, a key written twice keeping its last
    /// value either way.
    #[test]
    fn interleaved_and_series_ordered_puts_store_and_replay_the_same_cells() {
        use pga_cluster::NodeId;
        let names: Vec<[(&str, &str); 2]> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|s| [("unit", "1"), ("sensor", *s)])
            .collect();
        // Tick-major, as a fleet sends them; series 1 writes tick 3 twice.
        let mut arrived: Vec<(usize, u64, f64)> = Vec::new();
        for ts in [3590, 3599, 3600, 3601] {
            for s in 0..names.len() {
                arrived.push((s, ts, (s * 10_000) as f64 + ts as f64));
            }
        }
        arrived.push((1, 3599, -1.0));
        arrived.push((4, 3590, -2.0));
        let mut by_series = arrived.clone();
        by_series.sort_by_key(|&(s, ..)| s); // stable: arrival order kept
        let cells_after = |points: &[(usize, u64, f64)]| {
            let (mut m, t) = tsd(2, 4, false);
            // The same UIDs and series ids in both stores.
            let series: Vec<_> = names
                .iter()
                .map(|n| t.codec().resolve("energy", n))
                .collect();
            let batch: Vec<SeriesPoint> = points
                .iter()
                .map(|&(s, ts, v)| (series[s].id(), ts, v))
                .collect();
            t.put_series_batch(&runs(t.codec(), &batch)).unwrap();
            let stored = t.client().scan(&RowRange::all()).unwrap();
            // Node 0 dies with its memstores; its regions replay their WALs.
            m.heartbeat(NodeId(1), 20_000);
            assert!(!m.tick(20_000).is_empty(), "node 0's regions moved");
            let replayed = Client::connect(&m).scan(&RowRange::all()).unwrap();
            m.shutdown();
            (stored, replayed)
        };
        let (stored, replayed) = cells_after(&arrived);
        assert_eq!(stored.len(), 20, "one cell per key");
        assert_eq!(replayed, stored);
        assert!(stored
            .iter()
            .any(|kv| kv.value[..] == (-1.0f64).to_be_bytes()));
        assert!(stored
            .iter()
            .any(|kv| kv.value[..] == (-2.0f64).to_be_bytes()));
        assert_eq!(cells_after(&by_series), (stored, replayed));
    }
}
