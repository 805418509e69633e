//! A region: one contiguous row range of the table.
//!
//! Structure mirrors HBase: a write-ahead log, a mutable memstore, and a
//! stack of immutable store files, with flushes, compactions, and midpoint
//! splits. The paper's key finding that "HBase regions were manually split
//! to ensure each region handled an equal proportion of the writes"
//! (§III-B) is served by [`Region::split`] plus the master's pre-split
//! table creation.

use std::sync::Arc;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use pga_repl::{Epoch, ShipOutcome};

use crate::batch::PutBatch;
use crate::fault::{no_faults, FaultHandle};
use crate::kv::{CellRef, KeyValue, RowRange, ScanSpec};
use crate::memstore::MemStore;
use crate::rewrite::{RewriteContext, RewriterHandle, RowWriter};
use crate::scanner::{merge_runs, merge_scan, ScanCells};
use crate::storefile::StoreFile;
use crate::wal::{SequenceId, WriteAheadLog, MAX_KEY_LEN};

/// Identifier of a region within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u64);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "region-{}", self.0)
    }
}

/// Tunables for a region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionConfig {
    /// Memstore heap bytes that trigger an automatic flush on write.
    pub memstore_flush_bytes: usize,
    /// Store-file count that triggers an automatic minor compaction.
    pub compaction_file_threshold: usize,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            memstore_flush_bytes: 8 * 1024 * 1024,
            compaction_file_threshold: 8,
        }
    }
}

/// Write/IO counters for one region — these feed the ablation experiments
/// (flush and compaction cost visibility).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionMetrics {
    /// Cells written.
    pub cells_written: u64,
    /// Flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Cells rewritten by compactions.
    pub compacted_cells: u64,
    /// Rows whose cells a [`crate::rewrite::CompactionRewriter`] replaced
    /// (e.g. sealed into columnar blocks).
    #[serde(default)]
    pub rewritten_rows: u64,
}

/// Field-wise totals, e.g. over the regions one server hosts.
impl std::iter::Sum for RegionMetrics {
    fn sum<I: Iterator<Item = RegionMetrics>>(iter: I) -> Self {
        iter.fold(RegionMetrics::default(), |a, m| RegionMetrics {
            cells_written: a.cells_written + m.cells_written,
            flushes: a.flushes + m.flushes,
            compactions: a.compactions + m.compactions,
            compacted_cells: a.compacted_cells + m.compacted_cells,
            rewritten_rows: a.rewritten_rows + m.rewritten_rows,
        })
    }
}

/// One region of the table.
#[derive(Debug)]
pub struct Region {
    id: RegionId,
    range: RowRange,
    config: RegionConfig,
    wal: WriteAheadLog,
    memstore: MemStore,
    files: Vec<StoreFile>,
    next_file_seq: u64,
    metrics: RegionMetrics,
    fault: FaultHandle,
    /// Optional compaction rewriter; consulted per row during
    /// [`Region::compact`].
    rewriter: Option<RewriterHandle>,
    /// Replication-group generation; writes and ships stamped with any
    /// other epoch are rejected (fencing). Starts at 1 so epoch 0 can
    /// never match.
    epoch: Epoch,
}

/// Errors from region operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// A key in the batch is outside this region's range — the client's
    /// directory is stale (HBase's `NotServingRegionException`).
    WrongRegion {
        /// The offending row key.
        row: Bytes,
    },
    /// The region cannot be split (too little data or single row).
    CannotSplit,
    /// A row key or qualifier in the batch is longer than the
    /// write-ahead log can hold ([`MAX_KEY_LEN`] bytes). Nothing of the
    /// batch was written.
    KeyTooLong {
        /// The longest key's length.
        len: usize,
    },
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::WrongRegion { row } => write!(f, "row {row:?} not in this region"),
            RegionError::CannotSplit => write!(f, "region cannot be split"),
            RegionError::KeyTooLong { len } => {
                write!(f, "a {len}-byte key exceeds the WAL's {MAX_KEY_LEN}")
            }
        }
    }
}

impl std::error::Error for RegionError {}

impl Region {
    /// Create an empty region over `range`.
    pub fn new(id: RegionId, range: RowRange, config: RegionConfig) -> Self {
        Region {
            id,
            range,
            config,
            wal: WriteAheadLog::new(),
            memstore: MemStore::new(),
            files: Vec::new(),
            next_file_seq: 1,
            metrics: RegionMetrics::default(),
            fault: no_faults(),
            rewriter: None,
            epoch: 1,
        }
    }

    /// Install a fault plane (simulation harnesses only; the default is
    /// the faithful no-op plane). Split daughters inherit the handle.
    pub fn set_fault_plane(&mut self, fault: FaultHandle) {
        self.fault = fault;
    }

    /// Install a compaction rewriter; subsequent compactions offer every
    /// row of their merged output to it. Split daughters and forked
    /// followers inherit the handle.
    pub fn set_compaction_rewriter(&mut self, rewriter: RewriterHandle) {
        self.rewriter = Some(rewriter);
    }

    /// Region id.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Row range served.
    pub fn range(&self) -> &RowRange {
        &self.range
    }

    /// Metrics snapshot.
    pub fn metrics(&self) -> RegionMetrics {
        self.metrics
    }

    /// Share the WAL handle (for recovery tests and reassignment).
    pub fn wal(&self) -> WriteAheadLog {
        self.wal.clone()
    }

    /// Write a batch: WAL first, then memstore; flushes/compacts if
    /// thresholds are crossed. Returns the WAL sequence id assigned to
    /// the batch — the id the replication driver stamps on follower
    /// ships so every replica agrees on batch ordering. A batch with a
    /// row outside the region, or a key the WAL cannot hold, is refused
    /// whole and handed back.
    ///
    /// The `Err` variant carries the batch back by value (as
    /// [`crate::server::Response::PutRefused`] does), so a writer re-routes
    /// it without having kept a copy.
    ///
    /// The log and the memstore keep one copy of the batch between them:
    /// its rows take the memstore's keys, then both share it unchanged.
    #[allow(clippy::result_large_err)]
    pub fn put_batch(
        &mut self,
        batch: impl Into<PutBatch>,
    ) -> Result<SequenceId, (RegionError, PutBatch)> {
        let mut batch = batch.into();
        if let Err(e) = self.check(&batch) {
            return Err((e, batch));
        }
        let held = self.memstore.adopt(&mut batch);
        let batch = Arc::new(batch);
        // Deliberate injection site: mutant A (ack-before-WAL-append)
        // suppresses the append; the faithful plane never does.
        let seq = if !self.fault.skip_wal_append(self.id) {
            self.wal.append(batch.clone())
        } else {
            self.wal.last_sequence()
        };
        self.keep(batch, &held);
        Ok(seq)
    }

    /// File a logged batch, whose rows took the memstore's keys (`held`),
    /// into the memstore; flush if it is full.
    fn keep(&mut self, batch: Arc<PutBatch>, held: &[Option<usize>]) {
        self.metrics.cells_written += batch.len() as u64;
        self.memstore.insert(batch, held);
        self.flush_if_full();
    }

    /// `Err` for a batch this region must not take: a row outside its
    /// range, or a key too long for the WAL.
    fn check(&self, batch: &PutBatch) -> Result<(), RegionError> {
        if let Some(row) = batch.rows().find(|row| !self.range.contains(row)) {
            let row = row.clone();
            return Err(RegionError::WrongRegion { row });
        }
        let len = batch.longest_key();
        if len > MAX_KEY_LEN {
            return Err(RegionError::KeyTooLong { len });
        }
        Ok(())
    }

    /// Replication-group epoch of this copy.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Install a new epoch (promotion or route refresh, master-driven).
    pub fn set_epoch(&mut self, epoch: Epoch) {
        self.epoch = epoch;
    }

    /// Last WAL sequence this copy has durable — on a primary the last
    /// assigned batch, on a follower the last applied ship.
    pub fn applied_seq(&self) -> SequenceId {
        self.wal.last_sequence()
    }

    /// Apply a WAL batch shipped by the primary under the primary's
    /// sequence id. [`ShipOutcome::Applied`] advanced this copy,
    /// [`ShipOutcome::Stale`] is a duplicate/stale ship (already durable
    /// here — the caller may still count it toward the quorum), and
    /// [`ShipOutcome::Gap`] means an earlier batch is missing: nothing
    /// was applied and the shipper must backfill from the primary's WAL
    /// tail ([`Region::wal_batches_after`]) before this copy can vote.
    /// The checks mirror `put_batch`: primary and follower serve the
    /// same range, so an out-of-range row means a mis-routed ship.
    pub fn apply_replicated(
        &mut self,
        seq: SequenceId,
        batch: impl Into<PutBatch>,
    ) -> Result<ShipOutcome, RegionError> {
        let mut batch = batch.into();
        self.check(&batch)?;
        // Deliberate injection site: mutant G (a follower that corrupts
        // what it is shipped) flips a value bit; the faithful plane never
        // does.
        if self.fault.flip_shipped_value(self.id) {
            if let Some(byte) = batch.values_mut().first_mut() {
                *byte ^= 1;
            }
        }
        // Adopting keys changes nothing in the memstore, so a ship the log
        // refuses leaves no trace there.
        let held = self.memstore.adopt(&mut batch);
        let batch = Arc::new(batch);
        // Deliberate injection site: mutant D (gap-tolerant follower)
        // skips the contiguity check, so a missed ship leaves a silent
        // hole; the faithful plane always enforces seq == last + 1.
        let allow_gap = self.fault.allow_ship_gap(self.id);
        let outcome = self.wal.ship(seq, batch.clone(), allow_gap);
        if outcome != ShipOutcome::Applied {
            return Ok(outcome);
        }
        self.keep(batch, &held);
        Ok(ShipOutcome::Applied)
    }

    /// Whether the fault plane drops the next replication ship touching
    /// this region (simulation-only; the faithful plane never does).
    pub fn ship_dropped(&self) -> bool {
        self.fault.drop_ship(self.id)
    }

    /// Retained WAL batches newer than `after`, in order — the tail a
    /// primary serves so a gapped follower can be backfilled. Bounded by
    /// the flush mark: batches already flushed to store files are gone,
    /// and a follower that far behind must stay behind (its applied
    /// sequence honestly reports its contiguous prefix).
    pub fn wal_batches_after(&self, after: SequenceId) -> Vec<(SequenceId, PutBatch)> {
        self.wal.batches_after(after)
    }

    /// Fork a fresh follower copy of this region: a snapshot of every
    /// currently visible cell becomes the follower's base store file, and
    /// its WAL starts after this copy's last sequence so only ships
    /// newer than the snapshot are accepted. Used to (re)seed followers
    /// at table creation and to restore the replication factor after a
    /// failover consumed one.
    pub fn fork_follower(&self) -> Region {
        let cells = self.scan_spec(&RowRange::all().into()).to_batch();
        let files = if cells.is_empty() {
            Vec::new()
        } else {
            vec![StoreFile::from_batch(cells, 1)]
        };
        Region {
            id: self.id,
            range: self.range.clone(),
            config: self.config,
            wal: WriteAheadLog::with_start_sequence(self.wal.last_sequence()),
            memstore: MemStore::new(),
            files,
            next_file_seq: 2,
            metrics: RegionMetrics::default(),
            fault: self.fault.clone(),
            rewriter: self.rewriter.clone(),
            epoch: self.epoch,
        }
    }

    /// Flush once the memstore holds the configured bytes, the cells it
    /// replaced included ([`MemStore::held_size`]).
    fn flush_if_full(&mut self) {
        if self.memstore.held_size() >= self.config.memstore_flush_bytes {
            self.flush();
        }
    }

    /// Flush the memstore into a new store file and advance the WAL mark.
    pub fn flush(&mut self) {
        if self.memstore.is_empty() {
            return;
        }
        let seq = self.next_file_seq;
        self.next_file_seq += 1;
        self.files.push(self.memstore.drain(seq));
        self.wal.mark_flushed(self.wal.last_sequence());
        self.metrics.flushes += 1;
        if self.files.len() >= self.config.compaction_file_threshold {
            self.compact();
        }
    }

    /// Merge every store file into one (major compaction). With a
    /// [`crate::rewrite::CompactionRewriter`] installed, every row of the
    /// merged output is offered to it — even a single-file compaction is
    /// worthwhile then, because the rewriter may seal rows.
    ///
    /// The merge goes one row at a time. Each row becomes the reply a
    /// scan of it gives, lending the files' runs of the row: files are
    /// flushed in time order, so the runs of a raw row follow one another
    /// and the reply is their concatenation; runs that interleave (a
    /// back-fill or re-put that crossed a flush) are merged by
    /// [`merge_scan`], the read path's own merge, the newest file winning
    /// an exact key. The rewriter reads that reply and may write the row's
    /// replacement, in key order, into a scratch batch the compaction
    /// keeps; a replacement is appended to the output batch by column,
    /// and a row with none goes there as the reply holds it — a byte
    /// range of each column per run.
    pub fn compact(&mut self) {
        if self.files.is_empty() || (self.files.len() <= 1 && self.rewriter.is_none()) {
            return;
        }
        let mut files = std::mem::take(&mut self.files);
        files.sort_by_key(StoreFile::sequence);
        let mut inputs: Vec<Input> = files
            .into_iter()
            .map(|file| Input {
                cells: file.into_batch(),
                next: 0,
            })
            .collect();
        let (runs, cells, qualifiers, values) =
            inputs.iter().fold((0, 0, 0, 0), |(r, c, q, v), input| {
                let b = &input.cells;
                let (bq, bv) = b.column_bytes();
                (r + b.runs.len(), c + b.len(), q + bq, v + bv)
            });
        let mut out = PutBatch::with_capacity(runs, cells, qualifiers, values);
        let drop_sealed_overlap = self.fault.drop_sealed_overlap(self.id);
        let (mut reply, mut replacement) = (ScanCells::default(), PutBatch::new());
        while let Some(row) = inputs.iter().filter_map(Input::row).min().cloned() {
            // The row's run in each input holding it, oldest file first.
            reply.clear();
            let (mut in_order, mut last) = (true, None);
            for input in inputs.iter_mut().filter(|input| input.row() == Some(&row)) {
                let (cells, r) = Input::take_run(input);
                let run = cells.run(r);
                if let Some(before) = last.replace(run) {
                    in_order &= before.key(before.cells().end - 1) < run.key(run.cells().start);
                }
                reply.push(cells, run.cells());
            }
            if !in_order {
                reply = merge_runs(&reply);
            }
            let ctx = RewriteContext {
                row: &row,
                drop_sealed_overlap,
            };
            replacement.clear();
            let replaced = self.rewriter.as_ref().is_some_and(|rewriter| {
                rewriter.rewrite_row(&ctx, &reply, &mut RowWriter::new(&row, &mut replacement))
            });
            // A replacement out of key order is not taken: the merged
            // row stays (nothing is discarded behind a bad answer).
            let taken = replaced
                && (0..replacement.runs.len()).all(|r| {
                    let run = replacement.run(r);
                    run.ascending(run.cells())
                });
            if !taken {
                reply.copy_into(&mut out);
                continue;
            }
            self.metrics.rewritten_rows += 1;
            out.extend_from(&replacement);
        }
        self.metrics.compacted_cells += out.len() as u64;
        self.metrics.compactions += 1;
        let seq = self.next_file_seq;
        self.next_file_seq += 1;
        self.files = vec![StoreFile::from_batch(out, seq)];
    }

    /// Scan whole rows in `range` into owned cells; see
    /// [`Region::scan_spec`].
    pub fn scan(&self, range: &RowRange) -> Vec<KeyValue> {
        self.scan_spec(&range.clone().into()).to_vec()
    }

    /// Scan the cells `spec` selects (rows clipped to the region's own
    /// range), merged across the memstore and all store files, sorted,
    /// deduplicated. Cells come back as ranges of the store files' and the
    /// memstore's shared batches. Every source tests a
    /// row key against the spec's word filter once, before it takes a
    /// cell of the row, and with a column window seeks to the window in
    /// each row, so the scan costs `O(rows · log n + cells returned)`
    /// however full the rows are.
    pub fn scan_spec(&self, spec: &ScanSpec) -> ScanCells {
        let rows = clip(spec.rows(), &self.range);
        if !rows.end.is_empty() && rows.start >= rows.end {
            return ScanCells::default(); // the request lies wholly outside this region
        }
        let (columns, words) = (spec.columns(), spec.words());
        let mut sources = Vec::with_capacity(self.files.len() + 1);
        let mut priorities = Vec::with_capacity(self.files.len() + 1);
        for f in &self.files {
            sources.push(f.select(&rows, columns, words));
            priorities.push(f.sequence());
        }
        sources.push(self.memstore.select(&rows, columns, words));
        priorities.push(u64::MAX); // memstore always wins collisions
        merge_scan(sources, priorities)
    }

    /// Scrub pass: verify every store-file cell the `verifier` covers,
    /// adding how many were checked and the `(row, qualifier)` keys that
    /// failed to `found`. Read-only and sequential — the low-priority walk
    /// the background scrubber rides on the compaction cadence.
    pub fn scrub_cells(
        &self,
        verifier: &dyn crate::scrub::CellVerifier,
        found: &mut crate::scrub::ScrubFinding,
    ) {
        let all = RowRange::all();
        for cell in self.files.iter().flat_map(|f| f.scan(&all)) {
            if verifier.covers(cell) {
                found.scanned += 1;
                if !verifier.verify(cell) {
                    found
                        .corrupt
                        .push((cell.row.clone(), Bytes::copy_from_slice(cell.qualifier)));
                }
            }
        }
    }

    /// Fault-injection hook (corruption harnesses only): pick the
    /// `pick % n`-th store-file cell matching `selector` and mutate its
    /// value bytes in place with `mutate`, modelling at-rest bit rot.
    /// Returns the affected `(row, qualifier)`, or `None` when nothing
    /// matches. Only the value is touched, so sort order is preserved.
    pub fn corrupt_cell_for_fault_injection(
        &mut self,
        pick: u64,
        selector: &dyn Fn(CellRef<'_>) -> bool,
        mutate: &dyn Fn(&mut Vec<u8>),
    ) -> Option<(Bytes, Bytes)> {
        let matches = |f: &StoreFile| f.scan(&RowRange::all()).filter(|c| selector(*c)).count();
        let total: usize = self.files.iter().map(matches).sum();
        if total == 0 {
            return None;
        }
        // The file holding the target, and the target's rank among its
        // matching cells.
        let mut within = (pick % total as u64) as usize;
        let fi = self.files.iter().position(|f| {
            let n = matches(f);
            within < n || {
                within -= n;
                false
            }
        })?;
        let (mut seen, mut hit) = (0usize, None);
        self.rewrite_file(fi, |cell| {
            if !selector(cell) {
                return None;
            }
            seen += 1;
            if seen != within + 1 {
                return None;
            }
            let mut value = cell.value.to_vec();
            mutate(&mut value);
            hit = Some((cell.row.clone(), Bytes::copy_from_slice(cell.qualifier)));
            Some(value)
        });
        hit
    }

    /// Repair install: replace the stored value of every store-file cell
    /// at `(row, qualifier)` with `value`, keeping timestamps. Returns
    /// how many cells were replaced (0 = the key is not stored here).
    /// Only called by the scrub repair path, with bytes that already
    /// round-tripped checksum verification.
    pub fn replace_cell_value(&mut self, row: &[u8], qualifier: &[u8], value: &Bytes) -> usize {
        let stale = |c: CellRef<'_>| {
            c.row[..] == *row && c.qualifier[..] == *qualifier && c.value != &value[..]
        };
        let mut replaced = 0usize;
        for fi in 0..self.files.len() {
            if self
                .files
                .get(fi)
                .is_some_and(|f| f.scan(&RowRange::all()).any(stale))
            {
                self.rewrite_file(fi, |cell| {
                    let stale = stale(cell);
                    replaced += usize::from(stale);
                    stale.then(|| value.to_vec())
                });
            }
        }
        replaced
    }

    /// Rebuild store file `fi` cell by cell, each cell with the value
    /// `edit` gives it, or its own where `edit` gives none (values only,
    /// so the sort order holds).
    fn rewrite_file(&mut self, fi: usize, mut edit: impl FnMut(CellRef<'_>) -> Option<Vec<u8>>) {
        let Some(file) = self.files.get_mut(fi) else {
            return;
        };
        let mut out = PutBatch::new();
        for cell in file.scan(&RowRange::all()) {
            let value = edit(cell);
            let value = value.as_deref().unwrap_or(cell.value);
            out.push(cell.row, cell.qualifier, cell.timestamp, value);
        }
        *file = StoreFile::from_batch(out, file.sequence());
    }

    /// Split at the median row of the stored data. Returns the two
    /// daughters, or gives `self` back unchanged when the region cannot be
    /// split (too little data, or all cells share one row).
    ///
    /// Flushes first, so both daughters are built from store files only.
    ///
    /// The `Err` variant intentionally carries the whole region back to the
    /// caller — splitting consumes `self`, so failure must return it.
    #[allow(clippy::result_large_err)]
    pub fn split(
        mut self,
        left_id: RegionId,
        right_id: RegionId,
    ) -> Result<(Region, Region), Region> {
        self.flush();
        let all = self.scan_spec(&RowRange::all().into()).to_batch();
        let mid_row = match all.len() {
            0 => return Err(self),
            n => all.cell(n / 2).row.clone(),
        };
        if all.rows().next() == Some(&mid_row) {
            // One cell, or all data in one row: nothing to split on.
            return Err(self);
        }
        let left_range = RowRange {
            start: self.range.start.clone(),
            end: mid_row.clone(),
        };
        let right_range = RowRange {
            start: mid_row.clone(),
            end: self.range.end.clone(),
        };
        let mut left = Region::new(left_id, left_range, self.config);
        let mut right = Region::new(right_id, right_range, self.config);
        left.fault = self.fault.clone();
        right.fault = self.fault.clone();
        left.rewriter = self.rewriter.clone();
        right.rewriter = self.rewriter.clone();
        // One run a row: the rows before the middle one go left.
        let sides: Vec<usize> = all.rows().map(|row| usize::from(*row >= mid_row)).collect();
        for (daughter, cells) in [&mut left, &mut right]
            .into_iter()
            .zip(all.partition(&sides, 2))
        {
            daughter.files = vec![StoreFile::from_batch(cells, 1)];
            daughter.next_file_seq = 2;
        }
        Ok((left, right))
    }

    /// Full crash recovery: the memstore is **dropped** (it died with the
    /// serving process), the WAL is read back through its byte encoding —
    /// exposed to [`crate::fault::FaultPlane::tear_wal`] so harnesses can
    /// tear the tail the way a mid-append crash would — and the surviving
    /// records are replayed into a fresh memstore. Returns whether the
    /// image it replayed decoded torn (trailing bytes discarded).
    pub fn crash_recover(&mut self) -> bool {
        self.memstore = MemStore::new();
        // Deliberate injection site: mutant B (replay skips the unflushed
        // tail) stops here; the faithful plane always replays.
        if self.fault.skip_crash_replay(self.id) {
            return false;
        }
        let mut encoded = self.wal.encode();
        self.fault.tear_wal(self.id, &mut encoded);
        self.wal = WriteAheadLog::from_encoded(&encoded);
        // The memstore shares the decoded batches with the new log.
        for batch in self.wal.unflushed_batches() {
            self.memstore.insert(batch, &[]);
        }
        WriteAheadLog::decode_report(&encoded).torn
    }

    /// Drop the memstore (mutant C's migration bug; harness-driven via
    /// [`crate::fault::FaultPlane::drop_memstore_on_move`]).
    pub(crate) fn clear_memstore(&mut self) {
        self.memstore = MemStore::new();
    }
}

/// One store file as a compaction reads it: its sorted batch and the
/// next of its rows (runs) to merge.
struct Input {
    cells: Arc<PutBatch>,
    next: usize,
}

impl Input {
    /// The key of the next row to merge, if any is left.
    fn row(&self) -> Option<&Bytes> {
        self.cells.runs.get(self.next).map(|run| &run.row)
    }

    /// The batch and run of the next row, which is now taken.
    fn take_run(&mut self) -> (&Arc<PutBatch>, usize) {
        self.next += 1;
        (&self.cells, self.next - 1)
    }
}

fn clip(a: &RowRange, b: &RowRange) -> RowRange {
    let start = match (a.start.is_empty(), b.start.is_empty()) {
        (true, _) => b.start.clone(),
        (_, true) => a.start.clone(),
        _ => std::cmp::max(a.start.clone(), b.start.clone()),
    };
    let end = match (a.end.is_empty(), b.end.is_empty()) {
        (true, _) => b.end.clone(),
        (_, true) => a.end.clone(),
        _ => std::cmp::min(a.end.clone(), b.end.clone()),
    };
    RowRange { start, end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{ColumnRange, RowWords};
    use std::sync::Arc;

    fn kv(row: &str, ts: u64, val: &str) -> KeyValue {
        KeyValue::new(
            row.as_bytes().to_vec(),
            b"q".to_vec(),
            ts,
            val.as_bytes().to_vec(),
        )
    }

    fn region() -> Region {
        Region::new(RegionId(1), RowRange::all(), RegionConfig::default())
    }

    #[test]
    fn put_scan_roundtrip() {
        let mut r = region();
        r.put_batch(vec![kv("b", 1, "vb"), kv("a", 1, "va")])
            .unwrap();
        let cells = r.scan(&RowRange::all());
        assert_eq!(cells.len(), 2);
        assert_eq!(&cells[0].row[..], b"a");
    }

    #[test]
    fn a_compacted_scan_points_into_the_store_file() {
        let mut r = region();
        for row in ["a1", "a2", "b1", "b2", "c1"] {
            let cells = (0u8..8).map(|q| KeyValue::new(row.to_string(), vec![q], 1, vec![q]));
            r.put_batch(PutBatch::from(cells.collect::<Vec<_>>()))
                .unwrap();
            r.flush();
        }
        r.compact();
        assert_eq!(r.files.len(), 1);
        let file = r.files[0].batch().clone();
        let window = vec![ColumnRange::new(vec![2u8], vec![5u8])];
        let specs = [
            ScanSpec::windowed(RowRange::all(), window.clone()),
            ScanSpec::windowed(RowRange::new("a2", "c"), window).with_words(RowWords::new(
                1,
                1,
                [b"2"],
            )),
            ScanSpec::from(RowRange::new("b", "")).with_words(RowWords::new(0, 1, [b"b"])),
        ];
        for (spec, (cells, rows)) in specs.iter().zip([(15, 5), (6, 2), (16, 2)]) {
            let scanned = r.scan_spec(spec);
            assert_eq!(scanned.len(), cells, "{spec:?}");
            assert!(scanned.runs().len() <= rows, "{spec:?}");
            assert!(scanned
                .runs()
                .iter()
                .all(|(run, _)| Arc::ptr_eq(run, &file)));
        }
        // A whole-row scan of adjacent rows is one run.
        assert_eq!(r.scan_spec(&RowRange::all().into()).runs().len(), 1);
    }

    #[test]
    fn wrong_region_rejected() {
        let mut r = Region::new(
            RegionId(1),
            RowRange::new(b"a".to_vec(), b"m".to_vec()),
            RegionConfig::default(),
        );
        let (err, refused) = r.put_batch(vec![kv("z", 1, "v")]).unwrap_err();
        assert!(matches!(err, RegionError::WrongRegion { .. }));
        assert_eq!(
            refused.into_kvs(),
            vec![kv("z", 1, "v")],
            "the batch is handed back"
        );
        // Whole batch is rejected atomically.
        assert_eq!(r.scan(&RowRange::all()).len(), 0);
    }

    #[test]
    fn flush_moves_data_to_files_and_truncates_wal() {
        let mut r = region();
        r.put_batch(vec![kv("a", 1, "v"), kv("b", 1, "v")]).unwrap();
        assert_eq!(r.wal().unflushed_len(), 2);
        r.flush();
        assert_eq!(r.wal().unflushed_len(), 0);
        assert_eq!(r.metrics().flushes, 1);
        // Data still visible.
        assert_eq!(r.scan(&RowRange::all()).len(), 2);
        // Second flush with empty memstore is a no-op.
        r.flush();
        assert_eq!(r.metrics().flushes, 1);
    }

    #[test]
    fn auto_flush_on_threshold() {
        let mut r = Region::new(
            RegionId(1),
            RowRange::all(),
            RegionConfig {
                memstore_flush_bytes: 200,
                compaction_file_threshold: 100,
            },
        );
        for i in 0..20 {
            r.put_batch(vec![kv(&format!("row{i}"), 1, "some-payload")])
                .unwrap();
        }
        assert!(r.metrics().flushes > 0, "threshold flush expected");
        assert_eq!(r.scan(&RowRange::all()).len(), 20);
    }

    #[test]
    fn re_putting_one_batch_reaches_a_flush() {
        let mut r = Region::new(
            RegionId(1),
            RowRange::all(),
            RegionConfig {
                memstore_flush_bytes: 4096,
                compaction_file_threshold: 100,
            },
        );
        let batch: Vec<KeyValue> = (0..8).map(|ts| kv("row", ts, "payload")).collect();
        let size: usize = batch.iter().map(KeyValue::heap_size).sum();
        // A retried put replaces every cell it writes: the cells held stay
        // under the threshold, the batches kept do not.
        let puts = 4096 / size + 1;
        for _ in 0..puts {
            r.put_batch(batch.clone()).unwrap();
        }
        assert_eq!(r.metrics().flushes, 1, "{puts} puts of {size} bytes");
        assert_eq!(
            r.scan(&RowRange::all()),
            batch.iter().rev().cloned().collect::<Vec<_>>()
        );
    }

    #[test]
    fn scan_merges_memstore_over_files() {
        let mut r = region();
        r.put_batch(vec![kv("a", 5, "old")]).unwrap();
        r.flush();
        r.put_batch(vec![kv("a", 5, "new")]).unwrap(); // same cell, memstore
        let cells = r.scan(&RowRange::all());
        assert_eq!(cells.len(), 1);
        assert_eq!(&cells[0].value[..], b"new");
    }

    #[test]
    fn compaction_folds_files_keeping_newest() {
        let mut r = region();
        r.put_batch(vec![kv("a", 1, "v1")]).unwrap();
        r.flush();
        r.put_batch(vec![kv("a", 2, "v2"), kv("b", 1, "v")])
            .unwrap();
        r.flush();
        r.compact();
        assert_eq!(r.metrics().compactions, 1);
        let cells = r.scan(&RowRange::all());
        // Both versions of `a` survive (no TTL), plus `b`.
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].timestamp, 2, "newest version of a first");
    }

    #[test]
    fn split_partitions_rows() {
        let mut r = region();
        for i in 0..100 {
            r.put_batch(vec![kv(&format!("row{i:03}"), 1, "v")])
                .unwrap();
        }
        let (left, right) = r.split(RegionId(2), RegionId(3)).unwrap();
        let l = left.scan(&RowRange::all());
        let r_ = right.scan(&RowRange::all());
        assert_eq!(l.len() + r_.len(), 100);
        assert!(
            l.len() > 30 && r_.len() > 30,
            "roughly even: {} / {}",
            l.len(),
            r_.len()
        );
        // Boundary correctness.
        let boundary = right.range().start.clone();
        assert!(l.iter().all(|kv| kv.row < boundary));
        assert!(r_.iter().all(|kv| kv.row >= boundary));
        assert_eq!(left.range().end, boundary);
    }

    #[test]
    fn split_of_single_row_fails_and_returns_region() {
        let mut r = region();
        r.put_batch(vec![kv("only", 1, "v"), kv("only", 2, "v")])
            .unwrap();
        let back = r.split(RegionId(2), RegionId(3)).unwrap_err();
        assert_eq!(back.id(), RegionId(1));
        assert_eq!(back.scan(&RowRange::all()).len(), 2, "data intact");
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        let mut r = region();
        r.put_batch(vec![kv("a", 1, "flushed")]).unwrap();
        r.flush();
        r.put_batch(vec![kv("b", 1, "unflushed")]).unwrap();
        let wal = r.wal();
        // Simulate a crash: rebuild a region with the same files + WAL.
        let mut recovered = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        recovered.files = r.files.clone();
        recovered.next_file_seq = r.next_file_seq;
        recovered.wal = wal;
        recovered.crash_recover();
        let cells = recovered.scan(&RowRange::all());
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().any(|c| &c.value[..] == b"unflushed"));
    }

    #[test]
    fn crash_recover_drops_memstore_and_replays_wal_bytes() {
        let mut r = region();
        r.put_batch(vec![kv("a", 1, "flushed")]).unwrap();
        r.flush();
        r.put_batch(vec![kv("b", 1, "unflushed")]).unwrap();
        assert!(!r.crash_recover(), "a clean image replays whole");
        let cells = r.scan(&RowRange::all());
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().any(|c| &c.value[..] == b"unflushed"));
        // Writes keep working on the recovered region and sequence ids
        // continue from the replayed log.
        r.put_batch(vec![kv("c", 1, "post")]).unwrap();
        assert_eq!(r.scan(&RowRange::all()).len(), 3);
        assert_eq!(r.wal().batch_sequences().len(), 2);
    }

    #[derive(Debug)]
    struct SkipReplay;
    impl crate::fault::FaultPlane for SkipReplay {
        fn skip_crash_replay(&self, _region: RegionId) -> bool {
            true
        }
    }

    #[test]
    fn mutant_hook_skipping_replay_loses_the_unflushed_tail() {
        let mut r = region();
        r.set_fault_plane(std::sync::Arc::new(SkipReplay));
        r.put_batch(vec![kv("a", 1, "flushed")]).unwrap();
        r.flush();
        r.put_batch(vec![kv("b", 1, "unflushed")]).unwrap();
        r.crash_recover();
        let cells = r.scan(&RowRange::all());
        assert_eq!(cells.len(), 1, "broken recovery must lose the tail");
        assert_eq!(&cells[0].value[..], b"flushed");
    }

    #[test]
    fn replicated_apply_mirrors_primary_and_dedups_ships() {
        let mut primary = region();
        let mut follower = primary.fork_follower();
        let seq = primary.put_batch(vec![kv("a", 1, "v1")]).unwrap();
        assert_eq!(
            follower
                .apply_replicated(seq, vec![kv("a", 1, "v1")])
                .unwrap(),
            ShipOutcome::Applied
        );
        assert_eq!(
            follower
                .apply_replicated(seq, vec![kv("a", 1, "v1")])
                .unwrap(),
            ShipOutcome::Stale,
            "duplicate ship is a no-op"
        );
        assert_eq!(follower.applied_seq(), primary.applied_seq());
        assert_eq!(
            follower.scan(&RowRange::all()),
            primary.scan(&RowRange::all())
        );
    }

    #[test]
    fn fork_follower_snapshots_existing_data_and_rejects_old_ships() {
        let mut primary = region();
        let s1 = primary.put_batch(vec![kv("a", 1, "va")]).unwrap();
        primary.flush();
        primary.put_batch(vec![kv("b", 1, "vb")]).unwrap();
        let mut follower = primary.fork_follower();
        // Snapshot already covers both cells.
        assert_eq!(follower.scan(&RowRange::all()).len(), 2);
        assert_eq!(follower.applied_seq(), primary.applied_seq());
        // A stale re-ship of the snapshot data must not duplicate.
        assert_eq!(
            follower
                .apply_replicated(s1, vec![kv("a", 1, "va")])
                .unwrap(),
            ShipOutcome::Stale
        );
        // New writes ship normally.
        let s3 = primary.put_batch(vec![kv("c", 1, "vc")]).unwrap();
        assert_eq!(
            follower
                .apply_replicated(s3, vec![kv("c", 1, "vc")])
                .unwrap(),
            ShipOutcome::Applied
        );
        assert_eq!(follower.scan(&RowRange::all()).len(), 3);
    }

    #[test]
    fn gapped_ship_is_rejected_and_backfill_heals_it() {
        let mut primary = region();
        let mut follower = primary.fork_follower();
        let s1 = primary.put_batch(vec![kv("a", 1, "va")]).unwrap();
        let s2 = primary.put_batch(vec![kv("b", 1, "vb")]).unwrap();
        let s3 = primary.put_batch(vec![kv("c", 1, "vc")]).unwrap();
        follower
            .apply_replicated(s1, vec![kv("a", 1, "va")])
            .unwrap();
        // Ship s2 is lost; s3 must not leave a hole in the follower.
        assert_eq!(
            follower
                .apply_replicated(s3, vec![kv("c", 1, "vc")])
                .unwrap(),
            ShipOutcome::Gap
        );
        assert_eq!(follower.applied_seq(), s1, "position stays honest");
        assert_eq!(follower.scan(&RowRange::all()).len(), 1, "nothing applied");
        // Backfill from the primary's retained WAL tail, then the ship
        // that gapped succeeds.
        let tail = primary.wal_batches_after(s1);
        assert_eq!(
            tail.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![s2, s3]
        );
        for (s, kvs) in tail {
            assert_eq!(
                follower.apply_replicated(s, kvs).unwrap(),
                ShipOutcome::Applied
            );
        }
        assert_eq!(follower.applied_seq(), primary.applied_seq());
        assert_eq!(
            follower.scan(&RowRange::all()),
            primary.scan(&RowRange::all())
        );
    }

    #[test]
    fn follower_survives_crash_recovery_of_shipped_wal() {
        let mut primary = region();
        let mut follower = primary.fork_follower();
        for i in 0..5 {
            let seq = primary
                .put_batch(vec![kv(&format!("r{i}"), 1, "v")])
                .unwrap();
            follower
                .apply_replicated(seq, vec![kv(&format!("r{i}"), 1, "v")])
                .unwrap();
        }
        follower.crash_recover();
        assert_eq!(follower.scan(&RowRange::all()).len(), 5);
        assert_eq!(follower.applied_seq(), primary.applied_seq());
    }

    #[test]
    fn epoch_bookkeeping() {
        let mut r = region();
        assert_eq!(r.epoch(), 1);
        r.set_epoch(4);
        assert_eq!(r.epoch(), 4);
        let f = r.fork_follower();
        assert_eq!(f.epoch(), 4, "forked follower inherits the epoch");
    }

    #[test]
    fn scan_subrange_is_clipped() {
        let mut r = Region::new(
            RegionId(1),
            RowRange::new(b"c".to_vec(), b"x".to_vec()),
            RegionConfig::default(),
        );
        for row in ["c", "d", "e", "f"] {
            r.put_batch(vec![kv(row, 1, "v")]).unwrap();
        }
        // Request a wider range than the region serves.
        let cells = r.scan(&RowRange::new(b"a".to_vec(), b"e".to_vec()));
        let rows: Vec<_> = cells.iter().map(|kv| kv.row.clone()).collect();
        assert_eq!(rows, vec!["c", "d"]);
    }
}
