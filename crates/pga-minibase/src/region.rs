//! A region: one contiguous row range of the table.
//!
//! Structure mirrors HBase: a write-ahead log, a mutable memstore, and a
//! stack of immutable store files, with flushes, compactions, and midpoint
//! splits. The paper's key finding that "HBase regions were manually split
//! to ensure each region handled an equal proportion of the writes"
//! (§III-B) is served by [`Region::split`] plus the master's pre-split
//! table creation.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use pga_repl::{Epoch, ReplicaRole, ShipOutcome};

use crate::fault::{no_faults, FaultHandle};
use crate::kv::{KeyValue, RowRange, ScanSpec};
use crate::memstore::MemStore;
use crate::rewrite::{RewriteContext, RewriterHandle};
use crate::scanner::merge_scan;
use crate::storefile::StoreFile;
use crate::wal::{SequenceId, WriteAheadLog};

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
    /// Maximum versions retained per `(row, qualifier)` cell; older
    /// versions are garbage-collected during major compactions (HBase's
    /// `VERSIONS` column-family attribute).
    pub max_versions: usize,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            memstore_flush_bytes: 8 * 1024 * 1024,
            compaction_file_threshold: 8,
            max_versions: usize::MAX,
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
    /// Whether this copy serves writes or replays shipped WAL.
    role: ReplicaRole,
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
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::WrongRegion { row } => write!(f, "row {row:?} not in this region"),
            RegionError::CannotSplit => write!(f, "region cannot be split"),
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
            role: ReplicaRole::Primary,
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
    /// thresholds are crossed. Rejects rows outside the region.
    pub fn put_batch(&mut self, kvs: Vec<KeyValue>) -> Result<(), RegionError> {
        // pga-allow(epoch-fencing): single-copy Put path — the RPC carries no epoch; replicated writes route through PutReplicated, which fences before put_batch_assign, and lease expiry bounds a deposed primary here
        self.put_batch_assign(kvs).map(|_| ())
    }

    /// [`Region::put_batch`] returning the WAL sequence id assigned to
    /// the batch — the id the replication driver stamps on follower
    /// ships so every replica agrees on batch ordering.
    pub fn put_batch_assign(&mut self, kvs: Vec<KeyValue>) -> Result<SequenceId, RegionError> {
        for kv in &kvs {
            if !self.range.contains(&kv.row) {
                return Err(RegionError::WrongRegion {
                    row: kv.row.clone(),
                });
            }
        }
        // Deliberate injection site: mutant A (ack-before-WAL-append)
        // suppresses the append; the faithful plane never does.
        let seq = if !self.fault.skip_wal_append(self.id) {
            self.wal.append_batch(&kvs)
        } else {
            self.wal.last_sequence()
        };
        self.metrics.cells_written += kvs.len() as u64;
        for kv in kvs {
            self.memstore.put(kv);
        }
        if self.memstore.heap_size() >= self.config.memstore_flush_bytes {
            self.flush();
        }
        Ok(seq)
    }

    /// Replication-group epoch of this copy.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Install a new epoch (promotion or route refresh, master-driven).
    pub fn set_epoch(&mut self, epoch: Epoch) {
        self.epoch = epoch;
    }

    /// This copy's role in the replication group.
    pub fn role(&self) -> ReplicaRole {
        self.role
    }

    /// Change the role (promotion, or demotion when forking followers).
    pub fn set_role(&mut self, role: ReplicaRole) {
        self.role = role;
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
    /// Row-range checks mirror `put_batch`: primary and follower serve
    /// the same range, so an out-of-range row means a mis-routed ship.
    pub fn apply_replicated(
        &mut self,
        seq: SequenceId,
        kvs: Vec<KeyValue>,
    ) -> Result<ShipOutcome, RegionError> {
        for kv in &kvs {
            if !self.range.contains(&kv.row) {
                return Err(RegionError::WrongRegion {
                    row: kv.row.clone(),
                });
            }
        }
        // Deliberate injection site: mutant D (gap-tolerant follower)
        // skips the contiguity check, so a missed ship leaves a silent
        // hole; the faithful plane always enforces seq == last + 1.
        let outcome = if self.fault.allow_ship_gap(self.id) {
            self.wal.append_batch_with_seq_allow_gap(seq, &kvs)
        } else {
            self.wal.append_batch_with_seq(seq, &kvs)
        };
        if outcome != ShipOutcome::Applied {
            return Ok(outcome);
        }
        self.metrics.cells_written += kvs.len() as u64;
        for kv in kvs {
            self.memstore.put(kv);
        }
        if self.memstore.heap_size() >= self.config.memstore_flush_bytes {
            self.flush();
        }
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
    pub fn wal_batches_after(&self, after: SequenceId) -> Vec<(SequenceId, Vec<KeyValue>)> {
        self.wal.batches_after(after)
    }

    /// Fork a fresh follower copy of this region: a snapshot of every
    /// currently visible cell becomes the follower's base store file, and
    /// its WAL starts after this copy's last sequence so only ships
    /// newer than the snapshot are accepted. Used to (re)seed followers
    /// at table creation and to restore the replication factor after a
    /// failover consumed one.
    pub fn fork_follower(&self) -> Region {
        let cells = self.scan(&RowRange::all());
        let files = if cells.is_empty() {
            Vec::new()
        } else {
            vec![StoreFile::from_sorted(cells, 1)]
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
            role: ReplicaRole::Follower,
        }
    }

    /// Flush the memstore into a new store file and advance the WAL mark.
    pub fn flush(&mut self) {
        if self.memstore.is_empty() {
            return;
        }
        let cells = self.memstore.drain_sorted();
        let seq = self.next_file_seq;
        self.next_file_seq += 1;
        self.files.push(StoreFile::from_sorted(cells, seq));
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
    /// The merge goes one row at a time over the files' sorted cells, by
    /// reference: a cell that survives is cloned once, into the output.
    pub fn compact(&mut self) {
        if self.files.is_empty() || (self.files.len() <= 1 && self.rewriter.is_none()) {
            return;
        }
        // Oldest file first: a later run wins an exact-key collision.
        let mut by_age: Vec<&StoreFile> = self.files.iter().collect();
        by_age.sort_by_key(|f| f.sequence());
        let mut rests: Vec<&[KeyValue]> = by_age.iter().map(|f| f.cells()).collect();
        let drop_sealed_overlap = self.fault.drop_sealed_overlap(self.id);
        let mut out: Vec<KeyValue> = Vec::with_capacity(rests.iter().map(|r| r.len()).sum());
        let mut runs: Vec<&[KeyValue]> = Vec::with_capacity(rests.len());
        let mut merged: Vec<KeyValue> = Vec::new();
        while let Some(row) = rests
            .iter()
            .filter_map(|r| r.first())
            .map(|kv| &kv.row)
            .min()
        {
            runs.clear();
            for rest in &mut rests {
                if rest.first().is_some_and(|kv| kv.row == *row) {
                    let (run, after) = rest.split_at(rest.partition_point(|kv| kv.row == *row));
                    runs.push(run);
                    *rest = after;
                }
            }
            merged.clear();
            // Files are flushed in time order, so the runs of a raw row
            // follow one another and the merge is their concatenation.
            let in_order = runs.windows(2).all(|w| match w {
                [a, b] => a.last() < b.first(),
                _ => true,
            });
            if in_order {
                runs.iter().for_each(|run| merged.extend_from_slice(run));
            } else {
                // The read path's merge; a run's age is its priority.
                let sources = runs.iter().map(|run| run.to_vec()).collect();
                merged = merge_scan(sources, (0..runs.len() as u64).collect());
            }
            // Version GC: newest first within a cell, so keep the first
            // `max_versions` cells of each qualifier (`kept` counts the
            // cells seen of the qualifier the last kept cell has).
            if self.config.max_versions != usize::MAX {
                let mut kept = 1usize;
                merged.dedup_by(|later, last_kept| {
                    kept = match later.qualifier == last_kept.qualifier {
                        true => kept + 1,
                        false => 1,
                    };
                    kept > self.config.max_versions
                });
            }
            let ctx = RewriteContext {
                region: self.id,
                row,
                drop_sealed_overlap,
            };
            let replacement = self
                .rewriter
                .as_ref()
                .and_then(|rewriter| rewriter.rewrite_row(&ctx, &merged))
                // The output is sorted row by row: cells under another
                // row would break it, so such an answer is not taken and
                // the merged row stays (nothing is discarded behind it).
                .filter(|cells| cells.iter().all(|kv| kv.row == *row));
            match replacement {
                Some(mut cells) => {
                    // Rewriters emit qualifiers in their own order.
                    cells.sort();
                    self.metrics.rewritten_rows += 1;
                    out.append(&mut cells);
                }
                None => out.append(&mut merged),
            }
        }
        self.metrics.compacted_cells += out.len() as u64;
        self.metrics.compactions += 1;
        let seq = self.next_file_seq;
        self.next_file_seq += 1;
        self.files = vec![StoreFile::from_sorted(out, seq)];
    }

    /// Scan whole rows in `range`; see [`Region::scan_spec`].
    pub fn scan(&self, range: &RowRange) -> Vec<KeyValue> {
        self.scan_spec(&range.clone().into())
    }

    /// Scan the cells `spec` selects (rows clipped to the region's own
    /// range), merged across the memstore and all store files, sorted,
    /// deduplicated. Every source tests a row key against the spec's word
    /// filter once, before it copies a cell of the row, and with a column
    /// window seeks to the window in each row, so the scan costs
    /// `O(rows · log n + cells returned)` however full the rows are.
    pub fn scan_spec(&self, spec: &ScanSpec) -> Vec<KeyValue> {
        let rows = clip(spec.rows(), &self.range);
        if !rows.end.is_empty() && rows.start >= rows.end {
            return Vec::new(); // the request lies wholly outside this region
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
    /// returning how many were checked and the `(row, qualifier)` keys
    /// that failed. Read-only and sequential — the low-priority walk the
    /// background scrubber rides on the compaction cadence.
    pub fn scrub_cells(
        &self,
        verifier: &dyn crate::scrub::CellVerifier,
    ) -> crate::scrub::ScrubFinding {
        let mut finding = crate::scrub::ScrubFinding::default();
        for f in &self.files {
            for kv in f.scan(&RowRange::all()) {
                if !verifier.covers(kv) {
                    continue;
                }
                finding.scanned += 1;
                if !verifier.verify(kv) {
                    finding.corrupt.push((kv.row.clone(), kv.qualifier.clone()));
                }
            }
        }
        finding
    }

    /// Fault-injection hook (corruption harnesses only): pick the
    /// `pick % n`-th store-file cell matching `selector` and mutate its
    /// value bytes in place with `mutate`, modelling at-rest bit rot.
    /// Returns the affected `(row, qualifier)`, or `None` when nothing
    /// matches. Only the value is touched, so sort order is preserved.
    pub fn corrupt_cell_for_fault_injection(
        &mut self,
        pick: u64,
        selector: &dyn Fn(&KeyValue) -> bool,
        mutate: &dyn Fn(&mut Vec<u8>),
    ) -> Option<(Bytes, Bytes)> {
        let total: usize = self
            .files
            .iter()
            .map(|f| f.scan(&RowRange::all()).filter(|kv| selector(kv)).count())
            .sum();
        if total == 0 {
            return None;
        }
        let target = (pick % total as u64) as usize;
        let mut seen = 0usize;
        for fi in 0..self.files.len() {
            let Some(file) = self.files.get(fi) else {
                continue;
            };
            let matches = file
                .scan(&RowRange::all())
                .filter(|kv| selector(kv))
                .count();
            if seen + matches <= target {
                seen += matches;
                continue;
            }
            let within = target - seen;
            let seq = file.sequence();
            let mut cells: Vec<KeyValue> = file.scan(&RowRange::all()).cloned().collect();
            let mut hit = None;
            let mut mi = 0usize;
            for kv in cells.iter_mut() {
                if !selector(kv) {
                    continue;
                }
                if mi == within {
                    let mut value = kv.value.to_vec();
                    mutate(&mut value);
                    kv.value = Bytes::from(value);
                    hit = Some((kv.row.clone(), kv.qualifier.clone()));
                    break;
                }
                mi += 1;
            }
            if let Some(slot) = self.files.get_mut(fi) {
                *slot = StoreFile::from_sorted(cells, seq);
            }
            return hit;
        }
        None
    }

    /// Repair install: replace the stored value of every store-file cell
    /// at `(row, qualifier)` with `value`, keeping timestamps. Returns
    /// how many cells were replaced (0 = the key is not stored here).
    /// Only called by the scrub repair path, with bytes that already
    /// round-tripped checksum verification.
    pub fn replace_cell_value(&mut self, row: &[u8], qualifier: &[u8], value: &Bytes) -> usize {
        let mut replaced = 0usize;
        for fi in 0..self.files.len() {
            let Some(file) = self.files.get(fi) else {
                continue;
            };
            let hit = file
                .scan(&RowRange::all())
                .any(|kv| kv.row == row && kv.qualifier == qualifier && kv.value != *value);
            if !hit {
                continue;
            }
            let seq = file.sequence();
            let mut cells: Vec<KeyValue> = file.scan(&RowRange::all()).cloned().collect();
            for kv in cells.iter_mut() {
                if kv.row == row && kv.qualifier == qualifier && kv.value != *value {
                    kv.value = value.clone();
                    replaced += 1;
                }
            }
            if let Some(slot) = self.files.get_mut(fi) {
                *slot = StoreFile::from_sorted(cells, seq);
            }
        }
        replaced
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
        let all = self.scan(&RowRange::all());
        if all.len() < 2 {
            return Err(self);
        }
        let Some(mid_row) = all.get(all.len() / 2).map(|kv| kv.row.clone()) else {
            return Err(self);
        };
        if all.first().map(|kv| &kv.row) == Some(&mid_row) {
            // All data shares one row: nothing to split on.
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
        let (l_cells, r_cells): (Vec<KeyValue>, Vec<KeyValue>) =
            all.into_iter().partition(|kv| kv.row < mid_row);
        left.files = vec![StoreFile::from_sorted(l_cells, 1)];
        left.next_file_seq = 2;
        right.files = vec![StoreFile::from_sorted(r_cells, 1)];
        right.next_file_seq = 2;
        Ok((left, right))
    }

    /// Full crash recovery: the memstore is **dropped** (it died with the
    /// serving process), the WAL is read back through its byte encoding —
    /// exposed to [`crate::fault::FaultPlane::tear_wal`] so harnesses can
    /// tear the tail the way a mid-append crash would — and the surviving
    /// records are replayed into a fresh memstore.
    pub fn crash_recover(&mut self) {
        self.memstore = MemStore::new();
        // Deliberate injection site: mutant B (replay skips the unflushed
        // tail) stops here; the faithful plane always replays.
        if self.fault.skip_crash_replay(self.id) {
            return;
        }
        let mut encoded = self.wal.encode();
        self.fault.tear_wal(self.id, &mut encoded);
        self.wal = WriteAheadLog::from_encoded(&encoded);
        for kv in self.wal.replay() {
            self.memstore.put(kv);
        }
    }

    /// Drop the memstore (mutant C's migration bug; harness-driven via
    /// [`crate::fault::FaultPlane::drop_memstore_on_move`]).
    pub(crate) fn clear_memstore(&mut self) {
        self.memstore = MemStore::new();
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
    fn wrong_region_rejected() {
        let mut r = Region::new(
            RegionId(1),
            RowRange::new(b"a".to_vec(), b"m".to_vec()),
            RegionConfig::default(),
        );
        let err = r.put_batch(vec![kv("z", 1, "v")]).unwrap_err();
        assert!(matches!(err, RegionError::WrongRegion { .. }));
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
                max_versions: usize::MAX,
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
    fn compaction_gc_drops_old_versions() {
        let mut r = Region::new(
            RegionId(1),
            RowRange::all(),
            RegionConfig {
                max_versions: 2,
                ..RegionConfig::default()
            },
        );
        for ts in 1..=5u64 {
            r.put_batch(vec![kv("a", ts, &format!("v{ts}"))]).unwrap();
            r.flush();
        }
        r.put_batch(vec![kv("b", 1, "other")]).unwrap();
        r.compact();
        let cells = r.scan(&RowRange::all());
        // Only the two newest versions of `a` survive, plus `b`.
        let a_versions: Vec<u64> = cells
            .iter()
            .filter(|c| &c.row[..] == b"a")
            .map(|c| c.timestamp)
            .collect();
        assert_eq!(a_versions, vec![5, 4]);
        assert!(cells.iter().any(|c| &c.row[..] == b"b"));
    }

    #[test]
    fn crash_recover_drops_memstore_and_replays_wal_bytes() {
        let mut r = region();
        r.put_batch(vec![kv("a", 1, "flushed")]).unwrap();
        r.flush();
        r.put_batch(vec![kv("b", 1, "unflushed")]).unwrap();
        r.crash_recover();
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
        assert_eq!(follower.role(), ReplicaRole::Follower);
        let seq = primary.put_batch_assign(vec![kv("a", 1, "v1")]).unwrap();
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
        let s1 = primary.put_batch_assign(vec![kv("a", 1, "va")]).unwrap();
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
        let s3 = primary.put_batch_assign(vec![kv("c", 1, "vc")]).unwrap();
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
        let s1 = primary.put_batch_assign(vec![kv("a", 1, "va")]).unwrap();
        let s2 = primary.put_batch_assign(vec![kv("b", 1, "vb")]).unwrap();
        let s3 = primary.put_batch_assign(vec![kv("c", 1, "vc")]).unwrap();
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
                .put_batch_assign(vec![kv(&format!("r{i}"), 1, "v")])
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
        r.set_role(ReplicaRole::Follower);
        assert_eq!(r.role(), ReplicaRole::Follower);
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
