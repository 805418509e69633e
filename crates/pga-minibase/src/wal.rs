//! Write-ahead log.
//!
//! Every put is appended here before touching the memstore, so a region
//! whose server dies can be rebuilt by replay (the master's reassignment
//! path exercises this). The log lives in shared memory — the stand-in for
//! the paper's HDFS — so it survives the serving thread.
//!
//! The log keeps one record per batch: the batch the memstore keeps,
//! shared, and its sequence id. A kept batch never changes, so an append
//! is one handle clone and copies no cell, and a flush drops the handles.
//! [`WriteAheadLog::encode`] writes the cells in the image's cell layout
//! when an image is taken, and [`WriteAheadLog::from_encoded`] decodes an
//! image back into batches. Replay and backfill
//! ([`WriteAheadLog::batches_after`]) clone batches.

use parking_lot::Mutex;
use std::sync::Arc;

use bytes::Bytes;

use pga_repl::ShipOutcome;

use crate::batch::PutBatch;
use crate::crc::crc32;

/// Sequence number assigned to each appended batch.
pub type SequenceId = u64;

/// Magic prefix of an encoded WAL image.
const WAL_MAGIC: &[u8; 4] = b"PGWL";
/// Encoded-format version.
const WAL_VERSION: u8 = 2;

/// The longest row key or qualifier a cell may have: the image stores each
/// length in two bytes. A batch holding a longer one must be refused
/// before it is appended ([`PutBatch::longest_key`]).
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

/// What [`WriteAheadLog::decode_report`] found while parsing an encoded
/// WAL image. Used by recovery oracles: a torn tail is survivable (the
/// durable prefix is recovered), a non-monotone sequence id is a protocol
/// violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDecodeReport {
    /// Complete batch records recovered.
    pub records: usize,
    /// Cells recovered across those records.
    pub cells: usize,
    /// Trailing bytes were discarded (torn/corrupt tail).
    pub torn: bool,
    /// Batch sequence ids were strictly increasing over the recovered
    /// prefix and all above the flush mark. `false` indicates a protocol
    /// violation, not a crash artifact.
    pub monotone: bool,
}

/// One appended batch: the memstore's own, shared.
#[derive(Debug)]
struct Record {
    seq: SequenceId,
    cells: Arc<PutBatch>,
}

#[derive(Debug, Default)]
struct WalInner {
    /// Retained batches, ascending by sequence id. A batch with no cells
    /// leaves no record (it still takes its sequence id).
    batches: Vec<Record>,
    next_seq: SequenceId,
    /// Sequence ids at or below this mark are durably flushed to store
    /// files and can be discarded.
    flushed_through: SequenceId,
}

impl WalInner {
    /// Record `cells` as batch `seq`, the new last sequence.
    fn push(&mut self, seq: SequenceId, cells: Arc<PutBatch>) {
        self.next_seq = seq;
        if !cells.is_empty() {
            self.batches.push(Record { seq, cells });
        }
    }

    /// Batches newer than the flush mark, in append order.
    fn unflushed(&self) -> impl Iterator<Item = &Record> {
        self.batches
            .iter()
            .filter(move |b| b.seq > self.flushed_through)
    }
}

/// Bytes a cell with these lengths takes encoded.
fn encoded_len(row: usize, qualifier: usize, value: usize) -> usize {
    2 + row + 2 + qualifier + 8 + 4 + value
}

/// Append one cell: `row_len u16 | row | qual_len u16 | qual | ts u64 |
/// val_len u32 | value`, little-endian.
fn encode_cell(row: &[u8], qualifier: &[u8], version: u64, value: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    out.extend_from_slice(row);
    out.extend_from_slice(&(qualifier.len() as u16).to_le_bytes());
    out.extend_from_slice(qualifier);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// Append every cell of `batch`, encoded, to `out`.
fn encode_batch(batch: &PutBatch, out: &mut Vec<u8>) {
    for cell in batch.cells(0..batch.len()) {
        encode_cell(cell.row, cell.qualifier, cell.timestamp, cell.value, out);
    }
}

impl PutBatch {
    /// Bytes the cells take encoded, a run at a time, the columns' bytes
    /// together.
    fn encoded_len(&self) -> usize {
        let rows: usize = (0..self.runs.len())
            .map(|r| {
                let run = self.run(r);
                run.cells().len() * encoded_len(run.row().len(), 0, 0)
            })
            .sum();
        let (qualifiers, values) = self.column_bytes();
        rows + qualifiers + values
    }
}

/// A shareable write-ahead log for one region.
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    inner: Arc<Mutex<WalInner>>,
}

impl WriteAheadLog {
    /// Empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Append a batch atomically, kept as a batch of its own; returns the
    /// batch's sequence id. Every row key and qualifier must be at most
    /// [`MAX_KEY_LEN`] bytes long.
    pub fn append_batch(&self, cells: impl Into<PutBatch>) -> SequenceId {
        self.append(Arc::new(cells.into()))
    }

    /// Append `batch`, which the caller keeps too and never changes;
    /// returns its sequence id.
    pub(crate) fn append(&self, batch: Arc<PutBatch>) -> SequenceId {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq + 1;
        inner.push(seq, batch);
        seq
    }

    /// Append `batch`, which the caller keeps too and never changes,
    /// under a sequence id assigned elsewhere — the replication path,
    /// where a follower replays WAL records shipped by the primary under
    /// the primary's sequence numbering. Accepted only when `seq` is the
    /// **next** sequence (`last_sequence() + 1`): a duplicate or stale
    /// ship is [`ShipOutcome::Stale`] (already durable here), and a ship
    /// that would leave a hole is [`ShipOutcome::Gap`] and applies
    /// nothing. Contiguity is what lets failover promotion read
    /// `last_sequence()` as "holds every batch up to here" — a gapped WAL
    /// would report the position of its newest batch while silently
    /// missing earlier acked ones.
    ///
    /// `allow_gap` drops the contiguity check: any sequence beyond the
    /// last is accepted, holes included. This is the *broken*
    /// pre-backfill semantics, kept solely as the injection target for
    /// the gap-tolerant-follower mutant — the faithful stack never sets
    /// it.
    pub(crate) fn ship(
        &self,
        seq: SequenceId,
        batch: Arc<PutBatch>,
        allow_gap: bool,
    ) -> ShipOutcome {
        let mut inner = self.inner.lock();
        if seq <= inner.next_seq {
            return ShipOutcome::Stale;
        }
        if !allow_gap && seq != inner.next_seq + 1 {
            return ShipOutcome::Gap;
        }
        inner.push(seq, batch);
        ShipOutcome::Applied
    }

    /// Retained batches with sequence ids strictly greater than `after`,
    /// in append order — the tail a primary serves to backfill a gapped
    /// follower. Only covers what [`WriteAheadLog::mark_flushed`] has not
    /// discarded: a tail that no longer reaches back to `after + 1` means
    /// the follower cannot be caught up from this log and must stay
    /// behind (safe — its applied sequence honestly reports its prefix).
    pub fn batches_after(&self, after: SequenceId) -> Vec<(SequenceId, PutBatch)> {
        let inner = self.inner.lock();
        inner
            .batches
            .iter()
            .filter(|b| b.seq > after)
            .map(|b| (b.seq, PutBatch::clone(&b.cells)))
            .collect()
    }

    /// Empty log whose sequence numbering starts after `seq`. Used when
    /// forking a fresh follower from a primary snapshot: the snapshot
    /// covers everything through `seq`, so the follower's WAL must accept
    /// shipped batches from `seq + 1` onward and reject anything older.
    pub fn with_start_sequence(seq: SequenceId) -> Self {
        WriteAheadLog {
            inner: Arc::new(Mutex::new(WalInner {
                batches: Vec::new(),
                next_seq: seq,
                flushed_through: seq,
            })),
        }
    }

    /// Entries newer than the flush mark, in append order, copied into one
    /// batch — the data a recovering server must replay into a fresh
    /// memstore (a region's own recovery shares the batches instead).
    pub fn replay(&self) -> PutBatch {
        let mut out = PutBatch::new();
        for batch in self.unflushed_batches() {
            out.append(PutBatch::clone(&batch));
        }
        out
    }

    /// The batches newer than the flush mark, shared, in append order.
    pub(crate) fn unflushed_batches(&self) -> Vec<Arc<PutBatch>> {
        let inner = self.inner.lock();
        inner.unflushed().map(|b| b.cells.clone()).collect()
    }

    /// Mark everything up to `seq` as flushed and drop those batches.
    pub fn mark_flushed(&self, seq: SequenceId) {
        let mut inner = self.inner.lock();
        inner.flushed_through = inner.flushed_through.max(seq);
        let cutoff = inner.flushed_through;
        inner.batches.retain(|b| b.seq > cutoff);
    }

    /// Number of unflushed entries.
    pub fn unflushed_len(&self) -> usize {
        let inner = self.inner.lock();
        inner.unflushed().map(|b| b.cells.len()).sum()
    }

    /// Latest assigned sequence id.
    pub fn last_sequence(&self) -> SequenceId {
        self.inner.lock().next_seq
    }

    /// Serialise the unflushed tail to bytes — the on-"HDFS" image a
    /// recovering server reads back. Format (little-endian):
    ///
    /// ```text
    /// magic "PGWL" | version u8 | flushed_through u64
    /// repeat per batch record:
    ///   seq u64 | cell_count u32 | cells | crc32 u32 (over seq..cells)
    /// cell: row_len u16 | row | qual_len u16 | qual | ts u64 | val_len u32 | value
    /// ```
    ///
    /// The cells are encoded here, from the batches the log shares.
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.inner.lock();
        let len = inner
            .batches
            .iter()
            .map(|b| 16 + b.cells.encoded_len())
            .sum::<usize>();
        let mut out = Vec::with_capacity(13 + len);
        out.extend_from_slice(WAL_MAGIC);
        out.push(WAL_VERSION);
        out.extend_from_slice(&inner.flushed_through.to_le_bytes());
        for batch in &inner.batches {
            let start = out.len();
            out.extend_from_slice(&batch.seq.to_le_bytes());
            out.extend_from_slice(&(batch.cells.len() as u32).to_le_bytes());
            encode_batch(&batch.cells, &mut out);
            let sum = crc32(&out[start..]);
            out.extend_from_slice(&sum.to_le_bytes());
        }
        out
    }

    /// Rebuild a WAL from an encoded image, tolerating a torn or corrupt
    /// tail: parsing stops at the first incomplete record, checksum
    /// mismatch, or sequence-id regression, and everything before that
    /// point — exactly the durable prefix of batches — is recovered.
    /// Never panics, whatever the input bytes.
    pub fn from_encoded(bytes: &[u8]) -> WriteAheadLog {
        let (inner, _) = decode_inner(bytes);
        WriteAheadLog {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Parse an encoded image and report what was found, without building
    /// a log. Recovery oracles use this to distinguish a survivable torn
    /// tail from a sequence-id protocol violation.
    pub fn decode_report(bytes: &[u8]) -> WalDecodeReport {
        let (_, report) = decode_inner(bytes);
        report
    }

    /// Distinct batch sequence ids currently retained, in append order.
    pub fn batch_sequences(&self) -> Vec<SequenceId> {
        self.inner.lock().batches.iter().map(|b| b.seq).collect()
    }
}

/// Cursor-based reader that returns `None` instead of slicing past the
/// end — a torn tail must surface as "record incomplete", never a panic.
struct WalReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WalReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| {
            let mut a = [0u8; 2];
            a.copy_from_slice(b);
            u16::from_le_bytes(a)
        })
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| {
            let mut a = [0u8; 4];
            a.copy_from_slice(b);
            u32::from_le_bytes(a)
        })
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        })
    }
}

/// An encoded cell's `(row, qualifier, ts, value)`, borrowed.
type CellFields<'a> = (&'a [u8], &'a [u8], u64, &'a [u8]);

/// The fields of the next encoded cell, or `None` when the bytes end
/// inside it.
fn read_cell<'a>(r: &mut WalReader<'a>) -> Option<CellFields<'a>> {
    let row_len = r.u16()? as usize;
    let row = r.take(row_len)?;
    let qual_len = r.u16()? as usize;
    let qualifier = r.take(qual_len)?;
    let timestamp = r.u64()?;
    let val_len = r.u32()? as usize;
    let value = r.take(val_len)?;
    Some((row, qualifier, timestamp, value))
}

/// One record parsed from the image, or `None` when the tail is torn:
/// the record's cells are decoded into a batch as they are walked, then
/// the checksum checked.
fn decode_record(r: &mut WalReader<'_>) -> Option<Record> {
    let start = r.pos;
    let seq = r.u64()?;
    let count = r.u32()?;
    let mut cells = PutBatch::new();
    for _ in 0..count {
        let (row, qualifier, version, value) = read_cell(r)?;
        cells.open_run(row, || Bytes::copy_from_slice(row));
        cells.push_cell(qualifier, version, value);
    }
    let body_end = r.pos;
    let stored = r.u32()?;
    let computed = r.bytes.get(start..body_end).map(crc32).unwrap_or_default();
    if stored != computed {
        return None;
    }
    Some(Record {
        seq,
        cells: Arc::new(cells),
    })
}

fn decode_inner(bytes: &[u8]) -> (WalInner, WalDecodeReport) {
    let mut report = WalDecodeReport {
        records: 0,
        cells: 0,
        torn: false,
        monotone: true,
    };
    let mut inner = WalInner::default();
    let mut r = WalReader { bytes, pos: 0 };
    let header_ok = r.take(4).map(|m| m == WAL_MAGIC).unwrap_or(false)
        && r.take(1).map(|v| v == [WAL_VERSION]).unwrap_or(false);
    if !header_ok {
        report.torn = !bytes.is_empty();
        return (inner, report);
    }
    let Some(flushed_through) = r.u64() else {
        report.torn = true;
        return (inner, report);
    };
    inner.flushed_through = flushed_through;
    inner.next_seq = flushed_through;
    while r.pos < bytes.len() {
        match decode_record(&mut r) {
            Some(batch) => {
                if batch.seq <= inner.next_seq {
                    // Sequence regression: a protocol violation, not a
                    // torn tail. Keep the valid prefix, flag it.
                    report.monotone = false;
                    break;
                }
                report.records += 1;
                report.cells += batch.cells.len();
                inner.push(batch.seq, batch.cells);
            }
            None => {
                report.torn = true;
                break;
            }
        }
    }
    (inner, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KeyValue;

    fn kv(row: &str, ts: u64) -> KeyValue {
        KeyValue::new(row.as_bytes().to_vec(), b"q".to_vec(), ts, b"v".to_vec())
    }

    /// Ship `cells` to `wal` as sequence `seq`.
    fn ship(wal: &WriteAheadLog, seq: SequenceId, cells: &[KeyValue]) -> ShipOutcome {
        wal.ship(seq, Arc::new(cells.into()), false)
    }

    /// [`ship`] without the contiguity check.
    fn ship_gap(wal: &WriteAheadLog, seq: SequenceId, cells: &[KeyValue]) -> ShipOutcome {
        wal.ship(seq, Arc::new(cells.into()), true)
    }

    #[test]
    fn append_and_replay_in_order() {
        let wal = WriteAheadLog::new();
        wal.append_batch(vec![kv("a", 1), kv("b", 1)]);
        wal.append_batch(vec![kv("c", 2)]);
        let replayed = wal.replay().into_kvs();
        assert_eq!(replayed.len(), 3);
        assert_eq!(&replayed[0].row[..], b"a");
        assert_eq!(&replayed[2].row[..], b"c");
    }

    #[test]
    fn flush_mark_truncates_replay() {
        let wal = WriteAheadLog::new();
        let s1 = wal.append_batch(vec![kv("a", 1)]);
        let _s2 = wal.append_batch(vec![kv("b", 1)]);
        wal.mark_flushed(s1);
        let replayed = wal.replay().into_kvs();
        assert_eq!(replayed.len(), 1);
        assert_eq!(&replayed[0].row[..], b"b");
        assert_eq!(wal.unflushed_len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let wal = WriteAheadLog::new();
        let clone = wal.clone();
        wal.append_batch(vec![kv("a", 1)]);
        assert_eq!(clone.replay().len(), 1);
        clone.mark_flushed(clone.last_sequence());
        assert_eq!(wal.unflushed_len(), 0);
    }

    #[test]
    fn flush_mark_is_monotone() {
        let wal = WriteAheadLog::new();
        let s1 = wal.append_batch(vec![kv("a", 1)]);
        let s2 = wal.append_batch(vec![kv("b", 1)]);
        wal.mark_flushed(s2);
        wal.mark_flushed(s1); // stale mark must not resurrect entries
        assert_eq!(wal.unflushed_len(), 0);
    }

    /// Build a WAL holding `batches` batches (batch `b` has `b + 1` cells
    /// with distinguishable rows) and return it.
    fn wal_with_batches(batches: usize) -> WriteAheadLog {
        let wal = WriteAheadLog::new();
        for b in 0..batches {
            let kvs: Vec<KeyValue> = (0..=b)
                .map(|c| kv(&format!("b{b}c{c}"), b as u64))
                .collect();
            wal.append_batch(kvs);
        }
        wal
    }

    #[test]
    fn encode_decode_roundtrip_preserves_replay_and_sequences() {
        let wal = wal_with_batches(4);
        wal.mark_flushed(1); // first batch flushed: must not be encoded
        let decoded = WriteAheadLog::from_encoded(&wal.encode());
        assert_eq!(decoded.replay(), wal.replay());
        assert_eq!(decoded.batch_sequences(), wal.batch_sequences());
        assert_eq!(decoded.last_sequence(), wal.last_sequence());
        // Appends continue from the recovered sequence.
        let next = decoded.append_batch(vec![kv("post", 9)]);
        assert_eq!(next, wal.last_sequence() + 1);
        let report = WriteAheadLog::decode_report(&wal.encode());
        assert_eq!(report.records, 3);
        assert_eq!(report.cells, 2 + 3 + 4);
        assert!(!report.torn);
        assert!(report.monotone);
    }

    /// Satellite: truncate mid-record at **every** byte boundary of the
    /// last record. `replay()` must return exactly the durable prefix of
    /// batches and must never panic.
    #[test]
    fn torn_tail_at_every_byte_boundary_recovers_exact_prefix() {
        let batches = 3;
        let full = wal_with_batches(batches);
        let prefix = wal_with_batches(batches - 1);
        let full_bytes = full.encode();
        let prefix_bytes = prefix.encode();
        assert!(
            full_bytes.starts_with(&prefix_bytes),
            "records are append-only, so the shorter log is a byte prefix"
        );
        let expected_prefix = prefix.replay();
        // Start one byte into the last record: at exactly `prefix_len` the
        // image is complete (not torn), which is covered by the roundtrip
        // test above.
        for cut in prefix_bytes.len() + 1..full_bytes.len() {
            let torn = &full_bytes[..cut];
            let recovered = WriteAheadLog::from_encoded(torn);
            assert_eq!(
                recovered.replay(),
                expected_prefix,
                "cut at byte {cut} must yield exactly the durable prefix"
            );
            let report = WriteAheadLog::decode_report(torn);
            assert!(report.torn, "cut at byte {cut} must be reported torn");
            assert!(report.monotone);
        }
        // The untruncated image recovers everything.
        assert_eq!(
            WriteAheadLog::from_encoded(&full_bytes).replay(),
            full.replay()
        );
    }

    /// A record ends in the CRC-32 of its bytes, and an image of the
    /// older format (version 1, whose records ended in a 64-bit fold) is
    /// refused whole rather than misread.
    #[test]
    fn records_carry_the_crc32_of_their_bytes() {
        let bytes = wal_with_batches(1).encode();
        let header = WAL_MAGIC.len() + 1 + 8;
        let (record, sum) = bytes[header..].split_at(bytes.len() - header - 4);
        assert_eq!(sum, crc32(record).to_le_bytes());
        let mut old = bytes.clone();
        old[WAL_MAGIC.len()] = 1;
        let report = WriteAheadLog::decode_report(&old);
        assert_eq!((report.records, report.torn), (0, true));
    }

    #[test]
    fn corrupt_byte_in_tail_record_is_discarded_by_checksum() {
        let full = wal_with_batches(2);
        let prefix_len = wal_with_batches(1).encode().len();
        let mut bytes = full.encode();
        for flip in prefix_len..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[flip] ^= 0xA5;
            let recovered = WriteAheadLog::from_encoded(&corrupted);
            // Either the checksum catches it (prefix recovered) or the
            // corrupted length field makes the record incomplete — in no
            // case may garbage cells or a panic escape.
            assert!(recovered.replay().len() <= full.replay().len());
            let report = WriteAheadLog::decode_report(&corrupted);
            assert!(report.records <= 2);
        }
        // Truncating to nothing, garbage, or a bad magic is survivable.
        bytes.truncate(3);
        assert!(WriteAheadLog::from_encoded(&bytes).replay().is_empty());
        assert!(WriteAheadLog::from_encoded(b"not-a-wal")
            .replay()
            .is_empty());
        assert!(WriteAheadLog::from_encoded(&[]).replay().is_empty());
    }

    #[test]
    fn append_with_seq_is_contiguous_and_idempotent() {
        let wal = WriteAheadLog::new();
        assert_eq!(ship(&wal, 1, &[kv("a", 1)]), ShipOutcome::Applied);
        assert_eq!(
            ship(&wal, 1, &[kv("a", 1)]),
            ShipOutcome::Stale,
            "duplicate ship must be rejected"
        );
        assert_eq!(ship(&wal, 2, &[kv("b", 2)]), ShipOutcome::Applied);
        assert_eq!(
            ship(&wal, 1, &[kv("stale", 1)]),
            ShipOutcome::Stale,
            "stale ship must be rejected"
        );
        assert_eq!(wal.batch_sequences(), vec![1, 2]);
        assert_eq!(wal.last_sequence(), 2);
        // Local appends continue after the shipped numbering.
        assert_eq!(wal.append_batch(vec![kv("c", 3)]), 3);
    }

    #[test]
    fn append_with_seq_rejects_holes_and_applies_nothing() {
        let wal = WriteAheadLog::new();
        assert_eq!(ship(&wal, 1, &[kv("a", 1)]), ShipOutcome::Applied);
        // Batch 2 was lost in transit; batch 3 must not open a hole.
        assert_eq!(ship(&wal, 3, &[kv("c", 3)]), ShipOutcome::Gap);
        assert_eq!(wal.last_sequence(), 1, "a rejected gap advances nothing");
        assert_eq!(wal.batch_sequences(), vec![1]);
        assert_eq!(wal.replay().len(), 1);
        // Backfilling the missing batch unblocks the tail.
        assert_eq!(ship(&wal, 2, &[kv("b", 2)]), ShipOutcome::Applied);
        assert_eq!(ship(&wal, 3, &[kv("c", 3)]), ShipOutcome::Applied);
        assert_eq!(wal.batch_sequences(), vec![1, 2, 3]);
    }

    #[test]
    fn allow_gap_variant_reproduces_the_holey_wal() {
        // The mutant hook's semantics: the gap lands, last_sequence lies.
        let wal = WriteAheadLog::new();
        assert_eq!(ship_gap(&wal, 1, &[kv("a", 1)]), ShipOutcome::Applied);
        assert_eq!(ship_gap(&wal, 3, &[kv("c", 3)]), ShipOutcome::Applied);
        assert_eq!(wal.last_sequence(), 3);
        assert_eq!(wal.batch_sequences(), vec![1, 3], "hole retained");
        assert_eq!(
            ship_gap(&wal, 2, &[kv("b", 2)]),
            ShipOutcome::Stale,
            "the hole can never be healed afterwards"
        );
    }

    #[test]
    fn batches_after_serves_the_retained_tail() {
        let wal = wal_with_batches(4); // seqs 1..=4, batch b has b+1 cells
        let tail = wal.batches_after(2);
        assert_eq!(tail.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(tail[0].1.len(), 3);
        assert_eq!(tail[1].1.len(), 4);
        assert!(wal.batches_after(4).is_empty());
        // Flushing bounds what backfill can serve.
        wal.mark_flushed(3);
        assert_eq!(wal.batches_after(0).len(), 1, "only batch 4 retained");
    }

    #[test]
    fn start_sequence_rejects_pre_snapshot_ships() {
        let wal = WriteAheadLog::with_start_sequence(7);
        assert_eq!(wal.last_sequence(), 7);
        assert_eq!(ship(&wal, 7, &[kv("old", 1)]), ShipOutcome::Stale);
        assert_eq!(ship(&wal, 8, &[kv("new", 1)]), ShipOutcome::Applied);
        assert_eq!(wal.replay().len(), 1);
        // Encode/decode keeps the start mark.
        let back = WriteAheadLog::from_encoded(&wal.encode());
        assert_eq!(back.last_sequence(), 8);
        assert_eq!(ship(&back, 8, &[kv("dup", 1)]), ShipOutcome::Stale);
    }

    #[test]
    fn sequence_regression_is_flagged_not_panicked() {
        // Hand-craft an image whose second record repeats the first seq.
        let wal = wal_with_batches(1);
        let bytes = wal.encode();
        let record = &bytes[13..]; // skip magic(4) + version(1) + flushed(8)
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(record);
        let report = WriteAheadLog::decode_report(&doubled);
        assert!(!report.monotone, "duplicated seq must break monotonicity");
        assert_eq!(report.records, 1, "only the valid prefix is kept");
        let recovered = WriteAheadLog::from_encoded(&doubled);
        assert_eq!(recovered.replay(), wal.replay());
    }

    /// The pinned sequence: two local appends, an empty batch (it takes
    /// a sequence id and leaves no record), a flush of the first batch, a
    /// shipped batch under the next sequence id, and an append after it.
    /// Cells cover an empty row, qualifier and value, binary bytes and
    /// `u64::MAX`.
    fn pinned_wal() -> WriteAheadLog {
        let cell = |row: &str, qual: &[u8], ts: u64, value: &[u8]| {
            KeyValue::new(row.as_bytes().to_vec(), qual.to_vec(), ts, value.to_vec())
        };
        let wal = WriteAheadLog::new();
        wal.append_batch(vec![cell("r1", b"a", 1, b"x"), cell("r2", b"bb", 2, b"yy")]);
        wal.append_batch(vec![cell("r3", b"\x00\x01", 3, b"")]);
        wal.append_batch(PutBatch::new());
        wal.mark_flushed(1);
        let shipped = [cell("r4", b"q", u64::MAX, b"\xff\xfe\xfd")];
        assert_eq!(ship(&wal, 4, &shipped), ShipOutcome::Applied);
        wal.append_batch(vec![cell("", b"", 0, b"v"), cell("r5", b"q", 5, b"w")]);
        wal
    }

    /// The image of [`pinned_wal`], byte for byte as the log encoded it
    /// when it still held one cloned cell per entry.
    const PINNED_IMAGE: &str = "5047574c020100000000000000\
        0200000000000000010000000200723302000001030000000000000000000000cd6a58e1\
        04000000000000000100000002007234010071ffffffffffffffff03000000fffefd2d60dc27\
        05000000000000000200000000000000000000000000000001000000760200723501007105000000000000000100000077b5221301";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn encoded_image_is_pinned_and_reads_back_per_batch() {
        let wal = pinned_wal();
        let image = wal.encode();
        assert_eq!(hex(&image), PINNED_IMAGE);
        assert_eq!(wal.batch_sequences(), vec![2, 4, 5]);
        assert_eq!((wal.last_sequence(), wal.unflushed_len()), (5, 4));
        let rows = |cells: &[KeyValue]| -> Vec<Vec<u8>> {
            cells.iter().map(|kv| kv.row.to_vec()).collect()
        };
        let tail: Vec<(SequenceId, Vec<KeyValue>)> = wal
            .batches_after(0)
            .into_iter()
            .map(|(s, batch)| (s, batch.into_kvs()))
            .collect();
        let per_batch: Vec<(SequenceId, Vec<Vec<u8>>)> =
            tail.iter().map(|(s, kvs)| (*s, rows(kvs))).collect();
        assert_eq!(
            per_batch,
            vec![
                (2, vec![b"r3".to_vec()]),
                (4, vec![b"r4".to_vec()]),
                (5, vec![b"".to_vec(), b"r5".to_vec()]),
            ]
        );
        assert_eq!(tail[1].1[0].timestamp, u64::MAX);
        assert_eq!(&tail[1].1[0].value[..], b"\xff\xfe\xfd");
        assert_eq!(
            wal.replay().into_kvs(),
            tail.iter()
                .flat_map(|(_, kvs)| kvs.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(wal.batches_after(4).len(), 1);
        // Each flush drops whole batches; what stays reads the same.
        for (flushed, left) in [(2, 3), (4, 2), (5, 0)] {
            let wal = pinned_wal();
            wal.mark_flushed(flushed);
            assert_eq!(wal.unflushed_len(), left);
            assert_eq!(wal.replay().len(), left);
            let back = WriteAheadLog::from_encoded(&wal.encode());
            assert_eq!(back.replay(), wal.replay());
            assert_eq!(back.batch_sequences(), wal.batch_sequences());
            assert_eq!(back.last_sequence(), flushed.max(5));
        }
        // A torn tail recovers exactly the batches whose records are
        // whole, and encodes back to the image up to the last of them.
        let mut ends = vec![13];
        for (_, kvs) in &tail {
            let cells: usize = PutBatch::from(&kvs[..]).encoded_len();
            ends.push(ends[ends.len() - 1] + 16 + cells);
        }
        assert_eq!(ends.last(), Some(&image.len()));
        for cut in 13..image.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
            let torn = WriteAheadLog::from_encoded(&image[..cut]);
            assert_eq!(torn.batch_sequences(), wal.batch_sequences()[..whole]);
            let expected: Vec<KeyValue> = tail[..whole]
                .iter()
                .flat_map(|(_, kvs)| kvs.clone())
                .collect();
            assert_eq!(torn.replay().into_kvs(), expected, "cut at {cut}");
            assert_eq!(torn.unflushed_len(), expected.len());
            assert_eq!(torn.encode(), image[..ends[whole]]);
            let report = WriteAheadLog::decode_report(&image[..cut]);
            assert_eq!(report.torn, !ends.contains(&cut), "cut at {cut}");
            assert_eq!((report.records, report.cells), (whole, expected.len()));
        }
    }
}
