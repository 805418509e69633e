//! Property tests: the region behaves like a sorted map of
//! `(row, qualifier, timestamp) → value` under arbitrary interleavings of
//! puts, flushes, compactions and scans.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use pga_minibase::{
    concat_region_scans, merge_scan, CellRef, ColumnRange, CompactionRewriter, KeyValue, MemStore,
    PutBatch, Region, RegionConfig, RegionId, RewriteContext, RowRange, RowWords, RowWriter,
    ScanCells, ScanSpec,
};

type ModelKey = (Vec<u8>, Vec<u8>, std::cmp::Reverse<u64>);

#[derive(Debug, Clone)]
enum Op {
    Put { row: u8, qual: u8, ts: u64, val: u8 },
    Flush,
    Compact,
}

/// Everything a memstore holds, flushed into a store file and read back
/// as owned cells; the memstore is empty afterwards.
fn drained(memstore: &mut MemStore) -> Vec<KeyValue> {
    let file = memstore.drain(1);
    file.scan(&RowRange::all()).map(CellRef::to_kv).collect()
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..20, 0u8..4, 0u64..8, any::<u8>()).prop_map(|(row, qual, ts, val)| Op::Put {
            row,
            qual,
            ts,
            val
        }),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn apply(region: &mut Region, model: &mut BTreeMap<ModelKey, u8>, op: &Op) {
    match *op {
        Op::Put { row, qual, ts, val } => {
            let r = vec![b'r', row];
            let q = vec![b'q', qual];
            region
                .put_batch(vec![KeyValue::new(r.clone(), q.clone(), ts, vec![val])])
                .unwrap();
            model.insert((r, q, std::cmp::Reverse(ts)), val);
        }
        Op::Flush => region.flush(),
        Op::Compact => region.compact(),
    }
}

/// A qualifier or a window edge, one or two bytes long. Stored qualifiers
/// take even first bytes (`step` 2) and edges every value, so an edge can
/// land on a stored qualifier, between two, or on a prefix of one.
fn qualifier(step: u8) -> impl Strategy<Value = Vec<u8>> {
    (0u8..12 / step, 0u8..3).prop_map(move |(q, tail)| match tail {
        0 => vec![q * step],
        _ => vec![q * step, tail],
    })
}

#[derive(Debug, Clone)]
enum WideOp {
    Put {
        row: u8,
        qual: Vec<u8>,
        ts: u64,
        val: u8,
    },
    Flush,
    Compact,
}

fn wide_op() -> impl Strategy<Value = WideOp> {
    prop_oneof![
        10 => (0u8..6, qualifier(2), 0u64..3, any::<u8>())
            .prop_map(|(row, qual, ts, val)| WideOp::Put { row, qual, ts, val }),
        1 => Just(WideOp::Flush),
        1 => Just(WideOp::Compact),
    ]
}

/// Row keys for a word filter with skip 1 and width 2, in key order: keys
/// shorter than the skip, partial words, `ab` at every aligned position,
/// and words spelled only across a word boundary (`sxaby` holds no `ab`,
/// `sabab` no `ba`).
const WORD_ROWS: [&[u8]; 10] = [
    b"", b"s", b"sa", b"sab", b"sabab", b"sabxy", b"sxaby", b"sxyab", b"sxyxy", b"tab",
];
/// The words each of [`WORD_ROWS`] holds, worked out by hand: the model
/// the filter is held to.
const HELD: [&[&str]; 10] = [
    &[],
    &[],
    &[],
    &["ab"],
    &["ab"],
    &["ab", "xy"],
    &[],
    &["xy", "ab"],
    &["xy"],
    &["ab"],
];
/// The words a filter draws from.
const WORDS: [&str; 3] = ["ab", "xy", "ba"];

/// A put to one of [`WORD_ROWS`] (its index in `row`), a flush or a
/// compaction.
fn word_op() -> impl Strategy<Value = WideOp> {
    prop_oneof![
        10 => (0..WORD_ROWS.len() as u8, qualifier(2), 0u64..3, any::<u8>())
            .prop_map(|(row, qual, ts, val)| WideOp::Put { row, qual, ts, val }),
        1 => Just(WideOp::Flush),
        1 => Just(WideOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A column-window scan is the whole-row scan filtered by qualifier:
    /// whatever mix of memstore and store files holds the rows, however
    /// many versions a cell has, wherever the window edges fall, with
    /// none, one or several ranges per row.
    #[test]
    fn column_window_scan_equals_filtered_whole_row_scan(
        ops in proptest::collection::vec(wide_op(), 1..160),
        windows in proptest::collection::vec((qualifier(1), qualifier(1)), 0..4),
        lo in 0u8..6,
        span in 0u8..7,
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: 512, // force frequent automatic flushes
            compaction_file_threshold: 4,
        });
        for o in &ops {
            match o {
                WideOp::Put { row, qual, ts, val } => {
                    region
                        .put_batch(vec![KeyValue::new(vec![b'r', *row], qual.clone(), *ts, vec![*val])])
                        .unwrap();
                }
                WideOp::Flush => region.flush(),
                WideOp::Compact => region.compact(),
            }
        }
        // span 0 scans every row; otherwise a sub-range (possibly past the data).
        let rows = match span {
            0 => RowRange::all(),
            _ => RowRange::new(vec![b'r', lo], vec![b'r', lo + span]),
        };
        let columns: Vec<ColumnRange> = windows
            .iter()
            .map(|(start, end)| ColumnRange::new(start.clone(), end.clone()))
            .collect();
        let expect: Vec<KeyValue> = region
            .scan(&rows)
            .into_iter()
            .filter(|kv| columns.iter().any(|c| kv.qualifier >= c.start && kv.qualifier < c.end))
            .collect();
        let got = region.scan_spec(&ScanSpec::windowed(rows, columns));
        prop_assert_eq!(got.to_vec(), expect);
    }

    /// A row-word scan is the same scan unfiltered with its rows kept by
    /// `words.matches(row)`: windowed or whole-row, over any mix of
    /// memstore and store files, with overwritten and older versions, and
    /// with row keys shorter than the skip, words at every aligned
    /// position, and words spelled only across a word boundary — where
    /// `matches` agrees with the words each key holds by hand.
    #[test]
    fn a_row_word_scan_is_the_unfiltered_scan_filtered_row_by_row(
        ops in proptest::collection::vec(word_op(), 1..160),
        words in proptest::collection::vec(0..WORDS.len(), 0..3),
        windows in proptest::collection::vec((qualifier(1), qualifier(1)), 0..3),
        windowed in any::<bool>(),
        (a, b) in (0..WORD_ROWS.len(), 0..WORD_ROWS.len()),
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: 512, // force frequent automatic flushes
            compaction_file_threshold: 4,
        });
        for o in &ops {
            match o {
                WideOp::Put { row, qual, ts, val } => {
                    region
                        .put_batch(vec![KeyValue::new(
                            WORD_ROWS[*row as usize].to_vec(),
                            qual.clone(),
                            *ts,
                            vec![*val],
                        )])
                        .unwrap();
                }
                WideOp::Flush => region.flush(),
                WideOp::Compact => region.compact(),
            }
        }
        // Between two of the keys; the empty first key is an open end.
        let (start, end) = (WORD_ROWS[a.min(b)], WORD_ROWS[a.max(b)]);
        let rows = RowRange::new(start.to_vec(), end.to_vec());
        let spec = match windowed {
            true => ScanSpec::windowed(
                rows,
                windows.iter().map(|(s, e)| ColumnRange::new(s.clone(), e.clone())).collect(),
            ),
            false => rows.into(),
        };
        let filter = RowWords::new(1, 2, words.iter().map(|&w| WORDS[w]));
        for (row, held) in WORD_ROWS.iter().zip(HELD) {
            let model = words.iter().all(|&w| held.contains(&WORDS[w]));
            prop_assert_eq!(filter.matches(row), model, "{:?} {:?}", row, words);
        }
        let expect: Vec<KeyValue> = region
            .scan_spec(&spec)
            .to_vec()
            .into_iter()
            .filter(|kv| filter.matches(&kv.row))
            .collect();
        prop_assert_eq!(region.scan_spec(&spec.with_words(filter)).to_vec(), expect);
    }

    /// `merge_scan` against the naive model: concatenate, sort by cell key
    /// with the highest priority first, keep the first cell of each key.
    #[test]
    fn merge_scan_equals_concat_sort_dedup_by_priority(
        sources in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0u8..3, 0u64..3), 0..12),
            0..5,
        ),
    ) {
        // Each source sorted and without a duplicate key of its own; its
        // index is both its priority and the value its cells carry.
        let sources: Vec<Vec<KeyValue>> = sources
            .iter()
            .enumerate()
            .map(|(i, keys)| {
                let keys: std::collections::BTreeSet<_> =
                    keys.iter().map(|&(r, q, ts)| (r, q, std::cmp::Reverse(ts))).collect();
                keys.into_iter()
                    .map(|(r, q, ts)| KeyValue::new(vec![r], vec![q], ts.0, vec![i as u8]))
                    .collect()
            })
            .collect();
        let mut model: Vec<KeyValue> = sources.iter().flatten().cloned().collect();
        model.sort_by(|a, b| a.cmp(b).then_with(|| b.value.cmp(&a.value)));
        model.dedup_by(|b, a| (*a).cmp(b).is_eq());
        let priorities = (0..sources.len() as u64).collect();
        let sources = sources.into_iter().map(ScanCells::from).collect();
        prop_assert_eq!(merge_scan(sources, priorities).to_vec(), model);
    }

    #[test]
    fn region_matches_model_under_arbitrary_ops(ops in proptest::collection::vec(op(), 1..120)) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: 512, // force frequent automatic flushes
            compaction_file_threshold: 4,
        });
        let mut model: BTreeMap<ModelKey, u8> = BTreeMap::new();
        for o in &ops {
            apply(&mut region, &mut model, o);
        }
        let got = region.scan(&RowRange::all());
        prop_assert_eq!(got.len(), model.len(), "cell count");
        for (kv, (mk, mv)) in got.iter().zip(model.iter()) {
            prop_assert_eq!(&kv.row[..], &mk.0[..]);
            prop_assert_eq!(&kv.qualifier[..], &mk.1[..]);
            prop_assert_eq!(kv.timestamp, mk.2.0);
            prop_assert_eq!(&kv.value[..], &[*mv][..]);
        }
    }

    #[test]
    fn range_scans_agree_with_model(
        ops in proptest::collection::vec(op(), 1..80),
        lo in 0u8..20,
        span in 1u8..10,
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        let mut model: BTreeMap<ModelKey, u8> = BTreeMap::new();
        for o in &ops {
            apply(&mut region, &mut model, o);
        }
        let start = vec![b'r', lo];
        let end = vec![b'r', lo.saturating_add(span)];
        let got = region.scan(&RowRange::new(start.clone(), end.clone()));
        let expect: Vec<_> = model
            .iter()
            .filter(|((r, _, _), _)| r >= &start && r < &end)
            .collect();
        prop_assert_eq!(got.len(), expect.len());
    }

    #[test]
    fn split_partitions_and_preserves_everything(
        ops in proptest::collection::vec(op(), 10..100),
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        let mut model: BTreeMap<ModelKey, u8> = BTreeMap::new();
        for o in &ops {
            apply(&mut region, &mut model, o);
        }
        let total_before = region.scan(&RowRange::all()).len();
        match region.split(RegionId(2), RegionId(3)) {
            Ok((left, right)) => {
                let l = left.scan(&RowRange::all());
                let r = right.scan(&RowRange::all());
                prop_assert_eq!(l.len() + r.len(), total_before);
                let boundary: Bytes = right.range().start.clone();
                prop_assert!(l.iter().all(|kv| kv.row < boundary));
                prop_assert!(r.iter().all(|kv| kv.row >= boundary));
                // Ranges partition the parent.
                prop_assert_eq!(left.range().start.len(), 0);
                prop_assert_eq!(right.range().end.len(), 0);
                prop_assert_eq!(&left.range().end, &boundary);
            }
            Err(back) => {
                // Refused split must return the region intact.
                prop_assert_eq!(back.scan(&RowRange::all()).len(), total_before);
            }
        }
    }

    #[test]
    fn wal_recovery_restores_exact_state(ops in proptest::collection::vec(op(), 1..60)) {
        // Apply ops without any flush/compact (pure memstore) — then
        // recover from WAL and compare.
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: usize::MAX,
            compaction_file_threshold: usize::MAX,
        });
        let mut model: BTreeMap<ModelKey, u8> = BTreeMap::new();
        for o in &ops {
            if let Op::Put { .. } = o {
                apply(&mut region, &mut model, o);
            }
        }
        let wal = region.wal();
        let mut recovered = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        // A fresh region sharing only the WAL (the memstore "died").
        let _ = std::mem::replace(&mut recovered, {
            let mut r = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
            // Attach the surviving WAL by replaying it.
            for kv in wal.replay().into_kvs() {
                r.put_batch(vec![kv]).unwrap();
            }
            r
        });
        let got = recovered.scan(&RowRange::all());
        prop_assert_eq!(got.len(), model.len());
    }
}

// ---------------------------------------------------------------------------
// Compaction by row: each row is the reply a scan of it gives, copied by
// column or replaced by the rewriter. The region must answer as the read
// path's merge did before it, rewriter applied, while replies held across
// the compaction keep reading the files they share.
// ---------------------------------------------------------------------------

/// Span of a TSDB row-hour, and the seal watermark the block case runs
/// under: rows 0..=2 of [`tsdb_row`] are finished and seal, rows 3 and 4
/// are not.
const ROW_SPAN: u64 = 3600;
const WATERMARK: u64 = 3 * ROW_SPAN;

/// A well-formed TSDB row key (salt, metric, base time, one tag) for
/// row-hour `hour`, so the block sealer accepts it.
fn tsdb_row(hour: u8) -> Vec<u8> {
    let mut row = vec![0, 0, 0, 1];
    row.extend_from_slice(&(u32::from(hour) * ROW_SPAN as u32).to_be_bytes());
    row.extend_from_slice(&[0, 0, 1, 0, 0, 1]);
    row
}

/// A raw TSDB cell: offset qualifier, `f64` value.
fn tsdb_cell((hour, offset, version, value): (u8, u8, u64, u8)) -> KeyValue {
    KeyValue::new(
        tsdb_row(hour),
        (u16::from(offset) << 4).to_be_bytes().to_vec(),
        version,
        f64::from(value).to_be_bytes().to_vec(),
    )
}

/// `rewriter`'s replacement for `row`, one row's cells in order: the
/// cells it writes, or `None` where it keeps the row.
fn replacement(rewriter: &dyn CompactionRewriter, row: &[KeyValue]) -> Option<Vec<KeyValue>> {
    let key = &row[0].row;
    let ctx = RewriteContext {
        row: key,
        drop_sealed_overlap: false,
    };
    let mut out = PutBatch::new();
    let cells = ScanCells::from(row.to_vec());
    rewriter
        .rewrite_row(&ctx, &cells, &mut RowWriter::new(key, &mut out))
        .then(|| out.into_kvs())
}

/// What a major compaction must leave, from the region's answer before
/// it: per row, the rewriter's replacement, sorted, where it gives one,
/// and the row's cells where it does not.
fn compacted_answer(
    before: &[KeyValue],
    rewriter: Option<&dyn CompactionRewriter>,
) -> Vec<KeyValue> {
    let mut out = Vec::new();
    for row in before.chunk_by(|a, b| a.row == b.row) {
        match rewriter.and_then(|r| replacement(r, row)) {
            Some(mut replacement) => {
                replacement.sort();
                out.extend(replacement);
            }
            None => out.extend_from_slice(row),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random flush sequences — a batch's rows out of order against the
    /// files before it, retried batches that put exact keys again, the
    /// block sealer or no rewriter — compacted now and then. After each
    /// compaction `scan(all)` is what it was before, the rewriter applied,
    /// cell for cell; and a reply taken before it, still held across it,
    /// reads its original cells.
    #[test]
    fn compaction_answers_as_before_and_a_held_scan_keeps_its_cells(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..5, 0u8..6, 0u64..3, 0u8..8), 0..16),
                (any::<bool>(), 0usize..8),
                any::<bool>(),
                any::<bool>(),
            ),
            1..8,
        ),
        seal in any::<bool>(),
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: usize::MAX,
            compaction_file_threshold: usize::MAX,
        });
        let sealer = pga_tsdb::BlockRewriter::new(ROW_SPAN, Arc::default());
        sealer.advance(WATERMARK);
        let sealer = Arc::new(sealer);
        if seal {
            region.set_compaction_rewriter(sealer.clone());
        }
        let rewriter = seal.then_some(&*sealer as &dyn CompactionRewriter);
        let mut sent: Vec<Vec<KeyValue>> = Vec::new();
        let (mut files, mut compactions) = (0usize, 0u64);
        for (cells, retry, compact, hold) in rounds {
            let mut batch: Vec<KeyValue> = cells.into_iter().map(tsdb_cell).collect();
            // A retry puts an earlier batch again, exact keys and values.
            let (retried, earlier) = retry;
            if let Some(earlier) = sent.get(earlier % sent.len().max(1)).filter(|_| retried) {
                batch.extend(earlier.iter().cloned());
            }
            sent.push(batch.clone());
            files += usize::from(!batch.is_empty());
            region.put_batch(batch).unwrap();
            region.flush();
            if !compact {
                continue;
            }
            let before = region.scan(&RowRange::all());
            let held = hold.then(|| region.scan_spec(&RowRange::all().into()));
            region.compact();
            let after = region.scan(&RowRange::all());
            if files > 1 || (seal && files == 1) {
                compactions += 1;
                files = 1;
                prop_assert_eq!(after, compacted_answer(&before, rewriter));
            } else {
                prop_assert_eq!(after, before.clone());
            }
            prop_assert_eq!(region.metrics().compactions, compactions);
            if let Some(held) = held {
                prop_assert_eq!(held.to_vec(), before);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row groups (ISSUE 21): the cell-keyed memstore and the cell-by-cell
// compaction that the region ran before are the models the row-grouped
// ones are held to.
// ---------------------------------------------------------------------------

type FlatKey = (Bytes, Bytes, Reverse<u64>);

/// Versions sort newest first, so this is the least third key component.
const FIRST_VERSION: Reverse<u64> = Reverse(u64::MAX);

/// The memstore as it was: one ordered map keyed by whole cell keys.
#[derive(Default)]
struct FlatMemStore {
    cells: BTreeMap<FlatKey, Bytes>,
    heap_size: usize,
}

impl FlatMemStore {
    /// Returns whether the put replaced a cell.
    fn put(&mut self, kv: KeyValue) -> bool {
        self.heap_size += kv.heap_size();
        let key = (kv.row, kv.qualifier, Reverse(kv.timestamp));
        match self.cells.insert(key, kv.value) {
            Some(old) => {
                self.heap_size -= old.len();
                true
            }
            None => false,
        }
    }

    fn bounds(range: &RowRange) -> (Bound<FlatKey>, Bound<FlatKey>) {
        let at = |row: &Bytes| (row.clone(), Bytes::new(), FIRST_VERSION);
        let start = match range.start.is_empty() {
            true => Bound::Unbounded,
            false => Bound::Included(at(&range.start)),
        };
        let end = match range.end.is_empty() {
            true => Bound::Unbounded,
            false => Bound::Excluded(at(&range.end)),
        };
        (start, end)
    }

    fn cell((key, value): (&FlatKey, &Bytes)) -> KeyValue {
        KeyValue::new(key.0.clone(), key.1.clone(), key.2 .0, value.clone())
    }

    fn scan(&self, range: &RowRange) -> Vec<KeyValue> {
        self.cells
            .range(Self::bounds(range))
            .map(Self::cell)
            .collect()
    }

    fn scan_columns(&self, rows: &RowRange, columns: &[ColumnRange]) -> Vec<KeyValue> {
        let (mut next, end) = Self::bounds(rows);
        let mut out = Vec::new();
        // The first cell at or after `next` names the next row to visit.
        while let Some(((row, _, _), _)) = self.cells.range((next, end.clone())).next() {
            for c in columns {
                let at = |qualifier: &Bytes| (row.clone(), qualifier.clone(), FIRST_VERSION);
                out.extend(self.cells.range(at(&c.start)..at(&c.end)).map(Self::cell));
            }
            // `row ++ 0x00` is the smallest key after `row`.
            let mut after = row.to_vec();
            after.push(0);
            next = Bound::Included((Bytes::from(after), Bytes::new(), FIRST_VERSION));
        }
        out
    }

    fn drain_sorted(&mut self) -> Vec<KeyValue> {
        self.heap_size = 0;
        let cells = std::mem::take(&mut self.cells);
        cells.iter().map(Self::cell).collect()
    }
}

/// Compaction as it was: clone every file, heap-merge cell by cell, offer
/// each row to the rewriter, and sort everything again if any row
/// changed. Returns the output and the number of rows rewritten; `None`
/// where `compact` does nothing.
fn flat_compact(
    files: &[Vec<KeyValue>],
    rewriter: Option<&dyn CompactionRewriter>,
) -> Option<(Vec<KeyValue>, u64)> {
    if files.is_empty() || (files.len() <= 1 && rewriter.is_none()) {
        return None;
    }
    let priorities = (1..=files.len() as u64).collect();
    let sources = files.iter().cloned().map(ScanCells::from).collect();
    let mut merged = merge_scan(sources, priorities).to_vec();
    let mut rewritten_rows = 0;
    if let Some(rewriter) = rewriter {
        let mut rewritten = Vec::with_capacity(merged.len());
        for group in merged.chunk_by(|a, b| a.row == b.row) {
            match replacement(rewriter, group) {
                Some(replacement) => {
                    rewritten_rows += 1;
                    rewritten.extend(replacement);
                }
                None => rewritten.extend_from_slice(group),
            }
        }
        rewritten.sort();
        merged = rewritten;
    }
    Some((merged, rewritten_rows))
}

/// Replaces rows whose key ends in an even byte by two summary cells;
/// passes the others.
#[derive(Debug)]
struct CollapseEvenRows;

impl CompactionRewriter for CollapseEvenRows {
    fn rewrite_row(
        &self,
        ctx: &RewriteContext<'_>,
        cells: &ScanCells,
        out: &mut RowWriter<'_>,
    ) -> bool {
        let (Some(newest), Some(first)) =
            (cells.iter().map(|c| c.timestamp).max(), cells.iter().next())
        else {
            return false;
        };
        if ctx.row.last().is_none_or(|last| last % 2 != 0) {
            return false;
        }
        out.push(b"a-first", newest, first.value);
        out.push(b"z-count", newest, &[cells.len() as u8]);
        true
    }
}

/// Row keys that are prefixes and `0x00`-successors of one another.
const ROWS: [&[u8]; 7] = [b"", b"a", b"ab", b"ab\0", b"ab\0\0", b"ac", b"b"];
/// Qualifiers likewise, the empty one included.
const QUALIFIERS: [&[u8]; 6] = [b"", b"\0", b"q", b"q\0", b"q\0\x01", b"r"];

fn flat_cell() -> impl Strategy<Value = KeyValue> {
    (
        0..ROWS.len(),
        0..QUALIFIERS.len(),
        0u64..3,
        proptest::collection::vec(any::<u8>(), 0..3),
    )
        .prop_map(|(r, q, ts, value)| {
            KeyValue::new(ROWS[r].to_vec(), QUALIFIERS[q].to_vec(), ts, value)
        })
}

/// A row range between two of `ROWS`' keys (`ROWS[0]` is the open end).
fn row_range() -> impl Strategy<Value = RowRange> {
    (0..ROWS.len(), 0..ROWS.len()).prop_map(|(a, b)| {
        let (start, end) = (ROWS[a], ROWS[b]);
        match !end.is_empty() && start > end {
            true => RowRange::new(end.to_vec(), start.to_vec()),
            false => RowRange::new(start.to_vec(), end.to_vec()),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the order of the puts — rows interleaved, qualifiers
    /// descending or shuffled, several versions, exact re-puts — the
    /// row-grouped memstore holds and returns what the flat one did.
    #[test]
    fn row_grouped_memstore_equals_the_flat_one(
        puts in proptest::collection::vec(flat_cell(), 0..120),
        ranges in proptest::collection::vec(row_range(), 1..4),
        windows in proptest::collection::vec((0..QUALIFIERS.len(), 0..QUALIFIERS.len()), 0..4),
    ) {
        let mut flat = FlatMemStore::default();
        let mut grouped = MemStore::new();
        let mut overwrote = false;
        for kv in &puts {
            overwrote |= flat.put(kv.clone());
            grouped.put(kv.clone());
            prop_assert_eq!(grouped.len(), flat.cells.len());
            if !overwrote {
                prop_assert_eq!(grouped.heap_size(), flat.heap_size);
            }
        }
        // The logical size: what the cells held would account for afresh.
        let held: usize = flat.scan(&RowRange::all()).iter().map(KeyValue::heap_size).sum();
        prop_assert_eq!(grouped.heap_size(), held);
        let windows = windows
            .iter()
            .map(|&(a, b)| ColumnRange::new(QUALIFIERS[a].to_vec(), QUALIFIERS[b].to_vec()))
            .collect();
        // Sorted and disjoint, as every caller's are.
        let spec = ScanSpec::windowed(RowRange::all(), windows);
        let columns = spec.columns().unwrap();
        for range in &ranges {
            prop_assert_eq!(grouped.select(range, None, None).to_vec(), flat.scan(range));
            prop_assert_eq!(grouped.select(range, Some(columns), None).to_vec(), flat.scan_columns(range, columns));
        }
        prop_assert_eq!(drained(&mut grouped), flat.drain_sorted());
        prop_assert_eq!((grouped.len(), grouped.heap_size()), (0, 0));
    }

    /// `put_all` searches once per run of neighbouring cells that share a
    /// row; putting the same cells one at a time must leave the same
    /// store. Runs of one row interleave with others, qualifiers arrive
    /// out of order, keys are re-put and values change length.
    #[test]
    fn put_all_equals_put_cell_by_cell(
        runs in proptest::collection::vec(
            (0..ROWS.len(), proptest::collection::vec(
                (0..QUALIFIERS.len(), 0u64..3, proptest::collection::vec(any::<u8>(), 0..4)),
                1..6,
            )),
            0..30,
        ),
        cuts in proptest::collection::vec(0usize..80, 0..4),
        ranges in proptest::collection::vec(row_range(), 1..4),
        window in (0..QUALIFIERS.len(), 0..QUALIFIERS.len()),
    ) {
        let cells: Vec<KeyValue> = runs
            .iter()
            .flat_map(|(r, run)| run.iter().map(move |(q, ts, value)| {
                KeyValue::new(ROWS[*r].to_vec(), QUALIFIERS[*q].to_vec(), *ts, value.clone())
            }))
            .collect();
        let mut one_by_one = MemStore::new();
        for kv in &cells {
            one_by_one.put(kv.clone());
        }
        // The same cells in a few batches, cut anywhere, runs included.
        let mut batched = MemStore::new();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(cells.len())).collect();
        cuts.sort_unstable();
        let mut from = 0;
        for to in cuts.into_iter().chain([cells.len()]) {
            batched.put_batch(PutBatch::from(&cells[from..to]));
            from = to;
        }
        prop_assert_eq!(
            (batched.len(), batched.heap_size()),
            (one_by_one.len(), one_by_one.heap_size())
        );
        let (lo, hi) = (QUALIFIERS[window.0.min(window.1)], QUALIFIERS[window.0.max(window.1)]);
        let columns = [ColumnRange::new(lo.to_vec(), hi.to_vec())];
        for range in &ranges {
            prop_assert_eq!(
                batched.select(range, None, None).to_vec(),
                one_by_one.select(range, None, None).to_vec()
            );
            prop_assert_eq!(
                batched.select(range, Some(&columns), None).to_vec(),
                one_by_one.select(range, Some(&columns), None).to_vec()
            );
        }
        prop_assert_eq!(drained(&mut batched), drained(&mut one_by_one));
    }

    /// `Region::compact` against the old pipeline on random file sets:
    /// rows whose runs follow one another across files (`staggered`) and
    /// rows whose runs interleave, exact-duplicate keys across files, with
    /// and without a rewriter, one file or several.
    #[test]
    fn row_at_a_time_compaction_equals_the_cell_by_cell_one(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0u8..6, 0u64..3, any::<u8>()), 0..24),
            1..6,
        ),
        staggered in any::<bool>(),
        with_rewriter in any::<bool>(),
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: usize::MAX,
            compaction_file_threshold: usize::MAX,
        });
        if with_rewriter {
            region.set_compaction_rewriter(Arc::new(CollapseEvenRows));
        }
        // One flush per batch; the model file is the batch as a map.
        let mut files: Vec<Vec<KeyValue>> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let cells: Vec<KeyValue> = batch
                .iter()
                .map(|&(row, qual, ts, val)| {
                    let qual = if staggered { 8 * i as u8 + qual } else { qual };
                    KeyValue::new(vec![b'r', row], vec![qual], ts, vec![val])
                })
                .collect();
            let mut file = FlatMemStore::default();
            cells.iter().for_each(|kv| { file.put(kv.clone()); });
            region.put_batch(cells).unwrap();
            region.flush();
            files.extend(Some(file.drain_sorted()).filter(|f| !f.is_empty()));
        }
        let rewriter = with_rewriter.then_some(&CollapseEvenRows as &dyn CompactionRewriter);
        let before = region.scan(&RowRange::all());
        region.compact();
        let got = region.scan(&RowRange::all());
        let metrics = region.metrics();
        match flat_compact(&files, rewriter) {
            Some((expect, rewritten_rows)) => {
                prop_assert_eq!(metrics.compacted_cells, expect.len() as u64);
                prop_assert_eq!(got.to_vec(), expect);
                prop_assert_eq!(metrics.rewritten_rows, rewritten_rows);
                prop_assert_eq!(metrics.compactions, 1);
            }
            None => {
                prop_assert_eq!(got, before);
                prop_assert_eq!(metrics.compactions, 0);
            }
        }
    }
}

/// A sorted table cut into region answers at `cuts`; `overlaps[i]` extra
/// cells past a cut are answered by both neighbours, as a directory caught
/// mid-split does, and `swap` (when its halves differ and both exist) hands
/// two answers over in the wrong order.
fn region_answers() -> impl Strategy<Value = Vec<Vec<KeyValue>>> {
    (
        proptest::collection::vec((0u8..30, 0u8..3, 0u64..3), 0..60),
        proptest::collection::vec(0usize..60, 0..6),
        proptest::collection::vec(0usize..4, 6),
        (0usize..12, 0usize..12),
    )
        .prop_map(|(keys, mut cuts, overlaps, swap)| {
            // The part a cell came from goes in its value, which the
            // ordering ignores: a stable sort has to keep them in order.
            let mut table: Vec<KeyValue> = keys
                .into_iter()
                .map(|(row, qual, ts)| KeyValue::new(vec![row], vec![qual], ts, vec![]))
                .collect();
            table.sort();
            table.dedup();
            cuts.push(0);
            cuts.push(table.len());
            cuts.iter_mut().for_each(|c| *c = (*c).min(table.len()));
            cuts.sort_unstable();
            let mut parts: Vec<Vec<KeyValue>> = cuts
                .windows(2)
                .zip(&overlaps)
                .enumerate()
                .map(|(part, (w, &overlap))| {
                    let end = (w[1] + overlap).min(table.len());
                    let mut cells = table[w[0]..end].to_vec();
                    for kv in &mut cells {
                        kv.value = Bytes::from(vec![part as u8]);
                    }
                    cells
                })
                .collect();
            if swap.0 < parts.len() && swap.1 < parts.len() {
                parts.swap(swap.0, swap.1);
            }
            parts
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The client's seam check is `sort()` by other means: whatever the
    /// regions answered — a clean partition, overlapping or duplicated
    /// cells, empty answers, answers out of directory order — the joined
    /// scan equals the stably sorted concatenation, values included.
    #[test]
    fn seam_checked_concatenation_equals_sorting(parts in region_answers()) {
        let mut expect: Vec<KeyValue> = parts.iter().flatten().cloned().collect();
        expect.sort();
        let parts = parts.into_iter().map(ScanCells::from).collect();
        prop_assert_eq!(concat_region_scans(parts).to_vec(), expect);
    }
}

/// A structural guard that needs no clock: however many buffers the
/// writer sent for a row, the memstore holds — and hands out — one.
#[test]
fn cells_of_a_row_share_one_row_buffer() {
    let mut m = MemStore::new();
    for i in 0..100u8 {
        // A fresh allocation of the same row key for every cell.
        m.put(KeyValue::new(b"series-hour".to_vec(), vec![i], 1, vec![i]));
    }
    let cells = m.select(&RowRange::all(), None, None);
    assert_eq!(cells.len(), 100);
    let first = cells.iter().next().unwrap().row.as_ptr();
    assert!(cells.iter().all(|kv| kv.row.as_ptr() == first));
}

/// The worst case of a sorted run: a row-hour backfilled newest sample
/// first shifts the whole run on every put — n²/2 moves of a 40-byte
/// cell, n ≤ 3 600 raw cells a row (DESIGN §6 records what it costs).
/// It must still be right.
#[test]
fn a_row_hour_written_in_descending_order_is_correct() {
    let cell = |offset: u16| {
        let value = f64::from(offset).to_be_bytes().to_vec();
        KeyValue::new(
            b"series-hour".to_vec(),
            offset.to_be_bytes().to_vec(),
            1,
            value,
        )
    };
    let mut m = MemStore::new();
    for offset in (0..3600u16).rev() {
        m.put(cell(offset));
    }
    let expect: Vec<KeyValue> = (0..3600u16).map(cell).collect();
    assert_eq!(m.len(), 3600);
    assert_eq!(
        m.heap_size(),
        expect.iter().map(KeyValue::heap_size).sum::<usize>()
    );
    assert_eq!(m.select(&RowRange::all(), None, None).to_vec(), expect);
    assert_eq!(drained(&mut m), expect);
}
