//! Model test: a region scan hands out shared runs of its store files'
//! cells, and must yield exactly the cells the cloning scan it replaced
//! returned, in the same order. The model is that scan as it was — the
//! store file's and the memstore's `select` copying every cell they
//! return, and `merge_scan` moving owned cells through its heap — run over
//! a mirror of the region's files and memstore, over random regions: one
//! to four flushed files and a live memstore, exact-key duplicates across
//! them, column windows and row-word filters, and rows sealed into one
//! block cell by a compaction rewriter. Replies lend the region's
//! batches, so replies taken between the writes are kept: after the later
//! rewrites, flushes and compactions each must still hold the cells the
//! model answered when it was taken.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use pga_minibase::{
    CellRef, ColumnRange, CompactionRewriter, KeyValue, PutBatch, Region, RegionConfig, RegionId,
    RewriteContext, RowRange, RowWords, RowWriter, ScanCells, ScanSpec,
};

/// `StoreFile::select` as it was: the cells of the accepted rows inside
/// the windows, cloned out of the file.
fn file_select(
    cells: &[KeyValue],
    rows: &RowRange,
    columns: Option<&[ColumnRange]>,
    words: Option<&RowWords>,
) -> Vec<KeyValue> {
    let start = cells.partition_point(|kv| kv.row[..] < rows.start[..]);
    if columns.is_none() && words.is_none() {
        return cells[start..]
            .iter()
            .take_while(|kv| rows.end.is_empty() || kv.row[..] < rows.end[..])
            .cloned()
            .collect();
    }
    let mut out = Vec::new();
    let mut rest = &cells[start..];
    while let Some(first) = rest.first() {
        if !rows.end.is_empty() && first.row[..] >= rows.end[..] {
            break;
        }
        let (mut row, after) = rest.split_at(rest.partition_point(|kv| kv.row == first.row));
        rest = after;
        if words.is_some_and(|w| !w.matches(&first.row)) {
            continue;
        }
        let Some(columns) = columns else {
            out.extend_from_slice(row);
            continue;
        };
        for c in columns {
            row = &row[row.partition_point(|kv| kv.qualifier < c.start)..];
            let n = row.partition_point(|kv| kv.qualifier < c.end);
            out.extend_from_slice(&row[..n]);
            row = &row[n..];
        }
    }
    out
}

/// `MemStore::select` as it was, over the memstore's rows (row key → the
/// row's sorted run): every returned cell copied.
fn memstore_select(
    memstore: &BTreeMap<Bytes, Vec<KeyValue>>,
    rows: &RowRange,
    columns: Option<&[ColumnRange]>,
    words: Option<&RowWords>,
) -> Vec<KeyValue> {
    let start = match &rows.start[..] {
        [] => Bound::Unbounded,
        row => Bound::Included(row),
    };
    let end = match &rows.end[..] {
        [] => Bound::Unbounded,
        row => Bound::Excluded(row),
    };
    let mut out = Vec::new();
    let accepted = memstore
        .range::<[u8], _>((start, end))
        .filter(|(row, _)| words.is_none_or(|w| w.matches(row)));
    for (_, run) in accepted {
        let Some(columns) = columns else {
            out.extend(run.iter().cloned());
            continue;
        };
        let mut rest = &run[..];
        for c in columns {
            rest = &rest[rest.partition_point(|cell| cell.qualifier < c.start)..];
            let n = rest.partition_point(|cell| cell.qualifier < c.end);
            out.extend(rest[..n].iter().cloned());
            rest = &rest[n..];
        }
    }
    out
}

/// `merge_scan` as it was: owned cells through a heap, the highest
/// priority winning an exact-key collision.
fn merge_scan(sources: Vec<Vec<KeyValue>>, priorities: Vec<u64>) -> Vec<KeyValue> {
    struct HeapItem {
        kv: KeyValue,
        source: usize,
        priority: u64,
    }
    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.kv == other.kv && self.priority == other.priority
        }
    }
    impl Eq for HeapItem {}
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .kv
                .cmp(&self.kv)
                .then_with(|| self.priority.cmp(&other.priority))
        }
    }
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut out: Vec<KeyValue> = Vec::new();
    let mut iters: Vec<std::vec::IntoIter<KeyValue>> = Vec::new();
    let mut heap = BinaryHeap::new();
    for (source, (cells, priority)) in sources.into_iter().zip(priorities).enumerate() {
        let mut it = cells.into_iter();
        if let Some(kv) = it.next() {
            heap.push(HeapItem {
                kv,
                source,
                priority,
            });
        }
        iters.push(it);
    }
    while let Some(mut top) = heap.peek_mut() {
        let kv = match iters[top.source].next() {
            Some(next) => std::mem::replace(&mut top.kv, next),
            None => PeekMut::pop(top).kv,
        };
        if out.last().is_none_or(|last| last.cmp(&kv).is_ne()) {
            out.push(kv);
        }
    }
    out
}

/// Seals every row whose key ends in `0` into one block cell after the
/// raw qualifiers: the newest version of each qualifier, concatenated.
#[derive(Debug)]
struct SealZeroRows;

const BLOCK: &[u8] = b"\xffblock";

impl CompactionRewriter for SealZeroRows {
    fn rewrite_row(
        &self,
        ctx: &RewriteContext<'_>,
        cells: &ScanCells,
        out: &mut RowWriter<'_>,
    ) -> bool {
        let Some(newest) = cells.iter().map(|kv| kv.timestamp).max() else {
            return false;
        };
        if ctx.row.last() != Some(&0) {
            return false;
        }
        let mut blob = Vec::new();
        let mut last: Option<&[u8]> = None;
        for kv in cells {
            if last != Some(kv.qualifier) {
                blob.extend_from_slice(kv.qualifier);
                blob.extend_from_slice(kv.value);
            }
            last = Some(kv.qualifier);
        }
        out.push(BLOCK, newest, &blob);
        true
    }
}

/// The region's store files (oldest first, with their sequence ids) and
/// memstore, mirrored.
#[derive(Default)]
struct Mirror {
    files: Vec<(Vec<KeyValue>, u64)>,
    memstore: BTreeMap<(Bytes, Bytes, Reverse<u64>), Bytes>,
    next_seq: u64,
}

impl Mirror {
    fn put(&mut self, kv: KeyValue) {
        self.memstore
            .insert((kv.row, kv.qualifier, Reverse(kv.timestamp)), kv.value);
    }

    fn flush(&mut self) {
        if self.memstore.is_empty() {
            return;
        }
        let cells = std::mem::take(&mut self.memstore)
            .into_iter()
            .map(|((row, qualifier, ts), value)| KeyValue::new(row, qualifier, ts.0, value))
            .collect();
        self.next_seq += 1;
        self.files.push((cells, self.next_seq));
    }

    fn compact(&mut self, rewriter: Option<&SealZeroRows>) {
        if self.files.is_empty() || (self.files.len() <= 1 && rewriter.is_none()) {
            return;
        }
        let (sources, priorities) = std::mem::take(&mut self.files).into_iter().unzip();
        let merged = merge_scan(sources, priorities);
        let mut out = Vec::with_capacity(merged.len());
        for row in merged.chunk_by(|a, b| a.row == b.row) {
            let key = &row[0].row;
            let ctx = RewriteContext {
                row: key,
                drop_sealed_overlap: false,
            };
            let cells = ScanCells::from(row.to_vec());
            let mut replacement = PutBatch::new();
            let replaced = rewriter.is_some_and(|r| {
                r.rewrite_row(&ctx, &cells, &mut RowWriter::new(key, &mut replacement))
            });
            match replaced.then(|| replacement.into_kvs()) {
                Some(mut sealed) => {
                    sealed.sort();
                    out.append(&mut sealed);
                }
                None => out.extend_from_slice(row),
            }
        }
        self.next_seq += 1;
        self.files.push((out, self.next_seq));
    }

    fn scan_spec(&self, spec: &ScanSpec) -> Vec<KeyValue> {
        let (rows, columns, words) = (spec.rows(), spec.columns(), spec.words());
        let mut memstore: BTreeMap<Bytes, Vec<KeyValue>> = BTreeMap::new();
        for ((row, qualifier, ts), value) in &self.memstore {
            let kv = KeyValue::new(row.clone(), qualifier.clone(), ts.0, value.clone());
            memstore.entry(row.clone()).or_default().push(kv);
        }
        let mut sources = Vec::new();
        let mut priorities = Vec::new();
        for (cells, seq) in &self.files {
            sources.push(file_select(cells, rows, columns, words));
            priorities.push(*seq);
        }
        sources.push(memstore_select(&memstore, rows, columns, words));
        priorities.push(u64::MAX);
        merge_scan(sources, priorities)
    }
}

/// A row key: `r`, then two word bytes from a small alphabet, so rows
/// repeat, word filters select some of them, and keys ending in `0` are
/// sealed at compaction.
fn row() -> impl Strategy<Value = Vec<u8>> {
    (0u8..4, 0u8..4).prop_map(|(a, b)| vec![b'r', a, b])
}

/// A qualifier or a window edge, one or two bytes long.
fn qualifier() -> impl Strategy<Value = Vec<u8>> {
    (0u8..6, 0u8..3).prop_map(|(q, tail)| match tail {
        0 => vec![q],
        t => vec![q, t - 1],
    })
}

/// A put over a small key space, so exact `(row, qualifier, timestamp)`
/// keys recur across files and the memstore with other values.
fn put() -> impl Strategy<Value = KeyValue> {
    (row(), qualifier(), 0u64..3, any::<u8>())
        .prop_map(|(row, q, ts, v)| KeyValue::new(row, q, ts, vec![v]))
}

/// Row bounds: the whole table, or `[start, end)` between two keys.
fn rows() -> impl Strategy<Value = RowRange> {
    prop_oneof![
        1 => Just(RowRange::all()),
        3 => (row(), row()).prop_map(|(a, b)| RowRange::new(a.clone().min(b.clone()), a.max(b))),
        1 => row().prop_map(|start| RowRange::new(start, Bytes::new())),
    ]
}

fn spec() -> impl Strategy<Value = ScanSpec> {
    let windows = prop_oneof![
        1 => Just(None),
        2 => proptest::collection::vec((qualifier(), qualifier()), 0..3).prop_map(Some),
    ];
    let words = proptest::collection::vec(0u8..4, 0..3);
    (rows(), windows, words).prop_map(|(rows, windows, words)| {
        let spec = match windows {
            None => ScanSpec::from(rows),
            Some(w) => ScanSpec::windowed(
                rows,
                w.into_iter().map(|(a, b)| ColumnRange::new(a, b)).collect(),
            ),
        };
        spec.with_words(RowWords::new(1, 1, words.into_iter().map(|w| [w])))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_scans_yield_the_cloning_scans_cells(
        batches in proptest::collection::vec(
            (proptest::collection::vec(put(), 0..24), any::<bool>()),
            1..5,
        ),
        live in proptest::collection::vec(put(), 0..24),
        sealing in any::<bool>(),
        specs in proptest::collection::vec(spec(), 1..6),
    ) {
        // Flushes and compactions only where the ops say.
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: usize::MAX,
            compaction_file_threshold: usize::MAX,
        });
        let sealer = sealing.then_some(SealZeroRows);
        if sealing {
            region.set_compaction_rewriter(Arc::new(SealZeroRows));
        }
        let mut mirror = Mirror::default();
        // Replies taken between the writes, with the model's answer then.
        let mut held: Vec<(ScanCells, Vec<KeyValue>)> = Vec::new();
        for (i, (puts, compact)) in batches.iter().enumerate() {
            for kv in puts {
                region.put_batch(vec![kv.clone()]).unwrap();
                mirror.put(kv.clone());
            }
            let spec = &specs[i % specs.len()];
            held.push((region.scan_spec(spec), mirror.scan_spec(spec)));
            region.flush();
            mirror.flush();
            if *compact {
                region.compact();
                mirror.compact(sealer.as_ref());
            }
        }
        for kv in &live {
            region.put_batch(vec![kv.clone()]).unwrap();
            mirror.put(kv.clone());
        }
        prop_assert!(mirror.files.len() <= 4);
        for spec in specs.iter().chain([&RowRange::all().into()]) {
            let got = region.scan_spec(spec);
            let expect = mirror.scan_spec(spec);
            prop_assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expect.iter().map(CellRef::from).collect::<Vec<_>>()
            );
        }
        region.flush();
        region.compact();
        for (reply, expect) in &held {
            prop_assert_eq!(&reply.to_vec(), expect);
        }
    }
}
