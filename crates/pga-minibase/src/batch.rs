//! The put batch: cells as row runs, each row's cells held as columns.
//!
//! A time-series put writes a few cells to each of many rows, and every
//! cell of a row shares its key. So a batch keeps each row key once, with
//! the run of cells that follow it, and the cells as columns: their
//! qualifiers packed into one byte buffer, their versions, and their
//! values packed into another. A column keeps no end offsets for a run
//! whose entries share one width, so a raw TSDB cell (a 2-byte qualifier,
//! a version, an 8-byte value) is 18 bytes. Widths are kept per run: the
//! wider rollup cells that ride on a raw put cost its raw runs nothing.
//! Filling a batch allocates per batch, not per cell; routing, logging and
//! buffering read it a run at a time.
//!
//! It is the one cell representation below the client: the memstore keeps
//! the batches it is given, the write-ahead log holds the memstore's own,
//! a store file is one sorted batch, and a scan reply lends ranges of
//! them, read as [`CellRef`] views. Cells become [`KeyValue`]s only where
//! a caller asks for owned cells ([`PutBatch::into_kvs`],
//! `ScanCells::to_vec`).

use std::cmp::Reverse;
use std::ops::Range;

use bytes::Bytes;

use crate::kv::{CellRef, KeyValue};

/// How one run's entries of a column are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    /// Every entry is this many bytes long: the column keeps no ends.
    Fixed(u32),
    /// The entries differ in length: each one's end lies in the column's
    /// `ends`, the first at this index.
    Varied(u32),
}

/// Where one run's entries lie in a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    /// Where the run's first entry starts.
    start: usize,
    width: Width,
}

impl Span {
    /// The span of a run with no entry yet, starting at `start`.
    fn at(start: usize) -> Self {
        Span {
            start,
            width: Width::Fixed(0),
        }
    }
}

/// Entries of any length, packed in one buffer run by run. A run is
/// [`Width::Fixed`] exactly when its entries share one length, so equal
/// cells pushed in one order give equal columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Column {
    bytes: Vec<u8>,
    /// The end of each entry of a varied run, in order.
    ends: Vec<usize>,
}

impl Column {
    fn with_capacity(bytes: usize) -> Self {
        Column {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::new(),
        }
    }

    /// Where entry `k` of the run at `span` lies.
    #[inline]
    fn range(&self, span: Span, k: usize) -> Range<usize> {
        match span.width {
            Width::Fixed(w) => {
                let start = span.start + k * w as usize;
                start..start + w as usize
            }
            Width::Varied(first) => {
                let at = first as usize + k;
                let start = match k {
                    0 => span.start,
                    _ => self.ends[at - 1],
                };
                start..self.ends[at]
            }
        }
    }

    /// Entry `k` of the run at `span`.
    #[inline]
    fn get(&self, span: Span, k: usize) -> &[u8] {
        &self.bytes[self.range(span, k)]
    }

    /// The bytes of entries `ks` of the run at `span`, together.
    fn bytes_of(&self, span: Span, ks: Range<usize>) -> usize {
        match ks.is_empty() {
            true => 0,
            false => self.range(span, ks.end - 1).end - self.range(span, ks.start).start,
        }
    }

    /// The longest of the `n` entries of the run at `span` (0 for none).
    fn longest(&self, span: Span, n: usize) -> usize {
        match span.width {
            _ if n == 0 => 0,
            Width::Fixed(w) => w as usize,
            Width::Varied(_) => (0..n).map(|k| self.range(span, k).len()).max().unwrap_or(0),
        }
    }

    /// Append `entry` to the run at `span`, the column's last, which
    /// holds `n` entries.
    #[inline]
    fn push(&mut self, span: &mut Span, n: usize, entry: &[u8]) {
        if let Width::Fixed(w) = span.width {
            match u32::try_from(entry.len()) {
                Ok(len) if n == 0 => span.width = Width::Fixed(len),
                Ok(len) if len == w => {}
                _ => self.vary(span, n, w),
            }
        }
        self.bytes.extend_from_slice(entry);
        if let Width::Varied(_) = span.width {
            self.ends.push(self.bytes.len());
        }
    }

    /// Room for `other`'s entries after these.
    fn reserve(&mut self, other: &Column) {
        self.bytes.reserve(other.bytes.len());
        self.ends.reserve(other.ends.len());
    }

    /// Give the run at `span`, the column's last, whose `n` entries are
    /// `width` bytes each, an end for each entry.
    fn vary(&mut self, span: &mut Span, n: usize, width: u32) {
        span.width = Width::Varied(self.ends.len() as u32);
        let width = width as usize;
        self.ends.extend((1..=n).map(|k| span.start + k * width));
    }

    /// Append entries `ks` of `from`'s run at `source` to the run at
    /// `span`, the column's last, which holds `n` entries: one copy of
    /// their bytes when both runs are fixed at one width.
    fn extend(&mut self, span: &mut Span, n: usize, from: &Column, source: Span, ks: Range<usize>) {
        match (source.width, span.width) {
            (Width::Fixed(w), Width::Fixed(have)) if n == 0 || w == have => {
                if !ks.is_empty() {
                    span.width = Width::Fixed(w);
                }
                let start = source.start + ks.start * w as usize;
                let end = start + ks.len() * w as usize;
                self.bytes.extend_from_slice(&from.bytes[start..end]);
            }
            _ => {
                for (i, k) in ks.enumerate() {
                    self.push(span, n + i, from.get(source, k));
                }
            }
        }
    }

    /// Append the `n` entries of `from`'s run at `source` as a new run;
    /// returns its span here.
    fn copy_run(&mut self, from: &Column, source: Span, n: usize) -> Span {
        let start = self.bytes.len();
        let len = from.bytes_of(source, 0..n);
        self.bytes
            .extend_from_slice(&from.bytes[source.start..source.start + len]);
        let width = match source.width {
            Width::Fixed(w) => Width::Fixed(w),
            Width::Varied(first) => {
                let here = self.ends.len() as u32;
                let first = first as usize;
                let ends = from.ends[first..first + n].iter();
                self.ends
                    .extend(ends.map(|&end| end - source.start + start));
                Width::Varied(here)
            }
        };
        Span { start, width }
    }

    /// A walk over the run at `span`, which holds `n` entries, from entry
    /// `k` (below `n`) on.
    fn cursor(&self, span: Span, k: usize, n: usize) -> Cursor<'_> {
        let (width, ends) = match span.width {
            Width::Fixed(w) => (w as usize, &[][..]),
            Width::Varied(first) => {
                let first = first as usize;
                (0, self.ends.get(first + k..first + n).unwrap_or_default())
            }
        };
        Cursor {
            bytes: &self.bytes,
            pos: self.range(span, k).start,
            width,
            ends,
        }
    }
}

/// The entries of one run of a column, in order, from `pos` on.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Every entry's length, in a fixed run.
    width: usize,
    /// The ends of the entries left, in a varied run.
    ends: &'a [usize],
}

impl<'a> Cursor<'a> {
    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        let end = match self.ends.split_first() {
            Some((&end, rest)) => {
                self.ends = rest;
                end
            }
            None => self.pos + self.width,
        };
        let entry = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(entry)
    }
}

/// A run of cells under one row key: where its cells end, and where its
/// qualifiers and values lie in their columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Run {
    /// The row key.
    pub(crate) row: Bytes,
    /// Where the run's cells end; they start where the previous run's do.
    pub(crate) end: usize,
    qualifiers: Span,
    values: Span,
}

/// A batch of cells to write, as runs of neighbouring cells that share a
/// row. Cells keep the order they were pushed in; a cell pushed under the
/// row of the cell before it joins that cell's run. Once shared (a
/// memstore's, a log's, a store file's) a batch never changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PutBatch {
    pub(crate) runs: Vec<Run>,
    qualifiers: Column,
    versions: Vec<u64>,
    values: Column,
}

impl PutBatch {
    /// An empty batch.
    pub fn new() -> Self {
        PutBatch::default()
    }

    /// An empty batch with room for `runs` runs of `cells` cells in all,
    /// `qualifier_bytes` bytes of qualifiers and `value_bytes` bytes of
    /// values.
    pub fn with_capacity(
        runs: usize,
        cells: usize,
        qualifier_bytes: usize,
        value_bytes: usize,
    ) -> Self {
        PutBatch {
            runs: Vec::with_capacity(runs),
            qualifiers: Column::with_capacity(qualifier_bytes),
            versions: Vec::with_capacity(cells),
            values: Column::with_capacity(value_bytes),
        }
    }

    /// Append one cell. Its qualifier and value are copied into the
    /// batch's columns; the row key is kept once per run.
    #[inline]
    pub fn push(&mut self, row: &Bytes, qualifier: &[u8], version: u64, value: &[u8]) {
        self.open_run(row, || row.clone());
        self.push_cell(qualifier, version, value);
    }

    /// Start a run under `row` unless the last run has that row already
    /// (`make` builds the key only for a new run).
    #[inline]
    pub(crate) fn open_run(&mut self, row: &[u8], make: impl FnOnce() -> Bytes) {
        match self.runs.last() {
            Some(last) if same_bytes(&last.row, row) => {}
            _ => self.runs.push(Run {
                row: make(),
                end: self.len(),
                qualifiers: Span::at(self.qualifiers.bytes.len()),
                values: Span::at(self.values.bytes.len()),
            }),
        }
    }

    /// Append a cell to the last run (which [`PutBatch::open_run`]
    /// started).
    #[inline]
    pub(crate) fn push_cell(&mut self, qualifier: &[u8], version: u64, value: &[u8]) {
        let n = self.open_cells();
        let PutBatch {
            runs,
            qualifiers,
            versions,
            values,
        } = self;
        let Some(last) = runs.last_mut() else {
            debug_assert!(false, "a cell pushed before any run");
            return;
        };
        qualifiers.push(&mut last.qualifiers, n, qualifier);
        values.push(&mut last.values, n, value);
        versions.push(version);
        last.end += 1;
    }

    /// Cells in the last run.
    #[inline]
    fn open_cells(&self) -> usize {
        self.len() - self.run_start(self.runs.len().saturating_sub(1))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when the batch holds no cell.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Each run's row key, in order.
    pub fn rows(&self) -> impl Iterator<Item = &Bytes> {
        self.runs.iter().map(|run| &run.row)
    }

    /// The length of the longest row key or qualifier (0 when empty).
    pub fn longest_key(&self) -> usize {
        (0..self.runs.len())
            .map(|r| {
                let run = self.run(r);
                let n = run.cells().len();
                run.run
                    .row
                    .len()
                    .max(self.qualifiers.longest(run.run.qualifiers, n))
            })
            .max()
            .unwrap_or(0)
    }

    /// The bytes of the qualifier column and of the value column.
    pub(crate) fn column_bytes(&self) -> (usize, usize) {
        (self.qualifiers.bytes.len(), self.values.bytes.len())
    }

    /// The value column's bytes, to change in place (fault injection on
    /// a batch not shared yet; every value keeps its length).
    pub(crate) fn values_mut(&mut self) -> &mut [u8] {
        &mut self.values.bytes
    }

    /// Where run `r` starts (the batch's length past the last run).
    pub(crate) fn run_start(&self, r: usize) -> usize {
        match r.checked_sub(1) {
            None => 0,
            Some(prev) => self.runs.get(prev).map_or(self.len(), |run| run.end),
        }
    }

    /// The run cell `i` lies in.
    pub(crate) fn run_of(&self, i: usize) -> usize {
        self.runs.partition_point(|run| run.end <= i)
    }

    /// Run `r`, read by cell index.
    pub(crate) fn run(&self, r: usize) -> RunCells<'_> {
        RunCells {
            batch: self,
            run: &self.runs[r],
            start: self.run_start(r),
        }
    }

    /// Cell `i` as a view: its row found by bisecting the runs.
    pub(crate) fn cell(&self, i: usize) -> CellRef<'_> {
        let run = self.run(self.run_of(i));
        CellRef {
            row: &run.run.row,
            qualifier: run.qualifier(i),
            timestamp: self.versions[i],
            value: run.value(i),
        }
    }

    /// Cells `range`, in order, as views.
    pub(crate) fn cells(&self, range: Range<usize>) -> Cells<'_> {
        Cells {
            batch: Some(self),
            versions: self.versions[range.clone()].iter(),
            at: range.start,
            run: self.run_of(range.start),
            ..Cells::default()
        }
    }

    /// The cells as owned [`KeyValue`]s, in order.
    pub fn into_kvs(self) -> Vec<KeyValue> {
        self.cells(0..self.len()).map(CellRef::to_kv).collect()
    }

    /// Append `cells`, all in run `run` of `from`, to the last run, which
    /// [`PutBatch::open_run`] started, by column: a range of each column
    /// copied at a time.
    pub(crate) fn push_cells(&mut self, from: &PutBatch, run: usize, cells: Range<usize>) {
        let n = self.open_cells();
        let source = from.run(run);
        let ks = cells.start - source.start..cells.end - source.start;
        let PutBatch {
            runs,
            qualifiers,
            versions,
            values,
        } = self;
        let Some(last) = runs.last_mut() else {
            debug_assert!(false, "cells pushed before any run");
            return;
        };
        let (q, v) = (source.run.qualifiers, source.run.values);
        qualifiers.extend(&mut last.qualifiers, n, &from.qualifiers, q, ks.clone());
        values.extend(&mut last.values, n, &from.values, v, ks);
        versions.extend_from_slice(&from.versions[cells.clone()]);
        last.end += cells.len();
    }

    /// The runs cells `range` cross, each with the cells of the range
    /// that lie in it.
    pub(crate) fn pieces(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let (mut r, mut at) = (self.run_of(range.start), range.start);
        std::iter::from_fn(move || {
            let end = self.runs.get(r)?.end.min(range.end);
            let piece = (r, at..end);
            (r, at) = (r + 1, end);
            (piece.1.start < range.end).then_some(piece)
        })
    }

    /// Append run `r` of `from` as a run of this batch, by column.
    fn copy_run(&mut self, from: &PutBatch, r: usize) {
        let source = from.run(r);
        let n = source.cells().len();
        let qualifiers = (self.qualifiers).copy_run(&from.qualifiers, source.run.qualifiers, n);
        let values = self.values.copy_run(&from.values, source.run.values, n);
        self.versions
            .extend_from_slice(&from.versions[source.cells()]);
        self.runs.push(Run {
            row: source.run.row.clone(),
            end: self.versions.len(),
            qualifiers,
            values,
        });
    }

    /// Move every cell of `other` to the end of this batch.
    pub fn append(&mut self, other: PutBatch) {
        match self.is_empty() {
            true => *self = other,
            false => self.extend_from(&other),
        }
    }

    /// Copy every cell of `other` to the end of this batch, by run and
    /// column, growing each column at most once.
    pub fn extend_from(&mut self, other: &PutBatch) {
        self.runs.reserve(other.runs.len());
        self.qualifiers.reserve(&other.qualifiers);
        self.versions.reserve(other.len());
        self.values.reserve(&other.values);
        for r in 0..other.runs.len() {
            self.copy_run(other, r);
        }
    }

    /// Remove every cell, keeping the columns' capacity.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.versions.clear();
        for column in [&mut self.qualifiers, &mut self.values] {
            column.bytes.clear();
            column.ends.clear();
        }
    }

    /// Split the batch into `n` batches, run `r` going to batch
    /// `targets[r]` (one target per run, each below `n`), order kept
    /// inside each. A batch whose runs all go one way moves there whole.
    pub(crate) fn partition(self, targets: &[usize], n: usize) -> Vec<PutBatch> {
        let mut out: Vec<PutBatch> = (0..n).map(|_| PutBatch::new()).collect();
        let first = targets.first().copied().unwrap_or(0);
        if targets.iter().all(|&t| t == first) {
            if let Some(slot) = out.get_mut(first) {
                *slot = self;
            }
            return out;
        }
        // Size each part first: one allocation per column and part.
        let mut sizes = vec![(0, 0, 0, 0); n];
        for (r, &t) in (0..self.runs.len()).zip(targets) {
            let run = self.run(r);
            let (q, v) = run.bytes(run.cells());
            let size = &mut sizes[t];
            *size = (
                size.0 + 1,
                size.1 + run.cells().len(),
                size.2 + q,
                size.3 + v,
            );
        }
        for (part, &(runs, cells, q, v)) in out.iter_mut().zip(&sizes) {
            *part = PutBatch::with_capacity(runs, cells, q, v);
        }
        for (r, &t) in (0..self.runs.len()).zip(targets) {
            out[t].copy_run(&self, r);
        }
        out
    }
}

/// One run of a batch, its cells read by their index in the batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunCells<'a> {
    batch: &'a PutBatch,
    run: &'a Run,
    /// The index of the run's first cell.
    start: usize,
}

impl<'a> RunCells<'a> {
    /// The run's row key.
    pub(crate) fn row(&self) -> &'a Bytes {
        &self.run.row
    }

    /// The indices of the run's cells.
    pub(crate) fn cells(&self) -> Range<usize> {
        self.start..self.run.end
    }

    /// The qualifier of cell `i`, which lies in this run.
    #[inline]
    pub(crate) fn qualifier(&self, i: usize) -> &'a [u8] {
        (self.batch.qualifiers).get(self.run.qualifiers, i - self.start)
    }

    /// The value of cell `i`, which lies in this run.
    #[inline]
    pub(crate) fn value(&self, i: usize) -> &'a [u8] {
        (self.batch.values).get(self.run.values, i - self.start)
    }

    /// The key of cell `i`, which lies in this run, within the row:
    /// qualifier ascending, newest version first.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> (&'a [u8], Reverse<u64>) {
        (self.qualifier(i), Reverse(self.batch.versions[i]))
    }

    /// Whether the keys of `cells`, which lie in this run, ascend
    /// strictly. The qualifiers are walked in order, not looked up.
    pub(crate) fn ascending(&self, cells: Range<usize>) -> bool {
        if cells.len() < 2 {
            return true;
        }
        let (k, n) = (cells.start - self.start, self.run.end - self.start);
        let mut qualifiers = (self.batch.qualifiers).cursor(self.run.qualifiers, k, n);
        let versions = self.batch.versions[cells].iter();
        versions
            .map_while(|&v| Some((qualifiers.next()?, Reverse(v))))
            .is_sorted_by(|a, b| a < b)
    }

    /// The bytes of the qualifiers and of the values of `cells`, which
    /// lie in this run.
    pub(crate) fn bytes(&self, cells: Range<usize>) -> (usize, usize) {
        let ks = cells.start - self.start..cells.end - self.start;
        let (batch, run) = (self.batch, self.run);
        (
            batch.qualifiers.bytes_of(run.qualifiers, ks.clone()),
            batch.values.bytes_of(run.values, ks),
        )
    }
}

/// Cells of one batch, in order, as [`CellRef`] views. Each view is read
/// off the columns; the row and each column's place are followed run by
/// run, not looked up.
#[derive(Debug, Clone, Default)]
pub struct Cells<'a> {
    batch: Option<&'a PutBatch>,
    versions: std::slice::Iter<'a, u64>,
    /// The index of the next cell in its batch.
    at: usize,
    /// The run the next cell lies in, or one at or before it.
    run: usize,
    /// The row of the run being read, and where that run ends.
    row: Option<&'a Bytes>,
    run_end: usize,
    qualifiers: Cursor<'a>,
    values: Cursor<'a>,
}

impl<'a> Cells<'a> {
    /// The next cell and its index in the batch.
    #[inline]
    pub(crate) fn next_at(&mut self) -> Option<(CellRef<'a>, usize)> {
        let &timestamp = self.versions.next()?;
        let i = self.at;
        if i >= self.run_end {
            self.enter(i)?;
        }
        let qualifier = self.qualifiers.next()?;
        let value = self.values.next()?;
        self.at = i + 1;
        let cell = CellRef {
            row: self.row?,
            qualifier,
            timestamp,
            value,
        };
        Some((cell, i))
    }

    /// Move to the run cell `i` lies in, at or after the current one.
    fn enter(&mut self, i: usize) -> Option<()> {
        let batch = self.batch?;
        while batch.runs.get(self.run)?.end <= i {
            self.run += 1;
        }
        let run = batch.run(self.run);
        let (k, n) = (i - run.start, run.cells().len());
        self.row = Some(&run.run.row);
        self.run_end = run.run.end;
        self.qualifiers = batch.qualifiers.cursor(run.run.qualifiers, k, n);
        self.values = batch.values.cursor(run.run.values, k, n);
        Some(())
    }
}

impl<'a> Iterator for Cells<'a> {
    type Item = CellRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<CellRef<'a>> {
        self.next_at().map(|(cell, _)| cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.versions.size_hint()
    }
}

/// The first 8 bytes of `bytes` as a big-endian number, zero-padded:
/// byte strings of one length up to 8 order as their words do, and no
/// string orders below one with a smaller word.
pub(crate) fn word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(word)
}

/// Equal bytes, by address first: a codec hands the same row buffer to
/// every cell of a series' row-hour.
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    (a.as_ptr() == b.as_ptr() && a.len() == b.len()) || a == b
}

/// The cells, in order, neighbours that share a row in one run; the
/// columns are sized up front. Nothing of the cells is kept but their row
/// keys' handles.
impl From<&[KeyValue]> for PutBatch {
    fn from(kvs: &[KeyValue]) -> Self {
        let qualifiers = kvs.iter().map(|kv| kv.qualifier.len()).sum();
        let values = kvs.iter().map(|kv| kv.value.len()).sum();
        let mut batch = PutBatch::with_capacity(0, kvs.len(), qualifiers, values);
        for kv in kvs {
            batch.push(&kv.row, &kv.qualifier, kv.timestamp, &kv.value);
        }
        batch
    }
}

impl From<Vec<KeyValue>> for PutBatch {
    fn from(kvs: Vec<KeyValue>) -> Self {
        PutBatch::from(&kvs[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(row: &str, q: u8, ts: u64, value: &[u8]) -> KeyValue {
        KeyValue::new(row.as_bytes().to_vec(), vec![q], ts, value.to_vec())
    }

    #[test]
    fn neighbours_that_share_a_row_form_one_run() {
        let kvs = vec![
            kv("a", 1, 1, b"x"),
            kv("a", 2, 1, b""),
            kv("b", 1, 1, b"yz"),
            kv("a", 3, 1, b"w"),
        ];
        let batch = PutBatch::from(kvs.clone());
        assert_eq!(batch.len(), 4);
        let rows: Vec<&[u8]> = batch.rows().map(|r| &r[..]).collect();
        assert_eq!(rows, vec![&b"a"[..], b"b", b"a"]);
        assert_eq!(batch.clone().into_kvs(), kvs);
        assert_eq!(batch.longest_key(), 1);
    }

    #[test]
    fn append_and_partition_keep_every_cell_in_order() {
        let cells: Vec<KeyValue> = (0..12u8)
            .map(|i| {
                kv(
                    &format!("r{}", i / 3),
                    i,
                    u64::from(i),
                    &vec![i; i as usize % 4],
                )
            })
            .collect();
        let batch = PutBatch::from(cells[..6].to_vec());
        let mut joined = batch.clone();
        joined.append(PutBatch::from(cells[6..].to_vec()));
        assert_eq!(joined.clone().into_kvs(), cells);
        assert_eq!(joined, PutBatch::from(cells.clone()));
        // Four runs: r0 and r2 one way, r1 and r3 the other.
        let parts = joined.clone().partition(&[1, 0, 1, 0], 3);
        let part = |p: usize| parts[p].clone().into_kvs();
        let odd = |k: usize| {
            cells
                .iter()
                .filter(move |kv| (kv.row[1] - b'0') as usize % 2 == k)
        };
        assert_eq!(part(1), odd(0).cloned().collect::<Vec<_>>());
        assert_eq!(part(0), odd(1).cloned().collect::<Vec<_>>());
        assert!(parts[2].is_empty());
        // All one way: the batch moves there unchanged.
        let whole = joined.clone().partition(&[2, 2, 2, 2], 3);
        assert_eq!(whole[2], joined);
        assert!(whole[0].is_empty() && whole[1].is_empty());
    }

    /// A raw TSDB put: 2-byte qualifiers and 8-byte values in every run,
    /// a wider rollup cell riding in a run of its own.
    fn raw_put_with_a_rollup_cell() -> PutBatch {
        let mut batch = PutBatch::new();
        let (a, b, rollup) = (Bytes::from("a"), Bytes::from("b"), Bytes::from("r"));
        for (row, base) in [(&a, 0u16), (&b, 100)] {
            for t in 0..5u16 {
                let value = f64::from(t).to_be_bytes();
                batch.push(row, &(base + t).to_be_bytes(), u64::from(t), &value);
            }
        }
        batch.push(&rollup, b"\x00\x01\x02\x03", 7, b"\x01\x02\x03");
        batch.push(&rollup, b"\x00\x02\x02\x03", 7, b"\x04");
        batch
    }

    #[test]
    fn runs_of_one_width_keep_no_ends_and_others_cost_them_nothing() {
        let batch = raw_put_with_a_rollup_cell();
        assert_eq!(batch.len(), 12);
        // Ten raw cells take 2 + 8 bytes each of the two columns; the
        // rollup run's qualifiers share a width, its values do not.
        assert_eq!(batch.column_bytes(), (10 * 2 + 2 * 4, 10 * 8 + 4));
        assert!(batch.qualifiers.ends.is_empty());
        assert_eq!(batch.values.ends, vec![80 + 3, 80 + 4]);
        let widths: Vec<_> = batch.runs.iter().map(|r| r.values.width).collect();
        assert_eq!(widths, [Width::Fixed(8), Width::Fixed(8), Width::Varied(0)]);
        let kvs = batch.clone().into_kvs();
        assert_eq!(kvs[10].qualifier[..], b"\x00\x01\x02\x03"[..]);
        assert_eq!(kvs[11].value[..], b"\x04"[..]);
        assert_eq!(batch.cell(11).value, b"\x04");
        assert_eq!(batch.cell(4).qualifier, 4u16.to_be_bytes());
        assert_eq!(PutBatch::from(kvs), batch);
        assert_eq!(batch.longest_key(), 4);
    }

    #[test]
    fn a_run_whose_widths_differ_keeps_an_end_for_every_entry() {
        let row = Bytes::from("row");
        let mut batch = PutBatch::new();
        // Two fixed-width cells, then one of another width: the run
        // turns varied, with ends for the cells it held.
        batch.push(&row, b"q1", 1, b"ab");
        batch.push(&row, b"q2", 2, b"cd");
        batch.push(&row, b"q3", 3, b"efg");
        assert_eq!(batch.values.ends, vec![2, 4, 7]);
        assert!(batch.qualifiers.ends.is_empty());
        let values: Vec<&[u8]> = batch.cells(0..3).map(|c| c.value).collect();
        assert_eq!(values, [&b"ab"[..], b"cd", b"efg"]);
        // A walk may start inside a run, and views agree with it.
        let tail: Vec<&[u8]> = batch.cells(1..3).map(|c| c.value).collect();
        assert_eq!(tail, [&b"cd"[..], b"efg"]);
        assert_eq!(batch.cell(2).value, b"efg");
    }

    #[test]
    fn pushed_ranges_are_the_cells_pushed_one_by_one() {
        let from = raw_put_with_a_rollup_cell();
        let rollup = from.runs.len() - 1;
        let row = Bytes::from("m");
        // Ranges of fixed runs join a fixed run by one copy; a range of
        // another width, or of a varied run, turns it varied.
        let pieces = [(0, 1..3), (1, 6..8), (0, 3..5), (rollup, 10..12)];
        let mut copied = PutBatch::new();
        let mut pushed = PutBatch::new();
        copied.open_run(&row, || row.clone());
        for (run, cells) in pieces {
            copied.push_cells(&from, run, cells.clone());
            for c in from.cells(cells) {
                pushed.push(&row, c.qualifier, c.timestamp, c.value);
            }
            assert_eq!(copied, pushed);
        }
        assert_eq!(copied.runs[0].qualifiers.width, Width::Varied(0));
        assert_eq!(copied.len(), 8);
    }
}
