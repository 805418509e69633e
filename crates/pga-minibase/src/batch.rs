//! The put batch: cells as row runs, each row's cells held as columns.
//!
//! A time-series put writes a few cells to each of many rows, and every
//! cell of a row shares its key. So a batch keeps each row key once, with
//! the run of cells that follow it, and the cells as columns: their
//! qualifiers (shared buffers, typically from a codec's table), their
//! versions, and their values packed into one byte buffer. Filling one
//! allocates per batch, not per cell; routing, logging and buffering read
//! it a run at a time.
//!
//! It is the one cell representation below the client: the memstore keeps
//! the batches it is given, a store file is one sorted batch, and a scan
//! reply lends ranges of them, read as [`CellRef`] views. Cells become
//! [`KeyValue`]s only where a caller asks for owned cells
//! ([`PutBatch::into_kvs`], `ScanCells::to_vec`).

use std::cmp::Reverse;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;

use crate::kv::{CellRef, KeyValue};

/// A batch of cells to write, as runs of neighbouring cells that share a
/// row. Cells keep the order they were pushed in; a cell pushed under the
/// row of the cell before it joins that cell's run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PutBatch {
    /// Each run's row key and where its cells end in the columns below.
    pub(crate) runs: Vec<(Bytes, usize)>,
    pub(crate) qualifiers: Vec<Bytes>,
    pub(crate) versions: Vec<u64>,
    /// Where each cell's value ends in `values`; it starts where the
    /// previous cell's ends.
    pub(crate) ends: Vec<usize>,
    pub(crate) values: Vec<u8>,
}

impl PutBatch {
    /// An empty batch.
    pub fn new() -> Self {
        PutBatch::default()
    }

    /// An empty batch with room for `runs` runs of `cells` cells in all,
    /// and `value_bytes` bytes of values.
    pub fn with_capacity(runs: usize, cells: usize, value_bytes: usize) -> Self {
        PutBatch {
            runs: Vec::with_capacity(runs),
            qualifiers: Vec::with_capacity(cells),
            versions: Vec::with_capacity(cells),
            ends: Vec::with_capacity(cells),
            values: Vec::with_capacity(value_bytes),
        }
    }

    /// Make room for `cells` more cells, each maybe a run of its own, and
    /// `value_bytes` more bytes of values.
    pub fn reserve(&mut self, cells: usize, value_bytes: usize) {
        self.runs.reserve(cells);
        self.qualifiers.reserve(cells);
        self.versions.reserve(cells);
        self.ends.reserve(cells);
        self.values.reserve(value_bytes);
    }

    /// Append one cell. Its value is copied into the batch's buffer; the
    /// row key is kept once per run.
    pub fn push(&mut self, row: &Bytes, qualifier: Bytes, version: u64, value: &[u8]) {
        self.open_run(row, || row.clone());
        self.push_cell(qualifier, version, value);
    }

    /// Start a run under `row` unless the last run has that row already
    /// (`make` builds the key only for a new run).
    pub(crate) fn open_run(&mut self, row: &[u8], make: impl FnOnce() -> Bytes) {
        match self.runs.last() {
            Some((last, _)) if same_bytes(last, row) => {}
            _ => self.runs.push((make(), self.versions.len())),
        }
    }

    /// Append a cell to the last run (which [`PutBatch::open_run`]
    /// started).
    pub(crate) fn push_cell(&mut self, qualifier: Bytes, version: u64, value: &[u8]) {
        self.qualifiers.push(qualifier);
        self.versions.push(version);
        self.values.extend_from_slice(value);
        self.ends.push(self.values.len());
        if let Some((_, end)) = self.runs.last_mut() {
            *end += 1;
        }
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
        self.runs.iter().map(|(row, _)| row)
    }

    /// The length of the longest row key or qualifier (0 when empty).
    pub fn longest_key(&self) -> usize {
        let rows = self.rows().map(Bytes::len);
        rows.chain(self.qualifiers.iter().map(Bytes::len))
            .max()
            .unwrap_or(0)
    }

    /// Where the value of cell `i` starts in `values`.
    fn value_start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.ends[prev])
    }

    /// The value of cell `i`.
    pub(crate) fn value(&self, i: usize) -> &[u8] {
        &self.values[self.value_start(i)..self.ends[i]]
    }

    /// The bytes of the values of `cells`, together.
    pub(crate) fn value_bytes(&self, cells: Range<usize>) -> usize {
        match cells.is_empty() {
            true => 0,
            false => self.ends[cells.end - 1] - self.value_start(cells.start),
        }
    }

    /// Where run `r` starts (the batch's length past the last run).
    pub(crate) fn run_start(&self, r: usize) -> usize {
        match r.checked_sub(1) {
            None => 0,
            Some(prev) => self.runs.get(prev).map_or(self.len(), |&(_, end)| end),
        }
    }

    /// The run cell `i` lies in.
    pub(crate) fn run_of(&self, i: usize) -> usize {
        self.runs.partition_point(|&(_, end)| end <= i)
    }

    /// Cell `i` as a view: its row found by bisecting the runs.
    pub(crate) fn cell(&self, i: usize) -> CellRef<'_> {
        let (row, _) = &self.runs[self.run_of(i)];
        CellRef {
            row,
            qualifier: &self.qualifiers[i],
            timestamp: self.versions[i],
            value: self.value(i),
        }
    }

    /// Cells `range`, in order, as views.
    pub(crate) fn cells(&self, range: Range<usize>) -> Cells<'_> {
        let run = self.run_of(range.start);
        Cells {
            qualifiers: self.qualifiers[range.clone()].iter(),
            versions: self.versions[range.clone()].iter(),
            ends: self.ends[range.clone()].iter(),
            values: &self.values,
            value_from: self.value_start(range.start),
            at: range.start,
            row: self.runs.get(run).map(|(row, end)| (row, *end)),
            runs: self.runs.get(run + 1..).unwrap_or_default(),
        }
    }

    /// The cells as owned [`KeyValue`]s, in order.
    pub fn into_kvs(self) -> Vec<KeyValue> {
        self.cells(0..self.len()).map(CellRef::to_kv).collect()
    }

    /// Append cells `range` of `from` to the last run, which
    /// [`PutBatch::open_run`] started, by column: `qualifiers` are theirs
    /// (cloned or moved out by the caller), and their versions, value ends
    /// and values are copied a range at a time.
    pub(crate) fn push_cells(
        &mut self,
        from: &PutBatch,
        range: Range<usize>,
        qualifiers: impl IntoIterator<Item = Bytes>,
    ) {
        let n = self.versions.len();
        self.qualifiers.extend(qualifiers);
        self.versions
            .extend_from_slice(&from.versions[range.clone()]);
        let (start, held) = (from.value_start(range.start), self.values.len());
        self.ends.extend(
            from.ends[range.clone()]
                .iter()
                .map(|&end| held + end - start),
        );
        let to = start + from.value_bytes(range.clone());
        self.values.extend_from_slice(&from.values[start..to]);
        debug_assert_eq!(
            self.qualifiers.len(),
            n + range.len(),
            "one qualifier a cell"
        );
        if let Some((_, end)) = self.runs.last_mut() {
            *end += range.len();
        }
    }

    /// Move every cell of `other` to the end of this batch.
    pub fn append(&mut self, other: PutBatch) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let (cells, bytes) = (self.len(), self.values.len());
        let PutBatch {
            runs,
            qualifiers,
            versions,
            ends,
            values,
        } = other;
        self.runs
            .extend(runs.into_iter().map(|(row, end)| (row, cells + end)));
        self.qualifiers.extend(qualifiers);
        self.versions.extend(versions);
        self.ends.extend(ends.into_iter().map(|end| bytes + end));
        self.values.extend(values);
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
        let mut sizes = vec![(0, 0, 0); n];
        let (mut start, mut from) = (0, 0);
        for (&(_, end), &t) in self.runs.iter().zip(targets) {
            let to = self.ends[end - 1];
            let size = &mut sizes[t];
            *size = (size.0 + 1, size.1 + end - start, size.2 + to - from);
            (start, from) = (end, to);
        }
        for (part, &(runs, cells, bytes)) in out.iter_mut().zip(&sizes) {
            *part = PutBatch::with_capacity(runs, cells, bytes);
        }
        let PutBatch {
            runs,
            qualifiers,
            versions,
            ends,
            values,
        } = self;
        let mut qualifiers = qualifiers.into_iter();
        let (mut start, mut from) = (0, 0);
        for ((row, end), &t) in runs.into_iter().zip(targets) {
            let part = &mut out[t];
            let (cells, bytes) = (part.len(), part.values.len());
            part.runs.push((row, cells + end - start));
            part.qualifiers
                .extend(qualifiers.by_ref().take(end - start));
            part.versions.extend_from_slice(&versions[start..end]);
            part.ends
                .extend(ends[start..end].iter().map(|&e| bytes + e - from));
            let to = ends[end - 1];
            part.values.extend_from_slice(&values[from..to]);
            (start, from) = (end, to);
        }
        out
    }
}

/// A shared batch that a flush or a compaction copies cells out of, by
/// column. Its qualifiers move out when no scan reply holds the batch,
/// and are cloned from it when one does (the reply keeps reading it).
/// Each cell is copied out once.
pub(crate) struct Source {
    batch: Arc<PutBatch>,
    /// The qualifiers not taken yet, when they can move.
    moved: Option<Vec<Option<Bytes>>>,
}

impl Source {
    pub(crate) fn new(mut batch: Arc<PutBatch>) -> Self {
        let moved = Arc::get_mut(&mut batch).map(|b| {
            std::mem::take(&mut b.qualifiers)
                .into_iter()
                .map(Some)
                .collect()
        });
        Source { batch, moved }
    }

    /// The batch; its qualifiers are read through [`Source::key`].
    pub(crate) fn batch(&self) -> &PutBatch {
        &self.batch
    }

    /// The key of cell `i`, not copied out yet, within its row:
    /// qualifier ascending, newest version first.
    pub(crate) fn key(&self, i: usize) -> (&[u8], Reverse<u64>) {
        let qualifier = match &self.moved {
            Some(moved) => moved[i].as_deref().unwrap_or_default(),
            None => &self.batch.qualifiers[i],
        };
        (qualifier, Reverse(self.batch.versions[i]))
    }

    /// Append `cells` to the last run of `out`, by column.
    pub(crate) fn copy_to(&mut self, out: &mut PutBatch, cells: Range<usize>) {
        let Source { batch, moved } = self;
        out.push_cells(batch, cells.clone(), take(moved, batch, cells));
    }

    /// Append `cells`, all under `row`, to `into` as owned cells.
    pub(crate) fn make(&mut self, row: &Bytes, cells: Range<usize>, into: &mut Vec<KeyValue>) {
        let Source { batch, moved } = self;
        let qualifiers = take(moved, batch, cells.clone());
        into.extend(qualifiers.zip(cells).map(|(qualifier, i)| KeyValue {
            row: row.clone(),
            qualifier,
            timestamp: batch.versions[i],
            value: Bytes::copy_from_slice(batch.value(i)),
        }));
    }
}

/// The qualifiers of `cells` of `batch`: moved out of `moved` when the
/// batch's qualifiers can move, cloned from the batch otherwise.
fn take<'a>(
    moved: &'a mut Option<Vec<Option<Bytes>>>,
    batch: &'a PutBatch,
    cells: Range<usize>,
) -> impl Iterator<Item = Bytes> + 'a {
    cells.map(move |i| match moved {
        Some(moved) => {
            let qualifier = moved[i].take();
            debug_assert!(qualifier.is_some(), "a cell copied out twice");
            qualifier.unwrap_or_default()
        }
        None => batch.qualifiers[i].clone(),
    })
}

/// Cells of one batch, in order, as [`CellRef`] views. Each view is read
/// off the columns; the row is followed run by run, not looked up.
#[derive(Debug, Clone, Default)]
pub struct Cells<'a> {
    qualifiers: std::slice::Iter<'a, Bytes>,
    versions: std::slice::Iter<'a, u64>,
    ends: std::slice::Iter<'a, usize>,
    values: &'a [u8],
    /// Where the value of the next cell starts.
    value_from: usize,
    /// The index of the next cell in its batch.
    at: usize,
    /// The row of the run the next cell lies in, and where that run ends.
    row: Option<(&'a Bytes, usize)>,
    /// The runs after that one.
    runs: &'a [(Bytes, usize)],
}

impl<'a> Cells<'a> {
    /// The next cell and its index in the batch.
    #[inline]
    pub(crate) fn next_at(&mut self) -> Option<(CellRef<'a>, usize)> {
        let qualifier = self.qualifiers.next()?;
        let (&timestamp, &end) = self.versions.next().zip(self.ends.next())?;
        let i = self.at;
        let (mut row, mut row_end) = self.row?;
        while row_end <= i {
            let ((next, next_end), rest) = self.runs.split_first()?;
            (row, row_end, self.runs) = (next, *next_end, rest);
            self.row = Some((row, row_end));
        }
        let value = self.values.get(self.value_from..end)?;
        self.value_from = end;
        self.at = i + 1;
        Some((
            CellRef {
                row,
                qualifier,
                timestamp,
                value,
            },
            i,
        ))
    }
}

impl<'a> Iterator for Cells<'a> {
    type Item = CellRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<CellRef<'a>> {
        self.next_at().map(|(cell, _)| cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.qualifiers.size_hint()
    }
}

/// Equal bytes, by address first: a codec hands the same row buffer to
/// every cell of a series' row-hour.
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    (a.as_ptr() == b.as_ptr() && a.len() == b.len()) || a == b
}

impl FromIterator<KeyValue> for PutBatch {
    fn from_iter<I: IntoIterator<Item = KeyValue>>(kvs: I) -> Self {
        let mut batch = PutBatch::new();
        for kv in kvs {
            batch.push(&kv.row, kv.qualifier, kv.timestamp, &kv.value);
        }
        batch
    }
}

/// The cells, in order, neighbours that share a row in one run; the
/// columns are sized up front.
impl From<Vec<KeyValue>> for PutBatch {
    fn from(kvs: Vec<KeyValue>) -> Self {
        let values = kvs.iter().map(|kv| kv.value.len()).sum();
        let mut batch = PutBatch::with_capacity(0, kvs.len(), values);
        for kv in kvs {
            batch.push(&kv.row, kv.qualifier, kv.timestamp, &kv.value);
        }
        batch
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
}
