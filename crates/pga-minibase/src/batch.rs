//! The put batch: a write's cells as row runs, each row's cells held as
//! columns.
//!
//! A time-series put writes a few cells to each of many rows, and every
//! cell of a row shares its key. So a batch keeps each row key once, with
//! the run of cells that follow it, and the cells as columns: their
//! qualifiers (shared buffers, typically from a codec's table), their
//! versions, and their values packed into one byte buffer. Filling one
//! allocates per batch, not per cell; routing, logging and buffering read
//! it a run at a time. Cells become [`KeyValue`]s only where a reader
//! needs them as such ([`PutBatch::into_kvs`], the memstore's scans and
//! flushes).

use bytes::Bytes;

use crate::kv::KeyValue;

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

    /// The value of cell `i`.
    pub(crate) fn value(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.values[start..self.ends[i]]
    }

    /// Cell `i`, which lies in a run under `row`, as an owned cell: the
    /// value is copied into a buffer of its own.
    pub(crate) fn to_kv(&self, row: &Bytes, i: usize) -> KeyValue {
        KeyValue {
            row: row.clone(),
            qualifier: self.qualifiers[i].clone(),
            timestamp: self.versions[i],
            value: Bytes::copy_from_slice(self.value(i)),
        }
    }

    /// The cells as owned [`KeyValue`]s, in order.
    pub fn into_kvs(self) -> Vec<KeyValue> {
        let mut cells = Vec::with_capacity(self.len());
        let mut start = 0;
        for (row, end) in &self.runs {
            cells.extend((start..*end).map(|i| self.to_kv(row, i)));
            start = *end;
        }
        cells
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

/// The cells, in order, neighbours that share a row in one run.
impl From<Vec<KeyValue>> for PutBatch {
    fn from(kvs: Vec<KeyValue>) -> Self {
        kvs.into_iter().collect()
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
