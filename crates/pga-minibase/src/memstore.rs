//! In-memory sorted write buffer (the HBase MemStore analog).

use std::cmp::Reverse;
use std::collections::btree_map::{self, BTreeMap};
use std::ops::Bound;

use bytes::Bytes;

use crate::kv::{ColumnRange, KeyValue, RowRange, RowWords};
use crate::scanner::ScanCells;
use crate::storefile::StoreFile;

/// One cell of a row's run; its row key is the map key the run hangs off.
#[derive(Debug, Clone)]
struct Cell {
    qualifier: Bytes,
    version: u64,
    value: Bytes,
}

impl Cell {
    /// Order inside a run: qualifier ascending, newest version first.
    fn key(&self) -> (&[u8], Reverse<u64>) {
        (&self.qualifier, Reverse(self.version))
    }

    fn to_kv(&self, row: &Bytes) -> KeyValue {
        KeyValue {
            row: row.clone(),
            qualifier: self.qualifier.clone(),
            timestamp: self.version,
            value: self.value.clone(),
        }
    }
}

/// A sorted in-memory buffer of recent writes. Writes land here (after the
/// WAL) and are served from here until a flush turns the contents into an
/// immutable [`StoreFile`].
///
/// Cells are grouped by row: a map from row key to that row's sorted run.
/// A batch searches among the rows — hundreds, not every cell buffered —
/// once for each run of neighbouring cells that share a row, and a time
/// series only ever appends to its row's run, so the usual insert is a
/// `Vec::push`. A row's cells share the map's one key buffer, whatever
/// buffers the writer sent; a TSD's raw cells share their qualifiers too,
/// from the codec's table of every offset in a row span.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    rows: BTreeMap<Bytes, Vec<Cell>>,
    cells: usize,
    heap_size: usize,
}

impl MemStore {
    /// Empty memstore.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Insert one cell: [`MemStore::put_all`] of one.
    pub fn put(&mut self, kv: KeyValue) {
        self.put_all([kv]);
    }

    /// Insert cells in order. A write to an existing `(row, qualifier,
    /// timestamp)` replaces the previous value (HBase semantics), so of
    /// two writes to one key the later wins. The row is searched for once
    /// per run of neighbouring cells that share it.
    pub fn put_all(&mut self, kvs: impl IntoIterator<Item = KeyValue>) {
        let MemStore {
            rows,
            cells,
            heap_size,
        } = self;
        let mut kvs = kvs.into_iter().peekable();
        while let Some(first) = kvs.next() {
            let row = first.row.clone();
            // A known row keeps its own key; the incoming buffer is dropped.
            let run = rows.entry(row.clone()).or_default();
            let mut next = Some(first);
            while let Some(kv) = next {
                let accounted = kv.heap_size();
                let cell = Cell {
                    qualifier: kv.qualifier,
                    version: kv.timestamp,
                    value: kv.value,
                };
                next = kvs.next_if(|next| next.row == row);
                let at = if run.last().is_none_or(|last| last.key() < cell.key()) {
                    run.len() // the traffic: a series appends to its row-hour
                } else {
                    // Out of order (a backfill, a retry): O(run) moves at worst.
                    match run.binary_search_by(|c| c.key().cmp(&cell.key())) {
                        Ok(at) => {
                            // Keys are equal, so the replaced cell was
                            // accounted at the new one's size but for its
                            // value: only a change of value length moves
                            // `heap_size`.
                            let slot = &mut run[at];
                            *heap_size = *heap_size + cell.value.len() - slot.value.len();
                            *slot = cell;
                            continue;
                        }
                        Err(at) => at,
                    }
                };
                run.insert(at, cell);
                *cells += 1;
                *heap_size += accounted;
            }
        }
    }

    /// Number of cells buffered.
    pub fn len(&self) -> usize {
        self.cells
    }

    /// True when no cells are buffered.
    pub fn is_empty(&self) -> bool {
        self.cells == 0
    }

    /// Approximate heap footprint in bytes (drives flush decisions). A
    /// logical size — every cell counts its row key, as it will in a
    /// store file — so a flush happens at the same cell however the
    /// buffer is laid out.
    pub fn heap_size(&self) -> usize {
        self.heap_size
    }

    /// The rows inside `range`, in order, each with its run.
    fn rows_in(&self, range: &RowRange) -> btree_map::Range<'_, Bytes, Vec<Cell>> {
        let start = match &range.start[..] {
            [] => Bound::Unbounded,
            row => Bound::Included(row),
        };
        let end = match &range.end[..] {
            [] => Bound::Unbounded,
            row => Bound::Excluded(row),
        };
        self.rows.range::<[u8], _>((start, end))
    }

    /// The cells of the rows in `rows` that `words` accepts (every row
    /// when `None`) whose qualifier lies in one of `columns` (sorted and
    /// disjoint; `None` = the whole row), in order. The memstore keeps
    /// changing, so the cells are copied, once, into one shared run. A
    /// row key is tested once, before any of its cells is copied, and the
    /// scan seeks to each range's ends inside the row's run, so the cost
    /// is per row and per cell returned, not per cell stored.
    pub fn select(
        &self,
        rows: &RowRange,
        columns: Option<&[ColumnRange]>,
        words: Option<&RowWords>,
    ) -> ScanCells {
        let mut out = Vec::new();
        let accepted = self
            .rows_in(rows)
            .filter(|(row, _)| words.is_none_or(|w| w.matches(row)));
        for (row, run) in accepted {
            let Some(columns) = columns else {
                out.extend(run.iter().map(|cell| cell.to_kv(row)));
                continue;
            };
            let mut rest = &run[..];
            for c in columns {
                rest = &rest[rest.partition_point(|cell| cell.qualifier < c.start)..];
                let n = rest.partition_point(|cell| cell.qualifier < c.end);
                out.extend(rest[..n].iter().map(|cell| cell.to_kv(row)));
                rest = &rest[n..];
            }
        }
        out.into()
    }

    /// Drain everything into a store file of `sequence`, its row index
    /// built in the same walk over the rows that moves their cells; the
    /// memstore is empty afterwards.
    pub fn drain(&mut self, sequence: u64) -> StoreFile {
        let mut cells = Vec::with_capacity(self.cells);
        let mut index = Vec::with_capacity(self.rows.len());
        for (row, run) in std::mem::take(self).rows {
            index.push((cells.len(), row.clone()));
            cells.extend(run.into_iter().map(|cell| KeyValue {
                row: row.clone(),
                qualifier: cell.qualifier,
                timestamp: cell.version,
                value: cell.value,
            }));
        }
        StoreFile::from_rows(cells, index, sequence)
    }

    /// Drain everything into a sorted vector; the memstore is empty
    /// afterwards.
    pub fn drain_sorted(&mut self) -> Vec<KeyValue> {
        self.drain(0).into_parts().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(row: &str, qual: &str, ts: u64, val: &str) -> KeyValue {
        KeyValue::new(
            row.as_bytes().to_vec(),
            qual.as_bytes().to_vec(),
            ts,
            val.as_bytes().to_vec(),
        )
    }

    #[test]
    fn put_and_scan_sorted() {
        let mut m = MemStore::new();
        m.put(kv("b", "q", 1, "vb"));
        m.put(kv("a", "q", 1, "va"));
        m.put(kv("c", "q", 1, "vc"));
        let rows: Vec<_> = m
            .select(&RowRange::all(), None, None)
            .to_vec()
            .into_iter()
            .map(|k| String::from_utf8(k.row.to_vec()).unwrap())
            .collect();
        assert_eq!(rows, vec!["a", "b", "c"]);
    }

    #[test]
    fn newest_version_first_within_cell() {
        let mut m = MemStore::new();
        m.put(kv("a", "q", 1, "old"));
        m.put(kv("a", "q", 9, "new"));
        let vals: Vec<_> = m
            .select(&RowRange::all(), None, None)
            .to_vec()
            .into_iter()
            .map(|k| (k.timestamp, String::from_utf8(k.value.to_vec()).unwrap()))
            .collect();
        assert_eq!(vals, vec![(9, "new".to_string()), (1, "old".to_string())]);
    }

    #[test]
    fn same_cell_same_ts_replaces() {
        let mut m = MemStore::new();
        m.put(kv("a", "q", 5, "first"));
        m.put(kv("a", "q", 5, "second"));
        assert_eq!(m.len(), 1);
        let only = m
            .select(&RowRange::all(), None, None)
            .to_vec()
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(&only.value[..], b"second");
    }

    #[test]
    fn scan_respects_range() {
        let mut m = MemStore::new();
        for r in ["a", "b", "c", "d"] {
            m.put(kv(r, "q", 1, "v"));
        }
        let rows: Vec<_> = m
            .select(&RowRange::new(b"b".to_vec(), b"d".to_vec()), None, None)
            .to_vec()
            .into_iter()
            .map(|k| k.row)
            .collect();
        assert_eq!(rows, vec![Bytes::from("b"), Bytes::from("c")]);
    }

    #[test]
    fn heap_size_grows_and_resets() {
        let mut m = MemStore::new();
        assert_eq!(m.heap_size(), 0);
        m.put(kv("a", "q", 1, "hello"));
        let sz = m.heap_size();
        assert!(sz > 0);
        m.put(kv("b", "q", 1, "world"));
        assert!(m.heap_size() > sz);
        let drained = m.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert_eq!(m.heap_size(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn overwriting_a_cell_moves_heap_size_by_the_value_length_only() {
        let mut m = MemStore::new();
        m.put(kv("row", "a", 1, "v"));
        m.put(kv("row", "b", 1, "value"));
        m.put(kv("row", "c", 1, "v"));
        let (size, len) = (m.heap_size(), m.len());
        // A retry storm re-puts what is already held: nothing grows.
        for _ in 0..1000 {
            m.put(kv("row", "b", 1, "value"));
        }
        assert_eq!((m.heap_size(), m.len()), (size, len));
        m.put(kv("row", "b", 1, "a longer value"));
        assert_eq!(m.heap_size(), size + "a longer value".len() - "value".len());
        m.put(kv("row", "b", 1, ""));
        assert_eq!((m.heap_size(), m.len()), (size - "value".len(), len));
    }

    #[test]
    fn drain_is_sorted() {
        let mut m = MemStore::new();
        m.put(kv("b", "y", 1, ""));
        m.put(kv("a", "z", 3, ""));
        m.put(kv("a", "z", 7, ""));
        m.put(kv("a", "a", 2, ""));
        let d = m.drain_sorted();
        let mut sorted = d.clone();
        sorted.sort();
        assert_eq!(d, sorted);
        assert_eq!(d[1].timestamp, 7, "newest version of a/z first");
    }
}
