//! In-memory sorted write buffer (the HBase MemStore analog).

use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::{BufMut, Bytes, BytesMut};

use crate::kv::{ColumnRange, KeyValue, RowRange};

/// Sort key inside the memstore: row, qualifier, reverse timestamp.
type CellKey = (Bytes, Bytes, std::cmp::Reverse<u64>);

/// A sorted in-memory buffer of recent writes. Writes land here (after the
/// WAL) and are served from here until a flush turns the contents into an
/// immutable [`crate::storefile::StoreFile`].
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    cells: BTreeMap<CellKey, Bytes>,
    heap_size: usize,
}

impl MemStore {
    /// Empty memstore.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Insert one cell. A write to an existing `(row, qualifier,
    /// timestamp)` replaces the previous value (HBase semantics).
    pub fn put(&mut self, kv: KeyValue) {
        self.heap_size += kv.heap_size();
        let key = (kv.row, kv.qualifier, std::cmp::Reverse(kv.timestamp));
        if let Some(old) = self.cells.insert(key, kv.value) {
            // Replacement: refund the old value's bytes (keys are equal).
            self.heap_size -= old.len();
        }
    }

    /// Number of cells buffered.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are buffered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Approximate heap footprint in bytes (drives flush decisions).
    pub fn heap_size(&self) -> usize {
        self.heap_size
    }

    /// Sorted iteration over cells within a row range.
    pub fn scan<'a>(&'a self, range: &'a RowRange) -> impl Iterator<Item = KeyValue> + 'a {
        self.cells
            .range(range_bounds(range))
            .filter(move |((row, _, _), _)| range.contains(row))
            .map(cell)
    }

    /// The cells of `rows` whose qualifier lies in one of `columns`
    /// (sorted and disjoint), in order. Seeks to each range of each row,
    /// so the cost is per row and per cell returned, not per cell stored.
    pub(crate) fn scan_columns(&self, rows: &RowRange, columns: &[ColumnRange]) -> Vec<KeyValue> {
        let (mut next, end) = range_bounds(rows);
        let mut out = Vec::new();
        // The first cell at or after `next` names the next row to visit.
        while let Some(((row, _, _), _)) = self.cells.range((next, end.clone())).next() {
            for c in columns {
                let at = |qualifier: &Bytes| (row.clone(), qualifier.clone(), FIRST_VERSION);
                out.extend(self.cells.range(at(&c.start)..at(&c.end)).map(cell));
            }
            // `row ++ 0x00` is the smallest key after `row`.
            let mut after = BytesMut::with_capacity(row.len() + 1);
            after.put_slice(row);
            after.put_u8(0);
            next = Bound::Included((after.freeze(), Bytes::new(), FIRST_VERSION));
        }
        out
    }

    /// Drain everything into a sorted vector (used by flushes); the
    /// memstore is empty afterwards.
    pub fn drain_sorted(&mut self) -> Vec<KeyValue> {
        self.heap_size = 0;
        std::mem::take(&mut self.cells)
            .into_iter()
            .map(|((row, qual, ts), value)| KeyValue {
                row,
                qualifier: qual,
                timestamp: ts.0,
                value,
            })
            .collect()
    }
}

/// Versions sort newest first, so this is the least third key component.
const FIRST_VERSION: std::cmp::Reverse<u64> = std::cmp::Reverse(u64::MAX);

fn cell((key, value): (&CellKey, &Bytes)) -> KeyValue {
    KeyValue {
        row: key.0.clone(),
        qualifier: key.1.clone(),
        timestamp: key.2 .0,
        value: value.clone(),
    }
}

fn range_bounds(range: &RowRange) -> (Bound<CellKey>, Bound<CellKey>) {
    let start = if range.start.is_empty() {
        Bound::Unbounded
    } else {
        Bound::Included((range.start.clone(), Bytes::new(), FIRST_VERSION))
    };
    let end = if range.end.is_empty() {
        Bound::Unbounded
    } else {
        Bound::Excluded((range.end.clone(), Bytes::new(), FIRST_VERSION))
    };
    (start, end)
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
            .scan(&RowRange::all())
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
            .scan(&RowRange::all())
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
        let only = m.scan(&RowRange::all()).next().unwrap();
        assert_eq!(&only.value[..], b"second");
    }

    #[test]
    fn scan_respects_range() {
        let mut m = MemStore::new();
        for r in ["a", "b", "c", "d"] {
            m.put(kv(r, "q", 1, "v"));
        }
        let rows: Vec<_> = m
            .scan(&RowRange::new(b"b".to_vec(), b"d".to_vec()))
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
