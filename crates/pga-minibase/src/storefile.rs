//! Immutable sorted runs — the HFile analog.

use std::sync::Arc;

use crate::kv::{ColumnRange, KeyValue, RowRange, RowWords};

/// How many cells between sparse-index entries. Real HFiles index block
/// boundaries; 64 cells per "block" keeps seeks cheap without bloating the
/// index.
const INDEX_STRIDE: usize = 64;

/// An immutable, sorted run of cells produced by a memstore flush or a
/// compaction. Cheap to clone (the data is shared).
#[derive(Debug, Clone)]
pub struct StoreFile {
    cells: Arc<Vec<KeyValue>>,
    /// Sparse index: (cell position, row key) every `INDEX_STRIDE` cells.
    index: Arc<Vec<(usize, bytes::Bytes)>>,
    /// Monotone id; higher = newer file, which wins ties during merges.
    sequence: u64,
}

impl StoreFile {
    /// Build from cells that must already be sorted (debug-asserted).
    pub fn from_sorted(cells: Vec<KeyValue>, sequence: u64) -> Self {
        debug_assert!(
            cells.windows(2).all(|w| w[0] <= w[1]),
            "cells must be sorted"
        );
        let index = cells
            .iter()
            .enumerate()
            .step_by(INDEX_STRIDE)
            .map(|(i, kv)| (i, kv.row.clone()))
            .collect();
        StoreFile {
            cells: Arc::new(cells),
            index: Arc::new(index),
            sequence,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the file holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// File sequence id (newer files shadow older ones).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// First row, if any.
    pub fn first_row(&self) -> Option<&[u8]> {
        self.cells.first().map(|kv| &kv.row[..])
    }

    /// Last row, if any.
    pub fn last_row(&self) -> Option<&[u8]> {
        self.cells.last().map(|kv| &kv.row[..])
    }

    /// Every cell, in order.
    pub(crate) fn cells(&self) -> &[KeyValue] {
        &self.cells
    }

    /// Position of the first cell whose row is at or after `row`.
    fn seek_row(&self, row: &[u8]) -> usize {
        if row.is_empty() {
            return 0;
        }
        // Last index entry with row < start, then search from there.
        let idx = self.index.partition_point(|(_, r)| r[..] < *row);
        let block = idx.saturating_sub(1);
        let from = self.index.get(block).map_or(0, |&(pos, _)| pos);
        from + self.cells[from..].partition_point(|kv| kv.row[..] < *row)
    }

    /// Iterate cells within `range`, using the sparse index to skip ahead.
    pub fn scan<'a>(&'a self, range: &'a RowRange) -> impl Iterator<Item = &'a KeyValue> + 'a {
        self.cells[self.seek_row(&range.start)..]
            .iter()
            .take_while(move |kv| range.end.is_empty() || kv.row[..] < range.end[..])
    }

    /// The cells of the rows in `rows` that `words` accepts (every row
    /// when `None`) whose qualifier lies in one of `columns` (sorted and
    /// disjoint; `None` = the whole row), in order. Binary-searches each
    /// row's end — skipping a rejected row in one step — and each range's
    /// ends inside the row, so the cost is per row and per cell returned,
    /// not per cell stored.
    pub(crate) fn select(
        &self,
        rows: &RowRange,
        columns: Option<&[ColumnRange]>,
        words: Option<&RowWords>,
    ) -> Vec<KeyValue> {
        if columns.is_none() && words.is_none() {
            return self.scan(rows).cloned().collect();
        }
        let mut out = Vec::new();
        let mut rest = &self.cells[self.seek_row(&rows.start)..];
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_of(rows: &[&str]) -> StoreFile {
        let mut cells: Vec<KeyValue> = rows
            .iter()
            .map(|r| KeyValue::new(r.as_bytes().to_vec(), b"q".to_vec(), 1, b"v".to_vec()))
            .collect();
        cells.sort();
        StoreFile::from_sorted(cells, 1)
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let f = file_of(&["c", "a", "b"]);
        let rows: Vec<_> = f.scan(&RowRange::all()).map(|kv| kv.row.clone()).collect();
        assert_eq!(rows, vec!["a", "b", "c"]);
    }

    #[test]
    fn scan_range_seeks_correctly() {
        // Enough rows to span several index blocks.
        let rows: Vec<String> = (0..500).map(|i| format!("row{i:05}")).collect();
        let refs: Vec<&str> = rows.iter().map(|s| s.as_str()).collect();
        let f = file_of(&refs);
        let got: Vec<_> = f
            .scan(&RowRange::new(b"row00100".to_vec(), b"row00110".to_vec()))
            .map(|kv| String::from_utf8(kv.row.to_vec()).unwrap())
            .collect();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], "row00100");
        assert_eq!(got[9], "row00109");
    }

    #[test]
    fn scan_start_before_first_and_after_last() {
        let f = file_of(&["m", "n"]);
        assert_eq!(
            f.scan(&RowRange::new(b"a".to_vec(), b"z".to_vec())).count(),
            2
        );
        assert_eq!(
            f.scan(&RowRange::new(b"x".to_vec(), b"z".to_vec())).count(),
            0
        );
        assert_eq!(
            f.scan(&RowRange::new(b"a".to_vec(), b"b".to_vec())).count(),
            0
        );
    }

    #[test]
    fn empty_file() {
        let f = StoreFile::from_sorted(vec![], 0);
        assert!(f.is_empty());
        assert_eq!(f.scan(&RowRange::all()).count(), 0);
        assert!(f.first_row().is_none());
    }

    #[test]
    fn first_last_rows() {
        let f = file_of(&["b", "a", "c"]);
        assert_eq!(f.first_row().unwrap(), b"a");
        assert_eq!(f.last_row().unwrap(), b"c");
    }
}
