//! Immutable sorted runs — the HFile analog.

use std::sync::Arc;

use crate::kv::{ColumnRange, KeyValue, RowRange, RowWords};
use crate::scanner::ScanCells;

/// How many cells between sparse-index entries. Real HFiles index block
/// boundaries; 64 cells per "block" keeps seeks cheap without bloating the
/// index.
const INDEX_STRIDE: usize = 64;

/// An immutable, sorted run of cells produced by a memstore flush or a
/// compaction. Cheap to clone (the data is shared), and scans hand out
/// ranges of the same shared cells.
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

    /// Every cell, in order, shared.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> &Arc<Vec<KeyValue>> {
        &self.cells
    }

    /// Every cell, in order, owned: moved out when no scan reply still
    /// shares the file, cloned when one does (it keeps reading the old
    /// cells).
    pub(crate) fn into_cells(self) -> Vec<KeyValue> {
        Arc::unwrap_or_clone(self.cells)
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
    /// disjoint; `None` = the whole row), in order, as ranges of this
    /// file's shared cells: nothing is copied. Binary-searches each row's
    /// end — skipping a rejected row in one step — and each range's ends
    /// inside the row, so the cost is per row and per range returned, not
    /// per cell stored.
    pub(crate) fn select(
        &self,
        rows: &RowRange,
        columns: Option<&[ColumnRange]>,
        words: Option<&RowWords>,
    ) -> ScanCells {
        let cells = &self.cells[..];
        let mut at = self.seek_row(&rows.start);
        let end = match &rows.end[..] {
            [] => cells.len(),
            last => at + cells[at..].partition_point(|kv| kv.row[..] < *last),
        };
        let mut out = ScanCells::default();
        if columns.is_none() && words.is_none() {
            out.push(&self.cells, at..end);
            return out;
        }
        while at < end {
            let row = &cells[at].row;
            let row_end = at + cells[at..end].partition_point(|kv| kv.row == *row);
            if words.is_none_or(|w| w.matches(row)) {
                let Some(columns) = columns else {
                    out.push(&self.cells, at..row_end);
                    at = row_end;
                    continue;
                };
                let mut from = at;
                for c in columns {
                    from += cells[from..row_end].partition_point(|kv| kv.qualifier < c.start);
                    let n = cells[from..row_end].partition_point(|kv| kv.qualifier < c.end);
                    out.push(&self.cells, from..from + n);
                    from += n;
                }
            }
            at = row_end;
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
            .map(|r| KeyValue::new(r.to_string(), "q", 1, "v"))
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
            .scan(&RowRange::new("row00100", "row00110"))
            .map(|kv| std::str::from_utf8(&kv.row).unwrap().to_string())
            .collect();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], "row00100");
        assert_eq!(got[9], "row00109");
    }

    #[test]
    fn scan_start_before_first_and_after_last() {
        let f = file_of(&["m", "n"]);
        assert_eq!(f.scan(&RowRange::new("a", "z")).count(), 2);
        assert_eq!(f.scan(&RowRange::new("x", "z")).count(), 0);
        assert_eq!(f.scan(&RowRange::new("a", "b")).count(), 0);
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
