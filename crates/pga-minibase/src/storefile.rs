//! Immutable sorted runs — the HFile analog.

use std::sync::Arc;

use bytes::Bytes;

use crate::kv::{ColumnRange, KeyValue, RowRange, RowWords};
use crate::scanner::ScanCells;

/// One row of a store file: the position of its first cell and its key.
/// The row ends where the next one starts.
pub(crate) type RowEntry = (usize, Bytes);

/// Interpolation steps a column-window seek takes inside a row before it
/// bisects what is left. A raw TSDB row (one 2-byte offset per second)
/// lands on the edge in one or two.
const INTERPOLATION_STEPS: usize = 3;

/// An immutable, sorted run of cells produced by a memstore flush or a
/// compaction. Cheap to clone (the data is shared), and scans hand out
/// ranges of the same shared cells.
///
/// The file indexes its rows, one entry each, so a scan finds a row, tests
/// its key and skips it without reading a cell.
#[derive(Debug, Clone)]
pub struct StoreFile {
    cells: Arc<Vec<KeyValue>>,
    /// One entry per row, in row order.
    rows: Arc<Vec<RowEntry>>,
    /// Monotone id; higher = newer file, which wins ties during merges.
    sequence: u64,
}

impl StoreFile {
    /// Build from cells that must already be sorted (debug-asserted),
    /// finding the rows in one walk over the cells. Flushes and
    /// compactions know their rows already and hand them over instead.
    pub fn from_sorted(cells: Vec<KeyValue>, sequence: u64) -> Self {
        let mut rows: Vec<RowEntry> = Vec::new();
        for (at, kv) in cells.iter().enumerate() {
            if rows.last().is_none_or(|(_, row)| *row != kv.row) {
                rows.push((at, kv.row.clone()));
            }
        }
        Self::from_rows(cells, rows, sequence)
    }

    /// Build from sorted cells and their row entries, one per row in
    /// order, each at the row's first cell (debug-asserted).
    pub(crate) fn from_rows(cells: Vec<KeyValue>, rows: Vec<RowEntry>, sequence: u64) -> Self {
        debug_assert!(
            cells.windows(2).all(|w| w[0] <= w[1]),
            "cells must be sorted"
        );
        debug_assert!(
            rows.first().map_or(cells.is_empty(), |&(at, _)| at == 0)
                && rows.iter().enumerate().all(|(i, (at, row))| {
                    let end = rows.get(i + 1).map_or(cells.len(), |&(next, _)| next);
                    *at < end && cells[*at..end].iter().all(|kv| kv.row == *row)
                }),
            "one row entry per row, at its first cell"
        );
        StoreFile {
            cells: Arc::new(cells),
            rows: Arc::new(rows),
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
        self.rows.first().map(|(_, row)| &row[..])
    }

    /// Last row, if any.
    pub fn last_row(&self) -> Option<&[u8]> {
        self.rows.last().map(|(_, row)| &row[..])
    }

    /// Every cell, in order, shared.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> &Arc<Vec<KeyValue>> {
        &self.cells
    }

    /// Every cell, in order, owned, and the row entries: the cells moved
    /// out when no scan reply still shares the file, cloned when one does
    /// (it keeps reading the old cells).
    pub(crate) fn into_parts(self) -> (Vec<KeyValue>, Arc<Vec<RowEntry>>) {
        (Arc::unwrap_or_clone(self.cells), self.rows)
    }

    /// Position of the first cell of row entry `i` (the file's length
    /// past the last row).
    fn row_start(&self, i: usize) -> usize {
        self.rows.get(i).map_or(self.cells.len(), |&(at, _)| at)
    }

    /// The row entries inside `range`, as a range of entry indices.
    fn rows_in(&self, range: &RowRange) -> std::ops::Range<usize> {
        let first = match &range.start[..] {
            [] => 0,
            start => self.rows.partition_point(|(_, row)| row[..] < *start),
        };
        let last = match &range.end[..] {
            [] => self.rows.len(),
            end => first + self.rows[first..].partition_point(|(_, row)| row[..] < *end),
        };
        first..last.max(first)
    }

    /// Iterate cells within `range`, found through the row index.
    pub fn scan<'a>(&'a self, range: &'a RowRange) -> impl Iterator<Item = &'a KeyValue> + 'a {
        let rows = self.rows_in(range);
        self.cells[self.row_start(rows.start)..self.row_start(rows.end)].iter()
    }

    /// The cells of the rows in `rows` that `words` accepts (every row
    /// when `None`) whose qualifier lies in one of `columns` (sorted and
    /// disjoint; `None` = the whole row), in order, as ranges of this
    /// file's shared cells: nothing is copied. The row index finds the
    /// rows and the filter reads their keys there, so a rejected row costs
    /// no cell read; inside a kept row each range's ends are sought by
    /// interpolating on the qualifiers, then bisecting what is left. The
    /// cost is per row and per range returned, not per cell stored.
    pub(crate) fn select(
        &self,
        rows: &RowRange,
        columns: Option<&[ColumnRange]>,
        words: Option<&RowWords>,
    ) -> ScanCells {
        let rows = self.rows_in(rows);
        let mut out = ScanCells::default();
        if columns.is_none() && words.is_none() {
            out.push(
                &self.cells,
                self.row_start(rows.start)..self.row_start(rows.end),
            );
            return out;
        }
        for i in rows {
            let (at, key) = &self.rows[i];
            if words.is_some_and(|w| !w.matches(key)) {
                continue;
            }
            let end = self.row_start(i + 1);
            let Some(columns) = columns else {
                out.push(&self.cells, *at..end);
                continue;
            };
            let mut from = *at;
            for c in columns {
                from += seek_qualifier(&self.cells[from..end], &c.start);
                let n = seek_qualifier(&self.cells[from..end], &c.end);
                out.push(&self.cells, from..from + n);
                from += n;
            }
        }
        out
    }
}

/// A qualifier's first 8 bytes as a big-endian number, zero-padded. It
/// never decreases along qualifier order, so it can interpolate a seek.
fn qualifier_prefix(qualifier: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = qualifier.len().min(8);
    word[..n].copy_from_slice(&qualifier[..n]);
    u64::from_be_bytes(word)
}

/// Position of the first cell of `row` (one row's cells, in order) whose
/// qualifier is at or after `qualifier`: a few interpolation steps on the
/// qualifiers' leading 8 bytes, then a bisection of what is left.
fn seek_qualifier(row: &[KeyValue], qualifier: &[u8]) -> usize {
    let key = qualifier_prefix(qualifier);
    // Every cell before `lo` is before `qualifier`; every one from `hi` on
    // is at or after it.
    let (mut lo, mut hi) = (0, row.len());
    for _ in 0..INTERPOLATION_STEPS {
        let (Some(first), Some(last)) = (row[lo..hi].first(), row[lo..hi].last()) else {
            return lo;
        };
        let (a, b) = (
            qualifier_prefix(&first.qualifier),
            qualifier_prefix(&last.qualifier),
        );
        if key < a {
            return lo;
        }
        if key > b {
            return hi;
        }
        if a == b {
            break; // one prefix throughout: only bytes past it tell
        }
        let offset = u128::from(key - a) * (hi - 1 - lo) as u128 / u128::from(b - a);
        let guess = lo + offset as usize;
        if row[guess].qualifier[..] < *qualifier {
            lo = guess + 1;
        } else {
            hi = guess;
        }
    }
    lo + row[lo..hi].partition_point(|kv| kv.qualifier[..] < *qualifier)
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
