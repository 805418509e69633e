//! Immutable sorted runs — the HFile analog.

use std::ops::Range;
use std::sync::Arc;

use crate::batch::{word, Cells, PutBatch};
use crate::kv::{ColumnRange, RowRange, RowWords};
use crate::memstore::partition_point;
use crate::scanner::ScanCells;

/// Interpolation steps a column-window seek takes inside a row before it
/// bisects what is left. A raw TSDB row (one 2-byte offset per second)
/// lands on the edge in one or two.
const INTERPOLATION_STEPS: usize = 3;

/// An immutable, sorted run of cells produced by a memstore flush or a
/// compaction: one sorted [`PutBatch`], each row one run of it. Cheap to
/// clone (the batch is shared), and scans hand out ranges of the same
/// shared batch.
///
/// The batch's row runs are the file's row index, so a scan finds a row,
/// tests its key and skips it without reading a cell.
#[derive(Debug, Clone)]
pub struct StoreFile {
    cells: Arc<PutBatch>,
    /// Monotone id; higher = newer file, which wins ties during merges.
    sequence: u64,
}

impl StoreFile {
    /// Build from a batch whose cells are sorted, one run per row
    /// (debug-asserted). Flushes, compactions, splits, forks and scrub
    /// rewrites all build theirs by column.
    pub(crate) fn from_batch(cells: PutBatch, sequence: u64) -> Self {
        debug_assert!(
            cells.runs.windows(2).all(|w| w[0].row < w[1].row)
                && (0..cells.runs.len()).all(|r| {
                    let run = cells.run(r).cells();
                    run.end > run.start
                        && cells
                            .cells(run.clone())
                            .zip(cells.cells(run.start + 1..run.end))
                            .all(|(a, b)| a <= b)
                }),
            "cells sorted, one run per row"
        );
        StoreFile {
            cells: Arc::new(cells),
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

    /// The file's sorted batch, shared.
    #[cfg(test)]
    pub(crate) fn batch(&self) -> &Arc<PutBatch> {
        &self.cells
    }

    /// The file's sorted batch; a scan reply that still holds it keeps
    /// its own handle.
    pub(crate) fn into_batch(self) -> Arc<PutBatch> {
        self.cells
    }

    /// The rows inside `range`, as a range of run indices.
    fn rows_in(&self, range: &RowRange) -> Range<usize> {
        let runs = &self.cells.runs;
        let first = match &range.start[..] {
            [] => 0,
            start => runs.partition_point(|run| run.row[..] < *start),
        };
        let last = match &range.end[..] {
            [] => runs.len(),
            end => first + runs[first..].partition_point(|run| run.row[..] < *end),
        };
        first..last.max(first)
    }

    /// The cells of the rows in `range`, in order, as views, found
    /// through the row index.
    pub fn scan(&self, range: &RowRange) -> Cells<'_> {
        let rows = self.rows_in(range);
        let cells = &self.cells;
        cells.cells(cells.run_start(rows.start)..cells.run_start(rows.end))
    }

    /// The cells of the rows in `rows` that `words` accepts (every row
    /// when `None`) whose qualifier lies in one of `columns` (sorted and
    /// disjoint; `None` = the whole row), in order, as ranges of this
    /// file's shared batch: nothing is copied. The row index finds the
    /// rows and the filter reads their keys there, so a rejected row costs
    /// no cell read; inside a kept row each range's ends are sought by
    /// interpolating on the qualifier column, then bisecting what is left.
    /// The cost is per row and per range returned, not per cell stored.
    pub(crate) fn select(
        &self,
        rows: &RowRange,
        columns: Option<&[ColumnRange]>,
        words: Option<&RowWords>,
    ) -> ScanCells {
        let rows = self.rows_in(rows);
        let cells = &self.cells;
        let mut out = ScanCells::default();
        if columns.is_none() && words.is_none() {
            out.push(
                cells,
                cells.run_start(rows.start)..cells.run_start(rows.end),
            );
            return out;
        }
        for r in rows {
            let run = cells.run(r);
            if words.is_some_and(|w| !w.matches(run.row())) {
                continue;
            }
            let Some(columns) = columns else {
                out.push(cells, run.cells());
                continue;
            };
            let (mut from, end) = (run.cells().start, run.cells().end);
            let qualifier = |i| run.qualifier(i);
            for c in columns {
                from = seek_qualifier(from..end, qualifier, &c.start);
                let to = seek_qualifier(from..end, qualifier, &c.end);
                out.push(cells, from..to);
                from = to;
            }
        }
        out
    }
}

/// The first of `cells` (one row's, in order) whose qualifier, read by
/// `qualifier_of`, is at or after `qualifier`: a few interpolation steps
/// on the qualifiers' leading 8 bytes, then a bisection of what is left.
fn seek_qualifier<'a>(
    cells: Range<usize>,
    qualifier_of: impl Fn(usize) -> &'a [u8],
    qualifier: &[u8],
) -> usize {
    // A qualifier's word never decreases along qualifier order, so it
    // can interpolate a seek.
    let key = word(qualifier);
    // Every qualifier before `lo` is before `qualifier`; every one from
    // `hi` on is at or after it.
    let (mut lo, mut hi) = (cells.start, cells.end);
    for _ in 0..INTERPOLATION_STEPS {
        if lo == hi {
            return lo;
        }
        let (a, b) = (word(qualifier_of(lo)), word(qualifier_of(hi - 1)));
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
        if qualifier_of(guess) < qualifier {
            lo = guess + 1;
        } else {
            hi = guess;
        }
    }
    partition_point(lo..hi, |i| qualifier_of(i) < qualifier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KeyValue;

    fn file_of(rows: &[&str]) -> StoreFile {
        let mut cells: Vec<KeyValue> = rows
            .iter()
            .map(|r| KeyValue::new(r.to_string(), "q", 1, "v"))
            .collect();
        cells.sort();
        StoreFile::from_batch(cells.into(), 1)
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
            .map(|kv| std::str::from_utf8(kv.row).unwrap().to_string())
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
        let f = StoreFile::from_batch(PutBatch::new(), 0);
        assert!(f.is_empty());
        assert_eq!(f.scan(&RowRange::all()).count(), 0);
    }
}
