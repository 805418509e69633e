//! Scan replies and the k-way merge across the memstore and store files.
//!
//! A scan reply is a [`ScanCells`]: shared runs of cells, in scan order.
//! A store file hands out index ranges into its own cell vector, so a
//! cell is read where it lies and nothing is copied per cell; the
//! memstore hands out ranges of the shared chunks it makes a row's cells
//! into, once, at their first scan.

use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;
use std::sync::Arc;

use crate::kv::KeyValue;

/// Cells shared with their owner, and the indices of them in the reply.
type Run = (Arc<Vec<KeyValue>>, Range<usize>);

/// A scan's cells: runs of shared cell vectors, each a range of one
/// vector, in scan order. Cloning a reply clones one `Arc` per run, not
/// three per cell; [`ScanCells::to_vec`] is the copy for a caller that
/// needs owned cells.
#[derive(Debug, Clone, Default)]
pub struct ScanCells {
    runs: Vec<Run>,
}

impl ScanCells {
    /// Append `cells[range]`. A range that continues the last run of the
    /// same vector extends it; an empty range adds nothing.
    pub(crate) fn push(&mut self, cells: &Arc<Vec<KeyValue>>, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        if let Some((last, run)) = self.runs.last_mut() {
            if Arc::ptr_eq(last, cells) && run.end == range.start {
                run.end = range.end;
                return;
            }
        }
        self.runs.push((cells.clone(), range));
    }

    /// Append every run of `other`, after this reply's cells.
    pub fn append(&mut self, other: ScanCells) {
        for (cells, range) in other.runs {
            self.push(&cells, range);
        }
    }

    /// Number of cells, summed over the runs.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|(_, range)| range.len()).sum()
    }

    /// True when the reply holds no cell.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs, in scan order: each a shared vector and the range of it
    /// the reply holds (never empty).
    pub(crate) fn runs(&self) -> &[(Arc<Vec<KeyValue>>, Range<usize>)] {
        &self.runs
    }

    /// The cells, in scan order, by reference.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            runs: self.runs.iter(),
            run: [].iter(),
        }
    }

    /// First cell, if any.
    pub(crate) fn first(&self) -> Option<&KeyValue> {
        self.runs.first().map(|(cells, range)| &cells[range.start])
    }

    /// Last cell, if any.
    pub(crate) fn last(&self) -> Option<&KeyValue> {
        self.runs.last().map(|(cells, range)| &cells[range.end - 1])
    }

    /// The cells as owned values, in scan order: the one copy of a reply,
    /// for callers that keep or rewrite the cells.
    pub fn to_vec(&self) -> Vec<KeyValue> {
        let mut out = Vec::with_capacity(self.len());
        for (cells, range) in &self.runs {
            out.extend_from_slice(&cells[range.clone()]);
        }
        out
    }
}

/// Owned cells become one run of their own.
impl From<Vec<KeyValue>> for ScanCells {
    fn from(cells: Vec<KeyValue>) -> Self {
        let len = cells.len();
        let runs = match len {
            0 => Vec::new(),
            _ => vec![(Arc::new(cells), 0..len)],
        };
        ScanCells { runs }
    }
}

/// Two replies are equal when they hold equal cells in the same order,
/// however the cells are split into runs.
impl PartialEq for ScanCells {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for &'a ScanCells {
    type Item = &'a KeyValue;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The cells of a [`ScanCells`], in scan order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    runs: std::slice::Iter<'a, Run>,
    run: std::slice::Iter<'a, KeyValue>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a KeyValue;

    #[inline]
    fn next(&mut self) -> Option<&'a KeyValue> {
        loop {
            if let Some(kv) = self.run.next() {
                return Some(kv);
            }
            let (cells, range) = self.runs.next()?;
            self.run = cells[range.clone()].iter();
        }
    }
}

/// A source's next cell in a merge: run `run` of source `source`, index
/// `at` of that run's vector.
struct Head<'a> {
    kv: &'a KeyValue,
    source: usize,
    priority: u64,
    run: usize,
    at: usize,
}

impl<'a> Head<'a> {
    /// The cell of `cells` at `(run, at)`, or the first of a later run
    /// when `at` is past the end of run `run`.
    fn at(
        cells: &'a ScanCells,
        source: usize,
        priority: u64,
        run: usize,
        at: usize,
    ) -> Option<Self> {
        let (mut run, mut at) = (run, at);
        loop {
            let (shared, range) = cells.runs.get(run)?;
            if at < range.end {
                return Some(Head {
                    kv: &shared[at],
                    source,
                    priority,
                    run,
                    at,
                });
            }
            run += 1;
            at = cells.runs.get(run)?.1.start;
        }
    }
}

impl PartialEq for Head<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.kv == other.kv && self.priority == other.priority
    }
}

impl Eq for Head<'_> {}

impl Ord for Head<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the smallest cell first, and
        // among equal cell keys the highest priority first.
        other
            .kv
            .cmp(self.kv)
            .then_with(|| self.priority.cmp(&other.priority))
    }
}

impl PartialOrd for Head<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Merge already-sorted scan replies into one sorted reply, deduplicating
/// exact `(row, qualifier, timestamp)` collisions in favour of the source
/// with the highest priority (the memstore, then newer store files).
///
/// `sources` must each be sorted; `priorities[i]` ranks source `i` (higher
/// wins collisions). The merge moves no cell: consecutive winners from
/// one run of one source become one run of the answer.
pub fn merge_scan(sources: Vec<ScanCells>, priorities: Vec<u64>) -> ScanCells {
    assert_eq!(sources.len(), priorities.len());
    // Empty sources never reach the heap, and a lone source is its own
    // merge: no source holds an exact duplicate of its own (the memstore
    // replaces on write, store files are built from merged output).
    let mut live: Vec<(ScanCells, u64)> = sources
        .into_iter()
        .zip(priorities)
        .filter(|(cells, _)| !cells.is_empty())
        .collect();
    if live.len() <= 1 {
        return live.pop().map(|(cells, _)| cells).unwrap_or_default();
    }
    let mut out = ScanCells::default();
    let mut heap: BinaryHeap<Head<'_>> = live
        .iter()
        .enumerate()
        .filter_map(|(source, (cells, priority))| {
            let start = cells.runs.first()?.1.start;
            Head::at(cells, source, *priority, 0, start)
        })
        .collect();
    let mut last: Option<&KeyValue> = None;
    while let Some(mut top) = heap.peek_mut() {
        let (kv, source, run, at) = (top.kv, top.source, top.run, top.at);
        let cells = &live[source].0;
        // Refill the top slot in place (one sift) rather than pop + push.
        match Head::at(cells, source, top.priority, run, at + 1) {
            Some(next) => *top = next,
            None => drop(PeekMut::pop(top)),
        }
        // Equal keys leave the heap highest priority first: keep that one.
        if last.is_none_or(|last| last.cmp(kv).is_ne()) {
            out.push(&cells.runs[run].0, at..at + 1);
            last = Some(kv);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(row: &str, ts: u64, val: &str) -> KeyValue {
        KeyValue::new(row.to_string(), "q", ts, val.to_string())
    }

    fn merge(sources: Vec<Vec<KeyValue>>, priorities: Vec<u64>) -> Vec<KeyValue> {
        merge_scan(
            sources.into_iter().map(ScanCells::from).collect(),
            priorities,
        )
        .to_vec()
    }

    #[test]
    fn merges_disjoint_sources_in_order() {
        let a = vec![kv("a", 1, "1"), kv("c", 1, "1")];
        let b = vec![kv("b", 1, "1"), kv("d", 1, "1")];
        let merged = merge(vec![a, b], vec![1, 0]);
        let rows: Vec<_> = merged.iter().map(|k| k.row.clone()).collect();
        assert_eq!(rows, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn duplicate_cells_resolved_by_priority() {
        let memstore = vec![kv("a", 5, "newer-source")];
        let file = vec![kv("a", 5, "older-source")];
        let merged = merge(vec![file, memstore], vec![0, 10]);
        assert_eq!(merged.len(), 1);
        assert_eq!(&merged[0].value[..], b"newer-source");
    }

    #[test]
    fn versions_of_same_cell_newest_first() {
        let f1 = vec![kv("a", 1, "v1")];
        let f2 = vec![kv("a", 9, "v9")];
        let merged = merge(vec![f1, f2], vec![0, 1]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].timestamp, 9);
        assert_eq!(merged[1].timestamp, 1);
    }

    #[test]
    fn empty_sources_are_fine() {
        assert!(merge(vec![], vec![]).is_empty());
        assert_eq!(
            merge(vec![vec![], vec![kv("a", 1, "v")]], vec![0, 1]).len(),
            1
        );
    }

    #[test]
    fn three_way_merge_with_collisions() {
        let s0 = vec![kv("a", 1, "s0"), kv("b", 1, "s0")];
        let s1 = vec![kv("a", 1, "s1"), kv("c", 1, "s1")];
        let s2 = vec![kv("b", 1, "s2"), kv("c", 1, "s2")];
        let merged = merge(vec![s0, s1, s2], vec![0, 1, 2]);
        assert_eq!(merged.len(), 3);
        let winners: Vec<_> = merged
            .iter()
            .map(|k| String::from_utf8(k.value.to_vec()).unwrap())
            .collect();
        assert_eq!(winners, vec!["s1", "s2", "s2"]);
    }

    #[test]
    fn a_lone_source_passes_through_and_winners_share_their_runs() {
        let file = Arc::new(["a", "b", "c", "d"].map(|r| kv(r, 1, "f")).to_vec());
        let mut lone = ScanCells::default();
        lone.push(&file, 1..3);
        let merged = merge_scan(vec![lone.clone(), ScanCells::default()], vec![0, 1]);
        assert_eq!(merged.runs().len(), 1);
        assert!(Arc::ptr_eq(&merged.runs()[0].0, &file));
        // A memstore cell between two file cells splits the file's run in
        // two, and its collision with `c` hides the file's `c`.
        let memstore = ScanCells::from(vec![kv("c", 1, "m")]);
        let merged = merge_scan(vec![lone, memstore], vec![0, 1]);
        let runs: Vec<_> = merged.runs().iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(runs, vec![1..2, 0..1]);
        assert_eq!(merged.last().map(|kv| &kv.value[..]), Some(&b"m"[..]));
    }

    #[test]
    fn pushes_coalesce_only_contiguous_ranges_of_one_vector() {
        let a = Arc::new(["a", "b", "c"].map(|r| kv(r, 1, "a")).to_vec());
        let b = Arc::new(vec![kv("d", 1, "b")]);
        let mut cells = ScanCells::default();
        cells.push(&a, 0..1);
        cells.push(&a, 1..2);
        cells.push(&a, 2..2);
        cells.push(&b, 0..1);
        cells.push(&a, 2..3);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells.runs().len(), 3);
        assert_eq!(cells.first().map(|kv| &kv.row[..]), Some(&b"a"[..]));
        assert_eq!(cells.last().map(|kv| &kv.row[..]), Some(&b"c"[..]));
        let rows: Vec<_> = cells.iter().map(|kv| kv.row.to_vec()).collect();
        assert_eq!(rows, [b"a", b"b", b"d", b"c"].map(|r| r.to_vec()));
        assert_eq!(ScanCells::from(cells.to_vec()), cells);
    }
}
