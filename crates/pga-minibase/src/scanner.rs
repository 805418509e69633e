//! Scan replies and the k-way merge across the memstore and store files.
//!
//! A scan reply is a [`ScanCells`]: ranges of shared [`PutBatch`]es, in
//! scan order. The memstore lends ranges of the batches it keeps, a store
//! file ranges of its one sorted batch, so a cell is read where it lies
//! and nothing is made or copied per cell. A reply's cells are read as
//! [`CellRef`] views; [`ScanCells::to_vec`] is the one place a reply makes
//! [`KeyValue`]s.

use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;
use std::sync::Arc;

use crate::batch::{Cells, PutBatch};
use crate::kv::{CellRef, KeyValue};

/// A shared batch, and the indices of its cells in the reply.
type Run = (Arc<PutBatch>, Range<usize>);

/// A scan's cells: runs of shared batches, each a range of one batch, in
/// scan order. Cloning a reply clones one `Arc` per run. The batches never
/// change once shared, so a reply is a snapshot: later writes, flushes and
/// compactions leave what it reads as it was. [`ScanCells::to_vec`] is the
/// copy for a caller that needs owned cells.
#[derive(Debug, Clone, Default)]
pub struct ScanCells {
    runs: Vec<Run>,
}

impl ScanCells {
    /// Append `cells[range]`. A range that continues the last run of the
    /// same batch extends it; an empty range adds nothing.
    pub(crate) fn push(&mut self, cells: &Arc<PutBatch>, range: Range<usize>) {
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

    /// The runs, in scan order: each a shared batch and the range of it
    /// the reply holds (never empty).
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The cells, in scan order, as views.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            runs: self.runs.iter(),
            run: 0,
            cells: Cells::default(),
        }
    }

    /// First cell, if any.
    pub(crate) fn first(&self) -> Option<CellRef<'_>> {
        self.runs
            .first()
            .map(|(cells, range)| cells.cell(range.start))
    }

    /// Last cell, if any.
    pub(crate) fn last(&self) -> Option<CellRef<'_>> {
        self.runs
            .last()
            .map(|(cells, range)| cells.cell(range.end - 1))
    }

    /// Drop every run, keeping the room for them.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
    }

    /// Append the cells, in scan order, to `out` by column: a range of
    /// each column copied per row of a run. Cells under the row of the
    /// last run join it, so a sorted reply appended to an empty batch
    /// gives one run per row, the shape of a store file's batch.
    pub(crate) fn copy_into(&self, out: &mut PutBatch) {
        for (cells, range) in &self.runs {
            for (r, piece) in cells.pieces(range.clone()) {
                let row = &cells.runs[r].row;
                out.open_run(row, || row.clone());
                out.push_cells(cells, r, piece);
            }
        }
    }

    /// The cells as one batch of their own, copied by column
    /// ([`ScanCells::copy_into`]) into columns sized up front.
    pub(crate) fn to_batch(&self) -> PutBatch {
        let (mut qualifiers, mut values) = (0, 0);
        for (cells, range) in &self.runs {
            for (r, piece) in cells.pieces(range.clone()) {
                let (q, v) = cells.run(r).bytes(piece);
                (qualifiers, values) = (qualifiers + q, values + v);
            }
        }
        let mut out = PutBatch::with_capacity(0, self.len(), qualifiers, values);
        self.copy_into(&mut out);
        out
    }

    /// The cells as owned values, in scan order: the one place a reply
    /// makes [`KeyValue`]s, for callers that keep or rewrite the cells.
    pub fn to_vec(&self) -> Vec<KeyValue> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().map(CellRef::to_kv));
        out
    }
}

/// Owned cells become one run of a batch of their own.
impl From<Vec<KeyValue>> for ScanCells {
    fn from(cells: Vec<KeyValue>) -> Self {
        let mut out = ScanCells::default();
        let len = cells.len();
        out.push(&Arc::new(PutBatch::from(cells)), 0..len);
        out
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
    type Item = CellRef<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The cells of a [`ScanCells`], in scan order, as views.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    runs: std::slice::Iter<'a, Run>,
    /// How many runs were entered: the one `cells` walks is one less.
    run: usize,
    cells: Cells<'a>,
}

impl<'a> Iter<'a> {
    /// The next cell, the run it lies in and its index in that run's
    /// batch.
    #[inline]
    fn next_at(&mut self) -> Option<(CellRef<'a>, usize, usize)> {
        loop {
            if let Some((cell, at)) = self.cells.next_at() {
                return Some((cell, self.run - 1, at));
            }
            let (batch, range) = self.runs.next()?;
            self.cells = batch.cells(range.clone());
            self.run += 1;
        }
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = CellRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<CellRef<'a>> {
        self.next_at().map(|(cell, ..)| cell)
    }
}

/// A source's next cell in a merge: run `run` of source `source`, index
/// `at` of that run's batch.
struct Head<'a> {
    cell: CellRef<'a>,
    source: usize,
    priority: u64,
    run: usize,
    at: usize,
}

impl<'a> Head<'a> {
    /// The next cell of `cells`, a walk over source `source`.
    fn next(cells: &mut Iter<'a>, source: usize, priority: u64) -> Option<Self> {
        let (cell, run, at) = cells.next_at()?;
        Some(Head {
            cell,
            source,
            priority,
            run,
            at,
        })
    }
}

impl PartialEq for Head<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell && self.priority == other.priority
    }
}

impl Eq for Head<'_> {}

impl Ord for Head<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the smallest cell first, and
        // among equal cell keys the highest priority first.
        other
            .cell
            .cmp(&self.cell)
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
    let mut walks: Vec<Iter<'_>> = live.iter().map(|(cells, _)| cells.iter()).collect();
    let mut heap: BinaryHeap<Head<'_>> = walks
        .iter_mut()
        .zip(&live)
        .enumerate()
        .filter_map(|(source, (walk, (_, priority)))| Head::next(walk, source, *priority))
        .collect();
    let mut last: Option<CellRef<'_>> = None;
    while let Some(mut top) = heap.peek_mut() {
        let (cell, source, run, at) = (top.cell, top.source, top.run, top.at);
        // Refill the top slot in place (one sift) rather than pop + push.
        match Head::next(&mut walks[source], source, top.priority) {
            Some(next) => *top = next,
            None => drop(PeekMut::pop(top)),
        }
        // Equal keys leave the heap highest priority first: keep that one.
        if last.is_none_or(|last| last.cmp(&cell).is_ne()) {
            out.push(&live[source].0.runs[run].0, at..at + 1);
            last = Some(cell);
        }
    }
    out
}

/// Merge the runs of `cells`, each sorted, into one sorted reply: the
/// runs are [`merge_scan`]'s sources, ranked in order, so of an exact key
/// that several runs hold the copy in the last of them wins.
pub(crate) fn merge_runs(cells: &ScanCells) -> ScanCells {
    let sources = cells.runs.iter().map(|run| ScanCells {
        runs: vec![run.clone()],
    });
    merge_scan(sources.collect(), (0..cells.runs.len() as u64).collect())
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
        let file = Arc::new(PutBatch::from(
            ["a", "b", "c", "d"].map(|r| kv(r, 1, "f")).to_vec(),
        ));
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
        assert_eq!(merged.last().map(|kv| kv.value), Some(&b"m"[..]));
    }

    #[test]
    fn a_sorted_reply_becomes_a_batch_of_one_run_a_row() {
        // Runs of two batches, one crossing rows, the others one cell.
        let a = Arc::new(PutBatch::from(vec![
            kv("a", 3, "a3"),
            kv("a", 1, "a1"),
            kv("b", 1, "b1"),
            kv("c", 1, "c1"),
        ]));
        let b = Arc::new(PutBatch::from(vec![kv("a", 2, "a2"), kv("c", 5, "c5")]));
        let mut reply = ScanCells::default();
        for (cells, range) in [(&a, 0..1), (&b, 0..1), (&a, 1..3), (&b, 1..2), (&a, 3..4)] {
            reply.push(cells, range);
        }
        let batch = reply.to_batch();
        assert_eq!(batch.rows().count(), 3);
        assert_eq!(batch.clone().into_kvs(), reply.to_vec());
        // Merging the runs finds the same order from any split.
        let mut shuffled = ScanCells::default();
        shuffled.push(&a, 0..4);
        shuffled.push(&b, 0..2);
        assert_eq!(merge_runs(&shuffled), reply);
    }

    #[test]
    fn pushes_coalesce_only_contiguous_ranges_of_one_vector() {
        let a = Arc::new(PutBatch::from(
            ["a", "b", "c"].map(|r| kv(r, 1, "a")).to_vec(),
        ));
        let b = Arc::new(PutBatch::from(vec![kv("d", 1, "b")]));
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
