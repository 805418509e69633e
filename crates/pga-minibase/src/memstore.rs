//! In-memory sorted write buffer (the HBase MemStore analog).

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::ops::{Bound, Range};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::batch::PutBatch;
use crate::kv::{heap_size_of, ColumnRange, KeyValue, RowRange, RowWords};
use crate::scanner::ScanCells;
use crate::storefile::StoreFile;

/// Consecutive cells `start..end` of kept batch `batch`, keys ascending: a
/// piece of one row's cells. (A batch holds fewer than 2^32 cells, and a
/// memstore keeps fewer than 2^32 batches.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    batch: u32,
    start: u32,
    end: u32,
}

impl Segment {
    fn cells(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// The key of cell `i` of `batch`: qualifier ascending, newest version
/// first.
fn key(batch: &PutBatch, i: usize) -> (&[u8], Reverse<u64>) {
    (&batch.qualifiers[i], Reverse(batch.versions[i]))
}

/// The first index of `cells` for which `below` is false, `below` being
/// true for a prefix of them ([`slice::partition_point`] over a range).
fn partition_point(cells: Range<usize>, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (cells.start, cells.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match below(mid) {
            true => lo = mid + 1,
            false => hi = mid,
        }
    }
    lo
}

/// One row: its cells as segments of the kept batches, in key order, and
/// the leading ones a scan has turned into shared cells.
#[derive(Debug, Default)]
struct Row {
    segments: Vec<Segment>,
    made: Mutex<Made>,
}

/// A row's leading cells as [`KeyValue`]s, in shared chunks a scan reply
/// can hold on to, and where the cells not yet made begin.
#[derive(Debug, Default)]
struct Made {
    chunks: Vec<Arc<Vec<KeyValue>>>,
    /// The first segment not wholly made, and a bound below which none
    /// of its cells is left to make.
    next: (usize, usize),
}

/// The cells of `segments` from `next` on ([`Made::next`]), by segment.
fn rest(
    next: (usize, usize),
    segments: &[Segment],
) -> impl Iterator<Item = (Segment, Range<usize>)> + '_ {
    let (first, at) = next;
    segments.iter().enumerate().skip(first).map(move |(k, &s)| {
        let start = match k == first {
            true => at.max(s.start as usize),
            false => s.start as usize,
        };
        (s, start..s.end as usize)
    })
}

impl Made {
    /// Make every cell of the row not made yet, as one more chunk.
    fn catch_up(&mut self, row: &Bytes, segments: &[Segment], batches: &[PutBatch]) {
        let new = rest(self.next, segments)
            .map(|(_, cells)| cells.len())
            .sum();
        let mut cells = Vec::with_capacity(new);
        for (s, range) in rest(self.next, segments) {
            let batch = &batches[s.batch as usize];
            cells.extend(range.map(|i| batch.to_kv(row, i)));
        }
        if let Some(last) = segments.last() {
            self.next = (segments.len() - 1, last.end as usize);
        }
        if !cells.is_empty() {
            self.chunks.push(Arc::new(cells));
        }
    }
}

/// A sorted in-memory buffer of recent writes. Writes land here (after the
/// WAL) and are served from here until a flush turns the contents into an
/// immutable [`StoreFile`].
///
/// The memstore keeps every [`PutBatch`] it is given whole and indexes
/// each row's cells as segments, each a run of consecutive cells of one
/// batch, the segments in key order one after the other. A batch arrives
/// as row runs, so a put looks its row up once per run — in a hash index,
/// one probe however many rows there are — and a time series only ever
/// appends to its row: a run whose keys ascend past the row's last cell
/// becomes one more segment, with no copy and no allocation per cell. A
/// back-fill or an exact-key rewrite (the later write wins, as in HBase)
/// splits the segment it lands in around the new cell; a replaced cell
/// stays in its batch, unread, until the flush, and counts towards it
/// ([`MemStore::held_size`]).
///
/// Cells become [`KeyValue`]s only when read: a scan turns the row's cells
/// it has not turned yet into one shared chunk of them, and answers with
/// ranges of the row's chunks, as a store file answers with ranges of its
/// cells. So each cell is made once, by the first scan or by the flush,
/// and a later scan copies nothing per cell. A back-fill into a row drops
/// its chunks (replies keep theirs).
#[derive(Debug, Default)]
pub struct MemStore {
    batches: Vec<PutBatch>,
    /// Each row, in the order the rows were first written.
    rows: Vec<Row>,
    /// Row key → its place in `rows`: the put path's one search per run.
    index: HashMap<Bytes, usize>,
    /// The row keys in order, with their places: what scans and flushes
    /// walk.
    order: BTreeMap<Bytes, usize>,
    cells: usize,
    heap_size: usize,
    /// The logical size of the replaced cells still in their batches.
    dead: usize,
}

impl MemStore {
    /// Empty memstore.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Insert one cell, as a batch of one.
    pub fn put(&mut self, kv: KeyValue) {
        self.put_batch(PutBatch::from(vec![kv]));
    }

    /// Insert a batch, run by run. A write to an existing `(row,
    /// qualifier, timestamp)` replaces the previous value (HBase
    /// semantics), so of two writes to one key the later wins. The row is
    /// looked up once per run.
    pub fn put_batch(&mut self, batch: PutBatch) {
        if batch.is_empty() {
            return;
        }
        let b = self.batches.len();
        self.batches.push(batch);
        let mut start = 0;
        for run in 0..self.batches[b].runs.len() {
            let end = self.batches[b].runs[run].1;
            self.index(b, run, start..end);
            start = end;
        }
    }

    /// File `cells`, all of run `run` of kept batch `b`, into their row's
    /// segments.
    fn index(&mut self, b: usize, run: usize, cells: Range<usize>) {
        let MemStore {
            batches,
            rows,
            index,
            order,
            cells: count,
            heap_size,
            dead,
        } = self;
        let batch = &batches[b];
        let row = &batch.runs[run].0;
        let row_len = row.len();
        let at = match index.get(&row[..]) {
            Some(&at) => at,
            None => {
                rows.push(Row::default());
                index.insert(row.clone(), rows.len() - 1);
                order.insert(row.clone(), rows.len() - 1);
                rows.len() - 1
            }
        };
        let Row { segments, made } = &mut rows[at];
        let last_key = |s: &Segment| key(&batches[s.batch as usize], s.end as usize - 1);
        // In order: each key above the one before it, the first above the
        // row's last cell.
        let in_order = segments
            .last()
            .is_none_or(|s| last_key(s) < key(batch, cells.start))
            && (cells.start + 1..cells.end).all(|i| key(batch, i - 1) < key(batch, i));
        if in_order {
            let qualifiers = &batch.qualifiers[cells.clone()];
            let qualifier_bytes: usize = qualifiers.iter().map(|q| q.len()).sum();
            let values: usize = cells.clone().map(|i| batch.value(i).len()).sum();
            let n = cells.len();
            segments.push(Segment {
                batch: b as u32,
                start: cells.start as u32,
                end: cells.end as u32,
            });
            *count += n;
            *heap_size += n * heap_size_of(row_len, 0, 0) + qualifier_bytes + values;
            return;
        }
        // Out of order (a back-fill, a retry): cell by cell, O(segments)
        // moves at worst. The made cells no longer lead the row in order.
        *made.get_mut() = Made::default();
        for i in cells {
            let new = Segment {
                batch: b as u32,
                start: i as u32,
                end: i as u32 + 1,
            };
            let (k, value) = (key(batch, i), batch.value(i).len());
            // The first segment whose last key is not below `k`, and in it
            // the first cell whose key is not.
            let at = segments.partition_point(|s| last_key(s) < k);
            let Some(&s) = segments.get(at) else {
                segments.push(new);
                *count += 1;
                *heap_size += heap_size_of(row_len, k.0.len(), value);
                continue;
            };
            let held = &batches[s.batch as usize];
            let pos = partition_point(s.cells(), |j| key(held, j) < k);
            let replaces = key(held, pos) == k;
            let before = Segment {
                end: pos as u32,
                ..s
            };
            let after = Segment {
                start: (pos + usize::from(replaces)) as u32,
                ..s
            };
            let pieces = [before, new, after].into_iter().filter(|p| p.start < p.end);
            segments.splice(at..=at, pieces);
            if replaces {
                // Keys are equal, so the replaced cell was accounted at
                // the new one's size but for its value: only a change of
                // value length moves `heap_size`. The replaced cell stays
                // in its batch until the flush.
                let old = held.value(pos).len();
                *heap_size = *heap_size + value - old;
                *dead += heap_size_of(row_len, k.0.len(), old);
            } else {
                *count += 1;
                *heap_size += heap_size_of(row_len, k.0.len(), value);
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

    /// Approximate heap footprint of the cells held, in bytes. A logical
    /// size — every cell counts its row key, its qualifier, its value and
    /// three buffer handles, as it will in a store file — so it does not
    /// depend on how the buffer is laid out.
    pub fn heap_size(&self) -> usize {
        self.heap_size
    }

    /// What drives the flush decision: [`MemStore::heap_size`] plus the
    /// logical size of every cell a later write replaced, which stays in
    /// its batch until the flush. So a write that only replaces cells (a
    /// retried put) still fills the memstore towards a flush, and with no
    /// rewrite a flush happens at the same cell as by `heap_size`.
    pub fn held_size(&self) -> usize {
        self.heap_size + self.dead
    }

    /// The cells of the rows in `rows` that `words` accepts (every row
    /// when `None`) whose qualifier lies in one of `columns` (sorted and
    /// disjoint; `None` = the whole row), in order, as ranges of the rows'
    /// shared chunks. A row key is tested once, before any of its cells is
    /// read; the row's cells not made yet are made, once; and the scan
    /// seeks to each range's ends among the chunks, so the cost is per
    /// row, per chunk and per cell made, not per cell stored or returned.
    pub fn select(
        &self,
        rows: &RowRange,
        columns: Option<&[ColumnRange]>,
        words: Option<&RowWords>,
    ) -> ScanCells {
        if !rows.end.is_empty() && rows.start >= rows.end {
            return ScanCells::default(); // an empty or inverted range
        }
        let start = match &rows.start[..] {
            [] => Bound::Unbounded,
            row => Bound::Included(row),
        };
        let end = match &rows.end[..] {
            [] => Bound::Unbounded,
            row => Bound::Excluded(row),
        };
        let mut out = ScanCells::default();
        let accepted = self
            .order
            .range::<[u8], _>((start, end))
            .filter(|(row, _)| words.is_none_or(|w| w.matches(row)));
        for (row, &at) in accepted {
            let Row { segments, made } = &self.rows[at];
            let mut made = made.lock();
            made.catch_up(row, segments, &self.batches);
            let Some(columns) = columns else {
                for chunk in &made.chunks {
                    out.push(chunk, 0..chunk.len());
                }
                continue;
            };
            let mut rest = &made.chunks[..];
            for c in columns {
                // Chunks wholly below the range, found by their last
                // qualifier, are skipped; from the first one that is not,
                // cells are taken until one reaches the range's end.
                let below = |kv: &KeyValue| kv.qualifier[..] < c.start[..];
                rest = &rest[rest.partition_point(|chunk| chunk.last().is_some_and(below))..];
                for chunk in rest {
                    let from = chunk.partition_point(below);
                    let to =
                        from + chunk[from..].partition_point(|kv| kv.qualifier[..] < c.end[..]);
                    out.push(chunk, from..to);
                    if to < chunk.len() {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Drain everything into a store file of `sequence`, its row index
    /// built in the same walk over the rows that gathers their cells: the
    /// made ones moved out of their chunks (copied from a chunk a reply
    /// still holds), the rest made now, each moving its qualifier out of
    /// its batch. The batches, and the cells
    /// replaced in them, go after. The memstore is empty afterwards.
    pub fn drain(&mut self, sequence: u64) -> StoreFile {
        let mut cells = Vec::with_capacity(self.cells);
        let mut index = Vec::with_capacity(self.order.len());
        let MemStore {
            mut batches,
            mut rows,
            order,
            ..
        } = std::mem::take(self);
        // A live cell lies in exactly one segment: its qualifier is taken
        // once.
        let mut qualifiers: Vec<Vec<Option<Bytes>>> = batches
            .iter_mut()
            .map(|b| {
                std::mem::take(&mut b.qualifiers)
                    .into_iter()
                    .map(Some)
                    .collect()
            })
            .collect();
        for (row, at) in order {
            let Row { segments, made } = std::mem::take(&mut rows[at]);
            index.push((cells.len(), row.clone()));
            let Made { chunks, next } = made.into_inner();
            for chunk in chunks {
                match Arc::try_unwrap(chunk) {
                    Ok(owned) => cells.extend(owned),
                    Err(shared) => cells.extend_from_slice(&shared),
                }
            }
            for (s, range) in rest(next, &segments) {
                let b = s.batch as usize;
                let (batch, qualifiers) = (&batches[b], &mut qualifiers[b]);
                cells.extend(range.map(|i| KeyValue {
                    row: row.clone(),
                    qualifier: {
                        let qualifier = qualifiers[i].take();
                        debug_assert!(qualifier.is_some(), "a cell in two segments");
                        qualifier.unwrap_or_default()
                    },
                    timestamp: batch.versions[i],
                    value: Bytes::copy_from_slice(batch.value(i)),
                }));
            }
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
        // A retry storm re-puts what is already held: the cells held do
        // not grow, but every replaced copy counts towards the flush.
        for _ in 0..1000 {
            m.put(kv("row", "b", 1, "value"));
        }
        assert_eq!((m.heap_size(), m.len()), (size, len));
        let cell = kv("row", "b", 1, "value").heap_size();
        assert_eq!(m.held_size(), size + 1000 * cell);
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
