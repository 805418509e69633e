//! In-memory sorted write buffer (the HBase MemStore analog).

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, HashMap};
use std::ops::{Bound, Range};
use std::sync::Arc;

use bytes::Bytes;

use crate::batch::{word, PutBatch, RunCells};
use crate::kv::{heap_size_of, ColumnRange, KeyValue, RowRange, RowWords};
use crate::scanner::ScanCells;
use crate::storefile::StoreFile;

/// Consecutive cells `start..end` of run `run` of kept batch `batch`, keys
/// ascending: a piece of one row's cells, with the word of its last
/// qualifier. (A batch holds fewer than 2^32 cells, and a memstore keeps
/// fewer than 2^32 batches.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    batch: u32,
    run: u32,
    start: u32,
    end: u32,
    /// [`word`] of the last cell's qualifier: it orders segments against
    /// a qualifier without reading the batch, unless the words are equal.
    last: u64,
}

impl Segment {
    /// Cells `cells` of `run`, run `r` of kept batch `b`.
    fn new(b: usize, r: usize, run: &RunCells, cells: Range<usize>) -> Self {
        Segment {
            batch: b as u32,
            run: r as u32,
            start: cells.start as u32,
            end: cells.end as u32,
            last: word(run.qualifier(cells.end - 1)),
        }
    }

    fn cells(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// The run the segment lies in, read by cell index.
    fn of(self, batches: &[Arc<PutBatch>]) -> RunCells<'_> {
        batches[self.batch as usize].run(self.run as usize)
    }

    /// Whether the segment's last key is below `key`.
    fn ends_below(self, batches: &[Arc<PutBatch>], key: (&[u8], Reverse<u64>)) -> bool {
        match self.last.cmp(&word(key.0)) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.of(batches).key(self.end as usize - 1) < key,
        }
    }

    /// Whether the segment's last qualifier is below `qualifier`.
    fn ends_before(self, batches: &[Arc<PutBatch>], qualifier: &[u8]) -> bool {
        match self.last.cmp(&word(qualifier)) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.of(batches).qualifier(self.end as usize - 1) < qualifier,
        }
    }
}

/// The first index of `cells` for which `below` is false, `below` being
/// true for a prefix of them ([`slice::partition_point`] over a range).
pub(crate) fn partition_point(cells: Range<usize>, below: impl Fn(usize) -> bool) -> usize {
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

/// A sorted in-memory buffer of recent writes. Writes land here (after the
/// WAL) and are served from here until a flush turns the contents into an
/// immutable [`StoreFile`].
///
/// The memstore keeps every [`PutBatch`] it is given whole, shared, and
/// indexes each row's cells as segments, each a run of consecutive cells
/// of one batch, the segments in key order one after the other. A batch
/// arrives as row runs, so a put looks its row up once per run — in a
/// hash index, one probe however many rows there are — and a time series
/// only ever appends to its row: a run whose keys ascend past the row's
/// last cell becomes one more segment, with no copy and no allocation per
/// cell. A back-fill or an exact-key rewrite (the later write wins, as in
/// HBase) splits the segment it lands in around the new cell; a replaced
/// cell stays in its batch, unread, until the flush, and counts towards it
/// ([`MemStore::held_size`]).
///
/// A scan answers with the segments themselves, as ranges of the shared
/// batches, so it makes and copies nothing per cell, and a held reply
/// reads the batches as they were (they never change once kept). The
/// flush copies each row's segments, by column, into one sorted batch.
#[derive(Debug, Default)]
pub struct MemStore {
    batches: Vec<Arc<PutBatch>>,
    /// Each row's segments, the rows in the order they were first written.
    rows: Vec<Vec<Segment>>,
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
    pub fn put_batch(&mut self, mut batch: PutBatch) {
        let held = self.adopt(&mut batch);
        self.insert(Arc::new(batch), &held);
    }

    /// Make each run's row key the memstore's own where it holds the row
    /// already, so a row's cells share one key however many buffers the
    /// writers sent it in. It is done before a batch is shared (the
    /// write-ahead log keeps the same batch), and it changes nothing here:
    /// a batch that is then not kept (a ship the log refuses) leaves no
    /// trace. Answers the place of each run's row, where it is held.
    pub(crate) fn adopt(&self, batch: &mut PutBatch) -> Vec<Option<usize>> {
        let runs = batch.runs.iter_mut();
        runs.map(|run| {
            let (key, &at) = self.index.get_key_value(&run.row[..])?;
            if key.as_ptr() != run.row.as_ptr() {
                run.row = key.clone();
            }
            Some(at)
        })
        .collect()
    }

    /// Keep `batch`, shared and unchanged from here on, and file its
    /// cells run by run, as [`MemStore::put_batch`] does. `held` is what
    /// [`MemStore::adopt`] answered for the batch, with nothing changed
    /// since (or empty: every row is looked up).
    pub(crate) fn insert(&mut self, batch: Arc<PutBatch>, held: &[Option<usize>]) {
        if batch.is_empty() {
            return;
        }
        let b = self.batches.len();
        self.batches.push(batch.clone());
        for (run, cells) in batch.runs.iter().enumerate() {
            let at = match held.get(run) {
                Some(&Some(at)) => at,
                _ => self.row_of(&cells.row),
            };
            self.index(b, run, at);
        }
    }

    /// The place of `row` in `rows`, made on its first write, when the
    /// row's key becomes the memstore's own.
    fn row_of(&mut self, row: &Bytes) -> usize {
        if let Some(&at) = self.index.get(&row[..]) {
            return at;
        }
        let at = self.rows.len();
        self.rows.push(Vec::new());
        self.index.insert(row.clone(), at);
        self.order.insert(row.clone(), at);
        at
    }

    /// File the cells of run `run` of kept batch `b` into the segments of
    /// row `at`.
    fn index(&mut self, b: usize, run: usize, at: usize) {
        let MemStore {
            batches,
            rows,
            cells: count,
            heap_size,
            dead,
            ..
        } = self;
        let batches = &*batches;
        let cells = batches[b].run(run);
        let (range, row_len) = (cells.cells(), cells.row().len());
        let segments = &mut rows[at];
        // In order: each key above the one before it, the first above the
        // row's last cell.
        let in_order = segments
            .last()
            .is_none_or(|s| s.ends_below(batches, cells.key(range.start)))
            && cells.ascending(range.clone());
        if in_order {
            let (qualifiers, values) = cells.bytes(range.clone());
            let n = range.len();
            segments.push(Segment::new(b, run, &cells, range));
            *count += n;
            *heap_size += n * heap_size_of(row_len, 0, 0) + qualifiers + values;
            return;
        }
        // Out of order (a back-fill, a retry): cell by cell, O(segments)
        // moves at worst.
        for i in range {
            let new = Segment::new(b, run, &cells, i..i + 1);
            let (k, value) = (cells.key(i), cells.value(i).len());
            // The first segment whose last key is not below `k`, and in it
            // the first cell whose key is not.
            let at = segments.partition_point(|s| s.ends_below(batches, k));
            let Some(&s) = segments.get(at) else {
                segments.push(new);
                *count += 1;
                *heap_size += heap_size_of(row_len, k.0.len(), value);
                continue;
            };
            let held = s.of(batches);
            let pos = partition_point(s.cells(), |j| held.key(j) < k);
            let replaces = held.key(pos) == k;
            let before = (pos > s.start as usize).then(|| {
                Segment::new(
                    s.batch as usize,
                    s.run as usize,
                    &held,
                    s.start as usize..pos,
                )
            });
            let after = Segment {
                start: (pos + usize::from(replaces)) as u32,
                ..s
            };
            let after = (after.start < after.end).then_some(after);
            let pieces = before.into_iter().chain([new]).chain(after);
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
    /// disjoint; `None` = the whole row), in order, as ranges of the kept
    /// batches. A row key is tested once, before any of its cells is read,
    /// and the scan seeks to each range's ends among the row's segments,
    /// so the cost is per row and per segment returned, not per cell
    /// stored or returned.
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
        for (_, &at) in accepted {
            let segments = &self.rows[at];
            let Some(columns) = columns else {
                for s in segments {
                    out.push(&self.batches[s.batch as usize], s.cells());
                }
                continue;
            };
            let mut rest = &segments[..];
            for c in columns {
                // Segments wholly below the range, found by their last
                // qualifiers, are skipped; in the first one that is not,
                // the range's start is sought, and cells are taken from
                // there until a segment reaches the range's end. A batch
                // is read only where a bound falls in it (or where a last
                // qualifier's word equals a bound's).
                let batches = &self.batches[..];
                rest = &rest[rest.partition_point(|s| s.ends_before(batches, &c.start))..];
                let below = |s: Segment, bound: &[u8], cells: Range<usize>| {
                    let run = s.of(batches);
                    partition_point(cells, |i| run.qualifier(i) < bound)
                };
                for (k, &s) in rest.iter().enumerate() {
                    let batch = &batches[s.batch as usize];
                    let from = match k {
                        0 => below(s, &c.start, s.cells()),
                        _ => s.start as usize,
                    };
                    if s.ends_before(batches, &c.end) {
                        out.push(batch, from..s.end as usize);
                        continue;
                    }
                    out.push(batch, from..below(s, &c.end, from..s.end as usize));
                    break;
                }
            }
        }
        out
    }

    /// Drain everything into a store file of `sequence`: one sorted batch,
    /// sized up front, filled row by row by copying each segment's
    /// columns, a byte range at a time. The batches, and the cells
    /// replaced in them, go after (a scan reply still holding one keeps
    /// reading it). The memstore is empty afterwards.
    pub fn drain(&mut self, sequence: u64) -> StoreFile {
        let MemStore {
            batches,
            rows,
            order,
            cells,
            ..
        } = std::mem::take(self);
        let (qualifiers, values) = rows.iter().flatten().fold((0, 0), |(q, v), s| {
            let (sq, sv) = s.of(&batches).bytes(s.cells());
            (q + sq, v + sv)
        });
        let mut out = PutBatch::with_capacity(order.len(), cells, qualifiers, values);
        // A live cell lies in exactly one segment: each is copied once.
        for (row, at) in order {
            out.open_run(&row, || row.clone());
            for &s in &rows[at] {
                out.push_cells(&batches[s.batch as usize], s.run as usize, s.cells());
            }
        }
        StoreFile::from_batch(out, sequence)
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
        let drained = m.drain(0);
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

    /// Segments are ordered by their last qualifier's first 8 bytes until
    /// two agree there; qualifiers that share those bytes, one segment
    /// each, are still selected as a filter over every cell selects them.
    #[test]
    fn windows_over_qualifiers_sharing_a_word_select_what_a_filter_does() {
        let mut m = MemStore::new();
        let q = |tail: u8| [&b"qualifie"[..], &[tail]].concat();
        for tail in (0..12u8).chain([b'x', b'y']) {
            m.put(KeyValue::new("row", q(tail), 1, vec![tail]));
        }
        m.put(KeyValue::new("row", "qualifier-z", 2, "z"));
        m.put(KeyValue::new("row", "qualifie", 3, "short"));
        let all = m.select(&RowRange::all(), None, None).to_vec();
        let windows = [
            (q(3), q(7)),
            (b"qualifie".to_vec(), q(1)),
            (q(11), b"qualifier-zz".to_vec()),
            (b"a".to_vec(), b"qualifie".to_vec()),
            (q(5), q(5)),
        ];
        for (start, end) in windows {
            let columns = [ColumnRange::new(start.clone(), end.clone())];
            let got = m.select(&RowRange::all(), Some(&columns), None).to_vec();
            let want: Vec<KeyValue> = all
                .iter()
                .filter(|kv| kv.qualifier[..] >= start[..] && kv.qualifier[..] < end[..])
                .cloned()
                .collect();
            assert_eq!(got, want, "{start:?}..{end:?}");
        }
    }

    #[test]
    fn drain_is_sorted() {
        let mut m = MemStore::new();
        m.put(kv("b", "y", 1, ""));
        m.put(kv("a", "z", 3, ""));
        m.put(kv("a", "z", 7, ""));
        m.put(kv("a", "a", 2, ""));
        let d: Vec<KeyValue> = m
            .drain(0)
            .scan(&RowRange::all())
            .map(|c| c.to_kv())
            .collect();
        let mut sorted = d.clone();
        sorted.sort();
        assert_eq!(d, sorted);
        assert_eq!(d[1].timestamp, 7, "newest version of a/z first");
    }
}
