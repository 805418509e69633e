//! The cell model: HBase-style `(row, qualifier, timestamp) → value`.

use bytes::Bytes;
use std::cmp::Ordering;

/// One cell. The implicit column family is OpenTSDB's single `t` family.
///
/// Ordering matches HBase: row ascending, qualifier ascending, timestamp
/// **descending** (newest first), so a scan naturally yields the most
/// recent version of a cell first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyValue {
    /// Row key (binary; for TSDB rows: salt + metric UID + base time + tags).
    pub row: Bytes,
    /// Column qualifier (for TSDB: encoded offset-in-row + flags).
    pub qualifier: Bytes,
    /// Version timestamp in milliseconds.
    pub timestamp: u64,
    /// Cell payload.
    pub value: Bytes,
}

impl KeyValue {
    /// Construct a cell from anything byte-like.
    pub fn new(
        row: impl Into<Bytes>,
        qualifier: impl Into<Bytes>,
        timestamp: u64,
        value: impl Into<Bytes>,
    ) -> Self {
        KeyValue {
            row: row.into(),
            qualifier: qualifier.into(),
            timestamp,
            value: value.into(),
        }
    }

    /// Approximate heap footprint, used for memstore flush accounting.
    pub fn heap_size(&self) -> usize {
        heap_size_of(self.row.len(), self.qualifier.len(), self.value.len())
    }
}

/// [`KeyValue::heap_size`] of a cell with these lengths: its bytes, its
/// timestamp and three buffer handles.
pub(crate) fn heap_size_of(row: usize, qualifier: usize, value: usize) -> usize {
    row + qualifier + value + 8 + 3 * 16
}

impl Ord for KeyValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.row
            .cmp(&other.row)
            .then_with(|| self.qualifier.cmp(&other.qualifier))
            .then_with(|| other.timestamp.cmp(&self.timestamp))
    }
}

impl PartialOrd for KeyValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A cell as a scan reply or a store file lends it: borrowed from the
/// batch columns that hold it, built where it is read and `Copy`. It
/// orders as [`KeyValue`] does; [`CellRef::to_kv`] is the owned copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRef<'a> {
    /// Row key.
    pub row: &'a Bytes,
    /// Column qualifier.
    pub qualifier: &'a [u8],
    /// Version timestamp in milliseconds.
    pub timestamp: u64,
    /// Cell payload.
    pub value: &'a [u8],
}

impl CellRef<'_> {
    /// The cell as an owned [`KeyValue`]: the qualifier and the value are
    /// copied into buffers of their own.
    pub fn to_kv(self) -> KeyValue {
        KeyValue {
            row: self.row.clone(),
            qualifier: Bytes::copy_from_slice(self.qualifier),
            timestamp: self.timestamp,
            value: Bytes::copy_from_slice(self.value),
        }
    }
}

impl CellRef<'_> {
    /// Do the two cells lie in one row? Cells of one run share their row
    /// handle, so that is one address comparison before the bytes.
    #[inline]
    pub fn same_row(&self, other: &CellRef<'_>) -> bool {
        std::ptr::eq(self.row, other.row) || self.row == other.row
    }
}

impl Ord for CellRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let rows = match std::ptr::eq(self.row, other.row) {
            true => Ordering::Equal,
            false => self.row.cmp(other.row),
        };
        rows.then_with(|| self.qualifier.cmp(other.qualifier))
            .then_with(|| other.timestamp.cmp(&self.timestamp))
    }
}

impl PartialOrd for CellRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a> From<&'a KeyValue> for CellRef<'a> {
    fn from(kv: &'a KeyValue) -> Self {
        CellRef {
            row: &kv.row,
            qualifier: &kv.qualifier,
            timestamp: kv.timestamp,
            value: &kv.value,
        }
    }
}

/// A half-open row range `[start, end)`; an empty `end` means unbounded
/// (HBase's convention for the last region).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRange {
    /// Inclusive start row; empty = from the beginning.
    pub start: Bytes,
    /// Exclusive end row; empty = to the end.
    pub end: Bytes,
}

impl RowRange {
    /// The full table.
    pub fn all() -> Self {
        RowRange {
            start: Bytes::new(),
            end: Bytes::new(),
        }
    }

    /// Range `[start, end)`.
    pub fn new(start: impl Into<Bytes>, end: impl Into<Bytes>) -> Self {
        RowRange {
            start: start.into(),
            end: end.into(),
        }
    }

    /// Does `row` fall inside this range?
    #[inline]
    pub fn contains(&self, row: &[u8]) -> bool {
        (self.start.is_empty() || row >= &self.start[..])
            && (self.end.is_empty() || row < &self.end[..])
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &RowRange) -> bool {
        let starts_before_other_ends =
            other.end.is_empty() || self.start.is_empty() || self.start < other.end;
        let other_starts_before_self_ends =
            self.end.is_empty() || other.start.is_empty() || other.start < self.end;
        starts_before_other_ends && other_starts_before_self_ends
    }
}

/// A half-open qualifier range `[start, end)` in byte order; `end <=
/// start` selects nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRange {
    /// Inclusive first qualifier.
    pub start: Bytes,
    /// Exclusive end qualifier.
    pub end: Bytes,
}

impl ColumnRange {
    /// Range `[start, end)`.
    pub fn new(start: impl Into<Bytes>, end: impl Into<Bytes>) -> Self {
        ColumnRange {
            start: start.into(),
            end: end.into(),
        }
    }
}

/// A row-key word filter: the row key after `skip` bytes, read as
/// `width`-byte words, must contain every listed word (HBase's
/// `FuzzyRowFilter` and OpenTSDB's tag-UID row regex do this job). Only
/// aligned words count: bytes that spell a word across a word boundary do
/// not, nor does a trailing partial word. A row shorter than `skip` holds
/// no words. With no words listed every row passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowWords {
    skip: usize,
    width: usize,
    /// The words, concatenated.
    words: Bytes,
}

impl RowWords {
    /// Rows whose key holds each of `words` (each `width` bytes long) as a
    /// word after the first `skip` bytes.
    pub fn new<W: AsRef<[u8]>>(
        skip: usize,
        width: usize,
        words: impl IntoIterator<Item = W>,
    ) -> Self {
        assert!(width > 0, "a row word is at least one byte");
        let mut all = Vec::new();
        for word in words {
            assert_eq!(
                word.as_ref().len(),
                width,
                "every row word is `width` bytes"
            );
            all.extend_from_slice(word.as_ref());
        }
        RowWords {
            skip,
            width,
            words: all.into(),
        }
    }

    /// True when no word is listed (every row passes).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Does `row` hold every word at a word boundary?
    pub fn matches(&self, row: &[u8]) -> bool {
        let tail = row.get(self.skip..).unwrap_or_default();
        self.words
            .chunks_exact(self.width)
            .all(|word| tail.chunks_exact(self.width).any(|w| w == word))
    }
}

/// What a scan reads: a row range and, optionally, a *column window* —
/// the qualifier ranges to return from each row (HBase's
/// `ColumnRangeFilter`) — and a [`RowWords`] filter on the row keys. A
/// region seeks to the window in every row rather than walking the row,
/// and tests the row key once before taking any of its cells, so a scan
/// costs what it returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSpec {
    rows: RowRange,
    /// `None` = whole rows. Otherwise sorted, non-empty and disjoint, so
    /// that visiting the ranges in order yields qualifiers in order.
    columns: Option<Vec<ColumnRange>>,
    /// `None` = every row of the range. Never an empty word list.
    words: Option<RowWords>,
}

impl ScanSpec {
    /// Only the cells of `rows` whose qualifier lies in one of `columns`
    /// (any order, overlaps allowed; no ranges selects nothing).
    pub fn windowed(rows: RowRange, mut columns: Vec<ColumnRange>) -> Self {
        columns.retain(|c| c.start < c.end);
        columns.sort_by(|a, b| a.start.cmp(&b.start));
        let mut disjoint: Vec<ColumnRange> = Vec::with_capacity(columns.len());
        for c in columns {
            match disjoint.last_mut() {
                Some(last) if c.start <= last.end => {
                    if c.end > last.end {
                        last.end = c.end;
                    }
                }
                _ => disjoint.push(c),
            }
        }
        ScanSpec {
            rows,
            columns: Some(disjoint),
            words: None,
        }
    }

    /// Only the rows whose key `words` accepts. An empty word list accepts
    /// every row and leaves the spec as it was.
    pub fn with_words(mut self, words: RowWords) -> Self {
        self.words = (!words.is_empty()).then_some(words);
        self
    }

    /// The rows scanned.
    pub fn rows(&self) -> &RowRange {
        &self.rows
    }

    /// The column window: `None` for whole rows, else sorted disjoint
    /// non-empty ranges.
    pub fn columns(&self) -> Option<&[ColumnRange]> {
        self.columns.as_deref()
    }

    /// The row-key filter: `None` for every row of the range.
    pub fn words(&self) -> Option<&RowWords> {
        self.words.as_ref()
    }
}

/// Every cell of every row in `rows`.
impl From<RowRange> for ScanSpec {
    fn from(rows: RowRange) -> Self {
        ScanSpec {
            rows,
            columns: None,
            words: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_window_is_normalised() {
        let r = |s: &[u8], e: &[u8]| ColumnRange::new(s.to_vec(), e.to_vec());
        let spec = ScanSpec::windowed(
            RowRange::all(),
            vec![
                r(b"m", b"p"),
                r(b"x", b"x"),
                r(b"a", b"c"),
                r(b"b", b"d"),
                r(b"d", b"e"),
            ],
        );
        // Sorted; the empty range dropped; overlapping and touching
        // ranges coalesced.
        assert_eq!(spec.columns(), Some(&[r(b"a", b"e"), r(b"m", b"p")][..]));
        assert_eq!(
            ScanSpec::windowed(RowRange::all(), vec![]).columns(),
            Some(&[][..])
        );
        assert_eq!(ScanSpec::from(RowRange::all()).columns(), None);
    }

    #[test]
    fn row_words_match_whole_aligned_words_only() {
        let ab = RowWords::new(1, 2, [b"ab"]);
        // At every aligned position, alone or repeated.
        for row in [&b"sab"[..], b"sxyab", b"sabxy", b"sabab"] {
            assert!(ab.matches(row), "{row:?}");
        }
        // Across a word boundary, inside the skipped prefix, as a partial
        // trailing word, or in a row shorter than the skip: no match.
        for row in [&b"sxaby"[..], b"abxy", b"sxya", b"s", b""] {
            assert!(!ab.matches(row), "{row:?}");
        }
        let both = RowWords::new(1, 2, [b"xy", b"ab"]);
        assert!(both.matches(b"sabxy") && both.matches(b"sxyab"));
        assert!(!both.matches(b"sabab"));
        // No words: every row passes, and the spec keeps no filter.
        let none = RowWords::new(1, 2, Vec::<Vec<u8>>::new());
        assert!(none.matches(b"") && none.matches(b"sxy"));
        let spec = ScanSpec::from(RowRange::all());
        assert_eq!(spec.clone().with_words(none), spec);
        assert_eq!(spec.with_words(ab.clone()).words(), Some(&ab));
    }

    fn kv(row: &str, qual: &str, ts: u64) -> KeyValue {
        KeyValue::new(
            row.as_bytes().to_vec(),
            qual.as_bytes().to_vec(),
            ts,
            vec![],
        )
    }

    #[test]
    fn ordering_is_row_qual_then_newest_first() {
        let a = kv("a", "q", 5);
        let b = kv("a", "q", 9);
        let c = kv("a", "r", 1);
        let d = kv("b", "a", 1);
        // Same row+qual: newer timestamp sorts first.
        assert!(b < a);
        // Qualifier breaks ties after row.
        assert!(a < c);
        // Row dominates.
        assert!(c < d);
    }

    #[test]
    fn range_contains_half_open() {
        let r = RowRange::new(b"b".to_vec(), b"d".to_vec());
        assert!(!r.contains(b"a"));
        assert!(r.contains(b"b"));
        assert!(r.contains(b"c"));
        assert!(!r.contains(b"d"));
    }

    #[test]
    fn unbounded_range_contains_everything() {
        let r = RowRange::all();
        assert!(r.contains(b""));
        assert!(r.contains(b"\xff\xff"));
    }

    #[test]
    fn last_region_style_range() {
        let r = RowRange::new(b"m".to_vec(), Bytes::new());
        assert!(!r.contains(b"l"));
        assert!(r.contains(b"m"));
        assert!(r.contains(b"\xff"));
    }

    #[test]
    fn overlap_detection() {
        let ab = RowRange::new(b"a".to_vec(), b"b".to_vec());
        let bc = RowRange::new(b"b".to_vec(), b"c".to_vec());
        let ac = RowRange::new(b"a".to_vec(), b"c".to_vec());
        assert!(
            !ab.overlaps(&bc),
            "half-open ranges do not overlap at the boundary"
        );
        assert!(ab.overlaps(&ac));
        assert!(ac.overlaps(&bc));
        assert!(RowRange::all().overlaps(&ab));
    }

    #[test]
    fn heap_size_tracks_payload() {
        let small = kv("r", "q", 0);
        let big = KeyValue::new(vec![0u8; 100], vec![0u8; 100], 0, vec![0u8; 1000]);
        assert!(big.heap_size() > small.heap_size() + 1000);
    }
}
