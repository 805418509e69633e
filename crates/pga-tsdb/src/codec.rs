//! Binary row-key and cell encoding — OpenTSDB's key design, including the
//! salt byte.
//!
//! §III-A: "the key is generated from a binary encoding of the metric,
//! timestamp, and tag values"; §III-B: "the binary key encodings were
//! salted with an additional uniformly randomly generated byte at the
//! beginning to create unique keys for chronological data values" (we use
//! the deterministic variant modern OpenTSDB adopted: a hash of the series
//! identity modulo the bucket count, which routes *all* points of one
//! series to one bucket while spreading series uniformly).
//!
//! Layout of a row key:
//!
//! ```text
//! [ salt:1 ][ metric uid:3 ][ base_time:4 ][ tagk uid:3 tagv uid:3 ]*
//! ```
//!
//! `base_time` is the timestamp rounded down to the row span (1 hour, like
//! OpenTSDB); the qualifier stores the offset within the row.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use pga_minibase::{ColumnRange, RowRange, RowWords, ScanSpec};

use crate::block::BLOCK_QUALIFIER;
use crate::query::QueryFilter;
use crate::series::{Series, SeriesTable};
use crate::uid::{Uid, UidKind, UidTable};

/// `(metric, sorted tags, row base time)` decoded from a row key.
pub type DecodedRow = (String, Vec<(String, String)>, u64);

/// Codec configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyCodecConfig {
    /// Number of salt buckets; **0 disables salting** (the paper's "before"
    /// configuration that hotspots one region server).
    pub salt_buckets: u8,
    /// Seconds of data per row (OpenTSDB uses 3600), `1..=65_535`: the
    /// qualifier holds the offset in two bytes, and `0xFFFF` is the
    /// compacted-column marker, not an offset.
    pub row_span_secs: u64,
}

impl Default for KeyCodecConfig {
    fn default() -> Self {
        KeyCodecConfig {
            salt_buckets: 20,
            row_span_secs: 3600,
        }
    }
}

/// Encoder/decoder for TSDB rows and cells.
///
/// ```
/// use pga_tsdb::{KeyCodec, KeyCodecConfig, UidTable};
///
/// let codec = KeyCodec::new(KeyCodecConfig::default(), UidTable::new());
/// let tags = [("unit", "80"), ("sensor", "7")];
/// let row = codec.row_key("energy", &tags, 7261);
/// let point = codec
///     .decode(&row, &codec.qualifier(7261), &codec.value(42.5))
///     .unwrap();
/// assert_eq!(point.timestamp, 7261);
/// assert_eq!(point.value, 42.5);
/// ```
#[derive(Clone)]
pub struct KeyCodec {
    config: KeyCodecConfig,
    uids: UidTable,
    /// Every series this codec (or a clone of it) has encoded or decoded.
    series: SeriesTable,
}

/// A decoded data point key.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPoint {
    /// Metric name.
    pub metric: String,
    /// Sorted `(tag key, tag value)` pairs.
    pub tags: Vec<(String, String)>,
    /// Absolute timestamp in seconds.
    pub timestamp: u64,
    /// Value.
    pub value: f64,
}

impl KeyCodec {
    /// Build a codec over a shared UID table.
    ///
    /// # Panics
    ///
    /// If `config.row_span_secs` is outside `1..=65_535`, the offsets a
    /// 2-byte qualifier can hold below the `0xFFFF` marker.
    pub fn new(config: KeyCodecConfig, uids: UidTable) -> Self {
        assert!(
            (1..=65_535).contains(&config.row_span_secs),
            "row span must be 1..=65_535 seconds"
        );
        KeyCodec {
            config,
            uids,
            series: SeriesTable::default(),
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &KeyCodecConfig {
        &self.config
    }

    /// Borrow the UID table.
    pub fn uids(&self) -> &UidTable {
        &self.uids
    }

    /// The series named `(metric, tags)`, tags in any order. First sight
    /// interns the names and builds the entry; afterwards this is one
    /// lookup on the borrowed strings, with no allocation.
    pub fn resolve(&self, metric: &str, tags: &[(&str, &str)]) -> Arc<Series> {
        self.series
            .resolve(metric, tags, || self.encode_series(metric, tags))
    }

    /// Whether `series` was resolved through this codec or a clone of it:
    /// only such an entry's id is valid for state kept by [`Series::id`].
    pub(crate) fn owns(&self, series: &Series) -> bool {
        self.series.owns(series)
    }

    /// The row-key encoder, run once per series: `(tags in row-key order,
    /// TSUID)`. Tags are sorted by key UID (OpenTSDB's canonical order)
    /// before encoding.
    fn encode_series(&self, metric: &str, tags: &[(&str, &str)]) -> (Vec<(String, String)>, Bytes) {
        let metric_uid = self.uids.get_or_create(UidKind::Metric, metric);
        let mut tag_uids: Vec<(Uid, Uid, &str, &str)> = tags
            .iter()
            .map(|&(k, v)| {
                let key = self.uids.get_or_create(UidKind::TagKey, k);
                (key, self.uids.get_or_create(UidKind::TagValue, v), k, v)
            })
            .collect();
        tag_uids.sort();
        let mut key = BytesMut::with_capacity(1 + 3 + 4 + tag_uids.len() * 6);
        // Salt placeholder; filled after the identity bytes are known.
        key.put_u8(0);
        key.put_slice(&metric_uid.0);
        key.put_u32(0); // base time: blank in the TSUID
        for (k, v, ..) in &tag_uids {
            key.put_slice(&k.0);
            key.put_slice(&v.0);
        }
        if self.config.salt_buckets > 0 {
            // Salt = hash(series identity) % buckets. The timestamp is
            // EXCLUDED so one series stays in one bucket; distinct series
            // spread uniformly. (Identity = metric + tags.)
            let mut h = 0xcbf29ce484222325u64; // FNV-1a
            for &b in key[1..4].iter().chain(key[8..].iter()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            key[0] = (h % self.config.salt_buckets as u64) as u8;
        }
        let tags = tag_uids
            .iter()
            .map(|&(_, _, k, v)| (k.to_string(), v.to_string()))
            .collect();
        (tags, key.freeze())
    }

    /// The row of `series` that holds `timestamp`: its TSUID with the row
    /// base time filled in.
    pub fn row_of(&self, series: &Series, timestamp: u64) -> Bytes {
        let base = timestamp - timestamp % self.config.row_span_secs;
        let tsuid = series.tsuid();
        tsuid[..4]
            .iter()
            .chain(&(base as u32).to_be_bytes())
            .chain(&tsuid[8..])
            .copied()
            .collect()
    }

    /// Encode the row key for `(metric, tags, timestamp)`, tags in any
    /// order. `timestamp` must not exceed [`KeyCodec::max_timestamp`].
    pub fn row_key(&self, metric: &str, tags: &[(&str, &str)], timestamp: u64) -> Bytes {
        self.row_of(&self.resolve(metric, tags), timestamp)
    }

    /// The most tags a row key can hold: a key is 8 bytes and 6 a tag, and
    /// the storage layer logs keys of at most
    /// [`pga_minibase::MAX_KEY_LEN`] bytes.
    pub fn max_tags() -> usize {
        (pga_minibase::MAX_KEY_LEN - 8) / 6
    }

    /// The last timestamp a row key can hold. The base time is four bytes
    /// and a scan names the row after its last one, so the last row is the
    /// one before the last base time that fits.
    pub fn max_timestamp(&self) -> u64 {
        let span = self.config.row_span_secs;
        u32::MAX as u64 / span * span - 1
    }

    /// Series seen so far — by a write through this codec or a clone, or
    /// by a read that found their rows in the store.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// The series of each of `ids`, appended to `out` in order; false if
    /// some id names no series of this codec's table.
    pub(crate) fn series_by_ids(&self, ids: &[u32], out: &mut Vec<Arc<Series>>) -> bool {
        self.series.by_ids(ids, out)
    }

    /// The series and row base time of a row key. A row this process never
    /// wrote is decoded by UID ([`KeyCodec::decode_row`]) and interned;
    /// `None` if it is malformed or names an unknown UID.
    pub fn series_of_row(&self, row: &[u8]) -> Option<(Arc<Series>, u64)> {
        let base = u32::from_be_bytes(row.get(4..8)?.try_into().ok()?) as u64;
        if let Some(series) = self.series.of_row(row) {
            return Some((series, base));
        }
        let (metric, tags, _) = self.decode_row(row)?;
        let refs: Vec<(&str, &str)> = tags.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        Some((self.resolve(&metric, &refs), base))
    }

    /// Qualifier: 2 bytes of offset-within-row in seconds (OpenTSDB packs
    /// flags in the low nibble; all our values are 8-byte floats, so the
    /// flags are constant and omitted).
    pub fn qualifier(&self, timestamp: u64) -> Bytes {
        Bytes::copy_from_slice(&self.qualifier_bytes(timestamp))
    }

    /// [`KeyCodec::qualifier`]'s bytes, unallocated: a put copies them
    /// into its batch.
    pub fn qualifier_bytes(&self, timestamp: u64) -> [u8; 2] {
        ((timestamp % self.config.row_span_secs) as u16).to_be_bytes()
    }

    /// Value encoding: big-endian IEEE-754 double.
    pub fn value(&self, v: f64) -> Bytes {
        Bytes::copy_from_slice(&self.value_bytes(v))
    }

    /// [`KeyCodec::value`]'s bytes, unallocated.
    pub fn value_bytes(&self, v: f64) -> [u8; 8] {
        v.to_be_bytes()
    }

    /// Decode just a row key into `(metric, tags, base_time)`. Returns
    /// `None` if the row is malformed or a UID is unknown. Readers of
    /// non-raw cells (the rollup tiers in `pga-query`, whose qualifiers
    /// are wider than the 2-byte raw form) share the key layout through
    /// this instead of re-implementing it.
    pub fn decode_row(&self, row: &[u8]) -> Option<DecodedRow> {
        if row.len() < 8 || !(row.len() - 8).is_multiple_of(6) {
            return None;
        }
        let metric_uid = Uid([row[1], row[2], row[3]]);
        let metric = self.uids.resolve(UidKind::Metric, metric_uid)?;
        let base = u32::from_be_bytes([row[4], row[5], row[6], row[7]]) as u64;
        let mut tags = Vec::new();
        let mut i = 8;
        while i + 6 <= row.len() {
            let k = self
                .uids
                .resolve(UidKind::TagKey, Uid([row[i], row[i + 1], row[i + 2]]))?;
            let v = self
                .uids
                .resolve(UidKind::TagValue, Uid([row[i + 3], row[i + 4], row[i + 5]]))?;
            tags.push((k, v));
            i += 6;
        }
        Some((metric, tags, base))
    }

    /// Decode a `(row, qualifier, value)` triple back into a point.
    /// Returns `None` if the row is malformed or a UID is unknown.
    pub fn decode(&self, row: &[u8], qualifier: &[u8], value: &[u8]) -> Option<DecodedPoint> {
        if qualifier.len() != 2 || value.len() != 8 {
            return None;
        }
        let (metric, tags, base) = self.decode_row(row)?;
        let offset = u16::from_be_bytes([qualifier[0], qualifier[1]]) as u64;
        let mut v8 = [0u8; 8];
        v8.copy_from_slice(value);
        Some(DecodedPoint {
            metric,
            tags,
            timestamp: base + offset,
            value: f64::from_be_bytes(v8),
        })
    }

    /// Scan boundaries for one salt bucket of one metric over
    /// `[start, end]`: `(start_row, end_row_exclusive)`, whole row-spans.
    pub fn scan_range(&self, salt: u8, metric: &str, start: u64, end: u64) -> (Bytes, Bytes) {
        let metric_uid = match self.uids.lookup(UidKind::Metric, metric) {
            Some(u) => u,
            None => return (Bytes::new(), Bytes::new()),
        };
        let span = self.config.row_span_secs;
        let base_start = start - start % span;
        let base_end = end - end % span + span; // exclusive
        (
            row_prefix(salt, metric_uid, base_start),
            row_prefix(salt, metric_uid, base_end),
        )
    }

    /// The scans that read exactly `[start, end]` of one metric from one
    /// salt bucket, in row order — at most three. A first row-span entered
    /// part-way is read through the column window `[offset(start), span)`,
    /// a last one left part-way through `[0, offset(end)]` (one window
    /// when both are the same row), and the row-spans between as whole
    /// rows. Nothing to scan (an empty vector) for a metric the UID table
    /// has never seen or an empty range.
    pub fn scan_segments(&self, salt: u8, metric: &str, start: u64, end: u64) -> Vec<ScanSpec> {
        let Some(uid) = self.uids.lookup(UidKind::Metric, metric) else {
            return Vec::new();
        };
        let span = self.config.row_span_secs;
        let end = end.min(self.max_timestamp());
        if start > end {
            return Vec::new();
        }
        let rows = |from, to| RowRange::new(row_prefix(salt, uid, from), row_prefix(salt, uid, to));
        let window =
            |base, lo, hi| ScanSpec::windowed(rows(base, base + span), column_window(lo, hi));
        let (first, last) = (start - start % span, end - end % span);
        let (lo, hi) = (start % span, end % span);
        let (partial_head, partial_tail) = (lo > 0, hi < span - 1);
        if first == last && partial_head && partial_tail {
            return vec![window(first, lo, hi)];
        }
        let mut segments = Vec::with_capacity(3);
        if partial_head {
            segments.push(window(first, lo, span - 1));
        }
        let whole_from = first + if partial_head { span } else { 0 };
        let whole_to = last + if partial_tail { 0 } else { span };
        if whole_from < whole_to {
            segments.push(rows(whole_from, whole_to).into());
        }
        if partial_tail {
            segments.push(window(last, 0, hi));
        }
        segments
    }

    /// The row-key words every row of a series `filter` accepts holds: one
    /// `tagk uid ++ tagv uid` word per required pair, aligned after the
    /// salt, metric and base time. The pairs of a row are whole words
    /// there and UIDs are unique, so a scan that keeps only rows holding
    /// every word drops no row of a matching series. Names are looked up,
    /// never interned: `None` when one has no UID, so that no series can
    /// match. An unconstrained filter gives no words.
    pub fn row_words(&self, filter: &QueryFilter) -> Option<RowWords> {
        let mut words = Vec::with_capacity(filter.tags.len());
        for (k, v) in &filter.tags {
            let k = self.uids.lookup(UidKind::TagKey, k)?;
            let v = self.uids.lookup(UidKind::TagValue, v)?;
            words.push([k.0, v.0].concat());
        }
        Some(RowWords::new(ROW_PREFIX_LEN, TAG_PAIR_LEN, words))
    }

    /// Salt buckets to scan (always at least bucket 0).
    pub fn salt_range(&self) -> std::ops::Range<u8> {
        0..self.config.salt_buckets.max(1)
    }

    /// Table pre-split points aligned with the salt buckets, so each bucket
    /// (and therefore an equal share of series) lands in its own region —
    /// the paper's "manually split" regions (§III-B). Returns `buckets - 1`
    /// single-byte boundaries; with salting disabled there is nothing to
    /// split on and the vector is empty.
    pub fn split_points(&self) -> Vec<Bytes> {
        (1..self.config.salt_buckets)
            .map(|b| Bytes::copy_from_slice(&[b]))
            .collect()
    }
}

/// Bytes of `[salt][metric uid][base time]`, before a row key's tag pairs.
const ROW_PREFIX_LEN: usize = 8;
/// Bytes of one `[tagk uid][tagv uid]` pair.
const TAG_PAIR_LEN: usize = 6;

/// `[salt][metric uid][base time]`: the least row key of a row-span.
fn row_prefix(salt: u8, metric: Uid, base: u64) -> Bytes {
    let mut key = BytesMut::with_capacity(8);
    key.put_u8(salt);
    key.put_slice(&metric.0);
    key.put_u32(base as u32);
    key.freeze()
}

/// The column window for offsets `[lo, hi]` of a row: the big-endian
/// offset range — which by prefix order also takes the 4-byte
/// `[offset][writer][gen]` rollup qualifiers of the shadow metrics — plus
/// every sealed block, because a block cell holds its whole row and must
/// come back for any window that overlaps the row. (The `0xFFFF` blob of
/// write-path compaction lies outside both ranges; every reader skips it.)
fn column_window(lo: u64, hi: u64) -> Vec<ColumnRange> {
    // A span is at most 65 535 s, so `hi + 1` is at most the blob marker,
    // which is no offset.
    let offset = |o: u64| Bytes::copy_from_slice(&(o as u16).to_be_bytes());
    let [block, ..] = BLOCK_QUALIFIER;
    vec![
        ColumnRange::new(offset(lo), offset(hi + 1)),
        ColumnRange::new(vec![block], vec![block + 1]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec(buckets: u8) -> KeyCodec {
        KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: buckets,
                row_span_secs: 3600,
            },
            UidTable::new(),
        )
    }

    #[test]
    fn roundtrip_encode_decode() {
        let c = codec(20);
        let tags = [("unit", "42"), ("sensor", "917")];
        let row = c.row_key("energy", &tags, 7261);
        let qual = c.qualifier(7261);
        let val = c.value(123.456);
        let p = c.decode(&row, &qual, &val).unwrap();
        assert_eq!(p.metric, "energy");
        assert_eq!(p.timestamp, 7261);
        assert_eq!(p.value, 123.456);
        let mut expect_tags = vec![
            ("unit".to_string(), "42".to_string()),
            ("sensor".to_string(), "917".to_string()),
        ];
        expect_tags.sort();
        let mut got = p.tags.clone();
        got.sort();
        assert_eq!(got, expect_tags);
    }

    #[test]
    fn same_series_same_hour_shares_row() {
        let c = codec(20);
        let tags = [("unit", "1"), ("sensor", "2")];
        let r1 = c.row_key("energy", &tags, 3600);
        let r2 = c.row_key("energy", &tags, 7199);
        let r3 = c.row_key("energy", &tags, 7200);
        assert_eq!(r1, r2, "same hour, same row");
        assert_ne!(r1, r3, "next hour, new row");
    }

    #[test]
    fn tag_order_does_not_change_key() {
        let c = codec(20);
        let a = c.row_key("energy", &[("unit", "1"), ("sensor", "2")], 100);
        let b = c.row_key("energy", &[("sensor", "2"), ("unit", "1")], 100);
        assert_eq!(a, b);
    }

    #[test]
    fn salting_spreads_series_roughly_uniformly() {
        let c = codec(20);
        let mut counts = [0usize; 20];
        for unit in 0..100 {
            for sensor in 0..50 {
                let u = unit.to_string();
                let s = sensor.to_string();
                let row = c.row_key("energy", &[("unit", &u), ("sensor", &s)], 0);
                counts[row[0] as usize] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 5000);
        let expect = total / 20;
        for (b, &n) in counts.iter().enumerate() {
            assert!(
                n > expect / 2 && n < expect * 2,
                "bucket {b} badly skewed: {n} vs ~{expect}"
            );
        }
    }

    #[test]
    fn unsalted_keys_share_prefix_hotspot() {
        let c = codec(0);
        let tags = [("unit", "1"), ("sensor", "2")];
        let r = c.row_key("energy", &tags, 50);
        assert_eq!(r[0], 0, "salt byte is zero when disabled");
        // Every series starts with the same 4 bytes (salt + metric) and the
        // same base time: sequential writes are key-adjacent.
        let tags2 = [("unit", "1"), ("sensor", "3")];
        let r2 = c.row_key("energy", &tags2, 50);
        assert_eq!(&r[..8], &r2[..8]);
    }

    #[test]
    fn salt_stable_for_series_across_time() {
        let c = codec(20);
        let tags = [("unit", "7"), ("sensor", "9")];
        let s1 = c.row_key("energy", &tags, 0)[0];
        let s2 = c.row_key("energy", &tags, 86_400)[0];
        assert_eq!(s1, s2, "series must stay in one bucket over time");
    }

    #[test]
    fn scan_range_covers_requested_window() {
        let c = codec(4);
        let tags = [("unit", "1"), ("sensor", "1")];
        let row = c.row_key("energy", &tags, 5000);
        let salt = row[0];
        let (s, e) = c.scan_range(salt, "energy", 4000, 6000);
        assert!(row >= s && row < e, "row inside its scan range");
        // A row from the previous day is outside.
        let old = c.row_key("energy", &tags, 0);
        if old[0] == salt {
            assert!(old < s);
        }
    }

    /// `(first row base, exclusive last row base, offset window)`.
    type SegmentShape = (u32, u32, Option<(u16, u16)>);

    fn segment_shapes(c: &KeyCodec, start: u64, end: u64) -> Vec<SegmentShape> {
        let base = |row: &[u8]| u32::from_be_bytes([row[4], row[5], row[6], row[7]]);
        let offset = |q: &[u8]| u16::from_be_bytes([q[0], q[1]]);
        c.scan_segments(2, "energy", start, end)
            .iter()
            .map(|s| {
                assert_eq!((s.rows().start[0], s.rows().end[0]), (2, 2), "one salt");
                let window = s.columns().map(|cols| {
                    assert_eq!(cols.len(), 2, "offsets, then sealed blocks");
                    let (from, to) = (&cols[1].start[..], &cols[1].end[..]);
                    assert_eq!((from, to), (&[0xFB][..], &[0xFC][..]));
                    assert!(from <= &BLOCK_QUALIFIER[..] && &BLOCK_QUALIFIER[..] < to);
                    (offset(&cols[0].start), offset(&cols[0].end))
                });
                (base(&s.rows().start), base(&s.rows().end), window)
            })
            .collect()
    }

    #[test]
    fn scan_segments_window_partial_rows_and_leave_whole_ones_whole() {
        let c = codec(4);
        c.row_key("energy", &[("unit", "1")], 0);
        // Inside one row-hour: one window, inclusive of both ends.
        assert_eq!(
            segment_shapes(&c, 3700, 3749),
            [(3600, 7200, Some((100, 150)))]
        );
        assert_eq!(segment_shapes(&c, 5, 5), [(0, 3600, Some((5, 6)))]);
        // Straddling one seam: head to the end of its row, tail from 0.
        assert_eq!(
            segment_shapes(&c, 3590, 3639),
            [(0, 3600, Some((3590, 3600))), (3600, 7200, Some((0, 40)))]
        );
        // Head, whole middle hours, tail.
        assert_eq!(
            segment_shapes(&c, 100, 10_900),
            [
                (0, 3600, Some((100, 3600))),
                (3600, 10_800, None),
                (10_800, 14_400, Some((0, 101))),
            ]
        );
        // Aligned edges fold into the whole-row segment.
        assert_eq!(segment_shapes(&c, 0, 7199), [(0, 7200, None)]);
        assert_eq!(
            segment_shapes(&c, 0, 3700),
            [(0, 3600, None), (3600, 7200, Some((0, 101)))]
        );
        assert_eq!(
            segment_shapes(&c, 3599, 7199),
            [(0, 3600, Some((3599, 3600))), (3600, 7200, None)]
        );
        // Nothing to read: unknown metric, empty range.
        assert!(c.scan_segments(0, "nope", 0, 100).is_empty());
        assert!(c.scan_segments(0, "energy", 10, 9).is_empty());
        // A range past the last representable row stops there instead of
        // overflowing the four-byte base time.
        let last = segment_shapes(&c, 0, u64::MAX);
        assert_eq!(last, [(0, u32::MAX / 3600 * 3600, None)]);
    }

    #[test]
    fn row_words_select_exactly_the_rows_of_matching_series() {
        let c = codec(4);
        let rows: Vec<(Vec<(&str, &str)>, Bytes)> = [
            vec![("unit", "1"), ("sensor", "2")],
            vec![("sensor", "1"), ("unit", "2")],
            vec![("unit", "1"), ("sensor", "1"), ("site", "x")],
            vec![("sensor", "1")],
        ]
        .into_iter()
        .map(|tags| {
            let row = c.row_key("energy", &tags, 7261);
            (tags, row)
        })
        .collect();
        let filters = [
            QueryFilter::any(),
            QueryFilter::any().with("unit", "1"),
            QueryFilter::any().with("sensor", "1").with("unit", "1"),
            QueryFilter::any().with("site", "x"),
            QueryFilter::any().with("unit", "2").with("sensor", "2"),
        ];
        for filter in &filters {
            let words = c.row_words(filter).unwrap();
            assert_eq!(words.is_empty(), filter.tags.is_empty());
            for (tags, row) in &rows {
                let tags: std::collections::BTreeMap<String, String> =
                    tags.iter().map(|&(k, v)| (k.into(), v.into())).collect();
                assert_eq!(
                    words.matches(row),
                    filter.matches(&tags),
                    "{filter:?} {tags:?}"
                );
            }
        }
        // A name the table has never seen: no series can match.
        assert!(c
            .row_words(&QueryFilter::any().with("unit", "99"))
            .is_none());
        assert!(c.row_words(&QueryFilter::any().with("rack", "1")).is_none());
    }

    #[test]
    fn scan_range_unknown_metric_is_empty() {
        let c = codec(4);
        let (s, e) = c.scan_range(0, "nope", 0, 100);
        assert!(s.is_empty() && e.is_empty());
    }

    #[test]
    fn split_points_match_buckets() {
        assert_eq!(codec(20).split_points().len(), 19);
        assert_eq!(codec(0).split_points().len(), 0);
        let pts = codec(4).split_points();
        assert_eq!(
            pts,
            vec![
                Bytes::copy_from_slice(&[1]),
                Bytes::copy_from_slice(&[2]),
                Bytes::copy_from_slice(&[3]),
            ]
        );
    }

    #[test]
    fn decode_rejects_malformed() {
        let c = codec(4);
        assert!(c.decode(&[0; 3], &[0; 2], &[0; 8]).is_none());
        assert!(
            c.decode(&[0; 9], &[0; 2], &[0; 8]).is_none(),
            "bad tag block size"
        );
        let row = c.row_key("energy", &[("unit", "1")], 0);
        assert!(c.decode(&row, &[0; 1], &[0; 8]).is_none(), "bad qualifier");
        assert!(c.decode(&row, &[0; 2], &[0; 4]).is_none(), "bad value");
    }

    #[test]
    fn qualifier_encodes_offset_within_row() {
        let c = codec(4);
        assert_eq!(&c.qualifier(3600)[..], &0u16.to_be_bytes());
        assert_eq!(&c.qualifier(3661)[..], &61u16.to_be_bytes());
        for ts in 0..2 * 3600 {
            assert_eq!(c.qualifier_bytes(ts), c.qualifier(ts)[..]);
        }
    }
}
