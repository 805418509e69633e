//! Write-time rollup maintenance: tiered pre-aggregates kept in MiniBase
//! rows alongside the raw data.
//!
//! Every acknowledged raw batch updates, per configured tier `t`, one open
//! accumulator per `(series, t-aligned bucket)`. When a later point moves a
//! series past its open bucket the bucket is **sealed** into a cell and
//! rides along with the TSD's next storage RPC (see
//! [`pga_tsdb::PutObserver`] — the observer only ever sees acked data, so a
//! shed or failed batch never contributes phantom aggregates).
//!
//! ## Storage layout
//!
//! Rollups reuse the raw row-key layout verbatim under a shadow metric name
//! `"\u{1}ru:<tier>:<metric>"` ([`tier_metric`]), so they salt, split and
//! route exactly like the raw series they summarise. The cell format
//! differs from raw cells:
//!
//! * **qualifier** (4 bytes): `[offset u16 BE][writer id u8][generation u8]`
//!   — `offset` is the bucket start within the row span. Raw readers skip
//!   these (qualifier length != 2), raw 2-byte qualifiers are skipped here.
//! * **value**: `[min f64][max f64][sum f64][count u64]` big-endian,
//!   followed by a presence bitmap with one bit per second of the bucket.
//! * **version timestamp**: `bucket_start * 1000 + count` — among cells
//!   with the same `(row, qualifier)` the one aggregating *more* points
//!   wins version resolution, so re-sealing after a retried batch is
//!   monotone. This is why tiers are capped at [`MAX_TIER_SECS`]: the
//!   count must stay below 1000 to fit the millisecond version space of
//!   one bucket.
//!
//! ## Multi-writer safety
//!
//! A reverse proxy may spread one series' batches across several TSDs, each
//! with its own [`RollupWriter`]. Writers never coordinate: each tags its
//! cells with `(writer id, generation)` and the per-second presence bitmap.
//! At read time cells of one bucket merge only if their bitmaps are
//! disjoint; any overlap means two writers both counted some second
//! (duplicate delivery after a retried batch) and the bucket is *tainted* —
//! the executor recomputes the affected window from raw data instead of
//! serving a double-counted aggregate.
//!
//! ## One merge rule
//!
//! A scan returns a row's cells in qualifier order, so the cells of one
//! bucket are adjacent and already in `(writer, generation)` order, the
//! newest version of each first. `BucketMerge` folds them in that order,
//! reading each value blob in place; the executor and the
//! [`RollupCompactor`] both merge through it.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use pga_minibase::KeyValue;
use pga_tsdb::uid::RESERVED_PREFIX;
use pga_tsdb::{KeyCodec, PutObserver, Series, SeriesPoint};

/// Largest allowed tier width in seconds. Bounded so a bucket's point
/// count (at one point per second per series) fits the `bucket * 1000`
/// millisecond version window — see the module docs on version resolution.
pub const MAX_TIER_SECS: u64 = 900;

/// Shadow metric name carrying tier `t` rollups of `metric`. The
/// [`RESERVED_PREFIX`] keeps these out of `/api/suggest`.
pub fn tier_metric(tier: u64, metric: &str) -> String {
    format!("{RESERVED_PREFIX}ru:{tier}:{metric}")
}

/// Inverse of [`tier_metric`]: `(tier, raw metric)` if `name` is a rollup
/// shadow metric.
pub fn parse_tier_metric(name: &str) -> Option<(u64, &str)> {
    let rest = name.strip_prefix(RESERVED_PREFIX)?.strip_prefix("ru:")?;
    let (tier, metric) = rest.split_once(':')?;
    Some((tier.parse().ok()?, metric))
}

/// Bytes in the presence bitmap of a `tier`-second bucket.
pub fn bitmap_len(tier: u64) -> usize {
    tier.div_ceil(8) as usize
}

/// Encode a rollup cell qualifier.
pub fn encode_qualifier(offset: u16, writer: u8, gen: u8) -> Bytes {
    let o = offset.to_be_bytes();
    Bytes::copy_from_slice(&[o[0], o[1], writer, gen])
}

/// Decode a rollup cell qualifier into `(offset, writer, generation)`.
pub fn decode_qualifier(q: &[u8]) -> Option<(u16, u8, u8)> {
    if q.len() != 4 {
        return None;
    }
    Some((u16::from_be_bytes([q[0], q[1]]), q[2], q[3]))
}

/// Encode a rollup cell value blob.
pub fn encode_value(min: f64, max: f64, sum: f64, count: u64, bitmap: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(32 + bitmap.len());
    v.extend_from_slice(&min.to_be_bytes());
    v.extend_from_slice(&max.to_be_bytes());
    v.extend_from_slice(&sum.to_be_bytes());
    v.extend_from_slice(&count.to_be_bytes());
    v.extend_from_slice(bitmap);
    Bytes::from(v)
}

/// A rollup value blob read in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellValue<'a> {
    /// Minimum of the bucket's points.
    pub min: f64,
    /// Maximum of the bucket's points.
    pub max: f64,
    /// Sum of the bucket's points, in arrival order.
    pub sum: f64,
    /// Number of points aggregated.
    pub count: u64,
    /// Presence bitmap, one bit per second of the bucket.
    pub bitmap: &'a [u8],
}

/// Read a rollup value blob of a `tier`-second bucket without copying it;
/// `None` when its length is not that tier's.
pub(crate) fn read_value(tier: u64, v: &[u8]) -> Option<CellValue<'_>> {
    if v.len() != 32 + bitmap_len(tier) {
        return None;
    }
    let (head, bitmap) = v.split_at(32);
    let word = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&head[i..i + 8]);
        u64::from_be_bytes(b)
    };
    Some(CellValue {
        min: f64::from_bits(word(0)),
        max: f64::from_bits(word(8)),
        sum: f64::from_bits(word(16)),
        count: word(24),
        bitmap,
    })
}

/// Decode a rollup value blob for a `tier`-second bucket.
pub fn decode_value(tier: u64, v: &[u8]) -> Option<(f64, f64, f64, u64, Vec<u8>)> {
    let c = read_value(tier, v)?;
    Some((c.min, c.max, c.sum, c.count, c.bitmap.to_vec()))
}

/// A decoded rollup cell: one writer's view of one `(series, bucket)`.
#[derive(Debug, Clone)]
pub struct RollupCell {
    /// The shadow-metric series the cell belongs to (its tags are the raw
    /// series' tags).
    pub series: Arc<Series>,
    /// Bucket start timestamp in seconds.
    pub bucket: u64,
    /// Writer id that sealed the cell.
    pub writer: u8,
    /// Seal generation (distinguishes re-opened buckets of one writer).
    pub gen: u8,
    /// Minimum of the bucket's points.
    pub min: f64,
    /// Maximum of the bucket's points.
    pub max: f64,
    /// Sum of the bucket's points, in arrival order.
    pub sum: f64,
    /// Number of points aggregated.
    pub count: u64,
    /// Presence bitmap, one bit per second of the bucket.
    pub bitmap: Vec<u8>,
}

/// Decoder for the scanned cells of one tier shadow metric. A scan returns
/// a row's cells together, so the series is resolved when the row changes
/// rather than for every cell.
pub struct CellDecoder<'a> {
    codec: &'a KeyCodec,
    tier: u64,
    /// The row last seen and the series and base time it resolved to
    /// (`None`: not decodable; no row is empty).
    row: Bytes,
    series: Option<(Arc<Series>, u64)>,
}

impl<'a> CellDecoder<'a> {
    /// A decoder for `tier`-second cells.
    pub fn new(codec: &'a KeyCodec, tier: u64) -> Self {
        CellDecoder {
            codec,
            tier,
            row: Bytes::new(),
            series: None,
        }
    }

    /// Decode one scanned cell. `None` for malformed cells and for
    /// raw-format (2-byte qualifier) strays.
    pub fn decode(&mut self, kv: &KeyValue) -> Option<RollupCell> {
        let (offset, writer, gen) = decode_qualifier(&kv.qualifier)?;
        let (min, max, sum, count, bitmap) = decode_value(self.tier, &kv.value)?;
        let (series, base) = self.row(&kv.row)?;
        Some(RollupCell {
            series: series.clone(),
            bucket: base + offset as u64,
            writer,
            gen,
            min,
            max,
            sum,
            count,
            bitmap,
        })
    }

    /// The series and base time of `row`, resolved only when the row
    /// differs from the last one asked about.
    pub(crate) fn row(&mut self, row: &Bytes) -> Option<(&Arc<Series>, u64)> {
        if self.row != *row {
            self.row = row.clone();
            self.series = self.codec.series_of_row(row);
        }
        self.series.as_ref().map(|(series, base)| (series, *base))
    }
}

/// Decode one scanned cell of a tier shadow metric on its own; a loop over
/// scanned cells keeps a [`CellDecoder`] instead.
pub fn decode_cell(codec: &KeyCodec, tier: u64, kv: &KeyValue) -> Option<RollupCell> {
    CellDecoder::new(codec, tier).decode(kv)
}

/// The read-time merge of every cell of one `(series, bucket)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergedBucket {
    /// Minimum across cells.
    pub min: f64,
    /// Maximum across cells.
    pub max: f64,
    /// Sum across cells, folded in `(writer, generation)` order.
    pub sum: f64,
    /// Total point count.
    pub count: u64,
    /// `true` when two cells claim the same second: some point was counted
    /// twice (duplicate delivery) and the aggregate cannot be trusted —
    /// recompute the window from raw data.
    pub tainted: bool,
}

/// The merge of one `(series, bucket)`, fed its cells one at a time in
/// `(writer, generation)` order — scan order within a row — so the
/// floating-point sum is the same however the writers' cells were
/// interleaved on the way in. One merge can be cleared
/// and reused for the next bucket; it keeps its bitmap buffer.
#[derive(Debug, Clone)]
pub(crate) struct BucketMerge {
    merged: MergedBucket,
    /// The union of the presence bitmaps folded so far.
    seen: Vec<u8>,
}

impl BucketMerge {
    const EMPTY: MergedBucket = MergedBucket {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
        count: 0,
        tainted: false,
    };

    /// An empty merge for `tier`-second buckets.
    pub fn new(tier: u64) -> Self {
        BucketMerge {
            merged: Self::EMPTY,
            seen: vec![0; bitmap_len(tier)],
        }
    }

    /// Empty the merge for the next bucket.
    pub fn clear(&mut self) {
        self.merged = Self::EMPTY;
        self.seen.fill(0);
    }

    /// Fold in the next cell. A bitmap of another tier's width taints the
    /// bucket and folds nothing.
    pub fn add(&mut self, cell: &CellValue<'_>) {
        let m = &mut self.merged;
        if cell.bitmap.len() != self.seen.len() {
            m.tainted = true; // mixed tier widths: malformed, recompute
            return;
        }
        for (s, b) in self.seen.iter_mut().zip(cell.bitmap) {
            m.tainted |= *s & *b != 0;
            *s |= *b;
        }
        m.min = m.min.min(cell.min);
        m.max = m.max.max(cell.max);
        m.sum += cell.sum;
        m.count += cell.count;
    }

    /// The merge so far.
    pub fn merged(&self) -> MergedBucket {
        self.merged
    }

    /// The union of the presence bitmaps folded so far.
    pub fn bitmap(&self) -> &[u8] {
        &self.seen
    }
}

/// Merge scanned cells of a tier shadow metric bucket by bucket, in one
/// pass, handing each `(series, bucket start, merge)` to `bucket` in scan
/// order.
///
/// Shard scans come back in storage order, which is checked the way
/// [`pga_minibase::concat_region_scans`] checks its seams and restored by
/// a sort only when broken. In that order a superseded version directly
/// follows the newest one, so it is skipped by comparing each cell with
/// the one before it; the cells of one `(series, bucket)` are adjacent and
/// in `(writer, generation)` merge order; and each series' buckets ascend.
/// Value blobs are read in place. Malformed cells, raw-format (2-byte
/// qualifier) strays and rows of unknown series are skipped.
pub fn fold_buckets(
    codec: &KeyCodec,
    tier: u64,
    cells: &mut [KeyValue],
    mut bucket: impl FnMut(&Arc<Series>, u64, &MergedBucket),
) {
    if !cells.windows(2).all(|pair| pair[0] <= pair[1]) {
        cells.sort();
    }
    let mut decoder = CellDecoder::new(codec, tier);
    let mut merge = BucketMerge::new(tier);
    // The bucket being merged: its row's series and its start.
    let mut open: Option<(Arc<Series>, u64)> = None;
    let mut prev: Option<&KeyValue> = None;
    for kv in cells.iter() {
        let superseded = prev.is_some_and(|p| p.row == kv.row && p.qualifier == kv.qualifier);
        prev = Some(kv);
        if superseded {
            continue;
        }
        let (Some((offset, _, _)), Some(value)) =
            (decode_qualifier(&kv.qualifier), read_value(tier, &kv.value))
        else {
            continue;
        };
        let Some((series, base)) = decoder.row(&kv.row) else {
            continue;
        };
        let start = base + offset as u64;
        let same = open
            .as_ref()
            .is_some_and(|(s, b)| *b == start && s.id() == series.id());
        if !same {
            let series = series.clone();
            if let Some((s, b)) = open.replace((series, start)) {
                bucket(&s, b, &merge.merged());
            }
            merge.clear();
        }
        merge.add(&value);
    }
    if let Some((s, b)) = open {
        bucket(&s, b, &merge.merged());
    }
}

/// Compaction-time canonicalizer for rollup shadow rows, chaining to an
/// inner rewriter (the block sealer) for everything else.
///
/// A bucket written by several TSDs carries one cell per `(writer,
/// generation)`. Once sealed they never change individually, so compaction
/// folds each bucket's cells into **one canonical cell** — through the
/// same `BucketMerge` the read path uses, applied once instead of on
/// every query. The canonical cell keeps the *first* `(writer, gen)`
/// qualifier in merge order, so a late straggler cell still folds against
/// it in the exact floating-point order the un-compacted read would have
/// used.
///
/// Buckets whose bitmaps overlap (tainted — a duplicate delivery) are left
/// **untouched**: collapsing them would OR the overlap away and hide the
/// taint from the executor's recompute-from-raw path.
pub struct RollupCompactor {
    codec: KeyCodec,
    inner: Option<pga_minibase::RewriterHandle>,
}

impl std::fmt::Debug for RollupCompactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollupCompactor")
            .field("chained", &self.inner.is_some())
            .finish()
    }
}

impl RollupCompactor {
    /// Build a canonicalizer. `inner` (usually the TSD's block sealer)
    /// handles every non-rollup row.
    pub fn new(codec: KeyCodec, inner: Option<pga_minibase::RewriterHandle>) -> Self {
        RollupCompactor { codec, inner }
    }
}

impl pga_minibase::CompactionRewriter for RollupCompactor {
    fn rewrite_row(
        &self,
        ctx: &pga_minibase::RewriteContext<'_>,
        cells: &[KeyValue],
    ) -> Option<Vec<KeyValue>> {
        let shadow = self
            .codec
            .series_of_row(ctx.row)
            .and_then(|(series, base)| {
                parse_tier_metric(series.metric()).map(|(tier, _)| (tier, base))
            });
        let Some((tier, base)) = shadow else {
            // Not a rollup shadow row: the chained rewriter decides.
            return self.inner.as_ref()?.rewrite_row(ctx, cells);
        };

        // The newest version of each qualifier, in qualifier order, so a
        // bucket's cells are adjacent and in merge order. Cells we cannot
        // parse pass through untouched.
        let mut out: Vec<KeyValue> = Vec::new();
        let mut valid: Vec<(u16, &KeyValue, CellValue<'_>)> = Vec::new();
        let mut last_qual: Option<&[u8]> = None;
        for cell in cells {
            if last_qual == Some(&cell.qualifier[..]) {
                continue; // superseded version
            }
            last_qual = Some(&cell.qualifier[..]);
            match (
                decode_qualifier(&cell.qualifier),
                read_value(tier, &cell.value),
            ) {
                (Some((offset, _, _)), Some(value)) => valid.push((offset, cell, value)),
                _ => out.push(cell.clone()),
            }
        }

        let mut changed = false;
        let mut merge = BucketMerge::new(tier);
        for group in valid.chunk_by(|a, b| a.0 == b.0) {
            let &[(offset, first, _), _, ..] = group else {
                out.extend(group.iter().map(|(_, kv, _)| (*kv).clone()));
                continue;
            };
            merge.clear();
            for (_, _, value) in group {
                merge.add(value);
            }
            let merged = merge.merged();
            if merged.tainted {
                // Keep the overlap visible: the executor must recompute.
                out.extend(group.iter().map(|(_, kv, _)| (*kv).clone()));
                continue;
            }
            out.push(KeyValue {
                row: first.row.clone(),
                qualifier: first.qualifier.clone(),
                timestamp: (base + offset as u64) * 1000 + merged.count,
                value: encode_value(
                    merged.min,
                    merged.max,
                    merged.sum,
                    merged.count,
                    merge.bitmap(),
                ),
            });
            changed = true;
        }
        changed.then_some(out)
    }
}

/// The accumulators of one bucket.
#[derive(Default)]
struct Bucket {
    start: u64,
    gen: u8,
    min: f64,
    max: f64,
    sum: f64,
    count: u64,
}

/// Write-side state of one `(series, tier)`.
#[derive(Default)]
struct TierState {
    /// The bucket opened last — kept after it is sealed, see `entered` —
    /// and whether it is open.
    bucket: Bucket,
    open: bool,
    /// Presence bitmap of `bucket`.
    bitmap: Vec<u8>,
    /// Shadow-metric row of the row-hour last opened, `(base time, key)`;
    /// `None` until the first bucket opens.
    row: Option<(u64, Bytes)>,
    /// Generations run per series and tier, across buckets.
    next_gen: u8,
    /// Generation of the first opening of `bucket` since the series
    /// entered it. A bucket that [`RollupWriter::flush`] keeps sealing and
    /// the next point re-opens takes a new generation each time; once
    /// `next_gen` is back at this one, one more would reuse the qualifier
    /// of the bucket's first cell and replace it. From then on a
    /// re-opening resumes the sealed bucket instead: same generation, same
    /// accumulators, and its next cell supersedes its last by version.
    entered: u8,
}

/// Write-path rollup maintainer: a [`PutObserver`] that accumulates every
/// acknowledged point into per-tier open buckets and emits sealed cells.
pub struct RollupWriter {
    codec: KeyCodec,
    tiers: Vec<u64>,
    writer_id: u8,
    /// `[series id][tier]`, flattened; grown as series appear.
    state: Mutex<Vec<TierState>>,
}

impl RollupWriter {
    /// Build a writer. `tiers` must be strictly ascending, each at most
    /// [`MAX_TIER_SECS`] and dividing the codec's row span (so a bucket
    /// never straddles two rows).
    pub fn new(codec: KeyCodec, tiers: Vec<u64>, writer_id: u8) -> Self {
        let span = codec.config().row_span_secs;
        assert!(!tiers.is_empty(), "at least one rollup tier required");
        for (i, &t) in tiers.iter().enumerate() {
            assert!(t > 0 && t <= MAX_TIER_SECS, "tier {t} out of range");
            assert!(
                span.is_multiple_of(t),
                "tier {t} must divide the row span {span}"
            );
            assert!(i == 0 || tiers[i - 1] < t, "tiers must be ascending");
        }
        RollupWriter {
            codec,
            tiers,
            writer_id,
            state: Mutex::new(Vec::new()),
        }
    }

    /// Configured tier widths, ascending.
    pub fn tiers(&self) -> &[u64] {
        &self.tiers
    }

    /// Seal the bucket of `state`, if open, into its cell.
    fn seal(&self, state: &mut TierState) -> Option<KeyValue> {
        let (_, row) = state.row.as_ref().filter(|_| state.open)?;
        state.open = false;
        let b = &state.bucket;
        let span = self.codec.config().row_span_secs;
        Some(KeyValue::new(
            row.clone(),
            encode_qualifier((b.start % span) as u16, self.writer_id, b.gen),
            b.start * 1000 + b.count,
            encode_value(b.min, b.max, b.sum, b.count, &state.bitmap),
        ))
    }

    /// The row of `series`' tier-`tier` shadow series that holds `bucket`.
    fn shadow_row(&self, series: &Series, tier: u64, bucket: u64) -> Bytes {
        let tags: Vec<(&str, &str)> = series
            .tags()
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        self.codec
            .row_key(&tier_metric(tier, series.metric()), &tags, bucket)
    }
}

impl PutObserver for RollupWriter {
    fn on_batch(&self, points: &[SeriesPoint]) -> Vec<KeyValue> {
        let span = self.codec.config().row_span_secs;
        let mut sealed = Vec::new();
        let mut states = self.state.lock();
        for (series, ts, value) in points {
            let (ts, value) = (*ts, *value);
            let first = series.id() as usize * self.tiers.len();
            if states.len() < first + self.tiers.len() {
                states.resize_with(first + self.tiers.len(), TierState::default);
            }
            for (&tier, state) in self.tiers.iter().zip(&mut states[first..]) {
                let bucket = ts - ts % tier;
                let bit = (ts - bucket) as usize;
                if !(state.open && state.bucket.start == bucket) {
                    if series.metric().starts_with(RESERVED_PREFIX) {
                        break; // never roll up a rollup
                    }
                    sealed.extend(self.seal(state));
                    let reopens = state.row.is_some() && state.bucket.start == bucket;
                    state.open = true;
                    // A fresh bucket under the next generation — unless this
                    // one has spent them all: then fall through and resume
                    // it where it was sealed.
                    if !reopens || state.next_gen != state.entered {
                        let base = bucket - bucket % span;
                        if state.row.as_ref().is_none_or(|&(open, _)| open != base) {
                            state.row = Some((base, self.shadow_row(series, tier, bucket)));
                        }
                        let gen = state.next_gen;
                        state.next_gen = gen.wrapping_add(1);
                        if !reopens {
                            state.entered = gen;
                        }
                        state.bitmap.clear();
                        state.bitmap.resize(bitmap_len(tier), 0);
                        state.bitmap[bit / 8] |= 1 << (bit % 8);
                        state.bucket = Bucket {
                            start: bucket,
                            gen,
                            min: value,
                            max: value,
                            sum: value,
                            count: 1,
                        };
                        continue;
                    }
                }
                if state.bitmap[bit / 8] & (1 << (bit % 8)) != 0 {
                    continue; // second already counted (duplicate)
                }
                state.bitmap[bit / 8] |= 1 << (bit % 8);
                let open = &mut state.bucket;
                open.min = open.min.min(value);
                open.max = open.max.max(value);
                open.sum += value;
                open.count += 1;
            }
        }
        sealed
    }

    /// Seals in series-id order, tier by tier.
    fn flush(&self) -> Vec<KeyValue> {
        let mut states = self.state.lock();
        states
            .iter_mut()
            .filter_map(|state| self.seal(state))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_tsdb::{KeyCodecConfig, UidTable};

    fn codec() -> KeyCodec {
        KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: 4,
                row_span_secs: 3600,
            },
            UidTable::new(),
        )
    }

    const TAGS: &[(&str, &str)] = &[("unit", "1"), ("sensor", "2")];

    /// `(timestamp, value)` points of `metric{TAGS}`, resolved as the TSD
    /// resolves a batch before its observer sees it.
    fn points(c: &KeyCodec, metric: &str, points: &[(u64, f64)]) -> Vec<SeriesPoint> {
        let resolve = |&(ts, value)| (c.resolve(metric, TAGS), ts, value);
        points.iter().map(resolve).collect()
    }

    #[test]
    fn tier_metric_roundtrip() {
        let name = tier_metric(60, "energy");
        assert!(name.starts_with(RESERVED_PREFIX));
        assert_eq!(parse_tier_metric(&name), Some((60, "energy")));
        assert_eq!(parse_tier_metric("energy"), None);
    }

    #[test]
    fn value_blob_roundtrip() {
        let bm = vec![0b1010_0001u8; bitmap_len(60)];
        let blob = encode_value(-1.5, 9.25, 30.0, 7, &bm);
        let (min, max, sum, count, bitmap) = decode_value(60, &blob).unwrap();
        assert_eq!((min, max, sum, count), (-1.5, 9.25, 30.0, 7));
        assert_eq!(bitmap, bm);
        assert!(decode_value(600, &blob).is_none(), "wrong tier length");
    }

    #[test]
    fn qualifier_roundtrip() {
        let q = encode_qualifier(3540, 3, 9);
        assert_eq!(q.len(), 4);
        assert_eq!(decode_qualifier(&q), Some((3540, 3, 9)));
        assert_eq!(decode_qualifier(&[0, 1]), None, "raw qualifiers rejected");
    }

    #[test]
    fn writer_seals_on_bucket_advance() {
        let c = codec();
        let w = RollupWriter::new(c.clone(), vec![60], 0);
        // Two points in bucket 0, then one in bucket 60 seals the first.
        assert!(w
            .on_batch(&points(&c, "energy", &[(10, 2.0), (20, 4.0)]))
            .is_empty());
        let sealed = w.on_batch(&points(&c, "energy", &[(61, 7.0)]));
        assert_eq!(sealed.len(), 1);
        let cell = decode_cell(&c, 60, &sealed[0]).unwrap();
        assert_eq!(cell.bucket, 0);
        assert_eq!(
            (cell.min, cell.max, cell.sum, cell.count),
            (2.0, 4.0, 6.0, 2)
        );
        assert_eq!(cell.writer, 0);
        // Bits 10 and 20 are set, nothing else.
        let ones: u32 = cell.bitmap.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 2);
        assert_ne!(cell.bitmap[10 / 8] & (1 << (10 % 8)), 0);
    }

    #[test]
    fn duplicate_second_is_counted_once() {
        let c = codec();
        let w = RollupWriter::new(c.clone(), vec![60], 0);
        w.on_batch(&points(&c, "energy", &[(5, 1.0), (5, 100.0)]));
        let sealed = w.flush();
        let cell = decode_cell(&c, 60, &sealed[0]).unwrap();
        assert_eq!(cell.count, 1, "same second must not double-count");
        assert_eq!(cell.sum, 1.0);
    }

    #[test]
    fn flush_seals_and_reopen_gets_fresh_generation() {
        let c = codec();
        let w = RollupWriter::new(c.clone(), vec![60], 2);
        w.on_batch(&points(&c, "energy", &[(5, 1.0)]));
        let first = w.flush();
        assert_eq!(first.len(), 1);
        assert!(w.flush().is_empty(), "nothing left open");
        // Same bucket again: different generation, distinct qualifier.
        w.on_batch(&points(&c, "energy", &[(6, 2.0)]));
        let second = w.flush();
        let a = decode_cell(&c, 60, &first[0]).unwrap();
        let b = decode_cell(&c, 60, &second[0]).unwrap();
        assert_eq!(a.bucket, b.bucket);
        assert_eq!((a.writer, b.writer), (2, 2));
        assert_ne!(a.gen, b.gen);
        assert_ne!(first[0].qualifier, second[0].qualifier);
    }

    #[test]
    fn rollup_metrics_are_never_rolled_up() {
        let c = codec();
        let w = RollupWriter::new(c.clone(), vec![60], 0);
        w.on_batch(&points(&c, &tier_metric(60, "energy"), &[(5, 1.0)]));
        assert!(w.flush().is_empty());
    }

    /// One bucket's cells merged in scan order.
    fn merge(cells: &[KeyValue]) -> MergedBucket {
        let mut sorted = cells.to_vec();
        sorted.sort();
        let mut merge = BucketMerge::new(60);
        for kv in &sorted {
            merge.add(&read_value(60, &kv.value).unwrap());
        }
        merge.merged()
    }

    #[test]
    fn merge_disjoint_cells_sums() {
        let c = codec();
        let a_writer = RollupWriter::new(c.clone(), vec![60], 0);
        let b_writer = RollupWriter::new(c.clone(), vec![60], 1);
        a_writer.on_batch(&points(&c, "energy", &[(1, 1.0), (3, 3.0)]));
        b_writer.on_batch(&points(&c, "energy", &[(2, 10.0)]));
        let cells: Vec<KeyValue> = b_writer
            .flush()
            .into_iter()
            .chain(a_writer.flush())
            .collect();
        let m = merge(&cells);
        assert!(!m.tainted);
        assert_eq!((m.min, m.max, m.sum, m.count), (1.0, 10.0, 14.0, 3));
    }

    #[test]
    fn merge_flags_overlapping_seconds_as_tainted() {
        let c = codec();
        let a_writer = RollupWriter::new(c.clone(), vec![60], 0);
        let b_writer = RollupWriter::new(c.clone(), vec![60], 1);
        // Both writers saw second 7 — a retried batch delivered twice.
        a_writer.on_batch(&points(&c, "energy", &[(7, 1.0)]));
        b_writer.on_batch(&points(&c, "energy", &[(7, 1.0)]));
        let cells: Vec<KeyValue> = a_writer
            .flush()
            .into_iter()
            .chain(b_writer.flush())
            .collect();
        assert!(merge(&cells).tainted);
        // A bitmap of another tier's width taints too, and folds nothing.
        let mut m = BucketMerge::new(60);
        m.add(&read_value(600, &encode_value(1.0, 1.0, 1.0, 1, &[0; 75])).unwrap());
        assert!(m.merged().tainted);
        assert_eq!(m.merged().count, 0);
    }

    #[test]
    fn read_value_reads_what_decode_value_copies() {
        let bm = vec![0b0100_0001u8; bitmap_len(60)];
        let blob = encode_value(-0.0, f64::MAX, 1e-300, u64::MAX, &bm);
        let v = read_value(60, &blob).unwrap();
        assert_eq!(
            Some((v.min, v.max, v.sum, v.count, v.bitmap.to_vec())),
            decode_value(60, &blob)
        );
        assert!(v.min.is_sign_negative());
        assert!(read_value(60, &blob[1..]).is_none());
    }

    #[test]
    fn version_timestamp_prefers_larger_count() {
        let c = codec();
        let w = RollupWriter::new(c.clone(), vec![60], 0);
        w.on_batch(&points(&c, "energy", &[(5, 1.0)]));
        let short = w.flush();
        w.on_batch(&points(&c, "energy", &[(6, 1.0), (7, 1.0)]));
        let long = w.flush();
        assert!(long[0].timestamp > short[0].timestamp);
    }

    fn compactor_ctx<'a>(row: &'a [u8]) -> pga_minibase::RewriteContext<'a> {
        pga_minibase::RewriteContext {
            region: pga_minibase::RegionId(1),
            row,
            drop_sealed_overlap: false,
        }
    }

    #[test]
    fn compactor_folds_disjoint_writers_into_one_cell() {
        let c = codec();
        let a_writer = RollupWriter::new(c.clone(), vec![60], 0);
        let b_writer = RollupWriter::new(c.clone(), vec![60], 1);
        a_writer.on_batch(&points(&c, "energy", &[(1, 1.0), (3, 3.0)]));
        b_writer.on_batch(&points(&c, "energy", &[(2, 10.0)]));
        let mut cells: Vec<KeyValue> = a_writer
            .flush()
            .into_iter()
            .chain(b_writer.flush())
            .collect();
        cells.sort();
        let row = cells[0].row.clone();
        let expected = merge(&cells);
        let compactor = RollupCompactor::new(c.clone(), None);
        use pga_minibase::CompactionRewriter;
        let out = compactor
            .rewrite_row(&compactor_ctx(&row), &cells)
            .expect("disjoint bucket must canonicalize");
        assert_eq!(out.len(), 1);
        let canon = decode_cell(&c, 60, &out[0]).unwrap();
        assert_eq!(
            (canon.min, canon.max, canon.sum, canon.count),
            (expected.min, expected.max, expected.sum, expected.count)
        );
        assert_eq!((canon.writer, canon.gen), (0, 0), "first in merge order");
        // The canonical cell alone merges to the same (untainted) result.
        assert_eq!(merge(&out), expected);
    }

    #[test]
    fn compactor_leaves_tainted_buckets_untouched() {
        let c = codec();
        let a_writer = RollupWriter::new(c.clone(), vec![60], 0);
        let b_writer = RollupWriter::new(c.clone(), vec![60], 1);
        a_writer.on_batch(&points(&c, "energy", &[(7, 1.0)]));
        b_writer.on_batch(&points(&c, "energy", &[(7, 1.0)]));
        let mut cells: Vec<KeyValue> = a_writer
            .flush()
            .into_iter()
            .chain(b_writer.flush())
            .collect();
        cells.sort();
        let row = cells[0].row.clone();
        let compactor = RollupCompactor::new(c.clone(), None);
        use pga_minibase::CompactionRewriter;
        assert!(
            compactor
                .rewrite_row(&compactor_ctx(&row), &cells)
                .is_none(),
            "overlap must stay visible so the executor recomputes"
        );
    }

    #[test]
    fn compactor_delegates_non_rollup_rows_to_inner() {
        let c = codec();
        let compactor = RollupCompactor::new(c.clone(), None);
        use pga_minibase::CompactionRewriter;
        // A raw-metric row with no inner rewriter: nothing to do.
        let refs: Vec<(&str, &str)> = TAGS.to_vec();
        let row = c.row_key("energy", &refs, 0);
        let kv = KeyValue::new(row.clone(), vec![0u8, 1], 1, 2.0f64.to_be_bytes().to_vec());
        assert!(compactor.rewrite_row(&compactor_ctx(&row), &[kv]).is_none());
    }

    #[test]
    #[should_panic(expected = "divide the row span")]
    fn tier_must_divide_row_span() {
        RollupWriter::new(codec(), vec![7], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tier_above_cap_rejected() {
        RollupWriter::new(codec(), vec![1800], 0);
    }
}
