//! Write-time rollup maintenance: tiered pre-aggregates kept in MiniBase
//! rows alongside the raw data.
//!
//! Every acknowledged raw batch updates, per configured tier `t`, one open
//! accumulator per `(series, t-aligned bucket)`. When a later point moves a
//! series past its open bucket the bucket is **sealed** into a cell, its
//! qualifier and value written straight into the columns of a
//! [`PutBatch`], and rides along with the TSD's next storage RPC (see
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
//! [`RollupCompactor`] both merge through it. The executor's fold
//! ([`fold_buckets`]) takes cells in storage scan order, as every scan
//! hands them over, and merges them in one pass, handing over each bucket
//! as it closes.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use pga_minibase::{CellRef, KeyValue, PutBatch, RowWriter, ScanCells};
use pga_tsdb::uid::RESERVED_PREFIX;
use pga_tsdb::{KeyCodec, PutObserver, Series, SeriesRuns};

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

/// A rollup cell qualifier's four bytes.
fn qualifier(offset: u16, writer: u8, gen: u8) -> [u8; 4] {
    let o = offset.to_be_bytes();
    [o[0], o[1], writer, gen]
}

/// Decode a rollup cell qualifier into `(offset, writer, generation)`.
pub fn decode_qualifier(q: &[u8]) -> Option<(u16, u8, u8)> {
    if q.len() != 4 {
        return None;
    }
    Some((u16::from_be_bytes([q[0], q[1]]), q[2], q[3]))
}

/// Append a rollup value blob to `out`.
fn write_value(out: &mut Vec<u8>, min: f64, max: f64, sum: f64, count: u64, bitmap: &[u8]) {
    for word in [min.to_bits(), max.to_bits(), sum.to_bits(), count] {
        out.extend_from_slice(&word.to_be_bytes());
    }
    out.extend_from_slice(bitmap);
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
    /// Seal generation (distinguishes the cells of one bucket a writer
    /// entered more than once).
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
/// pass, handing each `(series, bucket start, merge)` to `bucket` as the
/// bucket closes. The cells are read by reference, where the scan reply
/// holds them.
///
/// Cells must arrive in storage scan order (row ascending, qualifier
/// ascending, version descending), as shard scans return them: a
/// superseded version then directly follows the newest one and is skipped
/// by comparing each cell with the one before it, the cells of one
/// `(series, bucket)` are adjacent and in `(writer, generation)` merge
/// order, and each series' buckets ascend. Value blobs are read in place.
/// Malformed cells, raw-format (2-byte qualifier) strays and rows of
/// unknown series are skipped.
pub fn fold_buckets<'a, C: Into<CellRef<'a>>>(
    codec: &KeyCodec,
    tier: u64,
    cells: impl IntoIterator<Item = C>,
    mut bucket: impl FnMut(&Arc<Series>, u64, &MergedBucket),
) {
    let mut merge = BucketMerge::new(tier);
    // The bucket being merged: its row's series and its start.
    let mut open: Option<(Arc<Series>, u64)> = None;
    // The last cell, and its row's series and base time once a cell of
    // the row needed them (`None` inside: not decodable).
    let mut prev: Option<CellRef<'a>> = None;
    let mut row: Option<Option<(Arc<Series>, u64)>> = None;
    for kv in cells.into_iter().map(Into::into) {
        // (Cells of one row share its handle: the row bytes are compared
        // only where the handle changes.)
        let same_row = prev.is_some_and(|p| p.same_row(&kv));
        if same_row && prev.is_some_and(|p| p.qualifier == kv.qualifier) {
            continue; // an older version of the cell before
        }
        prev = Some(kv);
        if !same_row {
            row = None;
        }
        let (Some((offset, _, _)), Some(value)) =
            (decode_qualifier(kv.qualifier), read_value(tier, kv.value))
        else {
            continue;
        };
        let Some((series, base)) = row.get_or_insert_with(|| codec.series_of_row(kv.row)) else {
            continue;
        };
        let start = *base + offset as u64;
        let same = open
            .as_ref()
            .is_some_and(|(s, b)| *b == start && s.id() == series.id());
        if !same {
            if let Some((s, b)) = open.replace((series.clone(), start)) {
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
        cells: &ScanCells,
        out: &mut RowWriter<'_>,
    ) -> bool {
        let shadow = self
            .codec
            .series_of_row(ctx.row)
            .and_then(|(series, base)| {
                parse_tier_metric(series.metric()).map(|(tier, _)| (tier, base))
            });
        let Some((tier, base)) = shadow else {
            // Not a rollup shadow row: the chained rewriter decides.
            let inner = self.inner.as_ref();
            return inner.is_some_and(|inner| inner.rewrite_row(ctx, cells, out));
        };

        // The newest version of each qualifier, in order: a bucket's cells
        // are adjacent (but for cells we cannot parse) and in merge order.
        let mut last: Option<&[u8]> = None;
        let mut newest = cells
            .iter()
            .filter(move |cell| last.replace(cell.qualifier) != Some(cell.qualifier));
        let (mut merge, mut value) = (BucketMerge::new(tier), Vec::new());
        let mut changed = false;
        while let Some(first) = newest.next() {
            let Some((offset, cell)) = parse(tier, &first) else {
                out.copy(first);
                continue;
            };
            // The bucket's stretch: its cells up to the next bucket's.
            merge.clear();
            merge.add(&cell);
            let (mut len, mut valid) = (0, 1);
            for next in newest.clone() {
                match parse(tier, &next) {
                    Some((at, _)) if at != offset => break,
                    Some((_, cell)) => {
                        merge.add(&cell);
                        valid += 1;
                    }
                    None => {}
                }
                len += 1;
            }
            let stretch = newest.by_ref().take(len);
            let merged = merge.merged();
            if valid < 2 || merged.tainted {
                // One cell is canonical; a taint stays for a recompute.
                out.copy(first);
                stretch.for_each(|cell| out.copy(cell));
                continue;
            }
            value.clear();
            let (min, max, sum, count) = (merged.min, merged.max, merged.sum, merged.count);
            write_value(&mut value, min, max, sum, count, merge.bitmap());
            let version = (base + u64::from(offset)) * 1000 + count;
            out.push(first.qualifier, version, &value);
            // Cells we cannot parse stay where they sit, after it.
            stretch
                .filter(|cell| parse(tier, cell).is_none())
                .for_each(|cell| out.copy(cell));
            changed = true;
        }
        changed
    }
}

/// A rollup cell's offset and value, read in place; `None` for a cell
/// that is not one of `tier`.
fn parse<'a>(tier: u64, cell: &CellRef<'a>) -> Option<(u16, CellValue<'a>)> {
    let (offset, _, _) = decode_qualifier(cell.qualifier)?;
    Some((offset, read_value(tier, cell.value)?))
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
    /// Generations run per series and tier, across buckets: each bucket a
    /// series enters takes the next. A bucket that [`RollupWriter::flush`]
    /// sealed and the next point re-opens is resumed instead — same
    /// generation, same accumulators — so its next cell supersedes its
    /// last by version, and its sum is folded point by point in arrival
    /// order, as a raw downsample folds it.
    next_gen: u8,
}

/// The cells one writer call seals, and the value it is writing.
#[derive(Default)]
struct Sealed {
    cells: PutBatch,
    value: Vec<u8>,
}

impl Sealed {
    /// The cells sealed so far, in a batch sized to them. The writer keeps
    /// its own batch and value buffer, so a steady call grows neither.
    fn take(&mut self) -> PutBatch {
        let cells = self.cells.clone();
        self.cells.clear();
        cells
    }
}

/// Write-path rollup maintainer: a [`PutObserver`] that accumulates every
/// acknowledged point into per-tier open buckets and emits sealed cells.
pub struct RollupWriter {
    codec: KeyCodec,
    tiers: Vec<u64>,
    writer_id: u8,
    /// `[series id][tier]`, flattened and grown as series appear, and the
    /// cells being sealed.
    state: Mutex<(Vec<TierState>, Sealed)>,
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
            state: Mutex::default(),
        }
    }

    /// Configured tier widths, ascending.
    pub fn tiers(&self) -> &[u64] {
        &self.tiers
    }

    /// Seal the bucket of `state`, if open, into a cell of `sealed`: its
    /// qualifier and value written straight into the batch's columns.
    fn seal(&self, state: &mut TierState, sealed: &mut Sealed) {
        let Some((_, row)) = state.row.as_ref().filter(|_| state.open) else {
            return;
        };
        state.open = false;
        let b = &state.bucket;
        let span = self.codec.config().row_span_secs;
        let Sealed { cells, value } = sealed;
        value.clear();
        write_value(value, b.min, b.max, b.sum, b.count, &state.bitmap);
        let qualifier = qualifier((b.start % span) as u16, self.writer_id, b.gen);
        cells.push(row, &qualifier, b.start * 1000 + b.count, value);
    }

    /// Fold point `(ts, value)` of `series` into its tier-`tier` state,
    /// sealing the bucket it moves off into `sealed`.
    #[inline]
    fn fold(
        &self,
        state: &mut TierState,
        series: &Series,
        tier: u64,
        (ts, value): (u64, f64),
        sealed: &mut Sealed,
    ) {
        // Buckets start on multiples of the tier: the open one holds `ts`
        // when `ts` lies less than a tier past its start.
        let in_open = state.open && ts.wrapping_sub(state.bucket.start) < tier;
        let bucket = match in_open {
            true => state.bucket.start,
            false => ts - ts % tier,
        };
        let bit = (ts - bucket) as usize;
        if !in_open {
            self.seal(state, sealed);
            let resumes = state.row.is_some() && state.bucket.start == bucket;
            state.open = true;
            // A fresh bucket under the next generation — unless this is
            // the bucket just sealed: then fall through and resume it
            // where it was sealed.
            if !resumes {
                let span = self.codec.config().row_span_secs;
                let base = bucket - bucket % span;
                if state.row.as_ref().is_none_or(|&(open, _)| open != base) {
                    state.row = Some((base, self.shadow_row(series, tier, bucket)));
                }
                let gen = state.next_gen;
                state.next_gen = gen.wrapping_add(1);
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
                return;
            }
        }
        if state.bitmap[bit / 8] & (1 << (bit % 8)) != 0 {
            return; // second already counted (duplicate)
        }
        state.bitmap[bit / 8] |= 1 << (bit % 8);
        let open = &mut state.bucket;
        open.min = open.min.min(value);
        open.max = open.max.max(value);
        open.sum += value;
        open.count += 1;
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
    /// Folds each run tier by tier: one state lookup a `(series, tier)`,
    /// then the run's points in order. A series' cells seal in the order
    /// a point-by-point fold seals them; only cells of different series
    /// or tiers come out in another order.
    fn on_batch(&self, runs: &SeriesRuns) -> PutBatch {
        let mut guard = self.state.lock();
        let (states, sealed) = &mut *guard;
        let tiers = self.tiers.len();
        for run in runs.iter() {
            if run.series.metric().starts_with(RESERVED_PREFIX) {
                continue; // never roll up a rollup
            }
            let first = run.series.id() as usize * tiers;
            if states.len() < first + tiers {
                states.resize_with(first + tiers, TierState::default);
            }
            for (&tier, state) in self.tiers.iter().zip(&mut states[first..]) {
                for point in run.points() {
                    self.fold(state, run.series, tier, point, sealed);
                }
            }
        }
        sealed.take()
    }

    /// Seals in series-id order, tier by tier.
    fn flush(&self) -> PutBatch {
        let mut guard = self.state.lock();
        let (states, sealed) = &mut *guard;
        for state in states {
            self.seal(state, sealed);
        }
        sealed.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_tsdb::{KeyCodecConfig, SeriesPoint, UidTable};

    fn encode_value(min: f64, max: f64, sum: f64, count: u64, bitmap: &[u8]) -> Vec<u8> {
        let mut value = Vec::new();
        write_value(&mut value, min, max, sum, count, bitmap);
        value
    }

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

    /// `(timestamp, value)` points of `metric{TAGS}`, resolved and
    /// grouped as the TSD groups a put before its observer sees it.
    fn points(c: &KeyCodec, metric: &str, points: &[(u64, f64)]) -> SeriesRuns {
        let id = c.resolve(metric, TAGS).id();
        let points: Vec<SeriesPoint> = points.iter().map(|&(ts, v)| (id, ts, v)).collect();
        let mut runs = SeriesRuns::new();
        runs.group(c, [&points[..]]).unwrap();
        runs
    }

    /// Sealed cells of `tier`-second buckets, decoded.
    fn decoded(c: &KeyCodec, tier: u64, cells: &[KeyValue]) -> Vec<RollupCell> {
        let mut decoder = CellDecoder::new(c, tier);
        cells
            .iter()
            .map(|kv| decoder.decode(kv).expect("a rollup cell"))
            .collect()
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
        let q = qualifier(3540, 3, 9);
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
        let sealed = decoded(
            &c,
            60,
            &w.on_batch(&points(&c, "energy", &[(61, 7.0)])).into_kvs(),
        );
        assert_eq!(sealed.len(), 1);
        let cell = &sealed[0];
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
        let cell = &decoded(&c, 60, &w.flush().into_kvs())[0];
        assert_eq!(cell.count, 1, "same second must not double-count");
        assert_eq!(cell.sum, 1.0);
    }

    /// A bucket re-opened after a flush resumes where it was sealed: its
    /// next cell has the same qualifier, holds every point so far and
    /// supersedes the first by version.
    #[test]
    fn flush_seals_and_reopen_resumes_the_bucket() {
        let c = codec();
        let w = RollupWriter::new(c.clone(), vec![60], 2);
        w.on_batch(&points(&c, "energy", &[(5, 1.0)]));
        let first = w.flush().into_kvs();
        assert_eq!(first.len(), 1);
        assert!(w.flush().is_empty(), "nothing left open");
        w.on_batch(&points(&c, "energy", &[(6, 2.0), (5, 9.0)]));
        let second = w.flush().into_kvs();
        let a = &decoded(&c, 60, &first)[0];
        let b = &decoded(&c, 60, &second)[0];
        assert_eq!((a.bucket, a.writer, a.gen), (b.bucket, b.writer, b.gen));
        assert_eq!(first[0].qualifier, second[0].qualifier);
        assert!(second[0].timestamp > first[0].timestamp);
        // Second 5 was counted before the flush; the duplicate is not.
        assert_eq!((b.min, b.max, b.sum, b.count), (1.0, 2.0, 3.0, 2));
        // Another bucket, then this one again: a fresh generation.
        let minute = w.on_batch(&points(&c, "energy", &[(61, 1.0), (7, 4.0)]));
        assert_eq!(decoded(&c, 60, &minute.into_kvs())[0].bucket, 60);
        let late = &decoded(&c, 60, &w.flush().into_kvs())[0];
        assert_eq!((late.bucket, late.count), (0, 1));
        assert_ne!(late.gen, a.gen);
    }

    #[test]
    fn rollup_metrics_are_never_rolled_up() {
        let c = codec();
        let w = RollupWriter::new(c.clone(), vec![60], 0);
        w.on_batch(&points(&c, &tier_metric(60, "energy"), &[(5, 1.0)]));
        assert!(w.flush().is_empty());
    }

    /// The point-by-point fold `on_batch` ran before it read runs: every
    /// point in put order, tier by tier. The oracle of the run fold.
    fn fold_points(w: &RollupWriter, points: &[(Arc<Series>, u64, f64)]) -> PutBatch {
        let span = w.codec.config().row_span_secs;
        let mut guard = w.state.lock();
        let (states, sealed) = &mut *guard;
        for (series, ts, value) in points {
            let (ts, value) = (*ts, *value);
            let first = series.id() as usize * w.tiers.len();
            if states.len() < first + w.tiers.len() {
                states.resize_with(first + w.tiers.len(), TierState::default);
            }
            for (&tier, state) in w.tiers.iter().zip(&mut states[first..]) {
                let bucket = ts - ts % tier;
                let bit = (ts - bucket) as usize;
                if !(state.open && state.bucket.start == bucket) {
                    if series.metric().starts_with(RESERVED_PREFIX) {
                        break;
                    }
                    w.seal(state, sealed);
                    let resumes = state.row.is_some() && state.bucket.start == bucket;
                    state.open = true;
                    if !resumes {
                        let base = bucket - bucket % span;
                        if state.row.as_ref().is_none_or(|&(open, _)| open != base) {
                            state.row = Some((base, w.shadow_row(series, tier, bucket)));
                        }
                        let gen = state.next_gen;
                        state.next_gen = gen.wrapping_add(1);
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
                    continue;
                }
                state.bitmap[bit / 8] |= 1 << (bit % 8);
                let open = &mut state.bucket;
                open.min = open.min.min(value);
                open.max = open.max.max(value);
                open.sum += value;
                open.count += 1;
            }
        }
        sealed.take()
    }

    /// Cells as `(row, qualifier, version, value)`, sorted: what a store
    /// keeps of them, whatever order they were sealed in.
    fn stored(sealed: PutBatch) -> Vec<KeyValue> {
        let mut cells = sealed.into_kvs();
        cells.sort();
        cells
    }

    /// Folding a put's runs seals exactly the cells the point-by-point
    /// fold seals — row, qualifier, version and value bits — put by put
    /// and flush by flush: over a run crossing two bucket boundaries of
    /// both tiers, a second put twice, a bucket resumed after a flush, and
    /// a rollup-metric series, which neither fold rolls up.
    #[test]
    fn the_run_fold_seals_what_the_point_fold_seals() {
        let c = codec();
        let (runs_writer, oracle) = (
            RollupWriter::new(c.clone(), vec![60, 600], 3),
            RollupWriter::new(c.clone(), vec![60, 600], 3),
        );
        let shadow = tier_metric(60, "energy");
        let series = [
            c.resolve("energy", &[("unit", "1"), ("sensor", "1")]),
            c.resolve("energy", &[("unit", "1"), ("sensor", "2")]),
            c.resolve(&shadow, TAGS),
            c.resolve("energy", &[("unit", "2"), ("sensor", "1")]),
        ];
        // Tick-major puts, as a fleet sends them, every series a tick.
        let put = |ticks: std::ops::Range<u64>, extra: &[(usize, u64, f64)]| {
            let mut points: Vec<(Arc<Series>, u64, f64)> = Vec::new();
            for ts in ticks {
                for (s, series) in series.iter().enumerate() {
                    let value = (ts * 7 + s as u64 * 1_000) as f64 * 0.37;
                    points.push((series.clone(), ts, value));
                }
            }
            points.extend(extra.iter().map(|&(s, ts, v)| (series[s].clone(), ts, v)));
            points
        };
        let puts = [
            // Crosses 600 and 1 200 (both tiers), second 601 of series 0
            // twice with another value, series 1's 1 199 late.
            put(590..1_210, &[(0, 601, -5.0), (1, 1_199, 8.5)]),
            // After a flush: the open buckets resume, one with a point
            // it already holds.
            put(1_210..1_230, &[(3, 1_215, 99.0)]),
            put(1_230..1_900, &[(2, 1_231, 4.0)]),
        ];
        let mut sealed = Vec::new();
        for (k, points) in puts.iter().enumerate() {
            let ids: Vec<SeriesPoint> = points.iter().map(|(s, ts, v)| (s.id(), *ts, *v)).collect();
            let mut runs = SeriesRuns::new();
            runs.group(&c, [&ids[..]]).unwrap();
            let by_runs = stored(runs_writer.on_batch(&runs));
            assert_eq!(by_runs, stored(fold_points(&oracle, points)), "put {k}");
            sealed.extend(by_runs);
            if k == 0 {
                let flushed = runs_writer.flush().into_kvs();
                assert_eq!(flushed, oracle.flush().into_kvs(), "flush after put {k}");
                sealed.extend(flushed);
            }
        }
        let flushed = runs_writer.flush().into_kvs();
        assert_eq!(flushed, oracle.flush().into_kvs(), "last flush");
        sealed.extend(flushed);
        // 22 minutes and 3 ten-minute buckets a series, a few twice.
        assert!(sealed.len() >= 3 * 25, "{} cells sealed", sealed.len());
        for cell in &sealed {
            let (series, _) = c.series_of_row(&cell.row).unwrap();
            let raw = parse_tier_metric(series.metric()).map(|(_, raw)| raw);
            assert_eq!(raw, Some("energy"), "a rollup of a raw series");
        }
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
        let cells: Vec<KeyValue> = [b_writer.flush(), a_writer.flush()]
            .into_iter()
            .flat_map(PutBatch::into_kvs)
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
        let cells: Vec<KeyValue> = [a_writer.flush(), b_writer.flush()]
            .into_iter()
            .flat_map(PutBatch::into_kvs)
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
        let short = w.flush().into_kvs();
        w.on_batch(&points(&c, "energy", &[(6, 1.0), (7, 1.0)]));
        let long = w.flush().into_kvs();
        assert!(long[0].timestamp > short[0].timestamp);
    }

    /// `compactor`'s answer for `row`: the cells it wrote, or `None`
    /// when it kept the row.
    fn compact_row(
        compactor: &RollupCompactor,
        row: &Bytes,
        cells: Vec<KeyValue>,
    ) -> Option<Vec<KeyValue>> {
        use pga_minibase::{CompactionRewriter, RewriteContext};
        let ctx = RewriteContext {
            row,
            drop_sealed_overlap: false,
        };
        let mut out = PutBatch::new();
        compactor
            .rewrite_row(&ctx, &cells.into(), &mut RowWriter::new(row, &mut out))
            .then(|| out.into_kvs())
    }

    #[test]
    fn compactor_folds_disjoint_writers_into_one_cell() {
        let c = codec();
        let a_writer = RollupWriter::new(c.clone(), vec![60], 0);
        let b_writer = RollupWriter::new(c.clone(), vec![60], 1);
        a_writer.on_batch(&points(&c, "energy", &[(1, 1.0), (3, 3.0)]));
        b_writer.on_batch(&points(&c, "energy", &[(2, 10.0)]));
        let mut cells: Vec<KeyValue> = [a_writer.flush(), b_writer.flush()]
            .into_iter()
            .flat_map(PutBatch::into_kvs)
            .collect();
        cells.sort();
        let row = cells[0].row.clone();
        let expected = merge(&cells);
        let compactor = RollupCompactor::new(c.clone(), None);
        let out = compact_row(&compactor, &row, cells).expect("disjoint bucket must canonicalize");
        assert_eq!(out.len(), 1);
        let canon = &decoded(&c, 60, &out)[0];
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
        let mut cells: Vec<KeyValue> = [a_writer.flush(), b_writer.flush()]
            .into_iter()
            .flat_map(PutBatch::into_kvs)
            .collect();
        cells.sort();
        let row = cells[0].row.clone();
        let compactor = RollupCompactor::new(c.clone(), None);
        assert!(
            compact_row(&compactor, &row, cells).is_none(),
            "overlap must stay visible so the executor recomputes"
        );
    }

    #[test]
    fn compactor_delegates_non_rollup_rows_to_inner() {
        let c = codec();
        let compactor = RollupCompactor::new(c.clone(), None);
        // A raw-metric row with no inner rewriter: nothing to do.
        let refs: Vec<(&str, &str)> = TAGS.to_vec();
        let row = c.row_key("energy", &refs, 0);
        let kv = KeyValue::new(row.clone(), vec![0u8, 1], 1, 2.0f64.to_be_bytes().to_vec());
        assert!(compact_row(&compactor, &row, vec![kv]).is_none());
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
