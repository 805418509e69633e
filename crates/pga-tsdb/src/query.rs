//! Query results: series assembly, tag filtering, downsampling — plus the
//! block-aware columnar assembly both `Tsd::query` and `pga-query` share.

use std::collections::BTreeMap;

use pga_minibase::{Client, KeyValue, RowRange};
use serde::{Deserialize, Serialize};

use crate::block::{self, BlockError};
use crate::codec::KeyCodec;

/// One timestamped value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// Seconds since epoch.
    pub timestamp: u64,
    /// Value.
    pub value: f64,
}

/// A series: one tag combination of one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Metric name.
    pub metric: String,
    /// Sorted tag pairs identifying the series.
    pub tags: BTreeMap<String, String>,
    /// Points in ascending timestamp order.
    pub points: Vec<DataPoint>,
}

impl TimeSeries {
    /// Latest point, if any.
    pub fn last(&self) -> Option<DataPoint> {
        self.points.last().copied()
    }

    /// Downsample into fixed windows of `interval` seconds using `agg`.
    /// Window boundaries are anchored to epoch-aligned multiples of the
    /// interval (never to the first datapoint); empty windows produce no
    /// point (OpenTSDB semantics).
    ///
    /// The fold is keyed by window start, so a window revisited
    /// non-contiguously (unsorted input, or duplicate timestamps arriving
    /// out of order) accumulates into one bucket instead of emitting the
    /// same window twice. For input already in timestamp order each
    /// window's values are accumulated in that order, which keeps the
    /// floating-point sum bitwise reproducible — the rollup tiers in
    /// `pga-query` rely on that for their byte-for-byte cross-check.
    pub fn downsample(&self, interval: u64, agg: Aggregator) -> TimeSeries {
        assert!(interval > 0, "interval must be positive");
        let mut windows: BTreeMap<u64, AggState> = BTreeMap::new();
        for p in &self.points {
            let w = p.timestamp - p.timestamp % interval;
            windows.entry(w).or_insert_with(AggState::new).add(p.value);
        }
        TimeSeries {
            metric: self.metric.clone(),
            tags: self.tags.clone(),
            points: windows
                .into_iter()
                .map(|(timestamp, acc)| DataPoint {
                    timestamp,
                    value: acc.finish(agg),
                })
                .collect(),
        }
    }
}

/// Downsampling / aggregation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Aggregator {
    /// Arithmetic mean.
    Avg,
    /// Sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Point count.
    Count,
}

struct AggState {
    sum: f64,
    min: f64,
    max: f64,
    count: u64,
}

impl AggState {
    fn new() -> Self {
        AggState {
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    fn add(&mut self, v: f64) {
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.count += 1;
    }

    fn finish(&self, agg: Aggregator) -> f64 {
        match agg {
            Aggregator::Avg => self.sum / self.count as f64,
            Aggregator::Sum => self.sum,
            Aggregator::Min => self.min,
            Aggregator::Max => self.max,
            Aggregator::Count => self.count as f64,
        }
    }
}

/// Aggregate multiple series into one (OpenTSDB's cross-series
/// aggregator): at every timestamp where *any* input series has a point,
/// combine the values present with `agg`. (OpenTSDB linearly interpolates
/// missing points before aggregating; with the platform's regular 1 Hz
/// sampling the distinction never arises, so present-value aggregation is
/// used.) The output's tags are the pairs common to every input; returns
/// `None` for an empty input.
pub fn aggregate_series(series: &[TimeSeries], agg: Aggregator) -> Option<TimeSeries> {
    let first = series.first()?;
    let mut tags = first.tags.clone();
    for s in &series[1..] {
        tags.retain(|k, v| s.tags.get(k) == Some(v));
    }
    let mut buckets: BTreeMap<u64, AggState> = BTreeMap::new();
    for s in series {
        for p in &s.points {
            buckets
                .entry(p.timestamp)
                .or_insert_with(AggState::new)
                .add(p.value);
        }
    }
    Some(TimeSeries {
        metric: first.metric.clone(),
        tags,
        points: buckets
            .into_iter()
            .map(|(timestamp, st)| DataPoint {
                timestamp,
                value: st.finish(agg),
            })
            .collect(),
    })
}

/// A series in columnar form: flat timestamp/value slices, ready for
/// vectorized batch kernels (`pga-linalg` tiles, `pga-detect` batch
/// evaluation) without per-point materialization.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSeries {
    /// Metric name.
    pub metric: String,
    /// Sorted tag pairs identifying the series.
    pub tags: BTreeMap<String, String>,
    /// Timestamps, strictly ascending.
    pub timestamps: Vec<u64>,
    /// Values, parallel to `timestamps`.
    pub values: Vec<f64>,
}

impl ColumnSeries {
    /// Convert to the row-of-structs [`TimeSeries`] form.
    pub fn to_series(&self) -> TimeSeries {
        TimeSeries {
            metric: self.metric.clone(),
            tags: self.tags.clone(),
            points: self
                .timestamps
                .iter()
                .zip(self.values.iter())
                .map(|(&timestamp, &value)| DataPoint { timestamp, value })
                .collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }
}

/// Columns under assembly: codec-order tag pairs → (timestamps, values),
/// accumulated across per-salt scans before [`finish_columns`].
pub type AssembledColumns = BTreeMap<Vec<(String, String)>, (Vec<u64>, Vec<f64>)>;

/// A sealed block that failed CRC/decode during assembly, reported by
/// [`assemble_columns_salvage`] instead of aborting the query. Carries
/// everything the salvage layer needs to quarantine the block and re-read
/// its span from another replica.
#[derive(Debug, Clone)]
pub struct CorruptBlock {
    /// Row key holding the corrupt block cell.
    pub row: Vec<u8>,
    /// Qualifier of the block cell.
    pub qualifier: Vec<u8>,
    /// Codec-order tag pairs of the series (for re-attachment).
    pub tags: Vec<(String, String)>,
    /// Row base time — the block's span is `[base, base + row_span)`.
    pub base: u64,
    /// The typed decode failure.
    pub error: BlockError,
}

/// Assemble scanned cells — sealed blocks **and** raw cells — into one
/// columnar series per tag combination, windowed to `[start, end]` and
/// filtered by `filter`.
///
/// Mirrors the legacy cell-by-cell path exactly (the differential suite
/// pins this byte-for-byte): compacted-blob columns (`0xFFFF`) and rollup
/// qualifiers are skipped, duplicate timestamps keep the newest-version
/// cell, and within one row a raw cell beats a sealed block at the same
/// timestamp (late-arriving raw data is newer than the seal). A sealed
/// block that fails to decode surfaces as a typed [`BlockError`] — never
/// a silent wrong answer.
///
/// `cells` must arrive in storage scan order (row asc, qualifier asc,
/// version desc), the order MiniBase scans already produce. They are read
/// by reference, where the scan reply holds them.
pub fn assemble_columns<'a>(
    codec: &KeyCodec,
    cells: impl IntoIterator<Item = &'a KeyValue>,
    filter: &QueryFilter,
    start: u64,
    end: u64,
    out: &mut AssembledColumns,
) -> Result<(), BlockError> {
    assemble_columns_inner(codec, cells, filter, start, end, out, None)
}

/// [`assemble_columns`] in salvage mode: a block that fails CRC/decode is
/// reported in `corrupt` (with its row, tags and span) instead of
/// aborting the whole assembly, and the row's raw cells still contribute.
/// The caller owns the consequence: quarantine the block, re-read its
/// span from a healthy replica, or surface a typed partial — never
/// silently drop it.
pub fn assemble_columns_salvage<'a>(
    codec: &KeyCodec,
    cells: impl IntoIterator<Item = &'a KeyValue>,
    filter: &QueryFilter,
    start: u64,
    end: u64,
    out: &mut AssembledColumns,
    corrupt: &mut Vec<CorruptBlock>,
) {
    // With a corrupt sink installed, assembly never returns an error.
    let _ = assemble_columns_inner(codec, cells, filter, start, end, out, Some(corrupt));
}

/// Replica salvage for the blocks [`assemble_columns_salvage`] reported:
/// re-read each from the region's other copies (`Client::repair_fetch`)
/// and splice the first copy that decodes into `out`, its points in
/// `[start, end]` after the local ones, so a local raw cell still wins a
/// duplicate timestamp. Returns the blocks no copy could heal.
pub fn salvage_from_replicas(
    client: &Client,
    corrupt: Vec<CorruptBlock>,
    start: u64,
    end: u64,
    out: &mut AssembledColumns,
) -> Vec<CorruptBlock> {
    corrupt
        .into_iter()
        .filter(|cb| {
            let mut row_end = cb.row.clone();
            row_end.push(0);
            let copies = client.repair_fetch(&RowRange::new(cb.row.clone(), row_end));
            let Some(decoded) = copies.iter().find_map(|copy| {
                let cell = copy
                    .cells
                    .iter()
                    .find(|kv| kv.row == cb.row[..] && kv.qualifier == cb.qualifier[..])?;
                block::decode_block(&cell.value).ok()
            }) else {
                return true;
            };
            let (timestamps, values) = out.entry(cb.tags.clone()).or_default();
            for (&ts, &v) in decoded.timestamps.iter().zip(&decoded.values) {
                if ts >= start && ts <= end {
                    timestamps.push(ts);
                    values.push(v);
                }
            }
            false
        })
        .collect()
}

fn assemble_columns_inner<'a>(
    codec: &KeyCodec,
    cells: impl IntoIterator<Item = &'a KeyValue>,
    filter: &QueryFilter,
    start: u64,
    end: u64,
    out: &mut AssembledColumns,
    mut corrupt: Option<&mut Vec<CorruptBlock>>,
) -> Result<(), BlockError> {
    // One row's cells at a time, by reference.
    let mut group: Vec<&KeyValue> = Vec::new();
    for kv in cells {
        if group.first().is_some_and(|first| first.row != kv.row) {
            assemble_row(
                codec,
                &group,
                filter,
                start,
                end,
                out,
                corrupt.as_deref_mut(),
            )?;
            group.clear();
        }
        group.push(kv);
    }
    assemble_row(codec, &group, filter, start, end, out, corrupt)
}

/// One row's worth of [`assemble_columns`].
fn assemble_row(
    codec: &KeyCodec,
    group: &[&KeyValue],
    filter: &QueryFilter,
    start: u64,
    end: u64,
    out: &mut AssembledColumns,
    mut corrupt: Option<&mut Vec<CorruptBlock>>,
) -> Result<(), BlockError> {
    let Some(&first) = group.first() else {
        return Ok(());
    };
    let Some((_metric, tags, base)) = codec.decode_row(&first.row) else {
        return Ok(()); // unknown UIDs / malformed row: same skip as legacy
    };
    let tag_map: BTreeMap<String, String> = tags.iter().cloned().collect();
    if !filter.matches(&tag_map) {
        return Ok(());
    }

    // Raw cells: qualifier ascending already, keep the newest version per
    // qualifier (the first seen, since versions sort descending).
    let mut raw: Vec<(u64, f64)> = Vec::new();
    let mut blocks: Vec<&KeyValue> = Vec::new();
    let mut last_qual: Option<&[u8]> = None;
    for &cell in group {
        if last_qual == Some(&cell.qualifier[..]) {
            continue; // older version of a cell we already took
        }
        last_qual = Some(&cell.qualifier[..]);
        if block::is_block_qualifier(&cell.qualifier) {
            blocks.push(cell);
        } else if cell.qualifier.len() == 2 && cell.qualifier[..] != [0xFF, 0xFF] {
            let Some(q) = cell.qualifier.get(..2) else {
                continue;
            };
            let offset = u16::from_be_bytes([q[0], q[1]]) as u64;
            let Some(v) = cell.value.get(..8).filter(|_| cell.value.len() == 8) else {
                continue; // malformed value: legacy decode skips it too
            };
            let mut v8 = [0u8; 8];
            v8.copy_from_slice(v);
            raw.push((base + offset, f64::from_be_bytes(v8)));
        }
        // Anything else (0xFFFF blob, rollup qualifiers) carries no raw data.
    }

    // Sealed blocks: decode each into flat slices. Multiple block cells on
    // one row should not happen (compaction folds them), but merge
    // defensively, newest qualifier-version last so it wins collisions.
    let row_span = codec.config().row_span_secs;
    let mut block_points: Vec<(u64, f64)> = Vec::new();
    for cell in &blocks {
        // A sealed block only ever holds points from its own row's span,
        // and the row key is not part of the block payload — so a row
        // wholly outside `[start, end]` can be skipped without touching
        // the block bytes at all, corrupt or not.
        if base > end || base.saturating_add(row_span) <= start {
            continue;
        }
        // Within an overlapping row, the header's min/max bounds prune
        // further — but the peek alone is advisory (a flipped header byte
        // could hide in-window points), so an out-of-window verdict only
        // counts after the whole-buffer CRC authenticates it. A block
        // failing that CRC falls through to the decode below, which
        // surfaces the typed error / salvage path.
        if let Ok((_, min_ts, max_ts)) = block::peek_header(&cell.value) {
            if (max_ts < start || min_ts > end) && block::verify_block(&cell.value).is_ok() {
                continue;
            }
        }
        let decoded = match block::decode_block(&cell.value) {
            Ok(d) => d,
            Err(error) => match corrupt.as_deref_mut() {
                Some(sink) => {
                    sink.push(CorruptBlock {
                        row: first.row.to_vec(),
                        qualifier: cell.qualifier.to_vec(),
                        tags: tags.clone(),
                        base,
                        error,
                    });
                    continue; // raw cells still answer; caller salvages the rest
                }
                None => return Err(error),
            },
        };
        if block_points.is_empty() {
            block_points = decoded
                .timestamps
                .iter()
                .copied()
                .zip(decoded.values.iter().copied())
                .collect();
        } else {
            block_points.extend(
                decoded
                    .timestamps
                    .iter()
                    .copied()
                    .zip(decoded.values.iter().copied()),
            );
            block_points.sort_by_key(|&(ts, _)| ts);
            block_points.dedup_by_key(|&mut (ts, _)| ts);
        }
    }

    // Merge raw over blocks: both ascending; raw wins at equal timestamps.
    let mut merged: Vec<(u64, f64)> = Vec::with_capacity(raw.len() + block_points.len());
    let mut ri = raw.iter().peekable();
    let mut bi = block_points.iter().peekable();
    loop {
        match (ri.peek(), bi.peek()) {
            (Some(&&(rts, rv)), Some(&&(bts, _))) if rts <= bts => {
                if rts == bts {
                    bi.next(); // raw supersedes the sealed point
                }
                merged.push((rts, rv));
                ri.next();
            }
            (_, Some(&&(bts, bv))) => {
                merged.push((bts, bv));
                bi.next();
            }
            (Some(&&(rts, rv)), None) => {
                merged.push((rts, rv));
                ri.next();
            }
            (None, None) => break,
        }
    }
    merged.retain(|&(ts, _)| ts >= start && ts <= end);
    if merged.is_empty() {
        return Ok(()); // never emit an empty series (legacy parity)
    }
    let (timestamps, values) = out.entry(tags).or_default();
    for (ts, v) in merged {
        timestamps.push(ts);
        values.push(v);
    }
    Ok(())
}

/// Finalize assembled columns into [`ColumnSeries`], enforcing the same
/// sort + timestamp-dedup the legacy path applies (keeps the first point
/// in pre-sort order for duplicate timestamps — the newest-version cell).
pub fn finish_columns(metric: &str, assembled: AssembledColumns) -> Vec<ColumnSeries> {
    assembled
        .into_iter()
        .map(|(tags, (timestamps, values))| {
            let (timestamps, values) = canonicalize_columns(timestamps, values);
            ColumnSeries {
                metric: metric.to_string(),
                tags: tags.into_iter().collect(),
                timestamps,
                values,
            }
        })
        .collect()
}

/// Sort one assembled column pair by timestamp and drop duplicate
/// timestamps, keeping the first point in pre-sort order (the
/// newest-version cell) — exactly the legacy `sort_by_key` +
/// `dedup_by_key` discipline. Already-sorted columns (the common case:
/// rows arrive base-ascending, merged sorted within each row) pass
/// through untouched.
pub fn canonicalize_columns(timestamps: Vec<u64>, values: Vec<f64>) -> (Vec<u64>, Vec<f64>) {
    let sorted = timestamps.windows(2).all(|w| match w {
        [a, b] => a < b,
        _ => true,
    });
    if sorted {
        return (timestamps, values);
    }
    let mut idx: Vec<usize> = (0..timestamps.len()).collect();
    idx.sort_by_key(|&i| (timestamps.get(i).copied().unwrap_or(0), i));
    idx.dedup_by_key(|i| timestamps.get(*i).copied().unwrap_or(0));
    (
        idx.iter()
            .filter_map(|&i| timestamps.get(i).copied())
            .collect(),
        idx.iter().filter_map(|&i| values.get(i).copied()).collect(),
    )
}

/// Tag filter for queries: every listed pair must match exactly; unlisted
/// tags are unconstrained (and series are grouped by their full tag set).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct QueryFilter {
    /// Required `(tag key, tag value)` pairs.
    pub tags: BTreeMap<String, String>,
}

impl QueryFilter {
    /// No constraints.
    pub fn any() -> Self {
        QueryFilter::default()
    }

    /// Require `key = value`.
    pub fn with(mut self, key: &str, value: &str) -> Self {
        self.tags.insert(key.to_string(), value.to_string());
        self
    }

    /// Does a series tag set satisfy the filter?
    pub fn matches(&self, tags: &BTreeMap<String, String>) -> bool {
        self.tags
            .iter()
            .all(|(k, v)| tags.get(k).is_some_and(|tv| tv == v))
    }

    /// [`QueryFilter::matches`] on a series' tag pairs as they are
    /// ([`crate::Series::tags`]), without building a map of them.
    pub fn matches_pairs(&self, tags: &[(String, String)]) -> bool {
        self.tags
            .iter()
            .all(|(k, v)| tags.iter().any(|(tk, tv)| tk == k && tv == v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(u64, f64)]) -> TimeSeries {
        TimeSeries {
            metric: "energy".into(),
            tags: BTreeMap::new(),
            points: points
                .iter()
                .map(|&(timestamp, value)| DataPoint { timestamp, value })
                .collect(),
        }
    }

    #[test]
    fn downsample_avg_aligned_windows() {
        let s = series(&[(0, 1.0), (5, 3.0), (10, 10.0), (19, 20.0), (20, 7.0)]);
        let d = s.downsample(10, Aggregator::Avg);
        assert_eq!(d.points.len(), 3);
        assert_eq!(
            d.points[0],
            DataPoint {
                timestamp: 0,
                value: 2.0
            }
        );
        assert_eq!(
            d.points[1],
            DataPoint {
                timestamp: 10,
                value: 15.0
            }
        );
        assert_eq!(
            d.points[2],
            DataPoint {
                timestamp: 20,
                value: 7.0
            }
        );
    }

    #[test]
    fn downsample_all_aggregators() {
        let s = series(&[(0, 1.0), (1, 5.0), (2, 3.0)]);
        assert_eq!(s.downsample(10, Aggregator::Sum).points[0].value, 9.0);
        assert_eq!(s.downsample(10, Aggregator::Min).points[0].value, 1.0);
        assert_eq!(s.downsample(10, Aggregator::Max).points[0].value, 5.0);
        assert_eq!(s.downsample(10, Aggregator::Count).points[0].value, 3.0);
    }

    #[test]
    fn downsample_skips_empty_windows() {
        let s = series(&[(0, 1.0), (100, 2.0)]);
        let d = s.downsample(10, Aggregator::Avg);
        assert_eq!(d.points.len(), 2);
        assert_eq!(d.points[1].timestamp, 100);
    }

    #[test]
    fn downsample_empty_series() {
        let s = series(&[]);
        assert!(s.downsample(10, Aggregator::Avg).points.is_empty());
    }

    #[test]
    fn downsample_windows_anchor_to_epoch_not_first_point() {
        // First datapoint at ts=7: the window must start at 0 (epoch
        // aligned), not at 7.
        let s = series(&[(7, 1.0), (9, 3.0), (12, 5.0)]);
        let d = s.downsample(10, Aggregator::Avg);
        assert_eq!(d.points.len(), 2);
        assert_eq!(d.points[0].timestamp, 0);
        assert_eq!(d.points[0].value, 2.0);
        assert_eq!(d.points[1].timestamp, 10);
        assert_eq!(d.points[1].value, 5.0);
    }

    #[test]
    fn downsample_merges_noncontiguous_window_revisits() {
        // Unsorted input revisits window 0 after window 10 was opened.
        // The old single-open-window fold emitted window 0 twice; the
        // keyed fold must merge the revisit into one bucket.
        let s = series(&[(0, 1.0), (10, 4.0), (5, 3.0)]);
        let d = s.downsample(10, Aggregator::Sum);
        assert_eq!(
            d.points,
            vec![
                DataPoint {
                    timestamp: 0,
                    value: 4.0
                },
                DataPoint {
                    timestamp: 10,
                    value: 4.0
                },
            ]
        );
    }

    #[test]
    fn filter_matching() {
        let mut tags = BTreeMap::new();
        tags.insert("unit".to_string(), "7".to_string());
        tags.insert("sensor".to_string(), "3".to_string());
        assert!(QueryFilter::any().matches(&tags));
        assert!(QueryFilter::any().with("unit", "7").matches(&tags));
        assert!(!QueryFilter::any().with("unit", "8").matches(&tags));
        assert!(!QueryFilter::any().with("missing", "x").matches(&tags));
        assert!(QueryFilter::any()
            .with("unit", "7")
            .with("sensor", "3")
            .matches(&tags));
    }

    #[test]
    fn aggregate_series_sums_across_units() {
        let mut a = series(&[(0, 1.0), (1, 2.0)]);
        a.tags.insert("unit".into(), "1".into());
        a.tags.insert("sensor".into(), "7".into());
        let mut b = series(&[(0, 10.0), (2, 30.0)]);
        b.tags.insert("unit".into(), "2".into());
        b.tags.insert("sensor".into(), "7".into());
        let agg = aggregate_series(&[a, b], Aggregator::Sum).unwrap();
        assert_eq!(
            agg.points,
            vec![
                DataPoint {
                    timestamp: 0,
                    value: 11.0
                },
                DataPoint {
                    timestamp: 1,
                    value: 2.0
                },
                DataPoint {
                    timestamp: 2,
                    value: 30.0
                },
            ]
        );
        // Common tags survive; differing tags are dropped.
        assert_eq!(agg.tags.get("sensor").map(String::as_str), Some("7"));
        assert!(!agg.tags.contains_key("unit"));
    }

    #[test]
    fn aggregate_series_avg_and_extremes() {
        let a = series(&[(5, 2.0)]);
        let b = series(&[(5, 4.0)]);
        let c = series(&[(5, 9.0)]);
        let input = [a, b, c];
        assert_eq!(
            aggregate_series(&input, Aggregator::Avg).unwrap().points[0].value,
            5.0
        );
        assert_eq!(
            aggregate_series(&input, Aggregator::Min).unwrap().points[0].value,
            2.0
        );
        assert_eq!(
            aggregate_series(&input, Aggregator::Max).unwrap().points[0].value,
            9.0
        );
        assert_eq!(
            aggregate_series(&input, Aggregator::Count).unwrap().points[0].value,
            3.0
        );
    }

    #[test]
    fn aggregate_series_empty_input() {
        assert!(aggregate_series(&[], Aggregator::Avg).is_none());
    }

    #[test]
    fn last_point() {
        assert_eq!(series(&[]).last(), None);
        assert_eq!(
            series(&[(1, 2.0), (5, 9.0)]).last(),
            Some(DataPoint {
                timestamp: 5,
                value: 9.0
            })
        );
    }
}
