//! Query results: series assembly, tag filtering, downsampling — plus the
//! block-aware [`Assembler`] both `Tsd::query` and `pga-query` share.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use pga_minibase::{CellRef, Client, RowRange};
use serde::{Deserialize, Serialize};

use crate::block::{self, BlockError};
use crate::codec::KeyCodec;
use crate::series::Series;

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
    /// Number of points.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }
}

/// A sealed block that failed CRC/decode during assembly, reported by
/// [`Assembler::corrupt`] instead of aborting the query. Carries
/// everything the salvage layer needs to quarantine the block and re-read
/// its span from another replica.
#[derive(Debug, Clone)]
pub struct CorruptBlock {
    /// Row key holding the corrupt block cell.
    pub row: Vec<u8>,
    /// Qualifier of the block cell.
    pub qualifier: Vec<u8>,
    /// The series of the row (for re-attachment).
    pub series: Arc<Series>,
    /// Row base time — the block's span is `[base, base + row_span)`.
    pub base: u64,
    /// The typed decode failure.
    pub error: BlockError,
}

/// One answered series: its name and its points, ascending.
pub type SeriesPoints = (Arc<Series>, Vec<DataPoint>);

/// The one read-path assembler: scanned cells — sealed blocks **and** raw
/// cells — decoded straight into the points of each answered series,
/// keeping the points inside `windows` (inclusive, ascending, disjoint).
///
/// A row's series comes from [`KeyCodec::series_of_row`] and answers by
/// its id, so the tag filter is tested once per series
/// ([`QueryFilter::matches_pairs`]) and no tag string is built per row.
/// Compacted-blob columns (`0xFFFF`) and rollup qualifiers carry no raw
/// data and are skipped; of several versions of a cell the newest (the
/// first scanned) wins; within one row a raw cell beats a sealed block at
/// the same timestamp (late-arriving raw data is newer than the seal). A
/// sealed block that fails to decode is recorded in
/// [`Assembler::corrupt`] — never a silent wrong answer — and the row's
/// raw cells still answer; [`Assembler::salvage`] re-reads such blocks
/// from other replicas.
///
/// Cells must arrive in storage scan order (row asc, qualifier asc,
/// version desc), the order MiniBase scans already produce; they are read
/// by reference, where the scan reply holds them.
pub struct Assembler<'a> {
    codec: &'a KeyCodec,
    filter: &'a QueryFilter,
    windows: &'a [(u64, u64)],
    /// Series id → its slot in `answer`, `None` when the filter rejects
    /// the series.
    slots: HashMap<u32, Option<usize>>,
    answer: Vec<SeriesPoints>,
    corrupt: Vec<CorruptBlock>,
}

/// The row under assembly: its key, base time and slot (`None`: nothing
/// of the row answers), where its points start in the slot, and its
/// block cells.
struct OpenRow<'c> {
    /// The row's first cell.
    first: CellRef<'c>,
    series: Option<(Arc<Series>, u64, usize)>,
    first_point: usize,
    blocks: Vec<CellRef<'c>>,
}

impl<'a> Assembler<'a> {
    /// An assembler of the series of `filter` inside `windows`.
    pub fn new(codec: &'a KeyCodec, filter: &'a QueryFilter, windows: &'a [(u64, u64)]) -> Self {
        Assembler {
            codec,
            filter,
            windows,
            slots: HashMap::new(),
            answer: Vec::new(),
            corrupt: Vec::new(),
        }
    }

    /// Does a point at `ts` answer?
    fn keeps(&self, ts: u64) -> bool {
        self.windows
            .iter()
            .any(|&(from, to)| from <= ts && ts <= to)
    }

    /// The slot of `series`, made on its first sight; `None` when the
    /// filter rejects it.
    fn slot(&mut self, series: &Arc<Series>) -> Option<usize> {
        let (filter, answer) = (self.filter, &mut self.answer);
        *self.slots.entry(series.id()).or_insert_with(|| {
            filter.matches_pairs(series.tags()).then(|| {
                answer.push((series.clone(), Vec::new()));
                answer.len() - 1
            })
        })
    }

    /// Assemble scanned cells, in storage scan order, after the ones
    /// already added: the views a scan reply lends, or owned cells by
    /// reference.
    pub fn add<'c, C: Into<CellRef<'c>>>(&mut self, cells: impl IntoIterator<Item = C>) {
        let mut open: Option<OpenRow<'c>> = None;
        let mut last_qualifier: &[u8] = &[];
        for kv in cells {
            let kv: CellRef<'c> = kv.into();
            if open.as_ref().is_none_or(|row| !row.first.same_row(&kv)) {
                if let Some(row) = open.take() {
                    self.close_row(row);
                }
                let series = self.codec.series_of_row(kv.row).and_then(|(series, base)| {
                    let slot = self.slot(&series)?;
                    Some((series, base, slot))
                });
                let first_point = series
                    .as_ref()
                    .map_or(0, |&(_, _, slot)| self.answer[slot].1.len());
                open = Some(OpenRow {
                    first: kv,
                    series,
                    first_point,
                    blocks: Vec::new(),
                });
            } else if last_qualifier == kv.qualifier {
                continue; // older version of a cell already taken
            }
            last_qualifier = kv.qualifier;
            let Some(row) = open.as_mut() else {
                continue;
            };
            let Some((_, base, slot)) = row.series else {
                continue; // unknown UIDs, malformed row, or filtered out
            };
            if block::is_block_qualifier(kv.qualifier) {
                row.blocks.push(kv);
                continue;
            }
            // Anything else but a 2-byte offset (the 0xFFFF blob, rollup
            // qualifiers) or an 8-byte value carries no raw point.
            let (Ok(q), Ok(v)) = (
                <[u8; 2]>::try_from(kv.qualifier),
                <[u8; 8]>::try_from(kv.value),
            ) else {
                continue;
            };
            if q == [0xFF, 0xFF] {
                continue;
            }
            let timestamp = base + u64::from(u16::from_be_bytes(q));
            if self.keeps(timestamp) {
                self.answer[slot].1.push(DataPoint {
                    timestamp,
                    value: f64::from_be_bytes(v),
                });
            }
        }
        if let Some(row) = open {
            self.close_row(row);
        }
    }

    /// Splice a finished row's sealed blocks under its raw points.
    fn close_row(&mut self, row: OpenRow<'_>) {
        let Some((series, base, slot)) = row.series.filter(|_| !row.blocks.is_empty()) else {
            return;
        };
        let (Some(&(lo, _)), Some(&(_, hi))) = (self.windows.first(), self.windows.last()) else {
            return;
        };
        // Multiple block cells on one row should not happen (compaction
        // folds them), but merge defensively: sorted, the first point of
        // a duplicate timestamp kept.
        let row_span = self.codec.config().row_span_secs;
        let mut sealed: Vec<(u64, f64)> = Vec::new();
        for cell in row.blocks {
            // A sealed block only ever holds points from its own row's
            // span, and the row key is not part of the block payload — so
            // a row wholly outside `[lo, hi]` is skipped without touching
            // the block bytes at all, corrupt or not.
            if base > hi || base.saturating_add(row_span) <= lo {
                continue;
            }
            // Within an overlapping row, the header's min/max bounds prune
            // further — but the peek alone is advisory (a flipped header
            // byte could hide in-window points), so an out-of-window
            // verdict only counts after the whole-buffer CRC authenticates
            // it. A block failing that CRC falls through to the decode
            // below, which reports it.
            if let Ok((_, min_ts, max_ts)) = block::peek_header(cell.value) {
                if (max_ts < lo || min_ts > hi) && block::verify_block(cell.value).is_ok() {
                    continue;
                }
            }
            let decoded = match block::decode_block(cell.value) {
                Ok(decoded) => decoded,
                Err(error) => {
                    self.corrupt.push(CorruptBlock {
                        row: row.first.row.to_vec(),
                        qualifier: cell.qualifier.to_vec(),
                        series: series.clone(),
                        base,
                        error,
                    });
                    continue; // raw cells still answer; the caller salvages the rest
                }
            };
            let points = decoded.timestamps.iter().copied().zip(decoded.values);
            if sealed.is_empty() {
                sealed.extend(points);
            } else {
                sealed.extend(points);
                sealed.sort_by_key(|&(ts, _)| ts);
                sealed.dedup_by_key(|&mut (ts, _)| ts);
            }
        }
        sealed.retain(|&(ts, _)| self.keeps(ts));
        if sealed.is_empty() {
            return;
        }
        // Merge the row's raw points over its sealed ones: both ascending;
        // raw wins at equal timestamps.
        let points = &mut self.answer[slot].1;
        let mut raw = points.split_off(row.first_point).into_iter().peekable();
        let mut sealed = sealed.into_iter().peekable();
        loop {
            match (raw.peek(), sealed.peek()) {
                (Some(r), Some(&(ts, _))) if r.timestamp <= ts => {
                    if r.timestamp == ts {
                        sealed.next(); // raw supersedes the sealed point
                    }
                    points.extend(raw.next());
                }
                (_, Some(&(timestamp, value))) => {
                    points.push(DataPoint { timestamp, value });
                    sealed.next();
                }
                (Some(_), None) => points.extend(raw.next()),
                (None, None) => break,
            }
        }
    }

    /// The sealed blocks that failed to decode so far, in scan order.
    pub fn corrupt(&self) -> &[CorruptBlock] {
        &self.corrupt
    }

    /// Replica salvage for the blocks [`Assembler::corrupt`] holds:
    /// re-read each from the region's other copies
    /// (`Client::repair_fetch`) and splice the first copy that decodes
    /// into its series, its points after the local ones, so a local raw
    /// cell still wins a duplicate timestamp. Returns the blocks no copy
    /// could heal; none is held afterwards.
    pub fn salvage(&mut self, client: &Client) -> Vec<CorruptBlock> {
        let mut unhealed = Vec::new();
        for cb in std::mem::take(&mut self.corrupt) {
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
                unhealed.push(cb);
                continue;
            };
            let Some(slot) = self.slot(&cb.series) else {
                continue;
            };
            for (&timestamp, &value) in decoded.timestamps.iter().zip(&decoded.values) {
                if self.keeps(timestamp) {
                    self.answer[slot].1.push(DataPoint { timestamp, value });
                }
            }
        }
        unhealed
    }

    /// The answered series, ordered by their tags (row-key order), each
    /// with at least one point, points sorted by timestamp. A duplicate
    /// timestamp keeps the point assembled first: the newest version, or
    /// a local point over a salvaged one. Points already in order — rows
    /// arrive base-ascending, each merged in order — are left as they
    /// are.
    pub fn finish(self) -> Vec<SeriesPoints> {
        let mut answer: Vec<SeriesPoints> = self
            .answer
            .into_iter()
            .filter(|(_, points)| !points.is_empty())
            .map(|(series, mut points)| {
                if !points.windows(2).all(|w| w[0].timestamp < w[1].timestamp) {
                    points.sort_by_key(|p| p.timestamp);
                    points.dedup_by_key(|p| p.timestamp);
                }
                (series, points)
            })
            .collect();
        answer.sort_by(|(a, _), (b, _)| a.tags().cmp(b.tags()));
        answer
    }
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
