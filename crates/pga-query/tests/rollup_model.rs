//! The rollup writer against the code it replaced.
//!
//! `NaiveRollup` is the write-time rollup maintainer as it was before the
//! series table (ISSUE 20): keyed by `(tier, metric, sorted tag strings)`
//! in a hash map, cloning those strings for every sample and tier. It is
//! kept here as the model: for the same acknowledged points the dense
//! writer must seal the same cells — rows, qualifiers, versions, value
//! blobs, generations — and leave the same UID table behind.
//!
//! One rule is newer than the model's code: a bucket that a flush sealed
//! and the next point re-opens is resumed — same generation, same
//! accumulators — not opened afresh, so the model keeps its last sealed
//! bucket too. The last test also holds the writer to what a store keeps
//! from a run that re-opens one bucket 600 times.

use std::collections::HashMap;

use proptest::prelude::*;

mod cell_format;
use cell_format::{encode_qualifier, encode_value};

use pga_minibase::KeyValue;
use pga_query::rollup::{bitmap_len, fold_buckets, tier_metric};
use pga_query::RollupWriter;
use pga_tsdb::uid::{UidKind, RESERVED_PREFIX};
use pga_tsdb::{
    BatchPoint, KeyCodec, KeyCodecConfig, PutObserver, SeriesPoint, SeriesRuns, UidTable,
};

struct OpenBucket {
    /// Sealed by a flush, kept for a re-opening to resume.
    sealed: bool,
    start: u64,
    gen: u8,
    row: bytes::Bytes,
    min: f64,
    max: f64,
    sum: f64,
    count: u64,
    bitmap: Vec<u8>,
}

#[derive(Default)]
struct SeriesState {
    open: Option<OpenBucket>,
    next_gen: u8,
}

/// Key: `(tier, metric, sorted tags)`.
type SeriesKey = (u64, String, Vec<(String, String)>);

/// The cell of bucket `b`, sealed by writer `writer_id`.
fn seal(span: u64, writer_id: u8, b: &OpenBucket) -> KeyValue {
    KeyValue::new(
        b.row.clone(),
        encode_qualifier((b.start % span) as u16, writer_id, b.gen),
        b.start * 1000 + b.count,
        encode_value(b.min, b.max, b.sum, b.count, &b.bitmap),
    )
}

struct NaiveRollup {
    codec: KeyCodec,
    tiers: Vec<u64>,
    writer_id: u8,
    state: HashMap<SeriesKey, SeriesState>,
}

impl NaiveRollup {
    fn new(codec: KeyCodec, tiers: Vec<u64>, writer_id: u8) -> Self {
        NaiveRollup {
            codec,
            tiers,
            writer_id,
            state: HashMap::new(),
        }
    }

    fn on_batch(&mut self, metric: &str, points: &[BatchPoint<'_>]) -> Vec<KeyValue> {
        if metric.starts_with(RESERVED_PREFIX) {
            return Vec::new();
        }
        let mut sealed = Vec::new();
        for &(tags, ts, value) in points {
            let mut owned: Vec<(String, String)> = tags
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            owned.sort();
            for tier in self.tiers.clone() {
                let bucket = ts - ts % tier;
                let key = (tier, metric.to_string(), owned.clone());
                let mut series = self.state.remove(&key).unwrap_or_default();
                match &mut series.open {
                    Some(open) if open.start == bucket => {
                        open.sealed = false;
                        let bit = (ts - bucket) as usize;
                        if open.bitmap[bit / 8] & (1 << (bit % 8)) == 0 {
                            open.bitmap[bit / 8] |= 1 << (bit % 8);
                            open.min = open.min.min(value);
                            open.max = open.max.max(value);
                            open.sum += value;
                            open.count += 1;
                        }
                    }
                    open_slot => {
                        if let Some(prev) = open_slot.take().filter(|b| !b.sealed) {
                            sealed.push(seal(self.span(), self.writer_id, &prev));
                        }
                        let refs: Vec<(&str, &str)> = owned
                            .iter()
                            .map(|(k, v)| (k.as_str(), v.as_str()))
                            .collect();
                        let row = self
                            .codec
                            .row_key(&tier_metric(tier, metric), &refs, bucket);
                        let gen = series.next_gen;
                        series.next_gen = series.next_gen.wrapping_add(1);
                        let mut bitmap = vec![0u8; bitmap_len(tier)];
                        let bit = (ts - bucket) as usize;
                        bitmap[bit / 8] |= 1 << (bit % 8);
                        series.open = Some(OpenBucket {
                            sealed: false,
                            start: bucket,
                            gen,
                            row,
                            min: value,
                            max: value,
                            sum: value,
                            count: 1,
                            bitmap,
                        });
                    }
                }
                self.state.insert(key, series);
            }
        }
        sealed
    }

    fn span(&self) -> u64 {
        self.codec.config().row_span_secs
    }

    fn flush(&mut self) -> Vec<KeyValue> {
        let span = self.span();
        let mut cells = Vec::new();
        for series in self.state.values_mut() {
            if let Some(open) = series.open.as_mut().filter(|b| !b.sealed) {
                open.sealed = true;
                cells.push(seal(span, self.writer_id, open));
            }
        }
        cells
    }
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

/// The writer and its model, each over a codec and UID table of its own,
/// fed the same acknowledged batches the way a TSD feeds its observer.
struct Pair {
    codec: KeyCodec,
    writer: RollupWriter,
    cells: Vec<KeyValue>,
    model_codec: KeyCodec,
    model: NaiveRollup,
    model_cells: Vec<KeyValue>,
}

impl Pair {
    fn new(tiers: &[u64]) -> Self {
        let (codec, model_codec) = (codec(), codec());
        Pair {
            writer: RollupWriter::new(codec.clone(), tiers.to_vec(), 3),
            codec,
            cells: Vec::new(),
            model: NaiveRollup::new(model_codec.clone(), tiers.to_vec(), 3),
            model_codec,
            model_cells: Vec::new(),
        }
    }

    fn batch(&mut self, metric: &str, points: &[BatchPoint<'_>]) {
        // The raw put comes first on both sides: it is what interns the
        // raw names, before the observer interns the shadow metric's.
        let resolved: Vec<SeriesPoint> = points
            .iter()
            .map(|&(tags, ts, value)| (self.codec.resolve(metric, tags).id(), ts, value))
            .collect();
        let mut runs = SeriesRuns::new();
        runs.group(&self.codec, [&resolved[..]]).unwrap();
        self.cells.extend(self.writer.on_batch(&runs).into_kvs());
        for &(tags, ts, _) in points {
            self.model_codec.row_key(metric, tags, ts);
        }
        self.model_cells.extend(self.model.on_batch(metric, points));
    }

    fn flush(&mut self) {
        self.cells.extend(self.writer.flush().into_kvs());
        self.model_cells.extend(self.model.flush());
    }

    /// Both sides' cells so far, each sorted into one order.
    fn sorted_cells(&mut self) -> (Vec<KeyValue>, Vec<KeyValue>) {
        let by_bytes = |a: &KeyValue, b: &KeyValue| a.cmp(b).then_with(|| a.value.cmp(&b.value));
        self.cells.sort_by(by_bytes);
        self.model_cells.sort_by(by_bytes);
        (self.cells.clone(), self.model_cells.clone())
    }
}

const METRICS: &[&str] = &["energy", "temp", "\u{1}ru:60:energy"];
const SERIES: &[&[(&str, &str)]] = &[
    &[("unit", "1"), ("sensor", "2")],
    &[("sensor", "2"), ("unit", "1")], // the same series, spelled the other way
    &[("unit", "1"), ("sensor", "3")],
    &[("unit", "2"), ("sensor", "2")],
    &[("unit", "2")],
];

/// One step of a run: a batch of `(metric, series, seconds back from the
/// cursor, value)` points after the cursor moved on by `advance`, or —
/// for an empty batch — a flush.
type Step = (u64, Vec<(usize, usize, u64, f64)>);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let point = (
        0..METRICS.len(),
        0..SERIES.len(),
        // Mostly at the cursor or just behind it (duplicate and
        // out-of-order seconds), now and then a bucket or a row late.
        prop_oneof![6 => 0u64..3, 2 => 0u64..90, 1 => 0u64..4000],
        -50.0f64..50.0,
    );
    let advance = prop_oneof![5 => 0u64..3, 2 => 0u64..70, 1 => 0u64..700];
    proptest::collection::vec((advance, proptest::collection::vec(point, 0..6)), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sealed_cells_equal_the_string_keyed_writers(steps in steps()) {
        let mut pair = Pair::new(&[60, 600]);
        let mut cursor = 4000u64;
        for (advance, points) in &steps {
            cursor += advance;
            if points.is_empty() {
                pair.flush();
                continue;
            }
            // A TSD batch is one metric's points.
            for (m, metric) in METRICS.iter().enumerate() {
                let batch: Vec<BatchPoint> = points
                    .iter()
                    .filter(|p| p.0 == m)
                    .map(|&(_, s, back, value)| (SERIES[s], cursor - back, value))
                    .collect();
                if !batch.is_empty() {
                    pair.batch(metric, &batch);
                }
            }
        }
        pair.flush();
        let (cells, model_cells) = pair.sorted_cells();
        prop_assert_eq!(cells, model_cells);
        // Same names interned in the same order: the shadow metrics too.
        for metric in METRICS {
            for name in [metric.to_string(), tier_metric(60, metric), tier_metric(600, metric)] {
                prop_assert_eq!(
                    pair.codec.uids().lookup(UidKind::Metric, &name),
                    pair.model_codec.uids().lookup(UidKind::Metric, &name),
                    "{:?}", name
                );
            }
        }
    }
}

const TAGS: &[(&str, &str)] = &[("unit", "1"), ("sensor", "2")];

/// 255 re-openings of one bucket, each resumed in its one generation,
/// and the counter wrapping on across buckets: still the model's cells.
#[test]
fn a_bucket_reopened_255_times_still_equals_the_model() {
    let mut pair = Pair::new(&[60, 600]);
    // 256 openings of 600 s bucket 0 (generations 0..=255) …
    for ts in 0..256u64 {
        pair.batch("energy", &[(TAGS, ts, ts as f64)]);
        pair.flush();
    }
    // … then on into the next buckets, where the counter wraps.
    for ts in (600..900u64).step_by(2) {
        pair.batch("energy", &[(TAGS, ts, 1.0)]);
        pair.flush();
    }
    pair.batch("energy", &[(TAGS, 7200, 0.0)]);
    pair.flush();
    let (cells, model_cells) = pair.sorted_cells();
    assert_eq!(cells.len(), model_cells.len());
    assert_eq!(cells, model_cells);
}

/// `Monitor::ingest_range` flushes on every call, so a caller stepping it
/// a tick at a time re-opens a 600 s bucket 600 times. The generation is
/// one byte of the qualifier and every one-point cell of a bucket has the
/// same version, so the 257th cell used to replace the first: the bucket
/// read back as 256 points, untainted. Now a re-opened bucket is resumed
/// in its own generation: `flush` still seals everything, and the resumed
/// bucket's cell supersedes its last one.
#[test]
fn six_hundred_single_point_flushes_into_one_bucket_lose_nothing() {
    let c = codec();
    let w = RollupWriter::new(c.clone(), vec![60, 600], 0);
    let id = c.resolve("energy", TAGS).id();
    let mut runs = SeriesRuns::new();
    let mut cells = Vec::new();
    for ts in 0..600u64 {
        runs.group(&c, [&[(id, ts, 1.0)][..]]).unwrap();
        cells.extend(w.on_batch(&runs).into_kvs());
        cells.extend(w.flush().into_kvs());
    }
    assert!(w.flush().is_empty(), "a flush leaves nothing open");
    // What a store keeps: the newest version of each `(row, qualifier)`.
    cells.sort();
    cells.dedup_by(|a, b| a.row == b.row && a.qualifier == b.qualifier);
    for (tier, buckets) in [(60u64, 10usize), (600, 1)] {
        let shadow = c
            .uids()
            .lookup(UidKind::Metric, &tier_metric(tier, "energy"))
            .unwrap();
        let of_tier: Vec<KeyValue> = cells
            .iter()
            .filter(|kv| kv.row[1..4] == shadow.0)
            .cloned()
            .collect();
        let mut starts = std::collections::BTreeSet::new();
        let mut total = 0;
        fold_buckets(&c, tier, &of_tier, |_, start, merged| {
            assert!(!merged.tainted);
            assert!(starts.insert(start), "one merge per bucket");
            total += merged.count;
        });
        assert_eq!(starts.len(), buckets, "tier {tier}");
        assert_eq!(total, 600, "tier {tier}: every point counted once");
    }
}
