//! The one-pass rollup fold against the fold it replaced.
//!
//! The model is the read-time merge as it was: sort and dedup every
//! scanned cell, decode each into an owned [`RollupCell`], group them in a
//! map per `(series, bucket)`, and [`merge_cells`] each group after sorting
//! it by `(writer, generation)`. [`fold_buckets`] does the same in one pass
//! in scan order, and must hand over the same buckets, bit for bit, over
//! random cell sets in storage order, the order its contract asks for:
//! several versions of one qualifier, two writers, generations wrapping
//! 255 → 0, overlapping bitmaps, malformed values, raw-format strays and
//! rows of unknown series. The
//! compactor, which now merges through the same rule, must write the bytes
//! the model's compactor wrote.
//!
//! The engine-level test holds a whole rollup answer to the parent's
//! executor path, in-process over one store. Rollup answers are not
//! reproducible from run to run (a bucket's sum depends on which writer
//! received which batch), so two processes cannot be compared.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

mod cell_format;
use cell_format::{encode_qualifier, encode_value};

#[path = "../../pga-tsdb/tests/columns_model/mod.rs"]
mod columns_model;

use pga_cluster::coordinator::Coordinator;
use pga_minibase::{
    Client, CompactionRewriter, KeyValue, Master, PutBatch, RegionConfig, RewriteContext,
    RowWriter, ServerConfig, TableDescriptor,
};
use pga_query::plan::{self, Plan};
use pga_query::rollup::{
    bitmap_len, decode_qualifier, decode_value, fold_buckets, tier_metric, CellDecoder,
    MergedBucket, RollupCell,
};
use pga_query::{QueryEngine, QueryEngineConfig, RollupCompactor, RollupWriter};
use pga_tsdb::{
    Aggregator, DataPoint, KeyCodec, KeyCodecConfig, QueryFilter, TimeSeries, Tsd, TsdConfig,
    UidTable,
};

/// The parent's merge of one `(series, bucket)`: sort by `(writer,
/// generation)`, then fold.
fn merge_cells(cells: &mut [RollupCell]) -> Option<MergedBucket> {
    if cells.is_empty() {
        return None;
    }
    cells.sort_by_key(|c| (c.writer, c.gen));
    let mut seen = vec![0u8; cells[0].bitmap.len()];
    let mut merged = MergedBucket {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
        count: 0,
        tainted: false,
    };
    for c in cells.iter() {
        if c.bitmap.len() != seen.len() {
            merged.tainted = true;
            continue;
        }
        for (s, b) in seen.iter_mut().zip(&c.bitmap) {
            if *s & *b != 0 {
                merged.tainted = true;
            }
            *s |= *b;
        }
        merged.min = merged.min.min(c.min);
        merged.max = merged.max.max(c.max);
        merged.sum += c.sum;
        merged.count += c.count;
    }
    Some(merged)
}

/// The parent's per-bucket cells: version resolution by sort + dedup,
/// then an owned decoded cell per scanned cell in a map per bucket.
fn parent_buckets(
    codec: &KeyCodec,
    tier: u64,
    cells: &[KeyValue],
) -> BTreeMap<(u32, u64), Vec<RollupCell>> {
    let mut cells = cells.to_vec();
    cells.sort();
    cells.dedup_by(|a, b| a.row == b.row && a.qualifier == b.qualifier);
    let mut per_bucket: BTreeMap<(u32, u64), Vec<RollupCell>> = BTreeMap::new();
    let mut decoder = CellDecoder::new(codec, tier);
    for kv in &cells {
        if let Some(cell) = decoder.decode(kv) {
            per_bucket
                .entry((cell.series.id(), cell.bucket))
                .or_default()
                .push(cell);
        }
    }
    per_bucket
}

type Bits = (u64, u64, u64, u64, bool);

fn bits(m: &MergedBucket) -> Bits {
    (
        m.min.to_bits(),
        m.max.to_bits(),
        m.sum.to_bits(),
        m.count,
        m.tainted,
    )
}

const TIER: u64 = 60;
const SERIES: &[&[(&str, &str)]] = &[
    &[("unit", "0"), ("sensor", "1")],
    &[("unit", "0"), ("sensor", "2")],
    &[("unit", "1"), ("sensor", "1")],
];

fn codec() -> KeyCodec {
    KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: 4,
            row_span_secs: 3600,
        },
        UidTable::new(),
    )
}

/// One generated cell: `(kind, series, hour, bucket, writer, generation,
/// version, value, count, bits)`. Kinds 0–2 are a malformed value, a
/// raw-format 2-byte qualifier and a row of an unknown series.
type CellSpec = (
    (u8, usize, u64, u64),
    (u8, usize, u64),
    (f64, u64, (u8, u8)),
);

const GENERATIONS: [u8; 4] = [0, 1, 254, 255];

fn cell(codec: &KeyCodec, spec: &CellSpec) -> KeyValue {
    let &((kind, series, hour, bucket), (writer, gen, version), (v, count, (a, b))) = spec;
    let shadow = tier_metric(TIER, "energy");
    let mut row = codec.row_key(&shadow, SERIES[series], hour * 3600).to_vec();
    if kind == 2 {
        // Tag UIDs nobody assigned: the row decodes to no series.
        for byte in &mut row[8..] {
            *byte = 0xEE;
        }
    }
    let offset = (bucket * TIER) as u16;
    let qualifier = if kind == 1 {
        offset.to_be_bytes().to_vec()
    } else {
        encode_qualifier(offset, writer, GENERATIONS[gen]).to_vec()
    };
    let mut bitmap = vec![0u8; bitmap_len(TIER)];
    for bit in [a, b] {
        bitmap[bit as usize / 8] |= 1 << (bit % 8);
    }
    let mut value = encode_value(v - 1.5, v + 2.25, v * count as f64, count, &bitmap).to_vec();
    if kind == 0 {
        value.pop();
    }
    let start = hour * 3600 + bucket * TIER;
    KeyValue::new(row, qualifier, start * 1000 + count + version, value)
}

/// The cells of `specs` as a store holds them: one per `(row, qualifier,
/// version)`.
fn stored(codec: &KeyCodec, specs: &[CellSpec]) -> Vec<KeyValue> {
    let mut cells: Vec<KeyValue> = specs.iter().map(|s| cell(codec, s)).collect();
    cells.sort();
    cells.dedup_by(|a, b| (*a).cmp(b).is_eq());
    cells
}

fn cell_specs() -> impl Strategy<Value = Vec<CellSpec>> {
    let spec = (
        (0u8..12, 0..SERIES.len(), 0u64..2, 0u64..4),
        (0u8..2, 0..GENERATIONS.len(), 0u64..3),
        (-50.0f64..50.0, 1u64..60, (0u8..60, 0u8..60)),
    );
    proptest::collection::vec(spec, 1..120)
}

/// The parent's compactor: newest version per qualifier grouped by offset
/// in a hash map, every group decoded, sorted and merged through
/// [`merge_cells`], untainted groups of two or more folded into one cell.
fn parent_rewrite_row(codec: &KeyCodec, tier: u64, cells: &[KeyValue]) -> Option<Vec<KeyValue>> {
    let mut buckets: HashMap<u16, Vec<&KeyValue>> = HashMap::new();
    let mut passthrough: Vec<KeyValue> = Vec::new();
    let mut last_qual: Option<&[u8]> = None;
    for cell in cells {
        let newest = last_qual != Some(&cell.qualifier[..]);
        last_qual = Some(&cell.qualifier[..]);
        if !newest {
            continue;
        }
        match decode_qualifier(&cell.qualifier) {
            Some((offset, _, _)) if decode_value(tier, &cell.value).is_some() => {
                buckets.entry(offset).or_default().push(cell);
            }
            _ => passthrough.push(cell.clone()),
        }
    }
    let mut out = passthrough;
    let mut changed = false;
    let mut decoder = CellDecoder::new(codec, tier);
    let mut offsets: Vec<u16> = buckets.keys().copied().collect();
    offsets.sort_unstable();
    for offset in offsets {
        let group = &buckets[&offset];
        let mut decoded: Vec<(&KeyValue, RollupCell)> = Vec::new();
        for &kv in group {
            let Some(cell) = decoder.decode(kv) else {
                decoded.clear();
                break;
            };
            decoded.push((kv, cell));
        }
        if decoded.len() < 2 {
            out.extend(group.iter().map(|&kv| kv.clone()));
            continue;
        }
        decoded.sort_by_key(|(_, c)| (c.writer, c.gen));
        let mut cells_only: Vec<RollupCell> = decoded.iter().map(|(_, c)| c.clone()).collect();
        let merged = merge_cells(&mut cells_only).unwrap();
        if merged.tainted {
            out.extend(group.iter().map(|&kv| kv.clone()));
            continue;
        }
        let mut bitmap = vec![0u8; bitmap_len(tier)];
        for (_, c) in &decoded {
            for (b, cb) in bitmap.iter_mut().zip(&c.bitmap) {
                *b |= *cb;
            }
        }
        let (first_kv, first) = &decoded[0];
        out.push(KeyValue {
            row: first_kv.row.clone(),
            qualifier: encode_qualifier(offset, first.writer, first.gen),
            timestamp: first.bucket * 1000 + merged.count,
            value: encode_value(merged.min, merged.max, merged.sum, merged.count, &bitmap),
        });
        changed = true;
    }
    changed.then_some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_buckets_equal_the_parents_by_bits(specs in cell_specs()) {
        let codec = codec();
        let cells = stored(&codec, &specs);
        let model: BTreeMap<(u32, u64), Bits> = parent_buckets(&codec, TIER, &cells)
            .into_iter()
            .map(|(key, mut group)| (key, bits(&merge_cells(&mut group).unwrap())))
            .collect();
        let mut folded: BTreeMap<(u32, u64), Bits> = BTreeMap::new();
        fold_buckets(&codec, TIER, &cells, |series, bucket, merged| {
            let repeat = folded.insert((series.id(), bucket), bits(merged));
            assert!(repeat.is_none(), "bucket {bucket} merged twice");
        });
        prop_assert_eq!(folded, model);
    }

    #[test]
    fn the_compactor_writes_the_parents_bytes(specs in cell_specs(), series in 0..SERIES.len()) {
        let codec = codec();
        let compactor = RollupCompactor::new(codec.clone(), None);
        // One row, as compaction offers it: merged in order, superseded
        // versions included.
        let cells = stored(&codec, &specs);
        let row = codec.row_key(&tier_metric(TIER, "energy"), SERIES[series], 0);
        let cells: Vec<KeyValue> = cells.into_iter().filter(|kv| kv.row == row).collect();
        let ctx = RewriteContext {
            row: &row,
            drop_sealed_overlap: false,
        };
        let mut out = PutBatch::new();
        let replaced =
            compactor.rewrite_row(&ctx, &cells.clone().into(), &mut RowWriter::new(&row, &mut out));
        let by_bytes = |mut v: Vec<KeyValue>| {
            v.sort_by(|a, b| a.cmp(b).then_with(|| a.value.cmp(&b.value)));
            v
        };
        prop_assert_eq!(
            replaced.then(|| out.into_kvs()).map(by_bytes),
            parent_rewrite_row(&codec, TIER, &cells).map(by_bytes)
        );
    }
}

/// Per-window aggregate state, as the parent's executor kept it.
#[derive(Clone, Copy)]
struct WindowAcc {
    min: f64,
    max: f64,
    sum: f64,
    count: u64,
    tainted: bool,
}

const EMPTY: WindowAcc = WindowAcc {
    min: f64::INFINITY,
    max: f64::NEG_INFINITY,
    sum: 0.0,
    count: 0,
    tainted: false,
};

fn finish(acc: &WindowAcc, agg: Aggregator) -> f64 {
    match agg {
        Aggregator::Avg => acc.sum / acc.count as f64,
        Aggregator::Sum => acc.sum,
        Aggregator::Min => acc.min,
        Aggregator::Max => acc.max,
        Aggregator::Count => acc.count as f64,
    }
}

/// The parent's raw assembly (no corrupt blocks on this store): columns
/// per codec-order tags, canonicalized, kept inside `windows`.
fn assemble(
    codec: &KeyCodec,
    cells: &[KeyValue],
    filter: &QueryFilter,
    windows: &[(u64, u64)],
) -> BTreeMap<Vec<(String, String)>, Vec<DataPoint>> {
    let (Some(&(lo, _)), Some(&(_, hi))) = (windows.first(), windows.last()) else {
        return BTreeMap::new();
    };
    let mut columns = BTreeMap::new();
    columns_model::assemble_columns(codec, cells, filter, lo, hi, &mut columns).unwrap();
    let mut series = BTreeMap::new();
    for (tags, (timestamps, values)) in columns {
        let (timestamps, values) = columns_model::canonicalize_columns(timestamps, values);
        let points: Vec<DataPoint> = timestamps
            .iter()
            .zip(&values)
            .filter(|&(&ts, _)| windows.iter().any(|&(from, to)| from <= ts && ts <= to))
            .map(|(&timestamp, &value)| DataPoint { timestamp, value })
            .collect();
        if !points.is_empty() {
            series.insert(tags, points);
        }
    }
    series
}

/// The parent's `execute_rollup` over blocking scans: sort, dedup, decode,
/// a map per bucket, `merge_cells`, maps of windows, the tainted-window
/// recompute, the raw patches through `TimeSeries::downsample`, and a map
/// per series of the answer. Also returns how many windows were tainted.
#[allow(clippy::too_many_arguments)]
fn parent_rollup_answer(
    client: &Client,
    codec: &KeyCodec,
    metric: &str,
    filter: &QueryFilter,
    start: u64,
    end: u64,
    d: u64,
    agg: Aggregator,
) -> (Vec<TimeSeries>, usize) {
    let Plan::Rollup { tier } = plan::choose(&[60, 600], Some(d)) else {
        panic!("{d}s is served from a tier");
    };
    let words = codec.row_words(filter).unwrap();
    let ru_lo = start.div_ceil(d) * d;
    let cutoff = (end + 1).saturating_sub(2 * tier);
    let ru_hi = cutoff - cutoff % d;
    assert!(ru_lo < ru_hi, "the range holds a rollup window");
    let scan = |metric: &str, salt: u8, from: u64, to: u64| -> Vec<KeyValue> {
        codec
            .scan_segments(salt, metric, from, to)
            .into_iter()
            .flat_map(|s| {
                client
                    .scan_spec(&s.with_words(words.clone()))
                    .unwrap()
                    .to_vec()
            })
            .collect()
    };
    let mut patches = Vec::new();
    if start < ru_lo {
        patches.push((start, ru_lo - 1));
    }
    if ru_hi <= end {
        patches.push((ru_hi, end));
    }
    let (mut rollup_cells, mut raw_cells) = (Vec::new(), Vec::new());
    for salt in codec.salt_range() {
        rollup_cells.extend(scan(&tier_metric(tier, metric), salt, ru_lo, ru_hi - 1));
        for &(from, to) in &patches {
            raw_cells.extend(scan(metric, salt, from, to));
        }
    }
    rollup_cells.sort();
    rollup_cells.dedup_by(|a, b| a.row == b.row && a.qualifier == b.qualifier);
    let mut per_bucket: BTreeMap<(u32, u64), Vec<RollupCell>> = BTreeMap::new();
    let mut decoder = CellDecoder::new(codec, tier);
    for kv in &rollup_cells {
        let Some(cell) = decoder.decode(kv) else {
            continue;
        };
        if cell.bucket < ru_lo || cell.bucket + tier > ru_hi {
            continue;
        }
        if filter.matches_pairs(cell.series.tags()) {
            per_bucket
                .entry((cell.series.id(), cell.bucket))
                .or_default()
                .push(cell);
        }
    }
    type SeriesWindows = BTreeMap<u32, (Arc<pga_tsdb::Series>, BTreeMap<u64, WindowAcc>)>;
    let mut by_series: SeriesWindows = BTreeMap::new();
    for ((id, bucket), mut cells) in per_bucket {
        let m = merge_cells(&mut cells).unwrap();
        let acc = by_series
            .entry(id)
            .or_insert_with(|| (cells[0].series.clone(), BTreeMap::new()))
            .1
            .entry(bucket - bucket % d)
            .or_insert(EMPTY);
        acc.min = acc.min.min(m.min);
        acc.max = acc.max.max(m.max);
        acc.sum += m.sum;
        acc.count += m.count;
        acc.tainted |= m.tainted;
    }
    let mut windows: BTreeMap<Vec<(String, String)>, BTreeMap<u64, WindowAcc>> = by_series
        .into_values()
        .map(|(series, accs)| (series.tags().to_vec(), accs))
        .collect();
    let mut tainted: Vec<u64> = windows
        .values()
        .flat_map(|m| m.iter().filter(|(_, a)| a.tainted).map(|(&w, _)| w))
        .collect();
    let tainted_windows = tainted.len();
    tainted.sort_unstable();
    tainted.dedup();
    for w in tainted {
        let cells: Vec<KeyValue> = codec
            .salt_range()
            .flat_map(|salt| scan(metric, salt, w, w + d - 1))
            .collect();
        let grouped = assemble(codec, &cells, filter, &[(w, w + d - 1)]);
        for (tags, accs) in windows.iter_mut() {
            if !accs.get(&w).is_some_and(|a| a.tainted) {
                continue;
            }
            match grouped.get(tags) {
                Some(points) => {
                    let mut fresh = EMPTY;
                    for p in points {
                        fresh.min = fresh.min.min(p.value);
                        fresh.max = fresh.max.max(p.value);
                        fresh.sum += p.value;
                        fresh.count += 1;
                    }
                    accs.insert(w, fresh);
                }
                None => {
                    accs.remove(&w);
                }
            }
        }
    }
    let mut out: BTreeMap<Vec<(String, String)>, BTreeMap<u64, f64>> = BTreeMap::new();
    for (tags, points) in assemble(codec, &raw_cells, filter, &patches) {
        let ds = TimeSeries {
            metric: metric.to_string(),
            tags: BTreeMap::new(),
            points,
        }
        .downsample(d, agg);
        let entry = out.entry(tags).or_default();
        for p in ds.points {
            entry.insert(p.timestamp, p.value);
        }
    }
    for (tags, accs) in windows {
        let entry = out.entry(tags).or_default();
        for (w, acc) in accs {
            entry.insert(w, finish(&acc, agg));
        }
    }
    let series = out
        .into_iter()
        .filter(|(_, points)| !points.is_empty())
        .map(|(tags, points)| TimeSeries {
            metric: metric.to_string(),
            tags: tags.into_iter().collect(),
            points: points
                .into_iter()
                .map(|(timestamp, value)| DataPoint { timestamp, value })
                .collect(),
        })
        .collect();
    (series, tainted_windows)
}

/// Two TSDs, each with its own rollup writer, ingest one fleet round-robin
/// with mid-bucket flushes (re-opened buckets, several generations) and
/// one duplicated delivery (tainted windows); the engine's rollup answers
/// equal the parent's path on that store, bit for bit, for every
/// aggregator over aligned and unaligned ranges and three filters.
#[test]
fn rollup_answers_equal_the_parents_path_on_one_store() {
    let codec = codec();
    let mut master = Master::bootstrap(3, ServerConfig::default(), Coordinator::new(10_000), 0);
    master.create_table(&TableDescriptor {
        name: "tsdb".into(),
        split_points: codec.split_points(),
        region_config: RegionConfig::default(),
    });
    let tsds: Vec<Tsd> = (0..2u8)
        .map(|writer| {
            let tsd = Tsd::new(
                codec.clone(),
                Client::connect(&master),
                TsdConfig::default(),
            );
            tsd.set_observer(Arc::new(RollupWriter::new(
                codec.clone(),
                vec![60, 600],
                writer,
            )));
            tsd
        })
        .collect();
    let units = ["0", "1"];
    let sensors = ["1", "2", "3"];
    let tags: Vec<[(&str, &str); 2]> = units
        .iter()
        .flat_map(|u| sensors.iter().map(move |s| [("unit", *u), ("sensor", *s)]))
        .collect();
    let value = |ts: u64, i: usize| ((ts * 7 + i as u64 * 13) % 101) as f64 * 0.37 - 11.0;
    for ts in 0..7_200u64 {
        let batch: Vec<_> = tags
            .iter()
            .enumerate()
            .map(|(i, t)| (&t[..], ts, value(ts, i)))
            .collect();
        let writer = &tsds[(ts / 7 % 2) as usize];
        writer.put_batch("energy", &batch).unwrap();
        if ts % 97 == 0 {
            writer.flush_observer().unwrap();
        }
        // A retried batch lands twice: on the other writer too.
        if (1_000..1_030).contains(&ts) {
            tsds[(ts / 7 % 2) as usize ^ 1]
                .put_batch("energy", &batch)
                .unwrap();
        }
    }
    for tsd in &tsds {
        tsd.flush_observer().unwrap();
    }
    let engine = QueryEngine::new(
        codec.clone(),
        Client::connect(&master),
        QueryEngineConfig::default(),
    );
    let client = Client::connect(&master);
    let filters = [
        QueryFilter::any(),
        QueryFilter::any().with("unit", "1"),
        QueryFilter::any().with("sensor", "2"),
    ];
    let mut tainted = 0;
    for agg in [
        Aggregator::Avg,
        Aggregator::Sum,
        Aggregator::Min,
        Aggregator::Max,
        Aggregator::Count,
    ] {
        for (start, end, d) in [
            (0, 7_199, 60),
            (130, 7_100, 60),
            (59, 6_999, 300),
            (0, 7_199, 1_200),
        ] {
            for filter in &filters {
                let got = engine.query("energy", filter, start, end, Some((d, agg)));
                assert!(matches!(got.plan, Plan::Rollup { .. }));
                assert!(got.partial.is_none());
                let (model, tainted_windows) =
                    parent_rollup_answer(&client, &codec, "energy", filter, start, end, d, agg);
                tainted += tainted_windows;
                assert_eq!(got.series.len(), model.len());
                for (g, m) in got.series.iter().zip(&model) {
                    assert_eq!(g.tags, m.tags);
                    let g_bits: Vec<_> = g
                        .points
                        .iter()
                        .map(|p| (p.timestamp, p.value.to_bits()))
                        .collect();
                    let m_bits: Vec<_> = m
                        .points
                        .iter()
                        .map(|p| (p.timestamp, p.value.to_bits()))
                        .collect();
                    assert_eq!(g_bits, m_bits, "{agg:?} [{start}, {end}] {d}s {filter:?}");
                }
            }
        }
    }
    assert!(tainted > 0, "the duplicated delivery tainted windows");
    master.shutdown();
}
