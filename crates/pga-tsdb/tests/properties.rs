//! Property tests for the TSDB layer: codec roundtrips, salt stability,
//! put/query equivalence against a naive model, block-codec round-trips
//! over adversarial series, corruption/truncation behaviour, and the
//! sealed-block vs legacy-scan differential.

#[path = "legacy/mod.rs"]
mod legacy;

use std::collections::BTreeMap;

use proptest::prelude::*;

use legacy::query_legacy;
use pga_cluster::coordinator::Coordinator;
use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
use pga_tsdb::uid::UidKind;
use pga_tsdb::{
    decode_block, encode_block, is_block_qualifier, BlockError, KeyCodec, KeyCodecConfig,
    QueryFilter, TimeSeries, Tsd, TsdConfig, TsdError, Uid, UidTable,
};

fn codec(buckets: u8) -> KeyCodec {
    KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: buckets,
            row_span_secs: 3600,
        },
        UidTable::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrip_any_point(
        unit in 0u32..10_000,
        sensor in 0u32..10_000,
        ts in 0u64..100_000_000,
        value in -1e12f64..1e12,
        buckets in 1u8..32,
    ) {
        let c = codec(buckets);
        let u = unit.to_string();
        let s = sensor.to_string();
        let tags = [("unit", u.as_str()), ("sensor", s.as_str())];
        let row = c.row_key("energy", &tags, ts);
        let point = c.decode(&row, &c.qualifier(ts), &c.value(value)).unwrap();
        prop_assert_eq!(point.metric, "energy");
        prop_assert_eq!(point.timestamp, ts);
        prop_assert_eq!(point.value, value);
        let tag_map: BTreeMap<_, _> = point.tags.into_iter().collect();
        prop_assert_eq!(tag_map.get("unit").map(String::as_str), Some(u.as_str()));
        prop_assert_eq!(tag_map.get("sensor").map(String::as_str), Some(s.as_str()));
    }

    #[test]
    fn salt_is_stable_over_time_and_within_range(
        unit in 0u32..1000,
        sensor in 0u32..1000,
        t1 in 0u64..10_000_000,
        t2 in 0u64..10_000_000,
        buckets in 1u8..32,
    ) {
        let c = codec(buckets);
        let u = unit.to_string();
        let s = sensor.to_string();
        let tags = [("unit", u.as_str()), ("sensor", s.as_str())];
        let r1 = c.row_key("energy", &tags, t1);
        let r2 = c.row_key("energy", &tags, t2);
        prop_assert_eq!(r1[0], r2[0], "series hops buckets");
        prop_assert!(r1[0] < buckets);
    }

    #[test]
    fn row_keys_order_by_time_within_series(
        unit in 0u32..100,
        hours in proptest::collection::vec(0u64..10_000, 2..8),
        buckets in 1u8..8,
    ) {
        let c = codec(buckets);
        let u = unit.to_string();
        let tags = [("unit", u.as_str()), ("sensor", "0")];
        let mut sorted = hours.clone();
        sorted.sort_unstable();
        let keys: Vec<_> = sorted.iter().map(|h| c.row_key("energy", &tags, h * 3600)).collect();
        for w in keys.windows(2) {
            prop_assert!(w[0] <= w[1], "later hour must not sort earlier");
        }
    }
}

/// Adversarial series strategy: timestamps from the full `u64` range (so
/// out-of-order and duplicate timestamps, huge deltas and wrap-adjacent
/// values all occur) paired with values drawn from raw bit patterns (so
/// NaNs with arbitrary payloads, ±Inf, -0.0 and subnormals all occur).
fn adversarial_series() -> impl Strategy<Value = (Vec<u64>, Vec<f64>)> {
    proptest::collection::vec(
        (
            prop_oneof![
                any::<u64>(),
                0u64..10_000,                           // realistic small timestamps
                (0u64..100).prop_map(|d| u64::MAX - d), // wrap-adjacent
            ],
            any::<u64>().prop_map(f64::from_bits),
        ),
        1..300,
    )
    .prop_map(|pairs| pairs.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Satellite 1: encode→decode is lossless for any input series —
    /// sequence-preserving, bit-exact values, exact timestamps.
    #[test]
    fn block_roundtrip_is_lossless((ts, vals) in adversarial_series()) {
        let encoded = encode_block(&ts, &vals).unwrap();
        let decoded = decode_block(&encoded).unwrap();
        prop_assert_eq!(&decoded.timestamps, &ts);
        prop_assert_eq!(decoded.values.len(), vals.len());
        for (a, b) in decoded.values.iter().zip(&vals) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "value bits must survive");
        }
        prop_assert_eq!(decoded.min_ts, ts.iter().copied().min().unwrap());
        prop_assert_eq!(decoded.max_ts, ts.iter().copied().max().unwrap());
    }

    /// Satellite 2a: every prefix truncation decodes to a typed error —
    /// no panic, no silently shortened answer.
    #[test]
    fn block_truncation_never_panics((ts, vals) in adversarial_series()) {
        let encoded = encode_block(&ts, &vals).unwrap();
        // Truncation points: all short-header cases plus a spread through
        // the payload (checking every length would be quadratic).
        for len in (0..encoded.len()).step_by(1 + encoded.len() / 64) {
            let r = decode_block(&encoded[..len]);
            prop_assert!(r.is_err(), "prefix of {len}/{} bytes decoded", encoded.len());
        }
    }

    /// Satellite 2b: any single-byte flip anywhere in the block is caught
    /// by the whole-buffer CRC (or an earlier typed header check).
    #[test]
    fn block_byte_flip_is_detected(
        (ts, vals) in adversarial_series(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let encoded = encode_block(&ts, &vals).unwrap();
        let pos = (pos_seed % encoded.len() as u64) as usize;
        let mut corrupt = encoded.clone();
        corrupt[pos] ^= flip;
        match decode_block(&corrupt) {
            Ok(_) => prop_assert!(false, "flip at {pos} went undetected"),
            Err(
                BlockError::CrcMismatch { .. }
                | BlockError::BadMagic
                | BlockError::UnsupportedVersion(_)
                | BlockError::BadCount(_)
                | BlockError::Truncated { .. }
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }
}

#[test]
fn block_roundtrip_at_max_size() {
    let n = pga_tsdb::block::MAX_BLOCK_POINTS;
    let ts: Vec<u64> = (0..n as u64).map(|i| i * 7).collect();
    let vals: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let encoded = encode_block(&ts, &vals).unwrap();
    let decoded = decode_block(&encoded).unwrap();
    assert_eq!(decoded.timestamps.len(), n);
    assert_eq!(decoded.timestamps, ts);
    assert_eq!(decoded.values, vals);
    // One past the cap is rejected up front.
    let ts2: Vec<u64> = (0..=n as u64).collect();
    let vals2 = vec![0.0; n + 1];
    assert!(matches!(
        encode_block(&ts2, &vals2),
        Err(BlockError::BadCount(_))
    ));
}

/// A timestamp in the first three row-hours: anywhere, or within ten
/// seconds of a row-hour seam.
fn seam_heavy_ts() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => 0u64..10_800,
        1 => (1u64..3, 0u64..20).prop_map(|(hour, d)| hour * 3600 - 10 + d),
    ]
}

/// A query window `[a, b]` over those hours: any two such timestamps, one
/// instant, inside a single row-hour, or from the first hour to the third
/// (so a whole row-hour lies between head and tail).
fn window() -> impl Strategy<Value = (u64, u64)> {
    prop_oneof![
        3 => (seam_heavy_ts(), seam_heavy_ts()).prop_map(|(a, b)| (a.min(b), a.max(b))),
        1 => seam_heavy_ts().prop_map(|t| (t, t)),
        1 => (0u64..3, 0u64..3600, 0u64..3600)
            .prop_map(|(hour, a, b)| (hour * 3600 + a.min(b), hour * 3600 + a.max(b))),
        1 => (0u64..3600, 7200u64..10_800),
    ]
}

/// `(unit, sensor) → timestamp → value bits`: what a store should hold,
/// last write winning. Bits, so that NaN payloads compare.
type Model = BTreeMap<(u32, u32), BTreeMap<u64, u64>>;

/// `model` clipped to `[a, b]`, series with no point inside dropped.
fn clip(model: &Model, (a, b): (u64, u64)) -> Model {
    model
        .iter()
        .map(|(k, pts)| (*k, pts.range(a..=b).map(|(&t, &v)| (t, v)).collect()))
        .filter(|(_, pts): &(_, BTreeMap<u64, u64>)| !pts.is_empty())
        .collect()
}

/// A query answer in [`Model`] form; `None` unless every series has its
/// points strictly ascending.
fn answer(series: &[TimeSeries]) -> Option<Model> {
    let mut out = Model::new();
    for s in series {
        let key = (
            s.tags.get("unit")?.parse().ok()?,
            s.tags.get("sensor")?.parse().ok()?,
        );
        if !s.points.windows(2).all(|w| w[0].timestamp < w[1].timestamp) {
            return None;
        }
        let points = s.points.iter().map(|p| (p.timestamp, p.value.to_bits()));
        out.insert(key, points.collect());
    }
    (out.len() == series.len()).then_some(out)
}

proptest! {
    // The full-stack model check is heavier: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sub-windows (ISSUE 19): the region servers return only the cells a
    /// window names, so for windows inside one row-hour, straddling one
    /// seam or two, covering a whole middle hour, or one instant wide, the
    /// answer must be the store's contents clipped to the window — while
    /// everything is raw (where the whole-row reference path must agree),
    /// after sealing, and with late raw writes over sealed rows, before
    /// and after they are sealed in turn.
    #[test]
    fn windowed_query_equals_store_clipped_to_the_window(
        points in proptest::collection::vec(
            (0u32..2, 0u32..3, seam_heavy_ts(), any::<u64>()),
            1..120
        ),
        late in proptest::collection::vec(
            (0u32..2, 0u32..3, seam_heavy_ts(), any::<u64>()),
            0..10
        ),
        windows in proptest::collection::vec(window(), 8),
        buckets in 1u8..4,
    ) {
        let c = codec(buckets);
        let coord = Coordinator::new(60_000);
        let mut master = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        master.create_table(&TableDescriptor {
            name: "t".into(),
            split_points: c.split_points(),
            region_config: RegionConfig::default(),
        });
        let tsd = Tsd::new(c, Client::connect(&master), TsdConfig::default());
        master.set_compaction_rewriter(tsd.block_rewriter());
        let mut model = Model::new();
        let put = |batch: &[(u32, u32, u64, u64)], model: &mut Model| {
            for &(unit, sensor, ts, bits) in batch {
                let (u, s) = (unit.to_string(), sensor.to_string());
                tsd.put("energy", &[("unit", &u), ("sensor", &s)], ts, f64::from_bits(bits)).unwrap();
                model.entry((unit, sensor)).or_default().insert(ts, bits);
            }
        };
        let check = |model: &Model, stage: &str| {
            for &w in &windows {
                let got = tsd.query("energy", &QueryFilter::any(), w.0, w.1).unwrap();
                prop_assert_eq!(answer(&got), Some(clip(model, w)), "{} window {:?}", stage, w);
            }
        };
        put(&points, &mut model);
        check(&model, "raw");
        for &w in &windows {
            let legacy = query_legacy(&tsd, "energy", &QueryFilter::any(), w.0, w.1).unwrap();
            prop_assert_eq!(answer(&legacy), Some(clip(&model, w)), "legacy window {:?}", w);
        }
        tsd.compact_now().unwrap();
        check(&model, "sealed");
        put(&late, &mut model);
        check(&model, "late raw over sealed");
        tsd.compact_now().unwrap();
        check(&model, "resealed");
        master.shutdown();
    }

    #[test]
    fn put_query_equals_naive_model(
        points in proptest::collection::vec(
            (0u32..4, 0u32..4, 0u64..8000, -100.0f64..100.0),
            1..60
        ),
        buckets in 1u8..6,
    ) {
        let c = codec(buckets);
        let coord = Coordinator::new(60_000);
        let mut master = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        master.create_table(&TableDescriptor {
            name: "t".into(),
            split_points: c.split_points(),
            region_config: RegionConfig::default(),
        });
        let tsd = Tsd::new(c, Client::connect(&master), TsdConfig::default());
        // Model: (unit, sensor) → ts → value (last write wins).
        let mut model: BTreeMap<(u32, u32), BTreeMap<u64, f64>> = BTreeMap::new();
        for &(unit, sensor, ts, value) in &points {
            let u = unit.to_string();
            let s = sensor.to_string();
            tsd.put("energy", &[("unit", &u), ("sensor", &s)], ts, value).unwrap();
            model.entry((unit, sensor)).or_default().insert(ts, value);
        }
        let series = tsd.query("energy", &QueryFilter::any(), 0, 10_000).unwrap();
        prop_assert_eq!(series.len(), model.len(), "series count");
        for s in &series {
            let unit: u32 = s.tags.get("unit").unwrap().parse().unwrap();
            let sensor: u32 = s.tags.get("sensor").unwrap().parse().unwrap();
            let m = &model[&(unit, sensor)];
            prop_assert_eq!(s.points.len(), m.len(), "points for {}/{}", unit, sensor);
            for p in &s.points {
                prop_assert_eq!(m.get(&p.timestamp).copied(), Some(p.value));
            }
            // Ascending timestamps.
            for w in s.points.windows(2) {
                prop_assert!(w[0].timestamp < w[1].timestamp);
            }
        }
        master.shutdown();
    }

    /// Satellite 3 (storage differential): over any seeded ingest, the
    /// block-path scan after sealing is byte-for-byte equal to the legacy
    /// cell-by-cell decode before sealing — and the legacy path itself
    /// agrees with the block-aware path while everything is still raw.
    #[test]
    fn sealed_scan_equals_legacy_scan(
        points in proptest::collection::vec(
            (0u32..3, 0u32..3, 0u64..8000, any::<u64>().prop_map(f64::from_bits)),
            1..60
        ),
        late in proptest::collection::vec(
            (0u32..3, 0u32..3, 0u64..3600, -10.0f64..10.0),
            0..8
        ),
        buckets in 1u8..4,
    ) {
        let c = codec(buckets);
        let coord = Coordinator::new(60_000);
        let mut master = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        master.create_table(&TableDescriptor {
            name: "t".into(),
            split_points: c.split_points(),
            region_config: RegionConfig::default(),
        });
        let tsd = Tsd::new(c, Client::connect(&master), TsdConfig::default());
        master.set_compaction_rewriter(tsd.block_rewriter());
        for &(unit, sensor, ts, value) in &points {
            let u = unit.to_string();
            let s = sensor.to_string();
            tsd.put("energy", &[("unit", &u), ("sensor", &s)], ts, value).unwrap();
        }
        let legacy_before = query_legacy(&tsd, "energy", &QueryFilter::any(), 0, 10_000).unwrap();
        let block_before = tsd.query("energy", &QueryFilter::any(), 0, 10_000).unwrap();
        prop_assert_eq!(&legacy_before, &block_before, "paths must agree pre-seal");
        tsd.compact_now().unwrap();
        let after = tsd.query("energy", &QueryFilter::any(), 0, 10_000).unwrap();
        prop_assert_eq!(&legacy_before, &after, "sealing must not change answers");
        // Late raw writes into sealed rows override blocks, and survive a
        // second sealing round.
        for &(unit, sensor, ts, value) in &late {
            let u = unit.to_string();
            let s = sensor.to_string();
            tsd.put("energy", &[("unit", &u), ("sensor", &s)], ts, value).unwrap();
        }
        let with_late = tsd.query("energy", &QueryFilter::any(), 0, 10_000).unwrap();
        tsd.compact_now().unwrap();
        let resealed = tsd.query("energy", &QueryFilter::any(), 0, 10_000).unwrap();
        prop_assert_eq!(&with_late, &resealed, "re-seal must fold late writes in place");
        master.shutdown();
    }

    /// Corruption resilience (ISSUE 9): flipping any stored byte of any
    /// sealed block yields exactly one of two outcomes — the exact
    /// pre-corruption answer, or the typed corruption error. Never a
    /// silently wrong answer, never a panic. The fixture runs
    /// unreplicated, so a flip that lands in a queried block cannot be
    /// salvaged and must surface as `TsdError::Corrupt`.
    #[test]
    fn stored_block_byte_flips_never_yield_wrong_answers(
        points in proptest::collection::vec(
            (0u32..3, 0u32..3, 0u64..8000, -1e6f64..1e6),
            10..60
        ),
        pick in any::<u64>(),
        mask in 1u8..=255,
        buckets in 1u8..4,
    ) {
        let c = codec(buckets);
        let coord = Coordinator::new(60_000);
        let mut master = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        master.create_table(&TableDescriptor {
            name: "t".into(),
            split_points: c.split_points(),
            region_config: RegionConfig::default(),
        });
        let tsd = Tsd::new(c, Client::connect(&master), TsdConfig::default());
        master.set_compaction_rewriter(tsd.block_rewriter());
        for &(unit, sensor, ts, value) in &points {
            let u = unit.to_string();
            let s = sensor.to_string();
            tsd.put("energy", &[("unit", &u), ("sensor", &s)], ts, value).unwrap();
        }
        tsd.compact_now().unwrap();
        let truth = tsd.query("energy", &QueryFilter::any(), 0, 10_000).unwrap();
        // XOR `mask` into one stored byte of the `pick`-th sealed block
        // (if any rows sealed — short histories may stay raw).
        let infos = {
            let dir = master.directory();
            let dir = dir.read();
            dir.clone()
        };
        let mut hit = false;
        for info in &infos {
            let Some(server) = master.server(info.server) else { continue };
            let flipped = server.corrupt_region_cell(
                info.id,
                pick,
                &|kv| is_block_qualifier(&kv.qualifier),
                &|value: &mut Vec<u8>| {
                    if value.is_empty() {
                        return;
                    }
                    let idx = (pick as usize) % value.len();
                    value[idx] ^= mask;
                },
            );
            if flipped.is_some() {
                hit = true;
                break;
            }
        }
        match tsd.query("energy", &QueryFilter::any(), 0, 10_000) {
            Ok(answer) => {
                prop_assert!(!hit, "a flipped block in range cannot decode cleanly");
                prop_assert_eq!(&truth, &answer, "untouched store must answer exactly");
            }
            Err(TsdError::Corrupt(_)) => {
                prop_assert!(hit, "typed corruption requires an injected flip");
            }
            Err(e) => {
                prop_assert!(
                    false,
                    "byte flip must yield exact answer or typed corruption, got: {}",
                    e
                );
            }
        }
        master.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The series table (ISSUE 20): the encoder it replaced is the model.
// ---------------------------------------------------------------------------

/// The row-key encoder as it was before the series table: five UID
/// look-ups, a sort and an FNV salt for every call. Kept here, over a UID
/// table of its own, as the model `KeyCodec::row_key` must equal byte for
/// byte — UIDs included, so a put sequence must also assign them in the
/// same order.
fn reference_row_key(
    uids: &UidTable,
    config: KeyCodecConfig,
    metric: &str,
    tags: &[(&str, &str)],
    timestamp: u64,
) -> Vec<u8> {
    let metric_uid = uids.get_or_create(UidKind::Metric, metric);
    let mut tag_uids: Vec<(Uid, Uid)> = tags
        .iter()
        .map(|(k, v)| {
            (
                uids.get_or_create(UidKind::TagKey, k),
                uids.get_or_create(UidKind::TagValue, v),
            )
        })
        .collect();
    tag_uids.sort();
    let base = timestamp - timestamp % config.row_span_secs;
    let mut key = vec![0u8];
    key.extend_from_slice(&metric_uid.0);
    key.extend_from_slice(&(base as u32).to_be_bytes());
    for (k, v) in &tag_uids {
        key.extend_from_slice(&k.0);
        key.extend_from_slice(&v.0);
    }
    if config.salt_buckets > 0 {
        let mut h = 0xcbf29ce484222325u64;
        for &b in key[1..4].iter().chain(key[8..].iter()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        key[0] = (h % config.salt_buckets as u64) as u8;
    }
    key
}

const METRICS: &[&str] = &["energy", "anomaly", "température", "\u{1}ru:60:energy"];
const TAG_KEYS: &[&str] = &["unit", "sensor", "站", "ключ"];
/// Values shared across keys, one that is also a key, one empty.
const TAG_VALUES: &[&str] = &["0", "1", "17", "unit", "值", ""];

/// A name by pool indices: `(metric, [(tag key, tag value)])`, one to four
/// tags, keys distinct or not.
fn name() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (
        0..METRICS.len(),
        proptest::collection::vec((0..TAG_KEYS.len(), 0..TAG_VALUES.len()), 1..=4),
    )
}

fn tag_refs(tags: &[(usize, usize)]) -> Vec<(&'static str, &'static str)> {
    tags.iter()
        .map(|&(k, v)| (TAG_KEYS[k], TAG_VALUES[v]))
        .collect()
}

/// Every order of `items`.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            out.push(tail);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn row_key_equals_the_encoder_it_replaced(
        puts in proptest::collection::vec((name(), 0u64..=u32::MAX as u64, any::<bool>()), 1..40),
        buckets in prop_oneof![Just(0u8), Just(1u8), Just(20u8)],
    ) {
        let c = codec(buckets);
        let reference = UidTable::new();
        for ((metric, tags), ts, reversed) in &puts {
            // Up to the last row a key can hold, and on it.
            let ts = if *reversed { c.max_timestamp() - ts % 7200 } else { ts % (c.max_timestamp() + 1) };
            let mut tags = tag_refs(tags);
            if *reversed {
                tags.reverse();
            }
            let want = reference_row_key(&reference, *c.config(), METRICS[*metric], &tags, ts);
            let got = c.row_key(METRICS[*metric], &tags, ts);
            prop_assert_eq!(&got[..], &want[..], "{} {:?} at {}", METRICS[*metric], tags, ts);
            let (series, base) = c.series_of_row(&got).expect("a row just written");
            prop_assert_eq!(base, ts - ts % 3600);
            prop_assert_eq!(series.id(), c.resolve(METRICS[*metric], &tags).id());
        }
        // The same puts assigned the same UIDs in the same order.
        for (kind, pool) in [
            (UidKind::Metric, METRICS),
            (UidKind::TagKey, TAG_KEYS),
            (UidKind::TagValue, TAG_VALUES),
        ] {
            for name in pool {
                prop_assert_eq!(c.uids().lookup(kind, name), reference.lookup(kind, name));
            }
        }
    }

    #[test]
    fn a_series_is_one_entry_in_every_tag_order_and_ids_are_dense(
        names in proptest::collection::vec(name(), 1..12),
        ts in 0u64..100_000_000,
    ) {
        let c = codec(20);
        let clone = c.clone();
        let mut ids = std::collections::BTreeSet::new();
        for (metric, tags) in &names {
            let tags = tag_refs(tags);
            let first = c.resolve(METRICS[*metric], &tags);
            let row = c.row_key(METRICS[*metric], &tags, ts);
            for order in permutations(&tags) {
                let again = clone.resolve(METRICS[*metric], &order);
                prop_assert_eq!(again.id(), first.id(), "{:?} vs {:?}", order, tags);
                prop_assert_eq!(clone.row_key(METRICS[*metric], &order, ts), row.clone());
            }
            // The entry names the series as `decode_row` does.
            let (metric_name, decoded_tags, _) = c.decode_row(&row).unwrap();
            prop_assert_eq!(first.metric(), metric_name);
            prop_assert_eq!(first.tags(), &decoded_tags[..]);
            ids.insert(first.id());
        }
        // Dense: n series hold the ids 0..n, on the codec and its clone.
        prop_assert_eq!(c.series_count(), ids.len());
        prop_assert_eq!(clone.series_count(), ids.len());
        prop_assert!(ids.iter().copied().eq(0..ids.len() as u32));
    }
}

#[test]
fn threads_racing_a_first_sight_agree_on_one_entry_each() {
    let c = codec(20);
    let sensors: Vec<String> = (0..64).map(|s| s.to_string()).collect();
    let barrier = std::sync::Barrier::new(8);
    let seen: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|t| {
                let (c, sensors, barrier) = (&c, &sensors, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Half the threads spell the tags the other way round.
                    let ids = sensors.iter().map(|s| {
                        let mut tags = [("unit", "3"), ("sensor", s.as_str())];
                        if t % 2 == 1 {
                            tags.reverse();
                        }
                        c.resolve("energy", &tags).id()
                    });
                    ids.collect()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(c.series_count(), 64);
    for ids in &seen {
        assert_eq!(ids, &seen[0], "every thread got the same id per series");
    }
    let mut ids = seen[0].clone();
    ids.sort_unstable();
    assert!(ids.into_iter().eq(0..64), "64 ids, each once");
}

fn stack(c: KeyCodec, config: TsdConfig) -> (Master, Tsd) {
    let coord = Coordinator::new(60_000);
    let mut master = Master::bootstrap(2, ServerConfig::default(), coord, 0);
    master.create_table(&TableDescriptor {
        name: "t".into(),
        split_points: c.split_points(),
        region_config: RegionConfig::default(),
    });
    let tsd = Tsd::new(c, Client::connect(&master), config);
    (master, tsd)
}

#[test]
fn sealing_compaction_preserves_query_results() {
    let (mut m, t) = stack(codec(4), TsdConfig::default());
    m.set_compaction_rewriter(t.block_rewriter());
    let tags = [("unit", "1"), ("sensor", "a")];
    // Two full rows plus a partial third (watermark sits inside it).
    for ts in (0..9000u64).step_by(600) {
        t.put("energy", &tags, ts, (ts as f64).sin()).unwrap();
    }
    let before = t.query("energy", &QueryFilter::any(), 0, 20_000).unwrap();
    let legacy_before = query_legacy(&t, "energy", &QueryFilter::any(), 0, 20_000).unwrap();
    assert_eq!(before, legacy_before, "paths agree pre-seal");
    t.compact_now().unwrap();
    let after = t.query("energy", &QueryFilter::any(), 0, 20_000).unwrap();
    assert_eq!(before, after, "sealing must not change query answers");
    // The legacy path cannot see sealed blocks — rows 0 and 1 are gone
    // from it, proving the seal physically replaced raw cells.
    let legacy_after = query_legacy(&t, "energy", &QueryFilter::any(), 0, 20_000).unwrap();
    let legacy_pts: usize = legacy_after.iter().map(|s| s.points.len()).sum();
    let all_pts: usize = after.iter().map(|s| s.points.len()).sum();
    assert!(
        legacy_pts < all_pts,
        "expected sealed rows to vanish from the legacy path ({legacy_pts} vs {all_pts})"
    );
    m.shutdown();
}

#[test]
fn asking_for_a_name_nobody_wrote_creates_no_entry() {
    let (master, tsd) = stack(codec(4), TsdConfig::default());
    tsd.put("energy", &[("unit", "1")], 10, 1.0).unwrap();
    let c = tsd.codec();
    let before = c.series_count();
    assert_eq!(before, 1);
    assert!(tsd
        .query("nope", &QueryFilter::any(), 0, 100)
        .unwrap()
        .is_empty());
    let unit_9 = QueryFilter::any().with("unit", "9").with("absent", "x");
    assert!(tsd.query("energy", &unit_9, 0, 100).unwrap().is_empty());
    assert!(c.scan_segments(0, "nope", 0, 100).is_empty());
    assert!(c.scan_range(0, "nope", 0, 100).0.is_empty());
    assert!(c.uids().lookup(UidKind::Metric, "nope").is_none());
    assert!(c.series_of_row(&[0; 3]).is_none());
    assert!(c.series_of_row(&[0, 9, 9, 9, 0, 0, 0, 0]).is_none());
    assert_eq!(c.series_count(), before);
    // A read that finds the series' rows does not add one either.
    assert_eq!(
        tsd.query("energy", &QueryFilter::any(), 0, 100)
            .unwrap()
            .len(),
        1
    );
    assert_eq!(c.series_count(), before);
    master.shutdown();
}

/// The row slot is kept per series, not per tag set: two metrics with
/// equal tags written alternately inside one row-hour are two series that
/// each stay on their row. (Keyed by a hash of the tags alone, every put
/// looked like a rollover: 19 scans and 19 extra puts for these 20.)
#[test]
fn metrics_sharing_tags_do_not_look_like_row_rollovers() {
    let compacting = TsdConfig {
        write_path_compaction: true,
        ..TsdConfig::default()
    };
    let (master, tsd) = stack(codec(2), compacting);
    for ts in 0..10u64 {
        tsd.put("energy", &[("unit", "1")], ts, 1.0).unwrap();
        tsd.put("temp", &[("unit", "1")], ts, 2.0).unwrap();
    }
    let m = tsd.metrics();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&m.row_compactions), 0);
    assert_eq!(load(&m.scan_rpcs), 0);
    assert_eq!(load(&m.put_rpcs), 20);
    // A real rollover still compacts the row the series left.
    tsd.put("energy", &[("unit", "1")], 3600, 1.0).unwrap();
    assert_eq!(load(&m.row_compactions), 1);
    master.shutdown();
}

/// The up to 3 600 cells a series writes in a row-hour share one row-key
/// buffer, from the TSD's slot through WAL, memstore and scan.
#[test]
fn cells_of_a_series_in_a_row_hour_share_one_row_buffer() {
    let (master, tsd) = stack(codec(2), TsdConfig::default());
    let tags: &[(&str, &str)] = &[("unit", "1"), ("sensor", "2")];
    for tick in 0..3u64 {
        tsd.put_batch("energy", &[(tags, 100 + tick, tick as f64)])
            .unwrap();
    }
    tsd.put_batch("energy", &[(tags, 3600, 9.0)]).unwrap();
    let cells = tsd.client().scan(&pga_minibase::RowRange::all()).unwrap();
    assert_eq!(cells.len(), 4);
    let (hour_0, hour_1) = cells.split_at(3);
    for pair in hour_0.windows(2) {
        assert_eq!(pair[0].row.as_ptr(), pair[1].row.as_ptr());
    }
    assert_ne!(hour_0[0].row.as_ptr(), hour_1[0].row.as_ptr());
    assert_ne!(hour_0[0].row, hour_1[0].row);
    master.shutdown();
}

/// A timestamp whose row base does not fit the key's four bytes — or any
/// millisecond timestamp — used to be acked and read back at another time
/// (`base as u32`). The whole batch is refused, before any RPC.
#[test]
fn put_batch_refuses_timestamps_no_row_key_can_hold() {
    let (master, tsd) = stack(codec(2), TsdConfig::default());
    let tags: &[(&str, &str)] = &[("unit", "1")];
    let max = tsd.codec().max_timestamp();
    assert_eq!(max, u32::MAX as u64 / 3600 * 3600 - 1);
    tsd.put_batch("energy", &[(tags, max, 1.0)]).unwrap();
    let watermark = tsd.seal_watermark();
    for bad in [
        max + 1,
        (1 << 32) + 7261,
        1_700_000_000_000,
        u64::MAX / 500,
        u64::MAX,
    ] {
        let err = tsd
            .put_batch("energy", &[(tags, 5, 2.0), (tags, bad, 3.0)])
            .unwrap_err();
        assert!(
            matches!(err, TsdError::TimestampOutOfRange { timestamp, max: m } if timestamp == bad && m == max),
            "{bad}: {err}"
        );
    }
    let m = tsd.metrics();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!((load(&m.put_rpcs), load(&m.points_written)), (1, 1));
    assert_eq!(load(&watermark), max);
    // Nothing of a refused batch was stored, its good point included, and
    // the one good put reads back at its own time.
    let all = tsd
        .query("energy", &QueryFilter::any(), 0, u64::MAX)
        .unwrap();
    assert_eq!(all.len(), 1);
    let stored: Vec<u64> = all[0].points.iter().map(|p| p.timestamp).collect();
    assert_eq!(stored, [max]);
    master.shutdown();
}
