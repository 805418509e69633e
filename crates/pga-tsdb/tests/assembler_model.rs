//! Differential test of the series-keyed `Assembler`: while a store is
//! all raw cells its answers must equal the cell-by-cell legacy read
//! (`legacy::query_legacy`), and once rows are sealed into blocks — with
//! late raw writes and rewritten values over them — they must equal the
//! block rules as they were (`columns_model`), value bits and all. Both
//! through `Tsd::query` (one window) and through the assembler over two
//! disjoint windows at once, as the engine's rollup patches use it.

#[path = "legacy/mod.rs"]
mod legacy;

#[path = "columns_model/mod.rs"]
mod columns_model;

use std::collections::BTreeMap;

use proptest::prelude::*;

use legacy::query_legacy;
use pga_cluster::coordinator::Coordinator;
use pga_minibase::{Client, KeyValue, Master, RegionConfig, ServerConfig, TableDescriptor};
use pga_tsdb::{
    Assembler, KeyCodec, KeyCodecConfig, QueryFilter, TimeSeries, Tsd, TsdConfig, UidTable,
};

/// A series answer as comparable bits: metric, tags, `(ts, value bits)`.
type Bits = Vec<(String, BTreeMap<String, String>, Vec<(u64, u64)>)>;

fn bits(series: &[TimeSeries]) -> Bits {
    series
        .iter()
        .map(|s| {
            let points = s.points.iter().map(|p| (p.timestamp, p.value.to_bits()));
            (s.metric.clone(), s.tags.clone(), points.collect())
        })
        .collect()
}

fn stack(buckets: u8) -> (Master, Tsd) {
    let codec = KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: buckets,
            row_span_secs: 3600,
        },
        UidTable::new(),
    );
    let coord = Coordinator::new(60_000);
    let mut master = Master::bootstrap(2, ServerConfig::default(), coord, 0);
    master.create_table(&TableDescriptor {
        name: "t".into(),
        split_points: codec.split_points(),
        region_config: RegionConfig::default(),
    });
    let tsd = Tsd::new(codec, Client::connect(&master), TsdConfig::default());
    master.set_compaction_rewriter(tsd.block_rewriter());
    (master, tsd)
}

fn put(tsd: &Tsd, points: &[(u32, u32, u64, u64)]) {
    for &(unit, sensor, ts, value) in points {
        let (u, s) = (unit.to_string(), sensor.to_string());
        tsd.put(
            "energy",
            &[("unit", &u), ("sensor", &s)],
            ts,
            f64::from_bits(value),
        )
        .unwrap();
    }
}

/// Every cell of `[lo, hi]` of `energy`, in storage scan order, as the
/// TSD reads them.
fn scanned(tsd: &Tsd, lo: u64, hi: u64) -> Vec<KeyValue> {
    let codec = tsd.codec();
    codec
        .salt_range()
        .flat_map(|salt| codec.scan_segments(salt, "energy", lo, hi))
        .flat_map(|segment| tsd.client().scan_spec(&segment).unwrap().to_vec())
        .collect()
}

/// The block rules as they were over `[lo, hi]`, kept inside `windows`.
fn model(tsd: &Tsd, filter: &QueryFilter, windows: &[(u64, u64)]) -> Bits {
    let (lo, hi) = (windows[0].0, windows[windows.len() - 1].1);
    let mut columns = columns_model::AssembledColumns::new();
    columns_model::assemble_columns(
        tsd.codec(),
        &scanned(tsd, lo, hi),
        filter,
        lo,
        hi,
        &mut columns,
    )
    .unwrap();
    let mut series = columns_model::finish("energy", columns);
    for s in &mut series {
        s.points.retain(|p| {
            windows
                .iter()
                .any(|&(a, b)| a <= p.timestamp && p.timestamp <= b)
        });
    }
    series.retain(|s| !s.points.is_empty());
    bits(&series)
}

/// The assembler over `windows`, fed the same cells as the model.
fn assembled(tsd: &Tsd, filter: &QueryFilter, windows: &[(u64, u64)]) -> Bits {
    let (lo, hi) = (windows[0].0, windows[windows.len() - 1].1);
    let cells = scanned(tsd, lo, hi);
    let mut assembler = Assembler::new(tsd.codec(), filter, windows);
    assembler.add(&cells);
    assert!(assembler.corrupt().is_empty());
    let series: Vec<TimeSeries> = assembler
        .finish()
        .into_iter()
        .map(|(series, points)| TimeSeries {
            metric: series.metric().to_string(),
            tags: series.tags().iter().cloned().collect(),
            points,
        })
        .collect();
    bits(&series)
}

fn filter() -> impl Strategy<Value = QueryFilter> {
    prop_oneof![
        Just(QueryFilter::any()),
        (0u32..3).prop_map(|u| QueryFilter::any().with("unit", &u.to_string())),
        (0u32..3).prop_map(|s| QueryFilter::any().with("sensor", &s.to_string())),
    ]
}

/// Timestamps over three row-hours, crowded at the seams.
fn ts() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => 0u64..10_800,
        1 => (1u64..3, 0u64..20).prop_map(|(hour, d)| hour * 3600 - 10 + d),
    ]
}

/// Two disjoint windows, ascending.
fn windows() -> impl Strategy<Value = [(u64, u64); 2]> {
    proptest::collection::vec(ts(), 4).prop_map(|mut t| {
        t.sort_unstable();
        [(t[0], t[1]), (t[2] + 1, t[3] + 1)]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn assembled_answers_equal_legacy_raw_and_the_old_block_rules(
        points in proptest::collection::vec((0u32..3, 0u32..3, ts(), any::<u64>()), 1..100),
        late in proptest::collection::vec((0u32..3, 0u32..3, ts(), any::<u64>()), 0..12),
        filter in filter(),
        windows in windows(),
        buckets in 1u8..4,
    ) {
        let (master, tsd) = stack(buckets);
        // Rewrites of a few points leave older versions behind.
        put(&tsd, &points);
        put(&tsd, &late);
        let (lo, hi) = (windows[0].0, windows[1].1);
        let raw = bits(&tsd.query("energy", &filter, lo, hi).unwrap());
        let legacy = bits(&query_legacy(&tsd, "energy", &filter, lo, hi).unwrap());
        prop_assert_eq!(&raw, &legacy, "unsealed: the legacy read");
        prop_assert_eq!(assembled(&tsd, &filter, &windows), model(&tsd, &filter, &windows));
        // Sealing changes no answer; raw writes over sealed rows beat the
        // blocks; resealing folds them in and changes nothing again.
        let rewritten: Vec<_> = late.iter().map(|&(u, s, t, v)| (u, s, t, v ^ 1)).collect();
        let mut before = raw;
        for stage in ["sealed", "late raw over sealed", "resealed"] {
            match stage {
                "late raw over sealed" => put(&tsd, &rewritten),
                _ => tsd.compact_now().unwrap(),
            }
            let got = bits(&tsd.query("energy", &filter, lo, hi).unwrap());
            prop_assert_eq!(&got, &model(&tsd, &filter, &[(lo, hi)]), "{}", stage);
            if stage != "late raw over sealed" {
                prop_assert_eq!(&got, &before, "{}: the answer itself", stage);
            }
            prop_assert_eq!(
                assembled(&tsd, &filter, &windows),
                model(&tsd, &filter, &windows),
                "{} over two windows", stage
            );
            before = got;
        }
        master.shutdown();
    }
}
