//! Property tests: the region behaves like a sorted map of
//! `(row, qualifier, timestamp) → value` under arbitrary interleavings of
//! puts, flushes, compactions and scans.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;

use pga_minibase::{
    merge_scan, ColumnRange, KeyValue, Region, RegionConfig, RegionId, RowRange, ScanSpec,
};

type ModelKey = (Vec<u8>, Vec<u8>, std::cmp::Reverse<u64>);

#[derive(Debug, Clone)]
enum Op {
    Put { row: u8, qual: u8, ts: u64, val: u8 },
    Flush,
    Compact,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..20, 0u8..4, 0u64..8, any::<u8>()).prop_map(|(row, qual, ts, val)| Op::Put {
            row,
            qual,
            ts,
            val
        }),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn apply(region: &mut Region, model: &mut BTreeMap<ModelKey, u8>, op: &Op) {
    match *op {
        Op::Put { row, qual, ts, val } => {
            let r = vec![b'r', row];
            let q = vec![b'q', qual];
            region
                .put_batch(vec![KeyValue::new(r.clone(), q.clone(), ts, vec![val])])
                .unwrap();
            model.insert((r, q, std::cmp::Reverse(ts)), val);
        }
        Op::Flush => region.flush(),
        Op::Compact => region.compact(),
    }
}

/// A qualifier or a window edge, one or two bytes long. Stored qualifiers
/// take even first bytes (`step` 2) and edges every value, so an edge can
/// land on a stored qualifier, between two, or on a prefix of one.
fn qualifier(step: u8) -> impl Strategy<Value = Vec<u8>> {
    (0u8..12 / step, 0u8..3).prop_map(move |(q, tail)| match tail {
        0 => vec![q * step],
        _ => vec![q * step, tail],
    })
}

#[derive(Debug, Clone)]
enum WideOp {
    Put {
        row: u8,
        qual: Vec<u8>,
        ts: u64,
        val: u8,
    },
    Flush,
    Compact,
}

fn wide_op() -> impl Strategy<Value = WideOp> {
    prop_oneof![
        10 => (0u8..6, qualifier(2), 0u64..3, any::<u8>())
            .prop_map(|(row, qual, ts, val)| WideOp::Put { row, qual, ts, val }),
        1 => Just(WideOp::Flush),
        1 => Just(WideOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A column-window scan is the whole-row scan filtered by qualifier:
    /// whatever mix of memstore and store files holds the rows, however
    /// many versions a cell has, wherever the window edges fall, with
    /// none, one or several ranges per row.
    #[test]
    fn column_window_scan_equals_filtered_whole_row_scan(
        ops in proptest::collection::vec(wide_op(), 1..160),
        windows in proptest::collection::vec((qualifier(1), qualifier(1)), 0..4),
        lo in 0u8..6,
        span in 0u8..7,
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: 512, // force frequent automatic flushes
            compaction_file_threshold: 4,
            max_versions: usize::MAX,
        });
        for o in &ops {
            match o {
                WideOp::Put { row, qual, ts, val } => region
                    .put_batch(vec![KeyValue::new(vec![b'r', *row], qual.clone(), *ts, vec![*val])])
                    .unwrap(),
                WideOp::Flush => region.flush(),
                WideOp::Compact => region.compact(),
            }
        }
        // span 0 scans every row; otherwise a sub-range (possibly past the data).
        let rows = match span {
            0 => RowRange::all(),
            _ => RowRange::new(vec![b'r', lo], vec![b'r', lo + span]),
        };
        let columns: Vec<ColumnRange> = windows
            .iter()
            .map(|(start, end)| ColumnRange::new(start.clone(), end.clone()))
            .collect();
        let expect: Vec<KeyValue> = region
            .scan(&rows)
            .into_iter()
            .filter(|kv| columns.iter().any(|c| kv.qualifier >= c.start && kv.qualifier < c.end))
            .collect();
        let got = region.scan_spec(&ScanSpec::windowed(rows, columns));
        prop_assert_eq!(got, expect);
    }

    /// `merge_scan` against the naive model: concatenate, sort by cell key
    /// with the highest priority first, keep the first cell of each key.
    #[test]
    fn merge_scan_equals_concat_sort_dedup_by_priority(
        sources in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0u8..3, 0u64..3), 0..12),
            0..5,
        ),
    ) {
        // Each source sorted and without a duplicate key of its own; its
        // index is both its priority and the value its cells carry.
        let sources: Vec<Vec<KeyValue>> = sources
            .iter()
            .enumerate()
            .map(|(i, keys)| {
                let keys: std::collections::BTreeSet<_> =
                    keys.iter().map(|&(r, q, ts)| (r, q, std::cmp::Reverse(ts))).collect();
                keys.into_iter()
                    .map(|(r, q, ts)| KeyValue::new(vec![r], vec![q], ts.0, vec![i as u8]))
                    .collect()
            })
            .collect();
        let mut model: Vec<KeyValue> = sources.iter().flatten().cloned().collect();
        model.sort_by(|a, b| a.cmp(b).then_with(|| b.value.cmp(&a.value)));
        model.dedup_by(|b, a| (*a).cmp(b).is_eq());
        let priorities = (0..sources.len() as u64).collect();
        prop_assert_eq!(merge_scan(sources, priorities), model);
    }

    #[test]
    fn region_matches_model_under_arbitrary_ops(ops in proptest::collection::vec(op(), 1..120)) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: 512, // force frequent automatic flushes
            compaction_file_threshold: 4,
            max_versions: usize::MAX,
        });
        let mut model: BTreeMap<ModelKey, u8> = BTreeMap::new();
        for o in &ops {
            apply(&mut region, &mut model, o);
        }
        let got = region.scan(&RowRange::all());
        prop_assert_eq!(got.len(), model.len(), "cell count");
        for (kv, (mk, mv)) in got.iter().zip(model.iter()) {
            prop_assert_eq!(&kv.row[..], &mk.0[..]);
            prop_assert_eq!(&kv.qualifier[..], &mk.1[..]);
            prop_assert_eq!(kv.timestamp, mk.2.0);
            prop_assert_eq!(&kv.value[..], &[*mv][..]);
        }
    }

    #[test]
    fn range_scans_agree_with_model(
        ops in proptest::collection::vec(op(), 1..80),
        lo in 0u8..20,
        span in 1u8..10,
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        let mut model: BTreeMap<ModelKey, u8> = BTreeMap::new();
        for o in &ops {
            apply(&mut region, &mut model, o);
        }
        let start = vec![b'r', lo];
        let end = vec![b'r', lo.saturating_add(span)];
        let got = region.scan(&RowRange::new(start.clone(), end.clone()));
        let expect: Vec<_> = model
            .iter()
            .filter(|((r, _, _), _)| r >= &start && r < &end)
            .collect();
        prop_assert_eq!(got.len(), expect.len());
    }

    #[test]
    fn split_partitions_and_preserves_everything(
        ops in proptest::collection::vec(op(), 10..100),
    ) {
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        let mut model: BTreeMap<ModelKey, u8> = BTreeMap::new();
        for o in &ops {
            apply(&mut region, &mut model, o);
        }
        let total_before = region.scan(&RowRange::all()).len();
        match region.split(RegionId(2), RegionId(3)) {
            Ok((left, right)) => {
                let l = left.scan(&RowRange::all());
                let r = right.scan(&RowRange::all());
                prop_assert_eq!(l.len() + r.len(), total_before);
                let boundary: Bytes = right.range().start.clone();
                prop_assert!(l.iter().all(|kv| kv.row < boundary));
                prop_assert!(r.iter().all(|kv| kv.row >= boundary));
                // Ranges partition the parent.
                prop_assert_eq!(left.range().start.len(), 0);
                prop_assert_eq!(right.range().end.len(), 0);
                prop_assert_eq!(&left.range().end, &boundary);
            }
            Err(back) => {
                // Refused split must return the region intact.
                prop_assert_eq!(back.scan(&RowRange::all()).len(), total_before);
            }
        }
    }

    #[test]
    fn wal_recovery_restores_exact_state(ops in proptest::collection::vec(op(), 1..60)) {
        // Apply ops without any flush/compact (pure memstore) — then
        // recover from WAL and compare.
        let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig {
            memstore_flush_bytes: usize::MAX,
            compaction_file_threshold: usize::MAX,
            max_versions: usize::MAX,
        });
        let mut model: BTreeMap<ModelKey, u8> = BTreeMap::new();
        for o in &ops {
            if let Op::Put { .. } = o {
                apply(&mut region, &mut model, o);
            }
        }
        let wal = region.wal();
        let mut recovered = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        // A fresh region sharing only the WAL (the memstore "died").
        let _ = std::mem::replace(&mut recovered, {
            let mut r = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
            // Attach the surviving WAL by replaying it.
            for kv in wal.replay() {
                r.put_batch(vec![kv]).unwrap();
            }
            r
        });
        let got = recovered.scan(&RowRange::all());
        prop_assert_eq!(got.len(), model.len());
    }
}
