//! Model test: a store file finds rows through its row index and seeks
//! each column-window edge inside a row by interpolating on the
//! qualifiers' leading 8 bytes, then bisecting. Whatever the seek does, a
//! scan must return exactly the cells a naive filter over every cell
//! keeps. The store holds the rows that reach every branch of the seek: a
//! row of one cell and one of 3 600 dense 2-byte offsets, a gappy row with
//! several versions per qualifier, a row of qualifiers longer than 8 bytes
//! that share their first 8, beside an empty qualifier, and the prefix
//! rows `ab` / `ab\0`. Windows start and end before, inside, across and
//! past each row; every scan runs after a flush and after a compaction.

use bytes::Bytes;

use pga_minibase::{
    ColumnRange, KeyValue, Region, RegionConfig, RegionId, RowRange, RowWords, ScanSpec,
};

fn offset(o: u16) -> Vec<u8> {
    o.to_be_bytes().to_vec()
}

/// Every cell of the store, each `(row, qualifier, version)` once.
fn cells() -> Vec<KeyValue> {
    let mut cells = Vec::new();
    let mut put = |row: &[u8], qualifier: Vec<u8>, version: u64| {
        let value = format!("{row:?}/{qualifier:?}/{version}");
        cells.push(KeyValue::new(row.to_vec(), qualifier, version, value));
    };
    // One cell.
    put(b"a", offset(5), 1);
    // 3 600 dense offsets, one version each: a raw TSDB row-hour.
    for o in 0..3600 {
        put(b"ab", offset(o), 7);
    }
    // Gappy offsets, one to three versions each.
    for (i, o) in [0u16, 7, 8, 100, 1000, 1001, 3599].into_iter().enumerate() {
        for version in 0..=(i as u64 % 3) {
            put(b"ab\0", offset(o), 10 + version);
        }
    }
    // Long qualifiers sharing an 8-byte prefix, an empty qualifier, and
    // short ones below and above them.
    let long = |tail: &[u8]| [&b"prefix08"[..], tail].concat();
    for (qualifier, versions) in [
        (Vec::new(), 2),
        (offset(3), 1),
        (b"prefix0".to_vec(), 1),
        (long(b""), 2),
        (long(b"\0"), 1),
        (long(b"\x01"), 3),
        (long(b"\x01\x02"), 1),
        (long(b"\x01\x02\x03\x04"), 2),
        (long(b"\xff"), 1),
        (b"prefix09".to_vec(), 1),
        (vec![0xFF; 9], 1),
    ] {
        for version in 0..versions {
            put(b"abc", qualifier.clone(), 20 + version);
        }
    }
    put(b"b", Vec::new(), 1);
    put(b"b", offset(3599), 1);
    cells.sort();
    cells
}

/// The window edges the cases draw from.
fn edges() -> Vec<Vec<u8>> {
    let mut edges = vec![Vec::new(), vec![0x00], vec![0xFF], vec![0xFF; 10]];
    for o in [
        0u16, 3, 4, 5, 6, 7, 8, 9, 99, 100, 1000, 1001, 1800, 3599, 3600,
    ] {
        edges.push(offset(o));
    }
    for e in [
        &b"prefix0"[..],
        b"prefix08",
        b"prefix08\0",
        b"prefix08\x01",
        b"prefix08\x01\x02",
        b"prefix08\x01\x02\x03\x04\x05",
        b"prefix08\x02",
        b"prefix09",
    ] {
        edges.push(e.to_vec());
    }
    edges
}

/// The cells the spec selects, by testing every cell.
fn naive(all: &[KeyValue], spec: &ScanSpec) -> Vec<KeyValue> {
    all.iter()
        .filter(|kv| spec.rows().contains(&kv.row))
        .filter(|kv| spec.words().is_none_or(|w| w.matches(&kv.row)))
        .filter(|kv| {
            spec.columns().is_none_or(|columns| {
                columns
                    .iter()
                    .any(|c| c.start[..] <= kv.qualifier[..] && kv.qualifier[..] < c.end[..])
            })
        })
        .cloned()
        .collect()
}

fn region() -> Region {
    Region::new(
        RegionId(1),
        RowRange::all(),
        RegionConfig {
            memstore_flush_bytes: usize::MAX,
            compaction_file_threshold: usize::MAX,
        },
    )
}

/// The store after one flush, and after two flushes (the versions split
/// between them) and a compaction.
fn regions(all: &[KeyValue]) -> [Region; 2] {
    let mut flushed = region();
    flushed.put_batch(all.to_vec()).unwrap();
    flushed.flush();
    let mut compacted = region();
    let (old, new): (Vec<_>, Vec<_>) = all.iter().cloned().partition(|kv| kv.timestamp % 2 == 0);
    for half in [old, new] {
        compacted.put_batch(half).unwrap();
        compacted.flush();
    }
    compacted.compact();
    [flushed, compacted]
}

fn row_ranges() -> Vec<RowRange> {
    let r =
        |s: &[u8], e: &[u8]| RowRange::new(Bytes::copy_from_slice(s), Bytes::copy_from_slice(e));
    vec![
        RowRange::all(),
        r(b"ab", b"ab\0"),
        r(b"ab\0", b"abc"),
        r(b"a", b"ab"),
        r(b"ab", b""),
        r(b"", b"ab\0"),
        r(b"abc", b"b"),
        r(b"b", b""),
        r(b"c", b""),
    ]
}

#[test]
fn every_single_window_selects_what_the_naive_filter_keeps() {
    let all = cells();
    let stores = regions(&all);
    let edges = edges();
    let words = [None, Some(RowWords::new(0, 1, [b"b"]))];
    let mut checked = 0usize;
    for rows in row_ranges() {
        for (i, start) in edges.iter().enumerate() {
            // Every window whose end is at or after its start, plus one
            // inverted one (it selects nothing).
            for end in edges[i..].iter().chain(edges.get(i.saturating_sub(1))) {
                for w in &words {
                    let mut spec = ScanSpec::windowed(
                        rows.clone(),
                        vec![ColumnRange::new(start.clone(), end.clone())],
                    );
                    if let Some(w) = w {
                        spec = spec.with_words(w.clone());
                    }
                    let expect = naive(&all, &spec);
                    for store in &stores {
                        assert_eq!(store.scan_spec(&spec).to_vec(), expect, "{spec:?}");
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 4000, "{checked} specs");
}

#[test]
fn several_windows_and_whole_rows_select_what_the_naive_filter_keeps() {
    let all = cells();
    let stores = regions(&all);
    let edges = edges();
    // A fixed LCG draws three windows at a time from the edges.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    for rows in row_ranges() {
        let whole = ScanSpec::from(rows.clone());
        for store in &stores {
            assert_eq!(store.scan_spec(&whole).to_vec(), naive(&all, &whole));
        }
        for _ in 0..300 {
            let windows = (0..3)
                .map(|_| {
                    let (a, b) = (draw(edges.len()), draw(edges.len()));
                    ColumnRange::new(edges[a.min(b)].clone(), edges[a.max(b)].clone())
                })
                .collect();
            let spec = ScanSpec::windowed(rows.clone(), windows);
            let expect = naive(&all, &spec);
            for store in &stores {
                assert_eq!(store.scan_spec(&spec).to_vec(), expect, "{spec:?}");
            }
        }
    }
}
