//! The write-ahead log writes a put batch's row runs in the layout it has
//! always written cells in, one `KeyValue` after another, so an image (and
//! every recovery that reads one) does not depend on how a writer grouped
//! its cells.

use std::cmp::Reverse;

use proptest::prelude::*;

use pga_minibase::region::RegionError;
use pga_minibase::{
    KeyValue, PutBatch, Region, RegionConfig, RegionId, RowRange, WriteAheadLog, MAX_KEY_LEN,
};

/// One cell in the layout, little-endian: `row_len u16 | row | qual_len
/// u16 | qual | ts u64 | val_len u32 | value`.
fn encode(kv: &KeyValue, out: &mut Vec<u8>) {
    out.extend_from_slice(&(kv.row.len() as u16).to_le_bytes());
    out.extend_from_slice(&kv.row);
    out.extend_from_slice(&(kv.qualifier.len() as u16).to_le_bytes());
    out.extend_from_slice(&kv.qualifier);
    out.extend_from_slice(&kv.timestamp.to_le_bytes());
    out.extend_from_slice(&(kv.value.len() as u32).to_le_bytes());
    out.extend_from_slice(&kv.value);
}

/// The image of `batches` appended in order to an empty log: `magic
/// "PGWL" | version 2 | flushed_through u64`, then per non-empty batch
/// `seq u64 | cells u32 | cells | crc32 u32` over all but the checksum.
fn image(batches: &[Vec<KeyValue>]) -> Vec<u8> {
    let mut out = b"PGWL\x02".to_vec();
    out.extend_from_slice(&0u64.to_le_bytes());
    for (seq, cells) in batches.iter().enumerate() {
        if cells.is_empty() {
            continue;
        }
        let start = out.len();
        out.extend_from_slice(&(seq as u64 + 1).to_le_bytes());
        out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
        cells.iter().for_each(|kv| encode(kv, &mut out));
        let sum = pga_minibase::crc32(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }
    out
}

/// A batch's cells: runs of a few rows, some repeating a row further on,
/// keys of one to three bytes, values empty to 300 bytes.
fn cells() -> impl Strategy<Value = Vec<KeyValue>> {
    let cell = (0u8..4, 1usize..4, any::<u16>(), any::<u64>(), 0usize..300);
    proptest::collection::vec(cell, 0..40).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(row, width, q, ts, len)| {
                let qualifier = q
                    .to_be_bytes()
                    .iter()
                    .cycle()
                    .take(width)
                    .copied()
                    .collect::<Vec<u8>>();
                KeyValue::new(
                    vec![b'r'; row as usize + 1],
                    qualifier,
                    ts,
                    vec![q as u8; len],
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_batches_log_the_bytes_of_their_cells_one_by_one(
        batches in proptest::collection::vec(cells(), 1..6),
    ) {
        let runs = WriteAheadLog::new();
        for cells in &batches {
            runs.append_batch(PutBatch::from(cells.clone()));
        }
        prop_assert_eq!(runs.encode(), image(&batches));
        let all: Vec<KeyValue> = batches.concat();
        prop_assert_eq!(runs.replay().into_kvs(), all);
    }
}

/// A row key or qualifier longer than the log's two-byte length used to
/// wrap: the record was written, the image decoded no record at all and
/// reported a torn tail, and recovery lost every later batch with it. Such
/// a batch is refused whole, typed, before anything is logged.
#[test]
fn a_key_the_log_cannot_hold_is_refused_before_it_is_written() {
    let mut region = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
    let long_row = KeyValue::new(vec![b'r'; 70_000], b"q".to_vec(), 1, b"v".to_vec());
    let long_qualifier =
        KeyValue::new(b"r".to_vec(), vec![b'q'; MAX_KEY_LEN + 1], 1, b"v".to_vec());
    for cell in [long_row, long_qualifier] {
        let refused = region.put_batch(vec![cell.clone()]);
        assert!(
            matches!(refused, Err((RegionError::KeyTooLong { .. }, _))),
            "{refused:?}"
        );
    }
    let fits = KeyValue::new(
        vec![b'r'; MAX_KEY_LEN],
        vec![b'q'; MAX_KEY_LEN],
        2,
        b"v".to_vec(),
    );
    let ordinary = KeyValue::new(b"row".to_vec(), b"q".to_vec(), 3, b"w".to_vec());
    region.put_batch(vec![fits.clone()]).unwrap();
    region.put_batch(vec![ordinary.clone()]).unwrap();
    let report = WriteAheadLog::decode_report(&region.wal().encode());
    assert_eq!((report.records, report.cells, report.torn), (2, 2, false));
    assert!(!region.crash_recover(), "the image is whole");
    let mut held = region.scan(&RowRange::all());
    held.sort_by_key(|kv| Reverse(kv.timestamp));
    assert_eq!(held, vec![ordinary, fits]);
}
