//! The block sealer against the sealer it replaced.
//!
//! The model is `BlockRewriter::rewrite_row` as it was: owned cells out,
//! every point of the row's raw cells and blocks inserted into one
//! `BTreeMap<u64, f64>` (blocks in qualifier order, then raw cells, so
//! raw wins a tie and a later block wins over an earlier one), the map
//! encoded as one block cell, and the answer sorted. The sealer now reads
//! the raw cells in offset order, merges them with the decoded blocks
//! into two columns and writes the row in key order through a
//! `RowWriter`. Over random rows — raw cells at several versions, zero to
//! two encoder-made blocks (one under another version byte), `0xFFFF`
//! blobs, raw cells of the wrong length, cells that sort on either side of
//! the block qualifier, and both values of `drop_sealed_overlap` — it must
//! write the model's bytes, and keep the rows the model keeps.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use pga_minibase::{
    CellRef, CompactionRewriter, KeyValue, PutBatch, RewriteContext, RowWriter, ScanCells,
};
use pga_tsdb::block::{self, BLOCK_QUALIFIER};
use pga_tsdb::BlockRewriter;

const BASE: u32 = 7_200;
const SPAN: u64 = 3_600;

/// A TSDB row key: salt, metric, base time, one tag.
fn row_key() -> Bytes {
    let mut row = vec![0u8; 14];
    row[1..4].copy_from_slice(&[0, 0, 1]);
    row[4..8].copy_from_slice(&BASE.to_be_bytes());
    row[8..14].copy_from_slice(&[0, 0, 1, 0, 0, 1]);
    Bytes::from(row)
}

/// The parent's sealer, for a finished row whose base time is `base`.
fn parent_seal(base: u64, drop_sealed_overlap: bool, cells: &[KeyValue]) -> Option<Vec<KeyValue>> {
    let mut raw: Vec<(u64, f64, u64)> = Vec::new();
    let mut sealed: Vec<CellRef<'_>> = Vec::new();
    let mut passthrough: Vec<KeyValue> = Vec::new();
    let mut last_qual: Option<&[u8]> = None;
    for cell in cells.iter().map(CellRef::from) {
        let newest_of_qual = last_qual != Some(cell.qualifier);
        last_qual = Some(cell.qualifier);
        if block::is_block_qualifier(cell.qualifier) {
            if newest_of_qual {
                sealed.push(cell);
            }
            continue;
        }
        let is_raw = cell.qualifier.len() == 2 && cell.qualifier != [0xFF, 0xFF];
        if !is_raw {
            passthrough.push(cell.to_kv());
            continue;
        }
        if !newest_of_qual {
            continue;
        }
        let (Some(q), Some(v)) = (cell.qualifier.get(..2), cell.value.get(..8)) else {
            passthrough.push(cell.to_kv());
            continue;
        };
        if cell.value.len() != 8 {
            passthrough.push(cell.to_kv());
            continue;
        }
        let mut q2 = [0u8; 2];
        q2.copy_from_slice(q);
        let offset = u16::from_be_bytes(q2) as u64;
        let mut v8 = [0u8; 8];
        v8.copy_from_slice(v);
        raw.push((base + offset, f64::from_be_bytes(v8), cell.timestamp));
    }
    if raw.is_empty() && sealed.len() <= 1 {
        return None;
    }
    if drop_sealed_overlap && !sealed.is_empty() {
        let mut out = passthrough;
        out.extend(sealed.iter().map(|&c| c.to_kv()));
        out.sort();
        return Some(out);
    }
    let mut merged: BTreeMap<u64, f64> = BTreeMap::new();
    let mut version: u64 = 0;
    for cell in &sealed {
        let Ok(decoded) = block::decode_block(cell.value) else {
            return None;
        };
        for (&ts, &v) in decoded.timestamps.iter().zip(decoded.values.iter()) {
            merged.insert(ts, v);
        }
        version = version.max(cell.timestamp);
    }
    for &(ts, v, cell_version) in &raw {
        merged.insert(ts, v);
        version = version.max(cell_version);
    }
    if merged.is_empty() || merged.len() > block::MAX_BLOCK_POINTS {
        return None;
    }
    let timestamps: Vec<u64> = merged.keys().copied().collect();
    let values: Vec<f64> = merged.values().copied().collect();
    let encoded = block::encode_block(&timestamps, &values).ok()?;
    let mut out = passthrough;
    out.push(KeyValue {
        row: cells.first()?.row.clone(),
        qualifier: Bytes::copy_from_slice(&BLOCK_QUALIFIER),
        timestamp: version,
        value: Bytes::from(encoded),
    });
    out.sort();
    Some(out)
}

/// Qualifiers of the raw cells: low offsets, offsets whose bytes sort on
/// either side of the block qualifier, and the last one below `0xFFFF`.
const OFFSETS: [u16; 8] = [0, 1, 2, 5, 0xFA_FF, 0xFB_01, 0xFB_05, 0xFF_FE];
/// Block qualifiers: the sealer's own and another version byte.
const BLOCKS: [[u8; 3]; 2] = [BLOCK_QUALIFIER, [0xFB, 0x07, 0x00]];
/// Qualifiers the sealer keeps as they are: the write-path blob, a rollup
/// qualifier, and a 3-byte one after the block qualifier.
const KEPT: [&[u8]; 3] = [&[0xFF, 0xFF], &[0, 1, 0, 0], &[0xFC, 0, 0]];

/// One generated cell.
#[derive(Debug, Clone)]
enum Spec {
    /// A raw cell: offset index, version, value, and whether its value is
    /// of the wrong length.
    Raw(usize, u64, i16, bool),
    /// A block cell: qualifier index, version, and its points as offset
    /// indices and values (sorted and deduplicated before encoding).
    Block(usize, u64, Vec<(usize, i16)>),
    /// A kept cell: qualifier index, version, value byte.
    Kept(usize, u64, u8),
}

fn spec() -> impl Strategy<Value = Spec> {
    prop_oneof![
        6 => (0..OFFSETS.len(), 0u64..4, any::<i16>(), 0u8..7)
            .prop_map(|(o, v, x, bad)| Spec::Raw(o, v, x, bad == 0)),
        1 => (0..BLOCKS.len(), 0u64..4, proptest::collection::vec((0..OFFSETS.len(), any::<i16>()), 1..6))
            .prop_map(|(q, v, points)| Spec::Block(q, v, points)),
        1 => (0..KEPT.len(), 0u64..4, any::<u8>()).prop_map(|(q, v, x)| Spec::Kept(q, v, x)),
    ]
}

/// The row's cells, sorted and each exact key once (the last spec wins),
/// as a compaction offers them.
fn cells(specs: &[Spec]) -> Vec<KeyValue> {
    let row = row_key();
    let mut cells: BTreeMap<(Vec<u8>, std::cmp::Reverse<u64>), Vec<u8>> = BTreeMap::new();
    for spec in specs {
        let (qualifier, version, value) = match spec {
            Spec::Raw(o, v, x, bad) => {
                let value = f64::from(*x).to_be_bytes();
                let len = if *bad { 4 } else { 8 };
                (
                    OFFSETS[*o].to_be_bytes().to_vec(),
                    *v,
                    value[..len].to_vec(),
                )
            }
            Spec::Block(q, v, points) => {
                let points: BTreeMap<u64, f64> = points
                    .iter()
                    .map(|&(o, x)| (u64::from(BASE) + u64::from(OFFSETS[o]), f64::from(x)))
                    .collect();
                let timestamps: Vec<u64> = points.keys().copied().collect();
                let values: Vec<f64> = points.values().copied().collect();
                let block = block::encode_block(&timestamps, &values).unwrap();
                (BLOCKS[*q].to_vec(), *v, block)
            }
            Spec::Kept(q, v, x) => (KEPT[*q].to_vec(), *v, vec![*x; 3]),
        };
        cells.insert((qualifier, std::cmp::Reverse(version)), value);
    }
    cells
        .into_iter()
        .map(|((qualifier, version), value)| {
            KeyValue::new(row.clone(), qualifier, version.0, value)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_sealer_writes_the_parents_bytes(
        specs in proptest::collection::vec(spec(), 0..24),
        drop_sealed_overlap in any::<bool>(),
    ) {
        let cells = cells(&specs);
        let row = row_key();
        let sealer = BlockRewriter::new(SPAN, Arc::new(AtomicU64::new(u64::MAX)));
        let ctx = RewriteContext { row: &row, drop_sealed_overlap };
        let mut out = PutBatch::new();
        let replaced = sealer.rewrite_row(
            &ctx,
            &ScanCells::from(cells.clone()),
            &mut RowWriter::new(&row, &mut out),
        );
        let expected = parent_seal(u64::from(BASE), drop_sealed_overlap, &cells);
        prop_assert_eq!(replaced.then(|| out.into_kvs()), expected);
    }
}
