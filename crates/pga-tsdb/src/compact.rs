//! Background sealing: a [`pga_minibase::CompactionRewriter`] that folds
//! finished rows of raw cells into canonical columnar blocks.
//!
//! During a MiniBase major compaction every row of the merged output is
//! offered to the installed rewriter. The [`BlockRewriter`] seals a row
//! when two conditions hold:
//!
//! 1. the row is **finished** — `base_time + row_span <= watermark`, where
//!    the watermark is the highest timestamp the ingest tier has
//!    acknowledged (see `Tsd::seal_watermark`), so a row with in-flight
//!    writers is never frozen mid-fill; and
//! 2. it holds raw cells (or more than one sealed block to fold).
//!
//! Sealing is a pure rewrite: the raw cells' points and any existing
//! block's points are merged (raw wins at equal timestamps — a raw cell
//! that postdates a seal is newer information), sorted, deduplicated, and
//! encoded as one [`crate::block`] cell. MiniBase has no deletes, so this
//! rewrite is the only mechanism that ever physically supersedes cells —
//! which is why the pga-faultsim compaction oracle and the seeded mutant E
//! (drop-the-overlap, via
//! [`pga_minibase::FaultPlane::drop_sealed_overlap`]) guard this path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use pga_minibase::{CellRef, CompactionRewriter, KeyValue, RewriteContext, ScanCells};

use crate::block::{self, BLOCK_QUALIFIER};

/// Compaction rewriter sealing finished TSDB rows into columnar blocks.
#[derive(Debug)]
pub struct BlockRewriter {
    row_span_secs: u64,
    /// Highest acknowledged write timestamp; rows wholly below it seal.
    watermark: Arc<AtomicU64>,
}

impl BlockRewriter {
    /// Build a rewriter for tables written with `row_span_secs` rows,
    /// gated by `watermark` (share the handle from `Tsd::seal_watermark`,
    /// or drive it manually in tests/benches).
    pub fn new(row_span_secs: u64, watermark: Arc<AtomicU64>) -> Self {
        BlockRewriter {
            row_span_secs: row_span_secs.max(1),
            watermark,
        }
    }

    /// Current watermark value.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Advance the watermark to at least `ts` (monotonic).
    pub fn advance(&self, ts: u64) {
        self.watermark.fetch_max(ts, Ordering::AcqRel);
    }
}

/// Base time parsed from a TSDB row key, or `None` when the row does not
/// follow the `[salt][metric:3][base:4][tagk:3 tagv:3]*` layout.
fn row_base_time(row: &[u8]) -> Option<u64> {
    if row.len() < 8 || !(row.len() - 8).is_multiple_of(6) {
        return None;
    }
    let b = row.get(4..8)?;
    let mut b4 = [0u8; 4];
    b4.copy_from_slice(b);
    Some(u32::from_be_bytes(b4) as u64)
}

impl CompactionRewriter for BlockRewriter {
    fn rewrite_row(&self, ctx: &RewriteContext<'_>, cells: &ScanCells) -> Option<Vec<KeyValue>> {
        let base = row_base_time(ctx.row)?;
        // Only seal rows every acked writer has moved past.
        let finished = base
            .checked_add(self.row_span_secs)
            .is_some_and(|end| end <= self.watermark.load(Ordering::Acquire));
        if !finished {
            return None;
        }

        // Partition the row: raw cells to consume (newest version per
        // qualifier), existing sealed blocks to fold, everything else
        // (write-path blobs, rollup qualifiers) passes through untouched.
        let mut raw: Vec<(u64, f64, u64)> = Vec::new(); // (ts, value, version)
        let mut sealed: Vec<CellRef<'_>> = Vec::new();
        let mut passthrough: Vec<KeyValue> = Vec::new();
        let mut last_qual: Option<&[u8]> = None;
        for cell in cells {
            let newest_of_qual = last_qual != Some(cell.qualifier);
            last_qual = Some(cell.qualifier);
            if block::is_block_qualifier(cell.qualifier) {
                if newest_of_qual {
                    sealed.push(cell);
                }
                // Older block versions are dropped: superseded seals.
                continue;
            }
            let is_raw = cell.qualifier.len() == 2 && cell.qualifier != [0xFF, 0xFF];
            if !is_raw {
                passthrough.push(cell.to_kv());
                continue;
            }
            if !newest_of_qual {
                continue; // older version of a raw cell: superseded
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
            return None; // nothing to seal or fold
        }

        // Deliberate injection site: mutant E drops the raw cells that
        // overlap an existing seal ("the block is already complete"),
        // silently losing late-arriving acked points. The faithful path
        // always merges.
        if ctx.drop_sealed_overlap && !sealed.is_empty() {
            let mut out = passthrough;
            out.extend(sealed.iter().map(|&c| c.to_kv()));
            return Some(out);
        }

        // Decode existing seals; a block we cannot read means we leave the
        // whole row untouched — never discard cells behind undecodable
        // data.
        let mut merged: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
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
            merged.insert(ts, v); // raw wins at equal timestamps
            version = version.max(cell_version);
        }
        if merged.is_empty() || merged.len() > block::MAX_BLOCK_POINTS {
            return None;
        }

        let timestamps: Vec<u64> = merged.keys().copied().collect();
        let values: Vec<f64> = merged.values().copied().collect();
        let Ok(encoded) = block::encode_block(&timestamps, &values) else {
            return None; // encoder rejected the row: keep it as-is
        };
        let mut out = passthrough;
        out.push(KeyValue {
            row: Bytes::copy_from_slice(ctx.row),
            qualifier: Bytes::copy_from_slice(&BLOCK_QUALIFIER),
            timestamp: version,
            value: Bytes::from(encoded),
        });
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_minibase::RegionId;

    fn raw_cell(row: &[u8], offset: u16, value: f64, version: u64) -> KeyValue {
        KeyValue::new(
            row.to_vec(),
            offset.to_be_bytes().to_vec(),
            version,
            value.to_be_bytes().to_vec(),
        )
    }

    /// A minimal well-formed TSDB row key: salt + metric + base + one tag.
    fn row_key(base: u32) -> Vec<u8> {
        let mut row = vec![0u8; 14];
        row[1..4].copy_from_slice(&[0, 0, 1]);
        row[4..8].copy_from_slice(&base.to_be_bytes());
        row[8..14].copy_from_slice(&[0, 0, 1, 0, 0, 1]);
        row
    }

    fn ctx<'a>(row: &'a [u8], drop_overlap: bool) -> RewriteContext<'a> {
        RewriteContext {
            region: RegionId(1),
            row,
            drop_sealed_overlap: drop_overlap,
        }
    }

    /// `rw`'s answer for `row`, whose cells are `cells`, sorted.
    fn rewrite(
        rw: &BlockRewriter,
        row: &[u8],
        drop_overlap: bool,
        cells: &[KeyValue],
    ) -> Option<Vec<KeyValue>> {
        rw.rewrite_row(&ctx(row, drop_overlap), &ScanCells::from(cells.to_vec()))
    }

    fn rewriter(span: u64, watermark: u64) -> BlockRewriter {
        BlockRewriter::new(span, Arc::new(AtomicU64::new(watermark)))
    }

    #[test]
    fn unfinished_row_is_left_alone() {
        let row = row_key(3600);
        let cells = vec![raw_cell(&row, 0, 1.0, 3_600_000)];
        // Watermark inside the row: writers may still be filling it.
        let rw = rewriter(3600, 7199);
        assert!(rewrite(&rw, &row, false, &cells).is_none());
        // Watermark at the row boundary: sealed.
        let rw = rewriter(3600, 7200);
        assert!(rewrite(&rw, &row, false, &cells).is_some());
    }

    #[test]
    fn seals_raw_cells_into_one_block() {
        let row = row_key(0);
        let cells: Vec<KeyValue> = (0..10u16)
            .map(|i| raw_cell(&row, i * 7, i as f64, (i as u64) * 7000))
            .collect();
        let rw = rewriter(3600, 10_000);
        let out = rewrite(&rw, &row, false, &cells).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].qualifier[..], &BLOCK_QUALIFIER);
        let decoded = block::decode_block(&out[0].value).unwrap();
        assert_eq!(
            decoded.timestamps,
            (0..10).map(|i| i * 7).collect::<Vec<u64>>()
        );
        assert_eq!(
            decoded.values,
            (0..10).map(|i| i as f64).collect::<Vec<f64>>()
        );
        assert_eq!(out[0].timestamp, 63_000, "version = newest consumed cell");
    }

    #[test]
    fn reseal_merges_block_with_late_raw_and_raw_wins_ties() {
        let row = row_key(0);
        let first: Vec<KeyValue> = vec![
            raw_cell(&row, 10, 1.0, 10_000),
            raw_cell(&row, 20, 2.0, 20_000),
        ];
        let rw = rewriter(3600, 10_000);
        let sealed = rewrite(&rw, &row, false, &first).unwrap();
        // Late raw arrivals: a new point at 15 and an overwrite at 20.
        let mut cells = sealed.clone();
        cells.push(raw_cell(&row, 15, 1.5, 15_000));
        cells.push(raw_cell(&row, 20, 9.9, 21_000));
        cells.sort();
        let out = rewrite(&rw, &row, false, &cells).unwrap();
        assert_eq!(out.len(), 1);
        let decoded = block::decode_block(&out[0].value).unwrap();
        assert_eq!(decoded.timestamps, vec![10, 15, 20]);
        assert_eq!(decoded.values, vec![1.0, 1.5, 9.9]);
    }

    #[test]
    fn mutant_drop_overlap_loses_late_points() {
        let row = row_key(0);
        let first = vec![raw_cell(&row, 10, 1.0, 10_000)];
        let rw = rewriter(3600, 10_000);
        let sealed = rewrite(&rw, &row, false, &first).unwrap();
        let mut cells = sealed.clone();
        cells.push(raw_cell(&row, 15, 1.5, 15_000));
        cells.sort();
        let out = rewrite(&rw, &row, true, &cells).unwrap();
        let decoded = block::decode_block(&out[0].value).unwrap();
        assert_eq!(decoded.timestamps, vec![10], "mutant drops the late point");
    }

    #[test]
    fn non_tsdb_rows_and_foreign_cells_pass_through() {
        let rw = rewriter(3600, u64::MAX);
        // Malformed row key: not ours to touch.
        assert!(rewrite(
            &rw,
            b"free-form-row",
            false,
            &[raw_cell(b"free-form-row", 0, 1.0, 0)]
        )
        .is_none());
        // Rollup-style 4-byte qualifiers ride along unchanged.
        let row = row_key(0);
        let rollup = KeyValue::new(row.clone(), vec![0, 1, 2, 3], 5, b"agg".to_vec());
        let mut cells = vec![rollup.clone(), raw_cell(&row, 1, 2.0, 1000)];
        cells.sort();
        let out = rewrite(&rw, &row, false, &cells).unwrap();
        assert!(out.contains(&rollup));
        assert!(out.iter().any(|c| block::is_block_qualifier(&c.qualifier)));
    }

    #[test]
    fn rollup_only_row_is_untouched() {
        let rw = rewriter(3600, u64::MAX);
        let row = row_key(0);
        let cells = vec![KeyValue::new(
            row.clone(),
            vec![0, 1, 2, 3],
            5,
            b"agg".to_vec(),
        )];
        assert!(rewrite(&rw, &row, false, &cells).is_none());
    }

    #[test]
    fn undecodable_existing_block_freezes_the_row() {
        let rw = rewriter(3600, u64::MAX);
        let row = row_key(0);
        let mut cells = vec![
            KeyValue::new(
                row.clone(),
                BLOCK_QUALIFIER.to_vec(),
                9,
                b"garbage".to_vec(),
            ),
            raw_cell(&row, 1, 2.0, 1000),
        ];
        cells.sort();
        assert!(
            rewrite(&rw, &row, false, &cells).is_none(),
            "never rewrite behind a block we cannot decode"
        );
    }
}
