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
//! Sealing is a pure rewrite, read from the row's cells where they lie:
//! the raw cells' points, in offset order, and any existing block's are
//! merged into one timestamp and one value column (raw wins at equal
//! timestamps — a raw cell that postdates a seal is newer information),
//! encoded as one [`crate::block`] cell, and written between the row's
//! other cells, which pass through as they are. MiniBase has no deletes,
//! so this rewrite is the only mechanism that ever physically supersedes
//! cells — which is why the pga-faultsim compaction oracle and the seeded
//! mutant E (drop-the-overlap, via
//! [`pga_minibase::FaultPlane::drop_sealed_overlap`]) guard this path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pga_minibase::{CellRef, CompactionRewriter, RewriteContext, RowWriter, ScanCells};

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
    let tags = row.len().checked_sub(8)?;
    let base = <[u8; 4]>::try_from(row.get(4..8)?).ok()?;
    tags.is_multiple_of(6)
        .then(|| u64::from(u32::from_be_bytes(base)))
}

/// What sealing does with one cell of a row: the newest version of a raw
/// cell is its (timestamp, value) point and the newest of a block is
/// folded in, older versions of either are superseded, and the rest —
/// write-path blobs, rollup qualifiers, raw cells of the wrong length —
/// is kept as it is.
enum Role {
    Point(u64, f64),
    Block,
    Superseded,
    Kept,
}

/// Each cell of a row whose base time is `base`, in order, with its role.
fn roles(base: u64, cells: &ScanCells) -> impl Iterator<Item = (CellRef<'_>, Role)> + Clone {
    let mut last = None;
    cells.iter().map(move |cell| {
        let newest = last.replace(cell.qualifier) != Some(cell.qualifier);
        let raw = <[u8; 2]>::try_from(cell.qualifier)
            .ok()
            .filter(|q| *q != [0xFF; 2]);
        let role = match (raw, <[u8; 8]>::try_from(cell.value)) {
            _ if block::is_block_qualifier(cell.qualifier) && newest => Role::Block,
            _ if block::is_block_qualifier(cell.qualifier) => Role::Superseded,
            (Some(_), _) if !newest => Role::Superseded,
            (Some(q), Ok(v)) => Role::Point(
                base + u64::from(u16::from_be_bytes(q)),
                f64::from_be_bytes(v),
            ),
            _ => Role::Kept,
        };
        (cell, role)
    })
}

/// The points of `sources`, each strictly ascending, merged into one
/// timestamp column and one value column: at an equal timestamp the
/// later source wins.
fn merge_points(sources: &[(&[u64], &[f64])]) -> (Vec<u64>, Vec<f64>) {
    let len = sources.iter().map(|(ts, _)| ts.len()).sum();
    let (mut timestamps, mut values) = (Vec::with_capacity(len), Vec::with_capacity(len));
    let mut next = vec![0; sources.len()];
    loop {
        let heads = sources
            .iter()
            .zip(&next)
            .filter_map(|((ts, _), &i)| ts.get(i));
        let Some(&ts) = heads.min() else {
            return (timestamps, values);
        };
        let mut value = 0.0;
        for ((timestamps, values), i) in sources.iter().zip(&mut next) {
            if let Some(&v) = values.get(*i).filter(|_| timestamps.get(*i) == Some(&ts)) {
                value = v;
                *i += 1;
            }
        }
        timestamps.push(ts);
        values.push(value);
    }
}

impl CompactionRewriter for BlockRewriter {
    fn rewrite_row(
        &self,
        ctx: &RewriteContext<'_>,
        cells: &ScanCells,
        out: &mut RowWriter<'_>,
    ) -> bool {
        let Some(base) = row_base_time(ctx.row) else {
            return false;
        };
        // Only seal rows every acked writer has moved past.
        let finished = base
            .checked_add(self.row_span_secs)
            .is_some_and(|end| end <= self.watermark.load(Ordering::Acquire));
        if !finished {
            return false;
        }

        // The raw points to consume, in offset order, and the existing
        // blocks to fold; everything else passes through untouched.
        let n = cells.len();
        let (mut timestamps, mut values) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut blocks, mut version) = (Vec::new(), 0);
        for (cell, role) in roles(base, cells) {
            match role {
                Role::Point(ts, v) => {
                    timestamps.push(ts);
                    values.push(v);
                }
                Role::Block => blocks.push(cell.value),
                Role::Superseded | Role::Kept => continue,
            }
            version = version.max(cell.timestamp);
        }
        if timestamps.is_empty() && blocks.len() <= 1 {
            return false; // nothing to seal or fold
        }
        let kept = roles(base, cells);

        // Deliberate injection site: mutant E drops the raw cells that
        // overlap an existing seal ("the block is already complete"),
        // silently losing late-arriving acked points. The faithful path
        // always merges.
        if ctx.drop_sealed_overlap && !blocks.is_empty() {
            let kept = kept.filter(|(_, role)| matches!(role, Role::Block | Role::Kept));
            kept.for_each(|(cell, _)| out.copy(cell));
            return true;
        }

        // Decode existing seals; a block we cannot read, or whose
        // timestamps do not ascend, leaves the whole row untouched —
        // never discard cells behind data we cannot merge.
        let mut decoded = Vec::with_capacity(blocks.len());
        for value in blocks {
            match block::decode_block(value) {
                Ok(block) if block.timestamps.is_sorted_by(|a, b| a < b) => decoded.push(block),
                _ => return false,
            }
        }
        if !decoded.is_empty() {
            // Raw wins at equal timestamps, a later block over an earlier.
            let blocks = decoded.iter().map(|b| (&b.timestamps[..], &b.values[..]));
            let sources: Vec<_> = blocks.chain([(&timestamps[..], &values[..])]).collect();
            (timestamps, values) = merge_points(&sources);
        }
        let Ok(encoded) = block::encode_block(&timestamps, &values) else {
            return false; // encoder rejected the row: keep it as-is
        };

        // The kept cells in order, the block at its qualifier's place.
        let kept = kept.filter_map(|(cell, role)| matches!(role, Role::Kept).then_some(cell));
        let before = |cell: &CellRef<'_>| cell.qualifier < &BLOCK_QUALIFIER[..];
        kept.clone().take_while(before).for_each(|c| out.copy(c));
        out.push(&BLOCK_QUALIFIER, version, &encoded);
        kept.skip_while(before).for_each(|c| out.copy(c));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pga_minibase::{KeyValue, PutBatch};

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

    /// `rw`'s answer for `row`, whose cells are `cells`, sorted: the
    /// cells it wrote, or `None` when it kept the row.
    fn rewrite(
        rw: &BlockRewriter,
        row: &[u8],
        drop_overlap: bool,
        cells: &[KeyValue],
    ) -> Option<Vec<KeyValue>> {
        let ctx = RewriteContext {
            row,
            drop_sealed_overlap: drop_overlap,
        };
        let (row, mut out) = (Bytes::copy_from_slice(row), PutBatch::new());
        let cells = ScanCells::from(cells.to_vec());
        rw.rewrite_row(&ctx, &cells, &mut RowWriter::new(&row, &mut out))
            .then(|| out.into_kvs())
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

    #[test]
    fn a_block_whose_timestamps_do_not_ascend_freezes_the_row() {
        let rw = rewriter(3600, u64::MAX);
        let row = row_key(0);
        let unsorted = block::encode_block(&[20, 10], &[2.0, 1.0]).unwrap();
        let mut cells = vec![
            KeyValue::new(row.clone(), BLOCK_QUALIFIER.to_vec(), 9, unsorted),
            raw_cell(&row, 1, 2.0, 1000),
        ];
        cells.sort();
        assert!(rewrite(&rw, &row, false, &cells).is_none());
    }
}
