//! Pluggable compaction rewriters.
//!
//! HBase lets coprocessors rewrite cells during compaction; MiniBase keeps
//! the same seam as a small trait. A [`CompactionRewriter`] reads every
//! row of a compaction's output as a scan of that row answers it, and may
//! write the row's replacement, straight into the compaction's output
//! columns, through a [`RowWriter`] — the mechanism `pga-tsdb` uses to
//! seal finished rows of raw cells into canonical columnar blocks, and
//! `pga-query` to canonicalize rollup cells. Because MiniBase has no deletes,
//! compaction-time rewriting is the *only* way cells are ever physically
//! superseded; a rewriter that loses data loses it forever, which is why
//! the pga-faultsim compaction oracle exists.

use std::sync::Arc;

use bytes::Bytes;

use crate::batch::PutBatch;
use crate::kv::CellRef;
use crate::scanner::ScanCells;

/// Shared handle to a rewriter (cloned into every region of a server).
pub type RewriterHandle = Arc<dyn CompactionRewriter>;

/// Per-row context handed to a rewriter during one compaction.
#[derive(Debug, Clone, Copy)]
pub struct RewriteContext<'a> {
    /// Row key shared by every cell in the group.
    pub row: &'a [u8],
    /// Fault-plane injection: when `true`, a deliberately broken rewriter
    /// drops raw cells that overlap an existing sealed block instead of
    /// merging them (seeded mutant E). Faithful rewriters must honour the
    /// merge regardless; the flag exists so the *same* rewriter code hosts
    /// both behaviours under the simulator.
    pub drop_sealed_overlap: bool,
}

/// Where a rewriter writes one row's replacement: cells appended to a
/// batch under the row the writer holds, so no other row can be written.
#[derive(Debug)]
pub struct RowWriter<'a> {
    row: &'a Bytes,
    out: &'a mut PutBatch,
}

impl<'a> RowWriter<'a> {
    /// A writer appending `row`'s cells to `out`.
    pub fn new(row: &'a Bytes, out: &'a mut PutBatch) -> Self {
        RowWriter { row, out }
    }

    /// Write one cell of the row.
    #[inline]
    pub fn push(&mut self, qualifier: &[u8], version: u64, value: &[u8]) {
        self.out.push(self.row, qualifier, version, value);
    }

    /// Write a cell the rewriter keeps as it is.
    #[inline]
    pub fn copy(&mut self, cell: CellRef<'_>) {
        self.push(cell.qualifier, cell.timestamp, cell.value);
    }
}

/// Rewrites one row's cells during compaction.
///
/// Implementations must be deterministic and side-effect free on the
/// store: they run inside `Region::compact` with the region lock held.
pub trait CompactionRewriter: Send + Sync + std::fmt::Debug {
    /// Offered one row's cells as a scan of it answers them: views, sorted
    /// qualifier-ascending, newest version first within a qualifier, each
    /// exact key once (the newest file's). To replace the row, write its
    /// cells to `out` in that order, each key once, and return `true`;
    /// `false` keeps the row (what was written is dropped), and so does
    /// a replacement whose keys do not ascend.
    fn rewrite_row(
        &self,
        ctx: &RewriteContext<'_>,
        cells: &ScanCells,
        out: &mut RowWriter<'_>,
    ) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KeyValue, RowRange};
    use crate::region::{Region, RegionConfig, RegionId};

    /// Rewriter that collapses every row to a single marker cell.
    #[derive(Debug)]
    struct Collapse;
    impl CompactionRewriter for Collapse {
        fn rewrite_row(
            &self,
            _: &RewriteContext<'_>,
            cells: &ScanCells,
            out: &mut RowWriter<'_>,
        ) -> bool {
            let Some(newest) = cells.iter().map(|c| c.timestamp).max() else {
                return false;
            };
            out.push(b"sealed", newest, &(cells.len() as u64).to_be_bytes());
            true
        }
    }

    fn kv(row: &str, qual: &[u8], ts: u64) -> KeyValue {
        KeyValue::new(row.as_bytes().to_vec(), qual.to_vec(), ts, b"v".to_vec())
    }

    #[test]
    fn rewriter_replaces_rows_during_compaction() {
        let mut r = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        r.set_compaction_rewriter(Arc::new(Collapse));
        r.put_batch(vec![kv("a", b"q1", 1), kv("a", b"q2", 2)])
            .unwrap();
        r.flush();
        r.put_batch(vec![kv("b", b"q1", 3)]).unwrap();
        r.flush();
        r.compact();
        let cells = r.scan(&RowRange::all());
        assert_eq!(cells.len(), 2, "one sealed cell per row");
        assert!(cells.iter().all(|c| &c.qualifier[..] == b"sealed"));
        let a = cells.iter().find(|c| &c.row[..] == b"a").unwrap();
        assert_eq!(&a.value[..], &2u64.to_be_bytes());
    }

    #[test]
    fn rewriter_compacts_even_a_single_file() {
        let mut r = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        r.set_compaction_rewriter(Arc::new(Collapse));
        r.put_batch(vec![kv("a", b"q1", 1)]).unwrap();
        r.flush();
        r.compact();
        let cells = r.scan(&RowRange::all());
        assert_eq!(cells.len(), 1);
        assert_eq!(&cells[0].qualifier[..], b"sealed");
    }

    /// Rewriter that answers row `a` with two cells out of key order.
    #[derive(Debug)]
    struct Disorder;
    impl CompactionRewriter for Disorder {
        fn rewrite_row(
            &self,
            ctx: &RewriteContext<'_>,
            cells: &ScanCells,
            out: &mut RowWriter<'_>,
        ) -> bool {
            if ctx.row == b"a" {
                out.push(b"z", 1, b"");
                out.push(b"a", 1, b"");
                return true;
            }
            Collapse.rewrite_row(ctx, cells, out)
        }
    }

    #[test]
    fn an_out_of_order_replacement_is_refused_and_the_row_kept() {
        let mut r = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        r.set_compaction_rewriter(Arc::new(Disorder));
        r.put_batch(vec![kv("a", b"q1", 1), kv("b", b"q1", 1)])
            .unwrap();
        r.flush();
        r.put_batch(vec![kv("a", b"q2", 2), kv("c", b"q1", 1)])
            .unwrap();
        r.flush();
        r.compact();
        let cells = r.scan(&RowRange::all());
        let keys: Vec<(&[u8], &[u8])> = cells
            .iter()
            .map(|c| (&c.row[..], &c.qualifier[..]))
            .collect();
        // Row `a` keeps its merged cells; `b` and `c` are collapsed; the
        // store file is still sorted (`from_batch` asserts it in debug).
        assert_eq!(
            keys,
            [
                (&b"a"[..], &b"q1"[..]),
                (b"a", b"q2"),
                (b"b", b"sealed"),
                (b"c", b"sealed"),
            ]
        );
        assert_eq!(r.metrics().rewritten_rows, 2);
        assert_eq!(r.metrics().compacted_cells, 4);
    }

    /// Rewriter that writes a cell, then declines every row.
    #[derive(Debug)]
    struct Decline;
    impl CompactionRewriter for Decline {
        fn rewrite_row(
            &self,
            _: &RewriteContext<'_>,
            _: &ScanCells,
            out: &mut RowWriter<'_>,
        ) -> bool {
            out.push(b"dropped", 1, b"");
            false
        }
    }

    #[test]
    fn declining_rewriter_leaves_output_identical() {
        let mk = || {
            let mut r = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
            r.put_batch(vec![kv("a", b"q1", 1), kv("b", b"q1", 2)])
                .unwrap();
            r.flush();
            r.put_batch(vec![kv("a", b"q1", 3)]).unwrap();
            r.flush();
            r
        };
        let mut plain = mk();
        plain.compact();
        let mut declined = mk();
        declined.set_compaction_rewriter(Arc::new(Decline));
        declined.compact();
        assert_eq!(
            plain.scan(&RowRange::all()),
            declined.scan(&RowRange::all())
        );
        assert_eq!(declined.metrics().rewritten_rows, 0);
    }
}
