//! Pluggable compaction rewriters.
//!
//! HBase lets coprocessors rewrite cells during compaction; MiniBase keeps
//! the same seam as a small trait. A [`CompactionRewriter`] sees every row
//! of the merged, version-GC'd compaction output and may replace that
//! row's cells wholesale — the mechanism `pga-tsdb` uses to seal finished
//! rows of raw cells into canonical columnar blocks, and `pga-query` could
//! use to canonicalize rollup cells. Because MiniBase has no deletes,
//! compaction-time rewriting is the *only* way cells are ever physically
//! superseded; a rewriter that loses data loses it forever, which is why
//! the pga-faultsim compaction oracle exists.

use std::sync::Arc;

use crate::kv::KeyValue;
use crate::region::RegionId;

/// Shared handle to a rewriter (cloned into every region of a server).
pub type RewriterHandle = Arc<dyn CompactionRewriter>;

/// Per-row context handed to a rewriter during one compaction.
#[derive(Debug, Clone, Copy)]
pub struct RewriteContext<'a> {
    /// Region being compacted.
    pub region: RegionId,
    /// Row key shared by every cell in the group.
    pub row: &'a [u8],
    /// Fault-plane injection: when `true`, a deliberately broken rewriter
    /// drops raw cells that overlap an existing sealed block instead of
    /// merging them (seeded mutant E). Faithful rewriters must honour the
    /// merge regardless; the flag exists so the *same* rewriter code hosts
    /// both behaviours under the simulator.
    pub drop_sealed_overlap: bool,
}

/// Rewrites one row's cells during compaction.
///
/// Implementations must be deterministic and side-effect free on the
/// store: they run inside `Region::compact` with the region lock held.
pub trait CompactionRewriter: Send + Sync + std::fmt::Debug {
    /// Offered the cells of one row (sorted qualifier-ascending, newest
    /// version first within a qualifier, exactly as compaction merged
    /// them). Return `Some(replacement)` to substitute the row's cells, or
    /// `None` to keep the row unchanged. Replacement cells must keep the
    /// same row key — compaction builds its output row by row, so a
    /// replacement with a cell under another row is refused whole and the
    /// merged row kept; it sorts the replacement itself, so qualifier
    /// order within the returned vector is free.
    fn rewrite_row(&self, ctx: &RewriteContext<'_>, cells: &[KeyValue]) -> Option<Vec<KeyValue>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::RowRange;
    use crate::region::{Region, RegionConfig};
    use bytes::Bytes;

    /// Rewriter that collapses every row to a single marker cell.
    #[derive(Debug)]
    struct Collapse;
    impl CompactionRewriter for Collapse {
        fn rewrite_row(
            &self,
            ctx: &RewriteContext<'_>,
            cells: &[KeyValue],
        ) -> Option<Vec<KeyValue>> {
            let newest = cells.iter().map(|c| c.timestamp).max()?;
            Some(vec![KeyValue {
                row: Bytes::copy_from_slice(ctx.row),
                qualifier: Bytes::copy_from_slice(b"sealed"),
                timestamp: newest,
                value: Bytes::copy_from_slice(&(cells.len() as u64).to_be_bytes()),
            }])
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

    /// Rewriter that answers row `a` with a cell of row `zz`.
    #[derive(Debug)]
    struct Stray;
    impl CompactionRewriter for Stray {
        fn rewrite_row(
            &self,
            ctx: &RewriteContext<'_>,
            cells: &[KeyValue],
        ) -> Option<Vec<KeyValue>> {
            let mut out = Collapse.rewrite_row(ctx, cells)?;
            if ctx.row == b"a" {
                out.push(kv("zz", b"stray", 9));
            }
            Some(out)
        }
    }

    #[test]
    fn a_replacement_under_another_row_is_refused_and_the_row_kept() {
        let mut r = Region::new(RegionId(1), RowRange::all(), RegionConfig::default());
        r.set_compaction_rewriter(Arc::new(Stray));
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
        // store file is still sorted (`from_sorted` asserts it in debug).
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

    /// Rewriter that declines every row.
    #[derive(Debug)]
    struct Decline;
    impl CompactionRewriter for Decline {
        fn rewrite_row(&self, _: &RewriteContext<'_>, _: &[KeyValue]) -> Option<Vec<KeyValue>> {
            None
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
    }
}
