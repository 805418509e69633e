//! K-way merge scans across the memstore and store files.

use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::kv::KeyValue;

/// Merge already-sorted cell streams into one sorted stream, deduplicating
/// exact `(row, qualifier, timestamp)` collisions in favour of the source
/// with the highest priority (the memstore, then newer store files).
///
/// `sources` must each be sorted; `priorities[i]` ranks source `i` (higher
/// wins collisions).
pub fn merge_scan(sources: Vec<Vec<KeyValue>>, priorities: Vec<u64>) -> Vec<KeyValue> {
    assert_eq!(sources.len(), priorities.len());
    struct HeapItem {
        kv: KeyValue,
        source: usize,
        priority: u64,
    }
    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.kv == other.kv && self.priority == other.priority
        }
    }
    impl Eq for HeapItem {}
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap; we want the smallest cell first, and
            // among equal cell keys the highest priority first.
            other
                .kv
                .cmp(&self.kv)
                .then_with(|| self.priority.cmp(&other.priority))
        }
    }
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    // Empty sources never reach the heap, and a lone source is its own
    // merge: no source holds an exact duplicate of its own (the memstore
    // replaces on write, store files are built from merged output).
    let mut live: Vec<(Vec<KeyValue>, u64)> = sources
        .into_iter()
        .zip(priorities)
        .filter(|(cells, _)| !cells.is_empty())
        .collect();
    if live.len() <= 1 {
        return live.pop().map(|(cells, _)| cells).unwrap_or_default();
    }
    let mut out: Vec<KeyValue> = Vec::with_capacity(live.iter().map(|(c, _)| c.len()).sum());
    let mut iters: Vec<std::vec::IntoIter<KeyValue>> = Vec::with_capacity(live.len());
    let mut heap = BinaryHeap::with_capacity(live.len());
    for (source, (cells, priority)) in live.into_iter().enumerate() {
        let mut it = cells.into_iter();
        if let Some(kv) = it.next() {
            heap.push(HeapItem {
                kv,
                source,
                priority,
            });
        }
        iters.push(it);
    }
    while let Some(mut top) = heap.peek_mut() {
        // Refill the top slot in place (one sift) rather than pop + push.
        let kv = match iters[top.source].next() {
            Some(next) => std::mem::replace(&mut top.kv, next),
            None => PeekMut::pop(top).kv,
        };
        // Equal keys leave the heap highest priority first: keep that one.
        if out.last().is_none_or(|last| last.cmp(&kv).is_ne()) {
            out.push(kv);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(row: &str, ts: u64, val: &str) -> KeyValue {
        KeyValue::new(
            row.as_bytes().to_vec(),
            b"q".to_vec(),
            ts,
            val.as_bytes().to_vec(),
        )
    }

    #[test]
    fn merges_disjoint_sources_in_order() {
        let a = vec![kv("a", 1, "1"), kv("c", 1, "1")];
        let b = vec![kv("b", 1, "1"), kv("d", 1, "1")];
        let merged = merge_scan(vec![a, b], vec![1, 0]);
        let rows: Vec<_> = merged.iter().map(|k| k.row.clone()).collect();
        assert_eq!(rows, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn duplicate_cells_resolved_by_priority() {
        let memstore = vec![kv("a", 5, "newer-source")];
        let file = vec![kv("a", 5, "older-source")];
        let merged = merge_scan(vec![file, memstore], vec![0, 10]);
        assert_eq!(merged.len(), 1);
        assert_eq!(&merged[0].value[..], b"newer-source");
    }

    #[test]
    fn versions_of_same_cell_newest_first() {
        let f1 = vec![kv("a", 1, "v1")];
        let f2 = vec![kv("a", 9, "v9")];
        let merged = merge_scan(vec![f1, f2], vec![0, 1]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].timestamp, 9);
        assert_eq!(merged[1].timestamp, 1);
    }

    #[test]
    fn empty_sources_are_fine() {
        assert!(merge_scan(vec![], vec![]).is_empty());
        assert_eq!(
            merge_scan(vec![vec![], vec![kv("a", 1, "v")]], vec![0, 1]).len(),
            1
        );
    }

    #[test]
    fn three_way_merge_with_collisions() {
        let s0 = vec![kv("a", 1, "s0"), kv("b", 1, "s0")];
        let s1 = vec![kv("a", 1, "s1"), kv("c", 1, "s1")];
        let s2 = vec![kv("b", 1, "s2"), kv("c", 1, "s2")];
        let merged = merge_scan(vec![s0, s1, s2], vec![0, 1, 2]);
        assert_eq!(merged.len(), 3);
        let winners: Vec<_> = merged
            .iter()
            .map(|k| String::from_utf8(k.value.to_vec()).unwrap())
            .collect();
        assert_eq!(winners, vec!["s1", "s2", "s2"]);
    }
}
