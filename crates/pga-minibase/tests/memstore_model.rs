//! Model test: the memstore, fed put batches, holds and returns what a
//! plain sorted map of `(row, qualifier, newest version first) → value`
//! holds — whatever mix of in-order appends, back-fills, exact-key
//! rewrites, extra versions and single puts reaches it, with scans in
//! between the writes — and counts every cell a rewrite replaced towards
//! its flush. A scan reply lends the memstore's batches, so every reply
//! is kept to the end: after the later back-fills, rewrites and the
//! flush, each must still hold what the model held when it was taken.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;

use pga_minibase::{
    CellRef, ColumnRange, KeyValue, MemStore, PutBatch, RowRange, RowWords, ScanCells,
};

type Key = (Vec<u8>, Vec<u8>, Reverse<u64>);

/// Value lengths a cell may have: empty, short, a float's, 1 KiB.
const VALUE_LENS: [usize; 4] = [0, 1, 8, 1024];

/// Rows 0..6 are short-keyed; 6 and 7 are the long rows a `Fill` writes.
const ROWS: u8 = 8;

fn row_key(row: u8) -> Vec<u8> {
    match row {
        0..6 => vec![b'k', row % 3, row],
        _ => [&[b'k', row % 3, row][..], &[0x5a; 17]].concat(),
    }
}

/// One piece of a batch: `count` cells of one row, of one kind.
#[derive(Debug, Clone)]
struct Piece {
    row: u8,
    /// 0 in-order append, 1 back-fill, 2 rewrite of a held key with a
    /// value of another length, 3 another version of a held qualifier,
    /// 4 append of three-byte qualifiers.
    kind: u8,
    count: u8,
    value_len: usize,
    seed: u16,
}

#[derive(Debug, Clone)]
enum Op {
    /// One batch of pieces; with `single`, the same cells put one by one.
    Put { pieces: Vec<Piece>, single: bool },
    /// 3 600 in-order cells on a long row, in `batches` batches.
    Fill { row: u8, batches: u8 },
    /// A scan: rows `[a, b)` (`a == b`: every row; keys need not be in
    /// order), an optional qualifier window `[lo, hi)` and an optional row
    /// word.
    Select {
        rows: (u8, u8),
        window: Option<(u16, u16)>,
        word: Option<u8>,
    },
}

fn piece() -> impl Strategy<Value = Piece> {
    (0..ROWS, 0u8..5, 1u8..8, 0..VALUE_LENS.len(), any::<u16>()).prop_map(
        |(row, kind, count, len, seed)| Piece {
            row,
            kind,
            count,
            value_len: VALUE_LENS[len],
            seed,
        },
    )
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (proptest::collection::vec(piece(), 1..6), 0u8..4)
            .prop_map(|(pieces, single)| Op::Put { pieces, single: single == 0 }),
        1 => (6u8..ROWS, 1u8..5).prop_map(|(row, batches)| Op::Fill { row, batches }),
        3 => (
            (0..ROWS + 1, 0..ROWS + 1),
            (0u8..3, 0u16..3700, 0u16..3700),
            0u8..6,
        )
            .prop_map(|(rows, (windowed, lo, hi), word)| Op::Select {
                rows,
                window: (windowed > 0).then_some((lo.min(hi), lo.max(hi))),
                word: (word < 3).then_some(word),
            }),
    ]
}

/// The model, where each row's next in-order offset is, and the size of
/// the cells replaced since the last drain.
#[derive(Default)]
struct Model {
    cells: BTreeMap<Key, Vec<u8>>,
    next: BTreeMap<u8, u16>,
    replaced: usize,
}

impl Model {
    fn heap_size(&self) -> usize {
        self.cells.iter().map(|(k, v)| kv(k, v).heap_size()).sum()
    }

    /// The held keys of `row`.
    fn keys(&self, row: &[u8]) -> Vec<Key> {
        self.cells
            .keys()
            .filter(|(r, ..)| r == row)
            .cloned()
            .collect()
    }

    /// The cells a piece writes, in the order it writes them.
    fn cells_of(&mut self, p: &Piece) -> Vec<KeyValue> {
        let row = row_key(p.row);
        let value = |k: usize| vec![(p.seed as usize + k) as u8; p.value_len];
        let next = self.next.entry(p.row).or_insert(100);
        let at = |offset: u16| offset.to_be_bytes().to_vec();
        let mut out = Vec::new();
        match p.kind {
            0 | 4 => {
                for k in 0..p.count as usize {
                    let mut q = at(*next);
                    if p.kind == 4 {
                        q.push(0xff);
                    }
                    out.push(KeyValue::new(
                        row.clone(),
                        q,
                        u64::from(*next) * 1000,
                        value(k),
                    ));
                    *next = next.saturating_add(1);
                }
            }
            1 => {
                for k in 0..p.count as usize {
                    let offset = (p.seed as usize + k * 37) % *next as usize;
                    let ts = offset as u64 * 1000;
                    out.push(KeyValue::new(row.clone(), at(offset as u16), ts, value(k)));
                }
            }
            _ => {
                let held = self.keys(&row);
                for k in 0..p.count as usize {
                    let Some((_, q, Reverse(ts))) =
                        held.get((p.seed as usize + k * 7) % held.len().max(1))
                    else {
                        break;
                    };
                    let (ts, len) = match p.kind {
                        // Another length than the held value's.
                        2 => (
                            *ts,
                            (self.cells[&(row.clone(), q.clone(), Reverse(*ts))].len() + 3) % 1030,
                        ),
                        _ => (ts ^ (1 + k as u64), p.value_len),
                    };
                    out.push(KeyValue::new(
                        row.clone(),
                        q.clone(),
                        ts,
                        vec![k as u8; len],
                    ));
                }
            }
        }
        out
    }

    fn put(&mut self, kv: &KeyValue) {
        let key = (
            kv.row.to_vec(),
            kv.qualifier.to_vec(),
            Reverse(kv.timestamp),
        );
        if let Some(old) = self.cells.insert(key.clone(), kv.value.to_vec()) {
            self.replaced += self::kv(&key, &old).heap_size();
        }
    }

    fn select(
        &self,
        rows: &RowRange,
        window: Option<&ColumnRange>,
        words: Option<&RowWords>,
    ) -> Vec<KeyValue> {
        self.cells
            .iter()
            .filter(|((row, q, _), _)| {
                rows.contains(row)
                    && words.is_none_or(|w| w.matches(row))
                    && window.is_none_or(|c| q[..] >= c.start[..] && q[..] < c.end[..])
            })
            .map(|(k, v)| kv(k, v))
            .collect()
    }
}

fn kv((row, q, Reverse(ts)): &Key, value: &[u8]) -> KeyValue {
    KeyValue::new(row.clone(), q.clone(), *ts, value.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_memstore_fed_batches_equals_the_sorted_map(ops in proptest::collection::vec(op(), 1..24)) {
        let mut store = MemStore::new();
        let mut model = Model::default();
        // Every reply taken, with what the model held when it was taken.
        let mut held: Vec<(ScanCells, Vec<KeyValue>)> = Vec::new();
        for op in &ops {
            match op {
                Op::Put { pieces, single } => {
                    let cells: Vec<KeyValue> =
                        pieces.iter().flat_map(|p| model.cells_of(p)).collect();
                    cells.iter().for_each(|kv| model.put(kv));
                    match single {
                        true => cells.into_iter().for_each(|kv| store.put(kv)),
                        false => store.put_batch(PutBatch::from(cells)),
                    }
                }
                Op::Fill { row, batches } => {
                    let key = Bytes::from(row_key(*row));
                    let next = model.next.entry(*row).or_insert(100);
                    let first = *next;
                    *next = next.saturating_add(3600);
                    let per = 3600usize.div_ceil(*batches as usize);
                    let offsets: Vec<u16> = (first..*next).collect();
                    for chunk in offsets.chunks(per) {
                        let mut batch = PutBatch::new();
                        for &o in chunk {
                            let (q, ts) = (o.to_be_bytes(), u64::from(o) * 1000);
                            batch.push(&key, &q, ts, &(o as f64).to_be_bytes());
                        }
                        for kv in batch.clone().into_kvs() {
                            model.put(&kv);
                        }
                        store.put_batch(batch);
                    }
                }
                Op::Select { rows, window, word } => {
                    let rows = match rows {
                        (a, b) if a == b => RowRange::all(),
                        // Either way round: an inverted range holds nothing.
                        (a, b) => RowRange::new(row_key(*a), row_key(*b)),
                    };
                    let window = window.map(|(lo, hi)| {
                        ColumnRange::new(lo.to_be_bytes().to_vec(), hi.to_be_bytes().to_vec())
                    });
                    let words = word.map(|w| RowWords::new(1, 1, [[w]]));
                    let columns = window.clone().map(|c| vec![c]);
                    let got = store.select(&rows, columns.as_deref(), words.as_ref());
                    let expect = model.select(&rows, window.as_ref(), words.as_ref());
                    prop_assert_eq!(got.to_vec(), expect.clone());
                    held.push((got, expect));
                }
            }
            for (reply, expect) in &held {
                prop_assert_eq!(&reply.to_vec(), expect);
            }
            prop_assert_eq!(store.len(), model.cells.len());
            prop_assert_eq!(store.heap_size(), model.heap_size());
            prop_assert_eq!(store.held_size(), model.heap_size() + model.replaced);
        }
        let all = model.select(&RowRange::all(), None, None);
        let file = store.drain(1);
        let drained: Vec<KeyValue> = file.scan(&RowRange::all()).map(CellRef::to_kv).collect();
        prop_assert_eq!(drained, all);
        prop_assert_eq!((store.len(), store.heap_size(), store.held_size()), (0, 0, 0));
        for (reply, expect) in &held {
            prop_assert_eq!(&reply.to_vec(), expect);
        }
    }
}
