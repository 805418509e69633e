//! Resident bytes of stored cells, counted by a global allocator that
//! tracks the live heap bytes each thread requested (no malloc overhead).
//! A test allocates and frees its stores on its own thread, so each reads
//! its own count whatever runs beside it.
//!
//! The memstore keeps the batches it is given and a scan reply lends
//! ranges of them, so reading every cell adds nothing per cell: the bytes
//! a memstore holds are the same before and after a full scan (when a
//! scan made each cell it read into an owned cell, they went from ≈ 47 to
//! ≈ 127 a cell). A batch packs a run's qualifiers and values into byte
//! columns with no end offsets when their widths agree, so a raw cell is
//! its 2-byte qualifier, its version and its 8-byte value: 18 bytes and a
//! share of its run. With a shared qualifier handle and an end offset a
//! cell, the memstore, a full scan and a flushed file held ≈ 41, 41 and 40
//! bytes a cell. A region's write-ahead log holds the memstore's own
//! batches, where it kept a second, re-encoded copy of ≈ 46 bytes a cell:
//! memstore and log held ≈ 99 bytes a raw cell between them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;

use pga_minibase::{MemStore, PutBatch, Region, RegionConfig, RegionId, RowRange};

thread_local! {
    /// Live heap bytes this thread requested, less those it freed.
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request goes to `System` unchanged, which upholds the
// `GlobalAlloc` contract. The counter is a const-initialised thread-local
// `Cell` without a destructor: touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|n| n.set(n.get().wrapping_add(layout.size())));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get().wrapping_sub(layout.size())));
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Series rows a put writes to, and the ticks of each row a put carries:
/// a firehose put of one node's series, 50 ticks at a time.
const ROWS: usize = 131;
const TICKS: usize = 50;
const PUTS: usize = 12;

/// Live bytes of this thread.
fn live() -> usize {
    LIVE.with(Cell::get)
}

/// Live bytes a cell above `base`.
fn per_cell(base: usize, cells: usize) -> f64 {
    live().wrapping_sub(base) as f64 / cells as f64
}

/// The codec's offset qualifiers and one row buffer per series row-hour,
/// as the TSD hands them to every put; `metric` starts each row key.
fn keys(metric: &[u8]) -> (Vec<[u8; 2]>, Vec<Bytes>) {
    let qualifiers = (0..3600u16).map(u16::to_be_bytes).collect();
    let rows = (0..ROWS)
        .map(|r| Bytes::from([metric, &(r as u64).to_be_bytes(), &[0; 9]].concat()))
        .collect();
    (qualifiers, rows)
}

/// Put `put`'s raw cells: `TICKS` ticks of every row.
fn push_raw(batch: &mut PutBatch, put: usize, rows: &[Bytes], qualifiers: &[[u8; 2]]) {
    for row in rows {
        let ticks = put * TICKS..(put + 1) * TICKS;
        for (tick, qualifier) in ticks.clone().zip(&qualifiers[ticks]) {
            let value = (tick as f64).to_be_bytes();
            batch.push(row, qualifier, tick as u64, &value);
        }
    }
}

#[test]
fn a_full_scan_adds_no_resident_bytes_and_a_flushed_cell_is_its_columns() {
    let (qualifiers, rows) = keys(b"\x01metricid");
    let base = live();
    let mut memstore = MemStore::new();
    for put in 0..PUTS {
        let cells = ROWS * TICKS;
        let mut batch = PutBatch::with_capacity(ROWS, cells, cells * 2, cells * 8);
        push_raw(&mut batch, put, &rows, &qualifiers);
        memstore.put_batch(batch);
    }
    let cells = memstore.len();
    assert_eq!(cells, ROWS * TICKS * PUTS);
    let held = per_cell(base, cells);

    let reply = memstore.select(&RowRange::all(), None, None);
    assert_eq!(reply.len(), cells);
    let read = per_cell(base, cells);
    // The reply holds a handle and a range per run of a kept batch (here
    // one per row and put: 1 572 of them), not per cell.
    assert!(read - held < 1.0, "{held:.1} → {read:.1} bytes a cell");
    drop(reply);
    // And the memstore holds what it held before the scan, to the byte.
    assert_eq!(per_cell(base, cells), held, "a scan left bytes behind");

    let file = memstore.drain(1);
    assert_eq!(file.len(), cells);
    let flushed = per_cell(base, cells);
    println!(
        "live bytes a cell: memstore {held:.1}, after a full scan {read:.1}, \
         flushed {flushed:.1}"
    );
    // 2 (qualifier) + 8 (version) + 8 (value), and a share of the row
    // runs, of the memstore's segments and of its row index.
    assert!(held <= 20.5, "{held:.1} bytes a cell in the memstore");
    assert!(read <= 21.0, "{read:.1} bytes a cell under a full scan");
    assert!(flushed <= 18.5, "{flushed:.1} bytes a flushed cell");
}

/// A rollup cell as the TSD carries it on a raw put: a 4-byte qualifier
/// and a 40-byte value, under a row of the rollup's shadow metric.
const ROLLUP_VALUE: usize = 40;

#[test]
fn a_region_logs_the_batches_its_memstore_keeps() {
    let (qualifiers, rows) = keys(b"\x01metricid");
    let (_, rollup_rows) = keys(b"\x01ru:60:m");
    let base = live();
    let manual = RegionConfig {
        memstore_flush_bytes: usize::MAX,
        compaction_file_threshold: usize::MAX,
    };
    let mut region = Region::new(RegionId(1), RowRange::all(), manual);
    for put in 0..PUTS {
        // The raw cells' runs and columns, then room for a run of one
        // rollup cell a row.
        let cells = ROWS * TICKS;
        let mut batch = PutBatch::with_capacity(
            2 * ROWS,
            cells + ROWS,
            cells * 2 + ROWS * 4,
            cells * 8 + ROWS * ROLLUP_VALUE,
        );
        push_raw(&mut batch, put, &rows, &qualifiers);
        // One sealed bucket a series rides on every put.
        for row in &rollup_rows {
            let qualifier = [0, put as u8, 1, 0];
            batch.push(row, &qualifier, put as u64, &[7; ROLLUP_VALUE]);
        }
        region.put_batch(batch).unwrap();
    }
    let raw = ROWS * TICKS * PUTS;
    assert_eq!(region.wal().unflushed_len(), raw + ROWS * PUTS);
    let logged = per_cell(base, raw);
    println!("live bytes a raw cell, memstore and log: {logged:.1}");
    // 18 bytes a raw cell, a share of its run, and the rollup cells'
    // 44 bytes and runs spread over the raw cells (about 3 a cell).
    assert!(logged <= 24.0, "{logged:.1} bytes a raw cell");
    // The log's image is written from the shared batches when it is
    // taken, and reads back to the same cells.
    let cells = region.scan(&RowRange::all());
    assert!(!region.crash_recover(), "the image is whole");
    assert_eq!(region.scan(&RowRange::all()), cells);
}
