//! Resident bytes of stored cells, counted by a global allocator that
//! tracks the live heap bytes requested (no malloc overhead).
//!
//! The memstore keeps the batches it is given and a scan reply lends
//! ranges of them, so reading every cell adds nothing per cell: the bytes
//! a memstore holds are the same before and after a full scan (when a
//! scan made each cell it read into an owned cell, they went from ≈ 47 to
//! ≈ 127 a cell). A flushed cell is one sorted batch's columns — a shared
//! qualifier handle, its version, its value's end and its value — where an
//! owned cell and its value buffer took ≈ 88.
//!
//! One test in this binary, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bytes::Bytes;

use pga_minibase::{MemStore, PutBatch, RowRange};

/// Live heap bytes requested through the allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every request goes to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
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

/// Live bytes a cell above `base`.
fn per_cell(base: usize, cells: usize) -> f64 {
    (LIVE.load(Relaxed) - base) as f64 / cells as f64
}

#[test]
fn a_full_scan_adds_no_resident_bytes_and_a_flushed_cell_is_its_columns() {
    // The codec's shared offset qualifiers and one row buffer per series
    // row-hour, as the TSD hands them to every put.
    let qualifiers: Vec<Bytes> = (0..3600u16)
        .map(|offset| Bytes::from(offset.to_be_bytes().to_vec()))
        .collect();
    let rows: Vec<Bytes> = (0..ROWS)
        .map(|r| Bytes::from([&b"\x01metricid"[..], &(r as u64).to_be_bytes(), &[0; 9]].concat()))
        .collect();
    let base = LIVE.load(Relaxed);
    let mut memstore = MemStore::new();
    for put in 0..PUTS {
        let mut batch = PutBatch::with_capacity(ROWS, ROWS * TICKS, ROWS * TICKS * 8);
        for row in &rows {
            let ticks = put * TICKS..(put + 1) * TICKS;
            for (tick, qualifier) in ticks.clone().zip(&qualifiers[ticks]) {
                let value = (tick as f64).to_be_bytes();
                batch.push(row, qualifier.clone(), tick as u64, &value);
            }
        }
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
    // 16 (qualifier handle) + 8 (version) + 8 (value end) + 8 (value),
    // and a share of the row runs.
    assert!(flushed <= 44.0, "{flushed:.1} bytes a flushed cell");
}
