//! An exact, host-independent guard on the write path: how often a
//! steady-state `Tsd::put_batch` allocates, counted, not timed.
//!
//! Before the series table (ISSUE 20) a sample cost about 22 allocations
//! between the row-key encoder and the rollup observer — for names that
//! are the same on every tick. What is left is the qualifier and value
//! buffer of each cell plus a handful of vectors per batch; a change that
//! brings per-sample name handling back fails here on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pga_ingest::IngestionPipeline;
use pga_query::RollupWriter;
use pga_tsdb::BatchPoint;

thread_local! {
    /// Allocations of this thread since it armed the counter, if it has.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAllocator;

// SAFETY: every request goes to `System` unchanged, which upholds the
// `GlobalAlloc` contract. The counter is a const-initialised thread-local
// `Cell` without a destructor: touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations (and re-allocations) the calling thread makes inside `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let result = f();
    let count = ALLOCATIONS.with(|n| n.take()).expect("armed above");
    (result, count)
}

#[test]
fn a_steady_state_put_batch_allocates_for_cells_not_for_names() {
    const SERIES: u64 = 256;
    let stack = IngestionPipeline::new(2, 1, SERIES as usize);
    let tsd = stack.tsd();
    tsd.set_observer(Arc::new(RollupWriter::new(
        tsd.codec().clone(),
        vec![60, 600],
        0,
    )));
    let sensors: Vec<String> = (0..SERIES).map(|s| s.to_string()).collect();
    let tags: Vec<[(&str, &str); 2]> = sensors
        .iter()
        .map(|s| [("unit", "0"), ("sensor", s.as_str())])
        .collect();
    let batch =
        |ts: u64| -> Vec<BatchPoint> { tags.iter().map(|t| (&t[..], ts, ts as f64)).collect() };
    // First sight of every series, then a batch that finds everything in
    // place: series entries, row slots, open buckets, sized vectors.
    for ts in [100, 101] {
        tsd.put_batch("energy", &batch(ts)).unwrap();
    }
    let points = batch(102);
    let (result, count) = allocations(|| tsd.put_batch("energy", &points));
    result.unwrap();
    // Qualifier and value of each cell, plus the per-batch vectors of the
    // TSD, of `Client::put` and of the RPC.
    assert!(
        count <= 2 * SERIES + 64,
        "{count} allocations for {SERIES} samples"
    );
    assert!(count >= 2 * SERIES, "the counter counts: {count}");

    // A name resolves without allocating; its row key is one buffer.
    let codec = tsd.codec();
    let (series, count) = allocations(|| codec.resolve("energy", &tags[7]));
    assert_eq!(count, 0);
    let swapped = [tags[7][1], tags[7][0]];
    codec.resolve("energy", &swapped); // first sight of this spelling
    let (again, count) = allocations(|| codec.resolve("energy", &swapped));
    assert_eq!((again.id(), count), (series.id(), 0));
    let (row, count) = allocations(|| codec.row_key("energy", &tags[7], 102));
    assert_eq!(count, 1);
    assert_eq!(row, codec.row_of(&series, 102));
    stack.shutdown();
}
