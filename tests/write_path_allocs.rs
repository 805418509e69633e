//! Exact, host-independent guards on the write path, the dashboard's text
//! path and the engine's rollup read: how often a steady-state
//! `Tsd::put_batch`, a machine-page render, and a cold and a warm
//! `/api/query` answer allocate, counted, not timed.
//!
//! Before the series table (ISSUE 20) a sample cost about 22 allocations
//! between the row-key encoder and the rollup observer — for names that
//! are the same on every tick. What is left is the qualifier and value
//! buffer of each cell plus a handful of vectors per batch; a change that
//! brings per-sample name handling back fails here on any machine. The
//! same holds for a string per number or per `dps` key on the text path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pga_ingest::IngestionPipeline;
use pga_platform::{Monitor, PlatformConfig};
use pga_query::{QueryEngine, QueryEngineConfig, RollupWriter};
use pga_tsdb::BatchPoint;
use pga_viz::{machine_page, Health, MachinePage, SensorPanel, UnitStatus};

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

/// The dashboard's text path writes into one buffer: a 24-panel ×
/// 300-point machine page, flags and a detail chart included, allocated
/// 15 622 times through an element tree of per-number strings.
#[test]
fn a_machine_page_renders_into_one_buffer() {
    let panels = (0..24u32)
        .map(|sensor| SensorPanel {
            sensor,
            points: (5_000..5_300u64)
                .map(|t| (t, 40.0 + (t as f64 * 0.01 + f64::from(sensor)).sin() * 3.0))
                .collect(),
            anomalies: if sensor < 3 {
                vec![5_049, 5_099, 5_149, 5_199, 5_249, 5_299]
            } else {
                Vec::new()
            },
        })
        .collect();
    let page = MachinePage {
        unit: 2,
        status: UnitStatus {
            unit: 2,
            health: Health::Warning,
            flagged_sensors: 3,
            last_anomaly: Some(5_299),
        },
        panels,
        detail: Some(0),
    };
    let (html, count) = allocations(|| machine_page(&page));
    assert!(html.contains("— detail") && html.matches("<circle").count() == 24);
    // 14: the page buffer, sized up front, plus a flag set per flagged
    // panel and the detail chart's tick lists. One more per panel fails.
    assert!(count <= 32, "{count} allocations for one page");
}

/// A warm `/api/query` answer — 32 series of 61 one-minute averages from
/// the result cache — is written straight from the engine's series,
/// where a `dps` map per series and a value tree cloning every key took
/// 9 005 allocations.
#[test]
fn a_warm_rollup_answer_writes_straight_from_the_series() {
    let mut config = PlatformConfig::demo(5);
    config.fleet.units = 1;
    config.fleet.sensors_per_unit = 32;
    let m = Monitor::new(config).unwrap();
    let sensors: Vec<String> = (0..32).map(|s| s.to_string()).collect();
    let tags: Vec<[(&str, &str); 2]> = sensors
        .iter()
        .map(|s| [("unit", "0"), ("sensor", s.as_str())])
        .collect();
    // Four-digit timestamps: keys in string order as they come.
    for minute in 20..=80u64 {
        let ts = 60 * minute;
        let points: Vec<BatchPoint> = tags.iter().map(|t| (&t[..], ts, ts as f64)).collect();
        m.tsd().put_batch("energy", &points).unwrap();
    }
    m.tsd().flush_observer().unwrap();
    let body = r#"{"start":1200,"end":4800,"queries":[{"metric":"energy","tags":{"unit":"0"},"downsample":"60s-avg"}]}"#;
    let cold = pga_tsdb::handle_query_with(m.engine().as_ref(), body).unwrap();
    let (warm, count) = allocations(|| pga_tsdb::handle_query_with(m.engine().as_ref(), body));
    assert_eq!(warm.unwrap(), cold);
    assert_eq!(cold.matches("\"metric\"").count(), 32);
    assert_eq!(cold.matches(':').count(), 32 * (3 + 2 + 61));
    // 287: the cached series' copy (a handful per series), the request's
    // parse and one body buffer. One more per point fails.
    assert!(count <= 500, "{count} allocations for one warm answer");
    m.shutdown();
}

/// A cold `/api/query` answer — 32 series of 61 one-minute averages, from
/// a store two TSD writers filled (two cells a bucket) — folds the rollup
/// cells in one pass in scan order: no owned cell, bitmap or map entry per
/// cell, no thread per salt. The sort-decode-and-map fold and the scoped
/// scan threads it replaced took 9 745 allocations here.
#[test]
fn a_cold_rollup_answer_folds_cells_in_place() {
    let stack = IngestionPipeline::new(2, 2, 32);
    for (writer, tsd) in stack.tsds().iter().enumerate() {
        tsd.set_observer(Arc::new(RollupWriter::new(
            tsd.codec().clone(),
            vec![60, 600],
            writer as u8,
        )));
    }
    let sensors: Vec<String> = (0..32).map(|s| s.to_string()).collect();
    let tags: Vec<[(&str, &str); 2]> = sensors
        .iter()
        .map(|s| [("unit", "0"), ("sensor", s.as_str())])
        .collect();
    // Each minute's first half-minute through one writer, the second half
    // through the other.
    for minute in 20..=80u64 {
        for (half, tsd) in stack.tsds().iter().enumerate() {
            let ts = 60 * minute + 30 * half as u64;
            let points: Vec<BatchPoint> = tags.iter().map(|t| (&t[..], ts, ts as f64)).collect();
            tsd.put_batch("energy", &points).unwrap();
        }
    }
    for tsd in stack.tsds() {
        tsd.flush_observer().unwrap();
    }
    let engine = QueryEngine::new(
        stack.tsd().codec().clone(),
        pga_minibase::Client::connect(stack.master()),
        QueryEngineConfig::default(),
    );
    let body = r#"{"start":1200,"end":4800,"queries":[{"metric":"energy","tags":{"unit":"0"},"downsample":"60s-avg"}]}"#;
    let (cold, count) = allocations(|| pga_tsdb::handle_query_with(&engine, body));
    let cold = cold.unwrap();
    assert_eq!(engine.stats().cache_misses, 1, "answered by the engine");
    assert_eq!(cold.matches("\"metric\"").count(), 32);
    assert_eq!(cold.matches(':').count(), 32 * (3 + 2 + 61));
    // 1 601: per scan, its request, reply channel and cell vectors; per
    // series, its windows, tags and answer. The bound is a third of the
    // 9 745; one more per scanned cell (3 712 rollup cells, 160 raw) fails.
    assert!(count <= 3_248, "{count} allocations for one cold answer");
    stack.shutdown();
}
