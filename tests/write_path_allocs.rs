//! Exact, host-independent guards on the write path, the dashboard's text
//! path and the engine's rollup read: how often a steady-state
//! `Tsd::put_batch` and `Tsd::put_series_batch`, a proxy's series lookup,
//! a machine-page render, and a cold and a warm `/api/query` answer
//! allocate, counted, not timed.
//!
//! Before the series table (ISSUE 20) a sample cost about 22 allocations
//! between the row-key encoder and the rollup observer — for names that
//! are the same on every tick — and until put batches carried row runs a
//! cell still cost its value buffer. What is left is a handful of vectors
//! per batch, however many series it writes: the cells' values are packed
//! into one buffer and their qualifiers are clones from the codec's table
//! of offsets. A change that brings per-sample allocation back fails here
//! on any machine. The same holds for a string per number or per `dps`
//! key on the text path. Scoring a window allocates per call, not per
//! sensor, and a region's compaction per row, not per cell, whether a
//! rewriter reads its rows or not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pga_detect::{train_unit, OnlineEvaluator};
use pga_ingest::{IngestionPipeline, SensorSeries};
use pga_platform::{Monitor, PlatformConfig};
use pga_query::{QueryEngine, QueryEngineConfig, RollupWriter};
use pga_sensorgen::{Fleet, FleetConfig};
use pga_stats::Procedure;
use pga_tsdb::{BatchPoint, SeriesPoint, SeriesRuns};
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

/// Allocations of a steady-state `put_batch` of one point for each of
/// `series` series, through a TSD with a rollup observer.
fn steady_put_batch(series: u64) -> u64 {
    let stack = IngestionPipeline::new(2, 1, series as usize);
    let tsd = stack.tsd();
    tsd.set_observer(Arc::new(RollupWriter::new(
        tsd.codec().clone(),
        vec![60, 600],
        0,
    )));
    let sensors: Vec<String> = (0..series).map(|s| s.to_string()).collect();
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

    // A name resolves without allocating; its row key is one buffer.
    let codec = tsd.codec();
    let (resolved, none) = allocations(|| codec.resolve("energy", &tags[7]));
    assert_eq!(none, 0);
    let swapped = [tags[7][1], tags[7][0]];
    codec.resolve("energy", &swapped); // first sight of this spelling
    let (again, none) = allocations(|| codec.resolve("energy", &swapped));
    assert_eq!((again.id(), none), (resolved.id(), 0));
    let (row, one) = allocations(|| codec.row_key("energy", &tags[7], 102));
    assert_eq!(one, 1);
    assert_eq!(row, codec.row_of(&resolved, 102));
    stack.shutdown();
    count
}

/// The per-batch vectors of the TSD, of `Client::put` and of the RPC: 21
/// for `put_batch` and 20 for a grouped `put_series_batch`, at 256 series
/// and at 1 024 alike. No term grows with the batch.
const PER_BATCH: u64 = 32;

/// The put batch's own columns (qualifiers, versions, value ends, values):
/// a count below them would mean the counter missed the put.
const COLUMNS: u64 = 4;

#[test]
fn a_steady_state_put_batch_allocates_for_cells_not_for_names() {
    for series in [256, 1_024] {
        let count = steady_put_batch(series);
        assert!(
            count <= PER_BATCH,
            "{count} allocations for {series} samples"
        );
        assert!(count >= COLUMNS, "the counter counts: {count}");
    }
}

/// Allocations of a steady-state lane put of `ticks` points for each of
/// `series` series: looked up as the proxy looks them up, one part a
/// tick, grouped by series as a proxy worker groups a lane's parts, and
/// put through `put_series_batch`, with a rollup observer. The grouping
/// counts. Every put stays inside one row-hour and one 600 s bucket, so
/// it seals no rollup cell: those are the observer's output, a cell a
/// bucket, and a put of more ticks seals more of them.
fn steady_put_series_batch(series: u64, ticks: u64) -> u64 {
    let stack = IngestionPipeline::new(2, 1, series as usize);
    let tsd = stack.tsd();
    tsd.set_observer(Arc::new(RollupWriter::new(
        tsd.codec().clone(),
        vec![600],
        0,
    )));
    let mut names = SensorSeries::new(tsd.codec().clone(), 1);
    let put = |names: &mut SensorSeries, first: u64| -> Vec<Vec<SeriesPoint>> {
        (first..first + ticks)
            .map(|ts| {
                (0..series as u32)
                    .map(|s| (names.get(0, s).0, ts, ts as f64))
                    .collect()
            })
            .collect()
    };
    let mut runs = SeriesRuns::new();
    let put_runs = |parts: &[Vec<SeriesPoint>], runs: &mut SeriesRuns| {
        runs.group(tsd.codec(), parts.iter().map(|p| &p[..]))?;
        tsd.put_series_batch(runs)
    };
    // First sight of every series, then a put that finds everything in
    // place: series entries, row slots, open buckets, sized vectors.
    for first in [1_200, 1_200 + ticks] {
        put_runs(&put(&mut names, first), &mut runs).unwrap();
    }
    let parts = put(&mut names, 1_200 + 2 * ticks);
    let (result, count) = allocations(|| put_runs(&parts, &mut runs));
    result.unwrap();

    let (found, none) = allocations(|| names.get(0, 7));
    assert_eq!(none, 0);
    let by_name = tsd
        .codec()
        .resolve("energy", &[("unit", "0"), ("sensor", "7")]);
    assert_eq!(found, (by_name.id(), 0));
    stack.shutdown();
    count
}

/// The proxy's path: each sensor's series looked up in a worker's own
/// table by `(unit, sensor)`, forwarded as its id and grouped into runs
/// once a put. A repeat lookup allocates nothing, and a steady-state
/// grouped put allocates per put, like `put_batch` without the
/// resolution: as often at 256 series as at 1 024, and at 50 points a
/// series as at 100.
#[test]
fn a_resolved_batch_allocates_for_cells_and_a_repeat_lookup_not_at_all() {
    for series in [256, 1_024] {
        let count = steady_put_series_batch(series, 1);
        assert!(
            count <= PER_BATCH,
            "{count} allocations for {series} samples"
        );
        assert!(count >= COLUMNS, "the counter counts: {count}");
    }
    let (fifty, hundred) = (
        steady_put_series_batch(256, 50),
        steady_put_series_batch(256, 100),
    );
    assert_eq!(fifty, hundred, "50 points a series, then 100");
    assert!(fifty <= PER_BATCH, "{fifty} allocations for 12 800 samples");
}

/// Allocations of a put that seals a rollup cell a series a tier, and of
/// the observer flush after it, for `series` series with 60 s and 600 s
/// tiers. The put crosses a bucket boundary of both tiers; the flush seals
/// the buckets it opened and puts every buffered cell at once. Earlier
/// puts and a flush of the same shape warm the writer, the row slots and
/// the open buckets.
fn sealing_put_and_flush(series: u64) -> u64 {
    let stack = IngestionPipeline::new(2, 1, series as usize);
    let tsd = stack.tsd();
    tsd.set_observer(Arc::new(RollupWriter::new(
        tsd.codec().clone(),
        vec![60, 600],
        0,
    )));
    let mut names = SensorSeries::new(tsd.codec().clone(), 1);
    let ids: Vec<u32> = (0..series as u32).map(|s| names.get(0, s).0).collect();
    let tick =
        |ts: u64| -> Vec<SeriesPoint> { ids.iter().map(|&id| (id, ts, ts as f64)).collect() };
    let mut runs = SeriesRuns::new();
    let mut put = |part: &[SeriesPoint]| {
        runs.group(tsd.codec(), [part])?;
        tsd.put_series_batch(&runs)
    };
    // 600 seals second 540's and second 0's buckets, the flush 600's;
    // 1 195 resumes the 600 s bucket the flush sealed.
    for ts in [595, 600] {
        put(&tick(ts)).unwrap();
    }
    tsd.flush_observer().unwrap();
    put(&tick(1_195)).unwrap();
    let crossing = tick(1_200);
    let puts = tsd.metrics().put_rpcs.load(Ordering::Relaxed);
    let (result, count) = allocations(|| {
        put(&crossing)?;
        tsd.flush_observer()
    });
    result.unwrap();
    let sealed = stack.tsd().metrics().put_rpcs.load(Ordering::Relaxed) - puts;
    assert_eq!(sealed, 2, "the put and the flush, one RPC each");
    stack.shutdown();
    count
}

/// Sealing writes each rollup cell into batch columns: a put that seals
/// 2 cells a series and the flush that seals 2 more allocate as often at
/// 256 series as at 1 024. When a sealed cell was an owned cell with its
/// own qualifier and value, 4 096 more cells cost 8 192 more allocations.
#[test]
fn sealing_rollup_cells_allocates_per_put_not_per_cell() {
    let (narrow, wide) = (sealing_put_and_flush(256), sealing_put_and_flush(1_024));
    assert!(narrow >= COLUMNS, "the counter counts: {narrow}");
    assert_eq!(narrow, wide, "256 series: {narrow}, 1 024 series: {wide}");
    // Measured 52 at both: two puts' vectors, the sealed batches and
    // the buffered cells' columns.
    assert!(narrow <= 2 * PER_BATCH, "{narrow} allocations");
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

/// Allocations of a `Region` (driven on this thread) reading a 50-tick
/// column window of 131 firehose-shaped rows of `ticks` cells each — once
/// from the open memstore and once from a flushed file — and of the
/// flush between them.
fn region_read_and_flush(ticks: u16) -> [u64; 3] {
    use pga_minibase::{
        ColumnRange, KeyValue, PutBatch, Region, RegionConfig, RegionId, RowRange, ScanSpec,
    };

    const ROWS: u64 = 131;
    // Shared row and qualifier buffers, as the codec hands them out.
    let key = |row: Vec<u8>, qualifier: Vec<u8>| KeyValue::new(row, qualifier, 0, Vec::new());
    let qualifiers: Vec<_> = (0..ticks)
        .map(|offset| key(Vec::new(), offset.to_be_bytes().to_vec()).qualifier)
        .collect();
    let rows: Vec<_> = (0..ROWS)
        .map(|r| key([&b"\x01energy"[..], &r.to_be_bytes()].concat(), Vec::new()).row)
        .collect();
    let manual = RegionConfig {
        memstore_flush_bytes: usize::MAX,
        compaction_file_threshold: usize::MAX,
    };
    let mut region = Region::new(RegionId(1), RowRange::all(), manual);
    for first in (0..ticks).step_by(50) {
        let mut batch = PutBatch::new();
        for row in &rows {
            for offset in first..first + 50 {
                let value = f64::from(offset).to_be_bytes();
                batch.push(row, &qualifiers[offset as usize], 1, &value);
            }
        }
        region.put_batch(batch).unwrap();
    }
    let last = (ticks - 50).to_be_bytes().to_vec();
    let window = ScanSpec::windowed(
        RowRange::all(),
        vec![ColumnRange::new(last, ticks.to_be_bytes().to_vec())],
    );
    let (open, open_count) = allocations(|| region.scan_spec(&window));
    assert_eq!(open.len(), 50 * ROWS as usize);
    drop(open);
    let ((), flush_count) = allocations(|| region.flush());
    let (flushed, file_count) = allocations(|| region.scan_spec(&window));
    assert_eq!(flushed.len(), 50 * ROWS as usize);
    [open_count, flush_count, file_count]
}

/// A scan reply lends the memstore's batches and a store file's one
/// sorted batch, and a flush copies columns into that batch: reading a
/// window of 6 550 cells and flushing a memstore of up to 471 600 cells
/// allocate per reply run and per column, not per cell. When a read made
/// each cell an owned cell and the flush made every cell no read had, each
/// cost one allocation a cell.
#[test]
fn region_reads_and_flushes_allocate_per_run_not_per_cell() {
    for ticks in [600, 3_600] {
        let [open, flush, file] = region_read_and_flush(ticks);
        // Measured 4, 8 and 10 at both lengths: a reply's run vector
        // growing, the flushed batch's columns and the file's handle.
        assert!(open <= 32, "{open} allocations to read the open memstore");
        assert!(
            flush <= 32,
            "{flush} allocations to flush {ticks}-tick rows"
        );
        assert!(file <= 32, "{file} allocations to read the flushed file");
        assert!(flush >= COLUMNS, "the counter counts: {flush}");
    }
}

/// Allocations of one major compaction of a `Region` (driven on this
/// thread): 32 firehose-shaped TSDB rows of 360 raw cells, 45 ticks a row
/// in each of 8 flushed files, with `rewriter` installed, which must
/// rewrite `rewritten_rows` rows (none, or all into one cell each). With
/// `reput` the last file re-puts the first file's ticks at a higher
/// version, as a rollup writer re-seals a resumed bucket, so every row's
/// runs interleave across files.
fn compaction(
    rewriter: Option<pga_minibase::RewriterHandle>,
    reput: bool,
    rewritten_rows: u64,
) -> u64 {
    use pga_minibase::{KeyValue, PutBatch, Region, RegionConfig, RegionId, RowRange};

    const ROWS: u32 = 32;
    const TICKS: u16 = 45;
    const FILES: u16 = 8;
    // `[salt][metric:3][base:4][tagk:3 tagv:3]`, one row-hour per series,
    // as shared buffers.
    let rows: Vec<_> = (0..ROWS)
        .map(|series| {
            let row = [1, 0, 0, 1, 0, 0, 0x0e, 0x10, 0, 0, 1, 0, 0, series as u8];
            KeyValue::new(row.to_vec(), Vec::new(), 0, Vec::new()).row
        })
        .collect();
    let manual = RegionConfig {
        memstore_flush_bytes: usize::MAX,
        compaction_file_threshold: usize::MAX,
    };
    let mut region = Region::new(RegionId(1), RowRange::all(), manual);
    if let Some(rewriter) = rewriter {
        region.set_compaction_rewriter(rewriter);
    }
    for file in 0..FILES {
        let (first, version) = match file {
            f if reput && f == FILES - 1 => (0, 2),
            f => (f * TICKS, 1),
        };
        let mut batch = PutBatch::new();
        for row in &rows {
            for offset in first..first + TICKS {
                let value = f64::from(offset).to_be_bytes();
                batch.push(row, &offset.to_be_bytes(), version, &value);
            }
        }
        region.put_batch(batch).unwrap();
        region.flush();
    }
    let ((), count) = allocations(|| region.compact());
    let metrics = region.metrics();
    assert_eq!(metrics.compactions, 1);
    assert_eq!(metrics.rewritten_rows, rewritten_rows);
    let cells_a_row = match rewritten_rows {
        0 => u32::from(TICKS * FILES),
        _ => 1,
    };
    assert_eq!(metrics.compacted_cells, u64::from(ROWS * cells_a_row));
    count
}

/// A compaction lends each row's runs to the rewriter as views and copies
/// the row by column, so 11 520 cells in 32 rows allocate per row and per
/// column, not per cell: with no rewriter, with a `BlockRewriter` whose
/// watermark seals nothing, and with rows whose runs interleave, which
/// the read path's merge puts in order. When any rewriter, or runs out of
/// order, sent a row through owned cells, each cell cost two allocations
/// (its qualifier and its value): over 23 000 here, against 70 with
/// neither. A `BlockRewriter` whose watermark is past every row seals all
/// 32 into one block each, writing the block straight into the output's
/// columns: it allocates per row for the block's two point columns and
/// its encoding, not per cell. When a seal went through a map of points
/// and owned cells, it cost 81 allocations a row (2 600 here).
#[test]
fn a_compaction_allocates_per_row_not_per_cell() {
    let declining = Arc::new(pga_tsdb::BlockRewriter::new(3_600, Arc::default()));
    let sealing = Arc::new(pga_tsdb::BlockRewriter::new(
        3_600,
        Arc::new(AtomicU64::new(u64::MAX)),
    ));
    let plain = compaction(None, false, 0);
    let declined = compaction(Some(declining), false, 0);
    let interleaved = compaction(None, true, 0);
    let sealed = compaction(Some(sealing), false, 32);
    // Measured 8, 8 and 680: the output batch's columns and the file's
    // handle, then per interleaved row the merge's sources, heap and
    // reply runs (90 one-cell runs a row).
    assert!(plain >= COLUMNS, "the counter counts: {plain}");
    assert!(plain <= 32, "{plain} allocations with no rewriter");
    assert!(declined <= 32, "{declined} allocations declining every row");
    assert!(
        interleaved <= 32 * 32,
        "{interleaved} allocations merging 32 interleaved rows"
    );
    // Measured 332, 10 a row: two point columns, the encoder's growing
    // bit buffer and the encoded block.
    assert!(sealed <= 32 * 16, "{sealed} allocations sealing 32 rows");
}

/// A window is scored into a few vectors per call, whatever its width: a
/// 256-sensor unit allocates exactly as often as a 64-sensor one.
#[test]
fn scoring_a_window_allocates_per_call_not_per_sensor() {
    let count_for = |sensors: u32| {
        let fleet = Fleet::new(FleetConfig {
            units: 1,
            sensors_per_unit: sensors,
            ..FleetConfig::small(5)
        });
        let model = train_unit(0, &fleet.observation_window(0, 149, 150)).unwrap();
        // Every sensor on its baseline: no candidate for BH, no flag, so
        // nothing but the width differs between the two units.
        let columns: Vec<Vec<f64>> = model.means.iter().map(|&m| vec![m; 50]).collect();
        let refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let ev = OnlineEvaluator::new(model, Procedure::BenjaminiHochberg, 0.05);
        let (out, count) = allocations(|| ev.evaluate_columns(&refs));
        assert!(out.flags.is_empty(), "{sensors} sensors flagged");
        assert_eq!(out.p_values.len(), sensors as usize);
        count
    };
    let (narrow, wide) = (count_for(64), count_for(256));
    assert!(narrow > 0, "the counter counts");
    assert_eq!(narrow, wide, "64 sensors: {narrow}, 256 sensors: {wide}");
}
