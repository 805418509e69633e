//! Rollup answers are a function of the data: the same on every run, and
//! equal bit for bit to the raw answer they stand in for.
//!
//! The monitor ingests through the reverse proxy in 50-tick calls, the
//! way the closed loop does, so 60 s and 600 s buckets are cut by the
//! observer flush at the end of every call. Each series travels in one
//! proxy lane, so one `RollupWriter` sees its points in time order, and a
//! bucket cut by a flush resumes in its own generation: a bucket's sum is
//! folded in the order raw downsampling folds it.

use pga_control::Metric;
use pga_platform::{Monitor, PlatformConfig};
use pga_tsdb::{Aggregator, QueryFilter, TimeSeries};

const TICKS: u64 = 1_800;
const CALL: u64 = 50;
const AGGREGATORS: [Aggregator; 5] = [
    Aggregator::Avg,
    Aggregator::Sum,
    Aggregator::Min,
    Aggregator::Max,
    Aggregator::Count,
];

/// `PlatformConfig::demo(107)` on a smaller fleet: 2 TSDs behind a
/// 2-worker proxy, 4 salt buckets, tiers 60 s and 600 s.
fn monitor() -> Monitor {
    let mut config = PlatformConfig::demo(107);
    config.fleet.units = 4;
    config.fleet.sensors_per_unit = 16;
    assert_eq!(config.tsd_count, 2);
    assert_eq!(config.query.tiers, [60, 600]);
    Monitor::new(config).unwrap()
}

/// `(tags, timestamp, value bits)` of every point, series by series.
fn bits(series: &[TimeSeries]) -> Vec<(String, u64, u64)> {
    series
        .iter()
        .flat_map(|s| {
            let tags = format!("{:?}", s.tags);
            s.points
                .iter()
                .map(move |p| (tags.clone(), p.timestamp, p.value.to_bits()))
        })
        .collect()
}

fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// One stack built from the seed: ingest, then every aggregator at
/// d = 60 and d = 600 through the engine's rollup plan, each held to the
/// raw answer downsampled alike. Returns the answers' hash and the
/// rollup cells the store took.
fn run() -> (u64, u64) {
    let mut m = monitor();
    for t0 in (0..TICKS).step_by(CALL as usize) {
        assert_eq!(m.ingest_range(t0, t0 + CALL).dropped_batches, 0);
    }
    let series = u64::from(m.config().fleet.units * m.config().fleet.sensors_per_unit);
    // Every cell the region servers took, the last flush's rollups too,
    // less one raw cell per sample.
    let written = m.fleet_snapshot().fold(Metric::SamplesWritten);
    let rollup_cells = written - series * TICKS;

    let engine = m.engine();
    let any = QueryFilter::any();
    let raw = engine.query("energy", &any, 0, TICKS - 1, None);
    assert!(raw.partial.is_none());
    assert_eq!(raw.series.len() as u64, series);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for d in [60, 600] {
        for agg in AGGREGATORS {
            let rollup = engine.query("energy", &any, 0, TICKS - 1, Some((d, agg)));
            assert!(rollup.partial.is_none());
            assert_eq!(rollup.plan, pga_query::Plan::Rollup { tier: d });
            let want: Vec<TimeSeries> = raw.series.iter().map(|s| s.downsample(d, agg)).collect();
            let (got, want) = (bits(&rollup.series), bits(&want));
            assert_eq!(got.len() as u64, series * (TICKS / d));
            assert_eq!(got.len(), want.len());
            let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
            assert_eq!(differ, 0, "d = {d}, {agg:?}: points unlike raw");
            for (_, ts, value) in got {
                fnv(&mut hash, ts);
                fnv(&mut hash, value);
            }
        }
    }
    m.shutdown();
    (hash, rollup_cells)
}

#[test]
fn rollup_answers_equal_raw_and_repeat_from_one_seed() {
    let first = run();
    // Per series: tier 60 seals its 30 buckets, plus one partial cell for
    // each of the 30 calls that end inside a minute bucket (every call
    // end but the multiples of 300); tier 600 seals its 3 buckets, plus
    // one for each of the 33 call ends inside a 600 s bucket. 96 cells
    // for each of the 64 series.
    assert_eq!(first.1, 64 * (30 + 30 + 3 + 33));
    for _ in 0..2 {
        assert_eq!(run(), first);
    }
}
