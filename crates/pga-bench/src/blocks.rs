//! E21 — columnar sealed blocks + cache-tiled batch kernels vs the
//! legacy read path, measured on the live storage stack.
//!
//! Two arms, each timed storage→answer:
//!
//! * **Scan** — the pre-block cell-by-cell decode (`query_legacy`, a test
//!   model shared by path with `pga-tsdb/tests/legacy/`; one cell and one
//!   full tag decode per point) against the sealed
//!   block-path scan ([`Tsd::query_columns`], one cell and one flat
//!   delta-of-delta/XOR decode per row). Throughput is logical payload
//!   bytes per second (16 bytes per point: timestamp + value).
//! * **Detect** — the row-major loop (per unit: legacy query, transpose
//!   into a `Matrix`, [`OnlineEvaluator::evaluate`](pga_detect::OnlineEvaluator::evaluate)) against the columnar
//!   batch pass (one block-path query, per-sensor column slices fed to
//!   [`BatchEvaluator::evaluate_columns`], all units per pass).
//!   Throughput is detector samples (points scored) per second.
//!
//! Both arms are gated by differential oracles, not just speed: the
//! block-path answers must equal the legacy answers byte-for-byte before
//! *and* after sealing, and the batched columnar verdicts must be
//! bit-identical to the row-major evaluator's. The E21 acceptance bar is
//! ≥10× on both throughputs with zero mismatches. The throughput ratios
//! are of wall-clock timings and score full-size runs only
//! ([`BlockBenchReport::passed`]); unit tests and the CI smoke gate on
//! what repeats exactly ([`BlockBenchReport::exact`]): the oracles, the
//! points each arm serves and the cells it is fed per point.

#[path = "../../pga-tsdb/tests/legacy/mod.rs"]
mod legacy;

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

use crate::detection::paper_fleet;
use crate::table::{render_table, row};
use legacy::query_legacy;

use pga_cluster::coordinator::Coordinator;
use pga_detect::{train_unit, BatchEvaluator, ColumnWindow, EvalOutcome, UnitModel};
use pga_linalg::Matrix;
use pga_minibase::{Client, Master, RegionConfig, RowRange, ServerConfig, TableDescriptor};
use pga_stats::Procedure;
use pga_tsdb::{
    BatchPoint, ColumnSeries, KeyCodec, KeyCodecConfig, QueryFilter, TimeSeries, Tsd, TsdConfig,
    UidTable,
};

/// Logical payload bytes per stored point (u64 timestamp + f64 value).
const BYTES_PER_POINT: u64 = 16;

/// Sizing for [`block_format_experiment`].
#[derive(Debug, Clone, Serialize)]
pub struct BlockBenchConfig {
    /// Region-server nodes.
    pub nodes: usize,
    /// Row-key salt buckets.
    pub salt_buckets: u8,
    /// Row span in seconds (blocks seal per row, so this is also the
    /// sealed block length).
    pub row_span_secs: u64,
    /// Fleet units.
    pub units: u32,
    /// Sensors per unit.
    pub sensors_per_unit: u32,
    /// Seconds of history ingested. Everything below the last full row
    /// seals; the remainder stays as the mutable raw tail, so scans
    /// exercise the splice.
    pub history_secs: u64,
    /// Timed scan passes per arm.
    pub scan_iters: usize,
    /// Timed evaluation passes per arm.
    pub eval_iters: usize,
    /// Training window (rows) for the per-unit detector models.
    pub train_window: usize,
    /// Fleet seed.
    pub seed: u64,
}

impl BlockBenchConfig {
    /// CI-sized configuration (a few seconds end to end).
    pub fn quick() -> Self {
        BlockBenchConfig {
            nodes: 2,
            salt_buckets: 4,
            row_span_secs: 600,
            units: 4,
            sensors_per_unit: 8,
            history_secs: 7_260,
            scan_iters: 4,
            eval_iters: 4,
            train_window: 150,
            seed: 2024,
        }
    }

    /// Paper-style configuration for the full report.
    pub fn full() -> Self {
        BlockBenchConfig {
            nodes: 3,
            salt_buckets: 4,
            row_span_secs: 600,
            units: 8,
            sensors_per_unit: 16,
            history_secs: 7_260,
            scan_iters: 4,
            eval_iters: 4,
            train_window: 150,
            seed: 2024,
        }
    }
}

/// One timed arm of the scan comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ScanArm {
    /// Arm label (`legacy-cells`, `sealed-blocks`).
    pub label: String,
    /// Points returned per pass.
    pub points_per_pass: u64,
    /// Cells the region servers return per pass: what the store holds
    /// for the scanned range while this arm runs.
    pub cells_per_pass: u64,
    /// Mean wall-clock per pass in milliseconds.
    pub pass_ms: f64,
    /// Logical payload throughput in bytes per second.
    pub bytes_per_sec: f64,
}

/// One timed arm of the detector comparison.
#[derive(Debug, Clone, Serialize)]
pub struct DetectArm {
    /// Arm label (`row-major`, `columnar-batch`).
    pub label: String,
    /// Detector samples scored per pass.
    pub samples_per_pass: u64,
    /// Mean wall-clock per pass in milliseconds.
    pub pass_ms: f64,
    /// Detector samples scored per second, storage to verdict.
    pub samples_per_sec: f64,
}

/// E21 artifact: both comparisons plus the differential oracles.
#[derive(Debug, Clone, Serialize)]
pub struct BlockBenchReport {
    /// Sizing used.
    pub config: BlockBenchConfig,
    /// Legacy cell-by-cell scan arm.
    pub scan_legacy: ScanArm,
    /// Sealed block-path scan arm.
    pub scan_blocks: ScanArm,
    /// Scan bytes/sec speedup (blocks over legacy).
    pub scan_speedup: f64,
    /// Row-major storage→verdict arm.
    pub detect_rowmajor: DetectArm,
    /// Columnar batched storage→verdict arm.
    pub detect_columnar: DetectArm,
    /// Detector samples/sec speedup (columnar over row-major).
    pub detect_speedup: f64,
    /// Block-path answers differing from legacy answers (pre-seal or
    /// post-seal; must be 0).
    pub scan_mismatches: u64,
    /// Batched verdicts not bit-identical to the row-major evaluator's
    /// (must be 0).
    pub eval_mismatches: u64,
}

impl BlockBenchReport {
    /// The part of the verdict that repeats exactly on any host: exact
    /// answers, bit-identical verdicts, every ingested point served by
    /// both scan arms, and the sealed arm fed by at most a tenth of the
    /// legacy arm's cells per point. Unit tests and the CI smoke gate on
    /// this; the timing ratios are printed beside it.
    pub fn exact(&self) -> bool {
        let ingested =
            u64::from(self.config.units * self.config.sensors_per_unit) * self.config.history_secs;
        self.scan_mismatches == 0
            && self.eval_mismatches == 0
            && self.scan_legacy.points_per_pass == ingested
            && self.scan_blocks.points_per_pass == ingested
            && self.scan_blocks.cells_per_pass * 10 <= self.scan_legacy.cells_per_pass
    }

    /// E21 verdict for a full-size run: [`Self::exact`] and ≥10× on both
    /// scan bytes/sec and detector samples/sec.
    pub fn passed(&self) -> bool {
        self.exact() && self.scan_speedup >= 10.0 && self.detect_speedup >= 10.0
    }

    /// The E21 table and measured summary (no verdict line).
    pub fn render(&self) -> String {
        let scan = |a: &ScanArm| {
            vec![
                a.label.clone(),
                format!("{:.2}", a.pass_ms),
                format!("{:.1} MB/s", a.bytes_per_sec / 1e6),
                format!(
                    "{:.4}",
                    a.cells_per_pass as f64 / a.points_per_pass.max(1) as f64
                ),
            ]
        };
        let detect = |a: &DetectArm| {
            vec![
                a.label.clone(),
                format!("{:.2}", a.pass_ms),
                format!("{:.0} samples/s", a.samples_per_sec),
                String::new(),
            ]
        };
        let rows = [
            row("arm|pass (ms)|throughput|cells/point"),
            scan(&self.scan_legacy),
            scan(&self.scan_blocks),
            detect(&self.detect_rowmajor),
            detect(&self.detect_columnar),
        ];
        format!(
            "{}\nspeedups: scan {:.1}x bytes/s, detect {:.1}x samples/s (bar: 10x)\n\
             oracles: {} scan mismatches, {} verdict mismatches",
            render_table(&rows),
            self.scan_speedup,
            self.detect_speedup,
            self.scan_mismatches,
            self.eval_mismatches
        )
    }
}

/// Byte-for-byte series-set equality.
fn same_answer(a: &[TimeSeries], b: &[TimeSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.tags == y.tags
                && x.points.len() == y.points.len()
                && x.points.iter().zip(&y.points).all(|(p, q)| {
                    p.timestamp == q.timestamp && p.value.to_be_bytes() == q.value.to_be_bytes()
                })
        })
}

/// Group a block-path answer by unit, each unit's series ordered by
/// numeric sensor tag — the column order the models were trained in.
fn columns_by_unit(series: &[ColumnSeries], units: u32) -> Vec<Vec<&ColumnSeries>> {
    let mut grouped: Vec<Vec<(u32, &ColumnSeries)>> = vec![Vec::new(); units as usize];
    for s in series {
        let unit: u32 = s.tags["unit"].parse().expect("numeric unit tag");
        let sensor: u32 = s.tags["sensor"].parse().expect("numeric sensor tag");
        grouped[unit as usize].push((sensor, s));
    }
    grouped
        .into_iter()
        .map(|mut g| {
            g.sort_by_key(|&(sensor, _)| sensor);
            g.into_iter().map(|(_, s)| s).collect()
        })
        .collect()
}

/// Transpose one unit's legacy answer into the row-major observation
/// window (rows = time, columns = sensors by numeric tag).
fn window_from_series(series: &[&TimeSeries]) -> Matrix {
    let rows = series.first().map_or(0, |s| s.points.len());
    let mut window = Matrix::zeros(rows, series.len());
    for (c, s) in series.iter().enumerate() {
        assert_eq!(s.points.len(), rows, "ragged sensor history");
        for (r, p) in s.points.iter().enumerate() {
            window.set(r, c, p.value);
        }
    }
    window
}

/// Bit-exact verdict equality: p-value families and block T² p-values.
fn same_verdict(a: &EvalOutcome, b: &EvalOutcome) -> bool {
    a.unit == b.unit
        && a.samples_scored == b.samples_scored
        && a.p_values.len() == b.p_values.len()
        && a.p_values
            .iter()
            .zip(&b.p_values)
            .all(|(x, y)| x.to_be_bytes() == y.to_be_bytes())
        && a.rejected == b.rejected
        && a.block_p_values.len() == b.block_p_values.len()
        && a.block_p_values
            .iter()
            .zip(&b.block_p_values)
            .all(|((sa, pa), (sb, pb))| sa == sb && pa.to_be_bytes() == pb.to_be_bytes())
}

/// Run E21 against the real storage stack.
pub fn block_format_experiment(cfg: &BlockBenchConfig) -> BlockBenchReport {
    let codec = KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: cfg.salt_buckets,
            row_span_secs: cfg.row_span_secs,
        },
        UidTable::new(),
    );
    let coord = Coordinator::new(600_000);
    let mut master = Master::bootstrap(cfg.nodes, ServerConfig::default(), coord, 0);
    master.create_table(&TableDescriptor {
        name: "tsdb".into(),
        split_points: codec.split_points(),
        region_config: RegionConfig::default(),
    });
    let tsd = Tsd::new(codec, Client::connect(&master), TsdConfig::default());
    // A second client, to count what the region servers hold (and so
    // return to a whole-history scan) while each arm runs.
    let store = Client::connect(&master);
    let stored_cells = || store.scan(&RowRange::all()).expect("store scan").len() as u64;
    master.set_compaction_rewriter(tsd.block_rewriter());

    let fleet = paper_fleet(cfg.units, cfg.sensors_per_unit, cfg.seed);
    for t in 0..cfg.history_secs {
        let samples = fleet.tick(t);
        let tags: Vec<(String, String)> = samples
            .iter()
            .map(|s| (s.unit.to_string(), s.sensor.to_string()))
            .collect();
        let pairs: Vec<[(&str, &str); 2]> = tags
            .iter()
            .map(|(u, s)| [("unit", u.as_str()), ("sensor", s.as_str())])
            .collect();
        let points: Vec<BatchPoint> = samples
            .iter()
            .zip(&pairs)
            .map(|(s, tags)| (&tags[..], s.timestamp, s.value))
            .collect();
        tsd.put_batch("energy", &points).expect("ingest succeeds");
    }
    let end = cfg.history_secs - 1;
    let any = QueryFilter::any();

    // ----- scan arm A: legacy per-cell decode over the raw store -------
    let legacy_answer = query_legacy(&tsd, "energy", &any, 0, end).expect("legacy scan");
    let points_per_pass: u64 = legacy_answer.iter().map(|s| s.points.len() as u64).sum();
    let legacy_cells = stored_cells();
    let started = Instant::now();
    for _ in 0..cfg.scan_iters {
        let out = query_legacy(&tsd, "energy", &any, 0, end).expect("legacy scan");
        assert!(!out.is_empty());
    }
    let legacy_secs = started.elapsed().as_secs_f64();

    let mut scan_mismatches = 0u64;
    let pre_seal = tsd.query("energy", &any, 0, end).expect("block-path scan");
    if !same_answer(&legacy_answer, &pre_seal) {
        scan_mismatches += 1;
    }

    // ----- detect arm A: legacy query → row-major window → per-unit loop
    let models: Vec<UnitModel> = (0..cfg.units)
        .map(|u| {
            let obs = fleet.observation_window(u, cfg.train_window as u64 - 1, cfg.train_window);
            train_unit(u, &obs).expect("training succeeds")
        })
        .collect();
    let batch = BatchEvaluator::new(models, Procedure::BenjaminiHochberg, 0.05);

    let rowmajor_pass = || -> Vec<EvalOutcome> {
        let answer = query_legacy(&tsd, "energy", &any, 0, end).expect("legacy scan");
        let mut by_unit: BTreeMap<u32, Vec<(u32, &TimeSeries)>> = BTreeMap::new();
        for s in &answer {
            let unit: u32 = s.tags["unit"].parse().expect("numeric unit tag");
            let sensor: u32 = s.tags["sensor"].parse().expect("numeric sensor tag");
            by_unit.entry(unit).or_default().push((sensor, s));
        }
        by_unit
            .into_iter()
            .map(|(unit, mut group)| {
                group.sort_by_key(|&(sensor, _)| sensor);
                let ordered: Vec<&TimeSeries> = group.into_iter().map(|(_, s)| s).collect();
                let window = window_from_series(&ordered);
                batch.evaluators()[unit as usize].evaluate(&window)
            })
            .collect()
    };
    let rowmajor_verdicts = rowmajor_pass();
    let samples_per_eval: u64 = rowmajor_verdicts.iter().map(|o| o.samples_scored).sum();
    let started = Instant::now();
    for _ in 0..cfg.eval_iters {
        let out = rowmajor_pass();
        assert_eq!(out.len(), cfg.units as usize);
    }
    let rowmajor_secs = started.elapsed().as_secs_f64();

    // ----- seal: background compaction rewrites raw cells into blocks --
    tsd.compact_now().expect("sealing compaction succeeds");
    let post_seal = tsd.query("energy", &any, 0, end).expect("block-path scan");
    if !same_answer(&legacy_answer, &post_seal) {
        scan_mismatches += 1;
    }

    // ----- scan arm B: sealed blocks spliced with the raw tail ---------
    let sealed_cells = stored_cells();
    let sealed_points: u64 = tsd
        .query_columns("energy", &any, 0, end)
        .expect("block scan")
        .iter()
        .map(|s| s.values.len() as u64)
        .sum();
    let started = Instant::now();
    for _ in 0..cfg.scan_iters {
        let out = tsd
            .query_columns("energy", &any, 0, end)
            .expect("block scan");
        assert!(!out.is_empty());
    }
    let blocks_secs = started.elapsed().as_secs_f64();

    // ----- detect arm B: columnar batch pass over block-path columns ---
    let columnar_pass = || -> Vec<Option<EvalOutcome>> {
        let columns = tsd
            .query_columns("energy", &any, 0, end)
            .expect("block scan");
        let grouped = columns_by_unit(&columns, cfg.units);
        let slots: Vec<Option<ColumnWindow<'_>>> = grouped
            .iter()
            .map(|g| Some(g.iter().map(|s| s.values.as_slice()).collect()))
            .collect();
        batch.evaluate_columns(&slots)
    };
    let columnar_verdicts = columnar_pass();
    let mut eval_mismatches = 0u64;
    for (a, b) in rowmajor_verdicts.iter().zip(&columnar_verdicts) {
        match b {
            Some(b) if same_verdict(a, b) => {}
            _ => eval_mismatches += 1,
        }
    }
    let started = Instant::now();
    for _ in 0..cfg.eval_iters {
        let out = columnar_pass();
        assert_eq!(out.len(), cfg.units as usize);
    }
    let columnar_secs = started.elapsed().as_secs_f64();

    master.shutdown();

    let scan_bytes = (points_per_pass * BYTES_PER_POINT * cfg.scan_iters as u64) as f64;
    let eval_samples = samples_per_eval * cfg.eval_iters as u64;
    let scan_legacy = ScanArm {
        label: "legacy-cells".into(),
        points_per_pass,
        cells_per_pass: legacy_cells,
        pass_ms: legacy_secs * 1e3 / cfg.scan_iters as f64,
        bytes_per_sec: scan_bytes / legacy_secs.max(1e-9),
    };
    let scan_blocks = ScanArm {
        label: "sealed-blocks".into(),
        points_per_pass: sealed_points,
        cells_per_pass: sealed_cells,
        pass_ms: blocks_secs * 1e3 / cfg.scan_iters as f64,
        bytes_per_sec: scan_bytes / blocks_secs.max(1e-9),
    };
    let detect_rowmajor = DetectArm {
        label: "row-major".into(),
        samples_per_pass: samples_per_eval,
        pass_ms: rowmajor_secs * 1e3 / cfg.eval_iters as f64,
        samples_per_sec: eval_samples as f64 / rowmajor_secs.max(1e-9),
    };
    let detect_columnar = DetectArm {
        label: "columnar-batch".into(),
        samples_per_pass: samples_per_eval,
        pass_ms: columnar_secs * 1e3 / cfg.eval_iters as f64,
        samples_per_sec: eval_samples as f64 / columnar_secs.max(1e-9),
    };
    BlockBenchReport {
        config: cfg.clone(),
        scan_speedup: scan_blocks.bytes_per_sec / scan_legacy.bytes_per_sec.max(1e-9),
        detect_speedup: detect_columnar.samples_per_sec / detect_rowmajor.samples_per_sec.max(1e-9),
        scan_legacy,
        scan_blocks,
        detect_rowmajor,
        detect_columnar,
        scan_mismatches,
        eval_mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e21_oracles_hold_on_a_small_stack() {
        let cfg = BlockBenchConfig {
            nodes: 2,
            salt_buckets: 2,
            row_span_secs: 300,
            units: 2,
            sensors_per_unit: 4,
            history_secs: 700,
            scan_iters: 2,
            eval_iters: 2,
            train_window: 100,
            seed: 7,
        };
        let rep = block_format_experiment(&cfg);
        assert_eq!(rep.scan_mismatches, 0, "block path must equal legacy");
        assert_eq!(rep.eval_mismatches, 0, "verdicts must be bit-identical");
        let series = u64::from(cfg.units * cfg.sensors_per_unit);
        assert_eq!(rep.scan_legacy.points_per_pass, series * cfg.history_secs);
        assert_eq!(rep.scan_blocks.points_per_pass, series * cfg.history_secs);
        // Before sealing a cell is a point; after, a series keeps one
        // block per full 300 s row and the last 100 s as raw cells.
        assert_eq!(rep.scan_legacy.cells_per_pass, series * cfg.history_secs);
        assert_eq!(rep.scan_blocks.cells_per_pass, series * (2 + 100));
        // Timing is scored by `pga blocks` / report_all on full-size
        // runs (`passed()`), not here; and with a seventh of this short
        // history still raw, neither is `exact()`'s tenth.
    }
}
