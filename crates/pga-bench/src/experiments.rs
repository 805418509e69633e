//! The experiment harnesses (DESIGN.md §4).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use pga_dataflow::Dataflow;
use pga_detect::{train_units, BatchEvaluator, CusumDetector};
use pga_ingest::{fig2_scaling_experiment, linear_fit, Fig2Row, IngestionPipeline};
use pga_sensorgen::{FaultClass, Fleet};
use pga_stats::{evaluate_procedure, Procedure, TrialAggregate};

use crate::detection::{paper_fleet, Detection};

/// E1/E2/E12 — Figure 2 reproduction: throughput vs node count with
/// per-configuration timelines and the linear fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Report {
    /// One row per cluster size.
    pub rows: Vec<Fig2Row>,
    /// Linear fit `(intercept, slope, r²)` of throughput vs nodes.
    pub fit: (f64, f64, f64),
    /// The paper's reference numbers for the same sweep.
    pub paper_reference: Vec<(usize, f64)>,
}

/// Run the Figure-2 sweep (default node counts 10..=30 step 5; pass
/// `extended = true` for the §VI 70-node extrapolation).
pub fn fig2_report(samples: f64, extended: bool) -> Fig2Report {
    let counts: Vec<usize> = if extended {
        vec![10, 15, 20, 25, 30, 40, 50, 60, 70]
    } else {
        vec![10, 15, 20, 25, 30]
    };
    let rows = fig2_scaling_experiment(&counts, samples);
    let points: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.nodes as f64, r.throughput))
        .collect();
    Fig2Report {
        fit: linear_fit(&points),
        rows,
        paper_reference: vec![
            (10, 173_000.0),
            (15, 233_000.0),
            (20, 257_000.0),
            (25, 325_000.0),
            (30, 399_000.0),
        ],
    }
}

/// E3 — online evaluation throughput (paper: 939,000 samples/sec).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalThroughput {
    /// Windows evaluated.
    pub windows: usize,
    /// Samples scored.
    pub samples: u64,
    /// Wall seconds.
    pub elapsed_secs: f64,
    /// Samples per second on one thread.
    pub throughput: f64,
}

/// Measure online evaluation throughput over `windows` windows of
/// `window_rows × sensors` observations: one timed pass of the batch
/// evaluator over every window, on one thread.
pub fn eval_throughput_experiment(
    sensors: u32,
    window_rows: usize,
    windows: usize,
    seed: u64,
) -> EvalThroughput {
    let rows = window_rows as u64;
    let det = Detection::new(paper_fleet(1, sensors, seed), 301 + windows as u64 * rows);
    let start = Instant::now();
    let samples: u64 = (1..=windows as u64)
        .map(|k| {
            let outcomes = std::hint::black_box(det.score(&[Some(300 + k * rows)], window_rows));
            BatchEvaluator::samples_scored(&outcomes)
        })
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    EvalThroughput {
        windows,
        samples,
        elapsed_secs: elapsed,
        throughput: samples as f64 / elapsed,
    }
}

/// E5 — one row of the FDR-procedure comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FdrRow {
    /// Procedure name.
    pub procedure: String,
    /// Mean false alarms per unit-window.
    pub mean_false_alarms: f64,
    /// Empirical FDR.
    pub empirical_fdr: f64,
    /// Empirical FWER.
    pub empirical_fwer: f64,
    /// Mean detection power on truly anomalous sensors.
    pub power: f64,
}

impl FdrRow {
    fn new(procedure: Procedure, a: &TrialAggregate) -> Self {
        FdrRow {
            procedure: procedure.name().to_string(),
            mean_false_alarms: a.mean_false_positives,
            empirical_fdr: a.empirical_fdr,
            empirical_fwer: a.empirical_fwer,
            power: a.mean_power,
        }
    }
}

/// Run the procedure comparison on a fresh fleet: per-unit p-value
/// families at `eval_t`, scored against ground truth.
///
/// `truth_sigma` is the detectability floor used for ground truth: a cell
/// counts as truly anomalous once its injected signal reaches that many
/// noise standard deviations. A floor of ~0.5σ keeps marginal drifting
/// sensors in the truth set, which is exactly where the power gap between
/// FDR and FWER control lives (evaluating too long after onset saturates
/// every procedure's power at 1.0 and hides the paper's argument).
pub fn fdr_experiment(
    units: u32,
    sensors: u32,
    eval_t: u64,
    truth_sigma: f64,
    seed: u64,
) -> Vec<FdrRow> {
    // Several evaluation windows around eval_t: drifting units cross the
    // detectability threshold at different times, so a spread of windows
    // samples the marginal regime for every unit.
    let ends: Vec<u64> = (0..4).map(|k| eval_t + k * 60).collect();
    let families = families(paper_fleet(units, sensors, seed), &ends, truth_sigma);
    Procedure::all()
        .into_iter()
        .map(|p| FdrRow::new(p, &aggregate(&families, p, 0.05)))
        .collect()
}

/// Every unit's 50-tick p-value family at each of `ends`, with its ground
/// truth, unit-major.
fn families(fleet: Fleet, ends: &[u64], truth_sigma: f64) -> Vec<(Vec<f64>, Vec<bool>)> {
    let det = Detection::new(fleet, ends.iter().max().map_or(0, |t| t + 1));
    let mut scored: Vec<_> = ends
        .iter()
        .map(|&t| {
            det.score(&vec![Some(t); det.units()], 50)
                .into_iter()
                .flatten()
        })
        .collect();
    let mut families = Vec::new();
    for u in 0..det.units() as u32 {
        for (&t, outcomes) in ends.iter().zip(&mut scored) {
            let p_values = outcomes.next().expect("every unit scored").p_values;
            families.push((p_values, det.fleet().truth_row(u, t, truth_sigma)));
        }
    }
    families
}

/// `procedure` at level `alpha` over every family, in order.
fn aggregate(
    families: &[(Vec<f64>, Vec<bool>)],
    procedure: Procedure,
    alpha: f64,
) -> TrialAggregate {
    let mut agg = TrialAggregate::default();
    for (p_values, truth) in families {
        let rej = procedure.apply(p_values, alpha);
        agg.add(&evaluate_procedure(procedure, &rej, truth));
    }
    agg
}

/// E5b — weak-signal power study: Monte-Carlo families with marginal
/// alternatives, the regime where §IV's criticism of FWER control bites
/// ("it provided much less detection power and was overly conservative").
pub fn fdr_weak_signal_experiment(
    m: usize,
    signals: usize,
    signal_z: f64,
    trials: usize,
    seed: u64,
) -> Vec<FdrRow> {
    use rand::{Rng, SeedableRng};
    assert!(signals <= m);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut aggs: Vec<(Procedure, TrialAggregate)> = Procedure::all()
        .into_iter()
        .map(|p| (p, TrialAggregate::default()))
        .collect();
    let mut truth = vec![false; m];
    for t in truth.iter_mut().take(signals) {
        *t = true;
    }
    for _ in 0..trials {
        let p_values: Vec<f64> = (0..m)
            .map(|i| {
                let noise = pga_stats::standard_normal(&mut rng);
                let z = if i < signals { signal_z + noise } else { noise };
                pga_stats::two_sided_p_from_z(z)
            })
            .collect();
        // Guard against the degenerate all-identical family.
        let _ = rng.gen::<u64>();
        for (proc, agg) in aggs.iter_mut() {
            let rej = proc.apply(&p_values, 0.05);
            agg.add(&evaluate_procedure(*proc, &rej, &truth));
        }
    }
    aggs.iter().map(|(p, a)| FdrRow::new(*p, a)).collect()
}

/// E15 — operating characteristic row: one `(procedure, α)` point of the
/// power / false-alarm tradeoff curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlphaSweepRow {
    /// Procedure.
    pub procedure: String,
    /// Level the procedure ran at.
    pub alpha: f64,
    /// Empirical FDR at that level.
    pub empirical_fdr: f64,
    /// Detection power at that level.
    pub power: f64,
    /// Mean false alarms per unit-window.
    pub mean_false_alarms: f64,
}

/// Sweep α for uncorrected / Bonferroni / BH on the fleet workload —
/// the operating-characteristic view of E5. P-values are computed once
/// per unit and reused across every `(procedure, α)` cell.
pub fn alpha_sweep_experiment(
    units: u32,
    sensors: u32,
    eval_t: u64,
    truth_sigma: f64,
    alphas: &[f64],
    seed: u64,
) -> Vec<AlphaSweepRow> {
    let families = families(paper_fleet(units, sensors, seed), &[eval_t], truth_sigma);
    let mut rows = Vec::new();
    for proc in PROCEDURES {
        for &alpha in alphas {
            let agg = aggregate(&families, proc, alpha);
            rows.push(AlphaSweepRow {
                procedure: proc.name().to_string(),
                alpha,
                empirical_fdr: agg.empirical_fdr,
                power: agg.mean_power,
                mean_false_alarms: agg.mean_false_positives,
            });
        }
    }
    rows
}

/// E13 — detection latency: ticks from fault onset until the first flag
/// lands on a faulted sensor, per fault class and procedure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Procedure used.
    pub procedure: String,
    /// Fault class ("sharp-shift" / "gradual-degradation").
    pub fault_class: String,
    /// Mean detection delay in ticks (onset → first true flag), over the
    /// units that were detected at all.
    pub mean_delay_ticks: f64,
    /// Units of this class detected within the horizon.
    pub detected: usize,
    /// Units of this class in the fleet.
    pub total: usize,
}

/// Uncorrected, Bonferroni and BH: the procedures E13 and E15 compare.
const PROCEDURES: [Procedure; 3] = [
    Procedure::Uncorrected,
    Procedure::Bonferroni,
    Procedure::BenjaminiHochberg,
];

/// Mean of `delays` in ticks: NaN (0 / 0) when there are none.
fn mean_delay(delays: &[f64]) -> f64 {
    delays.iter().sum::<f64>() / delays.len() as f64
}

/// Measure detection latency: slide an evaluation window forward from each
/// unit's onset in steps of `stride` ticks and record when the detector
/// first flags a truly faulted sensor.
pub fn detection_latency_experiment(
    units: u32,
    sensors: u32,
    window: usize,
    stride: u64,
    horizon: u64,
    seed: u64,
) -> Vec<LatencyRow> {
    let fleet = paper_fleet(units, sensors, seed);
    let classes = [FaultClass::SharpShift, FaultClass::GradualDegradation];
    let faulted: Vec<u32> = classes
        .iter()
        .flat_map(|&c| fleet.units_with_class(c))
        .collect();
    let last_onset = faulted.iter().map(|&u| fleet.fault(u).onset).max();
    let det = Detection::new(fleet, last_onset.map_or(0, |t| t + horizon + 1));
    let fleet = det.fleet();
    let search = (window as u64, horizon);
    let mut delays = first_detections(&det, &faulted, window, stride, search, &PROCEDURES);
    // The classical SPC baseline: per-sensor two-sided CUSUM (k=0.5σ,
    // h=5σ) on the same models, fed sample by sample from onset. Fast on
    // persistent shifts — and with no multiplicity control at all (see the
    // cusum tests for its fleet-wide false-alarm behaviour).
    let cusum = (0..det.units() as u32)
        .map(|u| {
            let spec = fleet.fault(u);
            if !faulted.contains(&u) {
                return None;
            }
            let mut cusum = CusumDetector::new(det.model(u).clone(), 0.5, 5.0);
            (spec.onset..spec.onset + horizon)
                .find(|&t| {
                    let row: Vec<f64> = det.window(u, t, 1).iter().map(|c| c[0]).collect();
                    cusum.update(&row).iter().any(|&s| spec.affects(s))
                })
                .map(|t| (t - spec.onset) as f64)
        })
        .collect();
    delays.push(cusum);
    let names = PROCEDURES
        .iter()
        .map(|p| p.name())
        .chain(["cusum (k=0.5, h=5)"]);
    let mut rows = Vec::new();
    for (name, delays) in names.zip(&delays) {
        for class in classes {
            let members = fleet.units_with_class(class);
            let found: Vec<f64> = members.iter().filter_map(|&u| delays[u as usize]).collect();
            rows.push(LatencyRow {
                procedure: name.to_string(),
                fault_class: class.name().to_string(),
                mean_delay_ticks: mean_delay(&found),
                detected: found.len(),
                total: members.len(),
            });
        }
    }
    rows
}

/// Ticks from onset to the first `len`-tick window, ending every
/// `stride` ticks over `onset + first ..= onset + last`, whose rejections
/// under each of `procedures` at q = 0.05 touch the unit's faulted group:
/// `delays[procedure][unit]`. Each step scores every searching unit's
/// window in one batch, once for all procedures; a unit stops searching
/// once every procedure has detected it.
fn first_detections(
    det: &Detection,
    units: &[u32],
    len: usize,
    stride: u64,
    (first, last): (u64, u64),
    procedures: &[Procedure],
) -> Vec<Vec<Option<f64>>> {
    let fleet = det.fleet();
    let mut delays = vec![vec![None; det.units()]; procedures.len()];
    let mut searching = units.to_vec();
    let mut delay = first;
    while !searching.is_empty() && delay <= last {
        let ends: Vec<Option<u64>> = (0..det.units() as u32)
            .map(|u| searching.contains(&u).then(|| fleet.fault(u).onset + delay))
            .collect();
        let scored = det.score(&ends, len);
        searching.retain(|&u| {
            let p_values = &scored[u as usize].as_ref().expect("scored").p_values;
            let spec = fleet.fault(u);
            for (proc, delays) in procedures.iter().zip(delays.iter_mut()) {
                let rejected = proc.apply(p_values, 0.05).rejected;
                if rejected.iter().zip(0..).any(|(&r, j)| r && spec.affects(j)) {
                    delays[u as usize].get_or_insert(delay as f64);
                }
            }
            delays.iter().any(|d| d[u as usize].is_none())
        });
        delay += stride;
    }
    delays
}

/// E14 — evaluation-window ablation row (design choice: window length
/// trades detection latency against statistical stability).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowAblationRow {
    /// Evaluation window length in ticks.
    pub window: usize,
    /// Mean sharp-shift detection delay in ticks.
    pub sharp_delay_ticks: f64,
    /// Mean false flags per healthy unit-window (BH at q = 0.05).
    pub healthy_false_flags: f64,
}

/// Sweep the evaluation window length, measuring sharp-shift detection
/// delay and healthy-unit false-flag rates under BH.
pub fn window_ablation_experiment(
    units: u32,
    sensors: u32,
    windows: &[usize],
    seed: u64,
) -> Vec<WindowAblationRow> {
    let fleet = paper_fleet(units, sensors, seed);
    let sharp = fleet.units_with_class(FaultClass::SharpShift);
    let healthy = fleet.units_with_class(FaultClass::Healthy);
    // Sharp shifts are searched up to 400 ticks past onset; healthy units
    // are scored at four windows ending at ticks 600–900.
    let healthy_ends = [600, 700, 800, 900];
    let last_sharp = sharp.iter().map(|&u| fleet.fault(u).onset + 400).max();
    let det = Detection::new(fleet, last_sharp.unwrap_or(0).max(900) + 1);
    let bh = [Procedure::BenjaminiHochberg];
    windows
        .iter()
        .map(|&window| {
            // Detection delay on sharp shifts, stride 5.
            let delays = first_detections(&det, &sharp, window, 5, (1, 400), &bh).remove(0);
            let found: Vec<f64> = sharp.iter().filter_map(|&u| delays[u as usize]).collect();
            // False flags on healthy units over several windows.
            let false_flags: usize = healthy_ends
                .iter()
                .map(|&t| {
                    let ends: Vec<Option<u64>> = (0..det.units() as u32)
                        .map(|u| healthy.contains(&u).then_some(t))
                        .collect();
                    let scored = det.score(&ends, window);
                    scored
                        .iter()
                        .flatten()
                        .map(|out| out.flags.len())
                        .sum::<usize>()
                })
                .sum();
            let healthy_windows = healthy.len() * healthy_ends.len();
            WindowAblationRow {
                window,
                sharp_delay_ticks: mean_delay(&found),
                healthy_false_flags: if healthy_windows == 0 {
                    0.0
                } else {
                    false_flags as f64 / healthy_windows as f64
                },
            }
        })
        .collect()
}

/// E8 — compaction ablation row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompactionRow {
    /// Whether write-path compaction was enabled.
    pub compaction: bool,
    /// Storage RPCs issued per data point.
    pub rpcs_per_point: f64,
    /// Wall seconds for the workload.
    pub elapsed_secs: f64,
}

/// Run the compaction ablation on the real storage stack: one series
/// crossing many hourly rows, compaction on vs off.
pub fn compaction_ablation(series: u32, hours: u64, seed: u64) -> Vec<CompactionRow> {
    let _ = seed;
    [false, true]
        .into_iter()
        .map(|compaction| compaction_ablation_single(series, hours, compaction))
        .collect()
}

/// One configuration of the compaction ablation.
fn compaction_ablation_single(series: u32, hours: u64, compaction: bool) -> CompactionRow {
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
    use pga_tsdb::{KeyCodec, KeyCodecConfig, Tsd, TsdConfig, UidTable};
    let codec = KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: 4,
            row_span_secs: 3600,
        },
        UidTable::new(),
    );
    let coord = Coordinator::new(60_000);
    let mut master = Master::bootstrap(2, ServerConfig::default(), coord, 0);
    master.create_table(&TableDescriptor {
        name: "tsdb".into(),
        split_points: codec.split_points(),
        region_config: RegionConfig::default(),
    });
    let tsd = Tsd::new(
        codec,
        Client::connect(&master),
        TsdConfig {
            write_path_compaction: compaction,
            ..TsdConfig::default()
        },
    );
    let start = Instant::now();
    for s in 0..series {
        let tag = s.to_string();
        for h in 0..hours {
            // A handful of points per hourly row, then roll over.
            for k in 0..5u64 {
                tsd.put(
                    "energy",
                    &[("unit", &tag), ("sensor", "0")],
                    h * 3600 + k * 600,
                    1.0,
                )
                .unwrap();
            }
        }
    }
    let metrics = tsd.metrics();
    let row = CompactionRow {
        compaction,
        rpcs_per_point: metrics.rpcs_per_point(),
        elapsed_secs: start.elapsed().as_secs_f64(),
    };
    master.shutdown();
    row
}

/// E10 — offline training scaling row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingRow {
    /// Dataflow workers.
    pub workers: usize,
    /// Wall seconds to train the fleet.
    pub elapsed_secs: f64,
    /// Speedup relative to one worker.
    pub speedup: f64,
}

/// Measure offline training wall time vs worker count: the whole fleet's
/// training windows through `train_units` on each dataflow size.
pub fn training_scaling_experiment(
    units: u32,
    sensors: u32,
    workers: &[usize],
    seed: u64,
) -> Vec<TrainingRow> {
    let det = Detection::new(paper_fleet(units, sensors, seed), 0);
    let mut rows = Vec::new();
    let mut base = None;
    for &w in workers {
        let df = Dataflow::new(w);
        let start = Instant::now();
        let models = train_units(det.training_windows(), &df).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(models.len(), units as usize);
        let base_time = *base.get_or_insert(elapsed);
        rows.push(TrainingRow {
            workers: w,
            elapsed_secs: elapsed,
            speedup: base_time / elapsed,
        });
    }
    rows
}

/// Real thread-scale ingestion throughput (validates the storage stack on
/// the host; complements the calibrated Fig-2 model).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineThroughput {
    /// Storage nodes used.
    pub nodes: usize,
    /// Samples ingested.
    pub samples: u64,
    /// Wall samples/sec through proxy → TSD → region servers.
    pub throughput: f64,
}

/// Run the real pipeline at thread scale.
pub fn pipeline_throughput_experiment(nodes: usize, ticks: u64, seed: u64) -> PipelineThroughput {
    let fleet = paper_fleet(20, 100, seed);
    let pipeline = IngestionPipeline::new(nodes, 2, 500);
    let report = pipeline.run(&fleet, ticks);
    pipeline.shutdown();
    PipelineThroughput {
        nodes,
        samples: report.samples,
        throughput: report.throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_report_shape() {
        let r = fig2_report(500_000.0, false);
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.paper_reference.len(), 5);
        let (_, slope, r2) = r.fit;
        assert!(slope > 0.0);
        assert!(r2 > 0.95);
        // Monotone increasing throughput.
        for w in r.rows.windows(2) {
            assert!(w[1].throughput > w[0].throughput);
        }
    }

    #[test]
    fn eval_throughput_counts_samples() {
        let r = eval_throughput_experiment(64, 25, 8, 3);
        assert_eq!(r.samples, 8 * 25 * 64);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn fdr_rows_cover_all_procedures() {
        let rows = fdr_experiment(6, 64, 560, 0.5, 11);
        assert_eq!(rows.len(), Procedure::all().len());
        let unc = rows.iter().find(|r| r.procedure == "uncorrected").unwrap();
        let bh = rows
            .iter()
            .find(|r| r.procedure == "benjamini-hochberg")
            .unwrap();
        assert!(bh.mean_false_alarms <= unc.mean_false_alarms);
    }

    #[test]
    fn compaction_ablation_shows_more_rpcs_when_enabled() {
        let rows = compaction_ablation(4, 6, 1);
        assert_eq!(rows.len(), 2);
        let off = rows.iter().find(|r| !r.compaction).unwrap();
        let on = rows.iter().find(|r| r.compaction).unwrap();
        assert!(
            on.rpcs_per_point > off.rpcs_per_point,
            "compaction {} vs off {}",
            on.rpcs_per_point,
            off.rpcs_per_point
        );
    }

    #[test]
    fn training_rows_report_speedup() {
        let rows = training_scaling_experiment(8, 32, &[1, 4], 5);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        assert!(rows[1].speedup > 0.0);
    }
}
