//! The experiment table: one row per evaluation artifact (DESIGN.md §4).
//!
//! `report_all` runs every row in table order and `pga <name>` runs one.
//! Both go through [`Experiment::execute`], so a row's sizes, rendering,
//! verdict and JSON artifact are defined once, here. Adding an experiment
//! means one row plus its run function.

use std::fmt::Write;

use serde::Serialize;

use crate::table::{render_table, row};
use crate::{
    alpha_sweep_experiment, block_format_experiment, compaction_ablation,
    detection_latency_experiment, eval_throughput_experiment, failover_experiment,
    fault_durability_experiment, fdr_experiment, fdr_weak_signal_experiment, fig2_report,
    overload_storm_experiment, pipeline_throughput_experiment, query_serving_experiment,
    scrub_resilience_experiment, train_retrain_experiment, training_scaling_experiment,
    window_ablation_experiment, BlockBenchConfig, QueryBenchConfig, ScrubBenchConfig,
    TrainBenchConfig, GOODPUT_FLOOR,
};

/// How large a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The CI smoke size. Rows whose report separates exact counters
    /// from timing bars score only the exact counters.
    Smoke,
    /// `report_all --quick`, and `pga <name>` without a size flag.
    Quick,
    /// The full-size report.
    Full,
}

/// What one run of a row produced.
#[derive(Debug, Clone)]
pub struct Run {
    /// Rendered tables and notes.
    pub text: String,
    /// Pretty JSON written to the row's artifact; `None` only for rows
    /// without one.
    pub json: Option<String>,
    /// Whether the row's verdict held; `None` for rows that only measure.
    pub verdict: Option<bool>,
}

impl Run {
    fn new(text: String, report: &impl Serialize, verdict: Option<bool>) -> Run {
        let json = serde_json::to_string_pretty(report).expect("report serialises");
        Run {
            text,
            json: Some(json),
            verdict,
        }
    }
}

/// One row of the table.
#[derive(Debug)]
pub struct Experiment {
    /// Experiment id in EXPERIMENTS.md (`E19`).
    pub id: &'static str,
    /// Command name (`pga queries`).
    pub name: &'static str,
    /// Section title printed above the output.
    pub title: &'static str,
    /// One line for `pga`'s usage text.
    pub help: &'static str,
    /// File stem under `target/experiments/`, if the row writes one.
    pub artifact: Option<&'static str>,
    /// Runs the experiment at a size.
    pub run: fn(Size) -> Run,
}

impl Experiment {
    /// Run the row at `size`, print its section and verdict, and write its
    /// artifact. Returns the verdict, if the row has one.
    pub fn execute(&self, size: Size) -> Option<bool> {
        println!("== {}: {} ==", self.id, self.title);
        let run = (self.run)(size);
        println!("{}", run.text.trim_end());
        if let Some(held) = run.verdict {
            println!("verdict {}", if held { "HELD" } else { "FAILED" });
        }
        if let (Some(name), Some(json)) = (self.artifact, &run.json) {
            std::fs::create_dir_all("target/experiments").expect("create experiments dir");
            let path = format!("target/experiments/{name}.json");
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("  [saved {path}]");
        }
        println!();
        run.verdict
    }
}

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Every experiment, in `report_all` order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "E1/E2", name: "fig2", run: fig2, artifact: Some("fig2"),
        title: "Figure 2 — ingestion scale-up (queueing model, real key routing)",
        help: "Fig. 2: ingest throughput vs nodes, rate stability" },
    Experiment { id: "E12", name: "fig2-extended", run: fig2_extended,
        artifact: Some("fig2_extended"),
        title: "extension — scaling to 70 nodes (§VI ongoing work)",
        help: "Fig. 2 node sweep extended to 70 nodes" },
    Experiment { id: "E6", name: "salting", run: salting, artifact: Some("salting_ablation"),
        title: "§III-B ablation — row-key salting",
        help: "§III-B: salted vs unsalted row keys" },
    Experiment { id: "E7", name: "proxy", run: proxy, artifact: Some("proxy_ablation"),
        title: "§III-B ablation — reverse proxy backpressure",
        help: "§III-B: ingest with and without the buffering proxy" },
    Experiment { id: "E8", name: "compaction", run: compaction,
        artifact: Some("compaction_ablation"),
        title: "§III-B ablation — OpenTSDB write-path compaction",
        help: "§III-B: RPCs per point with write-path compaction on/off" },
    Experiment { id: "E5", name: "fdr", run: fdr, artifact: Some("fdr_procedures"),
        title: "§IV — multiple-testing procedures on the synthetic fleet",
        help: "§IV: FDR vs FWER vs uncorrected on fleet data" },
    Experiment { id: "E5b", name: "weak-signal", run: weak_signal,
        artifact: Some("fdr_weak_signal"),
        title: "weak-signal power study (Monte Carlo, m=1000, 50 signals at z=3)",
        help: "§IV: procedure power on weak signals" },
    Experiment { id: "E15", name: "alpha-sweep", run: alpha_sweep, artifact: Some("alpha_sweep"),
        title: "operating characteristic — power vs FDR across alpha",
        help: "power and FDR across alpha per procedure" },
    Experiment { id: "E13", name: "latency", run: latency, artifact: Some("detection_latency"),
        title: "detection latency — ticks from onset to first true flag",
        help: "ticks from fault onset to first true flag, incl. CUSUM" },
    Experiment { id: "E14", name: "window", run: window, artifact: Some("window_ablation"),
        title: "design ablation — evaluation window length",
        help: "evaluation window length: delay vs false flags" },
    Experiment { id: "E4", name: "false-alarm", run: false_alarm, artifact: None,
        title: "§IV arithmetic — P(≥1 false alarm) = 1 − (1−α)^m",
        help: "§IV: family-wise false-alarm probability, analytic vs MC" },
    Experiment { id: "E3", name: "eval", run: eval, artifact: Some("eval_throughput"),
        title: "§IV-A — online evaluation throughput",
        help: "§IV-A: online evaluation samples/s on one thread" },
    Experiment { id: "E10", name: "training", run: training, artifact: Some("training_scaling"),
        title: "§IV-A — offline training scaling (Spark-analog workers)",
        help: "§IV-A: fleet training time vs dataflow workers" },
    Experiment { id: "E17", name: "crashtest", run: crashtest, artifact: Some("fault_durability"),
        title: "durability under injected faults (pga-faultsim)",
        help: "fault-injection campaign on the live storage stack" },
    Experiment { id: "E18", name: "overload", run: overload, artifact: Some("e18_overload"),
        title: "overload control under storm load (3x capacity, one slow server)",
        help: "storm showdown: controlled vs seed stacks + live storm campaign" },
    Experiment { id: "E19", name: "queries", run: queries, artifact: Some("BENCH_queries"),
        title: "serving-layer queries — raw scans vs rollups vs result cache",
        help: "raw vs rollup vs rollup+cache under live ingest" },
    Experiment { id: "E20", name: "failover", run: failover, artifact: Some("BENCH_failover"),
        title: "failover availability under replication (pga-repl)",
        help: "RF=2/3 crash campaigns + replicated availability probe" },
    Experiment { id: "E21", name: "blocks", run: blocks, artifact: Some("BENCH_blocks"),
        title: "sealed-block scans + batched columnar detection vs legacy",
        help: "sealed-block scans + batched detection vs the legacy paths" },
    Experiment { id: "E22", name: "scrub", run: scrub, artifact: Some("BENCH_scrub"),
        title: "corruption resilience — salvage reads + background scrub",
        help: "bit-flipped blocks: typed errors, salvage reads, scrub repair" },
    Experiment { id: "E23", name: "train", run: train, artifact: Some("BENCH_train"),
        title: "incremental retraining + work-stealing scheduler scaling",
        help: "dirty-only retraining oracle + scheduler scaling sweep" },
    Experiment { id: "sanity", name: "pipeline", run: pipeline,
        artifact: Some("pipeline_throughput"),
        title: "real thread-scale pipeline (storage stack on this host)",
        help: "samples/s through the real proxy → TSD → region servers" },
];

/// `quick` at Smoke and Quick size, `full` at Full size.
fn pick<T>(size: Size, quick: T, full: T) -> T {
    if size == Size::Full {
        full
    } else {
        quick
    }
}

fn fig2(size: Size) -> Run {
    let fig2 = fig2_report(pick(size, 1_000_000.0, 20_000_000.0), false);
    let mut rows = vec![row("nodes|throughput (samples/s)|paper (samples/s)")];
    for (r, &(pn, pt)) in fig2.rows.iter().zip(&fig2.paper_reference) {
        assert_eq!(r.nodes, pn);
        rows.push(vec![
            r.nodes.to_string(),
            format!("{:.0}", r.throughput),
            format!("{pt:.0}"),
        ]);
    }
    let mut t = render_table(&rows);
    let (a, b, r2) = fig2.fit;
    let _ = writeln!(
        t,
        "linear fit: throughput = {a:.0} + {b:.0}·nodes  (r² = {r2:.4})"
    );
    t.push_str("paper: \"scales linearly, with each added machine increasing throughput by 11K samples per second\"\n");
    // Fig 2 right: rate stability per configuration.
    t.push_str("\nFig 2 (right) — rate stability (max slope deviation from mean):\n");
    for r in &fig2.rows {
        let rate = r.throughput;
        let max_dev = r
            .timeline
            .windows(2)
            .take(r.timeline.len().saturating_sub(2))
            .map(|w| ((w[1].1 - w[0].1) / (w[1].0 - w[0].0) - rate).abs() / rate)
            .fold(0.0, f64::max);
        let _ = writeln!(
            t,
            "  {:>2} nodes: {:.1}% deviation over {} snapshots",
            r.nodes,
            max_dev * 100.0,
            r.timeline.len()
        );
    }
    Run::new(t, &fig2, None)
}

fn fig2_extended(size: Size) -> Run {
    let ext = fig2_report(pick(size, 1_000_000.0, 20_000_000.0), true);
    let mut rows = vec![row("nodes|throughput (samples/s)")];
    for r in &ext.rows {
        rows.push(vec![r.nodes.to_string(), format!("{:.0}", r.throughput)]);
    }
    Run::new(render_table(&rows), &ext, None)
}

fn salting(size: Size) -> Run {
    let salt = pga_ingest::salting_ablation(30, pick(size, 500_000.0, 5_000_000.0));
    let rows = [
        row("keys|throughput (samples/s)|busiest server share"),
        vec![
            "salted".to_string(),
            format!("{:.0}", salt.salted_throughput),
            format!("{:.3}", salt.salted_max_share),
        ],
        vec![
            "unsalted".to_string(),
            format!("{:.0}", salt.unsalted_throughput),
            format!("{:.3}", salt.unsalted_max_share),
        ],
    ];
    let text = format!(
        "{}salting speedup: {:.1}x  (paper: \"a dramatic increase to the ingestion rate\")",
        render_table(&rows),
        salt.speedup()
    );
    Run::new(text, &salt, None)
}

fn proxy(size: Size) -> Run {
    let proxy = pga_ingest::proxy_ablation(10, pick(size, 1_000_000.0, 5_000_000.0));
    let arm = |label: &str, r: &pga_ingest::IngestReportSummary| {
        vec![
            label.to_string(),
            format!("{:.0}", r.ingested),
            format!("{:.0}", r.dropped),
            r.crashes.to_string(),
        ]
    };
    let rows = [
        row("config|ingested|dropped|server crashes"),
        arm("with proxy", &proxy.with_proxy),
        arm("without proxy", &proxy.without_proxy),
    ];
    let text = format!(
        "{}paper: \"frequent crashes of Regionservers due to overloaded RPC Queues\" without buffering",
        render_table(&rows)
    );
    Run::new(text, &proxy, None)
}

fn compaction(size: Size) -> Run {
    let comp = compaction_ablation(pick(size, 4, 16), 8, 7);
    let mut rows = vec![row("compaction|RPCs per datapoint|wall secs")];
    for r in &comp {
        rows.push(vec![
            if r.compaction {
                "enabled"
            } else {
                "disabled (paper)"
            }
            .to_string(),
            format!("{:.3}", r.rpcs_per_point),
            format!("{:.3}", r.elapsed_secs),
        ]);
    }
    Run::new(render_table(&rows), &comp, None)
}

fn fdr(size: Size) -> Run {
    let (units, sensors) = pick(size, (12, 64), (50, 200));
    let fdr = fdr_experiment(units, sensors, 560, 0.5, 2024);
    let mut rows = vec![row(
        "procedure|false alarms/window|empirical FDR|empirical FWER|power",
    )];
    for r in &fdr {
        rows.push(vec![
            r.procedure.clone(),
            format!("{:.2}", r.mean_false_alarms),
            format!("{:.3}", r.empirical_fdr),
            format!("{:.3}", r.empirical_fwer),
            format!("{:.3}", r.power),
        ]);
    }
    let text = format!(
        "{}paper: FDR \"significantly reduces the number of false alarms\" while balancing type I/II errors",
        render_table(&rows)
    );
    Run::new(text, &fdr, None)
}

fn weak_signal(size: Size) -> Run {
    let weak = fdr_weak_signal_experiment(1000, 50, 3.0, pick(size, 40, 200), 77);
    let mut rows = vec![row("procedure|empirical FDR|empirical FWER|power")];
    for r in &weak {
        rows.push(vec![
            r.procedure.clone(),
            format!("{:.3}", r.empirical_fdr),
            format!("{:.3}", r.empirical_fwer),
            format!("{:.3}", r.power),
        ]);
    }
    let text = format!(
        "{}paper on FWER control: \"provided much less detection power and was overly conservative\"",
        render_table(&rows)
    );
    Run::new(text, &weak, None)
}

fn alpha_sweep(size: Size) -> Run {
    let sweep = alpha_sweep_experiment(
        pick(size, 12, 30),
        64,
        620,
        0.5,
        &[0.01, 0.05, 0.10, 0.20],
        2024,
    );
    let mut rows = vec![row(
        "procedure|alpha|empirical FDR|power|false alarms/window",
    )];
    for r in &sweep {
        rows.push(vec![
            r.procedure.clone(),
            format!("{:.2}", r.alpha),
            format!("{:.3}", r.empirical_fdr),
            format!("{:.3}", r.power),
            format!("{:.2}", r.mean_false_alarms),
        ]);
    }
    let text = format!(
        "{}BH tracks the target FDR across levels; uncorrected false alarms grow linearly with alpha",
        render_table(&rows)
    );
    Run::new(text, &sweep, None)
}

/// A mean delay in ticks, or `-` when nothing was detected.
fn ticks(delay: f64) -> String {
    if delay.is_nan() {
        "-".into()
    } else {
        format!("{delay:.0}")
    }
}

fn latency(size: Size) -> Run {
    let (units, sensors) = pick(size, (9, 48), (24, 96));
    let lat = detection_latency_experiment(units, sensors, 50, 10, 1500, 31);
    let mut rows = vec![row("procedure|fault class|mean delay (ticks)|detected")];
    for r in &lat {
        rows.push(vec![
            r.procedure.clone(),
            r.fault_class.clone(),
            ticks(r.mean_delay_ticks),
            format!("{}/{}", r.detected, r.total),
        ]);
    }
    let text = format!(
        "{}sharp shifts are caught within ~1 window; gradual degradation is caught once the drift\n\
         accumulates — the incipient-fault detection the paper targets. The classical per-sensor\n\
         CUSUM is fastest but carries NO multiplicity control: on a healthy 1000-sensor unit it\n\
         false-alarms on hundreds of sensors (see pga-detect cusum tests) — the paper's §IV problem.",
        render_table(&rows)
    );
    Run::new(text, &lat, None)
}

fn window(size: Size) -> Run {
    let wab = window_ablation_experiment(pick(size, 9, 18), 48, &[10, 25, 50, 100], 47);
    let mut rows = vec![row(
        "window (ticks)|sharp-shift delay (ticks)|false flags / healthy window",
    )];
    for r in &wab {
        rows.push(vec![
            r.window.to_string(),
            ticks(r.sharp_delay_ticks),
            format!("{:.3}", r.healthy_false_flags),
        ]);
    }
    Run::new(render_table(&rows), &wab, None)
}

fn false_alarm(_: Size) -> Run {
    use rand::{Rng, SeedableRng};
    let mut rows = vec![row("sensors (m)|analytic|Monte-Carlo")];
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    for m in [1usize, 5, 10, 50, 100] {
        let analytic = pga_stats::family_wise_false_alarm_probability(0.05, m);
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|_| (0..m).any(|_| rng.gen::<f64>() <= 0.05))
            .count();
        rows.push(vec![
            m.to_string(),
            format!("{analytic:.4}"),
            format!("{:.4}", hits as f64 / trials as f64),
        ]);
    }
    Run {
        text: format!(
            "{}paper: α=0.05, m=10 → \"that probability jumps to 40%\"",
            render_table(&rows)
        ),
        json: None,
        verdict: None,
    }
}

fn eval(size: Size) -> Run {
    let eval = eval_throughput_experiment(1000, 50, pick(size, 20, 100), 9);
    let text = format!(
        "evaluated {} samples in {:.3}s → {:.0} samples/s on one thread\n\
         paper: \"we can evaluate for anomalies at a rate of 939,000 sensor samples per second\"",
        eval.samples, eval.elapsed_secs, eval.throughput
    );
    Run::new(text, &eval, None)
}

fn training(size: Size) -> Run {
    let tr = training_scaling_experiment(
        pick(size, 16, 48),
        pick(size, 64, 200),
        150,
        &[1, 2, 4, 8],
        13,
    );
    let mut rows = vec![row("workers|wall secs|speedup")];
    for r in &tr {
        rows.push(vec![
            r.workers.to_string(),
            format!("{:.3}", r.elapsed_secs),
            format!("{:.2}x", r.speedup),
        ]);
    }
    Run::new(render_table(&rows), &tr, None)
}

fn crashtest(size: Size) -> Run {
    let seeds = match size {
        Size::Smoke => 32,
        Size::Quick => 16,
        Size::Full => 64,
    };
    let faults = fault_durability_experiment(seeds);
    let t = &faults.totals;
    let rows = [
        row("seeds|acked batches|retries|crashes (torn)|partitions|skews|splits|moves|ack drops|reassigned|violations"),
        vec![
            faults.seeds_run.to_string(),
            t.batches_acked.to_string(),
            t.retries.to_string(),
            format!("{} ({})", t.crashes, t.torn_crashes),
            t.partitions.to_string(),
            t.skews.to_string(),
            t.splits.to_string(),
            t.moves.to_string(),
            t.rpc_drops.to_string(),
            t.reassigned.to_string(),
            if faults.passed {
                "0".to_string()
            } else {
                format!("{} FAILING SEEDS", faults.failures.len())
            },
        ],
    ];
    let mut text = render_table(&rows);
    for replay in &faults.failures {
        let _ = writeln!(text, "  {replay}");
    }
    text.push_str("paper §III: the HBase/OpenTSDB substrate keeps acknowledged data through node failure — every seeded crash/partition/torn-WAL schedule above recovered with zero acked samples lost and baseline-identical detection output.");
    Run::new(text, &faults, Some(faults.passed))
}

fn overload(size: Size) -> Run {
    let overload = overload_storm_experiment(pick(size, 16, 64));
    let arm = |r: &pga_cluster::OverloadReport| {
        vec![
            format!("{:?}", r.mode),
            format!("{:.1}%", r.goodput_fraction * 100.0),
            format!("{:.2}s", r.p99_latency_secs),
            format!("{:.1}s", r.max_latency_secs),
            format!("{:.0}", r.busy_rejected),
            format!("{:.0}", r.deadline_expired),
            format!("{:.0}", r.dropped + r.lost_in_queue),
            r.crashes.to_string(),
        ]
    };
    let rows = [
        row("stack|goodput|p99|max lat|busy (typed)|expired (typed)|silent loss|crashes"),
        arm(&overload.controlled),
        arm(&overload.seed_buffered),
        arm(&overload.seed_direct),
    ];
    let st = &overload.storm_totals;
    let mut text = render_table(&rows);
    let _ = writeln!(
        text,
        "live-stack storm campaign: {} seeds, {} storms, {} slow-server windows, {} Busy rejections, {}/{} batches acked — {}",
        overload.storm_seeds_run,
        st.storms,
        st.slow_faults,
        st.busy_rejections,
        st.batches_acked,
        st.batches_generated,
        if overload.storm_campaign_passed {
            "all oracles held"
        } else {
            "ORACLE FAILURES"
        }
    );
    for replay in &overload.storm_failures {
        let _ = writeln!(text, "  {replay}");
    }
    let _ = write!(
        text,
        "overload control keeps goodput >= {:.0}% of calibrated capacity with a bounded tail while both seed stacks collapse (unbounded latency / crashed servers); every rejected sample is typed, nothing acked is lost.",
        GOODPUT_FLOOR * 100.0
    );
    Run::new(text, &overload, Some(overload.passed()))
}

fn queries(size: Size) -> Run {
    let cfg = match size {
        Size::Smoke => QueryBenchConfig {
            units: 4,
            sensors_per_unit: 6,
            history_secs: 5_400,
            queries: 12,
            ..QueryBenchConfig::quick()
        },
        Size::Quick => QueryBenchConfig::quick(),
        Size::Full => QueryBenchConfig::full(),
    };
    let rep = query_serving_experiment(&cfg);
    let text = format!(
        "{}\npaper §V: dashboards need interactive latency over months of retained data; write-time rollups plus an invalidated result cache serve repeated panel refreshes without rescanning raw cells.",
        rep.render()
    );
    Run::new(text, &rep, Some(rep.passed()))
}

fn failover(size: Size) -> Run {
    let rep = failover_experiment(pick(size, 16, 128));
    let mut text = rep.render();
    for replay in rep.campaigns.iter().flat_map(|c| &c.failures) {
        let _ = write!(text, "\n  {replay}");
    }
    Run::new(text, &rep, Some(rep.passed()))
}

fn blocks(size: Size) -> Run {
    let rep = block_format_experiment(&pick(
        size,
        BlockBenchConfig::quick(),
        BlockBenchConfig::full(),
    ));
    // A smoke run gates on what repeats exactly; the 10x bars score
    // runs whose timings a shared CI host does not decide.
    let held = if size == Size::Smoke {
        rep.exact()
    } else {
        rep.passed()
    };
    Run::new(rep.render(), &rep, Some(held))
}

fn scrub(size: Size) -> Run {
    let rep = scrub_resilience_experiment(&pick(
        size,
        ScrubBenchConfig::quick(),
        ScrubBenchConfig::full(),
    ));
    Run::new(rep.render(), &rep, Some(rep.passed()))
}

fn train(size: Size) -> Run {
    let rep = train_retrain_experiment(&pick(
        size,
        TrainBenchConfig::quick(),
        TrainBenchConfig::full(),
    ));
    // As for `blocks`: exact gates for a smoke run, timing bars beside.
    let held = if size == Size::Smoke {
        rep.exact()
    } else {
        rep.passed()
    };
    Run::new(rep.render(), &rep, Some(held))
}

fn pipeline(size: Size) -> Run {
    let pipe = pipeline_throughput_experiment(4, pick(size, 20, 100), 17);
    let text = format!(
        "{} samples through proxy → TSD → region servers at {:.0} samples/s",
        pipe.samples, pipe.throughput
    );
    Run::new(text, &pipe, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_names_and_artifacts_are_unique() {
        let unique = |items: Vec<&str>| items.len() == items.iter().collect::<HashSet<_>>().len();
        assert!(unique(EXPERIMENTS.iter().map(|e| e.id).collect()));
        assert!(unique(EXPERIMENTS.iter().map(|e| e.name).collect()));
        assert!(unique(
            EXPERIMENTS.iter().filter_map(|e| e.artifact).collect()
        ));
    }

    #[test]
    fn rows_run_in_the_order_the_report_has_always_printed() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "E1/E2", "E12", "E6", "E7", "E8", "E5", "E5b", "E15", "E13", "E14", "E4", "E3",
                "E10", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "sanity"
            ]
        );
    }

    #[test]
    fn names_are_command_words() {
        for e in EXPERIMENTS {
            assert!(
                e.name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{}",
                e.name
            );
            assert_eq!(find(e.name).map(|f| f.id), Some(e.id));
        }
        assert!(find("elastic").is_none());
    }

    #[test]
    fn a_row_without_an_artifact_returns_no_json() {
        let e4 = find("false-alarm").unwrap();
        let run = (e4.run)(Size::Smoke);
        assert!(e4.artifact.is_none() && run.json.is_none() && run.verdict.is_none());
        assert!(run.text.contains("0.4013"), "{}", run.text);
    }
}
