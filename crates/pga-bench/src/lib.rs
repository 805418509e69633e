//! Experiment harnesses reproducing the paper's evaluation artifacts.
//!
//! Each function regenerates one table or figure (see DESIGN.md §4 for the
//! experiment index). The `report_all` binary runs everything and prints
//! paper-style tables plus JSON for EXPERIMENTS.md; the Criterion benches
//! measure the real code paths behind each experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod experiments;
pub mod faults;
pub mod overload;
pub mod queries;
pub mod repl;
pub mod scrub;
pub mod table;
pub mod train;

pub use blocks::{block_format_experiment, BlockBenchConfig, BlockBenchReport, DetectArm, ScanArm};
pub use experiments::{
    alpha_sweep_experiment, compaction_ablation, compaction_ablation_single,
    detection_latency_experiment, eval_throughput_experiment, fdr_experiment,
    fdr_weak_signal_experiment, fig2_report, pipeline_throughput_experiment,
    training_scaling_experiment, window_ablation_experiment, AlphaSweepRow, CompactionRow,
    EvalThroughput, FdrRow, Fig2Report, LatencyRow, PipelineThroughput, TrainingRow,
    WindowAblationRow,
};
pub use faults::{fault_durability_experiment, FaultDurabilityReport};
pub use overload::{overload_storm_experiment, OverloadStormReport, GOODPUT_FLOOR};
pub use queries::{query_serving_experiment, QueryArm, QueryBenchConfig, QueryServingReport};
pub use repl::{
    failover_experiment, AvailabilityRow, CampaignSummary, FailoverReport, AVAILABILITY_BAR,
};
pub use scrub::{scrub_resilience_experiment, ScrubArm, ScrubBenchConfig, ScrubBenchReport};
pub use table::render_table;
pub use train::{
    train_retrain_experiment, RetrainRound, TrainBenchConfig, TrainBenchReport, WorkerScalingRow,
};

/// Write `value` as pretty JSON to `target/experiments/<name>.json` —
/// where every experiment artifact lands — and return that path.
pub fn write_report(name: &str, value: &impl serde::Serialize) -> String {
    std::fs::create_dir_all("target/experiments").expect("create experiments dir");
    let path = format!("target/experiments/{name}.json");
    let json = serde_json::to_string_pretty(value).expect("report serialises");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}
