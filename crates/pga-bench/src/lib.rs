//! Experiment harnesses reproducing the paper's evaluation artifacts.
//!
//! Each harness function regenerates one table or figure (see DESIGN.md §4
//! for the experiment index). [`registry::EXPERIMENTS`] lists them all
//! with their sizes, rendering, verdict and JSON artifact: the
//! `report_all` binary runs every row and `pga <name>` runs one, writing
//! the JSON to `target/experiments/` for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod detection;
pub mod experiments;
pub mod faults;
pub mod overload;
pub mod queries;
pub mod registry;
pub mod repl;
pub mod scrub;
pub mod table;
pub mod train;

pub use blocks::{block_format_experiment, BlockBenchConfig, BlockBenchReport, DetectArm, ScanArm};
pub use experiments::{
    alpha_sweep_experiment, compaction_ablation, detection_latency_experiment,
    eval_throughput_experiment, fdr_experiment, fdr_weak_signal_experiment, fig2_report,
    pipeline_throughput_experiment, training_scaling_experiment, window_ablation_experiment,
    AlphaSweepRow, CompactionRow, EvalThroughput, FdrRow, Fig2Report, LatencyRow,
    PipelineThroughput, TrainingRow, WindowAblationRow,
};
pub use faults::{fault_durability_experiment, FaultDurabilityReport};
pub use overload::{
    goodput_fraction, overload_storm_experiment, OverloadStormReport, GOODPUT_FLOOR,
};
pub use queries::{query_serving_experiment, QueryArm, QueryBenchConfig, QueryServingReport};
pub use repl::{
    failover_experiment, AvailabilityRow, CampaignSummary, FailoverReport, AVAILABILITY_BAR,
};
pub use scrub::{scrub_resilience_experiment, ScrubArm, ScrubBenchConfig, ScrubBenchReport};
pub use table::render_table;
pub use train::{
    train_retrain_experiment, RetrainRound, TrainBenchConfig, TrainBenchReport, WorkerScalingRow,
};
