//! FDR-based anomaly detection for power-generating assets.
//!
//! The paper's §IV pipeline, end to end:
//!
//! 1. **Offline training** (batch, Spark in the paper / [`pga_dataflow`]
//!    here): per unit, estimate each sensor's baseline mean/variance and —
//!    per sensor *block* — the covariance matrix and its SVD. "Model
//!    estimation of each sensor on each unit begins by calculating the
//!    covariance matrix of each data set. Singular Value Decomposition is
//!    then performed on each covariance matrix to obtain the mean and
//!    variance. Results from the decomposition are cached to HDFS."
//! 2. **Online evaluation**: a window of new observations per unit is
//!    scored against the model — one z-test per sensor producing a p-value
//!    family, plus a Hotelling T² per block in the whitened eigenbasis
//!    (the "single matrix multiplication per iteration").
//! 3. **Multiple-testing control**: the per-sensor p-values go through the
//!    Benjamini–Hochberg FDR procedure (or any baseline from
//!    [`pga_stats::multiple`]) to decide which sensors to flag.
//!
//! Columnar path: the block store serves windows as per-sensor column
//! slices, and the platform's monitor reads one fleet-wide window per
//! cycle in that shape. Training ([`train_unit_columns`]) and evaluation
//! ([`BatchEvaluator`] over [`OnlineEvaluator::evaluate_columns`]) accept
//! it directly — many units per pass, bit-identical to the row-major
//! [`train_unit`] / [`OnlineEvaluator::evaluate`], which stay as the
//! oracle the tests, benchmarks and experiments score against.
//!
//! Blocks: with 1000 sensors per unit a full 1000×1000 decomposition is
//! wasteful — fault correlation in the generator (and in the physical
//! systems the paper describes) is local to small sensor groups, so models
//! use a block-diagonal covariance with blocks of [`BLOCK_SENSORS`]
//! sensors. DESIGN.md records this substitution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cusum;
mod incremental;
mod model;
mod online;
mod streaming;
mod trainer;

pub use batch::{BatchEvaluator, ColumnWindow};
pub use cusum::{CusumDetector, CusumState};
pub use incremental::{model_divergence, FleetTrainer};
pub use model::{BlockModel, UnitModel, BLOCK_SENSORS};
pub use online::{EvalOutcome, OnlineEvaluator, SensorFlag};
pub use streaming::StreamingTrainer;
pub use trainer::{train_fleet, train_unit, train_unit_columns, TrainError};
