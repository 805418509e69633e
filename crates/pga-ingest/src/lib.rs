//! Streaming sensor-data ingestion.
//!
//! Reproduces §III of the paper: sensor samples flow from the fleet
//! generator through a **buffering reverse proxy** into TSD daemons backed
//! by the MiniBase region servers. The proxy exists for the same two
//! reasons as the paper's (§III-B): it applies backpressure so region
//! servers are never crashed by RPC-queue overload, and it load-balances
//! ("Ingestion throughput scales horizontally by distributing the requests
//! to the OpenTSDB nodes via a round-robin fashion").
//!
//! * [`proxy`] — the reverse proxy over real TSD daemons (thread-scale):
//!   blocking queues bounded in lane parts, round-robin per series (one
//!   lane per TSD, each series always in one lane, forwarded in order, a
//!   lane's queued parts in one put, an ingest call's group of batches in
//!   one put per lane), and bounded retries of storage failures with
//!   jittered exponential backoff.
//! * [`series`] — the proxy's series table: each sensor's series resolved
//!   once per proxy, so the proxy forwards resolved points.
//! * [`pipeline`] — drive a [`pga_sensorgen::Fleet`] through the stack and
//!   measure real wall-clock throughput.
//! * [`experiment`] — cluster-scale experiment harnesses (Fig. 2, salting
//!   ablation, proxy ablation, 70-node extrapolation) running on the
//!   deterministic queueing model with **real codec-derived routing**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod pipeline;
pub mod proxy;
pub mod series;

pub use experiment::{
    fig2_scaling_experiment, linear_fit, proxy_ablation, routing_shares, salting_ablation, Fig2Row,
    IngestReportSummary, ProxyAblationReport, SaltingAblationReport,
};
pub use pipeline::{IngestionPipeline, PipelineReport};
pub use proxy::{ProxyConfig, ProxyError, ProxyMetrics, ReverseProxy};
pub use series::SensorSeries;
