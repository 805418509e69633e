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
//! * [`proxy`] — the reverse proxy over real TSD daemons (thread-scale).
//! * [`pipeline`] — drive a [`pga_sensorgen::Fleet`] through the stack and
//!   measure real wall-clock throughput.
//! * [`experiment`] — cluster-scale experiment harnesses (Fig. 2, salting
//!   ablation, proxy ablation, 70-node extrapolation) running on the
//!   deterministic queueing model with **real codec-derived routing**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
pub mod experiment;
pub mod pipeline;
pub mod proxy;

pub use backoff::{BackoffPolicy, RetryBudget};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use experiment::{
    fig2_scaling_experiment, linear_fit, proxy_ablation, routing_shares, salting_ablation, Fig2Row,
    IngestReportSummary, ProxyAblationReport, SaltingAblationReport,
};
pub use pipeline::{IngestionPipeline, PipelineReport};
pub use proxy::{
    choose_routable, choose_target, AlwaysHealthy, HealthFn, ProxyConfig, ProxyError, ProxyMetrics,
    ReverseProxy, TargetHealth,
};
