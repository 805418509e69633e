//! A small Spark-analog batch compute engine.
//!
//! The paper trains offline "in the Spark framework … in batch mode"
//! (§II, §IV-A), and that training is embarrassingly parallel per unit.
//! This crate supplies the one shape it needs:
//!
//! * [`Dataflow`] / [`Dataset`] — `parallelize` a vector into partitions,
//!   `map` them in parallel, `collect` the results in order. Each `map`
//!   becomes a `pga-sched` task set — one independent task per partition
//!   — executed by workers claiming from one shared queue (or the
//!   sequential executor with one worker).
//! * [`DataflowStats`] — cumulative scheduler counters (tasks, claims
//!   beyond the round-robin share, queue depth, task time) for the
//!   platform observability panel.
//!
//! The engine is eager (each `map` runs immediately, in parallel);
//! lineage/laziness is orthogonal to everything the paper's workload
//! needs. The paper caches its decompositions to HDFS; here the trained
//! models stay in memory, held by the monitor's evaluator. DESIGN.md §13
//! describes the scheduler substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;

pub use dataset::{Dataflow, DataflowStats, Dataset};
