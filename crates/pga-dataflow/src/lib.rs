//! A small Spark-analog batch compute engine.
//!
//! The paper trains offline "in the Spark framework … in batch mode"
//! (§II, §IV-A). This crate supplies the equivalent substrate:
//!
//! * [`Dataflow`] / [`Dataset`] — partitioned collections with parallel
//!   `map`, `filter`, `flat_map`, `map_partitions`, `reduce`, `count`,
//!   `collect`, and a hash-shuffled `group_by_key` (the "concurrency of
//!   Spark" §IV-A plans to exploit). Each transformation compiles into a
//!   `pga-sched` task graph — one task per partition plus explicit
//!   shuffle/merge edges — executed by the seeded work-stealing
//!   scheduler (or the sequential executor with one worker).
//! * [`DataflowStats`] — cumulative scheduler counters (tasks, steals,
//!   queue depth, task latency) for the platform observability panel.
//!
//! The engine is eager (each transformation runs immediately, in
//! parallel); lineage/laziness is orthogonal to everything the paper's
//! workload needs. The paper caches its decompositions to HDFS; here the
//! trained models stay in memory, held by the monitor's evaluator.
//! DESIGN.md §13 describes the scheduler substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;

pub use dataset::{Dataflow, DataflowStats, Dataset};
