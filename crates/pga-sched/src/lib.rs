//! A parallel map substrate: a set of independent tasks, executed by a
//! pool of workers that share one queue.
//!
//! The paper runs its training jobs as Spark batch stages (§II, §IV-A);
//! `pga-dataflow` reproduces those stages eagerly on a bounded pool, and
//! per-unit training is embarrassingly parallel, so the work is a flat
//! [`TaskSet`] — no dependencies between tasks — executed either by
//!
//! * [`run`], whose workers each claim the next task from one shared
//!   queue and stop when it is empty; or
//! * [`run_sequential`], a deterministic single-threaded executor that
//!   runs tasks in index order — the differential oracle for the
//!   parallel path.
//!
//! Both report [`RunReport`] counters (tasks, claims beyond each
//! worker's round-robin share, queue depth, task time). Time is
//! **injected** via [`Clock`] — this crate never reads `Instant::now`,
//! keeping the whole crate inside the `pga-analyze` determinism scope.
//! See DESIGN.md §13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod tasks;

pub use executor::{run, run_sequential, Clock, RunReport};
pub use tasks::{SchedError, TaskSet};
