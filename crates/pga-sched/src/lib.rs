//! A parallel map substrate: a set of independent tasks, executed by a
//! work-stealing scheduler.
//!
//! The paper runs its training jobs as Spark batch stages (§II, §IV-A);
//! `pga-dataflow` reproduces those stages eagerly on a bounded pool, and
//! per-unit training is embarrassingly parallel, so the work is a flat
//! [`TaskSet`] — no dependencies between tasks — executed either by
//!
//! * [`run`], a **work-stealing scheduler**: every task is dealt
//!   round-robin into per-worker LIFO deques before the threads start;
//!   a worker whose deque is empty steals from the front of the others,
//!   probed in an order shuffled by a per-worker [`rand::rngs::StdRng`]
//!   stream derived from a caller-supplied seed (never ambient entropy,
//!   so replay harnesses stay reproducible), and a pass that finds every
//!   deque empty ends the worker; or
//! * [`run_sequential`], a deterministic single-threaded executor that
//!   runs tasks in index order — the differential oracle for the
//!   parallel path and the replay baseline.
//!
//! Both report [`RunReport`] counters (tasks, steals, probes, queue
//! depth, task time). Time is **injected** via [`Clock`] — this crate
//! never reads `Instant::now`, keeping the whole crate inside the
//! `pga-analyze` determinism scope.
//!
//! The deque protocol (len-check and take under one lock section) is
//! modelled and exhaustively checked by `pga-analyze`'s `worklist-deque`
//! interleave model; see DESIGN.md §13 for the invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deque;
mod executor;
mod tasks;

pub use deque::WorkDeque;
pub use executor::{run, run_sequential, Clock, RunReport, SchedulerConfig};
pub use tasks::{SchedError, TaskSet};
