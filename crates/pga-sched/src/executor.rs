//! The two executors: a seeded work-stealing scheduler and a
//! deterministic sequential executor used as its differential oracle.
//!
//! Determinism contract: task *outputs* are deterministic under both
//! executors (every task runs exactly once), while the work-stealing
//! *interleaving* varies run to run. Victim selection draws from
//! per-worker `StdRng` streams seeded from [`SchedulerConfig::seed`],
//! never ambient entropy, so fault-injection harnesses that replay a seed
//! see the same steal pressure profile. Time never comes from
//! `Instant::now` here — callers inject a [`Clock`].

use crate::deque::WorkDeque;
use crate::tasks::{SchedError, Task, TaskSet};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Monotonic nanosecond source injected by the caller. `pga-sched`
/// itself never reads wall or monotonic clocks, which keeps the whole
/// crate inside the `pga-analyze` determinism scope; production callers
/// (e.g. `pga-dataflow`) pass an `Instant`-based closure, tests pass a
/// counter.
pub type Clock = std::sync::Arc<dyn Fn() -> u64 + Send + Sync>;

/// Work-stealing scheduler parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Worker thread count (clamped to at least 1).
    pub workers: usize,
    /// Seed for the per-worker victim-selection RNG streams.
    pub seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 1,
            seed: 0,
        }
    }
}

/// Counters and timings from one executor run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunReport {
    /// Workers that participated (1 for the sequential executor).
    pub workers: usize,
    /// Tasks executed.
    pub tasks_run: u64,
    /// Successful steals (always 0 for the sequential executor).
    pub steals: u64,
    /// Steal probes, successful or not.
    pub steal_attempts: u64,
    /// High-water mark of any single worker's queue depth.
    pub max_queue_depth: u64,
    /// Total nanoseconds spent in task bodies (0 without a clock).
    pub task_ns: u64,
}

/// Run one task body: the nanoseconds it took (0 without a clock), or
/// `None` if it panicked.
fn run_task(body: Task<'_>, clock: Option<&Clock>) -> Option<u64> {
    let start = clock.map(|c| c());
    catch_unwind(AssertUnwindSafe(body)).ok()?;
    Some(match (start, clock) {
        (Some(s), Some(c)) => c().saturating_sub(s),
        _ => 0,
    })
}

/// Execute the set single-threaded, in task index order. This is the
/// deterministic baseline the differential tests compare the
/// work-stealing path against, and the engine `pga-dataflow` uses when
/// configured with one worker.
pub fn run_sequential(tasks: TaskSet<'_>, clock: Option<&Clock>) -> Result<RunReport, SchedError> {
    let mut report = RunReport {
        workers: 1,
        max_queue_depth: tasks.len() as u64,
        ..RunReport::default()
    };
    for (index, body) in tasks.tasks.into_iter().enumerate() {
        report.task_ns += run_task(body, clock).ok_or(SchedError::TaskPanicked { index })?;
        report.tasks_run += 1;
    }
    Ok(report)
}

/// Execute the set on `config.workers` threads. Every task is dealt
/// round-robin into per-worker LIFO deques before the threads start, so
/// from then on the deques only shrink. A worker pops its own deque;
/// when that is empty it probes the others once, in an order shuffled
/// by its seeded RNG stream, and a pass that finds every deque empty
/// ends the worker — no task can appear later.
pub fn run(
    tasks: TaskSet<'_>,
    config: &SchedulerConfig,
    clock: Option<&Clock>,
) -> Result<RunReport, SchedError> {
    let workers = config.workers.max(1);
    let deques: Vec<WorkDeque> = (0..workers).map(|_| WorkDeque::new()).collect();
    let mut max_queue_depth = 0u64;
    for (index, deque) in (0..tasks.len()).zip(deques.iter().cycle()) {
        max_queue_depth = max_queue_depth.max(deque.push(index) as u64);
    }
    let bodies: Vec<Mutex<Option<Task<'_>>>> = tasks
        .tasks
        .into_iter()
        .map(|body| Mutex::new(Some(body)))
        .collect();
    let poisoned = AtomicBool::new(false);
    let panicked: Mutex<Option<usize>> = Mutex::new(None);

    let bodies = &bodies;
    let deques = &deques;
    let poisoned = &poisoned;
    let panicked = &panicked;

    let locals: Vec<RunReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                s.spawn(move || {
                    // Distinct deterministic stream per worker: same seed +
                    // same worker id => same victim sequence on replay.
                    let mut rng = StdRng::seed_from_u64(
                        config
                            .seed
                            .wrapping_add((worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    );
                    let mut victims: Vec<usize> = (0..workers).filter(|&w| w != worker).collect();
                    let mut local = RunReport::default();
                    while !poisoned.load(Ordering::Acquire) {
                        let mut task = deques.get(worker).and_then(WorkDeque::pop);
                        if task.is_none() {
                            victims.shuffle(&mut rng);
                            for &v in &victims {
                                local.steal_attempts += 1;
                                task = deques.get(v).and_then(WorkDeque::steal);
                                if task.is_some() {
                                    local.steals += 1;
                                    break;
                                }
                            }
                        }
                        let Some(index) = task else { break };
                        let Some(body) = bodies.get(index).and_then(|slot| slot.lock().take())
                        else {
                            continue;
                        };
                        match run_task(body, clock) {
                            Some(ns) => {
                                local.tasks_run += 1;
                                local.task_ns += ns;
                            }
                            None => {
                                panicked.lock().get_or_insert(index);
                                poisoned.store(true, Ordering::Release);
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    if let Some(index) = panicked.lock().take() {
        return Err(SchedError::TaskPanicked { index });
    }
    let mut report = RunReport {
        workers,
        max_queue_depth,
        ..RunReport::default()
    };
    for local in locals {
        report.tasks_run += local.tasks_run;
        report.steals += local.steals;
        report.steal_attempts += local.steal_attempts;
        report.task_ns += local.task_ns;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn counter_clock() -> Clock {
        let tick = Arc::new(AtomicU64::new(0));
        Arc::new(move || tick.fetch_add(1, Ordering::Relaxed))
    }

    fn config(workers: usize, seed: u64) -> SchedulerConfig {
        SchedulerConfig { workers, seed }
    }

    #[test]
    fn empty_set_runs() {
        let rep = run(TaskSet::new(), &config(3, 0), None).expect("empty set should run");
        assert_eq!((rep.tasks_run, rep.steals, rep.max_queue_depth), (0, 0, 0));
        let rep = run_sequential(TaskSet::new(), None).expect("empty set should run");
        assert_eq!(rep.tasks_run, 0);
    }

    #[test]
    fn sequential_runs_ready_tasks_in_id_order() {
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let order_ref = &order;
        let mut set = TaskSet::new();
        for i in 0..6 {
            set.add(move || order_ref.lock().push(i));
        }
        let rep = run_sequential(set, None).expect("run");
        assert_eq!(rep.tasks_run, 6);
        assert_eq!(order.into_inner(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn panics_become_typed_errors() {
        for parallel in [false, true] {
            let mut set = TaskSet::new();
            set.add(|| {});
            set.add(|| panic!("boom"));
            let err = if parallel {
                run(set, &config(2, 3), None)
            } else {
                run_sequential(set, None)
            }
            .expect_err("panic must surface");
            assert_eq!(err, SchedError::TaskPanicked { index: 1 });
        }
    }

    #[test]
    fn task_ns_uses_injected_clock() {
        let clock = counter_clock();
        let mut set = TaskSet::new();
        for _ in 0..3 {
            set.add(|| {});
        }
        let rep = run_sequential(set, Some(&clock)).expect("run");
        assert_eq!(rep.tasks_run, 3);
        // The counter clock advances by one between a task's two samples.
        assert_eq!(rep.task_ns, 3);
        let rep = run_sequential(TaskSet::new(), None).expect("run");
        assert_eq!(rep.task_ns, 0);
    }

    #[test]
    fn report_serializes() {
        let mut set = TaskSet::new();
        set.add(|| {});
        let rep = run(set, &config(2, 1), None).expect("run");
        let json = serde_json::to_string(&rep).expect("serialize");
        assert!(json.contains("tasks_run"));
    }
}
