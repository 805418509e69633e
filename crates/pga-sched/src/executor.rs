//! The two executors: a parallel executor whose workers claim tasks from
//! one shared queue, and a deterministic sequential executor used as its
//! differential oracle.
//!
//! Determinism contract: task *outputs* are deterministic under both
//! executors (every task runs exactly once), while which worker claims
//! which task varies run to run. Time never comes from `Instant::now`
//! here — callers inject a [`Clock`].

use crate::tasks::{SchedError, Task, TaskSet};
use parking_lot::Mutex;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Monotonic nanosecond source injected by the caller. `pga-sched`
/// itself never reads wall or monotonic clocks, which keeps the whole
/// crate inside the `pga-analyze` determinism scope; production callers
/// (e.g. `pga-dataflow`) pass an `Instant`-based closure, tests pass a
/// counter.
pub type Clock = std::sync::Arc<dyn Fn() -> u64 + Send + Sync>;

/// Counters and timings from one executor run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunReport {
    /// Workers that participated (1 for the sequential executor).
    pub workers: usize,
    /// Tasks executed.
    pub tasks_run: u64,
    /// Tasks workers claimed beyond their round-robin share (⌈n/W⌉ or
    /// ⌊n/W⌋ of n tasks on W workers): the work a scheduler that dealt
    /// the set out up front would have had to move. Always 0 with one
    /// worker.
    pub steals: u64,
    /// Tasks queued at the start of the run.
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
/// deterministic baseline the differential tests compare the parallel
/// path against, and the engine `pga-dataflow` uses when configured
/// with one worker.
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

/// Execute the set on `workers` threads (at least 1). Each worker claims
/// the next task from one shared queue, runs it outside the lock, and
/// stops when the queue is empty or a task has panicked.
pub fn run(
    tasks: TaskSet<'_>,
    workers: usize,
    clock: Option<&Clock>,
) -> Result<RunReport, SchedError> {
    let workers = workers.max(1);
    let n = tasks.len();
    let queue = Mutex::new(tasks.tasks.into_iter().enumerate());
    let poisoned = AtomicBool::new(false);
    let panicked: Mutex<Option<usize>> = Mutex::new(None);

    let queue = &queue;
    let poisoned = &poisoned;
    let panicked = &panicked;

    let locals: Vec<RunReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut local = RunReport::default();
                    while !poisoned.load(Ordering::Acquire) {
                        let next = queue.lock().next();
                        let Some((index, body)) = next else { break };
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
        max_queue_depth: n as u64,
        ..RunReport::default()
    };
    for (worker, local) in locals.into_iter().enumerate() {
        // Dealt round-robin, worker w would get ⌈n/W⌉ tasks when
        // w < n mod W and ⌊n/W⌋ otherwise.
        let share = (n / workers + usize::from(worker < n % workers)) as u64;
        report.steals += local.tasks_run.saturating_sub(share);
        report.tasks_run += local.tasks_run;
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

    #[test]
    fn empty_set_runs() {
        let rep = run(TaskSet::new(), 3, None).expect("empty set should run");
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
                run(set, 2, None)
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
        let rep = run(set, 2, None).expect("run");
        let json = serde_json::to_string(&rep).expect("serialize");
        assert!(json.contains("tasks_run"));
    }
}
