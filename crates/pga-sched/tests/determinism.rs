//! Differential properties over flat task sets: the shared-queue
//! executor produces the sequential oracle's outputs, every task runs
//! exactly once, a panicking task surfaces as a typed error from both
//! executors, and idle workers stop as soon as the queue is empty.

use proptest::prelude::*;

use pga_sched::{run, run_sequential, RunReport, SchedError, TaskSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Run `tasks` tasks; task `i` stores a value derived from `i` and
/// `salt` into its own slot and bumps its own run counter, so a lost,
/// misplaced or repeated task changes the returned vectors. `workers`
/// picks the parallel executor, `None` the sequential oracle.
fn run_set(tasks: usize, salt: u64, workers: Option<usize>) -> (Vec<u64>, Vec<u64>, RunReport) {
    let outputs: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
    let counts: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
    let mut set = TaskSet::new();
    for (i, (out, count)) in outputs.iter().zip(&counts).enumerate() {
        set.add(move || {
            let v = (i as u64 + 1).wrapping_mul(0x9E37_79B9).wrapping_add(salt);
            out.store(v.rotate_left(i as u32 % 64), Ordering::SeqCst);
            count.fetch_add(1, Ordering::SeqCst);
        });
    }
    let report = match workers {
        None => run_sequential(set, None),
        Some(workers) => run(set, workers, None),
    }
    .expect("no task panics");
    let load = |v: Vec<AtomicU64>| v.into_iter().map(AtomicU64::into_inner).collect();
    (load(outputs), load(counts), report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_queue_matches_sequential_oracle(
        tasks in 0usize..=64,
        workers in 1usize..=6,
        salt in any::<u64>(),
    ) {
        let (seq_out, seq_counts, seq_report) = run_set(tasks, salt, None);
        let (par_out, par_counts, par_report) = run_set(tasks, salt, Some(workers));
        prop_assert_eq!(&par_out, &seq_out, "outputs must match the sequential oracle");
        prop_assert_eq!(&par_counts, &seq_counts, "per-task run counts must match the oracle's");
        prop_assert!(seq_counts.iter().all(|&c| c == 1), "oracle runs each task once");
        prop_assert_eq!(seq_report.tasks_run, tasks as u64);
        prop_assert_eq!(par_report.tasks_run, tasks as u64);
        prop_assert_eq!(seq_report.max_queue_depth, tasks as u64);
        prop_assert_eq!(par_report.max_queue_depth, tasks as u64);
        prop_assert_eq!(seq_report.steals, 0);
        // Worst case, one worker claims everything, beyond a ⌊n/W⌋ share.
        prop_assert!(par_report.steals <= (tasks - tasks / workers) as u64);
        if workers == 1 {
            prop_assert_eq!(par_report.steals, 0, "one worker's share is the whole set");
        }
    }

    #[test]
    fn a_panicking_task_is_a_typed_error_from_both_executors(
        tasks in 1usize..=64,
        pick in any::<usize>(),
        workers in 1usize..=6,
    ) {
        let bad = pick % tasks;
        let build = || {
            let mut set = TaskSet::new();
            for i in 0..tasks {
                set.add(move || assert_ne!(i, bad, "task {i} fails on purpose"));
            }
            set
        };
        let expect = SchedError::TaskPanicked { index: bad };
        prop_assert_eq!(run_sequential(build(), None).expect_err("oracle"), expect.clone());
        prop_assert_eq!(run(build(), workers, None).expect_err("executor"), expect);
    }
}

#[test]
fn one_slow_task_ends_the_run_when_it_ends() {
    // Three of four workers find the queue empty and stop at once; the
    // run waits for the one 50 ms task and no longer.
    let finished: Mutex<Option<Instant>> = Mutex::new(None);
    let mut set = TaskSet::new();
    set.add(|| {
        std::thread::sleep(Duration::from_millis(50));
        *finished.lock().unwrap() = Some(Instant::now());
    });
    let report = run(set, 4, None).expect("run");
    let returned = Instant::now();
    assert_eq!(report.tasks_run, 1);
    assert_eq!((report.workers, report.max_queue_depth), (4, 1));
    assert!(report.steals <= 1);
    let finished = finished.into_inner().unwrap().expect("the task ran");
    let lag = returned.duration_since(finished);
    assert!(
        lag < Duration::from_millis(100),
        "run ended {lag:?} after its task"
    );
}
