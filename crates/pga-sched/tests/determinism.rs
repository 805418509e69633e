//! Differential and replay-determinism properties over flat task sets:
//! the work-stealing scheduler produces the sequential oracle's outputs,
//! every task runs exactly once, a panicking task surfaces as a typed
//! error from both executors, idle workers stop after one empty probe
//! pass, and a fixed seed is replayable.

use proptest::prelude::*;

use pga_sched::{run, run_sequential, RunReport, SchedError, SchedulerConfig, TaskSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Run `tasks` tasks; task `i` stores a value derived from `i` and
/// `salt` into its own slot and bumps its own run counter, so a lost,
/// misplaced or repeated task changes the returned vectors.
fn run_set(
    tasks: usize,
    salt: u64,
    executor: Option<SchedulerConfig>,
) -> (Vec<u64>, Vec<u64>, RunReport) {
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
    let report = match executor {
        None => run_sequential(set, None),
        Some(config) => run(set, &config, None),
    }
    .expect("no task panics");
    let load = |v: Vec<AtomicU64>| v.into_iter().map(AtomicU64::into_inner).collect();
    (load(outputs), load(counts), report)
}

/// Each worker ends its last probe pass empty-handed, and every other
/// pass ends in a steal, so probes are bounded by passes × victims.
fn assert_probe_bound(report: &RunReport) {
    let workers = report.workers as u64;
    let bound = (report.steals + workers) * (workers - 1);
    assert!(
        report.steal_attempts <= bound,
        "{} probes over the bound {bound} ({} steals, {workers} workers)",
        report.steal_attempts,
        report.steals,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn work_stealing_matches_sequential_oracle(
        tasks in 0usize..=64,
        workers in 1usize..=6,
        salt in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let (seq_out, seq_counts, seq_report) = run_set(tasks, salt, None);
        let (par_out, par_counts, par_report) =
            run_set(tasks, salt, Some(SchedulerConfig { workers, seed }));
        prop_assert_eq!(&par_out, &seq_out, "outputs must match the sequential oracle");
        prop_assert!(seq_counts.iter().all(|&c| c == 1), "oracle runs each task once");
        prop_assert!(par_counts.iter().all(|&c| c == 1), "scheduler runs each task once");
        prop_assert_eq!(seq_report.tasks_run, tasks as u64);
        prop_assert_eq!(par_report.tasks_run, tasks as u64);
        prop_assert_eq!(par_report.max_queue_depth, tasks.div_ceil(workers) as u64);
        assert_probe_bound(&par_report);
    }

    #[test]
    fn seeded_runs_are_replay_deterministic(
        tasks in 0usize..=64,
        workers in 2usize..=6,
        seed in any::<u64>(),
    ) {
        let config = SchedulerConfig { workers, seed };
        let (a, _, _) = run_set(tasks, seed, Some(config));
        let (b, _, _) = run_set(tasks, seed, Some(config));
        prop_assert_eq!(a, b, "same seed, same set => same outputs");
    }

    #[test]
    fn a_panicking_task_is_a_typed_error_from_both_executors(
        tasks in 1usize..=64,
        pick in any::<usize>(),
        workers in 1usize..=6,
        seed in any::<u64>(),
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
        let parallel = run(build(), &SchedulerConfig { workers, seed }, None);
        prop_assert_eq!(parallel.expect_err("scheduler"), expect);
    }
}

#[test]
fn one_slow_task_leaves_idle_workers_one_probe_pass() {
    // Three of four workers start with empty deques; each must probe the
    // others once and stop, not spin until the 50 ms task ends.
    let mut set = TaskSet::new();
    set.add(|| std::thread::sleep(Duration::from_millis(50)));
    let report = run(
        set,
        &SchedulerConfig {
            workers: 4,
            seed: 11,
        },
        None,
    )
    .expect("run");
    assert_eq!(report.tasks_run, 1);
    // At most one steal, so at most (1 + 4) × 3 = 15 probes.
    assert_probe_bound(&report);
}

#[test]
fn victim_rng_streams_are_pure_functions_of_seed_and_worker() {
    // Many more tasks than workers force steals once a deque drains; the
    // outputs are pinned by the proptests, here we pin that replays of
    // one seed complete with consistent counts.
    let config = SchedulerConfig {
        workers: 4,
        seed: 42,
    };
    let (a, counts_a, rep_a) = run_set(64, 7, Some(config));
    let (b, counts_b, rep_b) = run_set(64, 7, Some(config));
    assert_eq!(a, b);
    assert!(counts_a.iter().chain(&counts_b).all(|&c| c == 1));
    assert_eq!((rep_a.tasks_run, rep_b.tasks_run), (64, 64));
    assert_eq!((rep_a.workers, rep_a.max_queue_depth), (4, 16));
}
