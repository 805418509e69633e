//! Partitioned datasets whose `map` runs as a `pga-sched` task set.
//!
//! Each [`Dataset::map`] builds a [`pga_sched::TaskSet`] — one task per
//! partition — and hands it to the shared-queue executor
//! ([`pga_sched::run`]) or, with a single worker, the deterministic
//! sequential executor ([`pga_sched::run_sequential`]). Run counters
//! accumulate on the [`Dataflow`] context and are exposed as
//! [`DataflowStats`] for the platform's scheduler-observability panel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pga_sched::TaskSet;
use serde::Serialize;

/// Cumulative scheduler counters (atomics; shared by `Dataflow` clones).
#[derive(Debug, Default)]
struct EngineStats {
    tasks: AtomicU64,
    steals: AtomicU64,
    max_queue_depth: AtomicU64,
    task_ns: AtomicU64,
}

/// Snapshot of a context's cumulative scheduler counters.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DataflowStats {
    /// Tasks executed across all runs.
    pub tasks_run: u64,
    /// Tasks workers claimed beyond their round-robin share of a run,
    /// summed over runs ([`pga_sched::RunReport::steals`]); 0 with one
    /// worker.
    pub steals: u64,
    /// Most tasks queued at the start of any one run.
    pub max_queue_depth: u64,
    /// Total nanoseconds spent inside task bodies.
    pub task_ns_total: u64,
}

/// The execution context: worker count and cumulative run counters.
/// Cloning shares the counters (clones observe each other's runs through
/// [`Dataflow::stats`]).
#[derive(Debug, Clone)]
pub struct Dataflow {
    workers: usize,
    stats: Arc<EngineStats>,
}

impl Dataflow {
    /// A context with `workers` threads (≥ 1).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        Dataflow {
            workers,
            stats: Arc::new(EngineStats::default()),
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot the cumulative scheduler counters.
    pub fn stats(&self) -> DataflowStats {
        DataflowStats {
            // pga-allow(relaxed-atomics): independent monotonic counters; snapshot tolerates inter-field skew
            tasks_run: self.stats.tasks.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
            max_queue_depth: self.stats.max_queue_depth.load(Ordering::Relaxed),
            task_ns_total: self.stats.task_ns.load(Ordering::Relaxed),
        }
    }

    /// Execute a task set on the appropriate executor and fold its
    /// report into the cumulative counters. A panic inside a task body
    /// resurfaces as a panic here, the way a scoped-thread panic would.
    fn execute(&self, tasks: TaskSet<'_>) {
        let t0 = std::time::Instant::now();
        let clock: pga_sched::Clock = Arc::new(move || t0.elapsed().as_nanos() as u64);
        let workers = self.workers.min(tasks.len()).max(1);
        let result = if workers == 1 {
            pga_sched::run_sequential(tasks, Some(&clock))
        } else {
            pga_sched::run(tasks, workers, Some(&clock))
        };
        let report = match result {
            Ok(report) => report,
            Err(e) => panic!("dataflow task set failed: {e}"),
        };
        let stats = &self.stats;
        stats.tasks.fetch_add(report.tasks_run, Ordering::Relaxed);
        stats.steals.fetch_add(report.steals, Ordering::Relaxed);
        stats
            .max_queue_depth
            .fetch_max(report.max_queue_depth, Ordering::Relaxed);
        stats.task_ns.fetch_add(report.task_ns, Ordering::Relaxed);
    }

    /// Distribute a vector into `partitions` roughly equal chunks.
    pub fn parallelize<T: Send>(&self, data: Vec<T>, partitions: usize) -> Dataset<T> {
        assert!(partitions >= 1, "need at least one partition");
        let per = data.len().div_ceil(partitions).max(1);
        let mut it = data.into_iter();
        Dataset {
            ctx: self.clone(),
            partitions: (0..partitions)
                .map(|_| it.by_ref().take(per).collect())
                .collect(),
        }
    }
}

/// A partitioned, in-memory dataset.
///
/// ```
/// use pga_dataflow::Dataflow;
///
/// let df = Dataflow::new(4);
/// let squares = df
///     .parallelize((1..=100).collect(), 8)
///     .map(|x: i64| x * x)
///     .collect();
/// assert_eq!(squares, (1..=100i64).map(|x| x * x).collect::<Vec<_>>());
/// assert_eq!(df.stats().tasks_run, 8, "one task per partition");
/// ```
#[derive(Debug)]
pub struct Dataset<T> {
    ctx: Dataflow,
    partitions: Vec<Vec<T>>,
}

impl<T: Send> Dataset<T> {
    /// Parallel element-wise map: one independent task per partition,
    /// each producing the matching output partition.
    pub fn map<U, F>(self, f: F) -> Dataset<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let mut outputs: Vec<Vec<U>> = Vec::new();
        outputs.resize_with(self.partitions.len(), Vec::new);
        let f = &f;
        let mut tasks = TaskSet::new();
        for (part, out) in self.partitions.into_iter().zip(outputs.iter_mut()) {
            tasks.add(move || *out = part.into_iter().map(f).collect());
        }
        self.ctx.execute(tasks);
        Dataset {
            ctx: self.ctx,
            partitions: outputs,
        }
    }

    /// Gather all elements (partition order preserved).
    pub fn collect(self) -> Vec<T> {
        self.partitions.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Dataflow {
        Dataflow::new(4)
    }

    fn sizes<T>(d: &Dataset<T>) -> Vec<usize> {
        d.partitions.iter().map(Vec::len).collect()
    }

    #[test]
    fn parallelize_partitions_evenly() {
        let d = ctx().parallelize((0..10).collect(), 3);
        assert_eq!(sizes(&d), vec![4, 4, 2]);
    }

    #[test]
    fn map_preserves_order() {
        let d = ctx().parallelize((0..100).collect(), 7);
        let out = d.map(|x: i32| x * 2).collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let serial = Dataflow::new(1)
            .parallelize((0..1000).collect(), 8)
            .map(|x: i64| x * x)
            .collect();
        let parallel = Dataflow::new(8)
            .parallelize((0..1000).collect(), 8)
            .map(|x: i64| x * x)
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_partitions_than_elements() {
        let d = ctx().parallelize(vec![1, 2], 10);
        assert_eq!(sizes(&d).len(), 10);
        assert_eq!(d.map(|x: i32| x + 1).collect(), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let _ = Dataflow::new(0);
    }

    #[test]
    #[should_panic(expected = "need at least one partition")]
    fn zero_partitions_rejected() {
        let _ = ctx().parallelize(vec![1, 2, 3], 0);
    }

    /// The pre-`pga-sched` engine's `parallelize` chunking, reproduced
    /// serially.
    fn reference_partitions<T>(data: Vec<T>, partitions: usize) -> Vec<Vec<T>> {
        let per = data.len().div_ceil(partitions).max(1);
        let mut parts = Vec::with_capacity(partitions);
        let mut it = data.into_iter();
        for _ in 0..partitions {
            parts.push(it.by_ref().take(per).collect());
        }
        parts
    }

    #[test]
    fn map_keeps_partition_boundaries() {
        for parts in [1, 3, 7, 16] {
            for workers in [1, 2, 5] {
                let data: Vec<i64> = (0..37).collect();
                let got = Dataflow::new(workers)
                    .parallelize(data.clone(), parts)
                    .map(|x| x * 3);
                let expect: Vec<Vec<i64>> = reference_partitions(data, parts)
                    .into_iter()
                    .map(|p| p.into_iter().map(|x| x * 3).collect())
                    .collect();
                assert_eq!(got.partitions, expect, "parts={parts} workers={workers}");
            }
        }
    }

    #[test]
    fn empty_dataset_flows_through_every_operation() {
        let df = ctx();
        let d = df.parallelize(Vec::<i64>::new(), 4);
        assert_eq!(sizes(&d), vec![0; 4]);
        assert_eq!(d.map(|x| x + 1).collect(), Vec::<i64>::new());
        assert_eq!(df.stats().tasks_run, 4, "empty partitions still run");
    }

    #[test]
    fn stats_accumulate_across_operations() {
        let df = Dataflow::new(3);
        assert_eq!(df.stats().tasks_run, 0);
        let out = df
            .parallelize((0..100i64).collect(), 8)
            .map(|x| x + 1)
            .map(|x| x * 2)
            .collect();
        assert_eq!(out.iter().sum::<i64>(), 10_100);
        let after = df.stats();
        assert_eq!(after.tasks_run, 16, "two maps of 8 partitions");
        assert_eq!(after.max_queue_depth, 8, "8 tasks queued per map");
        assert!(after.task_ns_total > 0);
    }

    #[test]
    fn clones_share_stats() {
        let df = Dataflow::new(2);
        let _ = df
            .clone()
            .parallelize((0..10i32).collect(), 2)
            .map(|x| x)
            .collect();
        assert_eq!(df.stats().tasks_run, 2);
    }
}
