//! The four workloads. Each is a closed loop on one driver thread over a
//! host-sized stack, made only of calls to the product's public functions.
//!
//! Ops and set-ups are timed on the process's CPU clock, with a reference
//! slice before each (see `host`); the wall clock rides along for the
//! diagnostics.

use std::sync::OnceLock;
use std::time::Instant;

use pga_platform::{Monitor, PlatformConfig};
use pga_sensorgen::FleetConfig;

use crate::catalog::LayerMetrics;
use crate::host;
use crate::ladder::Shape;
use crate::trace::{Parent, Tracer};

pub mod batch_compute;
pub mod dashboard_read;
pub mod ingest_firehose;
pub mod monitor_cycle;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// What the whole run is to take on the reference host, in seconds,
    /// set-ups and oracles included (see `Budget` and `rounds_for`).
    pub seconds: f64,
    /// Record spans and run the layer ladder instead of reporting the
    /// end-to-end metrics.
    pub trace: bool,
    /// Seconds-sized variant of the workload for `cargo test`.
    pub smoke: bool,
}

/// What one timed stretch took on both clocks, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    /// CPU time of the whole process: what the end-to-end metrics use.
    pub cpu_ms: f64,
    pub wall_ms: f64,
}

/// Time `f` on both clocks, after a reference slice.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Took) {
    host::reference_slice();
    let (cpu, wall) = (host::cpu_now(), Instant::now());
    let out = f();
    let took = Took {
        cpu_ms: (host::cpu_now() - cpu).as_secs_f64() * 1e3,
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
    };
    (out, took)
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub took: Took,
    /// The call returned what it should (a failed op also misses the
    /// latency limit).
    pub ok: bool,
    /// Spans were being recorded while it ran.
    pub traced: bool,
}

/// What a workload hands to the reporter.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each repetition of the set-up.
    pub setups: Vec<Took>,
    /// Every timed op, round after round. Rounds are identical work: op
    /// `i` is position `i % ops_per_round` of round `i / ops_per_round`,
    /// and the same position does the same work in every round.
    pub ops: Vec<Op>,
    pub ops_per_round: usize,
    /// Samples processed over all rounds.
    pub samples: u64,
}

impl Measured {
    pub fn new(ops_per_round: u64) -> Self {
        Measured {
            ops_per_round: ops_per_round as usize,
            ..Measured::default()
        }
    }

    /// Whole rounds measured.
    pub fn rounds(&self) -> usize {
        self.ops.len() / self.ops_per_round
    }
}

/// A workload's answer: measurements, or the oracle's mismatch report.
pub type Outcome = Result<Measured, String>;

/// The host-sized stack every storage workload runs on: two region
/// servers, two TSDs, two dataflow workers, single-copy regions, product
/// defaults otherwise — except the per-shard scan deadline: a cold
/// single-unit page took ~190 ms on an 8 × 32 fleet against the 250 ms
/// default, and a deadline miss would turn host noise into failed ops.
pub fn host_config(units: u32, sensors_per_unit: u32, seed: u64) -> PlatformConfig {
    let mut config = PlatformConfig::demo(seed);
    config.fleet = FleetConfig {
        units,
        sensors_per_unit,
        ..FleetConfig::paper_scale(seed)
    };
    config.storage_nodes = 2;
    config.tsd_count = 2;
    config.workers = 2;
    config.replication.factor = 1;
    config.query.shard_deadline_ms = 2000;
    config
}

/// When the run began; `main` marks it before anything else happens.
static RUN_STARTED: OnceLock<Instant> = OnceLock::new();

pub fn mark_run_start() {
    RUN_STARTED.get_or_init(Instant::now);
}

/// Ops inside what is left of `--seconds`, which cover the whole run from
/// its start: set-ups and oracles as well as measuring. For the workloads
/// whose round is one op, where the number of ops only decides how many
/// values the median is taken over (and, counting rounds instead of ops,
/// for the `OVERRUN` valve of the other two).
pub struct Budget {
    seconds: f64,
    /// When the op under way began; `None` before the first.
    op_start: Option<Instant>,
    longest_op: f64,
}

impl Budget {
    pub fn start(seconds: f64) -> Self {
        Budget {
            seconds,
            op_start: None,
            longest_op: 0.0,
        }
    }

    /// Ask at the top of every op: whether another still ends inside the
    /// budget, judged by the longest so far (everything between two calls
    /// counts, untimed oracles too). The first always runs.
    pub fn fits_another(&mut self) -> bool {
        let now = Instant::now();
        let Some(began) = self.op_start.replace(now) else {
            return true;
        };
        self.longest_op = self.longest_op.max((now - began).as_secs_f64());
        let run_start = *RUN_STARTED.get_or_init(Instant::now);
        (now - run_start).as_secs_f64() + self.longest_op <= self.seconds
    }
}

/// Rounds a run of `seconds` measures where a round is many ops laid over
/// the other rounds position by position: `seconds` ÷ what one round takes
/// on the reference host with its set-up and oracle, to the nearest whole.
/// The count follows from `--seconds` alone. Fitted to the clock instead,
/// it was 2 on a slow minute and 3 on a fast one, and a median of two is
/// another statistic than a median of three.
pub fn rounds_for(seconds: f64, reference_round_s: f64) -> usize {
    ((seconds / reference_round_s).round() as usize).max(1)
}

/// The one way the clock still cuts such a run short: a round that would
/// end later than this many times `--seconds` is not begun (a host half as
/// fast as the reference), so that no run outlasts the driver's patience.
pub const OVERRUN: f64 = 1.6;

/// Time one op. In a traced run ops go traced-untraced-untraced-traced, so
/// both halves see the same mix even where op cost drifts along the run,
/// and their ratio is the tracing overhead; a traced op runs under an `op`
/// span, which `op` is handed as the parent of the spans it records.
/// Returns what `op` returned, what it took, and whether it was traced.
pub fn timed_op<R>(
    tr: &mut Tracer,
    trace: bool,
    op_index: usize,
    op: impl FnOnce(&mut Tracer, Parent) -> R,
) -> (R, Took, bool) {
    let traced = trace && matches!(op_index % 4, 0 | 3);
    tr.set_recording(traced);
    let (out, took) = timed(|| {
        let span = tr.begin("op", op_index as u32, Parent::None);
        let out = op(tr, Tracer::child_of(span));
        tr.end(span);
        out
    });
    tr.set_recording(false);
    (out, took, traced)
}

/// Shut a monitor's stack down and wait until its threads have gone, so
/// that the next store is not timed against this one's teardown.
pub fn retire(m: Monitor, idle_threads: u64) {
    m.shutdown();
    drop(m);
    host::quiesce(idle_threads);
}

/// Set up `reps` times and time each; every state but the last is retired,
/// untimed, before the next is built.
pub fn set_up_repeatedly<T>(
    reps: usize,
    setups: &mut Vec<Took>,
    mut build: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T),
) -> Result<T, String> {
    let mut state = None;
    for _ in 0..reps {
        if let Some(old) = state.take() {
            retire(old);
        }
        let (built, took) = timed(&mut build);
        state = Some(built?);
        setups.push(took);
    }
    state.ok_or_else(|| "no set-up repetition".to_string())
}

/// A workload: its name, its latency limit and its entry points
/// (`BENCHMARK.json` says why each exists).
pub struct Workload {
    pub name: &'static str,
    /// An op that fails or takes longer than this misses the limit:
    /// 4 × the seed's `op_ms_p50` (median of five runs, two significant
    /// figures), frozen here because `BENCHMARK.json` has no key for it.
    pub limit_ms: f64,
    pub run: fn(&Params, &mut Tracer, &mut LayerMetrics) -> Outcome,
    /// The inputs the workload's ladder rungs are fed.
    pub shape: fn(&Params) -> Shape,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_firehose",
        limit_ms: 350.0,
        run: ingest_firehose::run,
        shape: ingest_firehose::shape,
    },
    Workload {
        name: "monitor_cycle",
        limit_ms: 200.0,
        run: monitor_cycle::run,
        shape: monitor_cycle::shape,
    },
    Workload {
        name: "dashboard_read",
        limit_ms: 3000.0,
        run: dashboard_read::run,
        shape: dashboard_read::shape,
    },
    Workload {
        name: "batch_compute",
        limit_ms: 1200.0,
        run: batch_compute::run,
        shape: batch_compute::shape,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_round_count_follows_from_the_seconds_alone() {
        assert_eq!(rounds_for(25.0, 8.7), 3);
        assert_eq!(rounds_for(25.0, 5.5), 5);
        assert_eq!(rounds_for(12.0, 8.7), 1);
        assert_eq!(rounds_for(1.0, 8.7), 1);
    }
}
