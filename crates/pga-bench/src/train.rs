//! E23 — incremental fleet retraining throughput and scheduler
//! scaling.
//!
//! The paper retrains offline in batch: every unit's model (its
//! covariance and SVD, run to obtain each sensor's mean and variance) is
//! recomputed on every pass even when only a handful of units saw new
//! samples (§IV-A). This experiment measures
//! what dirty-unit tracking buys under live ingest, and what the
//! parallel executor buys over the sequential one, with a differential
//! oracle pinning both to the batch answer:
//!
//! * **Retrain rounds** — each round, a rotating subset of units
//!   receives fresh samples. The *full* arm rebuilds the fleet from
//!   scratch: a new [`FleetTrainer`] re-accumulates every unit's entire
//!   history (same rows, same order) and re-finishes every unit. The
//!   *incremental* arm keeps its sufficient statistics resident,
//!   ingests only the new rows, and re-finishes only the dirty units.
//!   Welford accumulation is deterministic in row order, so the two
//!   arms must produce **identical** models — [`model_divergence`]
//!   above `1e-9` on any unit is a mismatch and fails the run.
//! * **Scheduler scaling** — the full-fleet re-finish workload is then
//!   run at 1..=N workers. One worker uses the sequential executor
//!   (`run_sequential`); more workers claim tasks from one shared
//!   queue (`run`), and the run counters are captured per sweep point.
//!
//! Acceptance: zero oracle mismatches, incremental ≥ 5× the full
//! rebuild, and — on machines with ≥ 4 cores — the parallel executor
//! ≥ 3× the sequential one at full worker count. The parallel bar is gated
//! on core count because a single-core host serializes the workers and
//! the wall-clock ratio measures the OS scheduler, not ours;
//! EXPERIMENTS.md records the gate. The two ratios are of wall-clock
//! timings and score full-size runs only ([`TrainBenchReport::passed`]);
//! unit tests and the CI smoke gate on [`TrainBenchReport::exact`].

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

use crate::detection::paper_fleet;
use crate::table::{render_table, row};

use pga_dataflow::Dataflow;
use pga_detect::{model_divergence, FleetTrainer};
use pga_sensorgen::Fleet;

/// Sizing for [`train_retrain_experiment`].
#[derive(Debug, Clone, Serialize)]
pub struct TrainBenchConfig {
    /// Fleet units.
    pub units: u32,
    /// Sensors per unit.
    pub sensors: u32,
    /// Rows of history every unit starts with.
    pub base_rows: usize,
    /// Live-ingest retrain rounds.
    pub rounds: usize,
    /// Units receiving fresh samples each round (rotating subset).
    pub dirty_units: usize,
    /// Fresh rows per dirty unit per round.
    pub delta_rows: usize,
    /// Worker-count ceiling for the scheduler scaling sweep.
    pub workers: usize,
    /// Fleet seed.
    pub seed: u64,
}

impl TrainBenchConfig {
    /// CI-sized configuration (a few seconds end to end).
    pub fn quick() -> Self {
        TrainBenchConfig {
            units: 8,
            sensors: 16,
            base_rows: 480,
            rounds: 3,
            dirty_units: 1,
            delta_rows: 24,
            workers: 4,
            seed: 2026,
        }
    }

    /// Paper-style configuration for the full report.
    pub fn full() -> Self {
        TrainBenchConfig {
            units: 12,
            sensors: 64,
            base_rows: 600,
            rounds: 5,
            dirty_units: 2,
            delta_rows: 60,
            workers: 8,
            seed: 2026,
        }
    }
}

/// One live-ingest retrain round: both arms plus the oracle verdict.
#[derive(Debug, Clone, Serialize)]
pub struct RetrainRound {
    /// Round index.
    pub round: usize,
    /// Units that received fresh samples (and were therefore dirty).
    pub dirty: Vec<u32>,
    /// Units the incremental pass re-finished: the trainer's dirty count
    /// going in (it must be back at zero coming out).
    pub retrained: usize,
    /// Wall-clock of the from-scratch rebuild, milliseconds.
    pub full_ms: f64,
    /// Wall-clock of the dirty-only incremental pass, milliseconds.
    pub incremental_ms: f64,
    /// Worst [`model_divergence`] across every unit's model pair.
    pub max_divergence: f64,
    /// Units whose models diverged beyond `1e-9` (must be 0).
    pub mismatches: u64,
}

/// One point of the scheduler scaling sweep.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerScalingRow {
    /// Worker threads (1 = sequential executor).
    pub workers: usize,
    /// Wall-clock of the full-fleet re-finish, milliseconds.
    pub elapsed_ms: f64,
    /// Speedup over the 1-worker (sequential) point.
    pub speedup: f64,
    /// Scheduler tasks executed at this point.
    pub tasks: u64,
    /// Tasks claimed beyond the workers' round-robin shares (0 for the
    /// sequential executor).
    pub steals: u64,
    /// Most tasks queued at the start of one run.
    pub max_queue_depth: u64,
}

/// E23 artifact: retrain rounds, the scaling sweep, and the verdict
/// inputs.
#[derive(Debug, Clone, Serialize)]
pub struct TrainBenchReport {
    /// Sizing used.
    pub config: TrainBenchConfig,
    /// Per-round arm timings and oracle results.
    pub rounds: Vec<RetrainRound>,
    /// Total wall-clock of every full rebuild, milliseconds.
    pub full_ms_total: f64,
    /// Total wall-clock of every incremental pass, milliseconds.
    pub incremental_ms_total: f64,
    /// `full_ms_total / incremental_ms_total` (the ≥ 5× bar).
    pub incremental_speedup: f64,
    /// Worst divergence across every round (the ≤ 1e-9 bar).
    pub max_divergence: f64,
    /// Oracle mismatches across every round (must be 0).
    pub mismatches: u64,
    /// Scheduler scaling sweep, 1..=`config.workers` workers.
    pub scaling: Vec<WorkerScalingRow>,
    /// Best sweep speedup over the sequential executor (the ≥ 3× bar).
    pub parallel_speedup: f64,
    /// Cores the host exposes; below 4 the parallel bar is not scored.
    pub cores: usize,
}

impl TrainBenchReport {
    /// The part of the verdict that repeats exactly on any host: the
    /// differential oracle held everywhere, every round re-finished its
    /// dirty units and no others, and every point of the scaling sweep
    /// ran one task per partition (`FleetTrainer` cuts two per worker).
    /// Unit tests and the CI smoke gate on this; the timing ratios are
    /// printed beside it.
    pub fn exact(&self) -> bool {
        self.mismatches == 0
            && self.max_divergence <= 1e-9
            && self
                .rounds
                .iter()
                .all(|r| r.retrained == self.config.dirty_units)
            && self.scaling.iter().all(|r| r.tasks == 2 * r.workers as u64)
    }

    /// E23 verdict for a full-size run: [`Self::exact`], dirty-only
    /// retraining beat the full rebuild ≥ 5×, and — when the host has
    /// the cores to show it — the parallel executor beat the sequential
    /// executor ≥ 3×.
    pub fn passed(&self) -> bool {
        self.exact()
            && self.incremental_speedup >= 5.0
            && (self.cores < 4 || self.parallel_speedup >= 3.0)
    }

    /// The two E23 tables and the measured summary (no verdict line).
    pub fn render(&self) -> String {
        let mut rounds = vec![row(
            "round|dirty units|retrained|full ms|incremental ms|divergence",
        )];
        for r in &self.rounds {
            rounds.push(vec![
                r.round.to_string(),
                r.dirty.len().to_string(),
                format!("{} of {}", r.retrained, self.config.units),
                format!("{:.2}", r.full_ms),
                format!("{:.2}", r.incremental_ms),
                format!("{:.2e}", r.max_divergence),
            ]);
        }
        let mut scaling = vec![row("workers|elapsed ms|speedup|tasks|steals|max depth")];
        for r in &self.scaling {
            scaling.push(vec![
                r.workers.to_string(),
                format!("{:.2}", r.elapsed_ms),
                format!("{:.2}x", r.speedup),
                r.tasks.to_string(),
                r.steals.to_string(),
                r.max_queue_depth.to_string(),
            ]);
        }
        format!(
            "{}\n{}\ntrain: incremental {:.1}x faster than full rebuild, parallel {:.1}x over \
             sequential ({} cores), {} mismatches, worst divergence {:.2e}",
            render_table(&rounds),
            render_table(&scaling),
            self.incremental_speedup,
            self.parallel_speedup,
            self.cores,
            self.mismatches,
            self.max_divergence
        )
    }
}

/// Rows `[start, start + len)` of one unit's stream as owned vectors.
fn unit_rows(fleet: &Fleet, unit: u32, start: u64, len: usize) -> Vec<Vec<f64>> {
    let t_end = start + len as u64 - 1;
    let obs = fleet.observation_window(unit, t_end, len);
    (0..obs.rows()).map(|r| obs.row(r).to_vec()).collect()
}

/// Rebuild the whole fleet from scratch: fresh trainer, every unit's
/// full history re-accumulated in its original order, every unit
/// re-finished. This is the paper's batch retrain, and the oracle's
/// reference arm.
fn full_rebuild(
    units: &[u32],
    sensors: usize,
    history: &BTreeMap<u32, Vec<Vec<f64>>>,
    dataflow: &Dataflow,
) -> FleetTrainer {
    let mut fresh = FleetTrainer::new(units, sensors);
    for (&unit, rows) in history {
        fresh.ingest(unit, rows);
    }
    let errors = fresh.retrain_full(dataflow);
    assert!(errors.is_empty(), "full rebuild failed: {errors:?}");
    fresh
}

/// Run E23: live-ingest retrain rounds with the differential oracle,
/// then the worker scaling sweep.
pub fn train_retrain_experiment(cfg: &TrainBenchConfig) -> TrainBenchReport {
    assert!(cfg.units > 0 && cfg.rounds > 0 && cfg.workers > 0);
    assert!(cfg.dirty_units as u32 <= cfg.units);
    let fleet = paper_fleet(cfg.units, cfg.sensors, cfg.seed);
    let units: Vec<u32> = (0..cfg.units).collect();
    let sensors = cfg.sensors as usize;
    let dataflow = Dataflow::new(cfg.workers);

    // Seed every unit with its base history and finish once; rounds
    // then measure steady-state retraining, not the cold start.
    let mut history: BTreeMap<u32, Vec<Vec<f64>>> = BTreeMap::new();
    let mut incremental = FleetTrainer::new(&units, sensors);
    for &u in &units {
        let rows = unit_rows(&fleet, u, 0, cfg.base_rows);
        incremental.ingest(u, &rows);
        history.insert(u, rows);
    }
    let errors = incremental.retrain_dirty(&dataflow);
    assert!(errors.is_empty(), "seed training failed: {errors:?}");

    let mut rounds = Vec::with_capacity(cfg.rounds);
    let (mut full_ms_total, mut incremental_ms_total) = (0.0f64, 0.0f64);
    let (mut max_divergence, mut mismatches) = (0.0f64, 0u64);
    for round in 0..cfg.rounds {
        // Live ingest: a rotating subset of units sees fresh samples.
        let dirty: Vec<u32> = (0..cfg.dirty_units)
            .map(|i| ((round * cfg.dirty_units + i) as u32) % cfg.units)
            .collect();
        for &u in &dirty {
            let have = history.get(&u).map_or(0, Vec::len) as u64;
            let rows = unit_rows(&fleet, u, have, cfg.delta_rows);
            history
                .get_mut(&u)
                .expect("seeded unit")
                .extend(rows.clone());
            incremental.ingest(u, &rows);
        }

        // Incremental arm: dirty-only re-finish on resident statistics.
        let retrained = incremental.dirty_count();
        let started = Instant::now();
        let errors = incremental.retrain_dirty(&dataflow);
        let incremental_ms = started.elapsed().as_secs_f64() * 1e3;
        assert!(errors.is_empty(), "incremental retrain failed: {errors:?}");
        assert_eq!(incremental.dirty_count(), 0, "a finished unit is clean");

        // Full arm: the from-scratch batch rebuild over the same data.
        let started = Instant::now();
        let reference = full_rebuild(&units, sensors, &history, &dataflow);
        let full_ms = started.elapsed().as_secs_f64() * 1e3;

        // Differential oracle: identical statistics must finish into
        // identical models, unit by unit.
        let mut round_worst = 0.0f64;
        let mut round_mismatches = 0u64;
        for &u in &units {
            let d = model_divergence(
                incremental.model(u).expect("incremental model"),
                reference.model(u).expect("reference model"),
            );
            round_worst = round_worst.max(d);
            if d > 1e-9 {
                round_mismatches += 1;
            }
        }
        full_ms_total += full_ms;
        incremental_ms_total += incremental_ms;
        max_divergence = max_divergence.max(round_worst);
        mismatches += round_mismatches;
        rounds.push(RetrainRound {
            round,
            dirty,
            retrained,
            full_ms,
            incremental_ms,
            max_divergence: round_worst,
            mismatches: round_mismatches,
        });
    }

    // Scaling sweep: the same full-fleet re-finish at 1..=N workers.
    // Each point gets its own engine so the counters isolate the point.
    let mut scaling = Vec::with_capacity(cfg.workers);
    let mut sequential_ms = 0.0f64;
    for workers in 1..=cfg.workers {
        let df = Dataflow::new(workers);
        let started = Instant::now();
        let mut arm = incremental.clone();
        let errors = arm.retrain_full(&df);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        assert!(errors.is_empty(), "scaling sweep failed: {errors:?}");
        if workers == 1 {
            sequential_ms = elapsed_ms;
        }
        let stats = df.stats();
        scaling.push(WorkerScalingRow {
            workers,
            elapsed_ms,
            speedup: if elapsed_ms > 0.0 {
                sequential_ms / elapsed_ms
            } else {
                0.0
            },
            tasks: stats.tasks_run,
            steals: stats.steals,
            max_queue_depth: stats.max_queue_depth,
        });
    }
    let parallel_speedup = scaling
        .iter()
        .skip(1)
        .map(|row| row.speedup)
        .fold(0.0f64, f64::max);

    TrainBenchReport {
        config: cfg.clone(),
        rounds,
        full_ms_total,
        incremental_ms_total,
        incremental_speedup: if incremental_ms_total > 0.0 {
            full_ms_total / incremental_ms_total
        } else {
            0.0
        },
        max_divergence,
        mismatches,
        scaling,
        parallel_speedup,
        cores: std::thread::available_parallelism().map_or(1, usize::from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_oracle_holds_and_incremental_wins() {
        let rep = train_retrain_experiment(&TrainBenchConfig::quick());
        assert_eq!(rep.mismatches, 0, "incremental must equal full rebuild");
        assert!(
            rep.max_divergence <= 1e-9,
            "divergence {} above the bar",
            rep.max_divergence
        );
        assert_eq!(rep.rounds.len(), 3);
        assert!(rep.rounds.iter().all(|r| r.retrained == 1), "1 unit of 8");
        assert_eq!(rep.scaling.len(), 4);
        assert!((rep.scaling[0].speedup - 1.0).abs() < 1e-12);
        assert_eq!(rep.scaling[0].steals, 0, "1 worker runs sequentially");
        let tasks: Vec<u64> = rep.scaling.iter().map(|r| r.tasks).collect();
        assert_eq!(tasks, [2, 4, 6, 8]);
        // What a shared host's clock says (`incremental_speedup`,
        // `parallel_speedup`) is scored by `passed()` on full-size runs.
        assert!(rep.exact());
    }

    #[test]
    fn dirty_rotation_covers_the_fleet() {
        let cfg = TrainBenchConfig {
            units: 4,
            rounds: 4,
            dirty_units: 1,
            ..TrainBenchConfig::quick()
        };
        let rep = train_retrain_experiment(&cfg);
        let touched: std::collections::BTreeSet<u32> =
            rep.rounds.iter().flat_map(|r| r.dirty.clone()).collect();
        assert_eq!(touched.len(), 4, "rotation must reach every unit");
    }
}
