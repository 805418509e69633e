//! Incremental fleet retraining on dirty-unit tracking.
//!
//! The paper retrains offline in batch — every unit's covariance/SVD is
//! recomputed even when only one unit saw new samples (§IV-A). Here each
//! unit keeps its Welford/Chan sufficient statistics
//! ([`StreamingTrainer`]) resident; ingesting samples marks the unit
//! *dirty*, and [`FleetTrainer::retrain_dirty`] re-enqueues finish tasks
//! (each sensor's mean and σ) for dirty units only, on the
//! `pga-dataflow` → `pga-sched` task-set substrate. The
//! incrementality invariant (DESIGN.md §13): a unit's model is a pure
//! function of its sufficient statistics, so re-finishing only dirty
//! units yields models identical to a full recompute — which
//! [`model_divergence`] and the E23 differential oracle verify.

use std::collections::{BTreeMap, BTreeSet};

use pga_dataflow::Dataflow;

use crate::model::UnitModel;
use crate::streaming::StreamingTrainer;
use crate::trainer::TrainError;

/// Per-unit Welford sufficient statistics with dirty-set tracking and
/// scheduler-backed selective re-finishing.
#[derive(Debug, Clone)]
pub struct FleetTrainer {
    sensors: usize,
    trainers: BTreeMap<u32, StreamingTrainer>,
    dirty: BTreeSet<u32>,
    models: BTreeMap<u32, UnitModel>,
}

impl FleetTrainer {
    /// A trainer covering `units`, each with `sensors` sensors. All
    /// units start dirty (nothing has a model yet).
    pub fn new(units: &[u32], sensors: usize) -> Self {
        let trainers: BTreeMap<u32, StreamingTrainer> = units
            .iter()
            .map(|&u| (u, StreamingTrainer::new(u, sensors)))
            .collect();
        let dirty = trainers.keys().copied().collect();
        FleetTrainer {
            sensors,
            trainers,
            dirty,
            models: BTreeMap::new(),
        }
    }

    /// Sensors per unit.
    pub fn sensors(&self) -> usize {
        self.sensors
    }

    /// Ingest a batch of rows for `unit`, marking it dirty. Rows for
    /// unknown units are ignored (returns `false`).
    pub fn ingest(&mut self, unit: u32, rows: &[Vec<f64>]) -> bool {
        if rows.is_empty() {
            return self.trainers.contains_key(&unit);
        }
        match self.trainers.get_mut(&unit) {
            Some(t) => {
                for row in rows {
                    t.update(row);
                }
                self.dirty.insert(unit);
                true
            }
            None => false,
        }
    }

    /// Number of units whose statistics changed since their last finish.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// The dirty units, ascending.
    pub fn dirty_units(&self) -> Vec<u32> {
        self.dirty.iter().copied().collect()
    }

    /// Re-finish the models of the dirty units only, as a
    /// `pga-sched` task set (one finish task per dirty unit). Units
    /// whose statistics still hold fewer than 2 rows stay dirty and are
    /// reported as errors; successfully finished units are cleaned.
    pub fn retrain_dirty(&mut self, dataflow: &Dataflow) -> Vec<(u32, TrainError)> {
        let dirty: Vec<u32> = self.dirty.iter().copied().collect();
        self.retrain_units(&dirty, dataflow)
    }

    /// Re-finish every unit regardless of dirtiness — the full-recompute
    /// arm of the differential oracle.
    pub fn retrain_full(&mut self, dataflow: &Dataflow) -> Vec<(u32, TrainError)> {
        let all: Vec<u32> = self.trainers.keys().copied().collect();
        self.retrain_units(&all, dataflow)
    }

    fn retrain_units(&mut self, units: &[u32], dataflow: &Dataflow) -> Vec<(u32, TrainError)> {
        if units.is_empty() {
            return Vec::new();
        }
        // Snapshot the per-unit statistics so the finish tasks can run
        // on worker threads.
        let snapshots: Vec<(u32, StreamingTrainer)> = units
            .iter()
            .filter_map(|u| self.trainers.get(u).map(|t| (*u, t.clone())))
            .collect();
        let partitions = dataflow.workers().max(1) * 2;
        let results = dataflow
            .parallelize(snapshots, partitions)
            .map(|(unit, trainer)| (unit, trainer.finish()))
            .collect();
        let mut errors = Vec::new();
        for (unit, result) in results {
            match result {
                Ok(model) => {
                    self.models.insert(unit, model);
                    self.dirty.remove(&unit);
                }
                Err(e) => errors.push((unit, e)),
            }
        }
        errors
    }

    /// The current models, keyed by unit (only units that finished at
    /// least once).
    pub fn models(&self) -> &BTreeMap<u32, UnitModel> {
        &self.models
    }

    /// Take the model for one unit, if trained.
    pub fn model(&self, unit: u32) -> Option<&UnitModel> {
        self.models.get(&unit)
    }
}

/// Worst-case absolute divergence between two models of the same unit:
/// the max over per-sensor means and per-sensor stds of the elementwise
/// absolute difference. Returns `f64::INFINITY` on shape mismatch.
pub fn model_divergence(a: &UnitModel, b: &UnitModel) -> f64 {
    if a.means.len() != b.means.len() || a.stds.len() != b.stds.len() {
        return f64::INFINITY;
    }
    let means = a.means.iter().zip(&b.means);
    let stds = a.stds.iter().zip(&b.stds);
    means
        .chain(stds)
        .fold(0.0, |worst: f64, (x, y)| worst.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_sensorgen::{Fleet, FleetConfig};

    fn window_rows(fleet: &Fleet, unit: u32, t_end: u64, len: usize) -> Vec<Vec<f64>> {
        let obs = fleet.observation_window(unit, t_end, len);
        (0..obs.rows()).map(|r| obs.row(r).to_vec()).collect()
    }

    #[test]
    fn everything_starts_dirty_and_cleans_after_retrain() {
        let fleet = Fleet::new(FleetConfig::small(5));
        let units: Vec<u32> = (0..4).collect();
        let sensors = fleet.config().sensors_per_unit as usize;
        let mut ft = FleetTrainer::new(&units, sensors);
        assert_eq!(ft.dirty_count(), 4);
        for &u in &units {
            assert!(ft.ingest(u, &window_rows(&fleet, u, 99, 100)));
        }
        let df = Dataflow::new(2);
        let errors = ft.retrain_dirty(&df);
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
        assert_eq!(ft.dirty_count(), 0);
        assert_eq!(ft.models().len(), 4);
    }

    #[test]
    fn only_dirty_units_get_new_models() {
        let fleet = Fleet::new(FleetConfig::small(7));
        let units: Vec<u32> = (0..3).collect();
        let sensors = fleet.config().sensors_per_unit as usize;
        let mut ft = FleetTrainer::new(&units, sensors);
        for &u in &units {
            ft.ingest(u, &window_rows(&fleet, u, 99, 100));
        }
        let df = Dataflow::new(2);
        assert!(ft.retrain_dirty(&df).is_empty());
        let before: Vec<usize> = units
            .iter()
            .map(|u| ft.model(*u).unwrap().trained_rows)
            .collect();
        // New samples for unit 1 only.
        ft.ingest(1, &window_rows(&fleet, 1, 149, 50));
        assert_eq!(ft.dirty_units(), vec![1]);
        assert!(ft.retrain_dirty(&df).is_empty());
        for (&u, &rows_before) in units.iter().zip(&before) {
            let rows_now = ft.model(u).unwrap().trained_rows;
            if u == 1 {
                assert_eq!(rows_now, rows_before + 50);
            } else {
                assert_eq!(rows_now, rows_before);
            }
        }
    }

    #[test]
    fn incremental_matches_full_recompute_exactly() {
        // The incrementality invariant: models are pure functions of the
        // sufficient statistics, so dirty-only re-finishing equals a full
        // recompute bit-for-bit (divergence 0, well under the 1e-9 bar).
        let fleet = Fleet::new(FleetConfig::small(11));
        let units: Vec<u32> = (0..4).collect();
        let sensors = fleet.config().sensors_per_unit as usize;
        let mut incremental = FleetTrainer::new(&units, sensors);
        for &u in &units {
            incremental.ingest(u, &window_rows(&fleet, u, 99, 100));
        }
        let df = Dataflow::new(3);
        assert!(incremental.retrain_dirty(&df).is_empty());
        incremental.ingest(1, &window_rows(&fleet, 1, 129, 30));
        incremental.ingest(3, &window_rows(&fleet, 3, 129, 30));
        assert!(incremental.retrain_dirty(&df).is_empty());

        let mut full = incremental.clone();
        assert!(full.retrain_full(&df).is_empty());

        for &u in &units {
            let d = model_divergence(incremental.model(u).unwrap(), full.model(u).unwrap());
            assert!(d <= 1e-9, "unit {u} diverged by {d}");
            assert_eq!(d, 0.0, "same statistics must finish identically");
        }
    }

    #[test]
    fn insufficient_data_stays_dirty() {
        let mut ft = FleetTrainer::new(&[0, 1], 4);
        ft.ingest(0, &[vec![1.0, 2.0, 3.0, 4.0]]);
        let df = Dataflow::new(1);
        let errors = ft.retrain_dirty(&df);
        assert_eq!(errors.len(), 2);
        assert!(errors
            .iter()
            .all(|(_, e)| matches!(e, TrainError::InsufficientData { .. })));
        assert_eq!(ft.dirty_count(), 2);
        assert!(ft.models().is_empty());
    }

    #[test]
    fn unknown_units_are_ignored() {
        let mut ft = FleetTrainer::new(&[0], 4);
        assert!(!ft.ingest(9, &[vec![1.0, 2.0, 3.0, 4.0]]));
        assert!(!ft.ingest(9, &[]));
        assert!(ft.ingest(0, &[]));
        assert_eq!(ft.dirty_units(), vec![0], "nothing ingested for unit 9");
    }

    #[test]
    fn divergence_detects_differences() {
        let fleet = Fleet::new(FleetConfig::small(13));
        let sensors = fleet.config().sensors_per_unit as usize;
        let mut ft = FleetTrainer::new(&[0], sensors);
        ft.ingest(0, &window_rows(&fleet, 0, 99, 100));
        let df = Dataflow::new(1);
        assert!(ft.retrain_dirty(&df).is_empty());
        let a = ft.model(0).unwrap().clone();
        ft.ingest(0, &window_rows(&fleet, 0, 199, 100));
        assert!(ft.retrain_dirty(&df).is_empty());
        let b = ft.model(0).unwrap().clone();
        assert!(
            model_divergence(&a, &b) > 0.0,
            "different data, different model"
        );
        assert_eq!(model_divergence(&a, &a), 0.0);
        // σ is half the model: a tamper of one σ alone shows, by its size.
        let mut tampered = a.clone();
        tampered.stds[3] *= 2.0;
        assert!(a.stds[3] > 0.0);
        assert_eq!(model_divergence(&a, &tampered), a.stds[3]);
        tampered.stds.pop();
        assert_eq!(model_divergence(&a, &tampered), f64::INFINITY);
    }
}
