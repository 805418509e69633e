//! One detection harness, on the monitor's own detection path.
//!
//! The monitor runs the paper's §IV pipeline as [`train_units`] on the
//! dataflow engine, then [`BatchEvaluator::evaluate_columns`] over
//! per-sensor column slices. [`Detection`] runs the same two calls on a
//! seeded fleet held in memory, with no storage: it generates every unit's
//! columns once, trains every unit once on ticks `[0, TRAIN_TICKS)` and
//! scores windows under Benjamini–Hochberg at q = 0.05. A window's
//! p-values do not depend on the procedure, so an experiment that compares
//! procedures applies each one to the same scored family. E3, E5, E10 and
//! E13–E15 are aggregations over this harness.

use pga_dataflow::Dataflow;
use pga_detect::{train_units, BatchEvaluator, ColumnWindow, EvalOutcome, UnitModel};
use pga_sensorgen::{Fleet, FleetConfig};
use pga_stats::Procedure;

/// Ticks every unit trains on: `[0, TRAIN_TICKS)`, before any fault onset.
pub const TRAIN_TICKS: usize = 150;

/// The paper-scale fleet generator at `units × sensors`.
pub fn paper_fleet(units: u32, sensors: u32, seed: u64) -> Fleet {
    Fleet::new(FleetConfig {
        units,
        sensors_per_unit: sensors,
        ..FleetConfig::paper_scale(seed)
    })
}

/// A fleet's generated columns and its trained batch evaluator.
pub struct Detection {
    fleet: Fleet,
    /// `columns[unit][sensor]` holds ticks `[0, horizon)`.
    columns: Vec<Vec<Vec<f64>>>,
    evaluator: BatchEvaluator,
}

impl Detection {
    /// Generate `fleet` over ticks `[0, horizon)` (at least the training
    /// ticks) and train every unit once.
    ///
    /// # Panics
    /// Panics if a unit fails to train.
    pub fn new(fleet: Fleet, horizon: u64) -> Self {
        let horizon = horizon.max(TRAIN_TICKS as u64);
        let columns: Vec<Vec<Vec<f64>>> = (0..fleet.config().units)
            .map(|u| {
                (0..fleet.config().sensors_per_unit)
                    .map(|s| (0..horizon).map(|t| fleet.sample(u, s, t)).collect())
                    .collect()
            })
            .collect();
        // Untrained until the models are fitted on its own columns, as a
        // new monitor is.
        let mut detection = Detection {
            fleet,
            columns,
            evaluator: BatchEvaluator::new(Vec::new(), Procedure::BenjaminiHochberg, 0.05),
        };
        let models = train_units(detection.training_windows(), &Dataflow::new(2))
            .expect("every unit of a generated fleet trains");
        detection.evaluator = BatchEvaluator::new(models, Procedure::BenjaminiHochberg, 0.05);
        detection
    }

    /// The generator (fault specs and ground truth).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Units in the fleet.
    pub fn units(&self) -> usize {
        self.columns.len()
    }

    /// `unit`'s trained model.
    pub fn model(&self, unit: u32) -> &UnitModel {
        self.evaluator.evaluators()[unit as usize].model()
    }

    /// `unit`'s window of `len` ticks ending at `t_end` inclusive, one
    /// slice per sensor (the rows of `Fleet::observation_window`).
    pub fn window(&self, unit: u32, t_end: u64, len: usize) -> ColumnWindow<'_> {
        let from = t_end as usize + 1 - len;
        self.columns[unit as usize]
            .iter()
            .map(|column| &column[from..=t_end as usize])
            .collect()
    }

    /// Every unit's ticks `[0, TRAIN_TICKS)`, for [`train_units`].
    pub fn training_windows(&self) -> Vec<(u32, ColumnWindow<'_>)> {
        (0..self.units() as u32)
            .map(|u| (u, self.window(u, TRAIN_TICKS as u64 - 1, TRAIN_TICKS)))
            .collect()
    }

    /// Score one `len`-tick window per unit in one batch: `ends[u]` is
    /// unit `u`'s window end, or `None` to skip the unit.
    pub fn score(&self, ends: &[Option<u64>], len: usize) -> Vec<Option<EvalOutcome>> {
        let windows: Vec<Option<ColumnWindow<'_>>> = ends
            .iter()
            .enumerate()
            .map(|(u, end)| end.map(|t| self.window(u as u32, t, len)))
            .collect();
        self.evaluator.evaluate_columns(&windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_detect::{train_unit, OnlineEvaluator};

    /// The harness's p-values and rejection masks equal the row-major
    /// oracle's (`train_unit` + `OnlineEvaluator::evaluate`) bit for bit,
    /// for every unit, at windows before and after the fault onsets.
    #[test]
    fn harness_equals_the_row_major_oracle() {
        let det = Detection::new(paper_fleet(9, 48, 31), 901);
        let fleet = det.fleet();
        for unit in 0..9 {
            let model = train_unit(unit, &fleet.observation_window(unit, 149, 150)).unwrap();
            assert_eq!(*det.model(unit), model, "unit {unit}");
            let oracle = OnlineEvaluator::new(model, Procedure::BenjaminiHochberg, 0.05);
            for (t_end, len) in [(199, 50), (249, 10), (560, 50), (700, 100), (900, 25)] {
                let mut ends = vec![None; det.units()];
                ends[unit as usize] = Some(t_end);
                let scored = det.score(&ends, len);
                let out = scored[unit as usize].as_ref().unwrap();
                let expected = oracle.evaluate(&fleet.observation_window(unit, t_end, len));
                let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out.p_values), bits(&expected.p_values));
                assert_eq!(out.rejected, expected.rejected, "unit {unit} at {t_end}");
                for proc in Procedure::all() {
                    assert_eq!(
                        proc.apply(&out.p_values, 0.05).rejected,
                        proc.apply(&expected.p_values, 0.05).rejected
                    );
                }
            }
        }
    }
}
