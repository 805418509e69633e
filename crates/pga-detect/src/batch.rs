//! Fleet-wide batch evaluation over columnar windows.
//!
//! The columnar block store hands back per-sensor column slices
//! (`ColumnSeries::values`), so the natural high-throughput shape is:
//! score **many units in one pass**, each unit straight from its column
//! slices, with no row-major window materialisation in between. Results
//! are bit-identical to looping [`OnlineEvaluator::evaluate`] over
//! row-major windows (the columnar mean sums in the same sample order) —
//! the differential suite pins this.

use pga_stats::Procedure;

use crate::model::UnitModel;
use crate::online::{EvalOutcome, OnlineEvaluator};

/// One unit's evaluation input: per-sensor column slices, all the same
/// length (samples of the window, oldest first).
pub type ColumnWindow<'a> = Vec<&'a [f64]>;

/// Scores a whole fleet of unit models in one pass per batch.
#[derive(Debug, Clone)]
pub struct BatchEvaluator {
    evaluators: Vec<OnlineEvaluator>,
}

impl BatchEvaluator {
    /// Build one evaluator per model, all using `procedure` at level
    /// `alpha`. Models keep their order; `windows` passed to
    /// [`BatchEvaluator::evaluate_columns`] align by index.
    pub fn new(models: Vec<UnitModel>, procedure: Procedure, alpha: f64) -> Self {
        BatchEvaluator {
            evaluators: models
                .into_iter()
                .map(|m| OnlineEvaluator::new(m, procedure, alpha))
                .collect(),
        }
    }

    /// Number of unit evaluators.
    pub fn units(&self) -> usize {
        self.evaluators.len()
    }

    /// Borrow the per-unit evaluators (index-aligned with the models
    /// passed to [`BatchEvaluator::new`]).
    pub fn evaluators(&self) -> &[OnlineEvaluator] {
        &self.evaluators
    }

    /// Evaluate one columnar window per unit, in unit order. `windows[i]`
    /// feeds evaluator `i`; a unit with no fresh window passes `None` and
    /// yields `None`.
    pub fn evaluate_columns(
        &self,
        windows: &[Option<ColumnWindow<'_>>],
    ) -> Vec<Option<EvalOutcome>> {
        assert_eq!(
            windows.len(),
            self.evaluators.len(),
            "one window slot per unit"
        );
        self.evaluators
            .iter()
            .zip(windows)
            .map(|(ev, w)| w.as_ref().map(|cols| ev.evaluate_columns(cols)))
            .collect()
    }

    /// Total samples scored across a batch result (the E21 throughput
    /// numerator).
    pub fn samples_scored(outcomes: &[Option<EvalOutcome>]) -> u64 {
        outcomes.iter().flatten().map(|o| o.samples_scored).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_unit;
    use pga_linalg::Matrix;
    use pga_sensorgen::{Fleet, FleetConfig};

    fn columns_of(window: &Matrix) -> Vec<Vec<f64>> {
        (0..window.cols()).map(|c| window.col(c)).collect()
    }

    #[test]
    fn batch_columnar_is_bit_identical_to_row_major_loop() {
        let fleet = Fleet::new(FleetConfig::small(73));
        let units = fleet.config().units;
        let models: Vec<UnitModel> = (0..units)
            .map(|u| train_unit(u, &fleet.observation_window(u, 149, 150)).unwrap())
            .collect();
        let batch = BatchEvaluator::new(models.clone(), Procedure::BenjaminiHochberg, 0.05);
        let windows: Vec<Matrix> = (0..units)
            .map(|u| fleet.observation_window(u, 249, 50))
            .collect();
        let col_windows: Vec<Vec<Vec<f64>>> = windows.iter().map(columns_of).collect();
        let slots: Vec<Option<ColumnWindow<'_>>> = col_windows
            .iter()
            .map(|cols| Some(cols.iter().map(|c| c.as_slice()).collect()))
            .collect();
        let batched = batch.evaluate_columns(&slots);
        for (u, out) in batched.iter().enumerate() {
            let out = out.as_ref().unwrap();
            let single = batch.evaluators()[u].evaluate(&windows[u]);
            assert_eq!(out.unit, single.unit);
            // Bit-for-bit: the columnar mean sums in row order.
            for (a, b) in out.p_values.iter().zip(&single.p_values) {
                assert_eq!(a.to_be_bytes(), b.to_be_bytes(), "unit {u}");
            }
            assert_eq!(out.rejected, single.rejected);
            assert_eq!(out.samples_scored, single.samples_scored);
        }
        assert_eq!(
            BatchEvaluator::samples_scored(&batched),
            units as u64 * 50 * fleet.config().sensors_per_unit as u64
        );
    }

    #[test]
    fn missing_windows_yield_none() {
        let fleet = Fleet::new(FleetConfig::small(79));
        let model = train_unit(0, &fleet.observation_window(0, 99, 100)).unwrap();
        let batch = BatchEvaluator::new(vec![model], Procedure::Bonferroni, 0.05);
        let out = batch.evaluate_columns(&[None]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_none());
        assert_eq!(BatchEvaluator::samples_scored(&out), 0);
    }

    #[test]
    #[should_panic(expected = "one window slot per unit")]
    fn misaligned_batch_panics() {
        let fleet = Fleet::new(FleetConfig::small(83));
        let model = train_unit(0, &fleet.observation_window(0, 99, 100)).unwrap();
        let batch = BatchEvaluator::new(vec![model], Procedure::Bonferroni, 0.05);
        batch.evaluate_columns(&[]);
    }
}
