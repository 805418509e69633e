//! Online evaluation: score new windows against a trained model and flag
//! anomalies under FDR control.

use serde::{Deserialize, Serialize};

use pga_linalg::Matrix;
use pga_stats::{t_square_p_value, t_square_statistic, Procedure};

use crate::model::UnitModel;

/// One flagged sensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorFlag {
    /// Sensor index within the unit.
    pub sensor: u32,
    /// Raw p-value of the sensor's mean-shift test.
    pub p_value: f64,
    /// Window mean that triggered the flag.
    pub window_mean: f64,
    /// Baseline mean.
    pub baseline_mean: f64,
}

/// Result of evaluating one window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Unit evaluated.
    pub unit: u32,
    /// Per-sensor p-values (index = sensor).
    pub p_values: Vec<f64>,
    /// Sensors flagged by the configured procedure.
    pub flags: Vec<SensorFlag>,
    /// Rejection mask aligned with `p_values`.
    pub rejected: Vec<bool>,
    /// Per-block Hotelling T² p-values `(block start, p)` — the grouped,
    /// correlation-aware view.
    pub block_p_values: Vec<(usize, f64)>,
    /// Samples scored (rows × sensors).
    pub samples_scored: u64,
}

/// Evaluator bound to one trained unit model.
///
/// ```
/// use pga_detect::{train_unit, OnlineEvaluator};
/// use pga_sensorgen::{Fleet, FleetConfig};
/// use pga_stats::Procedure;
///
/// let fleet = Fleet::new(FleetConfig::small(7));
/// let training = fleet.observation_window(0, 149, 150);
/// let model = train_unit(0, &training).unwrap();
/// let ev = OnlineEvaluator::new(model, Procedure::BenjaminiHochberg, 0.05);
/// let outcome = ev.evaluate(&fleet.observation_window(0, 249, 50));
/// assert_eq!(outcome.p_values.len(), fleet.config().sensors_per_unit as usize);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineEvaluator {
    model: UnitModel,
    procedure: Procedure,
    alpha: f64,
}

impl OnlineEvaluator {
    /// Create an evaluator using `procedure` at level `alpha` (the paper
    /// uses Benjamini–Hochberg).
    pub fn new(model: UnitModel, procedure: Procedure, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha in [0,1]");
        model.validate().expect("valid model");
        OnlineEvaluator {
            model,
            procedure,
            alpha,
        }
    }

    /// Borrow the model.
    pub fn model(&self) -> &UnitModel {
        &self.model
    }

    /// Evaluate a window (rows = time, columns = sensors; must match the
    /// model's sensor count).
    pub fn evaluate(&self, window: &Matrix) -> EvalOutcome {
        let (n, p) = window.shape();
        assert_eq!(p, self.model.sensors(), "sensor count mismatch");
        assert!(n > 0, "window must be non-empty");
        // Per-sensor window means.
        let mut means = vec![0.0; p];
        for r in 0..n {
            pga_linalg::axpy(1.0, window.row(r), &mut means);
        }
        let inv = 1.0 / n as f64;
        pga_linalg::scale(&mut means, inv);
        self.score_means(n, means)
    }

    /// Evaluate a window presented as **per-sensor column slices** — the
    /// shape the columnar block store hands back ([`pga_tsdb`]'s
    /// `ColumnSeries::values`) — without materialising a row-major window.
    ///
    /// Each column sums in sample order, the exact addition sequence the
    /// row-major `axpy` loop of [`OnlineEvaluator::evaluate`] performs, so
    /// the two paths agree **bit-for-bit** (the differential suite pins
    /// this).
    pub fn evaluate_columns(&self, columns: &[&[f64]]) -> EvalOutcome {
        let p = columns.len();
        assert_eq!(p, self.model.sensors(), "sensor count mismatch");
        let n = columns.first().map_or(0, |c| c.len());
        assert!(n > 0, "window must be non-empty");
        assert!(
            columns.iter().all(|c| c.len() == n),
            "ragged columns: every sensor needs {n} samples"
        );
        let inv = 1.0 / n as f64;
        let means: Vec<f64> = columns
            .iter()
            .map(|col| {
                let mut acc = 0.0;
                for &x in *col {
                    acc += x;
                }
                acc * inv
            })
            .collect();
        self.score_means(n, means)
    }

    /// Standard-error factor of (window mean − trained mean) over an
    /// `n`-sample window. The baseline mean is itself an estimate from
    /// `trained_rows` observations, so the standard error is
    /// σ·√(1/n + 1/n_train); ignoring the training term miscalibrates the
    /// nulls and lets borderline sensors free-ride on the BH threshold.
    fn var_factor(&self, n: usize) -> f64 {
        (1.0 / n as f64 + 1.0 / self.model.trained_rows.max(1) as f64).sqrt()
    }

    /// Two-sided z-test p-value of sensor `j`'s window mean. A sensor that
    /// never moved in training (σ = 0) is certain: 1 on its baseline, 0
    /// off it.
    fn sensor_p_value(&self, j: usize, window_mean: f64, var_factor: f64) -> f64 {
        let std = self.model.stds[j];
        if std == 0.0 {
            return if window_mean == self.model.means[j] {
                1.0
            } else {
                0.0
            };
        }
        let z = (window_mean - self.model.means[j]) / (std * var_factor);
        pga_stats::two_sided_p_from_z(z)
    }

    /// Shared scoring core: per-sensor z-tests, FDR control, and block T²
    /// from a window-mean vector computed over `n` samples.
    fn score_means(&self, n: usize, means: Vec<f64>) -> EvalOutcome {
        let p = means.len();
        let var_factor = self.var_factor(n);
        let p_values: Vec<f64> = (0..p)
            .map(|j| self.sensor_p_value(j, means[j], var_factor))
            .collect();
        let rej = self.procedure.apply(&p_values, self.alpha);
        let flags: Vec<SensorFlag> = rej
            .rejected
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .map(|(j, _)| SensorFlag {
                sensor: j as u32,
                p_value: p_values[j],
                window_mean: means[j],
                baseline_mean: self.model.means[j],
            })
            .collect();
        // Per-block T² on the mean vector (centred, projected, whitened).
        // Var(mean difference) = Σ(1/n + 1/n_train), so scores scale by
        // 1/var_factor before the χ² comparison.
        let inv_vf = 1.0 / var_factor;
        let block_p_values: Vec<(usize, f64)> = self
            .model
            .blocks
            .iter()
            .map(|b| {
                let centered: Vec<f64> = (0..b.len)
                    .map(|k| (means[b.start + k] - self.model.means[b.start + k]) * inv_vf)
                    .collect();
                let scores = b.project(&centered);
                let (t2, dof) = t_square_statistic(&scores, &b.eigenvalues, 1e-9);
                (b.start, t_square_p_value(t2, dof))
            })
            .collect();
        EvalOutcome {
            unit: self.model.unit,
            p_values,
            flags,
            rejected: rej.rejected,
            block_p_values,
            samples_scored: (n * p) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_unit;
    use pga_sensorgen::{FaultClass, Fleet, FleetConfig};
    use pga_stats::Procedure;

    fn trained_evaluator(fleet: &Fleet, unit: u32) -> OnlineEvaluator {
        let obs = fleet.observation_window(unit, 149, 150);
        let model = train_unit(unit, &obs).unwrap();
        OnlineEvaluator::new(model, Procedure::BenjaminiHochberg, 0.05)
    }

    #[test]
    fn healthy_window_raises_few_flags() {
        let fleet = Fleet::new(FleetConfig::paper_scale(31));
        let unit = fleet.units_with_class(FaultClass::Healthy)[0];
        let ev = trained_evaluator(&fleet, unit);
        // A later healthy window.
        let w = fleet.observation_window(unit, 1999, 50);
        let out = ev.evaluate(&w);
        // BH at q=0.05 under the global null: expected false flags ≈ 0.
        assert!(
            out.flags.len() <= 2,
            "healthy unit flagged {} sensors",
            out.flags.len()
        );
    }

    #[test]
    fn shifted_window_flags_the_faulted_group() {
        let fleet = Fleet::new(FleetConfig::paper_scale(31));
        let unit = fleet.units_with_class(FaultClass::SharpShift)[0];
        let spec = *fleet.fault(unit);
        let ev = trained_evaluator(&fleet, unit);
        let w = fleet.observation_window(unit, spec.onset + 49, 50);
        let out = ev.evaluate(&w);
        let flagged: std::collections::HashSet<u32> = out.flags.iter().map(|f| f.sensor).collect();
        for s in spec.group_start..spec.group_start + spec.group_len {
            assert!(flagged.contains(&s), "faulted sensor {s} not flagged");
        }
        // Flags should be concentrated on the fault group.
        assert!(
            out.flags.len() <= spec.group_len as usize + 3,
            "too many flags: {}",
            out.flags.len()
        );
    }

    #[test]
    fn block_t2_detects_group_fault() {
        let fleet = Fleet::new(FleetConfig::paper_scale(37));
        let unit = fleet.units_with_class(FaultClass::SharpShift)[0];
        let spec = *fleet.fault(unit);
        let ev = trained_evaluator(&fleet, unit);
        let w = fleet.observation_window(unit, spec.onset + 49, 50);
        let out = ev.evaluate(&w);
        // The block containing the fault group must have a tiny T² p-value.
        let fault_block_start =
            (spec.group_start as usize / crate::model::BLOCK_SENSORS) * crate::model::BLOCK_SENSORS;
        let (_, p) = out
            .block_p_values
            .iter()
            .find(|(s, _)| *s == fault_block_start)
            .copied()
            .unwrap();
        assert!(p < 1e-4, "fault block p-value {p}");
    }

    #[test]
    fn degradation_detected_late_not_early() {
        let fleet = Fleet::new(FleetConfig::paper_scale(41));
        let unit = fleet.units_with_class(FaultClass::GradualDegradation)[0];
        let spec = *fleet.fault(unit);
        let ev = trained_evaluator(&fleet, unit);
        // Immediately after onset the drift is tiny.
        let early = ev.evaluate(&fleet.observation_window(unit, spec.onset + 19, 20));
        let early_hits = early
            .flags
            .iter()
            .filter(|f| spec.affects(f.sensor))
            .count();
        // Long after onset the drift dominates.
        let late_t = spec.onset + 3000;
        let late = ev.evaluate(&fleet.observation_window(unit, late_t + 49, 50));
        let late_hits = late.flags.iter().filter(|f| spec.affects(f.sensor)).count();
        assert!(
            late_hits >= spec.group_len as usize - 1,
            "late hits {late_hits}"
        );
        assert!(
            late_hits > early_hits,
            "drift should grow: {early_hits} → {late_hits}"
        );
    }

    #[test]
    fn bonferroni_flags_no_more_than_bh() {
        let fleet = Fleet::new(FleetConfig::paper_scale(43));
        let unit = fleet.units_with_class(FaultClass::SharpShift)[0];
        let spec = *fleet.fault(unit);
        let obs = fleet.observation_window(unit, 149, 150);
        let model = train_unit(unit, &obs).unwrap();
        let w = fleet.observation_window(unit, spec.onset + 29, 30);
        let bh =
            OnlineEvaluator::new(model.clone(), Procedure::BenjaminiHochberg, 0.05).evaluate(&w);
        let bon = OnlineEvaluator::new(model, Procedure::Bonferroni, 0.05).evaluate(&w);
        assert!(bon.flags.len() <= bh.flags.len());
    }

    #[test]
    #[should_panic(expected = "sensor count mismatch")]
    fn wrong_width_window_panics() {
        let fleet = Fleet::new(FleetConfig::small(53));
        let ev = trained_evaluator(&fleet, 0);
        let w = Matrix::zeros(5, 3);
        ev.evaluate(&w);
    }
}
