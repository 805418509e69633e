//! Offline (batch) training — the Spark stage of §IV-A.

use pga_dataflow::Dataflow;
use pga_linalg::{centred_covariance, column_means, eigh, Matrix};

use crate::batch::ColumnWindow;
use crate::model::{BlockModel, UnitModel, BLOCK_SENSORS};

/// Training failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Not enough observations for covariance estimation.
    InsufficientData {
        /// Rows provided.
        rows: usize,
    },
    /// The eigendecomposition failed to converge or errored.
    Decomposition(String),
    /// The fitted model fails [`UnitModel::validate`] — a finite but huge
    /// sample overflowed a variance, say — and must not reach an evaluator.
    InvalidModel(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InsufficientData { rows } => {
                write!(f, "need at least 2 observation rows, got {rows}")
            }
            TrainError::Decomposition(e) => write!(f, "decomposition failed: {e}"),
            TrainError::InvalidModel(e) => write!(f, "trained model is invalid: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Train one unit's model from an observation window (rows = time steps,
/// columns = sensors).
pub fn train_unit(unit: u32, observations: &Matrix) -> Result<UnitModel, TrainError> {
    let (n, p) = observations.shape();
    if n < 2 {
        return Err(TrainError::InsufficientData { rows: n });
    }
    // Each block is centred into a panel of its own, `n × len`, and its
    // covariance read out of that; the panel's diagonal is the block's
    // sensor variances. Cells are `x − m` and the Gram sums add in row
    // order, so the model does not depend on how the window is cut
    // (`tests/kernel_model.rs` holds it bit for bit).
    let means = column_means(observations);
    let mut stds = Vec::with_capacity(p);
    let mut blocks = Vec::with_capacity(p.div_ceil(BLOCK_SENSORS));
    let mut start = 0usize;
    while start < p {
        let len = BLOCK_SENSORS.min(p - start);
        let block_means = &means[start..start + len];
        let mut cells = Vec::with_capacity(n * len);
        for r in 0..n {
            let row = &observations.row(r)[start..start + len];
            cells.extend(row.iter().zip(block_means).map(|(&x, &m)| x - m));
        }
        let panel = Matrix::from_vec(n, len, cells).expect("n × len cells");
        let cov = centred_covariance(&panel, 0..len)
            .map_err(|e| TrainError::Decomposition(e.to_string()))?;
        stds.extend((0..len).map(|k| cov.get(k, k).max(0.0).sqrt()));
        // The paper performs SVD on the covariance; for a symmetric PSD
        // matrix this is the eigendecomposition, computed directly.
        let eig = eigh(&cov).map_err(|e| TrainError::Decomposition(e.to_string()))?;
        blocks.push(BlockModel {
            start,
            len,
            eigenvalues: eig.values,
            eigenvectors: eig.vectors,
        });
        start += len;
    }
    let model = UnitModel {
        unit,
        means,
        stds,
        blocks,
        trained_rows: n,
    };
    model.validate().map_err(TrainError::InvalidModel)?;
    Ok(model)
}

/// Train one unit's model from **per-sensor column slices** — the shape
/// the columnar block store hands back. The columns are transposed into
/// the row-major observation window and trained with [`train_unit`], so
/// the resulting model is identical to batch training on the same data.
pub fn train_unit_columns(unit: u32, columns: &[&[f64]]) -> Result<UnitModel, TrainError> {
    let p = columns.len();
    let n = columns.first().map_or(0, |c| c.len());
    if n < 2 {
        return Err(TrainError::InsufficientData { rows: n });
    }
    if columns.iter().any(|c| c.len() != n) {
        return Err(TrainError::Decomposition(format!(
            "ragged columns: every sensor needs {n} samples"
        )));
    }
    let mut obs = Matrix::zeros(n, p);
    for (j, col) in columns.iter().enumerate() {
        for (r, &v) in col.iter().enumerate() {
            obs.set(r, j, v);
        }
    }
    train_unit(unit, &obs)
}

/// Train every `(unit, window)` pair in parallel on the dataflow engine,
/// two partitions per worker, each window through
/// [`train_unit_columns`]. Models come back in input order; the first
/// unit that fails to train fails the call.
pub fn train_units(
    windows: Vec<(u32, ColumnWindow<'_>)>,
    dataflow: &Dataflow,
) -> Result<Vec<UnitModel>, TrainError> {
    dataflow
        .parallelize(windows, dataflow.workers() * 2)
        .map(|(unit, columns)| train_unit_columns(unit, &columns))
        .collect()
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_sensorgen::{Fleet, FleetConfig};

    /// Every unit's per-sensor columns over ticks `[0, len)`.
    fn fleet_columns(fleet: &Fleet, len: usize) -> Vec<Vec<Vec<f64>>> {
        (0..fleet.config().units)
            .map(|u| {
                let obs = fleet.observation_window(u, len as u64 - 1, len);
                (0..obs.cols()).map(|c| obs.col(c)).collect()
            })
            .collect()
    }

    /// The `(unit, window)` pairs [`train_units`] takes.
    fn windows(columns: &[Vec<Vec<f64>>]) -> Vec<(u32, ColumnWindow<'_>)> {
        columns
            .iter()
            .enumerate()
            .map(|(u, cols)| (u as u32, cols.iter().map(Vec::as_slice).collect()))
            .collect()
    }

    /// Each model equals sequential row-major training on the same ticks.
    fn assert_matches_train_unit(fleet: &Fleet, len: usize, models: &[UnitModel]) {
        for m in models {
            let obs = fleet.observation_window(m.unit, len as u64 - 1, len);
            assert_eq!(*m, train_unit(m.unit, &obs).unwrap(), "unit {}", m.unit);
        }
    }

    #[test]
    fn trained_model_matches_data_moments() {
        let fleet = Fleet::new(FleetConfig::small(5));
        let obs = fleet.observation_window(0, 149, 150);
        let model = train_unit(0, &obs).unwrap();
        assert!(model.validate().is_ok());
        assert_eq!(model.sensors(), fleet.config().sensors_per_unit as usize);
        // Healthy baseline: means near the configured baseline, stds near
        // the noise std.
        let cfg = fleet.config();
        for (&m, &s) in model.means.iter().zip(&model.stds) {
            assert!((m - cfg.baseline_mean).abs() < 0.5, "mean {m}");
            assert!((s - cfg.noise_std).abs() < 0.4, "std {s}");
        }
    }

    #[test]
    fn block_eigenvalues_sum_to_total_variance() {
        let fleet = Fleet::new(FleetConfig::small(9));
        let obs = fleet.observation_window(1, 99, 100);
        let model = train_unit(1, &obs).unwrap();
        let vars = pga_linalg::column_variances(&obs).unwrap();
        for b in &model.blocks {
            let trace: f64 = vars[b.start..b.start + b.len].iter().sum();
            let lam_sum: f64 = b.eigenvalues.iter().sum();
            assert!(
                (trace - lam_sum).abs() < 1e-8 * trace.max(1.0),
                "block {}: trace {trace} vs Σλ {lam_sum}",
                b.start
            );
        }
    }

    #[test]
    fn columnar_training_equals_row_major() {
        let fleet = Fleet::new(FleetConfig::small(17));
        let obs = fleet.observation_window(0, 119, 120);
        let cols: Vec<Vec<f64>> = (0..obs.cols()).map(|c| obs.col(c)).collect();
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let a = train_unit(0, &obs).unwrap();
        let b = train_unit_columns(0, &refs).unwrap();
        assert_eq!(a, b, "transposed input must yield the identical model");
        assert!(matches!(
            train_unit_columns(0, &[&[1.0][..]]),
            Err(TrainError::InsufficientData { rows: 1 })
        ));
        assert!(train_unit_columns(0, &[&[1.0, 2.0][..], &[3.0][..]]).is_err());
    }

    #[test]
    fn insufficient_rows_rejected() {
        let fleet = Fleet::new(FleetConfig::small(5));
        let obs = fleet.observation_window(0, 0, 1);
        assert!(matches!(
            train_unit(0, &obs),
            Err(TrainError::InsufficientData { rows: 1 })
        ));
    }

    #[test]
    fn overflowing_sample_is_a_typed_error() {
        // Finite, so the put API lets it in; its square is not.
        let fleet = Fleet::new(FleetConfig::small(5));
        let mut obs = fleet.observation_window(0, 99, 100);
        obs.set(40, 3, 1e200);
        let mut streaming = crate::StreamingTrainer::new(0, obs.cols());
        for r in 0..obs.rows() {
            streaming.update(obs.row(r));
        }
        for err in [
            train_unit(0, &obs).unwrap_err(),
            streaming.finish().unwrap_err(),
        ] {
            // The solver refuses the infinite covariance before validation
            // sees the infinite σ; either way it is an error, not a model.
            assert!(matches!(
                err,
                TrainError::Decomposition(_) | TrainError::InvalidModel(_)
            ));
        }
    }

    #[test]
    fn fleet_training_covers_every_unit() {
        let fleet = Fleet::new(FleetConfig::small(11));
        let columns = fleet_columns(&fleet, 100);
        let models = train_units(windows(&columns), &Dataflow::new(4)).unwrap();
        assert_eq!(models.len(), fleet.config().units as usize);
        for (i, m) in models.iter().enumerate() {
            assert_eq!(m.unit, i as u32);
        }
        assert_matches_train_unit(&fleet, 100, &models);
    }

    #[test]
    fn training_is_deterministic() {
        let fleet = Fleet::new(FleetConfig::small(13));
        let columns = fleet_columns(&fleet, 80);
        let df = Dataflow::new(2);
        let a = train_units(windows(&columns), &df).unwrap();
        let b = train_units(windows(&columns), &df).unwrap();
        assert_eq!(a, b);
        assert_matches_train_unit(&fleet, 80, &a);
    }
}
