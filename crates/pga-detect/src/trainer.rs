//! Offline (batch) training — the Spark stage of §IV-A.

use pga_dataflow::Dataflow;
use pga_linalg::{centre_columns, centred_covariance, eigh, Matrix};
use pga_sensorgen::Fleet;

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
    // Centre the whole window once; every block's covariance is then read
    // in place out of it, and its diagonal is the block's sensor variances.
    let mut centred = observations.clone();
    let means = centre_columns(&mut centred);
    let mut stds = Vec::with_capacity(p);
    let mut blocks = Vec::with_capacity(p.div_ceil(BLOCK_SENSORS));
    let mut start = 0usize;
    while start < p {
        let len = BLOCK_SENSORS.min(p - start);
        let cov = centred_covariance(&centred, start..start + len)
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

/// Train the whole fleet in parallel on the dataflow engine.
///
/// The training window is samples `[0, window)` of each unit — the
/// pre-fault head of every stream (fault onsets start at sample 200, so a
/// window ≤ 200 is guaranteed clean; larger windows model realistic
/// contaminated training).
pub fn train_fleet(
    fleet: &Fleet,
    window: usize,
    dataflow: &Dataflow,
) -> Result<Vec<UnitModel>, TrainError> {
    let units: Vec<u32> = (0..fleet.config().units).collect();
    let partitions = dataflow.workers().max(1) * 2;
    let mut models = dataflow
        .parallelize(units, partitions)
        .map(|unit| {
            let obs = fleet.observation_window(unit, window as u64 - 1, window);
            train_unit(unit, &obs)
        })
        .collect()
        .into_iter()
        .collect::<Result<Vec<UnitModel>, TrainError>>()?;
    models.sort_by_key(|m| m.unit);
    Ok(models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_sensorgen::FleetConfig;

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
        let df = Dataflow::new(4);
        let models = train_fleet(&fleet, 100, &df).unwrap();
        assert_eq!(models.len(), fleet.config().units as usize);
        for (i, m) in models.iter().enumerate() {
            assert_eq!(m.unit, i as u32);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let fleet = Fleet::new(FleetConfig::small(13));
        let df = Dataflow::new(2);
        let a = train_fleet(&fleet, 80, &df).unwrap();
        let b = train_fleet(&fleet, 80, &df).unwrap();
        assert_eq!(a, b);
    }
}
