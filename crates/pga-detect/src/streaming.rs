//! Streaming (incremental) training — the paper's ongoing work of
//! "migrating our anomaly detection implementation to Spark Streaming for
//! online training" (§VI), implemented here as a Welford-style incremental
//! estimator of each sensor's mean and variance.

use serde::{Deserialize, Serialize};

use crate::model::UnitModel;
use crate::trainer::TrainError;

/// Incrementally ingests observation rows and can produce a [`UnitModel`]
/// at any point — no batch re-read required.
///
/// Keeps the row count and, per sensor, the running mean and sum of
/// squared deviations `M2 = Σ (x - mean)²`, updated by Welford's rule and
/// merged by Chan's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingTrainer {
    unit: u32,
    count: u64,
    means: Vec<f64>,
    m2: Vec<f64>,
}

impl StreamingTrainer {
    /// New trainer for a unit with `sensors` sensors.
    pub fn new(unit: u32, sensors: usize) -> Self {
        assert!(sensors > 0, "need at least one sensor");
        StreamingTrainer {
            unit,
            count: 0,
            means: vec![0.0; sensors],
            m2: vec![0.0; sensors],
        }
    }

    /// Rows ingested so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Ingest one observation row (length must equal the sensor count).
    pub fn update(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.means.len(), "row width mismatch");
        self.count += 1;
        let n = self.count as f64;
        // M2 += (x − mean before) · (x − mean after).
        for ((&x, mean), m2) in row.iter().zip(&mut self.means).zip(&mut self.m2) {
            let delta = x - *mean;
            *mean += delta / n;
            *m2 += delta * (x - *mean);
        }
    }

    /// Produce a model from the moments accumulated so far.
    pub fn finish(&self) -> Result<UnitModel, TrainError> {
        if self.count < 2 {
            return Err(TrainError::InsufficientData {
                rows: self.count as usize,
            });
        }
        let inv = 1.0 / (self.count - 1) as f64;
        let model = UnitModel {
            unit: self.unit,
            means: self.means.clone(),
            stds: self
                .m2
                .iter()
                .map(|m2| (m2 * inv).max(0.0).sqrt())
                .collect(),
            trained_rows: self.count as usize,
        };
        model.validate().map_err(TrainError::InvalidModel)?;
        Ok(model)
    }

    /// Merge another trainer's moments into this one (Chan's parallel
    /// update) — the building block for distributed streaming training.
    pub fn merge(&mut self, other: &StreamingTrainer) {
        assert_eq!(self.means.len(), other.means.len(), "sensor count mismatch");
        assert_eq!(self.unit, other.unit, "unit mismatch");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let sensors = self.means.iter_mut().zip(&mut self.m2);
        for ((mean, m2), (&other_mean, &other_m2)) in sensors.zip(other.means.iter().zip(&other.m2))
        {
            let delta = other_mean - *mean;
            *m2 += other_m2 + delta * delta * n1 * n2 / n;
            *mean += delta * n2 / n;
        }
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_unit;
    use pga_linalg::Matrix;
    use pga_sensorgen::{Fleet, FleetConfig};

    fn feed(trainer: &mut StreamingTrainer, obs: &Matrix) {
        for r in 0..obs.rows() {
            trainer.update(obs.row(r));
        }
    }

    #[test]
    fn streaming_matches_batch_training() {
        let fleet = Fleet::new(FleetConfig::small(61));
        let obs = fleet.observation_window(0, 119, 120);
        let batch = train_unit(0, &obs).unwrap();
        let mut st = StreamingTrainer::new(0, obs.cols());
        feed(&mut st, &obs);
        let streaming = st.finish().unwrap();
        assert_eq!(streaming.trained_rows, batch.trained_rows);
        for (a, b) in streaming.means.iter().zip(&batch.means) {
            assert!((a - b).abs() < 1e-9, "means differ: {a} vs {b}");
        }
        for (a, b) in streaming.stds.iter().zip(&batch.stds) {
            assert!((a - b).abs() < 1e-9, "stds differ: {a} vs {b}");
        }
    }

    #[test]
    fn merge_equals_sequential_ingest() {
        let fleet = Fleet::new(FleetConfig::small(67));
        let obs = fleet.observation_window(1, 99, 100);
        // Sequential.
        let mut seq = StreamingTrainer::new(1, obs.cols());
        feed(&mut seq, &obs);
        // Split in two and merge.
        let mut left = StreamingTrainer::new(1, obs.cols());
        let mut right = StreamingTrainer::new(1, obs.cols());
        for r in 0..60 {
            left.update(obs.row(r));
        }
        for r in 60..100 {
            right.update(obs.row(r));
        }
        left.merge(&right);
        assert_eq!(left.count(), seq.count());
        let a = left.finish().unwrap();
        let b = seq.finish().unwrap();
        for (x, y) in a.means.iter().zip(&b.means) {
            assert!((x - y).abs() < 1e-9);
        }
        for (x, y) in a.stds.iter().zip(&b.stds) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_into_empty_copies() {
        let fleet = Fleet::new(FleetConfig::small(71));
        let obs = fleet.observation_window(0, 49, 50);
        let mut full = StreamingTrainer::new(0, obs.cols());
        feed(&mut full, &obs);
        let mut empty = StreamingTrainer::new(0, obs.cols());
        empty.merge(&full);
        assert_eq!(empty.count(), 50);
        let a = empty.finish().unwrap();
        let b = full.finish().unwrap();
        assert_eq!(a.means, b.means);
    }

    #[test]
    fn too_few_rows_rejected() {
        let mut st = StreamingTrainer::new(0, 4);
        assert!(matches!(
            st.finish(),
            Err(TrainError::InsufficientData { rows: 0 })
        ));
        st.update(&[1.0, 2.0, 3.0, 4.0]);
        assert!(st.finish().is_err());
        st.update(&[2.0, 3.0, 4.0, 5.0]);
        assert!(st.finish().is_ok());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        StreamingTrainer::new(0, 4).update(&[1.0, 2.0]);
    }
}
