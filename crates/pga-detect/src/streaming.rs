//! Streaming (incremental) training — the paper's ongoing work of
//! "migrating our anomaly detection implementation to Spark Streaming for
//! online training" (§VI), implemented here as a Welford-style incremental
//! moment estimator plus streaming block covariance.

use serde::{Deserialize, Serialize};

use pga_linalg::{eigh, symmetric_from_packed_lower};

use crate::model::{BlockModel, UnitModel, BLOCK_SENSORS};
use crate::trainer::TrainError;

/// Incrementally ingests observation rows and can produce a [`UnitModel`]
/// at any point — no batch re-read required.
///
/// Maintains per-sensor running means and, per block, the running
/// co-moment matrix, using the numerically stable Welford/Chan update.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingTrainer {
    unit: u32,
    sensors: usize,
    count: u64,
    means: Vec<f64>,
    /// Per-block lower-triangular co-moment accumulators
    /// `M2[b][i][j] = Σ (x_i - mean_i)(x_j - mean_j)` laid out packed.
    comoments: Vec<Vec<f64>>,
}

fn block_count(sensors: usize) -> usize {
    sensors.div_ceil(BLOCK_SENSORS)
}

fn packed_len(len: usize) -> usize {
    len * (len + 1) / 2
}

impl StreamingTrainer {
    /// New trainer for a unit with `sensors` sensors.
    pub fn new(unit: u32, sensors: usize) -> Self {
        assert!(sensors > 0, "need at least one sensor");
        let blocks = block_count(sensors);
        let comoments = (0..blocks)
            .map(|b| {
                let len = BLOCK_SENSORS.min(sensors - b * BLOCK_SENSORS);
                vec![0.0; packed_len(len)]
            })
            .collect();
        StreamingTrainer {
            unit,
            sensors,
            count: 0,
            means: vec![0.0; sensors],
            comoments,
        }
    }

    /// Rows ingested so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Ingest one observation row (length must equal the sensor count).
    pub fn update(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.sensors, "row width mismatch");
        self.count += 1;
        let n = self.count as f64;
        // Per-sensor deltas before the mean update.
        let deltas: Vec<f64> = row.iter().zip(&self.means).map(|(&x, &m)| x - m).collect();
        for (m, d) in self.means.iter_mut().zip(&deltas) {
            *m += d / n;
        }
        // Co-moment update per block: M2 += delta_before ⊗ delta_after.
        for (b, m2) in self.comoments.iter_mut().enumerate() {
            let start = b * BLOCK_SENSORS;
            let len = BLOCK_SENSORS.min(self.sensors - start);
            let mut idx = 0;
            for i in 0..len {
                let d_after_i = row[start + i] - self.means[start + i];
                for j in 0..=i {
                    m2[idx] += deltas[start + j] * d_after_i;
                    idx += 1;
                }
            }
        }
    }

    /// Produce a model from the moments accumulated so far.
    pub fn finish(&self) -> Result<UnitModel, TrainError> {
        if self.count < 2 {
            return Err(TrainError::InsufficientData {
                rows: self.count as usize,
            });
        }
        let denom = (self.count - 1) as f64;
        let mut blocks = Vec::with_capacity(self.comoments.len());
        let mut stds = vec![0.0; self.sensors];
        for (b, m2) in self.comoments.iter().enumerate() {
            let start = b * BLOCK_SENSORS;
            let len = BLOCK_SENSORS.min(self.sensors - start);
            let cov = symmetric_from_packed_lower(len, m2, 1.0 / denom)
                .map_err(|e| TrainError::Decomposition(e.to_string()))?;
            for i in 0..len {
                stds[start + i] = cov.get(i, i).max(0.0).sqrt();
            }
            let eig = eigh(&cov).map_err(|e| TrainError::Decomposition(e.to_string()))?;
            blocks.push(BlockModel {
                start,
                len,
                eigenvalues: eig.values,
                eigenvectors: eig.vectors,
            });
        }
        let model = UnitModel {
            unit: self.unit,
            means: self.means.clone(),
            stds,
            blocks,
            trained_rows: self.count as usize,
        };
        model.validate().map_err(TrainError::InvalidModel)?;
        Ok(model)
    }

    /// Merge another trainer's moments into this one (Chan's parallel
    /// update) — the building block for distributed streaming training.
    pub fn merge(&mut self, other: &StreamingTrainer) {
        assert_eq!(self.sensors, other.sensors, "sensor count mismatch");
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
        let deltas: Vec<f64> = other
            .means
            .iter()
            .zip(&self.means)
            .map(|(&m2, &m1)| m2 - m1)
            .collect();
        for (b, m2_acc) in self.comoments.iter_mut().enumerate() {
            let start = b * BLOCK_SENSORS;
            let len = BLOCK_SENSORS.min(self.sensors - start);
            let other_m2 = &other.comoments[b];
            let mut idx = 0;
            for i in 0..len {
                for j in 0..=i {
                    m2_acc[idx] +=
                        other_m2[idx] + deltas[start + i] * deltas[start + j] * n1 * n2 / n;
                    idx += 1;
                }
            }
        }
        for (m, d) in self.means.iter_mut().zip(&deltas) {
            *m += d * n2 / n;
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
        for (ba, bb) in streaming.blocks.iter().zip(&batch.blocks) {
            for (la, lb) in ba.eigenvalues.iter().zip(&bb.eigenvalues) {
                assert!((la - lb).abs() < 1e-7, "eigenvalues differ: {la} vs {lb}");
            }
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
        for (ba, bb) in a.blocks.iter().zip(&b.blocks) {
            for (la, lb) in ba.eigenvalues.iter().zip(&bb.eigenvalues) {
                assert!((la - lb).abs() < 1e-7);
            }
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
