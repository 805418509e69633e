//! Trained per-unit models.

use serde::{Deserialize, Serialize};

/// Sensors per block of the benchmark ladder's `linalg.covariance` and
/// `linalg.svd` rungs. Only that ladder reads it: the detector models each
/// sensor on its own.
pub const BLOCK_SENSORS: usize = 32;

/// The trained model of one unit: each sensor's baseline mean and σ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitModel {
    /// Unit id.
    pub unit: u32,
    /// Per-sensor baseline means.
    pub means: Vec<f64>,
    /// Per-sensor baseline standard deviations.
    pub stds: Vec<f64>,
    /// Observations the model was trained on.
    pub trained_rows: usize,
}

impl UnitModel {
    /// Number of sensors modelled.
    pub fn sensors(&self) -> usize {
        self.means.len()
    }

    /// Validate internal consistency: one σ per mean, each finite and
    /// non-negative.
    pub fn validate(&self) -> Result<(), String> {
        if self.means.len() != self.stds.len() {
            return Err("means/stds length mismatch".into());
        }
        if self.stds.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err("invalid standard deviation".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(stds: Vec<f64>) -> UnitModel {
        UnitModel {
            unit: 0,
            means: vec![0.0; 5],
            stds,
            trained_rows: 100,
        }
    }

    #[test]
    fn validation_accepts_consistent_model() {
        let m = model(vec![1.0; 5]);
        assert!(m.validate().is_ok());
        assert_eq!(m.sensors(), 5);
    }

    #[test]
    fn validation_rejects_mismatches_and_bad_stds() {
        assert!(model(vec![1.0; 4]).validate().is_err());
        assert!(model(vec![1.0, -0.5, 1.0, 1.0, 1.0]).validate().is_err());
        assert!(model(vec![1.0, f64::INFINITY, 1.0, 1.0, 1.0])
            .validate()
            .is_err());
    }

    #[test]
    fn model_serde_roundtrip() {
        let m = UnitModel {
            unit: 7,
            means: vec![1.0, 2.0],
            stds: vec![0.5, 0.6],
            trained_rows: 42,
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: UnitModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
