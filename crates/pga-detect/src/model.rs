//! Trained per-unit models.

use serde::{Deserialize, Serialize};

use pga_linalg::Matrix;

/// Sensors per covariance block. Fault groups in the generator span 8
/// sensors; 32 gives each block several groups of headroom while keeping
/// the eigendecomposition of a block (32×32) trivially fast.
pub const BLOCK_SENSORS: usize = 32;

/// Eigen-model of one contiguous sensor block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockModel {
    /// First sensor index covered by this block.
    pub start: usize,
    /// Number of sensors in the block.
    pub len: usize,
    /// Eigenvalues of the block covariance, descending.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors as columns (`len × len`), matching `eigenvalues`.
    pub eigenvectors: Matrix,
}

impl BlockModel {
    /// Project a centred observation slice into the eigenbasis — the
    /// "single matrix multiplication per iteration" of §IV-A. Returns the
    /// principal-component scores `Vᵀx`.
    ///
    /// Accumulated one contiguous row of `V` at a time
    /// (`scores[c] += V[r][c] · x[r]`), so the inner loop is independent
    /// adds over adjacent memory; every score still adds its terms in `r`
    /// order, from the `-0.0` that `Iterator::sum::<f64>` starts at.
    pub fn project(&self, centered: &[f64]) -> Vec<f64> {
        assert_eq!(centered.len(), self.len, "block width mismatch");
        let mut scores = vec![-0.0; self.len];
        for (r, &x) in centered.iter().enumerate() {
            for (score, &v) in scores.iter_mut().zip(self.eigenvectors.row(r)) {
                *score += v * x;
            }
        }
        scores
    }
}

/// The trained model of one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitModel {
    /// Unit id.
    pub unit: u32,
    /// Per-sensor baseline means.
    pub means: Vec<f64>,
    /// Per-sensor baseline standard deviations.
    pub stds: Vec<f64>,
    /// Covariance blocks in sensor order.
    pub blocks: Vec<BlockModel>,
    /// Observations the model was trained on.
    pub trained_rows: usize,
}

impl UnitModel {
    /// Number of sensors modelled.
    pub fn sensors(&self) -> usize {
        self.means.len()
    }

    /// Validate internal consistency (block coverage, shapes).
    pub fn validate(&self) -> Result<(), String> {
        if self.means.len() != self.stds.len() {
            return Err("means/stds length mismatch".into());
        }
        let mut covered = 0usize;
        for b in &self.blocks {
            if b.start != covered {
                return Err(format!("block gap at sensor {covered}"));
            }
            if b.eigenvalues.len() != b.len || b.eigenvectors.shape() != (b.len, b.len) {
                return Err(format!("block at {} has inconsistent shapes", b.start));
            }
            covered += b.len;
        }
        if covered != self.means.len() {
            return Err(format!(
                "blocks cover {covered} sensors, model has {}",
                self.means.len()
            ));
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

    fn identity_block(start: usize, len: usize) -> BlockModel {
        BlockModel {
            start,
            len,
            eigenvalues: vec![1.0; len],
            eigenvectors: Matrix::identity(len),
        }
    }

    #[test]
    fn projection_with_identity_basis_is_identity() {
        let b = identity_block(0, 3);
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(b.project(&x), x);
    }

    #[test]
    fn projection_rotates() {
        // 2D rotation by 90°: columns are e2, -e1.
        let mut v = Matrix::zeros(2, 2);
        v.set(0, 1, -1.0);
        v.set(1, 0, 1.0);
        let b = BlockModel {
            start: 0,
            len: 2,
            eigenvalues: vec![1.0, 1.0],
            eigenvectors: v,
        };
        let scores = b.project(&[3.0, 4.0]);
        // Vᵀ [3,4] = [col0·x, col1·x] = [4, -3]
        assert_eq!(scores, vec![4.0, -3.0]);
    }

    #[test]
    fn validation_accepts_consistent_model() {
        let m = UnitModel {
            unit: 0,
            means: vec![0.0; 5],
            stds: vec![1.0; 5],
            blocks: vec![identity_block(0, 3), identity_block(3, 2)],
            trained_rows: 100,
        };
        assert!(m.validate().is_ok());
        assert_eq!(m.sensors(), 5);
    }

    #[test]
    fn validation_rejects_gaps_and_mismatches() {
        let gap = UnitModel {
            unit: 0,
            means: vec![0.0; 5],
            stds: vec![1.0; 5],
            blocks: vec![identity_block(0, 2), identity_block(3, 2)],
            trained_rows: 10,
        };
        assert!(gap.validate().is_err());

        let short = UnitModel {
            unit: 0,
            means: vec![0.0; 5],
            stds: vec![1.0; 5],
            blocks: vec![identity_block(0, 3)],
            trained_rows: 10,
        };
        assert!(short.validate().is_err());

        let bad_std = UnitModel {
            unit: 0,
            means: vec![0.0; 2],
            stds: vec![1.0, -0.5],
            blocks: vec![identity_block(0, 2)],
            trained_rows: 10,
        };
        assert!(bad_std.validate().is_err());
    }

    #[test]
    fn model_serde_roundtrip() {
        let m = UnitModel {
            unit: 7,
            means: vec![1.0, 2.0],
            stds: vec![0.5, 0.6],
            blocks: vec![identity_block(0, 2)],
            trained_rows: 42,
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: UnitModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
