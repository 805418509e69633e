//! Dense linear algebra substrate for the PGA platform.
//!
//! The paper's offline training (§IV-A) computes, per unit, a covariance
//! matrix of the sensor readings and its singular value decomposition, "to
//! obtain the mean and variance" of each sensor. The authors used Spark
//! MLlib's distributed matrix routines. The detector (`pga-detect`) reads
//! only those two, so it takes [`column_means`] and [`column_variances`]
//! (the covariance's diagonal) from here. The dense kernels, written from
//! scratch, serve the data generator and the benchmark:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual algebra;
//!   the multiply is cache-tiled over all three loop dimensions, with a
//!   textbook [`Matrix::naive_matmul`] kept as the differential baseline.
//! * [`covariance_matrix`] — sample covariance of an observation matrix:
//!   [`centre_columns`], then [`centred_covariance`], a register-tiled Gram
//!   kernel over a column range of the centred data;
//!   [`covariance_naive`] is the unblocked reference it is verified
//!   against.
//! * [`svd`] — one-sided Jacobi SVD.
//! * [`CholeskyFactor`] — Cholesky factorisation, used by the data
//!   generator to impose cross-sensor correlation on injected faults.
//!
//! All routines are deterministic and allocation-conscious; hot loops
//! operate on contiguous slices so the compiler can vectorise them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod matrix;
mod stat;
mod svd;
mod vector;

pub use cholesky::{equicorrelation, CholeskyError, CholeskyFactor};
pub use matrix::Matrix;
pub use stat::{
    centre_columns, centred_covariance, column_means, column_variances, covariance_matrix,
    covariance_naive, standardize_columns,
};
pub use svd::{svd, SvdResult};
pub use vector::{axpy, dot, norm2, scale};

/// Convenience result alias for fallible linalg operations.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Errors produced by the linear algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible (e.g. `a.cols != b.rows`).
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// Not enough observations to estimate the requested statistic.
    InsufficientData {
        /// Number of observations provided.
        rows: usize,
        /// Minimum required.
        required: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::InsufficientData { rows, required } => write!(
                f,
                "insufficient data: {rows} observation(s), need at least {required}"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}
