//! One-sided Jacobi singular value decomposition.
//!
//! `svd` handles general rectangular matrices by orthogonalising the columns
//! of a working copy with Jacobi rotations (Hestenes method). For a
//! symmetric PSD covariance matrix the singular values are its
//! eigenvalues.

use crate::{Matrix, Result};

/// Result of a singular value decomposition `A = U diag(σ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SvdResult {
    /// Left singular vectors as columns (`m × k`, `k = min(m, n)`).
    pub u: Matrix,
    /// Singular values, sorted descending (`k` of them).
    pub singular_values: Vec<f64>,
    /// Right singular vectors as columns (`n × k`).
    pub v: Matrix,
    /// Sweeps performed before convergence.
    pub sweeps: usize,
}

impl SvdResult {
    /// Reconstruct `U diag(σ) Vᵀ` (useful in tests and diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.singular_values.len();
        let mut us = self.u.clone();
        for c in 0..k {
            for r in 0..us.rows() {
                let v = us.get(r, c) * self.singular_values[c];
                us.set(r, c, v);
            }
        }
        us.matmul(&self.v.transpose()).expect("shapes agree")
    }

    /// Effective rank: number of singular values above `tol * σ_max`.
    pub fn rank(&self, tol: f64) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(0.0);
        if max <= 0.0 {
            return 0;
        }
        self.singular_values
            .iter()
            .take_while(|&&s| s > tol * max)
            .count()
    }
}

/// One-sided Jacobi SVD of a general `m × n` matrix (works for `m >= n` and
/// `m < n` alike — the wide case is handled by transposing).
pub fn svd(a: &Matrix) -> Result<SvdResult> {
    if a.rows() < a.cols() {
        let t = svd(&a.transpose())?;
        return Ok(SvdResult {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
            sweeps: t.sweeps,
        });
    }
    let (m, n) = a.shape();
    // Work on columns: w is m x n, v accumulates right rotations.
    let mut w = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14;
    let max_sweeps = 64;
    let mut sweeps = 0;
    loop {
        let mut converged = true;
        for p in 0..n {
            for q in (p + 1)..n {
                let (alpha, beta, gamma) = column_moments(&w, p, q);
                if gamma.abs() <= tol * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                converged = false;
                // Rotation that orthogonalises columns p and q.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = {
                    let sign = if zeta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (zeta.abs() + (1.0 + zeta * zeta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate_cols(&mut w, p, q, c, s);
                rotate_cols(&mut v, p, q, c, s);
            }
        }
        sweeps += 1;
        if converged || sweeps >= max_sweeps {
            break;
        }
    }
    // Singular values are column norms; U columns are normalised columns.
    let mut sv: Vec<(f64, usize)> = (0..n)
        .map(|c| {
            let norm = (0..m).map(|r| w.get(r, c).powi(2)).sum::<f64>().sqrt();
            (norm, c)
        })
        .collect();
    sv.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut u = Matrix::zeros(m, n);
    let mut vout = Matrix::zeros(n, n);
    let mut singular_values = Vec::with_capacity(n);
    for (new_c, &(norm, old_c)) in sv.iter().enumerate() {
        singular_values.push(norm);
        if norm > 0.0 {
            for r in 0..m {
                u.set(r, new_c, w.get(r, old_c) / norm);
            }
        }
        for r in 0..n {
            vout.set(r, new_c, v.get(r, old_c));
        }
    }
    Ok(SvdResult {
        u,
        singular_values,
        v: vout,
        sweeps,
    })
}

/// (‖col p‖², ‖col q‖², col p · col q)
fn column_moments(w: &Matrix, p: usize, q: usize) -> (f64, f64, f64) {
    let mut alpha = 0.0;
    let mut beta = 0.0;
    let mut gamma = 0.0;
    for r in 0..w.rows() {
        let wp = w.get(r, p);
        let wq = w.get(r, q);
        alpha += wp * wp;
        beta += wq * wq;
        gamma += wp * wq;
    }
    (alpha, beta, gamma)
}

fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    for r in 0..m.rows() {
        let mp = m.get(r, p);
        let mq = m.get(r, q);
        m.set(r, p, c * mp - s * mq);
        m.set(r, q, s * mp + c * mq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut x = seed | 1;
        let mut out = Matrix::zeros(m, n);
        for r in 0..m {
            for c in 0..n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                out.set(r, c, ((x >> 33) as f64) / (u32::MAX as f64) - 0.5);
            }
        }
        out
    }

    #[test]
    fn reconstruction_tall_matrix() {
        let a = pseudo_random_matrix(15, 7, 3);
        let d = svd(&a).unwrap();
        assert!(d.reconstruct().max_abs_diff(&a).unwrap() < 1e-9);
    }

    #[test]
    fn reconstruction_wide_matrix() {
        let a = pseudo_random_matrix(5, 11, 9);
        let d = svd(&a).unwrap();
        assert!(d.reconstruct().max_abs_diff(&a).unwrap() < 1e-9);
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = pseudo_random_matrix(10, 10, 17);
        let d = svd(&a).unwrap();
        for w in d.singular_values.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(d.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn orthonormal_factors() {
        let a = pseudo_random_matrix(12, 8, 23);
        let d = svd(&a).unwrap();
        let utu = d.u.transpose().matmul(&d.u).unwrap();
        let vtv = d.v.transpose().matmul(&d.v).unwrap();
        assert!(utu.max_abs_diff(&Matrix::identity(8)).unwrap() < 1e-9);
        assert!(vtv.max_abs_diff(&Matrix::identity(8)).unwrap() < 1e-9);
    }

    #[test]
    fn rank_of_rank_one_matrix() {
        // Outer product has rank 1.
        let u = [1.0, 2.0, 3.0];
        let v = [4.0, 5.0];
        let mut a = Matrix::zeros(3, 2);
        for (r, &ur) in u.iter().enumerate() {
            for (c, &vc) in v.iter().enumerate() {
                a.set(r, c, ur * vc);
            }
        }
        let d = svd(&a).unwrap();
        assert_eq!(d.rank(1e-10), 1);
    }

    #[test]
    fn zero_matrix_has_zero_rank() {
        let d = svd(&Matrix::zeros(4, 3)).unwrap();
        assert_eq!(d.rank(1e-10), 0);
        assert!(d.singular_values.iter().all(|&s| s == 0.0));
    }
}
