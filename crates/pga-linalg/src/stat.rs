//! Column statistics over observation matrices.
//!
//! Observation matrices are laid out the way the detector consumes sensor
//! windows: one row per time step, one column per sensor.

use std::ops::Range;

use crate::{LinalgError, Matrix, Result};

/// Per-column means of an observation matrix.
pub fn column_means(obs: &Matrix) -> Vec<f64> {
    let (n, p) = obs.shape();
    if n == 0 {
        return vec![0.0; p];
    }
    let mut means = vec![0.0; p];
    for r in 0..n {
        crate::vector::axpy(1.0, obs.row(r), &mut means);
    }
    let inv = 1.0 / n as f64;
    crate::vector::scale(&mut means, inv);
    means
}

/// Per-column sample variances (denominator `n - 1`).
pub fn column_variances(obs: &Matrix) -> Result<Vec<f64>> {
    let (n, p) = obs.shape();
    if n < 2 {
        return Err(LinalgError::InsufficientData {
            rows: n,
            required: 2,
        });
    }
    let means = column_means(obs);
    let mut ss = vec![0.0; p];
    for r in 0..n {
        for (j, (&x, &m)) in obs.row(r).iter().zip(&means).enumerate() {
            let d = x - m;
            ss[j] += d * d;
        }
    }
    let inv = 1.0 / (n - 1) as f64;
    crate::vector::scale(&mut ss, inv);
    Ok(ss)
}

/// Subtract every column's mean ([`column_means`]) from it in place and
/// return the means — the one pass over a window that both
/// [`covariance_matrix`] and a trainer cutting the window into blocks
/// ([`centred_covariance`]) need.
pub fn centre_columns(obs: &mut Matrix) -> Vec<f64> {
    let means = column_means(obs);
    for r in 0..obs.rows() {
        for (v, m) in obs.row_mut(r).iter_mut().zip(&means) {
            *v -= m;
        }
    }
    means
}

/// Edge of the Gram kernel's accumulator tile: 4 × 4 sums fit the register
/// file, so the row loop runs over them without touching memory.
const TILE: usize = 4;

/// Sample covariance matrix of an observation matrix (`n` rows of `p`
/// sensors), with the usual `n - 1` denominator.
///
/// This is the first step of the paper's offline training: "model estimation
/// of each sensor on each unit begins by calculating the covariance matrix
/// of each data set" (§IV-A). The computation is `Xc' * Xc / (n-1)` where
/// `Xc` is the column-centred data: [`centre_columns`] on a copy, then
/// [`centred_covariance`] over all of its columns.
///
/// Verified against [`covariance_naive`] to `1e-9` by the differential
/// suite.
pub fn covariance_matrix(obs: &Matrix) -> Result<Matrix> {
    let mut centred = obs.clone();
    centre_columns(&mut centred);
    centred_covariance(&centred, 0..obs.cols())
}

/// Sample covariance (`n - 1` denominator) of the columns `cols` of an
/// **already centred** matrix ([`centre_columns`]): a `cols.len()`-square
/// matrix, read in place out of the wider one.
///
/// A **register-tiled Gram kernel**: the upper triangle is cut into
/// `TILE × TILE` tiles and each tile's sums stay in locals while the row
/// loop runs innermost, reading two short contiguous runs of every row.
/// Each element adds its `n` products in row order, multiply then add, so
/// the result does not depend on the tiling (nor on which columns surround
/// `cols`); the lower triangle is the mirror of the upper one, exactly.
///
/// # Panics
/// Panics if `cols` reaches past the matrix's last column.
pub fn centred_covariance(centred: &Matrix, cols: Range<usize>) -> Result<Matrix> {
    let (n, p) = centred.shape();
    if n < 2 {
        return Err(LinalgError::InsufficientData {
            rows: n,
            required: 2,
        });
    }
    assert!(cols.end <= p, "column range past the matrix");
    let inv = 1.0 / (n - 1) as f64;
    let mut cov = Matrix::zeros(cols.len(), cols.len());
    for i0 in cols.clone().step_by(TILE) {
        for j0 in (i0..cols.end).step_by(TILE) {
            let acc = gram_tile(centred, i0, j0, cols.end);
            for (i, acc_row) in (i0..cols.end).zip(&acc) {
                for (j, &sum) in (j0..cols.end).zip(acc_row) {
                    if j >= i {
                        let v = sum * inv;
                        cov.set(i - cols.start, j - cols.start, v);
                        cov.set(j - cols.start, i - cols.start, v);
                    }
                }
            }
        }
    }
    Ok(cov)
}

/// `acc[a][b] = Σ_r x[r][i0 + a] · x[r][j0 + b]` over every row, for the
/// up to `TILE` columns from `i0` and from `j0` that lie before `end`
/// (sums past it stay zero).
fn gram_tile(x: &Matrix, i0: usize, j0: usize, end: usize) -> [[f64; TILE]; TILE] {
    let mut acc = [[0.0; TILE]; TILE];
    let rows = x.as_slice().chunks_exact(x.cols());
    if i0 + TILE <= end && j0 + TILE <= end {
        for row in rows {
            let xi: &[f64; TILE] = row[i0..i0 + TILE].try_into().expect("TILE wide");
            let xj: &[f64; TILE] = row[j0..j0 + TILE].try_into().expect("TILE wide");
            for (acc_row, &a) in acc.iter_mut().zip(xi) {
                for (sum, &b) in acc_row.iter_mut().zip(xj) {
                    *sum += a * b;
                }
            }
        }
    } else {
        // Edge tiles of a width that is no multiple of TILE.
        let (i1, j1) = ((i0 + TILE).min(end), (j0 + TILE).min(end));
        for row in rows {
            let xj = &row[j0..j1];
            for (acc_row, &a) in acc.iter_mut().zip(&row[i0..i1]) {
                for (sum, &b) in acc_row.iter_mut().zip(xj) {
                    *sum += a * b;
                }
            }
        }
    }
    acc
}

/// Unblocked reference covariance: explicit transpose, one full-length dot
/// product per upper-triangle element. The differential baseline for
/// [`covariance_matrix`].
pub fn covariance_naive(obs: &Matrix) -> Result<Matrix> {
    let (n, p) = obs.shape();
    if n < 2 {
        return Err(LinalgError::InsufficientData {
            rows: n,
            required: 2,
        });
    }
    let means = column_means(obs);
    let mut centred = obs.clone();
    for r in 0..n {
        for (v, m) in centred.row_mut(r).iter_mut().zip(&means) {
            *v -= m;
        }
    }
    let centred_t = centred.transpose(); // p x n, rows are sensor series
    let inv = 1.0 / (n - 1) as f64;
    let mut cov = Matrix::zeros(p, p);
    for i in 0..p {
        let xi = centred_t.row(i);
        for j in i..p {
            let v = crate::vector::dot(xi, centred_t.row(j)) * inv;
            cov.set(i, j, v);
            cov.set(j, i, v);
        }
    }
    Ok(cov)
}

/// Standardise columns in place to zero mean and unit sample variance.
///
/// Columns with variance below `eps` are centred but not scaled (their
/// standard deviation is treated as 1), so constant sensors do not blow up.
/// Returns the per-column `(mean, std)` used.
pub fn standardize_columns(obs: &mut Matrix, eps: f64) -> Result<Vec<(f64, f64)>> {
    let vars = column_variances(obs)?;
    let means = column_means(obs);
    let params: Vec<(f64, f64)> = means
        .iter()
        .zip(&vars)
        .map(|(&m, &v)| (m, if v > eps { v.sqrt() } else { 1.0 }))
        .collect();
    for r in 0..obs.rows() {
        for (v, &(m, s)) in obs.row_mut(r).iter_mut().zip(&params) {
            *v = (*v - m) / s;
        }
    }
    Ok(params)
}

/// Expand a packed lower-triangular accumulator (row-major:
/// `[a00, a10, a11, a20, a21, a22, …]`, `len·(len+1)/2` entries) into a
/// full symmetric [`Matrix`], multiplying every entry by `scale`.
///
/// This is the shape streaming Welford/Chan trainers keep their
/// co-moment blocks in; passing `scale = 1/(n-1)` turns the accumulator
/// directly into a sample covariance block.
pub fn symmetric_from_packed_lower(len: usize, packed: &[f64], scale: f64) -> Result<Matrix> {
    let expected = len * (len + 1) / 2;
    if packed.len() != expected {
        return Err(LinalgError::ShapeMismatch {
            op: "symmetric_from_packed_lower",
            lhs: (len, len),
            rhs: (packed.len(), 1),
        });
    }
    let mut out = Matrix::zeros(len, len);
    let mut idx = 0;
    for i in 0..len {
        for j in 0..=i {
            let v = packed[idx] * scale;
            out.set(i, j, v);
            out.set(j, i, v);
            idx += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[2.0, 8.0], &[4.0, 10.0], &[6.0, 12.0], &[8.0, 14.0]]).unwrap()
    }

    #[test]
    fn means_are_columnwise() {
        assert_eq!(column_means(&sample()), vec![5.0, 11.0]);
    }

    #[test]
    fn packed_lower_expands_symmetrically() {
        let packed = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = symmetric_from_packed_lower(3, &packed, 2.0).unwrap();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.get(1, 1), 6.0);
        assert_eq!(m.get(2, 0), 8.0);
        assert_eq!(m.get(2, 1), 10.0);
        assert_eq!(m.get(1, 2), 10.0);
        assert_eq!(m.get(2, 2), 12.0);
    }

    #[test]
    fn packed_lower_rejects_wrong_length() {
        assert!(matches!(
            symmetric_from_packed_lower(3, &[1.0, 2.0], 1.0),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn variance_matches_hand_computation() {
        // Column values 2,4,6,8: mean 5, SS = 9+1+1+9 = 20, var = 20/3.
        let v = column_variances(&sample()).unwrap();
        assert!((v[0] - 20.0 / 3.0).abs() < 1e-12);
        assert!((v[1] - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        let cov = covariance_matrix(&sample()).unwrap();
        // Second column is first + 6, so all four entries equal the variance.
        let expect = 20.0 / 3.0;
        for i in 0..2 {
            for j in 0..2 {
                assert!((cov.get(i, j) - expect).abs() < 1e-12);
            }
        }
        assert!(cov.is_symmetric(1e-12));
    }

    #[test]
    fn covariance_requires_two_rows() {
        let one = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(matches!(
            covariance_matrix(&one),
            Err(LinalgError::InsufficientData {
                rows: 1,
                required: 2
            })
        ));
    }

    #[test]
    fn tiled_covariance_matches_naive_reference() {
        let mut seed = 11u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        // p below, at and off a multiple of the kernel's tile edge.
        for (n, p) in [(50, 7), (40, 64), (30, 65), (25, 130)] {
            let data: Vec<f64> = (0..n * p).map(|_| next()).collect();
            let obs = Matrix::from_vec(n, p, data).unwrap();
            let tiled = covariance_matrix(&obs).unwrap();
            let naive = covariance_naive(&obs).unwrap();
            assert!(tiled.max_abs_diff(&naive).unwrap() < 1e-9, "n={n} p={p}");
            assert!(tiled.is_symmetric(0.0), "mirrored triangle is exact");
        }
    }

    #[test]
    fn tiled_covariance_matches_naive_on_ill_conditioned_columns() {
        // Columns spanning twelve orders of magnitude plus a constant one.
        let n = 64;
        let p = 80;
        let mut obs = Matrix::zeros(n, p);
        for r in 0..n {
            for j in 0..p {
                let base = 10f64.powi((j % 13) as i32 - 6);
                let v = if j == p - 1 {
                    42.0
                } else {
                    base * ((r * 31 + j * 17) % 101) as f64
                };
                obs.set(r, j, v);
            }
        }
        let tiled = covariance_matrix(&obs).unwrap();
        let naive = covariance_naive(&obs).unwrap();
        let scale = naive.frobenius_norm().max(1.0);
        assert!(tiled.max_abs_diff(&naive).unwrap() / scale < 1e-9);
    }

    #[test]
    fn standardize_yields_zero_mean_unit_variance() {
        let mut m = sample();
        standardize_columns(&mut m, 1e-12).unwrap();
        let means = column_means(&m);
        let vars = column_variances(&m).unwrap();
        for j in 0..2 {
            assert!(means[j].abs() < 1e-12);
            assert!((vars[j] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standardize_leaves_constant_column_finite() {
        let mut m = Matrix::from_rows(&[&[3.0, 1.0], &[3.0, 2.0], &[3.0, 3.0]]).unwrap();
        standardize_columns(&mut m, 1e-12).unwrap();
        for r in 0..3 {
            assert_eq!(m.get(r, 0), 0.0);
            assert!(m.get(r, 1).is_finite());
        }
    }
}
