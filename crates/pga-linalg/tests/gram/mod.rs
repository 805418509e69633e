//! The cache-tiled Gram update `pga_linalg::covariance_matrix` was until
//! ISSUE 24, kept as the model the register-tiled kernel is compared with,
//! bit for bit: 64 × 64 column tiles, each accumulating rank-1 updates row
//! by row in memory, both triangles of a diagonal tile computed and one
//! thrown away, a zero left factor skipped.

use pga_linalg::{axpy, column_means, Matrix};

const COV_BLOCK: usize = 64;

/// Sample covariance (`n - 1` denominator) of an observation matrix of at
/// least two rows.
pub fn tiled_covariance(obs: &Matrix) -> Matrix {
    let (n, p) = obs.shape();
    assert!(n >= 2, "the model takes two rows or more");
    let means = column_means(obs);
    let mut centred = obs.clone();
    for r in 0..n {
        for (v, m) in centred.row_mut(r).iter_mut().zip(&means) {
            *v -= m;
        }
    }
    let inv = 1.0 / (n - 1) as f64;
    let mut cov = Matrix::zeros(p, p);
    for i0 in (0..p).step_by(COV_BLOCK) {
        for j0 in (i0..p).step_by(COV_BLOCK) {
            let i1 = (i0 + COV_BLOCK).min(p);
            let j1 = (j0 + COV_BLOCK).min(p);
            let w = j1 - j0;
            // acc[(i - i0) * w + (j - j0)] accumulates sum_r x[r][i]*x[r][j].
            let mut acc = vec![0.0; (i1 - i0) * w];
            for r in 0..n {
                let row = centred.row(r);
                let xj = &row[j0..j1];
                for (bi, &xi) in row[i0..i1].iter().enumerate() {
                    if xi == 0.0 {
                        continue;
                    }
                    axpy(xi, xj, &mut acc[bi * w..(bi + 1) * w]);
                }
            }
            for i in i0..i1 {
                for j in j0.max(i)..j1 {
                    let v = acc[(i - i0) * w + (j - j0)] * inv;
                    cov.set(i, j, v);
                    cov.set(j, i, v);
                }
            }
        }
    }
    cov
}
