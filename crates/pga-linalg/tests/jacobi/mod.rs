//! The cyclic Jacobi eigendecomposition that `pga_linalg::eigh` used to be,
//! kept as the model the tridiagonal-QL solver is tested against (here, and
//! by path from `pga-detect/tests/solver_model.rs`). Jacobi computes even
//! the tiny eigenvalues of a PSD matrix to high relative accuracy, which is
//! what makes it the better oracle and, at ~8 sweeps of n²/2 rotations, the
//! slower product. The only change from the product version is the
//! tolerance (1e-14, not 1e-12: the model has to be tighter than the
//! 1e-12·‖A‖ the tests hold the solver to).

use pga_linalg::Matrix;

/// Stop when the off-diagonal Frobenius norm falls below this, relative to
/// the matrix norm.
const TOL: f64 = 1e-14;
/// Hard cap on full sweeps; convergence is typically < 15 sweeps.
const MAX_SWEEPS: usize = 64;

/// Eigenvalues (descending) and matching eigenvector columns of the
/// symmetric `a`. Norms are Frobenius norms, so entries whose squares
/// over- or underflow are out of its range: scale such input first.
pub fn jacobi_eigh(a: &Matrix) -> (Vec<f64>, Matrix) {
    assert!(a.is_square(), "jacobi_eigh needs a square matrix");
    let n = a.rows();
    let mut m = a.clone();
    // Symmetrise to guard against tiny asymmetries from upstream arithmetic.
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (m.get(i, j) + m.get(j, i));
            m.set(i, j, avg);
            m.set(j, i, avg);
        }
    }
    let mut v = Matrix::identity(n);
    let norm = m.frobenius_norm().max(f64::MIN_POSITIVE);
    for _sweep in 0..MAX_SWEEPS {
        if off_diagonal_norm(&m) <= TOL * norm {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq == 0.0 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Rotation angle that annihilates (p,q).
                let theta = 0.5 * (aqq - app) / apq;
                let t = {
                    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                apply_rotation(&mut m, p, q, c, s);
                rotate_columns(&mut v, p, q, c, s);
            }
        }
    }
    // Extract and sort.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            vectors.set(r, new_col, v.get(r, old_col));
        }
    }
    (values, vectors)
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let v = m.get(i, j);
            s += 2.0 * v * v;
        }
    }
    s.sqrt()
}

/// Apply the symmetric similarity transform `Jᵀ M J` for the Givens rotation
/// in the (p, q) plane.
fn apply_rotation(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    let app = m.get(p, p);
    let aqq = m.get(q, q);
    let apq = m.get(p, q);
    let new_pp = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    let new_qq = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    m.set(p, p, new_pp);
    m.set(q, q, new_qq);
    m.set(p, q, 0.0);
    m.set(q, p, 0.0);
    for k in 0..n {
        if k == p || k == q {
            continue;
        }
        let akp = m.get(k, p);
        let akq = m.get(k, q);
        let np = c * akp - s * akq;
        let nq = s * akp + c * akq;
        m.set(k, p, np);
        m.set(p, k, np);
        m.set(k, q, nq);
        m.set(q, k, nq);
    }
}

/// Post-multiply `v` by the rotation: columns p and q mix.
fn rotate_columns(v: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    for k in 0..v.rows() {
        let vkp = v.get(k, p);
        let vkq = v.get(k, q);
        v.set(k, p, c * vkp - s * vkq);
        v.set(k, q, s * vkp + c * vkq);
    }
}
