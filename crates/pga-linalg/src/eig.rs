//! Symmetric eigendecomposition: Householder tridiagonalisation followed by
//! implicit-shift QL with accumulated transformations (EISPACK's `tred2` and
//! `tql2`).
//!
//! The paper performs SVD on covariance matrices (§IV-A). A covariance
//! matrix is symmetric positive semi-definite, so its SVD coincides with its
//! eigendecomposition. One reduction to tridiagonal form (~4/3·n³ flops,
//! as many again to accumulate it) and about two QL iterations per
//! eigenvalue (~3·n³ for the vectors) replace the ~8 sweeps of n²/2 plane
//! rotations a cyclic Jacobi method needs at the detector's block size.
//! Eigenvalues come out to eps·‖A‖ absolute accuracy (see DESIGN §6 for why
//! that is enough under the detector's `λ > 1e-9` cut).
//!
//! Each QL rotation needs `r = √(p² + e²)` and the cosine and sine `p/r`,
//! `e/r`. While the larger operand lies in `[2^-500, 2^500)` the squares
//! and their sum are normal and finite, so `r` is the plain square root
//! (`radius`); libm's `hypot`, which rescales to stay clear of under- and
//! overflow, runs only outside that range. One reciprocal of `r` and two
//! multiplies replace the two divisions. Against `hypot` and division the
//! eigenvalues move by at most ~1e-14 relative and the QL iteration count
//! does not change (DESIGN §6 has the measured drift). With the Wilkinson
//! update's `e[l] / dl1` taken first, no other step multiplies two entries
//! together, and inputs scaled by 2^±520 decompose to the same accuracy as
//! unit-scale ones (`tests/eigh_model.rs`).

use crate::{LinalgError, Matrix, Result};

/// QL iterations allowed per eigenvalue before giving up — the classical
/// EISPACK constant; well-conditioned input needs about two.
const MAX_QL_ITERATIONS: usize = 30;

/// Result of a symmetric eigendecomposition `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct EigResult {
    /// Eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, in the order of `values`.
    pub vectors: Matrix,
    /// QL iterations performed, summed over all eigenvalues.
    pub iterations: usize,
}

/// Symmetric eigendecomposition via tridiagonal QL.
///
/// Returns eigenvalues sorted descending with matching eigenvector columns.
/// The input must be square and finite; symmetry is assumed (the two
/// triangles are averaged once up front, and only the lower one is read
/// afterwards). An eigenvalue that has not converged after 30 QL iterations
/// is a [`LinalgError::NoConvergence`].
pub fn eigh(a: &Matrix) -> Result<EigResult> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if a.as_slice().iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    let n = a.rows();
    let mut z = a.as_slice().to_vec();
    for i in 0..n {
        for j in 0..i {
            z[i * n + j] = 0.5 * z[i * n + j] + 0.5 * z[j * n + i];
        }
    }
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(&mut z, n, &mut d, &mut e);
    // The QL rotations mix two columns of the accumulated transformation;
    // held transposed, those are two contiguous rows.
    for i in 0..n {
        for j in 0..i {
            z.swap(i * n + j, j * n + i);
        }
    }
    let iterations = ql_implicit(&mut d, &mut e, &mut z, n)?;

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = vec![0.0; n * n];
    for (new_col, &old) in order.iter().enumerate() {
        for (r, &v) in z[old * n..(old + 1) * n].iter().enumerate() {
            vectors[r * n + new_col] = v;
        }
    }
    Ok(EigResult {
        values,
        vectors: Matrix::from_vec(n, n, vectors)?,
        iterations,
    })
}

/// Householder reduction of the symmetric matrix in the lower triangle of
/// the row-major `z` to tridiagonal form (`tred2`). On return `d` holds the
/// diagonal, `e[1..]` the sub-diagonal (`e[0] = 0`), and `z` the orthogonal
/// matrix `Q` with `A = Q T Qᵀ`.
fn tridiagonalize(z: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for i in (1..n).rev() {
        let (head, tail) = z.split_at_mut(i * n);
        let u = &mut tail[..i];
        // Scaling the row keeps h = |u|² clear of under- and overflow.
        let scale: f64 = u.iter().map(|x| x.abs()).sum();
        if i == 1 || scale == 0.0 {
            e[i] = u[i - 1];
            d[i] = 0.0;
            continue;
        }
        let mut h = 0.0;
        for x in u.iter_mut() {
            *x /= scale;
            h += *x * *x;
        }
        let f = u[i - 1];
        let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
        e[i] = scale * g;
        h -= f * g;
        u[i - 1] = f - g;
        // e[..i] = A·u / h from the lower triangle alone: row j gives its
        // own dot product and its column's share of every earlier entry.
        e[..i].fill(0.0);
        for j in 0..i {
            let row = &head[j * n..j * n + j + 1];
            let uj = u[j];
            let mut g = row[j] * uj;
            for k in 0..j {
                g += row[k] * u[k];
                e[k] += row[k] * uj;
            }
            e[j] += g;
        }
        let mut f = 0.0;
        for j in 0..i {
            e[j] /= h;
            f += e[j] * u[j];
        }
        let hh = f / (h + h);
        for j in 0..i {
            e[j] -= hh * u[j];
        }
        // A ← A − u·qᵀ − q·uᵀ on the remaining lower triangle; column i
        // keeps u/h for the accumulation below.
        for j in 0..i {
            let (f, g) = (u[j], e[j]);
            let row = &mut head[j * n..(j + 1) * n];
            for k in 0..=j {
                row[k] -= f * e[k] + g * u[k];
            }
            row[i] = f / h;
        }
        d[i] = h;
    }
    if n > 0 {
        e[0] = 0.0; // scratch until here; d[0] was never written
    }
    // Accumulate the reflections into Q, leading block by leading block.
    let mut g = vec![0.0; n];
    for i in 0..n {
        let (head, tail) = z.split_at_mut(i * n);
        let u = &mut tail[..n];
        if d[i] != 0.0 {
            g[..i].fill(0.0);
            for k in 0..i {
                let uk = u[k];
                for (gj, &q) in g[..i].iter_mut().zip(&head[k * n..k * n + i]) {
                    *gj += uk * q;
                }
            }
            for k in 0..i {
                let row = &mut head[k * n..(k + 1) * n];
                let w = row[i];
                for (q, &gj) in row[..i].iter_mut().zip(&g[..i]) {
                    *q -= gj * w;
                }
            }
        }
        d[i] = u[i];
        u[..i].fill(0.0);
        u[i] = 1.0;
        for k in 0..i {
            head[k * n + i] = 0.0;
        }
    }
}

/// `2^500`: below it the square of either operand of [`radius`], and the
/// sum of both squares, stay finite (`< 2^1001`).
const RADIUS_HI: f64 = f64::from_bits((1023 + 500) << 52);

/// `2^-500`: from it up, the larger operand's square stays a normal number
/// (`≥ 2^-1000`); whatever of the smaller one's square underflows lies
/// below the sum's last bit.
const RADIUS_LO: f64 = f64::from_bits((1023 - 500) << 52);

/// `√(a² + b²)` for a QL rotation: the plain square root of the sum of
/// squares wherever the larger operand lies in `[2^-500, 2^500)`, libm's
/// `hypot` (which rescales to avoid under- and overflow, at a higher cost)
/// only outside it. Inside the range the two agree to about one
/// unit in the last place.
#[inline]
fn radius(a: f64, b: f64) -> f64 {
    let big = a.abs().max(b.abs());
    if (RADIUS_LO..RADIUS_HI).contains(&big) {
        (a * a + b * b).sqrt()
    } else {
        a.hypot(b)
    }
}

/// Implicit-shift QL on the tridiagonal `(d, e)` (`tql2`), applying every
/// rotation to the rows of `zt` (the transposed eigenvector accumulator).
/// Returns the number of iterations; on return `d` holds the eigenvalues,
/// unsorted, and row `k` of `zt` the eigenvector of `d[k]`.
fn ql_implicit(d: &mut [f64], e: &mut [f64], zt: &mut [f64], n: usize) -> Result<usize> {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    if n > 0 {
        e[n - 1] = 0.0;
    }
    let mut iterations = 0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find the first negligible sub-diagonal element at or after l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let negligible = |x: f64| x.abs() <= f64::EPSILON * tst1;
        let mut m = l;
        while m + 1 < n && !negligible(e[m]) {
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                if iter == MAX_QL_ITERATIONS {
                    return Err(LinalgError::NoConvergence { iterations: iter });
                }
                iter += 1;
                // Implicit (Wilkinson) shift.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = radius(p, 1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let shift = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= shift;
                }
                f += shift;
                // The QL sweep from m down to l.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    r = radius(p, e[i]);
                    e[i + 1] = s * r;
                    let inv = 1.0 / r;
                    s = e[i] * inv;
                    c = p * inv;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (lo, hi) = zt[i * n..(i + 2) * n].split_at_mut(n);
                    for (a, b) in lo.iter_mut().zip(hi) {
                        let t = *b;
                        *b = s * *a + c * t;
                        *a = c * *a - s * t;
                    }
                }
                // `dl1` is `e[l]` times the shift's `p + r`: dividing the
                // two first cancels their scale, where `el1 · e[l]` would
                // overflow (or underflow) for entries past 2^±511.
                p = -s * s2 * c3 * el1 * (e[l] / dl1);
                e[l] = s * p;
                d[l] = c * p;
                if negligible(e[l]) {
                    break;
                }
            }
            iterations += iter;
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &EigResult) -> Matrix {
        let n = e.values.len();
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam.set(i, i, e.values[i]);
        }
        e.vectors
            .matmul(&lam)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap()
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]).unwrap();
        let e = eigh(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        assert_eq!(e.iterations, 0);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = eigh(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        assert!(reconstruct(&e).max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.25], &[0.5, 0.25, 2.0]]).unwrap();
        let e = eigh(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn reconstruction_of_random_symmetric_matrix() {
        let n = 12;
        let mut x = 7u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
        let e = eigh(&a).unwrap();
        assert!(reconstruct(&e).max_abs_diff(&a).unwrap() < 1e-9);
        // Sorted descending.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(eigh(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn non_finite_input_is_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let a = Matrix::from_rows(&[&[1.0, bad], &[bad, 1.0]]).unwrap();
            assert_eq!(eigh(&a).unwrap_err(), LinalgError::NonFinite);
        }
    }

    #[test]
    fn radius_agrees_with_hypot_across_the_guard() {
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1) - x;
        for exp in [
            -1030, -520, -501, -500, -499, -1, 0, 1, 499, 500, 501, 520, 1020,
        ] {
            let big = 2.0f64.powi(exp);
            for (a, b) in [
                (big, big),
                (big, 0.75 * big),
                (-big, 3.0 * f64::EPSILON * big),
                (0.999 * big, -1e-3 * big),
                (big, 0.0),
                (1.0, big),
            ] {
                let (got, want) = (radius(a, b), a.hypot(b));
                assert!(
                    (got - want).abs() <= ulp(want),
                    "radius({a:e}, {b:e}) = {got:e}, hypot {want:e}"
                );
            }
        }
        assert_eq!(radius(0.0, 0.0), 0.0);
        assert_eq!(radius(f64::MAX, f64::MAX), f64::MAX.hypot(f64::MAX));
        assert_eq!(radius(f64::MIN_POSITIVE, 0.0), f64::MIN_POSITIVE);
    }

    #[test]
    fn trace_is_preserved() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, -1.0]]).unwrap();
        let e = eigh(&a).unwrap();
        let trace = 5.0 + (-1.0);
        assert!((e.values.iter().sum::<f64>() - trace).abs() < 1e-10);
    }
}
