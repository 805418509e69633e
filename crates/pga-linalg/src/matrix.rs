//! Row-major dense matrix with a cache-tiled multiply kernel.

use serde::{Deserialize, Serialize};

use crate::{LinalgError, Result};

/// Row-major dense `f64` matrix.
///
/// Rows are contiguous, so `&self.data[r * cols .. (r + 1) * cols]` is row
/// `r`. This layout makes row iteration and matrix–vector products cache
/// friendly, which is what the online evaluator's hot loop needs.
///
/// ```
/// use pga_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b).unwrap(), a);
/// assert_eq!(a.matvec(&[1.0, 0.0]).unwrap(), vec![1.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Tile edge (in elements) for the blocked multiply. 64 doubles = 512 bytes
/// per row segment, three tiles fit comfortably in a typical 32 KiB L1.
const BLOCK: usize = 64;

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Returns a shape error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a matrix from nested row slices (mostly for tests).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (r, c),
                    rhs: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Matrix::from_vec(r, c, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Borrow the full row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                t.data[c * self.rows + r] = v;
            }
        }
        t
    }

    /// Elementwise sum. Shapes must match.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise difference. Shapes must match.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| crate::vector::dot(self.row(r), x))
            .collect())
    }

    /// Textbook triple-loop multiply (ijk, dot-product inner loop).
    ///
    /// Deliberately unoptimised: this is the differential baseline the
    /// tiled kernels are verified against (within `1e-9` elementwise),
    /// kept simple enough to audit by eye.
    pub fn naive_matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "naive_matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        Ok(out)
    }

    /// The cache-tiled multiply kernel over one horizontal band of the
    /// output: rows `i0..i0+out_rows.len()/n` of `self * other`.
    ///
    /// Loop order is `k0 → i → k → j-tile`: the `k`-tile of `other` (at
    /// most `BLOCK` rows) is streamed repeatedly while resident in cache,
    /// and each inner `axpy` runs over a contiguous `j`-tile of both the
    /// output row and `other`'s row, so the working set per iteration is
    /// three `BLOCK`-length slices — sized for L1.
    fn matmul_band(&self, other: &Matrix, i0: usize, out_rows: &mut [f64]) {
        let n = other.cols;
        let band = out_rows.len() / n.max(1);
        let mut k0 = 0;
        while k0 < self.cols {
            let k1 = (k0 + BLOCK).min(self.cols);
            for bi in 0..band {
                let a_row = self.row(i0 + bi);
                let out_row = &mut out_rows[bi * n..(bi + 1) * n];
                for (k, &aik) in a_row.iter().enumerate().take(k1).skip(k0) {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = other.row(k);
                    let mut j0 = 0;
                    while j0 < n {
                        let j1 = (j0 + BLOCK).min(n);
                        crate::vector::axpy(aik, &b_row[j0..j1], &mut out_row[j0..j1]);
                        j0 = j1;
                    }
                }
            }
            k0 = k1;
        }
    }

    /// Serial cache-tiled matrix multiply `self * other`.
    ///
    /// One band of `BLOCK` output rows at a time through
    /// [`Matrix::matmul_band`].
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let n = other.cols;
        let mut out = Matrix::zeros(self.rows, n);
        for (band, chunk) in out.data.chunks_mut(BLOCK * n.max(1)).enumerate() {
            self.matmul_band(other, band * BLOCK, chunk);
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element difference against another matrix; `None`
    /// when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.shape() != other.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Check symmetry to a tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap();
        assert_eq!(c, expected);
    }

    /// Deterministic pseudo-random fill without pulling in rand here.
    fn fill(m: &mut Matrix, seed: &mut u64) {
        for v in &mut m.data {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((*seed >> 33) as f64) / (u32::MAX as f64) - 0.5;
        }
    }

    #[test]
    fn tiled_matmul_matches_naive_reference() {
        let mut seed = 7u64;
        for (m, k, n) in [(37, 53, 29), (70, 64, 70), (128, 100, 3)] {
            let mut a = Matrix::zeros(m, k);
            let mut b = Matrix::zeros(k, n);
            fill(&mut a, &mut seed);
            fill(&mut b, &mut seed);
            let naive = a.naive_matmul(&b).unwrap();
            let tiled = a.matmul(&b).unwrap();
            assert!(naive.max_abs_diff(&tiled).unwrap() < 1e-9, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_matmul_matches_naive_on_ill_conditioned_input() {
        // Hilbert-like matrix times its transpose: wildly varying element
        // magnitudes stress summation-order differences.
        let p = 70;
        let mut h = Matrix::zeros(p, p);
        for i in 0..p {
            for j in 0..p {
                h.set(
                    i,
                    j,
                    1.0 / (i + j + 1) as f64 * if (i + j) % 2 == 0 { 1e6 } else { 1e-6 },
                );
            }
        }
        let ht = h.transpose();
        let naive = h.naive_matmul(&ht).unwrap();
        let tiled = h.matmul(&ht).unwrap();
        let scale = naive.frobenius_norm().max(1.0);
        assert!(naive.max_abs_diff(&tiled).unwrap() / scale < 1e-9);
    }

    #[test]
    fn degenerate_shapes_multiply_cleanly() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        assert_eq!(a.matmul(&b).unwrap(), Matrix::zeros(3, 4));
        let e = Matrix::zeros(0, 5);
        let f = Matrix::zeros(5, 0);
        assert_eq!(e.matmul(&f).unwrap(), Matrix::zeros(0, 0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let x = vec![7.0, -2.0];
        assert_eq!(a.matvec(&x).unwrap(), vec![3.0, 13.0, 23.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.5, 3.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-9));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.0]]).unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.sub(&b).unwrap(), a);
    }
}
