//! Property-based tests over the linear algebra kernels.

use pga_linalg::{covariance_matrix, svd, CholeskyFactor, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with bounded entries and shape.
fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(8), b in matrix(8)) {
        // (AB)' = B'A'
        if a.cols() == b.rows() {
            let lhs = a.matmul(&b).unwrap().transpose();
            let rhs = b.transpose().matmul(&a.transpose()).unwrap();
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-9);
        }
    }

    #[test]
    fn covariance_is_symmetric_psd_diagonal(m in matrix(8)) {
        if m.rows() >= 2 {
            let cov = covariance_matrix(&m).unwrap();
            prop_assert!(cov.is_symmetric(1e-9));
            for i in 0..cov.rows() {
                prop_assert!(cov.get(i, i) >= -1e-9, "negative variance at {}", i);
            }
        }
    }

    #[test]
    fn svd_reconstructs_input(m in matrix(8)) {
        let d = svd(&m).unwrap();
        let scale = m.frobenius_norm().max(1.0);
        prop_assert!(d.reconstruct().max_abs_diff(&m).unwrap() / scale < 1e-8);
        for w in d.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn gram_matrix_cholesky_roundtrip(m in matrix(6)) {
        // A'A + eps*I is symmetric positive definite.
        let gram = m.transpose().matmul(&m).unwrap();
        let n = gram.rows();
        let mut spd = gram;
        for i in 0..n {
            let v = spd.get(i, i) + 1.0;
            spd.set(i, i, v);
        }
        let ch = CholeskyFactor::new(&spd).unwrap();
        let llt = ch.lower().matmul(&ch.lower().transpose()).unwrap();
        let scale = spd.frobenius_norm().max(1.0);
        prop_assert!(llt.max_abs_diff(&spd).unwrap() / scale < 1e-10);
    }
}
