//! Model test: the tridiagonal-QL `eigh` against the cyclic Jacobi method it
//! replaced (`jacobi/mod.rs`), over the shapes the detector meets and the
//! ones that break eigensolvers.

mod jacobi;

use jacobi::jacobi_eigh;
use pga_linalg::{covariance_matrix, eigh, equicorrelation, CholeskyFactor, LinalgError, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_symmetric(n: usize, rng: &mut StdRng) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.gen_range(-1.0..1.0);
            a.set(i, j, v);
            a.set(j, i, v);
        }
    }
    a
}

/// Sample covariance of `rows` observations of `n` equicorrelated sensors —
/// what the trainer hands the solver for one block.
fn block_covariance(n: usize, rows: usize, rho: f64, rng: &mut StdRng) -> Matrix {
    let factor = CholeskyFactor::new(&equicorrelation(n, rho)).unwrap();
    let mut obs = Matrix::zeros(rows, n);
    for r in 0..rows {
        let white: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mixed = factor.lower().matvec(&white).unwrap();
        obs.row_mut(r).copy_from_slice(&mixed);
    }
    covariance_matrix(&obs).unwrap()
}

/// Scale every entry by `2^exp`: exact, so eigenvalues scale exactly too.
fn scaled(a: &Matrix, exp: i32) -> Matrix {
    let k = 2.0f64.powi(exp);
    let data = a.as_slice().iter().map(|x| x * k).collect();
    Matrix::from_vec(a.rows(), a.cols(), data).unwrap()
}

/// Everything the issue requires of one decomposition of `a`, with `a`'s
/// norm taken after scaling by `2^-exp` (so 1e±150 inputs stay in range).
fn check(a: &Matrix, exp: i32, what: &str) {
    let n = a.rows();
    let e = eigh(a).unwrap_or_else(|err| panic!("{what}: {err}"));
    assert_eq!(e.values.len(), n, "{what}");
    assert_eq!(e.vectors.shape(), (n, n), "{what}");
    assert!(e.values.windows(2).all(|w| w[0] >= w[1]), "{what}: order");

    let unit = scaled(a, -exp);
    let norm = unit.frobenius_norm();
    let tol = 1e-12 * norm;
    let k = 2.0f64.powi(-exp);
    let values: Vec<f64> = e.values.iter().map(|v| v * k).collect();

    let (model_values, _) = jacobi_eigh(&unit);
    for (i, (v, m)) in values.iter().zip(&model_values).enumerate() {
        assert!((v - m).abs() <= tol, "{what}: λ{i} {v} vs Jacobi {m}");
    }
    let mut lam = Matrix::zeros(n, n);
    for (i, &v) in values.iter().enumerate() {
        lam.set(i, i, v);
    }
    let vt = e.vectors.transpose();
    let rebuilt = e.vectors.matmul(&lam).unwrap().matmul(&vt).unwrap();
    let residual = rebuilt.sub(&unit).unwrap().frobenius_norm();
    assert!(residual <= tol, "{what}: ‖VΛVᵀ − A‖ = {residual:e}");
    let gram = vt.matmul(&e.vectors).unwrap();
    let drift = gram.sub(&Matrix::identity(n)).unwrap().frobenius_norm();
    assert!(drift <= 1e-12, "{what}: ‖VᵀV − I‖ = {drift:e}");
}

#[test]
fn random_symmetric_matrices_of_every_size() {
    let mut rng = StdRng::seed_from_u64(23);
    for n in 0..=48 {
        for rep in 0..3 {
            check(
                &random_symmetric(n, &mut rng),
                0,
                &format!("n={n} rep={rep}"),
            );
        }
    }
}

#[test]
fn covariances_of_correlated_blocks() {
    let mut rng = StdRng::seed_from_u64(7);
    for &(n, rows, rho) in &[
        (32, 300, 0.0),
        (32, 300, 0.6),
        (32, 100, 0.95),
        (17, 50, 0.3),
    ] {
        let cov = block_covariance(n, rows, rho, &mut rng);
        check(&cov, 0, &format!("cov n={n} rows={rows} rho={rho}"));
        assert!(eigh(&cov).unwrap().values[n - 1] > -1e-12, "PSD");
    }
    // Fewer rows than sensors: rank rows − 1, the rest of the spectrum null.
    let cov = block_covariance(32, 10, 0.5, &mut rng);
    check(&cov, 0, "rank-deficient covariance");
    let e = eigh(&cov).unwrap();
    assert!(e.values[9..].iter().all(|v| v.abs() < 1e-12), "null space");
}

#[test]
fn repeated_eigenvalues() {
    // Equicorrelation: one eigenvalue 1 + (n−1)ρ, then 1 − ρ, n − 1 times.
    let a = equicorrelation(24, 0.5);
    check(&a, 0, "equicorrelation");
    let e = eigh(&a).unwrap();
    assert!((e.values[0] - 12.5).abs() < 1e-12);
    assert!(e.values[1..].iter().all(|v| (v - 0.5).abs() < 1e-12));
    check(&Matrix::identity(16), 0, "identity");
    check(&Matrix::zeros(8, 8), 0, "zero");
}

#[test]
fn constant_sensor_makes_a_rank_deficient_block() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut obs = Matrix::zeros(120, 32);
    for r in 0..120 {
        for c in 0..32 {
            obs.set(
                r,
                c,
                if c == 5 {
                    42.0
                } else {
                    rng.gen_range(-1.0..1.0)
                },
            );
        }
    }
    let cov = covariance_matrix(&obs).unwrap();
    check(&cov, 0, "constant sensor");
    let e = eigh(&cov).unwrap();
    assert!(e.values[31].abs() < 1e-12, "λ of the constant sensor");
    // Its eigenvector is the sensor's own axis.
    assert!((e.vectors.get(5, 31).abs() - 1.0).abs() < 1e-12);
}

#[test]
fn diagonal_and_tridiagonal_input_need_no_reduction() {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 20;
    let mut diag = Matrix::zeros(n, n);
    let mut tri = Matrix::zeros(n, n);
    for i in 0..n {
        diag.set(i, i, rng.gen_range(-3.0..3.0));
        tri.set(i, i, rng.gen_range(-3.0..3.0));
        if i > 0 {
            let off = rng.gen_range(-1.0..1.0);
            tri.set(i, i - 1, off);
            tri.set(i - 1, i, off);
        }
    }
    check(&diag, 0, "diagonal");
    assert_eq!(eigh(&diag).unwrap().iterations, 0);
    check(&tri, 0, "tridiagonal");
}

#[test]
fn extreme_scales_keep_their_accuracy() {
    let mut rng = StdRng::seed_from_u64(31);
    // 2^±498 ≈ 1e±150: squares of the entries leave f64's range.
    for exp in [-498, 498] {
        check(
            &scaled(&random_symmetric(32, &mut rng), exp),
            exp,
            &format!("sym 2^{exp}"),
        );
        let cov = block_covariance(32, 200, 0.4, &mut rng);
        check(&scaled(&cov, exp), exp, &format!("cov 2^{exp}"));
    }
}

/// A QL rotation takes `√(p² + e²)` directly only while `max(|p|, |e|)`
/// lies in `[2^-500, 2^500)`, and falls back to `hypot` outside. The
/// operands are of the size of the entries and eigenvalues, so matrices
/// scaled across `2^±500` exercise both sides of each edge within one
/// decomposition, and at `2^±520` the fallback does nearly every rotation.
#[test]
fn rotations_on_both_sides_of_the_guard_keep_their_accuracy() {
    let mut rng = StdRng::seed_from_u64(37);
    let mut exps: Vec<i32> = (496..=504).chain([520]).collect();
    exps.extend(exps.clone().iter().map(|e| -e));
    for exp in exps {
        check(
            &scaled(&random_symmetric(32, &mut rng), exp),
            exp,
            &format!("sym 2^{exp}"),
        );
        let cov = block_covariance(32, 200, 0.6, &mut rng);
        check(&scaled(&cov, exp), exp, &format!("cov 2^{exp}"));
        let equi = scaled(&equicorrelation(24, 0.5), exp);
        check(&equi, exp, &format!("equicorrelation 2^{exp}"));
    }
}

#[test]
fn asymmetric_input_is_averaged() {
    let a = Matrix::from_rows(&[&[2.0, 1.5], &[0.5, 2.0]]).unwrap();
    let e = eigh(&a).unwrap();
    assert!((e.values[0] - 3.0).abs() < 1e-14 && (e.values[1] - 1.0).abs() < 1e-14);
}

#[test]
fn bad_input_is_a_typed_error() {
    assert_eq!(
        eigh(&Matrix::zeros(3, 4)).unwrap_err(),
        LinalgError::NotSquare { shape: (3, 4) }
    );
    let mut rng = StdRng::seed_from_u64(3);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = random_symmetric(6, &mut rng);
        a.set(4, 2, bad);
        assert_eq!(eigh(&a).unwrap_err(), LinalgError::NonFinite);
    }
}
