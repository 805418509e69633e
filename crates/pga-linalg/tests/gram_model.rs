//! Model test: the register-tiled `covariance_matrix` /
//! `centred_covariance` against the memory-tiled Gram update they replaced
//! (`gram/mod.rs`). Every element adds the same products in the same order,
//! so the comparison is by bit pattern, not tolerance.

mod gram;

use gram::tiled_covariance;
use pga_linalg::{centre_columns, centred_covariance, covariance_matrix, LinalgError, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_observations(n: usize, p: usize, rng: &mut StdRng) -> Matrix {
    let data = (0..n * p)
        .map(|_| rng.gen_range(-3.0..3.0) + 50.0)
        .collect();
    Matrix::from_vec(n, p, data).unwrap()
}

fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {k}: {g:e} vs {w:e}"
        );
    }
}

#[test]
fn every_small_shape_matches_the_model_bit_for_bit() {
    // p < 4, p % 4 ≠ 0 and p past the model's 64-column tile edge are all
    // in the grid.
    let mut rng = StdRng::seed_from_u64(24);
    for n in 2..=64 {
        for p in 1..=70 {
            let obs = random_observations(n, p, &mut rng);
            let got = covariance_matrix(&obs).unwrap();
            assert_same_bits(&got, &tiled_covariance(&obs), &format!("n={n} p={p}"));
            assert!(got.is_symmetric(0.0), "n={n} p={p}: mirrored triangle");
        }
    }
}

#[test]
fn constant_and_sparse_columns_centre_to_exact_zeros() {
    // The model skipped a zero left factor; the kernel adds its ±0 products.
    let mut rng = StdRng::seed_from_u64(25);
    for (n, p) in [(2, 1), (10, 5), (50, 37), (64, 70), (120, 75)] {
        let mut obs = random_observations(n, p, &mut rng);
        for r in 0..n {
            obs.set(r, 0, 42.0); // constant: centred to +0.0 everywhere
            if p > 2 {
                // A third above the mean, a third below, the rest on it:
                // centred to +1, -1 and exact zeros.
                let third = n / 3;
                let step = if r < third {
                    1.0
                } else if r < 2 * third {
                    -1.0
                } else {
                    0.0
                };
                obs.set(r, p / 2, 42.0 + step);
            }
        }
        let mut centred = obs.clone();
        centre_columns(&mut centred);
        assert!((0..n).all(|r| centred.get(r, 0).to_bits() == 0.0f64.to_bits()));
        if p > 2 && n >= 3 {
            let zeros = (0..n).filter(|&r| centred.get(r, p / 2) == 0.0).count();
            assert_eq!(zeros, n - 2 * (n / 3), "n={n}: zeros among ±1");
        }
        let got = covariance_matrix(&obs).unwrap();
        assert_same_bits(&got, &tiled_covariance(&obs), &format!("n={n} p={p}"));
        assert_eq!(got.get(0, 0).to_bits(), 0.0f64.to_bits());
    }
}

#[test]
fn a_column_range_equals_the_covariance_of_those_columns_alone() {
    let mut rng = StdRng::seed_from_u64(26);
    for (n, p, range) in [
        (50, 37, 5..37),
        (50, 37, 32..37),
        (30, 70, 3..3),
        (30, 70, 17..18),
        (30, 70, 9..62),
        (300, 256, 96..128),
    ] {
        let obs = random_observations(n, p, &mut rng);
        let mut sub = Matrix::zeros(n, range.len());
        for r in 0..n {
            sub.row_mut(r).copy_from_slice(&obs.row(r)[range.clone()]);
        }
        let mut centred = obs.clone();
        centre_columns(&mut centred);
        let got = centred_covariance(&centred, range.clone()).unwrap();
        assert_same_bits(&got, &tiled_covariance(&sub), &format!("{n}x{p} {range:?}"));
    }
}

#[test]
fn too_few_rows_are_a_typed_error() {
    assert_eq!(
        centred_covariance(&Matrix::zeros(1, 3), 0..3),
        Err(LinalgError::InsufficientData {
            rows: 1,
            required: 2
        })
    );
}

#[test]
#[should_panic(expected = "column range past the matrix")]
fn a_range_past_the_last_column_panics() {
    let _ = centred_covariance(&Matrix::zeros(4, 3), 1..4);
}
