//! T² does not care which eigensolver trained it. The cyclic Jacobi method
//! `pga_linalg::eigh` used to be (kept as a test model in
//! `pga-linalg/tests/jacobi/`) and the tridiagonal-QL method it is now give
//! models whose verdicts agree — and QL gets there in a bounded, recorded
//! number of iterations on the benchmark's own fleets.

#[path = "../../pga-linalg/tests/jacobi/mod.rs"]
mod jacobi;

use jacobi::jacobi_eigh;
use pga_detect::{train_unit, OnlineEvaluator, UnitModel, BLOCK_SENSORS};
use pga_linalg::{covariance_matrix, eigh, Matrix};
use pga_sensorgen::{Fleet, FleetConfig};
use pga_stats::Procedure;

/// The columns `[start, start + len)` of `obs`, as `train_unit` slices them.
fn block_columns(obs: &Matrix, start: usize, len: usize) -> Matrix {
    let mut sub = Matrix::zeros(obs.rows(), len);
    for r in 0..obs.rows() {
        sub.row_mut(r)
            .copy_from_slice(&obs.row(r)[start..start + len]);
    }
    sub
}

/// `model` with every block's eigenpairs recomputed by Jacobi.
fn retrained_with_jacobi(model: &UnitModel, obs: &Matrix) -> UnitModel {
    let mut out = model.clone();
    for b in &mut out.blocks {
        let cov = covariance_matrix(&block_columns(obs, b.start, b.len)).unwrap();
        let (values, vectors) = jacobi_eigh(&cov);
        b.eigenvalues = values;
        b.eigenvectors = vectors;
    }
    out
}

#[test]
fn jacobi_and_ql_trained_models_give_the_same_verdicts() {
    let retained = |m: &UnitModel| -> Vec<usize> {
        m.blocks
            .iter()
            .map(|b| b.eigenvalues.iter().filter(|&&l| l > 1e-9).count())
            .collect()
    };
    for seed in [7, 11, 61] {
        let fleet = Fleet::new(FleetConfig {
            units: 4,
            sensors_per_unit: 80, // two full blocks and a 16-sensor one
            ..FleetConfig::paper_scale(seed)
        });
        for unit in 0..4 {
            let mut obs = fleet.observation_window(unit, 299, 300);
            if unit == 1 {
                // A stuck sensor: its block is rank-deficient, and the
                // null component has to fall under the cut in both models.
                for r in 0..obs.rows() {
                    obs.set(r, 37, 50.0);
                }
            }
            let ql = train_unit(unit, &obs).unwrap();
            let jacobi = retrained_with_jacobi(&ql, &obs);
            assert_eq!(retained(&ql), retained(&jacobi), "dof, unit {unit}");
            if unit == 1 {
                assert_eq!(retained(&ql)[1], BLOCK_SENSORS - 1);
            }
            let by_ql = OnlineEvaluator::new(ql, Procedure::BenjaminiHochberg, 0.05);
            let by_jacobi = OnlineEvaluator::new(jacobi, Procedure::BenjaminiHochberg, 0.05);
            // Healthy head, fault onset, developed fault.
            for t_end in [349, 449, 649, 999] {
                let window = fleet.observation_window(unit, t_end, 50);
                let (a, b) = (by_ql.evaluate(&window), by_jacobi.evaluate(&window));
                assert_eq!(a.rejected, b.rejected);
                assert_eq!(a.block_p_values.len(), b.block_p_values.len());
                for ((sa, pa), (sb, pb)) in a.block_p_values.iter().zip(&b.block_p_values) {
                    assert_eq!(sa, sb);
                    assert!(
                        (pa - pb).abs() <= 1e-9,
                        "seed {seed} unit {unit} t {t_end} block {sa}: QL {pa:e} vs Jacobi {pb:e}"
                    );
                }
            }
        }
    }
}

/// No clock: the solver's work on the benchmark's fleets, as a count. A
/// 32-sensor block has taken 2.0–2.3 iterations per eigenvalue (63–74 in
/// all, see DESIGN §6); 3·n is the guard, 30·n the solver's own cap.
#[test]
fn ql_iterations_stay_under_three_per_eigenvalue_on_the_benchmark_fleets() {
    for seed in [7, 11] {
        // `batch_compute`'s fleet: 32 units × 256 sensors, 300 training rows.
        let fleet = Fleet::new(FleetConfig {
            units: 32,
            sensors_per_unit: 256,
            ..FleetConfig::paper_scale(seed)
        });
        let (mut blocks, mut total, mut most, mut least) = (0, 0, 0, usize::MAX);
        for unit in 0..32 {
            let obs = fleet.observation_window(unit, 299, 300);
            for start in (0..256).step_by(BLOCK_SENSORS) {
                let cov = covariance_matrix(&block_columns(&obs, start, BLOCK_SENSORS)).unwrap();
                let iterations = eigh(&cov).unwrap().iterations;
                assert!(
                    iterations <= 3 * BLOCK_SENSORS,
                    "seed {seed} unit {unit} block {start}: {iterations} QL iterations"
                );
                blocks += 1;
                total += iterations;
                most = most.max(iterations);
                least = least.min(iterations);
            }
        }
        println!("seed {seed}: {blocks} blocks, {least}..{most} iterations, {total} in all");
    }
}
