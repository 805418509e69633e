//! Model test: a unit trained and a window scored by the three loops of
//! ISSUE 24 — the register-tiled Gram kernel on a window centred once, the
//! row-wise eigenbasis projection, BH over its candidates only — against
//! the loops they replaced, kept as test models. Every float is compared
//! by bit pattern: no model, p-value or flag may move.

#[path = "../../pga-linalg/tests/gram/mod.rs"]
mod gram;
#[path = "../../pga-stats/tests/step_up/mod.rs"]
mod step_up;

use pga_detect::{train_unit, BlockModel, OnlineEvaluator, UnitModel, BLOCK_SENSORS};
use pga_linalg::{column_means, column_variances, eigh, Matrix};
use pga_sensorgen::{Fleet, FleetConfig};
use pga_stats::{t_square_p_value, t_square_statistic, two_sided_p_from_z, Procedure};

/// `train_unit` as it was: a variance pass over the whole window, then per
/// block a copied sub-matrix, centred again, through the memory-tiled Gram
/// update.
fn per_block_train_unit(unit: u32, obs: &Matrix) -> UnitModel {
    let (n, p) = obs.shape();
    let vars = column_variances(obs).unwrap();
    let mut blocks = Vec::new();
    for start in (0..p).step_by(BLOCK_SENSORS) {
        let len = BLOCK_SENSORS.min(p - start);
        let mut sub = Matrix::zeros(n, len);
        for r in 0..n {
            sub.row_mut(r)
                .copy_from_slice(&obs.row(r)[start..start + len]);
        }
        let eig = eigh(&gram::tiled_covariance(&sub)).unwrap();
        blocks.push(BlockModel {
            start,
            len,
            eigenvalues: eig.values,
            eigenvectors: eig.vectors,
        });
    }
    UnitModel {
        unit,
        means: column_means(obs),
        stds: vars.iter().map(|v| v.max(0.0).sqrt()).collect(),
        blocks,
        trained_rows: n,
    }
}

/// `BlockModel::project` as it was: one strided walk down an eigenvector
/// column per score.
fn strided_project(block: &BlockModel, centered: &[f64]) -> Vec<f64> {
    (0..block.len)
        .map(|c| {
            (0..block.len)
                .map(|r| block.eigenvectors.get(r, c) * centered[r])
                .sum()
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_model(got: &UnitModel, want: &UnitModel, what: &str) {
    assert_eq!(got.unit, want.unit, "{what}");
    assert_eq!(got.trained_rows, want.trained_rows, "{what}");
    assert_eq!(bits(&got.means), bits(&want.means), "{what}: means");
    assert_eq!(bits(&got.stds), bits(&want.stds), "{what}: stds");
    assert_eq!(got.blocks.len(), want.blocks.len(), "{what}");
    for (g, w) in got.blocks.iter().zip(&want.blocks) {
        assert_eq!((g.start, g.len), (w.start, w.len), "{what}");
        assert_eq!(
            bits(&g.eigenvalues),
            bits(&w.eigenvalues),
            "{what}: block {} eigenvalues",
            g.start
        );
        assert_eq!(g.eigenvectors.shape(), w.eigenvectors.shape(), "{what}");
        assert_eq!(
            bits(g.eigenvectors.as_slice()),
            bits(w.eigenvectors.as_slice()),
            "{what}: block {} eigenvectors",
            g.start
        );
    }
}

/// The benchmark's `batch_compute` fleet: `units` of 256 sensors.
fn benchmark_fleet(seed: u64, units: u32) -> Fleet {
    Fleet::new(FleetConfig {
        units,
        sensors_per_unit: 256,
        ..FleetConfig::paper_scale(seed)
    })
}

#[test]
fn trained_models_equal_the_per_block_recipe_bit_for_bit() {
    // sensors × rows: the benchmark's shape, two blocks and a part, one
    // block and a part, less than a tile.
    for (sensors, rows) in [(256u32, 300usize), (75, 120), (37, 50), (5, 10)] {
        for seed in [7, 11] {
            let fleet = Fleet::new(FleetConfig {
                units: 3,
                sensors_per_unit: sensors,
                ..FleetConfig::paper_scale(seed)
            });
            for unit in 0..3 {
                let mut obs = fleet.observation_window(unit, rows as u64 - 1, rows);
                if unit == 1 {
                    // A stuck sensor: centred to exact zeros, σ exactly 0.
                    for r in 0..rows {
                        obs.set(r, sensors as usize / 2, 50.0);
                    }
                }
                let got = train_unit(unit, &obs).unwrap();
                let what = format!("{sensors}x{rows} seed {seed} unit {unit}");
                assert_same_model(&got, &per_block_train_unit(unit, &obs), &what);
                if unit == 1 {
                    assert_eq!(got.stds[sensors as usize / 2].to_bits(), 0.0f64.to_bits());
                }
            }
        }
    }
}

#[test]
fn projection_equals_the_strided_sum_bit_for_bit() {
    let fleet = benchmark_fleet(7, 1);
    let model = train_unit(0, &fleet.observation_window(0, 299, 300)).unwrap();
    let window = fleet.observation_window(0, 349, 50);
    for block in &model.blocks {
        let mut inputs: Vec<Vec<f64>> = (0..window.rows())
            .map(|r| {
                (0..block.len)
                    .map(|k| window.get(r, block.start + k) - model.means[block.start + k])
                    .collect()
            })
            .collect();
        // Signed zeros decide the sign of a zero score.
        inputs.push(vec![0.0; block.len]);
        inputs.push(vec![-0.0; block.len]);
        let mut mixed = inputs[0].clone();
        for x in mixed.iter_mut().step_by(3) {
            *x = -0.0;
        }
        inputs.push(mixed);
        for x in &inputs {
            assert_eq!(
                bits(&block.project(x)),
                bits(&strided_project(block, x)),
                "block {} input {x:?}",
                block.start
            );
        }
    }
    // A block no wider than one sensor, and none at all.
    let one = BlockModel {
        start: 0,
        len: 1,
        eigenvalues: vec![2.0],
        eigenvectors: Matrix::from_rows(&[&[-1.0]]).unwrap(),
    };
    for x in [[0.0], [-0.0], [3.5]] {
        assert_eq!(bits(&one.project(&x)), bits(&strided_project(&one, &x)));
    }
    let none = BlockModel {
        start: 0,
        len: 0,
        eigenvalues: vec![],
        eigenvectors: Matrix::zeros(0, 0),
    };
    assert!(none.project(&[]).is_empty());
}

/// `(p_values, rejected, block_p_values)` of one window by the parent's
/// loops: the strided projection and BH over a full sort.
fn model_outcome(model: &UnitModel, window: &Matrix) -> (Vec<f64>, Vec<bool>, Vec<(usize, f64)>) {
    let means = column_means(window);
    let var_factor = (1.0 / window.rows() as f64 + 1.0 / model.trained_rows as f64).sqrt();
    let p_values: Vec<f64> = (0..means.len())
        .map(|j| {
            if model.stds[j] == 0.0 {
                return if means[j] == model.means[j] { 1.0 } else { 0.0 };
            }
            two_sided_p_from_z((means[j] - model.means[j]) / (model.stds[j] * var_factor))
        })
        .collect();
    let rejected = step_up::full_sort_step_up(&p_values, 0.05, 1.0).rejected;
    let inv_vf = 1.0 / var_factor;
    let block_p_values = model
        .blocks
        .iter()
        .map(|b| {
            let centered: Vec<f64> = (0..b.len)
                .map(|k| (means[b.start + k] - model.means[b.start + k]) * inv_vf)
                .collect();
            let (t2, dof) =
                t_square_statistic(&strided_project(b, &centered), &b.eigenvalues, 1e-9);
            (b.start, t_square_p_value(t2, dof))
        })
        .collect();
    (p_values, rejected, block_p_values)
}

#[test]
fn the_benchmark_fleet_scores_as_the_parent_loops_scored_it() {
    // batch_compute at seed 7: 32 units, 300 training rows, eight 50-row
    // windows a unit.
    let units = 32;
    let fleet = benchmark_fleet(7, units);
    let mut flagged = 0;
    for unit in 0..units {
        let training = fleet.observation_window(unit, 299, 300);
        let model = train_unit(unit, &training).unwrap();
        assert_same_model(
            &model,
            &per_block_train_unit(unit, &training),
            &format!("unit {unit}"),
        );
        let evaluator = OnlineEvaluator::new(model.clone(), Procedure::BenjaminiHochberg, 0.05);
        for w in 0..8 {
            let window = fleet.observation_window(unit, (300 + (w + 1) * 50) as u64 - 1, 50);
            let got = evaluator.evaluate(&window);
            let (p_values, rejected, block_p_values) = model_outcome(&model, &window);
            let what = format!("unit {unit} window {w}");
            assert_eq!(bits(&got.p_values), bits(&p_values), "{what}");
            assert_eq!(got.rejected, rejected, "{what}");
            let flags: Vec<(u32, u64)> = got
                .flags
                .iter()
                .map(|f| (f.sensor, f.p_value.to_bits()))
                .collect();
            let want_flags: Vec<(u32, u64)> = (0..p_values.len())
                .filter(|&j| rejected[j])
                .map(|j| (j as u32, p_values[j].to_bits()))
                .collect();
            assert_eq!(flags, want_flags, "{what}");
            flagged += flags.len();
            assert_eq!(got.block_p_values.len(), block_p_values.len(), "{what}");
            for ((gs, gp), (ws, wp)) in got.block_p_values.iter().zip(&block_p_values) {
                assert_eq!((gs, gp.to_bits()), (ws, wp.to_bits()), "{what} block {gs}");
            }
        }
    }
    assert!(
        flagged > 0,
        "the fleet's faults must exercise the flag path"
    );
}
