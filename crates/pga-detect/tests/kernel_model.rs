//! Model test: a unit trained and a window scored against the loops they
//! replaced, kept as test models. Training computes each sensor's σ
//! directly; the model is the per-panel covariance recipe it came from,
//! whose diagonal it keeps. Scoring runs BH over its candidates only; the
//! model sorts the whole family. Every float is compared by bit pattern:
//! no model, p-value or flag may move.

#[path = "../../pga-stats/tests/step_up/mod.rs"]
mod step_up;

use pga_detect::{train_unit, OnlineEvaluator, UnitModel};
use pga_linalg::{centred_covariance, column_means, Matrix};
use pga_sensorgen::{Fleet, FleetConfig};
use pga_stats::{two_sided_p_from_z, Procedure};

/// Sensors per panel of the covariance recipe.
const PANEL: usize = 32;

/// `train_unit` as it was: per panel of 32 sensors, the window's cells
/// centred (`x − m`) into an `n × len` matrix, its covariance by the Gram
/// kernel, and σ the square root of that covariance's diagonal.
fn per_panel_train_unit(unit: u32, obs: &Matrix) -> UnitModel {
    let (n, p) = obs.shape();
    let means = column_means(obs);
    let mut stds = Vec::with_capacity(p);
    for start in (0..p).step_by(PANEL) {
        let len = PANEL.min(p - start);
        let mut cells = Vec::with_capacity(n * len);
        for r in 0..n {
            let row = &obs.row(r)[start..start + len];
            cells.extend(row.iter().zip(&means[start..]).map(|(&x, &m)| x - m));
        }
        let panel = Matrix::from_vec(n, len, cells).unwrap();
        let cov = centred_covariance(&panel, 0..len).unwrap();
        stds.extend((0..len).map(|k| cov.get(k, k).max(0.0).sqrt()));
    }
    UnitModel {
        unit,
        means,
        stds,
        trained_rows: n,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_model(got: &UnitModel, want: &UnitModel, what: &str) {
    assert_eq!(got.unit, want.unit, "{what}");
    assert_eq!(got.trained_rows, want.trained_rows, "{what}");
    assert_eq!(bits(&got.means), bits(&want.means), "{what}: means");
    assert_eq!(bits(&got.stds), bits(&want.stds), "{what}: stds");
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
    // sensors × rows: the benchmark's shape and two more multiples of a
    // panel; several panels and a part, one panel and a part, less than a
    // Gram tile; and the fewest rows a variance takes.
    let shapes = [
        (256u32, 300usize),
        (64, 150),
        (32, 50),
        (100, 150),
        (75, 120),
        (37, 50),
        (5, 10),
        (37, 2),
    ];
    for (sensors, rows) in shapes {
        for seed in [7, 11, 42] {
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
                assert_same_model(&got, &per_panel_train_unit(unit, &obs), &what);
                if unit == 1 {
                    assert_eq!(got.stds[sensors as usize / 2].to_bits(), 0.0f64.to_bits());
                }
            }
        }
    }
}

/// `(p_values, rejected)` of one window by the parent's loops: BH over a
/// full sort.
fn model_outcome(model: &UnitModel, window: &Matrix) -> (Vec<f64>, Vec<bool>) {
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
    (p_values, rejected)
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
            &per_panel_train_unit(unit, &training),
            &format!("unit {unit}"),
        );
        let evaluator = OnlineEvaluator::new(model.clone(), Procedure::BenjaminiHochberg, 0.05);
        for w in 0..8 {
            let window = fleet.observation_window(unit, (300 + (w + 1) * 50) as u64 - 1, 50);
            let got = evaluator.evaluate(&window);
            let (p_values, rejected) = model_outcome(&model, &window);
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
        }
    }
    assert!(
        flagged > 0,
        "the fleet's faults must exercise the flag path"
    );
}
