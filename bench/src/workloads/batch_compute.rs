//! `batch_compute`: no storage at all.
//!
//! A fleet generated in memory is retrained on the dataflow engine and
//! scored through the columnar batch evaluator, so `pga-linalg`,
//! `pga-detect`, `pga-stats`, `pga-dataflow` and `pga-sched` do all the
//! work and every storage layer none. An op is one round: retrain every
//! unit, then score every evaluation window several times.

use pga_dataflow::Dataflow;
use pga_detect::{
    model_divergence, train_unit, BatchEvaluator, ColumnWindow, EvalOutcome, UnitModel,
};
use pga_linalg::Matrix;
use pga_sensorgen::Fleet;

use crate::catalog::LayerMetrics;
use crate::ladder::Shape;
use crate::trace::Tracer;
use crate::workloads::{
    host_config, set_up_repeatedly, timed_op, Budget, Measured, Op, Outcome, Params,
};

struct Size {
    units: u32,
    sensors: u32,
    train_rows: usize,
    eval_rows: usize,
    /// Distinct evaluation windows per unit.
    windows: usize,
    /// Times each window is scored in a round.
    passes: usize,
    warm_rounds: usize,
    setup_reps: usize,
}

fn size(p: &Params) -> Size {
    if p.smoke {
        Size {
            units: 4,
            sensors: 32,
            train_rows: 100,
            eval_rows: 50,
            windows: 2,
            passes: 1,
            warm_rounds: 1,
            setup_reps: 1,
        }
    } else {
        // 32 × 256 × 50 × 8 × 6 = 19.7 M samples scored a round.
        Size {
            units: 32,
            sensors: 256,
            train_rows: 300,
            eval_rows: 50,
            windows: 8,
            passes: 6,
            warm_rounds: 5,
            setup_reps: if p.trace { 1 } else { 3 },
        }
    }
}

pub fn shape(p: &Params) -> Shape {
    let s = size(p);
    let mut config = host_config(s.units, s.sensors, p.seed);
    config.training_window = s.train_rows;
    config.eval_window = s.eval_rows;
    Shape::new(config, p.smoke)
}

/// Everything a round reads, generated once per set-up.
struct Inputs {
    /// `(unit, training window)`.
    training: Vec<(u32, Matrix)>,
    /// `evaluation[w][unit]`: window `w` of a unit, row-major (for the
    /// oracle) and as per-sensor columns (what the batch evaluator eats).
    evaluation: Vec<Vec<(Matrix, Vec<Vec<f64>>)>>,
}

fn generate(fleet: &Fleet, s: &Size) -> Inputs {
    let units = fleet.config().units;
    let training = (0..units)
        .map(|u| {
            (
                u,
                fleet.observation_window(u, s.train_rows as u64 - 1, s.train_rows),
            )
        })
        .collect();
    let evaluation = (0..s.windows)
        .map(|w| {
            let t_end = (s.train_rows + (w + 1) * s.eval_rows) as u64 - 1;
            (0..units)
                .map(|u| {
                    let rows = fleet.observation_window(u, t_end, s.eval_rows);
                    let columns = (0..rows.cols()).map(|c| rows.col(c)).collect();
                    (rows, columns)
                })
                .collect()
        })
        .collect();
    Inputs {
        training,
        evaluation,
    }
}

fn retrain(
    dataflow: &Dataflow,
    inputs: &Inputs,
    config: &pga_platform::PlatformConfig,
) -> Result<Vec<UnitModel>, String> {
    let mut models = dataflow
        .parallelize(inputs.training.iter().collect(), config.workers * 2)
        .map(|(u, obs)| train_unit(*u, obs).map_err(|e| format!("unit {u}: {e}")))
        .collect()
        .into_iter()
        .collect::<Result<Vec<UnitModel>, String>>()?;
    models.sort_by_key(|m| m.unit);
    Ok(models)
}

/// Score every window `passes` times; returns the outcomes of the first
/// pass (window-major) and the samples scored.
fn score(batch: &BatchEvaluator, inputs: &Inputs, passes: usize) -> (Vec<Vec<EvalOutcome>>, u64) {
    let mut first_pass = Vec::new();
    let mut samples = 0u64;
    for pass in 0..passes {
        for window in &inputs.evaluation {
            let slots: Vec<Option<ColumnWindow<'_>>> = window
                .iter()
                .map(|(_, cols)| Some(cols.iter().map(Vec::as_slice).collect()))
                .collect();
            let outcomes = batch.evaluate_columns(&slots);
            samples += BatchEvaluator::samples_scored(&outcomes);
            if pass == 0 {
                first_pass.push(outcomes.into_iter().flatten().collect());
            }
        }
    }
    (first_pass, samples)
}

/// Dataflow-trained models must equal sequential `train_unit`, and the
/// columnar batch outcomes must equal row-major `OnlineEvaluator::evaluate`
/// bit for bit.
fn check(
    inputs: &Inputs,
    models: &[UnitModel],
    batch: &BatchEvaluator,
    outcomes: &[Vec<EvalOutcome>],
) -> Result<(), String> {
    for ((u, obs), model) in inputs.training.iter().zip(models) {
        let sequential = train_unit(*u, obs).map_err(|e| format!("unit {u}: {e}"))?;
        let divergence = model_divergence(model, &sequential);
        if model.unit != *u || divergence != 0.0 {
            return Err(format!(
                "unit {u}: dataflow-trained model diverges from sequential train_unit by {divergence}"
            ));
        }
    }
    for (w, (window, got)) in inputs.evaluation.iter().zip(outcomes).enumerate() {
        if got.len() != window.len() {
            return Err(format!(
                "window {w}: {} outcomes for {} units",
                got.len(),
                window.len()
            ));
        }
        for ((ev, (rows, _)), out) in batch.evaluators().iter().zip(window).zip(got) {
            let want = ev.evaluate(rows);
            let bits = |o: &EvalOutcome| o.p_values.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            if out.unit != want.unit || bits(out) != bits(&want) || out.rejected != want.rejected {
                return Err(format!(
                    "window {w} unit {}: columnar batch outcome differs from row-major evaluate",
                    want.unit
                ));
            }
        }
    }
    Ok(())
}

pub fn run(p: &Params, tr: &mut Tracer, layers: &mut LayerMetrics) -> Outcome {
    let s = size(p);
    let config = shape(p).config;
    let fleet = Fleet::new(config.fleet.clone());
    let mut out = Measured::new(1);

    let (inputs, dataflow) = set_up_repeatedly(
        s.setup_reps,
        &mut out.setups,
        || {
            let inputs = generate(&fleet, &s);
            let dataflow = Dataflow::new(config.workers);
            for _ in 0..s.warm_rounds {
                let models = retrain(&dataflow, &inputs, &config)?;
                let batch = BatchEvaluator::new(models, config.procedure, config.alpha);
                score(&batch, &inputs, s.passes);
            }
            Ok((inputs, dataflow))
        },
        drop,
    )?;

    // The oracle, on a round of its own outside every timer.
    let models = retrain(&dataflow, &inputs, &config)?;
    let batch = BatchEvaluator::new(models.clone(), config.procedure, config.alpha);
    check(&inputs, &models, &batch, &score(&batch, &inputs, 1).0)?;
    drop((models, batch));
    let sched_at_start = dataflow.stats();

    let mut budget = Budget::start(p.seconds);
    // A traced run needs one whole group of four ops for its overhead ratio.
    while budget.fits_another() || (p.trace && out.ops.len() < 4) {
        let op = out.ops.len();
        let (scored, took, traced) = timed_op(tr, p.trace, op, |tr, inside| {
            let models = tr.leaf("detect.retrain_fleet", op as u32, inside, || {
                retrain(&dataflow, &inputs, &config)
            })?;
            Ok::<u64, String>(tr.leaf("detect.score_fleet", op as u32, inside, || {
                let batch = BatchEvaluator::new(models, config.procedure, config.alpha);
                score(&batch, &inputs, s.passes).1
            }))
        });
        let ok = match scored {
            Ok(samples) => {
                out.samples += samples;
                true
            }
            Err(e) => {
                eprintln!("round {op} failed: {e}");
                false
            }
        };
        out.ops.push(Op { took, ok, traced });
        if p.smoke && out.ops.len() == 4 {
            break;
        }
    }

    if p.trace {
        let rounds = out.ops.len() as f64;
        let end = dataflow.stats();
        layers.set(
            "sched.tasks_per_round",
            (end.tasks_run - sched_at_start.tasks_run) as f64 / rounds,
        );
        layers.set(
            "sched.steals_per_round",
            (end.steals - sched_at_start.steals) as f64 / rounds,
        );
        layers.set("sched.max_queue_depth", end.max_queue_depth as f64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_changed_p_value_and_a_changed_model() {
        let p = Params {
            seed: 7,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let s = size(&p);
        let config = shape(&p).config;
        let inputs = generate(&Fleet::new(config.fleet.clone()), &s);
        let mut models = retrain(&Dataflow::new(2), &inputs, &config).unwrap();
        let batch = BatchEvaluator::new(models.clone(), config.procedure, config.alpha);
        let (mut outcomes, samples) = score(&batch, &inputs, 1);
        assert_eq!(
            samples,
            (s.units as usize * s.sensors as usize * s.eval_rows * s.windows) as u64
        );
        assert_eq!(check(&inputs, &models, &batch, &outcomes), Ok(()));

        outcomes[1][2].p_values[0] += 1e-12;
        let err = check(&inputs, &models, &batch, &outcomes).unwrap_err();
        assert!(err.contains("window 1 unit 2"), "{err}");

        models[3].means[0] += 1e-9;
        let err = check(&inputs, &models, &batch, &outcomes).unwrap_err();
        assert!(err.contains("unit 3"), "{err}");
    }
}
