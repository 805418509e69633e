//! `monitor_cycle`: the paper's closed loop, writes beside reads on one
//! growing store.
//!
//! An op ingests the next window of ticks and evaluates it (store read →
//! T² → BH → anomaly write-back → cache invalidation). `window_from_store`
//! re-scans every series of the row-hour once per unit, so an op costs
//! more the fuller the hour's rows are: op time is a sawtooth with a
//! period of one row-hour. A round is therefore exactly one row-hour from
//! its first tick to its last, on a store of its own — a second hour on
//! the same store would meet more flushed files than the first. Sorted by
//! cost the ops of a round are then the ramp itself, and `op_ms_p50` is
//! the op at the middle of the hour. (A round that began part-way up the
//! ramp put the end of one hour and the start of the next side by side in
//! that order, and the median on the seam between them: it spread by
//! 11–17 % over ten runs where `samples_per_s` spread by 4–5 %.)

use pga_detect::{train_unit, EvalOutcome, OnlineEvaluator};
use pga_platform::Monitor;
use pga_sensorgen::Fleet;

use crate::catalog::LayerMetrics;
use crate::host;
use crate::ladder::Shape;
use crate::trace::Tracer;
use crate::workloads::{
    host_config, retire, rounds_for, timed, timed_op, Budget, Measured, Op, Outcome, Params,
    OVERRUN,
};

struct Size {
    units: u32,
    sensors: u32,
    ticks_per_op: u64,
    ops_per_round: u64,
    warm_ops: u64,
}

/// Ticks ingested before training; the model is fitted on the first 150.
const PRELOAD_TICKS: u64 = 300;

/// Ticks of a row-hour (the fleet samples at 1 Hz).
const ROW_TICKS: u64 = 3600;

/// The store's first tick, such that the set-up ends, and the timed round
/// begins, on a row-hour boundary.
fn first_tick(s: &Size) -> u64 {
    ROW_TICKS - PRELOAD_TICKS - s.warm_ops * s.ticks_per_op
}

/// What one round takes on the reference host: 1.3 s of set-up, 3.8 s of
/// timed ops, 0.4 s of oracle and until the old store's threads have gone.
const REFERENCE_ROUND_S: f64 = 5.5;

fn size(p: &Params) -> Size {
    if p.smoke {
        Size {
            units: 2,
            sensors: 8,
            ticks_per_op: 50,
            ops_per_round: 4,
            warm_ops: 1,
        }
    } else {
        // 72 ops × 50 ticks = 3600 ticks = one row-hour. Two units of
        // sixteen sensors keep the hour under 4 s on one CPU, so that a
        // run lays five of them over each other; thirty-six warm cycles
        // (the second half of the hour before) make the set-up longer
        // than a second.
        Size {
            units: 2,
            sensors: 16,
            ticks_per_op: 50,
            ops_per_round: 72,
            warm_ops: 36,
        }
    }
}

pub fn shape(p: &Params) -> Shape {
    let s = size(p);
    Shape::new(host_config(s.units, s.sensors, p.seed), p.smoke)
}

/// The oracle: models trained and windows scored straight from the
/// generator. The store round-trip is exact, so the monitor must flag the
/// same sensors with the same p-values.
struct Reference {
    fleet: Fleet,
    evaluators: Vec<OnlineEvaluator>,
    eval_window: usize,
}

impl Reference {
    /// Models fitted on the `training_window` ticks from `first_tick` on.
    fn new(config: &pga_platform::PlatformConfig, first_tick: u64) -> Result<Self, String> {
        let fleet = Fleet::new(config.fleet.clone());
        let window = config.training_window;
        let evaluators = (0..config.fleet.units)
            .map(|u| {
                let obs = fleet.observation_window(u, first_tick + window as u64 - 1, window);
                train_unit(u, &obs)
                    .map(|m| OnlineEvaluator::new(m, config.procedure, config.alpha))
                    .map_err(|e| format!("reference training of unit {u} failed: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Reference {
            fleet,
            evaluators,
            eval_window: config.eval_window,
        })
    }

    fn check(&self, t_end: u64, got: &[EvalOutcome]) -> Result<(), String> {
        if got.len() != self.evaluators.len() {
            return Err(format!(
                "t={t_end}: {} outcomes for {} units",
                got.len(),
                self.evaluators.len()
            ));
        }
        for (ev, out) in self.evaluators.iter().zip(got) {
            let unit = ev.model().unit;
            let want = ev.evaluate(&self.fleet.observation_window(unit, t_end, self.eval_window));
            let flags = |o: &EvalOutcome| -> Vec<(u32, u64)> {
                o.flags
                    .iter()
                    .map(|f| (f.sensor, f.p_value.to_bits()))
                    .collect()
            };
            if out.unit != unit || flags(out) != flags(&want) {
                return Err(format!(
                    "t={t_end} unit {unit}: monitor flagged {:?}, generator-side evaluation {:?}",
                    out.flags.iter().map(|f| f.sensor).collect::<Vec<_>>(),
                    want.flags.iter().map(|f| f.sensor).collect::<Vec<_>>()
                ));
            }
        }
        Ok(())
    }
}

fn set_up(config: &pga_platform::PlatformConfig, s: &Size) -> Result<Monitor, String> {
    let mut m = Monitor::new(config.clone()).map_err(|e| e.to_string())?;
    let start = first_tick(s);
    m.ingest_range(start, start + PRELOAD_TICKS);
    m.train(start + config.training_window as u64 - 1)
        .map_err(|e| e.to_string())?;
    for k in 0..s.warm_ops {
        let t0 = start + PRELOAD_TICKS + k * s.ticks_per_op;
        m.ingest_range(t0, t0 + s.ticks_per_op);
        m.evaluate_at(t0 + s.ticks_per_op - 1)
            .map_err(|e| e.to_string())?;
    }
    Ok(m)
}

pub fn run(p: &Params, tr: &mut Tracer, layers: &mut LayerMetrics) -> Outcome {
    let s = size(p);
    let config = host_config(s.units, s.sensors, p.seed);
    assert_eq!(
        config.eval_window as u64, s.ticks_per_op,
        "an op ingests exactly the window it then evaluates"
    );
    let reference = Reference::new(&config, first_tick(&s))?;
    let samples_per_op = config.fleet.total_sensors() * s.ticks_per_op;
    let idle_threads = host::thread_count();
    let mut out = Measured::new(s.ops_per_round);

    // Every round sets its own store up, so rounds are identical work and
    // a run times as many set-ups as it measures rounds.
    let rounds = if p.smoke {
        1
    } else {
        rounds_for(p.seconds, REFERENCE_ROUND_S)
    };
    let mut valve = Budget::start(p.seconds * OVERRUN);
    for _ in 0..rounds {
        if !valve.fits_another() {
            break;
        }
        let (built, took) = timed(|| set_up(&config, &s));
        let mut m = built?;
        out.setups.push(took);
        for k in 0..s.ops_per_round {
            let op = out.ops.len();
            let t0 = ROW_TICKS + k * s.ticks_per_op;
            let t_end = t0 + s.ticks_per_op - 1;
            let (result, took, traced) = timed_op(tr, p.trace, op, |tr, inside| {
                tr.leaf("platform.ingest_range", op as u32, inside, || {
                    m.ingest_range(t0, t0 + s.ticks_per_op)
                });
                tr.leaf("platform.evaluate_at", op as u32, inside, || {
                    m.evaluate_at(t_end)
                })
            });
            let ok = match &result {
                Ok(outcomes) => {
                    reference.check(t_end, outcomes)?;
                    true
                }
                Err(e) => {
                    eprintln!("op {op} failed: {e}");
                    false
                }
            };
            out.ops.push(Op { took, ok, traced });
        }
        out.samples += samples_per_op * s.ops_per_round;
        retire(m, idle_threads);
    }
    if p.trace {
        layers.set(
            "platform.ingest_range_ns_per_sample",
            tr.p50_ns("platform.ingest_range") / samples_per_op as f64,
        );
        layers.set(
            "platform.evaluate_at_ms_p50",
            tr.p50_ns("platform.evaluate_at") / 1e6,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_flag_the_generator_does_not_produce() {
        let config = host_config(2, 8, 7);
        let reference = Reference::new(&config, 0).unwrap();
        let t_end = 449;
        let mut outcomes: Vec<EvalOutcome> = reference
            .evaluators
            .iter()
            .map(|ev| {
                let unit = ev.model().unit;
                ev.evaluate(&reference.fleet.observation_window(unit, t_end, 50))
            })
            .collect();
        assert_eq!(reference.check(t_end, &outcomes), Ok(()));
        outcomes[1].flags.push(pga_detect::SensorFlag {
            sensor: 3,
            p_value: 1e-6,
            window_mean: 0.0,
            baseline_mean: 0.0,
        });
        let err = reference.check(t_end, &outcomes).unwrap_err();
        assert!(err.contains("unit 1"), "{err}");
        assert!(reference.check(t_end, &outcomes[..1]).is_err());
    }
}
