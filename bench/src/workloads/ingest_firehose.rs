//! `ingest_firehose`: write-only store lifecycles.
//!
//! A round is one *store lifecycle*: a fresh `Monitor`, then a fixed run
//! of `ingest_range` ops sized so both regions go through their eight
//! size-triggered flushes **and their first inline major compaction**
//! inside every round. On a store that keeps growing the same compaction
//! stalls the put path for 0.6–5 s and varies ±50 % run to run, so
//! total-time throughput ranged 188–244 k/s; laying fixed-size lifecycles
//! over each other keeps compaction cost in the headline number without
//! letting one stall's timing decide it.

use pga_platform::Monitor;
use pga_tsdb::QueryFilter;

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
    /// Ops' worth of ticks that open a lifecycle in one untimed call: the
    /// round's set-up.
    setup_ops: u64,
    ops_per_round: u64,
}

/// What one lifecycle takes on the reference host: 1.5 s of set-up, 4.7 s
/// of timed ops, 1.1 s of read-back, 0.4 s until the old store's threads
/// have gone.
const REFERENCE_ROUND_S: f64 = 8.7;

fn size(p: &Params) -> Size {
    if p.smoke {
        Size {
            units: 3,
            sensors: 5,
            ticks_per_op: 10,
            setup_ops: 2,
            ops_per_round: 4,
        }
    } else {
        // (16 + 42) ops × 50 ticks × 525 sensors = 1 522 500 samples a
        // lifecycle; with the rollup cells riding along, one region
        // compacts in the 36th timed op and the other in the 37th.
        //
        // Odd × odd on purpose. The salt of a series is the parity of its
        // UIDs, so an even fleet splits exactly in half, the two regions
        // fill in step, and whether their compactions overlapped (a 0.5 s
        // stall) or ran one after the other (1 s) was a coin flip worth a
        // tenth of a lifecycle. An odd × odd fleet puts one series more on
        // one region: they reach every threshold a few batches apart and
        // always stall one after the other.
        Size {
            units: 7,
            sensors: 75,
            ticks_per_op: 50,
            setup_ops: 16,
            ops_per_round: 42,
        }
    }
}

pub fn shape(p: &Params) -> Shape {
    let s = size(p);
    Shape::new(host_config(s.units, s.sensors, p.seed), p.smoke)
}

/// One series per unit, read back through `Tsd::query`, must equal the
/// generator bit for bit.
fn read_back(m: &Monitor, sensor: u32, ticks: u64) -> Result<(), String> {
    let fleet = m.fleet();
    let series = m
        .tsd()
        .query(
            "energy",
            &QueryFilter::any().with("sensor", &sensor.to_string()),
            0,
            ticks,
        )
        .map_err(|e| format!("read-back query failed: {e}"))?;
    let units = fleet.config().units as usize;
    if series.len() != units {
        return Err(format!(
            "read-back of sensor {sensor}: {} series, expected {units}",
            series.len()
        ));
    }
    for s in &series {
        let unit: u32 = s
            .tags
            .get("unit")
            .and_then(|u| u.parse().ok())
            .ok_or("read-back series without a unit tag")?;
        if s.points.len() as u64 != ticks {
            return Err(format!(
                "unit {unit} sensor {sensor}: {} points stored, {ticks} ingested",
                s.points.len()
            ));
        }
        for pt in &s.points {
            let want = fleet.sample(unit, sensor, pt.timestamp);
            if pt.value.to_bits() != want.to_bits() {
                return Err(format!(
                    "unit {unit} sensor {sensor} t={}: stored {} != generated {want}",
                    pt.timestamp, pt.value
                ));
            }
        }
    }
    Ok(())
}

pub fn run(p: &Params, tr: &mut Tracer, layers: &mut LayerMetrics) -> Outcome {
    let s = size(p);
    let config = host_config(s.units, s.sensors, p.seed);
    let samples_per_op = config.fleet.total_sensors() * s.ticks_per_op;
    let idle_threads = host::thread_count();
    let mut out = Measured::new(s.ops_per_round);

    let rounds = if p.smoke {
        1
    } else {
        rounds_for(p.seconds, REFERENCE_ROUND_S)
    };
    let mut valve = Budget::start(p.seconds * OVERRUN);
    for round in 0..rounds as u64 {
        if !valve.fits_another() {
            break;
        }
        // Set-up: the stack and the lifecycle's first ops. A store's first
        // op also pays for the memory the last store gave back (200-400 ms
        // against 100 ms in a run's first lifecycle), which is why the
        // timed ops start later.
        let (built, took) = timed(|| {
            let mut m = Monitor::new(config.clone()).map_err(|e| e.to_string())?;
            let stored = m.ingest_range(0, s.setup_ops * s.ticks_per_op).stored_cells;
            Ok::<_, String>((m, stored))
        });
        let (mut m, mut stored) = built?;
        out.setups.push(took);

        for k in s.setup_ops..s.setup_ops + s.ops_per_round {
            let op = out.ops.len();
            let (report, took, traced) = timed_op(tr, p.trace, op, |tr, inside| {
                tr.leaf("platform.ingest_range", op as u32, inside, || {
                    m.ingest_range(k * s.ticks_per_op, (k + 1) * s.ticks_per_op)
                })
            });
            // Every sample submitted was acked, and at least as many cells
            // (rollup cells ride along) reached the region servers.
            let ok =
                report.samples == samples_per_op && report.stored_cells - stored >= samples_per_op;
            if !ok {
                eprintln!(
                    "op {op}: {samples_per_op} samples submitted, {} acked, {} cells stored",
                    report.samples,
                    report.stored_cells - stored
                );
            }
            stored = report.stored_cells;
            out.ops.push(Op { took, ok, traced });
        }
        out.samples += samples_per_op * s.ops_per_round;
        // Another sensor every round, all units, the whole lifecycle.
        read_back(
            &m,
            ((p.seed + round) % u64::from(s.sensors)) as u32,
            (s.setup_ops + s.ops_per_round) * s.ticks_per_op,
        )?;
        retire(m, idle_threads);
    }
    if p.trace {
        layers.set(
            "platform.ingest_range_ns_per_sample",
            tr.p50_ns("platform.ingest_range") / samples_per_op as f64,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_rejects_a_value_the_generator_did_not_produce() {
        let mut m = Monitor::new(host_config(2, 8, 7)).unwrap();
        m.ingest_range(0, 10);
        assert_eq!(read_back(&m, 5, 10), Ok(()));
        assert!(read_back(&m, 5, 11)
            .unwrap_err()
            .contains("10 points stored"));
        m.tsd()
            .put("energy", &[("unit", "1"), ("sensor", "5")], 4, 1.0)
            .unwrap();
        let err = read_back(&m, 5, 10).unwrap_err();
        assert!(err.contains("unit 1 sensor 5 t=4"), "{err}");
        m.shutdown();
    }
}
