//! Turns measurements into the named metrics, prints them, and writes the
//! trace file.

use serde_json::{json, Map, Value};

use crate::catalog::{LayerMetrics, MetricDef, END_TO_END};
use crate::host::Provenance;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{Measured, Params, Took, Workload};

/// The clock a set of end-to-end values is read on.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// The benchmark's own: CPU time of the process × the run's
    /// `host_speed`, i.e. what the reference host would have taken.
    Reference { host_speed: f64 },
    /// Plain wall time, for the diagnostics.
    Wall,
}

impl Clock {
    fn ms(self, took: &Took) -> f64 {
        match self {
            Clock::Reference { host_speed } => took.cpu_ms * host_speed,
            Clock::Wall => took.wall_ms,
        }
    }
}

/// The run's rounds laid over each other: for each op position, the median
/// over the rounds of the time the op took there. Rounds are identical
/// work, so position `k` is one measurement repeated once per round.
pub fn median_round_ms(m: &Measured, clock: Clock) -> Vec<f64> {
    (0..m.ops_per_round)
        .map(|k| {
            let at_k: Vec<f64> = m
                .ops
                .iter()
                .skip(k)
                .step_by(m.ops_per_round)
                .take(m.rounds())
                .map(|op| clock.ms(&op.took))
                .collect();
            median(&at_k)
        })
        .collect()
}

/// The four end-to-end values, in `END_TO_END` order.
pub fn end_to_end(m: &Measured, workload: &Workload, clock: Clock) -> [f64; 4] {
    let within = m
        .ops
        .iter()
        .filter(|op| op.ok && clock.ms(&op.took) <= workload.limit_ms)
        .count();
    let round_ms = median_round_ms(m, clock);
    let samples_per_round = m.samples as f64 / m.rounds() as f64;
    let setups_ms: Vec<f64> = m.setups.iter().map(|took| clock.ms(took)).collect();
    [
        samples_per_round / (round_ms.iter().sum::<f64>() / 1e3),
        median(&round_ms),
        within as f64 / m.ops.len() as f64,
        median(&setups_ms) / 1e3,
    ]
}

/// Tracing overhead of a run whose ops went traced-untraced-untraced-traced:
/// per group of four, the time of the two traced ops ÷ that of the two
/// untraced ones (equal in expectation even where op cost climbs along the
/// run), and over the groups the median.
pub fn trace_overhead_ratio(m: &Measured) -> f64 {
    let ratios: Vec<f64> = m
        .ops
        .chunks_exact(4)
        .map(|quad| {
            let sum = |traced: bool| -> f64 {
                quad.iter()
                    .filter(|op| op.traced == traced)
                    .map(|op| op.took.cpu_ms)
                    .sum()
            };
            sum(true) / sum(false)
        })
        .collect();
    median(&ratios)
}

fn metric_object(values: impl Iterator<Item = (&'static MetricDef, f64)>) -> Value {
    let mut map = Map::new();
    for (def, value) in values {
        map.insert(
            def.name.to_string(),
            json!({"value": value, "unit": (def.unit)}),
        );
    }
    Value::Object(map)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(m: &Measured, metrics: Value) -> String {
    let failed = m.ops.iter().filter(|op| !op.ok).count();
    json!({
        "correct": true,
        "attempted": (m.ops.len()),
        "failed": failed,
        "metrics": metrics,
    })
    .to_string()
}

fn print_header(workload: &Workload, p: &Params, prov: &Provenance, m: &Measured) {
    println!(
        "pga-perf workload={} seed={} seconds={} trace={}{}",
        workload.name,
        p.seed,
        p.seconds,
        u8::from(p.trace),
        if p.smoke { " smoke" } else { "" }
    );
    println!(
        "provenance nproc={} pinned_cpu={} commit={} rustc=\"{}\" clock=\"{}\" calib_ms={:.2}/{:.2} steal_share={:.4}",
        prov.nproc,
        prov.pinned_cpu
            .map_or("none".to_string(), |cpu| cpu.to_string()),
        prov.git_commit,
        prov.rustc,
        crate::host::CLOCK,
        prov.calib_before_ms,
        prov.calib_after_ms,
        prov.steal_share
    );
    println!(
        "reference slice_ms={:.4} slices={} reference_host_ms={} host_speed={:.4}",
        prov.reference_ms,
        prov.reference_slices,
        crate::host::REFERENCE_SLICE_MS,
        prov.host_speed()
    );
    let millis = |ms: Vec<f64>| -> Vec<f64> { ms.iter().map(|ms| ms.round() / 1e3).collect() };
    println!(
        "measured rounds={} ops={} failed={} samples={} set-ups-cpu-s={:?} slowest-rounds-cpu-s={:?}",
        m.rounds(),
        m.ops.len(),
        m.ops.iter().filter(|op| !op.ok).count(),
        m.samples,
        millis(m.setups.iter().map(|took| took.cpu_ms).collect()),
        {
            let mut slowest = millis(
                m.ops
                    .chunks_exact(m.ops_per_round)
                    .map(|round| round.iter().map(|op| op.took.cpu_ms).sum())
                    .collect(),
            );
            slowest.sort_by(|a, b| b.total_cmp(a));
            slowest.truncate(4);
            slowest
        }
    );
}

/// Report an untraced run; returns the driver's result line.
pub fn untraced(workload: &Workload, p: &Params, prov: &Provenance, m: &Measured) -> String {
    print_header(workload, p, prov, m);
    let clock = Clock::Reference {
        host_speed: prov.host_speed(),
    };
    let values = end_to_end(m, workload, clock);
    for (metric, value) in END_TO_END.iter().zip(values) {
        println!("{:<22} {:>16.4} {}", metric.name, value, metric.unit);
    }
    // Diagnostics, not gated. The same four on the plain wall clock: what
    // this host, as busy as it was, actually took.
    print!("diagnostics wall-clock");
    for (metric, value) in END_TO_END.iter().zip(end_to_end(m, workload, Clock::Wall)) {
        print!(" {}={value:.4}", metric.name);
    }
    println!();
    // The tail: with 30–540 ops a run on a shared host it does not repeat
    // within a tenth.
    let op_ms: Vec<f64> = m.ops.iter().map(|op| clock.ms(&op.took)).collect();
    print!(
        "diagnostics limit_ms={} op_ms_min={:.3} op_ms_p10={:.3} op_ms_p25={:.3} op_ms_p90={:.3}",
        workload.limit_ms,
        percentile(&op_ms, 0),
        percentile(&op_ms, 10),
        percentile(&op_ms, 25),
        percentile(&op_ms, 90)
    );
    if let Some((q, v)) = highest_supported_percentile(&op_ms).filter(|(q, _)| *q != 90) {
        print!(" op_ms_p{q}={v:.3}");
    }
    println!(
        " op_ms_max={:.3} host.peak_rss_mb={:.1}",
        percentile(&op_ms, 100),
        crate::host::peak_rss_mb()
    );
    result_line(m, metric_object(END_TO_END.iter().zip(values)))
}

/// Report a traced run and write its trace file; returns the driver's
/// result line.
pub fn traced(
    workload: &Workload,
    p: &Params,
    prov: &Provenance,
    m: &Measured,
    tr: &Tracer,
    layers: &[(&'static MetricDef, f64, &'static str)],
) -> Result<String, String> {
    print_header(workload, p, prov, m);
    for (metric, value, source) in layers {
        println!(
            "{:<42} {:>16.4} {:<8} {}",
            metric.name, value, metric.unit, source
        );
    }

    let mut per_layer = Map::new();
    for (metric, value, source) in layers {
        per_layer.insert(
            metric.name.to_string(),
            json!({"value": value, "unit": (metric.unit), "source": source}),
        );
    }
    let mut doc = Map::new();
    doc.insert("workload".into(), json!((workload.name)));
    doc.insert("smoke".into(), json!((p.smoke)));
    doc.insert("provenance".into(), prov.to_json());
    doc.insert("per_layer".into(), Value::Object(per_layer));
    doc.insert("nested".into(), json!((crate::catalog::NESTED)));
    doc.insert(
        "ops".into(),
        Value::Array(
            m.ops
                .iter()
                .map(|op| {
                    json!({
                        "cpu_ms": (op.took.cpu_ms),
                        "wall_ms": (op.took.wall_ms),
                        "ok": (op.ok),
                        "traced": (op.traced),
                    })
                })
                .collect(),
        ),
    );
    if let Value::Object(spans) = tr.to_json() {
        for (k, v) in spans.iter() {
            doc.insert(k.clone(), v.clone());
        }
    }
    let dir = crate::host::repo_root().join("bench/out");
    let file = dir.join(format!(
        "trace-{}{}.json",
        workload.name,
        if p.smoke { "-smoke" } else { "" }
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, Value::Object(doc).to_string()))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("trace written to {}", file.display());

    Ok(result_line(
        m,
        metric_object(layers.iter().map(|(d, v, _)| (*d, *v))),
    ))
}

/// Host-level per-layer values, known only once everything else ran.
pub fn host_metrics(prov: &Provenance, m: &Measured) -> LayerMetrics {
    let mut host = LayerMetrics::default();
    host.set("host.peak_rss_mb", crate::host::peak_rss_mb());
    host.set("host.calib_ms", prov.calib_ms());
    host.set("trace.overhead_ratio", trace_overhead_ratio(m));
    host
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Op;

    /// CPU time as given; the wall clock ran a tenth slower.
    fn took(cpu_ms: f64) -> Took {
        Took {
            cpu_ms,
            wall_ms: cpu_ms * 1.1,
        }
    }

    fn measured(ops_per_round: u64, ms: &[f64]) -> Measured {
        let mut m = Measured::new(ops_per_round);
        m.ops = ms
            .iter()
            .map(|&ms| Op {
                took: took(ms),
                ok: true,
                traced: false,
            })
            .collect();
        m
    }

    const AS_MEASURED: Clock = Clock::Reference { host_speed: 1.0 };

    #[test]
    fn rounds_are_laid_over_each_other_position_by_position() {
        // Three rounds of two positions; one round met a stall at each.
        let m = measured(2, &[10.0, 100.0, 11.0, 900.0, 50.0, 101.0]);
        assert_eq!(m.rounds(), 3);
        assert_eq!(median_round_ms(&m, AS_MEASURED), [11.0, 101.0]);
    }

    #[test]
    fn end_to_end_counts_slow_and_failed_ops_against_the_limit() {
        let mut m = measured(2, &[10.0, 100.0, 11.0, 900.0, 50.0, 101.0]);
        m.ops[0].ok = false;
        m.samples = 3 * 1120;
        m.setups = vec![took(1000.0), took(3000.0), took(2000.0)];
        let workload = Workload {
            limit_ms: 400.0,
            ..crate::workloads::WORKLOADS[0]
        };
        let [samples_per_s, op_ms_p50, within_limit_ratio, setup_s] =
            end_to_end(&m, &workload, AS_MEASURED);
        assert_eq!(samples_per_s, 1120.0 / 0.112);
        assert_eq!(op_ms_p50, 56.0);
        assert_eq!(within_limit_ratio, 4.0 / 6.0);
        assert_eq!(setup_s, 2.0);
    }

    #[test]
    fn a_slow_host_is_scaled_out_of_the_reference_clock_only() {
        // The same work on a host whose reference slices took a quarter
        // longer: every CPU time is 1.25 × the one above.
        let mut m = measured(2, &[12.5, 125.0, 13.75, 1125.0, 62.5, 126.25]);
        m.samples = 3 * 1120;
        m.setups = vec![took(2500.0)];
        let workload = Workload {
            limit_ms: 400.0,
            ..crate::workloads::WORKLOADS[0]
        };
        let scaled = end_to_end(&m, &workload, Clock::Reference { host_speed: 0.8 });
        assert!((scaled[1] - 56.0).abs() < 1e-9);
        assert_eq!(scaled[2], 5.0 / 6.0);
        assert!((scaled[3] - 2.0).abs() < 1e-9);
        let wall = end_to_end(&m, &workload, Clock::Wall);
        assert!((wall[1] - 56.0 * 1.25 * 1.1).abs() < 1e-9);
        assert!((wall[3] - 2.0 * 1.25 * 1.1).abs() < 1e-9);
    }
}
