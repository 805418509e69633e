//! `pga-perf`: the end-to-end benchmark of the PGA platform.
//!
//! ```text
//! pga-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs one workload from a seed, checks its outputs against an oracle,
//! and prints every metric by name with its unit; the last line of
//! standard output is the JSON object the benchmark driver reads. With
//! `--trace 0` the metrics are the end-to-end ones, measured with nothing
//! recording, on one pinned CPU and the benchmark's own clock (CPU time
//! in reference-host units, see `host`). With `--trace 1` the workload's
//! ops are replayed with a span around every top-level call, the layer
//! ladder is climbed on the same generated inputs, and the metrics are the
//! per-layer ones. An oracle mismatch is printed and the exit code is 1,
//! with no metrics. See `bench/README.md`.

mod catalog;
mod host;
mod ladder;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use catalog::LayerMetrics;
use host::Provenance;
use trace::Tracer;
use workloads::Params;

/// Share of `--seconds` a traced run spends replaying ops; the ladder's
/// fixed work takes about the rest on one CPU.
const REPLAY_SHARE: f64 = 0.6;

/// Times the whole ladder is climbed (`catalog::merge_layers` takes a
/// time from the fastest climb and a count as the median).
const CLIMBS: usize = 2;

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: pga-perf --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]",
        names.join("|")
    )
}

fn parse_args() -> Result<(String, Params), String> {
    let mut workload = None;
    let mut p = Params {
        seed: 7,
        seconds: 25.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            p.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value for {flag}: {value}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => p.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                p.seconds = value.parse().map_err(|_| bad())?;
                if !(p.seconds > 0.0 && p.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, p))
}

fn run() -> Result<String, String> {
    workloads::mark_run_start();
    let (name, p) = parse_args()?;
    let workload = workloads::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    // Before anything spawns a thread or times a set-up: one CPU for
    // everything, and the reference built.
    let affinity = host::pin_to_one_cpu();
    host::reference_slice();
    let mut prov = Provenance::capture(p.seed, &affinity);
    let mut tr = Tracer::new();
    let oracle = |mismatch: String| format!("ORACLE FAILED ({name}, seed {}): {mismatch}", p.seed);

    let replay_params = Params {
        seconds: if p.trace {
            p.seconds * REPLAY_SHARE
        } else {
            p.seconds
        },
        ..p
    };
    let mut replay = LayerMetrics::default();
    let measured = (workload.run)(&replay_params, &mut tr, &mut replay).map_err(oracle)?;
    let mut climbs = Vec::new();
    if p.trace {
        let shape = (workload.shape)(&p);
        for _ in 0..CLIMBS {
            let mut climb = LayerMetrics::default();
            ladder::run(&shape, &mut tr, &mut climb).map_err(oracle)?;
            climbs.push(climb);
        }
    }
    prov.finish();

    if p.trace {
        let host = report::host_metrics(&prov, &measured);
        let layers = catalog::merge_layers(&replay, &climbs, &host)?;
        report::traced(workload, &p, &prov, &measured, &tr, &layers)
    } else {
        Ok(report::untraced(workload, &p, &prov, &measured))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(result_line) => {
            println!("{result_line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
