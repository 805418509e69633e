//! Every workload at smoke size, through the real binary: the names and
//! units it prints are the ones `BENCHMARK.json` promises the driver, each
//! exactly once, and counters that depend on the seed alone repeat.

use std::process::Command;

use serde_json::Value;

/// Counters that are a function of the seed alone.
const EXACT: [&str; 4] = [
    "tsdb.read_amplification",
    "query.cache_hit_ratio",
    "minibase.write_amplification",
    "tsdb.block_bytes_per_point",
];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_of(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("metric name").to_string(),
                m["unit"].as_str().expect("metric unit").to_string(),
            )
        })
        .collect()
}

/// Run the benchmark at smoke size; returns (exit ok, last stdout line).
fn smoke(workload: &str, trace: &str, seed: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pga-perf"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), last)
}

/// Check one result line against the names the contract lists; returns
/// the parsed metrics.
fn check_result(line: &str, expected: &[(String, String)]) -> Value {
    let doc: Value = serde_json::from_str(line).expect("last line is JSON");
    let keys: Vec<&String> = doc.as_object().expect("a JSON object").keys().collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc["correct"], true);
    assert!(doc["attempted"].as_u64().expect("attempted") >= 1);
    assert_eq!(doc["failed"], 0);
    let metrics = doc["metrics"].as_object().expect("metrics object");
    let printed: Vec<&String> = metrics.keys().collect();
    let wanted: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    assert_eq!(printed, wanted, "metric names and order");
    for (name, unit) in expected {
        // The vendored parser keeps the last of two equal keys, so count
        // occurrences in the text itself.
        assert_eq!(
            line.matches(&format!("\"{name}\":")).count(),
            1,
            "{name} printed exactly once"
        );
        assert_eq!(
            metrics[name.as_str()]["unit"],
            unit.as_str(),
            "unit of {name}"
        );
        let value = metrics[name.as_str()]["value"]
            .as_f64()
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
    }
    doc["metrics"].clone()
}

fn workload_names(bench: &Value) -> Vec<String> {
    bench["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_string())
        .collect()
}

#[test]
fn the_contract_names_the_four_workloads_and_metrics() {
    let bench = benchmark_json();
    assert_eq!(
        workload_names(&bench),
        [
            "ingest_firehose",
            "monitor_cycle",
            "dashboard_read",
            "batch_compute"
        ]
    );
    let end_to_end: Vec<String> = names_of(&bench["end_to_end"])
        .into_iter()
        .map(|m| m.0)
        .collect();
    assert_eq!(
        end_to_end,
        [
            "samples_per_s",
            "op_ms_p50",
            "within_limit_ratio",
            "setup_s"
        ]
    );
    assert_eq!(bench["paths"].as_array().map(Vec::len), Some(1));
    assert_eq!(bench["paths"][0], "bench");
}

#[test]
fn every_workload_emits_every_end_to_end_metric_once() {
    let bench = benchmark_json();
    let expected = names_of(&bench["end_to_end"]);
    for workload in workload_names(&bench) {
        for seed in ["7", "11"] {
            let (ok, line) = smoke(&workload, "0", seed);
            assert!(ok, "{workload} seed {seed} failed its oracle or crashed");
            let metrics = check_result(&line, &expected);
            for (name, _) in &expected {
                let value = metrics[name.as_str()]["value"].as_f64().expect("value");
                assert!(value > 0.0, "{workload}: {name} = {value} must never be 0");
            }
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_once_and_exact_counters_repeat() {
    let bench = benchmark_json();
    let expected = names_of(&bench["per_layer"]);
    for workload in workload_names(&bench) {
        let runs: Vec<Value> = (0..2)
            .map(|_| {
                let (ok, line) = smoke(&workload, "1", "7");
                assert!(ok, "{workload} traced smoke run failed");
                check_result(&line, &expected)
            })
            .collect();
        for name in EXACT {
            assert_eq!(
                runs[0][name]["value"], runs[1][name]["value"],
                "{workload}: {name} must repeat exactly for one seed"
            );
        }
        for run in &runs {
            // Client and RPC time is taken inside one pass, from the
            // servers' own count of their handler time.
            let rpc_self = run["cluster.rpc_self_ns_per_sample"]["value"].as_f64();
            assert!(
                rpc_self >= Some(0.0),
                "{workload}: rpc self time {rpc_self:?}"
            );
        }
        let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-");
        let text = std::fs::read_to_string(format!("{trace}{workload}-smoke.json"))
            .expect("traced run wrote its trace file");
        let doc: Value = serde_json::from_str(&text).expect("trace file parses");
        assert!(!doc["spans"].as_array().expect("spans").is_empty());
        // The ladder nests: a containing rung is not below the rung beneath
        // it. Smoke-sized passes take milliseconds and repeat within a
        // fifth on a busy host, so the better of the two runs must come
        // within that; rungs on unlike stacks miss it by half and more.
        for pair in doc["nested"].as_array().expect("nested rungs") {
            let (containing, beneath) = (pair[0].as_str().unwrap(), pair[1].as_str().unwrap());
            let ratio = |run: &Value| {
                run[containing]["value"].as_f64().expect("containing rung")
                    / run[beneath]["value"].as_f64().expect("rung beneath")
            };
            let best = ratio(&runs[0]).max(ratio(&runs[1]));
            assert!(
                best >= 0.8,
                "{workload}: {containing} is {best:.2} of {beneath}, the rung beneath it"
            );
        }
        for key in [
            "nproc",
            "git_commit",
            "rustc",
            "clock",
            "seed",
            "calib_before_ms",
            "reference_slice_ms",
            "host_speed",
        ] {
            assert!(
                !doc["provenance"][key].is_null(),
                "provenance carries {key}"
            );
        }
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        vec!["--workload", "no_such_workload"],
        vec!["--seed", "7"],
        vec!["--workload", "batch_compute", "--trace", "2"],
        vec!["--workload", "batch_compute", "--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pga-perf"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
