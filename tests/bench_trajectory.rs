//! `BENCH_trajectory.json`: one record per performance claim, each a
//! parent/change pair set measured with the committed benchmark. The
//! file is data, so this checks it the way data is checked: every record
//! has the schema's fields with sane values, and its ratio is what its
//! medians say.

use serde_json::Value;

const TRAJECTORY: &str = include_str!("../BENCH_trajectory.json");
const WORKLOADS: [&str; 4] = [
    "ingest_firehose",
    "monitor_cycle",
    "dashboard_read",
    "batch_compute",
];
const METRICS: [(&str, &str, &str); 4] = [
    ("samples_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("within_limit_ratio", "ratio", "higher"),
    ("setup_s", "s", "lower"),
];

fn is_commit(v: &Value) -> bool {
    v.as_str()
        .is_some_and(|s| s.len() >= 7 && s.bytes().all(|b| b.is_ascii_hexdigit()))
}

fn number(record: &Value, path: &[&str]) -> f64 {
    let mut v = record;
    for key in path {
        v = &v[*key];
    }
    v.as_f64()
        .unwrap_or_else(|| panic!("{path:?} is not a number in {record}"))
}

/// `(q1, median, q3)` of one side, checked to be in order.
fn quartiles(record: &Value, side: &str) -> (f64, f64, f64) {
    let q = (
        number(record, &[side, "q1"]),
        number(record, &[side, "median"]),
        number(record, &[side, "q3"]),
    );
    assert!(
        0.0 < q.0 && q.0 <= q.1 && q.1 <= q.2,
        "{side} quartiles out of order in {record}"
    );
    q
}

#[test]
fn every_record_has_the_schema_and_its_ratio_matches_its_medians() {
    let doc: Value = serde_json::from_str(TRAJECTORY).expect("valid JSON");
    assert!(doc["about"].as_str().is_some());
    let records = doc["records"].as_array().expect("a records array");
    assert!(!records.is_empty());
    let newest = records.last().and_then(|r| r["issue"].as_u64());
    let mut last_issue = 0;
    for r in records {
        let issue = r["issue"].as_u64().expect("issue number");
        assert!(issue >= last_issue, "records in ISSUE order: {r}");
        last_issue = issue;
        // Only the newest ISSUE's records may lack their commit: a change
        // appends its records before it has a hash.
        assert!(
            is_commit(&r["commit"]) || (Some(issue) == newest && r["commit"].is_null()),
            "commit in {r}"
        );
        assert!(is_commit(&r["parent"]), "parent in {r}");
        assert_ne!(r["commit"], r["parent"]);
        let workload = r["workload"].as_str().expect("workload");
        assert!(WORKLOADS.contains(&workload), "workload in {r}");
        let metric = (
            r["metric"].as_str().expect("metric"),
            r["unit"].as_str().expect("unit"),
            r["better"].as_str().expect("better"),
        );
        assert!(
            METRICS.contains(&metric),
            "metric, unit and direction in {r}"
        );
        assert!(r["seed"].as_u64().is_some(), "seed in {r}");
        let pairs = r["pairs"].as_u64().expect("pairs");
        let wins = r["wins"].as_u64().expect("wins");
        assert!(pairs >= 1 && wins <= pairs, "wins of pairs in {r}");
        let (_, parent, _) = quartiles(r, "parent_runs");
        let (_, change, _) = quartiles(r, "change_runs");
        let ratio = number(r, &["ratio"]);
        // Sources give ratios to three decimals from medians they round
        // to three or four digits.
        assert!(
            (ratio - change / parent).abs() <= 0.0015,
            "ratio {ratio} against medians {change} / {parent} in {r}"
        );
        let host = &r["host"];
        assert!(host["cores"].as_u64().is_some_and(|c| c >= 1), "{r}");
        assert!(host["pinned_cpu"].is_null() || host["pinned_cpu"].as_u64().is_some());
        assert!(host["clock"].as_str().is_some(), "{r}");
        assert!(host["host_speed"].is_null() || host["host_speed"].as_f64().is_some());
        assert!(r["source"].as_str().is_some(), "{r}");
    }
}
