//! `/api/query` bodies, byte for byte against the typed path they replace.
//!
//! The model is the serde path: each engine series becomes a
//! [`QueryResponseSeries`] (its `dps` a `BTreeMap` keyed by the decimal
//! timestamp) and the array goes through `serde_json::to_string`; a
//! degraded body is the `json!` object of `error`, `partial` and the same
//! series. The server writes both bodies straight from the engine's
//! series; every answer here, random or hand-picked, must equal the
//! model's.

use std::cell::Cell;
use std::collections::BTreeMap;

use proptest::TestRng;

use pga_tsdb::{
    handle_query_with, Aggregator, DataPoint, ExecOutcome, PartialInfo, QueryExecutor, QueryFilter,
    QueryResponseSeries, ShardError, TimeSeries,
};

/// Answers the `k`-th sub-query of a request with the `k`-th outcome.
struct Scripted {
    outcomes: Vec<ExecOutcome>,
    next: Cell<usize>,
}

impl QueryExecutor for Scripted {
    fn execute(
        &self,
        _metric: &str,
        _filter: &QueryFilter,
        _start: u64,
        _end: u64,
        _downsample: Option<(u64, Aggregator)>,
    ) -> ExecOutcome {
        let k = self.next.get();
        self.next.set(k + 1);
        self.outcomes[k].clone()
    }
}

/// The body the typed serde path writes for `outcomes`: `Ok` for a 200,
/// `Err` for a 503.
fn model(outcomes: &[ExecOutcome]) -> Result<String, String> {
    let mut out: Vec<QueryResponseSeries> = Vec::new();
    let mut partial: Option<PartialInfo> = None;
    for outcome in outcomes {
        for s in outcome.series.iter() {
            out.push(QueryResponseSeries {
                metric: s.metric.clone(),
                tags: s.tags.clone(),
                dps: s
                    .points
                    .iter()
                    .map(|p| (p.timestamp.to_string(), p.value))
                    .collect(),
            });
        }
        if let Some(p) = outcome.partial.clone() {
            match &mut partial {
                Some(acc) => acc.merge(p),
                None => partial = Some(p),
            }
        }
    }
    let Some(partial) = partial else {
        return Ok(serde_json::to_string(&out).unwrap());
    };
    let msg = format!(
        "partial results: {}/{} shards failed",
        partial.failed_shards.len(),
        partial.total_shards
    );
    let partial = serde_json::to_value(&partial);
    let series = serde_json::to_value(&out);
    let body = serde_json::json!({
        "error": {"code": 503, "message": msg},
        "partial": partial,
        "series": series,
    });
    Err(serde_json::to_string(&body).unwrap())
}

/// What the server answers a request of one sub-query per outcome.
fn served(outcomes: &[ExecOutcome]) -> Result<String, String> {
    let queries = vec![r#"{"metric":"energy"}"#; outcomes.len()].join(",");
    let body = format!(r#"{{"start":0,"end":100000,"queries":[{queries}]}}"#);
    let exec = Scripted {
        outcomes: outcomes.to_vec(),
        next: Cell::new(0),
    };
    handle_query_with(&exec, &body).map_err(|e| {
        assert_eq!(e.status(), 503, "{e}");
        e.to_json()
    })
}

fn series(metric: &str, tags: &[(&str, &str)], points: &[(u64, f64)]) -> TimeSeries {
    TimeSeries {
        metric: metric.to_string(),
        tags: tags
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        points: points
            .iter()
            .map(|&(timestamp, value)| DataPoint { timestamp, value })
            .collect(),
    }
}

fn ok(series: Vec<TimeSeries>) -> ExecOutcome {
    ExecOutcome {
        series: series.into(),
        partial: None,
    }
}

const NAMES: [&str; 9] = [
    "energy",
    "unit",
    "sensor",
    "",
    "q\"uote",
    "back\\slash",
    "ctl\u{1}\u{8}\u{c}\n\r\t\u{1f}",
    "ünï😀",
    "<&>'",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

fn value(rng: &mut TestRng) -> f64 {
    match rng.below(10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.below(1000) as f64,
        5 => 1e17 + rng.below(64) as f64,
        6 => f64::from_bits(rng.next_u64()),
        _ => (rng.unit_f64() - 0.5) * 1e3,
    }
}

fn timestamps(rng: &mut TestRng) -> Vec<u64> {
    let n = rng.below(40);
    match rng.below(6) {
        0 => (95..=105).collect(),
        1 => (999..=1001).collect(),
        // Out of order, with repeats: the last value of a timestamp wins.
        2 => (0..n).map(|_| rng.below(30)).collect(),
        _ => {
            let bases = [0, 1, 9, 95, 990, 5_000, 99_990, 1_700_000_000];
            let mut t = bases[rng.below(bases.len() as u64) as usize];
            (0..n)
                .map(|_| {
                    t += 1 + rng.below(7);
                    t
                })
                .collect()
        }
    }
}

fn random_outcome(rng: &mut TestRng) -> ExecOutcome {
    let series: Vec<TimeSeries> = (0..rng.below(4))
        .map(|_| {
            let tags: BTreeMap<String, String> = (0..rng.below(4))
                .map(|_| (pick(rng, &NAMES).to_string(), pick(rng, &NAMES).to_string()))
                .collect();
            TimeSeries {
                metric: pick(rng, &NAMES).to_string(),
                tags,
                points: timestamps(rng)
                    .into_iter()
                    .map(|timestamp| DataPoint {
                        timestamp,
                        value: value(rng),
                    })
                    .collect(),
            }
        })
        .collect();
    let partial = (rng.below(4) == 0).then(|| PartialInfo {
        failed_shards: (0..1 + rng.below(3))
            .map(|_| ShardError {
                shard: rng.below(8) as u8,
                kind: pick(rng, &["busy", "deadline_expired", "storage", "q\"x"]).to_string(),
                retry_after_ms: (rng.below(2) == 0).then(|| rng.below(100)),
            })
            .collect(),
        total_shards: 4 + rng.below(4) as u32,
    });
    ExecOutcome {
        series: series.into(),
        partial,
    }
}

#[test]
fn random_answers_equal_the_typed_serde_path() {
    for case in 0..400 {
        let mut rng = TestRng::deterministic("random_answers_equal_the_typed_serde_path", case);
        let outcomes: Vec<ExecOutcome> = (0..1 + rng.below(3))
            .map(|_| random_outcome(&mut rng))
            .collect();
        assert_eq!(served(&outcomes), model(&outcomes), "case {case}");
    }
}

/// Timestamps crossing a power of ten are where string order and numeric
/// order part: `100` sorts before `95`.
#[test]
fn keys_crossing_a_power_of_ten_keep_string_order() {
    let crossing: Vec<(u64, f64)> = (95..=105).map(|t| (t, t as f64 / 4.0)).collect();
    let answer = served(&[ok(vec![series("energy", &[("unit", "1")], &crossing)])]).unwrap();
    assert!(
        answer.contains(r#""dps":{"100":25.0,"101":25.25,"#),
        "{answer}"
    );
    assert!(answer.ends_with(r#""99":24.75}}]"#), "{answer}");
    for points in [
        (999..=1001).map(|t| (t, 1.5)).collect::<Vec<_>>(),
        vec![(0, 0.0), (5, 5.0), (9, 9.0)],
        vec![(7, 1.0), (3, 2.0), (7, 3.0)],
        vec![],
    ] {
        let outcomes = [ok(vec![series("energy", &[], &points)])];
        assert_eq!(served(&outcomes), model(&outcomes));
    }
}

#[test]
fn degraded_bodies_carry_the_same_series() {
    let outcomes = [
        ok(vec![series(
            "energy",
            &[("unit", "0"), ("sensor", "3")],
            &[(10, f64::NAN), (11, -0.0), (12, 1e300)],
        )]),
        ExecOutcome {
            series: [series("energy", &[("unit", "x\"\u{8}")], &[(1, 2.0)])].into(),
            partial: Some(PartialInfo {
                failed_shards: vec![ShardError {
                    shard: 3,
                    kind: "busy".into(),
                    retry_after_ms: Some(40),
                }],
                total_shards: 4,
            }),
        },
    ];
    let body = served(&outcomes).unwrap_err();
    assert_eq!(Err(body.clone()), model(&outcomes));
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["series"][0]["dps"]["10"], serde_json::Value::Null);
    assert_eq!(v["series"][1]["tags"]["unit"], "x\"\u{8}");
}
