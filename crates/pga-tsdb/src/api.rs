//! OpenTSDB-compatible JSON API (`/api/put`, `/api/query`).
//!
//! Transport-agnostic: these functions map JSON request bodies to TSD
//! operations and produce JSON responses in OpenTSDB's wire format, so any
//! HTTP layer (the platform mounts them on `pga-viz`'s server) or test
//! can drive them directly. Downstream tools that speak OpenTSDB's HTTP
//! API — the point of building on OpenTSDB in the first place — work
//! against this endpoint.

use std::collections::BTreeMap;

use serde::json::{escape_into, number_into, Number};
use serde::{Deserialize, Serialize};

use crate::query::{Aggregator, QueryFilter, TimeSeries};
use crate::tsd::{BatchPoint, Tsd, TsdError};
use crate::uid::RESERVED_PREFIX;

/// One datapoint of an `/api/put` body (OpenTSDB's schema).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PutDatapoint {
    /// Metric name.
    pub metric: String,
    /// Timestamp in seconds.
    pub timestamp: u64,
    /// Value.
    pub value: f64,
    /// Tags (OpenTSDB requires at least one).
    pub tags: BTreeMap<String, String>,
}

/// `/api/query` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Start timestamp (seconds, inclusive).
    pub start: u64,
    /// End timestamp (seconds, inclusive). Defaults to `u64::MAX/2`.
    #[serde(default = "default_end")]
    pub end: u64,
    /// Sub-queries.
    pub queries: Vec<SubQuery>,
}

fn default_end() -> u64 {
    u64::MAX / 2
}

/// One sub-query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubQuery {
    /// Metric to read.
    pub metric: String,
    /// Exact-match tag filters.
    #[serde(default)]
    pub tags: BTreeMap<String, String>,
    /// Optional downsample spec, e.g. `"60s-avg"`.
    #[serde(default)]
    pub downsample: Option<String>,
}

/// One output series (OpenTSDB's response element: `dps` maps timestamp
/// strings to values), as a client parses it. The server writes the same
/// shape straight from the engine's series ([`handle_query_with`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryResponseSeries {
    /// Metric name.
    pub metric: String,
    /// Series tags.
    pub tags: BTreeMap<String, String>,
    /// Data points keyed by stringified timestamp.
    pub dps: BTreeMap<String, f64>,
}

/// Typed description of one failed shard of a scatter-gather query —
/// the wire form of the read path's partial-result contract. `kind` is
/// one of `"busy"`, `"deadline_expired"`, `"storage"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardError {
    /// Salt shard (region) that failed.
    pub shard: u8,
    /// Failure class: `busy`, `deadline_expired`, or `storage`.
    pub kind: String,
    /// Retry hint carried by a `busy` rejection.
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
}

/// Partial-result descriptor attached to degraded query responses: which
/// shards failed out of how many, so a dashboard can render the series it
/// did get and badge the chart as degraded instead of hanging or showing
/// an empty plot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialInfo {
    /// Shards that failed, with their typed failure class.
    pub failed_shards: Vec<ShardError>,
    /// Total shards the query fanned out to.
    pub total_shards: u32,
}

impl PartialInfo {
    /// Merge another sub-query's partial info into this one.
    pub fn merge(&mut self, other: PartialInfo) {
        self.failed_shards.extend(other.failed_shards);
        self.total_shards += other.total_shards;
    }
}

/// Result of executing one sub-query: the series that were assembled plus
/// an optional partial-result marker when some shards failed.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Series assembled (downsampling already applied when requested).
    pub series: Vec<TimeSeries>,
    /// Present when one or more shards failed.
    pub partial: Option<PartialInfo>,
}

/// A query execution strategy behind `/api/query`. The raw [`Tsd`] path
/// implements it directly; `pga-query`'s planned rollup/scatter-gather
/// engine implements it for the dashboard serving layer.
pub trait QueryExecutor {
    /// Execute one `(metric, filter, range, downsample)` sub-query.
    /// Never blocks unboundedly: failed or slow shards surface in
    /// [`ExecOutcome::partial`] instead of an error.
    fn execute(
        &self,
        metric: &str,
        filter: &QueryFilter,
        start: u64,
        end: u64,
        downsample: Option<(u64, Aggregator)>,
    ) -> ExecOutcome;
}

impl QueryExecutor for Tsd {
    /// The raw path: full scans, serial per shard. A storage failure
    /// degrades the whole request (the serial scan cannot tell which
    /// later shards would have succeeded).
    fn execute(
        &self,
        metric: &str,
        filter: &QueryFilter,
        start: u64,
        end: u64,
        downsample: Option<(u64, Aggregator)>,
    ) -> ExecOutcome {
        let total_shards = self.codec().salt_range().len() as u32;
        match self.query(metric, filter, start, end) {
            Ok(series) => ExecOutcome {
                series: series
                    .into_iter()
                    .map(|s| match downsample {
                        Some((interval, agg)) => s.downsample(interval, agg),
                        None => s,
                    })
                    .collect(),
                partial: None,
            },
            Err(e) => ExecOutcome {
                series: Vec::new(),
                partial: Some(PartialInfo {
                    failed_shards: vec![ShardError {
                        shard: 0,
                        kind: shard_error_kind(&e),
                        retry_after_ms: e.retry_after_ms(),
                    }],
                    total_shards,
                }),
            },
        }
    }
}

/// Map a storage error to its wire failure class.
pub fn shard_error_kind(e: &TsdError) -> String {
    if e.is_busy() {
        "busy".into()
    } else if e.is_deadline_expired() {
        "deadline_expired".into()
    } else {
        "storage".into()
    }
}

/// Body of a degraded (HTTP 503) query response: the typed partial-result
/// descriptor plus every series that *was* assembled, so clients can
/// render a degraded chart rather than an empty one.
#[derive(Debug, Clone)]
pub struct DegradedBody {
    /// Which shards failed, out of how many.
    pub partial: PartialInfo,
    /// Series that were assembled despite the failures.
    pub series: Vec<TimeSeries>,
}

/// API failure, rendered as an OpenTSDB-style error JSON.
#[derive(Debug)]
pub enum ApiError {
    /// Malformed request body.
    BadRequest(String),
    /// Storage failure.
    Storage(TsdError),
    /// Some query shards failed: partial results attached.
    Degraded(Box<DegradedBody>),
}

impl ApiError {
    /// HTTP status code for this error.
    pub fn status(&self) -> u16 {
        match self {
            ApiError::BadRequest(_) => 400,
            ApiError::Storage(_) => 500,
            ApiError::Degraded(_) => 503,
        }
    }

    /// OpenTSDB-style error body. Degraded responses additionally carry
    /// `partial` and `series` alongside `error`.
    pub fn to_json(&self) -> String {
        let (code, msg) = match self {
            ApiError::BadRequest(m) => (400, m.clone()),
            ApiError::Storage(e) => (500, e.to_string()),
            ApiError::Degraded(d) => {
                let msg = format!(
                    "partial results: {}/{} shards failed",
                    d.partial.failed_shards.len(),
                    d.partial.total_shards
                );
                let mut out = String::from("{\"error\":{\"code\":503,\"message\":");
                escape_into(&msg, &mut out);
                out.push_str("},\"partial\":");
                out.push_str(&serde_json::to_string(&d.partial).unwrap_or_default());
                out.push_str(",\"series\":");
                series_json_into(&d.series, &mut out);
                out.push('}');
                return out;
            }
        };
        serde_json::json!({"error": {"code": code, "message": msg}}).to_string()
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::BadRequest(m) => write!(f, "bad request: {m}"),
            ApiError::Storage(e) => write!(f, "storage: {e}"),
            ApiError::Degraded(d) => write!(
                f,
                "degraded: {}/{} shards failed",
                d.partial.failed_shards.len(),
                d.partial.total_shards
            ),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<TsdError> for ApiError {
    /// A put the TSD refuses as malformed is the client's error (400);
    /// anything else is the storage layer's (500).
    fn from(e: TsdError) -> Self {
        match e {
            TsdError::TimestampOutOfRange { .. } => ApiError::BadRequest(e.to_string()),
            _ => ApiError::Storage(e),
        }
    }
}

/// Handle an `/api/put` body: a single datapoint object or an array of
/// them (both accepted, like OpenTSDB). Returns the number of points
/// written. The whole body is validated before anything is written: a
/// point without tags, with a non-finite value, with a timestamp no row
/// key can hold, or with an empty or reserved ([`RESERVED_PREFIX`]) metric
/// or tag name rejects the request. A valid body is written with one
/// [`Tsd::put_batch`] per distinct metric, in body order.
pub fn handle_put(tsd: &Tsd, body: &str) -> Result<usize, ApiError> {
    let points: Vec<PutDatapoint> = if body.trim_start().starts_with('[') {
        serde_json::from_str(body).map_err(|e| ApiError::BadRequest(e.to_string()))?
    } else {
        let one: PutDatapoint =
            serde_json::from_str(body).map_err(|e| ApiError::BadRequest(e.to_string()))?;
        vec![one]
    };
    for p in &points {
        if p.tags.is_empty() {
            return Err(ApiError::BadRequest(format!(
                "datapoint for metric {} has no tags",
                p.metric
            )));
        }
        if !p.value.is_finite() {
            return Err(ApiError::BadRequest("non-finite value".into()));
        }
        tsd.check_timestamp(p.timestamp)?;
        // The reserved prefix names the system's own series (rollup shadow
        // metrics); only the TSD's observers may write those.
        let names = p.tags.iter().flat_map(|(k, v)| [k, v]);
        for name in std::iter::once(&p.metric).chain(names) {
            if name.is_empty() || name.starts_with(RESERVED_PREFIX) {
                return Err(ApiError::BadRequest(format!(
                    "empty or reserved metric or tag name {name:?}"
                )));
            }
        }
    }
    // One batched put per distinct metric, metrics in order of first
    // appearance and each metric's points in body order.
    let tags: Vec<Vec<(&str, &str)>> = points
        .iter()
        .map(|p| {
            p.tags
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect()
        })
        .collect();
    let mut by_metric: BTreeMap<&str, (usize, Vec<BatchPoint<'_>>)> = BTreeMap::new();
    for (i, (p, tags)) in points.iter().zip(&tags).enumerate() {
        let (_, batch) = by_metric.entry(&p.metric).or_insert((i, Vec::new()));
        batch.push((tags, p.timestamp, p.value));
    }
    let mut batches: Vec<_> = by_metric.into_iter().collect();
    batches.sort_unstable_by_key(|&(_, (first, _))| first);
    for (metric, (_, batch)) in &batches {
        tsd.put_batch(metric, batch)?;
    }
    Ok(points.len())
}

/// Parse a downsample spec like `"60s-avg"` into `(interval, aggregator)`.
pub fn parse_downsample(spec: &str) -> Result<(u64, Aggregator), ApiError> {
    let (interval_part, agg_part) = spec
        .split_once('-')
        .ok_or_else(|| ApiError::BadRequest(format!("bad downsample spec: {spec}")))?;
    let interval: u64 = interval_part
        .strip_suffix('s')
        .unwrap_or(interval_part)
        .parse()
        .map_err(|_| ApiError::BadRequest(format!("bad downsample interval: {spec}")))?;
    if interval == 0 {
        return Err(ApiError::BadRequest(
            "downsample interval must be > 0".into(),
        ));
    }
    let agg = match agg_part {
        "avg" => Aggregator::Avg,
        "sum" => Aggregator::Sum,
        "min" => Aggregator::Min,
        "max" => Aggregator::Max,
        "count" => Aggregator::Count,
        other => return Err(ApiError::BadRequest(format!("unknown aggregator: {other}"))),
    };
    Ok((interval, agg))
}

/// Handle an `/api/suggest` query string (e.g. `type=metrics&q=ener&max=10`).
/// Types follow OpenTSDB: `metrics`, `tagk`, `tagv`. Returns a JSON array
/// of names.
pub fn handle_suggest(tsd: &Tsd, query_string: &str) -> Result<String, ApiError> {
    use crate::uid::UidKind;
    let mut kind = None;
    let mut q = String::new();
    let mut max = 25usize;
    for pair in query_string.trim_start_matches('?').split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        match k {
            "type" => {
                kind = Some(match v {
                    "metrics" => UidKind::Metric,
                    "tagk" => UidKind::TagKey,
                    "tagv" => UidKind::TagValue,
                    other => {
                        return Err(ApiError::BadRequest(format!(
                            "unknown suggest type: {other}"
                        )))
                    }
                })
            }
            "q" => q = v.to_string(),
            "max" => {
                max = v
                    .parse()
                    .map_err(|_| ApiError::BadRequest(format!("bad max: {v}")))?
            }
            _ => {}
        }
    }
    let kind = kind.ok_or_else(|| ApiError::BadRequest("missing type parameter".into()))?;
    let names = tsd.codec().uids().suggest(kind, &q, max);
    serde_json::to_string(&names).map_err(|e| ApiError::BadRequest(e.to_string()))
}

/// Handle an `/api/query` body against the raw [`Tsd`] path. Shard
/// failures surface as [`ApiError::Degraded`] (HTTP 503) with the typed
/// partial-result body.
pub fn handle_query(tsd: &Tsd, body: &str) -> Result<String, ApiError> {
    handle_query_with(tsd, body)
}

/// Handle an `/api/query` body through any [`QueryExecutor`] — the raw
/// TSD path or the serving-layer engine from `pga-query`. When every
/// shard answers, returns the OpenTSDB-style series array; when some
/// shards fail, returns [`ApiError::Degraded`] carrying both the typed
/// shard errors and every series that was assembled.
pub fn handle_query_with<E: QueryExecutor + ?Sized>(
    exec: &E,
    body: &str,
) -> Result<String, ApiError> {
    let req: QueryRequest =
        serde_json::from_str(body).map_err(|e| ApiError::BadRequest(e.to_string()))?;
    if req.end < req.start {
        return Err(ApiError::BadRequest("end before start".into()));
    }
    let mut series: Vec<TimeSeries> = Vec::new();
    let mut partial: Option<PartialInfo> = None;
    for sub in &req.queries {
        let mut filter = QueryFilter::any();
        for (k, v) in &sub.tags {
            filter = filter.with(k, v);
        }
        let downsample = sub
            .downsample
            .as_deref()
            .map(parse_downsample)
            .transpose()?;
        let outcome = exec.execute(&sub.metric, &filter, req.start, req.end, downsample);
        series.extend(outcome.series);
        if let Some(p) = outcome.partial {
            match &mut partial {
                Some(acc) => acc.merge(p),
                None => partial = Some(p),
            }
        }
    }
    if let Some(partial) = partial {
        return Err(ApiError::Degraded(Box::new(DegradedBody {
            partial,
            series,
        })));
    }
    let mut out = String::new();
    series_json_into(&series, &mut out);
    Ok(out)
}

/// Append `series` to `out` as the JSON array of OpenTSDB response
/// elements — `[{"metric":…,"tags":{…},"dps":{"<ts>":<value>,…}},…]` —
/// written straight from the engine's series, byte for byte what
/// serialising them as [`QueryResponseSeries`] gives. Both the 200 body
/// and a degraded body's `series` come from here.
///
/// `dps` keys are in string order, as a `BTreeMap<String, f64>` keeps
/// them, and a repeated timestamp keeps its last value. String order is
/// the points' order whenever their timestamps strictly ascend within one
/// number of decimal digits, so such a series streams as it comes; any
/// other (one crossing a power of ten) is sorted first.
fn series_json_into(series: &[TimeSeries], out: &mut String) {
    // About 96 bytes a series and 28 a point.
    let points: usize = series.iter().map(|s| s.points.len()).sum();
    out.reserve(2 + 96 * series.len() + 28 * points);
    out.push('[');
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"metric\":");
        escape_into(&s.metric, out);
        out.push_str(",\"tags\":{");
        for (j, (k, v)) in s.tags.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            escape_into(k, out);
            out.push(':');
            escape_into(v, out);
        }
        out.push_str("},\"dps\":{");
        let digits = |t: u64| t.max(1).ilog10();
        let streams = s.points.windows(2).all(|w| match w {
            [a, b] => a.timestamp < b.timestamp && digits(a.timestamp) == digits(b.timestamp),
            _ => true,
        });
        let mut dp = |j: usize, key: &str, value: f64| {
            if j > 0 {
                out.push(',');
            }
            escape_into(key, out);
            out.push(':');
            number_into(&Number::F(value), out);
        };
        if streams {
            let mut key = String::new();
            for (j, p) in s.points.iter().enumerate() {
                key.clear();
                number_into(&Number::U(p.timestamp), &mut key);
                dp(j, &key, p.value);
            }
        } else {
            let sorted: BTreeMap<String, f64> = s
                .points
                .iter()
                .map(|p| (p.timestamp.to_string(), p.value))
                .collect();
            for (j, (key, &value)) in sorted.iter().enumerate() {
                dp(j, key, value);
            }
        }
        out.push_str("}}");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{KeyCodec, KeyCodecConfig};
    use crate::tsd::TsdConfig;
    use crate::uid::UidTable;
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};

    fn tsd() -> (Master, Tsd) {
        let codec = KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: 4,
                row_span_secs: 3600,
            },
            UidTable::new(),
        );
        let coord = Coordinator::new(10_000);
        let mut master = Master::bootstrap(2, ServerConfig::default(), coord, 0);
        master.create_table(&TableDescriptor {
            name: "tsdb".into(),
            split_points: codec.split_points(),
            region_config: RegionConfig::default(),
        });
        let t = Tsd::new(codec, Client::connect(&master), TsdConfig::default());
        (master, t)
    }

    #[test]
    fn put_single_and_array_bodies() {
        let (m, t) = tsd();
        let one =
            r#"{"metric":"energy","timestamp":5,"value":1.5,"tags":{"unit":"1","sensor":"2"}}"#;
        assert_eq!(handle_put(&t, one).unwrap(), 1);
        let many = r#"[
            {"metric":"energy","timestamp":6,"value":2.5,"tags":{"unit":"1","sensor":"2"}},
            {"metric":"energy","timestamp":7,"value":3.5,"tags":{"unit":"1","sensor":"3"}}
        ]"#;
        assert_eq!(handle_put(&t, many).unwrap(), 2);
        m.shutdown();
    }

    /// An array body is one batched put per metric, not one per point; a
    /// body refused whole issues none.
    #[test]
    fn put_bodies_write_one_batch_per_metric() {
        use std::sync::atomic::Ordering;
        let (m, t) = tsd();
        let rpcs = || t.metrics().put_rpcs.load(Ordering::Relaxed);
        let point = |metric: &str, ts: u64, sensor: u32| {
            format!(
                r#"{{"metric":"{metric}","timestamp":{ts},"value":{ts}.5,"tags":{{"unit":"1","sensor":"{sensor}"}}}}"#
            )
        };
        let body = |points: Vec<String>| format!("[{}]", points.join(","));

        let one_metric: Vec<String> = (0..40)
            .map(|i| point("energy", 10 + i, i as u32 % 7))
            .collect();
        let before = rpcs();
        assert_eq!(handle_put(&t, &body(one_metric)).unwrap(), 40);
        assert_eq!(rpcs() - before, 1, "40 points of one metric");

        let two_metrics: Vec<String> = (0..12)
            .map(|i| point(["energy", "anomaly", "energy"][i % 3], 100 + i as u64, 2))
            .collect();
        let before = rpcs();
        assert_eq!(handle_put(&t, &body(two_metrics)).unwrap(), 12);
        assert_eq!(rpcs() - before, 2, "two metrics, interleaved");

        let mut refused: Vec<String> = (0..5).map(|i| point("energy", 200 + i, 3)).collect();
        refused.push(r#"{"metric":"energy","timestamp":205,"value":1.0,"tags":{}}"#.into());
        let before = rpcs();
        assert!(matches!(
            handle_put(&t, &body(refused)),
            Err(ApiError::BadRequest(_))
        ));
        assert_eq!(rpcs(), before, "a refused body issues no put");

        let any = QueryFilter::any();
        let energy: usize = t
            .query("energy", &any, 0, 1000)
            .unwrap()
            .iter()
            .map(|s| s.points.len())
            .sum();
        assert_eq!(energy, 40 + 8, "every accepted point, nothing refused");
        let anomaly = t.query("anomaly", &any, 0, 1000).unwrap();
        let stamps: Vec<u64> = anomaly[0].points.iter().map(|p| p.timestamp).collect();
        assert_eq!(stamps, [101, 104, 107, 110]);
        m.shutdown();
    }

    #[test]
    fn put_rejects_bad_bodies() {
        let (m, t) = tsd();
        assert!(matches!(
            handle_put(&t, "not json"),
            Err(ApiError::BadRequest(_))
        ));
        let no_tags = r#"{"metric":"energy","timestamp":5,"value":1.0,"tags":{}}"#;
        assert!(matches!(
            handle_put(&t, no_tags),
            Err(ApiError::BadRequest(_))
        ));
        m.shutdown();
    }

    #[test]
    fn query_roundtrip_through_json() {
        let (m, t) = tsd();
        for ts in 0..10u64 {
            t.put("energy", &[("unit", "1"), ("sensor", "2")], ts, ts as f64)
                .unwrap();
        }
        let body = r#"{"start":2,"end":5,"queries":[{"metric":"energy","tags":{"unit":"1"}}]}"#;
        let resp = handle_query(&t, body).unwrap();
        let series: Vec<QueryResponseSeries> = serde_json::from_str(&resp).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].dps.len(), 4);
        assert_eq!(series[0].dps["3"], 3.0);
        m.shutdown();
    }

    #[test]
    fn query_with_downsample() {
        let (m, t) = tsd();
        for ts in 0..20u64 {
            t.put("energy", &[("unit", "1")], ts, ts as f64).unwrap();
        }
        let body = r#"{"start":0,"end":19,"queries":[{"metric":"energy","downsample":"10s-avg"}]}"#;
        let resp = handle_query(&t, body).unwrap();
        let series: Vec<QueryResponseSeries> = serde_json::from_str(&resp).unwrap();
        assert_eq!(series[0].dps.len(), 2);
        assert_eq!(series[0].dps["0"], 4.5);
        assert_eq!(series[0].dps["10"], 14.5);
        m.shutdown();
    }

    #[test]
    fn query_rejects_bad_ranges_and_specs() {
        let (m, t) = tsd();
        let backwards = r#"{"start":10,"end":5,"queries":[]}"#;
        assert!(matches!(
            handle_query(&t, backwards),
            Err(ApiError::BadRequest(_))
        ));
        assert!(parse_downsample("10s-median").is_err());
        assert!(parse_downsample("0s-avg").is_err());
        assert!(parse_downsample("nonsense").is_err());
        m.shutdown();
    }

    #[test]
    fn parse_downsample_variants() {
        assert!(matches!(
            parse_downsample("60s-avg").unwrap(),
            (60, Aggregator::Avg)
        ));
        assert!(matches!(
            parse_downsample("5-sum").unwrap(),
            (5, Aggregator::Sum)
        ));
        assert!(matches!(
            parse_downsample("1s-count").unwrap(),
            (1, Aggregator::Count)
        ));
    }

    #[test]
    fn suggest_lists_interned_names() {
        let (m, t) = tsd();
        t.put("energy", &[("unit", "1"), ("sensor", "2")], 1, 1.0)
            .unwrap();
        t.put("energy.aux", &[("unit", "1")], 1, 1.0).unwrap();
        let metrics: Vec<String> =
            serde_json::from_str(&handle_suggest(&t, "type=metrics&q=ener").unwrap()).unwrap();
        assert_eq!(
            metrics,
            vec!["energy".to_string(), "energy.aux".to_string()]
        );
        let tagks: Vec<String> =
            serde_json::from_str(&handle_suggest(&t, "type=tagk&q=").unwrap()).unwrap();
        assert_eq!(tagks, vec!["sensor".to_string(), "unit".to_string()]);
        let capped: Vec<String> =
            serde_json::from_str(&handle_suggest(&t, "type=tagv&q=&max=1").unwrap()).unwrap();
        assert_eq!(capped.len(), 1);
        assert!(matches!(
            handle_suggest(&t, "type=bogus&q="),
            Err(ApiError::BadRequest(_))
        ));
        assert!(matches!(
            handle_suggest(&t, "q=x"),
            Err(ApiError::BadRequest(_))
        ));
        m.shutdown();
    }

    #[test]
    fn api_error_json_shape() {
        let e = ApiError::BadRequest("nope".into());
        assert_eq!(e.status(), 400);
        let v: serde_json::Value = serde_json::from_str(&e.to_json()).unwrap();
        assert_eq!(v["error"]["code"], 400);
        assert_eq!(v["error"]["message"], "nope");
    }

    /// Executor that fails one shard but still returns a series — the
    /// partial-result contract a slow region server produces.
    struct HalfDeadExecutor;

    impl QueryExecutor for HalfDeadExecutor {
        fn execute(
            &self,
            metric: &str,
            _filter: &QueryFilter,
            _start: u64,
            _end: u64,
            _downsample: Option<(u64, Aggregator)>,
        ) -> ExecOutcome {
            ExecOutcome {
                series: vec![TimeSeries {
                    metric: metric.to_string(),
                    tags: BTreeMap::new(),
                    points: vec![crate::query::DataPoint {
                        timestamp: 1,
                        value: 2.0,
                    }],
                }],
                partial: Some(PartialInfo {
                    failed_shards: vec![ShardError {
                        shard: 3,
                        kind: "busy".into(),
                        retry_after_ms: Some(40),
                    }],
                    total_shards: 4,
                }),
            }
        }
    }

    #[test]
    fn degraded_query_returns_typed_503_with_partial_series() {
        let body = r#"{"start":0,"end":10,"queries":[{"metric":"energy"}]}"#;
        let err = handle_query_with(&HalfDeadExecutor, body).unwrap_err();
        assert_eq!(err.status(), 503);
        let v: serde_json::Value = serde_json::from_str(&err.to_json()).unwrap();
        assert_eq!(v["error"]["code"], 503);
        assert_eq!(v["partial"]["total_shards"], 4);
        assert_eq!(v["partial"]["failed_shards"][0]["shard"], 3);
        assert_eq!(v["partial"]["failed_shards"][0]["kind"], "busy");
        assert_eq!(v["partial"]["failed_shards"][0]["retry_after_ms"], 40);
        // The series that did come back ride along for degraded charts.
        assert_eq!(v["series"][0]["dps"]["1"], 2.0);
    }

    #[test]
    fn tsd_implements_executor_with_downsample() {
        let (m, t) = tsd();
        for ts in 0..20u64 {
            t.put("energy", &[("unit", "1")], ts, ts as f64).unwrap();
        }
        let out = QueryExecutor::execute(
            &t,
            "energy",
            &QueryFilter::any(),
            0,
            19,
            Some((10, Aggregator::Avg)),
        );
        assert!(out.partial.is_none());
        assert_eq!(out.series[0].points.len(), 2);
        assert_eq!(out.series[0].points[0].value, 4.5);
        m.shutdown();
    }

    #[test]
    fn put_then_query_via_api_only() {
        let (m, t) = tsd();
        handle_put(
            &t,
            r#"{"metric":"anomaly","timestamp":100,"value":9.5,"tags":{"unit":"80","sensor":"7"}}"#,
        )
        .unwrap();
        let resp = handle_query(
            &t,
            r#"{"start":0,"end":200,"queries":[{"metric":"anomaly","tags":{"unit":"80"}}]}"#,
        )
        .unwrap();
        let series: Vec<QueryResponseSeries> = serde_json::from_str(&resp).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].dps["100"], 9.5);
        m.shutdown();
    }
}
