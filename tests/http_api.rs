//! End-to-end HTTP: the dashboard pages and the OpenTSDB-compatible JSON
//! API served over a real socket.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use parking_lot::Mutex;

use pga_platform::{dashboard_routes, Monitor, PlatformConfig};
use pga_viz::server::DashboardServer;

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf.split_once("\r\n\r\n").unwrap();
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, body.to_string())
}

fn serving_monitor() -> (DashboardServer, Arc<Mutex<Monitor>>) {
    let mut config = PlatformConfig::demo(55);
    config.fleet.units = 4;
    config.fleet.sensors_per_unit = 24;
    let mut monitor = Monitor::new(config).unwrap();
    monitor.ingest_range(0, 600);
    monitor.train(149).unwrap();
    monitor.evaluate_at(599).unwrap();
    let monitor = Arc::new(Mutex::new(monitor));
    let routes = dashboard_routes(monitor.clone(), 599, 100, 8, 0.0);
    let server = DashboardServer::start_with(0, routes).unwrap();
    (server, monitor)
}

#[test]
fn dashboard_and_api_over_one_socket() {
    let (server, monitor) = serving_monitor();
    let addr = server.addr();

    // Fleet overview.
    let (status, body) = request(addr, "GET", "/", "");
    assert_eq!(status, 200);
    assert!(body.contains("Fleet overview"));

    // Machine page.
    let (status, body) = request(addr, "GET", "/machine/0", "");
    assert_eq!(status, 200);
    assert!(body.contains("Machine 0"));

    // Cluster replication page.
    let (status, body) = request(addr, "GET", "/cluster", "");
    assert_eq!(status, 200);
    assert!(body.contains("Cluster replication"));
    assert!(body.contains("replication factor"));

    // Heatmap page.
    let (status, body) = request(addr, "GET", "/heatmap", "");
    assert_eq!(status, 200);
    assert!(body.contains("Fleet anomaly heatmap"));
    assert!(body.contains("<svg"));

    // Query the raw sensor data that the pipeline ingested.
    let (status, body) = request(
        addr,
        "POST",
        "/api/query",
        r#"{"start":0,"end":10,"queries":[{"metric":"energy","tags":{"unit":"1","sensor":"3"}}]}"#,
    );
    assert_eq!(status, 200);
    let series: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(series.as_array().unwrap().len(), 1);
    let dps = series[0]["dps"].as_object().unwrap();
    assert_eq!(dps.len(), 11);
    // Values match the generator exactly.
    let expect = monitor.lock().fleet().sample(1, 3, 5);
    assert!((dps["5"].as_f64().unwrap() - expect).abs() < 1e-12);

    // Anomalies written back by the detector are visible through the API.
    let (status, body) = request(
        addr,
        "POST",
        "/api/query",
        r#"{"start":0,"end":1000,"queries":[{"metric":"anomaly","tags":{}}]}"#,
    );
    assert_eq!(status, 200);
    let series: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(
        !series.as_array().unwrap().is_empty(),
        "detector anomalies queryable over HTTP"
    );

    // Write through the API, read it back.
    let (status, _) = request(
        addr,
        "POST",
        "/api/put",
        r#"{"metric":"external","timestamp":42,"value":7.5,"tags":{"source":"curl"}}"#,
    );
    assert_eq!(status, 200);
    let (status, body) = request(
        addr,
        "POST",
        "/api/query",
        r#"{"start":0,"end":100,"queries":[{"metric":"external","tags":{}}]}"#,
    );
    assert_eq!(status, 200);
    assert!(body.contains("7.5"));

    // Errors surface as OpenTSDB-style JSON with the right status.
    let (status, body) = request(addr, "POST", "/api/query", "not json at all");
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""));

    // Bad machine ids are typed JSON errors, not empty 404 pages: a
    // client can tell "no such unit" from "no data yet".
    let (status, body) = request(addr, "GET", "/machine/999", "");
    assert_eq!(status, 404);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["code"], 404);
    assert_eq!(v["error"]["type"], "not_found");
    let (status, body) = request(addr, "GET", "/machine/banana", "");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\""));

    // The serving engine answered the API traffic, and its counters reach
    // the `/metrics` exposition through the real sampling path.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let stats = monitor.lock().engine().stats();
    assert!(stats.queries > 0);
    assert!(stats.fanout_total > 0, "queries scatter across salt shards");
    let sample = |line: String| metrics.lines().any(|l| l == line);
    assert!(sample(format!("query_fanout {}", stats.fanout_total)));
    assert!(sample(format!("query_cache_hits {}", stats.cache_hits)));
    assert!(
        sample("query_partials 0".to_string()),
        "healthy stack serves no partials"
    );
    assert_eq!(
        metrics.lines().filter(|l| !l.starts_with('#')).count(),
        pga_control::METRICS.len(),
        "one sample per table row"
    );
    // 33 rows of HELP, TYPE and sample; the five rows nothing ever set
    // are retired, not exported as a permanent 0.
    assert_eq!(metrics.lines().count(), 99);
    for retired in [
        "memstore_bytes",
        "breaker_trips",
        "ingest_buffer_depth",
        "ingest_buffer_capacity",
        "sched_dirty_units",
    ] {
        assert!(!metrics.contains(retired), "{retired} is retired");
    }
    let (_, cluster) = request(addr, "GET", "/cluster", "");
    assert!(cluster.contains("query fan-out"));

    server.stop();
    monitor.lock().shutdown();
}

/// Two filters used to share a result-cache key (tag pairs joined as
/// `{k}={v},`): a query whose tag value spelled `2,unit=1` cached its empty
/// answer, and the real unit-1/sensor-2 query over the same range was then
/// answered from it.
#[test]
fn a_tag_value_that_spells_another_filter_does_not_poison_its_answer() {
    let (server, monitor) = serving_monitor();
    let addr = server.addr();
    let query = |tags: &str| {
        let body =
            format!(r#"{{"start":0,"end":300,"queries":[{{"metric":"energy","tags":{tags}}}]}}"#);
        let (status, body) = request(addr, "POST", "/api/query", &body);
        assert_eq!(status, 200);
        serde_json::from_str::<serde_json::Value>(&body).unwrap()
    };
    let forged = query(r#"{"sensor":"2,unit=1"}"#);
    assert!(forged.as_array().unwrap().is_empty(), "no such tag value");
    let real = query(r#"{"unit":"1","sensor":"2"}"#);
    assert_eq!(real.as_array().unwrap().len(), 1);
    assert_eq!(real[0]["tags"]["unit"], "1");
    assert_eq!(real[0]["dps"].as_object().unwrap().len(), 301);
    server.stop();
    monitor.lock().shutdown();
}

/// Every bit a monitor's evaluation reports per unit.
type Verdicts = Vec<(u32, Vec<u64>, Vec<bool>, Vec<(usize, u64)>)>;

fn verdicts(outcomes: &[pga_detect::EvalOutcome]) -> Verdicts {
    outcomes
        .iter()
        .map(|o| {
            (
                o.unit,
                o.p_values.iter().map(|p| p.to_bits()).collect(),
                o.rejected.clone(),
                o.block_p_values
                    .iter()
                    .map(|&(b, p)| (b, p.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

/// One external datapoint must not end detection for a unit: `energy`
/// series the fleet does not have (a sensor id past the fleet's, a unit or
/// sensor tag that parses to one of the fleet's ids but is not how the
/// fleet spells it, a unit past the fleet's, an extra tag on a sensor it
/// has) arrive through `POST /api/put` like any other point, and every
/// later window read — of one unit or of the whole fleet — must leave them
/// out, not index the observation window with them.
#[test]
fn stray_series_from_the_put_api_do_not_reach_the_model() {
    let (server, monitor) = serving_monitor();
    let addr = server.addr();
    let (status, page) = request(addr, "GET", "/machine/0", "");
    assert_eq!(status, 200);

    for tags in [
        r#"{"unit":"0","sensor":"999"}"#,
        r#"{"unit":"0","sensor":"3","site":"x"}"#,
        r#"{"unit":"00","sensor":"3"}"#,
        r#"{"unit":"99","sensor":"3"}"#,
        r#"{"unit":"0","sensor":"03"}"#,
        r#"{"unit":"1","sensor":"2","site":"y"}"#,
    ] {
        let body = format!(r#"{{"metric":"energy","timestamp":590,"value":1e9,"tags":{tags}}}"#);
        let (status, _) = request(addr, "POST", "/api/put", &body);
        assert_eq!(status, 200);
    }
    // The page's window is in the result cache; drop it, as an anomaly on
    // the unit would, so that the next render reads the store again.
    let stray = [("unit", "0"), ("sensor", "999")].map(|(k, v)| (k.to_string(), v.to_string()));
    assert!(
        monitor
            .lock()
            .engine()
            .invalidate_series("energy", &stray.into())
            >= 1
    );

    let (status, again) = request(addr, "GET", "/machine/0", "");
    assert_eq!(status, 200, "{again}");
    assert_eq!(again, page, "the stray points change nothing on the page");
    let mut m = monitor.lock();
    // A window no earlier call has cached, the stray timestamp inside it.
    let w = m.window_from_store(0, 598, 60).unwrap();
    for (row, tick) in (539..=598u64).enumerate() {
        for sensor in 0..24u32 {
            assert_eq!(
                w.get(row, sensor as usize),
                m.fleet().sample(0, sensor, tick)
            );
        }
    }
    // Whole-fleet reads: the same verdicts, bit for bit, as a monitor
    // that never saw the strays — before and after retraining on a window
    // that holds them.
    let (clean_server, clean) = serving_monitor();
    let mut clean = clean.lock();
    let evaluated = m.evaluate_at(598).unwrap();
    assert_eq!(evaluated.len(), 4);
    assert_eq!(
        verdicts(&evaluated),
        verdicts(&clean.evaluate_at(598).unwrap())
    );
    m.train(598).unwrap();
    clean.train(598).unwrap();
    assert_eq!(
        verdicts(&m.evaluate_at(599).unwrap()),
        verdicts(&clean.evaluate_at(599).unwrap())
    );
    clean.shutdown();
    drop(clean);
    clean_server.stop();
    drop(m);
    server.stop();
    monitor.lock().shutdown();
}

/// A finite value is a legal put, whatever its size — and `1e200` squared
/// is not finite. The variance it overflows used to come back from
/// `train_unit` inside an `Ok` model in release builds (the check was a
/// `debug_assert!`), and the evaluator built from it panicked under the
/// monitor's lock. Training must fail with a typed error and leave the
/// models of the last good training in place.
#[test]
fn a_sample_that_overflows_the_variance_fails_training_not_the_monitor() {
    use pga_platform::MonitorError;
    let (server, monitor) = serving_monitor();
    let addr = server.addr();
    let before = monitor.lock().evaluate_at(598).unwrap();

    let body =
        r#"{"metric":"energy","timestamp":590,"value":1e200,"tags":{"unit":"0","sensor":"3"}}"#;
    let (status, _) = request(addr, "POST", "/api/put", body);
    assert_eq!(status, 200);

    let mut m = monitor.lock();
    assert_eq!(m.window_from_store(0, 598, 60).unwrap().get(51, 3), 1e200);
    let err = m.train(598).unwrap_err();
    assert!(matches!(err, MonitorError::Train(_)), "{err}");
    // Still trained, still the old models: every sensor but the one that
    // was written to scores exactly as it did.
    let again = m.evaluate_at(598).unwrap();
    assert_eq!(again.len(), before.len());
    for (a, b) in again.iter().zip(&before) {
        for (sensor, (pa, pb)) in a.p_values.iter().zip(&b.p_values).enumerate() {
            if (a.unit, sensor) == (0, 3) {
                assert_eq!(*pa, 0.0, "1e200 is infinitely many σ out");
            } else {
                assert_eq!(pa, pb, "unit {} sensor {sensor}", a.unit);
            }
        }
    }
    drop(m);
    server.stop();
    monitor.lock().shutdown();
}

/// A put may overwrite a fleet sensor's whole page window (the newest
/// version of a cell wins) with huge values in a narrow band. The next
/// evaluation flags the sensor, so its page draws a detail chart whose
/// tick step is below the values' float spacing: tick generation used to
/// spin there, growing its list until the process was killed, with the
/// monitor locked and every route hung behind it.
#[test]
fn a_detail_chart_over_a_narrow_band_of_huge_values_renders() {
    let (server, monitor) = serving_monitor();
    let addr = server.addr();
    // The routes' page window is ticks 500..=599.
    let points: Vec<String> = (500..=599u64)
        .map(|t| {
            let value = 1e17 + 16.0 * (t % 2) as f64;
            format!(
                r#"{{"metric":"energy","timestamp":{t},"value":{value},"tags":{{"unit":"2","sensor":"0"}}}}"#
            )
        })
        .collect();
    let (status, reply) = request(addr, "POST", "/api/put", &format!("[{}]", points.join(",")));
    assert_eq!((status, reply.as_str()), (200, r#"{"success":100}"#));
    let flagged = monitor.lock().evaluate_at(598).unwrap();
    assert!(flagged[2].flags.iter().any(|f| f.sensor == 0));

    let (status, page) = request(addr, "GET", "/machine/2", "");
    assert_eq!(status, 200, "{page}");
    assert!(page.contains("sensor 0 — detail"));
    assert!(page.contains("anomaly at t=598, value 100000000000000000.000"));
    server.stop();
    monitor.lock().shutdown();
}

/// A put the row key cannot hold, or one that names the system's own
/// series, is the client's error — and refused whole, before any RPC. A
/// timestamp past the key's four bytes of base time (or any millisecond
/// timestamp) used to be acked, read back at another time (`2^32 + 7261`
/// at t = 7261) and drag the seal watermark along with it; a
/// reserved-prefix metric landed in the rollup shadow rows.
#[test]
fn puts_the_store_cannot_hold_are_refused_whole() {
    use std::sync::atomic::Ordering::Relaxed;
    let (server, monitor) = serving_monitor();
    let addr = server.addr();
    let query = r#"{"start":0,"end":10000,"queries":[{"metric":"energy","tags":{"unit":"0","sensor":"1"}}]}"#;
    let (status, answer) = request(addr, "POST", "/api/query", query);
    assert_eq!(status, 200);
    let (_, page) = request(addr, "GET", "/machine/0", "");
    let state = |m: &Monitor| {
        let metrics = m.tsd().metrics();
        (
            m.tsd().seal_watermark().load(Relaxed),
            metrics.points_written.load(Relaxed),
            metrics.put_rpcs.load(Relaxed),
            m.tsd().codec().series_count(),
        )
    };
    let before = state(&monitor.lock());

    let point = |metric: &str, timestamp: u64, tags: &str| {
        format!(r#"{{"metric":"{metric}","timestamp":{timestamp},"value":1.5,"tags":{tags}}}"#)
    };
    let own = r#"{"unit":"0","sensor":"1"}"#;
    let good = point("energy", 7000, own);
    // The reserved prefix as JSON spells it.
    let reserved = concat!("\\", "u0001");
    let late = "out of range";
    let name = "empty or reserved";
    let refused = [
        (point("energy", (1 << 32) + 7261, own), late),
        (point("energy", u32::MAX as u64 / 3600 * 3600, own), late),
        (point("energy", 1_700_000_000_000, own), late),
        (point("energy", u64::MAX / 500, own), late),
        (format!("[{good},{}]", point("energy", 1 << 40, own)), late),
        (point(&format!("{reserved}ru:60:energy"), 7000, own), name),
        (point("", 7000, own), name),
        (point("energy", 7000, r#"{"unit":"0","sensor":""}"#), name),
        (point("energy", 7000, r#"{"":"0"}"#), name),
        (
            point("energy", 7000, &format!(r#"{{"unit":"{reserved}0"}}"#)),
            name,
        ),
        (
            format!("[{good},{}]", point("energy", 7001, r#"{"":"0"}"#)),
            name,
        ),
    ];
    for (body, why) in &refused {
        let (status, reply) = request(addr, "POST", "/api/put", body);
        assert_eq!(status, 400, "{body}: {reply}");
        assert!(
            reply.contains(r#""code":400"#) && reply.contains(why),
            "{reply}"
        );
    }

    let after = state(&monitor.lock());
    assert_eq!(after, before, "nothing written, watermark unmoved");
    let (_, again) = request(addr, "POST", "/api/query", query);
    assert_eq!(again, answer, "no phantom point");
    let (_, again) = request(addr, "GET", "/machine/0", "");
    assert_eq!(again, page);
    // The last timestamp a row key can hold is a good one.
    let last = u32::MAX as u64 / 3600 * 3600 - 1;
    let (status, _) = request(addr, "POST", "/api/put", &point("energy", last, own));
    assert_eq!(status, 200);
    server.stop();
    monitor.lock().shutdown();
}
