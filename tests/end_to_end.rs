//! End-to-end integration: generator → proxy → TSDB → detector → viz.

use pga_control::Metric;
use pga_platform::{Monitor, MonitorError, PlatformConfig};
use pga_sensorgen::FaultClass;

fn monitor(seed: u64) -> Monitor {
    let mut config = PlatformConfig::demo(seed);
    config.fleet.units = 6;
    config.fleet.sensors_per_unit = 48;
    Monitor::new(config).unwrap()
}

#[test]
fn full_loop_detects_injected_faults_with_low_false_alarms() {
    let mut m = monitor(101);
    m.ingest_range(0, 650);
    m.train(149).unwrap();
    let outcomes = m.evaluate_at(649).unwrap();
    assert_eq!(outcomes.len(), 6);

    let fleet = m.fleet();
    let mut missed_fault_units = 0;
    let mut healthy_flags = 0;
    for out in &outcomes {
        let spec = fleet.fault(out.unit);
        match spec.class {
            FaultClass::Healthy => healthy_flags += out.flags.len(),
            FaultClass::SharpShift => {
                // Every sharply-shifted unit must be detected by t=649.
                let hits = out.flags.iter().filter(|f| spec.affects(f.sensor)).count();
                if hits == 0 {
                    missed_fault_units += 1;
                }
            }
            FaultClass::GradualDegradation => {
                // Drift magnitude at t≈650 may or may not be detectable;
                // no hard assertion, covered by the E5 harness.
            }
        }
    }
    assert_eq!(missed_fault_units, 0, "sharp shifts must be caught");
    assert!(
        healthy_flags <= 2,
        "healthy units flagged {healthy_flags} sensors"
    );
    m.shutdown();
}

#[test]
fn anomalies_are_written_back_to_the_tsdb() {
    let mut m = monitor(103);
    m.ingest_range(0, 650);
    m.train(149).unwrap();
    m.evaluate_at(649).unwrap();
    assert!(!m.anomalies().is_empty(), "fleet contains faulted units");
    // The anomaly metric is now queryable — the viz tool reads it from
    // the same store (§IV-A).
    let rec = &m.anomalies()[0];
    let page = m.machine_page_data(rec.unit, 649, 100, 12).unwrap();
    let panel_with_anomaly = page
        .panels
        .iter()
        .find(|p| p.sensor == rec.sensor)
        .expect("flagged sensor panel present");
    assert!(
        panel_with_anomaly.anomalies.contains(&(rec.timestamp)),
        "anomaly timestamp on the panel"
    );
    assert!(page.detail.is_some(), "drill-down selected");
    m.shutdown();
}

/// The written-back strength is −log10(p), and p keeps its tail: a 10 σ
/// shift reads 22.8, where `2·(1 − Φ(10))` is exactly 0 and read 300 — the
/// clamp — as a 9 σ and a 30 σ fault did alike.
#[test]
fn a_ten_sigma_shift_is_written_back_with_its_own_strength() {
    use pga_tsdb::QueryFilter;
    let mut m = monitor(103);
    m.ingest_range(0, 650);
    m.train(149).unwrap();
    let unit = m.fleet().units_with_class(FaultClass::Healthy)[0];
    let sensor = 5u32;
    // What training saw of the sensor, and the level that sits 10 standard
    // errors of (window mean − trained mean) above it.
    let seen: Vec<f64> = (0..150)
        .map(|t| m.fleet().sample(unit, sensor, t))
        .collect();
    let mean = seen.iter().sum::<f64>() / 150.0;
    let var = seen.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 149.0;
    let level = mean + 10.0 * var.sqrt() * (1.0f64 / 50.0 + 1.0 / 150.0).sqrt();
    let (u, s) = (unit.to_string(), sensor.to_string());
    let tags = [("unit", u.as_str()), ("sensor", s.as_str())];
    for t in 600..650 {
        m.tsd().put("energy", &tags, t, level).unwrap();
    }
    let outcomes = m.evaluate_at(649).unwrap();
    let flag = outcomes[unit as usize]
        .flags
        .iter()
        .find(|f| f.sensor == sensor)
        .expect("a 10 σ sensor is flagged");
    assert!(
        (flag.p_value / 1.523_970_6e-23 - 1.0).abs() < 1e-6,
        "{flag:?}"
    );
    let filter = QueryFilter::any().with("unit", &u).with("sensor", &s);
    let written = m.tsd().query("anomaly", &filter, 649, 650).unwrap();
    let strength = written[0].points[0].value;
    assert!((strength - 22.817).abs() < 1e-3, "strength {strength}");
    m.shutdown();
}

/// The page of a flagged unit, and a raw `/api/query` answer whose keys
/// cross a power of ten, are byte for byte what the element-tree renderer
/// and the typed serde path wrote (`tests/golden/`, captured from them).
#[test]
fn machine_page_html_renders_flags_in_critical_color() {
    let mut m = monitor(107);
    m.ingest_range(0, 650);
    m.train(149).unwrap();
    m.evaluate_at(649).unwrap();
    let rec = m.anomalies()[0].clone();
    let html = m.machine_page_html(rec.unit, 649, 200, 16).unwrap();
    assert!(html.contains(&format!("Machine {}", rec.unit)));
    assert!(
        html.contains("var(--status-critical)"),
        "anomaly markers styled"
    );
    assert!(html.contains("<svg"), "sparklines rendered");
    assert!(html.contains("— detail"), "drill-down drawn");
    assert_eq!(html, include_str!("golden/machine_page_seed107.html"));

    let body = format!(
        r#"{{"start":95,"end":1000,"queries":[
            {{"metric":"energy","tags":{{"unit":"{}","sensor":"{}"}}}},
            {{"metric":"anomaly","tags":{{"unit":"{}"}}}}]}}"#,
        rec.unit, rec.sensor, rec.unit
    );
    let answer = pga_tsdb::handle_query_with(m.engine().as_ref(), &body).unwrap();
    assert_eq!(answer, include_str!("golden/api_query_raw_seed107.json"));
    m.shutdown();
}

#[test]
fn fleet_overview_reflects_unit_health() {
    let mut m = monitor(109);
    m.ingest_range(0, 650);
    m.train(149).unwrap();
    m.evaluate_at(649).unwrap();
    let overview = m.fleet_overview_data(1000.0);
    assert_eq!(overview.units.len(), 6);
    let healthy_units = m.fleet().units_with_class(FaultClass::Healthy);
    for u in &overview.units {
        if healthy_units.contains(&u.unit) {
            assert!(
                u.flagged_sensors <= 1,
                "healthy unit {} shows {} flags",
                u.unit,
                u.flagged_sensors
            );
        }
    }
    // Shifted units past onset should not be uniformly healthy.
    let shifted = m.fleet().units_with_class(FaultClass::SharpShift);
    let loud = overview
        .units
        .iter()
        .filter(|u| shifted.contains(&u.unit) && u.flagged_sensors > 0)
        .count();
    assert!(
        loud > 0,
        "at least one shifted unit visible in the overview"
    );
    m.shutdown();
}

#[test]
fn top_alerts_rank_faulted_units_first() {
    let mut m = monitor(127);
    m.ingest_range(0, 650);
    m.train(149).unwrap();
    m.evaluate_at(649).unwrap();
    let alerts = m.top_alerts(10, 649, 10_000);
    assert!(!alerts.is_empty());
    // Every alert names a genuinely faulted unit (healthy units may raise
    // at most stray single-sensor warnings that rank below).
    let healthy = m.fleet().units_with_class(FaultClass::Healthy);
    if let Some(top) = alerts.first() {
        assert!(!healthy.contains(&top.unit), "top alert on a healthy unit");
        assert!(top.sensors.len() >= 2, "top alert should be a broad fault");
    }
    // Ranking is by breadth first.
    for w in alerts.windows(2) {
        assert!(w[0].sensors.len() >= w[1].sensors.len() || w[0].min_p_value <= w[1].min_p_value);
    }
    m.shutdown();
}

#[test]
fn repeated_evaluation_is_idempotent_on_history() {
    let mut m = monitor(113);
    m.ingest_range(0, 650);
    m.train(149).unwrap();
    let first = m.evaluate_at(649).unwrap();
    let second = m.evaluate_at(649).unwrap();
    // Same window, same model → identical p-values.
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.p_values, b.p_values);
        assert_eq!(a.rejected, b.rejected);
    }
    m.shutdown();
}

/// Window and tag pushdown, held to an exact count that repeats on any
/// machine: a 50-tick window read of one unit makes the region servers
/// return 50 cells per series of that unit — the `unit` tag travels with
/// the scan, so no other unit's rows come back — however full the
/// row-hour is and whether or not the window crosses into the next one:
/// never the whole row-hour, and exactly the points served.
#[test]
fn a_window_read_scans_exactly_the_cells_of_its_time_range() {
    let mut config = PlatformConfig::demo(131);
    config.fleet.units = 2;
    config.fleet.sensors_per_unit = 4;
    let mut m = Monitor::new(config).unwrap();
    m.ingest_range(0, 3700);
    let scanned = |m: &Monitor| m.fleet_snapshot().fold(Metric::QueryCellsScanned);
    let t_ends = [1000, 2000, 2999, 3599, 3600, 3620, 3649, 3699];
    for t_end in t_ends {
        let before = scanned(&m);
        let w = m.window_from_store(1, t_end, 50).unwrap();
        assert_eq!(w.get(49, 3), m.fleet().sample(1, 3, t_end));
        assert_eq!(scanned(&m) - before, 4 * 50, "window ending at {t_end}");
    }
    // Served: the one unit's four sensors.
    let served = m.fleet_snapshot().fold(Metric::QueryPointsServed);
    assert_eq!(served, t_ends.len() as u64 * 4 * 50);
    m.shutdown();
}

/// The dashboard's raw drill-down, held to an exact count: an
/// `/api/query` read of one `(unit, sensor)` has the region servers
/// return exactly the points it serves, none of another series.
#[test]
fn an_api_read_of_one_series_scans_exactly_the_points_it_serves() {
    let mut config = PlatformConfig::demo(139);
    config.fleet.units = 3;
    config.fleet.sensors_per_unit = 4;
    let mut m = Monitor::new(config).unwrap();
    m.ingest_range(0, 700);
    let body = r#"{"start":100,"end":699,"queries":[{"metric":"energy","tags":{"unit":"2","sensor":"1"}}]}"#;
    let before = m.engine().stats();
    let answer = pga_tsdb::handle_query_with(m.engine().as_ref(), body).unwrap();
    let after = m.engine().stats();
    assert!(answer.contains(r#""sensor":"1""#) && answer.contains(r#""unit":"2""#));
    assert_eq!(after.points_served - before.points_served, 600);
    assert_eq!(after.cells_scanned - before.cells_scanned, 600);
    m.shutdown();
}

/// `call` makes exactly one engine query, which scans `cells` cells and
/// serves every one of them.
fn one_read(m: &mut Monitor, what: &str, cells: u64, call: impl FnOnce(&mut Monitor)) {
    let before = m.engine().stats();
    call(m);
    let after = m.engine().stats();
    assert_eq!(after.queries - before.queries, 1, "{what}: one query");
    let scanned = after.cells_scanned - before.cells_scanned;
    assert_eq!(scanned, cells, "{what}: cells scanned");
    let served = after.points_served - before.points_served;
    assert_eq!(served, cells, "{what}: points served");
}

/// One read per cycle, held to exact counts: `train` and `evaluate_at`
/// each make one engine query, which scans the window's cells of every
/// series once and serves all of them — where a per-unit read scanned the
/// whole fleet's window once per unit.
#[test]
fn a_cycle_reads_the_fleet_window_once() {
    let mut config = PlatformConfig::demo(137);
    config.fleet.units = 3;
    config.fleet.sensors_per_unit = 4;
    let (train, eval) = (config.training_window as u64, config.eval_window as u64);
    let series = 3 * 4;
    let mut m = Monitor::new(config).unwrap();
    m.ingest_range(0, 400);
    one_read(&mut m, "train", series * train, |m| m.train(299).unwrap());
    one_read(&mut m, "evaluate_at", series * eval, |m| {
        assert_eq!(m.evaluate_at(399).unwrap().len(), 3);
    });
    m.shutdown();
}

/// A cycle is all-or-nothing: an incomplete window fails `evaluate_at`
/// before any unit's flags are recorded or written back, so retrying the
/// same `t_end` once the data is in records each flag exactly once.
#[test]
fn an_incomplete_window_fails_the_cycle_before_anything_is_recorded() {
    let mut m = monitor(101);
    m.ingest_range(0, 600);
    m.train(149).unwrap();
    let last = m.config().fleet.units - 1;
    let put = |m: &Monitor, keep: &dyn Fn(u32) -> bool| {
        for t in 600..650 {
            for s in m.fleet().tick(t).into_iter().filter(|s| keep(s.unit)) {
                let (u, j) = (s.unit.to_string(), s.sensor.to_string());
                let tags = [("unit", u.as_str()), ("sensor", j.as_str())];
                m.tsd().put("energy", &tags, s.timestamp, s.value).unwrap();
            }
        }
    };
    put(&m, &|u| u != last);
    match m.evaluate_at(649) {
        Err(MonitorError::IncompleteWindow {
            unit,
            sensor: 0,
            found: 0,
        }) => assert_eq!(unit, last),
        other => panic!("expected the last unit's window to be incomplete: {other:?}"),
    }
    assert!(
        m.anomalies().is_empty(),
        "nothing recorded from a failed cycle"
    );
    let any = pga_tsdb::QueryFilter::any();
    let written = m.tsd().query("anomaly", &any, 0, 1000).unwrap();
    assert!(
        written.is_empty(),
        "nothing written back from a failed cycle"
    );

    put(&m, &|u| u == last);
    m.evaluate_at(649).unwrap();
    let records: Vec<_> = m
        .anomalies()
        .iter()
        .map(|a| (a.unit, a.sensor, a.timestamp))
        .collect();
    let once: std::collections::BTreeSet<_> = records.iter().copied().collect();
    assert_eq!(once.len(), records.len(), "each flag recorded once");
    assert!(
        records.iter().any(|&(unit, _, _)| unit < last),
        "a unit before the incomplete one is flagged"
    );
    m.shutdown();
}

/// A cycle writes its flags back in one put: k > 0 flags add exactly one
/// put RPC to the daemon that writes them (a put per flag added k), each
/// flagged series holds its one point, and a cycle without flags adds none.
#[test]
fn a_cycle_writes_its_flags_back_in_one_put() {
    use std::sync::atomic::Ordering;
    let put_rpcs = |m: &Monitor| m.tsd().metrics().put_rpcs.load(Ordering::Relaxed);
    let cycle = |m: &mut Monitor, t_end: u64| -> (usize, u64) {
        let before = put_rpcs(m);
        let out = m.evaluate_at(t_end).unwrap();
        let flags = out.iter().map(|o| o.flags.len()).sum();
        (flags, put_rpcs(m) - before)
    };

    let mut m = monitor(103);
    m.ingest_range(0, 650);
    m.train(149).unwrap();
    let (flags, rpcs) = cycle(&mut m, 649);
    assert!(flags > 1, "the fleet has faulted units: {flags} flags");
    assert_eq!(rpcs, 1, "{flags} flags, one put");
    assert_eq!(m.anomalies().len(), flags);
    let any = pga_tsdb::QueryFilter::any();
    let written = m.tsd().query("anomaly", &any, 0, 1000).unwrap();
    assert_eq!(written.len(), flags, "one series a flag");
    assert!(written.iter().all(|s| s.points.len() == 1));
    m.shutdown();

    let mut config = PlatformConfig::demo(103);
    config.fleet.units = 2;
    config.fleet.sensors_per_unit = 16;
    config.fleet.degradation_fraction = 0.0;
    config.fleet.shift_fraction = 0.0;
    let mut m = Monitor::new(config).unwrap();
    m.ingest_range(0, 250);
    m.train(149).unwrap();
    assert_eq!(cycle(&mut m, 249), (0, 0), "no flags, no put");
    assert!(m.anomalies().is_empty());
    m.shutdown();
}

/// `tsd_series` is the cardinality of the store — what bounds the series
/// table's memory — not its volume: ten times the ticks leave it where it
/// was, and so does every read, down to a query for a metric nobody
/// wrote. Only a write of a series not seen before moves it.
#[test]
fn tsd_series_counts_series_not_samples_and_reads_leave_it_alone() {
    let mut config = PlatformConfig::demo(211);
    config.fleet.units = 2;
    config.fleet.sensors_per_unit = 8;
    let mut m = Monitor::new(config).unwrap();
    let series = |m: &Monitor| m.fleet_snapshot().fold(Metric::TsdSeries);
    assert_eq!(series(&m), 0);
    m.ingest_range(0, 100);
    let after_100 = series(&m);
    // Every raw series, and its shadow series in the two rollup tiers.
    assert_eq!(after_100, 2 * 8 * 3);
    m.ingest_range(100, 1000);
    assert_eq!(series(&m), after_100, "cardinality, not volume");

    m.train(149).unwrap();
    m.evaluate_at(999).unwrap();
    // A flag is a write: the `anomaly` series of each flagged sensor, and
    // its two shadow series.
    let flagged: std::collections::BTreeSet<_> =
        m.anomalies().iter().map(|a| (a.unit, a.sensor)).collect();
    assert_eq!(series(&m), after_100 + 3 * flagged.len() as u64);
    let before_reads = series(&m);
    m.machine_page_html(1, 999, 100, 8).unwrap();
    m.heatmap_html(0, 999, 50);
    for metric in ["energy", "nobody.wrote.this"] {
        let body = format!(
            r#"{{"start":0,"end":999,"queries":[{{"metric":"{metric}","tags":{{"unit":"7"}},"downsample":"60s-avg"}}]}}"#
        );
        assert_eq!(
            pga_tsdb::handle_query_with(&**m.engine(), &body).unwrap(),
            "[]"
        );
    }
    assert_eq!(series(&m), before_reads, "reads create no entry");
    let line = format!("tsd_series {before_reads}");
    assert!(m
        .fleet_snapshot()
        .prometheus_text()
        .lines()
        .any(|l| l == line));
    m.shutdown();
}

/// A live deployment steps `ingest_range` a tick at a time, and every call
/// flushes the rollup writers: a 600 s bucket is re-opened 600 times, and
/// its cells' generation is one byte. The 257th cell used to replace the
/// first, and the rollup plan answered `600s-count` = 256 for `[0, 600)`,
/// untainted, where the raw answer is 600.
#[test]
fn stepping_ingest_a_tick_at_a_time_keeps_the_600s_rollup_whole() {
    use pga_tsdb::{Aggregator, QueryFilter};
    let mut config = PlatformConfig::demo(223);
    config.fleet.units = 1;
    config.fleet.sensors_per_unit = 2;
    let mut m = Monitor::new(config).unwrap();
    for t in 0..2000 {
        m.ingest_range(t, t + 1);
    }
    let count = Some((600, Aggregator::Count));
    let rollup = m
        .engine()
        .query("energy", &QueryFilter::any(), 0, 1999, count);
    assert_eq!(rollup.plan, pga_query::Plan::Rollup { tier: 600 });
    assert!(rollup.partial.is_none());
    let raw = m
        .tsd()
        .query("energy", &QueryFilter::any(), 0, 1999)
        .unwrap();
    assert_eq!(rollup.series.len(), 2);
    for (from_rollup, from_raw) in rollup.series.iter().zip(&raw) {
        assert_eq!(from_rollup.tags, from_raw.tags);
        assert_eq!(
            from_rollup.points,
            from_raw.downsample(600, Aggregator::Count).points
        );
        assert_eq!(
            from_rollup.points[0].value, 600.0,
            "[0, 600) holds 600 points"
        );
    }
    m.shutdown();
}
