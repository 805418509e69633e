//! `dashboard_read`: read-only serving on a once-compacted store.
//!
//! An op is one *refresh bundle*: the same nine requests in the same
//! order, for one unit at one `now`. Pooling request kinds whose costs
//! differ a hundredfold (warm page 2 ms, cold page 70 ms, cold rollup
//! query 375 ms) puts the median on a cliff edge; a fixed bundle makes
//! every op the same work, and the per-kind latencies are per-layer
//! diagnostics. Repeats sit inside one bundle, far inside the cache's 5 s
//! TTL, so hits and misses are a function of the request order and never
//! of elapsed time.

use pga_platform::Monitor;
use pga_query::EngineStatsSnapshot;
use pga_sensorgen::Fleet;
use pga_tsdb::{handle_query_with, QueryResponseSeries};

use crate::catalog::LayerMetrics;
use crate::host;
use crate::ladder::Shape;
use crate::trace::{Parent, Tracer};
use crate::workloads::{
    host_config, retire, set_up_repeatedly, timed_op, Budget, Measured, Op, Outcome, Params,
};

struct Size {
    units: u32,
    sensors: u32,
    /// Ticks ingested in all.
    history: u64,
    /// `now` of the first bundle.
    first_now: u64,
    /// Rows of a machine-page window.
    page_rows: usize,
    /// Seconds a rollup query looks back.
    rollup_range: u64,
    /// Seconds a raw drill-down query looks back.
    raw_range: u64,
    panels: usize,
    setup_reps: usize,
}

/// Ticks ingested before training and the evaluations that leave
/// anomalies behind for the pages and the heatmap to show.
const PRELOAD_TICKS: u64 = 300;
const SEED_EVALUATIONS: [u64; 3] = [199, 249, 299];
/// Bundles before a `now` would repeat (see `bundle_now`).
const MAX_BUNDLES: u64 = 150;

fn size(p: &Params) -> Size {
    if p.smoke {
        Size {
            units: 2,
            sensors: 8,
            history: 700,
            first_now: 399,
            page_rows: 100,
            rollup_range: 360,
            raw_range: 100,
            panels: 6,
            setup_reps: 1,
        }
    } else {
        // An hour and a half of a 4 × 32 fleet; 691 200 raw cells.
        Size {
            units: 4,
            sensors: 32,
            history: 5400,
            first_now: 5099,
            page_rows: 300,
            rollup_range: 3600,
            raw_range: 600,
            panels: 24,
            setup_reps: if p.trace { 1 } else { 2 },
        }
    }
}

pub fn shape(p: &Params) -> Shape {
    let s = size(p);
    Shape::new(host_config(s.units, s.sensors, p.seed), p.smoke)
}

fn set_up(config: &pga_platform::PlatformConfig, s: &Size) -> Result<Monitor, String> {
    let mut m = Monitor::new(config.clone()).map_err(|e| e.to_string())?;
    m.ingest_range(0, PRELOAD_TICKS);
    m.train(config.training_window as u64 - 1)
        .map_err(|e| e.to_string())?;
    for t_end in SEED_EVALUATIONS {
        m.evaluate_at(t_end).map_err(|e| e.to_string())?;
    }
    let mut t0 = PRELOAD_TICKS;
    while t0 < s.history {
        m.ingest_range(t0, (t0 + 100).min(s.history));
        t0 += 100;
    }
    // Flush and major-compact every region: reads then meet one store
    // file per region whatever order the two proxy workers' batches
    // arrived in.
    m.tsd().compact_now().map_err(|e| e.to_string())?;
    Ok(m)
}

/// The request kinds of a bundle that have a per-layer metric: its name,
/// the span of the kind in a replayed bundle, and the ladder's rung.
pub const KINDS: [(&str, &str, &str); 6] = [
    (
        "platform.machine_page_cold_ms_p50",
        "platform.machine_page_cold",
        "ladder.platform.machine_page_cold",
    ),
    (
        "platform.machine_page_warm_ms_p50",
        "platform.machine_page_warm",
        "ladder.platform.machine_page_warm",
    ),
    (
        "platform.heatmap_ms_p50",
        "platform.heatmap",
        "ladder.platform.heatmap",
    ),
    (
        "platform.api_rollup_cold_ms_p50",
        "platform.api_rollup_cold",
        "ladder.platform.api_rollup_cold",
    ),
    (
        "platform.api_rollup_warm_ms_p50",
        "platform.api_rollup_warm",
        "ladder.platform.api_rollup_warm",
    ),
    (
        "platform.api_raw_ms_p50",
        "platform.api_raw",
        "ladder.platform.api_raw",
    ),
];

/// `now` of bundle `k`: ten seconds on from the last for thirty bundles,
/// then the same sweep shifted by two seconds, so no request key repeats
/// and, `first_now` being odd, no `now` is a whole minute: there the rollup
/// query has no open bucket to patch from raw cells and costs a quarter of
/// what it costs everywhere else.
fn bundle_now(s: &Size, k: u64) -> u64 {
    s.first_now + 10 * (k % 30) + 2 * (k / 30)
}

/// An `/api/query` body for `energy` of one unit (one sensor of it, or all),
/// raw or as 60 s averages.
pub fn query_body(
    start: u64,
    end: u64,
    unit: u32,
    sensor: Option<u32>,
    downsample: bool,
) -> String {
    let sensor = sensor.map_or(String::new(), |s| format!(",\"sensor\":\"{s}\""));
    let downsample = if downsample {
        ",\"downsample\":\"60s-avg\""
    } else {
        ""
    };
    format!(
        "{{\"start\":{start},\"end\":{end},\"queries\":[{{\"metric\":\"energy\",\
         \"tags\":{{\"unit\":\"{unit}\"{sensor}}}{downsample}}}]}}"
    )
}

/// The responses of one bundle, kept for the untimed oracle.
struct Bundle {
    unit: u32,
    sensor: u32,
    now: u64,
    pages: Vec<String>,
    overview: String,
    heatmap: String,
    cluster: String,
    rollup: [String; 2],
    raw: String,
}

fn parse_series(body: &str) -> Result<Vec<QueryResponseSeries>, String> {
    serde_json::from_str(body).map_err(|e| format!("unparseable /api/query response: {e}"))
}

fn series_sensor(s: &QueryResponseSeries) -> Result<u32, String> {
    s.tags
        .get("sensor")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "response series without a sensor tag".to_string())
}

/// Check one bundle against the generator; returns the data points it
/// delivered (panel points + JSON `dps`).
fn check(
    b: &Bundle,
    s: &Size,
    fleet: &Fleet,
    stats: (EngineStatsSnapshot, EngineStatsSnapshot),
) -> Result<u64, String> {
    let at = format!("bundle unit {} now {}", b.unit, b.now);
    let mut delivered = 0u64;
    for page in &b.pages {
        let panels = page.matches("<div class=\"panel\">").count();
        if panels != s.panels {
            return Err(format!(
                "{at}: machine page has {panels} panels, not {}",
                s.panels
            ));
        }
        delivered += (panels * s.page_rows) as u64;
    }
    if b.pages[1] != b.pages[0] || b.pages[2] != b.pages[0] {
        return Err(format!("{at}: warm machine page differs from the cold one"));
    }
    for (name, html) in [
        ("fleet overview", &b.overview),
        ("heatmap", &b.heatmap),
        ("cluster page", &b.cluster),
    ] {
        if !html.contains("</html>") {
            return Err(format!("{at}: {name} is not a complete page"));
        }
    }

    // Rollup: every 60 s average equals the mean of the generator's
    // samples in that window (clipped to the requested range).
    if b.rollup[0] != b.rollup[1] {
        return Err(format!(
            "{at}: cached rollup answer differs from the computed one"
        ));
    }
    let start = b.now.saturating_sub(s.rollup_range);
    let rollup = parse_series(&b.rollup[0])?;
    if rollup.len() != s.sensors as usize {
        return Err(format!(
            "{at}: rollup query returned {} series for {} sensors",
            rollup.len(),
            s.sensors
        ));
    }
    let windows = b.now / 60 - start / 60 + 1;
    for series in &rollup {
        let sensor = series_sensor(series)?;
        if series.dps.len() as u64 != windows {
            return Err(format!(
                "{at} sensor {sensor}: {} rollup windows, expected {windows}",
                series.dps.len()
            ));
        }
        for (ts, got) in &series.dps {
            let w: u64 = ts.parse().map_err(|_| format!("{at}: bad dps key {ts}"))?;
            let (lo, hi) = (w.max(start), (w + 59).min(b.now));
            let sum: f64 = (lo..=hi).map(|t| fleet.sample(b.unit, sensor, t)).sum();
            let want = sum / (hi - lo + 1) as f64;
            if (got - want).abs() > 1e-9 {
                return Err(format!(
                    "{at} sensor {sensor} window {w}: 60s-avg {got} != per-minute mean {want}"
                ));
            }
        }
        delivered += 2 * series.dps.len() as u64;
    }

    // Raw drill-down: bit-exact.
    let raw = parse_series(&b.raw)?;
    let [series] = raw.as_slice() else {
        return Err(format!(
            "{at}: raw query returned {} series, not 1",
            raw.len()
        ));
    };
    let raw_start = b.now - s.raw_range;
    if series_sensor(series)? != b.sensor || series.dps.len() as u64 != s.raw_range + 1 {
        return Err(format!(
            "{at}: raw query returned sensor {:?} with {} points",
            series.tags.get("sensor"),
            series.dps.len()
        ));
    }
    for t in raw_start..=b.now {
        let want = fleet.sample(b.unit, b.sensor, t);
        match series.dps.get(&t.to_string()) {
            Some(got) if got.to_bits() == want.to_bits() => {}
            got => {
                return Err(format!(
                    "{at} sensor {} t={t}: raw dps {got:?} != generated {want}",
                    b.sensor
                ))
            }
        }
    }
    delivered += series.dps.len() as u64;

    // The cache must have served exactly the three repeats.
    let (before, after) = stats;
    let hits = after.cache_hits - before.cache_hits;
    let partials = after.partials - before.partials;
    if hits != 3 || partials != 0 {
        return Err(format!(
            "{at}: {hits} cache hits (expected the 3 repeats) and {partials} partial results"
        ));
    }
    Ok(delivered)
}

/// The nine requests of bundle `k`, each under its own span; `Err` is
/// the first request that failed.
fn refresh(
    m: &Monitor,
    s: &Size,
    k: u64,
    tr: &mut Tracer,
    inside: Parent,
) -> Result<Bundle, String> {
    let engine = m.engine().as_ref();
    let op = k as u32;
    let now = bundle_now(s, k);
    let unit = ((5 * k + 3) % u64::from(s.units)) as u32;
    let sensor = (k % u64::from(s.sensors)) as u32;
    let rollup_body = query_body(now.saturating_sub(s.rollup_range), now, unit, None, true);
    let raw_body = query_body(now - s.raw_range, now, unit, Some(sensor), false);

    let mut page = |name| {
        tr.leaf(name, op, inside, || {
            m.machine_page_html(unit, now, s.page_rows, s.panels)
        })
        .map_err(|e| e.to_string())
    };
    let pages = vec![
        page("platform.machine_page_cold")?,
        page("platform.machine_page_warm")?,
        page("platform.machine_page_warm")?,
    ];
    let overview = tr.leaf("platform.fleet_overview", op, inside, || {
        m.fleet_overview_html(0.0)
    });
    let heatmap = tr.leaf("platform.heatmap", op, inside, || {
        m.heatmap_html(0, now, 300)
    });
    let cluster = tr.leaf("platform.cluster_page", op, inside, || {
        m.cluster_page_html()
    });
    let mut api = |name, body: &str| {
        tr.leaf(name, op, inside, || handle_query_with(engine, body))
            .map_err(|e| e.to_string())
    };
    Ok(Bundle {
        unit,
        sensor,
        now,
        pages,
        overview,
        heatmap,
        cluster,
        rollup: [
            api("platform.api_rollup_cold", &rollup_body)?,
            api("platform.api_rollup_warm", &rollup_body)?,
        ],
        raw: api("platform.api_raw", &raw_body)?,
    })
}

pub fn run(p: &Params, tr: &mut Tracer, layers: &mut LayerMetrics) -> Outcome {
    let s = size(p);
    let config = host_config(s.units, s.sensors, p.seed);
    let idle_threads = host::thread_count();
    let mut out = Measured::new(1);
    let m = set_up_repeatedly(
        s.setup_reps,
        &mut out.setups,
        || set_up(&config, &s),
        |old| retire(old, idle_threads),
    )?;
    let engine = m.engine().clone();
    let stats_at_start = engine.stats();

    let mut budget = Budget::start(p.seconds);
    let max_bundles = if p.smoke { 4 } else { MAX_BUNDLES };
    let mut k = 0u64;
    // A traced run needs one whole group of four ops for its overhead ratio.
    while k < max_bundles && (budget.fits_another() || (p.trace && k < 4)) {
        let before = engine.stats();
        let (bundle, took, traced) = timed_op(tr, p.trace, k as usize, |tr, inside| {
            refresh(&m, &s, k, tr, inside)
        });

        let ok = match bundle {
            Ok(bundle) => {
                out.samples += check(&bundle, &s, m.fleet(), (before, engine.stats()))?;
                true
            }
            Err(e) => {
                eprintln!("bundle {k} failed: {e}");
                false
            }
        };
        out.ops.push(Op { took, ok, traced });
        k += 1;
    }

    if p.trace {
        for (metric, span, _) in KINDS {
            layers.set(metric, tr.p50_ns(span) / 1e6);
        }
        // Counters over the measured bundles only (set-up queried too).
        let end = engine.stats();
        let lookups = (end.cache_hits + end.cache_misses)
            - (stats_at_start.cache_hits + stats_at_start.cache_misses);
        let executed = (end.raw_plans + end.rollup_plans)
            - (stats_at_start.raw_plans + stats_at_start.rollup_plans);
        layers.set(
            "query.cache_hit_ratio",
            (end.cache_hits - stats_at_start.cache_hits) as f64 / lookups as f64,
        );
        layers.set(
            "query.fanout_per_query",
            (end.fanout_total - stats_at_start.fanout_total) as f64 / executed as f64,
        );
        layers.set(
            "query.partials",
            (end.partials - stats_at_start.partials) as f64,
        );
    }
    m.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_bundle_repeats_a_now_or_lands_on_a_whole_minute() {
        let p = Params {
            seed: 7,
            seconds: 1.0,
            trace: false,
            smoke: false,
        };
        let s = size(&p);
        let nows: std::collections::BTreeSet<u64> =
            (0..MAX_BUNDLES).map(|k| bundle_now(&s, k)).collect();
        assert_eq!(nows.len() as u64, MAX_BUNDLES);
        assert!(nows.iter().all(|now| now % 60 != 0));
        assert!(*nows.last().unwrap() < s.history);
    }

    /// The oracle must reject a response that differs from the generator
    /// in a single digit, and a bundle the cache served differently.
    #[test]
    fn oracle_rejects_tampered_responses() {
        let p = Params {
            seed: 7,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let s = size(&p);
        let m = set_up(&host_config(s.units, s.sensors, p.seed), &s).unwrap();
        let mut tr = Tracer::new();
        let fetch = |tr: &mut Tracer, k| {
            let before = m.engine().stats();
            let bundle = refresh(&m, &s, k, tr, Parent::None).unwrap();
            (bundle, (before, m.engine().stats()))
        };

        let (good, stats) = fetch(&mut tr, 0);
        assert!(check(&good, &s, m.fleet(), stats).unwrap() > 0);

        let (mut bad, stats) = fetch(&mut tr, 1);
        let digit = bad.raw.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let flipped = if &bad.raw[digit..=digit] == "1" {
            "2"
        } else {
            "1"
        };
        bad.raw.replace_range(digit..=digit, flipped);
        let err = check(&bad, &s, m.fleet(), stats).unwrap_err();
        assert!(err.contains("raw dps"), "{err}");

        let (mut bad, stats) = fetch(&mut tr, 2);
        bad.pages[0] = bad.pages[0].replacen("<div class=\"panel\">", "<div>", 1);
        assert!(check(&bad, &s, m.fleet(), stats)
            .unwrap_err()
            .contains("panels"));

        let (good, (before, _)) = fetch(&mut tr, 3);
        let err = check(&good, &s, m.fleet(), (before, before)).unwrap_err();
        assert!(err.contains("cache hits"), "{err}");
        m.shutdown();
    }
}
