//! The streaming SVG writer against the element-tree renderer it replaced
//! (`model/`), byte for byte, and its one number writer against
//! `format!("{v:.2}")`.

mod model;

use proptest::TestRng;

use pga_viz::svg::fixed2_into;
use pga_viz::{
    anomaly_heatmap, cluster_page, detail_chart, fleet_overview_page, machine_page, sparkline,
    ChartConfig, ClusterNodeRow, ClusterView, FleetOverview, Health, HeatmapData, MachinePage,
    SensorPanel, StatTile, UnitStatus,
};

fn fixed2(v: f64) -> String {
    let mut out = String::new();
    fixed2_into(&mut out, v);
    out
}

fn check_fixed2(v: f64) {
    assert_eq!(
        fixed2(v),
        format!("{v:.2}"),
        "{v:e} (bits {:#x})",
        v.to_bits()
    );
}

/// `v` and the `k` floats on either side of it.
fn around(v: f64, k: i64) -> impl Iterator<Item = f64> {
    (-k..=k).map(move |d| f64::from_bits(v.to_bits().wrapping_add_signed(d)))
}

#[test]
fn fixed2_prints_what_format_prints() {
    // Exact ties (half to even), negatives that round to zero, zeros,
    // non-finite values, magnitudes past the fast path.
    for v in [
        0.125,
        0.375,
        2.5,
        0.005,
        1.005,
        -0.125,
        -0.001,
        -0.004_999,
        -1e-300,
        -5e-324,
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
        1e13,
        1e17,
        -1e17,
        4_294_967_296.0,
    ] {
        check_fixed2(v);
        check_fixed2(-v);
    }
    // A dense sweep around the fast path's bound, |v·100| = 2³².
    for bound in [42_949_672.96, -42_949_672.96] {
        around(bound, 20_000).for_each(check_fixed2);
    }
    // Every half-cent tie below 1000, its neighbours, and points just off
    // the 1e-6 margin.
    for n in 0..100_000u32 {
        let tie = (f64::from(n) + 0.5) / 100.0;
        around(tie, 3).for_each(check_fixed2);
        for off in [1e-6, 1.1e-6, 0.9e-6] {
            check_fixed2((f64::from(n) + 0.5 + off) / 100.0);
            check_fixed2((f64::from(n) + 0.5 - off) / 100.0);
        }
    }
    let mut rng = TestRng::deterministic("fixed2_prints_what_format_prints", 0);
    for _ in 0..200_000 {
        // Random bit patterns, then the magnitudes charts meet.
        check_fixed2(f64::from_bits(rng.next_u64()));
        let magnitude = 10f64.powf(rng.unit_f64() * 20.0 - 6.0);
        check_fixed2((rng.unit_f64() - 0.5) * magnitude);
    }
}

/// Strings that need escaping in attributes and text.
const ODD: [&str; 6] = [
    "plain",
    "a<b>&c",
    "\"quoted\" 'single'",
    "ünï😀 — dash",
    "",
    "&amp;<&>'\"",
];

fn pick<'a, T>(rng: &mut TestRng, from: &'a [T]) -> &'a T {
    &from[rng.below(from.len() as u64) as usize]
}

fn value(rng: &mut TestRng, base: f64) -> f64 {
    match rng.below(40) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        _ => base + (rng.unit_f64() - 0.5) * 20.0,
    }
}

fn points(rng: &mut TestRng) -> Vec<(u64, f64)> {
    let start = *pick(rng, &[0, 7, 95, 999, 5_000, 1_700_000_000]);
    let n = rng.below(70);
    let step = 1 + rng.below(3);
    match rng.below(6) {
        // A narrow domain of large values, as a put can leave behind.
        0 => {
            let base = 10f64.powf(13.0 + 4.0 * rng.unit_f64());
            (0..n)
                .map(|i| (start + i * step, base + (rng.below(3) * 16) as f64))
                .collect()
        }
        1 => (0..n).map(|i| (start + i * step, 42.0)).collect(),
        2 => (0..n)
            .map(|i| (start + i * step, f64::from_bits(rng.next_u64())))
            .collect(),
        _ => {
            let base = (rng.unit_f64() - 0.5) * 1e4;
            (0..n)
                .map(|i| (start + i * step, value(rng, base)))
                .collect()
        }
    }
}

fn anomalies(rng: &mut TestRng, points: &[(u64, f64)]) -> Vec<u64> {
    let mut flags = Vec::new();
    for &(t, _) in points {
        if rng.below(8) == 0 {
            flags.push(t);
        }
    }
    // Outside the window, and repeats.
    for _ in 0..rng.below(3) {
        flags.push(points.last().map_or(0, |p| p.0) + 1 + rng.below(50));
    }
    if let Some(&t) = flags.first() {
        flags.push(t);
    }
    flags
}

fn status(rng: &mut TestRng, unit: u32) -> UnitStatus {
    UnitStatus {
        unit,
        health: *pick(rng, &[Health::Good, Health::Warning, Health::Critical]),
        flagged_sensors: rng.below(10) as usize,
        last_anomaly: (rng.below(2) == 0).then(|| rng.below(10_000)),
    }
}

fn random_page(rng: &mut TestRng) -> MachinePage {
    let unit = rng.below(100) as u32;
    let panels: Vec<SensorPanel> = (0..rng.below(7))
        .map(|_| {
            let points = points(rng);
            let anomalies = if rng.below(2) == 0 {
                anomalies(rng, &points)
            } else {
                Vec::new()
            };
            SensorPanel {
                sensor: rng.below(1000) as u32,
                points,
                anomalies,
            }
        })
        .collect();
    let detail = match rng.below(3) {
        0 => None,
        1 => Some(rng.below(panels.len().max(1) as u64) as usize),
        _ => Some(panels.len() + rng.below(3) as usize),
    };
    MachinePage {
        unit,
        status: status(rng, unit),
        panels,
        detail,
    }
}

fn odd_config(rng: &mut TestRng) -> ChartConfig {
    let mut odd = || pick(rng, &ODD).to_string();
    ChartConfig {
        series_color: odd(),
        anomaly_color: odd(),
        grid_color: odd(),
        label_color: odd(),
        surface_color: odd(),
    }
}

#[test]
fn random_pages_equal_the_element_tree() {
    for case in 0..300 {
        let mut rng = TestRng::deterministic("random_pages_equal_the_element_tree", case);
        let page = random_page(&mut rng);
        assert_eq!(
            machine_page(&page),
            model::machine_page(&page),
            "case {case}"
        );

        // The charts on their own, with a title and colours to escape.
        let cfg = odd_config(&mut rng);
        let title = *pick(&mut rng, &ODD);
        let (w, h) = (100 + rng.below(900) as u32, 40 + rng.below(300) as u32);
        for panel in &page.panels {
            let mut spark = String::new();
            sparkline(&mut spark, &panel.points, &panel.anomalies, w, h, &cfg);
            let want = model::sparkline(&panel.points, &panel.anomalies, w, h, &cfg);
            assert_eq!(spark, want, "case {case}");
            let mut detail = String::new();
            detail_chart(
                &mut detail,
                title,
                &panel.points,
                &panel.anomalies,
                w,
                h,
                &cfg,
            );
            let want = model::detail_chart(title, &panel.points, &panel.anomalies, w, h, &cfg);
            assert_eq!(detail, want, "case {case}");
        }
    }
}

/// The benchmark's page: 24 panels of 300 points, flagged panels first,
/// a detail chart on the first.
fn full_page() -> MachinePage {
    let panels = (0..24u32)
        .map(|sensor| SensorPanel {
            sensor,
            points: (5_000..5_300u64)
                .map(|t| (t, 40.0 + (t as f64 * 0.01 + f64::from(sensor)).sin() * 3.0))
                .collect(),
            anomalies: if sensor < 3 {
                vec![5_049, 5_099, 5_149, 5_199, 5_249, 5_299]
            } else {
                Vec::new()
            },
        })
        .collect();
    MachinePage {
        unit: 2,
        status: UnitStatus {
            unit: 2,
            health: Health::Warning,
            flagged_sensors: 3,
            last_anomaly: Some(5_299),
        },
        panels,
        detail: Some(0),
    }
}

#[test]
fn a_full_page_equals_the_element_tree() {
    let page = full_page();
    assert_eq!(machine_page(&page), model::machine_page(&page));
}

#[test]
fn heatmaps_overviews_and_cluster_pages_equal_the_element_tree() {
    for case in 0..100 {
        let mut rng = TestRng::deterministic("heatmaps_overviews_and_cluster_pages", case);
        let units: Vec<u32> = (0..rng.below(6) as u32).collect();
        let end = rng.below(2_000);
        let events: Vec<(u32, u64)> = (0..rng.below(60))
            .map(|_| (rng.below(8) as u32, rng.below(end + 100)))
            .collect();
        let data = HeatmapData::from_events(&events, units.clone(), 0, end, 1 + rng.below(300));
        let cell = 4 + rng.below(20) as u32;
        assert_eq!(
            anomaly_heatmap(&data, cell),
            model::anomaly_heatmap(&data, cell),
            "case {case}"
        );

        let overview = FleetOverview {
            units: units.iter().map(|&u| status(&mut rng, u)).collect(),
            ingest_rate: rng.unit_f64() * 1e6,
            eval_rate: f64::from_bits(rng.next_u64()),
        };
        assert_eq!(
            fleet_overview_page(&overview),
            model::fleet_overview_page(&overview)
        );

        let view = ClusterView {
            replication_factor: 1 + rng.below(3) as usize,
            nodes: units
                .iter()
                .map(|&node| ClusterNodeRow {
                    node,
                    alive: rng.below(4) != 0,
                    primary_regions: rng.below(8) as usize,
                    follower_regions: rng.below(8) as usize,
                    replication_lag: rng.below(10),
                    failovers: rng.below(3),
                })
                .collect(),
            lag_alert: 4,
            tiles: (0..rng.below(4))
                .map(|_| StatTile {
                    label: pick(&mut rng, &ODD).to_string(),
                    value: pick(&mut rng, &ODD).to_string(),
                })
                .collect(),
        };
        assert_eq!(cluster_page(&view), model::cluster_page(&view));
    }
}
