//! The benchmark's metrics: the end-to-end four and the per-layer ladder,
//! by name and unit. `BENCHMARK.json` at the repository root lists the same
//! names for the driver, with which way each is better; `tests/smoke.rs`
//! keeps the two in step.

/// A metric's name and unit (`BENCHMARK.json` adds which way is better).
#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; the same four names in every workload.
pub const END_TO_END: [MetricDef; 4] = [
    m("samples_per_s", "1/s"),
    m("op_ms_p50", "ms"),
    m("within_limit_ratio", "ratio"),
    m("setup_s", "s"),
];

/// The layer ladder, one block per layer, in the order a sample travels.
pub const PER_LAYER: [MetricDef; 73] = [
    // pga-sensorgen
    m("sensorgen.tick_ns_per_sample", "ns"),
    // pga-tsdb, write path
    m("tsdb.encode_ns_per_sample", "ns"),
    m("tsdb.put_batch_ns_per_sample", "ns"),
    m("tsdb.put_batch_observed_ns_per_sample", "ns"),
    m("tsdb.rpcs_per_point", "ratio"),
    // pga-minibase, write path
    m("minibase.wal_append_ns_per_sample", "ns"),
    m("minibase.memstore_put_ns_per_sample", "ns"),
    m("minibase.region_put_ns_per_sample", "ns"),
    m("minibase.client_put_ns_per_sample", "ns"),
    m("minibase.flush_ms_p50", "ms"),
    m("minibase.compact_ms_p50", "ms"),
    m("minibase.write_amplification", "ratio"),
    m("minibase.heap_bytes_per_cell", "bytes"),
    // pga-cluster
    m("cluster.rpc_self_ns_per_sample", "ns"),
    m("cluster.rpc_roundtrip_us_p50", "us"),
    m("cluster.server_busy_share", "ratio"),
    // pga-ingest
    m("ingest.proxy_ns_per_sample", "ns"),
    m("ingest.proxy_one_lane_ns_per_sample", "ns"),
    m("ingest.proxy_self_ns_per_sample", "ns"),
    m("ingest.submit_blocked_share", "ratio"),
    m("ingest.retries", "count"),
    m("ingest.errors", "count"),
    // pga-query, write path
    m("query.rollup_observe_ns_per_sample", "ns"),
    // pga-minibase / pga-tsdb, read path
    m("minibase.region_scan_ns_per_cell", "ns"),
    m("minibase.client_scan_ns_per_cell", "ns"),
    m("tsdb.query_columns_ns_per_cell", "ns"),
    m("tsdb.query_columns_self_ns_per_cell", "ns"),
    m("tsdb.read_amplification", "ratio"),
    // pga-tsdb, sealed blocks
    m("tsdb.block_encode_ns_per_point", "ns"),
    m("tsdb.block_decode_ns_per_point", "ns"),
    m("tsdb.block_bytes_per_point", "bytes"),
    m("tsdb.sealed_query_columns_ns_per_point", "ns"),
    // pga-query, read path
    m("query.plan_ns_p50", "ns"),
    m("query.scatter_overhead_us_p50", "us"),
    m("query.engine_raw_cold_ms_p50", "ms"),
    m("query.engine_rollup_cold_ms_p50", "ms"),
    m("query.engine_hit_us_p50", "us"),
    m("query.cache_hit_ratio", "ratio"),
    m("query.fanout_per_query", "count"),
    m("query.partials", "count"),
    // pga-platform
    m("platform.ingest_range_ns_per_sample", "ns"),
    m("platform.window_from_store_ms_p50", "ms"),
    m("platform.window_fill_self_ms_p50", "ms"),
    m("platform.evaluate_at_ms_p50", "ms"),
    m("platform.writeback_us_per_flag", "us"),
    m("platform.machine_page_cold_ms_p50", "ms"),
    m("platform.machine_page_warm_ms_p50", "ms"),
    m("platform.heatmap_ms_p50", "ms"),
    m("platform.api_rollup_cold_ms_p50", "ms"),
    m("platform.api_rollup_warm_ms_p50", "ms"),
    m("platform.api_raw_ms_p50", "ms"),
    // pga-viz (and the JSON side of the HTTP API)
    m("viz.machine_page_render_ms_p50", "ms"),
    m("viz.heatmap_render_us_p50", "us"),
    m("viz.fleet_overview_render_us_p50", "us"),
    m("viz.cluster_page_render_us_p50", "us"),
    m("viz.bytes_per_machine_page", "bytes"),
    m("tsdb.api_json_ns_per_point", "ns"),
    // pga-detect / pga-stats / pga-linalg
    m("detect.train_unit_ms_p50", "ms"),
    m("detect.evaluate_ns_per_sample", "ns"),
    m("detect.evaluate_columns_ns_per_sample", "ns"),
    m("detect.retrain_dirty_ms_p50", "ms"),
    m("stats.bh_ns_per_pvalue", "ns"),
    m("linalg.covariance_ms_p50", "ms"),
    m("linalg.svd_us_p50", "us"),
    m("linalg.matmul_gflops", "gflop/s"),
    // pga-dataflow / pga-sched
    m("dataflow.task_overhead_us", "us"),
    m("sched.tasks_per_round", "count"),
    m("sched.steals_per_round", "count"),
    m("sched.max_queue_depth", "count"),
    m("sched.speedup_2w", "ratio"),
    // host
    m("host.peak_rss_mb", "MiB"),
    m("host.calib_ms", "ms"),
    m("trace.overhead_ratio", "ratio"),
];

/// Self times that are the difference of two rungs: `(self, containing
/// rung, rung beneath)`. Both rungs are one pass over the same inputs on
/// the same kind of stack with the same number of lanes, so the difference
/// is what the containing layer adds.
pub const DIFFERENCES: [(&str, &str, &str); 3] = [
    (
        "ingest.proxy_self_ns_per_sample",
        "ingest.proxy_one_lane_ns_per_sample",
        "tsdb.put_batch_observed_ns_per_sample",
    ),
    (
        "query.rollup_observe_ns_per_sample",
        "tsdb.put_batch_observed_ns_per_sample",
        "tsdb.put_batch_ns_per_sample",
    ),
    (
        "tsdb.query_columns_self_ns_per_cell",
        "tsdb.query_columns_ns_per_cell",
        "minibase.client_scan_ns_per_cell",
    ),
];

/// The ladder's nesting: `(containing rung, rung beneath)`, one lane each
/// and fed the same inputs, so the first is not below the second by more
/// than the few percent two passes repeat within. The trace file carries
/// the list and `tests/smoke.rs` holds every run to it. Rungs with two
/// lanes (`ingest.proxy`, the platform's calls) overlap their work and are
/// in no such order with the one-lane rungs beneath them.
pub const NESTED: [(&str, &str); 9] = [
    (
        "ingest.proxy_one_lane_ns_per_sample",
        "tsdb.put_batch_observed_ns_per_sample",
    ),
    (
        "tsdb.put_batch_observed_ns_per_sample",
        "tsdb.put_batch_ns_per_sample",
    ),
    (
        "tsdb.put_batch_ns_per_sample",
        "minibase.client_put_ns_per_sample",
    ),
    ("tsdb.put_batch_ns_per_sample", "tsdb.encode_ns_per_sample"),
    (
        "minibase.client_put_ns_per_sample",
        "minibase.region_put_ns_per_sample",
    ),
    (
        "minibase.region_put_ns_per_sample",
        "minibase.memstore_put_ns_per_sample",
    ),
    (
        "minibase.region_put_ns_per_sample",
        "minibase.wal_append_ns_per_sample",
    ),
    (
        "tsdb.query_columns_ns_per_cell",
        "minibase.client_scan_ns_per_cell",
    ),
    (
        "minibase.client_scan_ns_per_cell",
        "minibase.region_scan_ns_per_cell",
    ),
];

/// Per-layer values from one source: a workload's replay, one climb of
/// the ladder, or the host.
#[derive(Default)]
pub struct LayerMetrics {
    values: Vec<(&'static str, f64)>,
}

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not in the per-layer catalogue"
        );
        assert!(self.get(name).is_none(), "{name} measured twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// One value from the climbs of a rung. Other guests on the host only ever
/// add to a timing, so a time is the fastest climb's; counts and ratios
/// are the median.
fn over_climbs(def: &MetricDef, values: &[f64]) -> f64 {
    if matches!(def.unit, "ns" | "us" | "ms") {
        values.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        crate::stats::median(values)
    }
}

/// Every catalogue entry with its value and where it came from, in
/// catalogue order. Where a workload itself makes a call its replay spans
/// win over the ladder's isolated rung for the same name; the
/// `DIFFERENCES` are taken last, from the merged rungs. An `Err` names the
/// entries nobody measured.
pub fn merge_layers(
    replay: &LayerMetrics,
    climbs: &[LayerMetrics],
    host: &LayerMetrics,
) -> Result<Vec<(&'static MetricDef, f64, &'static str)>, String> {
    let mut merged: Vec<(&'static MetricDef, f64, &'static str)> =
        Vec::with_capacity(PER_LAYER.len());
    let mut missing = Vec::new();
    for def in &PER_LAYER {
        let rungs: Vec<f64> = climbs.iter().filter_map(|c| c.get(def.name)).collect();
        if let Some(value) = replay.get(def.name) {
            merged.push((def, value, "replay"));
        } else if !rungs.is_empty() {
            merged.push((def, over_climbs(def, &rungs), "ladder"));
        } else if let Some(value) = host.get(def.name) {
            merged.push((def, value, "host"));
        } else if let Some((_, containing, beneath)) = DIFFERENCES.iter().find(|d| d.0 == def.name)
        {
            // Catalogue order puts both rungs before their difference.
            let of = |name: &str| merged.iter().find(|m| m.0.name == name).map(|m| m.1);
            match (of(containing), of(beneath)) {
                (Some(c), Some(b)) => merged.push((def, c - b, "ladder")),
                _ => missing.push(def.name),
            }
        } else {
            missing.push(def.name);
        }
    }
    if missing.is_empty() {
        Ok(merged)
    } else {
        Err(format!("per-layer metrics never measured: {missing:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differences_and_nesting_name_catalogue_entries_in_order() {
        let at = |name: &str| {
            PER_LAYER
                .iter()
                .position(|d| d.name == name)
                .unwrap_or_else(|| panic!("{name} is not in the catalogue"))
        };
        for (difference, containing, beneath) in DIFFERENCES {
            assert!(at(containing) < at(difference) && at(beneath) < at(difference));
            assert!(NESTED.contains(&(containing, beneath)));
        }
        for (containing, beneath) in NESTED {
            assert_eq!(PER_LAYER[at(containing)].unit, PER_LAYER[at(beneath)].unit);
        }
    }

    #[test]
    fn times_take_the_fastest_climb_and_differences_come_last() {
        let climb = |put: f64, observed: f64, rpcs: f64| {
            let mut c = LayerMetrics::default();
            c.set("tsdb.put_batch_ns_per_sample", put);
            c.set("tsdb.put_batch_observed_ns_per_sample", observed);
            c.set("tsdb.rpcs_per_point", rpcs);
            c
        };
        let climbs = [
            climb(100.0, 190.0, 1.0),
            climb(90.0, 160.0, 3.0),
            climb(95.0, 150.0, 2.0),
        ];
        let mut replay = LayerMetrics::default();
        replay.set("tsdb.encode_ns_per_sample", 7.0);
        let err = merge_layers(&replay, &climbs, &LayerMetrics::default()).unwrap_err();
        assert!(err.contains("sensorgen.tick_ns_per_sample"), "{err}");
        assert!(!err.contains("query.rollup_observe_ns_per_sample"), "{err}");
        assert!(err.contains("ingest.proxy_self_ns_per_sample"), "{err}");

        // Fill in everything else from the host, to see the merged values.
        let mut host = LayerMetrics::default();
        for def in &PER_LAYER {
            let measured = replay.get(def.name).or(climbs[0].get(def.name)).is_some();
            if !measured && !DIFFERENCES.iter().any(|d| d.0 == def.name) {
                host.set(def.name, 1.0);
            }
        }
        let merged = merge_layers(&replay, &climbs, &host).unwrap();
        let of = |name: &str| {
            let (_, value, source) = merged.iter().find(|m| m.0.name == name).unwrap();
            (*value, *source)
        };
        assert_eq!(of("tsdb.encode_ns_per_sample"), (7.0, "replay"));
        assert_eq!(of("tsdb.put_batch_ns_per_sample"), (90.0, "ladder"));
        assert_eq!(of("tsdb.rpcs_per_point"), (2.0, "ladder"));
        assert_eq!(of("query.rollup_observe_ns_per_sample"), (60.0, "ladder"));
        assert_eq!(of("host.calib_ms"), (1.0, "host"));
    }
}
