//! The dashboard's HTTP route table — the one copy `pga dashboard`, the
//! `dashboard_server` example and the HTTP integration test all serve.
//!
//! ```text
//! GET  /              fleet overview
//! GET  /cluster       cluster replication page
//! GET  /heatmap       fleet anomaly heatmap
//! GET  /machine/<id>  machine page (Figure 3)
//! GET  /metrics       fleet telemetry, Prometheus text format
//! POST /api/put       OpenTSDB-style datapoint ingestion (JSON)
//! POST /api/query     OpenTSDB-style range query (JSON)
//! ```

use std::sync::Arc;

use parking_lot::Mutex;
use pga_viz::server::{HttpRequest, HttpResponse, RequestHandler};

use crate::Monitor;

/// Route table over a shared monitor. The view arguments differ per
/// caller: pages show the window of `page_rows` ticks ending at tick
/// `now` with at most `panels` sensor panels, the heatmap covers ticks
/// `0..=now`, and the overview reports `eval_rate` samples/s.
pub fn dashboard_routes(
    monitor: Arc<Mutex<Monitor>>,
    now: u64,
    page_rows: usize,
    panels: usize,
    eval_rate: f64,
) -> RequestHandler {
    Arc::new(move |req: &HttpRequest| {
        let m = monitor.lock();
        let units = m.config().fleet.units;
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/") => Some(HttpResponse::html(m.fleet_overview_html(eval_rate))),
            // pga-allow(lock-discipline): monitor → directory matches the platform order; the read-only page build never takes monitor locks re-entrantly
            ("GET", "/cluster") => Some(HttpResponse::html(m.cluster_page_html())),
            ("GET", "/heatmap") => Some(HttpResponse::html(m.heatmap_html(0, now, 50))),
            ("GET", "/metrics") => Some(HttpResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4".into(),
                body: m.fleet_snapshot().prometheus_text(),
            }),
            ("GET", p) if p.starts_with("/machine/") => {
                // Typed JSON errors instead of empty 404 pages: a bad
                // unit is a client error, a storage/shard failure is a
                // degraded backend — clients must be able to tell.
                let Ok(unit) = p["/machine/".len()..].parse::<u32>() else {
                    return Some(HttpResponse::error_json(
                        404,
                        "not_found",
                        "machine id must be a non-negative integer",
                    ));
                };
                if unit >= units {
                    return Some(HttpResponse::error_json(
                        404,
                        "not_found",
                        &format!("unit {unit} outside fleet of {units}"),
                    ));
                }
                Some(match m.machine_page_html(unit, now, page_rows, panels) {
                    Ok(html) => HttpResponse::html(html),
                    Err(e) => HttpResponse::error_json(503, "degraded", &e.to_string()),
                })
            }
            ("POST", "/api/put") => Some(match pga_tsdb::handle_put(m.tsd(), &req.body) {
                Ok(n) => HttpResponse::json(format!("{{\"success\":{n}}}")),
                Err(e) => HttpResponse::json_status(e.status(), e.to_json()),
            }),
            ("POST", "/api/query") => {
                // Served by the pga-query engine: rollup planning,
                // scatter-gather with shard deadlines, result cache.
                Some(
                    match pga_tsdb::handle_query_with(&**m.engine(), &req.body) {
                        Ok(json) => HttpResponse::json(json),
                        Err(e) => HttpResponse::json_status(e.status(), e.to_json()),
                    },
                )
            }
            _ => None,
        }
    })
}
