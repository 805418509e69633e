//! Serve the live dashboard and the OpenTSDB-compatible API over HTTP
//! (§V-A: "a web application that is available on both desktop and mobile
//! devices").
//!
//! Routes are [`pga_platform::dashboard_routes`] — the same table
//! `pga dashboard` serves: `/`, `/cluster`, `/heatmap`, `/machine/<id>`,
//! `/metrics`, and `POST /api/put` / `POST /api/query`.
//!
//! ```text
//! cargo run --release --example dashboard_server            # serve 30 s on :8087
//! PGA_SERVE_SECS=600 cargo run --release --example dashboard_server
//!
//! curl -XPOST localhost:8087/api/query \
//!   -d '{"start":0,"end":700,"queries":[{"metric":"anomaly","tags":{}}]}'
//! ```

use std::sync::Arc;

use parking_lot::Mutex;

use pga_platform::{dashboard_routes, Monitor, PlatformConfig};
use pga_viz::server::DashboardServer;

fn main() {
    let mut config = PlatformConfig::demo(7);
    config.fleet.units = 10;
    config.fleet.sensors_per_unit = 48;
    let mut monitor = Monitor::new(config).expect("valid config");
    monitor.ingest_range(0, 700);
    monitor.train(149).expect("train");
    for t_eval in [400u64, 500, 600, 699] {
        monitor.evaluate_at(t_eval).expect("evaluate");
    }
    let evaluated: u64 = 4 * 10 * 48 * 50;
    let monitor = Arc::new(Mutex::new(monitor));

    let routes = dashboard_routes(monitor.clone(), 699, 300, 24, evaluated as f64);

    let server = DashboardServer::start_with(8087, routes.clone())
        .or_else(|_| DashboardServer::start_with(0, routes))
        .expect("bind dashboard server");
    println!("dashboard at http://{}/", server.addr());
    println!("machine pages at http://{}/machine/<0..9>", server.addr());
    println!("anomaly heatmap at http://{}/heatmap", server.addr());
    println!("cluster replication at http://{}/cluster", server.addr());
    println!("fleet telemetry at http://{}/metrics", server.addr());
    println!(
        "OpenTSDB-style API at http://{}/api/put and /api/query",
        server.addr()
    );

    let secs: u64 = std::env::var("PGA_SERVE_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    println!("serving for {secs} seconds…");
    std::thread::sleep(std::time::Duration::from_secs(secs));
    server.stop();
    monitor.lock().shutdown();
}
