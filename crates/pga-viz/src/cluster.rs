//! Cluster replication page: per-node replication health for the
//! storage tier — regions led, follower copies hosted, WAL shipping
//! lag, and failover history — plus a strip of fleet-wide stat tiles.
//!
//! Pure data in ([`ClusterView`]), HTML out ([`cluster_page`]), like the
//! machine page and fleet overview: the platform layer maps its control
//! plane (master directory, fleet telemetry snapshot) into the view
//! struct and this module only renders.

use serde::{Deserialize, Serialize};

use crate::dashboard::{page_end, page_start, Health};
use crate::svg::escape_into;

/// One storage node's replication row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterNodeRow {
    /// Node id.
    pub node: u32,
    /// Whether the node currently answers RPC.
    pub alive: bool,
    /// Regions this node is the primary for.
    pub primary_regions: usize,
    /// Follower copies this node hosts.
    pub follower_regions: usize,
    /// Worst follower lag (WAL batches behind the primary) across the
    /// regions this node leads.
    pub replication_lag: u64,
    /// Promotions that made this node a primary.
    pub failovers: u64,
}

impl ClusterNodeRow {
    /// Health of the row: dead nodes are critical, lagging primaries
    /// (past `lag_alert` batches) are a warning, everything else is good.
    pub fn health(&self, lag_alert: u64) -> Health {
        if !self.alive {
            Health::Critical
        } else if self.replication_lag > lag_alert {
            Health::Warning
        } else {
            Health::Good
        }
    }
}

/// One fleet-wide stat in the page's analytics strip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatTile {
    /// Caption under the value.
    pub label: String,
    /// Pre-formatted value (count, ratio, latency with unit).
    pub value: String,
}

/// Input to the cluster replication page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterView {
    /// Copies the master maintains per region (1 = unreplicated).
    pub replication_factor: usize,
    /// Per-node rows, sorted by node id.
    pub nodes: Vec<ClusterNodeRow>,
    /// Follower lag (WAL batches) above which a primary shows as
    /// lagging rather than healthy.
    pub lag_alert: u64,
    /// Fleet-wide stat tiles, rendered in order after the replication
    /// factor and live-node tiles. The producer decides which
    /// stats exist; defaulted so view JSON from before the tile strip
    /// still parses.
    #[serde(default)]
    pub tiles: Vec<StatTile>,
}

impl ClusterView {
    /// Live nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }
}

/// Render the cluster replication page: an analytics strip (replication
/// factor, live nodes, then every tile the view carries) over a
/// per-node table with the same status palette and text labels as the
/// fleet overview.
pub fn cluster_page(view: &ClusterView) -> String {
    let mut body = String::new();
    page_start(&mut body, "Cluster replication");
    body.push_str("<h1>Cluster replication</h1><div class=\"analytics\">");
    let mut stat = |value: &str, label: &str| {
        body.push_str("<div class=\"stat\"><div class=\"v\">");
        escape_into(&mut body, value);
        body.push_str("</div><div class=\"k\">");
        escape_into(&mut body, label);
        body.push_str("</div></div>");
    };
    stat(
        &format!("RF {}", view.replication_factor),
        "replication factor",
    );
    stat(
        &format!("{}/{}", view.live_nodes(), view.nodes.len()),
        "nodes live",
    );
    for tile in &view.tiles {
        stat(&tile.value, &tile.label);
    }
    body.push_str("</div>");
    body.push_str(
        "<table class=\"units\"><tr><th>node</th><th>status</th>\
         <th>primary regions</th><th>follower copies</th>\
         <th>lag (batches)</th><th>failovers</th></tr>",
    );
    for n in &view.nodes {
        let health = n.health(view.lag_alert);
        let status = if n.alive { health.label() } else { "down" };
        body.push_str(&format!(
            "<tr><td>{}</td>\
             <td><span class=\"dot\" style=\"background:{}\"></span> {}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            n.node,
            health.color_var(),
            status,
            n.primary_regions,
            n.follower_regions,
            n.replication_lag,
            n.failovers,
        ));
    }
    body.push_str("</table>");
    page_end(&mut body);
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_view() -> ClusterView {
        ClusterView {
            replication_factor: 2,
            nodes: vec![
                ClusterNodeRow {
                    node: 0,
                    alive: true,
                    primary_regions: 2,
                    follower_regions: 1,
                    replication_lag: 0,
                    failovers: 0,
                },
                ClusterNodeRow {
                    node: 1,
                    alive: true,
                    primary_regions: 1,
                    follower_regions: 2,
                    replication_lag: 7,
                    failovers: 1,
                },
                ClusterNodeRow {
                    node: 2,
                    alive: false,
                    primary_regions: 0,
                    follower_regions: 0,
                    replication_lag: 0,
                    failovers: 0,
                },
            ],
            lag_alert: 4,
            tiles: [("fence rejections", "3"), ("mean task latency", "12.5µs")]
                .iter()
                .map(|(label, value)| StatTile {
                    label: label.to_string(),
                    value: value.to_string(),
                })
                .collect(),
        }
    }

    #[test]
    fn cluster_page_structure() {
        let view = sample_view();
        let html = cluster_page(&view);
        assert!(html.contains("<h1>Cluster replication</h1>"));
        assert!(html.contains("RF 2"));
        assert!(html.contains("2/3"));
        // Every tile the view carries renders, value over label.
        assert!(html.contains("<div class=\"v\">3</div><div class=\"k\">fence rejections</div>"));
        assert!(html.contains("12.5µs</div><div class=\"k\">mean task latency"));
        assert_eq!(html.matches("class=\"stat\"").count(), 2 + view.tiles.len());
        // Status is text, never color alone.
        assert!(html.contains("healthy"));
        assert!(html.contains("warning"));
        assert!(html.contains("down"));
    }

    #[test]
    fn health_tracks_liveness_then_lag() {
        let view = sample_view();
        assert_eq!(view.nodes[0].health(view.lag_alert), Health::Good);
        assert_eq!(view.nodes[1].health(view.lag_alert), Health::Warning);
        assert_eq!(view.nodes[2].health(view.lag_alert), Health::Critical);
        assert_eq!(view.live_nodes(), 2);
    }

    #[test]
    fn view_round_trips_through_json() {
        let view = sample_view();
        let json = serde_json::to_string(&view).unwrap();
        let back: ClusterView = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn pre_scheduler_view_json_still_parses() {
        // A producer built before the tile strip emits the old scalar
        // fields and no `tiles`: the scalars are skipped as unknown keys
        // and the strip defaults to empty.
        let legacy = r#"{"replication_factor":2,"nodes":[],"lag_alert":4,
            "total_failovers":1,"fence_rejections":3,"follower_reads":25,
            "hedged_scans":6}"#;
        let back: ClusterView = serde_json::from_str(legacy).unwrap();
        assert!(back.tiles.is_empty());
        assert_eq!(back.replication_factor, 2);
        assert_eq!(back.lag_alert, 4);
    }
}
