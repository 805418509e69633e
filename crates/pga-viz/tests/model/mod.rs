//! The element-tree renderer the streaming writer replaced, kept as the
//! differential model: every attribute is a `String`, every number a
//! `format!("{:.2}")`, and the tree is escaped as it renders. Its pages
//! must equal the crate's byte for byte.

use std::collections::HashSet;
use std::fmt::Write;

use pga_viz::dashboard::STYLE;
use pga_viz::{
    ChartConfig, ClusterView, FleetOverview, Health, HeatmapData, LinearScale, MachinePage,
    UnitStatus,
};

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

#[derive(Debug, Clone)]
pub struct Element {
    tag: &'static str,
    attributes: Vec<(String, String)>,
    children: Vec<Element>,
    text: Option<String>,
}

impl Element {
    pub fn new(tag: &'static str) -> Self {
        Element {
            tag,
            attributes: Vec::new(),
            children: Vec::new(),
            text: None,
        }
    }

    pub fn attr(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.attributes.push((name.to_string(), value.to_string()));
        self
    }

    pub fn child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.text = Some(text.into());
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        write!(out, "<{}", self.tag).unwrap();
        for (k, v) in &self.attributes {
            write!(out, " {}=\"{}\"", k, escape(v)).unwrap();
        }
        if self.children.is_empty() && self.text.is_none() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        if let Some(t) = &self.text {
            out.push_str(&escape(t));
        }
        for c in &self.children {
            c.write_into(out);
        }
        write!(out, "</{}>", self.tag).unwrap();
    }
}

pub fn document(width: u32, height: u32) -> Element {
    Element::new("svg")
        .attr("xmlns", "http://www.w3.org/2000/svg")
        .attr("width", width)
        .attr("height", height)
        .attr("viewBox", format!("0 0 {width} {height}"))
        .attr("role", "img")
}

pub mod el {
    use super::Element;

    pub fn group() -> Element {
        Element::new("g")
    }

    pub fn polyline(points: &[(f64, f64)]) -> Element {
        let pts = points
            .iter()
            .map(|(x, y)| format!("{x:.2},{y:.2}"))
            .collect::<Vec<_>>()
            .join(" ");
        Element::new("polyline")
            .attr("points", pts)
            .attr("fill", "none")
    }

    pub fn line(x1: f64, y1: f64, x2: f64, y2: f64) -> Element {
        Element::new("line")
            .attr("x1", format!("{x1:.2}"))
            .attr("y1", format!("{y1:.2}"))
            .attr("x2", format!("{x2:.2}"))
            .attr("y2", format!("{y2:.2}"))
    }

    pub fn circle(cx: f64, cy: f64, r: f64) -> Element {
        Element::new("circle")
            .attr("cx", format!("{cx:.2}"))
            .attr("cy", format!("{cy:.2}"))
            .attr("r", format!("{r:.2}"))
    }

    pub fn rect(x: f64, y: f64, w: f64, h: f64) -> Element {
        Element::new("rect")
            .attr("x", format!("{x:.2}"))
            .attr("y", format!("{y:.2}"))
            .attr("width", format!("{w:.2}"))
            .attr("height", format!("{h:.2}"))
    }

    pub fn text(x: f64, y: f64, content: impl Into<String>) -> Element {
        Element::new("text")
            .attr("x", format!("{x:.2}"))
            .attr("y", format!("{y:.2}"))
            .text(content)
    }

    pub fn title(content: impl Into<String>) -> Element {
        Element::new("title").text(content)
    }
}

pub fn sparkline(
    points: &[(u64, f64)],
    anomalies: &[u64],
    width: u32,
    height: u32,
    cfg: &ChartConfig,
) -> String {
    let mut doc = document(width, height);
    if points.is_empty() {
        return doc.render();
    }
    let x = LinearScale::from_values(
        points.iter().map(|p| p.0 as f64),
        2.0,
        width as f64 - 2.0,
        0.0,
    );
    let y = LinearScale::from_values(points.iter().map(|p| p.1), height as f64 - 3.0, 3.0, 0.15);
    let line_pts: Vec<(f64, f64)> = points
        .iter()
        .map(|&(t, v)| (x.map(t as f64), y.map(v)))
        .collect();
    doc = doc.child(
        el::polyline(&line_pts)
            .attr("stroke", &cfg.series_color)
            .attr("stroke-width", "1.5")
            .attr("stroke-linejoin", "round"),
    );
    let anomaly_set: HashSet<u64> = anomalies.iter().copied().collect();
    for &(t, v) in points {
        if anomaly_set.contains(&t) {
            doc = doc.child(
                el::circle(x.map(t as f64), y.map(v), 3.5)
                    .attr("fill", &cfg.anomaly_color)
                    .attr("stroke", &cfg.surface_color)
                    .attr("stroke-width", "2")
                    .child(el::title(format!("anomaly at t={t}, value {v:.2}"))),
            );
        }
    }
    doc.render()
}

pub fn detail_chart(
    title: &str,
    points: &[(u64, f64)],
    anomalies: &[u64],
    width: u32,
    height: u32,
    cfg: &ChartConfig,
) -> String {
    const M_LEFT: f64 = 48.0;
    const M_RIGHT: f64 = 12.0;
    const M_TOP: f64 = 28.0;
    const M_BOTTOM: f64 = 28.0;
    let mut doc = document(width, height);
    doc = doc.child(
        el::text(M_LEFT, 18.0, title)
            .attr("fill", "var(--text-primary)")
            .attr("font-size", "13")
            .attr("font-weight", "600"),
    );
    if points.is_empty() {
        return doc
            .child(
                el::text(width as f64 / 2.0, height as f64 / 2.0, "no data")
                    .attr("fill", &cfg.label_color)
                    .attr("text-anchor", "middle"),
            )
            .render();
    }
    let x = LinearScale::from_values(
        points.iter().map(|p| p.0 as f64),
        M_LEFT,
        width as f64 - M_RIGHT,
        0.0,
    );
    let y = LinearScale::from_values(
        points.iter().map(|p| p.1),
        height as f64 - M_BOTTOM,
        M_TOP,
        0.1,
    );
    let mut grid = el::group()
        .attr("stroke", &cfg.grid_color)
        .attr("stroke-width", "1");
    let mut labels = el::group()
        .attr("fill", &cfg.label_color)
        .attr("font-size", "10");
    for tick in y.ticks(4) {
        let py = y.map(tick);
        grid = grid.child(el::line(M_LEFT, py, width as f64 - M_RIGHT, py));
        labels = labels.child(
            el::text(M_LEFT - 6.0, py + 3.0, format!("{tick:.1}")).attr("text-anchor", "end"),
        );
    }
    for tick in x.ticks(6) {
        let px = x.map(tick);
        labels = labels.child(
            el::text(px, height as f64 - M_BOTTOM + 16.0, format!("{tick:.0}"))
                .attr("text-anchor", "middle"),
        );
    }
    doc = doc.child(grid).child(labels);
    let line_pts: Vec<(f64, f64)> = points
        .iter()
        .map(|&(t, v)| (x.map(t as f64), y.map(v)))
        .collect();
    doc = doc.child(
        el::polyline(&line_pts)
            .attr("stroke", &cfg.series_color)
            .attr("stroke-width", "2")
            .attr("stroke-linejoin", "round"),
    );
    let anomaly_set: HashSet<u64> = anomalies.iter().copied().collect();
    for &(t, v) in points {
        if anomaly_set.contains(&t) {
            doc = doc.child(
                el::circle(x.map(t as f64), y.map(v), 4.5)
                    .attr("fill", &cfg.anomaly_color)
                    .attr("stroke", &cfg.surface_color)
                    .attr("stroke-width", "2")
                    .child(el::title(format!("anomaly at t={t}, value {v:.3}"))),
            );
        }
    }
    doc.render()
}

fn page_shell(title: &str, body: &str) -> String {
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\
         <title>{}</title><style>{}</style></head>\
         <body class=\"viz-root\">{}</body></html>",
        escape(title),
        STYLE,
        body
    )
}

fn status_pill(status: &UnitStatus) -> String {
    format!(
        "<span class=\"pill\"><span class=\"dot\" style=\"background:{}\"></span>\
         unit {} &middot; {} &middot; {} flagged</span>",
        status.health.color_var(),
        status.unit,
        status.health.label(),
        status.flagged_sensors
    )
}

pub fn machine_page(page: &MachinePage) -> String {
    let cfg = ChartConfig::default();
    let mut body = format!(
        "<h1>Machine {}</h1><div class=\"statusbar\">{}{}</div>",
        page.unit,
        status_pill(&page.status),
        page.status
            .last_anomaly
            .map(|t| format!("<span class=\"pill\">last anomaly at t={t}</span>"))
            .unwrap_or_default(),
    );
    body.push_str("<h2>Sensor readings</h2><div class=\"grid\">");
    for panel in &page.panels {
        let spark = sparkline(&panel.points, &panel.anomalies, 340, 48, &cfg);
        body.push_str(&format!(
            "<div class=\"panel\"><div class=\"label\"><span>sensor {}</span><span>{}</span></div>{}</div>",
            panel.sensor,
            if panel.anomalies.is_empty() {
                String::new()
            } else {
                format!("{} anomalies", panel.anomalies.len())
            },
            spark
        ));
    }
    body.push_str("</div>");
    if let Some(idx) = page.detail {
        if let Some(panel) = page.panels.get(idx) {
            body.push_str(&format!(
                "<div class=\"detail\">{}</div>",
                detail_chart(
                    &format!("sensor {} — detail", panel.sensor),
                    &panel.points,
                    &panel.anomalies,
                    900,
                    260,
                    &cfg
                )
            ));
        }
    }
    body.push_str(
        "<details><summary>Data table</summary>\
         <table class=\"units\"><tr><th>sensor</th><th>latest value</th>\
         <th>min</th><th>max</th><th>anomalies</th></tr>",
    );
    for panel in &page.panels {
        let latest = panel.points.last().map_or(f64::NAN, |p| p.1);
        let min = panel
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min);
        let max = panel
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max);
        body.push_str(&format!(
            "<tr><td>{}</td><td>{latest:.3}</td><td>{min:.3}</td><td>{max:.3}</td><td>{}</td></tr>",
            panel.sensor,
            panel.anomalies.len()
        ));
    }
    body.push_str("</table></details>");
    page_shell(&format!("Machine {}", page.unit), &body)
}

pub fn fleet_overview_page(overview: &FleetOverview) -> String {
    let count = |h: Health| overview.units.iter().filter(|u| u.health == h).count();
    let (good, warning, critical) = (
        count(Health::Good),
        count(Health::Warning),
        count(Health::Critical),
    );
    let mut body = String::from("<h1>Fleet overview</h1>");
    body.push_str(&format!(
        "<div class=\"analytics\">\
         <div class=\"stat\"><div class=\"v\">{:.0}</div><div class=\"k\">samples/sec ingested</div></div>\
         <div class=\"stat\"><div class=\"v\">{:.0}</div><div class=\"k\">samples/sec evaluated</div></div>\
         <div class=\"stat\"><div class=\"v\">{}</div><div class=\"k\">units healthy</div></div>\
         <div class=\"stat\"><div class=\"v\">{}</div><div class=\"k\">units warning</div></div>\
         <div class=\"stat\"><div class=\"v\">{}</div><div class=\"k\">units critical</div></div>\
         </div>",
        overview.ingest_rate, overview.eval_rate, good, warning, critical
    ));
    body.push_str(
        "<table class=\"units\"><tr><th>unit</th><th>status</th>\
         <th>flagged sensors</th><th>last anomaly</th><th></th></tr>",
    );
    for u in &overview.units {
        body.push_str(&format!(
            "<tr><td>{}</td>\
             <td><span class=\"dot\" style=\"background:{}\"></span> {}</td>\
             <td>{}</td><td>{}</td>\
             <td><a href=\"/machine/{}\">view</a></td></tr>",
            u.unit,
            u.health.color_var(),
            u.health.label(),
            u.flagged_sensors,
            u.last_anomaly
                .map(|t| format!("t={t}"))
                .unwrap_or_else(|| "—".into()),
            u.unit
        ));
    }
    body.push_str("</table>");
    page_shell("Fleet overview", &body)
}

pub fn cluster_page(view: &ClusterView) -> String {
    let mut body = String::from("<h1>Cluster replication</h1><div class=\"analytics\">");
    let mut stat = |value: &str, label: &str| {
        body.push_str(&format!(
            "<div class=\"stat\"><div class=\"v\">{}</div><div class=\"k\">{}</div></div>",
            escape(value),
            escape(label)
        ));
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
        let status = if n.alive {
            health.label().to_string()
        } else {
            "down".to_string()
        };
        body.push_str(&format!(
            "<tr><td>{}</td>\
             <td><span class=\"dot\" style=\"background:{}\"></span> {}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            n.node,
            health.color_var(),
            escape(&status),
            n.primary_regions,
            n.follower_regions,
            n.replication_lag,
            n.failovers,
        ));
    }
    body.push_str("</table>");
    page_shell("Cluster replication", &body)
}

const RAMP: [&str; 7] = [
    "#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5", "#256abf", "#184f95", "#0d366b",
];

pub fn anomaly_heatmap(data: &HeatmapData, cell: u32) -> String {
    let label_w = 56u32;
    let label_h = 18u32;
    let rows = data.units.len() as u32;
    let cols = data.bucket_starts.len() as u32;
    let width = label_w + cols * cell + 8;
    let height = label_h + rows * cell + 8;
    let mut doc = document(width, height);
    let max = data.max_count().max(1);
    for (r, &unit) in data.units.iter().enumerate() {
        doc = doc.child(
            el::text(
                label_w as f64 - 6.0,
                label_h as f64 + r as f64 * cell as f64 + cell as f64 * 0.7,
                format!("u{unit}"),
            )
            .attr("fill", "var(--text-secondary)")
            .attr("font-size", "10")
            .attr("text-anchor", "end"),
        );
        for (b, &count) in data.counts[r].iter().enumerate() {
            let x = label_w as f64 + b as f64 * cell as f64;
            let y = label_h as f64 + r as f64 * cell as f64;
            let color = if count == 0 {
                "var(--surface-2)".to_string()
            } else {
                let idx = ((count as f64 / max as f64) * (RAMP.len() - 1) as f64).ceil() as usize;
                RAMP[idx.min(RAMP.len() - 1)].to_string()
            };
            doc = doc.child(
                el::rect(x, y, cell as f64 - 1.0, cell as f64 - 1.0)
                    .attr("fill", color)
                    .attr("rx", "1.5")
                    .child(el::title(format!(
                        "unit {unit}, t={}..{}: {count} anomalies",
                        data.bucket_starts[b],
                        data.bucket_starts[b]
                            + data
                                .bucket_starts
                                .get(1)
                                .map_or(0, |s| s - data.bucket_starts[0]),
                    ))),
            );
        }
    }
    for b in [0usize, (cols as usize) / 2, cols as usize - 1] {
        if b < data.bucket_starts.len() {
            doc = doc.child(
                el::text(
                    label_w as f64 + b as f64 * cell as f64,
                    12.0,
                    format!("t={}", data.bucket_starts[b]),
                )
                .attr("fill", "var(--text-secondary)")
                .attr("font-size", "9"),
            );
        }
    }
    doc.render()
}
