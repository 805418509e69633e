//! Cluster-scale ingestion experiments (Figure 2 and the §III-B ablations).
//!
//! These run on the deterministic queueing model of
//! [`pga_cluster::sim`], but the *routing* — which server each sample hits
//! — is computed with the real OpenTSDB key codec against the real region
//! pre-split layout, so the salting ablation exercises the actual key
//! design the paper describes.

use serde::{Deserialize, Serialize};

use pga_cluster::sim::{simulate_ingestion, IngestReport, ProxyMode, SimClusterConfig};
use pga_tsdb::{KeyCodec, KeyCodecConfig, UidTable};

/// Compute the fraction of the write stream each of `nodes` region servers
/// receives, using real row-key encoding.
///
/// Regions are pre-split on salt boundaries and assigned round-robin, as
/// the master does; with `salted = false` there is a single region (no
/// split points exist), so every write lands on server 0 — the §III-B
/// hotspot.
pub fn routing_shares(nodes: usize, units: u32, sensors_per_unit: u32, salted: bool) -> Vec<f64> {
    let codec = KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: if salted { nodes as u8 } else { 0 },
            row_span_secs: 3600,
        },
        UidTable::new(),
    );
    let mut counts = vec![0u64; nodes];
    // One row key per series; every series produces the same sample rate,
    // so series share = sample share.
    for unit in 0..units {
        let u = unit.to_string();
        for sensor in 0..sensors_per_unit {
            let s = sensor.to_string();
            let row = codec.row_key("energy", &[("unit", &u), ("sensor", &s)], 0);
            // Salt-aligned pre-splits, regions assigned round-robin over
            // nodes: bucket b → region b → node b % nodes. Unsalted: one
            // region on node 0.
            let node = (row[0] as usize) % nodes;
            counts[node] += 1;
        }
    }
    let total: u64 = counts.iter().sum();
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// One row of the Figure-2 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Cluster size.
    pub nodes: usize,
    /// Sustained throughput (samples/sec).
    pub throughput: f64,
    /// `(seconds, cumulative samples)` series — Fig. 2 right.
    pub timeline: Vec<(f64, f64)>,
}

/// Reproduce Figure 2: throughput vs node count, with per-configuration
/// cumulative-ingest timelines. `samples` is the workload per
/// configuration (the paper ingests ~20M samples per run).
pub fn fig2_scaling_experiment(node_counts: &[usize], samples: f64) -> Vec<Fig2Row> {
    node_counts
        .iter()
        .map(|&nodes| {
            let cfg = SimClusterConfig::paper_calibration(nodes);
            let shares = routing_shares(nodes, 100, 1000, true);
            let report = simulate_ingestion(
                &cfg,
                &shares,
                &vec![1.0; nodes],
                samples,
                f64::INFINITY,
                ProxyMode::Buffered,
            );
            Fig2Row {
                nodes,
                throughput: report.throughput(),
                timeline: report.timeline,
            }
        })
        .collect()
}

/// Least-squares linear fit `y = a + b x`; returns `(intercept, slope, r²)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    assert!(n >= 2.0, "need at least two points to fit");
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - intercept - slope * p.0).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (intercept, slope, r2)
}

/// Salting ablation (E6): identical cluster and workload, keys salted vs
/// unsalted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaltingAblationReport {
    /// Node count used.
    pub nodes: usize,
    /// Throughput with salted keys.
    pub salted_throughput: f64,
    /// Throughput with unsalted (sequential) keys.
    pub unsalted_throughput: f64,
    /// Busiest server's share of the work, salted.
    pub salted_max_share: f64,
    /// Busiest server's share of the work, unsalted (≈ 1.0 = hotspot).
    pub unsalted_max_share: f64,
}

impl SaltingAblationReport {
    /// The "dramatic increase" factor the paper reports qualitatively.
    pub fn speedup(&self) -> f64 {
        self.salted_throughput / self.unsalted_throughput
    }
}

/// Run the salting ablation on `nodes` servers.
pub fn salting_ablation(nodes: usize, samples: f64) -> SaltingAblationReport {
    let cfg = SimClusterConfig::paper_calibration(nodes);
    let salted_shares = routing_shares(nodes, 100, 1000, true);
    let unsalted_shares = routing_shares(nodes, 100, 1000, false);
    let speeds = vec![1.0; nodes];
    let salted = simulate_ingestion(
        &cfg,
        &salted_shares,
        &speeds,
        samples,
        f64::INFINITY,
        ProxyMode::Buffered,
    );
    let unsalted = simulate_ingestion(
        &cfg,
        &unsalted_shares,
        &speeds,
        samples,
        f64::INFINITY,
        ProxyMode::Buffered,
    );
    SaltingAblationReport {
        nodes,
        salted_throughput: salted.throughput(),
        unsalted_throughput: unsalted.throughput(),
        salted_max_share: salted.max_server_share(),
        unsalted_max_share: unsalted.max_server_share(),
    }
}

/// Proxy ablation (E7): identical firehose workload with and without the
/// buffering reverse proxy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProxyAblationReport {
    /// Node count used.
    pub nodes: usize,
    /// Outcome with the proxy (backpressure).
    pub with_proxy: IngestReportSummary,
    /// Outcome without the proxy (unthrottled try_send writes).
    pub without_proxy: IngestReportSummary,
}

/// Compact summary of a simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestReportSummary {
    /// Samples ingested.
    pub ingested: f64,
    /// Samples dropped.
    pub dropped: f64,
    /// Region servers crashed.
    pub crashes: usize,
    /// Throughput of what was ingested.
    pub throughput: f64,
}

impl From<&IngestReport> for IngestReportSummary {
    fn from(r: &IngestReport) -> Self {
        IngestReportSummary {
            ingested: r.ingested,
            dropped: r.dropped,
            crashes: r.crashes,
            throughput: r.throughput(),
        }
    }
}

/// Run the proxy ablation on `nodes` servers with a firehose workload.
pub fn proxy_ablation(nodes: usize, samples: f64) -> ProxyAblationReport {
    let mut cfg = SimClusterConfig::paper_calibration(nodes);
    // The paper's crashes happened under sustained unthrottled storms;
    // a modest strike budget makes the run finite.
    cfg.crash_overflow_threshold = 100;
    let shares = routing_shares(nodes, 100, 1000, true);
    let run = |proxy| {
        simulate_ingestion(
            &cfg,
            &shares,
            &vec![1.0; nodes],
            samples,
            f64::INFINITY,
            proxy,
        )
    };
    let with = run(ProxyMode::Buffered);
    let without = run(ProxyMode::None);
    ProxyAblationReport {
        nodes,
        with_proxy: (&with).into(),
        without_proxy: (&without).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salted_shares_are_roughly_uniform() {
        let shares = routing_shares(30, 100, 1000, true);
        assert_eq!(shares.len(), 30);
        let expect = 1.0 / 30.0;
        for (i, &s) in shares.iter().enumerate() {
            assert!(
                (s - expect).abs() < expect * 0.5,
                "node {i} share {s} far from {expect}"
            );
        }
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unsalted_shares_hotspot_node_zero() {
        let shares = routing_shares(30, 100, 1000, false);
        assert_eq!(shares[0], 1.0);
        assert!(shares[1..].iter().all(|&s| s == 0.0));
    }

    #[test]
    fn fig2_scales_linearly() {
        let rows = fig2_scaling_experiment(&[10, 20, 30], 2_000_000.0);
        assert_eq!(rows.len(), 3);
        let points: Vec<(f64, f64)> = rows
            .iter()
            .map(|r| (r.nodes as f64, r.throughput))
            .collect();
        let (_, slope, r2) = linear_fit(&points);
        assert!(slope > 5_000.0, "slope {slope} too shallow");
        assert!(r2 > 0.98, "poor linearity r²={r2}");
        assert!(rows[2].throughput > rows[0].throughput * 2.5);
    }

    #[test]
    fn salting_ablation_shows_dramatic_speedup() {
        let report = salting_ablation(30, 1_000_000.0);
        assert!(report.speedup() > 5.0, "speedup {}", report.speedup());
        assert!(report.unsalted_max_share > 0.99);
        assert!(report.salted_max_share < 0.1);
    }

    #[test]
    fn proxy_ablation_crashes_without_buffering() {
        let report = proxy_ablation(10, 3_000_000.0);
        assert_eq!(report.with_proxy.crashes, 0);
        assert_eq!(report.with_proxy.dropped, 0.0);
        assert!(report.without_proxy.crashes > 0);
        assert!(report.without_proxy.dropped > 0.0);
    }

    #[test]
    fn linear_fit_recovers_known_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (a, b, r2) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-12);
    }
}
