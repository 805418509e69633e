//! Deterministic discrete-time queueing simulator for cluster-scale
//! ingestion experiments.
//!
//! The paper's Figure 2 sweeps a physical cluster from 10 to 30 storage
//! nodes; this repository's host has far fewer cores, so the node-count
//! sweeps run on a calibrated queueing model instead of wall-clock threads
//! (DESIGN.md §6). Every queueing experiment — the Fig. 2 sweeps (E1, E2,
//! E12), the salting and proxy ablations (E6, E7) and the overload storm
//! (E18) — runs through the one loop in [`simulate_ingestion`]. The model
//! is intentionally simple and fully deterministic:
//!
//! * each server drains its own bounded queue at a fixed service rate
//!   (samples/sec, with a per-RPC overhead folded in), scaled by its
//!   per-node speed (1.0 for a healthy node; E18 slows one down);
//! * the workload is routed to servers by a *share vector* computed by the
//!   caller from the real storage-layer key encoding — this is what makes
//!   the salting ablation (E6) exercise the actual OpenTSDB key design;
//! * without a proxy, writes are fired at the servers unthrottled: queue
//!   overflow drops the RPC and charges an overload strike, and sustained
//!   strikes crash the server (§III-B's observed failure);
//! * with the buffering reverse proxy, admission is clamped to available
//!   queue space and the excess waits in the proxy buffer — backpressure.
//!
//! Every run keeps a conservation ledger: `offered = ingested + dropped +
//! backlog_end` ([`IngestReport::conserves_samples`]).

use serde::{Deserialize, Serialize};

/// Reverse-proxy configuration for a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProxyMode {
    /// No proxy: clients fire RPCs directly at region servers (try_send
    /// semantics). Overflow drops and may crash servers.
    None,
    /// Buffering reverse proxy (the paper's remedy): requests queue in the
    /// proxy and are admitted only when the target server has room.
    Buffered,
}

/// Parameters of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimClusterConfig {
    /// Number of region-server nodes.
    pub nodes: usize,
    /// Sustained per-node service rate in samples/sec (excluding RPC
    /// overhead). Calibrated so 30 nodes land near the paper's 399k.
    pub per_node_rate: f64,
    /// Fixed CPU cost per RPC, in seconds.
    pub rpc_overhead_secs: f64,
    /// Samples carried per RPC (OpenTSDB batched puts).
    pub samples_per_rpc: f64,
    /// Per-server queue capacity in samples.
    pub queue_capacity: f64,
    /// Overload strikes after which a server crashes.
    pub crash_overflow_threshold: u64,
    /// Simulation step in seconds.
    pub dt_secs: f64,
    /// Safety cap on simulated steps.
    pub max_steps: u64,
}

impl SimClusterConfig {
    /// Calibration used by the Figure-2 reproduction: ~13.3k samples/sec of
    /// effective per-node service so that 30 nodes sustain ≈ 400k/sec.
    pub fn paper_calibration(nodes: usize) -> Self {
        SimClusterConfig {
            nodes,
            per_node_rate: 14_000.0,
            rpc_overhead_secs: 0.000_05,
            samples_per_rpc: 50.0,
            queue_capacity: 20_000.0,
            crash_overflow_threshold: 50,
            dt_secs: 0.05,
            max_steps: 2_000_000,
        }
    }

    /// Effective service rate once per-RPC overhead is folded in.
    pub fn effective_rate(&self) -> f64 {
        let per_sample = 1.0 / self.per_node_rate + self.rpc_overhead_secs / self.samples_per_rpc;
        1.0 / per_sample
    }
}

/// Per-server terminal state of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimServerState {
    /// Samples fully processed.
    pub processed: f64,
    /// Samples dropped on the floor (no-proxy overflow, or lost at crash).
    pub dropped: f64,
    /// Overload strikes.
    pub overloads: u64,
    /// Whether the server crashed.
    pub crashed: bool,
}

/// Outcome of one simulated ingestion run. The ledger holds to within a
/// sample: `offered = ingested + dropped + backlog_end`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Samples the source offered to the cluster.
    pub offered: f64,
    /// Samples successfully ingested.
    pub ingested: f64,
    /// Samples dropped (no-proxy overflow, or lost with a crashed server).
    pub dropped: f64,
    /// Samples still queued or buffered when the run hit `max_steps`.
    pub backlog_end: f64,
    /// Virtual seconds until the workload finished (or stalled).
    pub duration_secs: f64,
    /// Virtual seconds until the source offered its last sample.
    pub source_secs: f64,
    /// Samples ingested by `source_secs`.
    pub ingested_by_source_end: f64,
    /// Per-server terminal states.
    pub servers: Vec<SimServerState>,
    /// `(virtual seconds, cumulative ingested)` snapshots — the series
    /// behind the paper's Fig. 2 (right).
    pub timeline: Vec<(f64, f64)>,
    /// Servers that crashed during the run.
    pub crashes: usize,
}

impl IngestReport {
    /// Sustained ingestion throughput in samples/sec.
    pub fn throughput(&self) -> f64 {
        if self.duration_secs == 0.0 {
            0.0
        } else {
            self.ingested / self.duration_secs
        }
    }

    /// Fraction of processed work carried by the busiest server — 1/n for a
    /// perfectly balanced cluster, →1.0 for a hotspotted one.
    pub fn max_server_share(&self) -> f64 {
        let total: f64 = self.servers.iter().map(|s| s.processed).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.servers
            .iter()
            .map(|s| s.processed / total)
            .fold(0.0, f64::max)
    }

    /// Samples/sec ingested while the source was still offering — the
    /// goodput of a storm.
    pub fn goodput(&self) -> f64 {
        if self.source_secs == 0.0 {
            0.0
        } else {
            self.ingested_by_source_end / self.source_secs
        }
    }

    /// Virtual seconds the cluster kept draining after the source stopped.
    pub fn drain_secs(&self) -> f64 {
        self.duration_secs - self.source_secs
    }

    /// `true` when every offered sample is ingested, dropped or still in
    /// flight, to within one sample.
    pub fn conserves_samples(&self) -> bool {
        (self.ingested + self.dropped + self.backlog_end - self.offered).abs() < 1.0
    }
}

/// Run one ingestion workload through the simulated cluster.
///
/// * `shares` — fraction of the write stream routed to each server; must
///   have `cfg.nodes` entries summing to ≈ 1. Computed by the caller from
///   real row-key → region routing.
/// * `speeds` — each server's service rate as a fraction of a healthy
///   node's (`1.0` everywhere for a healthy cluster).
/// * `total_samples` — workload size.
/// * `offered_rate` — samples/sec the ingestion tier fires at the cluster
///   (effectively ∞ for a firehose benchmark).
///
/// # Panics
/// Panics if `shares` or `speeds` does not have `cfg.nodes` entries, the
/// shares are not a distribution, or a speed is not positive.
pub fn simulate_ingestion(
    cfg: &SimClusterConfig,
    shares: &[f64],
    speeds: &[f64],
    total_samples: f64,
    offered_rate: f64,
    proxy: ProxyMode,
) -> IngestReport {
    assert_eq!(shares.len(), cfg.nodes, "one share per node required");
    assert_eq!(speeds.len(), cfg.nodes, "one speed per node required");
    let share_sum: f64 = shares.iter().sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-6 && shares.iter().all(|&s| s >= 0.0),
        "shares must form a distribution (sum {share_sum})"
    );
    assert!(speeds.iter().all(|&v| v > 0.0), "speeds must be positive");
    let rate = cfg.effective_rate();
    let mut servers: Vec<SimServerState> = (0..cfg.nodes)
        .map(|_| SimServerState {
            processed: 0.0,
            dropped: 0.0,
            overloads: 0,
            crashed: false,
        })
        .collect();
    let mut queues = vec![0.0f64; cfg.nodes];
    // Per-server proxy-side FIFO credit (Buffered mode only).
    let mut proxy_buffer = vec![0.0f64; cfg.nodes];
    let mut remaining = total_samples;
    let mut ingested = 0.0;
    let mut dropped = 0.0;
    let mut timeline = Vec::new();
    // `(virtual seconds, ingested)` when the source ran dry.
    let mut source_end = None;
    let snapshot_every = ((1.0 / cfg.dt_secs).round() as u64).max(1); // ~1 Hz
    let mut step = 0u64;
    let dt = cfg.dt_secs;
    while step < cfg.max_steps {
        // 1. Source offers work this step.
        let offer = (offered_rate * dt).min(remaining);
        remaining -= offer;
        // 2. Route to servers.
        for s in 0..cfg.nodes {
            let arriving = offer * shares[s];
            if arriving == 0.0 {
                continue;
            }
            match proxy {
                ProxyMode::Buffered => {
                    proxy_buffer[s] += arriving;
                }
                ProxyMode::None => {
                    if servers[s].crashed {
                        servers[s].dropped += arriving;
                        dropped += arriving;
                        continue;
                    }
                    let room = cfg.queue_capacity - queues[s];
                    let admitted = arriving.min(room.max(0.0));
                    let overflow = arriving - admitted;
                    queues[s] += admitted;
                    if overflow > 0.0 {
                        servers[s].dropped += overflow;
                        dropped += overflow;
                        // One strike per rejected RPC: a dropped batch of
                        // `samples_per_rpc` samples is one failed call.
                        servers[s].overloads += (overflow / cfg.samples_per_rpc).ceil() as u64;
                        if servers[s].overloads >= cfg.crash_overflow_threshold {
                            servers[s].crashed = true;
                            // In-queue work dies with the server.
                            servers[s].dropped += queues[s];
                            dropped += queues[s];
                            queues[s] = 0.0;
                        }
                    }
                }
            }
        }
        // 3. Proxy admits buffered work up to available queue space.
        if proxy == ProxyMode::Buffered {
            for s in 0..cfg.nodes {
                if servers[s].crashed {
                    continue; // proxy holds the data rather than losing it
                }
                let room = (cfg.queue_capacity - queues[s]).max(0.0);
                let admit = proxy_buffer[s].min(room);
                proxy_buffer[s] -= admit;
                queues[s] += admit;
            }
        }
        // 4. Servers drain their queues.
        for s in 0..cfg.nodes {
            if servers[s].crashed {
                continue;
            }
            let capacity = rate * speeds[s] * dt;
            let done = queues[s].min(capacity);
            queues[s] -= done;
            servers[s].processed += done;
            ingested += done;
        }
        step += 1;
        if step.is_multiple_of(snapshot_every) {
            timeline.push((step as f64 * dt, ingested));
        }
        if remaining <= 0.0 && source_end.is_none() {
            source_end = Some((step as f64 * dt, ingested));
        }
        // Done when nothing is left anywhere (or everything left is stuck
        // behind crashed servers).
        let in_flight: f64 = queues.iter().sum::<f64>() + proxy_buffer.iter().sum::<f64>();
        if remaining <= 0.0 && in_flight < 1e-9 {
            break;
        }
        // Stalled: all live work targets crashed servers.
        if remaining <= 0.0 {
            let live_flight: f64 = (0..cfg.nodes)
                .filter(|&s| !servers[s].crashed)
                .map(|s| queues[s] + proxy_buffer[s])
                .sum();
            if live_flight < 1e-9 {
                // Anything still buffered for crashed servers is stuck.
                for s in 0..cfg.nodes {
                    if servers[s].crashed {
                        dropped += queues[s] + proxy_buffer[s];
                        servers[s].dropped += queues[s] + proxy_buffer[s];
                        queues[s] = 0.0;
                        proxy_buffer[s] = 0.0;
                    }
                }
                break;
            }
        }
    }
    let duration = step as f64 * dt;
    timeline.push((duration, ingested));
    let (source_secs, ingested_by_source_end) = source_end.unwrap_or((duration, ingested));
    IngestReport {
        offered: total_samples - remaining,
        ingested,
        dropped,
        backlog_end: queues.iter().sum::<f64>() + proxy_buffer.iter().sum::<f64>(),
        duration_secs: duration,
        source_secs,
        ingested_by_source_end,
        crashes: servers.iter().filter(|s| s.crashed).count(),
        servers,
        timeline,
    }
}

/// Uniform share vector (perfectly salted keys over pre-split regions).
pub fn uniform_shares(nodes: usize) -> Vec<f64> {
    vec![1.0 / nodes as f64; nodes]
}

/// Hotspot share vector: `hot_fraction` of traffic on one server, the rest
/// spread evenly (unsalted sequential keys all land in one region).
pub fn hotspot_shares(nodes: usize, hot_fraction: f64) -> Vec<f64> {
    assert!(nodes >= 1 && (0.0..=1.0).contains(&hot_fraction));
    if nodes == 1 {
        return vec![1.0];
    }
    let rest = (1.0 - hot_fraction) / (nodes - 1) as f64;
    let mut v = vec![rest; nodes];
    v[0] = hot_fraction;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize) -> SimClusterConfig {
        SimClusterConfig::paper_calibration(nodes)
    }

    /// A firehose through a cluster of healthy servers.
    fn firehose(
        c: &SimClusterConfig,
        shares: &[f64],
        samples: f64,
        proxy: ProxyMode,
    ) -> IngestReport {
        let speeds = vec![1.0; c.nodes];
        simulate_ingestion(c, shares, &speeds, samples, f64::INFINITY, proxy)
    }

    /// E18's shape: 5 nodes at 3× calibrated capacity for 30 s, node 0 at
    /// quarter speed.
    fn storm(proxy: ProxyMode) -> IngestReport {
        let c = cfg(5);
        let rate = 3.0 * 5.0 * c.effective_rate();
        let speeds = [0.25, 1.0, 1.0, 1.0, 1.0];
        simulate_ingestion(&c, &uniform_shares(5), &speeds, rate * 30.0, rate, proxy)
    }

    fn goodput_fraction(r: &IngestReport) -> f64 {
        r.goodput() / (5.0 * cfg(5).effective_rate())
    }

    #[test]
    fn balanced_cluster_scales_linearly() {
        let w = 2_000_000.0;
        let t =
            |n: usize| firehose(&cfg(n), &uniform_shares(n), w, ProxyMode::Buffered).throughput();
        let (t10, t20, t30) = (t(10), t(20), t(30));
        assert!(
            t20 / t10 > 1.8 && t20 / t10 < 2.2,
            "10→20 ratio {}",
            t20 / t10
        );
        assert!(
            t30 / t10 > 2.7 && t30 / t10 < 3.3,
            "10→30 ratio {}",
            t30 / t10
        );
    }

    #[test]
    fn paper_calibration_reaches_399k_at_30_nodes() {
        let w = 4_000_000.0;
        let r = firehose(&cfg(30), &uniform_shares(30), w, ProxyMode::Buffered);
        let t = r.throughput();
        assert!(t > 350_000.0 && t < 450_000.0, "throughput {t}");
        assert_eq!(r.crashes, 0);
        assert_eq!(r.dropped, 0.0);
        assert!((r.ingested - w).abs() < 1.0);
    }

    #[test]
    fn hotspot_throttles_throughput_to_one_server() {
        let w = 1_000_000.0;
        let hot = firehose(&cfg(30), &hotspot_shares(30, 0.95), w, ProxyMode::Buffered);
        let balanced = firehose(&cfg(30), &uniform_shares(30), w, ProxyMode::Buffered);
        // A 95% hotspot cannot beat ~1/0.95 of a single server's rate.
        assert!(hot.throughput() < balanced.throughput() / 10.0);
        assert!(hot.max_server_share() > 0.9);
        assert!(balanced.max_server_share() < 0.05);
    }

    #[test]
    fn no_proxy_firehose_crashes_servers() {
        let mut c = cfg(5);
        c.crash_overflow_threshold = 10;
        let r = firehose(&c, &uniform_shares(5), 5_000_000.0, ProxyMode::None);
        assert!(r.crashes > 0, "expected crashes under unthrottled load");
        assert!(r.dropped > 0.0);
    }

    #[test]
    fn proxy_prevents_crashes_under_same_load() {
        let mut c = cfg(5);
        c.crash_overflow_threshold = 10;
        let r = firehose(&c, &uniform_shares(5), 5_000_000.0, ProxyMode::Buffered);
        assert_eq!(r.crashes, 0);
        assert_eq!(r.dropped, 0.0);
        assert!((r.ingested - 5_000_000.0).abs() < 1.0);
    }

    #[test]
    fn moderate_offered_rate_never_overflows_without_proxy() {
        let c = cfg(10);
        // Offered rate well under cluster capacity: no overloads either way.
        let r = simulate_ingestion(
            &c,
            &uniform_shares(10),
            &[1.0; 10],
            500_000.0,
            50_000.0,
            ProxyMode::None,
        );
        assert_eq!(r.crashes, 0);
        assert_eq!(r.dropped, 0.0);
    }

    #[test]
    fn timeline_is_monotone_and_rate_stable() {
        let r = firehose(
            &cfg(15),
            &uniform_shares(15),
            3_000_000.0,
            ProxyMode::Buffered,
        );
        assert!(r.timeline.len() >= 3);
        for w in r.timeline.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 > w[0].0);
        }
        // Steady-state slope between interior snapshots within 10% of mean throughput.
        let t = r.throughput();
        for w in r
            .timeline
            .windows(2)
            .take(r.timeline.len().saturating_sub(2))
        {
            let slope = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            assert!((slope - t).abs() / t < 0.1, "slope {slope} vs {t}");
        }
    }

    #[test]
    fn effective_rate_below_raw_rate() {
        let c = cfg(1);
        assert!(c.effective_rate() < c.per_node_rate);
        assert!(c.effective_rate() > 0.9 * c.per_node_rate);
    }

    #[test]
    #[should_panic(expected = "one share per node")]
    fn share_length_mismatch_panics() {
        simulate_ingestion(
            &cfg(3),
            &[0.5, 0.5],
            &[1.0; 3],
            10.0,
            1.0,
            ProxyMode::Buffered,
        );
    }

    #[test]
    fn e18_seed_buffered_latency_collapses_without_feedback() {
        let r = storm(ProxyMode::Buffered);
        assert!(r.conserves_samples(), "ledger leak: {r:?}");
        // The proxy holds everything: nothing is lost and no server dies...
        assert_eq!(r.dropped, 0.0);
        assert_eq!(r.crashes, 0);
        assert!(
            goodput_fraction(&r) >= 0.8,
            "goodput fraction {} under storm",
            goodput_fraction(&r)
        );
        // ...but nothing tells the producer to slow down: the slow node's
        // backlog drains long after the 30-second storm.
        assert!(
            r.drain_secs() > r.source_secs,
            "drain {} s should outlast the storm",
            r.drain_secs()
        );
    }

    #[test]
    fn e18_seed_direct_storm_crashes_servers() {
        let r = storm(ProxyMode::None);
        assert!(r.conserves_samples(), "ledger leak: {r:?}");
        assert!(r.crashes > 0, "direct firehose must crash servers");
        assert!(r.dropped > 0.0, "direct overflow drops silently");
        assert!(
            goodput_fraction(&r) < 0.8,
            "seed-direct goodput {} should collapse",
            goodput_fraction(&r)
        );
    }

    #[test]
    fn e18_is_deterministic() {
        for mode in [ProxyMode::Buffered, ProxyMode::None] {
            assert_eq!(storm(mode), storm(mode), "mode {mode:?} replay diverged");
        }
    }

    #[test]
    fn deterministic_repeatability() {
        let run = || firehose(&cfg(7), &uniform_shares(7), 100_000.0, ProxyMode::Buffered);
        let (a, b) = (run(), run());
        assert_eq!(a.ingested, b.ingested);
        assert_eq!(a.duration_secs, b.duration_secs);
        assert_eq!(a.timeline, b.timeline);
    }
}
