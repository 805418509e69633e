//! E18 — the buffering proxy under storm load.
//!
//! Two halves, both deterministic:
//!
//! 1. **Calibrated storm model** ([`pga_cluster::simulate_ingestion`], the
//!    same queueing loop as E1/E2/E6/E7/E12): a source at 3× calibrated
//!    capacity for 30 s against a 5-node cluster whose node 0 serves at
//!    quarter speed, once through the buffering reverse proxy and once
//!    with producers writing to the servers directly. The buffered arm
//!    must keep goodput ≥ 80% of calibrated capacity with no sample lost
//!    and no server crashed; its price is a backlog that drains long
//!    after the storm. The direct arm shows §III-B's collapse: servers
//!    crash and samples vanish silently.
//! 2. **Live-stack storm campaign** ([`pga_faultsim::run_storm_campaign`]):
//!    seeded schedules with guaranteed storms and slow-server windows
//!    against the real storage stack, checked by the batch-accounting and
//!    no-acked-loss oracles — every submitted batch resolves to an ack or
//!    a typed error, never silence.

use pga_cluster::{simulate_ingestion, uniform_shares, IngestReport, ProxyMode, SimClusterConfig};
use pga_faultsim::{run_storm_campaign, CampaignConfig, SimStats};
use serde::Serialize;

/// Goodput floor the buffered arm must clear, as a fraction of
/// calibrated (all-healthy) cluster capacity.
pub const GOODPUT_FLOOR: f64 = 0.8;

/// Region servers in the storm cluster.
const NODES: usize = 5;
/// Offered load as a multiple of calibrated capacity.
const OVERLOAD_FACTOR: f64 = 3.0;
/// Seconds the source offers load; the run continues until the backlog
/// drains.
const STORM_SECS: f64 = 30.0;
/// Node 0's service rate as a fraction of a healthy node's.
const SLOW_SPEED: f64 = 0.25;

/// E18 artifact: the two model arms plus the live-stack storm verdict.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadStormReport {
    /// Storm through the buffering reverse proxy (the paper's remedy).
    pub buffered: IngestReport,
    /// Storm written to the servers directly (the §III-B crash mode).
    pub direct: IngestReport,
    /// `goodput_fraction(&buffered) >= GOODPUT_FLOOR`.
    pub goodput_target_met: bool,
    /// Live-stack storm campaign seeds executed.
    pub storm_seeds_run: u64,
    /// `true` when every storm-campaign oracle held on every seed.
    pub storm_campaign_passed: bool,
    /// Shrunk replay command lines for failing storm seeds (empty when
    /// passed).
    pub storm_failures: Vec<String>,
    /// Injection totals over the storm campaign.
    pub storm_totals: SimStats,
}

impl OverloadStormReport {
    /// Overall E18 verdict: the buffered arm clears the goodput floor
    /// with nothing lost and nothing crashed, the direct arm crashes, and
    /// every storm-campaign oracle held.
    pub fn passed(&self) -> bool {
        self.goodput_target_met
            && self.storm_campaign_passed
            && self.buffered.conserves_samples()
            && self.buffered.dropped == 0.0
            && self.buffered.crashes == 0
            && self.direct.crashes > 0
    }
}

/// Goodput during the storm as a fraction of the all-healthy cluster's
/// calibrated capacity.
pub fn goodput_fraction(r: &IngestReport) -> f64 {
    r.goodput() / (NODES as f64 * SimClusterConfig::paper_calibration(NODES).effective_rate())
}

/// Run the calibrated storm through one stack.
fn storm(proxy: ProxyMode) -> IngestReport {
    let cluster = SimClusterConfig::paper_calibration(NODES);
    let rate = OVERLOAD_FACTOR * NODES as f64 * cluster.effective_rate();
    let mut speeds = vec![1.0; NODES];
    speeds[0] = SLOW_SPEED;
    simulate_ingestion(
        &cluster,
        &uniform_shares(NODES),
        &speeds,
        rate * STORM_SECS,
        rate,
        proxy,
    )
}

/// Run E18: the calibrated storm model through both stacks plus a
/// `storm_seeds`-seed live-stack storm campaign.
pub fn overload_storm_experiment(storm_seeds: u64) -> OverloadStormReport {
    let buffered = storm(ProxyMode::Buffered);
    let direct = storm(ProxyMode::None);
    let campaign = run_storm_campaign(&CampaignConfig {
        seeds: storm_seeds,
        ..CampaignConfig::default()
    });
    OverloadStormReport {
        goodput_target_met: goodput_fraction(&buffered) >= GOODPUT_FLOOR,
        buffered,
        direct,
        storm_seeds_run: campaign.seeds_run,
        storm_campaign_passed: campaign.passed(),
        storm_failures: campaign.failures.iter().map(|f| f.replay.clone()).collect(),
        storm_totals: campaign.totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_holds_in_quick_mode() {
        let rep = overload_storm_experiment(4);
        assert!(
            rep.passed(),
            "overload verdict failed: goodput {} campaign {:?}",
            goodput_fraction(&rep.buffered),
            rep.storm_failures
        );
        // The buffered arm's backlog outlasts the storm; the direct arm
        // loses samples silently.
        assert!(rep.buffered.drain_secs() > STORM_SECS);
        assert!(rep.direct.dropped > 0.0);
        // The live stack actually saw storms and Busy traffic.
        assert!(rep.storm_totals.storms >= 4);
        assert!(rep.storm_totals.busy_rejections > 0);
        assert_eq!(
            rep.storm_totals.batches_generated,
            rep.storm_totals.batches_acked
        );
    }

    #[test]
    fn e18_is_deterministic() {
        let a = overload_storm_experiment(2);
        let b = overload_storm_experiment(2);
        assert_eq!(a.buffered, b.buffered);
        assert_eq!(a.direct, b.direct);
        assert_eq!(a.storm_totals, b.storm_totals);
        assert_eq!(a.passed(), b.passed());
    }
}
