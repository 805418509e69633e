//! E20 — failover availability and scan tail latency under replication.
//!
//! Two halves, both deterministic:
//!
//! * **Durability campaigns** — full `pga-faultsim` crash/partition
//!   campaigns at RF=2 and RF=3: quorum-acked writes must survive
//!   primary crashes through follower promotion, replicas must never
//!   diverge, and a deposed primary must never double-ack (epoch
//!   fencing). Zero tolerated failures.
//!
//! * **Availability probe** — a measured timeline in *simulated*
//!   milliseconds. A cluster per replication factor takes a primary
//!   crash at t=0; scan probes issued on a fixed cadence record when the
//!   full acked dataset becomes readable again and what each scan cost.
//!   At RF=1 the data is unreadable until the coordinator lease expires
//!   and WAL recovery reassigns the region (~`LEASE_MS`); at RF≥2 a
//!   hedged scan answers from a follower copy after `HEDGE_DELAY_MS`,
//!   so unavailability collapses from the lease timescale to the hedge
//!   timescale — the paper-level claim this experiment quantifies.

use pga_cluster::coordinator::Coordinator;
use pga_cluster::rpc::default_clock_ms;
use pga_faultsim::{run_campaign, CampaignConfig, SimConfig};
use pga_minibase::{
    Client, KeyValue, Master, RegionConfig, RowRange, ServerConfig, TableDescriptor,
};
use serde::Serialize;

use crate::table::{render_table, row};

/// Coordinator lease in the availability probe (simulated ms). Matches
/// the fault simulator's default: single-copy recovery cannot begin
/// before this much silence.
pub const LEASE_MS: u64 = 10_000;

/// Hedge trigger in the availability probe (simulated ms): a replicated
/// scan falls back to a follower copy after the primary has been silent
/// this long.
pub const HEDGE_DELAY_MS: u64 = 40;

/// Probe cadence (simulated ms between scan attempts).
const PROBE_MS: u64 = 50;

/// Probe window (simulated ms) — covers the whole RF=1 outage plus the
/// recovered steady state, so tail percentiles see both regimes.
const WINDOW_MS: u64 = 12_000;

/// Acceptance bar: replicated scan unavailability must beat single-copy
/// lease recovery by at least this factor.
pub const AVAILABILITY_BAR: f64 = 10.0;

/// One replication factor's measured availability timeline.
#[derive(Debug, Clone, Serialize)]
pub struct AvailabilityRow {
    /// Copies per region.
    pub factor: usize,
    /// Simulated ms from primary crash until a scan returned the full
    /// acked dataset (including the answering scan's own latency).
    pub unavailability_ms: u64,
    /// Median scan latency over the probe window (simulated ms).
    pub scan_p50_ms: u64,
    /// 99th-percentile scan latency over the probe window (simulated ms).
    pub scan_p99_ms: u64,
    /// Scans served by hedging to a follower copy.
    pub hedged_scans: u64,
    /// Follower promotions performed by the master during the window.
    pub failovers: u64,
}

/// One durability campaign's verdict.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignSummary {
    /// Copies per region.
    pub factor: usize,
    /// Seeds executed.
    pub seeds_run: u64,
    /// `true` when every oracle held on every seed — in particular, no
    /// quorum-acked write was lost across any promotion.
    pub passed: bool,
    /// Shrunk replay command lines for failing seeds (empty when passed).
    pub failures: Vec<String>,
    /// Primary failovers performed across all seeds.
    pub failovers: u64,
    /// Follower copies compared cell-for-cell against their primaries.
    pub replica_checks: u64,
    /// Epoch-fenced replication RPCs (deposed writers denied a vote).
    pub fence_rejections: u64,
}

/// E20 artifact.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverReport {
    /// Durability campaigns (RF=2 then RF=3).
    pub campaigns: Vec<CampaignSummary>,
    /// Availability timeline per factor (RF=1, 2, 3).
    pub availability: Vec<AvailabilityRow>,
    /// RF=1 unavailability divided by the worst replicated one.
    pub availability_speedup: f64,
}

impl FailoverReport {
    /// `true` when both campaigns were clean and the availability bar
    /// held.
    pub fn passed(&self) -> bool {
        self.campaigns.iter().all(|c| c.passed) && self.availability_speedup >= AVAILABILITY_BAR
    }

    /// The two E20 tables and the measured speedup (no verdict line).
    pub fn render(&self) -> String {
        let mut campaigns = vec![row(
            "RF|seeds|acked loss|failovers|replica checks|fence rejections",
        )];
        for c in &self.campaigns {
            campaigns.push(vec![
                c.factor.to_string(),
                c.seeds_run.to_string(),
                if c.passed {
                    "0".to_string()
                } else {
                    format!("{} FAILING SEEDS", c.failures.len())
                },
                c.failovers.to_string(),
                c.replica_checks.to_string(),
                c.fence_rejections.to_string(),
            ]);
        }
        let mut availability = vec![row(
            "RF|unavailability (sim ms)|scan p50 (ms)|scan p99 (ms)|hedged scans",
        )];
        for r in &self.availability {
            availability.push(vec![
                r.factor.to_string(),
                r.unavailability_ms.to_string(),
                r.scan_p50_ms.to_string(),
                r.scan_p99_ms.to_string(),
                r.hedged_scans.to_string(),
            ]);
        }
        format!(
            "{}\n{}\nreplicated scans recover {:.0}x faster than single-copy lease recovery \
             (bar: {AVAILABILITY_BAR}x)",
            render_table(&campaigns),
            render_table(&availability),
            self.availability_speedup
        )
    }
}

fn campaign(factor: usize, nodes: usize, seeds: u64, start_seed: u64) -> CampaignSummary {
    let report = run_campaign(&CampaignConfig {
        seeds,
        start_seed,
        sim: SimConfig {
            nodes,
            replication_factor: factor,
            ..SimConfig::default()
        },
        ..CampaignConfig::default()
    });
    CampaignSummary {
        factor,
        seeds_run: report.seeds_run,
        passed: report.passed(),
        failures: report.failures.iter().map(|f| f.replay.clone()).collect(),
        failovers: report.totals.failovers,
        replica_checks: report.totals.replica_checks,
        fence_rejections: report.totals.fence_rejections,
    }
}

/// Measure one factor's scan availability through a primary crash at
/// t=0. Entirely in simulated time: survivor heartbeats and the
/// master's liveness sweep advance on the probe cadence, so RF=1
/// recovery lands exactly one lease past the crash while a replicated
/// cluster answers from a follower at the first probe.
fn availability_probe(factor: usize) -> AvailabilityRow {
    let nodes = factor.max(2) + 1;
    let coord = Coordinator::new(LEASE_MS);
    let mut master = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
    master.create_replicated_table(
        &TableDescriptor {
            name: "t".into(),
            split_points: vec![b"h".to_vec().into(), b"q".to_vec().into()],
            region_config: RegionConfig::default(),
        },
        factor,
    );
    let client = Client::connect(&master);
    let rows = 60usize;
    // Spread rows across all three regions (split points "h" and "q") so
    // the crashed region holds real acked data the probe must recover.
    let kvs: Vec<KeyValue> = (0..rows)
        .map(|i| {
            let prefix = [b'a', b'k', b't'][i % 3];
            KeyValue::new(
                format!("{}{:03}", prefix as char, i).into_bytes(),
                b"q".to_vec(),
                1,
                b"v".to_vec(),
            )
        })
        .collect();
    client.put(kvs).expect("seed data lands before the crash");

    // Crash the primary of the first region.
    let victim = master.directory().read()[0].server;
    master.server(victim).expect("victim exists").shutdown();

    let mut latencies: Vec<u64> = Vec::new();
    let mut blocked_since: Vec<u64> = Vec::new();
    let mut unavailability = None;
    let mut now = 0u64;
    while now <= WINDOW_MS {
        for node in master.nodes() {
            if node != victim {
                master.heartbeat(node, now);
            }
        }
        master.tick(now);
        let before_hedges = client.repl_book().snapshot().hedged_scans;
        let scanned = if factor > 1 {
            // RPC deadlines are absolute on the servers' shared clock
            // (wall time, unrelated to the probe's simulated `now`); the
            // hedge window is what the latency model charges below.
            let wall = default_clock_ms();
            client.scan_hedged(
                &RowRange::all().into(),
                Some(wall + HEDGE_DELAY_MS),
                Some(wall + HEDGE_DELAY_MS),
            )
        } else {
            client.scan_spec(&RowRange::all().into())
        };
        let complete = matches!(&scanned, Ok(cells) if cells.len() == rows);
        if complete {
            let hedged = client.repl_book().snapshot().hedged_scans > before_hedges;
            let cost = 1 + if hedged { HEDGE_DELAY_MS } else { 0 };
            latencies.push(cost);
            if unavailability.is_none() {
                unavailability = Some(now + cost);
            }
            // Probes that blocked resolve now: their latency is the wait
            // until this moment plus the answering scan's cost.
            for issued in blocked_since.drain(..) {
                latencies.push(now - issued + cost);
            }
        } else {
            blocked_since.push(now);
        }
        now += PROBE_MS;
    }
    // Anything still blocked at window end waited the whole remainder.
    for issued in blocked_since.drain(..) {
        latencies.push(WINDOW_MS - issued);
    }
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let row = AvailabilityRow {
        factor,
        unavailability_ms: unavailability.unwrap_or(WINDOW_MS),
        scan_p50_ms: pct(0.50),
        scan_p99_ms: pct(0.99),
        hedged_scans: client.repl_book().snapshot().hedged_scans,
        failovers: master.failovers(),
    };
    master.shutdown();
    row
}

/// Run E20: durability campaigns at RF=2 and RF=3 (`seeds_per_factor`
/// each) plus the availability timeline at RF=1/2/3. Deterministic.
pub fn failover_experiment(seeds_per_factor: u64) -> FailoverReport {
    let campaigns = vec![
        campaign(2, 3, seeds_per_factor, 0),
        campaign(3, 4, seeds_per_factor, 0),
    ];
    let availability: Vec<AvailabilityRow> = [1usize, 2, 3]
        .iter()
        .map(|&f| availability_probe(f))
        .collect();
    let single = availability[0].unavailability_ms as f64;
    let worst_replicated = availability[1..]
        .iter()
        .map(|r| r.unavailability_ms)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    FailoverReport {
        campaigns,
        availability,
        availability_speedup: single / worst_replicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e20_holds_in_quick_mode() {
        let rep = failover_experiment(6);
        assert!(
            rep.passed(),
            "campaigns: {:?}, speedup {:.1}",
            rep.campaigns
                .iter()
                .map(|c| (c.factor, c.passed, c.failures.clone()))
                .collect::<Vec<_>>(),
            rep.availability_speedup
        );
        // The availability gap is the whole point: lease-timescale
        // recovery at RF=1, hedge-timescale at RF>=2.
        assert!(rep.availability[0].unavailability_ms >= LEASE_MS);
        for row in &rep.availability[1..] {
            assert!(row.unavailability_ms <= 2 * HEDGE_DELAY_MS, "{row:?}");
            assert!(row.scan_p99_ms <= 2 * HEDGE_DELAY_MS, "{row:?}");
            assert!(row.hedged_scans > 0);
        }
        assert!(rep.campaigns.iter().all(|c| c.failovers > 0));
        assert!(rep.campaigns.iter().all(|c| c.replica_checks > 0));
    }

    #[test]
    fn e20_is_deterministic() {
        let a = failover_experiment(3);
        let b = failover_experiment(3);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
