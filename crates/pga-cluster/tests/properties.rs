//! Property tests for the queueing simulator: conservation laws and
//! monotonicity that must hold for any workload and cluster shape.

use proptest::prelude::*;

use pga_cluster::sim::{
    hotspot_shares, simulate_ingestion, uniform_shares, IngestReport, ProxyMode, SimClusterConfig,
};

fn config(nodes: usize) -> SimClusterConfig {
    SimClusterConfig::paper_calibration(nodes)
}

/// A firehose through `nodes` healthy servers.
fn firehose(nodes: usize, shares: &[f64], samples: f64) -> IngestReport {
    simulate_ingestion(
        &config(nodes),
        shares,
        &vec![1.0; nodes],
        samples,
        f64::INFINITY,
        ProxyMode::Buffered,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn samples_are_conserved(
        nodes in 1usize..20,
        samples in 1_000.0f64..500_000.0,
        rate_exp in 3.0f64..7.0,
        buffered in any::<bool>(),
        speeds in proptest::collection::vec(0.05f64..1.0, 20),
        max_steps in 1u64..400,
    ) {
        let mode = if buffered { ProxyMode::Buffered } else { ProxyMode::None };
        let offered_rate = 10f64.powf(rate_exp);
        // Random per-node speeds (down to a 20× slow node) and a step cap
        // short enough that some runs stop with work still in flight.
        let mut c = config(nodes);
        c.max_steps = max_steps;
        let r = simulate_ingestion(&c, &uniform_shares(nodes), &speeds[..nodes], samples, offered_rate, mode);
        // Every offered sample is ingested, dropped or still in flight.
        prop_assert!((r.ingested + r.dropped + r.backlog_end - r.offered).abs() < 1.0,
            "conservation: {} + {} + {} vs {}", r.ingested, r.dropped, r.backlog_end, r.offered);
        prop_assert!(r.conserves_samples());
        prop_assert!(r.offered <= samples);
        // Per-server accounting matches the totals.
        let processed: f64 = r.servers.iter().map(|s| s.processed).sum();
        let dropped: f64 = r.servers.iter().map(|s| s.dropped).sum();
        prop_assert!((processed - r.ingested).abs() < 1.0);
        prop_assert!((dropped - r.dropped).abs() < 1.0);
    }

    #[test]
    fn buffered_mode_never_drops_or_crashes(
        nodes in 1usize..16,
        samples in 1_000.0f64..300_000.0,
    ) {
        let r = firehose(nodes, &uniform_shares(nodes), samples);
        prop_assert_eq!(r.dropped, 0.0);
        prop_assert_eq!(r.crashes, 0);
        prop_assert!((r.ingested - samples).abs() < 1.0);
    }

    #[test]
    fn throughput_monotone_in_nodes(
        base in 2usize..10,
        samples in 100_000.0f64..400_000.0,
    ) {
        let t1 = firehose(base, &uniform_shares(base), samples).throughput();
        let t2 = firehose(base * 2, &uniform_shares(base * 2), samples).throughput();
        prop_assert!(t2 > t1, "doubling nodes must raise throughput: {t1} vs {t2}");
    }

    #[test]
    fn hotspot_never_beats_uniform(
        nodes in 2usize..20,
        hot in 0.5f64..1.0,
        samples in 50_000.0f64..300_000.0,
    ) {
        let uni = firehose(nodes, &uniform_shares(nodes), samples);
        let hot_r = firehose(nodes, &hotspot_shares(nodes, hot), samples);
        prop_assert!(hot_r.throughput() <= uni.throughput() * 1.01,
            "hotspot {} vs uniform {}", hot_r.throughput(), uni.throughput());
        prop_assert!(hot_r.max_server_share() >= uni.max_server_share() - 1e-9);
    }

    #[test]
    fn timeline_is_monotone_nondecreasing(
        nodes in 1usize..12,
        samples in 10_000.0f64..200_000.0,
    ) {
        let r = firehose(nodes, &uniform_shares(nodes), samples);
        for w in r.timeline.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
            prop_assert!(w[1].1 >= w[0].1 - 1e-9);
        }
        if let Some(last) = r.timeline.last() {
            prop_assert!((last.1 - r.ingested).abs() < 1.0);
        }
    }

    #[test]
    fn deterministic_for_same_inputs(
        nodes in 1usize..10,
        samples in 1_000.0f64..100_000.0,
    ) {
        let a = firehose(nodes, &uniform_shares(nodes), samples);
        let b = firehose(nodes, &uniform_shares(nodes), samples);
        prop_assert_eq!(a.ingested, b.ingested);
        prop_assert_eq!(a.duration_secs, b.duration_secs);
        prop_assert_eq!(a.crashes, b.crashes);
    }
}
