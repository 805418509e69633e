//! Seeded protocol-bug mutants and the harness's own acceptance tests.
//!
//! Each mutant re-introduces a classic distributed-storage bug through
//! the `pga-minibase` fault hooks; the campaign must detect every one of
//! them within a bounded seed budget, while the faithful stack must
//! survive the same schedules with zero violations.

use std::sync::Arc;

use pga_cluster::NodeId;
use pga_minibase::{FaultHandle, FaultPlane, RegionId};

use crate::campaign::{run_campaign, run_corruption_campaign, run_storm_campaign, CampaignConfig};
use crate::plane::SimFaultPlane;
use crate::schedule::{
    generate, generate_corrupt, generate_repl, parse_schedule, GeneratorConfig, Schedule,
};
use crate::sim::{run_inner, run_with_baseline, SimConfig, SimOutcome, Violation};

/// The seeded bugs.
#[derive(Debug, Clone, Copy)]
enum Mutant {
    /// Acks a put without appending to the WAL: a crash loses acked data.
    AckBeforeWalAppend,
    /// Crash recovery forgets to replay the unflushed WAL tail.
    ReplaySkipsTail,
    /// Migration ships store files but drops the memstore.
    MigrationDropsMemstore,
    /// A follower applies shipped batches without the WAL contiguity
    /// check: a lost ship leaves a silent hole, yet the follower reports
    /// the highest applied sequence and would win promotion over replicas
    /// that actually hold every acked write.
    GapTolerantFollower,
    /// The sealing compactor, re-sealing a row that already holds a
    /// block, keeps the block and drops the raw cells that landed after
    /// the first seal — acked late writes silently vanish at the next
    /// compaction.
    CompactionDropsMutableTail,
    /// The scrubber installs a fetched repair payload without re-
    /// verifying its checksum: anything corrupted between fetch and
    /// install is laundered onto every copy as a "repair", and the stack
    /// looks healthy again (quarantine cleared) while serving garbage.
    NoReverifyRepair,
    /// A follower flips a bit of a value in every batch shipped to it:
    /// its copy holds every key the primary does, so only an oracle that
    /// compares values sees it.
    FollowerFlipsValue,
}

/// Wraps the faithful sim plane, delegating injection hooks and breaking
/// exactly one protocol point.
#[derive(Debug)]
struct MutantPlane {
    inner: Arc<SimFaultPlane>,
    mutant: Mutant,
}

impl FaultPlane for MutantPlane {
    fn skip_wal_append(&self, _region: RegionId) -> bool {
        matches!(self.mutant, Mutant::AckBeforeWalAppend)
    }

    fn skip_crash_replay(&self, _region: RegionId) -> bool {
        matches!(self.mutant, Mutant::ReplaySkipsTail)
    }

    fn drop_memstore_on_move(&self, _region: RegionId) -> bool {
        matches!(self.mutant, Mutant::MigrationDropsMemstore)
    }

    fn allow_ship_gap(&self, _region: RegionId) -> bool {
        matches!(self.mutant, Mutant::GapTolerantFollower)
    }

    fn drop_sealed_overlap(&self, _region: RegionId) -> bool {
        matches!(self.mutant, Mutant::CompactionDropsMutableTail)
    }

    fn skip_repair_verify(&self, _region: RegionId) -> bool {
        matches!(self.mutant, Mutant::NoReverifyRepair)
    }

    fn flip_shipped_value(&self, _region: RegionId) -> bool {
        matches!(self.mutant, Mutant::FollowerFlipsValue)
    }

    fn tear_wal(&self, region: RegionId, encoded: &mut Vec<u8>) {
        self.inner.tear_wal(region, encoded)
    }

    fn skew_ms(&self, node: NodeId, now_ms: u64) -> u64 {
        self.inner.skew_ms(node, now_ms)
    }

    fn drop_ship(&self, region: RegionId) -> bool {
        self.inner.drop_ship(region)
    }

    fn scribble_repair(&self, region: RegionId, value: &mut Vec<u8>) {
        self.inner.scribble_repair(region, value)
    }

    fn observe_repair_install(&self, region: RegionId, value: &[u8]) {
        self.inner.observe_repair_install(region, value)
    }
}

fn test_sim() -> SimConfig {
    SimConfig {
        steps: 24,
        batch_per_step: 3,
        ..SimConfig::default()
    }
}

fn run_with_mutant_gen(
    seed: u64,
    mutant: Mutant,
    config: &SimConfig,
    gen: &dyn Fn(u64, &GeneratorConfig) -> Schedule,
) -> SimOutcome {
    let gen_cfg = GeneratorConfig {
        nodes: config.nodes as u32,
        steps: config.steps,
        max_ops: 6,
        lease_ms: config.lease_ms,
    };
    let schedule = gen(seed, &gen_cfg);
    run_inner(seed, &schedule, config, &move |plane| {
        let handle: FaultHandle = Arc::new(MutantPlane {
            inner: plane,
            mutant,
        });
        handle
    })
}

fn run_with_mutant(seed: u64, mutant: Mutant, config: &SimConfig) -> SimOutcome {
    run_with_mutant_gen(seed, mutant, config, &generate)
}

/// Each mutant must be caught within this many generated seeds.
const SEED_BUDGET: u64 = 24;

fn detect(mutant: Mutant) -> Option<(u64, SimOutcome)> {
    let config = test_sim();
    (0..SEED_BUDGET)
        .map(|seed| (seed, run_with_mutant(seed, mutant, &config)))
        .find(|(_, outcome)| !outcome.violations.is_empty())
}

/// Replicated sim shape for the mutant-D budget: RF=3 over four nodes, so
/// a dropped ship still quorum-commits through the other follower and the
/// hole survives to the post-drain oracle instead of forcing a retry that
/// re-carries the lost cells.
fn repl_sim() -> SimConfig {
    SimConfig {
        nodes: 4,
        replication_factor: 3,
        ..test_sim()
    }
}

#[test]
fn mutant_ack_before_wal_append_is_detected_within_budget() {
    let (seed, outcome) = detect(Mutant::AckBeforeWalAppend).expect("mutant A never detected");
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| matches!(v, Violation::AckedDataLost { .. })),
        "seed {seed}: expected acked-data loss, got {:?}",
        outcome.violations
    );
}

#[test]
fn mutant_replay_skipping_tail_is_detected_within_budget() {
    let (seed, outcome) = detect(Mutant::ReplaySkipsTail).expect("mutant B never detected");
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| matches!(v, Violation::AckedDataLost { .. })),
        "seed {seed}: expected acked-data loss, got {:?}",
        outcome.violations
    );
}

#[test]
fn mutant_migration_dropping_memstore_is_detected_within_budget() {
    let (seed, outcome) = detect(Mutant::MigrationDropsMemstore).expect("mutant C never detected");
    assert!(
        outcome.violations.iter().any(|v| matches!(
            v,
            Violation::AckedDataLost { .. } | Violation::ScanMismatch { .. }
        )),
        "seed {seed}: expected data loss after migration, got {:?}",
        outcome.violations
    );
}

#[test]
fn mutant_gap_tolerant_follower_is_detected_within_budget() {
    let config = repl_sim();
    let found = (0..SEED_BUDGET)
        .map(|seed| {
            (
                seed,
                run_with_mutant_gen(seed, Mutant::GapTolerantFollower, &config, &generate_repl),
            )
        })
        .find(|(_, outcome)| {
            outcome
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ReplicaDiverged { .. }))
        });
    let (seed, outcome) = found.expect("mutant D never detected");
    assert!(
        outcome.stats.ship_drops > 0,
        "seed {seed}: detection must come from an in-transit ship loss"
    );
}

#[test]
fn mutant_follower_flipping_a_shipped_value_is_detected_within_budget() {
    let config = repl_sim();
    let found = (0..SEED_BUDGET).find_map(|seed| {
        let outcome =
            run_with_mutant_gen(seed, Mutant::FollowerFlipsValue, &config, &generate_repl);
        outcome.violations.into_iter().find(
            |v| matches!(v, Violation::ReplicaDiverged { detail, .. } if detail.contains("value")),
        )
    });
    found.expect("mutant G never detected: a follower's values went unchecked");
}

/// Block-sealing sim shape for the mutant-E budget: compactions run every
/// few steps and the workload writes a slice of timestamps late, so every
/// re-seal faces raw cells overlapping an existing block.
fn block_sim() -> SimConfig {
    SimConfig {
        block_compaction: true,
        ..test_sim()
    }
}

#[test]
fn mutant_compaction_dropping_mutable_tail_is_detected_within_budget() {
    let config = block_sim();
    let found = (0..SEED_BUDGET)
        .map(|seed| {
            (
                seed,
                run_with_mutant_gen(seed, Mutant::CompactionDropsMutableTail, &config, &generate),
            )
        })
        .find(|(_, outcome)| !outcome.violations.is_empty());
    let (seed, outcome) = found.expect("mutant E never detected");
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| matches!(v, Violation::AckedDataLost { .. })),
        "seed {seed}: expected acked late writes to vanish, got {:?}",
        outcome.violations
    );
    assert!(
        outcome.stats.late_fills > 0,
        "seed {seed}: detection must come from a late mutable-tail write"
    );
}

/// Replicated block-sealing sim shape for the mutant-F budget: factor 2
/// over three nodes so every corrupted primary block has one healthy
/// follower copy for the scrubber to repair from, and block compaction
/// on so sealed blocks exist to corrupt.
fn corrupt_sim() -> SimConfig {
    SimConfig {
        replication_factor: 2,
        block_compaction: true,
        ..test_sim()
    }
}

#[test]
fn mutant_unverified_repair_install_is_detected_within_budget() {
    let config = corrupt_sim();
    let found = (0..SEED_BUDGET)
        .map(|seed| {
            (
                seed,
                run_with_mutant_gen(seed, Mutant::NoReverifyRepair, &config, &generate_corrupt),
            )
        })
        .find(|(_, outcome)| {
            outcome
                .violations
                .iter()
                .any(|v| matches!(v, Violation::UnverifiedRepairInstall { .. }))
        });
    let (seed, outcome) = found.expect("mutant F never detected");
    assert!(
        outcome.stats.repair_scribbles > 0,
        "seed {seed}: detection must come from a repair scribbled in flight, stats: {:?}",
        outcome.stats
    );
}

/// The faithful scrubber survives the exact campaign shape used to
/// corner mutant F: every seed corrupts primary blocks and scribbles
/// repair fetches in flight, yet the pre-install checksum round-trip
/// rejects tampered payloads, the quarantine converges from healthy
/// follower copies, and no oracle — including no-silent-wrong-answers
/// against the baseline — fires.
#[test]
fn faithful_stack_self_heals_a_corruption_campaign() {
    let report = run_corruption_campaign(&CampaignConfig {
        seeds: 6,
        sim: corrupt_sim(),
        ..CampaignConfig::default()
    });
    assert!(
        report.passed(),
        "faithful scrubber violated oracles: {:?}",
        report.failures
    );
    assert!(
        report.totals.corrupt_ops > 0,
        "campaign never corrupted a sealed block: {:?}",
        report.totals
    );
    assert!(
        report.totals.scrub_repairs > 0,
        "campaign never repaired from a replica: {:?}",
        report.totals
    );
    assert!(
        report.totals.scrub_rejected > 0,
        "no scribbled repair payload was ever rejected pre-install: {:?}",
        report.totals
    );
}

/// The faithful sealing compactor survives the exact sim shape used to
/// corner mutant E: every late fill is merged into the re-sealed block
/// (raw wins ties), so no acked write is ever lost to compaction.
#[test]
fn faithful_stack_survives_block_compaction_campaign() {
    let report = run_campaign(&CampaignConfig {
        seeds: 6,
        sim: block_sim(),
        ..CampaignConfig::default()
    });
    assert!(
        report.passed(),
        "faithful sealing compactor violated oracles: {:?}",
        report.failures
    );
    assert!(
        report.totals.compactions > 0,
        "campaign never compacted: {:?}",
        report.totals
    );
    assert!(
        report.totals.late_fills > 0,
        "campaign never exercised the mutable-tail overlap: {:?}",
        report.totals
    );
}

/// The faithful stack survives the exact schedules used to corner mutant
/// D: lost ships are refused as gaps and backfilled, so no replica ever
/// diverges. Node-death-only fault sets cannot make this distinction —
/// the follower must stay live while its ship is lost.
#[test]
fn faithful_replicated_stack_survives_ship_drop_schedules() {
    let config = repl_sim();
    let gen_cfg = GeneratorConfig {
        nodes: config.nodes as u32,
        steps: config.steps,
        max_ops: 6,
        lease_ms: config.lease_ms,
    };
    let mut drops = 0;
    for seed in 0..6u64 {
        let schedule = generate_repl(seed, &gen_cfg);
        let outcome = crate::sim::run(seed, &schedule, &config);
        assert_eq!(
            outcome.violations,
            vec![],
            "seed {seed} events: {:#?}",
            outcome.events
        );
        drops += outcome.stats.ship_drops;
    }
    assert!(drops > 0, "no seed actually lost a ship in transit");
}

#[test]
fn faithful_stack_survives_a_generated_campaign() {
    let report = run_campaign(&CampaignConfig {
        seeds: 6,
        sim: test_sim(),
        ..CampaignConfig::default()
    });
    assert!(
        report.passed(),
        "faithful stack violated oracles: {:?}",
        report.failures
    );
    assert!(
        report.totals.faults_injected() > 0,
        "campaign injected no faults: {:?}",
        report.totals
    );
    assert!(report.totals.batches_acked > 0);
}

#[test]
fn faithful_stack_survives_a_storm_campaign() {
    let report = run_storm_campaign(&CampaignConfig {
        seeds: 6,
        sim: test_sim(),
        ..CampaignConfig::default()
    });
    assert!(
        report.passed(),
        "faithful stack violated overload oracles: {:?}",
        report.failures
    );
    // Every seed carried a storm and a slow-server window; the Busy path
    // must actually have fired and every batch must have resolved.
    assert!(report.totals.storms >= 6, "storms: {:?}", report.totals);
    assert!(report.totals.slow_faults >= 6);
    assert!(
        report.totals.busy_rejections > 0,
        "slow servers never rejected anything: {:?}",
        report.totals
    );
    assert_eq!(
        report.totals.batches_generated, report.totals.batches_acked,
        "a clean storm campaign acks every generated batch"
    );
}

#[test]
fn handcrafted_storm_and_slow_server_resolve_every_batch() {
    let schedule = parse_schedule("3:storm:3:4,5:slow:1:5,8:slow:0:3").unwrap();
    let config = test_sim();
    let outcome = run_with_baseline(7, &schedule, &config);
    assert_eq!(
        outcome.violations,
        Vec::new(),
        "events: {:?}",
        outcome.events
    );
    assert_eq!(outcome.stats.storms, 1);
    assert_eq!(outcome.stats.slow_faults, 2);
    assert!(outcome.stats.busy_rejections > 0);
    assert_eq!(outcome.stats.batches_generated, outcome.stats.batches_acked);
    // The storm multiplied offered load: more samples acked than the
    // stormless shape would produce.
    assert!(
        outcome.stats.samples_acked > (config.steps * config.batch_per_step as u32) as u64,
        "storm should inflate offered load: {:?}",
        outcome.stats
    );
}

/// Regression: campaign seed 252 shrank to this trace. A torn-WAL crash
/// plus a plain crash leave exactly one live node, and that node sits
/// inside a slow window — with per-workload-step wind-down the window no
/// longer expires mid-retry-storm, so unconditional Busy re-routing
/// starved the batch to `WriteNeverAcked`. The driver must fall through
/// and forward to the slow node when no healthy alternative exists.
#[test]
fn slow_window_on_the_last_live_node_does_not_starve_writes() {
    let schedule = parse_schedule("17:crash:2,1:tear:0,13:slow:1:5").unwrap();
    let config = test_sim();
    let outcome = run_with_baseline(252, &schedule, &config);
    assert_eq!(
        outcome.violations,
        Vec::new(),
        "events: {:?}",
        outcome.events
    );
    assert_eq!(outcome.stats.batches_generated, outcome.stats.batches_acked);
}

#[test]
fn handcrafted_schedule_exercises_every_injector_without_violations() {
    let schedule =
        parse_schedule("2:tear:1,4:drop:2,6:split:3,8:move:2:0,10:part:2:3,12:skew:0:25000")
            .unwrap();
    let config = test_sim();
    let outcome = run_with_baseline(99, &schedule, &config);
    assert_eq!(
        outcome.violations,
        Vec::new(),
        "events: {:?}",
        outcome.events
    );
    assert_eq!(outcome.stats.crashes, 1, "torn crash counts as a crash");
    assert_eq!(outcome.stats.torn_crashes, 1);
    assert_eq!(outcome.stats.rpc_drops, 2);
    assert!(
        outcome.events.iter().any(|e| e.contains("tear region=")),
        "torn tail should fire during recovery: {:?}",
        outcome.events
    );
    // Recovery decoded every torn image it replayed as torn.
    let tears = outcome.events.iter().filter(|e| e.contains("tear region="));
    assert_eq!(outcome.stats.torn_replays, tears.count() as u64);
    assert!(
        outcome.stats.reassigned > 0,
        "crash must trigger reassignment"
    );
}

#[test]
fn replaying_a_seed_and_schedule_is_byte_for_byte_identical() {
    let config = test_sim();
    let gen_cfg = GeneratorConfig {
        nodes: config.nodes as u32,
        steps: config.steps,
        max_ops: 6,
        lease_ms: config.lease_ms,
    };
    for seed in [3u64, 11, 17] {
        let schedule = generate(seed, &gen_cfg);
        let first = run_with_baseline(seed, &schedule, &config);
        let second = run_with_baseline(seed, &schedule, &config);
        assert_eq!(first, second, "seed {seed} replay diverged");
    }
}
