//! Interleaving-explorer acceptance tests: every seeded-bug model variant
//! must be caught with a concrete schedule, every faithful variant must
//! pass all schedules, and the histogram model's bucket math must agree
//! with the real `pga_control::telemetry` implementation it mirrors.
//! The replication protocol model gets the same treatment — the faithful
//! model must pass its full bounded crash/drop space and each seeded
//! mutant must be caught — plus a regression pinning the deduplicating
//! explorer to the naive DFS's verdicts.

use pga_analyze::interleave::models::{
    bucket_index, HistogramModel, LeaseMigrationModel, RegistryCounterModel,
};
use pga_analyze::interleave::replication::{ReplMutant, ReplicationModel};
use pga_analyze::interleave::{explore, explore_dedup, Outcome, SpaceOutcome};

#[test]
fn histogram_real_protocol_passes_every_schedule() {
    match explore(&HistogramModel { seeded_bug: false }) {
        Outcome::Pass { schedules } => assert!(schedules > 100, "only {schedules} schedules"),
        other => panic!("real histogram protocol failed: {other:?}"),
    }
}

#[test]
fn histogram_inverted_publish_order_is_caught() {
    match explore(&HistogramModel { seeded_bug: true }) {
        Outcome::Violation { schedule, message } => {
            assert!(!schedule.is_empty());
            assert!(
                message.contains("snapshot counted"),
                "unexpected diagnostic: {message}"
            );
        }
        other => panic!("seeded histogram bug not caught: {other:?}"),
    }
}

#[test]
fn registry_counter_fetch_add_passes_every_schedule() {
    match explore(&RegistryCounterModel { seeded_bug: false }) {
        Outcome::Pass { schedules } => assert!(schedules > 1),
        other => panic!("real counter protocol failed: {other:?}"),
    }
}

#[test]
fn registry_counter_split_increment_loses_updates() {
    match explore(&RegistryCounterModel { seeded_bug: true }) {
        Outcome::Violation { message, .. } => {
            assert!(message.contains("lost update"), "unexpected: {message}")
        }
        other => panic!("seeded lost update not caught: {other:?}"),
    }
}

#[test]
fn lease_expiry_vs_migration_serialised_passes() {
    match explore(&LeaseMigrationModel { seeded_bug: false }) {
        Outcome::Pass { schedules } => assert!(schedules > 1),
        other => panic!("serialised migration failed: {other:?}"),
    }
}

#[test]
fn lease_expiry_vs_unlocked_migration_races() {
    match explore(&LeaseMigrationModel { seeded_bug: true }) {
        Outcome::Violation { schedule, message } => {
            assert!(!schedule.is_empty());
            assert!(message.contains("dead node"), "unexpected: {message}");
        }
        other => panic!("seeded lease race not caught: {other:?}"),
    }
}

#[test]
fn replication_faithful_passes_full_bounded_space() {
    match explore_dedup(&ReplicationModel::faithful()) {
        SpaceOutcome::Pass { states } => {
            assert!(states > 100, "suspiciously small space: {states} states")
        }
        other => panic!("faithful replication model failed: {other:?}"),
    }
}

#[test]
fn replication_gap_tolerant_follower_is_caught() {
    match explore_dedup(&ReplicationModel::with_mutant(
        ReplMutant::GapTolerantFollower,
    )) {
        SpaceOutcome::Violation { schedule, message } => {
            assert!(!schedule.is_empty());
            assert!(
                message.contains("gapped"),
                "unexpected diagnostic: {message}"
            );
        }
        other => panic!("gap-tolerant follower escaped: {other:?}"),
    }
}

#[test]
fn replication_promotion_without_fencing_is_caught() {
    match explore_dedup(&ReplicationModel::with_mutant(
        ReplMutant::PromotionWithoutFencing,
    )) {
        SpaceOutcome::Violation { schedule, message } => {
            assert!(!schedule.is_empty());
            assert!(
                message.contains("two primaries"),
                "unexpected diagnostic: {message}"
            );
        }
        other => panic!("unfenced promotion escaped: {other:?}"),
    }
}

#[test]
fn replication_quorum_counting_gapped_follower_is_caught() {
    match explore_dedup(&ReplicationModel::with_mutant(
        ReplMutant::QuorumCountsGapped,
    )) {
        SpaceOutcome::Violation { schedule, message } => {
            assert!(!schedule.is_empty());
            assert!(message.contains("lost"), "unexpected diagnostic: {message}");
        }
        other => panic!("gap-blind quorum count escaped: {other:?}"),
    }
}

#[test]
fn dedup_explorer_agrees_with_naive_dfs_on_replication() {
    // Pass-side agreement on the full faithful space. The dedup explorer
    // must also visit orders of magnitude fewer states than the naive
    // DFS runs schedules — that collapse is the whole point of hashing.
    let faithful = ReplicationModel::faithful();
    let Outcome::Pass { schedules } = explore(&faithful) else {
        panic!("naive DFS rejected the faithful model");
    };
    let SpaceOutcome::Pass { states } = explore_dedup(&faithful) else {
        panic!("dedup explorer rejected the faithful model");
    };
    assert!(
        states * 10 < schedules,
        "dedup visited {states} states vs {schedules} naive schedules"
    );

    // Violation-side agreement on every mutant. Witness schedules may
    // differ (dedup prunes revisited states) but the verdict must not.
    for mutant in [
        ReplMutant::GapTolerantFollower,
        ReplMutant::PromotionWithoutFencing,
        ReplMutant::QuorumCountsGapped,
    ] {
        let model = ReplicationModel::with_mutant(mutant);
        assert!(
            matches!(explore(&model), Outcome::Violation { .. }),
            "naive DFS missed mutant {mutant:?}"
        );
        assert!(
            matches!(explore_dedup(&model), SpaceOutcome::Violation { .. }),
            "dedup explorer missed mutant {mutant:?}"
        );
    }
}

#[test]
fn model_bucket_math_matches_real_telemetry() {
    let samples = [
        0u64,
        1,
        2,
        3,
        127,
        128,
        129,
        1 << 20,
        (1 << 31) - 1,
        1 << 31,
        1 << 32,
        u64::MAX,
    ];
    for v in samples {
        assert_eq!(
            bucket_index(v),
            pga_control::telemetry::bucket_index(v),
            "bucket divergence at value {v}"
        );
    }
}
