//! Interleaving-explorer acceptance tests for the replication protocol
//! model: the faithful model must pass its full bounded crash/drop space,
//! each seeded mutant must be caught with a concrete schedule, and the
//! deduplicating explorer must agree with the naive DFS's verdicts.

use pga_analyze::interleave::replication::{ReplMutant, ReplicationModel};
use pga_analyze::interleave::{explore, explore_dedup, Outcome, SpaceOutcome};

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
