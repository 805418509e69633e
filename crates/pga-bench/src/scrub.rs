//! E22 — end-to-end corruption resilience on the live storage stack:
//! bit-flipped sealed blocks, replica-backed read salvage, and the
//! background scrub/quarantine/repair loop.
//!
//! The campaign boots a replicated cluster (RF 2), ingests a fleet,
//! seals every copy's history into columnar blocks, captures the
//! ground-truth answers, and then flips bits inside sealed blocks on
//! primary copies. Three arms are measured:
//!
//! * **Before** (`salvage_reads = false`, the pre-salvage behaviour) —
//!   queries touching a corrupt block must fail with a typed
//!   [`pga_tsdb::TsdError::Corrupt`], never return a wrong answer.
//! * **After** (`salvage_reads = true`) — the same queries must return
//!   the exact pre-corruption answers by splicing the healthy replica's
//!   copy over each corrupt block.
//! * **Scrub** — background scrub ticks must drain the quarantine by
//!   re-fetching corrupt spans from healthy replicas (CRC round-trip
//!   before install), after which even the strict no-salvage reader
//!   gets exact answers from the repaired local copies.
//!
//! The acceptance bar is *no wrong answers anywhere*: every query in
//! every arm either matches ground truth byte-for-byte or fails with
//! the typed corruption error.

use std::time::Instant;

use serde::Serialize;

use crate::table::{render_table, row};

use pga_cluster::coordinator::Coordinator;
use pga_minibase::{no_faults, Client, Master, RegionConfig, ServerConfig, TableDescriptor};
use pga_sensorgen::{Fleet, FleetConfig};
use pga_tsdb::{
    is_block_qualifier, BatchPoint, KeyCodec, KeyCodecConfig, QueryFilter, TimeSeries, Tsd,
    TsdConfig, TsdError, UidTable,
};

/// Sizing for [`scrub_resilience_experiment`].
#[derive(Debug, Clone, Serialize)]
pub struct ScrubBenchConfig {
    /// Region-server nodes (must be ≥ 2 for RF 2).
    pub nodes: usize,
    /// Row-key salt buckets.
    pub salt_buckets: u8,
    /// Row span in seconds (sealed block length).
    pub row_span_secs: u64,
    /// Fleet units.
    pub units: u32,
    /// Sensors per unit.
    pub sensors_per_unit: u32,
    /// Seconds of history ingested (everything below the last full row
    /// seals into blocks).
    pub history_secs: u64,
    /// Sealed blocks to bit-flip, each in a different region's primary
    /// copy.
    pub corruptions: usize,
    /// Scrub ticks allowed for the quarantine to drain.
    pub scrub_tick_budget: u32,
    /// Fleet seed.
    pub seed: u64,
}

impl ScrubBenchConfig {
    /// CI-sized configuration (a few seconds end to end).
    pub fn quick() -> Self {
        ScrubBenchConfig {
            nodes: 2,
            salt_buckets: 2,
            row_span_secs: 300,
            units: 3,
            sensors_per_unit: 4,
            history_secs: 1_000,
            corruptions: 2,
            scrub_tick_budget: 4,
            seed: 2026,
        }
    }

    /// Paper-style configuration for the full report.
    pub fn full() -> Self {
        ScrubBenchConfig {
            nodes: 3,
            salt_buckets: 4,
            row_span_secs: 600,
            units: 6,
            sensors_per_unit: 8,
            history_secs: 4_200,
            corruptions: 4,
            scrub_tick_budget: 6,
            seed: 2026,
        }
    }
}

/// One query arm's outcome tally.
#[derive(Debug, Clone, Serialize)]
pub struct ScrubArm {
    /// Arm label (`no-salvage`, `salvage`, `post-scrub-strict`).
    pub label: String,
    /// Per-unit queries issued.
    pub queries: u64,
    /// Queries whose answer matched ground truth byte-for-byte.
    pub exact: u64,
    /// Queries that failed with the typed corruption error.
    pub typed_errors: u64,
    /// Queries that returned a non-exact answer or a non-typed error
    /// (must always be 0 — the no-wrong-answers oracle).
    pub wrong_answers: u64,
}

/// E22 artifact: the three arms plus the scrub-convergence counters.
#[derive(Debug, Clone, Serialize)]
pub struct ScrubBenchReport {
    /// Sizing used.
    pub config: ScrubBenchConfig,
    /// Sealed blocks actually bit-flipped (0 would vacuously pass, so
    /// `passed` requires it positive).
    pub corrupted_blocks: u64,
    /// Strict reader over the corrupted store: typed errors, no wrong
    /// answers.
    pub before: ScrubArm,
    /// Salvaging reader over the corrupted store: exact answers spliced
    /// from the healthy replica.
    pub after: ScrubArm,
    /// Strict reader again after the scrub drained the quarantine: the
    /// local copies themselves are healthy now.
    pub post_scrub: ScrubArm,
    /// Reads answered by splicing a replica's copy (after arm).
    pub salvaged_reads: u64,
    /// Scrub ticks consumed before the quarantine drained.
    pub scrub_ticks: u64,
    /// Blocks repaired from a replica (CRC round-trip passed).
    pub scrub_repairs: u64,
    /// Fetched repair payloads rejected by pre-install verification.
    pub scrub_rejected: u64,
    /// Spans still quarantined when the budget ran out (must be 0).
    pub quarantined_after: u64,
    /// Wall-clock spent in scrub ticks, milliseconds.
    pub scrub_ms: f64,
}

impl ScrubBenchReport {
    /// E22 verdict: corruption was injected and detected, no arm ever
    /// returned a wrong answer, the strict arm saw typed errors before
    /// the scrub and exact answers after it, and the quarantine drained
    /// through verified replica-backed repairs.
    pub fn passed(&self) -> bool {
        self.corrupted_blocks > 0
            && self.before.wrong_answers == 0
            && self.before.typed_errors > 0
            && self.after.wrong_answers == 0
            && self.after.typed_errors == 0
            && self.after.exact == self.after.queries
            && self.post_scrub.wrong_answers == 0
            && self.post_scrub.typed_errors == 0
            && self.post_scrub.exact == self.post_scrub.queries
            && self.scrub_repairs > 0
            && self.quarantined_after == 0
    }

    /// The E22 table and measured summary (no verdict line).
    pub fn render(&self) -> String {
        let arm = |a: &ScrubArm| {
            vec![
                a.label.clone(),
                a.queries.to_string(),
                a.exact.to_string(),
                a.typed_errors.to_string(),
                a.wrong_answers.to_string(),
            ]
        };
        let rows = [
            row("arm|queries|exact|typed errors|wrong answers"),
            arm(&self.before),
            arm(&self.after),
            arm(&self.post_scrub),
        ];
        format!(
            "{}\nscrub: {} blocks corrupted, {} reads salvaged, {} repairs ({} rejected) in {} \
             ticks ({:.1} ms), {} still quarantined",
            render_table(&rows),
            self.corrupted_blocks,
            self.salvaged_reads,
            self.scrub_repairs,
            self.scrub_rejected,
            self.scrub_ticks,
            self.scrub_ms,
            self.quarantined_after
        )
    }
}

/// Byte-for-byte series-set equality.
fn same_answer(a: &[TimeSeries], b: &[TimeSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.tags == y.tags
                && x.points.len() == y.points.len()
                && x.points.iter().zip(&y.points).all(|(p, q)| {
                    p.timestamp == q.timestamp && p.value.to_be_bytes() == q.value.to_be_bytes()
                })
        })
}

/// Run every per-unit query through `tsd` and tally the outcome against
/// ground truth.
fn query_arm(label: &str, tsd: &Tsd, truth: &[Vec<TimeSeries>], end: u64) -> ScrubArm {
    let mut arm = ScrubArm {
        label: label.into(),
        queries: 0,
        exact: 0,
        typed_errors: 0,
        wrong_answers: 0,
    };
    for (unit, expected) in truth.iter().enumerate() {
        arm.queries += 1;
        let filter = QueryFilter::any().with("unit", &unit.to_string());
        match tsd.query("energy", &filter, 0, end) {
            Ok(series) if same_answer(expected, &series) => arm.exact += 1,
            Ok(_) => arm.wrong_answers += 1,
            Err(TsdError::Corrupt(_)) => arm.typed_errors += 1,
            Err(_) => arm.wrong_answers += 1,
        }
    }
    arm
}

/// Run E22 against the real storage stack.
pub fn scrub_resilience_experiment(cfg: &ScrubBenchConfig) -> ScrubBenchReport {
    assert!(cfg.nodes >= 2, "RF 2 needs at least two nodes");
    let codec = KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: cfg.salt_buckets,
            row_span_secs: cfg.row_span_secs,
        },
        UidTable::new(),
    );
    let coord = Coordinator::new(600_000);
    let mut master = Master::bootstrap(cfg.nodes, ServerConfig::default(), coord, 0);
    master.create_replicated_table(
        &TableDescriptor {
            name: "tsdb".into(),
            split_points: codec.split_points(),
            region_config: RegionConfig::default(),
        },
        2,
    );
    // Two daemons over the same storage: the strict one re-creates the
    // pre-salvage behaviour (corrupt block ⇒ typed error), the other is
    // the shipping configuration. Cloning the codec shares the UID
    // table, so both decode the same keys.
    let strict = Tsd::new(
        codec.clone(),
        Client::connect(&master),
        TsdConfig {
            salvage_reads: false,
            ..TsdConfig::default()
        },
    );
    let tsd = Tsd::new(codec, Client::connect(&master), TsdConfig::default());
    master.set_compaction_rewriter(tsd.block_rewriter());

    let fleet = Fleet::new(FleetConfig {
        units: cfg.units,
        sensors_per_unit: cfg.sensors_per_unit,
        ..FleetConfig::paper_scale(cfg.seed)
    });
    for t in 0..cfg.history_secs {
        let samples = fleet.tick(t);
        let tags: Vec<(String, String)> = samples
            .iter()
            .map(|s| (s.unit.to_string(), s.sensor.to_string()))
            .collect();
        let pairs: Vec<[(&str, &str); 2]> = tags
            .iter()
            .map(|(u, s)| [("unit", u.as_str()), ("sensor", s.as_str())])
            .collect();
        let points: Vec<BatchPoint> = samples
            .iter()
            .zip(&pairs)
            .map(|(s, tags)| (&tags[..], s.timestamp, s.value))
            .collect();
        tsd.put_batch("energy", &points).expect("ingest succeeds");
    }
    // Seal every copy's finished rows into columnar blocks, then capture
    // ground truth per unit through the strict reader — any later
    // deviation is a corruption artifact, not a read-path difference.
    tsd.compact_now().expect("sealing compaction succeeds");
    let end = cfg.history_secs - 1;
    let truth: Vec<Vec<TimeSeries>> = (0..cfg.units)
        .map(|u| {
            strict
                .query(
                    "energy",
                    &QueryFilter::any().with("unit", &u.to_string()),
                    0,
                    end,
                )
                .expect("clean store answers exactly")
        })
        .collect();

    // Bit-flip one sealed block per region on the primary copy, across
    // up to `corruptions` regions. The follower copies stay healthy, so
    // salvage and repair always have a verifiable source.
    let infos = { master.directory().read().clone() };
    let mut corrupted_blocks = 0u64;
    for (i, info) in infos.iter().enumerate() {
        if corrupted_blocks as usize >= cfg.corruptions {
            break;
        }
        let Some(server) = master.server(info.server) else {
            continue;
        };
        let pick = i as u64;
        let hit = server.corrupt_region_cell(
            info.id,
            pick,
            &|kv| is_block_qualifier(&kv.qualifier),
            &|value: &mut Vec<u8>| {
                if value.is_empty() {
                    return;
                }
                let idx = (pick as usize / 8) % value.len();
                value[idx] ^= 1 << (pick % 8);
            },
        );
        if hit.is_some() {
            corrupted_blocks += 1;
        }
    }

    // Arm 1 — strict reader: typed errors where corruption sits, exact
    // answers elsewhere, never a wrong answer.
    let before = query_arm("no-salvage", &strict, &truth, end);
    // Arm 2 — salvaging reader: exact answers everywhere, corrupt spans
    // spliced from the healthy replica and quarantined for the scrubber.
    let after = query_arm("salvage", &tsd, &truth, end);
    let salvaged_reads = tsd
        .metrics()
        .salvaged_reads
        .load(std::sync::atomic::Ordering::Relaxed);

    // Scrub until the quarantine drains (or the budget runs out).
    let fault = no_faults();
    let started = Instant::now();
    let (mut ticks, mut repairs, mut rejected) = (0u64, 0u64, 0u64);
    for _ in 0..cfg.scrub_tick_budget {
        let report = tsd.scrub_tick(&master, &fault);
        ticks += 1;
        repairs += report.repairs_installed;
        rejected += report.repairs_rejected;
        if report.quarantined_after == 0 {
            break;
        }
    }
    let scrub_ms = started.elapsed().as_secs_f64() * 1e3;
    let quarantined_after = tsd.scrub_state().len() as u64;

    // Arm 3 — the strict reader again: repaired local copies must now
    // answer exactly with salvage still off.
    let post_scrub = query_arm("post-scrub-strict", &strict, &truth, end);

    master.shutdown();
    ScrubBenchReport {
        config: cfg.clone(),
        corrupted_blocks,
        before,
        after,
        post_scrub,
        salvaged_reads,
        scrub_ticks: ticks,
        scrub_repairs: repairs,
        scrub_rejected: rejected,
        quarantined_after,
        scrub_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e22_oracles_hold_on_a_small_stack() {
        let rep = scrub_resilience_experiment(&ScrubBenchConfig::quick());
        assert!(rep.corrupted_blocks > 0, "corruption must land");
        assert_eq!(rep.before.wrong_answers, 0, "strict arm: no wrong answers");
        assert!(rep.before.typed_errors > 0, "strict arm: typed errors");
        assert_eq!(
            rep.after.exact, rep.after.queries,
            "salvage arm answers exactly"
        );
        assert!(rep.salvaged_reads > 0, "salvage actually spliced a replica");
        assert!(rep.scrub_repairs > 0, "scrub repaired from a replica");
        assert_eq!(rep.quarantined_after, 0, "quarantine drains");
        assert_eq!(
            rep.post_scrub.exact, rep.post_scrub.queries,
            "repaired local copies answer exactly without salvage"
        );
        assert!(rep.passed());
    }
}
