//! The deterministic simulation driver.
//!
//! One run boots the **live** storage stack — `pga-minibase` master,
//! region servers and WALs, `pga-tsdb` daemons, the `pga-ingest` routing
//! helpers — and drives a seeded workload through a seeded fault schedule
//! in lockstep: one batch per step, simulated time advanced explicitly,
//! coordinator leases expired by `Master::tick`. No wall clock and no
//! ambient entropy anywhere: the workload, the schedule and the fault
//! plane each draw from separate streams of the same `u64` seed, so a
//! `(seed, schedule)` pair replays to a byte-identical trace.
//!
//! Invariant oracles checked against the run:
//!
//! * **No acked sample lost** — every batch the driver got an `Ok` for is
//!   present, with the exact value, after all faults have resolved.
//! * **Exactly-once** — retried batches (RPC drops, crashed servers) never
//!   produce duplicate samples in query results.
//! * **Scan consistency across split/migration** — after every split and
//!   move, a full read-your-writes check over all acked series.
//! * **Monotone WAL sequence ids** — every WAL image observed at crash
//!   recovery decodes with strictly increasing batch sequences (checked
//!   inside [`SimFaultPlane::tear_wal`]).
//! * **Detection equivalence** — Benjamini–Hochberg anomaly flags over the
//!   surviving data are identical with and without faults
//!   ([`run_with_baseline`]).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use pga_cluster::coordinator::Coordinator;
use pga_cluster::NodeId;
use pga_ingest::{choose_target, HealthFn};
use pga_minibase::{
    Client, FaultHandle, Master, RegionConfig, Request, Response, RowRange, ServerConfig,
    TableDescriptor,
};
use pga_query::rollup::{self, RollupCell, RollupWriter};
use pga_stats::multiple::Procedure;
use pga_stats::two_sided_p_from_z;
use pga_tsdb::{
    is_block_qualifier, verify_block, BatchPoint, BlockRewriter, KeyCodec, KeyCodecConfig,
    QueryFilter, Tsd, TsdConfig, TsdError, UidTable,
};

use crate::plane::SimFaultPlane;
use crate::schedule::{format_schedule, FaultOp, ScheduledFault};

/// Stream separator for the workload RNG.
pub const WORKLOAD_STREAM: u64 = 0x17f2_9c8b_e5d0_4a31;

/// Rollup tier installed on every simulated daemon when
/// [`SimConfig::rollups`] is on. One short tier keeps buckets sealing
/// every minute of workload time, so crash schedules reliably catch
/// sealed cells mid-flight.
pub const ROLLUP_TIER: u64 = 60;

/// Row span (seconds) used when [`SimConfig::block_compaction`] is on —
/// short enough that rows fill, fall behind the seal watermark, and get
/// sealed into columnar blocks several times per run. The rollup tier
/// shrinks to match (it must divide the row span).
pub const SIM_ROW_SPAN: u64 = 20;

/// With block compaction on, storage is major-compacted (running the
/// sealing rewriter) every this many workload steps.
const COMPACT_EVERY_STEPS: u32 = 8;

/// Post-drain scrub ticks before the convergence oracle gives up. Worst
/// case per corrupt key at factor 2: tick 1 burns the armed in-flight
/// scribble plus the corrupt source copy, tick 2 installs from the clean
/// follower — so four ticks leave comfortable slack.
const SCRUB_TICKS: u32 = 4;

/// Simulation shape. The defaults run one seed in well under a second.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Region-server nodes (one TSD daemon each).
    pub nodes: usize,
    /// Workload steps (one batch per step; faults land in the first 3/4).
    pub steps: u32,
    /// Samples per step batch.
    pub batch_per_step: usize,
    /// Distinct generating units in the workload.
    pub units: u32,
    /// Sensors per unit.
    pub sensors: u32,
    /// Row-key salt buckets (also the pre-split count).
    pub salt_buckets: u8,
    /// Coordinator lease.
    pub lease_ms: u64,
    /// Simulated milliseconds per step.
    pub step_ms: u64,
    /// Write attempts per batch before declaring `WriteNeverAcked`; each
    /// failed attempt advances simulated time one step so leases can
    /// expire and recovery can run.
    pub max_write_attempts: usize,
    /// Install write-time rollup maintenance (one [`ROLLUP_TIER`]-second
    /// tier per daemon) and run the rollup durability oracle after the
    /// drain: persisted rollup cells must survive crashes and agree with
    /// the acked raw history.
    pub rollups: bool,
    /// Copies per region (primary + followers). `1` is the classic
    /// single-copy stack — byte-identical traces to pre-replication
    /// builds. At `factor > 1` puts quorum-ack through WAL shipping, a
    /// primary crash is survived by promoting the most-caught-up
    /// follower, and the replication oracles run after the drain.
    pub replication_factor: usize,
    /// Install the columnar block-sealing compaction rewriter and run
    /// periodic major compactions through it. The workload then also
    /// deliberately skips a slice of timestamps and writes them *late* —
    /// after their row has sealed — so every later compaction faces the
    /// sealed-block/mutable-tail overlap the rewriter must merge (and
    /// mutant E drops). `false` keeps traces byte-identical to
    /// pre-blocks builds.
    pub block_compaction: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 3,
            steps: 40,
            batch_per_step: 4,
            units: 3,
            sensors: 2,
            salt_buckets: 4,
            lease_ms: 10_000,
            step_ms: 1_000,
            max_write_attempts: 40,
            rollups: true,
            replication_factor: 1,
            block_compaction: false,
        }
    }
}

/// One oracle violation. A faithful stack must never produce any.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A batch exhausted every forwarding attempt without an ack.
    WriteNeverAcked {
        /// Step the batch was generated at.
        step: u32,
        /// Series and attempt context.
        detail: String,
    },
    /// An acked sample is missing (or has the wrong value) after recovery.
    AckedDataLost {
        /// `unit/sensor` series label.
        series: String,
        /// What was expected vs observed.
        detail: String,
    },
    /// A scan returned samples that were never acked, duplicates, or
    /// otherwise diverged from the acked history.
    ScanMismatch {
        /// `unit/sensor` series label.
        series: String,
        /// What was expected vs observed.
        detail: String,
    },
    /// A batch left the generator without resolving to an ack or a typed
    /// `WriteNeverAcked` — silent loss in the submit path.
    BatchUnaccounted {
        /// Generated/acked/never-acked ledger.
        detail: String,
    },
    /// A final-phase query failed outright after the drain.
    QueryFailed {
        /// `unit/sensor` series label.
        series: String,
        /// The storage error.
        detail: String,
    },
    /// A WAL image decoded with non-increasing batch sequence ids.
    NonMonotoneWal {
        /// Region context from the plane.
        detail: String,
    },
    /// Anomaly flags differ between the faulted and baseline runs.
    DetectionDiverged {
        /// Flag diff summary.
        detail: String,
    },
    /// A rollup shadow cell that survived recovery diverged from the
    /// acked raw history: corruption, a phantom second, or an aggregate
    /// that no acked data can explain.
    RollupInconsistent {
        /// `unit/sensor` series label (`rollup` for undecodable cells).
        series: String,
        /// What was expected vs observed.
        detail: String,
    },
    /// A follower copy disagrees with its primary after the drain: a cell
    /// the primary cannot explain (split-brain double-ack through a
    /// deposed primary, or a mis-applied ship), a value mismatch, or a
    /// follower applied further than the primary has written.
    ReplicaDiverged {
        /// Region id.
        region: u64,
        /// What diverged.
        detail: String,
    },
    /// A quarantined span with at least two live copies survived the
    /// whole scrub epilogue: replica-backed repair failed to heal
    /// corruption it had every ingredient to heal.
    ScrubNotConverged {
        /// Key and copy context.
        detail: String,
    },
    /// The scrubber installed a repair payload that does not pass
    /// checksum verification — corrupt bytes laundered as a "repair"
    /// onto every copy (seeded mutant F's signature; a faithful
    /// scrubber's pre-install round-trip makes this impossible).
    UnverifiedRepairInstall {
        /// Which install, and its size.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::WriteNeverAcked { step, detail } => {
                write!(f, "write-never-acked at step {step}: {detail}")
            }
            Violation::AckedDataLost { series, detail } => {
                write!(f, "acked-data-lost [{series}]: {detail}")
            }
            Violation::ScanMismatch { series, detail } => {
                write!(f, "scan-mismatch [{series}]: {detail}")
            }
            Violation::BatchUnaccounted { detail } => {
                write!(f, "batch-unaccounted: {detail}")
            }
            Violation::QueryFailed { series, detail } => {
                write!(f, "query-failed [{series}]: {detail}")
            }
            Violation::NonMonotoneWal { detail } => {
                write!(f, "non-monotone-wal: {detail}")
            }
            Violation::DetectionDiverged { detail } => {
                write!(f, "detection-diverged: {detail}")
            }
            Violation::RollupInconsistent { series, detail } => {
                write!(f, "rollup-inconsistent [{series}]: {detail}")
            }
            Violation::ReplicaDiverged { region, detail } => {
                write!(f, "replica-diverged [region {region}]: {detail}")
            }
            Violation::ScrubNotConverged { detail } => {
                write!(f, "scrub-not-converged: {detail}")
            }
            Violation::UnverifiedRepairInstall { detail } => {
                write!(f, "unverified-repair-install: {detail}")
            }
        }
    }
}

/// Injection and recovery counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SimStats {
    /// Batches acknowledged to the driver.
    pub batches_acked: u64,
    /// Samples inside those batches.
    pub samples_acked: u64,
    /// Failed forwarding attempts that were retried.
    pub retries: u64,
    /// Region-server crashes injected.
    pub crashes: u64,
    /// Crashes whose recovery WAL images were torn.
    pub torn_crashes: u64,
    /// Heartbeat partitions injected.
    pub partitions: u64,
    /// Clock skews injected.
    pub skews: u64,
    /// Region splits performed.
    pub splits: u64,
    /// Region migrations performed.
    pub moves: u64,
    /// Storage acks swallowed by the RPC-drop fault.
    pub rpc_drops: u64,
    /// Regions reassigned by the master's liveness sweep.
    pub reassigned: u64,
    /// Mid-run scan-consistency checks executed.
    pub mid_checks: u64,
    /// Schedule ops skipped by the last-healthy-node guard.
    pub guarded_skips: u64,
    /// Batches handed to the submit path (acked + never-acked must equal
    /// this — the batch-accounting oracle).
    pub batches_generated: u64,
    /// Ingest storms injected.
    pub storms: u64,
    /// Slow-server windows injected.
    pub slow_faults: u64,
    /// Synthetic `Busy` rejections served by slow nodes.
    pub busy_rejections: u64,
    /// Rollup cells scanned and verified after the drain.
    pub rollup_cells: u64,
    /// Seconds of coverage claimed by those cells' presence bitmaps.
    pub rollup_seconds: u64,
    /// Primary failovers (follower promotions) performed by the master.
    pub failovers: u64,
    /// Follower copies compared cell-by-cell against their primary after
    /// the drain.
    pub replica_checks: u64,
    /// Epoch-fenced replication RPCs observed by the storage clients —
    /// each one is a deposed writer denied a vote.
    pub fence_rejections: u64,
    /// Replication ships dropped in transit while the follower stayed
    /// live (the contiguity/backfill path's trigger).
    pub ship_drops: u64,
    /// Major compactions run through the block-sealing rewriter.
    pub compactions: u64,
    /// Workload samples written late, into rows that may already hold a
    /// sealed block — the mutable-tail overlap the compaction oracle
    /// depends on actually occurring.
    pub late_fills: u64,
    /// At-rest corruption injections (block flips / scribbles) that
    /// actually hit a stored sealed block on a primary copy.
    pub corrupt_ops: u64,
    /// Background scrub ticks run in the post-drain epilogue.
    pub scrub_ticks: u64,
    /// Sealed-block cells checksum-verified by those ticks.
    pub cells_scrubbed: u64,
    /// Quarantined spans repaired from a healthy copy — fetched, re-
    /// verified and installed on every stale copy.
    pub scrub_repairs: u64,
    /// Fetched repair payloads rejected by pre-install verification
    /// (in-flight scribbles and corrupt source copies).
    pub scrub_rejected: u64,
    /// Repair payloads the plane scribbled between fetch and install.
    pub repair_scribbles: u64,
    /// Quarantined keys left after the scrub epilogue (0 = converged).
    pub quarantined_after: u64,
    /// Reads healed in line by splicing a replica's copy over a corrupt
    /// span (the TSD salvage path).
    pub salvaged_reads: u64,
    /// Post-drain queries that failed with the *typed* corruption error
    /// — the no-healthy-copy allowance (e.g. factor 1, or every copy of
    /// a span lost): a typed error is never a violation; a silent wrong
    /// answer always is.
    pub typed_corruption_errors: u64,
}

impl SimStats {
    /// Fold another run's counters into this aggregate.
    pub fn merge(&mut self, other: &SimStats) {
        self.batches_acked += other.batches_acked;
        self.samples_acked += other.samples_acked;
        self.retries += other.retries;
        self.crashes += other.crashes;
        self.torn_crashes += other.torn_crashes;
        self.partitions += other.partitions;
        self.skews += other.skews;
        self.splits += other.splits;
        self.moves += other.moves;
        self.rpc_drops += other.rpc_drops;
        self.reassigned += other.reassigned;
        self.mid_checks += other.mid_checks;
        self.guarded_skips += other.guarded_skips;
        self.batches_generated += other.batches_generated;
        self.storms += other.storms;
        self.slow_faults += other.slow_faults;
        self.busy_rejections += other.busy_rejections;
        self.rollup_cells += other.rollup_cells;
        self.rollup_seconds += other.rollup_seconds;
        self.failovers += other.failovers;
        self.replica_checks += other.replica_checks;
        self.fence_rejections += other.fence_rejections;
        self.ship_drops += other.ship_drops;
        self.compactions += other.compactions;
        self.late_fills += other.late_fills;
        self.corrupt_ops += other.corrupt_ops;
        self.scrub_ticks += other.scrub_ticks;
        self.cells_scrubbed += other.cells_scrubbed;
        self.scrub_repairs += other.scrub_repairs;
        self.scrub_rejected += other.scrub_rejected;
        self.repair_scribbles += other.repair_scribbles;
        self.quarantined_after += other.quarantined_after;
        self.salvaged_reads += other.salvaged_reads;
        self.typed_corruption_errors += other.typed_corruption_errors;
    }

    /// Total faults injected (any kind).
    pub fn faults_injected(&self) -> u64 {
        self.crashes
            + self.partitions
            + self.skews
            + self.splits
            + self.moves
            + self.rpc_drops
            + self.storms
            + self.slow_faults
            + self.ship_drops
            + self.corrupt_ops
    }
}

/// Everything one run produced: the replayable trace and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Seed the run was driven by.
    pub seed: u64,
    /// Schedule in replayable string form.
    pub schedule: String,
    /// Ordered injection/recovery trace.
    pub events: Vec<String>,
    /// Oracle violations (empty on a faithful stack).
    pub violations: Vec<Violation>,
    /// Counters.
    pub stats: SimStats,
    /// Per-series Benjamini–Hochberg anomaly flags over the stored data,
    /// in series order. Empty when a final query failed.
    pub flags: Vec<(String, bool)>,
}

type SeriesKey = (u32, u32);

/// The rollup tier for a sim shape: [`ROLLUP_TIER`] normally, shrunk to
/// the short row span in block-compaction mode (a tier must divide the
/// row span it is stored under).
fn rollup_tier(config: &SimConfig) -> u64 {
    if config.block_compaction {
        SIM_ROW_SPAN
    } else {
        ROLLUP_TIER
    }
}

struct Driver<'a> {
    config: &'a SimConfig,
    plane: Arc<SimFaultPlane>,
    /// The handle actually installed on the stack — the plane, possibly
    /// wrapped by a mutant. The scrub epilogue must run through this
    /// same handle so seeded scrub mutants apply there too.
    fault: FaultHandle,
    master: Master,
    tsds: Vec<Arc<Tsd>>,
    now_ms: u64,
    next_ts: u64,
    rr: usize,
    /// Nodes whose server thread was crashed.
    crashed: BTreeSet<u32>,
    /// Nodes with heartbeats suppressed → remaining steps.
    partitioned: BTreeMap<u32, u32>,
    /// Nodes with a permanent clock skew installed — their lease is doomed
    /// even if a concurrent partition heals in time.
    skewed: BTreeSet<u32>,
    /// Victims of any liveness fault — the guard keeps at least one node
    /// out of this set so `Master::tick` always has a survivor.
    doomed: BTreeSet<u32>,
    /// Pending injected ack drops.
    drop_budget: u32,
    /// Active storm: `(batch multiplier, steps remaining)`.
    storm: Option<(u32, u32)>,
    /// Slow nodes → steps of synthetic `Busy` remaining.
    slow: BTreeMap<u32, u32>,
    /// Acked history: series → timestamp → value.
    expected: BTreeMap<SeriesKey, BTreeMap<u64, f64>>,
    /// Series that had a `WriteNeverAcked` batch — their stores may hold
    /// unacked samples, so they are excluded from exactness checks.
    tainted: BTreeSet<SeriesKey>,
    /// The block-sealing rewriter (installed on the master), holding the
    /// seal watermark the driver advances on each ack. `None` when
    /// [`SimConfig::block_compaction`] is off.
    block_rewriter: Option<Arc<BlockRewriter>>,
    /// Timestamps skipped by the workload, to be written late — after
    /// the row they fall in has sealed.
    holes: VecDeque<u64>,
    /// Master failovers already reflected in post-failover scan checks.
    failovers_seen: u64,
    events: Vec<String>,
    violations: Vec<Violation>,
    stats: SimStats,
    wl: StdRng,
}

fn series_label(key: SeriesKey) -> String {
    format!("unit={}/sensor={}", key.0, key.1)
}

/// A failed series query: the rendered error, plus whether it was the
/// *typed* corruption error — the documented answer when a corrupt span
/// has no healthy copy left to salvage from, and the only acceptable
/// alternative to a bit-exact result.
struct QueryError {
    detail: String,
    typed_corruption: bool,
}

impl<'a> Driver<'a> {
    fn new(
        seed: u64,
        config: &'a SimConfig,
        wrap: &dyn Fn(Arc<SimFaultPlane>) -> FaultHandle,
    ) -> Self {
        let plane = Arc::new(SimFaultPlane::new(seed));
        let row_span_secs = if config.block_compaction {
            SIM_ROW_SPAN
        } else {
            3600
        };
        let codec = KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: config.salt_buckets,
                row_span_secs,
            },
            UidTable::new(),
        );
        let coord = Coordinator::new(config.lease_ms);
        let mut master = Master::bootstrap(config.nodes, ServerConfig::default(), coord, 0);
        let fault = wrap(plane.clone());
        master.set_fault_plane(fault.clone());
        let desc = TableDescriptor {
            name: "tsdb".into(),
            split_points: codec.split_points(),
            region_config: RegionConfig::default(),
        };
        if config.replication_factor > 1 {
            master.create_replicated_table(&desc, config.replication_factor);
        } else {
            master.create_table(&desc);
        }
        // The driver advances the watermark itself from its ack ledger —
        // the exact "acked to the caller" frontier the oracles check — so
        // sealing decisions are identical no matter which daemon served a
        // write.
        let block_rewriter = config.block_compaction.then(|| {
            let rewriter = Arc::new(BlockRewriter::new(
                row_span_secs,
                Arc::new(AtomicU64::new(0)),
            ));
            master.set_compaction_rewriter(rewriter.clone());
            rewriter
        });
        let tsds: Vec<Arc<Tsd>> = (0..config.nodes)
            .map(|_| {
                Arc::new(Tsd::new(
                    codec.clone(),
                    Client::connect(&master),
                    TsdConfig::default(),
                ))
            })
            .collect();
        if config.rollups {
            // Every daemon maintains the serving-layer pre-aggregates on
            // its own put path, exactly like production: distinct writer
            // ids keep concurrently sealed cells distinguishable at read.
            let tier = rollup_tier(config);
            for (i, tsd) in tsds.iter().enumerate() {
                tsd.set_observer(Arc::new(RollupWriter::new(
                    codec.clone(),
                    vec![tier],
                    i as u8,
                )));
            }
        }
        Driver {
            config,
            plane,
            fault,
            master,
            tsds,
            now_ms: 0,
            next_ts: 0,
            rr: 0,
            crashed: BTreeSet::new(),
            partitioned: BTreeMap::new(),
            skewed: BTreeSet::new(),
            doomed: BTreeSet::new(),
            drop_budget: 0,
            storm: None,
            slow: BTreeMap::new(),
            expected: BTreeMap::new(),
            tainted: BTreeSet::new(),
            block_rewriter,
            holes: VecDeque::new(),
            failovers_seen: 0,
            events: Vec::new(),
            violations: Vec::new(),
            stats: SimStats::default(),
            wl: StdRng::seed_from_u64(seed ^ WORKLOAD_STREAM),
        }
    }

    fn log(&mut self, msg: String) {
        self.events.push(msg);
    }

    /// Advance simulated time one step: heartbeat every node that can,
    /// then run the master's liveness sweep.
    fn advance(&mut self) {
        self.now_ms += self.config.step_ms;
        let now = self.now_ms;
        for node in self.master.live_nodes() {
            if self.crashed.contains(&node.0) || self.partitioned.contains_key(&node.0) {
                continue;
            }
            self.master.heartbeat(node, now);
        }
        let reassigned = self.master.tick(now);
        if !reassigned.is_empty() {
            self.stats.reassigned += reassigned.len() as u64;
            let ids: Vec<u64> = reassigned.iter().map(|r| r.0).collect();
            self.log(format!("t={now} reassigned regions {ids:?}"));
        }
        // Heal partitions whose window elapsed; a node that kept its lease
        // through the partition is healthy again and leaves the doomed set.
        let healed: Vec<u32> = self
            .partitioned
            .iter_mut()
            .filter_map(|(&node, steps)| {
                *steps = steps.saturating_sub(1);
                (*steps == 0).then_some(node)
            })
            .collect();
        for node in healed {
            self.partitioned.remove(&node);
            if self.master.live_nodes().contains(&NodeId(node))
                && !self.crashed.contains(&node)
                && !self.skewed.contains(&node)
            {
                self.doomed.remove(&node);
                self.log(format!(
                    "t={now} partition healed on node {node} (lease survived)"
                ));
            } else {
                self.log(format!(
                    "t={now} partition healed on node {node} (lease lost)"
                ));
            }
        }
        for e in self.plane.take_events() {
            self.log(format!("t={now} {e}"));
        }
    }

    /// Wind down storms and slow-server windows by one *workload* step.
    ///
    /// Deliberately separate from [`Driver::advance`]: retries between
    /// write attempts also advance simulated time, and if they consumed
    /// storm duration the faulted run would draw a different number of
    /// workload samples than its baseline, desynchronizing the detection
    /// oracle's RNG streams. Load shaping is defined in workload steps.
    fn wind_down_overload(&mut self) {
        let now = self.now_ms;
        if let Some((mult, steps)) = self.storm {
            let left = steps.saturating_sub(1);
            if left == 0 {
                self.storm = None;
                self.log(format!("t={now} storm x{mult} subsided"));
            } else {
                self.storm = Some((mult, left));
            }
        }
        let recovered: Vec<u32> = self
            .slow
            .iter_mut()
            .filter_map(|(&node, steps)| {
                *steps = steps.saturating_sub(1);
                (*steps == 0).then_some(node)
            })
            .collect();
        for node in recovered {
            self.slow.remove(&node);
            self.log(format!("t={now} node {node} no longer slow"));
        }
    }

    /// Scan consistency through promotion: a failover must leave every
    /// acked write readable through the new primary. Run only between
    /// workload steps — never from inside a write retry (where a batch
    /// can sit applied on a primary but not yet quorum-acked, and would
    /// masquerade as an unacked extra).
    fn post_failover_check(&mut self) {
        let failovers = self.master.failovers();
        if failovers > self.failovers_seen {
            self.failovers_seen = failovers;
            self.scan_check("post-failover");
        }
    }

    /// `true` when hitting `node` with a liveness fault would leave no
    /// unharmed heartbeating node — `Master::tick` requires a survivor.
    fn would_doom_last_node(&self, node: u32) -> bool {
        !self
            .master
            .live_nodes()
            .iter()
            .any(|n| n.0 != node && !self.doomed.contains(&n.0))
    }

    fn apply_op(&mut self, fault: &ScheduledFault) {
        let now = self.now_ms;
        match fault.op {
            FaultOp::Crash { node } | FaultOp::TornCrash { node } => {
                if self.crashed.contains(&node) || self.would_doom_last_node(node) {
                    self.stats.guarded_skips += 1;
                    self.log(format!("t={now} skip crash node {node} (guard)"));
                    return;
                }
                if let FaultOp::TornCrash { .. } = fault.op {
                    // Arm a torn tail for every region the victim hosts:
                    // their WAL images are what recovery will read back.
                    if let Some(server) = self.master.server(NodeId(node)) {
                        for rid in server.hosted_regions() {
                            self.plane.arm_tear(rid);
                        }
                    }
                    self.stats.torn_crashes += 1;
                }
                if let Some(server) = self.master.server(NodeId(node)) {
                    server.shutdown();
                }
                self.crashed.insert(node);
                self.doomed.insert(node);
                self.stats.crashes += 1;
                self.log(format!("t={now} crash node {node}"));
            }
            FaultOp::Partition { node, steps } => {
                if self.crashed.contains(&node) || self.would_doom_last_node(node) {
                    self.stats.guarded_skips += 1;
                    self.log(format!("t={now} skip partition node {node} (guard)"));
                    return;
                }
                self.partitioned.insert(node, steps);
                self.doomed.insert(node);
                self.stats.partitions += 1;
                self.log(format!("t={now} partition node {node} for {steps} steps"));
            }
            FaultOp::Skew { node, delta_ms } => {
                if self.crashed.contains(&node) || self.would_doom_last_node(node) {
                    self.stats.guarded_skips += 1;
                    self.log(format!("t={now} skip skew node {node} (guard)"));
                    return;
                }
                self.plane.set_skew(NodeId(node), delta_ms);
                self.skewed.insert(node);
                self.doomed.insert(node);
                self.stats.skews += 1;
                self.log(format!("t={now} skew node {node} by -{delta_ms}ms"));
            }
            FaultOp::Split { slot } => {
                let rid = {
                    let dir = self.master.directory();
                    let dir = dir.read();
                    if dir.is_empty() {
                        return;
                    }
                    dir[slot as usize % dir.len()].id
                };
                match self.master.split_region(rid) {
                    Some((l, r)) => {
                        self.stats.splits += 1;
                        self.log(format!(
                            "t={now} split region {} into {}/{}",
                            rid.0, l.0, r.0
                        ));
                        self.scan_check("post-split");
                    }
                    None => self.log(format!("t={now} split region {} refused", rid.0)),
                }
            }
            FaultOp::Move { slot, node } => {
                let rid = {
                    let dir = self.master.directory();
                    let dir = dir.read();
                    if dir.is_empty() {
                        return;
                    }
                    dir[slot as usize % dir.len()].id
                };
                let target = NodeId(node);
                if self.crashed.contains(&node) || !self.master.live_nodes().contains(&target) {
                    self.stats.guarded_skips += 1;
                    self.log(format!("t={now} skip move to dead node {node}"));
                    return;
                }
                if self.master.move_region(rid, target) {
                    self.stats.moves += 1;
                    self.log(format!("t={now} move region {} to node {node}", rid.0));
                    self.scan_check("post-move");
                } else {
                    self.log(format!(
                        "t={now} move region {} to node {node} refused",
                        rid.0
                    ));
                }
            }
            FaultOp::RpcDrop { writes } => {
                self.drop_budget += writes;
                self.stats.rpc_drops += writes as u64;
                self.log(format!("t={now} arm {writes} rpc ack drops"));
            }
            FaultOp::Storm { mult, steps } => {
                self.storm = Some((mult.max(2), steps.max(1)));
                self.stats.storms += 1;
                self.log(format!("t={now} storm x{mult} for {steps} steps"));
            }
            FaultOp::SlowServer { node, steps } => {
                // A slow server still heartbeats and keeps its lease — it
                // answers Busy, it doesn't die — so no doom guard.
                self.slow.insert(node, steps.max(1));
                self.stats.slow_faults += 1;
                self.log(format!("t={now} node {node} slow for {steps} steps"));
            }
            FaultOp::ShipDrop { count } => {
                // Arms the plane; `stats.ship_drops` counts ships actually
                // lost (collected from the plane post-drain), so an armed
                // drop that never fires — e.g. at factor 1, where nothing
                // ships — is not reported as an injected fault.
                self.plane.arm_ship_drops(count);
                self.log(format!("t={now} arm {count} replication ship drops"));
            }
            FaultOp::BlockFlip { pick } => self.corrupt_block(pick, false),
            FaultOp::Scribble { pick } => self.corrupt_block(pick, true),
        }
    }

    /// At-rest corruption injector: mutate one stored sealed block on its
    /// **primary** copy — followers keep their good bytes (WAL shipping
    /// replicates writes, not bit rot), which is exactly the asymmetry
    /// replica-backed repair exists for. `pick` selects the region and
    /// the cell deterministically; `scribble` overwrites the payload
    /// where a flip touches one bit. Each hit also arms one in-flight
    /// repair scribble, so the span's first repair fetch is tampered and
    /// the pre-install re-verification is exercised on every corrupt
    /// block, not by chance. A no-op when no sealed block exists yet —
    /// bit rot that lands on empty tracks.
    fn corrupt_block(&mut self, pick: u32, scribble: bool) {
        let now = self.now_ms;
        let kind = if scribble { "scribble" } else { "blockflip" };
        let infos = {
            let dir = self.master.directory();
            let dir = dir.read();
            dir.clone()
        };
        if infos.is_empty() {
            return;
        }
        let n = infos.len();
        for off in 0..n {
            let info = &infos[(pick as usize + off) % n];
            if self.crashed.contains(&info.server.0) {
                continue;
            }
            let Some(server) = self.master.server(info.server) else {
                continue;
            };
            let mutate: &dyn Fn(&mut Vec<u8>) = if scribble {
                &|value: &mut Vec<u8>| {
                    for (i, byte) in value.iter_mut().enumerate() {
                        *byte ^= 0xa5u8
                            .wrapping_add((i as u8).wrapping_mul(13))
                            .wrapping_add(pick as u8)
                            | 0x01;
                    }
                }
            } else {
                &|value: &mut Vec<u8>| {
                    if value.is_empty() {
                        return;
                    }
                    let idx = (pick as usize / 8) % value.len();
                    value[idx] ^= 1 << (pick % 8);
                }
            };
            let hit = server.corrupt_region_cell(
                info.id,
                u64::from(pick),
                &|kv| is_block_qualifier(&kv.qualifier),
                mutate,
            );
            if let Some((row, _)) = hit {
                self.stats.corrupt_ops += 1;
                self.plane.arm_repair_scribbles(1);
                self.log(format!(
                    "t={now} {kind} corrupted sealed block (row {:02x?}…) in region {} on \
                     primary node {}",
                    &row[..row.len().min(6)],
                    info.id.0,
                    info.server.0
                ));
                return;
            }
        }
        self.log(format!("t={now} {kind} found no sealed block (skipped)"));
    }

    /// A TSD fronted by a node that has not crashed (clients route through
    /// the shared directory, so any surviving daemon can serve).
    fn healthy_tsd(&self) -> Option<&Arc<Tsd>> {
        (0..self.tsds.len())
            .find(|i| !self.crashed.contains(&(*i as u32)))
            .and_then(|i| self.tsds.get(i))
    }

    /// Query one series' stored points through a surviving TSD.
    fn query_series(&self, key: SeriesKey) -> Result<Vec<(u64, f64)>, QueryError> {
        let tsd = self.healthy_tsd().ok_or_else(|| QueryError {
            detail: "no surviving tsd".to_string(),
            typed_corruption: false,
        })?;
        let unit = key.0.to_string();
        let sensor = key.1.to_string();
        let filter = QueryFilter::any()
            .with("unit", &unit)
            .with("sensor", &sensor);
        let series = tsd
            .query("energy", &filter, 0, self.next_ts + 10)
            .map_err(|e| QueryError {
                typed_corruption: matches!(e, TsdError::Corrupt(_)),
                detail: e.to_string(),
            })?;
        let mut points: Vec<(u64, f64)> = series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| (p.timestamp, p.value)))
            .collect();
        points.sort_by_key(|p| p.0);
        Ok(points)
    }

    /// Compare one series' stored points against the acked history.
    /// Returns a violation if they diverge.
    fn check_series(&self, key: SeriesKey, stored: &[(u64, f64)]) -> Option<Violation> {
        let acked = self.expected.get(&key)?;
        let label = series_label(key);
        // Loss first: every acked sample must be present with its value.
        for (&ts, &value) in acked {
            match stored.iter().find(|(t, _)| *t == ts) {
                None => {
                    return Some(Violation::AckedDataLost {
                        series: label,
                        detail: format!("acked ts={ts} value={value} missing from scan"),
                    })
                }
                Some(&(_, got)) if got != value => {
                    return Some(Violation::AckedDataLost {
                        series: label,
                        detail: format!("acked ts={ts} expected {value} got {got}"),
                    })
                }
                Some(_) => {}
            }
        }
        if self.tainted.contains(&key) {
            // Unacked writes may legitimately survive for this series.
            return None;
        }
        if stored.len() != acked.len() {
            let extras: Vec<u64> = stored
                .iter()
                .map(|&(t, _)| t)
                .filter(|t| !acked.contains_key(t))
                .take(8)
                .collect();
            return Some(Violation::ScanMismatch {
                series: label,
                detail: format!(
                    "stored {} points, acked {} — {}",
                    stored.len(),
                    acked.len(),
                    if extras.is_empty() {
                        "duplicate timestamps".to_string()
                    } else {
                        format!("unacked extras at ts {extras:?}")
                    }
                ),
            });
        }
        None
    }

    /// Mid-run read-your-writes check after a split or migration. Query
    /// errors are logged, not flagged: mid-fault RPC failures are expected;
    /// the post-drain final check is authoritative.
    fn scan_check(&mut self, context: &str) {
        self.stats.mid_checks += 1;
        let keys: Vec<SeriesKey> = self.expected.keys().copied().collect();
        let mut found = Vec::new();
        for key in keys {
            match self.query_series(key) {
                Err(e) => {
                    let now = self.now_ms;
                    let detail = e.detail;
                    self.log(format!("t={now} {context} check skipped ({detail})"));
                    return;
                }
                Ok(stored) => {
                    if let Some(v) = self.check_series(key, &stored) {
                        found.push(v);
                    }
                }
            }
        }
        self.violations.extend(found);
    }

    /// Next workload timestamp. With block compaction on, a slice of
    /// timestamps is skipped when first reached and written only once
    /// they are at least two row spans stale — by then their row has
    /// sealed, so the write lands as a mutable-tail overlap on a block.
    fn draw_ts(&mut self) -> u64 {
        if self.block_rewriter.is_some() {
            let ripe = self
                .holes
                .front()
                .is_some_and(|&h| h + 2 * SIM_ROW_SPAN <= self.next_ts);
            if ripe && self.wl.gen_range(0..3u32) == 0 {
                self.stats.late_fills += 1;
                return self.holes.pop_front().unwrap();
            }
            if self.wl.gen_range(0..5u32) == 0 {
                self.holes.push_back(self.next_ts);
                self.next_ts += 1;
            }
        }
        let ts = self.next_ts;
        self.next_ts += 1;
        ts
    }

    /// Generate this step's batch from the workload stream and forward it
    /// with retries, advancing simulated time between failed attempts.
    fn step_workload(&mut self, step: u32) {
        let mult = self.storm.map(|(m, _)| m as usize).unwrap_or(1);
        let batch: Vec<(u32, u32, u64, f64)> = (0..self.config.batch_per_step * mult)
            .map(|_| {
                let unit = self.wl.gen_range(0..self.config.units.max(1));
                let sensor = self.wl.gen_range(0..self.config.sensors.max(1));
                let ts = self.draw_ts();
                let noise: f64 = self.wl.gen_range(-1.0..1.0);
                let value = (unit * 10 + sensor) as f64 + noise;
                (unit, sensor, ts, value)
            })
            .collect();
        let tags: Vec<(String, String)> = batch
            .iter()
            .map(|&(u, s, _, _)| (u.to_string(), s.to_string()))
            .collect();
        let pairs: Vec<[(&str, &str); 2]> = tags
            .iter()
            .map(|(u, s)| [("unit", u.as_str()), ("sensor", s.as_str())])
            .collect();
        let points: Vec<BatchPoint> = batch
            .iter()
            .zip(&pairs)
            .map(|(&(_, _, ts, value), tags)| (&tags[..], ts, value))
            .collect();
        self.stats.batches_generated += 1;
        for _ in 0..self.config.max_write_attempts.max(1) {
            let pick = self.rr;
            self.rr += 1;
            let crashed = self.crashed.clone();
            let health = HealthFn(move |i: usize| !crashed.contains(&(i as u32)));
            let target = choose_target(pick, self.tsds.len(), &health);
            if self.slow.contains_key(&(target as u32)) {
                let alternative = (0..self.tsds.len() as u32)
                    .any(|i| !self.crashed.contains(&i) && !self.slow.contains_key(&i));
                if alternative {
                    // Synthetic Busy from the slow node: the driver must
                    // re-route and the batch must still resolve.
                    self.stats.busy_rejections += 1;
                    self.stats.retries += 1;
                    self.advance();
                    continue;
                }
                // Every live node is slow: Busy is advisory, not a loss
                // authorization, so forward anyway and eat the latency.
                self.advance();
            }
            let result = self
                .tsds
                .get(target)
                .map(|t| t.put_batch("energy", &points));
            let acked = match result {
                Some(Ok(())) => {
                    if self.drop_budget > 0 {
                        // The write may have landed, but the driver never
                        // sees the ack: it must retry, and the retry must
                        // land exactly once.
                        self.drop_budget -= 1;
                        let now = self.now_ms;
                        self.log(format!("t={now} dropped storage ack (retry forced)"));
                        false
                    } else {
                        true
                    }
                }
                Some(Err(_)) | None => false,
            };
            if acked {
                self.stats.batches_acked += 1;
                self.stats.samples_acked += batch.len() as u64;
                for &(u, s, ts, value) in &batch {
                    self.expected.entry((u, s)).or_default().insert(ts, value);
                }
                if let Some(rewriter) = &self.block_rewriter {
                    if let Some(max_ts) = batch.iter().map(|&(_, _, ts, _)| ts).max() {
                        rewriter.advance(max_ts);
                    }
                }
                return;
            }
            self.stats.retries += 1;
            self.advance();
        }
        let mut series: Vec<String> = batch
            .iter()
            .map(|&(u, s, _, _)| series_label((u, s)))
            .collect();
        series.sort();
        series.dedup();
        for &(u, s, _, _) in &batch {
            self.tainted.insert((u, s));
        }
        self.violations.push(Violation::WriteNeverAcked {
            step,
            detail: format!(
                "batch of {} for {series:?} after {} attempts",
                batch.len(),
                self.config.max_write_attempts
            ),
        });
    }

    /// Major-compact all storage through a surviving daemon, running the
    /// installed block-sealing rewriter. Best-effort: a compaction that
    /// races a crashed region logs and moves on — the authoritative
    /// checks still run over whatever state results.
    fn compact_storage(&mut self, context: &str) {
        let Some(tsd) = self.healthy_tsd().cloned() else {
            return;
        };
        let now = self.now_ms;
        match tsd.compact_now() {
            Ok(()) => {
                self.stats.compactions += 1;
                let watermark = self
                    .block_rewriter
                    .as_ref()
                    .map(|r| r.watermark())
                    .unwrap_or(0);
                self.log(format!(
                    "t={now} {context} compaction ran (seal watermark {watermark})"
                ));
            }
            Err(e) => self.log(format!("t={now} {context} compaction failed ({e})")),
        }
    }

    /// Post-drain scrub epilogue: run background scrub ticks through the
    /// installed fault handle until the quarantine drains (or the tick
    /// budget runs out), then — if anything was repaired — re-seal every
    /// copy so repaired primaries and their followers converge back to
    /// identical layouts before the replica-equality oracle runs (a
    /// corrupt block pauses sealing for its row, so the primary may
    /// still carry raw cells its followers already sealed).
    ///
    /// Convergence oracle: a span still quarantined while at least one
    /// reachable copy verifies is a [`Violation::ScrubNotConverged`] —
    /// repair had a healthy source one RPC away and failed to use it.
    /// Spans with *no* verifiable copy left stay quarantined by design
    /// (factor 1, every holder crashed, or corruption that propagated
    /// through a re-replication fork of the corrupt primary); reads of
    /// them keep answering the typed corruption error.
    fn scrub_epilogue(&mut self) {
        let Some(tsd) = self.healthy_tsd().cloned() else {
            return;
        };
        let mut repaired = 0u64;
        for _ in 0..SCRUB_TICKS {
            let report = tsd.scrub_tick(&self.master, &self.fault);
            self.stats.scrub_ticks += 1;
            self.stats.cells_scrubbed += report.cells_scrubbed;
            self.stats.scrub_repairs += report.repairs_installed;
            self.stats.scrub_rejected += report.repairs_rejected;
            repaired += report.repairs_installed;
            let now = self.now_ms;
            self.log(format!(
                "t={now} scrub tick: {} cells verified, {} newly quarantined, {} repaired, \
                 {} rejected pre-install, {} still quarantined",
                report.cells_scrubbed,
                report.newly_quarantined,
                report.repairs_installed,
                report.repairs_rejected,
                report.quarantined_after
            ));
            if report.quarantined_after == 0 {
                break;
            }
        }
        if repaired > 0 {
            self.compact_storage("post-scrub");
        }
        let remaining = tsd.scrub_state().quarantined();
        self.stats.quarantined_after = remaining.len() as u64;
        for key in remaining {
            let mut end = key.row.to_vec();
            end.push(0);
            let copies = tsd
                .client()
                .repair_fetch(&RowRange::new(key.row.to_vec(), end));
            let healthy = copies.iter().any(|c| {
                c.cells.iter().any(|kv| {
                    kv.row == key.row
                        && kv.qualifier == key.qualifier
                        && verify_block(&kv.value).is_ok()
                })
            });
            let now = self.now_ms;
            if healthy {
                self.violations.push(Violation::ScrubNotConverged {
                    detail: format!(
                        "span (row {:02x?}…) still quarantined after {SCRUB_TICKS} ticks with a \
                         verifiable copy reachable",
                        &key.row[..key.row.len().min(6)]
                    ),
                });
            } else {
                self.log(format!(
                    "t={now} span (row {:02x?}…) stays quarantined: no verifiable copy reachable",
                    &key.row[..key.row.len().min(6)]
                ));
            }
        }
    }

    /// Post-drain authoritative oracle pass. Returns the stored points per
    /// series for the detection oracle (None when a query failed).
    fn final_checks(&mut self) -> Option<BTreeMap<SeriesKey, Vec<(u64, f64)>>> {
        let keys: Vec<SeriesKey> = self.expected.keys().copied().collect();
        let mut stored_all = BTreeMap::new();
        let mut ok = true;
        for key in keys {
            match self.query_series(key) {
                Err(e) if e.typed_corruption => {
                    // The no-healthy-copy allowance: a corrupt span with
                    // no replica to salvage from must answer with the
                    // typed error — which is what just happened. Not a
                    // violation, but the data is unreadable, so the
                    // detection oracle is skipped for this run.
                    self.stats.typed_corruption_errors += 1;
                    let now = self.now_ms;
                    let (label, detail) = (series_label(key), e.detail);
                    self.log(format!(
                        "t={now} final query [{label}] answered typed corruption error ({detail})"
                    ));
                    ok = false;
                }
                Err(e) => {
                    self.violations.push(Violation::QueryFailed {
                        series: series_label(key),
                        detail: e.detail,
                    });
                    ok = false;
                }
                Ok(stored) => {
                    if let Some(v) = self.check_series(key, &stored) {
                        self.violations.push(v);
                    }
                    stored_all.insert(key, stored);
                }
            }
        }
        for v in self.plane.violations() {
            self.violations
                .push(Violation::NonMonotoneWal { detail: v });
        }
        ok.then_some(stored_all)
    }

    /// Post-drain rollup durability oracle. Seals the surviving writers'
    /// open buckets, scans the tier shadow metric through a healthy
    /// daemon, and checks every cell against the acked raw history. A
    /// crash may lose a daemon's *open* accumulators — rollups are
    /// derived data and the raw path stays authoritative — but a cell
    /// that was persisted must come back after WAL recovery and region
    /// reassignment, decode, agree with its own presence bitmap, and
    /// aggregate exactly the acked values it claims to cover.
    fn rollup_checks(&mut self) {
        let mut flush_failures = Vec::new();
        for (i, tsd) in self.tsds.iter().enumerate() {
            if self.crashed.contains(&(i as u32)) {
                continue;
            }
            if let Err(e) = tsd.flush_observer() {
                flush_failures.push(format!("rollup flush on node {i} failed ({e})"));
            }
        }
        let now = self.now_ms;
        for msg in flush_failures {
            self.log(format!("t={now} {msg}"));
        }
        let Some(tsd) = self.healthy_tsd().cloned() else {
            return;
        };
        let tier = rollup_tier(self.config);
        let codec = tsd.codec().clone();
        let shadow = rollup::tier_metric(tier, "energy");
        let mut cells = Vec::new();
        for salt in codec.salt_range() {
            let (s, e) = codec.scan_range(salt, &shadow, 0, self.next_ts + tier);
            if s.is_empty() && e.is_empty() {
                // The tier metric was never interned: no cell ever sealed.
                return;
            }
            match tsd.client().scan(&RowRange::new(s, e)) {
                Ok(mut kvs) => cells.append(&mut kvs),
                Err(e) => {
                    self.violations.push(Violation::QueryFailed {
                        series: "rollup".into(),
                        detail: format!("rollup scan salt {salt}: {e}"),
                    });
                    return;
                }
            }
        }
        // Newest version of each (row, qualifier) wins, like the read path.
        cells.sort();
        cells.dedup_by(|a, b| a.row == b.row && a.qualifier == b.qualifier);
        let mut decoder = rollup::CellDecoder::new(&codec, tier);
        for kv in &cells {
            match decoder.decode(kv) {
                Some(cell) => {
                    self.stats.rollup_cells += 1;
                    self.check_rollup_cell(&cell);
                }
                None => self.violations.push(Violation::RollupInconsistent {
                    series: "rollup".into(),
                    detail: "undecodable rollup cell survived recovery".into(),
                }),
            }
        }
    }

    /// Post-drain replica-divergence oracle. For every replicated region,
    /// scan the primary and each follower copy directly (no client
    /// routing) and require the follower's view to be a value-exact
    /// subset of the primary's: a follower may trail by un-shipped
    /// batches, but a cell the primary cannot explain means a deposed
    /// primary double-acked a write or a ship was mis-applied. The
    /// follower's applied sequence must also never pass the primary's —
    /// and when it *equals* the primary's, WAL contiguity makes that a
    /// claim of holding every batch, so the views must match exactly: a
    /// caught-up follower missing cells is a silently swallowed hole (the
    /// gap-tolerant bug a pure subset check can never see, since a holey
    /// follower is still a subset).
    fn replication_checks(&mut self) {
        let report = self.master.replication_report();
        for status in report {
            let Some(primary) = self.master.server(status.primary) else {
                continue;
            };
            let primary_cells: BTreeSet<_> = match primary.handle().call(Request::Scan {
                region: status.region,
                scan: RowRange::all().into(),
            }) {
                Ok(Response::Cells(cells)) => cells.into_iter().collect(),
                _ => continue, // primary crashed post-drain: nothing to anchor on
            };
            for &(node, _) in &status.followers {
                let Some(server) = self.master.server(node) else {
                    continue;
                };
                let reply = server.handle().call(Request::FollowerScan {
                    region: status.region,
                    scan: RowRange::all().into(),
                });
                let Ok(Response::FollowerCells { cells, applied_seq }) = reply else {
                    continue;
                };
                self.stats.replica_checks += 1;
                if applied_seq > status.primary_seq {
                    self.violations.push(Violation::ReplicaDiverged {
                        region: status.region.0,
                        detail: format!(
                            "follower {} applied seq {applied_seq} past primary seq {}",
                            node.0, status.primary_seq
                        ),
                    });
                }
                if applied_seq == status.primary_seq && cells.len() != primary_cells.len() {
                    self.violations.push(Violation::ReplicaDiverged {
                        region: status.region.0,
                        detail: format!(
                            "follower {} claims to be caught up at seq {applied_seq} but \
                             holds {} cells vs the primary's {} — a WAL hole was silently \
                             retained",
                            node.0,
                            cells.len(),
                            primary_cells.len()
                        ),
                    });
                }
                for kv in &cells {
                    if !primary_cells.contains(kv) {
                        self.violations.push(Violation::ReplicaDiverged {
                            region: status.region.0,
                            detail: format!(
                                "follower {} holds a cell the primary cannot explain \
                                 (row {:?} ts {})",
                                node.0, kv.row, kv.timestamp
                            ),
                        });
                        break;
                    }
                }
            }
        }
    }

    /// One cell of the rollup oracle: bitmap coverage must equal the
    /// count, and for untainted series every claimed second must map to
    /// an acked sample whose values reproduce the cell's aggregates.
    fn check_rollup_cell(&mut self, cell: &RollupCell) {
        let tags = cell.series.tags();
        let tag = |k: &str| {
            tags.iter()
                .find(|(a, _)| a == k)
                .and_then(|(_, v)| v.parse::<u32>().ok())
        };
        let (Some(unit), Some(sensor)) = (tag("unit"), tag("sensor")) else {
            self.violations.push(Violation::RollupInconsistent {
                series: "rollup".into(),
                detail: format!("cell with foreign tags {tags:?}"),
            });
            return;
        };
        let key = (unit, sensor);
        let label = series_label(key);
        let seconds: Vec<u64> = (0..rollup_tier(self.config))
            .filter(|s| cell.bitmap[(s / 8) as usize] & (1 << (s % 8)) != 0)
            .map(|s| cell.bucket + s)
            .collect();
        self.stats.rollup_seconds += seconds.len() as u64;
        if seconds.len() as u64 != cell.count {
            self.violations.push(Violation::RollupInconsistent {
                series: label,
                detail: format!("count {} != bitmap coverage {}", cell.count, seconds.len()),
            });
            return;
        }
        if seconds.is_empty() || self.tainted.contains(&key) {
            // Tainted series may legitimately aggregate unacked writes.
            return;
        }
        let acked = self.expected.get(&key);
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &ts in &seconds {
            match acked.and_then(|m| m.get(&ts)) {
                None => {
                    self.violations.push(Violation::RollupInconsistent {
                        series: label,
                        detail: format!("bitmap claims unacked second ts={ts}"),
                    });
                    return;
                }
                Some(&v) => {
                    min = min.min(v);
                    max = max.max(v);
                    sum += v;
                }
            }
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
        if cell.min != min || cell.max != max || !close(cell.sum, sum) {
            self.violations.push(Violation::RollupInconsistent {
                series: label,
                detail: format!(
                    "aggregates diverge from acked history: cell (min {} max {} sum {}) \
                     vs raw (min {min} max {max} sum {sum})",
                    cell.min, cell.max, cell.sum
                ),
            });
        }
    }
}

/// Benjamini–Hochberg anomaly flags over stored per-series data: one
/// two-sided z-test per series comparing the trailing quarter against the
/// full history, FDR-controlled at 5% across the family.
fn detection_flags(stored: &BTreeMap<SeriesKey, Vec<(u64, f64)>>) -> Vec<(String, bool)> {
    let keys: Vec<SeriesKey> = stored.keys().copied().collect();
    let ps: Vec<f64> = keys
        .iter()
        .map(|k| {
            let values: Vec<f64> = stored[k].iter().map(|&(_, v)| v).collect();
            let n = values.len();
            if n < 8 {
                return 1.0;
            }
            let mean = values.iter().sum::<f64>() / n as f64;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
            let sd = var.sqrt();
            if sd <= f64::EPSILON {
                return 1.0;
            }
            let tail = &values[n - (n / 4).max(2)..];
            let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
            let z = (tail_mean - mean) / (sd / (tail.len() as f64).sqrt());
            two_sided_p_from_z(z)
        })
        .collect();
    if ps.is_empty() {
        return Vec::new();
    }
    let rejections = Procedure::BenjaminiHochberg.apply(&ps, 0.05);
    keys.iter()
        .zip(rejections.rejected)
        .map(|(&k, r)| (series_label(k), r))
        .collect()
}

pub(crate) fn run_inner(
    seed: u64,
    schedule: &[ScheduledFault],
    config: &SimConfig,
    wrap: &dyn Fn(Arc<SimFaultPlane>) -> FaultHandle,
) -> SimOutcome {
    let mut driver = Driver::new(seed, config, wrap);
    for step in 0..config.steps {
        let due: Vec<ScheduledFault> = schedule
            .iter()
            .filter(|f| f.step == step)
            .copied()
            .collect();
        for fault in &due {
            driver.apply_op(fault);
        }
        driver.step_workload(step);
        driver.advance();
        driver.wind_down_overload();
        if config.replication_factor > 1 {
            driver.post_failover_check();
        }
        if config.block_compaction && (step + 1) % COMPACT_EVERY_STEPS == 0 {
            driver.compact_storage("scheduled");
        }
    }
    // Drain: enough quiet steps for every pending lease expiry and
    // reassignment to complete before the authoritative checks.
    let drain = config.lease_ms / config.step_ms.max(1) + 5;
    for _ in 0..drain {
        driver.advance();
    }
    // Batch accounting: every generated batch resolved to an ack or a
    // typed WriteNeverAcked. Anything else is silent loss in the submit
    // path — the overload contract forbids it.
    let never_acked = driver
        .violations
        .iter()
        .filter(|v| matches!(v, Violation::WriteNeverAcked { .. }))
        .count() as u64;
    if driver.stats.batches_generated != driver.stats.batches_acked + never_acked {
        driver.violations.push(Violation::BatchUnaccounted {
            detail: format!(
                "generated {} != acked {} + never-acked {never_acked}",
                driver.stats.batches_generated, driver.stats.batches_acked
            ),
        });
    }
    if config.block_compaction {
        // One final seal so the authoritative scans read through blocks,
        // not around them — then the background scrubber's turn: detect
        // whatever bit rot the schedule planted, repair it from healthy
        // replicas, and converge the quarantine before the authoritative
        // oracles run.
        driver.compact_storage("post-drain");
        driver.scrub_epilogue();
    }
    // Wrong-repair oracle: every payload the scrubber reported installing
    // must itself pass checksum verification — the observation tap is the
    // only way to catch corrupt bytes laundered as a "repair", because a
    // self-healing stack looks healthy again by the time end-state checks
    // run (seeded mutant F skips the pre-install round-trip).
    driver.stats.repair_scribbles = driver.plane.repair_scribbles();
    for (i, payload) in driver.plane.repair_installs().iter().enumerate() {
        if let Err(e) = verify_block(payload) {
            driver.violations.push(Violation::UnverifiedRepairInstall {
                detail: format!(
                    "repair install #{i} ({} bytes) fails verification ({e})",
                    payload.len()
                ),
            });
        }
    }
    if config.rollups {
        // Before the raw checks, so the flush puts are also covered by
        // the WAL-monotonicity sweep inside `final_checks`.
        driver.rollup_checks();
    }
    if config.replication_factor > 1 {
        driver.replication_checks();
        driver.stats.failovers = driver.master.failovers();
        driver.stats.fence_rejections = driver
            .tsds
            .iter()
            .map(|t| t.client().repl_book().snapshot().fence_rejections)
            .sum();
    }
    driver.stats.ship_drops = driver.plane.ship_drops();
    let flags = driver
        .final_checks()
        .map(|stored| detection_flags(&stored))
        .unwrap_or_default();
    // After the final queries: in-line salvage fires inside them.
    driver.stats.salvaged_reads = driver
        .tsds
        .iter()
        .map(|t| {
            t.metrics()
                .salvaged_reads
                .load(std::sync::atomic::Ordering::Relaxed)
        })
        .sum();
    driver.master.shutdown();
    SimOutcome {
        seed,
        schedule: format_schedule(schedule),
        events: driver.events,
        violations: driver.violations,
        stats: driver.stats,
        flags,
    }
}

fn faithful_plane(plane: Arc<SimFaultPlane>) -> FaultHandle {
    plane
}

/// Run one `(seed, schedule)` pair against the live stack.
pub fn run(seed: u64, schedule: &[ScheduledFault], config: &SimConfig) -> SimOutcome {
    run_inner(seed, schedule, config, &faithful_plane)
}

/// Run the faulted schedule **and** the baseline (same seed, with only
/// the load-shaping ops kept — a storm changes what data exists, so the
/// baseline must offer the same load), appending a
/// [`Violation::DetectionDiverged`] if the Benjamini–Hochberg anomaly
/// flags differ on the surviving data, and surfacing any baseline
/// violations (a faithful baseline must be clean).
pub fn run_with_baseline(seed: u64, schedule: &[ScheduledFault], config: &SimConfig) -> SimOutcome {
    let mut outcome = run(seed, schedule, config);
    let baseline_schedule: Vec<ScheduledFault> = schedule
        .iter()
        .filter(|f| f.op.is_load_shaping())
        .copied()
        .collect();
    if schedule.len() == baseline_schedule.len() {
        // Nothing breaks the stack in this schedule: it is its own baseline.
        return outcome;
    }
    let baseline = run(seed, &baseline_schedule, config);
    for v in &baseline.violations {
        outcome.violations.push(Violation::ScanMismatch {
            series: "baseline".into(),
            detail: format!("baseline run itself violated: {v:?}"),
        });
    }
    if !outcome.flags.is_empty() && !baseline.flags.is_empty() && outcome.flags != baseline.flags {
        let diff: Vec<&String> = outcome
            .flags
            .iter()
            .zip(&baseline.flags)
            .filter(|(a, b)| a != b)
            .map(|(a, _)| &a.0)
            .collect();
        outcome.violations.push(Violation::DetectionDiverged {
            detail: format!("flags differ from baseline for {diff:?}"),
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::parse_schedule;

    /// The serving-layer durability regression: rollup shadow cells
    /// persisted before a region-server crash must survive WAL recovery
    /// and reassignment, and must still agree with the acked raw history
    /// when read through a surviving daemon.
    #[test]
    fn rollup_rows_survive_region_server_crash() {
        let config = SimConfig::default();
        assert!(config.rollups, "rollups are on by default");
        // Crash late enough that several buckets sealed and persisted
        // first (the workload clock passes 120 s around step 30).
        let schedule = parse_schedule("30:crash:1").unwrap();
        let outcome = run(7, &schedule, &config);
        assert_eq!(outcome.violations, vec![], "events: {:#?}", outcome.events);
        assert_eq!(outcome.stats.crashes, 1);
        assert!(outcome.stats.reassigned > 0, "crash must move regions");
        assert!(outcome.stats.rollup_cells > 0, "no rollup cells survived");
        assert!(
            outcome.stats.rollup_seconds >= ROLLUP_TIER,
            "expected at least one sealed bucket of coverage, got {} seconds",
            outcome.stats.rollup_seconds
        );
    }

    /// The tentpole regression: at RF=2 a primary crash is survived by
    /// promoting the crashed node's followers, every acked write stays
    /// readable through the new primaries, and the surviving follower
    /// copies agree with their primaries cell-for-cell.
    #[test]
    fn replicated_primary_crash_promotes_without_data_loss() {
        let config = SimConfig {
            replication_factor: 2,
            ..SimConfig::default()
        };
        let schedule = parse_schedule("30:crash:1").unwrap();
        let outcome = run(7, &schedule, &config);
        assert_eq!(outcome.violations, vec![], "events: {:#?}", outcome.events);
        assert_eq!(outcome.stats.crashes, 1);
        assert!(
            outcome.stats.failovers > 0,
            "node 1 hosts primaries; its crash must promote followers"
        );
        assert!(
            outcome.stats.replica_checks > 0,
            "surviving follower copies must be compared against primaries"
        );
    }

    /// RF=3 tolerates losing one copy without even needing the second
    /// follower: quorum 2 of 3 keeps acking through the crash window.
    #[test]
    fn rf3_crash_keeps_acking_and_stays_consistent() {
        let config = SimConfig {
            nodes: 4,
            replication_factor: 3,
            ..SimConfig::default()
        };
        let schedule = parse_schedule("20:crash:0").unwrap();
        let outcome = run(11, &schedule, &config);
        assert_eq!(outcome.violations, vec![], "events: {:#?}", outcome.events);
        assert!(outcome.stats.failovers > 0);
        assert!(outcome.stats.replica_checks > 0);
    }

    /// Transient ship loss with the follower still live: the contiguity
    /// check turns the follower's next ship into a gap report, the writer
    /// backfills from the primary's retained WAL tail, and every oracle —
    /// including the caught-up-means-identical replica check — stays
    /// green.
    #[test]
    fn dropped_ships_are_backfilled_without_divergence() {
        let config = SimConfig {
            replication_factor: 2,
            ..SimConfig::default()
        };
        let schedule = parse_schedule("10:shipdrop:2,22:shipdrop:1").unwrap();
        let outcome = run(7, &schedule, &config);
        assert_eq!(outcome.violations, vec![], "events: {:#?}", outcome.events);
        assert!(
            outcome.stats.ship_drops > 0,
            "no ship was actually dropped: {:?}",
            outcome.stats
        );
        assert!(outcome.stats.replica_checks > 0);
        assert!(
            outcome
                .events
                .iter()
                .any(|e| e.contains("shipdrop region=")),
            "plane should log the in-transit losses: {:?}",
            outcome.events
        );
    }

    /// `replication_factor: 1` must not change a single byte of the
    /// classic trace: same events, same stats, same flags.
    #[test]
    fn factor_one_is_byte_identical_to_the_classic_stack() {
        let config = SimConfig::default();
        assert_eq!(config.replication_factor, 1);
        let schedule = parse_schedule("10:crash:2,20:move:1:0").unwrap();
        let a = run(13, &schedule, &config);
        let b = run(13, &schedule, &config);
        assert_eq!(a, b);
        assert_eq!(a.stats.failovers, 0);
        assert_eq!(a.stats.replica_checks, 0);
    }

    /// The compaction oracle: with block sealing and late mutable-tail
    /// fills on, a region-server crash mid-run must not lose a single
    /// acked sample — sealed blocks persist in store files, the unflushed
    /// tail replays from the WAL, and late fills survive the re-seal.
    #[test]
    fn sealed_blocks_survive_crashes_without_losing_acked_data() {
        let config = SimConfig {
            block_compaction: true,
            ..SimConfig::default()
        };
        let schedule = parse_schedule("30:crash:1").unwrap();
        let outcome = run(7, &schedule, &config);
        assert_eq!(outcome.violations, vec![], "events: {:#?}", outcome.events);
        assert!(
            outcome.stats.compactions >= 2,
            "sealing never ran: {:?}",
            outcome.stats
        );
        assert!(
            outcome.stats.late_fills > 0,
            "no mutable-tail overlap was exercised: {:?}",
            outcome.stats
        );
    }

    /// Torn-WAL crash interleaved with sealing compactions: the torn tail
    /// is discarded, the durable prefix replays, and the next compaction
    /// re-seals over the recovered cells without corrupting anything.
    #[test]
    fn torn_crash_between_seals_keeps_blocks_consistent() {
        let config = SimConfig {
            block_compaction: true,
            ..SimConfig::default()
        };
        let schedule = parse_schedule("18:tear:2,26:move:1:0").unwrap();
        let outcome = run(11, &schedule, &config);
        assert_eq!(outcome.violations, vec![], "events: {:#?}", outcome.events);
        assert_eq!(outcome.stats.torn_crashes, 1);
        assert!(outcome.stats.compactions >= 2);
    }

    /// Block compaction replays byte-for-byte: sealing, late fills and
    /// the workload all draw from seeded streams only.
    #[test]
    fn block_compaction_replays_deterministically() {
        let config = SimConfig {
            block_compaction: true,
            ..SimConfig::default()
        };
        let schedule = parse_schedule("10:crash:2,20:split:1").unwrap();
        let a = run(13, &schedule, &config);
        let b = run(13, &schedule, &config);
        assert_eq!(a, b);
        assert!(a.stats.late_fills > 0);
    }

    /// A raw-only stack (no serving layer) is still a supported shape.
    #[test]
    fn rollups_can_be_disabled() {
        let config = SimConfig {
            rollups: false,
            ..SimConfig::default()
        };
        let outcome = run(7, &[], &config);
        assert_eq!(outcome.violations, vec![]);
        assert_eq!(outcome.stats.rollup_cells, 0);
    }
}
