//! MiniBase — an HBase-analog distributed, sorted key-value store.
//!
//! The paper stores all sensor data in OpenTSDB, which "leverages HBase …
//! to manage data in a distributed manner and provide horizontal
//! scalability" (§III). This crate is that substrate, built from scratch:
//!
//! * [`kv`] — the cell model: `(row, qualifier, timestamp) → value`, with
//!   HBase's ordering (rows ascending, newest timestamp first).
//! * [`batch`] — the put batch: a write's cells as row runs, carried
//!   unchanged from the writer through routing, RPC, WAL and memstore.
//! * [`memstore`] — the in-memory sorted write buffer.
//! * [`wal`] — a write-ahead log enabling crash recovery of unflushed data.
//! * [`crc`] — the workspace's one checksum, CRC-32: over WAL records here
//!   and over `pga-tsdb`'s sealed blocks.
//! * [`storefile`] — immutable sorted runs with a sparse seek index (the
//!   HFile analog), held in memory.
//! * [`scanner`] — scan replies as shared runs of cells, and the k-way
//!   merge across the memstore and store files.
//! * [`region`] — a contiguous row range: WAL + memstore + store files,
//!   with flush, compaction and midpoint splits.
//! * [`rewrite`] — pluggable compaction rewriters (HBase-coprocessor
//!   style); `pga-tsdb` uses this to seal finished rows into columnar
//!   blocks.
//! * [`server`] — a region server: an RPC thread (bounded queue from
//!   [`pga_cluster::rpc`]) serving puts/scans over the regions assigned
//!   to it.
//! * [`master`] — region directory, table creation with pre-splits
//!   (§III-B: "HBase regions were manually split to ensure each region
//!   handled an equal proportion of the writes"), liveness via the
//!   coordinator and reassignment of regions from dead servers.
//! * [`client`] — routing client with retry-on-stale-directory, quorum
//!   puts, and blocking, admitted and hedged scans.
//! * [`scrub`] — background corruption scrub: a pluggable cell verifier,
//!   a quarantine set, and a repair pass that re-fetches corrupt spans
//!   from healthy replicas (CRC round-trip before install).
//! * [`fault`] — injectable fault plane (no-op by default) used by the
//!   `pga-faultsim` deterministic crash/partition harness.
//!
//! Nothing here touches disk. The paper's durability comes from HDFS;
//! here it is the WAL plus region replicas, in process: a crashed server
//! loses its memstore, its unflushed writes replay from the WAL, and a
//! dead primary's regions fail over to a follower copy. The
//! `pga-faultsim` campaigns check that no acked write is lost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod client;
pub mod crc;
pub mod fault;
pub mod kv;
pub mod master;
pub mod memstore;
pub mod region;
pub mod rewrite;
pub mod scanner;
pub mod scrub;
pub mod server;
pub mod storefile;
pub mod wal;

pub use batch::PutBatch;
pub use client::{concat_region_scans, Client, ClientError, PendingScan, RepairCopy};
pub use crc::{crc32, crc32_extend};
pub use fault::{no_faults, FaultHandle, FaultPlane, NoFaults};
pub use kv::{CellRef, ColumnRange, KeyValue, RowRange, RowWords, ScanSpec};
pub use master::{locate, Master, PlacementError, RegionInfo, TableDescriptor};
pub use memstore::MemStore;
pub use region::{Region, RegionConfig, RegionId};
pub use rewrite::{CompactionRewriter, RewriteContext, RewriterHandle, RowWriter};
pub use scanner::{merge_scan, ScanCells};
pub use scrub::{
    scrub_tick, CellVerifier, QuarantineKey, ScrubFinding, ScrubState, ScrubTickReport,
    VerifierHandle,
};
pub use server::{RegionServer, Request, Response, ServerConfig};
pub use storefile::StoreFile;
pub use wal::{WalDecodeReport, WriteAheadLog, MAX_KEY_LEN};
