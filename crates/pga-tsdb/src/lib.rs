//! A time-series database layer in the mould of OpenTSDB (§III of the
//! paper), built on [`pga_minibase`].
//!
//! "OpenTSDB organizes time series data into metrics and allows for the
//! assignment of multiple tags per metric. … The simulated data generated
//! for this project is stored into a metric called 'energy' with tags for
//! 'unit' and 'sensor'." (§III-A)
//!
//! * [`uid`] — string → fixed-width UID assignment for metrics, tag keys
//!   and tag values (OpenTSDB's `tsdb-uid` table).
//! * [`codec`] — the binary row-key layout, **including the salt byte**
//!   whose addition §III-B credits with "a dramatic increase to the
//!   ingestion rate", plus qualifier/value encoding.
//! * [`series`] — the series table: a `(metric, tags)` name resolved once
//!   into a dense id and its TSUID, so the write path stops re-encoding
//!   the same names for every sample.
//! * [`runs`] — series runs: a put's points grouped by series once, the
//!   form the TSD's put body and its write-path observer read.
//! * [`tsd`] — the TSD daemon: put/query over a MiniBase client, RPC
//!   accounting, optional write-path row compaction (the paper disables it
//!   "to reduce RPC calls to HBase"; the ablation E8 measures exactly
//!   that).
//! * [`block`] — the columnar sealed-block codec: delta-of-delta
//!   timestamps + Gorilla XOR floats behind a checksummed header.
//! * [`compact`] — the compaction rewriter that seals finished rows into
//!   canonical blocks during MiniBase compaction.
//! * [`query`] — series assembly, tag filtering, downsampling aggregators,
//!   and the columnar [`ColumnSeries`] form block scans decode into.
//! * [`api`] — the OpenTSDB-compatible JSON API (`/api/put`, `/api/query`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod block;
pub mod codec;
pub mod compact;
pub mod query;
pub mod runs;
pub mod series;
pub mod tsd;
pub mod uid;

pub use api::{
    handle_put, handle_query, handle_query_with, handle_suggest, parse_downsample, ApiError,
    DegradedBody, ExecOutcome, PartialInfo, PutDatapoint, QueryExecutor, QueryRequest,
    QueryResponseSeries, ShardError, SubQuery,
};
pub use block::{
    decode_block, encode_block, is_block_qualifier, peek_header, verify_block, BlockError,
    DecodedBlock, BLOCK_MAGIC, BLOCK_QUALIFIER, BLOCK_VERSION,
};
pub use codec::{KeyCodec, KeyCodecConfig};
pub use compact::BlockRewriter;
pub use query::{
    aggregate_series, Aggregator, Assembler, ColumnSeries, CorruptBlock, DataPoint, QueryFilter,
    SeriesPoints, TimeSeries,
};
pub use runs::{SeriesPoint, SeriesRun, SeriesRuns};
pub use series::Series;
pub use tsd::{
    block_verifier, BatchPoint, BlockVerifier, PutObserver, Tsd, TsdConfig, TsdError, TsdMetrics,
};
pub use uid::{Uid, UidTable};
