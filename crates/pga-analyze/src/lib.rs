//! `pga-analyze` — workspace lint engine and interleaving model checker.
//!
//! The static half lexes every first-party source file with a hand-rolled
//! tokenizer (the vendor tree has no parser crates), builds a
//! workspace-wide [`callgraph`] (per-function parameter/call summaries,
//! unambiguous cross-crate name resolution), and runs eight rules over
//! the token streams:
//!
//! - `determinism` — no ambient time/entropy on the deterministic-replay
//!   surface (`pga-sensorgen`, `pga-faultsim`, `pga-repl`, `pga-sched`,
//!   `pga-query`, `pga-cluster::sim`, `pga-minibase::scrub`)
//! - `panic-path` — no `unwrap`/`expect`/direct indexing in
//!   request-serving modules
//! - `lock-discipline` — acyclic static lock-order graph, no guard held
//!   across a lock-acquiring call
//! - `relaxed-atomics` — audit `Ordering::Relaxed` in multi-field
//!   snapshot assembly (including loads laundered through local aliases)
//! - `retry-discipline` — no fixed sleeps in serving retry loops, no
//!   unbounded channels on serving paths
//! - `deadline-propagation` — serving functions that receive a deadline
//!   must forward it into deadline-capable downstream calls
//! - `epoch-fencing` — WAL-apply / region-mutating calls in the
//!   replication plane must be dominated by an epoch check
//! - `config-compat` — fields added to `PlatformConfig`-reachable serde
//!   structs must be `#[serde(default)]` so on-disk configs keep parsing
//!
//! Deliberate violations carry `// pga-allow(<rule>): <reason>` escape
//! hatches; stale annotations that no longer suppress anything are
//! themselves reported. `--deny-all` turns any unsuppressed finding into
//! a non-zero exit for CI. The dynamic half ([`interleave`]) exhaustively
//! explores thread interleavings of instrumented protocol models, now
//! with a state-deduplicating explorer and a replication-protocol model
//! (`--model-check`). See ANALYSIS.md at the workspace root for the full
//! rule catalogue.

pub mod callgraph;
pub mod cli;
pub mod engine;
pub mod interleave;
pub mod rules;
pub mod source;
pub mod tokenizer;
