//! `pga-analyze` — workspace lint engine and interleaving model checker.
//!
//! The static half lexes every first-party source file with a hand-rolled
//! tokenizer (the vendor tree has no parser crates), builds a
//! workspace-wide [`callgraph`] (per-function parameter/call summaries,
//! unambiguous cross-crate name resolution), and runs five rules over
//! the token streams:
//!
//! - `determinism` — no ambient time/entropy on the deterministic-replay
//!   surface (`pga-sensorgen`, `pga-faultsim`, `pga-repl`, `pga-sched`,
//!   `pga-query`, `pga-cluster::sim`, `pga-minibase::scrub`)
//! - `panic-path` — no `unwrap`/`expect`/direct indexing in
//!   request-serving modules
//! - `lock-discipline` — acyclic static lock-order graph, no guard held
//!   across a lock-acquiring call
//! - `retry-discipline` — no fixed sleeps in serving retry loops, no
//!   unbounded channels on serving paths
//! - `deadline-propagation` — serving functions that receive a deadline
//!   must forward it into deadline-capable downstream calls
//!
//! Each rule has a test that mutates one real site of the workspace and
//! sees the rule fire there (`tests/workspace.rs`).
//!
//! Deliberate violations carry `// pga-allow(<rule>): <reason>` escape
//! hatches; annotations that no longer suppress anything, or that name
//! no rule, are themselves reported. `--deny-all` turns any unsuppressed
//! finding into a non-zero exit for CI. The dynamic half ([`interleave`])
//! explores every interleaving of the replication protocol's model, with
//! a state-deduplicating explorer. See ANALYSIS.md at the workspace root
//! for the full rule catalogue.

pub mod callgraph;
pub mod cli;
pub mod engine;
pub mod interleave;
pub mod rules;
pub mod source;
pub mod tokenizer;
