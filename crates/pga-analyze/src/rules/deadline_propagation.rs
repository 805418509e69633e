//! R6 `deadline-propagation`: on the serving path, a function that
//! *receives* a deadline must *forward* it into every downstream call
//! that could carry one. PR 4 threaded `deadline_ms: Option<u64>` from
//! the ingest pipeline through the minibase client into the region-server
//! RPC layer; the contract rots silently when a new hop accepts the
//! deadline and then calls a deadline-capable helper without passing it —
//! the tail of the request runs unbounded and the caller's deadline
//! becomes a lie.
//!
//! Detection is interprocedural over the [`crate::callgraph`]: a call
//! site is flagged when (a) the enclosing function has a parameter whose
//! name contains `deadline`, (b) the callee resolves unambiguously to a
//! definition that also has a `deadline` parameter (it is
//! deadline-capable), and (c) no identifier containing `deadline` appears
//! in the argument list — neither the parameter itself nor a struct
//! field carrying it. Passing a literal `None` is deliberately a finding:
//! dropping a live deadline on the floor deserves at least a written
//! `pga-allow` justification (repair traffic that must finish is the
//! known case).

use crate::callgraph::CallGraph;
use crate::rules::{Rule, Violation, Workspace};
use crate::source::SourceFile;
use crate::tokenizer::TokenKind;

/// Does this file sit on the deadline-carrying serving path?
fn in_scope(f: &SourceFile) -> bool {
    let top = f.module.first().map(String::as_str);
    match f.krate.as_str() {
        // The ingest proxy: writes block rather than expire today, but a
        // deadline it ever takes must flow downstream.
        "pga-ingest" => true,
        // The storage client threads them into every read RPC.
        "pga-minibase" => top == Some("client"),
        // The TSD layer serves reads under the same budgets.
        "pga-tsdb" => true,
        // The RPC layer is where a forwarded deadline becomes enforcement.
        "pga-cluster" => top == Some("rpc"),
        // Scatter-gather shard scans carry per-shard deadlines.
        "pga-query" => true,
        // Replication ships and backfills run under caller deadlines.
        "pga-repl" => true,
        _ => false,
    }
}

pub struct DeadlinePropagation;

impl Rule for DeadlinePropagation {
    fn id(&self) -> &'static str {
        "deadline-propagation"
    }

    fn describe(&self) -> &'static str {
        "serving functions that receive a deadline must forward it into deadline-capable downstream calls"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let graph = CallGraph::build(ws);
        for (idx, node) in graph.fns.iter().enumerate() {
            if node.in_test || !node.has_param_containing("deadline") {
                continue;
            }
            if !in_scope(&ws.files[node.file_idx]) {
                continue;
            }
            let toks = &ws.files[node.file_idx].lexed.tokens;
            for (site_idx, site) in node.calls.iter().enumerate() {
                let Some(callee_idx) = graph.resolved[idx][site_idx] else {
                    continue;
                };
                if callee_idx == idx {
                    // Self-recursion re-entering with a narrowed budget is
                    // the callee's own business.
                    continue;
                }
                let callee = &graph.fns[callee_idx];
                if !callee.has_param_containing("deadline") {
                    continue;
                }
                let forwards = toks[site.args_start + 1..site.args_end].iter().any(|t| {
                    t.kind == TokenKind::Ident && t.text.to_lowercase().contains("deadline")
                });
                if forwards {
                    continue;
                }
                out.push(Violation {
                    rule: self.id(),
                    file: node.file.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` receives a deadline but calls deadline-capable `{}` without forwarding it; the downstream hop runs unbounded — pass the deadline through (or pga-allow with why this call may outlive it)",
                        node.name, callee.name,
                    ),
                });
            }
        }
    }
}
