//! R7 `epoch-fencing`: in the replication plane (`pga-minibase`,
//! `pga-repl`), every WAL-apply or region-mutating call reachable from a
//! ship/promotion RPC must be dominated by an epoch check. PR 6's
//! correctness argument — a deposed primary's ships cannot corrupt a
//! promoted region — rests entirely on `handle_request` comparing the
//! request epoch against the region epoch *before* touching region state;
//! a new code path that reaches a mutator without that comparison
//! re-opens the split-brain window the fencing closed.
//!
//! The dataflow is a dominance approximation over the
//! [`crate::callgraph`]: a mutator call site is *fenced* when an epoch
//! guard (an `epoch`-named identifier in a comparison, a `Fenced`
//! rejection arm, or a `check_epoch` call) appears earlier in the same
//! function body, or when the enclosing function is only ever reached
//! through fenced call sites (computed as a greatest fixpoint over the
//! resolved caller edges, so `apply_replicated`'s internal
//! `append_batch_with_seq` inherits the fence performed by
//! `handle_request`). "Earlier in the body" is a lint-grade stand-in for
//! true dominance: the rule trusts an early-return guard rather than
//! proving every path; the reviewer owns the branch structure.

use crate::callgraph::CallGraph;
use crate::rules::{Rule, Violation, Workspace};
use crate::tokenizer::{Token, TokenKind};

/// Region-mutating / WAL-exposing entry points that must sit behind a
/// fence. `wal_batches_after` is read-only but leaks WAL contents a
/// deposed primary must not serve as backfill authority, so it counts.
/// `replace_cell_value` is the repair install the region server makes for
/// a `Repair` request: the scrubber installs a payload it fetched under
/// some epoch, so the install must re-check that epoch — otherwise a
/// promotion racing the repair lets a deposed primary's bytes masquerade
/// as a verified repair.
const MUTATORS: &[&str] = &[
    "apply_replicated",
    "put_batch",
    "append_batch_with_seq",
    "wal_batches_after",
    "replace_cell_value",
];

/// Crates forming the replication plane.
fn in_scope(krate: &str) -> bool {
    matches!(krate, "pga-minibase" | "pga-repl")
}

/// Is there an epoch guard in `tokens[from..to]`? Recognised shapes:
/// - an identifier containing `epoch` adjacent to a comparison
///   (`r.epoch() != epoch`, `req_epoch == self.epoch`, `epoch < cur`),
/// - a `Fenced` rejection arm,
/// - a `check_epoch` helper call.
fn has_guard(tokens: &[Token], from: usize, to: usize) -> bool {
    for i in from..to {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Fenced" || t.text == "check_epoch" {
            return true;
        }
        if !t.text.to_lowercase().contains("epoch") {
            continue;
        }
        // Look for a comparison operator within a few tokens on either
        // side: `!=` / `==` as adjacent punct pairs, or a relational
        // `<` / `>` (signature generics never appear inside a body scan).
        let lo = i.saturating_sub(4);
        let hi = (i + 4).min(to.saturating_sub(1));
        for j in lo..hi {
            let a = &tokens[j];
            let b = &tokens[j + 1];
            let eq_pair =
                (a.is_punct('!') || a.is_punct('=') || a.is_punct('<') || a.is_punct('>'))
                    && b.is_punct('=');
            let relational = a.is_punct('<') || a.is_punct('>');
            if eq_pair || relational {
                return true;
            }
        }
    }
    false
}

pub struct EpochFencing;

impl Rule for EpochFencing {
    fn id(&self) -> &'static str {
        "epoch-fencing"
    }

    fn describe(&self) -> &'static str {
        "WAL-apply / region-mutating calls in the replication plane must be dominated by an epoch check"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let graph = CallGraph::build(ws);
        let n = graph.fns.len();

        // Greatest fixpoint: start by assuming every function with at
        // least one resolved caller is reached only through fenced sites,
        // then strike out any whose caller reaches it unfenced from a
        // function that is itself not fence-protected. Call cycles
        // resolve permissively (both stay protected) — lint-grade, and
        // the replication plane has none.
        let site_fenced = |caller: usize, site: usize| -> bool {
            let f = &graph.fns[caller];
            let toks = &ws.files[f.file_idx].lexed.tokens;
            has_guard(toks, f.body_start, f.calls[site].tok)
        };
        let mut ctx_fenced: Vec<bool> = (0..n).map(|i| !graph.callers[i].is_empty()).collect();
        loop {
            let mut changed = false;
            for i in 0..n {
                if !ctx_fenced[i] {
                    continue;
                }
                let exposed = graph.callers[i]
                    .iter()
                    .any(|&(caller, site)| !site_fenced(caller, site) && !ctx_fenced[caller]);
                if exposed {
                    ctx_fenced[i] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        for (idx, node) in graph.fns.iter().enumerate() {
            if node.in_test || !in_scope(&node.krate) {
                continue;
            }
            for (site_idx, site) in node.calls.iter().enumerate() {
                if !MUTATORS.contains(&site.callee.as_str()) {
                    continue;
                }
                if site_fenced(idx, site_idx) || ctx_fenced[idx] {
                    continue;
                }
                out.push(Violation {
                    rule: self.id(),
                    file: node.file.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` calls region mutator `{}` without a dominating epoch check (no epoch comparison or Fenced arm earlier in the body, and some caller reaches `{}` unfenced); a deposed primary could mutate a promoted region — compare request epoch against region epoch first",
                        node.name, site.callee, node.name,
                    ),
                });
            }
        }
    }
}
