//! Workspace-wide call graph with per-function summaries — the
//! interprocedural backbone of R6 (deadline propagation); R3 (lock
//! discipline) shares its stoplist.
//!
//! Resolution is name-based and deliberately conservative: a call site
//! resolves to a definition only when the callee name is unambiguous —
//! defined exactly once in the caller's crate, or failing that exactly
//! once in the whole workspace (cross-crate resolution). Names on the
//! stoplist (std/collection method names that would fabricate edges) and
//! ambiguous names never resolve. A missing edge costs a rule some
//! recall; a fabricated edge costs false positives, which is worse.

use std::collections::BTreeMap;

use crate::rules::Workspace;
use crate::tokenizer::{Token, TokenKind};

/// Callee names never resolved through the name-based call graph: they
/// collide with std/collection methods and would fabricate edges.
pub const CALL_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "from",
    "into",
    "try_from",
    "eq",
    "cmp",
    "hash",
    "next",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "contains",
    "contains_key",
    "entry",
    "extend",
    "drain",
    "clear",
    "take",
    "send",
    "recv",
    "try_send",
    "try_recv",
    "join",
    "spawn",
    "min",
    "max",
    "abs",
    "name",
    "id",
    "to_string",
    "as_str",
    "as_ref",
    "as_mut",
    "unwrap_or",
    "map",
    "and_then",
    "ok",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "retain",
    "sort",
    "sort_by",
    "split",
    "merge",
    "start",
    "stop",
    "close",
    "reset",
    "load",
    "store",
    "swap",
];

/// Keywords that look like `ident (` but are not calls.
pub const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "fn", "loop", "in", "let", "else", "move", "pub",
    "impl", "where", "as", "ref", "mut", "box", "unsafe",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written (`call_with` for `handle.call_with(..)`).
    pub callee: String,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// Token index of the opening `(` of the argument list.
    pub args_start: usize,
    /// Token index of the matching `)`.
    pub args_end: usize,
}

/// One function definition with its interprocedural summary.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the defining file in `Workspace::files`.
    pub file_idx: usize,
    /// Owning crate (`pga-minibase`).
    pub krate: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Defined inside a `#[cfg(test)]` region or `#[test]` fn?
    pub in_test: bool,
    /// Parameter binding names (`deadline_ms`), receiver `self`
    /// excluded. Pattern parameters keep the last identifier of the
    /// pattern; `_` placeholders are kept verbatim.
    pub params: Vec<String>,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
}

impl FnNode {
    /// Does any parameter name contain `needle` (case-insensitive)?
    pub fn has_param_containing(&self, needle: &str) -> bool {
        self.params
            .iter()
            .any(|p| p.to_lowercase().contains(needle))
    }
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// All non-test function definitions, in file/source order.
    pub fns: Vec<FnNode>,
    /// `resolved[f][c]` = definition index the `c`-th call site of
    /// function `f` resolves to, if unambiguous.
    pub resolved: Vec<Vec<Option<usize>>>,
    by_crate: BTreeMap<(String, String), Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Find the matching close token for the open delimiter at `open`,
/// balancing only that delimiter pair.
fn matching(tokens: &[Token], open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Skip a generics list starting at `i` (which must be `<`). Returns the
/// index one past the closing `>`. The `>` of a `->` arrow inside bounds
/// (`F: Fn() -> u64`) is not a closer.
fn skip_generics(tokens: &[Token], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(j >= 1 && tokens[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Parse the parameter list of the signature starting at `sig_start`
/// (the `fn` keyword). Receiver `self` parameters are dropped.
fn parse_params(tokens: &[Token], sig_start: usize, body_start: usize) -> Vec<String> {
    let mut i = sig_start + 2; // past `fn name`
    if tokens.get(i).map(|t| t.is_punct('<')).unwrap_or(false) {
        match skip_generics(tokens, i) {
            Some(past) => i = past,
            None => return Vec::new(),
        }
    }
    if !tokens.get(i).map(|t| t.is_punct('(')).unwrap_or(false) {
        return Vec::new();
    }
    let Some(close) = matching(tokens, i, '(', ')') else {
        return Vec::new();
    };
    if close > body_start {
        return Vec::new();
    }

    // Split `i+1 .. close` on top-level commas.
    let mut params = Vec::new();
    let mut seg_start = i + 1;
    let mut paren = 0i32;
    let mut square = 0i32;
    let mut angle = 0i32;
    let mut j = i + 1;
    while j <= close {
        let t = &tokens[j];
        let top_level = paren == 0 && square == 0 && angle == 0;
        if (t.is_punct(',') && top_level) || j == close {
            if let Some(p) = parse_param_segment(&tokens[seg_start..j]) {
                params.push(p);
            }
            seg_start = j + 1;
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            square += 1;
        } else if t.is_punct(']') {
            square -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(j >= 1 && tokens[j - 1].is_punct('-')) {
            angle -= 1;
        }
        j += 1;
    }
    params
}

/// The name in one comma-separated parameter segment: `mut name: Type`.
fn parse_param_segment(seg: &[Token]) -> Option<String> {
    let colon = seg.iter().position(|t| t.is_punct(':'))?;
    // `self: Arc<Self>` and plain receivers are not data parameters.
    if seg[..colon].iter().any(|t| t.is_ident("self")) {
        return None;
    }
    let name = seg[..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut"))?;
    Some(name.text.clone())
}

/// Collect call sites in `body_start..body_end`: `ident (` that is not a
/// keyword, macro, or stoplisted pseudo-call. Method calls (`recv.f(..)`)
/// and free calls (`f(..)`) are both recorded under the bare name.
fn collect_calls(tokens: &[Token], body_start: usize, body_end: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for i in body_start..body_end {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if !tokens.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
            continue;
        }
        let Some(close) = matching(tokens, i + 1, '(', ')') else {
            continue;
        };
        calls.push(CallSite {
            callee: t.text.clone(),
            line: t.line,
            args_start: i + 1,
            args_end: close,
        });
    }
    calls
}

impl CallGraph {
    /// Build the graph over every non-test function in the workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut fns = Vec::new();
        for (file_idx, f) in ws.files.iter().enumerate() {
            let toks = &f.lexed.tokens;
            for span in &f.fns {
                let in_test = f.is_test_line(span.line);
                fns.push(FnNode {
                    file_idx,
                    krate: f.krate.clone(),
                    file: f.path.clone(),
                    name: span.name.clone(),
                    in_test,
                    params: parse_params(toks, span.sig_start, span.body_start),
                    calls: collect_calls(toks, span.body_start, span.body_end),
                });
            }
        }

        // Candidate indices per name; test-only definitions are excluded
        // so a prod call never resolves into a test helper.
        let mut by_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            by_crate
                .entry((f.krate.clone(), f.name.clone()))
                .or_default()
                .push(idx);
            by_name.entry(f.name.clone()).or_default().push(idx);
        }

        let mut graph = CallGraph {
            resolved: Vec::with_capacity(fns.len()),
            fns,
            by_crate,
            by_name,
        };
        for caller in 0..graph.fns.len() {
            let row = graph.fns[caller]
                .calls
                .iter()
                .map(|site| graph.resolve(caller, &site.callee))
                .collect();
            graph.resolved.push(row);
        }
        graph
    }

    /// Resolve `callee` as seen from `caller`: same-crate-unique first,
    /// then workspace-unique; stoplisted and ambiguous names never
    /// resolve.
    pub fn resolve(&self, caller: usize, callee: &str) -> Option<usize> {
        if CALL_STOPLIST.contains(&callee) {
            return None;
        }
        let krate = &self.fns[caller].krate;
        if let Some(cands) = self.by_crate.get(&(krate.clone(), callee.to_string())) {
            return if cands.len() == 1 {
                Some(cands[0])
            } else {
                // Multiple same-crate definitions: ambiguous, full stop.
                None
            };
        }
        match self.by_name.get(callee) {
            Some(cands) if cands.len() == 1 => Some(cands[0]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn ws(files: &[(&str, &str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(path, krate, text)| SourceFile::with_origin(path, krate, &[], text))
                .collect(),
        }
    }

    #[test]
    fn params_parse_names() {
        let ws = ws(&[(
            "a.rs",
            "k",
            "fn f(mut deadline_ms: Option<u64>, x: &mut Vec<(u8, u8)>) -> bool { true }\n",
        )]);
        let g = CallGraph::build(&ws);
        let f = &g.fns[0];
        assert_eq!(f.params, ["deadline_ms", "x"]);
        assert!(f.has_param_containing("deadline"));
    }

    #[test]
    fn receiver_and_generics_are_skipped() {
        let ws = ws(&[(
            "a.rs",
            "k",
            "impl T { fn g<F: Fn(u64) -> bool>(&mut self, pred: F) -> bool { pred(1) } }\n",
        )]);
        let g = CallGraph::build(&ws);
        let f = &g.fns[0];
        assert_eq!(f.params, ["pred"]);
        // `pred(1)` is recorded as a call site even though it can't
        // resolve to a definition.
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].callee, "pred");
    }

    #[test]
    fn resolution_prefers_same_crate_then_unique_workspace() {
        let ws = ws(&[
            (
                "a.rs",
                "ka",
                "fn target() {}\nfn caller() { target(); far(); }\n",
            ),
            ("b.rs", "kb", "fn target() {}\nfn far() {}\n"),
        ]);
        let g = CallGraph::build(&ws);
        let caller = g.fns.iter().position(|f| f.name == "caller").unwrap();
        let a_target = g
            .fns
            .iter()
            .position(|f| f.name == "target" && f.krate == "ka")
            .unwrap();
        let far = g.fns.iter().position(|f| f.name == "far").unwrap();
        assert_eq!(g.resolve(caller, "target"), Some(a_target));
        assert_eq!(g.resolve(caller, "far"), Some(far));
        assert_eq!(g.resolve(caller, "new"), None);
    }

    #[test]
    fn ambiguous_same_crate_name_never_resolves() {
        let ws = ws(&[(
            "a.rs",
            "k",
            "fn scan() {}\nmod inner { fn scan() {} }\nfn c() { scan(); }\n",
        )]);
        let g = CallGraph::build(&ws);
        let c = g.fns.iter().position(|f| f.name == "c").unwrap();
        assert_eq!(g.resolve(c, "scan"), None);
    }
}
