//! R4 `relaxed-atomics`: audit `Ordering::Relaxed` loads on the consume
//! side of cross-thread handshakes. The heuristic: a function that
//! relaxed-loads one declared atomic field *and* reads two or more
//! distinct atomic fields is assembling a multi-field snapshot — exactly
//! the shape of a telemetry sampler reading a layer's counters — and
//! relaxed loads give it no cross-field consistency. Single-field relaxed counters are
//! fine and stay silent.
//!
//! Loads laundered through local bindings (`let c = &self.count;` then
//! `c.load(Relaxed)`) are traced via a per-function alias map, so an
//! alias can't hide a snapshot field from the heuristic (this closed the
//! miss the first shipping of R4 documented).

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{Rule, Violation, Workspace};
use crate::tokenizer::{Token, TokenKind};

/// Atomic type names whose field declarations we index.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicU64",
    "AtomicU32",
    "AtomicUsize",
    "AtomicU8",
    "AtomicI64",
    "AtomicBool",
];

/// Collect `name: AtomicX` field declarations across the workspace.
fn declared_atomic_fields(ws: &Workspace) -> BTreeSet<String> {
    let mut fields = BTreeSet::new();
    for f in &ws.files {
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            if toks[i].kind == TokenKind::Ident
                && ATOMIC_TYPES.contains(&toks[i].text.as_str())
                && i >= 2
                && toks[i - 1].is_punct(':')
                && toks[i - 2].kind == TokenKind::Ident
            {
                fields.insert(toks[i - 2].text.clone());
            }
        }
    }
    fields
}

/// For a `load` ident at `i` (preceded by `.`, followed by `(`), find the
/// atomic field being loaded: `.field.load(..)` or `.field[..].load(..)`.
fn loaded_field(tokens: &[Token], i: usize, fields: &BTreeSet<String>) -> Option<String> {
    let mut j = i.checked_sub(2)?; // skip the `.` before `load`
    if tokens[j].is_punct(']') {
        let mut depth = 0i32;
        loop {
            if tokens[j].is_punct(']') {
                depth += 1;
            } else if tokens[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    let field = &tokens[j];
    if field.kind == TokenKind::Ident
        && fields.contains(&field.text)
        && j >= 1
        && tokens[j - 1].is_punct('.')
    {
        Some(field.text.clone())
    } else {
        None
    }
}

/// Local aliases of atomic fields declared in `span`:
/// `let c = &self.count;` / `let c = &registry.count;` map `c` →
/// `count` when `count` is a declared atomic field. Only simple
/// `let <ident> = & <path> . <field> ;` bindings are traced — enough to
/// see through the one-hop laundering the snapshot paths actually use.
fn alias_map(
    tokens: &[Token],
    body_start: usize,
    body_end: usize,
    fields: &BTreeSet<String>,
) -> BTreeMap<String, String> {
    let mut aliases = BTreeMap::new();
    let mut i = body_start;
    while i + 4 < body_end {
        let is_binding = tokens[i].is_ident("let")
            && tokens[i + 1].kind == TokenKind::Ident
            && tokens[i + 2].is_punct('=')
            && tokens[i + 3].is_punct('&');
        if !is_binding {
            i += 1;
            continue;
        }
        // Find the statement's `;` within a short window and require the
        // expression to end `. field ;` with a declared atomic field.
        let mut j = i + 4;
        let limit = (i + 16).min(body_end);
        while j < limit && !tokens[j].is_punct(';') {
            j += 1;
        }
        if j < limit
            && j >= 2
            && tokens[j - 1].kind == TokenKind::Ident
            && tokens[j - 2].is_punct('.')
            && fields.contains(&tokens[j - 1].text)
        {
            aliases.insert(tokens[i + 1].text.clone(), tokens[j - 1].text.clone());
        }
        i = j;
    }
    aliases
}

/// For a `load` ident at `i` whose receiver is a bare local (`c.load(..)`),
/// resolve the local through the function's alias map. The receiver must
/// NOT itself be a path segment (`x.c.load(..)` is a field access, handled
/// — or rejected — by [`loaded_field`], not an alias read).
fn aliased_field(tokens: &[Token], i: usize, aliases: &BTreeMap<String, String>) -> Option<String> {
    let j = i.checked_sub(2)?; // skip the `.` before `load`
    let recv = &tokens[j];
    let is_bare_local = recv.kind == TokenKind::Ident && (j == 0 || !tokens[j - 1].is_punct('.'));
    if is_bare_local {
        aliases.get(&recv.text).cloned()
    } else {
        None
    }
}

/// Ordering name inside the `load(..)` argument list, if written literally.
fn load_ordering(tokens: &[Token], open: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('(') {
            depth += 1;
        } else if tokens[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if tokens[j].kind == TokenKind::Ident
            && matches!(tokens[j].text.as_str(), "Relaxed" | "Acquire" | "SeqCst")
        {
            return Some(tokens[j].text.clone());
        }
        j += 1;
    }
    None
}

pub struct RelaxedAtomics;

impl Rule for RelaxedAtomics {
    fn id(&self) -> &'static str {
        "relaxed-atomics"
    }

    fn describe(&self) -> &'static str {
        "flag Ordering::Relaxed loads in functions assembling multi-field atomic snapshots (cross-thread publish/consume handshakes)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let fields = declared_atomic_fields(ws);
        if fields.is_empty() {
            return;
        }
        for f in &ws.files {
            let toks = &f.lexed.tokens;
            for span in &f.fns {
                let aliases = alias_map(toks, span.body_start, span.body_end, &fields);
                let mut loaded: BTreeSet<String> = BTreeSet::new();
                let mut relaxed: Vec<(String, u32)> = Vec::new();
                let mut i = span.body_start;
                while i < span.body_end {
                    let t = &toks[i];
                    let is_load = t.is_ident("load")
                        && i >= 1
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
                    if is_load {
                        let field = loaded_field(toks, i, &fields)
                            .or_else(|| aliased_field(toks, i, &aliases));
                        if let Some(field) = field {
                            loaded.insert(field.clone());
                            if load_ordering(toks, i + 1).as_deref() == Some("Relaxed") {
                                relaxed.push((field, t.line));
                            }
                        }
                    }
                    i += 1;
                }
                if !relaxed.is_empty() && loaded.len() >= 2 {
                    let (first_field, line) = &relaxed[0];
                    let all: Vec<&str> = loaded.iter().map(String::as_str).collect();
                    out.push(Violation {
                        rule: self.id(),
                        file: f.path.clone(),
                        line: *line,
                        message: format!(
                            "`{}` assembles a snapshot of {} atomic fields ({}) with a Relaxed load of `{}`; relaxed loads carry no cross-field consistency — pair with Release/Acquire or document the skew tolerance",
                            span.name,
                            loaded.len(),
                            all.join(", "),
                            first_field,
                        ),
                    });
                }
            }
        }
    }
}
