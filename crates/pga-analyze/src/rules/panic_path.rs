//! R2 `panic-path`: request-serving modules must not contain
//! `.unwrap()` / `.expect(..)` / direct `container[index]` indexing. A
//! panic on a serving path takes down a region server or the ingest proxy
//! — overload handling in this system is *designed* around crash
//! semantics, so unplanned panics are indistinguishable from load shed.

use crate::rules::{Rule, Violation, Workspace};
use crate::source::SourceFile;
use crate::tokenizer::{Token, TokenKind};

/// (crate, modules) pairs forming the request-serving surface. An empty
/// module list means the whole crate.
const SCOPE: &[(&str, &[&str])] = &[
    ("pga-ingest", &["proxy"]),
    ("pga-minibase", &["server", "region", "master", "scrub"]),
    ("pga-tsdb", &["api", "block", "compact"]),
    ("pga-cluster", &["rpc"]),
    // The scheduler's task set runs under every training round; a
    // panic there poisons the whole batch. The executor module
    // is excluded: it *catches* task panics by design (`catch_unwind`)
    // and its own joins are infallible merges — ANALYSIS.md records the
    // rationale.
    ("pga-sched", &["tasks"]),
];

fn in_scope(f: &SourceFile) -> bool {
    let top = f.module.first().map(String::as_str);
    SCOPE.iter().any(|(krate, modules)| {
        f.krate == *krate
            && (modules.is_empty() || top.map(|m| modules.contains(&m)).unwrap_or(false))
    })
}

/// Rust keywords that can directly precede `[` without it being an index
/// expression on a value (slice patterns, array types, attributes…).
const NON_VALUE_IDENTS: &[&str] = &[
    "mut", "ref", "in", "as", "dyn", "impl", "where", "return", "break", "else", "match", "if",
    "let", "const", "static", "type", "fn",
];

/// Is `tokens[open]` (a `[`) an index *expression* — i.e. applied to a
/// value — rather than a type, attribute, pattern, or `vec![..]` macro?
fn is_index_expr(tokens: &[Token], open: usize) -> bool {
    let Some(prev) = open.checked_sub(1).and_then(|p| tokens.get(p)) else {
        return false;
    };
    match prev.kind {
        TokenKind::Ident => !NON_VALUE_IDENTS.contains(&prev.text.as_str()),
        TokenKind::Punct => {
            // `foo()[i]`, `foo[i][j]` index; `![` is a macro, everything
            // else (`=`, `(`, `,`, `&`, `:`) starts a type/pattern/array.
            prev.is_punct(')') || prev.is_punct(']')
        }
        _ => false,
    }
}

pub struct PanicPath;

impl Rule for PanicPath {
    fn id(&self) -> &'static str {
        "panic-path"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        for f in ws.files.iter().filter(|f| in_scope(f)) {
            let toks = &f.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                // `.unwrap(` / `.expect(` — exact names, so `unwrap_or`
                // and friends stay legal.
                if (t.is_ident("unwrap") || t.is_ident("expect"))
                    && i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                {
                    out.push(Violation {
                        rule: self.id(),
                        file: f.path.clone(),
                        line: t.line,
                        message: format!(
                            ".{}() on a request-serving path; propagate a typed error instead",
                            t.text
                        ),
                    });
                    continue;
                }
                // Direct indexing `container[index]`. A full-range slice
                // `x[..]` cannot panic and stays legal.
                let full_range = toks.get(i + 1).map(|n| n.is_punct('.')).unwrap_or(false)
                    && toks.get(i + 2).map(|n| n.is_punct('.')).unwrap_or(false)
                    && toks.get(i + 3).map(|n| n.is_punct(']')).unwrap_or(false);
                if t.is_punct('[') && !full_range && is_index_expr(toks, i) {
                    out.push(Violation {
                        rule: self.id(),
                        file: f.path.clone(),
                        line: t.line,
                        message:
                            "direct indexing on a request-serving path; use .get() and handle None"
                                .into(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_scoped_crate_and_module_exists() {
        crate::rules::assert_scope_exists(super::SCOPE);
    }
}
