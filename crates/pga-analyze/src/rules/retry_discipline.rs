//! R5 `retry-discipline`: request-serving modules must not retry with a
//! fixed sleep or buffer through unbounded channels. A fixed sleep in a
//! retry loop synchronizes clients into retry storms exactly when the
//! system is overloaded (use jittered exponential backoff, as the
//! `pga-ingest` proxy's `pause` between forwarding attempts does); an
//! unbounded channel turns overload into unbounded memory growth instead
//! of typed backpressure.

use crate::rules::{Rule, Violation, Workspace};
use crate::source::SourceFile;
use crate::tokenizer::Token;

/// (crate, modules) pairs forming the request-serving surface. An empty
/// module list means the whole crate.
const SCOPE: &[(&str, &[&str])] = &[
    ("pga-ingest", &["proxy"]),
    ("pga-minibase", &["server", "region", "master"]),
    ("pga-tsdb", &["api", "tsd"]),
    ("pga-cluster", &["rpc"]),
    ("pga-query", &[]),
    ("pga-repl", &[]),
    // Scheduler workers never sleep: an idle worker ends as soon as the
    // shared queue is empty, and a fixed sleep would hold the whole
    // set's critical path.
    ("pga-sched", &[]),
];

fn in_scope(f: &SourceFile) -> bool {
    let top = f.module.first().map(String::as_str);
    SCOPE.iter().any(|(krate, modules)| {
        f.krate == *krate
            && (modules.is_empty() || top.map(|m| modules.contains(&m)).unwrap_or(false))
    })
}

/// Is `tokens[i]` the name of a call, i.e. followed by `(`?
fn is_call(tokens: &[Token], i: usize) -> bool {
    tokens.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
}

/// Token index ranges of `loop` / `while` / `for` bodies, by brace
/// matching from the first `{` after each keyword. Nested loops yield
/// nested (overlapping) spans, which is fine — a sleep inside any loop
/// body is flagged once per enclosing scan below.
fn loop_body_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("loop") || t.is_ident("while") || t.is_ident("for")) {
            continue;
        }
        let Some(open) = (i + 1..tokens.len()).find(|&j| tokens[j].is_punct('{')) else {
            continue;
        };
        let mut depth = 0usize;
        for (j, tok) in tokens.iter().enumerate().skip(open) {
            if tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    spans.push((open, j));
                    break;
                }
            }
        }
    }
    spans
}

pub struct RetryDiscipline;

impl Rule for RetryDiscipline {
    fn id(&self) -> &'static str {
        "retry-discipline"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        for f in ws.files.iter().filter(|f| in_scope(f)) {
            let toks = &f.lexed.tokens;
            let spans = loop_body_spans(toks);
            let mut flagged_sleeps = std::collections::BTreeSet::new();
            for &(open, close) in &spans {
                for i in open..=close {
                    let t = &toks[i];
                    if t.is_ident("sleep") && is_call(toks, i) && flagged_sleeps.insert(i) {
                        out.push(Violation {
                            rule: self.id(),
                            file: f.path.clone(),
                            line: t.line,
                            message: "fixed sleep inside a retry loop; use jittered \
                                      exponential backoff"
                                .into(),
                        });
                    }
                }
            }
            for (i, t) in toks.iter().enumerate() {
                let unbounded_ctor = t.is_ident("unbounded") && is_call(toks, i);
                let mpsc_channel = t.is_ident("channel")
                    && is_call(toks, i)
                    && i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident("mpsc");
                if unbounded_ctor || mpsc_channel {
                    out.push(Violation {
                        rule: self.id(),
                        file: f.path.clone(),
                        line: t.line,
                        message: "unbounded channel on a serving path; bound the queue \
                                  so overload becomes backpressure, not memory growth"
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
