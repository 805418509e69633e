//! Source-file model: origin (crate + module path), lexed tokens,
//! `pga-allow` escape hatches, test-region masking, and function spans.

use std::path::Path;

use crate::tokenizer::{tokenize, Lexed, Token, TokenKind};

/// One `// pga-allow(rule-a, rule-b): reason` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the annotation sits on. It suppresses violations on
    /// this line and the next (comment-above style), so both trailing and
    /// preceding placements work.
    pub line: u32,
    /// Rule ids the annotation covers.
    pub rules: Vec<String>,
    /// Mandatory free-text justification.
    pub reason: String,
}

/// A malformed `pga-allow` annotation — reported as a violation so CI
/// catches typos instead of silently not suppressing.
#[derive(Debug, Clone)]
pub struct BadAllow {
    /// Line of the malformed annotation.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// Span of one `fn` item: name plus signature and body token ranges.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword itself — the signature (generics,
    /// parameter list, return type) spans `sig_start..body_start`.
    pub sig_start: usize,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index one past the body's closing `}`.
    pub body_end: usize,
}

/// One workspace source file, lexed and classified.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative display path.
    pub path: String,
    /// Owning crate (`pga-minibase`).
    pub krate: String,
    /// Module path inside the crate (`["server"]`; empty for the root).
    pub module: Vec<String>,
    /// Lexed tokens (comments separated out).
    pub lexed: Lexed,
    /// Escape hatches found in comments.
    pub allows: Vec<Allow>,
    /// Malformed escape hatches.
    pub bad_allows: Vec<BadAllow>,
    /// Inclusive line ranges of `#[cfg(test)]` modules and `#[test]` fns.
    pub test_ranges: Vec<(u32, u32)>,
    /// Top-level and nested `fn` spans, in source order.
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lex `text` under an explicit origin. Fixture tests use this to
    /// place a file inside any crate/module scope.
    pub fn with_origin(path: &str, krate: &str, module: &[&str], text: &str) -> SourceFile {
        let lexed = tokenize(text);
        let (allows, bad_allows) = parse_allows(&lexed);
        let test_ranges = test_line_ranges(&lexed.tokens);
        let fns = fn_spans(&lexed.tokens);
        SourceFile {
            path: path.to_string(),
            krate: krate.to_string(),
            module: module.iter().map(|s| s.to_string()).collect(),
            lexed,
            allows,
            bad_allows,
            test_ranges,
            fns,
        }
    }

    /// Lex a real file under `crates/<krate>/src/...`, deriving the module
    /// path from the file path (`src/server.rs` → `["server"]`,
    /// `src/lib.rs` → `[]`, `src/bin/pga.rs` → `["bin", "pga"]`,
    /// `src/rules/mod.rs` → `["rules"]`).
    pub fn from_crate_file(rel_path: &str, krate: &str, src_rel: &Path, text: &str) -> SourceFile {
        let mut module: Vec<String> = src_rel
            .with_extension("")
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        if module.last().map(String::as_str) == Some("mod") {
            module.pop();
        }
        if module.last().map(String::as_str) == Some("lib")
            || module.last().map(String::as_str) == Some("main")
        {
            module.pop();
        }
        let module_refs: Vec<&str> = module.iter().map(String::as_str).collect();
        SourceFile::with_origin(rel_path, krate, &module_refs, text)
    }

    /// Does `line` fall inside test code (`#[cfg(test)]` mod / `#[test]` fn)?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| line >= s && line <= e)
    }

    /// Is a violation of `rule` at `line` suppressed by a `pga-allow`?
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule))
    }
}

/// Parse `pga-allow(...)` annotations out of comments.
fn parse_allows(lexed: &Lexed) -> (Vec<Allow>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        // Only comments that *start* with the marker are annotations;
        // `pga-allow` mentioned mid-comment is prose (docs about the
        // mechanism), not a suppression.
        let trimmed = c
            .text
            .trim_start()
            .trim_start_matches(['/', '!'])
            .trim_start();
        let Some(rest) = trimmed.strip_prefix("pga-allow") else {
            continue;
        };
        // `pga-allow-syntax`, `pga-allowed`, … — a longer word, i.e. prose
        // about the mechanism, not an annotation.
        if rest
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            continue;
        }
        let Some(open) = rest.strip_prefix('(') else {
            bad.push(BadAllow {
                line: c.line,
                problem: "expected `pga-allow(<rule>): <reason>`".into(),
            });
            continue;
        };
        let Some(close) = open.find(')') else {
            bad.push(BadAllow {
                line: c.line,
                problem: "unclosed rule list in pga-allow".into(),
            });
            continue;
        };
        let rules: Vec<String> = open[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let after = open[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if rules.is_empty() {
            bad.push(BadAllow {
                line: c.line,
                problem: "pga-allow lists no rules".into(),
            });
        } else if reason.is_empty() {
            bad.push(BadAllow {
                line: c.line,
                problem: "pga-allow requires a `: <reason>` justification".into(),
            });
        } else {
            allows.push(Allow {
                line: c.line,
                rules,
                reason: reason.to_string(),
            });
        }
    }
    (allows, bad)
}

/// Find the token index of the `{`..`}` region starting at or after `from`,
/// returning (open_index, one_past_close_index). `None` if a `;` arrives
/// first (item without a body) or no brace exists.
fn brace_region(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < tokens.len() {
        if tokens[i].is_punct(';') {
            return None;
        }
        if tokens[i].is_punct('{') {
            let mut depth = 0i32;
            let open = i;
            while i < tokens.len() {
                if tokens[i].is_punct('{') {
                    depth += 1;
                } else if tokens[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open, i + 1));
                    }
                }
                i += 1;
            }
            return Some((open, tokens.len()));
        }
        i += 1;
    }
    None
}

/// Skip one attribute starting at `#`: returns index one past the closing
/// `]`.
fn skip_attr(tokens: &[Token], hash: usize) -> usize {
    let mut i = hash + 1;
    // optional `!` for inner attributes
    if i < tokens.len() && tokens[i].is_punct('!') {
        i += 1;
    }
    if i >= tokens.len() || !tokens[i].is_punct('[') {
        return hash + 1;
    }
    let mut depth = 0i32;
    while i < tokens.len() {
        if tokens[i].is_punct('[') {
            depth += 1;
        } else if tokens[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Does the attribute starting at token `hash` contain `needle` as an
/// identifier (`#[cfg(test)]` / `#[test]`)?
fn attr_contains(tokens: &[Token], hash: usize, needle: &str) -> bool {
    let end = skip_attr(tokens, hash);
    tokens[hash..end].iter().any(|t| t.is_ident(needle))
}

/// Inclusive line ranges covered by `#[cfg(test)]` modules and `#[test]`
/// functions. Violations inside them are masked: the analyzer targets
/// production paths, and test code unwraps by design.
fn test_line_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let is_test_attr = attr_contains(tokens, i, "test");
        let mut j = skip_attr(tokens, i);
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        while j < tokens.len() && tokens[j].is_punct('#') {
            j = skip_attr(tokens, j);
        }
        if let Some((_open, close)) = brace_region(tokens, j) {
            let start = tokens[i].line;
            let end = tokens
                .get(close - 1)
                .map(|t| t.line)
                .unwrap_or(tokens[i].line);
            ranges.push((start, end));
            // Continue scanning *after* the region: nested `#[test]` fns
            // inside a `#[cfg(test)]` mod are already covered.
            i = close;
        } else {
            i = j;
        }
    }
    ranges
}

/// Extract every `fn` item span (including nested ones). Trait-method
/// *declarations* (ending in `;`) have no body and are skipped.
fn fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        if let Some((open, close)) = brace_region(tokens, i + 2) {
            fns.push(FnSpan {
                name: name_tok.text.clone(),
                line: tokens[i].line,
                sig_start: i,
                body_start: open,
                body_end: close,
            });
        }
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::with_origin("test.rs", "pga-test", &["m"], src)
    }

    #[test]
    fn allow_parses_rules_and_reason() {
        let f = file("let x = 1; // pga-allow(panic-path): bounded by construction\n");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rules, vec!["panic-path"]);
        assert!(f.is_allowed("panic-path", 1));
        assert!(f.is_allowed("panic-path", 2), "covers the next line too");
        assert!(!f.is_allowed("determinism", 1));
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let f = file("// pga-allow(panic-path)\nlet x = 1;\n");
        assert!(f.allows.is_empty());
        assert_eq!(f.bad_allows.len(), 1);
    }

    #[test]
    fn multi_rule_allow() {
        let f = file("// pga-allow(panic-path, lock-discipline): shared reason\n");
        assert_eq!(f.allows[0].rules.len(), 2);
    }

    #[test]
    fn cfg_test_mod_region_is_masked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = file(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn standalone_test_fn_is_masked() {
        let src = "#[test]\nfn t() {\n  boom();\n}\nfn real() {}\n";
        let f = file(src);
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn cfg_test_use_line_without_body_is_skipped() {
        let f = file("#[cfg(test)]\nuse foo::bar;\nfn real() {}\n");
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn fn_spans_cover_nested_fns() {
        let src = "fn outer() {\n  fn inner() { body(); }\n  tail();\n}\n";
        let f = file(src);
        assert_eq!(f.fns.len(), 2);
        let names: Vec<&str> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner"));
    }

    #[test]
    fn module_path_derivation() {
        let f = SourceFile::from_crate_file(
            "crates/pga-minibase/src/server.rs",
            "pga-minibase",
            Path::new("server.rs"),
            "fn x() {}",
        );
        assert_eq!(f.module, vec!["server"]);
        let lib = SourceFile::from_crate_file(
            "crates/pga-minibase/src/lib.rs",
            "pga-minibase",
            Path::new("lib.rs"),
            "",
        );
        assert!(lib.module.is_empty());
        let binf = SourceFile::from_crate_file(
            "crates/pga-platform/src/bin/pga.rs",
            "pga-platform",
            Path::new("bin/pga.rs"),
            "",
        );
        assert_eq!(binf.module, vec!["bin", "pga"]);
    }
}
