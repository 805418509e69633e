//! Workspace walking and the analyze driver: lex every first-party source
//! file, run each rule, then apply test-region masking and `pga-allow`
//! suppression to the raw findings.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{all_rules, Violation, Workspace};
use crate::source::SourceFile;

/// Result of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survive masking and suppression.
    pub violations: Vec<Violation>,
    /// Findings silenced by a `pga-allow` annotation.
    pub suppressed: Vec<Violation>,
    /// `stale-allow` advisories: annotations that no longer suppress any
    /// finding. Advisory in normal runs; `--deny-all` promotes them.
    pub advisories: Vec<Violation>,
    /// Count of findings dropped because they sit in test code.
    pub in_tests: usize,
}

impl Report {
    /// Zero unsuppressed findings?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Walk up from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Lex every first-party source file: `crates/*/src/**/*.rs`. Vendored
/// crates, integration tests, benches, and examples are out of scope —
/// the rules target the production surface this workspace owns.
pub fn lex_workspace(root: &Path) -> io::Result<Workspace> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        let krate = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        rs_files(&src, &mut paths)?;
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src_rel = path.strip_prefix(&src).unwrap_or(&path).to_path_buf();
            files.push(SourceFile::from_crate_file(&rel, &krate, &src_rel, &text));
        }
    }
    Ok(Workspace { files })
}

/// Run every rule over `ws`, then mask test regions and apply `pga-allow`
/// suppression. Malformed annotations, and annotations naming a rule
/// that does not exist, surface as `pga-allow-syntax` violations (never
/// suppressible — they mean a suppression is broken); annotations that
/// suppressed nothing surface as `stale-allow` advisories so dead waivers
/// can't silently accumulate.
pub fn analyze(ws: &Workspace) -> Report {
    let rules = all_rules();
    let known: BTreeSet<&str> = rules.iter().map(|r| r.id()).collect();
    let mut raw = Vec::new();
    for rule in &rules {
        rule.check(ws, &mut raw);
    }
    for f in &ws.files {
        for bad in &f.bad_allows {
            raw.push(Violation {
                rule: "pga-allow-syntax",
                file: f.path.clone(),
                line: bad.line,
                message: bad.problem.clone(),
            });
        }
        for a in &f.allows {
            for r in a.rules.iter().filter(|r| !known.contains(r.as_str())) {
                raw.push(Violation {
                    rule: "pga-allow-syntax",
                    file: f.path.clone(),
                    line: a.line,
                    message: format!(
                        "pga-allow names `{r}`, which is not a rule (rules: {})",
                        known.iter().copied().collect::<Vec<_>>().join(", ")
                    ),
                });
            }
        }
    }

    // Mark allow usage against the raw findings *before* test masking: an
    // allow covering a finding that test-masking later drops is still
    // doing its documented job and must not read as stale.
    let mut used: Vec<Vec<bool>> = ws
        .files
        .iter()
        .map(|f| vec![false; f.allows.len()])
        .collect();
    for v in &raw {
        if v.rule == "pga-allow-syntax" {
            continue;
        }
        if let Some(fi) = ws.files.iter().position(|f| f.path == v.file) {
            for (ai, a) in ws.files[fi].allows.iter().enumerate() {
                let covers = a.line == v.line || a.line + 1 == v.line;
                if covers && a.rules.iter().any(|r| r.as_str() == v.rule) {
                    used[fi][ai] = true;
                }
            }
        }
    }

    let mut report = Report::default();
    for (fi, f) in ws.files.iter().enumerate() {
        for (ai, a) in f.allows.iter().enumerate() {
            // An allow naming an unknown rule is already a syntax error.
            let unknown = a.rules.iter().any(|r| !known.contains(r.as_str()));
            if used[fi][ai] || unknown || f.is_test_line(a.line) {
                continue;
            }
            report.advisories.push(Violation {
                rule: "stale-allow",
                file: f.path.clone(),
                line: a.line,
                message: format!(
                    "pga-allow({}) no longer suppresses anything — the finding it waived is gone; delete the annotation (reason was: \"{}\")",
                    a.rules.join(", "),
                    a.reason,
                ),
            });
        }
    }
    for v in raw {
        let Some(file) = ws.files.iter().find(|f| f.path == v.file) else {
            report.violations.push(v);
            continue;
        };
        if file.is_test_line(v.line) && v.rule != "pga-allow-syntax" {
            report.in_tests += 1;
            continue;
        }
        if v.rule != "pga-allow-syntax" && file.is_allowed(v.rule, v.line) {
            report.suppressed.push(v);
            continue;
        }
        report.violations.push(v);
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .advisories
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}
