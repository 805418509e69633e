//! Fixture-driven rule tests. Each file under `tests/fixtures/` is raw
//! analyzer input (never compiled) whose expected findings are marked
//! in-line with `V:<rule>` comments, so the assertions pin exact rule ids
//! and file:line spans without hard-coding line numbers.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use pga_analyze::engine::{self, Report};
use pga_analyze::rules::Workspace;
use pga_analyze::source::SourceFile;

const DETERMINISM_FX: &str = include_str!("fixtures/determinism.rs");
const PANIC_FX: &str = include_str!("fixtures/panic_path.rs");
const LOCK_FX: &str = include_str!("fixtures/lock_cycle.rs");
const RETRY_FX: &str = include_str!("fixtures/retry_discipline.rs");
const DEADLINE_FX: &str = include_str!("fixtures/deadline_propagation.rs");

/// Lex every fixture under an origin that puts it in its rule's scope.
fn fixture_workspace() -> Workspace {
    Workspace {
        files: vec![
            SourceFile::with_origin("fx/determinism.rs", "pga-cluster", &["sim"], DETERMINISM_FX),
            SourceFile::with_origin("fx/panic_path.rs", "pga-ingest", &["proxy"], PANIC_FX),
            SourceFile::with_origin("fx/lock_cycle.rs", "pga-minibase", &["fixture"], LOCK_FX),
            SourceFile::with_origin("fx/retry_discipline.rs", "pga-tsdb", &["tsd"], RETRY_FX),
            SourceFile::with_origin(
                "fx/deadline_propagation.rs",
                "pga-repl",
                &["fx_deadline"],
                DEADLINE_FX,
            ),
        ],
    }
}

fn fixture_report() -> Report {
    engine::analyze(&fixture_workspace())
}

/// Extract `V:<rule>` markers: the expected (line, rule) pairs.
fn markers(text: &str) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("V:") {
            let tail = &rest[pos + 2..];
            let end = tail
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(tail.len());
            if end > 0 {
                out.insert((i as u32 + 1, tail[..end].to_string()));
            }
            rest = &tail[end.max(1).min(tail.len())..];
        }
    }
    out
}

fn findings(report: &Report, file: &str) -> BTreeSet<(u32, String)> {
    report
        .violations
        .iter()
        .filter(|v| v.file == file)
        .map(|v| (v.line, v.rule.to_string()))
        .collect()
}

#[test]
fn determinism_fixture_matches_markers() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "fx/determinism.rs"),
        markers(DETERMINISM_FX)
    );
}

#[test]
fn panic_path_fixture_matches_markers() {
    let report = fixture_report();
    assert_eq!(findings(&report, "fx/panic_path.rs"), markers(PANIC_FX));
}

#[test]
fn lock_cycle_fixture_matches_markers() {
    let report = fixture_report();
    assert_eq!(findings(&report, "fx/lock_cycle.rs"), markers(LOCK_FX));
    // The seeded alpha/beta deadlock surfaces as a cycle diagnostic and
    // the nested tally() call as a guard-across-call diagnostic.
    let messages: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.file == "fx/lock_cycle.rs")
        .map(|v| v.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("lock-order cycle")));
    assert!(messages
        .iter()
        .any(|m| m.contains("across call to `grab_gamma`")));
}

#[test]
fn retry_discipline_fixture_matches_markers() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "fx/retry_discipline.rs"),
        markers(RETRY_FX)
    );
}

#[test]
fn deadline_propagation_fixture_matches_markers() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "fx/deadline_propagation.rs"),
        markers(DEADLINE_FX)
    );
}

#[test]
fn pga_allow_suppresses_exactly_once_per_fixture() {
    let report = fixture_report();
    let mut suppressed: Vec<(&str, &str)> = report
        .suppressed
        .iter()
        .map(|v| (v.file.as_str(), v.rule))
        .collect();
    suppressed.sort();
    assert_eq!(
        suppressed,
        vec![
            ("fx/deadline_propagation.rs", "deadline-propagation"),
            ("fx/determinism.rs", "determinism"),
            ("fx/panic_path.rs", "panic-path"),
            ("fx/retry_discipline.rs", "retry-discipline"),
        ]
    );
    // Every fixture allow earns its keep: no stale-allow advisories.
    assert!(report.advisories.is_empty());
}

#[test]
fn stale_allow_surfaces_as_advisory() {
    let src = "\
// pga-allow(panic-path): waived long ago; the code it covered is gone
pub fn calm() -> u32 {
    4
}
";
    let ws = Workspace {
        files: vec![SourceFile::with_origin(
            "fx/stale.rs",
            "pga-ingest",
            &["proxy"],
            src,
        )],
    };
    let report = engine::analyze(&ws);
    assert!(report.violations.is_empty());
    assert_eq!(report.advisories.len(), 1);
    let adv = &report.advisories[0];
    assert_eq!((adv.rule, adv.line), ("stale-allow", 1));
    assert!(adv.message.contains("panic-path"));
    assert!(adv.message.contains("waived long ago"));
}

#[test]
fn allow_naming_an_unknown_rule_is_reported() {
    // A waiver for a rule that does not exist (a typo, or a rule since
    // deleted) suppresses nothing and must not pass in silence — even
    // when it shares its line with a rule that does fire.
    let src = "\
// pga-allow(no-such-rule): probe
pub fn calm() -> u32 {
    4
}
pub fn loud(v: &[u32]) -> u32 {
    // pga-allow(panic-path, relaxed-atomics): the second rule is gone
    v[0]
}
";
    let ws = Workspace {
        files: vec![SourceFile::with_origin(
            "fx/unknown.rs",
            "pga-ingest",
            &["proxy"],
            src,
        )],
    };
    let report = engine::analyze(&ws);
    let found: Vec<(&str, u32)> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(
        found,
        vec![("pga-allow-syntax", 1), ("pga-allow-syntax", 6)]
    );
    assert!(report.violations[0].message.contains("`no-such-rule`"));
    assert!(report.violations[1].message.contains("`relaxed-atomics`"));
    // Reported once, as a broken annotation, not again as stale; and the
    // rule that does exist still suppresses its finding.
    assert!(report.advisories.is_empty());
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn test_regions_are_masked() {
    // panic_path.rs carries a #[cfg(test)] mod with an unwrap and a direct
    // index; both must be dropped as in-test findings, not reported.
    let report = fixture_report();
    assert_eq!(report.in_tests, 2);
}

/// Materialise the fixtures as a minimal on-disk cargo workspace so the
/// CLI path (walk + lex + analyze + exit code) is exercised end to end.
fn write_fixture_workspace() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fixture-ws");
    let _ = fs::remove_dir_all(&root);
    let files = [
        ("crates/pga-cluster/src/sim.rs", DETERMINISM_FX),
        ("crates/pga-ingest/src/proxy.rs", PANIC_FX),
        ("crates/pga-minibase/src/fixture.rs", LOCK_FX),
        ("crates/pga-tsdb/src/tsd.rs", RETRY_FX),
        ("crates/pga-repl/src/fx_deadline.rs", DEADLINE_FX),
    ];
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("create fixture dirs");
        fs::write(&path, text).expect("write fixture file");
    }
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write workspace manifest");
    root
}

#[test]
fn deny_all_exits_nonzero_on_fixture_workspace() {
    let root = write_fixture_workspace();
    let root_arg = root.to_string_lossy().into_owned();
    let deny = vec!["--root".to_string(), root_arg.clone(), "--deny-all".into()];
    assert_eq!(pga_analyze::cli::run(&deny), 1);
    // Advisory mode reports but does not fail.
    let advise = vec!["--root".to_string(), root_arg];
    assert_eq!(pga_analyze::cli::run(&advise), 0);
}

#[test]
fn only_deny_all_root_and_help_parse() {
    for gone in ["--json", "--list", "--model-check"] {
        assert_eq!(pga_analyze::cli::run(&[gone.to_string()]), 2, "{gone}");
    }
    for gone in ["--rule", "--state-budget"] {
        let args = vec![gone.to_string(), "1".into()];
        assert_eq!(pga_analyze::cli::run(&args), 2, "{gone}");
    }
}
