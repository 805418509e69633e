//! Command-line driver shared by the `pga-analyze` binary and the
//! platform CLI's `pga analyze` subcommand.

use std::env;
use std::path::PathBuf;

use crate::engine::{analyze, find_workspace_root, lex_workspace, Report};
use crate::interleave::replication::{ReplMutant, ReplicationModel};
use crate::interleave::{explore_dedup_limits, ExploreLimits, SpaceOutcome};
use crate::rules::{all_rules, Violation};

const USAGE: &str = "\
pga-analyze: static analysis for the PGA workspace

USAGE:
    pga-analyze [OPTIONS]

OPTIONS:
    --deny-all            exit non-zero if any unsuppressed violation or
                          stale-allow advisory remains
    --root <path>         workspace root (default: nearest [workspace] Cargo.toml)
    --rule <id>           run only this rule (repeatable)
    --json                emit findings as a JSON array instead of text
    --list                list rules and exit
    --model-check         explore the replication protocol model (faithful
                          must pass, seeded mutants must be caught) and exit
    --state-budget <n>    distinct-state budget for --model-check (default 200000)
    --help                show this help
";

/// Parsed arguments.
struct Opts {
    deny_all: bool,
    root: Option<PathBuf>,
    rules: Vec<String>,
    json: bool,
    list: bool,
    model_check: bool,
    state_budget: usize,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        deny_all: false,
        root: None,
        rules: Vec::new(),
        json: false,
        list: false,
        model_check: false,
        state_budget: 200_000,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--json" => opts.json = true,
            "--list" => opts.list = true,
            "--model-check" => opts.model_check = true,
            "--root" => {
                let v = it.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--rule" => {
                let v = it.next().ok_or("--rule requires a rule id")?;
                opts.rules.push(v.clone());
            }
            "--state-budget" => {
                let v = it.next().ok_or("--state-budget requires a count")?;
                opts.state_budget = v
                    .parse()
                    .map_err(|_| format!("--state-budget: `{v}` is not a count"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Run the analyzer. Returns the process exit code: 0 when clean (or in
/// advisory mode), 1 for unsuppressed violations under `--deny-all` or a
/// failed `--model-check`, 2 for usage/environment errors.
pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };

    if opts.model_check {
        return model_check(opts.state_budget);
    }

    let mut rules = all_rules();
    if opts.list {
        for r in &rules {
            println!("{:<16} {}", r.id(), r.describe());
        }
        return 0;
    }
    if !opts.rules.is_empty() {
        let unknown: Vec<&String> = opts
            .rules
            .iter()
            .filter(|id| !rules.iter().any(|r| r.id() == id.as_str()))
            .collect();
        if !unknown.is_empty() {
            eprintln!(
                "unknown rule(s): {}",
                unknown
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return 2;
        }
        rules.retain(|r| opts.rules.iter().any(|id| id == r.id()));
    }

    let root = match opts.root.or_else(|| {
        env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "no workspace root found (looked for a Cargo.toml with [workspace]); pass --root"
            );
            return 2;
        }
    };

    let ws = match lex_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("failed to read workspace under {}: {e}", root.display());
            return 2;
        }
    };

    let report = analyze(&ws, &rules);
    if opts.json {
        println!("{}", report_json(&report));
    } else {
        print_report(&report);
    }
    if opts.deny_all && !(report.is_clean() && report.advisories.is_empty()) {
        1
    } else {
        0
    }
}

/// Explore the bounded state space of the replication protocol model:
/// the faithful model must pass every invariant, and each seeded mutant
/// must be caught. Any other outcome (including blowing the state
/// budget, which would make the "faithful passes" claim vacuous) fails.
fn model_check(state_budget: usize) -> i32 {
    let limits = ExploreLimits {
        max_states: state_budget,
        ..ExploreLimits::default()
    };
    let mut failed = false;

    let faithful = ReplicationModel::faithful();
    match explore_dedup_limits(&faithful, limits) {
        SpaceOutcome::Pass { states } => {
            println!("model-check: faithful replication model PASS ({states} distinct states)");
        }
        other => {
            failed = true;
            println!("model-check: faithful replication model FAIL: {other:?}");
        }
    }

    for mutant in [
        ReplMutant::GapTolerantFollower,
        ReplMutant::PromotionWithoutFencing,
        ReplMutant::QuorumCountsGapped,
    ] {
        let model = ReplicationModel::with_mutant(mutant);
        match explore_dedup_limits(&model, limits) {
            SpaceOutcome::Violation { schedule, message } => {
                println!(
                    "model-check: mutant {mutant:?} CAUGHT in {} steps: {message}",
                    schedule.len()
                );
            }
            other => {
                failed = true;
                println!("model-check: mutant {mutant:?} ESCAPED: {other:?}");
            }
        }
    }

    if failed {
        println!("model-check: FAIL");
        1
    } else {
        println!("model-check: ok");
        0
    }
}

fn print_report(report: &Report) {
    for v in &report.violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    for v in &report.advisories {
        println!("{}:{}: advisory [{}] {}", v.file, v.line, v.rule, v.message);
    }
    println!(
        "pga-analyze: {} violation(s), {} suppressed by pga-allow, {} advisory",
        report.violations.len(),
        report.suppressed.len(),
        report.advisories.len(),
    );
}

/// Serialize the report by hand — pga-analyze is deliberately
/// dependency-free, and the shape is flat enough that a string escaper
/// plus format strings beats pulling in a serializer.
fn report_json(report: &Report) -> String {
    let mut rows = Vec::new();
    for v in &report.violations {
        rows.push(json_row(v, false, false));
    }
    for v in &report.suppressed {
        rows.push(json_row(v, true, false));
    }
    for v in &report.advisories {
        rows.push(json_row(v, false, true));
    }
    format!("[{}]", rows.join(","))
}

fn json_row(v: &Violation, suppressed: bool, advisory: bool) -> String {
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"suppressed\":{},\"advisory\":{}}}",
        json_escape(v.rule),
        json_escape(&v.file),
        v.line,
        json_escape(&v.message),
        suppressed,
        advisory,
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\u{1}"), "x\\ny\\u0001");
    }

    #[test]
    fn json_rows_carry_suppression_and_advisory_flags() {
        let v = Violation {
            rule: "panic-path",
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            message: "said \"boom\"".to_string(),
        };
        let row = json_row(&v, true, false);
        assert!(row.contains("\"suppressed\":true"));
        assert!(row.contains("\"advisory\":false"));
        assert!(row.contains("\\\"boom\\\""));
    }
}
