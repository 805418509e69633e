//! Command-line driver shared by the `pga-analyze` binary and the
//! platform CLI's `pga analyze` subcommand.

use std::env;
use std::path::PathBuf;

use crate::engine::{analyze, find_workspace_root, lex_workspace, Report};

const USAGE: &str = "\
pga-analyze: static analysis for the PGA workspace

USAGE:
    pga-analyze [OPTIONS]

OPTIONS:
    --deny-all            exit non-zero if any unsuppressed violation or
                          stale-allow advisory remains
    --root <path>         workspace root (default: nearest [workspace] Cargo.toml)
    --help                show this help
";

/// Parsed arguments.
struct Opts {
    deny_all: bool,
    root: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        deny_all: false,
        root: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--root" => {
                let v = it.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Run the analyzer. Returns the process exit code: 0 when clean (or in
/// advisory mode), 1 for unsuppressed violations or stale allows under
/// `--deny-all`, 2 for usage/environment errors.
pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };

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

    let report = analyze(&ws);
    print_report(&report);
    if opts.deny_all && !(report.is_clean() && report.advisories.is_empty()) {
        1
    } else {
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
