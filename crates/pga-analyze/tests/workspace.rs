//! Tier-1 gate: the live workspace must be analyzer-clean. Any new
//! violation either gets fixed or gets an explicit `pga-allow` with a
//! justification — silence is not an option.
//!
//! Each rule also proves it still sees the code it was written for: a
//! mutation test swaps one real file for a copy with one seeded fault at
//! a live site and requires the rule to fire exactly there. A refactor
//! that moves a site fails its anchor loudly; a rule that stops seeing
//! its site fails its test.

use std::fs;
use std::path::{Path, PathBuf};

use pga_analyze::engine::{analyze, lex_workspace, Report};
use pga_analyze::rules::Workspace;
use pga_analyze::source::SourceFile;

/// Most `pga-allow` waivers the tree may carry. Waivers can only fall:
/// lower this when a change removes some.
const MAX_WAIVERS: usize = 3;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn live() -> Workspace {
    lex_workspace(&root()).expect("lex workspace sources")
}

fn render(report: &Report) -> String {
    report
        .violations
        .iter()
        .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn live_workspace_has_zero_unsuppressed_violations() {
    let ws = live();
    assert!(
        ws.files.len() > 50,
        "workspace walk looks wrong: only {} files",
        ws.files.len()
    );
    let report = analyze(&ws);
    assert!(
        report.is_clean(),
        "unsuppressed analyzer violations:\n{}",
        render(&report)
    );
    assert!(
        report.suppressed.len() <= MAX_WAIVERS,
        "{} pga-allow waivers; at most {MAX_WAIVERS} allowed",
        report.suppressed.len()
    );
    // Dead waivers must not accumulate: every pga-allow in the tree
    // still suppresses the finding it was written for.
    let stale: Vec<String> = report
        .advisories
        .iter()
        .map(|v| format!("{}:{}: {}", v.file, v.line, v.message))
        .collect();
    assert!(
        stale.is_empty(),
        "stale pga-allow annotations:\n{}",
        stale.join("\n")
    );
}

/// Replace `from` (which must occur exactly once in `path`) with `to`,
/// analyze the workspace with that copy in the real file's place, and
/// require `rule` to fire in `path` only, `below` lines under the line
/// where `from` starts — and nowhere in `path` without the mutation.
fn assert_fires(rule: &str, path: &str, from: &str, to: &str, below: u32) {
    let mut ws = live();
    let hits = |report: &Report| -> Vec<u32> {
        report
            .violations
            .iter()
            .filter(|v| v.rule == rule && v.file == path)
            .map(|v| v.line)
            .collect()
    };
    assert_eq!(hits(&analyze(&ws)), Vec::<u32>::new(), "{rule} on {path}");

    let text = fs::read_to_string(root().join(path)).expect("read the mutated file");
    let (Some(at), 1) = (text.find(from), text.matches(from).count()) else {
        panic!("{path} no longer holds `{from}` exactly once: move this mutation to the site's new text");
    };
    let line = text[..at].matches('\n').count() as u32 + 1 + below;
    let slot = ws
        .files
        .iter_mut()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} is not in the workspace walk"));
    let module: Vec<&str> = slot.module.iter().map(String::as_str).collect();
    let mutated = SourceFile::with_origin(path, &slot.krate, &module, &text.replacen(from, to, 1));
    *slot = mutated;

    let report = analyze(&ws);
    assert_eq!(
        hits(&report),
        vec![line],
        "{rule} must fire at {path}:{line} and only there; found:\n{}",
        render(&report)
    );
}

#[test]
fn determinism_fires_on_ambient_time_in_the_query_engine() {
    assert_fires(
        "determinism",
        "crates/pga-query/src/exec.rs",
        "fn hedge_trigger(cfg: &ExecConfig, now: u64) -> Option<u64> {",
        "fn hedge_trigger(cfg: &ExecConfig, now: u64) -> Option<u64> { let _ = std::time::Instant::now();",
        0,
    );
}

#[test]
fn panic_path_fires_on_an_unwrap_in_block_decoding() {
    assert_fires(
        "panic-path",
        "crates/pga-tsdb/src/block.rs",
        "pub fn decode_block(buf: &[u8]) -> Result<DecodedBlock, BlockError> {",
        "pub fn decode_block(buf: &[u8]) -> Result<DecodedBlock, BlockError> { buf.first().unwrap();",
        0,
    );
}

#[test]
fn lock_discipline_fires_where_the_dashboard_waiver_stands() {
    assert_fires(
        "lock-discipline",
        "crates/pga-platform/src/routes.rs",
        "// pga-allow(lock-discipline): monitor → directory matches the platform order;",
        "// (waiver removed) monitor → directory matches the platform order;",
        1,
    );
}

#[test]
fn retry_discipline_fires_on_an_unbounded_reply_channel() {
    assert_fires(
        "retry-discipline",
        "crates/pga-cluster/src/rpc.rs",
        "fn enqueue(&self, req: Req) -> Result<Resp, RpcError> {\n        let (reply_tx, rx) = bounded(1);",
        "fn enqueue(&self, req: Req) -> Result<Resp, RpcError> {\n        let (reply_tx, rx) = unbounded(1);",
        1,
    );
}

#[test]
fn retry_discipline_fires_on_a_fixed_sleep_in_the_proxy_retry_loop() {
    assert_fires(
        "retry-discipline",
        "crates/pga-ingest/src/proxy.rs",
        "self.metrics.retries.fetch_add(1, Ordering::Relaxed);",
        "self.metrics.retries.fetch_add(1, Ordering::Relaxed); std::thread::sleep(RETRY_PAUSE);",
        0,
    );
}

#[test]
fn deadline_propagation_fires_on_a_dropped_shard_deadline() {
    assert_fires(
        "deadline-propagation",
        "crates/pga-minibase/src/client.rs",
        "let sent = self.send_primary(&info, scan, deadline_ms);",
        "let sent = self.send_primary(&info, scan, None);",
        0,
    );
}
