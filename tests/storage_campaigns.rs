//! The storage campaigns, at smoke size, through the experiment table:
//! E17 (`pga crashtest`, seeded crashes, torn WAL tails and replay), E18
//! (`pga overload`, storms and slow servers against the live stack), E19
//! (`pga queries`, raw scans against rollups and the result cache under
//! live ingest), E20 (`pga failover`, replicated puts, WAL ships and
//! backfill across a primary crash) and E22 (`pga scrub`, corruption,
//! salvage and repair). Each must hold its verdict, and E17, E18 and E20
//! must print their tables character for character as captured in
//! `tests/golden/`: a storage change that moves a recovered cell, a retry
//! or a sim-clock reading shows here as a diff. E19 and E22 print wall
//! times, so only their verdicts are checked.

use pga_bench::registry::{find, Run, Size};

/// Run the row `name` at smoke size; its verdict must hold.
fn campaign_holds(name: &str) -> Run {
    let experiment = find(name).unwrap_or_else(|| panic!("no experiment row `{name}`"));
    let run = (experiment.run)(Size::Smoke);
    assert_eq!(run.verdict, Some(true), "{name}: verdict\n{}", run.text);
    run
}

/// [`campaign_holds`], and its text (as `pga <name> --smoke` prints it)
/// must equal `golden`.
fn campaign_matches(name: &str, golden: &str) {
    let run = campaign_holds(name);
    let text = format!("{}\n", run.text.trim_end());
    assert!(
        text == golden,
        "{name} --smoke drifted from its golden:\n--- golden\n{golden}\n--- now\n{text}"
    );
}

#[test]
fn crashtest_smoke_holds_and_prints_its_golden() {
    campaign_matches("crashtest", include_str!("golden/crashtest_smoke.txt"));
}

#[test]
fn failover_smoke_holds_and_prints_its_golden() {
    campaign_matches("failover", include_str!("golden/failover_smoke.txt"));
}

#[test]
fn overload_smoke_holds_and_prints_its_golden() {
    campaign_matches("overload", include_str!("golden/overload_smoke.txt"));
}

#[test]
fn scrub_smoke_holds() {
    campaign_holds("scrub");
}

#[test]
fn queries_smoke_holds() {
    campaign_holds("queries");
}
