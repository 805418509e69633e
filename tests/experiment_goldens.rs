//! The experiment rows whose output is a golden, at smoke size, through
//! the experiment table. The detection experiments (E5, E13, E14, E15:
//! `pga fdr`, `alpha-sweep`, `latency` and `window`) and the queueing model
//! (E1/E2, E12, E6, E7: `pga fig2`, `fig2-extended`, `salting` and
//! `proxy`), each set concatenated as `pga <name> --smoke` prints it, must
//! equal their file in `tests/golden/` character for character: a change
//! that moves a p-value, a flag, a detection delay or a queueing figure
//! shows here as a diff. E21 (`pga blocks`) and E23 (`pga train`) print
//! wall times, so only their verdicts are checked; at smoke size they
//! score exact counters alone.

use pga_bench::registry::{find, Size};

/// What `pga <name> --smoke` prints for each of `names`, one after the
/// other, without writing the rows' artifacts.
fn printed(names: &[&str]) -> String {
    names
        .iter()
        .map(|name| {
            let experiment = find(name).unwrap_or_else(|| panic!("no experiment row `{name}`"));
            let run = (experiment.run)(Size::Smoke);
            experiment.heading() + &experiment.report(&run)
        })
        .collect()
}

fn assert_prints(names: &[&str], golden: &str) {
    let text = printed(names);
    assert!(
        text == golden,
        "{names:?} --smoke drifted from its golden:\n--- golden\n{golden}\n--- now\n{text}"
    );
}

/// Run the row `name` at smoke size; its verdict must hold.
fn holds(name: &str) {
    let experiment = find(name).unwrap_or_else(|| panic!("no experiment row `{name}`"));
    let run = (experiment.run)(Size::Smoke);
    assert_eq!(run.verdict, Some(true), "{name}: verdict\n{}", run.text);
}

#[test]
fn detection_experiments_print_their_golden() {
    assert_prints(
        &["fdr", "alpha-sweep", "latency", "window"],
        include_str!("golden/detection_experiments.txt"),
    );
}

#[test]
fn queueing_model_prints_its_golden() {
    assert_prints(
        &["fig2", "fig2-extended", "salting", "proxy"],
        include_str!("golden/queueing_model.txt"),
    );
}

#[test]
fn blocks_smoke_holds() {
    holds("blocks");
}

#[test]
fn train_smoke_holds() {
    holds("train");
}
