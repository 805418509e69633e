//! R1 `determinism`: the deterministic-replay surface (the cluster
//! simulator, the sensor generator, the serving query engine, and the
//! whole fault-injection harness) must never read ambient time or
//! entropy.
//! Replays diverge silently otherwise — the exact failure class the
//! simulated experiments and `pga crashtest --seed N` reproducers depend
//! on not having.

use crate::rules::{Rule, Violation, Workspace};
use crate::source::SourceFile;
use crate::tokenizer::TokenKind;

/// Forbidden call names on the replay surface.
const NEEDLES: &[&str] = &["now", "thread_rng", "from_entropy"];

/// Does this file fall inside the deterministic-replay surface?
fn in_scope(f: &SourceFile) -> bool {
    let top = f.module.first().map(String::as_str);
    match f.krate.as_str() {
        "pga-sensorgen" => true,
        "pga-faultsim" => true,
        // The replication plane (quorum tracking, promotion choice, lag
        // accounting) replays inside the fault simulator; ambient time or
        // entropy would make failover schedules unreproducible.
        "pga-repl" => true,
        // The task-set scheduler takes its clock by injection (the
        // `Clock` closure), so its counters stay a function of the task
        // set; an ambient `Instant::now` inside the crate would undo
        // that.
        "pga-sched" => true,
        // The serving engine injects its clock (`ClockMs`) so cache TTLs
        // and shard deadlines replay; ambient time would undo that.
        "pga-query" => true,
        // The scrubber replays inside the fault simulator (corruption
        // campaigns seed and step its repair schedule); ambient time or
        // entropy in the scrub/repair loop would make scrub-convergence
        // reproducers diverge.
        "pga-minibase" => top == Some("scrub"),
        "pga-cluster" => top == Some("sim"),
        _ => false,
    }
}

pub struct Determinism;

impl Rule for Determinism {
    fn id(&self) -> &'static str {
        "determinism"
    }

    fn describe(&self) -> &'static str {
        "no ambient time/entropy (Instant::now, SystemTime::now, thread_rng, from_entropy) on the deterministic-replay surface"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        for f in ws.files.iter().filter(|f| in_scope(f)) {
            let toks = &f.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokenKind::Ident || !NEEDLES.contains(&t.text.as_str()) {
                    continue;
                }
                // `now` only counts as `Instant::now` / `SystemTime::now`:
                // require a preceding `::` after one of those type names.
                if t.text == "now" {
                    let qualified = i >= 3
                        && toks[i - 1].is_punct(':')
                        && toks[i - 2].is_punct(':')
                        && (toks[i - 3].is_ident("Instant") || toks[i - 3].is_ident("SystemTime"));
                    if !qualified {
                        continue;
                    }
                }
                // Must be a call (next token is `(` or a turbofish `::<`).
                let called = toks
                    .get(i + 1)
                    .map(|n| n.is_punct('(') || n.is_punct(':'))
                    .unwrap_or(false);
                if !called {
                    continue;
                }
                let what = if t.text == "now" {
                    let ty = &toks[i - 3].text;
                    format!("{ty}::now()")
                } else {
                    format!("{}()", t.text)
                };
                out.push(Violation {
                    rule: self.id(),
                    file: f.path.clone(),
                    line: t.line,
                    message: format!(
                        "{what} on the deterministic-replay surface; take time/seed as a parameter instead"
                    ),
                });
            }
        }
    }
}
