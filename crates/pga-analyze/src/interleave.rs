//! A loom-style exhaustive interleaving explorer: deterministic DFS over
//! every schedule of 2–3 logical threads stepping an instrumented state
//! machine. Each step is one "atomic" action of one thread; the explorer
//! clones state at every branch point and checks the model's invariant
//! after every step and again at quiescence.
//!
//! This is the dynamic companion to the static rules: R4 can say "this
//! snapshot has no cross-field consistency", the explorer *demonstrates*
//! the interleaving that breaks it (and shows the fixed protocol passing
//! every schedule).
//!
//! Two explorers share the [`Model`] trait. [`explore`] is the original
//! naive schedule DFS — it re-walks identical states reached by different
//! interleavings, which is fine for the small handshake models.
//! [`explore_dedup`] hashes every state it expands and skips subtrees
//! rooted at already-seen states, turning the schedule tree into a state
//! *space* walk; with [`ExploreLimits`] bounding depth and distinct
//! states it scales to protocol models with crash and message-drop
//! transitions ([`replication::ReplicationModel`]). Because a model's
//! `step` is deterministic per `(state, tid)`, a revisited state's
//! subtree can only repeat what its first visit already proved, so the
//! two explorers agree on the outcome classification (the witness
//! schedule may differ — dedup reaches the shared state by its first
//! discovered path).

pub mod models;
pub mod replication;

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// One instrumented concurrent protocol.
pub trait Model {
    /// Shared state plus per-thread program counters.
    type State: Clone;

    /// Display name for reports.
    fn name(&self) -> &'static str;
    /// Number of logical threads.
    fn threads(&self) -> usize;
    /// Initial state.
    fn init(&self) -> Self::State;
    /// Has this thread run to completion?
    fn finished(&self, s: &Self::State, tid: usize) -> bool;
    /// Can this thread take a step right now? (False when finished or
    /// blocked, e.g. waiting on a lock another thread holds.)
    fn enabled(&self, s: &Self::State, tid: usize) -> bool;
    /// Execute one atomic step of `tid`.
    fn step(&self, s: &mut Self::State, tid: usize);
    /// Check invariants. `quiescent` is true once every thread finished;
    /// mid-execution checks should only assert what must hold at *every*
    /// step.
    fn check(&self, s: &Self::State, quiescent: bool) -> Result<(), String>;
}

/// Result of exploring every schedule of a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every schedule satisfied the invariant.
    Pass {
        /// Number of complete schedules explored.
        schedules: usize,
    },
    /// Some schedule broke the invariant.
    Violation {
        /// The thread ids stepped, in order, up to the failure.
        schedule: Vec<usize>,
        /// The invariant's explanation.
        message: String,
    },
    /// Some schedule reached a state where no thread can run but not all
    /// have finished.
    Deadlock {
        /// The thread ids stepped, in order, up to the deadlock.
        schedule: Vec<usize>,
    },
}

impl Outcome {
    /// Did every schedule pass?
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass { .. })
    }
}

/// Hard cap on schedule length — a runaway model (a thread that never
/// finishes) fails loudly instead of hanging the test suite.
const MAX_DEPTH: usize = 256;

/// Exhaustively explore every interleaving of `model`, depth-first.
pub fn explore<M: Model>(model: &M) -> Outcome {
    let mut schedules = 0usize;
    let mut path: Vec<usize> = Vec::new();
    match dfs(model, model.init(), &mut path, &mut schedules) {
        Ok(()) => Outcome::Pass { schedules },
        Err(out) => out,
    }
}

fn dfs<M: Model>(
    model: &M,
    state: M::State,
    path: &mut Vec<usize>,
    schedules: &mut usize,
) -> Result<(), Outcome> {
    let n = model.threads();
    let all_finished = (0..n).all(|t| model.finished(&state, t));
    if all_finished {
        *schedules += 1;
        return match model.check(&state, true) {
            Ok(()) => Ok(()),
            Err(message) => Err(Outcome::Violation {
                schedule: path.clone(),
                message,
            }),
        };
    }
    if path.len() >= MAX_DEPTH {
        return Err(Outcome::Violation {
            schedule: path.clone(),
            message: format!("model `{}` exceeded {MAX_DEPTH} steps", model.name()),
        });
    }
    let runnable: Vec<usize> = (0..n).filter(|&t| model.enabled(&state, t)).collect();
    if runnable.is_empty() {
        return Err(Outcome::Deadlock {
            schedule: path.clone(),
        });
    }
    for tid in runnable {
        let mut next = state.clone();
        model.step(&mut next, tid);
        path.push(tid);
        let checked = match model.check(&next, false) {
            Ok(()) => dfs(model, next, path, schedules),
            Err(message) => Err(Outcome::Violation {
                schedule: path.clone(),
                message,
            }),
        };
        path.pop();
        checked?;
    }
    Ok(())
}

/// Bounds for the state-space explorer.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Longest schedule expanded before the run is declared runaway.
    pub max_depth: usize,
    /// Distinct states expanded before giving up with
    /// [`SpaceOutcome::BudgetExceeded`].
    pub max_states: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_depth: MAX_DEPTH,
            max_states: 1_000_000,
        }
    }
}

/// Result of a state-space exploration with dedup and budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceOutcome {
    /// Every reachable state satisfied the invariant.
    Pass {
        /// Distinct states explored.
        states: usize,
    },
    /// Some reachable state broke the invariant.
    Violation {
        /// Thread ids stepped, in order, up to the failure.
        schedule: Vec<usize>,
        /// The invariant's explanation.
        message: String,
    },
    /// A reachable state where no thread can run but not all finished.
    Deadlock {
        /// Thread ids stepped, in order, up to the deadlock.
        schedule: Vec<usize>,
    },
    /// The state budget ran out before the space was covered — the run
    /// proves nothing either way; raise the budget or shrink the model.
    BudgetExceeded {
        /// Distinct states explored when the budget tripped.
        states: usize,
    },
}

impl SpaceOutcome {
    /// Did the full bounded space pass?
    pub fn passed(&self) -> bool {
        matches!(self, SpaceOutcome::Pass { .. })
    }
}

/// 64-bit fingerprint of a state. Collisions would silently prune an
/// unexplored subtree; at the ≤10⁶-state budgets used here the collision
/// odds are ~2⁻⁴⁴ per pair — acceptable for a bug-finding checker,
/// documented in ANALYSIS.md.
fn fingerprint<S: Hash>(s: &S) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Explore the reachable state space of `model` depth-first with
/// default limits, deduplicating states by hash.
pub fn explore_dedup<M>(model: &M) -> SpaceOutcome
where
    M: Model,
    M::State: Hash,
{
    explore_dedup_limits(model, ExploreLimits::default())
}

/// [`explore_dedup`] with explicit depth/state budgets.
pub fn explore_dedup_limits<M>(model: &M, limits: ExploreLimits) -> SpaceOutcome
where
    M: Model,
    M::State: Hash,
{
    let init = model.init();
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(fingerprint(&init));
    let mut path: Vec<usize> = Vec::new();
    match dfs_dedup(model, init, &mut path, &mut seen, &limits) {
        Ok(()) => SpaceOutcome::Pass { states: seen.len() },
        Err(out) => out,
    }
}

fn dfs_dedup<M>(
    model: &M,
    state: M::State,
    path: &mut Vec<usize>,
    seen: &mut HashSet<u64>,
    limits: &ExploreLimits,
) -> Result<(), SpaceOutcome>
where
    M: Model,
    M::State: Hash,
{
    let n = model.threads();
    let all_finished = (0..n).all(|t| model.finished(&state, t));
    if all_finished {
        return match model.check(&state, true) {
            Ok(()) => Ok(()),
            Err(message) => Err(SpaceOutcome::Violation {
                schedule: path.clone(),
                message,
            }),
        };
    }
    if path.len() >= limits.max_depth {
        return Err(SpaceOutcome::Violation {
            schedule: path.clone(),
            message: format!(
                "model `{}` exceeded {} steps",
                model.name(),
                limits.max_depth
            ),
        });
    }
    if seen.len() >= limits.max_states {
        return Err(SpaceOutcome::BudgetExceeded { states: seen.len() });
    }
    let runnable: Vec<usize> = (0..n).filter(|&t| model.enabled(&state, t)).collect();
    if runnable.is_empty() {
        return Err(SpaceOutcome::Deadlock {
            schedule: path.clone(),
        });
    }
    for tid in runnable {
        let mut next = state.clone();
        model.step(&mut next, tid);
        path.push(tid);
        let checked = match model.check(&next, false) {
            Ok(()) => {
                // A previously-seen state already had its subtree
                // explored (steps are deterministic per (state, tid)), so
                // only fresh states recurse.
                if seen.insert(fingerprint(&next)) {
                    dfs_dedup(model, next, path, seen, limits)
                } else {
                    Ok(())
                }
            }
            Err(message) => Err(SpaceOutcome::Violation {
                schedule: path.clone(),
                message,
            }),
        };
        path.pop();
        checked?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each append their id once; invariant: at quiescence the
    /// log has both entries. Always true — sanity-checks the explorer.
    struct Appender;

    #[derive(Clone, Default, Hash)]
    struct AppendState {
        log: Vec<usize>,
        done: [bool; 2],
    }

    impl Model for Appender {
        type State = AppendState;
        fn name(&self) -> &'static str {
            "appender"
        }
        fn threads(&self) -> usize {
            2
        }
        fn init(&self) -> AppendState {
            AppendState::default()
        }
        fn finished(&self, s: &AppendState, tid: usize) -> bool {
            s.done[tid]
        }
        fn enabled(&self, s: &AppendState, tid: usize) -> bool {
            !s.done[tid]
        }
        fn step(&self, s: &mut AppendState, tid: usize) {
            s.log.push(tid);
            s.done[tid] = true;
        }
        fn check(&self, s: &AppendState, quiescent: bool) -> Result<(), String> {
            if quiescent && s.log.len() != 2 {
                return Err("lost append".into());
            }
            Ok(())
        }
    }

    #[test]
    fn explorer_counts_both_orders() {
        match explore(&Appender) {
            Outcome::Pass { schedules } => assert_eq!(schedules, 2),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    /// A thread that blocks forever once the other ran first → deadlock
    /// must be detected, not looped on.
    struct Blocker;

    impl Model for Blocker {
        type State = AppendState;
        fn name(&self) -> &'static str {
            "blocker"
        }
        fn threads(&self) -> usize {
            2
        }
        fn init(&self) -> AppendState {
            AppendState::default()
        }
        fn finished(&self, s: &AppendState, tid: usize) -> bool {
            s.done[tid]
        }
        fn enabled(&self, s: &AppendState, tid: usize) -> bool {
            // Thread 1 refuses to run after thread 0 finished.
            !(s.done[tid] || tid == 1 && s.done[0])
        }
        fn step(&self, s: &mut AppendState, tid: usize) {
            s.done[tid] = true;
        }
        fn check(&self, _: &AppendState, _: bool) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn explorer_detects_deadlock() {
        match explore(&Blocker) {
            Outcome::Deadlock { schedule } => assert_eq!(schedule, vec![0]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn dedup_explorer_agrees_on_toy_models() {
        // The two append orders produce distinct logs, so dedup prunes
        // nothing here — 5 states: init, two mid, two final.
        match explore_dedup(&Appender) {
            SpaceOutcome::Pass { states } => assert_eq!(states, 5),
            other => panic!("expected pass, got {other:?}"),
        }
        match explore_dedup(&Blocker) {
            SpaceOutcome::Deadlock { schedule } => assert_eq!(schedule, vec![0]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn state_budget_trips_as_budget_exceeded() {
        let out = explore_dedup_limits(
            &Appender,
            ExploreLimits {
                max_depth: MAX_DEPTH,
                max_states: 2,
            },
        );
        match out {
            SpaceOutcome::BudgetExceeded { states } => assert!(states >= 2),
            other => panic!("expected budget exceeded, got {other:?}"),
        }
    }
}
