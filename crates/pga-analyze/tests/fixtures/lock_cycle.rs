// R3 fixture: two lock-discipline hazards, lexed with origin
// pga-minibase::fixture. Lines tagged `V:<rule>` must be flagged. This
// file is never compiled — it is raw input for the analyzer tests.

use std::sync::{Arc, PoisonError};

use parking_lot::{Mutex, RwLock};

pub struct Pair {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
    gamma: Mutex<u64>,
    delta: std::sync::Mutex<u64>,
    observer: RwLock<Option<Arc<u64>>>,
}

impl Pair {
    // Seeded lock-order cycle: transfer takes alpha → beta, audit takes
    // beta → alpha. The cycle is reported at the second acquisition of
    // whichever function the edge walk reaches first (alpha → beta).
    pub fn transfer(&self, n: u64) {
        let mut a = self.alpha.lock();
        let mut b = self.beta.lock(); // V:lock-discipline
        *a -= n;
        *b += n;
    }

    pub fn audit(&self) -> u64 {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        *a + *b
    }

    // Nested-guard-across-call: caller holds alpha while calling a helper
    // that acquires gamma.
    pub fn tally(&self) -> u64 {
        let a = self.alpha.lock();
        let g = self.grab_gamma(); // V:lock-discipline
        *a + g
    }

    fn grab_gamma(&self) -> u64 {
        *self.gamma.lock()
    }

    // Guard dropped before the call: no violation.
    pub fn tally_politely(&self) -> u64 {
        let a = self.alpha.lock();
        let held = *a;
        drop(a);
        held + self.grab_gamma()
    }

    // A lock result that feeds a further method call is a temporary of
    // its statement: only the clone is bound, so no guard is held across
    // the call.
    pub fn snapshot_then_tally(&self) -> u64 {
        let observer = self.observer.read().clone();
        observer.map_or(0, |o| *o) + self.grab_gamma()
    }

    // A guard handed on by `unwrap` or `unwrap_or_else` is still the
    // guard, as a bare `let a = self.alpha.lock();` is in `tally`.
    pub fn tally_unwrapped(&self) -> u64 {
        let d = self.delta.lock().unwrap();
        let g = self.grab_gamma(); // V:lock-discipline
        *d + g
    }

    pub fn tally_unpoisoned(&self) -> u64 {
        let d = self.delta.lock().unwrap_or_else(PoisonError::into_inner);
        let g = self.grab_gamma(); // V:lock-discipline
        *d + g
    }

    // Sequential (non-nested) acquisitions: no edge, no violation.
    pub fn sweep(&self) -> u64 {
        let held = {
            let a = self.alpha.lock();
            *a
        };
        let b = self.beta.lock();
        held + *b
    }
}
