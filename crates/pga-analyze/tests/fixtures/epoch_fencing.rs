// R7 fixture: epoch fencing around WAL-apply calls, lexed with origin
// pga-minibase::fx_fencing. Lines tagged `V:<rule>` must be flagged.
// This file is never compiled — it is raw input for the analyzer tests.

pub struct FxRegion {
    epoch: u64,
    applied: u64,
}

impl FxRegion {
    // The mutator: its name puts every call to it under the rule.
    pub fn apply_replicated(&mut self, seq: u64) -> u64 {
        self.applied = seq;
        self.applied
    }

    // Fenced in-body: compares the request epoch before mutating.
    pub fn ship_fenced(&mut self, req_epoch: u64, seq: u64) -> u64 {
        if req_epoch != self.epoch {
            return 0;
        }
        self.apply_replicated(seq)
    }

    // Unfenced: reaches the mutator with no epoch comparison anywhere
    // on the path.
    pub fn ship_unfenced(&mut self, seq: u64) -> u64 {
        self.apply_replicated(seq) // V:epoch-fencing
    }

    // Inherits its caller's fence: only reached from ship_fenced_outer,
    // which compares epochs before calling, so the caller-dominance
    // fixpoint must clear the mutator call inside.
    fn apply_inner(&mut self, seq: u64) -> u64 {
        self.apply_replicated(seq)
    }

    pub fn ship_fenced_outer(&mut self, req_epoch: u64, seq: u64) -> u64 {
        if req_epoch == self.epoch {
            self.apply_inner(seq)
        } else {
            0
        }
    }

    // Waived: mirrors the live single-copy Put path whose RPC carries
    // no epoch to compare against.
    pub fn ship_single_copy(&mut self, seq: u64) -> u64 {
        // pga-allow(epoch-fencing): single-copy path; the RPC carries no epoch and lease expiry bounds a deposed primary
        self.apply_replicated(seq)
    }

    // The repair-install mutator (the `Repair` request's apply path): its
    // name puts every call to it under the rule, like the WAL mutators.
    pub fn replace_cell_value(&mut self, seq: u64) -> u64 {
        self.applied = seq;
        self.applied
    }

    // Fenced install: re-checks the fetch-time epoch before installing,
    // so a promotion racing the repair is noticed and the install skipped.
    pub fn install_repair_fenced(&mut self, fetch_epoch: u64, seq: u64) -> u64 {
        if fetch_epoch != self.epoch {
            return 0;
        }
        self.replace_cell_value(seq)
    }

    // Unfenced install: the payload was fetched under some epoch, but
    // nothing re-checks it — a deposed primary's bytes could masquerade
    // as a verified repair.
    pub fn install_repair_unfenced(&mut self, seq: u64) -> u64 {
        self.replace_cell_value(seq) // V:epoch-fencing
    }
}
