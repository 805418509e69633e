//! Instrumented state machines mirroring the workspace's real concurrent
//! protocols, each with a `seeded_bug` switch: the buggy variant must be
//! caught by the explorer, the faithful variant must pass every schedule.

use crate::interleave::Model;

/// Power-of-two bucket index — mirrors `pga_control::telemetry`'s bucket
/// math (cross-checked against the real implementation in the tests).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((63 - value.leading_zeros()) as usize).min(31)
    }
}

/// `Histogram::record` vs `snapshot`: two recorder threads write
/// (bucket, sum, count) for one value each while a snapshot thread reads
/// (count, sum, buckets) — the real protocol's orders. The invariant the
/// handshake promises: any record *counted* by the snapshot has already
/// published its bucket and sum contribution, because `record` bumps
/// `count` last (Release) and `snapshot` reads `count` first (Acquire).
///
/// `seeded_bug` inverts the record order (count first, bucket last): the
/// snapshot can then count a record whose sum/bucket writes it cannot
/// see.
pub struct HistogramModel {
    /// Invert the record write order to the broken variant.
    pub seeded_bug: bool,
}

/// Values the two recorder threads record.
const HIST_VALUES: [u64; 2] = [3, 300];

#[derive(Clone, Default, Hash)]
pub struct HistogramState {
    buckets: [u64; 32],
    sum: u64,
    count: u64,
    /// Program counter per thread: recorders 0–1 have 3 steps, the
    /// snapshot thread (tid 2) has 3 read steps.
    pc: [u8; 3],
    obs_count: u64,
    obs_sum: u64,
    obs_bucket_total: u64,
}

impl Model for HistogramModel {
    type State = HistogramState;

    fn name(&self) -> &'static str {
        "histogram-snapshot"
    }

    fn threads(&self) -> usize {
        3
    }

    fn init(&self) -> HistogramState {
        HistogramState::default()
    }

    fn finished(&self, s: &HistogramState, tid: usize) -> bool {
        s.pc[tid] >= 3
    }

    fn enabled(&self, s: &HistogramState, tid: usize) -> bool {
        !self.finished(s, tid)
    }

    fn step(&self, s: &mut HistogramState, tid: usize) {
        let pc = s.pc[tid];
        if tid < 2 {
            let v = HIST_VALUES[tid];
            // Real order: bucket, sum, count. Bug: count, sum, bucket.
            let op = if self.seeded_bug { 2 - pc } else { pc };
            match op {
                0 => s.buckets[bucket_index(v)] += 1,
                1 => s.sum = s.sum.wrapping_add(v),
                _ => s.count += 1,
            }
        } else {
            match pc {
                0 => s.obs_count = s.count,
                1 => s.obs_sum = s.sum,
                _ => s.obs_bucket_total = s.buckets.iter().sum(),
            }
        }
        s.pc[tid] += 1;
    }

    fn check(&self, s: &HistogramState, quiescent: bool) -> Result<(), String> {
        if s.pc[2] >= 3 {
            if s.obs_bucket_total < s.obs_count {
                return Err(format!(
                    "snapshot counted {} records but only {} bucket increments are visible",
                    s.obs_count, s.obs_bucket_total
                ));
            }
            let min_value = HIST_VALUES.iter().copied().min().unwrap_or(0);
            if s.obs_sum < s.obs_count * min_value {
                return Err(format!(
                    "snapshot counted {} records but sum {} is below the floor {}",
                    s.obs_count,
                    s.obs_sum,
                    s.obs_count * min_value
                ));
            }
        }
        if quiescent {
            let expect_sum: u64 = HIST_VALUES.iter().sum();
            if s.count != 2 || s.sum != expect_sum {
                return Err(format!(
                    "quiescent totals wrong: count={} sum={}",
                    s.count, s.sum
                ));
            }
        }
        Ok(())
    }
}

/// A source-owned telemetry counter (the kind every layer keeps and the
/// fleet telemetry samples) incremented from two threads. The real code
/// uses `fetch_add` — one atomic read-modify-write step. The seeded
/// bug splits it into a `load` step and a `store` step, the classic lost
/// update.
pub struct RegistryCounterModel {
    /// Split the increment into load + store (the broken variant).
    pub seeded_bug: bool,
}

/// Increments each writer performs.
const INCREMENTS: u64 = 2;

#[derive(Clone, Default, Hash)]
pub struct CounterState {
    value: u64,
    /// Per-thread: increments completed so far.
    done: [u64; 2],
    /// Per-thread: staged read for the split (buggy) increment.
    staged: [Option<u64>; 2],
}

impl Model for RegistryCounterModel {
    type State = CounterState;

    fn name(&self) -> &'static str {
        "registry-counter"
    }

    fn threads(&self) -> usize {
        2
    }

    fn init(&self) -> CounterState {
        CounterState::default()
    }

    fn finished(&self, s: &CounterState, tid: usize) -> bool {
        s.done[tid] >= INCREMENTS && s.staged[tid].is_none()
    }

    fn enabled(&self, s: &CounterState, tid: usize) -> bool {
        !self.finished(s, tid)
    }

    fn step(&self, s: &mut CounterState, tid: usize) {
        if !self.seeded_bug {
            s.value += 1; // fetch_add: one indivisible step
            s.done[tid] += 1;
            return;
        }
        match s.staged[tid].take() {
            None => s.staged[tid] = Some(s.value), // load
            Some(read) => {
                s.value = read + 1; // store of stale read
                s.done[tid] += 1;
            }
        }
    }

    fn check(&self, s: &CounterState, quiescent: bool) -> Result<(), String> {
        if quiescent && s.value != 2 * INCREMENTS {
            return Err(format!(
                "lost update: expected {} increments, counter reads {}",
                2 * INCREMENTS,
                s.value
            ));
        }
        Ok(())
    }
}

/// Minibase lease expiry racing a region migration. Node A hosts region
/// R; a migrate thread moves R to node B while an expiry thread declares
/// B dead and evacuates it. The real master serialises both through
/// `&mut self` (modelled as a master lock); the seeded bug lets migrate
/// check "B is alive" outside the lock, re-assigning R onto a node that
/// died between the check and the assignment.
pub struct LeaseMigrationModel {
    /// Migrate skips the master lock (the broken variant).
    pub seeded_bug: bool,
}

#[derive(Clone, Hash)]
pub struct LeaseState {
    /// Liveness of nodes A (0) and B (1).
    alive: [bool; 2],
    /// Node currently hosting region R.
    host: usize,
    /// Which thread holds the master lock, if any.
    lock: Option<usize>,
    /// Program counters: migrate (0), expire (1).
    pc: [u8; 2],
    /// Migrate's cached "B is alive" check result.
    checked_alive: bool,
}

impl Model for LeaseMigrationModel {
    type State = LeaseState;

    fn name(&self) -> &'static str {
        "lease-vs-migration"
    }

    fn threads(&self) -> usize {
        2
    }

    fn init(&self) -> LeaseState {
        LeaseState {
            alive: [true, true],
            host: 0,
            lock: None,
            pc: [0, 0],
            checked_alive: false,
        }
    }

    fn finished(&self, s: &LeaseState, tid: usize) -> bool {
        s.pc[tid] >= 4
    }

    fn enabled(&self, s: &LeaseState, tid: usize) -> bool {
        if self.finished(s, tid) {
            return false;
        }
        // Lock acquisition steps block while the other thread holds it.
        let acquiring = s.pc[tid] == 0 && !(tid == 0 && self.seeded_bug);
        if acquiring {
            return s.lock.is_none() || s.lock == Some(tid);
        }
        true
    }

    fn step(&self, s: &mut LeaseState, tid: usize) {
        let pc = s.pc[tid];
        if tid == 0 {
            // Migrate R from A to B.
            match pc {
                0 => {
                    if !self.seeded_bug {
                        s.lock = Some(0);
                    }
                }
                1 => s.checked_alive = s.alive[1],
                2 => {
                    if s.checked_alive {
                        s.host = 1;
                    }
                }
                _ => {
                    if s.lock == Some(0) {
                        s.lock = None;
                    }
                }
            }
        } else {
            // Expire node B's lease and evacuate it.
            match pc {
                0 => s.lock = Some(1),
                1 => s.alive[1] = false,
                2 => {
                    if s.host == 1 {
                        s.host = 0;
                    }
                }
                _ => s.lock = None,
            }
        }
        s.pc[tid] += 1;
    }

    fn check(&self, s: &LeaseState, quiescent: bool) -> Result<(), String> {
        if quiescent && !s.alive[s.host] {
            return Err(format!(
                "region assigned to dead node {} after expiry",
                s.host
            ));
        }
        Ok(())
    }
}
