//! Replication-lag bookkeeping.
//!
//! The client-side replication driver feeds this book; the fleet
//! telemetry samples it into `NodeStats` so fleet dashboards can show
//! replication health (max follower lag, fencing rejections observed,
//! hedged scans). Failover counts come from the master.

use std::collections::BTreeMap;

use parking_lot_free::Mutex;

/// `pga-repl` deliberately has no parking_lot dependency; a std mutex
/// poisons on panic, which we treat as unreachable (no lock-holding
/// code path panics) by taking the inner value either way.
mod parking_lot_free {
    /// Minimal non-poisoning wrapper over [`std::sync::Mutex`].
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Wrap a value.
        pub fn new(v: T) -> Self {
            Mutex(std::sync::Mutex::new(v))
        }

        /// Lock, recovering the guard from a poisoned lock.
        pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            match self.0.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }
}

/// Point-in-time replication health, cheap to copy into telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct LagSnapshot {
    /// Largest follower lag (in WAL batches) across tracked regions.
    pub max_lag_batches: u64,
    /// Regions currently tracked with at least one follower.
    pub replicated_regions: u64,
    /// Writes or ships rejected because the sender's epoch was stale.
    pub fence_rejections: u64,
    /// Scans that hedged to a replica after primary silence.
    pub hedged_scans: u64,
}

impl LagSnapshot {
    /// Combine two snapshots: counters add, worst lag takes the max.
    /// Used to fold per-client lag books into one fleet-wide view.
    pub fn merge(&self, other: &LagSnapshot) -> LagSnapshot {
        LagSnapshot {
            max_lag_batches: self.max_lag_batches.max(other.max_lag_batches),
            replicated_regions: self.replicated_regions.max(other.replicated_regions),
            fence_rejections: self.fence_rejections + other.fence_rejections,
            hedged_scans: self.hedged_scans + other.hedged_scans,
        }
    }
}

#[derive(Debug, Default)]
struct BookInner {
    /// region id → (primary last seq, min follower applied seq).
    lags: BTreeMap<u64, (u64, u64)>,
    fence_rejections: u64,
    hedged_scans: u64,
}

/// Mutable replication-health ledger kept by the replication driver
/// (lag observations, fencing, hedged scans).
#[derive(Debug, Default)]
pub struct LagBook {
    inner: Mutex<BookInner>,
}

impl LagBook {
    /// Empty book.
    pub fn new() -> Self {
        LagBook {
            inner: Mutex::new(BookInner::default()),
        }
    }

    /// Record the latest (primary sequence, slowest-follower applied
    /// sequence) observation for `region`.
    pub fn observe(&self, region: u64, primary_seq: u64, min_applied_seq: u64) {
        let mut inner = self.inner.lock();
        inner.lags.insert(region, (primary_seq, min_applied_seq));
    }

    /// Count an epoch-fencing rejection observed by a writer.
    pub fn record_fence_rejection(&self) {
        self.inner.lock().fence_rejections += 1;
    }

    /// Count a hedged scan.
    pub fn record_hedged_scan(&self) {
        self.inner.lock().hedged_scans += 1;
    }

    /// Snapshot for telemetry export.
    pub fn snapshot(&self) -> LagSnapshot {
        let inner = self.inner.lock();
        LagSnapshot {
            max_lag_batches: inner
                .lags
                .values()
                .map(|&(p, a)| p.saturating_sub(a))
                .max()
                .unwrap_or(0),
            replicated_regions: inner.lags.len() as u64,
            fence_rejections: inner.fence_rejections,
            hedged_scans: inner.hedged_scans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_worst_lag() {
        let book = LagBook::new();
        book.observe(1, 10, 9);
        book.observe(2, 20, 13);
        book.observe(3, 5, 5);
        let snap = book.snapshot();
        assert_eq!(snap.max_lag_batches, 7);
        assert_eq!(snap.replicated_regions, 3);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let book = LagBook::new();
        book.observe(1, 4, 0);
        book.record_fence_rejection();
        book.record_fence_rejection();
        book.record_hedged_scan();
        let snap = book.snapshot();
        assert_eq!(snap.max_lag_batches, 4);
        assert_eq!(snap.replicated_regions, 1);
        assert_eq!(snap.fence_rejections, 2);
        assert_eq!(snap.hedged_scans, 1);
        // Merging books adds counters and keeps the worst lag.
        let other = LagBook::new();
        other.observe(2, 9, 7);
        other.record_hedged_scan();
        let merged = snap.merge(&other.snapshot());
        assert_eq!(merged.max_lag_batches, 4);
        assert_eq!(merged.fence_rejections, 2);
        assert_eq!(merged.hedged_scans, 2);
    }

    #[test]
    fn observation_overwrites_stale_entry() {
        let book = LagBook::new();
        book.observe(7, 10, 2);
        book.observe(7, 10, 10);
        assert_eq!(book.snapshot().max_lag_batches, 0);
    }
}
