//! Read-side policy: hedged scans.

use serde::{Deserialize, Serialize};

/// Hedged-scan trigger: when the primary has not answered within
/// `delay_ms`, re-issue the scan to a follower and take the first
/// answer. The delay should sit near the fleet's scan p99 so hedges
/// fire on genuine stragglers (a stopped or overloaded primary), not on
/// the latency body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HedgePolicy {
    /// Milliseconds to wait on the primary before hedging.
    pub delay_ms: u64,
}
