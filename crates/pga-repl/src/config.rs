//! Replication tuning knobs.

use serde::{Deserialize, Serialize};

/// Replication settings for the storage tier. The default is `factor: 1`
/// — no followers, byte-identical behaviour to the pre-replication
/// stack — so configs serialized before this crate existed keep working
/// through `#[serde(default)]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// Total copies of each region (primary + followers). `1` disables
    /// replication entirely.
    pub factor: usize,
    /// Copies that must have a batch durable in their WAL before the put
    /// is acknowledged. `0` means "majority of `factor`", the safe
    /// default that tolerates `factor - quorum` replica losses without
    /// losing acked data.
    pub write_quorum: usize,
    /// Hedge a shard scan to a replica when the primary has not answered
    /// within this many milliseconds — set this near the fleet's observed
    /// scan p99 so hedges fire only on genuine stragglers.
    pub hedge_delay_ms: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            factor: 1,
            write_quorum: 0,
            hedge_delay_ms: 40,
        }
    }
}

impl ReplicationConfig {
    /// The effective write quorum: the explicit setting, or a majority of
    /// `factor` when unset. Always at least 1 and at most `factor`.
    pub fn effective_quorum(&self) -> usize {
        let q = if self.write_quorum == 0 {
            self.factor / 2 + 1
        } else {
            self.write_quorum
        };
        q.clamp(1, self.factor.max(1))
    }

    /// Followers per region implied by the factor.
    pub fn followers(&self) -> usize {
        self.factor.saturating_sub(1)
    }

    /// Whether replication is active at all.
    pub fn replicated(&self) -> bool {
        self.factor > 1
    }

    /// Range checks. A quorum larger than the factor could never be met
    /// (every put would hang un-acked), and a quorum of 1 at factor ≥ 2
    /// would ack writes no follower has — a deposed primary could then
    /// lose them, so we refuse that too.
    pub fn validate(&self) -> Result<(), String> {
        if self.factor == 0 {
            return Err("replication factor must be at least 1".into());
        }
        if self.write_quorum > self.factor {
            return Err(format!(
                "write quorum {} exceeds replication factor {}",
                self.write_quorum, self.factor
            ));
        }
        if self.factor > 1 && self.effective_quorum() < 2 {
            return Err(format!(
                "write quorum {} at factor {} would ack writes held only by \
                 the primary; use quorum >= 2 or 0 for majority",
                self.write_quorum, self.factor
            ));
        }
        if self.hedge_delay_ms == 0 {
            return Err("hedge delay must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_copy_and_valid() {
        let c = ReplicationConfig::default();
        assert_eq!(c.factor, 1);
        assert!(!c.replicated());
        assert_eq!(c.effective_quorum(), 1);
        assert_eq!(c.followers(), 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn majority_quorum_by_factor() {
        for (factor, want) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3)] {
            let c = ReplicationConfig {
                factor,
                ..ReplicationConfig::default()
            };
            assert_eq!(c.effective_quorum(), want, "factor {factor}");
            assert!(c.validate().is_ok(), "factor {factor}");
        }
    }

    #[test]
    fn validation_rejects_unsafe_quorums() {
        let mut c = ReplicationConfig {
            factor: 3,
            ..ReplicationConfig::default()
        };
        c.write_quorum = 4; // unreachable quorum
        assert!(c.validate().is_err());
        c.write_quorum = 1; // primary-only ack at RF 3
        assert!(c.validate().is_err());
        c.write_quorum = 2;
        assert!(c.validate().is_ok());
        c.factor = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn hedge_delay_must_be_positive() {
        let c = ReplicationConfig {
            hedge_delay_ms: 0,
            ..ReplicationConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_defaults_fill_missing_fields() {
        // A config serialized before replication existed deserializes to
        // the single-copy default when the whole section is absent; the
        // platform wires this with #[serde(default)] on its field.
        let c: ReplicationConfig =
            serde_json::from_str(r#"{"factor":3,"write_quorum":0,"hedge_delay_ms":25}"#).unwrap();
        assert_eq!(c.factor, 3);
        assert_eq!(c.hedge_delay_ms, 25);
        let json = serde_json::to_string(&c).unwrap();
        let back: ReplicationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
