//! Platform configuration.

use serde::{Deserialize, Serialize};

use pga_sensorgen::FleetConfig;
use pga_stats::Procedure;

/// Sizing and tuning of the integrated platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// The synthetic fleet.
    pub fleet: FleetConfig,
    /// Region-server nodes in the storage cluster.
    pub storage_nodes: usize,
    /// TSD daemon instances behind the reverse proxy.
    pub tsd_count: usize,
    /// Samples per ingestion batch. Batches are filled across ticks (one
    /// may carry the end of one tick and the start of the next); only the
    /// last batch of an ingested range may be short.
    pub batch_size: usize,
    /// Rows of data used for offline training.
    pub training_window: usize,
    /// Rows per online evaluation window.
    pub eval_window: usize,
    /// FDR level (α / q) for the detector.
    pub alpha: f64,
    /// Multiple-testing procedure (the paper uses Benjamini–Hochberg).
    pub procedure: Procedure,
    /// Dataflow worker threads for training.
    pub workers: usize,
    /// Serving-layer query engine (pga-query): rollup tiers, shard
    /// deadlines, result cache. Absent in pre-serving configs, so it
    /// defaults.
    #[serde(default)]
    pub query: QueryConfig,
    /// Storage-tier replication (pga-repl): copies per region, write
    /// quorum, follower-read staleness budget, scan-hedge trigger.
    /// Absent in pre-replication configs, so it defaults to single-copy.
    #[serde(default)]
    pub replication: pga_repl::ReplicationConfig,
}

/// Serving-layer (pga-query) settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryConfig {
    /// Maintain write-time rollups and route dashboard queries through the
    /// serving engine. Off = every query is a raw scan (the pre-serving
    /// behaviour).
    pub rollups_enabled: bool,
    /// Rollup tier widths in seconds, ascending. Each must divide the
    /// 3600 s row span and stay within `pga_query::rollup::MAX_TIER_SECS`.
    pub tiers: Vec<u64>,
    /// Per-shard scatter-gather scan deadline in milliseconds.
    pub shard_deadline_ms: u64,
    /// Downsample windows within this many tier-buckets of the range end
    /// are served raw (the buckets may still be open in writers).
    pub tail_buckets: u64,
    /// Result-cache entry lifetime in milliseconds.
    pub cache_ttl_ms: u64,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Result-cache entries per shard.
    pub cache_capacity_per_shard: usize,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            rollups_enabled: true,
            tiers: vec![60, 600],
            shard_deadline_ms: 250,
            tail_buckets: 2,
            cache_ttl_ms: 5_000,
            cache_shards: 8,
            cache_capacity_per_shard: 256,
        }
    }
}

impl QueryConfig {
    /// Range checks (called from [`PlatformConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("query tiers must not be empty".into());
        }
        for (i, &t) in self.tiers.iter().enumerate() {
            if t == 0 || t > pga_query::rollup::MAX_TIER_SECS {
                return Err(format!("query tier {t} out of range"));
            }
            if 3600 % t != 0 {
                return Err(format!("query tier {t} must divide the 3600 s row span"));
            }
            if i > 0 && self.tiers[i - 1] >= t {
                return Err("query tiers must be strictly ascending".into());
            }
        }
        if self.shard_deadline_ms == 0 {
            return Err("query shard deadline must be positive".into());
        }
        if self.cache_shards == 0 || self.cache_capacity_per_shard == 0 {
            return Err("query cache must have at least one shard and slot".into());
        }
        Ok(())
    }

    /// Lower to the engine's own configuration type. `hedge` comes from
    /// the replication section ([`PlatformConfig::hedge_policy`]): shard
    /// scans fail over to follower replicas only when regions have them.
    pub fn engine_config(
        &self,
        hedge: Option<pga_repl::HedgePolicy>,
    ) -> pga_query::QueryEngineConfig {
        pga_query::QueryEngineConfig {
            exec: pga_query::ExecConfig {
                tiers: self.tiers.clone(),
                shard_deadline_ms: self.shard_deadline_ms,
                tail_buckets: self.tail_buckets,
                hedge,
            },
            cache: pga_query::CacheConfig {
                shards: self.cache_shards,
                ttl_ms: self.cache_ttl_ms,
                capacity_per_shard: self.cache_capacity_per_shard,
            },
        }
    }
}

impl PlatformConfig {
    /// A laptop-scale configuration used by the examples and tests: a
    /// smaller fleet, a handful of storage nodes, paper-faithful detector
    /// settings.
    pub fn demo(seed: u64) -> Self {
        PlatformConfig {
            fleet: FleetConfig {
                units: 8,
                sensors_per_unit: 64,
                ..FleetConfig::paper_scale(seed)
            },
            storage_nodes: 4,
            tsd_count: 2,
            batch_size: 256,
            training_window: 150,
            eval_window: 50,
            alpha: 0.05,
            procedure: Procedure::BenjaminiHochberg,
            workers: 4,
            query: QueryConfig::default(),
            replication: pga_repl::ReplicationConfig::default(),
        }
    }

    /// Hedge policy for the query engine: present only when regions have
    /// follower copies to hedge to.
    pub fn hedge_policy(&self) -> Option<pga_repl::HedgePolicy> {
        self.replication
            .replicated()
            .then_some(pga_repl::HedgePolicy {
                delay_ms: self.replication.hedge_delay_ms,
            })
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        self.fleet.validate()?;
        if self.storage_nodes == 0 || self.tsd_count == 0 {
            return Err("need at least one storage node and one TSD".into());
        }
        if self.batch_size == 0 {
            return Err("batch size must be positive".into());
        }
        if self.training_window < 2 {
            return Err("training window must be at least 2 rows".into());
        }
        if self.eval_window == 0 {
            return Err("evaluation window must be non-empty".into());
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha {} outside [0,1]", self.alpha));
        }
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        self.query.validate()?;
        self.replication.validate()?;
        if self.replication.factor > self.storage_nodes {
            return Err(format!(
                "replication factor {} needs distinct nodes but the storage \
                 tier has only {}",
                self.replication.factor, self.storage_nodes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_config_is_valid() {
        assert!(PlatformConfig::demo(1).validate().is_ok());
    }

    #[test]
    fn validation_catches_problems() {
        let mut c = PlatformConfig::demo(1);
        c.storage_nodes = 0;
        assert!(c.validate().is_err());

        let mut c = PlatformConfig::demo(1);
        c.alpha = 1.5;
        assert!(c.validate().is_err());

        let mut c = PlatformConfig::demo(1);
        c.training_window = 1;
        assert!(c.validate().is_err());

        let mut c = PlatformConfig::demo(1);
        c.query.tiers = vec![];
        assert!(c.validate().is_err());

        let mut c = PlatformConfig::demo(1);
        c.query.tiers = vec![7]; // does not divide the row span
        assert!(c.validate().is_err());

        let mut c = PlatformConfig::demo(1);
        c.query.tiers = vec![600, 60]; // not ascending
        assert!(c.validate().is_err());

        let mut c = PlatformConfig::demo(1);
        c.query.shard_deadline_ms = 0;
        assert!(c.validate().is_err());
    }

    /// `PlatformConfig::demo(3)` exactly as the last build with an elastic
    /// control plane serialized it, `scaling` section included.
    const ELASTIC_ERA_DEMO3_JSON: &str = r#"{"fleet":{"units":8,"sensors_per_unit":64,"seed":3,
        "sample_period_secs":1,"noise_std":1.0,"baseline_mean":50.0,
        "degradation_fraction":0.3333333333333333,"shift_fraction":0.3333333333333333,
        "degradation_slope_per_100":0.5,"shift_magnitude":3.0,"group_correlation":0.6},
        "storage_nodes":4,"tsd_count":2,"batch_size":256,"training_window":150,"eval_window":50,
        "alpha":0.05,"procedure":"BenjaminiHochberg","workers":4,
        "scaling":{"high_water":0.75,"low_water":0.25,"k_ticks":3,"cooldown_ticks":5,
        "ema_alpha":0.5,"scale_out_step":2,"scale_in_step":1,"min_nodes":1,"max_nodes":64},
        "brownout":{"enter_pressure":0.75,"exit_pressure":0.5,"stride":4},
        "query":{"rollups_enabled":true,"tiers":[60,600],"shard_deadline_ms":250,"tail_buckets":2,
        "cache_ttl_ms":5000,"cache_shards":8,"cache_capacity_per_shard":256},
        "replication":{"factor":1,"write_quorum":0,"follower_read_max_lag":4,"hedge_delay_ms":40}}"#;

    #[test]
    fn configs_with_a_retired_scaling_section_still_parse() {
        // The retired section is an unknown key now: skipped, not fatal.
        let old: PlatformConfig = serde_json::from_str(ELASTIC_ERA_DEMO3_JSON).unwrap();
        assert_eq!(old, PlatformConfig::demo(3));
        assert!(old.validate().is_ok());
    }

    /// `PlatformConfig::demo(3)` exactly as the last build with a brownout
    /// gate serialized it, `brownout` section included.
    const BROWNOUT_ERA_DEMO3_JSON: &str = r#"{"fleet":{"units":8,"sensors_per_unit":64,"seed":3,
        "sample_period_secs":1,"noise_std":1.0,"baseline_mean":50.0,
        "degradation_fraction":0.3333333333333333,"shift_fraction":0.3333333333333333,
        "degradation_slope_per_100":0.5,"shift_magnitude":3.0,"group_correlation":0.6},
        "storage_nodes":4,"tsd_count":2,"batch_size":256,"training_window":150,"eval_window":50,
        "alpha":0.05,"procedure":"BenjaminiHochberg","workers":4,
        "brownout":{"enter_pressure":0.75,"exit_pressure":0.5,"stride":4},
        "query":{"rollups_enabled":true,"tiers":[60,600],"shard_deadline_ms":250,"tail_buckets":2,
        "cache_ttl_ms":5000,"cache_shards":8,"cache_capacity_per_shard":256},
        "replication":{"factor":1,"write_quorum":0,"follower_read_max_lag":4,"hedge_delay_ms":40}}"#;

    #[test]
    fn configs_with_a_retired_brownout_section_still_parse() {
        // The retired section is an unknown key now: skipped, not fatal,
        // and no longer validated (exit ≥ enter was an error).
        let invalid =
            BROWNOUT_ERA_DEMO3_JSON.replace("\"exit_pressure\":0.5", "\"exit_pressure\":0.9");
        assert_ne!(invalid, BROWNOUT_ERA_DEMO3_JSON);
        for json in [BROWNOUT_ERA_DEMO3_JSON, invalid.as_str()] {
            let old: PlatformConfig = serde_json::from_str(json).unwrap();
            assert_eq!(old, PlatformConfig::demo(3));
            assert!(old.validate().is_ok());
        }
    }

    #[test]
    fn configs_without_query_section_still_parse() {
        // A config serialized before the serving-layer query engine existed.
        let serde_json::Value::Object(obj) = serde_json::to_value(&PlatformConfig::demo(3)) else {
            panic!("config must serialize to an object");
        };
        let mut pruned = serde_json::Map::new();
        for (k, val) in obj.iter() {
            if k != "query" {
                pruned.insert(k.clone(), val.clone());
            }
        }
        let back: PlatformConfig =
            serde_json::from_value(serde_json::Value::Object(pruned)).unwrap();
        assert_eq!(back.query, QueryConfig::default());
        assert!(back.validate().is_ok());
    }

    #[test]
    fn configs_without_replication_section_still_parse() {
        // A config serialized before storage-tier replication existed.
        let serde_json::Value::Object(obj) = serde_json::to_value(&PlatformConfig::demo(3)) else {
            panic!("config must serialize to an object");
        };
        let mut pruned = serde_json::Map::new();
        for (k, val) in obj.iter() {
            if k != "replication" {
                pruned.insert(k.clone(), val.clone());
            }
        }
        let back: PlatformConfig =
            serde_json::from_value(serde_json::Value::Object(pruned)).unwrap();
        assert_eq!(back.replication, pga_repl::ReplicationConfig::default());
        assert!(!back.replication.replicated());
        assert!(back.hedge_policy().is_none());
        assert!(back.validate().is_ok());
    }

    #[test]
    fn replication_validation_and_hedge_policy() {
        let mut c = PlatformConfig::demo(1);
        c.replication.factor = 2;
        assert!(c.validate().is_ok());
        assert_eq!(
            c.hedge_policy(),
            Some(pga_repl::HedgePolicy {
                delay_ms: c.replication.hedge_delay_ms
            })
        );
        // More copies than storage nodes cannot be placed distinctly.
        c.replication.factor = c.storage_nodes + 1;
        assert!(c.validate().is_err());
        // Quorum larger than the factor can never be met.
        let mut c = PlatformConfig::demo(1);
        c.replication.factor = 2;
        c.replication.write_quorum = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let c = PlatformConfig::demo(9);
        let json = serde_json::to_string_pretty(&c).unwrap();
        let back: PlatformConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
