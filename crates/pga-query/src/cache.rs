//! Sharded TTL result cache with anomaly-driven invalidation.
//!
//! Dashboard queries repeat: every viewer of the fleet page issues the same
//! `(metric, filter, range, downsample)` tuple. Entries live for a short
//! TTL and are **explicitly invalidated** the moment the detection layer
//! flags an anomaly on a series the cached result covers — a freshly
//! flagged machine must never be hidden behind a stale chart, so the
//! anomaly path trades a recompute for zero staleness on exactly the
//! series that matter.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use pga_cluster::rpc::ClockMs;
use pga_tsdb::{Aggregator, QueryFilter, TimeSeries};

/// Cache sizing and lifetime knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independently locked shards.
    pub shards: usize,
    /// Entry lifetime in milliseconds.
    pub ttl_ms: u64,
    /// Maximum entries per shard; inserts beyond it are dropped (the
    /// admission policy is deliberately naive — see ROADMAP open items).
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            ttl_ms: 5_000,
            capacity_per_shard: 256,
        }
    }
}

/// What a cached answer answers: the whole request, field by field. No
/// delimiter joins the fields, so no two different requests share a key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Metric queried.
    pub metric: String,
    /// Required tag pairs.
    pub filter: QueryFilter,
    /// Range start, inclusive.
    pub start: u64,
    /// Range end, inclusive.
    pub end: u64,
    /// Downsample window and aggregator, if any.
    pub downsample: Option<(u64, Aggregator)>,
}

impl CacheKey {
    /// The key of one request.
    pub fn new(
        metric: &str,
        filter: &QueryFilter,
        start: u64,
        end: u64,
        downsample: Option<(u64, Aggregator)>,
    ) -> Self {
        CacheKey {
            metric: metric.to_string(),
            filter: filter.clone(),
            start,
            end,
            downsample,
        }
    }
}

struct Entry {
    at_ms: u64,
    series: Vec<TimeSeries>,
}

/// Monotone counters exposed through the engine's stats snapshot.
#[derive(Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: AtomicU64,
    /// Lookups that missed (absent or expired).
    pub misses: AtomicU64,
    /// Entries removed by anomaly invalidation.
    pub invalidated: AtomicU64,
    /// Inserts dropped because a shard was full.
    pub admission_drops: AtomicU64,
}

/// The sharded cache, keyed by the full request ([`CacheKey`]); anomaly
/// invalidation matches affected results on the key's metric and tags.
pub struct ResultCache {
    shards: Vec<Mutex<HashMap<CacheKey, Entry>>>,
    config: CacheConfig,
    clock: ClockMs,
    stats: CacheStats,
}

impl ResultCache {
    /// Build a cache reading time from `clock` (injectable for tests and
    /// the deterministic fault simulator).
    pub fn new(config: CacheConfig, clock: ClockMs) -> Self {
        let shards = config.shards.max(1);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            config,
            clock,
            stats: CacheStats::default(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Entry>> {
        // Any stable spread works: the shards only split the lock.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Fetch a live entry's series, counting a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Vec<TimeSeries>> {
        let now = (self.clock)();
        let shard = self.shard(key).lock();
        match shard.get(key) {
            Some(e) if now.saturating_sub(e.at_ms) < self.config.ttl_ms => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.series.clone())
            }
            _ => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a complete (non-partial) result.
    pub fn insert(&self, key: CacheKey, series: Vec<TimeSeries>) {
        let now = (self.clock)();
        let mut shard = self.shard(&key).lock();
        if shard.len() >= self.config.capacity_per_shard && !shard.contains_key(&key) {
            let ttl = self.config.ttl_ms;
            shard.retain(|_, e| now.saturating_sub(e.at_ms) < ttl);
            if shard.len() >= self.config.capacity_per_shard {
                self.stats.admission_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        shard.insert(key, Entry { at_ms: now, series });
    }

    /// Drop every cached result that covers the series `(metric, tags)` —
    /// called when the detection layer flags an anomaly on it. Returns the
    /// number of entries removed.
    pub fn invalidate(&self, metric: &str, tags: &BTreeMap<String, String>) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let before = shard.len();
            shard.retain(|key, _| key.metric != metric || !key.filter.matches(tags));
            removed += before - shard.len();
        }
        self.stats
            .invalidated
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Counter view.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Entries currently held (expired-but-unevicted included).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Ticker;
    use std::sync::Arc;

    fn fixed_clock() -> (Arc<Ticker>, ClockMs) {
        let t = Arc::new(Ticker::new(0));
        let c = t.clone();
        (t, Arc::new(move || c.load(Ordering::SeqCst)))
    }

    /// The key of `metric{unit=…}` (no unit: any) over one fixed range.
    fn key(metric: &str, unit: Option<&str>) -> CacheKey {
        let filter = match unit {
            Some(u) => QueryFilter::any().with("unit", u),
            None => QueryFilter::any(),
        };
        CacheKey::new(metric, &filter, 0, 100, None)
    }

    fn series(unit: &str) -> Vec<TimeSeries> {
        vec![TimeSeries {
            metric: "energy".into(),
            tags: [("unit".to_string(), unit.to_string())].into(),
            points: vec![],
        }]
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let (t, clock) = fixed_clock();
        let cache = ResultCache::new(
            CacheConfig {
                ttl_ms: 100,
                ..Default::default()
            },
            clock,
        );
        let k = key("energy", None);
        cache.insert(k.clone(), series("1"));
        assert!(cache.get(&k).is_some());
        t.store(99, Ordering::SeqCst);
        assert!(cache.get(&k).is_some());
        t.store(100, Ordering::SeqCst);
        assert!(cache.get(&k).is_none(), "expired at ttl");
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 2);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn anomaly_invalidation_is_selective() {
        let (_t, clock) = fixed_clock();
        let cache = ResultCache::new(CacheConfig::default(), clock);
        // Three cached results: unit 1, unit 2, and a fleet-wide view.
        let (u1, u2, fleet) = (
            key("energy", Some("1")),
            key("energy", Some("2")),
            key("energy", None),
        );
        cache.insert(u1.clone(), series("1"));
        cache.insert(u2.clone(), series("2"));
        cache.insert(fleet.clone(), series("*"));
        // Anomaly on unit 1 sensor 3: kills unit-1 view and the fleet view
        // (both cover the flagged series); unit-2 view survives.
        let flagged: BTreeMap<String, String> = [
            ("unit".to_string(), "1".to_string()),
            ("sensor".to_string(), "3".to_string()),
        ]
        .into();
        assert_eq!(cache.invalidate("energy", &flagged), 2);
        assert!(cache.get(&u1).is_none());
        assert!(cache.get(&fleet).is_none());
        assert!(cache.get(&u2).is_some());
        // Different metric never matches.
        assert_eq!(cache.invalidate("temperature", &flagged), 0);
    }

    #[test]
    fn full_shard_drops_inserts_until_expiry() {
        let (t, clock) = fixed_clock();
        let cache = ResultCache::new(
            CacheConfig {
                shards: 1,
                ttl_ms: 50,
                capacity_per_shard: 2,
            },
            clock,
        );
        cache.insert(key("a", None), vec![]);
        cache.insert(key("b", None), vec![]);
        cache.insert(key("c", None), vec![]);
        assert_eq!(cache.len(), 2, "third insert dropped");
        assert_eq!(cache.stats().admission_drops.load(Ordering::Relaxed), 1);
        // Once the residents expire, the purge on insert makes room.
        t.store(60, Ordering::SeqCst);
        cache.insert(key("c", None), vec![]);
        assert!(cache.get(&key("c", None)).is_some());
    }

    /// A key is the request itself: field values that would spell one
    /// delimited string the same way are still different keys.
    #[test]
    fn requests_that_spell_alike_keep_apart() {
        let (_t, clock) = fixed_clock();
        let cache = ResultCache::new(CacheConfig::default(), clock);
        let forged = [
            // A tag value holding the pair that would follow it.
            CacheKey::new(
                "energy",
                &QueryFilter::any().with("sensor", "2,unit=1"),
                0,
                100,
                None,
            ),
            // A metric holding the key's field separator and the range.
            CacheKey::new(
                "energy|sensor=2,unit=1,|0",
                &QueryFilter::any(),
                0,
                100,
                None,
            ),
            CacheKey::new(
                "energy|",
                &QueryFilter::any().with("sensor", "2"),
                0,
                100,
                None,
            ),
        ];
        let real = CacheKey::new(
            "energy",
            &QueryFilter::any().with("unit", "1").with("sensor", "2"),
            0,
            100,
            None,
        );
        for k in &forged {
            cache.insert(k.clone(), vec![]);
            assert_ne!(k, &real);
        }
        assert!(
            cache.get(&real).is_none(),
            "no forged key answers the real one"
        );
        cache.insert(real.clone(), series("1"));
        assert_eq!(cache.get(&real), Some(series("1")));
        for k in &forged {
            assert_eq!(cache.get(k), Some(vec![]));
        }
        // Invalidation reads the key's own metric and tags.
        let flagged: BTreeMap<String, String> = [
            ("unit".to_string(), "1".to_string()),
            ("sensor".to_string(), "2".to_string()),
        ]
        .into();
        assert_eq!(cache.invalidate("energy", &flagged), 1);
        assert!(cache.get(&real).is_none());
    }
}
