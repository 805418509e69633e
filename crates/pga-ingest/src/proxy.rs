//! The buffering reverse proxy.
//!
//! Sits between sample producers and a pool of TSD daemons. Producers
//! submit batches into a **bounded** buffer (blocking when full — that is
//! the backpressure the paper added); worker threads drain the buffer and
//! forward each batch to the next TSD in round-robin order.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_channel::{bounded, Receiver, Sender};

use pga_cluster::rpc::default_clock_ms;
use pga_sensorgen::SensorSample;
use pga_tsdb::Tsd;

use crate::backoff::{BackoffPolicy, RetryBudget};
use crate::breaker::{BreakerConfig, CircuitBreaker};

/// Typed proxy failures — the request path never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyError {
    /// Spawn was given an empty TSD pool.
    EmptyPool,
    /// Spawn was configured with zero worker threads.
    NoWorkers,
    /// The OS refused to spawn a worker thread.
    SpawnFailed(String),
    /// The proxy has been shut down; the batch was not accepted.
    Stopped,
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::EmptyPool => write!(f, "proxy needs at least one TSD"),
            ProxyError::NoWorkers => write!(f, "proxy needs at least one worker"),
            ProxyError::SpawnFailed(e) => write!(f, "failed to spawn proxy worker: {e}"),
            ProxyError::Stopped => write!(f, "proxy is stopped"),
        }
    }
}

impl std::error::Error for ProxyError {}

/// Proxy tunables.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// Buffered batches before producers block.
    pub buffer_capacity: usize,
    /// Forwarding worker threads.
    pub workers: usize,
    /// Forwarding attempts per batch before it is counted as an error.
    /// Each retry re-picks a (healthy) target, so a batch submitted while
    /// a region server is crashed lands once recovery reassigns its
    /// regions — never twice, since identical cells deduplicate in the
    /// store. Values below 1 behave as 1.
    pub max_forward_attempts: usize,
    /// **Base** of the jittered exponential retry backoff. The field
    /// keeps its historical name (it used to be a fixed per-retry sleep)
    /// so existing configs and tests continue to work; the value now
    /// seeds attempt 0 of the exponential schedule.
    pub retry_backoff: std::time::Duration,
    /// Upper bound on any single retry delay in the exponential schedule.
    pub backoff_cap: std::time::Duration,
    /// Retry-budget bucket size (tokens). Each retry spends one token and
    /// each successful forward deposits [`ProxyConfig::retry_budget_refill`];
    /// an empty bucket forces retries to the capped (slowest) pace — it
    /// never authorises dropping a batch.
    pub retry_budget: u32,
    /// Fraction of a retry token deposited per successful forward.
    pub retry_budget_refill: f64,
    /// Per-target circuit breaker tunables.
    pub breaker: BreakerConfig,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            buffer_capacity: 256,
            workers: 2,
            max_forward_attempts: 3,
            retry_backoff: std::time::Duration::from_millis(1),
            backoff_cap: std::time::Duration::from_millis(100),
            retry_budget: 32,
            retry_budget_refill: 0.1,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Counters exported by the proxy.
#[derive(Debug, Default)]
pub struct ProxyMetrics {
    /// Batches accepted from producers.
    pub batches_in: AtomicU64,
    /// Batches forwarded to TSDs.
    pub batches_out: AtomicU64,
    /// Samples forwarded.
    pub samples_out: AtomicU64,
    /// Forwarding errors (storage failures after all attempts).
    pub errors: AtomicU64,
    /// Round-robin picks rerouted past an unhealthy target.
    pub rerouted: AtomicU64,
    /// Failed forwarding attempts that were retried on another pick.
    pub retries: AtomicU64,
    /// Retries that found the retry budget empty (slowed to the cap).
    pub budget_exhausted: AtomicU64,
    /// Circuit-breaker trips (Closed/HalfOpen → Open transitions).
    pub breaker_trips: AtomicU64,
}

/// Health view over the TSD pool, indexed like the `tsds` slice given to
/// [`ReverseProxy::spawn_with_health`]. Workers consult it per batch so the
/// proxy stops routing to nodes whose region server crashed or whose
/// coordinator lease expired (§III-B: a downed node must not keep
/// receiving its round-robin share).
pub trait TargetHealth: Send + Sync + 'static {
    /// Whether the TSD at `index` should receive traffic right now.
    fn is_healthy(&self, index: usize) -> bool;
}

/// Every target healthy — the static-pool default.
pub struct AlwaysHealthy;

impl TargetHealth for AlwaysHealthy {
    fn is_healthy(&self, _index: usize) -> bool {
        true
    }
}

/// Closure adapter for [`TargetHealth`].
pub struct HealthFn<F>(pub F);

impl<F: Fn(usize) -> bool + Send + Sync + 'static> TargetHealth for HealthFn<F> {
    fn is_healthy(&self, index: usize) -> bool {
        (self.0)(index)
    }
}

/// Health-aware round-robin target choice: starting from `pick`, advance
/// (wrapping) to the first index `health` reports up; if every target is
/// down the original pick is returned — the caller forwards anyway and
/// relies on retries. Shared by the proxy workers and the deterministic
/// fault-simulation harness so both route identically.
pub fn choose_target(pick: usize, len: usize, health: &dyn TargetHealth) -> usize {
    choose_routable(pick, len, |i| health.is_healthy(i))
}

/// Closure form of [`choose_target`]: the proxy workers compose the
/// external health view with per-target circuit-breaker state here.
pub fn choose_routable(pick: usize, len: usize, routable: impl Fn(usize) -> bool) -> usize {
    if len == 0 {
        return pick;
    }
    let pick = pick % len;
    (0..len)
        .map(|off| (pick + off) % len)
        .find(|&i| routable(i))
        .unwrap_or(pick)
}

/// The reverse proxy. Submission blocks when the buffer is full.
pub struct ReverseProxy {
    tx: Option<Sender<Vec<SensorSample>>>,
    metrics: Arc<ProxyMetrics>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ReverseProxy {
    /// Spawn the proxy over a pool of TSD daemons. The daemon list must be
    /// non-empty; batches are distributed round-robin across it.
    pub fn spawn(tsds: Vec<Arc<Tsd>>, config: ProxyConfig) -> Result<Self, ProxyError> {
        Self::spawn_with_health(tsds, config, Arc::new(AlwaysHealthy))
    }

    /// Spawn with a health view: workers advance the round-robin pointer
    /// past targets `health` reports down, so a crashed or lease-expired
    /// node receives no new batches while healthy nodes absorb its share.
    /// If every target is down the original pick is used anyway — the
    /// proxy buffers and retries storage errors upward, it never drops.
    pub fn spawn_with_health(
        tsds: Vec<Arc<Tsd>>,
        config: ProxyConfig,
        health: Arc<dyn TargetHealth>,
    ) -> Result<Self, ProxyError> {
        if tsds.is_empty() {
            return Err(ProxyError::EmptyPool);
        }
        if config.workers == 0 {
            return Err(ProxyError::NoWorkers);
        }
        let (tx, rx): (Sender<Vec<SensorSample>>, Receiver<Vec<SensorSample>>) =
            bounded(config.buffer_capacity);
        let metrics = Arc::new(ProxyMetrics::default());
        let breakers: Arc<Vec<CircuitBreaker>> = Arc::new(
            (0..tsds.len())
                .map(|_| CircuitBreaker::new(config.breaker))
                .collect(),
        );
        let budget = Arc::new(RetryBudget::new(
            config.retry_budget,
            config.retry_budget_refill,
        ));
        let backoff = BackoffPolicy {
            base: config.retry_backoff,
            cap: config.backoff_cap.max(config.retry_backoff),
        };
        let rr = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let rx = rx.clone();
            let tsds = tsds.clone();
            let metrics = metrics.clone();
            let rr = rr.clone();
            let health = health.clone();
            let breakers = breakers.clone();
            let budget = budget.clone();
            let handle = std::thread::Builder::new()
                .name(format!("proxy-worker-{w}"))
                .spawn(move || {
                    // Per-worker jitter stream: deterministic, decorrelated
                    // from other workers.
                    let mut jitter_seq = (w as u64) << 32;
                    for samples in rx.iter() {
                        jitter_seq += 1;
                        forward_one(
                            &samples,
                            &tsds,
                            &metrics,
                            &rr,
                            health.as_ref(),
                            &breakers,
                            &budget,
                            &backoff,
                            &config,
                            jitter_seq,
                        );
                    }
                })
                .map_err(|e| ProxyError::SpawnFailed(e.to_string()))?;
            workers.push(handle);
        }
        Ok(ReverseProxy {
            tx: Some(tx),
            metrics,
            workers,
        })
    }

    /// Submit one batch; blocks while the buffer is full (backpressure).
    /// Returns [`ProxyError::Stopped`] once the intake is closed or the
    /// workers are gone — the caller decides whether that is fatal.
    pub fn submit(&self, batch: Vec<SensorSample>) -> Result<(), ProxyError> {
        let tx = self.tx.as_ref().ok_or(ProxyError::Stopped)?;
        tx.send(batch).map_err(|_| ProxyError::Stopped)?;
        self.metrics.batches_in.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Shared metrics handle.
    pub fn metrics(&self) -> Arc<ProxyMetrics> {
        self.metrics.clone()
    }

    /// Close the intake and wait for workers to drain everything.
    pub fn drain_and_join(mut self) -> Arc<ProxyMetrics> {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.metrics.clone()
    }
}

/// Forward one queued batch: health- and breaker-aware round-robin with
/// jittered exponential backoff. Every attempt re-picks a target, so a
/// batch caught by a crash is re-forwarded once recovery catches up.
/// Re-putting identical samples is safe — the store deduplicates identical
/// cells, so retried batches land exactly once.
#[allow(clippy::too_many_arguments)]
fn forward_one(
    samples: &[SensorSample],
    tsds: &[Arc<Tsd>],
    metrics: &ProxyMetrics,
    rr: &AtomicUsize,
    health: &dyn TargetHealth,
    breakers: &[CircuitBreaker],
    budget: &RetryBudget,
    backoff: &BackoffPolicy,
    config: &ProxyConfig,
    jitter_seq: u64,
) {
    let n = samples.len() as u64;
    // Every sample's tag values as text, in one buffer: unit digits then
    // sensor digits, cut apart again at the recorded ends.
    let mut digits = String::new();
    let mut ends: Vec<(usize, usize)> = Vec::with_capacity(samples.len());
    for s in samples {
        // Writing to a `String` cannot fail.
        let _ = write!(digits, "{}", s.unit);
        let unit_end = digits.len();
        let _ = write!(digits, "{}", s.sensor);
        ends.push((unit_end, digits.len()));
    }
    let mut start = 0;
    let tag_pairs: Vec<[(&str, &str); 2]> = ends
        .iter()
        .map(|&(unit_end, end)| {
            let unit = digits.get(start..unit_end).unwrap_or_default();
            let sensor = digits.get(unit_end..end).unwrap_or_default();
            start = end;
            [("unit", unit), ("sensor", sensor)]
        })
        .collect();
    let points: Vec<pga_tsdb::BatchPoint> = samples
        .iter()
        .zip(&tag_pairs)
        .map(|(s, tags)| (&tags[..], s.timestamp, s.value))
        .collect();
    let mut attempt = 0usize;
    loop {
        let now_ms = default_clock_ms();
        let pick = rr.fetch_add(1, Ordering::Relaxed) % tsds.len();
        // A target is routable when it is healthy *and* its breaker
        // admits traffic right now (Closed, or Open past cooldown /
        // HalfOpen with a free probe slot).
        let target = choose_routable(pick, tsds.len(), |i| {
            health.is_healthy(i) && breakers.get(i).map(|b| b.allow(now_ms)).unwrap_or(true)
        });
        if target != pick {
            metrics.rerouted.fetch_add(1, Ordering::Relaxed);
        }
        // `target` is reduced modulo `tsds.len()`, but the serving path
        // still refuses to panic on a miss: treat it as a failed attempt.
        if let Some(Ok(())) = tsds.get(target).map(|t| t.put_batch("energy", &points)) {
            if let Some(b) = breakers.get(target) {
                b.on_success();
            }
            budget.on_success();
            metrics.batches_out.fetch_add(1, Ordering::Relaxed);
            metrics.samples_out.fetch_add(n, Ordering::Relaxed);
            return;
        }
        attempt += 1;
        if let Some(b) = breakers.get(target) {
            if b.on_failure(now_ms) {
                metrics.breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
        }
        if attempt >= config.max_forward_attempts.max(1) {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        metrics.retries.fetch_add(1, Ordering::Relaxed);
        let seed = jitter_seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempt as u64;
        if budget.try_spend() {
            backoff.pause(attempt as u32, seed);
        } else {
            // Budget empty: retry at the slowest pace. Never drop.
            metrics.budget_exhausted.fetch_add(1, Ordering::Relaxed);
            backoff.pause_at_least(attempt as u32, seed, backoff.cap.as_millis() as u64);
        }
    }
}

impl Drop for ReverseProxy {
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
    use pga_tsdb::{KeyCodec, KeyCodecConfig, QueryFilter, TsdConfig, UidTable};

    fn stack(nodes: usize, tsd_count: usize) -> (Master, Vec<Arc<Tsd>>) {
        let uids = UidTable::new();
        let codec = KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: 8,
                row_span_secs: 3600,
            },
            uids,
        );
        let coord = Coordinator::new(10_000);
        let mut master = Master::bootstrap(nodes, ServerConfig::default(), coord, 0);
        master.create_table(&TableDescriptor {
            name: "tsdb".into(),
            split_points: codec.split_points(),
            region_config: RegionConfig::default(),
        });
        let tsds = (0..tsd_count)
            .map(|_| {
                Arc::new(Tsd::new(
                    codec.clone(),
                    Client::connect(&master),
                    TsdConfig::default(),
                ))
            })
            .collect();
        (master, tsds)
    }

    fn sample(unit: u32, sensor: u32, ts: u64) -> SensorSample {
        SensorSample {
            unit,
            sensor,
            timestamp: ts,
            value: (unit + sensor) as f64,
        }
    }

    #[test]
    fn proxy_forwards_all_batches() {
        let (master, tsds) = stack(2, 3);
        let proxy = ReverseProxy::spawn(tsds.clone(), ProxyConfig::default()).unwrap();
        for t in 0..20u64 {
            proxy
                .submit(vec![sample(1, 1, t), sample(1, 2, t)])
                .unwrap();
        }
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.batches_in.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.batches_out.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 40);
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 0);
        // All points visible through any TSD.
        let series = tsds[0]
            .query("energy", &QueryFilter::any(), 0, 100)
            .unwrap();
        let total: usize = series.iter().map(|s| s.points.len()).sum();
        assert_eq!(total, 40);
        master.shutdown();
    }

    #[test]
    fn round_robin_spreads_batches_across_tsds() {
        let (master, tsds) = stack(2, 4);
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                buffer_capacity: 64,
                workers: 1,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        for t in 0..40u64 {
            proxy.submit(vec![sample(2, 3, t)]).unwrap();
        }
        proxy.drain_and_join();
        for tsd in &tsds {
            let rpcs = tsd.metrics().put_rpcs.load(Ordering::Relaxed);
            assert_eq!(rpcs, 10, "round robin should be exact with one worker");
        }
        master.shutdown();
    }

    #[test]
    fn bounded_buffer_applies_backpressure_not_loss() {
        let (master, tsds) = stack(1, 1);
        // Tiny buffer; submission must block rather than drop.
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                buffer_capacity: 2,
                workers: 1,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        for t in 0..100u64 {
            proxy.submit(vec![sample(1, 1, t)]).unwrap();
        }
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 100);
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 0);
        master.shutdown();
    }

    #[test]
    fn empty_tsd_pool_rejected() {
        let err = ReverseProxy::spawn(Vec::new(), ProxyConfig::default())
            .err()
            .expect("empty pool must be rejected");
        assert_eq!(err, ProxyError::EmptyPool);
    }

    #[test]
    fn zero_workers_rejected() {
        let (master, tsds) = stack(1, 1);
        let err = ReverseProxy::spawn(
            tsds,
            ProxyConfig {
                buffer_capacity: 4,
                workers: 0,
                ..ProxyConfig::default()
            },
        )
        .err()
        .expect("zero workers must be rejected");
        assert_eq!(err, ProxyError::NoWorkers);
        master.shutdown();
    }

    /// Satellite: a batch submitted while a region server is crashed (its
    /// lease not yet expired, so health checks still pass) is retried
    /// until recovery reassigns the dead server's regions, and then lands
    /// **exactly once** — no loss, and no duplicate samples in scans even
    /// though earlier attempts may have partially written.
    #[test]
    fn retried_batches_land_exactly_once_after_recovery() {
        let (mut master, tsds) = stack(2, 2);
        // Crash node 1's region server outright. The directory still maps
        // half the salt buckets to it, so forwards through ANY tsd fail
        // for those regions until the master reassigns them.
        master.server(pga_cluster::NodeId(1)).unwrap().shutdown();
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                // Large enough to hold every submission: the test thread
                // must get past submit() to drive recovery while the
                // worker is still retrying.
                buffer_capacity: 256,
                workers: 1,
                max_forward_attempts: 5000,
                retry_backoff: std::time::Duration::from_millis(1),
                // Keep retries fast: recovery is driven by the test thread
                // and the worker must reach it promptly.
                backoff_cap: std::time::Duration::from_millis(4),
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        // Spread series across units so several salt buckets — including
        // ones hosted on the dead node — receive writes.
        for t in 0..20u64 {
            for unit in 0..8u32 {
                proxy.submit(vec![sample(unit, 1, t)]).unwrap();
            }
        }
        // Wait until the worker has actually hit the dead server…
        let metrics = proxy.metrics();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while metrics.retries.load(Ordering::Relaxed) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never hit the crashed server"
            );
            std::thread::yield_now();
        }
        // …then recover: node 0 keeps heartbeating, node 1's lease
        // expires, tick() reassigns its regions through WAL replay.
        master.heartbeat(pga_cluster::NodeId(0), 15_000);
        master.tick(20_000);
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 0, "nothing dropped");
        assert!(
            metrics.retries.load(Ordering::Relaxed) > 0,
            "retries happened"
        );
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 160);
        // Exactly once: every sample visible, none duplicated, even where
        // a failed attempt partially wrote before erroring.
        let series = tsds[0]
            .query("energy", &QueryFilter::any(), 0, 100)
            .unwrap();
        let total: usize = series.iter().map(|s| s.points.len()).sum();
        assert_eq!(total, 160);
        master.shutdown();
    }

    /// Regression: round-robin used to keep sending every other batch to a
    /// node whose region server had crashed (lease expired), failing those
    /// writes. With a health view the proxy must skip the dead node and
    /// lose nothing.
    #[test]
    fn lease_expired_node_is_skipped_without_sample_loss() {
        let (mut master, tsds) = stack(2, 2);
        // TSD i fronts node i; healthy while its /rs znode (lease) exists.
        let coord = master.coordinator().clone();
        let health = Arc::new(HealthFn(move |i: usize| {
            coord.get(&format!("/rs/{i}")).is_ok()
        }));
        // Node 1 goes silent past its lease; node 0 keeps heartbeating.
        // tick() expires the session and reassigns node 1's regions.
        master.heartbeat(pga_cluster::NodeId(0), 15_000);
        master.tick(20_000);
        assert_eq!(master.live_nodes(), vec![pga_cluster::NodeId(0)]);

        let proxy = ReverseProxy::spawn_with_health(
            tsds.clone(),
            ProxyConfig {
                buffer_capacity: 64,
                workers: 1,
                ..ProxyConfig::default()
            },
            health,
        )
        .unwrap();
        for t in 0..20u64 {
            proxy.submit(vec![sample(1, 1, t)]).unwrap();
        }
        let metrics = proxy.drain_and_join();
        // The dead node's TSD received no new batches…
        assert_eq!(tsds[1].metrics().put_rpcs.load(Ordering::Relaxed), 0);
        // …its round-robin share was rerouted, not dropped…
        assert_eq!(metrics.rerouted.load(Ordering::Relaxed), 10);
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 20);
        // …and every sample is queryable.
        let series = tsds[0]
            .query("energy", &QueryFilter::any(), 0, 100)
            .unwrap();
        let total: usize = series.iter().map(|s| s.points.len()).sum();
        assert_eq!(total, 20);
        master.shutdown();
    }
}
