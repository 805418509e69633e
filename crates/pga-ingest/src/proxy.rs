//! The buffering reverse proxy.
//!
//! Sits between sample producers and a pool of TSD daemons. Producers
//! submit batches into a **bounded** buffer (blocking when full — that is
//! the backpressure the paper added); worker threads drain the buffer and
//! forward each batch to the next TSD in round-robin order.
//!
//! Every TSD of the pool resolves names through one series table (clones
//! of one [`pga_tsdb::KeyCodec`]), so a worker resolves each sensor's
//! series once, in its own [`SensorSeries`], and forwards resolved points:
//! a series resolved through the first daemon's codec is valid on all of
//! them, retries included.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{bounded, Receiver, Sender};

use pga_sensorgen::SensorSample;
use pga_tsdb::{SeriesPoint, Tsd, TsdError};

use crate::series::SensorSeries;

/// Delay before the first retry; each further retry doubles it.
const BACKOFF_BASE_MS: u64 = 1;
/// Upper bound on any single retry delay.
const BACKOFF_CAP_MS: u64 = 100;

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
    /// Only storage failures are retried, each on the next TSD of the
    /// round robin after a jittered exponential delay, so a batch submitted
    /// while a region server is crashed lands once recovery reassigns its
    /// regions — never twice, since identical cells deduplicate in the
    /// store. Values below 1 behave as 1.
    pub max_forward_attempts: usize,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            buffer_capacity: 256,
            workers: 2,
            max_forward_attempts: 3,
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
    /// Batches given up on: a storage failure on every attempt, or a batch
    /// the store refused for its content.
    pub errors: AtomicU64,
    /// Failed forwarding attempts that were retried on another pick.
    pub retries: AtomicU64,
}

/// The reverse proxy. Submission blocks when the buffer is full.
pub struct ReverseProxy {
    tx: Option<Sender<Vec<SensorSample>>>,
    metrics: Arc<ProxyMetrics>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ReverseProxy {
    /// Spawn the proxy over a pool of TSD daemons. The daemon list must be
    /// non-empty; batches are distributed round-robin across it. Workers
    /// resolve series through the first daemon's codec, so every daemon
    /// must be built on a clone of it: one on another series table refuses
    /// the points ([`pga_tsdb::TsdError::ForeignSeries`]) and the batch
    /// counts as an error.
    pub fn spawn(tsds: Vec<Arc<Tsd>>, config: ProxyConfig) -> Result<Self, ProxyError> {
        let Some(codec) = tsds.first().map(|t| t.codec()) else {
            return Err(ProxyError::EmptyPool);
        };
        if config.workers == 0 {
            return Err(ProxyError::NoWorkers);
        }
        let (tx, rx): (Sender<Vec<SensorSample>>, Receiver<Vec<SensorSample>>) =
            bounded(config.buffer_capacity);
        let metrics = Arc::new(ProxyMetrics::default());
        let rr = Arc::new(AtomicUsize::new(0));
        let max_attempts = config.max_forward_attempts.max(1);
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let rx = rx.clone();
            let tsds = tsds.clone();
            let metrics = metrics.clone();
            let rr = rr.clone();
            let mut names = SensorSeries::new(codec.clone());
            let handle = std::thread::Builder::new()
                .name(format!("proxy-worker-{w}"))
                .spawn(move || {
                    // Per-worker jitter stream: deterministic, decorrelated
                    // from other workers.
                    let mut jitter_seq = (w as u64) << 32;
                    let mut points = Vec::new();
                    for samples in rx.iter() {
                        jitter_seq += 1;
                        points.extend(samples.iter().map(|s| names.point(s)));
                        forward_one(&points, &tsds, &metrics, &rr, max_attempts, jitter_seq);
                        points.clear();
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

/// Forward one queued batch: round-robin with jittered exponential
/// backoff. Every TSD fronts the same regions, so a storage failure is
/// retried on the next pick once recovery may have caught up. Re-putting
/// identical samples is safe — the store deduplicates identical cells, so
/// retried batches land exactly once. Any other refusal is a property of
/// the batch itself, so it counts as an error without a retry.
fn forward_one(
    points: &[SeriesPoint],
    tsds: &[Arc<Tsd>],
    metrics: &ProxyMetrics,
    rr: &AtomicUsize,
    max_attempts: usize,
    jitter_seq: u64,
) {
    let n = points.len() as u64;
    let mut attempt = 0usize;
    loop {
        let pick = rr.fetch_add(1, Ordering::Relaxed) % tsds.len();
        // `pick` is reduced modulo `tsds.len()`, but the serving path
        // still refuses to panic on a miss: treat it as a failed attempt.
        match tsds.get(pick).map(|t| t.put_series_batch(points)) {
            Some(Ok(())) => {
                metrics.batches_out.fetch_add(1, Ordering::Relaxed);
                metrics.samples_out.fetch_add(n, Ordering::Relaxed);
                return;
            }
            Some(Err(TsdError::Storage(_))) | None => {}
            Some(Err(_)) => {
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        attempt += 1;
        if attempt >= max_attempts {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        metrics.retries.fetch_add(1, Ordering::Relaxed);
        pause(
            attempt as u32,
            jitter_seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempt as u64,
        );
    }
}

/// SplitMix64: tiny deterministic hash for jitter. No global RNG state —
/// the same (seed, attempt) pair always produces the same delay, which
/// keeps retry traces replayable.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Delay before the `attempt`-th retry: `BACKOFF_BASE_MS * 2^attempt`,
/// capped at `BACKOFF_CAP_MS`, with deterministic jitter into `[d/2, d]`
/// so concurrent retriers decorrelate without ever waiting longer than
/// the exponential schedule.
fn delay(attempt: u32, seed: u64) -> Duration {
    let exp = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(20))
        .min(BACKOFF_CAP_MS);
    let half = (exp / 2).max(1);
    let jitter = splitmix64(seed ^ u64::from(attempt)) % half;
    Duration::from_millis(exp - jitter)
}

/// Block the current worker for the jittered delay of `attempt`.
fn pause(attempt: u32, seed: u64) {
    std::thread::sleep(delay(attempt, seed));
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

    /// A batch submitted while a region server is crashed (its lease not
    /// yet expired) is retried until recovery reassigns the dead server's regions, and then lands
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
    /// writes. Every TSD fronts every region, so once the master has moved
    /// the dead node's regions no TSD needs skipping: both take their
    /// round-robin share and nothing is lost.
    #[test]
    fn lease_expired_node_is_skipped_without_sample_loss() {
        let (mut master, tsds) = stack(2, 2);
        // Node 1 goes silent past its lease; node 0 keeps heartbeating.
        // tick() expires the session and reassigns node 1's regions.
        master.heartbeat(pga_cluster::NodeId(0), 15_000);
        master.tick(20_000);
        assert_eq!(master.live_nodes(), vec![pga_cluster::NodeId(0)]);

        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                buffer_capacity: 64,
                workers: 1,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        for t in 0..20u64 {
            proxy.submit(vec![sample(1, 1, t)]).unwrap();
        }
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 20);
        // Both TSDs took their round-robin share…
        for tsd in &tsds {
            assert_eq!(tsd.metrics().put_rpcs.load(Ordering::Relaxed), 10);
        }
        // …and every sample is queryable.
        let series = tsds[0]
            .query("energy", &QueryFilter::any(), 0, 100)
            .unwrap();
        let total: usize = series.iter().map(|s| s.points.len()).sum();
        assert_eq!(total, 20);
        master.shutdown();
    }

    /// A batch the store refuses for its content (here a timestamp past
    /// the last row a key can hold) gets the same answer on every TSD, so
    /// it is counted as an error at once, without retries or sleeps.
    #[test]
    fn a_batch_refused_for_its_content_is_not_retried() {
        let (master, tsds) = stack(2, 2);
        let late = tsds[0].codec().max_timestamp() + 1;
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                workers: 1,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        proxy.submit(vec![sample(1, 1, late)]).unwrap();
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.retries.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.batches_out.load(Ordering::Relaxed), 0);
        master.shutdown();
    }

    #[test]
    fn delay_grows_exponentially_to_the_cap() {
        // Jitter keeps each delay within [exp/2, exp].
        for attempt in 0..12u32 {
            let exp = (BACKOFF_BASE_MS << attempt).min(BACKOFF_CAP_MS);
            let d = delay(attempt, 42).as_millis() as u64;
            assert!(d <= exp, "attempt {attempt}: {d} > {exp}");
            assert!(d >= exp / 2, "attempt {attempt}: {d} too small vs {exp}");
        }
        // Far attempts are capped.
        assert!(delay(30, 7).as_millis() as u64 <= BACKOFF_CAP_MS);
    }

    #[test]
    fn delay_is_deterministic_and_jittered() {
        assert_eq!(delay(3, 99), delay(3, 99));
        // Different seeds decorrelate (at least one pair differs across a
        // few seeds — the jitter range at attempt 6 is 32 ms wide).
        let differs = (0..8u64).any(|s| delay(6, s) != delay(6, s + 1000));
        assert!(differs, "jitter should vary with seed");
    }
}
