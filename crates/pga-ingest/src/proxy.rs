//! The buffering reverse proxy.
//!
//! Sits between sample producers and a pool of TSD daemons. Producers
//! submit batches into **bounded** queues (blocking when full — that is
//! the backpressure the paper added); long-lived worker threads drain the
//! queues and forward to the TSDs.
//!
//! The paper's proxy round-robins across TSDs; this one does so per
//! series. There is one lane per TSD, and a series always travels in lane
//! `salt % tsds.len()`, where the salt is the first byte of its row key.
//! The proxy splits each batch into lane parts, and each lane belongs to
//! one worker. A submission hands each worker all of its parts as one
//! queue entry: one batch's from [`ReverseProxy::submit`], a whole
//! group's when an ingest call hands over a range of batches at once. A
//! queue holds at most its share of the buffer's parts; a worker takes
//! all of them and forwards each lane's parts, in submission order, as
//! one put to that lane's TSD. So a group goes out as one put per lane
//! however the threads are scheduled, every series reaches one TSD — and
//! that TSD's write-path observer — in the order it was submitted, and
//! the TSDs take their salts' shares. When the TSD count divides the salt
//! buckets, a lane's part lands on its own regions only.
//!
//! Every TSD of the pool resolves names through one series table (clones
//! of one [`pga_tsdb::KeyCodec`]), so the proxy resolves each sensor's
//! series once, in its [`SensorSeries`], and a lane part carries each
//! point as `(series id, timestamp, value)`: an id of the first daemon's
//! table names the same series on all of them. A worker groups each
//! lane's parts by series once ([`SeriesRuns::group`]) and puts the runs:
//! the TSD and its write-path observer read a series' points together,
//! in submission order, and the proxy touches no series entry a point.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use pga_sensorgen::SensorSample;
use pga_tsdb::{KeyCodec, SeriesPoint, SeriesRuns, Tsd, TsdError};

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
    /// Lane parts (a batch's share for one TSD) buffered before producers
    /// block, split evenly across the worker queues (at least one each).
    /// The bound counts parts, however they were handed over: single
    /// batches queue until their worker's share is full, and an ingest
    /// call hands over its batches in groups of one queue's worth, so at
    /// most one group waits per worker. A worker forwards at most one
    /// queue's worth at a time.
    pub buffer_capacity: usize,
    /// Forwarding worker threads; no more are started than there are
    /// lanes (TSDs). Lane `l` belongs to worker `l % workers`.
    pub workers: usize,
    /// Forwarding attempts per put before its batches are counted as
    /// errors. Only storage failures are retried, each on the lane's own
    /// TSD after a jittered exponential delay, so a batch submitted while
    /// a region server is crashed lands once recovery reassigns its
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
    /// Batches forwarded to TSDs: every lane part of the batch landed.
    /// An empty batch counts here as soon as it is submitted.
    pub batches_out: AtomicU64,
    /// Samples forwarded.
    pub samples_out: AtomicU64,
    /// Batches given up on: some lane part met a storage failure on every
    /// attempt, or was refused by the store for its content.
    pub errors: AtomicU64,
    /// Failed forwarding attempts that were retried.
    pub retries: AtomicU64,
}

/// The batches one caller submitted through
/// [`ReverseProxy::submit_group`], counted as each settles: once every
/// lane part of it has landed or been given up on.
#[derive(Debug, Default)]
pub(crate) struct Settlement {
    counts: std::sync::Mutex<Settled>,
    changed: Condvar,
}

/// What a [`Settlement`] has counted so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Settled {
    /// Batches submitted and not yet settled.
    pending: u64,
    /// Batches forwarded whole.
    pub(crate) forwarded: u64,
    /// Batches given up on.
    pub(crate) errors: u64,
}

impl Settlement {
    /// Block, without spinning, until every batch submitted against this
    /// settlement has settled; then what became of them.
    pub(crate) fn wait(&self) -> Settled {
        let counts = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        let counts = self
            .changed
            .wait_while(counts, |c| c.pending > 0)
            .unwrap_or_else(PoisonError::into_inner);
        *counts
    }

    fn update(&self, f: impl FnOnce(&mut Settled)) {
        let mut counts = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut counts);
        if counts.pending == 0 {
            self.changed.notify_all();
        }
    }
}

/// One lane's share of a submitted batch.
struct Part {
    lane: usize,
    points: Vec<SeriesPoint>,
    tally: Arc<Tally>,
}

/// The outcome of a submitted batch, shared by its lane parts until the
/// last one lands or is given up on; that one counts the batch, once.
struct Tally {
    parts: AtomicUsize,
    failed: AtomicBool,
    settlement: Option<Arc<Settlement>>,
}

impl Tally {
    /// Settle one part of the batch; the last part counts the batch.
    fn settle(&self, landed: bool, metrics: &ProxyMetrics) {
        if !landed {
            self.failed.store(true, Ordering::Release);
        }
        if self.parts.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.count(metrics);
        }
    }

    /// Count the settled batch as forwarded, or as an error if any part
    /// was given up on, in the proxy's metrics and its caller's
    /// settlement.
    fn count(&self, metrics: &ProxyMetrics) {
        let failed = self.failed.load(Ordering::Acquire);
        let counter = if failed {
            &metrics.errors
        } else {
            &metrics.batches_out
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(settlement) = &self.settlement {
            settlement.update(|c| {
                c.pending -= 1;
                if failed {
                    c.errors += 1;
                } else {
                    c.forwarded += 1;
                }
            });
        }
    }
}

/// One worker's queue: entries of lane parts, bounded in parts. An entry
/// is one submission's parts for the worker and is taken whole.
struct Queue {
    /// Parts queued before producers block.
    capacity: usize,
    state: std::sync::Mutex<Queued>,
    /// Signalled when parts leave the queue or it closes.
    room: Condvar,
    /// Signalled when an entry arrives or the queue closes.
    ready: Condvar,
}

#[derive(Default)]
struct Queued {
    entries: VecDeque<Vec<Part>>,
    /// Parts in `entries`.
    parts: usize,
    closed: bool,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            capacity,
            state: Default::default(),
            room: Condvar::new(),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queued> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue `entry`, blocking while its parts do not fit beside those
    /// queued; an entry larger than the whole queue waits for it to empty.
    /// The entry comes back once the queue is closed.
    fn push(&self, entry: Vec<Part>) -> Result<(), Vec<Part>> {
        let queued = self.lock();
        let full =
            |q: &mut Queued| !q.closed && q.parts > 0 && q.parts + entry.len() > self.capacity;
        let mut queued = self
            .room
            .wait_while(queued, full)
            .unwrap_or_else(PoisonError::into_inner);
        if queued.closed {
            return Err(entry);
        }
        queued.parts += entry.len();
        queued.entries.push_back(entry);
        self.ready.notify_one();
        Ok(())
    }

    /// Move every queued part, oldest first, into `taken`: at most one
    /// queue's worth, or one larger entry, since `push` admits no more.
    /// Blocks until there is one; false once the queue is closed and
    /// empty.
    fn take(&self, taken: &mut Vec<Part>) -> bool {
        let queued = self.lock();
        let mut queued = self
            .ready
            .wait_while(queued, |q| q.entries.is_empty() && !q.closed)
            .unwrap_or_else(PoisonError::into_inner);
        taken.extend(queued.entries.drain(..).flatten());
        queued.parts = 0;
        self.room.notify_all();
        !taken.is_empty()
    }

    /// Refuse further entries; those queued are still taken.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
        self.room.notify_all();
    }
}

/// Closes its worker's queue when the worker stops, however it stops, so
/// that producers are refused rather than left waiting for room.
struct CloseOnExit(Arc<Queue>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The reverse proxy. Submission blocks when a worker's queue is full.
/// The workers live until [`ReverseProxy::drain_and_join`] or drop.
pub struct ReverseProxy {
    /// One queue per worker; `None` once the intake is closed.
    queues: RwLock<Option<Vec<Arc<Queue>>>>,
    /// One lane per TSD.
    lanes: usize,
    /// Batches a group may hold: as many as fill one queue with parts.
    group_len: usize,
    names: Mutex<SensorSeries>,
    metrics: Arc<ProxyMetrics>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ReverseProxy {
    /// Spawn the proxy over a pool of TSD daemons, one lane per daemon.
    /// The daemon list must be non-empty. The proxy resolves series
    /// through the first daemon's codec, so every daemon must be built on
    /// a clone of it: one on another series table refuses the points
    /// ([`pga_tsdb::TsdError::ForeignSeries`]) and the batch counts as an
    /// error.
    pub fn spawn(tsds: Vec<Arc<Tsd>>, config: ProxyConfig) -> Result<Self, ProxyError> {
        let Some(codec) = tsds.first().map(|t| t.codec().clone()) else {
            return Err(ProxyError::EmptyPool);
        };
        if config.workers == 0 {
            return Err(ProxyError::NoWorkers);
        }
        let lanes = tsds.len();
        let worker_count = config.workers.min(lanes);
        let capacity = (config.buffer_capacity / worker_count).max(1);
        let max_attempts = config.max_forward_attempts.max(1);
        let mut proxy = ReverseProxy {
            queues: RwLock::new(Some(Vec::with_capacity(worker_count))),
            lanes,
            // A batch has at most one part per lane, and the busiest
            // worker owns `ceil(lanes / workers)` lanes.
            group_len: (capacity / lanes.div_ceil(worker_count)).max(1),
            names: Mutex::new(SensorSeries::new(codec.clone(), lanes)),
            metrics: Arc::new(ProxyMetrics::default()),
            workers: Mutex::new(Vec::with_capacity(worker_count)),
        };
        for w in 0..worker_count {
            let queue = Arc::new(Queue::new(capacity));
            let worker = Worker {
                tsds: tsds.clone(),
                codec: codec.clone(),
                metrics: proxy.metrics.clone(),
                max_attempts,
                // Per-worker jitter stream: deterministic, decorrelated
                // from other workers.
                jitter_seq: (w as u64) << 32,
            };
            let closing = CloseOnExit(queue.clone());
            // On failure the proxy drops here, which closes and joins the
            // workers already started.
            let handle = std::thread::Builder::new()
                .name(format!("proxy-worker-{w}"))
                .spawn(move || worker.run(&closing.0))
                .map_err(|e| ProxyError::SpawnFailed(e.to_string()))?;
            if let Some(queues) = proxy.queues.get_mut() {
                queues.push(queue);
            }
            proxy.workers.get_mut().push(handle);
        }
        Ok(proxy)
    }

    /// Submit one batch: look up its samples' series, split it into lane parts and
    /// queue each part on the worker that owns its lane. Blocks while that
    /// queue is full (backpressure). Returns [`ProxyError::Stopped`] once
    /// the intake is closed or the workers are gone — the caller decides
    /// whether that is fatal. An empty batch is forwarded at once.
    pub fn submit(&self, batch: Vec<SensorSample>) -> Result<(), ProxyError> {
        self.send(vec![batch], None)
    }

    /// The most batches [`ReverseProxy::submit_group`] takes at once: as
    /// many as fill every worker's queue once with their parts.
    pub(crate) fn group_len(&self) -> usize {
        self.group_len
    }

    /// Submit up to [`ReverseProxy::group_len`] batches at once, counting
    /// each in `settlement` so the caller can wait for the batches it
    /// submitted, and only those. Each batch is resolved, split and
    /// settled as by [`ReverseProxy::submit`], but each worker receives
    /// all of its parts of the group as one queue entry, and so forwards
    /// them as one put per lane.
    pub(crate) fn submit_group(
        &self,
        batches: Vec<Vec<SensorSample>>,
        settlement: &Arc<Settlement>,
    ) -> Result<(), ProxyError> {
        self.send(batches, Some(settlement))
    }

    fn send(
        &self,
        batches: Vec<Vec<SensorSample>>,
        settlement: Option<&Arc<Settlement>>,
    ) -> Result<(), ProxyError> {
        if self.queues.read().is_none() {
            return Err(ProxyError::Stopped);
        }
        if let Some(settlement) = settlement {
            settlement.update(|c| c.pending += batches.len() as u64);
        }
        self.metrics
            .batches_in
            .fetch_add(batches.len() as u64, Ordering::Relaxed);
        let mut parts = Vec::new();
        for batch in &batches {
            let lanes = self.split(batch);
            let tally = Arc::new(Tally {
                parts: AtomicUsize::new(lanes.iter().filter(|p| !p.is_empty()).count()),
                failed: AtomicBool::new(false),
                settlement: settlement.cloned(),
            });
            if lanes.iter().all(Vec::is_empty) {
                tally.count(&self.metrics);
                continue;
            }
            for (lane, points) in lanes.into_iter().enumerate() {
                if !points.is_empty() {
                    parts.push(Part {
                        lane,
                        points,
                        tally: tally.clone(),
                    });
                }
            }
        }
        // A part no worker took is given up on, so its batch still settles.
        let refused = self.enqueue(parts);
        for part in &refused {
            part.tally.settle(false, &self.metrics);
        }
        if refused.is_empty() {
            Ok(())
        } else {
            Err(ProxyError::Stopped)
        }
    }

    /// Queue `parts` on the workers that own their lanes (lane `l` on
    /// worker `l % workers`), each worker's parts as one entry; the parts
    /// no worker took, once the intake is closed or a worker is gone.
    fn enqueue(&self, parts: Vec<Part>) -> Vec<Part> {
        let queues = self.queues.read();
        let queues = queues.as_deref().unwrap_or_default();
        let mut entries: Vec<Vec<Part>> = queues.iter().map(|_| Vec::new()).collect();
        let mut refused = Vec::new();
        for part in parts {
            match entries.get_mut(part.lane % queues.len().max(1)) {
                Some(entry) => entry.push(part),
                None => refused.push(part),
            }
        }
        for (queue, entry) in queues.iter().zip(entries) {
            if entry.is_empty() {
                continue;
            }
            if !refused.is_empty() {
                refused.extend(entry);
            } else if let Err(entry) = queue.push(entry) {
                refused.extend(entry);
            }
        }
        refused
    }

    /// Look up `batch`'s series and split it into one part per lane.
    fn split(&self, batch: &[SensorSample]) -> Vec<Vec<SeriesPoint>> {
        let mut parts: Vec<Vec<SeriesPoint>> = (0..self.lanes)
            .map(|_| Vec::with_capacity(batch.len().div_ceil(self.lanes)))
            .collect();
        let mut names = self.names.lock();
        for sample in batch {
            let (lane, point) = names.point(sample);
            // A lane is below `self.lanes`: the part is always there.
            if let Some(part) = parts.get_mut(lane) {
                part.push(point);
            }
        }
        parts
    }

    /// Shared metrics handle.
    pub fn metrics(&self) -> Arc<ProxyMetrics> {
        self.metrics.clone()
    }

    /// Close the intake and wait for workers to drain everything.
    pub fn drain_and_join(self) -> Arc<ProxyMetrics> {
        self.shutdown();
        self.metrics.clone()
    }

    /// Close every queue and join the workers once they have drained what
    /// was queued; later submissions return [`ProxyError::Stopped`].
    /// Waits for submissions in progress to finish queueing first.
    pub(crate) fn shutdown(&self) {
        for queue in self.queues.write().take().into_iter().flatten() {
            queue.close();
        }
        for worker in std::mem::take(&mut *self.workers.lock()) {
            let _ = worker.join();
        }
    }
}

/// A forwarding worker: what its thread needs to put its lanes' parts.
struct Worker {
    tsds: Vec<Arc<Tsd>>,
    /// The codec of the proxy's series table, to group parts through.
    codec: KeyCodec,
    metrics: Arc<ProxyMetrics>,
    max_attempts: usize,
    jitter_seq: u64,
}

impl Worker {
    /// Take everything queued (at most one queue's worth of parts, or one
    /// larger entry), then forward each lane's parts of it as one put,
    /// until the intake closes and the queue is empty.
    fn run(mut self, queue: &Queue) {
        let mut taken = Vec::with_capacity(queue.capacity);
        let mut runs = SeriesRuns::new();
        while queue.take(&mut taken) {
            // Stable, so each lane's parts stay in submission order.
            taken.sort_by_key(|part| part.lane);
            for lane in taken.chunk_by(|a, b| a.lane == b.lane) {
                self.forward_lane(lane, &mut runs);
            }
            taken.clear();
        }
    }

    /// Group one lane's parts by series, once, and forward the runs to its
    /// TSD as one put; then settle each part's batch. A storage failure
    /// retries the whole put. A refusal for content (a timestamp past the
    /// last row, a foreign series) writes nothing, so each part is then
    /// grouped and forwarded on its own, and only the offending part's
    /// batch is an error. `runs` is scratch space for the grouped parts.
    fn forward_lane(&mut self, parts: &[Part], runs: &mut SeriesRuns) {
        // A lane is below the TSD count: its daemon is always there.
        let Some(tsd) = parts.first().and_then(|p| self.tsds.get(p.lane)).cloned() else {
            parts
                .iter()
                .for_each(|p| p.tally.settle(false, &self.metrics));
            return;
        };
        let grouped = runs.group(&self.codec, parts.iter().map(|p| &p.points[..]));
        match grouped.and_then(|()| self.forward(runs, &tsd)) {
            Ok(()) => parts
                .iter()
                .for_each(|p| p.tally.settle(true, &self.metrics)),
            Err(TsdError::Storage(_)) => parts
                .iter()
                .for_each(|p| p.tally.settle(false, &self.metrics)),
            Err(_) => {
                for part in parts {
                    let landed = runs.group(&self.codec, [&part.points[..]]).is_ok()
                        && self.forward(runs, &tsd).is_ok();
                    part.tally.settle(landed, &self.metrics);
                }
            }
        }
    }

    /// Forward `runs` to `tsd` with jittered exponential backoff. Every
    /// TSD fronts the same regions, so a storage failure is retried on
    /// the lane's own TSD once recovery may have caught up, which keeps
    /// the lane in order. Re-putting identical samples is safe — the
    /// store deduplicates identical cells, so retried puts land exactly
    /// once. Any other refusal is a property of the points themselves, so
    /// it is returned without a retry.
    fn forward(&mut self, runs: &SeriesRuns, tsd: &Tsd) -> Result<(), TsdError> {
        self.jitter_seq += 1;
        let mut attempt = 0usize;
        loop {
            match tsd.put_series_batch(runs) {
                Ok(()) => {
                    self.metrics
                        .samples_out
                        .fetch_add(runs.points() as u64, Ordering::Relaxed);
                    return Ok(());
                }
                Err(TsdError::Storage(_)) if attempt + 1 < self.max_attempts => {}
                Err(e) => return Err(e),
            }
            attempt += 1;
            self.metrics.retries.fetch_add(1, Ordering::Relaxed);
            pause(
                attempt as u32,
                self.jitter_seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempt as u64,
            );
        }
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
        self.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
    use pga_tsdb::{KeyCodecConfig, QueryFilter, Series, TsdConfig, UidTable};

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

    /// Records every acknowledged point its TSD hands it, run by run.
    #[derive(Default)]
    struct Recorder(parking_lot::Mutex<Vec<(Arc<Series>, u64, f64)>>);

    impl pga_tsdb::PutObserver for Recorder {
        fn on_batch(&self, runs: &SeriesRuns) -> pga_minibase::PutBatch {
            let mut recorded = self.0.lock();
            for run in runs.iter() {
                recorded.extend(run.points().map(|(ts, v)| (run.series.clone(), ts, v)));
            }
            pga_minibase::PutBatch::new()
        }

        fn flush(&self) -> pga_minibase::PutBatch {
            pga_minibase::PutBatch::new()
        }
    }

    fn record(tsds: &[Arc<Tsd>]) -> Vec<Arc<Recorder>> {
        tsds.iter()
            .map(|tsd| {
                let recorder = Arc::new(Recorder::default());
                tsd.set_observer(recorder.clone());
                recorder
            })
            .collect()
    }

    /// The lane of the series of `sample` among `lanes`, from its row key.
    fn lane(tsds: &[Arc<Tsd>], sample: &SensorSample) -> usize {
        let (unit, sensor) = (sample.unit.to_string(), sample.sensor.to_string());
        let row = tsds[0]
            .codec()
            .row_key("energy", &[("unit", &unit), ("sensor", &sensor)], 0);
        row[0] as usize % tsds.len()
    }

    /// Points each TSD wrote, by lane.
    fn points_written(tsds: &[Arc<Tsd>]) -> Vec<u64> {
        let written = |tsd: &Arc<Tsd>| tsd.metrics().points_written.load(Ordering::Relaxed);
        tsds.iter().map(written).collect()
    }

    /// Every lane's share of `samples`: what each TSD must write.
    fn lane_shares(tsds: &[Arc<Tsd>], samples: &[SensorSample]) -> Vec<u64> {
        let mut shares = vec![0; tsds.len()];
        for s in samples {
            shares[lane(tsds, s)] += 1;
        }
        shares
    }

    /// Each series lands on exactly one TSD, the one its salt names, and
    /// so the TSDs take their salts' shares of the points.
    #[test]
    fn each_series_lands_on_the_tsd_of_its_lane() {
        let (master, tsds) = stack(2, 4);
        let recorders = record(&tsds);
        let proxy = ReverseProxy::spawn(tsds.clone(), ProxyConfig::default()).unwrap();
        let mut submitted = Vec::new();
        for t in 0..10u64 {
            let batch: Vec<SensorSample> = (0..8u32)
                .flat_map(|unit| (0..4u32).map(move |sensor| sample(unit, sensor, t)))
                .collect();
            submitted.extend_from_slice(&batch);
            proxy.submit(batch).unwrap();
        }
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.batches_out.load(Ordering::Relaxed), 10);
        let shares = lane_shares(&tsds, &submitted);
        assert_eq!(points_written(&tsds), shares);
        assert!(shares.iter().filter(|&&n| n > 0).count() > 1, "{shares:?}");
        for (l, recorder) in recorders.iter().enumerate() {
            for (series, ..) in recorder.0.lock().iter() {
                assert_eq!(series.tsuid()[0] as usize % tsds.len(), l);
            }
        }
        master.shutdown();
    }

    /// Two workers over three TSDs: worker 0 owns lanes 0 and 2, worker 1
    /// lane 1. Every series still reaches its TSD's observer point by
    /// point in submission order, whatever the batches mixed.
    #[test]
    fn every_series_reaches_its_observer_in_submission_order() {
        let (master, tsds) = stack(2, 3);
        let recorders = record(&tsds);
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                buffer_capacity: 4,
                workers: 2,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        let series: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|unit| (0..3u32).map(move |sensor| (unit, sensor)))
            .collect();
        let mut samples = Vec::new();
        for t in 0..60u64 {
            samples.extend(series.iter().map(|&(u, s)| sample(u, s, t)));
        }
        // Batches of uneven sizes, cutting across ticks.
        let mut rest = &samples[..];
        for size in [1, 7, 13, 29].into_iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            proxy.submit(batch.to_vec()).unwrap();
            rest = tail;
        }
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 1080);
        assert_eq!(points_written(&tsds), lane_shares(&tsds, &samples));
        for &(unit, sensor) in &series {
            let (u, s) = (unit.to_string(), sensor.to_string());
            let seen: Vec<Vec<u64>> = recorders
                .iter()
                .map(|r| {
                    let points = r.0.lock();
                    let tags = |p: &&(Arc<Series>, u64, f64)| {
                        p.0.tags()
                            .iter()
                            .all(|(k, v)| (k == "unit" && *v == u) || (k == "sensor" && *v == s))
                    };
                    points.iter().filter(tags).map(|p| p.1).collect()
                })
                .collect();
            let lane = lane(&tsds, &sample(unit, sensor, 0));
            for (l, timestamps) in seen.iter().enumerate() {
                if l == lane {
                    assert_eq!(*timestamps, (0..60).collect::<Vec<u64>>(), "{u}/{s}");
                } else {
                    assert!(timestamps.is_empty(), "{u}/{s} reached TSD {l}");
                }
            }
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
    /// the dead node's regions no TSD needs skipping: both lanes take their
    /// salts' share and nothing is lost.
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
        let mut submitted = Vec::new();
        for t in 0..20u64 {
            let batch: Vec<SensorSample> = (0..8u32).map(|unit| sample(unit, 1, t)).collect();
            submitted.extend_from_slice(&batch);
            proxy.submit(batch).unwrap();
        }
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 160);
        // Both lanes took their salts' share…
        let shares = lane_shares(&tsds, &submitted);
        assert!(shares.iter().all(|&n| n > 0), "{shares:?}");
        assert_eq!(points_written(&tsds), shares);
        // …and every sample is queryable.
        let series = tsds[0]
            .query("energy", &QueryFilter::any(), 0, 100)
            .unwrap();
        let total: usize = series.iter().map(|s| s.points.len()).sum();
        assert_eq!(total, 160);
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

    /// An empty batch has no lane part to wait for: it is forwarded as
    /// soon as it is submitted, so a caller waiting on it returns.
    #[test]
    fn an_empty_batch_settles_at_once() {
        let (master, tsds) = stack(1, 1);
        let proxy = ReverseProxy::spawn(tsds, ProxyConfig::default()).unwrap();
        let settlement = Arc::new(Settlement::default());
        proxy.submit(Vec::new()).unwrap();
        proxy.submit_group(vec![Vec::new()], &settlement).unwrap();
        let settled = settlement.wait();
        assert_eq!(
            (settled.pending, settled.forwarded, settled.errors),
            (0, 1, 0)
        );
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.batches_in.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.batches_out.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 0);
        master.shutdown();
    }

    /// Records every put its TSD acknowledges, and holds the first one
    /// until the test has queued more behind it: the test waits on
    /// `gate` once to know the worker is inside that put, and once more
    /// to let it go.
    pub(crate) struct Gate {
        pub(crate) gate: std::sync::Barrier,
        held: AtomicBool,
        puts: parking_lot::Mutex<Vec<Vec<(u64, u64)>>>,
    }

    impl Gate {
        pub(crate) fn install(tsd: &Tsd) -> Arc<Gate> {
            let gate = Arc::new(Gate {
                gate: std::sync::Barrier::new(2),
                held: AtomicBool::new(false),
                puts: Default::default(),
            });
            tsd.set_observer(gate.clone());
            gate
        }
    }

    impl pga_tsdb::PutObserver for Gate {
        fn on_batch(&self, runs: &SeriesRuns) -> pga_minibase::PutBatch {
            let put = runs
                .iter()
                .flat_map(|run| run.points())
                .map(|(ts, v)| (ts, v.to_bits()))
                .collect();
            self.puts.lock().push(put);
            if !self.held.swap(true, Ordering::AcqRel) {
                self.gate.wait();
                self.gate.wait();
            }
            pga_minibase::PutBatch::new()
        }

        fn flush(&self) -> pga_minibase::PutBatch {
            pga_minibase::PutBatch::new()
        }
    }

    /// `(timestamp, value bits)` of `samples`, as a put of them records
    /// them: grouped by series, each series' samples in order, the series
    /// in the order they first appear.
    fn recorded(samples: &[SensorSample]) -> Vec<(u64, u64)> {
        let mut first = std::collections::HashMap::new();
        for (at, s) in samples.iter().enumerate() {
            first.entry((s.unit, s.sensor)).or_insert(at);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by_key(|s| first[&(s.unit, s.sensor)]); // stable
        sorted
            .iter()
            .map(|s| (s.timestamp, s.value.to_bits()))
            .collect()
    }

    /// Parts that queue while their worker is inside a put go out
    /// together, as one put, with every series in submission order.
    #[test]
    fn parts_queued_behind_a_put_go_out_in_one_put_in_order() {
        let (master, tsds) = stack(2, 1);
        let gate = Gate::install(&tsds[0]);
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                workers: 1,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        let first = vec![sample(0, 0, 0)];
        proxy.submit(first.clone()).unwrap();
        gate.gate.wait();
        // Five batches of twelve series each, one tick a batch.
        let queued: Vec<Vec<SensorSample>> = (1..6u64)
            .map(|t| {
                (0..4u32)
                    .flat_map(|unit| (0..3u32).map(move |sensor| sample(unit, sensor, t)))
                    .collect()
            })
            .collect();
        for batch in &queued {
            proxy.submit(batch.clone()).unwrap();
        }
        gate.gate.wait();
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.batches_out.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 61);
        assert_eq!(tsds[0].metrics().put_rpcs.load(Ordering::Relaxed), 2);
        let all: Vec<SensorSample> = queued.concat();
        assert_eq!(*gate.puts.lock(), vec![recorded(&first), recorded(&all)]);
        master.shutdown();
    }

    /// A batch refused for its content, queued between two good ones,
    /// refuses the put they share; each is then forwarded on its own, and
    /// only the refused one counts as an error.
    #[test]
    fn a_refused_batch_coalesced_between_good_ones_is_the_only_error() {
        let (master, tsds) = stack(2, 1);
        let gate = Gate::install(&tsds[0]);
        let late = tsds[0].codec().max_timestamp() + 1;
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                workers: 1,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        let settlement = Arc::new(Settlement::default());
        let first = vec![sample(1, 1, 0)];
        proxy
            .submit_group(vec![first.clone()], &settlement)
            .unwrap();
        gate.gate.wait();
        let (before, after) = (vec![sample(1, 1, 1)], vec![sample(1, 1, 2)]);
        for batch in [before.clone(), vec![sample(1, 1, late)], after.clone()] {
            proxy.submit_group(vec![batch], &settlement).unwrap();
        }
        gate.gate.wait();
        let settled = settlement.wait();
        assert_eq!(
            (settled.pending, settled.forwarded, settled.errors),
            (0, 3, 1)
        );
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.batches_out.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.retries.load(Ordering::Relaxed), 0);
        let puts = [&first, &before, &after].map(|b| recorded(b)).to_vec();
        assert_eq!(*gate.puts.lock(), puts);
        let stored = tsds[0]
            .query("energy", &QueryFilter::any(), 0, 100)
            .unwrap();
        assert_eq!(stored[0].points.len(), 3);
        master.shutdown();
    }

    /// A group goes out as one put per lane, grouped by series once: a
    /// series that recurs in every batch of the group reaches its daemon
    /// as one run, its points in submission order, and a timestamp
    /// submitted twice keeps the value submitted later.
    #[test]
    fn a_series_recurring_across_a_group_is_stored_in_submission_order() {
        let (master, tsds) = stack(2, 1);
        let recorders = record(&tsds);
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                workers: 1,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        // Sixteen batches, a tick each, of four series; series (1, 1)
        // puts tick 5 again, with another value, in the twelfth.
        let mut batches: Vec<Vec<SensorSample>> = (0..16u64)
            .map(|t| {
                [(0, 0), (1, 1), (2, 3), (1, 2)]
                    .iter()
                    .map(|&(unit, sensor)| SensorSample {
                        unit,
                        sensor,
                        timestamp: t,
                        value: (t * 10 + u64::from(unit * 4 + sensor)) as f64,
                    })
                    .collect()
            })
            .collect();
        let again = SensorSample {
            unit: 1,
            sensor: 1,
            timestamp: 5,
            value: -7.0,
        };
        batches[11].insert(2, again);
        assert!(batches.len() <= proxy.group_len());
        let submitted: Vec<SensorSample> = batches.concat();
        let settlement = Arc::new(Settlement::default());
        proxy.submit_group(batches, &settlement).unwrap();
        let settled = settlement.wait();
        assert_eq!((settled.forwarded, settled.errors), (16, 0));
        assert_eq!(tsds[0].metrics().put_rpcs.load(Ordering::Relaxed), 1);
        let of = |s: &SensorSample| (s.unit, s.sensor) == (1, 1);
        let wanted: Vec<(u64, f64)> = submitted
            .iter()
            .filter(|s| of(s))
            .map(|s| (s.timestamp, s.value))
            .collect();
        let seen: Vec<(u64, f64)> = recorders[0]
            .0
            .lock()
            .iter()
            .filter(|(series, ..)| series.tags().iter().all(|(_, v)| v == "1"))
            .map(|&(_, ts, v)| (ts, v))
            .collect();
        assert_eq!(seen, wanted, "one run, in submission order");
        let stored = tsds[0]
            .query(
                "energy",
                &QueryFilter::any().with("unit", "1").with("sensor", "1"),
                0,
                100,
            )
            .unwrap();
        let points: Vec<(u64, f64)> = stored[0]
            .points
            .iter()
            .map(|p| (p.timestamp, p.value))
            .collect();
        let mut latest: Vec<(u64, f64)> = (0..16).map(|t| (t, (t * 10 + 5) as f64)).collect();
        latest[5].1 = -7.0;
        assert_eq!(points, latest, "the later value of tick 5 wins");
        drop(proxy);
        master.shutdown();
    }

    /// What `count` reads once it has reached `n` and then 50 ms have
    /// passed, or after ten seconds. It does not panic, so a test holding
    /// a worker at its gate can release it before asserting.
    pub(crate) fn settles_at(count: &AtomicU64, n: u64) -> u64 {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while count.load(Ordering::Acquire) < n && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        count.load(Ordering::Acquire)
    }

    /// The queue is bounded in parts. While its worker is inside a put, a
    /// producer of single batches stops once the worker's share of
    /// `buffer_capacity` is queued; the worker then forwards at most that
    /// share a put, every point in submission order.
    #[test]
    fn a_held_worker_queues_its_share_of_parts_then_blocks_producers() {
        let (master, tsds) = stack(2, 2);
        let gate = Gate::install(&tsds[0]);
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                buffer_capacity: 8,
                workers: 2,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        // One series of lane 0, so every batch goes to worker 0.
        let unit = (0..8)
            .find(|&u| lane(&tsds, &sample(u, 0, 0)) == 0)
            .unwrap();
        let first = vec![sample(unit, 0, 0)];
        proxy.submit(first.clone()).unwrap();
        gate.gate.wait();
        let later: Vec<SensorSample> = (1..=10).map(|t| sample(unit, 0, t)).collect();
        let returned = AtomicU64::new(0);
        let queued = std::thread::scope(|s| {
            s.spawn(|| {
                for sample in &later {
                    proxy.submit(vec![*sample]).unwrap();
                    returned.fetch_add(1, Ordering::Release);
                }
            });
            let queued = settles_at(&returned, 4);
            gate.gate.wait();
            queued
        });
        assert_eq!(queued, 4, "worker 0 holds 4 parts");
        let metrics = proxy.drain_and_join();
        assert_eq!(metrics.samples_out.load(Ordering::Relaxed), 11);
        let puts = gate.puts.lock();
        assert_eq!(puts[0], recorded(&first));
        assert!(puts[1..].iter().all(|put| put.len() <= 4), "{puts:?}");
        assert_eq!(puts[1..].concat(), recorded(&later));
        master.shutdown();
    }

    /// A group reaches each worker as one entry, and entries count in
    /// parts: while the worker is inside a put, one group of one queue's
    /// worth waits and the next blocks its producer. A range three groups
    /// long then goes out as three puts, one a group.
    #[test]
    fn one_group_waits_per_worker_and_each_goes_out_as_one_put() {
        let (master, tsds) = stack(2, 1);
        let gate = Gate::install(&tsds[0]);
        let proxy = ReverseProxy::spawn(
            tsds.clone(),
            ProxyConfig {
                buffer_capacity: 4,
                workers: 1,
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        assert_eq!(proxy.group_len(), 4);
        let first = vec![sample(1, 1, 0)];
        proxy.submit(first.clone()).unwrap();
        gate.gate.wait();
        // Ten one-sample batches: groups of 4, 4 and 2.
        let later: Vec<SensorSample> = (1..=10).map(|t| sample(1, 1, t)).collect();
        let groups: Vec<&[SensorSample]> = later.chunks(4).collect();
        let settlement = Arc::new(Settlement::default());
        let returned = AtomicU64::new(0);
        let queued = std::thread::scope(|s| {
            s.spawn(|| {
                for group in &groups {
                    let batches = group.iter().map(|&sample| vec![sample]).collect();
                    proxy.submit_group(batches, &settlement).unwrap();
                    returned.fetch_add(1, Ordering::Release);
                }
            });
            let queued = settles_at(&returned, 1);
            gate.gate.wait();
            queued
        });
        assert_eq!(queued, 1, "one group queued");
        let settled = settlement.wait();
        assert_eq!((settled.forwarded, settled.errors), (10, 0));
        drop(proxy);
        let mut puts = vec![recorded(&first)];
        puts.extend(groups.iter().map(|g| recorded(g)));
        assert_eq!(*gate.puts.lock(), puts);
        assert_eq!(tsds[0].metrics().put_rpcs.load(Ordering::Relaxed), 4);
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
