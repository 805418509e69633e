//! Typed in-process RPC with bounded queues and overload crash semantics.
//!
//! Each server is one OS thread draining a bounded crossbeam channel — the
//! analog of an HBase region server's RPC queue. Two call paths exist:
//!
//! * [`RpcHandle::call`] — blocking send: the caller waits for queue space.
//!   This is what the reverse proxy's backpressure gives the system.
//! * [`RpcHandle::cast`] — non-blocking send: a full queue returns
//!   [`RpcError::Overloaded`] and charges an overload strike against the
//!   server. Once strikes reach the configured threshold the server
//!   *crashes* (stops serving), modelling the paper's observed region
//!   server failures under unthrottled OpenTSDB write storms.
//! * [`RpcHandle::send_with`] — admission-controlled send: once queue
//!   occupancy crosses a per-class watermark the request is rejected with
//!   a typed [`RpcError::Busy`] carrying a `retry_after_ms` hint, instead
//!   of blocking the producer forever. Ingest writes degrade first (lower
//!   watermark — the proxy buffers and retries them without loss); scan
//!   reads are shed only past a higher critical watermark so the fleet
//!   view stays alive as long as possible. Requests may also carry an
//!   absolute deadline: the server drops expired work with a typed
//!   [`RpcError::DeadlineExpired`] rather than serving dead requests. An
//!   admitted request returns a [`PendingReply`], so a caller can send to
//!   several servers before it waits on any; [`RpcHandle::call_with`] is
//!   the send followed by the wait.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};

/// Millisecond clock used for deadlines and admission `retry_after` hints.
/// Injectable so deterministic simulations can drive it from sim time.
pub type ClockMs = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Milliseconds since the first call in this process — the default
/// [`ClockMs`]. A single shared epoch means every server and caller in the
/// process agrees on absolute deadline values.
pub fn default_clock_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Priority class of an admission-controlled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Ingest write: degraded *first* (lower watermark). Writes are
    /// buffered and retried by the proxy, so shedding them converts
    /// overload into delay, never loss.
    Write,
    /// Detection/scan read: shed only past the higher critical watermark,
    /// keeping the operator fleet view alive while writes back off.
    Read,
}

/// Watermark-based admission policy for one server queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Queue occupancy (0..=1) at which writes get `Busy`.
    pub write_shed_watermark: f64,
    /// Queue occupancy (0..=1) at which reads get `Busy`. Must be ≥ the
    /// write watermark: reads are shed *after* writes degrade.
    pub read_shed_watermark: f64,
    /// Base of the `retry_after_ms` hint; scaled up with occupancy.
    pub retry_after_base_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            write_shed_watermark: 0.75,
            read_shed_watermark: 0.90,
            retry_after_base_ms: 2,
        }
    }
}

impl AdmissionConfig {
    /// Admission control disabled: nothing is ever shed pre-queue. This is
    /// the seed-equivalent configuration used as the E18 control arm.
    pub fn disabled() -> Self {
        AdmissionConfig {
            write_shed_watermark: f64::INFINITY,
            read_shed_watermark: f64::INFINITY,
            retry_after_base_ms: 2,
        }
    }

    /// Watermark for a request class.
    pub fn watermark(&self, class: RequestClass) -> f64 {
        match class {
            RequestClass::Write => self.write_shed_watermark,
            RequestClass::Read => self.read_shed_watermark,
        }
    }

    /// Deterministic `retry_after_ms` hint: grows with occupancy so
    /// callers back off harder the deeper the queue is.
    pub fn retry_after_ms(&self, occupancy: f64) -> u64 {
        let scale = 1 + (occupancy.clamp(0.0, 2.0) * 4.0) as u64;
        self.retry_after_base_ms.max(1) * scale
    }
}

/// Lifecycle of an RPC server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// Serving normally.
    Healthy,
    /// Crashed after sustained queue overload; no longer serving.
    Crashed,
    /// Shut down cleanly.
    Stopped,
}

impl ServerState {
    fn from_u8(v: u8) -> ServerState {
        match v {
            0 => ServerState::Healthy,
            1 => ServerState::Crashed,
            _ => ServerState::Stopped,
        }
    }
}

/// Errors surfaced to RPC callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The queue was full (only from [`RpcHandle::cast`]).
    Overloaded,
    /// Admission control shed the request: queue occupancy crossed the
    /// watermark for this request's class. Retry after the hinted delay.
    Busy {
        /// Suggested minimum backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before the server could serve it.
    DeadlineExpired,
    /// The server has crashed from overload.
    Crashed,
    /// The server was stopped cleanly.
    Stopped,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Overloaded => write!(f, "rpc queue full"),
            RpcError::Busy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms}ms")
            }
            RpcError::DeadlineExpired => write!(f, "deadline expired before service"),
            RpcError::Crashed => write!(f, "server crashed from overload"),
            RpcError::Stopped => write!(f, "server stopped"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Counters exported by a server. All loads are `Relaxed`: these are
/// monitoring counters, not synchronisation points.
#[derive(Debug, Default)]
pub struct RpcStats {
    /// Requests fully processed.
    pub processed: AtomicU64,
    /// Cast attempts rejected because the queue was full.
    pub overloads: AtomicU64,
    /// Nanoseconds spent inside the handler.
    pub busy_ns: AtomicU64,
    /// Writes shed by admission control (`Busy`).
    pub shed_writes: AtomicU64,
    /// Reads shed by admission control (`Busy`).
    pub shed_reads: AtomicU64,
    /// Requests dropped because their deadline expired.
    pub deadline_expired: AtomicU64,
}

struct Shared {
    state: AtomicU8,
    stats: RpcStats,
    crash_threshold: u64,
    admission: AdmissionConfig,
    clock: ClockMs,
}

impl Shared {
    fn state(&self) -> ServerState {
        ServerState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// `Ok` while the server accepts requests, else why it does not.
    fn serving(&self) -> Result<(), RpcError> {
        match self.state() {
            ServerState::Healthy => Ok(()),
            ServerState::Crashed => Err(RpcError::Crashed),
            ServerState::Stopped => Err(RpcError::Stopped),
        }
    }
}

struct Envelope<Req, Resp> {
    req: Req,
    /// Absolute deadline on the server's [`ClockMs`]; expired envelopes
    /// are dropped with a typed error instead of being served.
    deadline_ms: Option<u64>,
    /// `None` for one-way casts: the response is discarded.
    reply: Option<Sender<Result<Resp, RpcError>>>,
}

/// The answer to one request that is queued or in service. Replies can be
/// waited on in any order; dropping one abandons its answer (the server
/// still serves the request and discards the reply).
pub struct PendingReply<Resp> {
    rx: Receiver<Result<Resp, RpcError>>,
    shared: Arc<Shared>,
}

impl<Resp> PendingReply<Resp> {
    /// Block until the server answers. A server that crashes or stops
    /// before answering resolves the wait to [`RpcError::Crashed`] or
    /// [`RpcError::Stopped`].
    pub fn wait(self) -> Result<Resp, RpcError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(match self.shared.state() {
                ServerState::Crashed => RpcError::Crashed,
                _ => RpcError::Stopped,
            }),
        }
    }
}

/// Client handle to a spawned RPC server. Cloneable; the server thread
/// exits when all handles are dropped or [`RpcHandle::shutdown`] is called.
pub struct RpcHandle<Req, Resp> {
    tx: Sender<Envelope<Req, Resp>>,
    shared: Arc<Shared>,
    name: String,
}

impl<Req, Resp> Clone for RpcHandle<Req, Resp> {
    fn clone(&self) -> Self {
        RpcHandle {
            tx: self.tx.clone(),
            shared: self.shared.clone(),
            name: self.name.clone(),
        }
    }
}

/// Builder for an RPC server.
pub struct RpcServerBuilder {
    name: String,
    queue_capacity: usize,
    crash_threshold: u64,
    admission: AdmissionConfig,
    clock: Option<ClockMs>,
}

impl RpcServerBuilder {
    /// Start configuring a server with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        RpcServerBuilder {
            name: name.into(),
            queue_capacity: 1024,
            crash_threshold: u64::MAX,
            admission: AdmissionConfig::disabled(),
            clock: None,
        }
    }

    /// Enable watermark-based admission control for [`RpcHandle::call_with`]
    /// callers. Default: disabled (seed behavior).
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Override the millisecond clock used for deadline checks and
    /// `retry_after` hints. Default: [`default_clock_ms`]. Deterministic
    /// simulations inject sim time here.
    pub fn clock(mut self, clock: ClockMs) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Bound the RPC queue (HBase `hbase.regionserver.handler.count` ×
    /// queue depth analog). Default 1024.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_capacity = cap;
        self
    }

    /// Number of overload strikes after which the server crashes. Default:
    /// never (only meaningful for `try_call` workloads).
    pub fn crash_after_overloads(mut self, strikes: u64) -> Self {
        self.crash_threshold = strikes;
        self
    }

    /// Spawn the server thread with the given request handler.
    pub fn spawn<Req, Resp, H>(self, mut handler: H) -> (RpcHandle<Req, Resp>, ServerRunner)
    where
        Req: Send + 'static,
        Resp: Send + 'static,
        H: FnMut(Req) -> Resp + Send + 'static,
    {
        let (tx, rx) = bounded::<Envelope<Req, Resp>>(self.queue_capacity);
        let shared = Arc::new(Shared {
            state: AtomicU8::new(0),
            stats: RpcStats::default(),
            crash_threshold: self.crash_threshold,
            admission: self.admission,
            clock: self.clock.unwrap_or_else(|| Arc::new(default_clock_ms)),
        });
        let worker_shared = shared.clone();
        let thread_name = self.name.clone();
        let join = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                for env in rx.iter() {
                    if worker_shared.state() == ServerState::Crashed {
                        // Crashed mid-flight: drop remaining requests.
                        drop(env.reply);
                        continue;
                    }
                    if let Some(d) = env.deadline_ms {
                        if (worker_shared.clock)() >= d {
                            // Dead request: reply typed, never serve it.
                            worker_shared
                                .stats
                                .deadline_expired
                                .fetch_add(1, Ordering::Relaxed);
                            if let Some(reply) = env.reply {
                                let _ = reply.send(Err(RpcError::DeadlineExpired));
                            }
                            continue;
                        }
                    }
                    let start = Instant::now();
                    let resp = handler(env.req);
                    worker_shared
                        .stats
                        .busy_ns
                        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    worker_shared
                        .stats
                        .processed
                        .fetch_add(1, Ordering::Relaxed);
                    // Caller may have given up (or cast one-way); ignore
                    // send failures.
                    if let Some(reply) = env.reply {
                        let _ = reply.send(Ok(resp));
                    }
                }
            })
            // pga-allow(panic-path): server startup, before any request is accepted — not a serving path
            .expect("spawn rpc server thread");
        (
            RpcHandle {
                tx,
                shared,
                name: self.name,
            },
            ServerRunner { join: Some(join) },
        )
    }
}

/// Owns the server thread.
///
/// Dropping the runner *detaches* the thread (it exits once every
/// [`RpcHandle`] clone is gone); call [`ServerRunner::join`] only after
/// dropping all handles, or the join would wait forever on the open
/// channel.
pub struct ServerRunner {
    join: Option<JoinHandle<()>>,
}

impl ServerRunner {
    /// Wait for the server thread to exit. All [`RpcHandle`] clones must be
    /// dropped first, otherwise the channel stays open and this blocks.
    pub fn join(mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ServerRunner {
    fn drop(&mut self) {
        // Detach: joining here could deadlock while handles are alive.
        self.join.take();
    }
}

impl<Req: Send + 'static, Resp: Send + 'static> RpcHandle<Req, Resp> {
    /// Server display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ServerState {
        self.shared.state()
    }

    /// Requests processed so far.
    pub fn processed(&self) -> u64 {
        self.shared.stats.processed.load(Ordering::Relaxed)
    }

    /// Overload strikes recorded so far.
    pub fn overloads(&self) -> u64 {
        self.shared.stats.overloads.load(Ordering::Relaxed)
    }

    /// Nanoseconds the handler has been busy.
    pub fn busy_ns(&self) -> u64 {
        self.shared.stats.busy_ns.load(Ordering::Relaxed)
    }

    /// Writes shed by admission control.
    pub fn shed_writes(&self) -> u64 {
        self.shared.stats.shed_writes.load(Ordering::Relaxed)
    }

    /// Reads shed by admission control.
    pub fn shed_reads(&self) -> u64 {
        self.shared.stats.shed_reads.load(Ordering::Relaxed)
    }

    /// Requests dropped because their deadline expired.
    pub fn deadline_expired(&self) -> u64 {
        self.shared.stats.deadline_expired.load(Ordering::Relaxed)
    }

    /// Milliseconds on this server's deadline clock right now.
    pub fn now_ms(&self) -> u64 {
        (self.shared.clock)()
    }

    /// Requests currently waiting in the RPC queue — the telemetry signal
    /// of §III-B's overload precursor.
    pub fn queue_depth(&self) -> usize {
        self.tx.len()
    }

    /// Configured queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.tx.capacity().unwrap_or(usize::MAX)
    }

    /// Blocking call: waits for queue space (backpressure), then for the
    /// response.
    pub fn call(&self, req: Req) -> Result<Resp, RpcError> {
        self.shared.serving()?;
        let (reply_tx, rx) = bounded(1);
        self.tx
            .send(Envelope {
                req,
                deadline_ms: None,
                reply: Some(reply_tx),
            })
            .map_err(|_| RpcError::Stopped)?;
        PendingReply {
            rx,
            shared: self.shared.clone(),
        }
        .wait()
    }

    /// Admission-controlled send: never blocks the producer on a full or
    /// over-watermark queue. Sheds the request with a typed
    /// [`RpcError::Busy`] (plus a `retry_after_ms` hint) once occupancy
    /// crosses the watermark for `class`, and tags the enqueued request
    /// with an optional absolute deadline (server-clock milliseconds) past
    /// which the server drops it as [`RpcError::DeadlineExpired`]. Every
    /// refusal is decided here, before anything is queued; an admitted
    /// request answers through the returned [`PendingReply`].
    pub fn send_with(
        &self,
        req: Req,
        class: RequestClass,
        deadline_ms: Option<u64>,
    ) -> Result<PendingReply<Resp>, RpcError> {
        self.shared.serving()?;
        if let Some(d) = deadline_ms {
            if (self.shared.clock)() >= d {
                // Already dead on arrival: don't waste queue space.
                self.shared
                    .stats
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                return Err(RpcError::DeadlineExpired);
            }
        }
        let capacity = self.tx.capacity().unwrap_or(usize::MAX).max(1);
        let occupancy = self.tx.len() as f64 / capacity as f64;
        if occupancy >= self.shared.admission.watermark(class) {
            return Err(self.shed(class, occupancy));
        }
        let (reply_tx, rx) = bounded(1);
        match self.tx.try_send(Envelope {
            req,
            deadline_ms,
            reply: Some(reply_tx),
        }) {
            Ok(()) => Ok(PendingReply {
                rx,
                shared: self.shared.clone(),
            }),
            // Queue filled between the occupancy probe and the send: the
            // same shed path, never a blocking producer.
            Err(TrySendError::Full(_)) => Err(self.shed(class, 1.0)),
            Err(TrySendError::Disconnected(_)) => Err(RpcError::Stopped),
        }
    }

    /// [`RpcHandle::send_with`], then wait for the answer.
    pub fn call_with(
        &self,
        req: Req,
        class: RequestClass,
        deadline_ms: Option<u64>,
    ) -> Result<Resp, RpcError> {
        self.send_with(req, class, deadline_ms)?.wait()
    }

    fn shed(&self, class: RequestClass, occupancy: f64) -> RpcError {
        let counter = match class {
            RequestClass::Write => &self.shared.stats.shed_writes,
            RequestClass::Read => &self.shared.stats.shed_reads,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        RpcError::Busy {
            retry_after_ms: self.shared.admission.retry_after_ms(occupancy),
        }
    }

    /// One-way, non-blocking cast: enqueue the request and return without
    /// waiting for a response (asynchronous OpenTSDB-style writes). A full
    /// queue is an overload strike; sustained strikes (≥ the configured
    /// threshold) crash the server — the paper's unprotected ingestion
    /// path.
    pub fn cast(&self, req: Req) -> Result<(), RpcError> {
        self.shared.serving()?;
        match self.tx.try_send(Envelope {
            req,
            deadline_ms: None,
            reply: None,
        }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                let strikes = self.shared.stats.overloads.fetch_add(1, Ordering::AcqRel) + 1;
                if strikes >= self.shared.crash_threshold {
                    self.shared.state.store(1, Ordering::Release);
                }
                Err(RpcError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(RpcError::Stopped),
        }
    }

    /// Signal shutdown: subsequent calls fail, the thread drains and exits
    /// once all clones of this handle are dropped.
    pub fn shutdown(&self) {
        self.shared.state.store(2, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn call_roundtrip() {
        let (h, runner) = RpcServerBuilder::new("echo").spawn(|x: u32| x * 2);
        assert_eq!(h.call(21).unwrap(), 42);
        assert_eq!(h.processed(), 1);
        assert_eq!(h.state(), ServerState::Healthy);
        drop(h);
        runner.join();
    }

    #[test]
    fn many_callers_share_one_server() {
        let (h, runner) = RpcServerBuilder::new("adder").spawn(|x: u64| x + 1);
        let mut joins = Vec::new();
        for i in 0..8u64 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                for j in 0..100 {
                    assert_eq!(h.call(i * 100 + j).unwrap(), i * 100 + j + 1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(h.processed(), 800);
        drop(h);
        runner.join();
    }

    #[test]
    fn cast_overflow_strikes_and_crashes() {
        // Slow handler + capacity 1 + unthrottled casts → overload strikes
        // → crash: the §III-B failure mode.
        let (h, runner) = RpcServerBuilder::new("slow")
            .queue_capacity(1)
            .crash_after_overloads(3)
            .spawn(|_: u32| {
                std::thread::sleep(Duration::from_millis(20));
                0u32
            });
        let mut overloads = 0;
        let mut crashed = false;
        for i in 0..200 {
            match h.cast(i) {
                Err(RpcError::Overloaded) => overloads += 1,
                Err(RpcError::Crashed) => {
                    crashed = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(overloads >= 3, "expected strikes, got {overloads}");
        assert!(crashed, "server should have crashed");
        assert_eq!(h.state(), ServerState::Crashed);
        // Blocking calls now refuse too.
        assert_eq!(h.call(1).unwrap_err(), RpcError::Crashed);
        drop(h);
        runner.join();
    }

    #[test]
    fn cast_is_fire_and_forget() {
        let (h, runner) = RpcServerBuilder::new("counter")
            .queue_capacity(64)
            .spawn(|x: u32| x);
        for i in 0..50 {
            h.cast(i).unwrap();
        }
        drop(h.clone()); // clones do not end the service
                         // Drain by dropping the last handle; the thread then exits.
        let probe = h.clone();
        drop(h);
        // The queued casts are all processed before exit.
        while probe.processed() < 50 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(probe.overloads(), 0);
        drop(probe);
        runner.join();
    }

    #[test]
    fn blocking_call_applies_backpressure_without_crashing() {
        // Same slow server, but blocking calls: no overloads, no crash.
        let (h, runner) = RpcServerBuilder::new("slow-bp")
            .queue_capacity(1)
            .crash_after_overloads(3)
            .spawn(|x: u32| {
                std::thread::sleep(Duration::from_millis(1));
                x
            });
        for i in 0..50 {
            assert_eq!(h.call(i).unwrap(), i);
        }
        assert_eq!(h.overloads(), 0);
        assert_eq!(h.state(), ServerState::Healthy);
        assert!(h.busy_ns() > 0);
        drop(h);
        runner.join();
    }

    #[test]
    fn admission_sheds_writes_before_reads() {
        // Slow handler, capacity 10: writes shed at 40%, reads at 80%.
        let (h, runner) = RpcServerBuilder::new("admit")
            .queue_capacity(10)
            .admission(AdmissionConfig {
                write_shed_watermark: 0.4,
                read_shed_watermark: 0.8,
                retry_after_base_ms: 2,
            })
            .spawn(|x: u32| {
                std::thread::sleep(Duration::from_millis(30));
                x
            });
        // Fill the queue past the write watermark with one-way casts.
        for i in 0..6 {
            h.cast(i).unwrap();
        }
        // Writes now get Busy with a retry hint…
        let w = h.call_with(99, RequestClass::Write, None);
        match w {
            Err(RpcError::Busy { retry_after_ms }) => assert!(retry_after_ms >= 2),
            other => panic!("expected Busy for write, got {other:?}"),
        }
        // …while reads are still admitted (occupancy below read watermark).
        let depth_before = h.queue_depth();
        assert!(depth_before < 8, "test setup: below read watermark");
        assert_eq!(h.call_with(7, RequestClass::Read, None).unwrap(), 7);
        assert!(h.shed_writes() >= 1);
        assert_eq!(h.shed_reads(), 0);
        drop(h);
        runner.join();
    }

    #[test]
    fn reads_shed_past_critical_watermark() {
        let (h, runner) = RpcServerBuilder::new("admit-read")
            .queue_capacity(4)
            .admission(AdmissionConfig {
                write_shed_watermark: 0.25,
                read_shed_watermark: 0.5,
                retry_after_base_ms: 1,
            })
            .spawn(|x: u32| {
                std::thread::sleep(Duration::from_millis(100));
                x
            });
        for i in 0..3 {
            h.cast(i).unwrap();
        }
        assert!(matches!(
            h.call_with(8, RequestClass::Read, None),
            Err(RpcError::Busy { .. })
        ));
        assert!(h.shed_reads() >= 1);
        drop(h);
        runner.join();
    }

    #[test]
    fn expired_deadline_is_a_typed_error_not_service() {
        use std::sync::atomic::AtomicU64 as Clock;
        let now = Arc::new(Clock::new(100));
        let clock_now = now.clone();
        let (h, runner) = RpcServerBuilder::new("deadline")
            .clock(Arc::new(move || clock_now.load(Ordering::SeqCst)))
            .spawn(|x: u32| x);
        // Deadline in the future: served.
        assert_eq!(h.call_with(1, RequestClass::Write, Some(500)).unwrap(), 1);
        // Deadline in the past: typed rejection before enqueue.
        now.store(1_000, Ordering::SeqCst);
        assert_eq!(
            h.call_with(2, RequestClass::Write, Some(500)).unwrap_err(),
            RpcError::DeadlineExpired
        );
        assert_eq!(h.deadline_expired(), 1);
        assert_eq!(h.processed(), 1);
        drop(h);
        runner.join();
    }

    #[test]
    fn server_drops_work_that_expires_in_queue() {
        use std::sync::atomic::AtomicU64 as Clock;
        let now = Arc::new(Clock::new(0));
        let server_now = now.clone();
        // Handler advances the clock past every later deadline: requests
        // behind the first one expire while queued.
        let tick = now.clone();
        let (h, runner) = RpcServerBuilder::new("queue-expiry")
            .queue_capacity(8)
            .clock(Arc::new(move || server_now.load(Ordering::SeqCst)))
            .spawn(move |x: u32| {
                tick.store(10_000, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                x
            });
        let mut joins = Vec::new();
        for i in 0..4u32 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                h.call_with(i, RequestClass::Write, Some(5_000))
            }));
        }
        let mut served = 0u32;
        let mut expired = 0u32;
        for j in joins {
            match j.join().unwrap() {
                Ok(_) => served += 1,
                Err(RpcError::DeadlineExpired) => expired += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // At least the first request is served; everything that waited
        // behind the clock jump is dropped with a typed error.
        assert!(served >= 1, "one request must be served");
        assert_eq!(served + expired, 4);
        assert_eq!(h.deadline_expired() as u32, expired);
        drop(h);
        runner.join();
    }

    #[test]
    fn call_with_never_blocks_on_full_queue() {
        let (h, runner) = RpcServerBuilder::new("nonblock")
            .queue_capacity(1)
            .spawn(|x: u32| {
                std::thread::sleep(Duration::from_millis(100));
                x
            });
        // Saturate: one in service, one queued.
        h.cast(0).unwrap();
        while h.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        h.cast(1).unwrap();
        // Even with admission disabled, call_with resolves immediately
        // with Busy instead of blocking the producer.
        let start = Instant::now();
        let r = h.call_with(2, RequestClass::Write, None);
        assert!(matches!(r, Err(RpcError::Busy { .. })));
        assert!(start.elapsed() < Duration::from_millis(50));
        drop(h);
        runner.join();
    }

    #[test]
    fn replies_can_be_awaited_in_any_order() {
        let (a, runner_a) = RpcServerBuilder::new("a").spawn(|x: u32| x * 2);
        let (b, runner_b) = RpcServerBuilder::new("b").spawn(|x: u32| x + 100);
        let mut sent = Vec::new();
        for i in 0..4u32 {
            sent.push((i * 2, a.send_with(i, RequestClass::Read, None).unwrap()));
            sent.push((i + 100, b.send_with(i, RequestClass::Read, None).unwrap()));
        }
        // Last sent, first awaited; and one reply abandoned unread.
        let abandoned = a.send_with(9, RequestClass::Read, None).unwrap();
        drop(abandoned);
        for (expect, reply) in sent.into_iter().rev() {
            assert_eq!(reply.wait().unwrap(), expect);
        }
        assert_eq!(a.call_with(5, RequestClass::Read, None).unwrap(), 10);
        drop((a, b));
        runner_a.join();
        runner_b.join();
    }

    #[test]
    fn shedding_and_an_expired_deadline_surface_at_send_time() {
        use std::sync::atomic::AtomicU64 as Clock;
        let now = Arc::new(Clock::new(100));
        let clock_now = now.clone();
        let (open, gate) = bounded::<()>(0);
        let (entered_tx, entered) = bounded::<u32>(4);
        let (h, runner) = RpcServerBuilder::new("send-time")
            .queue_capacity(4)
            .admission(AdmissionConfig {
                write_shed_watermark: 0.25,
                read_shed_watermark: 0.5,
                retry_after_base_ms: 1,
            })
            .clock(Arc::new(move || clock_now.load(Ordering::SeqCst)))
            .spawn(move |x: u32| {
                let _ = entered_tx.send(x);
                let _ = gate.recv();
                x
            });
        // One request held in service, two queued: occupancy 2 / 4.
        let held = h.send_with(0, RequestClass::Read, None).unwrap();
        assert_eq!(entered.recv().unwrap(), 0);
        h.cast(1).unwrap();
        h.cast(2).unwrap();
        // Refused by the send itself: no reply to wait on.
        assert!(matches!(
            h.send_with(3, RequestClass::Read, None),
            Err(RpcError::Busy { .. })
        ));
        assert!(matches!(
            h.send_with(4, RequestClass::Write, Some(500)),
            Err(RpcError::Busy { .. })
        ));
        now.store(1_000, Ordering::SeqCst);
        assert!(matches!(
            h.send_with(5, RequestClass::Read, Some(500)),
            Err(RpcError::DeadlineExpired)
        ));
        assert_eq!(
            (h.shed_reads(), h.shed_writes(), h.deadline_expired()),
            (1, 1, 1)
        );
        for _ in 0..3 {
            open.send(()).unwrap();
        }
        assert_eq!(held.wait().unwrap(), 0);
        drop(h);
        runner.join();
    }

    #[test]
    fn a_crash_with_a_send_outstanding_resolves_the_wait_to_crashed() {
        let (open, gate) = bounded::<()>(0);
        let (entered_tx, entered) = bounded::<()>(1);
        let (h, runner) = RpcServerBuilder::new("crash-pending")
            .queue_capacity(1)
            .crash_after_overloads(1)
            .spawn(move |x: u32| {
                if x == 0 {
                    let _ = entered_tx.send(());
                    let _ = gate.recv();
                }
                x
            });
        let in_service = h.send_with(0, RequestClass::Read, None).unwrap();
        entered.recv().unwrap();
        let queued = h.send_with(1, RequestClass::Read, None).unwrap();
        // The queue is full: one overload strike crashes the server.
        assert_eq!(h.cast(2).unwrap_err(), RpcError::Overloaded);
        assert_eq!(h.state(), ServerState::Crashed);
        open.send(()).unwrap();
        assert_eq!(in_service.wait().unwrap(), 0, "already in service");
        assert_eq!(queued.wait().unwrap_err(), RpcError::Crashed);
        drop(h);
        runner.join();
    }

    /// Two servers whose handlers meet at one barrier answer only if both
    /// requests are in service at once: sending both before waiting on
    /// either is what lets them overlap.
    #[test]
    fn sends_to_two_servers_overlap_before_either_is_awaited() {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let spawn = |name: &str| {
            let barrier = barrier.clone();
            RpcServerBuilder::new(name).spawn(move |x: u32| {
                barrier.wait();
                x
            })
        };
        let ((a, runner_a), (b, runner_b)) = (spawn("left"), spawn("right"));
        let left = a.send_with(1, RequestClass::Read, None).unwrap();
        let right = b.send_with(2, RequestClass::Read, None).unwrap();
        assert_eq!((left.wait().unwrap(), right.wait().unwrap()), (1, 2));
        drop((a, b));
        runner_a.join();
        runner_b.join();
    }

    #[test]
    fn shutdown_stops_service() {
        let (h, runner) = RpcServerBuilder::new("stopper").spawn(|x: u8| x);
        h.shutdown();
        assert_eq!(h.call(1).unwrap_err(), RpcError::Stopped);
        assert_eq!(h.state(), ServerState::Stopped);
        drop(h);
        runner.join();
    }
}
