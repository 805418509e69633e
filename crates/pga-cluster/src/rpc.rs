//! Typed in-process RPC with bounded queues.
//!
//! Each server is one OS thread draining a bounded crossbeam channel — the
//! analog of an HBase region server's RPC queue. Two call paths exist:
//!
//! * [`RpcHandle::call`] — blocking send: the caller waits for queue space.
//!   This is what the reverse proxy's backpressure gives the system.
//! * [`RpcHandle::send_with`] — non-blocking read send: a full queue
//!   refuses the request with a typed [`RpcError::Busy`] carrying a
//!   [`FULL_QUEUE_RETRY_AFTER_MS`] hint instead of blocking the caller.
//!   Requests may also carry an absolute deadline: the server drops expired
//!   work with a typed [`RpcError::DeadlineExpired`] rather than serving
//!   dead requests. An accepted request returns a [`PendingReply`], so a
//!   caller can send to several servers before it waits on any;
//!   [`RpcHandle::call_with`] is the send followed by the wait.
//!
//! A server stops only through [`RpcHandle::shutdown`]. The paper's
//! §III-B crash under an unthrottled RPC queue is reproduced by the
//! queueing model in [`crate::sim`], not by these threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};

/// Millisecond clock used for deadlines. Injectable so deterministic
/// simulations can drive it from sim time.
pub type ClockMs = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Milliseconds since the first call in this process — the default
/// [`ClockMs`]. A single shared epoch means every server and caller in the
/// process agrees on absolute deadline values.
pub fn default_clock_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// The `retry_after_ms` hint of the [`RpcError::Busy`] that
/// [`RpcHandle::send_with`] returns when the queue is full.
pub const FULL_QUEUE_RETRY_AFTER_MS: u64 = 10;

/// Lifecycle of an RPC server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// Serving normally.
    Healthy,
    /// Shut down ([`RpcHandle::shutdown`]); no longer accepting requests.
    Stopped,
}

/// Errors surfaced to RPC callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// A non-blocking send found the queue full (only from
    /// [`RpcHandle::send_with`]). Retry after the hinted delay.
    Busy {
        /// Suggested minimum backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before the server could serve it.
    DeadlineExpired,
    /// The server was stopped.
    Stopped,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Busy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms}ms")
            }
            RpcError::DeadlineExpired => write!(f, "deadline expired before service"),
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
    /// Nanoseconds spent inside the handler.
    pub busy_ns: AtomicU64,
    /// Reads refused at a full queue (`Busy`).
    pub shed_reads: AtomicU64,
    /// Requests dropped because their deadline expired.
    pub deadline_expired: AtomicU64,
}

struct Shared {
    stopped: AtomicBool,
    stats: RpcStats,
    clock: ClockMs,
}

impl Shared {
    fn state(&self) -> ServerState {
        if self.stopped.load(Ordering::Acquire) {
            ServerState::Stopped
        } else {
            ServerState::Healthy
        }
    }

    /// `Ok` while the server accepts requests, else why it does not.
    fn serving(&self) -> Result<(), RpcError> {
        match self.state() {
            ServerState::Healthy => Ok(()),
            ServerState::Stopped => Err(RpcError::Stopped),
        }
    }
}

struct Envelope<Req, Resp> {
    req: Req,
    /// Absolute deadline on the server's [`ClockMs`]; expired envelopes
    /// are dropped with a typed error instead of being served.
    deadline_ms: Option<u64>,
    reply: Sender<Result<Resp, RpcError>>,
}

/// The answer to one request that is queued or in service. Replies can be
/// waited on in any order; dropping one abandons its answer (the server
/// still serves the request and discards the reply).
pub struct PendingReply<Resp> {
    rx: Receiver<Result<Resp, RpcError>>,
}

impl<Resp> PendingReply<Resp> {
    /// Block until the server answers. A reply dropped unanswered (the
    /// server thread is gone) resolves the wait to [`RpcError::Stopped`].
    pub fn wait(self) -> Result<Resp, RpcError> {
        self.rx.recv().unwrap_or(Err(RpcError::Stopped))
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
    clock: Option<ClockMs>,
}

impl RpcServerBuilder {
    /// Start configuring a server with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        RpcServerBuilder {
            name: name.into(),
            queue_capacity: 1024,
            clock: None,
        }
    }

    /// Override the millisecond clock used for deadline checks. Default:
    /// [`default_clock_ms`]. Deterministic simulations inject sim time here.
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

    /// Spawn the server thread with the given request handler.
    pub fn spawn<Req, Resp, H>(self, mut handler: H) -> (RpcHandle<Req, Resp>, ServerRunner)
    where
        Req: Send + 'static,
        Resp: Send + 'static,
        H: FnMut(Req) -> Resp + Send + 'static,
    {
        let (tx, rx) = bounded::<Envelope<Req, Resp>>(self.queue_capacity);
        let shared = Arc::new(Shared {
            stopped: AtomicBool::new(false),
            stats: RpcStats::default(),
            clock: self.clock.unwrap_or_else(|| Arc::new(default_clock_ms)),
        });
        let worker_shared = shared.clone();
        let thread_name = self.name.clone();
        let join = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                for env in rx.iter() {
                    if let Some(d) = env.deadline_ms {
                        if (worker_shared.clock)() >= d {
                            // Dead request: reply typed, never serve it.
                            worker_shared
                                .stats
                                .deadline_expired
                                .fetch_add(1, Ordering::Relaxed);
                            let _ = env.reply.send(Err(RpcError::DeadlineExpired));
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
                    // The caller may have given up; ignore send failures.
                    let _ = env.reply.send(Ok(resp));
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

    /// Nanoseconds the handler has been busy.
    pub fn busy_ns(&self) -> u64 {
        self.shared.stats.busy_ns.load(Ordering::Relaxed)
    }

    /// Reads refused at a full queue.
    pub fn shed_reads(&self) -> u64 {
        self.shared.stats.shed_reads.load(Ordering::Relaxed)
    }

    /// Requests dropped because their deadline expired.
    pub fn deadline_expired(&self) -> u64 {
        self.shared.stats.deadline_expired.load(Ordering::Relaxed)
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
        self.enqueue(req)
    }

    /// Queue `req`, stopped or not, and wait for the answer.
    fn enqueue(&self, req: Req) -> Result<Resp, RpcError> {
        let (reply_tx, rx) = bounded(1);
        self.tx
            .send(Envelope {
                req,
                deadline_ms: None,
                reply: reply_tx,
            })
            .map_err(|_| RpcError::Stopped)?;
        PendingReply { rx }.wait()
    }

    /// Non-blocking send: never waits for queue space. A full queue
    /// refuses the request with a typed [`RpcError::Busy`] (hint
    /// [`FULL_QUEUE_RETRY_AFTER_MS`]), and the queued request carries an
    /// optional absolute deadline (server-clock milliseconds) past which
    /// the server drops it as [`RpcError::DeadlineExpired`]. Every refusal
    /// is decided here, before anything is queued; an accepted request
    /// answers through the returned [`PendingReply`].
    pub fn send_with(
        &self,
        req: Req,
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
        let (reply_tx, rx) = bounded(1);
        match self.tx.try_send(Envelope {
            req,
            deadline_ms,
            reply: reply_tx,
        }) {
            Ok(()) => Ok(PendingReply { rx }),
            Err(TrySendError::Full(_)) => {
                self.shared.stats.shed_reads.fetch_add(1, Ordering::Relaxed);
                Err(RpcError::Busy {
                    retry_after_ms: FULL_QUEUE_RETRY_AFTER_MS,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(RpcError::Stopped),
        }
    }

    /// [`RpcHandle::send_with`], then wait for the answer.
    pub fn call_with(&self, req: Req, deadline_ms: Option<u64>) -> Result<Resp, RpcError> {
        self.send_with(req, deadline_ms)?.wait()
    }

    /// Signal shutdown: later sends fail with [`RpcError::Stopped`];
    /// requests already queued are still served, and the thread exits
    /// once all clones of this handle are dropped.
    pub fn shutdown(&self) {
        self.shared.stopped.store(true, Ordering::Release);
    }

    /// [`RpcHandle::shutdown`], then one last request, served after what
    /// was queued before the stop: the server's parting answer.
    pub fn shutdown_with(&self, last: Req) -> Result<Resp, RpcError> {
        self.shutdown();
        self.enqueue(last)
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
    fn blocking_call_applies_backpressure_without_crashing() {
        // One request held in service and one queued fill the one-slot
        // queue: a blocking call waits for space instead of failing.
        let (open, gate) = bounded::<()>(0);
        let (entered_tx, entered) = bounded::<u32>(4);
        let (h, runner) =
            RpcServerBuilder::new("slow-bp")
                .queue_capacity(1)
                .spawn(move |x: u32| {
                    let _ = entered_tx.send(x);
                    let _ = gate.recv();
                    x
                });
        let in_service = h.send_with(0, None).unwrap();
        assert_eq!(entered.recv().unwrap(), 0);
        let queued = h.send_with(1, None).unwrap();
        let caller = {
            let h = h.clone();
            std::thread::spawn(move || h.call(2))
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!caller.is_finished(), "the call waits for queue space");
        for _ in 0..3 {
            open.send(()).unwrap();
        }
        assert_eq!(caller.join().unwrap(), Ok(2));
        assert_eq!((in_service.wait(), queued.wait()), (Ok(0), Ok(1)));
        assert_eq!(h.state(), ServerState::Healthy);
        assert!(h.busy_ns() > 0);
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
        assert_eq!(h.call_with(1, Some(500)).unwrap(), 1);
        // Deadline in the past: typed rejection before enqueue.
        now.store(1_000, Ordering::SeqCst);
        assert_eq!(
            h.call_with(2, Some(500)).unwrap_err(),
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
            joins.push(std::thread::spawn(move || h.call_with(i, Some(5_000))));
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
        let in_service = h.send_with(0, None).unwrap();
        while h.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = h.send_with(1, None).unwrap();
        // A full queue refuses the send at once with the fixed hint,
        // instead of blocking the producer, and queues nothing.
        let start = Instant::now();
        let r = h.call_with(2, None);
        assert_eq!(r, Err(RpcError::Busy { retry_after_ms: 10 }));
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(h.shed_reads(), 1);
        assert_eq!(h.queue_depth(), 1, "only the held send waits in the queue");
        assert_eq!((in_service.wait(), queued.wait()), (Ok(0), Ok(1)));
        drop(h);
        runner.join();
    }

    #[test]
    fn replies_can_be_awaited_in_any_order() {
        let (a, runner_a) = RpcServerBuilder::new("a").spawn(|x: u32| x * 2);
        let (b, runner_b) = RpcServerBuilder::new("b").spawn(|x: u32| x + 100);
        let mut sent = Vec::new();
        for i in 0..4u32 {
            sent.push((i * 2, a.send_with(i, None).unwrap()));
            sent.push((i + 100, b.send_with(i, None).unwrap()));
        }
        // Last sent, first awaited; and one reply abandoned unread.
        let abandoned = a.send_with(9, None).unwrap();
        drop(abandoned);
        for (expect, reply) in sent.into_iter().rev() {
            assert_eq!(reply.wait().unwrap(), expect);
        }
        assert_eq!(a.call_with(5, None).unwrap(), 10);
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
            .queue_capacity(2)
            .clock(Arc::new(move || clock_now.load(Ordering::SeqCst)))
            .spawn(move |x: u32| {
                let _ = entered_tx.send(x);
                let _ = gate.recv();
                x
            });
        // One request held in service, two queued: the queue is full.
        let held = h.send_with(0, None).unwrap();
        assert_eq!(entered.recv().unwrap(), 0);
        let queued = [h.send_with(1, None).unwrap(), h.send_with(2, None).unwrap()];
        // Refused by the send itself: no reply to wait on.
        assert!(matches!(h.send_with(3, None), Err(RpcError::Busy { .. })));
        now.store(1_000, Ordering::SeqCst);
        assert!(matches!(
            h.send_with(4, Some(500)),
            Err(RpcError::DeadlineExpired)
        ));
        assert_eq!((h.shed_reads(), h.deadline_expired()), (1, 1));
        for _ in 0..3 {
            open.send(()).unwrap();
        }
        assert_eq!(held.wait().unwrap(), 0);
        for (want, reply) in (1..).zip(queued) {
            assert_eq!(reply.wait().unwrap(), want);
        }
        drop(h);
        runner.join();
    }

    /// A stop refuses new work but still answers what was queued: the
    /// server loop drains its queue.
    #[test]
    fn a_send_queued_at_shutdown_is_answered_and_a_new_send_is_stopped() {
        let (open, gate) = bounded::<()>(0);
        let (entered_tx, entered) = bounded::<()>(1);
        let (h, runner) = RpcServerBuilder::new("stop-pending")
            .queue_capacity(1)
            .spawn(move |x: u32| {
                if x == 0 {
                    let _ = entered_tx.send(());
                    let _ = gate.recv();
                }
                x
            });
        let in_service = h.send_with(0, None).unwrap();
        entered.recv().unwrap();
        let queued = h.send_with(1, None).unwrap();
        h.shutdown();
        assert_eq!(h.state(), ServerState::Stopped);
        assert!(matches!(h.send_with(2, None), Err(RpcError::Stopped)));
        assert_eq!(h.call(3).unwrap_err(), RpcError::Stopped);
        open.send(()).unwrap();
        assert_eq!(in_service.wait().unwrap(), 0, "already in service");
        assert_eq!(queued.wait().unwrap(), 1, "queued before the stop");
        assert_eq!(h.processed(), 2);
        drop(h);
        runner.join();
    }

    /// The parting request is served behind the queue, even though the
    /// server refuses every other request from the stop on.
    #[test]
    fn shutdown_with_answers_its_last_request_after_the_queue() {
        let (h, runner) = RpcServerBuilder::new("parting").spawn(|x: u32| x * 2);
        let queued = h.send_with(1, None).unwrap();
        assert_eq!(h.shutdown_with(5).unwrap(), 10);
        assert_eq!(queued.wait().unwrap(), 2);
        assert_eq!(h.call(3).unwrap_err(), RpcError::Stopped);
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
        let left = a.send_with(1, None).unwrap();
        let right = b.send_with(2, None).unwrap();
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
