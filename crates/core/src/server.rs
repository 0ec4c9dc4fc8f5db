//! The braid server front-end: N client connections multiplexed onto a
//! fixed worker pool.
//!
//! [`BraidServer`] binds a TCP listener and speaks the length-prefixed
//! [`clientproto`](braid_remote::clientproto) protocol: a client sends
//! `QUERY` frames (CAQL text plus a strategy tag) and receives zero or
//! more `BATCH` frames followed by `END` (with the completeness
//! verdict) or `ERROR`. Each connection becomes one [`ConnTask`] — a
//! resumable state machine spawned onto a shared
//! [`WorkerPool`](braid_cms::sched::WorkerPool) — so 10k connections
//! cost 10k small heap objects, not 10k OS threads. Only the socket
//! *readers* are threads (blocking `read` has no cooperative form over
//! std TCP); they push decoded queries into the connection's inbox and
//! fire the pool waker, which is exactly the "external event source"
//! case [`WorkerPool::waker`] exists for.
//!
//! Inside a task, query execution is the same cooperative path
//! [`SessionTask`](crate::SessionTask) uses: a single-flight join led by
//! another connection parks the *task*, the worker thread moves on, and
//! the flight's publish wakes it back up.

use crate::explain::ExplainReport;
use crate::system::{BraidError, BraidSystem, CheckedSolutions, ExplainedSolutions, SessionHandle};
use braid_cms::sched::{PoolConfig, Step, Task, WorkerPool};
use braid_cms::{Completeness, Waker};
use braid_ie::Strategy;
use braid_net::{read_frame, write_frame, Listener, NetError, MAX_FRAME_BYTES};
use braid_relational::Tuple;
use braid_remote::clientproto::{self, admin_op, kind, ClientQuery, StatsReport};
use braid_remote::proto::{decode_batch, encode_batch};
use braid_trace::{json_escape, RingSink, TraceEvent, TraceKind, TraceSink, Tracer};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::task::Poll;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuples per `BATCH` frame on the answer stream.
const BATCH_TUPLES: usize = 256;

/// Events the server-side flight recorder retains (oldest evicted
/// first, with a drop counter surfaced in STATS).
const RECORDER_CAP: usize = 1024;

/// Per-traced-query explain ring capacity (matches the in-process
/// EXPLAIN path).
const EXPLAIN_RING: usize = 4096;

/// How often the stats sampler thread records a rate sample.
const SAMPLER_PERIOD: Duration = Duration::from_millis(100);

/// Rate samples retained — at [`SAMPLER_PERIOD`] this is a ~6 s window
/// for qps / wakes-per-second rates.
const SAMPLE_RING: usize = 64;

/// Sizing knobs for [`BraidServer`].
#[derive(Debug, Clone)]
pub struct BraidServerConfig {
    /// Listen address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads in the shared session pool (whose per-session
    /// step budget is [`PoolConfig::default`]'s).
    pub workers: usize,
}

impl Default for BraidServerConfig {
    fn default() -> Self {
        BraidServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
        }
    }
}

/// Point-in-time server introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BraidServerStats {
    /// Connections accepted over the server's lifetime (monotone —
    /// never decremented when connections close).
    pub connections_accepted: u64,
    /// Connections currently open (their task has not finished).
    pub active: usize,
    /// Queries answered (including ones answered with `ERROR`).
    pub queries: u64,
    /// Time since the server bound its listener.
    pub uptime: Duration,
}

/// Bounded ring of pre-rendered JSON-line events — the server's flight
/// recorder, drained over `ADMIN`/`ADMIN_REPORT`. Oldest events are
/// evicted first; the drop count is surfaced in `STATS_REPORT`.
struct FlightRecorder {
    ring: Mutex<VecDeque<String>>,
    dropped: AtomicU64,
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn record(&self, epoch: Instant, event: &str, detail: &str) {
        let t_us = epoch.elapsed().as_micros() as u64;
        let line = format!(
            "{{\"t_us\":{t_us},\"event\":\"{}\",\"detail\":\"{}\"}}",
            json_escape(event),
            json_escape(detail)
        );
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() >= RECORDER_CAP {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(line);
    }

    /// Consume everything recorded so far as one newline-joined string.
    fn drain(&self) -> String {
        let lines: Vec<String> = self
            .ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        lines.join("\n")
    }
}

/// One rate sample: cumulative counters at `t_us` since the server
/// epoch. Rates in `STATS_REPORT` are deltas against the oldest
/// retained sample.
#[derive(Clone, Copy)]
struct RateSample {
    t_us: u64,
    queries: u64,
    wakes: u64,
}

struct ServerShared {
    /// The server-wide monotonic epoch: every timestamp the server puts
    /// on the wire (trace `start_us`, recorder `t_us`, `CLOCK_INFO`) is
    /// microseconds since this instant, so one clock-offset exchange per
    /// connection normalizes all of them.
    epoch: Instant,
    accepted: AtomicU64,
    active: AtomicUsize,
    queries: AtomicU64,
    shutdown: AtomicBool,
    /// The owned system, for STATS snapshots built inside connection
    /// tasks (which only hold `ServerShared`).
    system: Arc<BraidSystem>,
    /// Weak to break the cycle pool → ConnTask → ServerShared → pool.
    pool: Weak<WorkerPool>,
    recorder: FlightRecorder,
    /// Rate-sample ring fed by the sampler thread (~[`SAMPLER_PERIOD`]).
    samples: Mutex<VecDeque<RateSample>>,
}

impl ServerShared {
    fn record(&self, event: &str, detail: &str) {
        self.recorder.record(self.epoch, event, detail);
    }

    fn sample_now(&self) -> RateSample {
        RateSample {
            t_us: self.epoch.elapsed().as_micros() as u64,
            queries: self.queries.load(Ordering::SeqCst),
            wakes: self.system.metrics().cms.wakes,
        }
    }

    fn push_sample(&self) {
        let sample = self.sample_now();
        let mut ring = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() >= SAMPLE_RING {
            ring.pop_front();
        }
        ring.push_back(sample);
    }

    /// Assemble the fixed-layout `STATS_REPORT` snapshot: lifetime
    /// counters, pool occupancy, windowed rates against the oldest
    /// retained sample, and the flattened metrics/histogram entries.
    fn stats_report(&self) -> StatsReport {
        let now = self.sample_now();
        let metrics = self.system.metrics();
        let pool = self
            .pool
            .upgrade()
            .map(|p| p.snapshot())
            .unwrap_or_default();
        let oldest = self
            .samples
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .front()
            .copied();
        let rate_milli = |delta: u64, dt_us: u64| {
            delta
                .saturating_mul(1_000_000_000)
                .checked_div(dt_us)
                .unwrap_or(0)
        };
        let (qps_milli, wakes_per_sec_milli) = match oldest {
            Some(s) if now.t_us > s.t_us => {
                let dt = now.t_us - s.t_us;
                (
                    rate_milli(now.queries.saturating_sub(s.queries), dt),
                    rate_milli(now.wakes.saturating_sub(s.wakes), dt),
                )
            }
            _ => (0, 0),
        };
        StatsReport {
            uptime_us: now.t_us,
            connections_accepted: self.accepted.load(Ordering::SeqCst),
            active_connections: self.active.load(Ordering::SeqCst) as u64,
            queries: now.queries,
            qps_milli,
            wakes_per_sec_milli,
            hit_rate_milli: metrics.cms.full_cache_answers * 1000 / metrics.cms.queries.max(1),
            pool_spawned: pool.spawned,
            pool_finished: pool.finished,
            pool_panicked: pool.panicked,
            pool_queue_len: pool.queue_len as u64,
            pool_parked: pool.parked as u64,
            recorder_dropped: self.recorder.dropped.load(Ordering::Relaxed),
            counters: metrics
                .counter_entries()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            hists: metrics
                .histogram_entries()
                .into_iter()
                .map(|(k, h)| (k.to_string(), h.buckets))
                .collect(),
        }
    }
}

/// One decoded client frame, routed from the reader thread to the
/// connection task (the single writer on the socket — replies never
/// race an in-flight answer stream).
enum InboxMsg {
    Query(ClientQuery),
    /// `CLOCK_SYNC` carrying the client's timestamp to echo.
    ClockSync(u64),
    Stats,
    Admin(u8),
}

/// One connection's mailbox, filled by its reader thread and drained by
/// its [`ConnTask`] on the pool.
struct ConnInbox {
    queue: Mutex<VecDeque<InboxMsg>>,
    /// Set when the peer closed (or the stream broke); the task finishes
    /// after draining what is left.
    closed: AtomicBool,
}

/// Where a [`ConnTask`] is between steps.
enum ConnState {
    /// Waiting for the inbox to yield the next message.
    Idle,
    /// Executing `query`; may park on a would-block and be retried. For
    /// traced queries the connection's ring collects this query's span
    /// records for the `TRACE` frame.
    Solving(ClientQuery),
}

/// One client connection as a resumable task: pop a query from the
/// inbox, solve it cooperatively, stream the answer frames back, repeat
/// until the peer closes.
struct ConnTask {
    session: SessionHandle,
    inbox: Arc<ConnInbox>,
    writer: TcpStream,
    shared: Arc<ServerShared>,
    state: ConnState,
    /// The per-connection span ring, attached to the session tracer
    /// while the client is sending traced queries. Kept across queries
    /// (attach/detach happens only when the trace flag flips) so a
    /// stream of traced queries pays one attach, not one per query.
    trace_ring: Option<Arc<RingSink>>,
}

fn strategy_from_tag(tag: u8) -> Strategy {
    match tag {
        clientproto::strategy::INTERPRETED => Strategy::Interpreted,
        clientproto::strategy::CONJUNCTION_COMPILED => Strategy::ConjunctionCompiled,
        _ => Strategy::FullyCompiled,
    }
}

fn strategy_to_tag(s: Strategy) -> u8 {
    match s {
        Strategy::Interpreted => clientproto::strategy::INTERPRETED,
        Strategy::ConjunctionCompiled => clientproto::strategy::CONJUNCTION_COMPILED,
        Strategy::FullyCompiled => clientproto::strategy::FULLY_COMPILED,
    }
}

impl ConnTask {
    /// Stream one finished answer back to the client. An I/O error means
    /// the peer is gone; the caller drops the connection.
    fn send_answer(&mut self, checked: &CheckedSolutions) -> Result<(), NetError> {
        for chunk in checked.solutions.chunks(BATCH_TUPLES.max(1)) {
            write_frame(&mut self.writer, kind::BATCH, &encode_batch(chunk))?;
        }
        let (exact, missing): (bool, &[String]) = match &checked.completeness {
            Completeness::Exact => (true, &[]),
            Completeness::Partial { missing_subqueries } => (false, missing_subqueries),
        };
        write_frame(
            &mut self.writer,
            kind::END,
            &clientproto::encode_answer_end(exact, missing),
        )
    }

    fn finish(&mut self) -> Step {
        if self.trace_ring.take().is_some() {
            self.session.cms_mut().detach_session_sink();
        }
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        self.shared.record("conn.close", "");
        Step::Done
    }

    /// Reply to a control message while idle. `Err` means the peer is
    /// gone.
    fn reply_control(&mut self, msg: &InboxMsg) -> Result<(), NetError> {
        match msg {
            InboxMsg::ClockSync(client_now_us) => {
                let server_now_us = self.shared.epoch.elapsed().as_micros() as u64;
                write_frame(
                    &mut self.writer,
                    kind::CLOCK_INFO,
                    &clientproto::encode_clock_info(*client_now_us, server_now_us),
                )
            }
            InboxMsg::Stats => write_frame(
                &mut self.writer,
                kind::STATS_REPORT,
                &clientproto::encode_stats_report(&self.shared.stats_report()),
            ),
            InboxMsg::Admin(op) => {
                let text = match *op {
                    admin_op::FLIGHT_RECORDER => self.shared.recorder.drain(),
                    _ => String::new(),
                };
                write_frame(
                    &mut self.writer,
                    kind::ADMIN_REPORT,
                    &clientproto::encode_admin_report(*op, &text),
                )
            }
            InboxMsg::Query(_) => Ok(()),
        }
    }
}

impl Task for ConnTask {
    fn step(&mut self, waker: &Waker) -> Step {
        match &self.state {
            ConnState::Idle => {
                let next = self
                    .inbox
                    .queue
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .pop_front();
                match next {
                    Some(InboxMsg::Query(q)) => {
                        // Traced queries get the connection's ring fanned
                        // into the session tracer, pinned to the *server*
                        // epoch so shipped `start_us` offsets are all on
                        // the one clock `CLOCK_INFO` advertised. The
                        // attachment persists until the client sends an
                        // untraced query, so back-to-back traced queries
                        // skip the attach/detach churn.
                        if q.trace {
                            if self.trace_ring.is_none() {
                                let ring = Arc::new(RingSink::new(EXPLAIN_RING));
                                self.session.cms_mut().attach_session_sink_at(
                                    Arc::clone(&ring) as Arc<dyn TraceSink>,
                                    self.shared.epoch,
                                );
                                self.trace_ring = Some(ring);
                            }
                        } else if self.trace_ring.take().is_some() {
                            self.session.cms_mut().detach_session_sink();
                        }
                        self.state = ConnState::Solving(q);
                        Step::Yield
                    }
                    Some(msg) => match self.reply_control(&msg) {
                        Ok(()) => Step::Yield,
                        Err(_) => self.finish(), // peer gone
                    },
                    // Check `closed` only after a failed pop: the reader
                    // pushes before it sets the flag, so a closed inbox
                    // with queued work still drains.
                    None if self.inbox.closed.load(Ordering::SeqCst) => self.finish(),
                    None => Step::Pending,
                }
            }
            ConnState::Solving(q) => {
                let (query, strategy) = (q.query.clone(), strategy_from_tag(q.strategy));
                let query_id = q.query_id;
                let ring = self.trace_ring.clone();
                // A would-block retry re-runs the solve from scratch, so
                // span records from the aborted attempt are stale —
                // discard them before every attempt.
                if let Some(ring) = &ring {
                    let _ = ring.drain();
                }
                match self.session.poll_checked(&query, strategy, waker) {
                    Poll::Pending => Step::Pending,
                    Poll::Ready(result) => {
                        self.state = ConnState::Idle;
                        self.shared.queries.fetch_add(1, Ordering::SeqCst);
                        let sent = match result {
                            Ok(checked) => {
                                // Ship the query's span records first so
                                // the client has the full forest by the
                                // time END lands.
                                let traced = match &ring {
                                    Some(ring) => write_frame(
                                        &mut self.writer,
                                        kind::TRACE,
                                        &clientproto::encode_trace(query_id, &ring.drain()),
                                    ),
                                    None => Ok(()),
                                };
                                traced.and_then(|()| self.send_answer(&checked))
                            }
                            Err(e) => {
                                self.shared.record("query.error", &e.to_string());
                                write_frame(
                                    &mut self.writer,
                                    kind::ERROR,
                                    &clientproto::encode_client_error(&e.to_string()),
                                )
                            }
                        };
                        match sent {
                            Ok(()) => Step::Yield,
                            Err(_) => self.finish(), // peer gone
                        }
                    }
                }
            }
        }
    }
}

/// A TCP front-end mapping N client connections onto one shared
/// [`WorkerPool`] of cooperative sessions (see the module docs).
pub struct BraidServer {
    pool: Arc<WorkerPool>,
    shared: Arc<ServerShared>,
    /// The accept loop and the per-connection reader threads; its
    /// shutdown cuts every socket, so no connection task is stranded
    /// mid-conversation.
    listener: Listener,
    sampler_handle: Option<JoinHandle<()>>,
}

impl BraidServer {
    /// Bind, start the pool and the accept loop, and return immediately.
    /// The server owns `system` (or shares it, when handed an `Arc` the
    /// caller keeps a clone of); sessions forked per connection share its
    /// cache, single-flight table and metrics.
    ///
    /// # Errors
    /// Socket bind/listen failures.
    pub fn start(
        system: impl Into<Arc<BraidSystem>>,
        config: BraidServerConfig,
    ) -> io::Result<BraidServer> {
        let system: Arc<BraidSystem> = system.into();
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let pool = Arc::new(WorkerPool::with_metrics(
            PoolConfig {
                workers: config.workers,
                ..PoolConfig::default()
            },
            system.cms().metrics_handle(),
        ));
        let shared = Arc::new(ServerShared {
            epoch: Instant::now(),
            accepted: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            queries: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            system,
            pool: Arc::downgrade(&pool),
            recorder: FlightRecorder::new(),
            samples: Mutex::new(VecDeque::new()),
        });
        shared.record("server.start", &local_addr.to_string());
        shared.push_sample();
        let listener = {
            let (pool, shared) = (Arc::clone(&pool), Arc::clone(&shared));
            Listener::start(listener, "braid", move |stream, _stop| {
                admit(stream, &pool, &shared)
            })?
        };
        // The sampler keeps the rate ring warm so STATS_REPORT can quote
        // qps / wakes-per-second over a real window instead of lifetime
        // averages. It naps in short slices to keep shutdown prompt.
        let sampler_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("braid-stats-sampler".into())
                .spawn(move || {
                    while !shared.shutdown.load(Ordering::SeqCst) {
                        let mut slept = Duration::ZERO;
                        while slept < SAMPLER_PERIOD && !shared.shutdown.load(Ordering::SeqCst) {
                            let nap = Duration::from_millis(5);
                            std::thread::sleep(nap);
                            slept += nap;
                        }
                        shared.push_sample();
                    }
                })?
        };
        Ok(BraidServer {
            pool,
            shared,
            listener,
            sampler_handle: Some(sampler_handle),
        })
    }

    /// The bound address (resolve `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Scheduler-level introspection of the shared session pool.
    pub fn pool_snapshot(&self) -> braid_cms::sched::PoolSnapshot {
        self.pool.snapshot()
    }

    /// Lifetime counters and current occupancy.
    pub fn stats(&self) -> BraidServerStats {
        BraidServerStats {
            connections_accepted: self.shared.accepted.load(Ordering::SeqCst),
            active: self.shared.active.load(Ordering::SeqCst),
            queries: self.shared.queries.load(Ordering::SeqCst),
            uptime: self.shared.epoch.elapsed(),
        }
    }

    /// The same snapshot `STATS_REPORT` ships on the wire, for in-process
    /// consumers (tests, `top --demo`).
    pub fn stats_report(&self) -> StatsReport {
        self.shared.stats_report()
    }

    /// Point-in-time metrics of the owned [`BraidSystem`]: the shared
    /// query-latency histogram, run-queue high-water and session
    /// park/wake counters that load experiments report server-side.
    pub fn metrics(&self) -> crate::CombinedMetrics {
        self.shared.system.metrics()
    }

    /// The owned system, for oracle-side inspection in tests and
    /// benchmarks (read-only access through `&self` methods).
    pub fn system(&self) -> &BraidSystem {
        &self.shared.system
    }

    /// Wait (up to `timeout`) for the server to go idle once its clients
    /// have said goodbye — connection tasks observe their closed inboxes
    /// asynchronously — then name every gauge that has not drained.
    /// Empty ⇒ quiescent: no active connection, every pool task finished,
    /// none parked.
    pub fn quiesce(&self, timeout: Duration) -> Vec<String> {
        let deadline = Instant::now() + timeout;
        loop {
            let (active, pool) = (self.stats().active, self.pool.snapshot());
            let undrained: Vec<String> = [
                (active != 0).then(|| format!("{active} connection task(s) still active")),
                (pool.spawned != pool.finished).then(|| format!("pool not drained: {pool:?}")),
                (pool.parked != 0).then(|| format!("{} pool task(s) still parked", pool.parked)),
            ]
            .into_iter()
            .flatten()
            .collect();
            if undrained.is_empty() || Instant::now() >= deadline {
                return undrained;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stop accepting, cut every open connection, and drain the pool.
    /// When this returns, no connection task or reader thread is left
    /// running and `stats().active == 0`.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.record("shutdown", "");
        if let Some(h) = self.sampler_handle.take() {
            let _ = h.join();
        }
        // Cutting every live socket unblocks the readers (which mark
        // their inboxes closed and wake their tasks) and makes task
        // writes fail fast.
        self.listener.shutdown();
        // Every spawned task now runs to Done (closed inbox or failed
        // write), so join() terminates; afterwards active == 0.
        self.pool.join();
    }
}

impl Drop for BraidServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for BraidServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BraidServer")
            .field("local_addr", &self.local_addr())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Turn one accepted socket into a connection: a [`ConnTask`] on the
/// pool, and the reader loop the listener runs on the connection's own
/// thread.
fn admit(
    stream: TcpStream,
    pool: &Arc<WorkerPool>,
    shared: &Arc<ServerShared>,
) -> Option<impl FnOnce() + Send + 'static> {
    // Answers go out as a BATCH frame followed by a small END frame;
    // without nodelay the END sits in Nagle's buffer waiting for the
    // client's delayed ACK, adding ~40ms to every round trip.
    stream.set_nodelay(true).ok();
    let reader_stream = stream.try_clone().ok()?;
    shared.accepted.fetch_add(1, Ordering::SeqCst);
    shared.active.fetch_add(1, Ordering::SeqCst);
    shared.record(
        "conn.accept",
        &stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_default(),
    );
    let inbox = Arc::new(ConnInbox {
        queue: Mutex::new(VecDeque::new()),
        closed: AtomicBool::new(false),
    });
    let id = pool.spawn(Box::new(ConnTask {
        session: shared.system.session_owned(),
        inbox: Arc::clone(&inbox),
        writer: stream,
        shared: Arc::clone(shared),
        state: ConnState::Idle,
        trace_ring: None,
    }));
    let waker = pool.waker(id);
    Some(move || reader_loop(reader_stream, &inbox, &waker))
}

/// Per-connection reader: decode `QUERY`/`CLOCK_SYNC`/`STATS_REQUEST`/
/// `ADMIN` frames into the inbox and fire the task's waker. Exits
/// (marking the inbox closed) on EOF, a client `END` goodbye, or any
/// framing/decoding error.
fn reader_loop(mut stream: TcpStream, inbox: &Arc<ConnInbox>, waker: &Waker) {
    loop {
        let msg = match read_frame(&mut stream, MAX_FRAME_BYTES) {
            Ok(Some(f)) if f.kind == kind::QUERY => {
                clientproto::decode_query(&f.payload).map(InboxMsg::Query)
            }
            Ok(Some(f)) if f.kind == kind::CLOCK_SYNC => {
                clientproto::decode_clock_sync(&f.payload).map(InboxMsg::ClockSync)
            }
            Ok(Some(f)) if f.kind == kind::STATS_REQUEST => {
                clientproto::decode_stats_request(&f.payload).map(|()| InboxMsg::Stats)
            }
            Ok(Some(f)) if f.kind == kind::ADMIN => {
                clientproto::decode_admin(&f.payload).map(InboxMsg::Admin)
            }
            // A client END frame is a polite goodbye; anything else
            // (unknown kind, EOF, torn frame, socket error) also ends
            // the conversation.
            Ok(_) | Err(_) => break,
        };
        match msg {
            Ok(msg) => {
                inbox
                    .queue
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push_back(msg);
                waker.wake();
            }
            Err(_) => break,
        }
    }
    inbox.closed.store(true, Ordering::SeqCst);
    waker.wake();
}

/// A blocking client for [`BraidServer`]: submit one query, collect the
/// whole answer.
///
/// `connect` performs a one-round-trip clock exchange (`CLOCK_SYNC` /
/// `CLOCK_INFO`): both sides run on private monotonic epochs, and the
/// measured offset is what lets [`BraidClient::solve_explained`] graft
/// server-side span records into the client's own trace timeline.
#[derive(Debug)]
pub struct BraidClient {
    stream: TcpStream,
    /// This client's monotonic epoch; all local trace offsets are
    /// microseconds since here.
    epoch: Instant,
    /// `server_time_us - client_time_us` estimated at connect: subtract
    /// it from a server `start_us` to land on this client's timeline.
    server_offset_us: i64,
    next_query_id: u64,
    /// Lazily built ring + tracer reused across `solve_explained` calls.
    explain: Option<(Arc<RingSink>, Tracer)>,
}

impl BraidClient {
    /// Connect to a running server and exchange clocks.
    ///
    /// # Errors
    /// Socket connect failures, or a garbled clock exchange.
    pub fn connect(addr: SocketAddr) -> io::Result<BraidClient> {
        let stream = TcpStream::connect(addr)?;
        Self::finish_connect(stream)
    }

    /// Like `connect`, failing after `timeout`.
    ///
    /// # Errors
    /// Socket connect failures or timeout, or a garbled clock exchange.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<BraidClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Self::finish_connect(stream)
    }

    fn finish_connect(stream: TcpStream) -> io::Result<BraidClient> {
        stream.set_nodelay(true).ok();
        let mut client = BraidClient {
            stream,
            epoch: Instant::now(),
            server_offset_us: 0,
            next_query_id: 1,
            explain: None,
        };
        client.server_offset_us = client.clock_exchange().map_err(io::Error::other)?;
        Ok(client)
    }

    /// One `CLOCK_SYNC` round trip: the classic midpoint estimate
    /// `offset = server_now - (t0 + t1) / 2`, good to about half the
    /// connection RTT.
    fn clock_exchange(&mut self) -> Result<i64, NetError> {
        let t0 = self.now_us();
        write_frame(
            &mut self.stream,
            kind::CLOCK_SYNC,
            &clientproto::encode_clock_sync(t0),
        )?;
        let frame = read_frame(&mut self.stream, MAX_FRAME_BYTES)?
            .ok_or_else(|| NetError::corrupt("server closed during clock exchange"))?;
        if frame.kind != kind::CLOCK_INFO {
            return Err(NetError::corrupt("expected CLOCK_INFO"));
        }
        let (echo, server_now) = clientproto::decode_clock_info(&frame.payload)?;
        if echo != t0 {
            return Err(NetError::corrupt("CLOCK_INFO echoed a different timestamp"));
        }
        let t1 = self.now_us();
        Ok(server_now as i64 - (t0 as i64 + t1 as i64) / 2)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The connect-time estimate of `server_clock - client_clock` in
    /// microseconds.
    pub fn server_offset_us(&self) -> i64 {
        self.server_offset_us
    }

    /// Submit one query and collect the full answer with its
    /// completeness verdict.
    ///
    /// # Errors
    /// [`BraidError::Server`] on transport failures or a server-reported
    /// error (which includes remote parse errors).
    pub fn solve_checked(
        &mut self,
        query: &str,
        strategy: Strategy,
    ) -> Result<CheckedSolutions, BraidError> {
        let q = ClientQuery::plain(strategy_to_tag(strategy), query);
        write_frame(
            &mut self.stream,
            kind::QUERY,
            &clientproto::encode_query(&q),
        )
        .map_err(|e| BraidError::Server(format!("send failed: {e}")))?;
        Ok(self.read_answer()?.0)
    }

    /// Like [`BraidClient::solve_checked`], but with wire tracing on:
    /// the server ships the query's span records in a `TRACE` frame, and
    /// the result carries a full cross-process EXPLAIN report — server
    /// spans (tagged `origin=server`) grafted under this client's own
    /// request span, on one normalized timeline.
    ///
    /// # Errors
    /// [`BraidError::Server`] on transport failures or a server-reported
    /// error.
    pub fn solve_explained(
        &mut self,
        query: &str,
        strategy: Strategy,
    ) -> Result<ExplainedSolutions, BraidError> {
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        // One ring + tracer per client, built on first use: repeated
        // traced queries reuse them (the ring is drained per query).
        let (ring, tracer) = self
            .explain
            .get_or_insert_with(|| {
                let ring = Arc::new(RingSink::new(EXPLAIN_RING));
                let tracer = Tracer::new_at(Arc::clone(&ring) as Arc<dyn TraceSink>, self.epoch);
                (ring, tracer)
            })
            .clone();
        let _ = ring.drain();
        let q = ClientQuery {
            strategy: strategy_to_tag(strategy),
            trace: true,
            query_id,
            query: query.to_string(),
        };
        let result = {
            let _request = tracer.span_lazy(TraceKind::Query, || format!("remote {query}"));
            tracer.event(
                TraceKind::NetRequest,
                "query",
                vec![("query_id", query_id.to_string())],
            );
            write_frame(
                &mut self.stream,
                kind::QUERY,
                &clientproto::encode_query(&q),
            )
            .map_err(|e| BraidError::Server(format!("send failed: {e}")))?;
            self.read_answer()
        };
        let (checked, server_events) = result?;
        let events = graft_forest(ring.drain(), server_events, self.server_offset_us);
        let report = ExplainReport::from_events(
            query,
            checked.solutions.len(),
            checked.completeness.clone(),
            events,
        );
        Ok(ExplainedSolutions {
            solutions: checked.solutions,
            completeness: checked.completeness,
            report,
        })
    }

    /// Fetch the server's live `STATS_REPORT` snapshot.
    ///
    /// # Errors
    /// [`BraidError::Server`] on transport failures.
    pub fn stats(&mut self) -> Result<StatsReport, BraidError> {
        write_frame(
            &mut self.stream,
            kind::STATS_REQUEST,
            &clientproto::encode_stats_request(),
        )
        .map_err(|e| BraidError::Server(format!("send failed: {e}")))?;
        let frame = self.read_one_frame()?;
        if frame.kind != kind::STATS_REPORT {
            return Err(BraidError::Server(format!(
                "expected STATS_REPORT, got kind {:#x}",
                frame.kind
            )));
        }
        clientproto::decode_stats_report(&frame.payload)
            .map_err(|e| BraidError::Server(format!("bad stats report: {e}")))
    }

    /// Drain the server's flight recorder: newline-separated JSON event
    /// lines (empty string when nothing happened since the last drain).
    ///
    /// # Errors
    /// [`BraidError::Server`] on transport failures.
    pub fn flight_recorder(&mut self) -> Result<String, BraidError> {
        write_frame(
            &mut self.stream,
            kind::ADMIN,
            &clientproto::encode_admin(admin_op::FLIGHT_RECORDER),
        )
        .map_err(|e| BraidError::Server(format!("send failed: {e}")))?;
        let frame = self.read_one_frame()?;
        if frame.kind != kind::ADMIN_REPORT {
            return Err(BraidError::Server(format!(
                "expected ADMIN_REPORT, got kind {:#x}",
                frame.kind
            )));
        }
        let (_op, text) = clientproto::decode_admin_report(&frame.payload)
            .map_err(|e| BraidError::Server(format!("bad admin report: {e}")))?;
        Ok(text)
    }

    fn read_one_frame(&mut self) -> Result<braid_net::Frame, BraidError> {
        read_frame(&mut self.stream, MAX_FRAME_BYTES)
            .map_err(|e| BraidError::Server(format!("receive failed: {e}")))?
            .ok_or_else(|| BraidError::Server("server closed mid-answer".into()))
    }

    /// Collect one answer stream: zero or one `TRACE`, any `BATCH`es,
    /// then `END` or `ERROR`.
    fn read_answer(&mut self) -> Result<(CheckedSolutions, Vec<TraceEvent>), BraidError> {
        let mut solutions: Vec<Tuple> = Vec::new();
        let mut server_events: Vec<TraceEvent> = Vec::new();
        loop {
            let frame = self.read_one_frame()?;
            match frame.kind {
                kind::TRACE => {
                    let (_query_id, events) = clientproto::decode_trace(&frame.payload)
                        .map_err(|e| BraidError::Server(format!("bad trace: {e}")))?;
                    server_events = events;
                }
                kind::BATCH => {
                    let tuples = decode_batch(&frame.payload)
                        .map_err(|e| BraidError::Server(format!("bad batch: {e}")))?;
                    solutions.extend(tuples);
                }
                kind::END => {
                    let (exact, missing) = clientproto::decode_answer_end(&frame.payload)
                        .map_err(|e| BraidError::Server(format!("bad end frame: {e}")))?;
                    let completeness = if exact {
                        Completeness::Exact
                    } else {
                        Completeness::Partial {
                            missing_subqueries: missing,
                        }
                    };
                    return Ok((
                        CheckedSolutions {
                            solutions,
                            completeness,
                        },
                        server_events,
                    ));
                }
                kind::ERROR => {
                    let msg = clientproto::decode_client_error(&frame.payload)
                        .map_err(|e| BraidError::Server(format!("bad error frame: {e}")))?;
                    return Err(BraidError::Server(msg));
                }
                other => {
                    return Err(BraidError::Server(format!(
                        "unexpected frame kind {other:#x}"
                    )))
                }
            }
        }
    }

    /// Send a polite `END` goodbye so the server finishes the
    /// connection's task promptly (dropping the client works too — the
    /// reader sees EOF).
    pub fn goodbye(mut self) {
        let _ = write_frame(&mut self.stream, kind::END, &[]);
    }
}

/// Merge server-side span records into the client's own trace so the
/// combined list is one well-formed span forest:
///
/// 1. ids and seqs are shifted past the client's to stay unique;
/// 2. server roots are re-parented under the client's request span;
/// 3. `start_us` offsets move onto the client timeline via the
///    connect-time clock offset, with a final nudge (and a request-span
///    stretch) absorbing the estimate's half-RTT error so child
///    intervals stay inside their parents;
/// 4. every server event is tagged `origin=server` (which is also what
///    `EXPLAIN` rendering keys its `server:` label prefix on).
fn graft_forest(
    client_events: Vec<TraceEvent>,
    server_events: Vec<TraceEvent>,
    server_offset_us: i64,
) -> Vec<TraceEvent> {
    let mut events = client_events;
    // The request span is the client's only Query-kind span; fall back
    // to "no graft root" (keep server roots as forest roots) if absent.
    let request = events
        .iter()
        .filter(|e| e.kind == TraceKind::Query && e.dur_us > 0)
        .max_by_key(|e| e.dur_us)
        .map(|e| (e.id, e.start_us, e.start_us + e.dur_us));
    if server_events.is_empty() {
        return events;
    }
    let id_base = events.iter().map(|e| e.id).max().unwrap_or(0);
    let seq_base = events.iter().map(|e| e.seq).max().unwrap_or(0);
    // One uniform shift onto the client timeline preserves the nesting
    // the server events already satisfy among themselves.
    let mapped_start = |e: &TraceEvent| e.start_us as i64 - server_offset_us;
    let min_start = server_events.iter().map(&mapped_start).min().unwrap_or(0);
    let max_end = server_events
        .iter()
        .map(|e| mapped_start(e) + e.dur_us as i64)
        .max()
        .unwrap_or(0);
    let nudge = match request {
        // Pull the server window back inside the request span if the
        // offset estimate overshot either edge.
        Some((_, rs, re)) if min_start < rs as i64 || min_start > re as i64 => {
            rs as i64 - min_start
        }
        None if min_start < 0 => -min_start,
        _ => 0,
    };
    if let Some((request_id, rs, _)) = request {
        // Stretch the request span to cover whatever remains outside it
        // (clock noise): growing our own synthetic span is safe, while
        // clamping individual server spans could break *their* nesting.
        let span_end = (max_end + nudge).max(rs as i64) as u64;
        if let Some(req) = events.iter_mut().find(|e| e.id == request_id) {
            req.dur_us = req.dur_us.max(span_end - rs);
        }
    }
    for mut e in server_events {
        e.id += id_base;
        e.seq += seq_base;
        e.parent = match e.parent {
            Some(p) => Some(p + id_base),
            None => request.map(|(id, _, _)| id),
        };
        e.start_us = (mapped_start(&e) + nudge).max(0) as u64;
        e.fields.push(("origin", "server".to_string()));
        events.push(e);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BraidConfig;

    fn system() -> BraidSystem {
        crate::system::tests::system(BraidConfig::default())
    }

    /// No `..`: a new field does not compile until it is listed here
    /// with what tells its values apart (and in DESIGN.md §3).
    #[test]
    fn every_field_is_accounted_for() {
        let BraidServerConfig {
            addr: _,    // a deployment setting
            workers: _, // the pinned benchmark's 2; `Lane::Procs`; `load --workers`
        } = BraidServerConfig::default();
    }

    #[test]
    fn client_round_trips_queries_over_tcp() {
        let expected = {
            let mut b = system();
            b.solve_all("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
                .unwrap()
        };
        let server = BraidServer::start(system(), BraidServerConfig::default()).unwrap();
        let mut client = BraidClient::connect(server.local_addr()).unwrap();
        let got = client
            .solve_checked("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        assert_eq!(got.solutions, expected);
        assert!(got.is_exact());
        // Second query on the same connection (session cache is warm).
        let again = client
            .solve_checked("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        assert_eq!(again.solutions, expected);
        client.goodbye();
        let stats = server.stats();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.queries, 2);
        server.shutdown();
    }

    #[test]
    fn parse_errors_travel_as_error_frames() {
        let server = BraidServer::start(system(), BraidServerConfig::default()).unwrap();
        let mut client = BraidClient::connect(server.local_addr()).unwrap();
        let err = client
            .solve_checked("?- gp(ann", Strategy::Interpreted)
            .unwrap_err();
        assert!(matches!(err, BraidError::Server(_)), "{err:?}");
        // The connection survives the error.
        let ok = client
            .solve_checked("?- gp(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        assert_eq!(ok.solutions.len(), 1);
        server.shutdown();
    }

    #[test]
    fn many_connections_share_the_pool() {
        let server = BraidServer::start(
            system(),
            BraidServerConfig {
                workers: 2,
                ..BraidServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let expected = {
            let mut b = system();
            b.solve_all("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
                .unwrap()
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let expected = expected.clone();
                    s.spawn(move || {
                        let mut c = BraidClient::connect(addr).unwrap();
                        let got = c
                            .solve_checked("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
                            .unwrap();
                        assert_eq!(got.solutions, expected);
                        assert!(got.is_exact());
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let stats = server.stats();
        assert_eq!(stats.connections_accepted, 8);
        assert_eq!(stats.queries, 8);
        assert_eq!(server.quiesce(Duration::from_secs(2)), Vec::<String>::new());
        server.shutdown();
    }

    /// Shutdown is deterministic: whatever clients are doing — idle,
    /// mid-answer, or connecting concurrently with the unblocking dummy
    /// dial — `stop` returns only after every connection task has
    /// finished and every reader thread has exited.
    #[test]
    fn shutdown_never_strands_connection_tasks() {
        for round in 0..25u32 {
            let mut server = BraidServer::start(
                system(),
                BraidServerConfig {
                    workers: 2,
                    ..BraidServerConfig::default()
                },
            )
            .unwrap();
            let addr = server.local_addr();
            let racers: Vec<_> = (0..4)
                .map(|i| {
                    std::thread::spawn(move || {
                        // Results are deliberately ignored: the server may
                        // cut the conversation at any point. The property
                        // under test is that it never panics or hangs.
                        if let Ok(mut c) = BraidClient::connect(addr) {
                            let _ = c.solve_checked("?- anc(ann, Y).", Strategy::Interpreted);
                            if i % 2 == 0 {
                                let _ = c.solve_checked("?- gp(ann, Y).", Strategy::FullyCompiled);
                            }
                        }
                    })
                })
                .collect();
            // Vary the interleaving: even rounds let conversations start,
            // odd rounds shut down while connects are still in flight.
            if round % 2 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            server.stop();
            let stats = server.stats();
            assert_eq!(stats.active, 0, "round {round}: stranded tasks: {stats:?}");
            let snap = server.pool_snapshot();
            assert_eq!(
                snap.spawned, snap.finished,
                "round {round}: pool not drained: {snap:?}"
            );
            assert_eq!(snap.parked, 0, "round {round}: parked tasks: {snap:?}");
            for r in racers {
                r.join().unwrap();
            }
        }
    }
}
