//! The client-side transport abstraction: how the CMS reaches the
//! remote DBMS.
//!
//! [`RemoteTransport`] is the seam. The default implementation is
//! [`RemoteDbms`] itself — the in-process engine, byte-identical to the
//! pre-transport pipeline. The alternative is [`TcpClientPool`], a
//! pooled TCP client speaking the `proto` protocol to a
//! [`RemoteTcpServer`](crate::tcp::RemoteTcpServer) (possibly through
//! `braid-net`'s fault proxy):
//!
//! - **connection pool** with an idle free-list and `open`/`in_use`
//!   gauges (the chaos tests assert these drain to zero);
//! - **health checks**: reused connections are PING'd before checkout,
//!   so a half-open socket is discarded instead of eating a request;
//! - **reconnect with backoff**: capped exponential delays between
//!   connect attempts;
//! - **per-request deadlines** via socket read/write timeouts;
//! - **resume-or-restart**: when a stream dies mid-flight (reset, torn
//!   frame, stall), the client reconnects and re-requests with
//!   `skip = tuples already received`. Evaluation is deterministic over
//!   an immutable catalog, so the replayed suffix is exactly what was
//!   lost — `Completeness` tagging stays sound. If resumption is
//!   exhausted, a typed transient [`RemoteError::Io`] surfaces and the
//!   CMS resilience layer takes over (retry, breaker, degraded answer).

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::thread;
use std::time::Duration;

use braid_net::{read_frame, write_frame, NetError, MAX_FRAME_BYTES};
use braid_relational::{Schema, Tuple};
use braid_trace::{SinkHandle, TraceKind, Tracer};

use crate::dml::SqlQuery;
use crate::error::{transient_io_kind, RemoteError};
use crate::proto::{self, kind, Request};
use crate::server::{RemoteDbms, RemoteStream};

/// One in-flight result stream, however it travels.
pub trait TransportStream: Send {
    /// The result schema.
    fn schema(&self) -> &Schema;
    /// Latency units charged by the server so far (final after the
    /// stream ends).
    fn units_charged(&self) -> u64;
    /// The next result tuple, or `None` at end-of-stream *or* fault —
    /// [`take_error`](TransportStream::take_error) disambiguates.
    fn next_tuple(&mut self) -> Option<Tuple>;
    /// The fault that cut the stream short, if any.
    fn take_error(&mut self) -> Option<RemoteError>;
}

/// Tuples per transfer buffer of every CMS fetch, each one pipelined
/// (§5.5: the interface "buffers the data returned by the DBMS prior to
/// passing buffer control to the Cache Manager"). E10 sweeps buffer size
/// and store-and-forward at the DBMS interface itself.
const TRANSFER_BUFFER_TUPLES: usize = 64;

/// How the CMS submits queries to the remote DBMS.
pub trait RemoteTransport: Send + Sync + fmt::Debug {
    /// Open a pipelined result stream for `query`.
    fn open_stream<'a>(
        &'a self,
        query: &SqlQuery,
    ) -> Result<Box<dyn TransportStream + 'a>, RemoteError>;

    /// Connection-pool counters, when this transport has a pool.
    fn pool_stats(&self) -> Option<PoolStats> {
        None
    }
}

impl TransportStream for RemoteStream {
    fn schema(&self) -> &Schema {
        RemoteStream::schema(self)
    }
    fn units_charged(&self) -> u64 {
        RemoteStream::units_charged(self)
    }
    fn next_tuple(&mut self) -> Option<Tuple> {
        RemoteStream::next_tuple(self)
    }
    fn take_error(&mut self) -> Option<RemoteError> {
        RemoteStream::take_error(self)
    }
}

/// The in-process default: straight through to the engine.
impl RemoteTransport for RemoteDbms {
    fn open_stream<'a>(
        &'a self,
        query: &SqlQuery,
    ) -> Result<Box<dyn TransportStream + 'a>, RemoteError> {
        Ok(Box::new(self.submit_stream(
            query,
            TRANSFER_BUFFER_TUPLES,
            true,
        )?))
    }
}

/// Which transport the CMS should construct (carried by `CmsConfig`,
/// hence `Clone + PartialEq` rather than a trait object).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TransportConfig {
    /// The in-process engine (the default; byte-identical behaviour).
    #[default]
    InProcess,
    /// A pooled TCP client against the given server address.
    Tcp(TcpClientConfig),
}

/// Per-request deadline, enforced as the socket read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Read timeout of a health-check PING.
const PING_TIMEOUT: Duration = Duration::from_millis(250);
/// Bound on a single blocked write.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// Mid-stream resume attempts before the fault surfaces.
const MAX_RESUMES: u32 = 3;

/// Tuning for [`TcpClientPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpClientConfig {
    /// Server (or fault-proxy) address, e.g. `127.0.0.1:41234`.
    pub addr: String,
    /// Idle connections kept for reuse.
    pub pool_size: usize,
    /// Connect attempts per checkout before giving up.
    pub connect_attempts: u32,
    /// Per-attempt connect timeout.
    pub connect_timeout_ms: u64,
    /// First reconnect backoff delay; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// PING reused connections before trusting them.
    pub health_check: bool,
}

impl TcpClientConfig {
    /// Sensible defaults against `addr`.
    pub fn to(addr: impl Into<String>) -> TcpClientConfig {
        TcpClientConfig {
            addr: addr.into(),
            pool_size: 4,
            connect_attempts: 4,
            connect_timeout_ms: 1_000,
            backoff_base_ms: 10,
            backoff_cap_ms: 160,
            health_check: true,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    connects: AtomicU64,
    backoffs: AtomicU64,
    health_checks: AtomicU64,
    health_failures: AtomicU64,
    requests: AtomicU64,
    resumes: AtomicU64,
    discards: AtomicU64,
    in_use: AtomicU64,
    open: AtomicU64,
}

/// Pool counters and gauges. After a clean run `in_use` is 0; after
/// [`TcpClientPool::drain_idle`], `open` is too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Sockets successfully connected.
    pub connects: u64,
    /// Backoff sleeps taken between connect attempts.
    pub backoffs: u64,
    /// Health-check PINGs sent on reused connections.
    pub health_checks: u64,
    /// Reused connections discarded by a failed health check.
    pub health_failures: u64,
    /// Streams opened.
    pub requests: u64,
    /// Mid-stream resumes (reconnect + `skip` re-request).
    pub resumes: u64,
    /// Connections dropped as unusable (torn stream, unread frames).
    pub discards: u64,
    /// Connections currently checked out (gauge).
    pub in_use: u64,
    /// Connections currently open, idle included (gauge).
    pub open: u64,
}

/// A pooled TCP client implementing [`RemoteTransport`].
pub struct TcpClientPool {
    cfg: TcpClientConfig,
    idle: Mutex<Vec<TcpStream>>,
    counters: Counters,
    trace: RwLock<Tracer>,
}

impl fmt::Debug for TcpClientPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpClientPool")
            .field("addr", &self.cfg.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl TcpClientPool {
    /// A pool over `cfg`; no connection is made until the first
    /// checkout.
    pub fn new(cfg: TcpClientConfig) -> TcpClientPool {
        TcpClientPool {
            cfg,
            idle: Mutex::new(Vec::new()),
            counters: Counters::default(),
            trace: RwLock::new(Tracer::disabled()),
        }
    }

    /// Install a trace sink; connects, requests, and resumes emit
    /// `net.*` events from here on.
    pub fn set_trace(&self, sink: SinkHandle) {
        *self.trace.write().expect("trace lock poisoned") = Tracer::new(sink.sink());
    }

    fn tracer(&self) -> Tracer {
        self.trace.read().expect("trace lock poisoned").clone()
    }

    /// Counters and gauges.
    pub fn stats(&self) -> PoolStats {
        let c = &self.counters;
        PoolStats {
            connects: c.connects.load(Ordering::Relaxed),
            backoffs: c.backoffs.load(Ordering::Relaxed),
            health_checks: c.health_checks.load(Ordering::Relaxed),
            health_failures: c.health_failures.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            resumes: c.resumes.load(Ordering::Relaxed),
            discards: c.discards.load(Ordering::Relaxed),
            in_use: c.in_use.load(Ordering::SeqCst),
            open: c.open.load(Ordering::SeqCst),
        }
    }

    /// Close every idle connection (e.g. at the end of a run, so the
    /// `open` gauge can be asserted back to zero).
    pub fn drain_idle(&self) {
        let drained: Vec<_> = self.idle.lock().expect("pool lock").drain(..).collect();
        self.counters
            .open
            .fetch_sub(drained.len() as u64, Ordering::SeqCst);
    }

    /// Get a healthy connection: reuse an idle one (health-checked) or
    /// dial fresh with capped exponential backoff.
    fn checkout(&self) -> Result<TcpStream, RemoteError> {
        while let Some(mut c) = {
            let mut idle = self.idle.lock().expect("pool lock");
            idle.pop()
        } {
            if self.cfg.health_check && !self.ping_ok(&mut c) {
                self.counters
                    .health_failures
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.open.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            self.counters.in_use.fetch_add(1, Ordering::SeqCst);
            return Ok(c);
        }
        self.connect_fresh()
    }

    fn ping_ok(&self, c: &mut TcpStream) -> bool {
        self.counters.health_checks.fetch_add(1, Ordering::Relaxed);
        let _ = c.set_read_timeout(Some(PING_TIMEOUT));
        let ok = write_frame(c, kind::PING, &[]).is_ok()
            && matches!(
                read_frame(c, MAX_FRAME_BYTES),
                Ok(Some(f)) if f.kind == kind::PONG
            );
        let _ = c.set_read_timeout(Some(READ_TIMEOUT));
        ok
    }

    fn connect_fresh(&self) -> Result<TcpStream, RemoteError> {
        let addr: SocketAddr = self.cfg.addr.parse().map_err(|e| RemoteError::Io {
            kind: io::ErrorKind::InvalidInput,
            detail: format!("bad server address `{}`: {e}", self.cfg.addr),
        })?;
        let attempts = self.cfg.connect_attempts.max(1);
        let mut delay = self.cfg.backoff_base_ms.max(1);
        let mut last = io::ErrorKind::ConnectionRefused;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.counters.backoffs.fetch_add(1, Ordering::Relaxed);
                thread::sleep(Duration::from_millis(delay));
                delay = (delay * 2).min(self.cfg.backoff_cap_ms.max(1));
            }
            match TcpStream::connect_timeout(
                &addr,
                Duration::from_millis(self.cfg.connect_timeout_ms.max(1)),
            ) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(READ_TIMEOUT));
                    let _ = s.set_write_timeout(Some(WRITE_TIMEOUT));
                    self.counters.connects.fetch_add(1, Ordering::Relaxed);
                    self.counters.open.fetch_add(1, Ordering::SeqCst);
                    self.counters.in_use.fetch_add(1, Ordering::SeqCst);
                    self.tracer().event(
                        TraceKind::NetConnect,
                        self.cfg.addr.clone(),
                        vec![("attempt", attempt.to_string())],
                    );
                    return Ok(s);
                }
                Err(e) => last = e.kind(),
            }
        }
        Err(RemoteError::Io {
            kind: last,
            detail: format!(
                "connect to {} failed after {attempts} attempts",
                self.cfg.addr
            ),
        })
    }

    /// Return a healthy connection (frame-aligned) to the free list.
    fn checkin(&self, c: TcpStream) {
        self.counters.in_use.fetch_sub(1, Ordering::SeqCst);
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.len() < self.cfg.pool_size {
            idle.push(c);
        } else {
            self.counters.open.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Drop a connection whose stream state is unknown.
    fn discard(&self, c: TcpStream) {
        self.counters.in_use.fetch_sub(1, Ordering::SeqCst);
        self.counters.open.fetch_sub(1, Ordering::SeqCst);
        self.counters.discards.fetch_add(1, Ordering::Relaxed);
        drop(c);
    }
}

impl RemoteTransport for TcpClientPool {
    fn open_stream<'a>(
        &'a self,
        query: &SqlQuery,
    ) -> Result<Box<dyn TransportStream + 'a>, RemoteError> {
        let mut conn = self.checkout()?;
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.tracer()
            .event(TraceKind::NetRequest, query.to_string(), vec![]);
        match start_request(&mut conn, query, 0) {
            Ok(Ok(schema)) => Ok(Box::new(TcpFetchStream {
                pool: self,
                conn: Some(conn),
                schema,
                query: query.clone(),
                pending: VecDeque::new(),
                received: 0,
                units: 0,
                done: false,
                fault: None,
                resumes_left: MAX_RESUMES,
            })),
            Ok(Err(server_err)) => {
                // Typed engine error; the connection is still aligned.
                self.checkin(conn);
                Err(server_err)
            }
            Err(net) => {
                self.discard(conn);
                Err(RemoteError::Io {
                    kind: net.io_kind(),
                    detail: format!("request to {} failed: {net}", self.cfg.addr),
                })
            }
        }
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.stats())
    }
}

/// Send one `REQUEST` and read up to the `SCHEMA` frame.
/// `Ok(Ok(schema))`: stream started; `Ok(Err(e))`: server answered with
/// a typed error; `Err(net)`: the transport itself failed.
fn start_request(
    conn: &mut TcpStream,
    query: &SqlQuery,
    skip: u64,
) -> Result<Result<Schema, RemoteError>, NetError> {
    let req = Request {
        query: query.clone(),
        skip,
        buffer: TRANSFER_BUFFER_TUPLES as u32,
        pipelined: true,
    };
    write_frame(conn, kind::REQUEST, &proto::encode_request(&req))?;
    match read_frame(conn, MAX_FRAME_BYTES)? {
        Some(f) if f.kind == kind::SCHEMA => Ok(Ok(proto::decode_schema(&f.payload)?)),
        Some(f) if f.kind == kind::ERROR => Ok(Err(proto::decode_error(&f.payload)?)),
        Some(f) => Err(NetError::corrupt(format!(
            "expected SCHEMA or ERROR, got frame kind {:#x}",
            f.kind
        ))),
        None => Err(NetError::Io(io::ErrorKind::UnexpectedEof)),
    }
}

/// A TCP-backed [`TransportStream`] with transparent resume.
pub struct TcpFetchStream<'a> {
    pool: &'a TcpClientPool,
    conn: Option<TcpStream>,
    schema: Schema,
    query: SqlQuery,
    pending: VecDeque<Tuple>,
    /// Tuples received off the wire across all attempts — the `skip`
    /// value a resume re-requests with.
    received: u64,
    units: u64,
    done: bool,
    fault: Option<RemoteError>,
    resumes_left: u32,
}

impl TcpFetchStream<'_> {
    /// Read one frame and fold it into the stream state.
    fn advance(&mut self) {
        let conn = match self.conn.as_mut() {
            Some(c) => c,
            None => {
                self.done = true;
                return;
            }
        };
        match read_frame(conn, MAX_FRAME_BYTES) {
            Ok(Some(f)) if f.kind == kind::BATCH => match proto::decode_batch(&f.payload) {
                Ok(batch) => {
                    self.received += batch.len() as u64;
                    self.pending.extend(batch);
                }
                Err(e) => self.transport_failure(e),
            },
            Ok(Some(f)) if f.kind == kind::END => match proto::decode_end(&f.payload) {
                Ok((units, _total)) => {
                    self.units = units;
                    self.done = true;
                    let c = self.conn.take().expect("conn present");
                    self.pool.checkin(c);
                }
                Err(e) => self.transport_failure(e),
            },
            Ok(Some(f)) if f.kind == kind::ERROR => match proto::decode_error(&f.payload) {
                Ok(err) => {
                    // A server-reported fault is semantic, not a wire
                    // problem: no resume, surface it to resilience.
                    self.fault = Some(err);
                    self.done = true;
                    let c = self.conn.take().expect("conn present");
                    self.pool.checkin(c);
                }
                Err(e) => self.transport_failure(e),
            },
            Ok(Some(f)) => self.transport_failure(NetError::corrupt(format!(
                "unexpected frame kind {:#x} mid-stream",
                f.kind
            ))),
            Ok(None) => self.transport_failure(NetError::Io(io::ErrorKind::UnexpectedEof)),
            Err(e) => self.transport_failure(e),
        }
    }

    /// The wire died (or lied). Discard the connection; if the failure
    /// is transient and resume budget remains, reconnect and re-request
    /// the unseen suffix; otherwise record a typed fault.
    fn transport_failure(&mut self, e: NetError) {
        if let Some(c) = self.conn.take() {
            self.pool.discard(c);
        }
        let kind_ = e.io_kind();
        if transient_io_kind(kind_) {
            while self.resumes_left > 0 {
                self.resumes_left -= 1;
                self.pool.counters.resumes.fetch_add(1, Ordering::Relaxed);
                self.pool.tracer().event(
                    TraceKind::NetResume,
                    self.query.to_string(),
                    vec![("skip", self.received.to_string())],
                );
                let mut c = match self.pool.checkout() {
                    Ok(c) => c,
                    Err(_) => continue,
                };
                match start_request(&mut c, &self.query, self.received) {
                    Ok(Ok(schema)) if schema == self.schema => {
                        self.conn = Some(c);
                        return;
                    }
                    Ok(Ok(_)) => {
                        // The replay answered with a different shape —
                        // treat as corruption, not retryable.
                        self.pool.discard(c);
                        break;
                    }
                    Ok(Err(server_err)) => {
                        self.pool.checkin(c);
                        self.fault = Some(server_err);
                        self.done = true;
                        return;
                    }
                    Err(_) => {
                        self.pool.discard(c);
                        continue;
                    }
                }
            }
        }
        self.fault = Some(RemoteError::Io {
            kind: kind_,
            detail: format!("stream interrupted after {} tuples: {e}", self.received),
        });
        self.done = true;
    }
}

impl TransportStream for TcpFetchStream<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn units_charged(&self) -> u64 {
        self.units
    }

    fn next_tuple(&mut self) -> Option<Tuple> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Some(t);
            }
            if self.done {
                return None;
            }
            self.advance();
        }
    }

    fn take_error(&mut self) -> Option<RemoteError> {
        self.fault.take()
    }
}

impl Drop for TcpFetchStream<'_> {
    fn drop(&mut self) {
        // Abandoned mid-stream: unread frames make the connection
        // unreusable.
        if let Some(c) = self.conn.take() {
            self.pool.discard(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::dml::SelectBlock;
    use crate::tcp::{RemoteTcpServer, TcpServerConfig};
    use braid_net::{FaultProxy, ProxyFault, ProxyPlan};
    use braid_relational::{Relation, Tuple, Value};
    use braid_trace::RingSink;
    use std::sync::Arc;

    fn catalog(rows: i64) -> Catalog {
        let mut r = Relation::new(braid_relational::Schema::of_strs("kv", &["k", "v"]));
        for i in 0..rows {
            r.insert(Tuple::new(vec![Value::Int(i), Value::str(format!("v{i}"))]))
                .unwrap();
        }
        let mut c = Catalog::new();
        c.install(r);
        c
    }

    fn server(rows: i64) -> RemoteTcpServer {
        RemoteTcpServer::serve(
            RemoteDbms::with_defaults(catalog(rows)),
            TcpServerConfig::default(),
        )
        .unwrap()
    }

    fn drain(pool: &TcpClientPool) -> Result<Vec<Tuple>, RemoteError> {
        let q = SqlQuery::single(SelectBlock::scan("kv"));
        let mut s = pool.open_stream(&q)?;
        let mut out = Vec::new();
        while let Some(t) = s.next_tuple() {
            out.push(t);
        }
        match s.take_error() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    #[test]
    fn fetches_over_loopback_and_reuses_the_connection() {
        let srv = server(12);
        let pool = TcpClientPool::new(TcpClientConfig::to(srv.addr().to_string()));
        let a = drain(&pool).unwrap();
        let b = drain(&pool).unwrap();
        assert_eq!(a.len(), 12);
        assert_eq!(a, b);
        let st = pool.stats();
        assert_eq!(st.requests, 2);
        assert_eq!(st.connects, 1, "second fetch reuses the pooled conn");
        assert_eq!(st.in_use, 0, "gauge drains after both fetches");
        pool.drain_idle();
        assert_eq!(pool.stats().open, 0);
    }

    #[test]
    fn in_process_transport_matches_tcp() {
        let srv = server(9);
        let pool = TcpClientPool::new(TcpClientConfig::to(srv.addr().to_string()));
        let over_tcp = drain(&pool).unwrap();
        let local = RemoteDbms::with_defaults(catalog(9));
        let q = SqlQuery::single(SelectBlock::scan("kv"));
        let mut s = RemoteTransport::open_stream(&local, &q).unwrap();
        let mut in_proc = Vec::new();
        while let Some(t) = s.next_tuple() {
            in_proc.push(t);
        }
        assert_eq!(over_tcp, in_proc);
    }

    #[test]
    fn server_errors_stay_typed_across_the_wire() {
        let srv = server(3);
        let pool = TcpClientPool::new(TcpClientConfig::to(srv.addr().to_string()));
        let q = SqlQuery::single(SelectBlock::scan("missing"));
        let err = match pool.open_stream(&q) {
            Err(e) => e,
            Ok(_) => panic!("expected a typed server error"),
        };
        assert_eq!(err, RemoteError::UnknownRelation("missing".into()));
        assert_eq!(pool.stats().in_use, 0);
    }

    #[test]
    fn torn_stream_resumes_and_completes_exactly() {
        let srv = server(500);
        // Connection 0 (and its resume, connection 1) get torn a few KB
        // in, past several full BATCH frames; connection 2 is clean.
        let plan = ProxyPlan::seeded(5)
            .with_scheduled(0, ProxyFault::Truncate { after_bytes: 3_000 })
            .with_scheduled(1, ProxyFault::Truncate { after_bytes: 2_000 });
        let mut proxy = FaultProxy::start(srv.addr(), plan).unwrap();
        let mut cfg = TcpClientConfig::to(proxy.addr().to_string());
        cfg.health_check = false; // keep the connection clock simple
        let pool = TcpClientPool::new(cfg);
        let ring = Arc::new(RingSink::new(64));
        pool.set_trace(SinkHandle::new(ring.clone()));

        let got = drain(&pool).unwrap();
        assert_eq!(got.len(), 500, "resume re-delivers exactly the suffix");
        let truth: Vec<Tuple> = (0..500)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::str(format!("v{i}"))]))
            .collect();
        assert_eq!(got, truth);
        let st = pool.stats();
        assert!(st.resumes >= 1, "the tear actually triggered a resume");
        assert_eq!(st.in_use, 0);
        assert!(proxy.stats().truncated >= 1);
        let skips: Vec<u64> = ring
            .snapshot()
            .iter()
            .filter(|e| e.kind == TraceKind::NetResume)
            .map(|e| e.field("skip").unwrap().parse().unwrap())
            .collect();
        assert!(
            skips.iter().any(|&s| s > 0),
            "a resume re-requested a suffix, not the whole result: {skips:?}"
        );
        proxy.shutdown();
    }

    #[test]
    fn dead_server_surfaces_transient_io_after_backoff() {
        // Reserve an address with no listener behind it.
        let (listener, addr) = braid_net::bind_ephemeral().unwrap();
        drop(listener);
        let mut cfg = TcpClientConfig::to(addr.to_string());
        cfg.connect_attempts = 2;
        cfg.backoff_base_ms = 1;
        let pool = TcpClientPool::new(cfg);
        let q = SqlQuery::single(SelectBlock::scan("kv"));
        let err = match pool.open_stream(&q) {
            Err(e) => e,
            Ok(_) => panic!("expected a connect failure"),
        };
        match &err {
            RemoteError::Io { kind, .. } => {
                assert!(
                    transient_io_kind(*kind),
                    "refused connect is transient: {kind:?}"
                )
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(err.is_transient());
        assert_eq!(pool.stats().backoffs, 1);
        assert_eq!(pool.stats().in_use, 0);
    }

    /// No `..`: a new field does not compile until it is listed here
    /// with what tells its values apart (and in DESIGN.md §3).
    #[test]
    fn every_field_is_accounted_for() {
        let TcpClientConfig {
            addr: _,               // a deployment setting
            pool_size: _,          // 0 in `net_chaos` and E16; `remote.pool_reuse_ratio`
            connect_attempts: _,   // `dead_server_surfaces_transient_io_after_backoff`
            connect_timeout_ms: _, // shortened by `net_chaos`, E16, `Lane::Socket`
            backoff_base_ms: _,    // the dead-server test's backoffs; E16
            backoff_cap_ms: _,     // `net_chaos`, E16, `Lane::Socket`
            health_check: _,       // off in `torn_stream_resumes_and_completes_exactly`
        } = TcpClientConfig::to("127.0.0.1:0");
    }

    #[test]
    fn early_drop_discards_the_connection_not_the_gauge() {
        let srv = server(40);
        let pool = TcpClientPool::new(TcpClientConfig::to(srv.addr().to_string()));
        {
            let q = SqlQuery::single(SelectBlock::scan("kv"));
            let mut s = pool.open_stream(&q).unwrap();
            let _ = s.next_tuple();
            // Dropped mid-stream here.
        }
        let st = pool.stats();
        assert_eq!(st.in_use, 0, "early drop releases the checkout");
        assert_eq!(st.discards, 1, "the half-read conn is not reused");
    }
}
