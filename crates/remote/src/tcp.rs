//! `RemoteTcpServer`: the remote DBMS engine behind a real TCP listener.
//!
//! Wraps a [`RemoteDbms`] in a thread-per-connection accept loop
//! speaking the `proto` protocol over `braid-net` frames. One
//! connection serves many sequential requests; each request is answered
//! with `SCHEMA`, `BATCH`…, then `END` or `ERROR` (including
//! mid-stream engine faults, which arrive as a trailing `ERROR` frame
//! so the client can distinguish a server-reported fault from a torn
//! connection).
//!
//! Listeners bind an ephemeral loopback port (`braid-net`'s
//! `bind_ephemeral`); the bound address is read back via
//! [`addr`](RemoteTcpServer::addr) and handed to clients — tests never
//! race on fixed ports. A max-connection limit sheds load at accept
//! time, and per-connection stats feed the server gauge the chaos tests
//! assert drains to zero.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use braid_net::{
    bind_ephemeral, read_frame, write_frame, Frame, Listener, NetError, MAX_FRAME_BYTES,
};

use crate::proto::{self, kind};
use crate::server::RemoteDbms;

/// How often a connection blocked on a request read wakes up to
/// observe shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Bound on a single blocked write (a stalled client cannot pin a
/// handler thread forever).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpServerConfig {
    /// Connections beyond this are closed at accept time.
    pub max_connections: usize,
}

impl Default for TcpServerConfig {
    fn default() -> TcpServerConfig {
        TcpServerConfig {
            max_connections: 64,
        }
    }
}

#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    rejected: AtomicU64,
    active: AtomicU64,
    peak_active: AtomicU64,
    requests: AtomicU64,
    pings: AtomicU64,
    tuples_sent: AtomicU64,
    errors_sent: AtomicU64,
    decode_errors: AtomicU64,
}

/// Per-connection server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpServerStats {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections shed by the max-connection limit.
    pub rejected: u64,
    /// Connections currently open (gauge; 0 after a clean drain).
    pub active: u64,
    /// High-water mark of `active`.
    pub peak_active: u64,
    /// `REQUEST` frames served.
    pub requests: u64,
    /// `PING` frames answered.
    pub pings: u64,
    /// Result tuples shipped (post-`skip`).
    pub tuples_sent: u64,
    /// `ERROR` frames sent (engine faults surfaced to clients).
    pub errors_sent: u64,
    /// Requests that failed to decode (corrupt frames).
    pub decode_errors: u64,
}

/// A running TCP front end over one [`RemoteDbms`].
#[derive(Debug)]
pub struct RemoteTcpServer {
    listener: Listener,
    stats: Arc<Stats>,
}

impl RemoteTcpServer {
    /// Bind an ephemeral loopback port and start serving `dbms`.
    pub fn serve(dbms: RemoteDbms, config: TcpServerConfig) -> io::Result<RemoteTcpServer> {
        let (listener, _) = bind_ephemeral()?;
        let stats = Arc::new(Stats::default());
        let listener = {
            let stats = Arc::clone(&stats);
            Listener::start(listener, "braid-remote-tcp", move |stream, stop| {
                if stats.active.load(Ordering::SeqCst) >= config.max_connections as u64 {
                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown(Shutdown::Both);
                    return None;
                }
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                let active = stats.active.fetch_add(1, Ordering::SeqCst) + 1;
                stats.peak_active.fetch_max(active, Ordering::SeqCst);
                let dbms = dbms.clone();
                let (stop, stats) = (Arc::clone(stop), Arc::clone(&stats));
                Some(move || {
                    serve_connection(stream, &dbms, &stop, &stats);
                    stats.active.fetch_sub(1, Ordering::SeqCst);
                })
            })?
        };
        Ok(RemoteTcpServer { listener, stats })
    }

    /// The bound address clients (or a fault proxy) connect to.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Counters so far.
    pub fn stats(&self) -> TcpServerStats {
        let s = &self.stats;
        TcpServerStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            active: s.active.load(Ordering::SeqCst),
            peak_active: s.peak_active.load(Ordering::SeqCst),
            requests: s.requests.load(Ordering::Relaxed),
            pings: s.pings.load(Ordering::Relaxed),
            tuples_sent: s.tuples_sent.load(Ordering::Relaxed),
            errors_sent: s.errors_sent.load(Ordering::Relaxed),
            decode_errors: s.decode_errors.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, cut every open connection, and join everything.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

/// Serve one connection: a loop of PING/REQUEST frames until the peer
/// closes, a protocol error, or shutdown.
fn serve_connection(mut stream: TcpStream, dbms: &RemoteDbms, stop: &AtomicBool, stats: &Stats) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    loop {
        match read_frame(&mut stream, MAX_FRAME_BYTES) {
            Ok(None) => break, // peer closed cleanly
            Ok(Some(frame)) => {
                if handle_frame(&mut stream, dbms, frame, stats).is_err() {
                    break;
                }
            }
            // Idle poll tick at a frame boundary: check stop, keep going.
            Err(NetError::Io(io::ErrorKind::WouldBlock)) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Torn frame, mid-frame stall, or socket error: drop the
            // connection — framing alignment is gone.
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_frame(
    stream: &mut TcpStream,
    dbms: &RemoteDbms,
    frame: Frame,
    stats: &Stats,
) -> Result<(), NetError> {
    match frame.kind {
        kind::PING => {
            stats.pings.fetch_add(1, Ordering::Relaxed);
            write_frame(stream, kind::PONG, &[])
        }
        kind::REQUEST => {
            let req = match proto::decode_request(&frame.payload) {
                Ok(r) => r,
                Err(e) => {
                    // The frame arrived intact but its payload is
                    // garbage: report and keep the connection (framing
                    // is still aligned).
                    stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    stats.errors_sent.fetch_add(1, Ordering::Relaxed);
                    let err = crate::RemoteError::Malformed(format!("bad request payload: {e}"));
                    return write_frame(stream, kind::ERROR, &proto::encode_error(&err));
                }
            };
            stats.requests.fetch_add(1, Ordering::Relaxed);
            serve_request(stream, dbms, req, stats)
        }
        other => {
            stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            stats.errors_sent.fetch_add(1, Ordering::Relaxed);
            let err = crate::RemoteError::Malformed(format!("unexpected frame kind {other:#x}"));
            write_frame(stream, kind::ERROR, &proto::encode_error(&err))
        }
    }
}

/// Answer one `REQUEST`: submit to the engine, stream the result.
fn serve_request(
    stream: &mut TcpStream,
    dbms: &RemoteDbms,
    req: proto::Request,
    stats: &Stats,
) -> Result<(), NetError> {
    let batch_size = (req.buffer as usize).max(1);
    let mut result = match dbms.submit_stream(&req.query, batch_size, req.pipelined) {
        Ok(s) => s,
        Err(e) => {
            stats.errors_sent.fetch_add(1, Ordering::Relaxed);
            return write_frame(stream, kind::ERROR, &proto::encode_error(&e));
        }
    };
    write_frame(stream, kind::SCHEMA, &proto::encode_schema(result.schema()))?;

    let mut skipped = 0u64;
    let mut sent = 0u64;
    let mut batch: Vec<braid_relational::Tuple> = Vec::with_capacity(batch_size);
    while let Some(t) = result.next_tuple() {
        // Resume support: the client already holds the first `skip`
        // tuples from an interrupted attempt; deterministic evaluation
        // makes the prefix identical, so replay only the suffix.
        if skipped < req.skip {
            skipped += 1;
            continue;
        }
        batch.push(t);
        if batch.len() >= batch_size {
            write_frame(stream, kind::BATCH, &proto::encode_batch(&batch))?;
            sent += batch.len() as u64;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        write_frame(stream, kind::BATCH, &proto::encode_batch(&batch))?;
        sent += batch.len() as u64;
        batch.clear();
    }
    stats.tuples_sent.fetch_add(sent, Ordering::Relaxed);

    if let Some(fault) = result.take_error() {
        // A server-side fault cut the stream: tell the client with a
        // typed trailing ERROR frame (framing stays aligned).
        stats.errors_sent.fetch_add(1, Ordering::Relaxed);
        write_frame(stream, kind::ERROR, &proto::encode_error(&fault))
    } else {
        write_frame(
            stream,
            kind::END,
            &proto::encode_end(result.units_charged(), req.skip + sent),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::dml::{SelectBlock, SqlQuery};
    use crate::proto::Request;
    use braid_relational::{Relation, Schema, Tuple, Value};

    fn catalog() -> Catalog {
        let mut r = Relation::new(Schema::of_strs("kv", &["k", "v"]));
        for i in 0..10i64 {
            r.insert(Tuple::new(vec![Value::Int(i), Value::str(format!("v{i}"))]))
                .unwrap();
        }
        let mut c = Catalog::new();
        c.install(r);
        c
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s
    }

    fn fetch(stream: &mut TcpStream, skip: u64) -> (Schema, Vec<Tuple>, u64, u64) {
        let req = Request {
            query: SqlQuery::single(SelectBlock::scan("kv")),
            skip,
            buffer: 3,
            pipelined: false,
        };
        write_frame(stream, kind::REQUEST, &proto::encode_request(&req)).unwrap();
        let schema = match read_frame(stream, braid_net::MAX_FRAME_BYTES).unwrap() {
            Some(f) if f.kind == kind::SCHEMA => proto::decode_schema(&f.payload).unwrap(),
            other => panic!("expected SCHEMA, got {other:?}"),
        };
        let mut tuples = Vec::new();
        loop {
            let f = read_frame(stream, braid_net::MAX_FRAME_BYTES)
                .unwrap()
                .expect("stream ends with END");
            match f.kind {
                kind::BATCH => tuples.extend(proto::decode_batch(&f.payload).unwrap()),
                kind::END => {
                    let (units, total) = proto::decode_end(&f.payload).unwrap();
                    return (schema, tuples, units, total);
                }
                other => panic!("unexpected frame {other:#x}"),
            }
        }
    }

    #[test]
    fn serves_a_stream_over_loopback() {
        let mut server = RemoteTcpServer::serve(
            RemoteDbms::with_defaults(catalog()),
            TcpServerConfig::default(),
        )
        .unwrap();
        let mut c = connect(server.addr());
        let (schema, tuples, units, total) = fetch(&mut c, 0);
        assert_eq!(schema.arity(), 2);
        assert_eq!(tuples.len(), 10);
        assert_eq!(total, 10);
        assert!(units > 0);
        drop(c);
        server.shutdown();
        let st = server.stats();
        assert_eq!(st.requests, 1);
        assert_eq!(st.tuples_sent, 10);
        assert_eq!(st.active, 0, "connection gauge drains");
    }

    #[test]
    fn skip_resumes_the_suffix_only() {
        let mut server = RemoteTcpServer::serve(
            RemoteDbms::with_defaults(catalog()),
            TcpServerConfig::default(),
        )
        .unwrap();
        let mut c = connect(server.addr());
        let (_, all, _, _) = fetch(&mut c, 0);
        let (_, suffix, _, total) = fetch(&mut c, 4);
        assert_eq!(suffix.len(), 6);
        assert_eq!(&all[4..], &suffix[..], "same order, same tuples");
        assert_eq!(total, 10, "total counts skip + sent");
        server.shutdown();
    }

    #[test]
    fn ping_pong_health_check() {
        let mut server = RemoteTcpServer::serve(
            RemoteDbms::with_defaults(catalog()),
            TcpServerConfig::default(),
        )
        .unwrap();
        let mut c = connect(server.addr());
        write_frame(&mut c, kind::PING, &[]).unwrap();
        let f = read_frame(&mut c, 64).unwrap().unwrap();
        assert_eq!(f.kind, kind::PONG);
        server.shutdown();
        assert_eq!(server.stats().pings, 1);
    }

    #[test]
    fn engine_errors_arrive_as_typed_error_frames() {
        let mut server = RemoteTcpServer::serve(
            RemoteDbms::with_defaults(catalog()),
            TcpServerConfig::default(),
        )
        .unwrap();
        let mut c = connect(server.addr());
        let req = Request {
            query: SqlQuery::single(SelectBlock::scan("nope")),
            skip: 0,
            buffer: 8,
            pipelined: false,
        };
        write_frame(&mut c, kind::REQUEST, &proto::encode_request(&req)).unwrap();
        let f = read_frame(&mut c, braid_net::MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(f.kind, kind::ERROR);
        let e = proto::decode_error(&f.payload).unwrap();
        assert_eq!(e, crate::RemoteError::UnknownRelation("nope".into()));
        // The connection survives a per-request error.
        let (_, tuples, _, _) = fetch(&mut c, 0);
        assert_eq!(tuples.len(), 10);
        server.shutdown();
    }

    #[test]
    fn corrupt_request_payload_gets_malformed_error() {
        let mut server = RemoteTcpServer::serve(
            RemoteDbms::with_defaults(catalog()),
            TcpServerConfig::default(),
        )
        .unwrap();
        let mut c = connect(server.addr());
        write_frame(&mut c, kind::REQUEST, &[0xFF, 0x01, 0x02]).unwrap();
        let f = read_frame(&mut c, braid_net::MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(f.kind, kind::ERROR);
        assert!(matches!(
            proto::decode_error(&f.payload).unwrap(),
            crate::RemoteError::Malformed(_)
        ));
        server.shutdown();
        assert_eq!(server.stats().decode_errors, 1);
    }

    /// No `..`: a new field does not compile until it is listed here
    /// with what tells its values apart (and in DESIGN.md §3).
    #[test]
    fn every_field_is_accounted_for() {
        let TcpServerConfig {
            max_connections: _, // `connection_limit_sheds_load_at_accept`
        } = TcpServerConfig::default();
    }

    #[test]
    fn connection_limit_sheds_load_at_accept() {
        let cfg = TcpServerConfig { max_connections: 1 };
        let mut server = RemoteTcpServer::serve(RemoteDbms::with_defaults(catalog()), cfg).unwrap();
        let _keep = connect(server.addr());
        // Give the accept loop a beat to register the first connection.
        std::thread::sleep(Duration::from_millis(50));
        let mut second = connect(server.addr());
        // The shed connection closes without a frame.
        let got = read_frame(&mut second, 64);
        assert!(matches!(got, Ok(None) | Err(_)), "{got:?}");
        server.shutdown();
        assert_eq!(server.stats().rejected, 1);
    }
}
