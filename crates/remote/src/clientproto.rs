//! Wire codec for the *braid server* protocol — the front door through
//! which remote clients submit AI queries (CAQL text plus a strategy
//! tag) to a braid-level server, rather than SQL to the DBMS.
//!
//! Message framing is `braid-net`'s `[len][kind][payload]`, sharing the
//! transport layer (and the [`proto`](crate::proto) tuple/batch payload
//! encodings) with the DBMS protocol but using a disjoint kind range so
//! the two can never be confused on a misrouted socket:
//!
//! | kind | frame   | payload                                            |
//! |------|---------|----------------------------------------------------|
//! | 0x20 | `QUERY` | strategy `u8`, query text (CAQL, e.g. `?- gp(ann, Y).`) |
//! | 0x21 | `BATCH` | tuple count `u32`, then tuples ([`proto`] encoding) |
//! | 0x22 | `END`   | exact `u8`, missing-subquery count `u32`, strings  |
//! | 0x23 | `ERROR` | message string                                     |
//!
//! One answer is zero or more `BATCH`es then exactly one of `END`
//! (success, with the completeness verdict) or `ERROR`. All decoding is
//! bounds-checked through `WireReader` and ends with `finish()`, so
//! truncated or bit-flipped payloads yield typed `NetError`s — never
//! panics.
//!
//! Two tags (0x24–0x25) are reserved for the **worker pipe protocol**
//! of the dev-tools client driver (`braid_sim::fork`), which forks
//! worker *processes* and talks to each over its stdin/stdout pipes
//! with the same length-prefixed framing. Their payloads are JSON text
//! whose codec lives with the driver; the tags are registered here so
//! no protocol family can collide with them:
//!
//! | kind | frame           | payload                                 |
//! |------|-----------------|-----------------------------------------|
//! | 0x24 | `WORKER_SPEC`   | spec JSON, driver → worker stdin        |
//! | 0x25 | `WORKER_REPORT` | report JSON, worker stdout → driver     |
//!
//! A third range (0x28–0x2E) is the **wire observability protocol**:
//! clock-offset exchange at connect, server-side span shipping per
//! traced query, and the live STATS/ADMIN side channel the `top`
//! dashboard polls (see [`FRAME_KINDS`] for the full registry):
//!
//! | kind | frame           | payload                                       |
//! |------|-----------------|-----------------------------------------------|
//! | 0x28 | `CLOCK_SYNC`    | client monotonic now (µs), client → server    |
//! | 0x29 | `CLOCK_INFO`    | echoed client now + server now (µs)           |
//! | 0x2A | `TRACE`         | query id, span records of one traced query    |
//! | 0x2B | `STATS_REQUEST` | empty                                          |
//! | 0x2C | `STATS_REPORT`  | [`StatsReport`] fixed layout + named counters |
//! | 0x2D | `ADMIN`         | op `u8` (1 = drain flight recorder)           |
//! | 0x2E | `ADMIN_REPORT`  | op `u8`, JSON-lines text                      |

use braid_net::{NetError, WireReader, WireWriter};
use braid_trace::{intern_field_key, TraceEvent, TraceKind};

/// Frame kind tags (disjoint from [`proto::kind`](crate::proto::kind)).
pub mod kind {
    pub const QUERY: u8 = 0x20;
    pub const BATCH: u8 = 0x21;
    pub const END: u8 = 0x22;
    pub const ERROR: u8 = 0x23;
    pub const WORKER_SPEC: u8 = 0x24;
    pub const WORKER_REPORT: u8 = 0x25;
    pub const CLOCK_SYNC: u8 = 0x28;
    pub const CLOCK_INFO: u8 = 0x29;
    pub const TRACE: u8 = 0x2A;
    pub const STATS_REQUEST: u8 = 0x2B;
    pub const STATS_REPORT: u8 = 0x2C;
    pub const ADMIN: u8 = 0x2D;
    pub const ADMIN_REPORT: u8 = 0x2E;
}

/// `ADMIN` frame operations.
pub mod admin_op {
    /// Drain the server's bounded flight-recorder ring; the reply is an
    /// `ADMIN_REPORT` carrying the drained events as JSON lines.
    pub const FLIGHT_RECORDER: u8 = 1;
}

/// Every frame kind either protocol in this crate puts on a wire or a
/// pipe: `(tag, name, direction/payload summary)`. The registry exists
/// so a test can assert tags never collide across protocol families —
/// a misrouted socket must always decode to a *typed* error, not a
/// plausible frame of the wrong protocol.
pub const FRAME_KINDS: &[(u8, &str, &str)] = &[
    // DBMS protocol (crate::proto) — client ↔ remote DBMS server.
    (0x01, "REQUEST", "dbms: SQL request, client → server"),
    (0x02, "PING", "dbms: health probe, client → server"),
    (0x03, "PONG", "dbms: health reply, server → client"),
    (0x10, "SCHEMA", "dbms: result schema, server → client"),
    (0x11, "BATCH", "dbms: tuple batch, server → client"),
    (0x12, "END", "dbms: stream end, server → client"),
    (0x13, "ERROR", "dbms: typed error, server → client"),
    // Braid server protocol (CAQL front door).
    (
        0x20,
        "QUERY",
        "braid: CAQL query + strategy + trace context",
    ),
    (0x21, "BATCH", "braid: answer tuple batch, server → client"),
    (0x22, "END", "braid: completeness verdict, server → client"),
    (0x23, "ERROR", "braid: typed error, server → client"),
    // Worker pipe protocol (client driver ↔ forked worker).
    (
        0x24,
        "WORKER_SPEC",
        "worker: spec JSON, driver → worker stdin",
    ),
    (
        0x25,
        "WORKER_REPORT",
        "worker: report JSON, worker stdout → driver",
    ),
    // Wire observability protocol (braid server side channel).
    (
        0x28,
        "CLOCK_SYNC",
        "obs: client monotonic now, client → server",
    ),
    (0x29, "CLOCK_INFO", "obs: echoed client now + server now"),
    (0x2A, "TRACE", "obs: span records of one traced query"),
    (0x2B, "STATS_REQUEST", "obs: stats poll, client → server"),
    (
        0x2C,
        "STATS_REPORT",
        "obs: StatsReport snapshot, server → client",
    ),
    (0x2D, "ADMIN", "obs: admin op, client → server"),
    (0x2E, "ADMIN_REPORT", "obs: admin reply (JSON lines)"),
];

/// Solve-strategy tags carried in a `QUERY` frame. This crate cannot
/// name `braid_ie::Strategy` (the dependency points the other way), so
/// the mapping lives at the server layer; the codec just checks range.
pub mod strategy {
    pub const INTERPRETED: u8 = 0;
    pub const CONJUNCTION_COMPILED: u8 = 1;
    pub const FULLY_COMPILED: u8 = 2;
}

/// One AI query as it travels client → braid server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientQuery {
    /// Strategy tag (see [`strategy`]).
    pub strategy: u8,
    /// Trace context: when set, the server attaches a span ring to this
    /// query's solve and ships the records back in a `TRACE` frame
    /// (tagged with `query_id`) before the `END`.
    pub trace: bool,
    /// Client-chosen correlation id echoed in the `TRACE` frame, so a
    /// pipelined connection can match span records to requests.
    pub query_id: u64,
    /// The CAQL query text, e.g. `?- anc(ann, Y).`.
    pub query: String,
}

impl ClientQuery {
    /// An untraced query — the common case for plain solves.
    pub fn plain(strategy: u8, query: impl Into<String>) -> ClientQuery {
        ClientQuery {
            strategy,
            trace: false,
            query_id: 0,
            query: query.into(),
        }
    }
}

/// Flag bits of the `QUERY` frame's flags byte.
const QUERY_FLAG_TRACE: u8 = 0b0000_0001;

/// Encode a `QUERY` payload.
pub fn encode_query(q: &ClientQuery) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(q.strategy);
    w.put_u8(if q.trace { QUERY_FLAG_TRACE } else { 0 });
    w.put_u64(q.query_id);
    w.put_str(&q.query);
    w.into_bytes()
}

/// Decode a `QUERY` payload.
pub fn decode_query(buf: &[u8]) -> Result<ClientQuery, NetError> {
    let mut r = WireReader::new(buf);
    let strat = r.u8()?;
    if strat > strategy::FULLY_COMPILED {
        return Err(NetError::corrupt(format!("bad strategy tag {strat}")));
    }
    let flags = r.u8()?;
    if flags & !QUERY_FLAG_TRACE != 0 {
        return Err(NetError::corrupt(format!("unknown query flags {flags:#x}")));
    }
    let query_id = r.u64()?;
    let query = r.str()?.to_string();
    r.finish()?;
    Ok(ClientQuery {
        strategy: strat,
        trace: flags & QUERY_FLAG_TRACE != 0,
        query_id,
        query,
    })
}

/// Encode an `END` payload: the completeness verdict for the answer the
/// preceding `BATCH`es carried.
pub fn encode_answer_end(exact: bool, missing: &[String]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(exact as u8);
    w.put_u32(missing.len() as u32);
    for m in missing {
        w.put_str(m);
    }
    w.into_bytes()
}

/// Decode an `END` payload into `(exact, missing_subqueries)`.
pub fn decode_answer_end(buf: &[u8]) -> Result<(bool, Vec<String>), NetError> {
    let mut r = WireReader::new(buf);
    let exact = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(NetError::corrupt(format!("bad exact flag {other}"))),
    };
    let n = r.u32()?;
    if n > 1 << 16 {
        return Err(NetError::corrupt(format!("missing count {n} too large")));
    }
    let mut missing = Vec::with_capacity(n as usize);
    for _ in 0..n {
        missing.push(r.str()?.to_string());
    }
    r.finish()?;
    Ok((exact, missing))
}

/// Log2 latency-bucket count carried in a [`StatsReport`] — pinned
/// equal to `braid_trace::HIST_BUCKETS` by a test in this module.
pub const STATS_HIST_BUCKETS: usize = 64;

/// Cap on the span-record count of one `TRACE` frame. The server-side
/// explain ring holds 4096 events; anything past this is corrupt input,
/// rejected before allocation.
pub const MAX_TRACE_EVENTS: u32 = 1 << 14;

/// Cap on the field count of one shipped span record.
pub const MAX_TRACE_FIELDS: u32 = 64;

/// Encode a `CLOCK_SYNC` payload: the client's monotonic clock reading
/// (µs since its tracer epoch) at send time.
pub fn encode_clock_sync(client_now_us: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(client_now_us);
    w.into_bytes()
}

/// Decode a `CLOCK_SYNC` payload.
pub fn decode_clock_sync(buf: &[u8]) -> Result<u64, NetError> {
    let mut r = WireReader::new(buf);
    let t = r.u64()?;
    r.finish()?;
    Ok(t)
}

/// Encode a `CLOCK_INFO` payload: the echoed client reading plus the
/// server's own monotonic reading (µs since the server epoch) — enough
/// for the client to estimate the epoch offset as
/// `server_now − (send + recv) / 2`.
pub fn encode_clock_info(client_now_us: u64, server_now_us: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(client_now_us);
    w.put_u64(server_now_us);
    w.into_bytes()
}

/// Decode a `CLOCK_INFO` payload into `(client_now_us, server_now_us)`.
pub fn decode_clock_info(buf: &[u8]) -> Result<(u64, u64), NetError> {
    let mut r = WireReader::new(buf);
    let c = r.u64()?;
    let s = r.u64()?;
    r.finish()?;
    Ok((c, s))
}

/// Encode a `TRACE` payload: the span records of one traced query,
/// timed against the server epoch. Kinds travel as their stable dotted
/// names, so the frame layout survives enum reordering.
pub fn encode_trace(query_id: u64, events: &[TraceEvent]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(16 + 48 * events.len());
    w.put_u64(query_id);
    w.put_u32(events.len() as u32);
    for e in events {
        w.put_u64(e.seq);
        w.put_u64(e.id);
        match e.parent {
            Some(p) => {
                w.put_u8(1);
                w.put_u64(p);
            }
            None => w.put_u8(0),
        }
        w.put_str(e.kind.as_str());
        w.put_str(&e.label);
        w.put_u64(e.start_us);
        w.put_u64(e.dur_us);
        w.put_u32(e.fields.len() as u32);
        for (k, v) in &e.fields {
            w.put_str(k);
            w.put_str(v);
        }
    }
    w.into_bytes()
}

/// Decode a `TRACE` payload into `(query_id, events)`. Unknown kind
/// names are corrupt (the registry of dotted names is closed); field
/// keys are interned back to `&'static str` via
/// [`braid_trace::intern_field_key`].
pub fn decode_trace(buf: &[u8]) -> Result<(u64, Vec<TraceEvent>), NetError> {
    let mut r = WireReader::new(buf);
    let query_id = r.u64()?;
    let n = r.u32()?;
    if n > MAX_TRACE_EVENTS {
        return Err(NetError::corrupt(format!(
            "trace frame carries {n} events, cap is {MAX_TRACE_EVENTS}"
        )));
    }
    let mut events = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let seq = r.u64()?;
        let id = r.u64()?;
        let parent = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            other => return Err(NetError::corrupt(format!("bad parent flag {other}"))),
        };
        let kind_name = r.str()?;
        let kind = TraceKind::from_name(kind_name)
            .ok_or_else(|| NetError::corrupt(format!("unknown trace kind `{kind_name}`")))?;
        let label = r.str()?.to_string();
        let start_us = r.u64()?;
        let dur_us = r.u64()?;
        let nf = r.u32()?;
        if nf > MAX_TRACE_FIELDS {
            return Err(NetError::corrupt(format!(
                "trace event carries {nf} fields, cap is {MAX_TRACE_FIELDS}"
            )));
        }
        let mut fields = Vec::with_capacity(nf as usize);
        for _ in 0..nf {
            let k = intern_field_key(r.str()?);
            fields.push((k, r.str()?.to_string()));
        }
        events.push(TraceEvent {
            seq,
            id,
            parent,
            kind,
            label,
            start_us,
            dur_us,
            fields,
        });
    }
    r.finish()?;
    Ok((query_id, events))
}

/// Cap on named counter / histogram entries in a [`StatsReport`].
pub const MAX_STATS_ENTRIES: u32 = 1024;

/// A fixed-layout server statistics snapshot, shipped as a
/// `STATS_REPORT` frame. Scalar gauges and rates travel as named
/// fields of the struct; the open-ended counter sets (every
/// `CombinedMetrics` counter, every always-on histogram) travel as
/// `(name, value)` lists so the layer adding a metric never has to
/// touch the codec.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Server uptime in µs (monotonic, since `BraidServer::start`).
    pub uptime_us: u64,
    /// Connections ever accepted (monotone).
    pub connections_accepted: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Queries answered since start (monotone).
    pub queries: u64,
    /// Queries/second over the sampler window, ×1000.
    pub qps_milli: u64,
    /// Pool wakes/second over the sampler window, ×1000.
    pub wakes_per_sec_milli: u64,
    /// Full-cache-answer rate over all queries, ×1000.
    pub hit_rate_milli: u64,
    /// Worker-pool gauges (`PoolSnapshot`).
    pub pool_spawned: u64,
    /// Tasks finished.
    pub pool_finished: u64,
    /// Tasks that panicked.
    pub pool_panicked: u64,
    /// Run-queue length at snapshot time.
    pub pool_queue_len: u64,
    /// Sessions parked at snapshot time.
    pub pool_parked: u64,
    /// Flight-recorder events discarded because the ring was full.
    pub recorder_dropped: u64,
    /// Every named counter of the server's `CombinedMetrics`.
    pub counters: Vec<(String, u64)>,
    /// Always-on latency histograms as raw log2 buckets.
    pub hists: Vec<(String, [u64; STATS_HIST_BUCKETS])>,
}

/// Encode a `STATS_REQUEST` payload (empty).
pub fn encode_stats_request() -> Vec<u8> {
    Vec::new()
}

/// Decode a `STATS_REQUEST` payload (must be empty).
pub fn decode_stats_request(buf: &[u8]) -> Result<(), NetError> {
    WireReader::new(buf).finish()
}

/// Encode a `STATS_REPORT` payload.
pub fn encode_stats_report(s: &StatsReport) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(256 + s.hists.len() * 8 * STATS_HIST_BUCKETS);
    w.put_u64(s.uptime_us);
    w.put_u64(s.connections_accepted);
    w.put_u64(s.active_connections);
    w.put_u64(s.queries);
    w.put_u64(s.qps_milli);
    w.put_u64(s.wakes_per_sec_milli);
    w.put_u64(s.hit_rate_milli);
    w.put_u64(s.pool_spawned);
    w.put_u64(s.pool_finished);
    w.put_u64(s.pool_panicked);
    w.put_u64(s.pool_queue_len);
    w.put_u64(s.pool_parked);
    w.put_u64(s.recorder_dropped);
    w.put_u32(s.counters.len() as u32);
    for (name, v) in &s.counters {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_u32(s.hists.len() as u32);
    for (name, buckets) in &s.hists {
        w.put_str(name);
        for &b in buckets.iter() {
            w.put_u64(b);
        }
    }
    w.into_bytes()
}

/// Decode a `STATS_REPORT` payload.
pub fn decode_stats_report(buf: &[u8]) -> Result<StatsReport, NetError> {
    let mut r = WireReader::new(buf);
    let uptime_us = r.u64()?;
    let connections_accepted = r.u64()?;
    let active_connections = r.u64()?;
    let queries = r.u64()?;
    let qps_milli = r.u64()?;
    let wakes_per_sec_milli = r.u64()?;
    let hit_rate_milli = r.u64()?;
    let pool_spawned = r.u64()?;
    let pool_finished = r.u64()?;
    let pool_panicked = r.u64()?;
    let pool_queue_len = r.u64()?;
    let pool_parked = r.u64()?;
    let recorder_dropped = r.u64()?;
    let nc = r.u32()?;
    if nc > MAX_STATS_ENTRIES {
        return Err(NetError::corrupt(format!(
            "stats report carries {nc} counters, cap is {MAX_STATS_ENTRIES}"
        )));
    }
    let mut counters = Vec::with_capacity(nc as usize);
    for _ in 0..nc {
        let name = r.str()?.to_string();
        counters.push((name, r.u64()?));
    }
    let nh = r.u32()?;
    if nh > MAX_STATS_ENTRIES {
        return Err(NetError::corrupt(format!(
            "stats report carries {nh} histograms, cap is {MAX_STATS_ENTRIES}"
        )));
    }
    let mut hists = Vec::with_capacity(nh as usize);
    for _ in 0..nh {
        let name = r.str()?.to_string();
        let mut buckets = [0u64; STATS_HIST_BUCKETS];
        for b in &mut buckets {
            *b = r.u64()?;
        }
        hists.push((name, buckets));
    }
    r.finish()?;
    Ok(StatsReport {
        uptime_us,
        connections_accepted,
        active_connections,
        queries,
        qps_milli,
        wakes_per_sec_milli,
        hit_rate_milli,
        pool_spawned,
        pool_finished,
        pool_panicked,
        pool_queue_len,
        pool_parked,
        recorder_dropped,
        counters,
        hists,
    })
}

/// Encode an `ADMIN` payload.
pub fn encode_admin(op: u8) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(op);
    w.into_bytes()
}

/// Decode an `ADMIN` payload. Only registered ops decode.
pub fn decode_admin(buf: &[u8]) -> Result<u8, NetError> {
    let mut r = WireReader::new(buf);
    let op = r.u8()?;
    if op != admin_op::FLIGHT_RECORDER {
        return Err(NetError::corrupt(format!("unknown admin op {op}")));
    }
    r.finish()?;
    Ok(op)
}

/// Encode an `ADMIN_REPORT` payload: the op echoed, plus a text body
/// (JSON lines for the flight recorder).
pub fn encode_admin_report(op: u8, text: &str) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(8 + text.len());
    w.put_u8(op);
    w.put_str(text);
    w.into_bytes()
}

/// Decode an `ADMIN_REPORT` payload into `(op, text)`.
pub fn decode_admin_report(buf: &[u8]) -> Result<(u8, String), NetError> {
    let mut r = WireReader::new(buf);
    let op = r.u8()?;
    let text = r.str()?.to_string();
    r.finish()?;
    Ok((op, text))
}

/// Encode an `ERROR` payload.
pub fn encode_client_error(message: &str) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_str(message);
    w.into_bytes()
}

/// Decode an `ERROR` payload.
pub fn decode_client_error(buf: &[u8]) -> Result<String, NetError> {
    let mut r = WireReader::new(buf);
    let msg = r.str()?.to_string();
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn query_round_trips() {
        let q = ClientQuery {
            strategy: strategy::CONJUNCTION_COMPILED,
            trace: true,
            query_id: 0x1234_5678_9ABC_DEF0,
            query: "?- anc(ann, Y).".into(),
        };
        assert_eq!(decode_query(&encode_query(&q)).unwrap(), q);
        let plain = ClientQuery::plain(strategy::INTERPRETED, "?- q(X).");
        assert!(!plain.trace);
        assert_eq!(decode_query(&encode_query(&plain)).unwrap(), plain);
    }

    #[test]
    fn bad_strategy_tag_rejected() {
        let mut bytes = encode_query(&ClientQuery::plain(0, "?- q(X)."));
        bytes[0] = 9;
        assert!(matches!(decode_query(&bytes), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn unknown_query_flags_rejected() {
        let mut bytes = encode_query(&ClientQuery::plain(0, "?- q(X)."));
        bytes[1] = 0x80;
        assert!(matches!(decode_query(&bytes), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn answer_end_round_trips() {
        let cases: Vec<(bool, Vec<String>)> = vec![
            (true, vec![]),
            (false, vec!["b1(X, Y)".into(), "b2(Y)".into()]),
        ];
        for (exact, missing) in cases {
            let got = decode_answer_end(&encode_answer_end(exact, &missing)).unwrap();
            assert_eq!(got, (exact, missing));
        }
    }

    #[test]
    fn error_round_trips() {
        let got = decode_client_error(&encode_client_error("parse error: ...")).unwrap();
        assert_eq!(got, "parse error: ...");
    }

    #[test]
    fn frame_kind_registry_is_unique_and_complete() {
        use crate::proto::kind as dbms;
        // 1. No tag appears twice across all protocol families.
        let mut tags: Vec<u8> = FRAME_KINDS.iter().map(|&(t, _, _)| t).collect();
        tags.sort_unstable();
        let before = tags.len();
        tags.dedup();
        assert_eq!(tags.len(), before, "frame kind tags collide");
        // 2. Every const either protocol exports is in the registry
        //    under its own name — a new kind cannot ship undocumented.
        let registered = |tag: u8, name: &str| {
            assert!(
                FRAME_KINDS.iter().any(|&(t, n, _)| t == tag && n == name),
                "kind {name} ({tag:#04x}) missing from FRAME_KINDS"
            );
        };
        registered(dbms::REQUEST, "REQUEST");
        registered(dbms::PING, "PING");
        registered(dbms::PONG, "PONG");
        registered(dbms::SCHEMA, "SCHEMA");
        registered(dbms::BATCH, "BATCH");
        registered(dbms::END, "END");
        registered(dbms::ERROR, "ERROR");
        registered(kind::QUERY, "QUERY");
        registered(kind::BATCH, "BATCH");
        registered(kind::END, "END");
        registered(kind::ERROR, "ERROR");
        registered(kind::WORKER_SPEC, "WORKER_SPEC");
        registered(kind::WORKER_REPORT, "WORKER_REPORT");
        registered(kind::CLOCK_SYNC, "CLOCK_SYNC");
        registered(kind::CLOCK_INFO, "CLOCK_INFO");
        registered(kind::TRACE, "TRACE");
        registered(kind::STATS_REQUEST, "STATS_REQUEST");
        registered(kind::STATS_REPORT, "STATS_REPORT");
        registered(kind::ADMIN, "ADMIN");
        registered(kind::ADMIN_REPORT, "ADMIN_REPORT");
        assert_eq!(
            FRAME_KINDS.len(),
            20,
            "registry has exactly the known kinds"
        );
        // 3. Every entry has a non-empty description.
        assert!(FRAME_KINDS.iter().all(|&(_, _, d)| !d.is_empty()));
    }

    #[test]
    fn wire_bucket_count_matches_trace_histograms() {
        assert_eq!(STATS_HIST_BUCKETS, braid_trace::HIST_BUCKETS);
    }

    #[test]
    fn clock_frames_round_trip() {
        assert_eq!(decode_clock_sync(&encode_clock_sync(42)).unwrap(), 42);
        assert_eq!(
            decode_clock_info(&encode_clock_info(42, 9_000_000)).unwrap(),
            (42, 9_000_000)
        );
        assert!(decode_clock_sync(&[1, 2]).is_err());
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                seq: 1,
                id: 10,
                parent: None,
                kind: TraceKind::Query,
                label: "?- anc(ann, Y).".into(),
                start_us: 100,
                dur_us: 900,
                fields: vec![("completeness", "exact".into())],
            },
            TraceEvent {
                seq: 2,
                id: 11,
                parent: Some(10),
                kind: TraceKind::RemoteFetch,
                label: "SELECT ...".into(),
                start_us: 200,
                dur_us: 300,
                fields: vec![("rows", "7".into()), ("flight", "leader".into())],
            },
        ]
    }

    #[test]
    fn trace_frame_round_trips() {
        let events = sample_events();
        let (qid, back) = decode_trace(&encode_trace(77, &events)).unwrap();
        assert_eq!(qid, 77);
        assert_eq!(back, events);
    }

    #[test]
    fn trace_frame_rejects_unknown_kind_and_oversized_counts() {
        let mut bytes = encode_trace(1, &sample_events());
        // The kind string of event 0 starts after qid + count + seq + id
        // + parent flag: corrupt its first character.
        let kind_off = 8 + 4 + 8 + 8 + 1 + 4;
        bytes[kind_off] = b'z';
        assert!(matches!(decode_trace(&bytes), Err(NetError::Corrupt(_))));

        let mut w = braid_net::WireWriter::new();
        w.put_u64(0);
        w.put_u32(MAX_TRACE_EVENTS + 1);
        assert!(matches!(
            decode_trace(&w.into_bytes()),
            Err(NetError::Corrupt(_))
        ));
    }

    fn sample_stats() -> StatsReport {
        let mut buckets = [0u64; STATS_HIST_BUCKETS];
        buckets[5] = 12;
        buckets[63] = 1;
        StatsReport {
            uptime_us: 5_000_000,
            connections_accepted: 42,
            active_connections: 3,
            queries: 1000,
            qps_milli: 250_500,
            wakes_per_sec_milli: 12_000,
            hit_rate_milli: 875,
            pool_spawned: 40,
            pool_finished: 37,
            pool_panicked: 0,
            pool_queue_len: 2,
            pool_parked: 1,
            recorder_dropped: 9,
            counters: vec![("cms.queries".into(), 1000), ("remote.requests".into(), 61)],
            hists: vec![("query_latency_us".into(), buckets)],
        }
    }

    #[test]
    fn stats_report_round_trips() {
        let s = sample_stats();
        assert_eq!(decode_stats_report(&encode_stats_report(&s)).unwrap(), s);
        assert!(decode_stats_request(&encode_stats_request()).is_ok());
        assert!(decode_stats_request(&[0]).is_err());
    }

    #[test]
    fn stats_report_entry_counts_are_bounded() {
        let mut w = braid_net::WireWriter::new();
        for _ in 0..13 {
            w.put_u64(0);
        }
        w.put_u32(MAX_STATS_ENTRIES + 1);
        assert!(matches!(
            decode_stats_report(&w.into_bytes()),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn admin_frames_round_trip() {
        assert_eq!(
            decode_admin(&encode_admin(admin_op::FLIGHT_RECORDER)).unwrap(),
            admin_op::FLIGHT_RECORDER
        );
        assert!(matches!(
            decode_admin(&encode_admin(99)),
            Err(NetError::Corrupt(_))
        ));
        let (op, text) =
            decode_admin_report(&encode_admin_report(1, "{\"e\":\"conn.accept\"}\n")).unwrap();
        assert_eq!(op, 1);
        assert!(text.contains("conn.accept"));
    }

    proptest! {
        /// Any (strategy, trace, id, text) query round-trips; truncations
        /// are typed errors, never panics.
        #[test]
        fn query_round_trip_and_truncation(strat in 0u8..=2,
                                           trace_bit in 0u8..=1,
                                           query_id in 0u64..u64::MAX,
                                           qv in proptest::collection::vec(32u8..127, 0..64)) {
            let q = ClientQuery {
                strategy: strat,
                trace: trace_bit == 1,
                query_id,
                query: String::from_utf8(qv).unwrap(),
            };
            let bytes = encode_query(&q);
            prop_assert_eq!(decode_query(&bytes).unwrap(), q);
            for cut in 0..bytes.len() {
                prop_assert!(decode_query(&bytes[..cut]).is_err());
            }
        }

        /// Any span-record list round-trips through the TRACE frame;
        /// every strict prefix is a typed error.
        #[test]
        fn trace_round_trip_and_truncation(
            query_id in 0u64..u64::MAX,
            raw_events in proptest::collection::vec(
                ((0u64..1 << 20, 0u64..1 << 20, proptest::option::of(0u64..1 << 20)),
                 (0usize..TraceKind::ALL.len(),
                  proptest::collection::vec(32u8..127, 0..24),
                  0u64..1 << 40, 0u64..1 << 30),
                 proptest::collection::vec((0usize..5, proptest::collection::vec(32u8..127, 0..12)), 0..4)),
                0..6),
        ) {
            let keys = ["rows", "mode", "decision", "waited_us", "origin"];
            let events: Vec<TraceEvent> = raw_events
                .into_iter()
                .enumerate()
                .map(|(i, ((seq, id, parent), (ki, lv, start_us, dur_us), fs))| TraceEvent {
                    seq,
                    // Unique ids are not a codec concern, but keep them
                    // distinct so equality is unambiguous.
                    id: id.wrapping_mul(31).wrapping_add(i as u64),
                    parent,
                    kind: TraceKind::ALL[ki],
                    label: String::from_utf8(lv).unwrap(),
                    start_us,
                    dur_us,
                    fields: fs
                        .into_iter()
                        .map(|(k, v)| (keys[k], String::from_utf8(v).unwrap()))
                        .collect(),
                })
                .collect();
            let bytes = encode_trace(query_id, &events);
            let (qid, back) = decode_trace(&bytes).unwrap();
            prop_assert_eq!(qid, query_id);
            prop_assert_eq!(back, events);
            for cut in (0..bytes.len()).step_by(9) {
                prop_assert!(decode_trace(&bytes[..cut]).is_err());
            }
        }

        /// Any stats report round-trips; every strict prefix is a typed
        /// error, never a panic.
        #[test]
        fn stats_report_round_trip_and_truncation(
            scalars in proptest::collection::vec(0u64..u64::MAX, 13),
            counters in proptest::collection::vec(
                (proptest::collection::vec(97u8..123, 1..16), 0u64..u64::MAX), 0..6),
            hist_hits in proptest::collection::vec((0usize..STATS_HIST_BUCKETS, 0u64..1 << 20), 0..6),
        ) {
            let mut buckets = [0u64; STATS_HIST_BUCKETS];
            for (i, n) in hist_hits {
                buckets[i] = n;
            }
            let s = StatsReport {
                uptime_us: scalars[0],
                connections_accepted: scalars[1],
                active_connections: scalars[2],
                queries: scalars[3],
                qps_milli: scalars[4],
                wakes_per_sec_milli: scalars[5],
                hit_rate_milli: scalars[6],
                pool_spawned: scalars[7],
                pool_finished: scalars[8],
                pool_panicked: scalars[9],
                pool_queue_len: scalars[10],
                pool_parked: scalars[11],
                recorder_dropped: scalars[12],
                counters: counters
                    .into_iter()
                    .map(|(n, v)| (String::from_utf8(n).unwrap(), v))
                    .collect(),
                hists: vec![("query_latency_us".into(), buckets)],
            };
            let bytes = encode_stats_report(&s);
            prop_assert_eq!(decode_stats_report(&bytes).unwrap(), s);
            for cut in (0..bytes.len()).step_by(11) {
                prop_assert!(decode_stats_report(&bytes[..cut]).is_err());
            }
        }

        /// The reader-thread decode path: arbitrary garbage through every
        /// payload decoder yields a value or a typed error — never a
        /// panic. This is exactly what a server reader faces when a
        /// client ships malformed frames.
        #[test]
        fn garbage_payloads_never_panic(raw in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = decode_query(&raw);
            let _ = decode_answer_end(&raw);
            let _ = decode_client_error(&raw);
            let _ = decode_clock_sync(&raw);
            let _ = decode_clock_info(&raw);
            let _ = decode_trace(&raw);
            let _ = decode_stats_request(&raw);
            let _ = decode_stats_report(&raw);
            let _ = decode_admin(&raw);
            let _ = decode_admin_report(&raw);
        }
    }
}
