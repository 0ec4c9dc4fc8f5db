//! # braid-trace
//!
//! Structured tracing for the BrAID reproduction — the observability
//! substrate threaded through the IE → CMS → remote pipeline.
//!
//! Like the vendored shims, this crate is **std only** (no registry
//! access). It provides three things:
//!
//! * **Spans and events** ([`Tracer`], [`SpanGuard`], [`TraceEvent`]):
//!   hierarchical, monotonically timed records of every pipeline stage —
//!   IE resolution, CAQL translation, subsumption probes, planner
//!   decisions, single-flight leadership, remote submit/stream, eviction.
//!   A span is closed by RAII ([`SpanGuard::drop`]) and recorded as one
//!   [`TraceEvent`] carrying its parent id, start offset, duration and
//!   free-form fields, so the tree reconstructs from the flat log.
//! * **Sinks** ([`TraceSink`], [`NoopSink`], [`RingSink`]): where events
//!   go. The ring sink is a lock-cheap bounded buffer (one short mutex
//!   hold per event) drainable as structs and renderable as a text tree
//!   ([`render_text`]) or JSON lines ([`render_json_lines`]). The no-op
//!   sink reports `enabled() == false`, which short-circuits every
//!   instrumentation site before any clock read or allocation — tracing
//!   disabled costs approximately nothing.
//! * **Histograms** ([`hist::Histogram`]): log2-bucketed, atomic,
//!   mergeable distributions with `p50/p90/p99` accessors, used for
//!   query latency, remote round trips, batch sizes and retry backoff.

pub mod hist;

pub use hist::{Histogram, HistogramSnapshot, HIST_BUCKETS};

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What pipeline stage an event describes. The string forms (see
/// [`TraceKind::as_str`]) are dotted `layer.stage` names, stable across
/// releases so log consumers can match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// An IE solve call: problem-graph extraction through answer stream.
    IeSolve,
    /// IE-side translation of a goal into CAQL (view specification).
    Translate,
    /// Advice (view specs + path expression) installed for a session.
    AdviceInstalled,
    /// One CMS query: the span every per-query decision nests under.
    Query,
    /// §5.3.1 generalization applied to the incoming query.
    Generalize,
    /// Subsumption probe. Retained in the closed wire registry; the CMS
    /// folds the probe stats into [`TraceKind::PlanDecision`] so each
    /// subquery ships one planner record instead of two.
    Subsumption,
    /// Planner decision: cache/remote/mixed, lazy/eager, pins taken,
    /// plus the subsumption probe (candidates examined, replans).
    PlanDecision,
    /// Pin race lost three times: fell back to an all-remote plan.
    PinFallback,
    /// Execution-monitor run of one physical plan.
    Execute,
    /// A plan part served from a cached element.
    CachePart,
    /// A plan part fetched from the remote DBMS (leads or joins a flight).
    RemoteFetch,
    /// A retry after a transient remote fault (backoff charged).
    Retry,
    /// The circuit breaker tripped open.
    BreakerOpen,
    /// An attempt rejected without contacting the remote (breaker open).
    BreakerReject,
    /// A per-attempt latency deadline exceeded.
    DeadlineTimeout,
    /// Degraded (cache-only) answer with missing subqueries named.
    Degraded,
    /// A result inserted into the cache, with the representation chosen
    /// for it (`repr`) and the bytes it is charged (`bytes`).
    CacheInsert,
    /// Cache elements evicted to make room.
    Eviction,
    /// An advice-driven hash index built on a cached element.
    IndexBuild,
    /// A CMS-generated prefetch of a predicted query.
    Prefetch,
    /// A request served by the remote DBMS (server side).
    RemoteRequest,
    /// A TCP transport connection established (client side).
    NetConnect,
    /// A request frame sent over the TCP transport.
    NetRequest,
    /// A mid-stream resume: reconnect + re-request with a skip offset.
    NetResume,
    /// A cooperative session parked by the worker pool (pending
    /// single-flight join).
    SchedPark,
    /// A parked session resumed after its waker fired; carries the
    /// waited time so EXPLAIN shows park/resume latency.
    SchedResume,
}

impl TraceKind {
    /// Every kind, in declaration order — the wire codec and the
    /// name-lookup tests iterate this so a new variant cannot be added
    /// without updating its dotted name.
    pub const ALL: [TraceKind; 26] = [
        TraceKind::IeSolve,
        TraceKind::Translate,
        TraceKind::AdviceInstalled,
        TraceKind::Query,
        TraceKind::Generalize,
        TraceKind::Subsumption,
        TraceKind::PlanDecision,
        TraceKind::PinFallback,
        TraceKind::Execute,
        TraceKind::CachePart,
        TraceKind::RemoteFetch,
        TraceKind::Retry,
        TraceKind::BreakerOpen,
        TraceKind::BreakerReject,
        TraceKind::DeadlineTimeout,
        TraceKind::Degraded,
        TraceKind::CacheInsert,
        TraceKind::Eviction,
        TraceKind::IndexBuild,
        TraceKind::Prefetch,
        TraceKind::RemoteRequest,
        TraceKind::NetConnect,
        TraceKind::NetRequest,
        TraceKind::NetResume,
        TraceKind::SchedPark,
        TraceKind::SchedResume,
    ];

    /// Inverse of [`TraceKind::as_str`] — used when trace events cross a
    /// process boundary as their dotted names.
    pub fn from_name(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.iter().copied().find(|k| k.as_str() == name)
    }

    /// Stable dotted name for rendering and log matching.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::IeSolve => "ie.solve",
            TraceKind::Translate => "ie.translate",
            TraceKind::AdviceInstalled => "ie.advice",
            TraceKind::Query => "cms.query",
            TraceKind::Generalize => "cms.generalize",
            TraceKind::Subsumption => "cms.subsumption",
            TraceKind::PlanDecision => "cms.plan",
            TraceKind::PinFallback => "cms.pin_fallback",
            TraceKind::Execute => "exec.run",
            TraceKind::CachePart => "exec.cache_part",
            TraceKind::RemoteFetch => "exec.remote_fetch",
            TraceKind::Retry => "resilience.retry",
            TraceKind::BreakerOpen => "resilience.breaker_open",
            TraceKind::BreakerReject => "resilience.breaker_reject",
            TraceKind::DeadlineTimeout => "resilience.deadline",
            TraceKind::Degraded => "cms.degraded",
            TraceKind::CacheInsert => "cache.insert",
            TraceKind::Eviction => "cache.evict",
            TraceKind::IndexBuild => "cache.index",
            TraceKind::Prefetch => "cms.prefetch",
            TraceKind::RemoteRequest => "remote.request",
            TraceKind::NetConnect => "net.connect",
            TraceKind::NetRequest => "net.request",
            TraceKind::NetResume => "net.resume",
            TraceKind::SchedPark => "sched.park",
            TraceKind::SchedResume => "sched.resume",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed span or point event. Spans record on *completion*
/// (children may therefore precede their parent in the flat log; the
/// tree rebuilds from `id`/`parent`); point events are zero-duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Record sequence number (per tracer, in completion order).
    pub seq: u64,
    /// Span id (unique per tracer; point events get their own id).
    pub id: u64,
    /// Enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Pipeline stage.
    pub kind: TraceKind,
    /// Human-readable subject (query text, SQL, view name, ...).
    pub label: String,
    /// Start offset from the tracer's epoch, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds (0 for point events).
    pub dur_us: u64,
    /// Free-form key/value attributes (cost units, row counts, verdicts).
    pub fields: Vec<(&'static str, String)>,
}

impl TraceEvent {
    /// Look up a field value by key (first match).
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Render as one JSON object (hand-rolled: std only).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        out.push_str(&format!(
            "\"seq\":{},\"id\":{},\"parent\":{},\"kind\":\"{}\",\"label\":\"{}\",\
             \"start_us\":{},\"dur_us\":{}",
            self.seq,
            self.id,
            self.parent
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            self.kind.as_str(),
            json_escape(&self.label),
            self.start_us,
            self.dur_us,
        ));
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Escape a string for embedding in a JSON double-quoted literal (used
/// by [`TraceEvent::to_json`] and by downstream crates that hand-roll
/// JSON, e.g. the simulation harness's scenario serializer).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Every field key the pipeline's instrumentation sites use today.
/// [`intern_field_key`] resolves wire-decoded keys against this table
/// first, so round-tripping a span over TCP allocates nothing.
const KNOWN_FIELD_KEYS: &[&str] = &[
    "access",
    "addr",
    "backoff",
    "batch_size",
    "cache_bytes",
    "cache_elements",
    "candidates",
    "completeness",
    "config",
    "decision",
    "delivered",
    "disconnect_after_tuples",
    "error",
    "exec_batches",
    "flight",
    "generalization",
    "i",
    "indexed",
    "k",
    "latency_spike_units",
    "lazy",
    "local_addr",
    "local_tuple_ops",
    "matched_views",
    "mode",
    "next",
    "origin",
    "parts",
    "pins",
    "prefetch",
    "queries",
    "remainder",
    "replans",
    "rows",
    "schema",
    "state",
    "stats",
    "strategy",
    "subsumption",
    "view_specs",
    "waited_us",
];

/// Unknown keys seen by [`intern_field_key`] beyond the known table are
/// leak-interned at most this many times process-wide; past the cap they
/// all collapse to `"field"`. Bounds memory even against adversarial
/// wire input (the codec fuzz tests decode arbitrary bytes).
const INTERN_POOL_CAP: usize = 256;

/// Resolve an owned field key (e.g. decoded from a TRACE wire frame)
/// to the `&'static str` that [`TraceEvent::fields`] requires. Known
/// keys cost a table scan; novel keys are interned by leaking, with a
/// hard cap after which they degrade to the literal `"field"`.
pub fn intern_field_key(key: &str) -> &'static str {
    if let Some(k) = KNOWN_FIELD_KEYS.iter().find(|k| **k == key) {
        return k;
    }
    static POOL: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(k) = pool.iter().find(|k| **k == key) {
        return k;
    }
    if pool.len() >= INTERN_POOL_CAP {
        return "field";
    }
    let leaked: &'static str = Box::leak(key.to_string().into_boxed_str());
    pool.push(leaked);
    leaked
}

/// Where trace events go. Implementations must be cheap when disabled:
/// every instrumentation site checks [`TraceSink::enabled`] before
/// building an event, so a `false` here short-circuits all tracing work.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Should instrumentation sites bother producing events?
    fn enabled(&self) -> bool {
        true
    }

    /// Record one completed event.
    fn record(&self, event: TraceEvent);
}

/// Discards everything and reports `enabled() == false` — the default
/// sink, with no measurable overhead at the instrumentation sites.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

/// Bounded in-memory event log: keeps the most recent `capacity` events,
/// counting (not storing) overflow. One short mutex hold per record —
/// lock-cheap rather than lock-free, which is plenty for the event rates
/// the pipeline produces.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    state: Mutex<RingState>,
}

#[derive(Debug)]
struct RingState {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (clamped ≥ 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                buf: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Take all buffered events, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.buf.drain(..).collect()
    }

    /// Copy the buffered events without clearing them.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.buf.iter().cloned().collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .buf
            .len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).dropped
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: TraceEvent) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.buf.len() == self.capacity {
            st.buf.pop_front();
            st.dropped += 1;
        }
        st.buf.push_back(event);
    }
}

/// A cloneable, comparable handle around an `Arc<dyn TraceSink>`, so
/// configuration structs carrying a sink keep their derived `Clone` +
/// `PartialEq` (equality is sink *identity*, via `Arc::ptr_eq`).
#[derive(Clone)]
pub struct SinkHandle(Arc<dyn TraceSink>);

impl SinkHandle {
    /// The disabled default.
    pub fn noop() -> SinkHandle {
        SinkHandle(Arc::new(NoopSink))
    }

    /// Wrap a concrete sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> SinkHandle {
        SinkHandle(sink)
    }

    /// The underlying sink.
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.0)
    }

    /// Does the sink want events?
    pub fn is_enabled(&self) -> bool {
        self.0.enabled()
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::noop()
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SinkHandle({})",
            if self.is_enabled() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl PartialEq for SinkHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[derive(Debug)]
struct TracerInner {
    sinks: Vec<Arc<dyn TraceSink>>,
    // Cached `any sink enabled`: the fast-path check at every site.
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    // The open-span stack of the session's control path. Worker threads
    // never touch it — they attach via `span_under`.
    stack: Mutex<Vec<u64>>,
}

/// Per-session span factory: hands out [`SpanGuard`]s and point events,
/// tracks the current span of the session's control path, and fans each
/// completed event out to its sinks. Cheap to clone (one `Arc`), `Send +
/// Sync` so fetch threads can record against it.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer writing to one sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer::fanout(vec![sink])
    }

    /// Like [`Tracer::new`], but timestamps are measured from a caller-
    /// supplied epoch instead of "now".
    pub fn new_at(sink: Arc<dyn TraceSink>, epoch: Instant) -> Tracer {
        Tracer::fanout_at(vec![sink], epoch)
    }

    /// A tracer duplicating every event to several sinks (e.g. the
    /// process-wide shared sink plus a per-query explain ring).
    pub fn fanout(sinks: Vec<Arc<dyn TraceSink>>) -> Tracer {
        Tracer::fanout_at(sinks, Instant::now())
    }

    /// Like [`Tracer::fanout`], but with an explicit epoch. A server
    /// shipping spans across a process boundary pins every per-session
    /// tracer to one server-wide epoch, so the peer can normalize all of
    /// them with a single clock-offset exchange.
    pub fn fanout_at(sinks: Vec<Arc<dyn TraceSink>>, epoch: Instant) -> Tracer {
        let enabled = sinks.iter().any(|s| s.enabled());
        Tracer {
            inner: Arc::new(TracerInner {
                sinks,
                enabled,
                epoch,
                next_id: AtomicU64::new(1),
                next_seq: AtomicU64::new(1),
                stack: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The instant this tracer's `start_us` offsets are measured from.
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// A tracer whose spans and events all short-circuit.
    pub fn disabled() -> Tracer {
        Tracer::new(Arc::new(NoopSink))
    }

    /// Is any sink interested? Sites guard expensive attribute
    /// computation (e.g. candidate counting) behind this.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The id of the innermost open span on the control path.
    pub fn current(&self) -> Option<u64> {
        self.inner
            .stack
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .last()
            .copied()
    }

    fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    fn next_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, event: TraceEvent) {
        // Skip disabled sinks entirely so a fanout of [shared noop,
        // per-query ring] — the common EXPLAIN shape — moves the event
        // instead of cloning its label and field strings for a sink
        // that would only discard them.
        let Some(last) = self.inner.sinks.iter().rposition(|s| s.enabled()) else {
            return;
        };
        for sink in self.inner.sinks[..last].iter().filter(|s| s.enabled()) {
            sink.record(event.clone());
        }
        self.inner.sinks[last].record(event);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        id: u64,
        parent: Option<u64>,
        kind: TraceKind,
        label: String,
        start_us: u64,
        dur_us: u64,
        fields: Vec<(&'static str, String)>,
    ) {
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        self.record(TraceEvent {
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

    /// Open a span nested under the control path's current span. The
    /// guard pushes onto the span stack and records on drop.
    pub fn span(&self, kind: TraceKind, label: impl Into<String>) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard::inert();
        }
        let id = self.next_id();
        let parent = {
            let mut stack = self.inner.stack.lock().unwrap_or_else(|p| p.into_inner());
            let parent = stack.last().copied();
            stack.push(id);
            parent
        };
        SpanGuard::live(self.clone(), id, parent, kind, label.into(), true)
    }

    /// Like [`Tracer::span`], but the label closure runs only when
    /// tracing is enabled — hot paths pay no formatting or allocation
    /// cost under the default no-op sink.
    pub fn span_lazy(&self, kind: TraceKind, label: impl FnOnce() -> String) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard::inert();
        }
        self.span(kind, label())
    }

    /// Open a span under an explicit parent, *without* touching the
    /// control-path stack — for worker threads (parallel remote fetches)
    /// whose spans must not interleave with the session's own nesting.
    pub fn span_under(
        &self,
        parent: Option<u64>,
        kind: TraceKind,
        label: impl Into<String>,
    ) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard::inert();
        }
        let id = self.next_id();
        SpanGuard::live(self.clone(), id, parent, kind, label.into(), false)
    }

    /// Record a zero-duration point event under the current span.
    pub fn event(
        &self,
        kind: TraceKind,
        label: impl Into<String>,
        fields: Vec<(&'static str, String)>,
    ) {
        if !self.enabled() {
            return;
        }
        let parent = self.current();
        self.event_under(parent, kind, label, fields);
    }

    /// Record a zero-duration point event under an explicit parent.
    pub fn event_under(
        &self,
        parent: Option<u64>,
        kind: TraceKind,
        label: impl Into<String>,
        fields: Vec<(&'static str, String)>,
    ) {
        if !self.enabled() {
            return;
        }
        let id = self.next_id();
        let now = self.now_us();
        self.emit(id, parent, kind, label.into(), now, 0, fields);
    }
}

/// RAII handle for an open span: closed (and recorded) on drop, so early
/// returns and `?` propagation can never leak an open span.
#[derive(Debug)]
pub struct SpanGuard {
    // `None` ⇒ inert: tracing disabled, every method is a no-op.
    tracer: Option<Tracer>,
    id: u64,
    parent: Option<u64>,
    kind: TraceKind,
    label: String,
    start_us: u64,
    on_stack: bool,
    fields: Vec<(&'static str, String)>,
}

impl SpanGuard {
    fn inert() -> SpanGuard {
        SpanGuard {
            tracer: None,
            id: 0,
            parent: None,
            kind: TraceKind::Query,
            label: String::new(),
            start_us: 0,
            on_stack: false,
            fields: Vec::new(),
        }
    }

    fn live(
        tracer: Tracer,
        id: u64,
        parent: Option<u64>,
        kind: TraceKind,
        label: String,
        on_stack: bool,
    ) -> SpanGuard {
        let start_us = tracer.now_us();
        SpanGuard {
            tracer: Some(tracer),
            id,
            parent,
            kind,
            label,
            start_us,
            on_stack,
            fields: Vec::new(),
        }
    }

    /// This span's id, usable as an explicit parent for worker-thread
    /// spans. `None` when tracing is disabled.
    pub fn id(&self) -> Option<u64> {
        self.tracer.as_ref().map(|_| self.id)
    }

    /// Attach a key/value attribute (no-op when inert).
    pub fn field(&mut self, key: &'static str, value: impl Into<String>) {
        if self.tracer.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// Is this guard actually recording?
    pub fn is_live(&self) -> bool {
        self.tracer.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer.take() else {
            return;
        };
        if self.on_stack {
            let mut stack = tracer.inner.stack.lock().unwrap_or_else(|p| p.into_inner());
            // Spans on the control path drop LIFO; `retain` keeps the
            // stack sane even if a guard outlives its natural scope.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                stack.retain(|&s| s != self.id);
            }
        }
        let end = tracer.now_us();
        tracer.emit(
            self.id,
            self.parent,
            self.kind,
            std::mem::take(&mut self.label),
            self.start_us,
            end.saturating_sub(self.start_us),
            std::mem::take(&mut self.fields),
        );
    }
}

/// Render a flat event log as an indented tree (children by start time,
/// then sequence). Orphans (parent evicted from a full ring, or emitted
/// by another tracer) print as roots.
pub fn render_text(events: &[TraceEvent]) -> String {
    use std::collections::HashMap;
    let ids: std::collections::HashSet<u64> = events.iter().map(|e| e.id).collect();
    let mut children: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    let mut roots: Vec<&TraceEvent> = Vec::new();
    for e in events {
        match e.parent {
            Some(p) if ids.contains(&p) && p != e.id => children.entry(p).or_default().push(e),
            _ => roots.push(e),
        }
    }
    let order =
        |a: &&TraceEvent, b: &&TraceEvent| a.start_us.cmp(&b.start_us).then(a.seq.cmp(&b.seq));
    roots.sort_by(order);
    for v in children.values_mut() {
        v.sort_by(order);
    }
    let mut out = String::new();
    fn emit(
        e: &TraceEvent,
        depth: usize,
        children: &std::collections::HashMap<u64, Vec<&TraceEvent>>,
        out: &mut String,
    ) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(e.kind.as_str());
        if !e.label.is_empty() {
            out.push(' ');
            out.push_str(&e.label);
        }
        if e.dur_us > 0 {
            out.push_str(&format!(" ({}us)", e.dur_us));
        }
        for (k, v) in &e.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        if let Some(kids) = children.get(&e.id) {
            for kid in kids {
                emit(kid, depth + 1, children, out);
            }
        }
    }
    for r in &roots {
        emit(r, 0, &children, &mut out);
    }
    out
}

/// Render a flat event log as JSON lines (one object per event, in the
/// order given).
pub fn render_json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// Verify that a *complete* drained event log forms a well-nested span
/// forest:
///
/// 1. span ids are unique;
/// 2. every recorded parent id names a recorded span;
/// 3. a child's `[start, start+dur]` interval nests inside its parent's.
///
/// "Span" means any event that carries a duration, plus the pipeline
/// stages that are always emitted as spans even when they finish within
/// a microsecond (`ie.solve`, `ie.translate`, `cms.query`, `exec.run`,
/// `exec.remote_fetch`). Point events may reference a span as parent but
/// are never parents themselves.
///
/// Returns the number of parent/child edges checked. Only meaningful on
/// a ring that dropped nothing — an evicted parent looks like a missing
/// one.
///
/// # Errors
/// A message naming the first violated property and the offending event.
pub fn verify_span_forest(events: &[TraceEvent]) -> Result<usize, String> {
    let is_span = |e: &TraceEvent| {
        e.dur_us > 0
            || matches!(
                e.kind,
                TraceKind::IeSolve
                    | TraceKind::Translate
                    | TraceKind::Query
                    | TraceKind::Execute
                    | TraceKind::RemoteFetch
            )
    };
    let spans: Vec<&TraceEvent> = events.iter().filter(|e| is_span(e)).collect();
    let mut by_id: std::collections::HashMap<u64, &TraceEvent> =
        std::collections::HashMap::with_capacity(spans.len());
    for s in &spans {
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("span id {} (`{}`) is not unique", s.id, s.label));
        }
    }
    let mut checked = 0usize;
    for e in events {
        if let Some(pid) = e.parent {
            let p = by_id
                .get(&pid)
                .ok_or_else(|| format!("parent {pid} of `{}` not recorded as a span", e.label))?;
            if p.start_us > e.start_us {
                return Err(format!(
                    "child `{}` starts before its parent `{}`",
                    e.label, p.label
                ));
            }
            if e.start_us + e.dur_us > p.start_us + p.dur_us {
                return Err(format!(
                    "child `{}` outlives its parent `{}`",
                    e.label, p.label
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_disables_everything() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut s = t.span(TraceKind::Query, "q");
        assert!(!s.is_live());
        assert_eq!(s.id(), None);
        s.field("k", "v"); // no-op, no panic
        t.event(TraceKind::Retry, "r", vec![]);
        assert_eq!(t.current(), None);
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let ring = Arc::new(RingSink::new(16));
        let t = Tracer::new(ring.clone());
        {
            let outer = t.span(TraceKind::Query, "outer");
            let outer_id = outer.id().unwrap();
            {
                let mut inner = t.span(TraceKind::Execute, "inner");
                inner.field("parts", "2");
                assert_eq!(t.current(), inner.id());
            }
            assert_eq!(t.current(), Some(outer_id));
            t.event(TraceKind::Retry, "attempt", vec![("backoff", "16".into())]);
        }
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        // Completion order: inner, retry-point, outer.
        let inner = &events[0];
        let retry = &events[1];
        let outer = &events[2];
        assert_eq!(inner.kind, TraceKind::Execute);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.field("parts"), Some("2"));
        assert_eq!(retry.parent, Some(outer.id));
        assert_eq!(retry.dur_us, 0);
        assert_eq!(outer.parent, None);
        assert!(outer.start_us <= inner.start_us);
    }

    #[test]
    fn span_under_does_not_touch_stack() {
        let ring = Arc::new(RingSink::new(16));
        let t = Tracer::new(ring.clone());
        let outer = t.span(TraceKind::Query, "outer");
        let oid = outer.id();
        let worker = t.span_under(oid, TraceKind::RemoteFetch, "sql");
        assert_eq!(t.current(), oid, "worker span must not become current");
        drop(worker);
        drop(outer);
        let events = ring.drain();
        assert_eq!(events[0].parent, Some(events[1].id));
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let ring = RingSink::new(2);
        for i in 0..5 {
            ring.record(TraceEvent {
                seq: i,
                id: i,
                parent: None,
                kind: TraceKind::Query,
                label: format!("q{i}"),
                start_us: i,
                dur_us: 0,
                fields: vec![],
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let evs = ring.drain();
        assert_eq!(evs[0].label, "q3");
        assert_eq!(evs[1].label, "q4");
        assert!(ring.is_empty());
    }

    #[test]
    fn fanout_duplicates_to_both_sinks() {
        let a = Arc::new(RingSink::new(8));
        let b = Arc::new(RingSink::new(8));
        let t = Tracer::fanout(vec![a.clone(), b.clone()]);
        drop(t.span(TraceKind::Query, "q"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.drain(), b.drain());
    }

    #[test]
    fn json_escapes_and_renders() {
        let e = TraceEvent {
            seq: 1,
            id: 2,
            parent: None,
            kind: TraceKind::RemoteFetch,
            label: "say \"hi\"\n".to_string(),
            start_us: 10,
            dur_us: 5,
            fields: vec![("rows", "3".to_string())],
        };
        let j = e.to_json();
        assert!(j.contains("\\\"hi\\\"\\n"), "{j}");
        assert!(j.contains("\"parent\":null"));
        assert!(j.contains("\"fields\":{\"rows\":\"3\"}"));
        let lines = render_json_lines(&[e]);
        assert_eq!(lines.lines().count(), 1);
    }

    #[test]
    fn text_tree_indents_children() {
        let ring = Arc::new(RingSink::new(16));
        let t = Tracer::new(ring.clone());
        {
            let q = t.span(TraceKind::Query, "root");
            let _ = &q;
            drop(t.span(TraceKind::Execute, "child"));
        }
        let txt = render_text(&ring.drain());
        let lines: Vec<&str> = txt.lines().collect();
        assert!(lines[0].starts_with("cms.query root"));
        assert!(lines[1].starts_with("  exec.run child"));
    }

    #[test]
    fn sink_handle_identity_equality() {
        let a = SinkHandle::noop();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, SinkHandle::noop());
        assert!(!a.is_enabled());
        let r = SinkHandle::new(Arc::new(RingSink::new(4)));
        assert!(r.is_enabled());
        assert_eq!(format!("{a:?}"), "SinkHandle(disabled)");
    }

    #[test]
    fn kind_names_round_trip_and_are_unique() {
        let mut names: Vec<&str> = TraceKind::ALL.iter().map(|k| k.as_str()).collect();
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::from_name(k.as_str()), Some(k));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceKind::ALL.len(), "dotted names collide");
        assert_eq!(TraceKind::from_name("no.such.kind"), None);
    }

    #[test]
    fn field_keys_intern_to_stable_pointers() {
        // Known keys come back as the table entry itself.
        let a = intern_field_key("rows");
        assert_eq!(a, "rows");
        // Novel keys leak once and are reused after.
        let b1 = intern_field_key("wire_test_novel_key");
        let b2 = intern_field_key("wire_test_novel_key");
        assert_eq!(b1, "wire_test_novel_key");
        assert!(std::ptr::eq(b1, b2), "novel key must intern, not re-leak");
    }

    #[test]
    fn explicit_epoch_shifts_start_offsets() {
        let ring = Arc::new(RingSink::new(4));
        let epoch = Instant::now() - std::time::Duration::from_millis(50);
        let t = Tracer::new_at(ring.clone(), epoch);
        assert_eq!(t.epoch(), epoch);
        drop(t.span(TraceKind::Query, "q"));
        let evs = ring.drain();
        assert!(
            evs[0].start_us >= 50_000,
            "span must be timed from the supplied epoch, got {}",
            evs[0].start_us
        );
    }

    #[test]
    fn concurrent_span_ids_are_unique() {
        let ring = Arc::new(RingSink::new(4096));
        let t = Tracer::new(ring.clone());
        std::thread::scope(|s| {
            for i in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for j in 0..50 {
                        let mut g = t.span_under(None, TraceKind::RemoteFetch, format!("w{i}-{j}"));
                        g.field("i", i.to_string());
                    }
                });
            }
        });
        let evs = ring.drain();
        assert_eq!(evs.len(), 400);
        let mut ids: Vec<u64> = evs.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400, "span ids must be unique");
    }
}
