//! The CMS facade: sessions, query answering, and every advice-driven
//! optimization wired together.
//!
//! The interaction protocol follows §3: "the typical mode of IE – CMS
//! interaction consists of a set of sessions. At the beginning of each
//! session, the IE submits a set of advice. This is followed by a sequence
//! of CAQL queries. The CMS returns the result for the query using a
//! stream."

use crate::advice_mgr::AdviceManager;
use crate::cache::{CacheManager, CacheRead};
use crate::config::CmsConfig;
use crate::element::CacheElement;
use crate::error::{CmsError, Result};
use crate::flight::Waker;
use crate::metrics::{CmsMetrics, CmsMetricsSnapshot};
use crate::model::{col_list, ModelRow};
use crate::monitor::{self, ExecEnv, ParkCtx, RemoteFlight};
use crate::planner::{self, PartSource, Plan};
use crate::resilience::Resilience;
use crate::shared::{PinGuard, SharedCache};
use crate::stream::{AnswerStream, Completeness};
use braid_advice::Advice;
use braid_caql::{Atom, ConjunctiveQuery, Term};
use braid_relational::{ColumnarRelation, Schema};
use braid_remote::{PoolStats, RemoteDbms, RemoteTransport, TcpClientPool, TransportConfig};
use braid_subsume::ViewDef;
use braid_trace::{TraceKind, TraceSink, Tracer};
use std::sync::Arc;
use std::task::Poll;
use std::time::Instant;

/// State shared by *every* session of one CMS: the sharded cache, the
/// remote handle, the metrics sink, the remote statistics snapshot, and
/// the single-flight table deduplicating concurrent remote fetches.
/// Everything here is usable through `&self` under its own interior
/// synchronization.
pub struct CmsShared {
    cache: Arc<SharedCache>,
    remote: RemoteDbms,
    // The fetch path every monitor execution uses: the in-process engine
    // (default — same handle as `remote`) or a pooled TCP client. Schema
    // and statistics lookups stay on the in-process handle either way;
    // only tuple fetches travel the transport.
    transport: Arc<dyn RemoteTransport>,
    metrics: Arc<CmsMetrics>,
    // Snapshot of the remote base-relation statistics ("(a copy of) the
    // remote database schema", §5), used by cost-based placement.
    remote_stats: planner::RemoteStats,
    // Sessions missing concurrently on subsumption-equivalent subqueries
    // share one remote fetch through this table.
    flight: RemoteFlight,
    // The CMS-wide trace sink from `CmsConfig::trace`; each session's
    // tracer fans out to it (plus any per-session sink attached for
    // EXPLAIN capture).
    trace: braid_trace::SinkHandle,
}

/// How many predicted queries ahead an element is pinned against
/// replacement: §4.2.2's "d1 will be required for one of the next two
/// queries ... d1 is not the best candidate".
const PIN_HORIZON: usize = 2;

/// Cached-view names and remote-remainder labels of a plan.
type ViewsAndRemainder = (Vec<String>, Vec<String>);

/// Trace context captured at plan time (tracer enabled only). Folded
/// into the single `cms.plan` event so one wire query carries one
/// planner record per subquery instead of two with duplicate fields.
struct PlanTrace {
    views: Vec<String>,
    remainder: Vec<String>,
    /// Cache elements the subsumption probe examined.
    candidates: usize,
    /// Planning/pinning races lost before this plan pinned cleanly.
    replans: usize,
}

/// The Cache Management System: one session's view of the shared state.
///
/// The public API is `&mut self` per session, but all cross-session
/// state lives behind [`CmsShared`]; [`Cms::fork_session`] hands out
/// additional sessions over the same cache.
pub struct Cms {
    config: CmsConfig,
    shared: Arc<CmsShared>,
    advice: AdviceManager,
    result_counter: u64,
    // Retry/breaker/degradation policy. Per-session on purpose: one
    // session tripping its breaker must not flip sibling sessions into
    // degraded mode (their faults may be independent).
    resilience: Resilience,
    // Subqueries that went unanswered in degraded mode since the last
    // `take_missing_subqueries` call (session-level completeness).
    session_missing: Vec<String>,
    // Per-session tracer over the shared sink (plus an optional attached
    // session sink, used by `solve_explained` to capture one query's
    // span tree). Disabled tracers cost one branch per instrumentation
    // site.
    tracer: Tracer,
    // Who parks when a fetch joins another session's flight: the
    // calling thread, or — while a scheduler task is polling this session
    // through `poll_with` — the session itself (`WouldBlock` unwinds to
    // the task), plus the fetched parts that survive such a park.
    park: ParkCtx,
}

impl Cms {
    /// Build a CMS in front of a remote DBMS.
    pub fn new(remote: RemoteDbms, config: CmsConfig) -> Cms {
        let remote_stats = remote.catalog().stats_snapshot();
        let metrics = Arc::new(CmsMetrics::new());
        let cache = Arc::new(SharedCache::new(
            config.cache_capacity_bytes,
            config.cache_shards,
            Arc::clone(&metrics),
        ));
        let transport: Arc<dyn RemoteTransport> = match &config.transport {
            // In-process: the transport *is* the engine handle (cheap
            // clone — RemoteDbms shares its catalog internally), keeping
            // the default path byte-identical to the pre-network CMS.
            TransportConfig::InProcess => Arc::new(remote.clone()),
            TransportConfig::Tcp(c) => {
                let pool = TcpClientPool::new(c.clone());
                pool.set_trace(config.trace.clone());
                Arc::new(pool)
            }
        };
        let shared = Arc::new(CmsShared {
            cache,
            remote,
            transport,
            metrics: Arc::clone(&metrics),
            remote_stats,
            flight: RemoteFlight::new(),
            trace: config.trace.clone(),
        });
        let tracer = Tracer::new(shared.trace.sink());
        let mut resilience = Resilience::new(config.resilience.clone(), metrics);
        resilience.set_tracer(tracer.clone());
        Cms {
            advice: AdviceManager::new(),
            resilience,
            result_counter: 0,
            config,
            shared,
            session_missing: Vec::new(),
            tracer,
            park: ParkCtx::default(),
        }
    }

    /// A new session over the *same* shared cache, remote handle, metrics
    /// and single-flight table: fresh advice tracker, fresh resilience
    /// view, fresh completeness bookkeeping. This is how `BraidSystem`
    /// serves N concurrent sessions against one cache.
    pub fn fork_session(&self) -> Cms {
        let tracer = Tracer::new(self.shared.trace.sink());
        let mut resilience = Resilience::new(
            self.config.resilience.clone(),
            Arc::clone(&self.shared.metrics),
        );
        resilience.set_tracer(tracer.clone());
        Cms {
            advice: AdviceManager::new(),
            resilience,
            result_counter: 0,
            config: self.config.clone(),
            shared: Arc::clone(&self.shared),
            session_missing: Vec::new(),
            tracer,
            park: ParkCtx::default(),
        }
    }

    /// This session's tracer (the IE opens its own spans on it so IE →
    /// CMS → remote stages share one span tree).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Fan this session's trace out to `sink` *in addition to* the
    /// CMS-wide sink, until [`Cms::detach_session_sink`]. This is how
    /// per-query EXPLAIN captures one query's spans without disturbing
    /// the shared log.
    pub fn attach_session_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.attach_session_sink_at(sink, std::time::Instant::now());
    }

    /// Like [`Cms::attach_session_sink`], but span timestamps are
    /// measured from `epoch` instead of the attach instant. A server
    /// shipping spans across the wire pins every session's tracer to
    /// one server-wide epoch so a single clock-offset exchange
    /// normalizes all of them on the client.
    pub fn attach_session_sink_at(&mut self, sink: Arc<dyn TraceSink>, epoch: std::time::Instant) {
        self.tracer = Tracer::fanout_at(vec![self.shared.trace.sink(), sink], epoch);
        self.resilience.set_tracer(self.tracer.clone());
    }

    /// Drop any per-session sink and return to the CMS-wide sink alone.
    pub fn detach_session_sink(&mut self) {
        self.tracer = Tracer::new(self.shared.trace.sink());
        self.resilience.set_tracer(self.tracer.clone());
    }

    /// The shared cache handle (invariant checks in tests and benches).
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.shared.cache
    }

    /// Start a session: install the advice bundle (§3).
    pub fn begin_session(&mut self, advice: Advice) {
        self.advice.begin_session(advice);
    }

    /// Workstation-side metrics (shared across all sessions).
    pub fn metrics(&self) -> CmsMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The live shared metrics handle — for wiring the same counters
    /// into a [`crate::WorkerPool`] scheduling this CMS's sessions.
    pub fn metrics_handle(&self) -> Arc<CmsMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// One poll of a resumable unit of work on this session — any
    /// sequence of [`Cms::query`] calls a scheduler task wants to be able
    /// to suspend. While `attempt` runs, a fetch that would join another
    /// session's in-flight fetch registers `waker` with that flight and
    /// unwinds with [`CmsError::WouldBlock`] instead of parking the
    /// thread; `attempt` maps that signal to [`Poll::Pending`] and the
    /// caller polls the *same* work again after the waker fires. Fetches
    /// already done by earlier attempts are kept until the work is
    /// `Ready`, so a retry consumes them instead of re-fetching and the
    /// answer is byte-identical to a blocking caller's.
    pub fn poll_with<R>(
        &mut self,
        waker: &Waker,
        attempt: impl FnOnce(&mut Cms) -> Poll<R>,
    ) -> Poll<R> {
        self.park.set_task(Some(waker.clone()));
        let polled = attempt(self);
        self.park.set_task(None);
        if polled.is_ready() {
            self.park.reset();
        }
        polled
    }

    /// Flights currently open in the shared single-flight table — the
    /// "no leaked wakers" quiescence check (must be 0 once every session
    /// has completed).
    pub fn open_flights(&self) -> usize {
        self.shared.flight.open_flights()
    }

    /// The remote server handle (shared, cheap to clone).
    pub fn remote(&self) -> &RemoteDbms {
        &self.shared.remote
    }

    /// Connection-pool gauges when the fetch path is TCP; `None` on the
    /// in-process transport. Tests assert `in_use` drains to zero here.
    pub fn transport_pool_stats(&self) -> Option<PoolStats> {
        self.shared.transport.pool_stats()
    }

    /// The resilience policy engine (breaker state introspection).
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// Drain the subquery descriptions that went unanswered in degraded
    /// mode since the last call. Empty ⇒ every answer handed out since
    /// then was `Exact`.
    pub fn take_missing_subqueries(&mut self) -> Vec<String> {
        std::mem::take(&mut self.session_missing)
    }

    /// The remote database schema — the IE "can access the schema
    /// information from the DBMS (via the CMS)" (§3).
    pub fn remote_schema(&self, relation: &str) -> Result<Schema> {
        Ok(self.shared.remote.catalog().schema(relation)?.clone())
    }

    /// Export the cache model — the IE "can access cache model
    /// information from the CMS" (§3).
    pub fn cache_model(&self) -> Vec<ModelRow> {
        self.shared.cache.model()
    }

    /// Number of cached elements.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Cache evictions so far.
    pub fn cache_evictions(&self) -> u64 {
        self.shared.cache.evictions()
    }

    /// Active configuration.
    pub fn config(&self) -> &CmsConfig {
        &self.config
    }

    /// Is path-expression tracking currently in sync? `false` when no
    /// path expression was submitted or an unpredicted query arrived
    /// (§4.2.2 — a lost tracker yields no predictions until the next
    /// session).
    pub fn advice_tracking(&self) -> bool {
        self.advice.tracking()
    }

    /// Answer an IE-query given as a bare view-instance head, expanding it
    /// through the session's view specifications.
    ///
    /// # Errors
    /// Returns [`CmsError::UnknownView`] when no spec defines the head.
    pub fn query_head(&mut self, head: &Atom) -> Result<AnswerStream> {
        let q = self
            .advice
            .expand(head)
            .ok_or_else(|| CmsError::UnknownView(head.pred.clone()))?;
        self.query(q)
    }

    /// Answer a full CAQL conjunctive query (the general entry point).
    ///
    /// # Errors
    /// Propagates planning and execution errors.
    pub fn query(&mut self, q: ConjunctiveQuery) -> Result<AnswerStream> {
        let started = Instant::now();
        let mut span = self
            .tracer
            .span_lazy(TraceKind::Query, || q.head.to_string());
        let result = self.query_inner(&q);
        if span.is_live() {
            match &result {
                Ok(stream) => span.field("lazy", if stream.is_lazy() { "true" } else { "false" }),
                Err(e) => span.field("error", e.to_string()),
            }
        }
        drop(span);
        self.shared
            .metrics
            .record_query_latency(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        result
    }

    fn query_inner(&mut self, q: &ConjunctiveQuery) -> Result<AnswerStream> {
        self.shared.metrics.add_queries(1);
        self.advice.observe(&q.head);

        // [CERI86] baseline mode: buffer whole base relations on first
        // touch, then answer every query from the local copies.
        if self.config.coupling.buffers_relations() {
            self.buffer_whole_relations(q)?;
        }

        // ---- Step 1 (§5.3.1): determine the query to be evaluated. ----
        // Generalize when advice shows a strictly more general view spec
        // segment, the cache cannot already answer, and the path
        // expression predicts reuse.
        if self.config.generalization {
            let already_answerable = !self.shared.cache.whole_subsumers(q).is_empty();
            if !already_answerable {
                if let Some((gen, source_view)) = self.advice.generalization_candidate(q) {
                    // The generalized data pays off when the view whose
                    // body subsumed us (e.g. d3 for the b1 generalization
                    // of §5.3.1) is predicted to be queried later.
                    if self.advice.predicted_distance(&source_view).is_some() {
                        match self.evaluate_into_cache(&gen) {
                            Ok(false) => {}
                            Ok(true) => {
                                self.shared.metrics.add_generalized(1);
                                self.tracer.event(
                                    TraceKind::Generalize,
                                    gen.head.to_string(),
                                    vec![("source_view", source_view)],
                                );
                            }
                            // The park signal must reach the scheduler:
                            // swallowing it here would leave the session's
                            // registered waker with no matching park.
                            Err(e) if e.is_would_block() => return Err(e),
                            // Speculative evaluation: any other failure
                            // just means no generalized fetch.
                            Err(_) => {}
                        }
                    }
                }
            }
        }

        // ---- Steps 2–3: plan and execute. ----
        let (plan, pins, trace_info) = self.plan_pinned(q, self.config.subsumption, true)?;
        let stream = self.answer_with_plan(q, plan, pins, trace_info)?;

        // ---- Advice-driven follow-ups. ----
        self.apply_replacement_advice();
        if self.config.prefetching {
            self.run_prefetches()?;
        }
        Ok(stream)
    }

    /// Everything a `monitor::execute` call needs from this session.
    fn exec_env(&self) -> ExecEnv<'_> {
        ExecEnv {
            transport: &*self.shared.transport,
            resilience: &self.resilience,
            flight: &self.shared.flight,
            park: &self.park,
            parallel: self.config.parallel_execution,
            exec: self.config.exec,
            trace: &self.tracer,
        }
    }

    /// Cached-view names and remote-remainder descriptions of a plan —
    /// the payload of the `cms.plan` trace event and of EXPLAIN reports.
    /// Only called when tracing is enabled.
    fn plan_views_and_remainder(&self, plan: &Plan) -> ViewsAndRemainder {
        let mut views = Vec::new();
        let mut remainder = Vec::new();
        for part in plan.parts.iter().chain(plan.neg_parts.iter()) {
            match &part.source {
                PartSource::Cache { element, .. } => {
                    let name = self
                        .shared
                        .cache
                        .with_element(*element, |e| e.def.name().to_string())
                        .unwrap_or_else(|| format!("element #{element}"));
                    views.push(name);
                }
                PartSource::Remote { .. } => remainder.push(monitor::part_label(part)),
            }
        }
        (views, remainder)
    }

    /// Plan a query and *pin* every cache element the plan reads, so a
    /// concurrent session's eviction cannot invalidate the plan between
    /// planning and execution. When a planned element has already been
    /// evicted by the time we try to pin it, the stale plan is discarded
    /// and planning reruns against the current cache; after a bounded
    /// number of lost races the query falls back to an all-remote plan
    /// (planned against an empty cache), which needs no pins at all.
    fn plan_pinned(
        &self,
        q: &ConjunctiveQuery,
        use_subsumption: bool,
        cost_based: bool,
    ) -> Result<(Plan, Vec<PinGuard>, Option<PlanTrace>)> {
        for attempt in 0..3 {
            let mut plan = planner::plan(q, &*self.shared.cache, use_subsumption)?;
            if cost_based && self.config.cost_based_placement {
                plan = planner::choose_placement(
                    plan,
                    &*self.shared.cache,
                    &self.shared.remote_stats,
                    self.shared.remote.cost_model().request_overhead_units as f64,
                );
            }
            if let Some(pins) = self.pin_plan(&plan) {
                // Views/remainder are computed once here and handed to
                // `answer_with_plan` so the `cms.plan` event does not pay
                // the cache lookups a second time.
                let trace_info = if self.tracer.enabled() {
                    let (views, remainder) = self.plan_views_and_remainder(&plan);
                    Some(PlanTrace {
                        views,
                        remainder,
                        candidates: self.shared.cache.len(),
                        replans: attempt,
                    })
                } else {
                    None
                };
                return Ok((plan, pins, trace_info));
            }
        }
        // Lost the planning/pinning race three times: a concurrent session
        // evicted a planned element each time. Fall back to all-remote.
        self.tracer.event(
            TraceKind::PinFallback,
            q.head.to_string(),
            vec![("replans", "3".to_string())],
        );
        let empty = CacheManager::new(0);
        Ok((planner::plan(q, &empty, false)?, Vec::new(), None))
    }

    /// Pin every cache element a plan references. `None` when any element
    /// has vanished (the pins taken so far release on drop).
    fn pin_plan(&self, plan: &Plan) -> Option<Vec<PinGuard>> {
        let mut pins = Vec::new();
        for part in plan.parts.iter().chain(plan.neg_parts.iter()) {
            if let PartSource::Cache { element, .. } = &part.source {
                pins.push(self.shared.cache.try_pin(*element)?);
            }
        }
        Some(pins)
    }

    /// Plan → (lazy | eager) answer, with result caching and index advice.
    /// `pins` hold the plan's cache elements resident; the eager path
    /// releases them once the result is materialized, the lazy path moves
    /// them into the answer stream so they outlive this call.
    fn answer_with_plan(
        &mut self,
        q: &ConjunctiveQuery,
        plan: Plan,
        pins: Vec<PinGuard>,
        trace_info: Option<PlanTrace>,
    ) -> Result<AnswerStream> {
        let all_cache = plan.all_cache();
        let any_cache = plan.parts.iter().any(crate::planner::PlanPart::is_cache);
        if all_cache {
            self.shared.metrics.add_full_cache(1);
        } else if any_cache {
            self.shared.metrics.add_partial_cache(1);
        }
        self.shared
            .metrics
            .add_remote_subqueries(plan.remote_parts() as u64);

        // Planner-decision trace record: where the answer will come from,
        // which cached views serve it, and what remains for the remote.
        let mut decision_fields = if self.tracer.enabled() {
            let info = trace_info.unwrap_or_else(|| {
                let (views, remainder) = self.plan_views_and_remainder(&plan);
                PlanTrace {
                    views,
                    remainder,
                    candidates: self.shared.cache.len(),
                    replans: 0,
                }
            });
            Some(vec![
                (
                    "decision",
                    if all_cache {
                        "full_cache".to_string()
                    } else if any_cache {
                        "mixed".to_string()
                    } else {
                        "all_remote".to_string()
                    },
                ),
                (
                    "cache_parts",
                    (plan.parts.len() - plan.remote_parts()).to_string(),
                ),
                ("remote_parts", plan.remote_parts().to_string()),
                ("matched_views", info.views.join(", ")),
                ("remainder", info.remainder.join("; ")),
                ("pins", pins.len().to_string()),
                ("candidates", info.candidates.to_string()),
                ("replans", info.replans.to_string()),
            ])
        } else {
            None
        };

        // Touch used elements (LRU + hit statistics).
        for part in &plan.parts {
            if let crate::planner::PartSource::Cache { element, .. } = &part.source {
                self.shared.cache.touch(*element);
            }
        }

        // Lazy path (§5.1, §5.3.3 guideline): a single cache part covering
        // the whole query, an all-variable head, and either a
        // strictly-producer view or no advice constraint — produce a
        // generator and stream on demand.
        let head_all_vars = q.head.args.iter().all(Term::is_var);
        let producer_style = self.advice.strictly_producer(&q.head.pred)
            || self.advice.consumer_vars(&q.head.pred).is_empty();
        if all_cache
            && self.config.lazy_evaluation
            && head_all_vars
            && producer_style
            && plan.parts.len() == 1
        {
            if let crate::planner::PartSource::Cache {
                element,
                derivation,
            } = &plan.parts[0].source
            {
                let head_vars: Vec<&str> = q.head.args.iter().filter_map(Term::as_var).collect();
                // Residual comparisons must be inside the derivation
                // already (whole-query component carries them) and no
                // anti-joins may be pending, so the generator is complete.
                if plan.residual_cmps.is_empty() && plan.neg_parts.is_empty() {
                    if let Some(mut fields) = decision_fields.take() {
                        fields.push(("mode", "lazy".to_string()));
                        self.tracer
                            .event(TraceKind::PlanDecision, q.head.to_string(), fields);
                    }
                    let (g, access) = self.shared.cache.derive(*element, derivation, &head_vars)?;
                    self.shared.metrics.add_lazy(1);
                    monitor::trace_cache_part(
                        &self.tracer,
                        self.tracer.current(),
                        &plan.parts[0],
                        &access,
                        None,
                    );
                    // The stream keeps the pins: the generator reads the
                    // element's (Arc-shared) extension, and the pin keeps
                    // concurrent eviction from dropping the element — and
                    // with it the cache's claim the data is resident —
                    // while the IE is still pulling tuples.
                    return Ok(AnswerStream::lazy_pinned(
                        g.open_with(self.config.exec),
                        pins,
                        Arc::clone(&self.shared.metrics),
                    ));
                }
            }
        }

        // Eager path: execute the full plan (pins stay held across the
        // execution and release once the result is materialized).
        if let Some(mut fields) = decision_fields.take() {
            fields.push(("mode", "eager".to_string()));
            self.tracer
                .event(TraceKind::PlanDecision, q.head.to_string(), fields);
        }
        // Result caching (§5.3): only when the plan touched the remote
        // system — an all-cache answer adds no new information.
        let cache = self.config.coupling.caches_results() && !all_cache;
        let (executed, vars) = match self.execute_and_cache(q, &plan, pins, cache) {
            Ok(done) => done,
            // Graceful degradation (§ failure model, DESIGN.md): the
            // remote stayed unreachable through every retry. Answer from
            // what is provable locally and tag the stream Partial.
            Err(e) if e.is_transient() && self.config.resilience.degraded_mode => {
                return self.degraded_answer(q, &plan);
            }
            Err(e) => return Err(e),
        };

        let head = monitor::project_head(&executed.joined, &vars, &q.head)?;
        let tuples = head.to_vec();
        self.shared.metrics.add_tuples_to_ie(tuples.len() as u64);
        Ok(AnswerStream::eager(head.schema().clone(), tuples))
    }

    /// Cache-only answer for a plan whose remote parts are unreachable.
    ///
    /// Soundness: the query is a *conjunction*, so any tuple in its true
    /// result must satisfy the remote parts too — tuples built from the
    /// cache parts alone would be a superset, not a subset. The only
    /// provable answers without the remote are therefore none at all,
    /// and the stream's value is the `Partial` tag naming exactly which
    /// subqueries the cache could not cover. (Queries subsumption *can*
    /// cover never reach this path: their plans have no remote parts.)
    fn degraded_answer(&mut self, q: &ConjunctiveQuery, plan: &Plan) -> Result<AnswerStream> {
        let mut missing: Vec<String> = Vec::new();
        for part in plan.parts.iter().chain(plan.neg_parts.iter()) {
            if let PartSource::Remote { atoms, cmps } = &part.source {
                let mut desc: Vec<String> = atoms.iter().map(ToString::to_string).collect();
                desc.extend(cmps.iter().map(ToString::to_string));
                missing.push(desc.join(" & "));
            }
        }
        self.shared.metrics.add_degraded(1);
        self.session_missing.extend(missing.iter().cloned());
        self.tracer.event(
            TraceKind::Degraded,
            q.head.to_string(),
            vec![("missing_subqueries", missing.join("; "))],
        );

        let names: Vec<String> = (0..q.head.arity()).map(|i| format!("h{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let schema = Schema::of_strs(q.head.pred.clone(), &name_refs);
        Ok(
            AnswerStream::eager(schema, Vec::new()).with_completeness(Completeness::Partial {
                missing_subqueries: missing,
            }),
        )
    }

    /// Run `plan` with its cache elements pinned, book the executor's
    /// counters, and — when `cache` — store the joined result as a new
    /// element. Returns the execution and the joined relation's column
    /// (variable) names.
    fn execute_and_cache(
        &mut self,
        q: &ConjunctiveQuery,
        plan: &Plan,
        pins: Vec<PinGuard>,
        cache: bool,
    ) -> Result<(monitor::Executed, Vec<String>)> {
        let executed = monitor::execute(plan, &*self.shared.cache, &self.exec_env())?;
        drop(pins);
        self.shared.metrics.add_local_ops(executed.local_tuple_ops);
        self.shared.metrics.add_exec_stats(executed.exec_stats);
        let vars: Vec<String> = executed
            .joined
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        if cache {
            self.cache_result(q, &executed.joined, &vars);
        }
        Ok((executed, vars))
    }

    /// Store the (pre-head-projection) result as a new cache element under
    /// an all-variables definition, plus an exact-match alias for the
    /// original query. The element is stored column-major, with hash
    /// indexes built here, once, before the insert, on its
    /// consumer-annotated columns (§5.2).
    fn cache_result(
        &mut self,
        q: &ConjunctiveQuery,
        joined: &braid_relational::Relation,
        vars: &[String],
    ) {
        self.result_counter += 1;
        let def_head = Atom::new(
            q.head.pred.clone(),
            vars.iter().map(|v| Term::var(v.clone())).collect(),
        );
        let def_q = ConjunctiveQuery::new(def_head, q.body.clone());
        let Ok(def) = ViewDef::new(def_q) else {
            return; // non-PSJ bodies are not cacheable for reuse
        };
        let to_index = self.consumer_columns(&def);
        let Ok(columns) = ColumnarRelation::from_relation(joined).with_indexes(&to_index) else {
            return;
        };
        let columns = Arc::new(columns);
        let traced = self.tracer.enabled().then(|| {
            (
                col_list(&columns.indexed_cols()),
                CacheElement::charge(&columns),
            )
        });
        let aliases = vec![{
            let mut aq = q.clone();
            aq.head.pred = "_".to_string();
            aq.canonical_key()
        }];
        let (id, evicted) = self
            .shared
            .cache
            .insert_with_aliases(def, columns, &aliases);
        self.shared.metrics.add_evictions(evicted);
        if evicted > 0 {
            self.tracer.event(
                TraceKind::Eviction,
                q.head.pred.clone(),
                vec![("evicted", evicted.to_string())],
            );
        }
        let Some(id) = id else {
            return;
        };
        if let Some((indexed, bytes)) = traced {
            self.tracer.event(
                TraceKind::CacheInsert,
                q.head.pred.clone(),
                vec![
                    ("element", id.to_string()),
                    ("rows", joined.len().to_string()),
                    ("indexed", indexed),
                    ("bytes", bytes.to_string()),
                ],
            );
        }
        if !to_index.is_empty() {
            self.shared.metrics.add_indices(to_index.len() as u64);
            self.tracer.event(
                TraceKind::IndexBuild,
                q.head.pred.clone(),
                vec![
                    ("element", id.to_string()),
                    ("indices", to_index.len().to_string()),
                ],
            );
        }
    }

    /// Index advice (§4.2.1/§5.3.3): the columns of an element defined by
    /// `def` that serve a view specification's body component whose
    /// variables carry consumer (`?`) annotations — "prime candidate[s]
    /// for indexing", as in the paper's "index E12 on the third attribute
    /// (because it was annotated as a consumer variable in the view
    /// specifications)". Empty unless this CMS follows advice.
    fn consumer_columns(&self, def: &ViewDef) -> Vec<usize> {
        let mut to_index: Vec<usize> = Vec::new();
        if !self.config.coupling.follows_advice() {
            return to_index;
        }
        for spec in &self.advice.advice().view_specs {
            let consumers: Vec<&str> = spec
                .params
                .iter()
                .filter(|(_, a)| *a == braid_advice::Annotation::Consumer)
                .filter_map(|(t, _)| t.as_var())
                .collect();
            if consumers.is_empty() {
                continue;
            }
            for comp in braid_subsume::decompose(&spec.to_query()) {
                let comp_vars = comp.vars();
                let wanted: Vec<&str> = consumers
                    .iter()
                    .copied()
                    .filter(|v| comp_vars.contains(*v))
                    .collect();
                if wanted.is_empty() {
                    continue;
                }
                if let Some(d) = braid_subsume::subsumes(def, &comp, &wanted) {
                    for c in wanted.iter().filter_map(|v| d.var_cols.get(*v)) {
                        if !to_index.contains(c) {
                            to_index.push(*c);
                        }
                    }
                }
            }
        }
        to_index
    }

    /// Evaluate a query for its side effect on the cache (generalization
    /// and prefetching). Skips evaluation when the cache already subsumes
    /// it or could not keep it; returns whether anything was fetched.
    fn evaluate_into_cache(&mut self, q: &ConjunctiveQuery) -> Result<bool> {
        if !self.shared.cache.whole_subsumers(q).is_empty() {
            return Ok(false);
        }
        // §5.1's storage criterion (c): do not speculatively fetch an
        // extension that cannot be kept — "whether cache space is
        // available for storage of the extension". An element lives whole
        // in one shard, so one shard's capacity is the bound. Estimated
        // via the remote statistics; ~48 bytes/tuple matches the
        // synthetic data.
        let atoms: Vec<braid_caql::Atom> = q.positive_atoms().into_iter().cloned().collect();
        let est_tuples = planner::estimate_conjunction(&atoms, &self.shared.remote_stats);
        let est_bytes = est_tuples * 48.0;
        if est_bytes > self.shared.cache.shard_capacity_bytes() as f64 {
            return Ok(false);
        }
        let (plan, pins, _) = self.plan_pinned(q, self.config.subsumption, false)?;
        if plan.all_cache() {
            return Ok(false);
        }
        let (executed, _) = self.execute_and_cache(q, &plan, pins, true)?;
        self.shared
            .metrics
            .add_remote_subqueries(executed.remote_subqueries);
        Ok(true)
    }

    /// §4.2.2 + §5.4: pin cached elements whose views the path expression
    /// predicts within the horizon, so LRU replacement skips them.
    fn apply_replacement_advice(&mut self) {
        if !self.config.coupling.follows_advice() {
            return;
        }
        let views = self.advice.pinned_views(PIN_HORIZON);
        self.shared.cache.pin_views(&views);
    }

    /// Fetch-and-cache the full extension of every base relation the
    /// query touches (single-relation buffering, \[CERI86\]).
    fn buffer_whole_relations(&mut self, q: &ConjunctiveQuery) -> Result<()> {
        let preds: Vec<(String, usize)> = q
            .body
            .iter()
            .filter_map(|l| match l {
                braid_caql::Literal::Atom(a) | braid_caql::Literal::Neg(a) => {
                    Some((a.pred.clone(), a.arity()))
                }
                _ => None,
            })
            .collect();
        for (pred, arity) in preds {
            if self.shared.remote.catalog().schema(&pred).is_err() {
                continue; // not a base relation
            }
            let args: Vec<Term> = (0..arity).map(|i| Term::Var(format!("W{i}"))).collect();
            let head = Atom::new(format!("whole_{pred}"), args.clone());
            let whole =
                ConjunctiveQuery::new(head, vec![braid_caql::Literal::Atom(Atom::new(pred, args))]);
            if self.shared.cache.whole_subsumers(&whole).is_empty() {
                let (plan, pins, _) = self.plan_pinned(&whole, true, false)?;
                if plan.all_cache() {
                    continue;
                }
                let (executed, _) = self.execute_and_cache(&whole, &plan, pins, true)?;
                self.shared
                    .metrics
                    .add_remote_subqueries(executed.remote_subqueries);
            }
        }
        Ok(())
    }

    /// §5.3.1 prefetching: evaluate predicted-next queries (with observed
    /// constants) into the cache before the IE asks.
    fn run_prefetches(&mut self) -> Result<()> {
        let heads = self.advice.prefetch_heads();
        if heads.is_empty() {
            return Ok(());
        }
        // Prefetch evaluation is speculative cache warming, not part of
        // the answer the caller asked about: mute span recording while
        // each prediction evaluates, so a traced query records one
        // `Prefetch` event per prediction instead of every prediction's
        // whole nested solve — the difference between shipping a handful
        // of spans per query over the wire and shipping dozens.
        let muted = self.tracer.enabled();
        let loud = self.tracer.clone();
        if muted {
            self.tracer = Tracer::new(Arc::new(braid_trace::NoopSink));
            self.resilience.set_tracer(self.tracer.clone());
        }
        let mut fetched = Vec::new();
        let mut parked = None;
        for head in heads {
            let Some(q) = self.advice.expand(&head) else {
                continue;
            };
            match self.evaluate_into_cache(&q) {
                Ok(evaluated) => {
                    self.shared.metrics.add_prefetched(u64::from(evaluated));
                    fetched.push(head);
                }
                // Parks propagate (see the generalization arm); any
                // other prefetch failure is silently skipped as before.
                Err(e) if e.is_would_block() => {
                    parked = Some(e);
                    break;
                }
                Err(_) => {}
            }
        }
        if muted {
            self.tracer = loud;
            self.resilience.set_tracer(self.tracer.clone());
        }
        for head in fetched {
            self.tracer
                .event(TraceKind::Prefetch, head.to_string(), Vec::new());
        }
        parked.map_or(Ok(()), Err)
    }
}

impl std::fmt::Debug for Cms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cms")
            .field("cache_elements", &self.shared.cache.len())
            .field("cache_bytes", &self.shared.cache.used_bytes())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_advice::{parse_path_expr, parse_view_spec};
    use braid_caql::{parse_atom, parse_rule};
    use braid_relational::{tuple, Relation};
    use braid_remote::Catalog;

    /// Remote database for the paper's Example 1 rule set.
    fn remote() -> RemoteDbms {
        let mut c = Catalog::new();
        c.install(
            Relation::from_tuples(
                Schema::of_strs("b1", &["a", "b"]),
                vec![tuple!["c1", "y1"], tuple!["c1", "y2"], tuple!["z5", "y9"]],
            )
            .unwrap(),
        );
        c.install(
            Relation::from_tuples(
                Schema::of_strs("b2", &["a", "b"]),
                vec![tuple!["x1", "z1"], tuple!["x2", "z2"], tuple!["x3", "z1"]],
            )
            .unwrap(),
        );
        c.install(
            Relation::from_tuples(
                Schema::of_strs("b3", &["a", "b", "c"]),
                vec![
                    tuple!["z1", "c2", "y1"],
                    tuple!["z2", "c2", "y2"],
                    tuple!["x9", "c3", "z5"],
                ],
            )
            .unwrap(),
        );
        RemoteDbms::with_defaults(c)
    }

    fn example1_advice() -> Advice {
        let mut a = Advice::none();
        a.view_specs
            .push(parse_view_spec("d1(Y^) =def b1(c1, Y^) (R1)").unwrap());
        a.view_specs
            .push(parse_view_spec("d2(X^, Y?) =def b2(X^, Z) & b3(Z, c2, Y?) (R2)").unwrap());
        a.view_specs
            .push(parse_view_spec("d3(X^, Y?) =def b3(X^, c3, Z) & b1(Z, Y?) (R3)").unwrap());
        a.path = Some(parse_path_expr("(d1(Y^), (d2(X^, Y?), d3(X^, Y?))<0,|Y|>)<1,1>").unwrap());
        a
    }

    #[test]
    fn direct_query_round_trip() {
        let mut cms = Cms::new(remote(), CmsConfig::braid());
        let q = parse_rule("q(X) :- b2(X, Z), b3(Z, c2, y1).").unwrap();
        let answers = cms.query(q).unwrap().drain();
        let mut names: Vec<String> = answers.iter().map(|t| t.values()[0].to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["x1", "x3"]);
    }

    #[test]
    fn repeated_query_served_from_cache() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        );
        let q = parse_rule("q(X) :- b2(X, Z), b3(Z, c2, y1).").unwrap();
        cms.query(q.clone()).unwrap().drain();
        let before = cms.remote().metrics().requests;
        cms.query(q).unwrap().drain();
        assert_eq!(
            cms.remote().metrics().requests,
            before,
            "second run hits cache"
        );
        assert!(cms.metrics().full_cache_answers >= 1);
    }

    #[test]
    fn subsumption_reuses_generalized_result() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        );
        // Fetch the general b3 extension...
        let general = parse_rule("g(X, Y) :- b3(X, c2, Y).").unwrap();
        cms.query(general).unwrap().drain();
        let before = cms.remote().metrics().requests;
        // ... then an instantiated query: answered locally by subsumption.
        let instance = parse_rule("q(X) :- b3(X, c2, y2).").unwrap();
        let answers = cms.query(instance).unwrap().drain();
        assert_eq!(answers.len(), 1);
        assert_eq!(cms.remote().metrics().requests, before);
    }

    #[test]
    fn a_band_derivation_books_its_counters_and_clusters_its_element_once() {
        // Eagerly, and lazily (a stream books its counters when it drops).
        for lazy in [false, true] {
            let cfg = CmsConfig::braid()
                .with_lazy(lazy)
                .with_prefetching(false)
                .with_generalization(false);
            let mut cms = Cms::new(remote(), cfg);
            let n = 1_000i64;
            let rows = (0..n).map(|k| tuple![k, (k * 37) % n]);
            let rel = Relation::from_tuples(Schema::of_strs("num", &["k", "v"]), rows).unwrap();
            let def = ViewDef::new(parse_rule("num(K, V) :- b9(K, V).").unwrap()).unwrap();
            let columns = Arc::new(ColumnarRelation::from_relation(&rel));
            cms.shared_cache().insert_with_aliases(def, columns, &[]);
            let bytes = cms.shared_cache().used_bytes();
            for (lo, hi) in [(100, 110), (500, 540), (990, 2_000)] {
                let band = format!("q(K, V) :- b9(K, V), V >= {lo}, V < {hi}.");
                let before = cms.metrics();
                let answers = cms.query(parse_rule(&band).unwrap()).unwrap().drain();
                let want = (lo..hi.min(n)).count();
                assert_eq!(answers.len(), want);
                let d = cms.metrics().since(&before);
                assert_eq!((d.full_cache_answers, d.lazy_answers), (1, u64::from(lazy)));
                assert_eq!(
                    d.executor_rows_pruned,
                    (n as usize - want) as u64,
                    "lazy {lazy}"
                );
            }
            assert_eq!(cms.metrics().clusterings, 1, "clustered once, on V");
            assert_eq!(cms.shared_cache().used_bytes(), bytes);
            assert!(cms.shared_cache().byte_drift().is_empty());
            assert_eq!(cms.remote().metrics().requests, 0);
        }
    }

    #[test]
    fn a_warm_probe_runs_as_many_containment_tests_at_any_population() {
        // One point view per key, as `look(k, V)` probes leave behind: the
        // candidate index hands the lookups one view however many are
        // cached, so the work STATS reports does not grow with the cache.
        let mut per_probe = Vec::new();
        for population in [100usize, 1_000, 10_000] {
            let mut cms = Cms::new(remote(), CmsConfig::braid());
            for k in 0..population {
                let def = ViewDef::new(parse_rule(&format!("look(V) :- b1(k{k}, V).")).unwrap());
                let rows = Relation::from_tuples(
                    Schema::of_strs("look", &["v"]),
                    vec![tuple![format!("v{k}")]],
                );
                let columns = Arc::new(ColumnarRelation::from_relation(&rows.unwrap()));
                cms.shared_cache()
                    .insert_with_aliases(def.unwrap(), columns, &[]);
            }
            let requests = cms.remote().metrics().requests;
            let before = cms.metrics().subsume_tests;
            let probe = parse_rule("q(V) :- b1(k7, V).").unwrap();
            assert_eq!(cms.query(probe).unwrap().drain(), vec![tuple!["v7"]]);
            assert_eq!(cms.remote().metrics().requests, requests, "a hit");
            per_probe.push(cms.metrics().subsume_tests - before);
        }
        assert!((1..=2).contains(&per_probe[0]), "{per_probe:?}");
        assert!(
            per_probe.iter().all(|n| *n == per_probe[0]),
            "{per_probe:?}"
        );
    }

    #[test]
    fn exact_match_config_does_not_reuse_generalization() {
        let mut cms = Cms::new(remote(), CmsConfig::coupled(crate::Coupling::ExactMatch));
        let general = parse_rule("g(X, Y) :- b3(X, c2, Y).").unwrap();
        cms.query(general).unwrap().drain();
        let before = cms.remote().metrics().requests;
        let instance = parse_rule("q(X) :- b3(X, c2, y2).").unwrap();
        cms.query(instance).unwrap().drain();
        assert!(
            cms.remote().metrics().requests > before,
            "exact-match cache must miss on the instantiated query"
        );
    }

    #[test]
    fn view_head_queries_require_advice() {
        let mut cms = Cms::new(remote(), CmsConfig::braid());
        let err = cms.query_head(&parse_atom("d1(Y)").unwrap()).unwrap_err();
        assert!(matches!(err, CmsError::UnknownView(_)));
        cms.begin_session(example1_advice());
        let answers = cms
            .query_head(&parse_atom("d1(Y)").unwrap())
            .unwrap()
            .drain();
        let mut ys: Vec<String> = answers.iter().map(|t| t.values()[0].to_string()).collect();
        ys.sort();
        assert_eq!(ys, vec!["y1", "y2"]);
    }

    #[test]
    fn generalization_turns_instance_queries_into_cache_hits() {
        let mut cms = Cms::new(remote(), CmsConfig::braid().with_prefetching(false));
        cms.begin_session(example1_advice());
        // d1(Y) = b1(c1, Y): generalized to b1(X, Y) because d3's body
        // holds the subsuming b1(Z, Y) — §5.3.1's exact scenario.
        cms.query_head(&parse_atom("d1(Y)").unwrap())
            .unwrap()
            .drain();
        assert!(cms.metrics().generalized_queries >= 1);
        let before = cms.remote().metrics().requests;
        // Any other b1 instance is now cache-resident.
        let q = parse_rule("q(Y) :- b1(z5, Y).").unwrap();
        let answers = cms.query(q).unwrap().drain();
        assert_eq!(answers.len(), 1);
        assert_eq!(cms.remote().metrics().requests, before);
    }

    #[test]
    fn speculative_fetch_must_fit_one_shard() {
        // Generalizing d1 fetches b1's whole extension: an estimated
        // 3 × 48 bytes, within the 400-byte cache but over each of its
        // four 100-byte shards, and an element lives whole in one shard.
        let config = CmsConfig::braid()
            .with_prefetching(false)
            .with_capacity(400)
            .with_shards(4);
        let mut cms = Cms::new(remote(), config);
        cms.begin_session(example1_advice());
        cms.query_head(&parse_atom("d1(Y)").unwrap())
            .unwrap()
            .drain();
        assert_eq!(cms.metrics().generalized_queries, 0);
        assert_eq!(
            cms.remote().metrics().requests,
            1,
            "only d1's own fetch: the speculative one costs nothing"
        );
    }

    #[test]
    fn prefetch_loads_predicted_query() {
        let mut cms = Cms::new(remote(), CmsConfig::braid());
        cms.begin_session(example1_advice());
        cms.query_head(&parse_atom("d1(Y)").unwrap())
            .unwrap()
            .drain();
        // After d2(X, y1), the tracker predicts d3(X^, y1): prefetched.
        cms.query_head(&parse_atom("d2(X, y1)").unwrap())
            .unwrap()
            .drain();
        assert!(cms.metrics().prefetched_queries >= 1);
        let before = cms.remote().metrics().requests;
        let answers = cms
            .query_head(&parse_atom("d3(X, y1)").unwrap())
            .unwrap()
            .drain();
        assert_eq!(cms.remote().metrics().requests, before, "d3 was prefetched");
        // d3(X, y1) = b3(X, c3, Z) & b1(Z, y1): x9 → z5 → y9 ≠ y1 ⇒ empty.
        assert!(answers.is_empty());
    }

    #[test]
    fn lazy_answer_for_producer_views() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        );
        // Populate the cache with the general relation.
        let general = parse_rule("g(X, Y) :- b3(X, c2, Y).").unwrap();
        cms.query(general.clone()).unwrap().drain();
        // Re-asking (all-variable head, no advice constraints): lazy.
        let s = cms.query(general).unwrap();
        assert!(s.is_lazy());
        assert!(cms.metrics().lazy_answers >= 1);
        assert_eq!(s.drain().len(), 2);
    }

    #[test]
    fn lazy_disabled_by_config() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_lazy(false)
                .with_prefetching(false)
                .with_generalization(false),
        );
        let general = parse_rule("g(X, Y) :- b3(X, c2, Y).").unwrap();
        cms.query(general.clone()).unwrap().drain();
        let s = cms.query(general).unwrap();
        assert!(!s.is_lazy());
    }

    #[test]
    fn index_advice_builds_consumer_indices() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        );
        cms.begin_session(example1_advice());
        // Caching an extension that can serve d2's b3(Z, c2, Y?) component
        // builds a hash index on the column bound to the consumer Y —
        // the paper's "index E12 on the third attribute" (§5.3.3).
        let e12 = parse_rule("e12(A, B) :- b3(A, c2, B).").unwrap();
        cms.query(e12).unwrap().drain();
        assert!(cms.metrics().indices_built >= 1);
        // And an instantiated result (consumer already a constant) builds
        // no index: there is nothing left to probe.
        let before = cms.metrics().indices_built;
        cms.query_head(&parse_atom("d2(X, y1)").unwrap())
            .unwrap()
            .drain();
        assert_eq!(cms.metrics().indices_built, before);
    }

    #[test]
    fn columnar_mode_answers_identically_and_counts_repr_decisions() {
        // The same session with and without consumer annotations: the
        // general b3 extension is cached with an index in one CMS and
        // without in the other, and an instance of it answers identically
        // from either (a probe in the first, a scan in the second).
        let cfg = CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false);
        let (mut rows, mut cols) = (Cms::new(remote(), cfg.clone()), Cms::new(remote(), cfg));
        rows.begin_session(example1_advice());
        let sorted = |mut ts: Vec<braid_relational::Tuple>| {
            ts.sort();
            ts
        };
        for q in ["e12(A, B) :- b3(A, c2, B).", "q(A) :- b3(A, c2, y1)."] {
            let q = parse_rule(q).unwrap();
            let a = sorted(rows.query(q.clone()).unwrap().drain());
            let b = sorted(cols.query(q).unwrap().drain());
            assert_eq!(a, b);
        }
        assert_eq!(rows.remote().metrics().requests, 1);
        assert_eq!(cols.remote().metrics().requests, 1);
        assert_eq!(rows.metrics().indices_built, 1);
        assert_eq!(cols.metrics().indices_built, 0);
    }

    #[test]
    fn consumer_annotated_elements_are_columns_with_the_index_built() {
        let config = CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false);
        let mut cms = Cms::new(remote(), config);
        cms.begin_session(example1_advice());
        // This extension serves d2's b3(Z, c2, Y?) component: the
        // consumer annotation predicts point probes, so the element's
        // columns carry an index on Y's column, charged at insert.
        let e12 = parse_rule("e12(A, B) :- b3(A, c2, B).").unwrap();
        cms.query(e12).unwrap().drain();
        assert_eq!(cms.metrics().indices_built, 1);
        let model = cms.cache_model();
        assert_eq!(model.len(), 1);
        assert_eq!(model[0].indexed, vec![1], "{model:?}");
        let charged = cms
            .shared_cache()
            .with_element(model[0].id, |e| CacheElement::charge(&e.columns));
        assert_eq!(charged, Some(model[0].bytes));
        assert_eq!(cms.shared_cache().used_bytes(), model[0].bytes);
    }

    #[test]
    fn cache_model_reports_columnar_repr() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        );
        let q = parse_rule("q(X, Y) :- b2(X, Y).").unwrap();
        let answers = cms.query(q).unwrap().drain();
        let model = cms.cache_model();
        assert!(model[0].indexed.is_empty(), "{model:?}");
        assert_eq!(model[0].sorted_on, None);
        // Charged its columnar bytes, which are fewer than the rows'.
        let stored = Relation::from_tuples(Schema::of_strs("q", &["x", "y"]), answers).unwrap();
        let columnar = CacheElement::charge(&ColumnarRelation::from_relation(&stored));
        assert_eq!(model[0].bytes, columnar);
        assert_eq!(cms.shared_cache().used_bytes(), columnar);
        assert!(columnar < 128 + stored.approx_size());
        assert_eq!(cms.metrics().indices_built, 0);
    }

    #[test]
    fn a_result_with_room_only_as_columns_is_kept_without_evicting() {
        let cfg = CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false);
        let first = parse_rule("q(X, Y) :- b2(X, Y).").unwrap();
        let second = parse_rule("g(X, Y, Z) :- b3(X, Y, Z).").unwrap();
        // Measure both results as the cache stores them, unbounded.
        let mut probe = Cms::new(remote(), cfg.clone());
        probe.query(first.clone()).unwrap().drain();
        let answers = probe.query(second.clone()).unwrap().drain();
        let capacity = probe.shared_cache().used_bytes();
        let stored =
            Relation::from_tuples(Schema::of_strs("g", &["x", "y", "z"]), answers).unwrap();
        let as_columns = CacheElement::charge(&ColumnarRelation::from_relation(&stored));
        let as_rows = 128 + stored.approx_size();
        assert!(
            as_rows > as_columns,
            "rows {as_rows} vs columns {as_columns}"
        );

        // Room for the first element plus the second as columns, not as
        // rows: sized before insert, it fits beside the first.
        let mut cms = Cms::new(remote(), cfg.with_capacity(capacity));
        cms.query(first).unwrap().drain();
        cms.query(second).unwrap().drain();
        assert_eq!(cms.cache_evictions(), 0);
        assert_eq!(cms.cache_len(), 2);
        assert_eq!(cms.shared_cache().used_bytes(), capacity);
    }

    #[test]
    fn cache_model_visible_to_ie() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        );
        let q = parse_rule("q(X, Y) :- b3(X, c2, Y).").unwrap();
        cms.query(q).unwrap().drain();
        let model = cms.cache_model();
        assert_eq!(model.len(), 1);
        assert!(model[0].def.contains("b3"));
        // And the remote schema is reachable through the CMS (§3).
        assert_eq!(cms.remote_schema("b1").unwrap().arity(), 2);
    }

    #[test]
    fn loose_coupling_never_caches() {
        let mut cms = Cms::new(remote(), CmsConfig::coupled(crate::Coupling::Loose));
        let q = parse_rule("q(X) :- b2(X, Z), b3(Z, c2, y1).").unwrap();
        cms.query(q.clone()).unwrap().drain();
        cms.query(q).unwrap().drain();
        assert_eq!(cms.cache_len(), 0);
        assert_eq!(cms.remote().metrics().requests, 2);
    }

    #[test]
    fn negation_answered_by_local_anti_join() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        );
        // b2 pairs with no matching (Z, c2, _) row in b3:
        // b2 = {(x1,z1),(x2,z2),(x3,z1)}; b3 has (z1,c2,y1),(z2,c2,y2).
        let q = parse_rule("q(X) :- b2(X, Z), not b3(Z, c2, Y).").unwrap();
        let answers = cms.query(q).unwrap().drain();
        assert!(
            answers.is_empty(),
            "every b2 row has a b3 partner: {answers:?}"
        );
        // Negate on a constant third column with no matches: all survive.
        let q2 = parse_rule("q(X) :- b2(X, Z), not b3(Z, zz, Y).").unwrap();
        let answers = cms.query(q2).unwrap().drain();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn negation_reuses_cached_negative_side() {
        let mut cms = Cms::new(
            remote(),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        );
        // Warm the cache with b3's extension.
        cms.query(parse_rule("w(A, B, C) :- b3(A, B, C).").unwrap())
            .unwrap()
            .drain();
        let before = cms.remote().metrics().requests;
        let q = parse_rule("q(X) :- b2(X, Z), not b3(Z, c2, Y).").unwrap();
        cms.query(q).unwrap().drain();
        // Only the positive b2 fetch goes remote; the negated side is
        // served from the cached extension.
        assert_eq!(cms.remote().metrics().requests, before + 1);
    }

    #[test]
    fn unsafe_query_rejected() {
        let mut cms = Cms::new(remote(), CmsConfig::braid());
        let q = parse_rule("q(W) :- b1(X, Y).").unwrap();
        assert!(matches!(cms.query(q), Err(CmsError::UnsafeQuery(_))));
    }
}
