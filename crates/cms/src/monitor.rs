//! The Execution Monitor.
//!
//! "The Execution Monitor coordinates the execution of the subqueries
//! according to the order specified by the QPO. Subqueries to the remote
//! DBMS can be executed in parallel with the subqueries to the Cache
//! Manager" (§5). Parts are independent (the plan's partial order has a
//! single join node downstream), so remote parts run on worker threads
//! while cache parts evaluate locally; the joins, residual selections and
//! projection happen afterwards on the workstation.

use crate::cache::{Access, CacheRead};
use crate::error::{CmsError, Result};
use crate::flight::{Entered, FlightTicket, SingleFlight, TicketState, Waker};
use crate::planner::{PartSource, Plan, PlanPart};
use crate::rdi;
use crate::resilience::Resilience;
use braid_caql::{ArithExpr, Comparison, Term};
use braid_relational::{ExecConfig, ExecStats, Expr, PhysicalPlan, Relation, Schema, Tuple};
use braid_remote::{RemoteError, RemoteTransport};
use braid_trace::{TraceKind, Tracer};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// The `(vars, relation)` pair one remote part fetch produces.
pub type FetchedPart = (Vec<String>, Relation);

/// The single-flight table specialized to remote part fetches: the shared
/// value is the `(vars, relation)` a fetch produces, errors are broadcast
/// to joiners as-is.
pub type RemoteFlight = SingleFlight<FetchedPart, CmsError>;

/// One fetched part a polled session holds across a park/retry cycle,
/// keyed by the flight key.
enum Share {
    /// A result in hand (`led` ourselves, or redeemed from a joined
    /// ticket).
    Resolved { part: FetchedPart, led: bool },
    /// A joined flight that had not published when we parked.
    Joined(FlightTicket<FetchedPart, CmsError>),
}

/// [`ParkCtx::redeem`]'s answer.
enum Stashed {
    /// Never fetched, or the joined leader abandoned its flight: enter
    /// the flight afresh.
    Nothing,
    /// The joined flight is still in progress; its waker stays
    /// registered, nothing is re-subscribed.
    StillParked,
    /// The part (or the leader's error), and whether this session led.
    Part(Result<FetchedPart>, bool),
}

/// A session's parking context: *who* goes to sleep when a fetch joins a
/// flight another session is leading.
///
/// With no task waker installed the session is driven by a blocking
/// caller, and the joiner parks its own OS thread until the leader
/// publishes. While a scheduler task is polling the session
/// ([`crate::Cms::poll_with`]) its waker is installed here instead: the
/// monitor registers it with the flight, stashes the ticket, and unwinds
/// with [`CmsError::WouldBlock`] — the worker pool parks the *session*
/// (RAII pin guards release on the way out). On resume the whole query
/// re-plans and re-executes; every fetch first consults this stash so
/// work already done (flights we led, flights we joined that have now
/// published) is reused instead of re-fetched. Reuse is sound because
/// the remote is immutable: a part's bytes don't depend on when the
/// retry happens. The stash is cleared when the polled query completes.
#[derive(Default)]
pub struct ParkCtx {
    task: Option<Waker>,
    shares: Mutex<HashMap<String, Share>>,
}

impl ParkCtx {
    /// Install (or clear) the polling task's waker.
    pub(crate) fn set_task(&mut self, waker: Option<Waker>) {
        self.task = waker;
    }

    /// Is a scheduler task driving this session? Then a join parks the
    /// session, and remote parts run serially: a park unwinds the whole
    /// plan, so at most one flight subscription (⇒ one waker) exists per
    /// park, keeping the scheduler's parks:wakes ledger 1:1.
    fn parks_session(&self) -> bool {
        self.task.is_some()
    }

    /// The waker to register on a joined flight: the polling task's, or
    /// one that unparks the calling thread.
    fn waker(&self) -> Waker {
        self.task
            .clone()
            .unwrap_or_else(Waker::unpark_current_thread)
    }

    /// What an earlier attempt of this query left behind for `key`.
    /// Redeeming a joined ticket is the one `dedup_hits` bump for that
    /// share, however often the part is re-read afterwards.
    fn redeem(&self, key: &str, resilience: &Resilience) -> Stashed {
        // Only a polled session re-runs its plan after a park.
        if !self.parks_session() {
            return Stashed::Nothing;
        }
        let mut shares = self.shares.lock().unwrap_or_else(|p| p.into_inner());
        let state = match shares.get(key) {
            None => return Stashed::Nothing,
            Some(Share::Resolved { part, led }) => return Stashed::Part(Ok(part.clone()), *led),
            Some(Share::Joined(ticket)) => ticket.state(),
        };
        match state {
            TicketState::Pending => Stashed::StillParked,
            TicketState::Abandoned => {
                shares.remove(key);
                Stashed::Nothing
            }
            TicketState::Done(result) => {
                resilience.metrics().add_dedup_hits(1);
                match &result {
                    Ok(part) => {
                        let part = part.clone();
                        shares.insert(key.to_string(), Share::Resolved { part, led: false });
                    }
                    // Shared errors propagate once and are not
                    // re-stashed: the query fails and is not retried.
                    Err(_) => {
                        shares.remove(key);
                    }
                }
                Stashed::Part(result, false)
            }
        }
    }

    fn stash(&self, key: &str, share: Share) {
        self.shares
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(key.to_string(), share);
    }

    /// Drop all stashed work — called when a polled query completes
    /// (successfully or with a non-park error), so results are never
    /// reused across *logical* queries, only across retries of one.
    pub(crate) fn reset(&self) {
        self.shares
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }
}

/// How long a joiner parked on its own thread waits for its leader
/// before presuming the leader wedged and surfacing the transient
/// [`CmsError::FlightStranded`]. A polled session is parked by its
/// scheduler instead, which has no timer.
const FLIGHT_JOIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything a plan execution needs besides the plan and the cache —
/// bundling the remote handle, resilience policy and single-flight table
/// keeps [`execute`]'s signature stable as the environment grows.
#[derive(Clone, Copy)]
pub struct ExecEnv<'a> {
    /// The remote fetch path: the in-process engine handle, or a pooled
    /// TCP client speaking the wire protocol to a remote listener. The
    /// monitor is transport-agnostic — resume/reconnect behaviour lives
    /// inside the transport implementation.
    pub transport: &'a dyn RemoteTransport,
    /// Retry/breaker/deadline policy (shared across fetch threads).
    pub resilience: &'a Resilience,
    /// Single-flight dedup table shared by every session of the CMS.
    pub flight: &'a RemoteFlight,
    /// The session's parking context: decides who sleeps when a fetch
    /// joins an open flight (the caller's thread, or the session on its
    /// scheduler), and holds work done by earlier attempts of a polled
    /// query.
    pub park: &'a ParkCtx,
    /// Fan remote fetches out to worker threads (blocking callers only:
    /// a polled session runs its parts serially, see [`ParkCtx`]).
    pub parallel: bool,
    /// Local batched-executor configuration.
    pub exec: ExecConfig,
    /// Session tracer: the monitor opens an `exec.run` span per plan and
    /// one `exec.remote_fetch`/`exec.cache_part` record per part.
    pub trace: &'a Tracer,
}

/// The result of executing a plan: the joined relation (columns named by
/// query variables) plus workstation-side work accounting.
#[derive(Debug)]
pub struct Executed {
    /// All parts joined, residual comparisons applied. Columns are named
    /// by query variables.
    pub joined: Relation,
    /// Tuples processed by local operators (workstation cost proxy).
    pub local_tuple_ops: u64,
    /// Number of subqueries shipped to the remote DBMS.
    pub remote_subqueries: u64,
    /// Batched-executor work counters: the cache parts' derivations and
    /// the local join pipeline.
    pub exec_stats: ExecStats,
}

/// Execute every part of a plan and join the results.
///
/// `env.parallel` runs remote parts concurrently (§5 feature (e)); each
/// remote stream is pipelined (§5.5). Every remote fetch goes through
/// `env.resilience` (retry/backoff, deadline, circuit breaker) — the
/// breaker state is shared across the parallel fetch threads — and
/// through the single-flight table, so concurrent sessions fetching the
/// same translated subquery share one round trip.
///
/// The cache is any [`CacheRead`] implementation: the single-session
/// [`crate::cache::CacheManager`] or the concurrent
/// [`crate::SharedCache`].
///
/// Once all parts are in hand, the local work — joins, residual
/// selections, negation anti-joins — is assembled into **one**
/// [`PhysicalPlan`] (a left-deep chain where each later part is the hash
/// build side and the pipeline streams as probe) and executed by the
/// batched executor with the configuration in `env.exec`; its work
/// counters come back in [`Executed::exec_stats`].
///
/// # Errors
/// Propagates translation, remote and local evaluation errors. Remote
/// transport faults surface only after the resilience policy gives up.
pub fn execute<C: CacheRead>(plan: &Plan, cache: &C, env: &ExecEnv<'_>) -> Result<Executed> {
    let mut remote_count: u64 = 0;
    let mut work = CacheWork::default();

    // The span every per-part record nests under. Worker threads attach
    // through the explicit parent id, never the control-path stack.
    let mut exec_span = env.trace.span_lazy(TraceKind::Execute, || {
        format!(
            "{} part(s), {} negated",
            plan.parts.len(),
            plan.neg_parts.len()
        )
    });
    let exec_parent = exec_span.id();

    // Split parts: remote ones may run on threads.
    let mut results: Vec<Option<FetchedPart>> = vec![None; plan.parts.len()];

    let remote_jobs: Vec<(usize, &PlanPart)> = plan
        .parts
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.is_cache())
        .collect();
    remote_count += remote_jobs.len() as u64;

    if env.parallel && !env.park.parks_session() && remote_jobs.len() > 1 {
        // Fan the remote fetches out; cache parts run on this thread in
        // the meantime.
        let env = *env;
        std::thread::scope(|s| -> Result<()> {
            let mut handles = Vec::new();
            for (idx, part) in &remote_jobs {
                let part = (*part).clone();
                let idx = *idx;
                handles.push((idx, s.spawn(move || fetch_remote(&part, &env, exec_parent))));
            }
            // Cache parts while remote is in flight.
            for (idx, part) in plan.parts.iter().enumerate() {
                if part.is_cache() {
                    results[idx] =
                        Some(eval_cache_part(part, cache, &env, exec_parent, &mut work)?);
                }
            }
            for (idx, h) in handles {
                let r = h
                    .join()
                    .map_err(|payload| CmsError::WorkerPanic(panic_message(payload.as_ref())))??;
                results[idx] = Some(r);
            }
            Ok(())
        })?;
    } else {
        for (idx, part) in plan.parts.iter().enumerate() {
            results[idx] = Some(if part.is_cache() {
                eval_cache_part(part, cache, env, exec_parent, &mut work)?
            } else {
                fetch_remote(part, env, exec_parent)?
            });
        }
    }

    // Assemble the local work as one physical plan: the first part
    // streams through a left-deep chain of hash joins on shared variable
    // names; every later part (already materialized) is the build side.
    let mut parts_iter = results.into_iter().map(|r| r.expect("all parts filled"));
    let (mut vars, first) = parts_iter
        .next()
        .ok_or_else(|| CmsError::Unplannable("plan has no parts".into()))?;
    let mut pipeline = part_plan(&first);
    for (nvars, next) in parts_iter {
        let on: Vec<(usize, usize)> = nvars
            .iter()
            .enumerate()
            .filter_map(|(j, v)| vars.iter().position(|w| w == v).map(|i| (i, j)))
            .collect();
        pipeline = pipeline.hash_join_build_right(part_plan(&next), &on);
        // Keep one column per variable: all of acc's, plus next's new ones.
        let mut keep: Vec<usize> = (0..vars.len()).collect();
        let mut out_vars = vars.clone();
        for (j, v) in nvars.iter().enumerate() {
            if !vars.contains(v) {
                keep.push(vars.len() + j);
                out_vars.push(v.clone());
            }
        }
        // Dedup after the projection so duplicates cannot multiply
        // through later joins (matches the materializing implementation,
        // which deduplicated at every intermediate relation).
        pipeline = pipeline.project(&keep)?.dedup();
        vars = out_vars;
    }

    // Residual comparisons.
    if !plan.residual_cmps.is_empty() {
        let exprs: Vec<Expr> = plan
            .residual_cmps
            .iter()
            .map(|c| comparison_to_expr(c, &vars))
            .collect::<Result<_>>()?;
        pipeline = pipeline.filter_strict(Expr::And(exprs));
    }

    // Negation: anti-join each negated part on its shared variables —
    // a CAQL operation executed entirely on the workstation (§5.3.3).
    for part in &plan.neg_parts {
        remote_count += u64::from(!part.is_cache());
        let (nvars, nrel) = if part.is_cache() {
            eval_cache_part(part, cache, env, exec_parent, &mut work)?
        } else {
            fetch_remote(part, env, exec_parent)?
        };
        let on: Vec<(usize, usize)> = nvars
            .iter()
            .enumerate()
            .filter_map(|(j, v)| vars.iter().position(|w| w == v).map(|i| (i, j)))
            .collect();
        if on.is_empty() {
            // No shared variables: `not p(...)` over a ground/disjoint
            // atom — the whole result survives iff the relation is empty.
            if !nrel.is_empty() {
                pipeline = PhysicalPlan::rows(pipeline.schema().clone(), Vec::new());
            }
            continue;
        }
        pipeline = pipeline.antijoin(part_plan(&nrel), &on);
    }

    // One batched pull to completion; executor counters feed the
    // workstation-cost proxy and the CMS metrics. The cost proxy already
    // counts each derivation by its output, so only the join pipeline's
    // tuples are added to it; the executor counters take both.
    let (joined, mut exec_stats) = pipeline
        .materialize_with(env.exec)
        .map_err(CmsError::from)?;
    let local_ops = work.tuples_out + exec_stats.tuples;
    exec_stats.merge(work.exec);
    let joined = rename(joined, &vars)?;

    if exec_span.is_live() {
        exec_span.field("rows", joined.len().to_string());
        exec_span.field("local_tuple_ops", local_ops.to_string());
        exec_span.field("exec_batches", exec_stats.batches.to_string());
    }

    Ok(Executed {
        joined,
        local_tuple_ops: local_ops,
        remote_subqueries: remote_count,
        exec_stats,
    })
}

/// Leaf plan over a fetched part: shares its tuples without cloning the
/// relation's bookkeeping.
fn part_plan(rel: &Relation) -> PhysicalPlan {
    PhysicalPlan::rows(rel.schema().clone(), rel.to_vec())
}

/// What a plan's cache parts cost the workstation.
#[derive(Default)]
struct CacheWork {
    /// Tuples the derivations produced (their share of the cost proxy).
    tuples_out: u64,
    /// The derivations' executor counters.
    exec: ExecStats,
}

/// Derive one cache part with the session's executor configuration,
/// book its work, and record it under the `exec.run` span (EXPLAIN's
/// per-part row: rows and access path).
fn eval_cache_part<C: CacheRead>(
    part: &PlanPart,
    cache: &C,
    env: &ExecEnv<'_>,
    parent: Option<u64>,
    work: &mut CacheWork,
) -> Result<FetchedPart> {
    let PartSource::Cache {
        element,
        derivation,
    } = &part.source
    else {
        unreachable!("eval_cache_part called on a remote part");
    };
    let var_refs: Vec<&str> = part.vars.iter().map(String::as_str).collect();
    let derived = cache.derive_relation(*element, derivation, &var_refs, env.exec)?;
    work.tuples_out += derived.rel.len() as u64;
    work.exec.merge(derived.stats);
    trace_cache_part(
        env.trace,
        parent,
        part,
        &derived.access,
        Some(derived.rel.len()),
    );
    Ok((part.vars.clone(), rename(derived.rel, &part.vars)?))
}

/// Record one cache-served part under `parent`: EXPLAIN's per-part row
/// with its rows (when known: a lazy part has not run yet) and access
/// path. The eager parts here and the CMS's lazy answers both
/// record through this.
pub(crate) fn trace_cache_part(
    trace: &Tracer,
    parent: Option<u64>,
    part: &PlanPart,
    access: &Access,
    rows: Option<usize>,
) {
    if !trace.enabled() {
        return;
    }
    let mut fields = Vec::with_capacity(2);
    if let Some(n) = rows {
        fields.push(("rows", n.to_string()));
    }
    fields.push(("access", access.to_string()));
    trace.event_under(parent, TraceKind::CachePart, part_label(part), fields);
}

/// Human-readable description of a plan part (atoms & comparisons, or
/// the cached element id).
pub(crate) fn part_label(part: &PlanPart) -> String {
    match &part.source {
        PartSource::Cache { element, .. } => format!("element #{element}"),
        PartSource::Remote { atoms, cmps } => {
            let mut desc: Vec<String> = atoms.iter().map(ToString::to_string).collect();
            desc.extend(cmps.iter().map(ToString::to_string));
            desc.join(" & ")
        }
    }
}

/// Render a worker panic payload as text for [`CmsError::WorkerPanic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn fetch_remote(part: &PlanPart, env: &ExecEnv<'_>, parent: Option<u64>) -> Result<FetchedPart> {
    let PartSource::Remote { atoms, cmps } = &part.source else {
        unreachable!("fetch_remote called on a cache part");
    };
    let (transport, resilience) = (env.transport, env.resilience);
    let t = rdi::translate(atoms, cmps, &part.vars)?;
    // Worker-thread span: attached under the exec.run span by explicit
    // parent id (never via the session's control-path stack).
    let mut span = env
        .trace
        .span_under(parent, TraceKind::RemoteFetch, t.sql.to_string());
    // Single-flight dedup: the translated SQL (plus output variables) is
    // the canonical identity of the round trip — subsumption-equivalent
    // subqueries from different sessions translate identically, so one
    // fetch serves them all. The whole resilience loop runs inside the
    // flight: joiners share the leader's *final* outcome, not a
    // transient failure it would have retried past.
    let key = format!("{}|{}", t.sql, part.vars.join(","));
    let (result, how) = loop {
        // Work stashed by an earlier attempt of this (polled) query.
        match env.park.redeem(&key, resilience) {
            Stashed::Part(result, true) => break (result, "stashed-led"),
            Stashed::Part(result, false) => break (result, "stashed-joined"),
            Stashed::StillParked => {
                span.field("flight", "parked");
                return Err(CmsError::WouldBlock);
            }
            Stashed::Nothing => {}
        }
        match env.flight.enter(&key, || env.park.waker()) {
            // Leading is real work this session does inline.
            Entered::Lead(guard) => {
                let result = fetch_attempts(part, transport, resilience, &t);
                guard.publish(&result);
                resilience.metrics().add_flight_fetches(1);
                if env.park.parks_session() {
                    if let Ok(part) = &result {
                        let part = part.clone();
                        env.park.stash(&key, Share::Resolved { part, led: true });
                    }
                }
                break (result, "led");
            }
            // Never hold a scheduler worker on another session's fetch:
            // park the *session* and unwind.
            Entered::Parked(ticket) if env.park.parks_session() => {
                env.park.stash(&key, Share::Joined(ticket));
                span.field("flight", "parked");
                return Err(CmsError::WouldBlock);
            }
            // A blocking caller parks this thread; a leader wedged past
            // the deadline surfaces as the transient `FlightStranded`.
            Entered::Parked(ticket) => {
                let shared = env
                    .flight
                    .park_on(&ticket, Some(FLIGHT_JOIN_TIMEOUT))
                    .map_err(|to| CmsError::FlightStranded {
                        waited_ms: to.waited.as_millis() as u64,
                    })?;
                if let Some(result) = shared {
                    resilience.metrics().add_dedup_hits(1);
                    break (result, "joined");
                }
                // The leader abandoned the flight: re-enter (and maybe lead).
            }
        }
    };
    span.field("flight", how);
    if span.is_live() {
        match &result {
            Ok((_, rel)) => span.field("rows", rel.len().to_string()),
            Err(e) => span.field("error", e.to_string()),
        }
    }
    result
}

/// The resilience-wrapped fetch of one translated remote subquery.
fn fetch_attempts(
    part: &PlanPart,
    transport: &dyn RemoteTransport,
    resilience: &Resilience,
    t: &rdi::Translated,
) -> Result<FetchedPart> {
    // One attempt = one round trip; the resilience policy retries
    // transient faults with backoff charged in cost units, and enforces
    // the per-attempt latency deadline against the stream's receipt.
    let rel = resilience.run(|| {
        let mut stream = transport.open_stream(&t.sql)?;
        if part.vars.is_empty() {
            // Fully ground subquery: an existence test. The DML has no
            // zero-column SELECT, so reduce the stream to a 0-ary relation
            // holding the empty tuple iff any row matched.
            let nonempty = stream.next_tuple().is_some();
            if !nonempty {
                // `None` is ambiguous: end-of-stream or mid-stream fault.
                if let Some(e) = stream.take_error() {
                    return Err(e.into());
                }
            }
            check_deadline(resilience, stream.units_charged())?;
            drop(stream);
            let mut rel = Relation::new(Schema::of_strs("part", &[]));
            if nonempty {
                rel.insert(Tuple::empty())?;
            }
            return Ok((Vec::new(), rel));
        }
        let mut rel = Relation::new(stream.schema().clone());
        while let Some(tuple) = stream.next_tuple() {
            rel.insert(tuple).map_err(CmsError::from)?;
        }
        if let Some(e) = stream.take_error() {
            return Err(e.into());
        }
        check_deadline(resilience, stream.units_charged())?;
        Ok((part.vars.clone(), rename(rel, &part.vars)?))
    })?;
    Ok(rel)
}

/// Enforce the per-attempt deadline against a request's latency receipt.
fn check_deadline(resilience: &Resilience, units_charged: u64) -> Result<()> {
    if let Some(deadline) = resilience.deadline_units() {
        if units_charged > deadline {
            resilience.metrics().add_deadline_timeouts(1);
            resilience.tracer().event(
                TraceKind::DeadlineTimeout,
                "latency receipt exceeded per-attempt deadline",
                vec![
                    ("units_charged", units_charged.to_string()),
                    ("deadline_units", deadline.to_string()),
                ],
            );
            return Err(CmsError::Remote(RemoteError::Timeout));
        }
    }
    Ok(())
}

/// Rebuild a relation with columns named by `vars` (types advisory).
pub(crate) fn rename(rel: Relation, vars: &[String]) -> Result<Relation> {
    let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
    let schema = Schema::of_strs("part", &var_refs);
    if schema.arity() != rel.schema().arity() {
        return Err(CmsError::Engine(format!(
            "arity mismatch renaming columns: {} vs {}",
            schema.arity(),
            rel.schema().arity()
        )));
    }
    let mut out = Relation::new(schema);
    for t in rel.iter() {
        out.insert(t.clone())?;
    }
    Ok(out)
}

/// Compile a CAQL comparison into a relational predicate over columns
/// named by `vars`.
pub(crate) fn comparison_to_expr(c: &Comparison, vars: &[String]) -> Result<Expr> {
    Ok(Expr::Cmp(
        c.op,
        Box::new(arith_to_expr(&c.lhs, vars)?),
        Box::new(arith_to_expr(&c.rhs, vars)?),
    ))
}

fn arith_to_expr(e: &ArithExpr, vars: &[String]) -> Result<Expr> {
    match e {
        ArithExpr::Term(Term::Const(v)) => Ok(Expr::Const(v.clone())),
        ArithExpr::Term(Term::Var(name)) => vars
            .iter()
            .position(|v| v == name)
            .map(Expr::Col)
            .ok_or_else(|| {
                CmsError::Unplannable(format!("residual comparison variable `{name}` unavailable"))
            }),
        ArithExpr::Bin(op, a, b) => {
            let (x, y) = (
                Box::new(arith_to_expr(a, vars)?),
                Box::new(arith_to_expr(b, vars)?),
            );
            Ok(match op {
                braid_caql::ArithOp::Add => Expr::Add(x, y),
                braid_caql::ArithOp::Sub => Expr::Sub(x, y),
                braid_caql::ArithOp::Mul => Expr::Mul(x, y),
                braid_caql::ArithOp::Div => Expr::Div(x, y),
            })
        }
    }
}

/// Project the joined relation onto a query head: variables come from
/// their named columns, constants become literal columns.
pub(crate) fn project_head(
    joined: &Relation,
    vars: &[String],
    head: &braid_caql::Atom,
) -> Result<Relation> {
    let names: Vec<String> = (0..head.arity()).map(|i| format!("h{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let schema = Schema::of_strs(head.pred.clone(), &name_refs);
    let mut out = Relation::new(schema);
    // Precompute per-position extraction.
    enum Slot {
        Col(usize),
        Const(braid_relational::Value),
    }
    let slots: Vec<Slot> = head
        .args
        .iter()
        .map(|t| match t {
            Term::Var(v) => vars
                .iter()
                .position(|w| w == v)
                .map(Slot::Col)
                .ok_or_else(|| {
                    CmsError::UnsafeQuery(format!("head variable `{v}` not produced by the plan"))
                }),
            Term::Const(c) => Ok(Slot::Const(c.clone())),
        })
        .collect::<Result<_>>()?;
    for t in joined.iter() {
        let row: Vec<braid_relational::Value> = slots
            .iter()
            .map(|s| match s {
                Slot::Col(i) => t.values()[*i].clone(),
                Slot::Const(c) => c.clone(),
            })
            .collect();
        out.insert(Tuple::new(row))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheManager;
    use crate::planner::plan;
    use braid_caql::parse_rule;
    use braid_relational::tuple;
    use braid_relational::ColumnarRelation;
    use braid_remote::{Catalog, RemoteDbms};
    use braid_subsume::ViewDef;
    use std::sync::Arc;

    fn res() -> Resilience {
        Resilience::new(
            crate::resilience::ResilienceConfig::default(),
            Arc::new(crate::metrics::CmsMetrics::new()),
        )
    }

    /// Per-test stand-ins for the session state an [`ExecEnv`] borrows.
    #[derive(Default)]
    struct Session {
        flight: RemoteFlight,
        park: ParkCtx,
    }

    fn env<'a>(
        remote: &'a RemoteDbms,
        resilience: &'a Resilience,
        trace: &'a Tracer,
        parallel: bool,
        session: &'a Session,
    ) -> ExecEnv<'a> {
        ExecEnv {
            transport: remote,
            resilience,
            flight: &session.flight,
            park: &session.park,
            parallel,
            exec: ExecConfig::default(),
            trace,
        }
    }

    fn remote() -> RemoteDbms {
        let mut c = Catalog::new();
        c.install(
            Relation::from_tuples(
                Schema::of_strs("b2", &["x", "z"]),
                vec![tuple!["x1", "z1"], tuple!["x2", "z2"], tuple!["x3", "z1"]],
            )
            .unwrap(),
        );
        c.install(
            Relation::from_tuples(
                Schema::of_strs("b3", &["z", "k", "y"]),
                vec![
                    tuple!["z1", "c2", "c6"],
                    tuple!["z2", "c2", "c7"],
                    tuple!["z9", "cX", "c6"],
                ],
            )
            .unwrap(),
        );
        RemoteDbms::with_defaults(c)
    }

    #[test]
    fn all_remote_plan_executes_paper_query() {
        let cache = CacheManager::new(usize::MAX);
        let r = remote();
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        let rs = res();
        let (tr, session) = (Tracer::disabled(), Session::default());
        let ex = execute(&p, &cache, &env(&r, &rs, &tr, false, &session)).unwrap();
        // Only x1/x3 join through z1 to (c2, c6).
        assert_eq!(ex.joined.len(), 2);
        let head = project_head(&ex.joined, &paper_vars(&ex), &q.head).unwrap();
        let mut rows = head.sorted_tuples();
        rows.sort();
        assert_eq!(rows, vec![tuple!["x1"], tuple!["x3"]]);
        assert_eq!(ex.remote_subqueries, 1);
    }

    fn paper_vars(ex: &Executed) -> Vec<String> {
        ex.joined
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect()
    }

    #[test]
    fn mixed_cache_remote_plan_joins_correctly() {
        let mut cache = CacheManager::new(usize::MAX);
        // Cache E12 = b3(A, c2, B) materialized from the same data.
        let e12 = Relation::from_tuples(
            Schema::of_strs("e12", &["a", "b"]),
            vec![tuple!["z1", "c6"], tuple!["z2", "c7"]],
        )
        .unwrap();
        cache.insert(
            ViewDef::new(parse_rule("e12(A, B) :- b3(A, c2, B).").unwrap()).unwrap(),
            Arc::new(ColumnarRelation::from_relation(&e12)),
        );
        let r = remote();
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        assert_eq!(p.remote_parts(), 1);
        let rs = res();
        let (tr, session) = (Tracer::disabled(), Session::default());
        let ex = execute(&p, &cache, &env(&r, &rs, &tr, false, &session)).unwrap();
        let head = project_head(&ex.joined, &paper_vars(&ex), &q.head).unwrap();
        let mut rows = head.sorted_tuples();
        rows.sort();
        assert_eq!(rows, vec![tuple!["x1"], tuple!["x3"]]);
        // Only the b2 fetch hit the server.
        assert_eq!(r.metrics().requests, 1);
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let cache = CacheManager::new(usize::MAX);
        let r = remote();
        // Two disconnected remote parts (cross product shape) — covered by
        // separate runs because the middle atom is absent.
        let q = parse_rule("q(X, Y) :- b2(X, Z), b3(W, c2, Y).").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        let rs = res();
        let (tr, session) = (Tracer::disabled(), Session::default());
        let seq = execute(&p, &cache, &env(&r, &rs, &tr, false, &session)).unwrap();
        let par = execute(&p, &cache, &env(&r, &rs, &tr, true, &session)).unwrap();
        assert_eq!(seq.joined, par.joined);
        assert_eq!(par.remote_subqueries, 1); // contiguous run → 1 request
    }

    #[test]
    fn residual_arithmetic_comparison_applied_locally() {
        let mut catalog = Catalog::new();
        catalog.install(
            Relation::from_tuples(
                Schema::new(
                    "nums",
                    vec![
                        braid_relational::Column::new("a", braid_relational::ValueType::Int),
                        braid_relational::Column::new("b", braid_relational::ValueType::Int),
                    ],
                )
                .unwrap(),
                vec![tuple![1, 5], tuple![2, 2], tuple![3, 10]],
            )
            .unwrap(),
        );
        let r = RemoteDbms::with_defaults(catalog);
        let cache = CacheManager::new(usize::MAX);
        let q = parse_rule("q(A, B) :- nums(A, B), B > A + 2.").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        assert_eq!(p.residual_cmps.len(), 1);
        let rs = res();
        let (tr, session) = (Tracer::disabled(), Session::default());
        let ex = execute(&p, &cache, &env(&r, &rs, &tr, false, &session)).unwrap();
        assert_eq!(ex.joined.len(), 2); // (1,5) and (3,10)
    }

    #[test]
    fn ground_remote_subquery_acts_as_existence_test() {
        let cache = CacheManager::new(usize::MAX);
        let r = remote();
        // b2(x1, z1) holds; b2(x1, zz) does not.
        let q_yes = plan(
            &parse_rule("q(V) :- b2(x1, z1), b3(V, c2, c6).").unwrap(),
            &cache,
            true,
        )
        .unwrap();
        let rs = res();
        let (tr, session) = (Tracer::disabled(), Session::default());
        let ex = execute(&q_yes, &cache, &env(&r, &rs, &tr, false, &session)).unwrap();
        assert_eq!(ex.joined.len(), 1, "existence holds: b3 rows survive");
        let q_no = plan(
            &parse_rule("q(V) :- b2(x1, zz), b3(V, c2, c6).").unwrap(),
            &cache,
            true,
        )
        .unwrap();
        let ex = execute(&q_no, &cache, &env(&r, &rs, &tr, false, &session)).unwrap();
        assert_eq!(ex.joined.len(), 0, "existence fails: empty result");
    }

    #[test]
    fn project_head_emits_constants() {
        let joined = Relation::from_tuples(
            Schema::of_strs("j", &["X"]),
            vec![tuple!["x1"], tuple!["x2"]],
        )
        .unwrap();
        let head = braid_caql::parse_atom("d2(X, c6)").unwrap();
        let out = project_head(&joined, &["X".to_string()], &head).unwrap();
        assert!(out.contains(&tuple!["x1", "c6"]));
        assert_eq!(out.schema().arity(), 2);
    }
}
