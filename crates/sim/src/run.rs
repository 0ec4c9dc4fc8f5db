//! Scenario execution: one runner, [`run_scenario`], that builds the
//! system a scenario prescribes, drives its sessions through a [`Lane`],
//! checks every answer against the model-based differential oracle, and
//! checks cross-cutting invariants at the end of the run.
//!
//! Determinism rules (see DESIGN.md §10): on [`Lane::Stepped`] sessions
//! are driven one solve at a time on the *calling* thread in the order
//! fixed by `scenario.schedule`, and the CMS runs with
//! [`CmsConfig::deterministic`] (serial remote parts). The remote
//! request clock then ticks in program order, every seeded `FaultPlan`
//! decision is a pure function of the scenario, and a failing seed
//! replays exactly. The other lanes trade that determinism for real
//! schedule diversity (the soak runs all of them); the last of them,
//! [`Lane::Procs`], is the one that enters through the TCP front door.

use crate::clients::{run_clients, serve, ClientPlan};
use crate::fork::SpawnMode;
use crate::model::RefModel;
use crate::scenario::SimScenario;
use braid::{
    BraidConfig, BraidSystem, CheckedSolutions, CmsConfig, Completeness, PoolConfig, RemoteDbms,
    RemoteTcpServer, RingSink, SessionHandle, SessionTask, TcpClientConfig, TcpServerConfig,
    TransportConfig, Tuple, WorkerPool,
};
use braid_net::{FaultProxy, ProxyPlan};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A deliberately-injected defect, used by meta-tests to prove the
/// oracle catches real bugs and the shrinker minimizes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBug {
    /// No injected defect (normal operation).
    #[default]
    None,
    /// Drop the last tuple from every `every`-th non-empty answer —
    /// the observable signature of a planner that skipped one remainder
    /// subquery's contribution.
    DropLastTuple {
        /// Sabotage every n-th non-empty answer (1 ⇒ all of them).
        every: usize,
    },
}

/// Runner options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Injected defect (meta-testing only).
    pub bug: SimBug,
    /// Worker-pool threads: the pool itself on [`Lane::Pool`], the
    /// server's pool on [`Lane::Procs`].
    pub workers: usize,
    /// Client workers the scenario's sessions are dealt across on
    /// [`Lane::Procs`] (clamped to the session count).
    pub procs: usize,
    /// Whether those client workers are threads or forked processes.
    pub spawn: SpawnMode,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            bug: SimBug::None,
            workers: 4,
            procs: 2,
            spawn: SpawnMode::Thread,
        }
    }
}

/// How a scenario's sessions are driven. Every lane runs the same
/// sessions against the same oracle; they differ in who interleaves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// One solve at a time on the calling thread, in `scenario.schedule`
    /// order: deterministic and replayable, digest in step order.
    Stepped,
    /// One OS thread per session, ignoring the step schedule:
    /// real-thread schedule diversity over the shared cache.
    Threads,
    /// Like [`Lane::Threads`], with the remote behind a real TCP
    /// listener reached through a fault-injecting proxy: the engine-level
    /// `FaultPlan` moves to the server side (its typed errors travel the
    /// wire), and scenarios with faults active additionally suffer
    /// connection resets and torn frames on the link. Adds the invariant
    /// that no connection leaks.
    Socket,
    /// Sessions as [`SessionTask`] state machines on a fixed
    /// [`WorkerPool`] ([`SimOptions::workers`] threads): joins park the
    /// session, not a thread. Adds the invariant that no task panicked.
    Pool,
    /// The front door: the system behind a [`braid::BraidServer`], each
    /// session one [`braid::BraidClient`] connection, the connections
    /// dealt by the client driver ([`crate::clients`]) across
    /// [`SimOptions::procs`] workers — threads, or real forked processes
    /// ([`SimOptions::spawn`]). Workers report one digest per session,
    /// checked against the model's; adds the invariant that the server
    /// drains. Has no fault tolerance (an injected error would read as a
    /// bug), so it refuses fault-injecting scenarios.
    Procs,
}

impl Lane {
    /// Every lane, in the order the soak runs them.
    pub const ALL: [Lane; 5] = [
        Lane::Stepped,
        Lane::Threads,
        Lane::Socket,
        Lane::Pool,
        Lane::Procs,
    ];

    /// Can this lane run `sc`? Every lane takes every scenario except
    /// [`Lane::Procs`], which takes only fault-free ones.
    pub fn accepts(self, sc: &SimScenario) -> bool {
        self != Lane::Procs || !sc.faults_active()
    }
}

/// What went wrong, attributed to the step that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// An `Exact` answer differed from the reference model.
    AnswerMismatch,
    /// A `Partial` answer contained tuples the model does not derive.
    PartialNotSubset,
    /// A `Partial` answer named no missing subqueries (or appeared in a
    /// fault-free scenario).
    CompletenessContract,
    /// A solve errored although no faults were injected.
    UnexpectedError,
    /// A cache element kept a session pin after every stream was dropped.
    PinLeak,
    /// Cache byte accounting drifted, or metrics counters disagree with
    /// each other (tuple/fault conservation).
    MetricsConservation,
    /// The drained trace log is not a well-nested span forest.
    SpanForest,
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Scheduler step (usize::MAX for end-of-run invariants).
    pub step: usize,
    /// Session that solved the offending query (usize::MAX at end).
    pub session: usize,
    /// The query text ("<end-of-run>" for invariants).
    pub query: String,
    /// What property failed.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
}

/// Outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Solves executed (= schedule length).
    pub solves: usize,
    /// Answers tagged `Exact`.
    pub exact: usize,
    /// Answers tagged `Partial`.
    pub partial: usize,
    /// Typed errors tolerated because faults were active.
    pub tolerated_errors: usize,
    /// Answers with at least one tuple (meta-test support: a scenario
    /// with none gives an injected answer-dropping bug nothing to bite).
    pub nonempty_answers: usize,
    /// FNV-1a digest over every (query, completeness, answers) triple —
    /// in step order on [`Lane::Stepped`], where two runs of the same
    /// scenario must agree bit-for-bit; session-major on the other lanes,
    /// where fault-free runs must agree whatever the interleaving.
    pub digest: u64,
    /// Everything the oracle caught (empty ⇒ the scenario passed).
    pub violations: Vec<Violation>,
}

impl SimReport {
    /// Did the scenario pass every check?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// FNV-1a offset basis every simulation digest chain starts from.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x100_0000_01b3);
    }
}

/// Fold one answered query into a digest chain: FNV-1a over the query
/// text, the completeness verdict (with any missing subqueries), and
/// every solution tuple in answer order. Start chains from
/// [`DIGEST_SEED`]. Front-door workers chain answers the same way, so a
/// session's digest is recomputable from the [`RefModel`].
pub fn digest_answer(digest: &mut u64, query: &str, checked: &CheckedSolutions) {
    fnv1a(digest, query.as_bytes());
    match &checked.completeness {
        Completeness::Exact => fnv1a(digest, b"|exact"),
        Completeness::Partial { missing_subqueries } => {
            fnv1a(digest, b"|partial");
            for m in missing_subqueries {
                fnv1a(digest, m.as_bytes());
            }
        }
    }
    for t in &checked.solutions {
        fnv1a(digest, format!("{t:?}").as_bytes());
    }
}

/// Build the system under test exactly as the scenario prescribes.
/// Public so differential tests can drive the *same* configuration
/// through other entry points (`solve_explained`, lazy streams) and
/// compare against the step scheduler's answers.
///
/// The system-wide trace sink stays no-op: span ids are allocated per
/// session tracer, so each session gets its *own* [`RingSink`] (via
/// `attach_session_sink`) and its forest is verified independently.
pub fn build_system(sc: &SimScenario) -> BraidSystem {
    build_system_over(sc, TransportConfig::InProcess)
}

/// [`build_system`] with an explicit remote transport; every other
/// scenario knob is applied unchanged.
fn build_system_over(sc: &SimScenario, transport: TransportConfig) -> BraidSystem {
    let mut cms = CmsConfig::braid()
        .with_shards(sc.shards as usize)
        .with_batch_size(sc.batch_size as usize)
        .with_lazy(sc.lazy)
        .with_prefetching(sc.prefetch)
        .with_generalization(sc.generalization)
        .with_subsumption(sc.subsumption)
        .with_transport(transport)
        .deterministic();
    if let Some(cap) = sc.capacity_bytes {
        cms = cms.with_capacity(cap as usize);
    }
    let mut config = BraidConfig::with_cms(cms);
    if let Some(f) = &sc.faults {
        config = config.with_faults(f.plan());
    }
    BraidSystem::new(sc.dataset.catalog(), sc.dataset.knowledge_base(), config)
}

/// Check one answer against the model: every property it breaks, as
/// `(kind, detail)` for the caller to attribute to its step.
fn check_answer(
    model: &RefModel,
    sc: &SimScenario,
    query: &str,
    checked: &CheckedSolutions,
) -> Vec<(ViolationKind, String)> {
    let expected = match model.solve_text(query) {
        Ok(t) => t,
        Err(e) => {
            return vec![(
                ViolationKind::AnswerMismatch,
                format!("reference model failed: {e}"),
            )]
        }
    };
    let mut broken = Vec::new();
    match &checked.completeness {
        Completeness::Exact => {
            if checked.solutions != expected {
                broken.push((
                    ViolationKind::AnswerMismatch,
                    diff_detail(&checked.solutions, &expected),
                ));
            }
        }
        Completeness::Partial { missing_subqueries } => {
            if !sc.faults_active() {
                broken.push((
                    ViolationKind::CompletenessContract,
                    "answer tagged Partial although no faults are injected".into(),
                ));
            }
            if missing_subqueries.is_empty() {
                broken.push((
                    ViolationKind::CompletenessContract,
                    "Partial answer names no missing subqueries".into(),
                ));
            }
            let full: BTreeSet<&Tuple> = expected.iter().collect();
            if let Some(extra) = checked.solutions.iter().find(|t| !full.contains(t)) {
                broken.push((
                    ViolationKind::PartialNotSubset,
                    format!("partial answer contains {extra:?} which the model does not derive"),
                ));
            }
        }
    }
    broken
}

fn diff_detail(got: &[Tuple], want: &[Tuple]) -> String {
    let got_set: BTreeSet<&Tuple> = got.iter().collect();
    let want_set: BTreeSet<&Tuple> = want.iter().collect();
    let missing: Vec<_> = want_set.difference(&got_set).take(3).collect();
    let extra: Vec<_> = got_set.difference(&want_set).take(3).collect();
    format!(
        "system returned {} tuples, model {}; missing e.g. {missing:?}; extra e.g. {extra:?}",
        got.len(),
        want.len()
    )
}

/// A violation of an end-of-run invariant (no step, no session).
fn end(kind: ViolationKind, detail: String) -> Violation {
    Violation {
        step: usize::MAX,
        session: usize::MAX,
        query: "<end-of-run>".into(),
        kind,
        detail,
    }
}

/// End-of-run invariants every lane must satisfy: pin balance, cache byte
/// accounting, metric conservation, drained flights / wakers /
/// connections, span-forest well-formedness. `sessions` must already be
/// dropped (their streams release pins on drop).
fn check_invariants(
    sc: &SimScenario,
    lane: Lane,
    system: &BraidSystem,
    rings: &[Arc<RingSink>],
    tolerated_errors: usize,
    violations: &mut Vec<Violation>,
) {
    // Pin balance: every AnswerStream is gone, so no session pin may
    // survive.
    let leaked = system.cms().shared_cache().leaked_session_pins();
    if !leaked.is_empty() {
        violations.push(end(
            ViolationKind::PinLeak,
            format!("elements {leaked:?} still session-pinned after all streams dropped"),
        ));
    }

    // Cache byte accounting must be exact: each shard's tracked bytes
    // equal the sum over its elements.
    let drift = system.cms().shared_cache().byte_drift();
    if !drift.is_empty() {
        violations.push(end(
            ViolationKind::MetricsConservation,
            format!("tracked vs summed cache bytes, per (shard, tracked, summed): {drift:?}"),
        ));
    }

    // Metric conservation across the remote/cache/answer pipeline.
    let m = system.metrics();
    if m.remote.faults_injected
        != m.remote.unavailable_faults
            + m.remote.timeout_faults
            + m.remote.disconnect_faults
            + m.remote.latency_spike_faults
    {
        violations.push(end(
            ViolationKind::MetricsConservation,
            format!(
                "faults_injected {} != sum of per-kind fault counters",
                m.remote.faults_injected
            ),
        ));
    }
    if m.remote.wasted_tuples > m.remote.tuples_shipped {
        violations.push(end(
            ViolationKind::MetricsConservation,
            format!(
                "wasted_tuples {} exceeds tuples_shipped {}",
                m.remote.wasted_tuples, m.remote.tuples_shipped
            ),
        ));
    }
    if m.cms.full_cache_answers + m.cms.partial_cache_answers > m.cms.queries {
        violations.push(end(
            ViolationKind::MetricsConservation,
            "cache-answer counters exceed total CMS queries".into(),
        ));
    }
    let lat = m.cms.query_latency_us.count();
    if tolerated_errors == 0 && lat != m.cms.queries {
        violations.push(end(
            ViolationKind::MetricsConservation,
            format!(
                "query_latency_us count {lat} != cms queries {}",
                m.cms.queries
            ),
        ));
    }
    if !sc.faults_active() {
        if m.remote.faults_injected != 0 {
            violations.push(end(
                ViolationKind::MetricsConservation,
                format!(
                    "{} faults injected in a fault-free scenario",
                    m.remote.faults_injected
                ),
            ));
        }
        if m.cms.degraded_answers != 0 {
            violations.push(end(
                ViolationKind::MetricsConservation,
                format!(
                    "{} degraded answers in a fault-free scenario",
                    m.cms.degraded_answers
                ),
            ));
        }
    }

    // Quiescence: every flight published and retired its entry, every
    // scheduler park was matched by exactly one wake (both zero off the
    // pool and procs lanes), and every remote connection is back in its
    // pool.
    let open = system.cms().open_flights();
    if open != 0 {
        violations.push(end(
            ViolationKind::MetricsConservation,
            format!("{open} single-flight entr(ies) still open after quiescence"),
        ));
    }
    // At the front door a socket reader wakes its connection task on
    // every inbound frame, parked or not, so there wakes may exceed parks.
    let leaked = match lane {
        Lane::Procs => m.cms.wakes < m.cms.sessions_parked,
        _ => m.cms.wakes != m.cms.sessions_parked,
    };
    if leaked {
        violations.push(end(
            ViolationKind::MetricsConservation,
            format!(
                "leaked wakers: {} wakes for {} parks",
                m.cms.wakes, m.cms.sessions_parked
            ),
        ));
    }
    if let Some(pool) = system.cms().transport_pool_stats() {
        if pool.in_use != 0 {
            violations.push(end(
                ViolationKind::MetricsConservation,
                format!(
                    "client pool still has {} connection(s) checked out",
                    pool.in_use
                ),
            ));
        }
    }

    // Span-forest well-formedness (reused from braid-trace), checked per
    // session — span ids are allocated by the session's tracer, so each
    // session's ring is its own forest. Only meaningful when the ring
    // kept every event.
    for (si, ring) in rings.iter().enumerate() {
        if ring.dropped() == 0 {
            let events = ring.snapshot();
            if let Err(e) = braid_trace::verify_span_forest(&events) {
                violations.push(end(ViolationKind::SpanForest, format!("session {si}: {e}")));
            }
        }
    }
}

/// One solve as a lane recorded it.
struct Solve {
    /// Schedule position on the stepped lane; position within the
    /// session's own query list on the others.
    step: usize,
    session: usize,
    query: String,
    outcome: Result<CheckedSolutions, String>,
}

/// Ring capacity of each session's span log (events beyond it disable
/// the span-forest check rather than failing it).
const TRACE_EVENTS: usize = 1 << 16;

/// Fork a session with its own span ring attached.
fn open_session(system: &BraidSystem) -> (SessionHandle, Arc<RingSink>) {
    let ring = Arc::new(RingSink::new(TRACE_EVENTS));
    let mut session = system.session_owned();
    session
        .cms_mut()
        .attach_session_sink(Arc::clone(&ring) as _);
    (session, ring)
}

type Driven = (Vec<Solve>, Vec<Arc<RingSink>>);

/// [`Lane::Stepped`]: the calling thread follows `sc.schedule`.
fn drive_stepped(system: &BraidSystem, sc: &SimScenario) -> Driven {
    let (mut sessions, rings): (Vec<_>, Vec<_>) =
        sc.sessions.iter().map(|_| open_session(system)).unzip();
    let mut cursors = vec![0usize; sc.sessions.len()];
    let solves = sc
        .schedule
        .iter()
        .enumerate()
        .map(|(step, &session)| {
            let query = sc.sessions[session][cursors[session]].clone();
            cursors[session] += 1;
            let outcome = sessions[session]
                .solve_checked(&query, sc.strategy)
                .map_err(|e| e.to_string());
            Solve {
                step,
                session,
                query,
                outcome,
            }
        })
        .collect();
    (solves, rings)
}

/// [`Lane::Threads`] / [`Lane::Socket`]: one OS thread per session.
fn drive_threads(system: &BraidSystem, sc: &SimScenario) -> Driven {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sc
            .sessions
            .iter()
            .enumerate()
            .map(|(session, queries)| {
                scope.spawn(move || {
                    let (mut handle, ring) = open_session(system);
                    let solves: Vec<Solve> = queries
                        .iter()
                        .enumerate()
                        .map(|(step, query)| Solve {
                            step,
                            session,
                            query: query.clone(),
                            outcome: handle
                                .solve_checked(query, sc.strategy)
                                .map_err(|e| e.to_string()),
                        })
                        .collect();
                    (solves, ring)
                })
            })
            .collect();
        let (solves, rings): (Vec<Vec<Solve>>, Vec<_>) = handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .unzip();
        (solves.into_iter().flatten().collect(), rings)
    })
}

/// [`Lane::Pool`]: every session a [`SessionTask`] on one worker pool.
/// Solves come back session-major, whatever interleaving the pool chose.
fn drive_pool(
    system: &BraidSystem,
    sc: &SimScenario,
    opts: &SimOptions,
    violations: &mut Vec<Violation>,
) -> Driven {
    let pool = WorkerPool::with_metrics(
        PoolConfig {
            workers: opts.workers,
            ..PoolConfig::default()
        },
        system.cms().metrics_handle(),
    );
    let log: Arc<Mutex<Vec<Solve>>> = Arc::default();
    let mut rings = Vec::with_capacity(sc.sessions.len());
    for (session, queries) in sc.sessions.iter().enumerate() {
        let (handle, ring) = open_session(system);
        rings.push(ring);
        let (sink, texts) = (Arc::clone(&log), queries.clone());
        pool.spawn(Box::new(SessionTask::new(
            handle,
            queries.clone(),
            sc.strategy,
            move |step, outcome| {
                sink.lock().unwrap_or_else(|p| p.into_inner()).push(Solve {
                    step,
                    session,
                    query: texts[step].clone(),
                    outcome: outcome.map_err(|e| e.to_string()),
                });
            },
        )));
    }
    pool.join();
    let panicked = pool.snapshot().panicked;
    // Stop the workers before anyone inspects invariants; finished tasks
    // have already dropped their sessions (and with them any stream pins).
    pool.shutdown();
    if panicked != 0 {
        violations.push(end(
            ViolationKind::UnexpectedError,
            format!("{panicked} session task(s) panicked"),
        ));
    }
    let mut solves = std::mem::take(&mut *log.lock().unwrap_or_else(|p| p.into_inner()));
    solves.sort_by_key(|s| (s.session, s.step));
    (solves, rings)
}

/// [`Lane::Procs`]'s clients: the scenario's sessions, unpaced and
/// untraced.
fn procs_plan<'a>(sc: &'a SimScenario, opts: &'a SimOptions) -> ClientPlan<'a> {
    ClientPlan {
        strategy: sc.strategy,
        sessions: &sc.sessions,
        procs: opts.procs,
        pacing: None,
        trace_one_in: 0,
        spawn: &opts.spawn,
    }
}

/// [`Lane::Procs`]: `system` behind a [`BraidServer`], every session a
/// client connection to it, dealt across worker threads or forked
/// processes by the front-door driver ([`crate::clients`]), unpaced and
/// untraced. Workers send back digests, not answers, so a session whose
/// digest equals the model's chain comes back as the model's
/// (byte-identical) answers and any other session as errors naming the
/// discrepancy. The server is drained and shut down before returning, so
/// every connection's session is gone when the invariants are checked.
fn drive_procs(
    system: &Arc<BraidSystem>,
    sc: &SimScenario,
    model: &RefModel,
    opts: &SimOptions,
    violations: &mut Vec<Violation>,
) -> Result<Vec<Solve>, String> {
    let server = serve(Arc::clone(system), opts.workers)?;
    let run = run_clients(&server, model, &procs_plan(sc, opts))?;
    let mut solves = Vec::new();
    for (session, (queries, check)) in sc.sessions.iter().zip(run.checks).enumerate() {
        solves.extend(queries.iter().zip(check.answers).enumerate().map(
            |(step, (query, answer))| Solve {
                step,
                session,
                query: query.clone(),
                outcome: check.verdict.clone().map(|()| answer),
            },
        ));
    }
    // Every client said goodbye; the connection tasks must now retire on
    // their own, before shutdown would cut them.
    violations.extend(
        server
            .quiesce(Duration::from_secs(10))
            .into_iter()
            .map(|gauge| end(ViolationKind::MetricsConservation, gauge)),
    );
    server.shutdown();
    Ok(solves)
}

/// The one tally–digest–check pass over a lane's solves.
fn tally(
    sc: &SimScenario,
    model: &RefModel,
    opts: &SimOptions,
    solves: Vec<Solve>,
    violations: &mut Vec<Violation>,
) -> SimReport {
    let mut report = SimReport {
        solves: 0,
        exact: 0,
        partial: 0,
        tolerated_errors: 0,
        nonempty_answers: 0,
        digest: DIGEST_SEED,
        violations: Vec::new(),
    };
    let mut answered = vec![0usize; sc.sessions.len()];
    for Solve {
        step,
        session,
        query,
        outcome,
    } in solves
    {
        report.solves += 1;
        answered[session] += 1;
        let broken = match outcome {
            Ok(mut checked) => {
                if !checked.solutions.is_empty() {
                    report.nonempty_answers += 1;
                    if let SimBug::DropLastTuple { every } = opts.bug {
                        if every > 0 && report.nonempty_answers.is_multiple_of(every) {
                            checked.solutions.pop();
                        }
                    }
                }
                match checked.completeness {
                    Completeness::Exact => report.exact += 1,
                    Completeness::Partial { .. } => report.partial += 1,
                }
                digest_answer(&mut report.digest, &query, &checked);
                check_answer(model, sc, &query, &checked)
            }
            Err(e) => {
                fnv1a(&mut report.digest, format!("{query}|error").as_bytes());
                if sc.faults_active() {
                    report.tolerated_errors += 1;
                    Vec::new()
                } else {
                    vec![(
                        ViolationKind::UnexpectedError,
                        format!("solve failed without injected faults: {e}"),
                    )]
                }
            }
        };
        violations.extend(broken.into_iter().map(|(kind, detail)| Violation {
            step,
            session,
            query: query.clone(),
            kind,
            detail,
        }));
    }
    for (session, queries) in sc.sessions.iter().enumerate() {
        if answered[session] != queries.len() {
            violations.push(Violation {
                session,
                ..end(
                    ViolationKind::UnexpectedError,
                    format!(
                        "session ran {} of {} queries",
                        answered[session],
                        queries.len()
                    ),
                )
            });
        }
    }
    report
}

/// The remote engine behind a real TCP listener, reached through a
/// fault-injecting proxy ([`Lane::Socket`]). Quiet scenarios get a clean
/// pass-through proxy; faulted ones add connection resets and torn
/// frames, seeded from the scenario's fault seed so per-connection
/// decisions replay.
fn serve_remote(sc: &SimScenario) -> Result<(RemoteTcpServer, FaultProxy), String> {
    let engine = RemoteDbms::with_defaults(sc.dataset.catalog());
    let mut plan = ProxyPlan::healthy();
    if let Some(f) = &sc.faults {
        engine.set_fault_plan(Some(f.plan()));
        if f.is_active() {
            plan = ProxyPlan::seeded(f.seed)
                .with_resets(0.05)
                .with_truncation(0.05, 300);
        }
    }
    let server = RemoteTcpServer::serve(engine, TcpServerConfig::default())
        .map_err(|e| format!("socket lane: listen failed: {e}"))?;
    let proxy = FaultProxy::start(server.addr(), plan)
        .map_err(|e| format!("socket lane: proxy failed: {e}"))?;
    Ok((server, proxy))
}

/// Run a scenario on `lane` and check every oracle: each answer against
/// the reference model (an `Exact` answer must match it under *any*
/// interleaving), then the end-of-run invariants.
///
/// # Errors
/// Harness-level failures only (invalid scenario, model construction,
/// socket setup): oracle *violations* are reported in the returned
/// [`SimReport`], not as errors.
pub fn run_scenario(sc: &SimScenario, lane: Lane, opts: &SimOptions) -> Result<SimReport, String> {
    sc.validate()?;
    if !lane.accepts(sc) {
        return Err(format!(
            "fault-injecting scenarios cannot run on the {lane:?} lane"
        ));
    }
    let model = RefModel::new(&sc.dataset.catalog(), &sc.dataset.knowledge_base())?;
    let wire = match lane {
        Lane::Socket => Some(serve_remote(sc)?),
        _ => None,
    };
    let transport = match &wire {
        Some((_, proxy)) => {
            let mut client = TcpClientConfig::to(proxy.addr().to_string());
            client.connect_timeout_ms = 500;
            client.backoff_base_ms = 2;
            client.backoff_cap_ms = 16;
            TransportConfig::Tcp(client)
        }
        None => TransportConfig::InProcess,
    };
    // An `Arc` so the procs lane's front door can share it.
    let system = Arc::new(build_system_over(sc, transport));

    let mut violations = Vec::new();
    let (solves, rings) = match lane {
        Lane::Stepped => drive_stepped(&system, sc),
        Lane::Threads | Lane::Socket => drive_threads(&system, sc),
        Lane::Pool => drive_pool(&system, sc, opts, &mut violations),
        Lane::Procs => (
            drive_procs(&system, sc, &model, opts, &mut violations)?,
            Vec::new(),
        ),
    };
    let mut report = tally(sc, &model, opts, solves, &mut violations);
    check_invariants(
        sc,
        lane,
        &system,
        &rings,
        report.tolerated_errors,
        &mut violations,
    );
    if let Some((mut server, mut proxy)) = wire {
        drop(system);
        proxy.shutdown();
        server.shutdown();
        let active = server.stats().active;
        if active != 0 {
            violations.push(end(
                ViolationKind::MetricsConservation,
                format!("server still counts {active} active connection(s) after shutdown"),
            ));
        }
    }
    report.violations = violations;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::deal;
    use crate::spec::ClientSpec;

    /// First generated seed without faults and with data-bearing answers:
    /// the canvas for bug-injection meta-tests.
    fn quiet_seed_with_answers() -> (SimScenario, SimReport) {
        for seed in 0..100u64 {
            let sc = SimScenario::generate(seed);
            if sc.faults_active() {
                continue;
            }
            let report =
                run_scenario(&sc, Lane::Stepped, &SimOptions::default()).expect("harness runs");
            if report.nonempty_answers > 0 {
                return (sc, report);
            }
        }
        panic!("no fault-free scenario with non-empty answers in seeds 0..100");
    }

    #[test]
    fn a_simple_scenario_passes_clean() {
        let sc = SimScenario::generate(3);
        let report =
            run_scenario(&sc, Lane::Stepped, &SimOptions::default()).expect("harness runs");
        assert!(report.passed(), "violations: {:#?}", report.violations);
        assert_eq!(report.solves, sc.query_count());
    }

    #[test]
    fn runs_are_bit_for_bit_deterministic() {
        // Pick a seed with faults active so the fault path is under test.
        let sc = (0..200u64)
            .map(SimScenario::generate)
            .find(|s| s.faults_active() && s.sessions.len() > 1)
            .expect("generator produces faulted multi-session scenarios");
        let opts = SimOptions::default();
        let a = run_scenario(&sc, Lane::Stepped, &opts).expect("harness runs");
        let b = run_scenario(&sc, Lane::Stepped, &opts).expect("harness runs");
        assert_eq!(a, b, "same scenario must replay identically");
    }

    #[test]
    fn socket_lane_passes_clean_and_faulted() {
        let quiet = SimScenario::generate(3);
        let r = run_scenario(&quiet, Lane::Socket, &SimOptions::default()).expect("harness runs");
        assert!(r.passed(), "quiet violations: {:#?}", r.violations);
        assert_eq!(r.solves, quiet.query_count());

        let faulted = (0..200u64)
            .map(SimScenario::generate)
            .find(|s| s.faults_active())
            .expect("generator produces faulted scenarios");
        let r = run_scenario(&faulted, Lane::Socket, &SimOptions::default()).expect("harness runs");
        assert!(r.passed(), "faulted violations: {:#?}", r.violations);
    }

    #[test]
    fn pool_lane_passes_clean_and_faulted() {
        let quiet = (0..100u64)
            .map(SimScenario::generate)
            .find(|s| !s.faults_active() && s.sessions.len() > 1)
            .expect("generator produces quiet multi-session scenarios");
        let r = run_scenario(&quiet, Lane::Pool, &SimOptions::default()).expect("harness runs");
        assert!(r.passed(), "quiet violations: {:#?}", r.violations);
        assert_eq!(r.solves, quiet.query_count());
        assert_eq!(r.partial, 0, "fault-free pool answers are all Exact");

        let faulted = (0..200u64)
            .map(SimScenario::generate)
            .find(|s| s.faults_active())
            .expect("generator produces faulted scenarios");
        let r = run_scenario(&faulted, Lane::Pool, &SimOptions::default()).expect("harness runs");
        assert!(r.passed(), "faulted violations: {:#?}", r.violations);
    }

    #[test]
    fn procs_lane_digest_matches_the_threads_lane() {
        // Thread spawn mode: the libtest binary cannot self-exec as a
        // worker (crates/bench/tests/multiprocess.rs forks real ones).
        let (sc, _) = quiet_seed_with_answers();
        let opts = SimOptions::default();
        let procs = run_scenario(&sc, Lane::Procs, &opts).expect("harness runs");
        assert!(procs.passed(), "violations: {:#?}", procs.violations);
        assert_eq!(procs.solves, sc.query_count());
        let threads = run_scenario(&sc, Lane::Threads, &opts).expect("harness runs");
        assert_eq!(
            procs.digest, threads.digest,
            "quiet session-major digests agree across lanes"
        );
    }

    #[test]
    fn proc_spec_json_round_trips() {
        // What a forked procs-lane worker reads on stdin: generated query
        // text survives the JSON trip, and every session is dealt to
        // exactly one worker.
        let sc = SimScenario::generate(42);
        let opts = SimOptions {
            procs: 3,
            ..SimOptions::default()
        };
        let mut dealt = Vec::new();
        for spec in deal(&procs_plan(&sc, &opts), "127.0.0.1:9") {
            let back = ClientSpec::from_json(&spec.to_json()).expect("parses");
            assert_eq!(back, spec);
            dealt.extend(back.sessions);
        }
        dealt.sort_by_key(|(session, _)| *session);
        let want: Vec<(u32, Vec<String>)> = (0..).zip(sc.sessions.iter().cloned()).collect();
        assert_eq!(dealt, want);
    }

    #[test]
    fn pool_digest_is_schedule_independent_on_quiet_seeds() {
        // The session-major digest orders answers per session, so for a
        // fault-free scenario it must be identical across runs even
        // though the pool interleaves sessions differently each time.
        let (sc, _) = quiet_seed_with_answers();
        let opts = SimOptions::default();
        let a = run_scenario(&sc, Lane::Pool, &opts).expect("harness runs");
        let b = run_scenario(&sc, Lane::Pool, &opts).expect("harness runs");
        assert!(a.passed(), "violations: {:#?}", a.violations);
        assert_eq!(
            a.digest, b.digest,
            "pool digest must not depend on interleaving"
        );
    }

    /// No `..`: a new field does not compile until it is listed here
    /// with what tells its values apart (and in DESIGN.md §3).
    #[test]
    fn every_field_is_accounted_for() {
        let SimOptions {
            bug: _,     // `injected_bug_is_caught`; the shrinker's meta-tests
            workers: _, // `SIM_WORKERS`: the pool and procs lanes' server pool
            procs: _,   // `SIM_PROCS`: the procs lane's client count
            spawn: _,   // threads under `cargo test`, processes under `sim --soak`
        } = SimOptions::default();
    }

    #[test]
    fn injected_bug_is_caught() {
        let (sc, clean) = quiet_seed_with_answers();
        assert!(
            clean.passed(),
            "clean run must pass: {:#?}",
            clean.violations
        );
        let opts = SimOptions {
            bug: SimBug::DropLastTuple { every: 1 },
            ..SimOptions::default()
        };
        let report = run_scenario(&sc, Lane::Stepped, &opts).expect("harness runs");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::AnswerMismatch),
            "oracle must catch the dropped tuple, got {:#?}",
            report.violations
        );
    }
}
