//! The assembled BrAID system: IE + CMS + remote DBMS per Figure 3.

use crate::explain::ExplainReport;
use crate::metrics::CombinedMetrics;
use braid_caql::{parse_query, Atom};
use braid_cms::trace::{RingSink, TraceSink};
use braid_cms::{Cms, CmsConfig, CmsError, Completeness, Waker};
use braid_ie::engine::Solutions;
use braid_ie::{IeError, InferenceEngine, KnowledgeBase, Strategy};
use braid_relational::Tuple;
use braid_remote::{Catalog, CostModel, FaultPlan, LatencyModel, RemoteDbms};
use std::fmt;
use std::sync::Arc;
use std::task::Poll;

/// Configuration of the whole bridge.
#[derive(Debug, Clone)]
pub struct BraidConfig {
    /// CMS behaviour (the Figure 2 technique switchboard).
    pub cms: CmsConfig,
    /// Remote cost model.
    pub cost: CostModel,
    /// Latency realization (counted vs wall-clock).
    pub latency: LatencyModel,
    /// Fault injection at the remote side (chaos experiments). `None`
    /// means a perfectly reliable server.
    pub faults: Option<FaultPlan>,
}

impl Default for BraidConfig {
    fn default() -> Self {
        BraidConfig {
            cms: CmsConfig::braid(),
            cost: CostModel::default(),
            latency: LatencyModel::Counted,
            faults: None,
        }
    }
}

impl BraidConfig {
    /// Full BrAID with a specific CMS configuration.
    pub fn with_cms(cms: CmsConfig) -> BraidConfig {
        BraidConfig {
            cms,
            ..BraidConfig::default()
        }
    }

    /// Install a remote fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> BraidConfig {
        self.faults = Some(faults);
        self
    }

    /// Install a structured-tracing sink shared by every session (and the
    /// remote server) of the assembled system.
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> BraidConfig {
        self.cms = self.cms.with_trace(sink);
        self
    }
}

/// Errors from the assembled system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BraidError {
    /// An inference engine error.
    Ie(IeError),
    /// A CMS error.
    Cms(CmsError),
    /// A query parse error.
    Parse(String),
    /// A braid-server transport failure or server-reported error (see
    /// [`crate::server::BraidClient`]).
    Server(String),
}

impl fmt::Display for BraidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BraidError::Ie(e) => write!(f, "{e}"),
            BraidError::Cms(e) => write!(f, "{e}"),
            BraidError::Parse(m) => write!(f, "{m}"),
            BraidError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for BraidError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BraidError::Ie(e) => Some(e),
            BraidError::Cms(e) => Some(e),
            BraidError::Parse(_) | BraidError::Server(_) => None,
        }
    }
}

impl From<IeError> for BraidError {
    fn from(e: IeError) -> Self {
        BraidError::Ie(e)
    }
}

impl From<CmsError> for BraidError {
    fn from(e: CmsError) -> Self {
        BraidError::Cms(e)
    }
}

impl BraidError {
    /// Is this the cooperative scheduler's internal "park me" signal
    /// ([`CmsError::WouldBlock`]), possibly wrapped by the IE? The worker
    /// pool treats it as "suspend the session", never as a user-visible
    /// failure.
    pub fn is_would_block(&self) -> bool {
        match self {
            BraidError::Cms(e) => e.is_would_block(),
            BraidError::Ie(IeError::Cms(e)) => e.is_would_block(),
            _ => false,
        }
    }
}

/// The assembled BrAID system (Figure 3): "BrAID consists of three major
/// components, an inference engine (IE), a Cache Management System (CMS),
/// and a remote DBMS. The first two are realized on a workstation and the
/// third is realized on a separate system."
///
/// The system *is* its first session: it dereferences to a root
/// [`SessionHandle`], so every solve method is called on it directly, and
/// [`BraidSystem::session_owned`] opens further sessions over the same
/// cache.
pub struct BraidSystem {
    root: SessionHandle,
}

impl BraidSystem {
    /// Assemble a system: the catalog becomes the remote database, the
    /// knowledge base drives the IE, the config tunes the CMS and the
    /// simulated workstation–server boundary.
    pub fn new(catalog: Catalog, kb: KnowledgeBase, config: BraidConfig) -> BraidSystem {
        let remote = RemoteDbms::new(catalog, config.cost, config.latency);
        remote.set_fault_plan(config.faults);
        // The server emits its own (parentless) remote.request events
        // into the same shared sink.
        remote.set_trace(config.cms.trace.clone());
        BraidSystem {
            root: SessionHandle {
                engine: Arc::new(InferenceEngine::new(kb)),
                cms: Cms::new(remote, config.cms),
            },
        }
    }

    /// Combined cost metrics.
    pub fn metrics(&self) -> CombinedMetrics {
        CombinedMetrics {
            remote: self.cms().remote().metrics(),
            cms: self.cms().metrics(),
        }
    }

    /// Reset the remote-side counters (between experiment phases).
    pub fn reset_remote_metrics(&self) {
        self.cms().remote().reset_metrics();
    }

    /// Open a new session against the shared cache. Takes `&self`, so N
    /// sessions can be opened from one system and driven on N threads or
    /// boxed into scheduler tasks: the handle is `'static` (it holds the
    /// inference engine by `Arc`). Sessions share the cache, the remote
    /// handle, the metrics sink and the single-flight fetch table, while
    /// each keeps its own advice tracker, circuit breaker and
    /// completeness bookkeeping — the paper's "set of sessions" (§3) made
    /// concurrent.
    pub fn session_owned(&self) -> SessionHandle {
        SessionHandle {
            engine: Arc::clone(&self.root.engine),
            cms: self.root.cms.fork_session(),
        }
    }
}

impl std::ops::Deref for BraidSystem {
    type Target = SessionHandle;

    fn deref(&self) -> &SessionHandle {
        &self.root
    }
}

impl std::ops::DerefMut for BraidSystem {
    fn deref_mut(&mut self) -> &mut SessionHandle {
        &mut self.root
    }
}

/// One session of a [`BraidSystem`]: the only way a query runs.
///
/// The blocking methods and [`SessionHandle::poll_checked`] run the same
/// solve; they differ in who sleeps when a remote fetch joins one that
/// another session is already leading. A blocking call parks the calling
/// thread (for at most 30 s, after which the join surfaces the
/// transient `CmsError::FlightStranded`); a poll parks the
/// *session* and hands the thread back to its scheduler.
pub struct SessionHandle {
    engine: Arc<InferenceEngine>,
    cms: Cms,
}

impl SessionHandle {
    /// The inference engine (shared by every session of the system).
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    /// This session's CMS view (shared cache, per-session state).
    pub fn cms(&self) -> &Cms {
        &self.cms
    }

    /// Mutable CMS access (e.g. to submit hand-written advice/queries).
    pub fn cms_mut(&mut self) -> &mut Cms {
        &mut self.cms
    }

    /// Solve an AI query given as text (`?- k1(X, Y).`), returning the
    /// solution stream.
    ///
    /// # Errors
    /// Propagates parse, IE and CMS errors.
    pub fn solve(&mut self, query: &str, strategy: Strategy) -> Result<Solutions<'_>, BraidError> {
        self.solve_atom(&parse_goal(query)?, strategy)
    }

    /// Solve an already-parsed AI query.
    ///
    /// # Errors
    /// Propagates IE and CMS errors.
    pub fn solve_atom(
        &mut self,
        goal: &Atom,
        strategy: Strategy,
    ) -> Result<Solutions<'_>, BraidError> {
        Ok(self.engine.solve(&mut self.cms, goal, strategy)?)
    }

    /// Solve and collect unique, sorted solutions.
    ///
    /// # Errors
    /// Propagates parse, IE and CMS errors.
    pub fn solve_all(&mut self, query: &str, strategy: Strategy) -> Result<Vec<Tuple>, BraidError> {
        let goal = parse_goal(query)?;
        Ok(self.engine.solve_all(&mut self.cms, &goal, strategy)?)
    }

    /// Like [`SessionHandle::solve_all`], additionally reporting whether
    /// the solutions are provably complete. In degraded mode (remote
    /// unreachable, cache coverage unprovable) the answer comes back
    /// [`Completeness::Partial`] with the unanswerable subqueries named.
    ///
    /// # Errors
    /// Propagates parse, IE and CMS errors.
    pub fn solve_checked(
        &mut self,
        query: &str,
        strategy: Strategy,
    ) -> Result<CheckedSolutions, BraidError> {
        solve_checked_on(&self.engine, &mut self.cms, query, strategy)
    }

    /// One poll of [`SessionHandle::solve_checked`] on behalf of a
    /// scheduler task (a [`SessionTask`](crate::SessionTask), a server
    /// connection): instead of parking the thread on a fetch another
    /// session is leading, the solve registers `waker` with that fetch
    /// and comes back [`Poll::Pending`]. Poll the *same* query again
    /// once the waker fires; the retry consumes the joined result (and
    /// anything this session already fetched itself) instead of
    /// re-fetching, so the answer is byte-identical to the blocking
    /// call's.
    pub fn poll_checked(
        &mut self,
        query: &str,
        strategy: Strategy,
        waker: &Waker,
    ) -> Poll<Result<CheckedSolutions, BraidError>> {
        let engine = &self.engine;
        self.cms.poll_with(waker, |cms| {
            match solve_checked_on(engine, cms, query, strategy) {
                Err(e) if e.is_would_block() => Poll::Pending,
                done => Poll::Ready(done),
            }
        })
    }

    /// Like [`SessionHandle::solve_checked`], additionally capturing this
    /// solve's span tree and folding it into a per-query EXPLAIN report:
    /// advice consulted, planner decisions, cached views matched by
    /// subsumption, remainder subqueries shipped remote, faults survived,
    /// and the completeness verdict.
    ///
    /// # Errors
    /// Propagates parse, IE and CMS errors.
    pub fn solve_explained(
        &mut self,
        query: &str,
        strategy: Strategy,
    ) -> Result<ExplainedSolutions, BraidError> {
        let ring = Arc::new(RingSink::new(4096));
        self.cms
            .attach_session_sink(Arc::clone(&ring) as Arc<dyn TraceSink>);
        let result = self.solve_checked(query, strategy);
        self.cms.detach_session_sink();
        let checked = result?;
        let report = ExplainReport::from_events(
            query,
            checked.solutions.len(),
            checked.completeness.clone(),
            ring.drain(),
        );
        Ok(ExplainedSolutions {
            solutions: checked.solutions,
            completeness: checked.completeness,
            report,
        })
    }
}

fn parse_goal(query: &str) -> Result<Atom, BraidError> {
    parse_query(query).map_err(|e| BraidError::Parse(e.to_string()))
}

/// The one solve body behind [`SessionHandle::solve_checked`] and
/// [`SessionHandle::poll_checked`].
fn solve_checked_on(
    engine: &InferenceEngine,
    cms: &mut Cms,
    query: &str,
    strategy: Strategy,
) -> Result<CheckedSolutions, BraidError> {
    // Clear anything accumulated by earlier queries so the tag reflects
    // this solve only.
    let _ = cms.take_missing_subqueries();
    let solutions = engine.solve_all(cms, &parse_goal(query)?, strategy)?;
    let missing = cms.take_missing_subqueries();
    let completeness = if missing.is_empty() {
        Completeness::Exact
    } else {
        Completeness::Partial {
            missing_subqueries: missing,
        }
    };
    Ok(CheckedSolutions {
        solutions,
        completeness,
    })
}

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHandle")
            .field("cache_elements", &self.cms.cache_len())
            .finish()
    }
}

/// Solutions, completeness, and the EXPLAIN report describing how they
/// were produced (see [`SessionHandle::solve_explained`]).
#[derive(Debug, Clone)]
pub struct ExplainedSolutions {
    /// Unique, sorted solution tuples.
    pub solutions: Vec<Tuple>,
    /// Completeness verdict for this solve.
    pub completeness: Completeness,
    /// The reconstructed per-query EXPLAIN report.
    pub report: ExplainReport,
}

/// Solutions plus the completeness contract they were produced under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedSolutions {
    /// Unique, sorted solution tuples.
    pub solutions: Vec<Tuple>,
    /// [`Completeness::Exact`] unless a degraded (cache-only) answer
    /// contributed to the solve.
    pub completeness: Completeness,
}

impl CheckedSolutions {
    /// Shorthand: is the solution set provably complete?
    pub fn is_exact(&self) -> bool {
        self.completeness.is_exact()
    }
}

impl fmt::Debug for BraidSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BraidSystem")
            .field("cache_elements", &self.cms().cache_len())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use braid_relational::{tuple, Relation, Schema};

    /// The three-generation genealogy this crate's unit tests solve over.
    pub(crate) fn system(config: BraidConfig) -> BraidSystem {
        let mut db = Catalog::new();
        db.install(
            Relation::from_tuples(
                Schema::of_strs("parent", &["p", "c"]),
                vec![
                    tuple!["ann", "bob"],
                    tuple!["bob", "cal"],
                    tuple!["cal", "dee"],
                ],
            )
            .unwrap(),
        );
        let mut kb = KnowledgeBase::new();
        kb.declare_base("parent", 2);
        kb.add_program(
            "gp(X, Y) :- parent(X, Z), parent(Z, Y).\n\
             anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).",
        )
        .unwrap();
        BraidSystem::new(db, kb, config)
    }

    /// No `..`: a new field does not compile until it is listed here
    /// with what tells its values apart (and in DESIGN.md §3).
    #[test]
    fn every_field_is_accounted_for() {
        let BraidConfig {
            cms: _,     // `braid_cms::config`'s own guard
            cost: _,    // nothing yet: no caller sets it (ROADMAP item 10)
            latency: _, // `Real` in `concurrent_sessions` and `cooperative_sessions`
            faults: _,  // the sim's faulted scenarios; E11; `tests/fault_tolerance.rs`
        } = BraidConfig::default();
    }

    #[test]
    fn end_to_end_solve() {
        let mut b = system(BraidConfig::default());
        let sols = b
            .solve_all("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        assert_eq!(sols.len(), 3);
        let m = b.metrics();
        assert!(m.remote.requests > 0);
        assert!(m.cms.queries > 0);
    }

    #[test]
    fn repeat_queries_get_cheaper() {
        let mut b = system(BraidConfig::default());
        b.solve_all("?- gp(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        let after_first = b.metrics();
        b.solve_all("?- gp(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        let delta = b.metrics().since(&after_first);
        assert_eq!(delta.remote.requests, 0, "second run served from cache");
    }

    #[test]
    fn loose_coupling_config_disables_caching() {
        let mut b = system(BraidConfig::with_cms(CmsConfig::coupled(
            braid_cms::Coupling::Loose,
        )));
        b.solve_all("?- gp(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        let after_first = b.metrics();
        b.solve_all("?- gp(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        let delta = b.metrics().since(&after_first);
        assert!(delta.remote.requests > 0, "loose coupling re-fetches");
    }

    #[test]
    fn parse_error_reported() {
        let mut b = system(BraidConfig::default());
        assert!(matches!(
            b.solve_all("?- gp(ann", Strategy::Interpreted),
            Err(BraidError::Parse(_))
        ));
    }

    #[test]
    fn sessions_share_one_cache() {
        let b = system(BraidConfig::default());
        let mut s1 = b.session_owned();
        s1.solve_all("?- gp(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        let after = b.metrics();
        // A *different* session sees the first session's cached results.
        let mut s2 = b.session_owned();
        let sols = s2
            .solve_all("?- gp(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        assert_eq!(sols.len(), 1);
        let delta = b.metrics().since(&after);
        assert_eq!(delta.remote.requests, 0, "served from the shared cache");
    }

    #[test]
    fn concurrent_sessions_all_get_the_same_answer() {
        let b = system(BraidConfig::default());
        let expected = b
            .session_owned()
            .solve_all("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut sess = b.session_owned();
                    s.spawn(move || {
                        sess.solve_all("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
                            .unwrap()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expected);
            }
        });
    }

    #[test]
    fn strategies_agree_end_to_end() {
        for strat in [
            Strategy::Interpreted,
            Strategy::ConjunctionCompiled,
            Strategy::FullyCompiled,
        ] {
            let mut b = system(BraidConfig::default());
            let sols = b.solve_all("?- anc(ann, Y).", strat).unwrap();
            assert_eq!(sols.len(), 3, "strategy {strat:?}");
        }
    }
}
