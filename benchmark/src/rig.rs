//! The topology every workload runs on, and the three rungs of the
//! ladder — the entry points a query can be handed to.
//!
//! ```text
//! rung 0  BraidClient ──TCP──▶ BraidServer (2 workers) ─▶ session
//! rung 1                                  SessionHandle ─▶ IE ─▶ CMS
//! rung 2                                                  Cms::query
//!                                   CMS ──TCP──▶ RemoteTcpServer ─▶ RemoteDbms
//! ```
//!
//! The remote engine counts requests but never sleeps
//! (`LatencyModel::Counted`), and the CMS keeps its user-facing defaults
//! (`CmsConfig::braid()`, so columnar stays off) apart from the cache
//! capacity the workload pins.

use crate::gen::Dataset;
use crate::workloads::Query;
use braid::{
    BraidClient, BraidConfig, BraidServer, BraidServerConfig, BraidSystem, Cms, CmsConfig,
    ConjunctiveQuery, CostModel, InferenceEngine, LatencyModel, RemoteDbms, RemoteTcpServer,
    SessionHandle, Strategy, TcpClientConfig, TcpServerConfig, TransportConfig, Tuple,
};
use braid_caql::Atom;
use std::hash::{Hash, Hasher};
use std::io;
use std::time::{Duration, Instant};

pub const STRATEGY: Strategy = Strategy::ConjunctionCompiled;
/// Session-pool workers of the front door.
pub const SERVER_WORKERS: usize = 2;

pub struct Rig {
    /// The engine that does the counting. With a TCP transport the
    /// system's own `metrics().remote` stays at zero: the requests land
    /// on this handle, the one behind the listener.
    pub remote: RemoteDbms,
    remote_tcp: RemoteTcpServer,
    pub server: BraidServer,
}

impl Rig {
    pub fn start(data: &Dataset, cache_capacity_bytes: usize) -> io::Result<Rig> {
        let remote = RemoteDbms::new(
            data.catalog.clone(),
            CostModel::default(),
            LatencyModel::Counted,
        );
        let remote_tcp = RemoteTcpServer::serve(remote.clone(), TcpServerConfig::default())?;
        let cms = CmsConfig::braid()
            .with_capacity(cache_capacity_bytes)
            .with_transport(TransportConfig::Tcp(TcpClientConfig::to(
                remote_tcp.addr().to_string(),
            )));
        // The system's own catalog copy only serves schema and statistics
        // look-ups; tuples come over the wire.
        let system = BraidSystem::new(
            data.catalog.clone(),
            data.kb.clone(),
            BraidConfig::with_cms(cms),
        );
        let server = BraidServer::start(
            system,
            BraidServerConfig {
                workers: SERVER_WORKERS,
                ..BraidServerConfig::default()
            },
        )?;
        Ok(Rig {
            remote,
            remote_tcp,
            server,
        })
    }

    pub fn cms(&self) -> &Cms {
        self.server.system().cms()
    }

    pub fn client(&self) -> io::Result<Client> {
        BraidClient::connect(self.server.local_addr()).map(|c| Client(Some(c)))
    }

    pub fn session(&self) -> Session {
        Session(self.server.system().session_owned())
    }

    pub fn cms_direct(&self) -> CmsDirect {
        let system = self.server.system();
        CmsDirect {
            engine: system.engine().clone(),
            cms: system.cms().fork_session(),
        }
    }

    /// Stop both servers. Every gauge must have drained first: returns
    /// one line per gauge that did not.
    pub fn shutdown(mut self) -> Vec<String> {
        let mut leaks = Vec::new();
        // Goodbyes retire connection tasks asynchronously on the pool.
        let deadline = Instant::now() + Duration::from_secs(2);
        let drained = loop {
            let (stats, pool) = (self.server.stats(), self.server.pool_snapshot());
            if stats.active == 0 && pool.spawned == pool.finished {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        if !drained {
            leaks.push(format!(
                "front door did not drain: {:?} {:?}",
                self.server.stats(),
                self.server.pool_snapshot()
            ));
        }
        if let Some(pool) = self.cms().transport_pool_stats() {
            if pool.in_use != 0 {
                leaks.push(format!(
                    "{} remote connections still checked out",
                    pool.in_use
                ));
            }
        }
        if self.cms().open_flights() != 0 {
            leaks.push(format!("{} flights still open", self.cms().open_flights()));
        }
        self.server.shutdown();
        self.remote_tcp.shutdown();
        if self.remote_tcp.stats().active != 0 {
            leaks.push(format!(
                "{} remote server connections still open",
                self.remote_tcp.stats().active
            ));
        }
        leaks
    }
}

/// What one query came to at one rung.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Time inside the rung's entry point only.
    pub latency: Duration,
    pub tuples: Vec<Tuple>,
    /// `Err` for a typed error, `Ok(false)` for a `Partial` answer.
    pub exact: Result<bool, String>,
}

/// Order-sensitive digest of an answer; rungs 0 and 1 and the oracle all
/// return sorted, deduplicated tuples.
pub fn digest(tuples: &[Tuple]) -> u64 {
    // `DefaultHasher::new()` uses fixed keys: same tuples, same digest.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tuples.hash(&mut h);
    h.finish()
}

/// An entry point that answers one AI query at a time.
pub trait Rung: Send {
    fn ask(&mut self, query: &Query) -> Outcome;
}

fn checked(
    started: Instant,
    result: Result<braid::CheckedSolutions, braid::BraidError>,
) -> Outcome {
    let latency = started.elapsed();
    match result {
        Ok(answer) => Outcome {
            latency,
            exact: Ok(answer.is_exact()),
            tuples: answer.solutions,
        },
        Err(e) => Outcome {
            latency,
            exact: Err(e.to_string()),
            tuples: Vec::new(),
        },
    }
}

/// Rung 0: the whole system, as a client on a socket sees it.
pub struct Client(Option<BraidClient>);

impl Rung for Client {
    fn ask(&mut self, query: &Query) -> Outcome {
        let client = self.0.as_mut().expect("connected until dropped");
        let started = Instant::now();
        checked(started, client.solve_checked(&query.text, STRATEGY))
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        if let Some(client) = self.0.take() {
            client.goodbye();
        }
    }
}

/// Rung 1: the same session the server would run, called in-process —
/// no socket, no codec, no worker pool.
pub struct Session(SessionHandle);

impl Rung for Session {
    fn ask(&mut self, query: &Query) -> Outcome {
        let started = Instant::now();
        checked(started, self.0.solve_checked(&query.text, STRATEGY))
    }
}

/// Rung 2: the CAQL queries the IE would emit, handed straight to the
/// CMS. Parsing, translation and advice generation happen before the
/// clock starts; installing the advice and answering the view queries is
/// what is timed.
pub struct CmsDirect {
    engine: InferenceEngine,
    cms: Cms,
}

impl CmsDirect {
    /// The CMS-level queries one AI query turns into: one per view
    /// specification of its (non-recursive, single-rule) goal.
    pub fn caql_queries(
        engine: &InferenceEngine,
        cms: &Cms,
        text: &str,
    ) -> Result<(braid::Advice, Vec<ConjunctiveQuery>), String> {
        let goal = braid::parse_query(text).map_err(|e| e.to_string())?;
        let stats = cms.remote().catalog().stats_snapshot();
        let (_, spec, advice) = engine
            .prepare(&goal, STRATEGY, &stats)
            .map_err(|e| e.to_string())?;
        let queries = spec
            .specs
            .iter()
            .map(|view| {
                let head = Atom::new(
                    view.name.clone(),
                    view.params.iter().map(|(t, _)| t.clone()).collect(),
                );
                ConjunctiveQuery::new(head, view.body.clone())
            })
            .collect();
        Ok((advice, queries))
    }
}

impl Rung for CmsDirect {
    fn ask(&mut self, query: &Query) -> Outcome {
        let (advice, queries) = match Self::caql_queries(&self.engine, &self.cms, &query.text) {
            Ok(prepared) => prepared,
            Err(e) => {
                return Outcome {
                    latency: Duration::ZERO,
                    tuples: Vec::new(),
                    exact: Err(e),
                }
            }
        };
        let started = Instant::now();
        let _ = self.cms.take_missing_subqueries();
        self.cms.begin_session(advice);
        let mut tuples = Vec::new();
        let mut error = None;
        for q in queries {
            match self.cms.query(q) {
                Ok(stream) => tuples.extend(stream.drain()),
                Err(e) => error = Some(e.to_string()),
            }
        }
        let exact = self.cms.take_missing_subqueries().is_empty();
        let latency = started.elapsed();
        Outcome {
            latency,
            tuples,
            exact: error.map_or(Ok(exact), Err),
        }
    }
}
