//! E16 — the CMS over real sockets: pooled TCP transport under
//! wire-level chaos.
//!
//! E11 injects faults *inside* the simulated engine, over the in-process
//! call path; this experiment scales sessions and injects faults over an
//! actual loopback TCP link. The remote engine sits behind a
//! [`RemoteTcpServer`]; a [`FaultProxy`] in front of it injects
//! connection resets, torn frames (byte-level truncation) and outage
//! windows; N concurrent CMS sessions drive the same selection workload
//! through a shared [`TcpClientPool`](braid_remote::TcpClientPool).
//!
//! Reported per lane: workload completion split Exact/Partial, how much
//! connection-level repair the pool did (resumes of interrupted streams,
//! discarded sockets, total connects), and the p99 end-to-end query
//! latency from the CMS histogram — the number that shows what chaos
//! costs once retries, resumes and reconnect backoff are all paid.

use crate::experiments::support::binary_relation;
use crate::table::Table;
use braid_caql::parse_rule;
use braid_cms::{Cms, CmsConfig, ResilienceConfig};
use braid_net::{FaultProxy, ProxyFault, ProxyPlan};
use braid_remote::{
    Catalog, RemoteDbms, RemoteTcpServer, TcpClientConfig, TcpServerConfig, TransportConfig,
};

fn catalog(rows: usize) -> Catalog {
    let mut c = Catalog::new();
    c.install(binary_relation("fam", rows, 24, 7));
    c
}

/// Which fetch path a lane exercises.
#[derive(Debug, Clone)]
pub enum Lane {
    /// The default in-process transport (no sockets) — the baseline.
    InProcess,
    /// Pooled TCP through an optional fault proxy.
    Tcp {
        /// Idle connections the client pool retains (0 ⇒ a fresh dial
        /// per request, so every request rolls the proxy's fault dice).
        pool: usize,
        /// Wire faults; `None` connects straight to the server.
        plan: Option<ProxyPlan>,
    },
}

/// What one lane of the sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOutcome {
    /// Queries that produced an answer stream (exact or partial).
    pub completed: usize,
    /// Answers tagged `Completeness::Exact`.
    pub exact: usize,
    /// Degraded cache-only answers.
    pub partial: usize,
    /// Queries that surfaced an error.
    pub failed: usize,
    /// Interrupted streams resumed with a `skip` re-request.
    pub resumes: u64,
    /// Connections discarded as unusable.
    pub discards: u64,
    /// Sockets dialed over the run.
    pub connects: u64,
    /// p99 end-to-end CMS query latency, microseconds.
    pub p99_us: u64,
}

/// Drive `sessions` concurrent CMS sessions, each issuing `queries` key
/// selections over `fam` (keys repeat, so later hits come from the
/// shared cache), through the lane's transport.
pub fn run_workload(rows: usize, queries: usize, sessions: usize, lane: &Lane) -> NetOutcome {
    // Infrastructure for the TCP lanes: engine behind a listener, and a
    // fault proxy in front when the lane asks for one.
    let (mut server, mut proxy, transport) = match lane {
        Lane::InProcess => (None, None, TransportConfig::InProcess),
        Lane::Tcp { pool, plan } => {
            let server = RemoteTcpServer::serve(
                RemoteDbms::with_defaults(catalog(rows)),
                TcpServerConfig::default(),
            )
            .expect("bind loopback listener");
            let proxy = plan
                .clone()
                .map(|p| FaultProxy::start(server.addr(), p).expect("start fault proxy"));
            let addr = proxy.as_ref().map_or(server.addr(), |p| p.addr());
            let mut c = TcpClientConfig::to(addr.to_string());
            c.pool_size = *pool;
            c.connect_timeout_ms = 500;
            c.backoff_base_ms = 2;
            c.backoff_cap_ms = 16;
            (Some(server), proxy, TransportConfig::Tcp(c))
        }
    };

    let resilience = ResilienceConfig::none()
        .with_retries(5)
        .with_backoff(4, 32)
        .with_degraded_mode(true);
    let config = CmsConfig::braid()
        .with_prefetching(false)
        .with_generalization(false)
        .with_resilience(resilience)
        .with_transport(transport);
    let cms = Cms::new(RemoteDbms::with_defaults(catalog(rows)), config);

    // Same workload per session (the sharing best case):
    // distinct key selections that repeat past 24 keys.
    let rules: Vec<String> = (0..queries)
        .map(|i| format!("r{0}(V) :- fam(k{0}, V).", i % 24))
        .collect();

    let per_session: Vec<(usize, usize, usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                let mut sess = cms.fork_session();
                let rules = &rules;
                s.spawn(move || {
                    let (mut completed, mut exact, mut partial, mut failed) = (0, 0, 0, 0);
                    for rule in rules {
                        match sess.query(parse_rule(rule).unwrap()) {
                            Ok(stream) => {
                                completed += 1;
                                if stream.is_exact() {
                                    exact += 1;
                                } else {
                                    partial += 1;
                                }
                                stream.drain();
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    (completed, exact, partial, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session"))
            .collect()
    });

    let pool = cms.transport_pool_stats().unwrap_or_default();
    let p99_us = cms.metrics().query_latency_us.p99();
    if let Some(p) = proxy.as_mut() {
        p.shutdown();
    }
    if let Some(srv) = server.as_mut() {
        srv.shutdown();
        assert_eq!(srv.stats().active, 0, "server leaked a connection");
    }
    assert_eq!(pool.in_use, 0, "client pool leaked a connection");

    let mut out = NetOutcome {
        completed: 0,
        exact: 0,
        partial: 0,
        failed: 0,
        resumes: pool.resumes,
        discards: pool.discards,
        connects: pool.connects,
        p99_us,
    };
    for (c, e, p, f) in per_session {
        out.completed += c;
        out.exact += e;
        out.partial += p;
        out.failed += f;
    }
    out
}

/// Run E16.
pub fn run(quick: bool) -> Table {
    let rows = if quick { 120 } else { 300 };
    let queries = if quick { 12 } else { 36 };
    let sessions = 4;
    let total = queries * sessions;
    let mut t = Table::new(
        format!(
            "E16 TCP transport under wire faults — {sessions} sessions × {queries} queries, loopback"
        ),
        &[
            "lane",
            "completed",
            "exact",
            "partial",
            "resumes",
            "discards",
            "connects",
            "p99 query µs",
        ],
    );

    // Guaranteed faults on the first two connections (a torn reply and a
    // reset) on top of the probabilistic mix: with pooling and
    // single-flight dedup a lane may otherwise ride one lucky healthy
    // socket through the whole workload and show nothing.
    let chaos = || {
        ProxyPlan::seeded(11)
            .with_scheduled(0, ProxyFault::Truncate { after_bytes: 400 })
            .with_scheduled(1, ProxyFault::Reset)
            .with_resets(0.10)
            .with_truncation(0.10, 300)
            .with_outage(8, 11)
    };
    let lanes: Vec<(&str, Lane)> = vec![
        ("in-process (no sockets)", Lane::InProcess),
        (
            "tcp, pool=1, healthy",
            Lane::Tcp {
                pool: 1,
                plan: None,
            },
        ),
        (
            "tcp, pool=4, healthy",
            Lane::Tcp {
                pool: 4,
                plan: None,
            },
        ),
        (
            "tcp, pool=4, chaos proxy",
            Lane::Tcp {
                pool: 4,
                plan: Some(chaos()),
            },
        ),
        (
            "tcp, no reuse, chaos proxy",
            Lane::Tcp {
                pool: 0,
                plan: Some(chaos()),
            },
        ),
    ];

    for (label, lane) in &lanes {
        let o = run_workload(rows, queries, sessions, lane);
        t.row(vec![
            (*label).to_string(),
            format!("{}/{total}", o.completed),
            o.exact.to_string(),
            o.partial.to_string(),
            o.resumes.to_string(),
            o.discards.to_string(),
            o.connects.to_string(),
            o.p99_us.to_string(),
        ]);
    }

    t.note(
        "A healthy loopback link completes the workload Exact with a \
         handful of pooled connections; the socket hop costs microseconds \
         against the in-process baseline. Under the chaos proxy (resets, \
         torn frames, an outage window) the pool repairs the damage — \
         interrupted streams resume with a skip re-request, dead sockets \
         are discarded and redialed — so completion stays total and most \
         answers stay Exact; what cannot be repaired degrades to honest \
         Partial answers. Disabling connection reuse makes every request \
         roll the fault dice, raising resumes, connects and tail latency \
         together.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: usize = 100;
    const QUERIES: usize = 8;
    const SESSIONS: usize = 3;

    #[test]
    fn healthy_tcp_matches_in_process_counts() {
        let base = run_workload(ROWS, QUERIES, SESSIONS, &Lane::InProcess);
        let tcp = run_workload(
            ROWS,
            QUERIES,
            SESSIONS,
            &Lane::Tcp {
                pool: 2,
                plan: None,
            },
        );
        assert_eq!(base.completed, QUERIES * SESSIONS);
        assert_eq!(base.exact, tcp.exact, "healthy TCP stays all-Exact");
        assert_eq!(tcp.completed, QUERIES * SESSIONS);
        assert_eq!(tcp.failed, 0);
        assert_eq!(tcp.resumes, 0);
        assert!(tcp.connects >= 1, "the wire was actually used");
        assert_eq!(base.connects, 0, "in-process lane never dials");
    }

    #[test]
    fn chaos_lane_terminates_with_honest_answers() {
        let o = run_workload(
            ROWS,
            QUERIES,
            SESSIONS,
            &Lane::Tcp {
                pool: 0,
                plan: Some(
                    ProxyPlan::seeded(11)
                        .with_resets(0.15)
                        .with_truncation(0.15, 250),
                ),
            },
        );
        assert_eq!(
            o.completed + o.failed,
            QUERIES * SESSIONS,
            "every query terminates: {o:?}"
        );
        assert_eq!(o.failed, 0, "degraded mode absorbs what repair cannot");
        assert!(o.exact > 0, "some answers recover to Exact: {o:?}");
        assert!(
            o.resumes + o.discards > 0,
            "chaos exercised the repair path: {o:?}"
        );
    }
}
