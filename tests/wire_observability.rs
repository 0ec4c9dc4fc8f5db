//! Wire-level observability: cross-process EXPLAIN, the live
//! STATS/ADMIN protocol, and the flight recorder, exercised over real
//! TCP against [`BraidServer`].
//!
//! The contract under test is the tentpole of the wire-observability
//! PR: `BraidClient::solve_explained` yields ONE span forest — client
//! spans and grafted server spans (`origin=server`) on one normalized
//! timeline — that passes `verify_span_forest`, with every server span
//! nested inside the client's request span; and the timing-free
//! `ExplainSummary` is identical whether the query ran in-process or
//! across the wire.

use braid::{
    BraidClient, BraidConfig, BraidServer, BraidServerConfig, BraidSystem, Strategy, TraceKind,
};
use braid_ie::KnowledgeBase;
use braid_relational::{tuple, Relation, Schema};
use braid_remote::Catalog;
use braid_trace::{verify_span_forest, TraceEvent};
use std::time::Duration;

fn system() -> BraidSystem {
    let mut db = Catalog::new();
    db.install(
        Relation::from_tuples(
            Schema::of_strs("parent", &["p", "c"]),
            vec![
                tuple!["ann", "bob"],
                tuple!["bob", "cal"],
                tuple!["cal", "dee"],
                tuple!["dee", "eli"],
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
    BraidSystem::new(db, kb, BraidConfig::default())
}

fn server() -> BraidServer {
    BraidServer::start(
        system(),
        BraidServerConfig {
            workers: 2,
            ..BraidServerConfig::default()
        },
    )
    .unwrap()
}

/// The client's request span: the one Query-kind span the client tracer
/// records around the whole wire round trip.
fn request_span(events: &[TraceEvent]) -> &TraceEvent {
    events
        .iter()
        .filter(|e| e.kind == TraceKind::Query && e.field("origin").is_none() && e.dur_us > 0)
        .max_by_key(|e| e.dur_us)
        .expect("client request span present")
}

#[test]
fn remote_explain_summary_matches_in_process() {
    let in_process = {
        let mut local = system();
        local
            .solve_explained("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap()
    };
    let server = server();
    let mut client = BraidClient::connect(server.local_addr()).unwrap();
    let remote = client
        .solve_explained("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
        .unwrap();
    assert_eq!(remote.solutions, in_process.solutions);
    assert_eq!(remote.completeness, in_process.completeness);
    // The timing-free projection is transport-agnostic: plans, matched
    // views, generalizations and verdicts all survive the wire intact.
    assert_eq!(remote.report.summary(), in_process.report.summary());
    client.goodbye();
    server.shutdown();
}

#[test]
fn grafted_forest_verifies_and_nests_under_the_request_span() {
    let server = server();
    let mut client = BraidClient::connect(server.local_addr()).unwrap();
    let explained = client
        .solve_explained("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
        .unwrap();
    let events = &explained.report.events;
    let spans = verify_span_forest(events).expect("grafted forest is well-formed");
    assert!(spans >= 2, "client request span plus server spans: {spans}");
    let server_events: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.field("origin") == Some("server"))
        .collect();
    assert!(!server_events.is_empty(), "server spans were shipped");
    assert!(
        server_events.iter().any(|e| e.kind == TraceKind::IeSolve),
        "the server-side solve span came across"
    );
    let req = request_span(events);
    let (rs, re) = (req.start_us, req.start_us + req.dur_us);
    for e in &server_events {
        assert!(
            e.start_us >= rs && e.start_us + e.dur_us <= re,
            "server span {:?} [{}, {}] escapes request span [{rs}, {re}]",
            e.label,
            e.start_us,
            e.start_us + e.dur_us,
        );
    }
    // Server roots hang off the request span, so the graft is one tree,
    // not two forests side by side.
    assert!(
        server_events.iter().any(|e| e.parent == Some(req.id)),
        "at least one server root re-parented under the request span"
    );
    // The process boundary stays visible when rendered.
    let rendered = explained.report.render_trace();
    assert!(rendered.contains("server: "), "{rendered}");
    assert!(rendered.contains("remote ?- anc(ann, Y)."), "{rendered}");
    client.goodbye();
    server.shutdown();
}

#[test]
fn solve_explained_interleaves_with_plain_queries() {
    let server = server();
    let mut client = BraidClient::connect(server.local_addr()).unwrap();
    let plain = client
        .solve_checked("?- gp(ann, Y).", Strategy::FullyCompiled)
        .unwrap();
    assert_eq!(plain.solutions.len(), 1);
    let explained = client
        .solve_explained("?- gp(ann, Y).", Strategy::FullyCompiled)
        .unwrap();
    assert_eq!(explained.solutions, plain.solutions);
    verify_span_forest(&explained.report.events).unwrap();
    // Tracing is strictly per-query: the following plain query must not
    // receive a stray TRACE frame (read_answer would reject it).
    let plain = client
        .solve_checked("?- gp(ann, Y).", Strategy::FullyCompiled)
        .unwrap();
    assert_eq!(plain.solutions.len(), 1);
    client.goodbye();
    server.shutdown();
}

#[test]
fn four_concurrent_clients_each_get_their_own_forest() {
    let server = server();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = BraidClient::connect(addr).unwrap();
                    let explained = client
                        .solve_explained("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
                        .unwrap();
                    assert_eq!(explained.solutions.len(), 4);
                    let events = &explained.report.events;
                    verify_span_forest(events).expect("per-client forest is well-formed");
                    let req = request_span(events);
                    let (rs, re) = (req.start_us, req.start_us + req.dur_us);
                    for e in events
                        .iter()
                        .filter(|e| e.field("origin") == Some("server"))
                    {
                        assert!(
                            e.start_us >= rs && e.start_us + e.dur_us <= re,
                            "span {:?} escapes its request window",
                            e.label
                        );
                    }
                    client.goodbye();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    server.shutdown();
}

#[test]
fn stats_report_ships_counters_rates_and_histograms() {
    let server = server();
    let mut client = BraidClient::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        client
            .solve_checked("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.active_connections, 1);
    assert!(stats.uptime_us > 0);
    assert!(stats.pool_spawned >= 1);
    // The rate window is anchored at the server-start sample (queries =
    // 0), so three answered queries make qps strictly positive.
    assert!(stats.qps_milli > 0, "{stats:?}");
    let counter = |name: &str| {
        stats
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("flattened counter {name} present"))
            .1
    };
    // `cms.queries` counts the CMS's internal query stream (subqueries
    // included), so it dominates the three wire-level queries — and the
    // hit rate is quoted against it.
    assert!(counter("cms.queries") >= 3);
    assert_eq!(
        stats.hit_rate_milli,
        counter("cms.full_cache_answers") * 1000 / counter("cms.queries").max(1)
    );
    assert!(stats.counters.iter().any(|(k, _)| k == "remote.requests"));
    let (_, latency) = stats
        .hists
        .iter()
        .find(|(k, _)| k == "cms.query_latency_us")
        .expect("latency histogram present");
    assert!(
        latency.iter().sum::<u64>() >= 3,
        "at least one latency sample per wire query"
    );
    // The wire snapshot matches the in-process accessor's layout.
    let local = server.stats_report();
    assert_eq!(local.connections_accepted, 1);
    assert_eq!(local.counters.len(), stats.counters.len());
    assert_eq!(local.hists.len(), stats.hists.len());
    client.goodbye();
    server.shutdown();
}

#[test]
fn uptime_and_connections_accepted_are_monotone() {
    let server = server();
    let first = server.stats();
    let c1 = BraidClient::connect(server.local_addr()).unwrap();
    let c2 = BraidClient::connect(server.local_addr()).unwrap();
    c1.goodbye();
    c2.goodbye();
    // Closing connections drains `active` but never rolls back the
    // lifetime accept counter.
    assert_eq!(server.quiesce(Duration::from_secs(5)), Vec::<String>::new());
    let last = server.stats();
    assert_eq!(last.connections_accepted, 2);
    assert_eq!(last.active, 0);
    assert!(last.uptime >= first.uptime);
    assert!(last.uptime > Duration::ZERO);
    server.shutdown();
}

#[test]
fn flight_recorder_drains_over_admin() {
    let server = server();
    let mut client = BraidClient::connect(server.local_addr()).unwrap();
    let log = client.flight_recorder().unwrap();
    assert!(log.contains("\"event\":\"server.start\""), "{log}");
    assert!(log.contains("\"event\":\"conn.accept\""), "{log}");
    for line in log.lines() {
        assert!(
            line.starts_with("{\"t_us\":") && line.ends_with('}'),
            "not a JSON line: {line}"
        );
    }
    // Draining consumes: a failed query is the only new event afterwards.
    let err = client
        .solve_checked("?- anc(ann", Strategy::Interpreted)
        .unwrap_err();
    assert!(err.to_string().contains("parse") || !err.to_string().is_empty());
    let log = client.flight_recorder().unwrap();
    assert!(!log.contains("server.start"), "recorder was not drained");
    assert!(log.contains("\"event\":\"query.error\""), "{log}");
    client.goodbye();
    server.shutdown();
}
