//! Chaos suite for the braid server: the PR-6 fault proxy pointed at
//! [`BraidServer`] itself.
//!
//! Every scenario injects a network-level fault between client and
//! server — connection resets, torn frames mid-answer, an outage
//! window, raw protocol garbage, a client vanishing mid-conversation —
//! and asserts the same contract each time: the client gets a *typed*
//! [`BraidError::Server`] (never a panic, never a hang), the server
//! keeps serving well-formed clients, and every connection/pool gauge
//! drains back to zero afterwards.

use braid::{
    BraidClient, BraidConfig, BraidError, BraidServer, BraidServerConfig, BraidSystem, Strategy,
};
use braid_ie::KnowledgeBase;
use braid_net::{write_frame, FaultProxy, ProxyFault, ProxyPlan};
use braid_relational::{tuple, Relation, Schema};
use braid_remote::clientproto::{self, kind, ClientQuery};
use braid_remote::Catalog;
use std::io::Write as _;
use std::net::TcpStream;
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

/// Poll until every connection task has drained, then assert all
/// server-side gauges are at zero. Called at the end of every scenario:
/// whatever the fault did, the server must come back to quiescence.
fn assert_drained(server: &BraidServer) {
    let undrained = server.quiesce(Duration::from_secs(10));
    assert!(undrained.is_empty(), "server never drained: {undrained:?}");
}

fn is_typed_server_error(err: &BraidError) -> bool {
    matches!(err, BraidError::Server(_))
}

#[test]
fn resets_surface_as_typed_errors_and_drain() {
    let server = server();
    // Connections 0 and 2 are reset before any downstream byte; 1 and
    // 3+ pass through untouched.
    let mut proxy = FaultProxy::start(
        server.local_addr(),
        ProxyPlan::seeded(1)
            .with_scheduled(0, ProxyFault::Reset)
            .with_scheduled(2, ProxyFault::Reset),
    )
    .unwrap();

    for conn in 0..4u64 {
        // `connect` performs the clock exchange, so a reset before any
        // downstream byte surfaces right there as an `io::Error`.
        match BraidClient::connect(proxy.addr()) {
            Ok(mut client) => {
                match client.solve_checked("?- anc(ann, Y).", Strategy::ConjunctionCompiled) {
                    Ok(checked) => {
                        assert!(conn == 1 || conn >= 3, "conn {conn} should have been reset");
                        assert_eq!(checked.solutions.len(), 4);
                        client.goodbye();
                    }
                    Err(e) => {
                        assert!(
                            conn == 0 || conn == 2,
                            "conn {conn} failed unexpectedly: {e}"
                        );
                        assert!(is_typed_server_error(&e), "untyped error: {e:?}");
                    }
                }
            }
            Err(e) => {
                assert!(conn == 0 || conn == 2, "conn {conn} refused connect: {e}");
            }
        }
    }
    assert!(proxy.stats().resets >= 2);
    assert_drained(&server);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn torn_frames_mid_batch_surface_as_typed_errors() {
    let server = server();
    // Truncation budgets that land inside the clock exchange (the
    // CLOCK_INFO reply is 5 header + 16 payload bytes, so 2 and 9 tear
    // `connect` itself) or inside the first BATCH frame of the answer
    // stream (40).
    for after_bytes in [2u64, 9, 40] {
        let mut proxy = FaultProxy::start(
            server.local_addr(),
            ProxyPlan::seeded(7).with_scheduled(0, ProxyFault::Truncate { after_bytes }),
        )
        .unwrap();
        match BraidClient::connect(proxy.addr()) {
            Ok(mut client) => {
                let err = client
                    .solve_checked("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
                    .expect_err("torn answer stream must error");
                assert!(is_typed_server_error(&err), "untyped error: {err:?}");
            }
            // The tear landed inside the clock exchange — still a typed
            // error, just at connect time.
            Err(_) => assert!(after_bytes < 21, "late tear broke connect"),
        }
        // The next connection through the same proxy is healthy: the
        // tear hurt one conversation, not the server.
        let mut client = BraidClient::connect(proxy.addr()).unwrap();
        let ok = client
            .solve_checked("?- gp(ann, Y).", Strategy::ConjunctionCompiled)
            .expect("server still serves after a torn frame");
        assert_eq!(ok.solutions.len(), 1);
        client.goodbye();
        proxy.shutdown();
    }
    assert_drained(&server);
    server.shutdown();
}

#[test]
fn outage_window_refuses_then_recovers() {
    let server = server();
    // Connections 0..3 land in a hard outage window (accepted then
    // closed, as a dead upstream looks from outside); 3+ get through.
    let mut proxy =
        FaultProxy::start(server.local_addr(), ProxyPlan::seeded(3).with_outage(0, 3)).unwrap();

    for _ in 0..3 {
        // A connection inside the window is accepted then closed, which
        // the clock exchange at connect time turns into an `io::Error`.
        BraidClient::connect(proxy.addr())
            .expect_err("connection inside the outage window must fail");
    }
    let mut client = BraidClient::connect(proxy.addr()).unwrap();
    let ok = client
        .solve_checked("?- anc(ann, Y).", Strategy::Interpreted)
        .expect("first connection after the window succeeds");
    assert_eq!(ok.solutions.len(), 4);
    client.goodbye();

    assert_eq!(proxy.stats().refused, 3);
    assert_drained(&server);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn protocol_garbage_never_wedges_the_server() {
    let server = server();

    // Raw junk bytes: not even a frame header.
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    drop(s);

    // A syntactically valid header whose length exceeds the frame cap —
    // the reader must reject it without allocating or hanging.
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, kind::QUERY]).unwrap();
    drop(s);

    // A well-formed frame of an unknown kind.
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut s, 0x7F, b"mystery").unwrap();
    drop(s);

    // A QUERY frame whose payload is not a valid query encoding.
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut s, kind::QUERY, &[0x01, 0x02, 0x03]).unwrap();
    drop(s);

    // After all that abuse, a well-formed client still gets answers.
    let mut client = BraidClient::connect(server.local_addr()).unwrap();
    let ok = client
        .solve_checked("?- gp(ann, Y).", Strategy::FullyCompiled)
        .expect("server survives protocol garbage");
    assert_eq!(ok.solutions.len(), 1);
    client.goodbye();

    assert_drained(&server);
    server.shutdown();
}

#[test]
fn client_abandoning_mid_answer_drains() {
    let server = server();
    // Fire a query and vanish without reading the answer: the server's
    // write hits a dead socket and the connection task must finish.
    for _ in 0..4 {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let q = ClientQuery::plain(clientproto::strategy::CONJUNCTION_COMPILED, "?- anc(X, Y).");
        write_frame(&mut s, kind::QUERY, &clientproto::encode_query(&q)).unwrap();
        drop(s);
    }
    // The server still serves a patient client afterwards.
    let mut client = BraidClient::connect(server.local_addr()).unwrap();
    let ok = client
        .solve_checked("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
        .expect("server survives abandoned conversations");
    assert_eq!(ok.solutions.len(), 4);
    client.goodbye();

    assert_drained(&server);
    server.shutdown();
}

#[test]
fn randomized_fault_mix_never_hangs_or_panics() {
    let server = server();
    let mut proxy = FaultProxy::start(
        server.local_addr(),
        ProxyPlan::seeded(0xC4A05)
            .with_resets(0.2)
            .with_truncation(0.2, 12),
    )
    .unwrap();
    let addr = proxy.addr();
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                for i in 0..6 {
                    let Ok(mut client) = BraidClient::connect(addr) else {
                        continue;
                    };
                    match client.solve_checked("?- anc(ann, Y).", Strategy::Interpreted) {
                        Ok(checked) => assert_eq!(checked.solutions.len(), 4, "t{t} i{i}"),
                        Err(e) => assert!(is_typed_server_error(&e), "untyped: {e:?}"),
                    }
                }
            });
        }
    });
    assert_drained(&server);
    proxy.shutdown();
    server.shutdown();
}
