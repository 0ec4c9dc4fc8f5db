//! A braid server: N clients over TCP, their sessions multiplexed as
//! resumable state machines onto a fixed worker pool — the paper's "set
//! of sessions" (§3) as a network front-end instead of in-process
//! threads. Clients speak AI queries (CAQL) to the *braid* system; the
//! unmodified DBMS stays hidden behind the CMS, exactly as Figure 3
//! draws it.
//!
//! ```sh
//! cargo run --example serve
//! ```

use braid::{BraidClient, BraidConfig, BraidServer, BraidServerConfig, Completeness, Strategy};
use braid_workload::genealogy;

fn main() {
    let sc = genealogy::scenario(3, 2, 42, 8);

    // The server owns the whole stack — IE, shared CMS cache, remote —
    // and maps every accepted connection onto 2 pool workers.
    let server = BraidServer::start(
        sc.system(BraidConfig::default()),
        BraidServerConfig {
            workers: 2,
            ..BraidServerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let addr = server.local_addr();
    println!("braid server listening on {addr} (2 workers)\n");

    // Six clients, each a real TCP connection issuing the whole workload
    // from a rotated offset — more connections than workers, so sessions
    // interleave cooperatively on the pool.
    let n = sc.queries.len();
    std::thread::scope(|s| {
        for ci in 0..6 {
            let queries = &sc.queries;
            s.spawn(move || {
                let mut client = BraidClient::connect(addr).expect("connect");
                for off in 0..n {
                    let q = &queries[(ci + off) % n];
                    let got = client
                        .solve_checked(q, Strategy::ConjunctionCompiled)
                        .expect("server answers");
                    if ci == 0 {
                        match got.completeness {
                            Completeness::Exact => {
                                println!("{q:<44} Exact ({} tuples)", got.solutions.len());
                            }
                            Completeness::Partial { missing_subqueries } => {
                                println!(
                                    "{q:<44} Partial (missing {})",
                                    missing_subqueries.join(", ")
                                );
                            }
                        }
                    }
                }
                client.goodbye();
            });
        }
    });

    // Goodbyes are processed asynchronously by the pool; give the last
    // connection tasks a moment to retire before reading the gauges.
    server.quiesce(std::time::Duration::from_secs(2));
    let stats = server.stats();
    let pool = server.pool_snapshot();
    println!(
        "\nserver: {} connections accepted, {} queries answered, {} still active",
        stats.connections_accepted, stats.queries, stats.active
    );
    println!(
        "pool: {} tasks spawned, {} finished, {} panicked",
        pool.spawned, pool.finished, pool.panicked
    );

    server.shutdown();
    println!("clean shutdown");
}
