//! The Figure 1 taxonomy, measured: run the same genealogy workload under
//! all four coupling modes and print the cost table.
//!
//! ```sh
//! cargo run --release --example coupling_shootout
//! ```

use braid::Strategy;
use braid_workload::baseline::{run_all, Coupling};
use braid_workload::genealogy;

fn main() {
    let scenario = genealogy::scenario(6, 2, 42, 60);
    println!(
        "workload: {} — {} base tuples, {} queries (locality 0.5)\n",
        scenario.name,
        scenario.database_size(),
        scenario.queries.len()
    );

    println!(
        "{:<16} {:>9} {:>10} {:>11} {:>11} {:>10} {:>9}",
        "mode", "requests", "tuples", "bytes", "server-ops", "local-ops", "answers"
    );
    let results = run_all(&scenario, Strategy::ConjunctionCompiled);
    for r in &results {
        println!(
            "{:<16} {:>9} {:>10} {:>11} {:>11} {:>10} {:>9}",
            r.mode.label(),
            r.metrics.remote.requests,
            r.metrics.remote.tuples_shipped,
            r.metrics.remote.bytes_shipped,
            r.metrics.remote.server_tuple_ops,
            r.metrics.cms.local_tuple_ops,
            r.solutions,
        );
    }

    let loose = results
        .iter()
        .find(|r| r.mode == Coupling::Loose)
        .expect("loose run present");
    let braid = results
        .iter()
        .find(|r| r.mode == Coupling::Braid)
        .expect("braid run present");
    println!(
        "\nBrAID issues {:.1}x fewer remote requests than loose coupling \
         ({} vs {}), with identical answers.",
        loose.metrics.remote.requests as f64 / braid.metrics.remote.requests.max(1) as f64,
        braid.metrics.remote.requests,
        loose.metrics.remote.requests,
    );
}
