//! An interactive BrAID session: load a scenario, ask AI queries, watch
//! the cache and the advice machinery work.
//!
//! ```sh
//! cargo run --example braid_repl
//! ```
//!
//! Commands:
//! ```text
//! ?- goal(args).        ask an AI query (Prolog syntax)
//! :strategy <name>      interpreted | conjunction | compiled
//! :metrics              cumulative cost counters
//! :cache                the CMS's cache model
//! :advice <goal>        show the advice the IE would generate
//! :rules                the knowledge base
//! :help                 this text
//! :quit                 exit
//! ```

use braid::{BraidConfig, Strategy};
use braid_ie::strategy::Strategy as IeStrategy;
use braid_workload::genealogy;
use std::io::{self, BufRead, Write};

fn main() {
    let scenario = genealogy::scenario(4, 2, 2026, 0);
    let mut system = scenario.system(BraidConfig::default());
    let mut strategy = Strategy::ConjunctionCompiled;

    println!(
        "BrAID interactive session — {} ({} base tuples)",
        scenario.name,
        scenario.database_size()
    );
    println!(
        "base relations: parent/2, male/1, female/1, age/2; derived: \
         grandparent, sibling, uncle, cousin, ancestor, adult, elder_parent"
    );
    println!("try `?- ancestor(p0, Y).` — `:help` for commands\n");

    let stdin = io::stdin();
    loop {
        print!("braid> ");
        let _ = io::stdout().flush();
        let Some(Ok(line)) = stdin.lock().lines().next() else {
            break;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ":quit" | ":q" | ":exit" => break,
            ":help" | ":h" => help(),
            ":metrics" => println!("{}", system.metrics()),
            ":cache" => {
                for row in system.cms().cache_model() {
                    println!(
                        "  E{}: {} [{} tuples, {} hits, indexed on {:?}, sorted on {:?}{}]",
                        row.id,
                        row.def,
                        row.cardinality,
                        row.hits,
                        row.indexed,
                        row.sorted_on,
                        if row.pinned { ", pinned" } else { "" }
                    );
                }
                if system.cms().cache_model().is_empty() {
                    println!("  (cache empty)");
                }
            }
            ":rules" => {
                for r in system.engine().kb().rules() {
                    println!("  {}: {}.", r.id, r.clause);
                }
            }
            _ if line.starts_with(":strategy") => {
                strategy = match line.split_whitespace().nth(1) {
                    Some("interpreted") => Strategy::Interpreted,
                    Some("conjunction") => Strategy::ConjunctionCompiled,
                    Some("compiled") => Strategy::FullyCompiled,
                    other => {
                        println!("unknown strategy {other:?}; keeping {strategy:?}");
                        strategy
                    }
                };
                println!("strategy = {strategy:?}");
            }
            _ if line.starts_with(":advice") => {
                let goal_src = line.trim_start_matches(":advice").trim();
                match braid::parse_query(&format!("?- {goal_src}")) {
                    Err(e) => println!("{e}"),
                    Ok(goal) => {
                        let stats = system.cms().remote().catalog().stats_snapshot();
                        match system.engine().prepare(
                            &goal,
                            IeStrategy::ConjunctionCompiled,
                            &stats,
                        ) {
                            Err(e) => println!("{e}"),
                            Ok((_, _, advice)) => print!("{advice}"),
                        }
                    }
                }
            }
            _ if line.starts_with("?-") => {
                let before = system.metrics();
                match system.solve_all(line, strategy) {
                    Err(e) => println!("error: {e}"),
                    Ok(solutions) => {
                        for s in &solutions {
                            println!("  {s}");
                        }
                        let d = system.metrics().since(&before);
                        println!(
                            "  -- {} answers; {} remote requests, {} tuples shipped, \
                             {} cache elements",
                            solutions.len(),
                            d.remote.requests,
                            d.remote.tuples_shipped,
                            system.cms().cache_len()
                        );
                    }
                }
            }
            other => println!("unrecognized input `{other}` — `:help` for commands"),
        }
    }
    println!("\nfinal cost:\n{}", system.metrics());
}

fn help() {
    println!(
        "  ?- goal(args).        ask an AI query (e.g. ?- ancestor(p0, Y).)\n\
         \x20 :strategy <name>      interpreted | conjunction | compiled\n\
         \x20 :metrics              cumulative cost counters\n\
         \x20 :cache                the CMS's cache model\n\
         \x20 :advice <goal>        advice the IE generates for a goal\n\
         \x20 :rules                the knowledge base\n\
         \x20 :quit                 exit"
    );
}
