//! Regenerate every EXPERIMENTS.md table.
//!
//! ```sh
//! cargo run --release -p braid-bench --bin report            # full sizes
//! cargo run -p braid-bench --bin report -- --quick           # small sizes
//! cargo run --release -p braid-bench --bin report -- --markdown
//! cargo run -p braid-bench --bin report -- --only E2,E5
//! ```

use braid_bench::all_experiments;

fn main() {
    // E18 forks this binary as its load-worker processes.
    braid_sim::maybe_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|x| x.trim().to_uppercase()).collect());

    eprintln!(
        "braid-bench report ({} sizes){}",
        if quick { "quick" } else { "full" },
        if markdown { ", markdown output" } else { "" }
    );

    for (id, runner) in all_experiments() {
        if let Some(only) = &only {
            if !only.iter().any(|o| o == id) {
                continue;
            }
        }
        eprintln!("running {id} ...");
        let table = runner(quick);
        if markdown {
            println!("{}", table.markdown());
        } else {
            println!("{table}");
        }
    }
}
