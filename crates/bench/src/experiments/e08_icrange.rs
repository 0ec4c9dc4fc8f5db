//! E8 — no single point on the interpreted–compiled range dominates.
//!
//! Claim (§2): "it is simply not the case that more fully compiled
//! systems are always preferable. The optimum point on the I-C range will
//! differ with application domains and even from problem to problem. ...
//! Not all solutions to a problem may be needed or wanted."
//!
//! Two demand profiles over the same recursive query: *first solution
//! only* (the interpreted strength — tuple-at-a-time stops early) and
//! *all solutions* (the compiled strength — one large request).

use crate::table::Table;
use braid::{BraidConfig, Strategy};
use braid_workload::genealogy;

/// Run E8.
pub fn run(quick: bool) -> Table {
    let gens = if quick { 4 } else { 6 };
    let scenario = genealogy::scenario(gens, 2, 11, 0);
    let query = "?- ancestor(p0, Y).";

    let mut t = Table::new(
        format!("E8 the I-C range — ancestor(p0, Y) on genealogy g{gens}"),
        &[
            "strategy",
            "demand",
            "requests",
            "tuples",
            "server-ops",
            "answers taken",
        ],
    );

    for strat in [
        Strategy::Interpreted,
        Strategy::ConjunctionCompiled,
        Strategy::FullyCompiled,
    ] {
        for first_only in [true, false] {
            let mut sys = scenario.system(BraidConfig::default());
            let mut taken = 0usize;
            {
                let mut stream = sys.solve(query, strat).expect("query starts");
                for sol in stream.by_ref() {
                    sol.expect("solution ok");
                    taken += 1;
                    if first_only {
                        break;
                    }
                }
            }
            let m = sys.metrics();
            t.row(vec![
                format!("{strat:?}"),
                if first_only { "first" } else { "all" }.to_string(),
                m.remote.requests.to_string(),
                m.remote.tuples_shipped.to_string(),
                m.remote.server_tuple_ops.to_string(),
                taken.to_string(),
            ]);
        }
    }
    t.note(
        "Interpreted/tuple-at-a-time stops after one remote probe when one \
         answer suffices; fully compiled always pays for the complete answer \
         set but needs far fewer requests when everything is wanted — the \
         crossover the paper's I-C range argument predicts.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_exists() {
        let t = run(true);
        let find = |strat: &str, demand: &str, col: usize| -> u64 {
            t.rows
                .iter()
                .find(|r| r[0].contains(strat) && r[1] == demand)
                .unwrap()[col]
                .parse()
                .unwrap()
        };
        // First-solution demand: interpreted ships fewer tuples than
        // fully compiled.
        assert!(
            find("Interpreted", "first", 3) <= find("FullyCompiled", "first", 3),
            "interpreted wins the single-solution profile on tuples"
        );
        // All-solutions demand: fully compiled issues no more requests
        // than interpreted.
        assert!(
            find("FullyCompiled", "all", 2) <= find("Interpreted", "all", 2),
            "compiled wins the all-solutions profile on requests"
        );
    }

    #[test]
    fn quick_counts_are_pinned() {
        // Requests, tuples shipped and server-ops per row: the paper's
        // cost measures, deterministic for the scenario's seed. A change
        // to how the stand-in server executes must leave them be.
        let t = run(true);
        let counts: Vec<[&str; 5]> = t
            .rows
            .iter()
            .map(|r| [&r[0], &r[1], &r[2], &r[3], &r[4]].map(String::as_str))
            .collect();
        assert_eq!(
            counts,
            vec![
                ["Interpreted", "first", "1", "2", "32"],
                ["Interpreted", "all", "31", "30", "960"],
                ["ConjunctionCompiled", "first", "1", "2", "32"],
                ["ConjunctionCompiled", "all", "31", "30", "960"],
                ["FullyCompiled", "first", "1", "30", "60"],
                ["FullyCompiled", "all", "1", "30", "60"],
            ]
        );
    }
}
