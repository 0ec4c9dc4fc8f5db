//! E1 — the Figure 1 taxonomy, measured.
//!
//! Claim (§1, §2): bridging beats loose coupling, and richer caches beat
//! exact-match result caches, on workloads with repeated and overlapping
//! subgoals. All four coupling modes run the identical genealogy workload
//! against the identical remote database.

use crate::table::Table;
use braid::{BraidConfig, BraidSystem, CmsConfig, Strategy};
use braid_workload::baseline::{run_all, Coupling};
use braid_workload::genealogy;
use std::time::Instant;

/// Run E1.
pub fn run(quick: bool) -> Table {
    let (gens, queries) = if quick { (4, 16) } else { (6, 60) };
    let scenario = genealogy::scenario(gens, 2, 42, queries);
    let results = run_all(&scenario, Strategy::ConjunctionCompiled);

    let mut t = Table::new(
        format!(
            "E1 coupling modes — {} ({} tuples, {} queries, locality 0.5)",
            scenario.name,
            scenario.database_size(),
            scenario.queries.len()
        ),
        &[
            "mode",
            "requests",
            "tuples",
            "bytes",
            "server-ops",
            "local-ops",
            "hit-rate",
            "answers",
        ],
    );
    for r in &results {
        t.row(vec![
            r.mode.label().to_string(),
            r.metrics.remote.requests.to_string(),
            r.metrics.remote.tuples_shipped.to_string(),
            r.metrics.remote.bytes_shipped.to_string(),
            r.metrics.remote.server_tuple_ops.to_string(),
            r.metrics.cms.local_tuple_ops.to_string(),
            format!("{:.0}%", 100.0 * r.metrics.cms.hit_rate()),
            r.solutions.to_string(),
        ]);
    }
    // Part B — cache pressure: with a cache too small for any whole base
    // relation, the single-relation strategy degenerates (nothing it
    // fetches can be kept) while BrAID's per-query view elements still
    // fit. This is where "cached elements contain only single relations"
    // (§5.3.2) stops being a viable design.
    let capacity = 1024;
    for mode in [Coupling::SingleRelation, Coupling::Braid] {
        let cms = CmsConfig::coupled(mode).with_capacity(capacity);
        let mut system: BraidSystem = scenario.system(BraidConfig::with_cms(cms));
        let start = Instant::now();
        let mut solutions = 0usize;
        for q in &scenario.queries {
            solutions += system
                .solve_all(q, Strategy::ConjunctionCompiled)
                .expect("workload query solves")
                .len();
        }
        let _ = start.elapsed();
        let m = system.metrics();
        t.row(vec![
            format!("{} (1KB cache)", mode.label()),
            m.remote.requests.to_string(),
            m.remote.tuples_shipped.to_string(),
            m.remote.bytes_shipped.to_string(),
            m.remote.server_tuple_ops.to_string(),
            m.cms.local_tuple_ops.to_string(),
            format!("{:.0}%", 100.0 * m.cms.hit_rate()),
            solutions.to_string(),
        ]);
    }

    let req = |l: &str| {
        results
            .iter()
            .find(|r| r.mode.label() == l)
            .map(|r| r.metrics.remote.requests)
            .unwrap_or(0)
    };
    t.note(format!(
        "BrAID vs loose coupling: {:.1}x fewer remote requests; all modes \
         produce identical answers. Under a 1KB cache no whole base \
         relation fits: single-relation buffering refetches everything \
         while BrAID's per-query elements keep working.",
        req("loose-coupling") as f64 / req("braid").max(1) as f64
    ));
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_and_ranks() {
        let t = super::run(true);
        assert_eq!(t.rows.len(), 6);
        // requests column: braid (last row) < loose (first row).
        let loose: u64 = t.rows[0][1].parse().unwrap();
        let braid: u64 = t.rows[3][1].parse().unwrap();
        assert!(braid < loose);
        // Under cache pressure the ordering flips against single-relation
        // buffering (rows 4 and 5).
        let single_pressed: u64 = t.rows[4][1].parse().unwrap();
        let braid_pressed: u64 = t.rows[5][1].parse().unwrap();
        assert!(
            braid_pressed < single_pressed,
            "braid ({braid_pressed}) must beat single-relation              ({single_pressed}) when whole relations don't fit"
        );
        // Answers identical across all rows.
        let answers: std::collections::HashSet<&String> = t.rows.iter().map(|r| &r[7]).collect();
        assert_eq!(answers.len(), 1);
    }
}
