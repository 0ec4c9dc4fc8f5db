//! E2 — subsumption reuse vs exact-match reuse.
//!
//! Claim (§5, §5.3.2): "the use of buffering and caching has been limited
//! to query results ... reused only if an exact match of a later query
//! occurs. This limits the extent to which data may be reused. ... BrAID
//! increases the reusability of cached data."
//!
//! Workload: one general `grandparent(X, Y)` query, then a stream of
//! instantiated `grandparent(pK, Y)` probes whose constants are drawn
//! with varying locality. Exact-match reuse only helps on verbatim
//! repeats; subsumption answers *every* probe from the general result.

use crate::table::Table;
use braid::{BraidConfig, CmsConfig, Coupling, Strategy};
use braid_workload::{genealogy, QueryWorkload};

/// Run E2.
pub fn run(quick: bool) -> Table {
    let (gens, probes) = if quick { (4, 12) } else { (6, 48) };
    let persons: Vec<String> = (0..genealogy::person_count(gens, 2))
        .map(|i| format!("p{i}"))
        .collect();

    let mut t = Table::new(
        format!(
            "E2 subsumption vs exact-match reuse — genealogy g{gens}, 1 general + {probes} probes"
        ),
        &[
            "locality",
            "exact req",
            "subs req",
            "exact hit%",
            "subs hit%",
        ],
    );

    for locality in [0.0, 0.5, 0.9] {
        let mut wl = QueryWorkload::new(7);
        let mut queries = vec!["?- grandparent(X, Y).".to_string()];
        queries.extend(wl.generate(&[("grandparent", 1)], &persons, probes, locality));

        let mut cells = vec![format!("{locality:.1}")];
        let mut hits = Vec::new();
        for cms in [
            CmsConfig::coupled(Coupling::ExactMatch),
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false),
        ] {
            let scenario = genealogy::scenario(gens, 2, 42, 0);
            let mut sys = scenario.system(BraidConfig::with_cms(cms));
            for q in &queries {
                sys.solve_all(q, Strategy::ConjunctionCompiled)
                    .expect("workload query solves");
            }
            let m = sys.metrics();
            cells.push(m.remote.requests.to_string());
            hits.push(format!("{:.0}%", 100.0 * m.cms.hit_rate()));
        }
        // Reorder: requests first, then hit rates.
        let (e_req, s_req) = (cells[1].clone(), cells[2].clone());
        t.row(vec![
            cells[0].clone(),
            e_req,
            s_req,
            hits[0].clone(),
            hits[1].clone(),
        ]);
    }
    t.note(
        "After the general query, subsumption answers every instantiated probe \
         locally regardless of locality; exact-match only benefits from verbatim \
         repeats (locality).",
    );
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn subsumption_dominates_exact() {
        let t = super::run(true);
        for row in &t.rows {
            let exact: u64 = row[1].parse().unwrap();
            let subs: u64 = row[2].parse().unwrap();
            assert!(subs <= exact, "subsumption must not lose: {row:?}");
        }
        // At zero locality the gap is maximal.
        let exact0: u64 = t.rows[0][1].parse().unwrap();
        let subs0: u64 = t.rows[0][2].parse().unwrap();
        assert!(subs0 < exact0);
    }
}
