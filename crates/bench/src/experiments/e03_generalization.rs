//! E3 — query generalization.
//!
//! Claim (§4.2, §5.3.1): "with generalization, the CMS retrieves more
//! data from the DBMS (and caches it) than is required for a given CAQL
//! query. The assumption is that later queries can be solved using the
//! additional data and thus reduce the number of separate DBMS requests."
//! The trade-off has a crossover: generalization ships the whole
//! extension up front, paying off once enough instance queries land in it.

use crate::experiments::support::single_relation_catalog;
use crate::table::Table;
use braid_advice::{parse_path_expr, parse_view_spec, Advice};
use braid_caql::parse_atom;
use braid_cms::{Cms, CmsConfig};
use braid_remote::RemoteDbms;

/// Run E3.
pub fn run(quick: bool) -> Table {
    let rows = if quick { 400 } else { 4000 };
    let keys = 40;
    let mut t = Table::new(
        format!("E3 query generalization — b(k, v): {rows} rows, {keys} keys"),
        &[
            "probes m",
            "gen-on req",
            "gen-off req",
            "gen-on tuples",
            "gen-off tuples",
            "winner (req)",
        ],
    );

    for m in [1usize, 2, 5, 10, 20] {
        let mut cells = vec![m.to_string()];
        let mut tuples = Vec::new();
        for on in [true, false] {
            let remote = RemoteDbms::with_defaults(single_relation_catalog("b", rows, keys, 5));
            let config = CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(on);
            let mut cms = Cms::new(remote, config);
            // Advice: the general template dq(X?, V^) =def b(X?, V^) —
            // the subsuming view spec of §5.3.1 — and a path expression
            // predicting a run of dq probes, the reuse signal that makes
            // fetching the whole extension worthwhile.
            let mut advice = Advice::none();
            advice
                .view_specs
                .push(parse_view_spec("dq(X?, V^) =def b(X?, V^)").unwrap());
            advice.path = Some(parse_path_expr("(dq(X?, V^))<1,*>").unwrap());
            cms.begin_session(advice);
            for i in 0..m {
                let probe = parse_atom(&format!("dq(k{}, V)", i % keys)).unwrap();
                cms.query_head(&probe).expect("probe solves").drain();
            }
            let rm = cms.remote().metrics();
            cells.push(rm.requests.to_string());
            tuples.push(rm.tuples_shipped);
        }
        cells.push(tuples[0].to_string());
        cells.push(tuples[1].to_string());
        cells.push(
            if cells[1].parse::<u64>().unwrap() <= cells[2].parse::<u64>().unwrap() {
                "gen-on"
            } else {
                "gen-off"
            }
            .to_string(),
        );
        t.row(cells);
    }
    t.note(
        "Generalization issues one request shipping the whole extension; without \
         it every distinct probe is a separate request shipping ~rows/keys tuples. \
         Requests favour generalization immediately; shipped tuples cross over \
         once m exceeds the key-coverage break-even.",
    );
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn generalization_saves_requests_at_scale() {
        let t = super::run(true);
        // Columns m, gen-on req, gen-off req, gen-on tuples, gen-off
        // tuples: one request and a constant 400 tuples with
        // generalization, one request per probe without.
        let column = |c: usize| t.rows.iter().map(|r| r[c].as_str()).collect::<Vec<_>>();
        assert_eq!(column(1), ["1"; 5]);
        assert_eq!(column(2), ["1", "2", "5", "10", "20"]);
        assert_eq!(column(3), ["400"; 5]);
        assert_eq!(column(4), ["5", "12", "54", "92", "194"]);
    }
}
