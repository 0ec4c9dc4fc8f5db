//! E7 — advice-modified replacement vs plain LRU.
//!
//! Claim (§4.2.2, §5.4): replacement uses "an LRU scheme which may be
//! modified due to advi\[c\]e"; from tracked predictions "d1 will be
//! required for one of the next two queries. If the CMS needs to replace
//! some cache element it is clear that d1 is not the best candidate."
//!
//! Setup: three equally-sized views cycled `d1, d2, d3, d1, d2, ...` with
//! a cache that only fits two — the classic LRU-adversarial loop. The
//! path expression predicts the cycle, letting the advice pin the views
//! needed soonest; without one, replacement is plain LRU.

use crate::experiments::support::binary_relation;
use crate::table::Table;
use braid_advice::{parse_path_expr, parse_view_spec, Advice};
use braid_caql::parse_atom;
use braid_cms::{Cms, CmsConfig};
use braid_remote::{Catalog, RemoteDbms};

/// Run E7.
pub fn run(quick: bool) -> Table {
    let rows = 200;
    let rounds = if quick { 6 } else { 20 };
    let mut t = Table::new(
        format!(
            "E7 advice-modified replacement vs LRU — 3-view cycle x {rounds} rounds, cache fits 2"
        ),
        &["replacement", "requests", "hit-rate", "evictions"],
    );

    for with_path in [false, true] {
        let mut catalog = Catalog::new();
        for b in ["b1", "b2", "b3"] {
            catalog.install(binary_relation(b, rows, 16, 21));
        }
        let mut advice = Advice::none();
        for (d, b) in [("d1", "b1"), ("d2", "b2"), ("d3", "b3")] {
            advice
                .view_specs
                .push(parse_view_spec(&format!("{d}(K^, V^) =def {b}(K^, V^)")).unwrap());
        }
        if with_path {
            advice.path =
                Some(parse_path_expr("((d1(K^, V^), d2(K^, V^), d3(K^, V^))<1,*>)<1,1>").unwrap());
        }
        let config = CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false)
            .with_lazy(false);
        // Size the cache to hold two of the three equally-sized views,
        // measured as the cache stores one of them.
        let mut probe = Cms::new(RemoteDbms::with_defaults(catalog.clone()), config.clone());
        probe.begin_session(advice.clone());
        probe
            .query_head(&parse_atom("d1(K, V)").unwrap())
            .expect("probe query")
            .drain();
        let capacity = probe.shared_cache().used_bytes() * 5 / 2;
        let mut cms = Cms::new(
            RemoteDbms::with_defaults(catalog),
            config.with_capacity(capacity),
        );
        cms.begin_session(advice);

        for _ in 0..rounds {
            for d in ["d1", "d2", "d3"] {
                cms.query_head(&parse_atom(&format!("{d}(K, V)")).unwrap())
                    .expect("cycle query")
                    .drain();
            }
        }
        let m = cms.metrics();
        t.row(vec![
            if with_path { "advice" } else { "lru" }.to_string(),
            cms.remote().metrics().requests.to_string(),
            format!("{:.0}%", 100.0 * m.hit_rate()),
            m.evictions.max(cms.cache_evictions()).to_string(),
        ]);
    }
    t.note(
        "Plain LRU is pessimal on the cyclic scan (it evicts exactly the view \
         needed next); pinning the predicted-next views breaks the pathology.",
    );
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn advice_beats_lru_on_the_cycle() {
        let t = super::run(true);
        // Withholding the path expression leaves plain LRU thrashing.
        assert_eq!(t.rows[0], ["lru", "18", "0%", "16"]);
        assert_eq!(t.rows[1], ["advice", "8", "56%", "0"]);
    }
}
