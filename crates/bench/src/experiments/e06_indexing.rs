//! E6 — advice-driven attribute indexing.
//!
//! Claim (§4.2.1, §5.3.3): "the consumer annotation (?) constitutes
//! advice to the CMS that the given attribute in the given relation
//! occurrence is a prime candidate for indexing"; the planning example
//! indexes "E12 on the third attribute (because it was annotated as a
//! consumer variable in the view specifications)".
//!
//! Setup: a big view is cached; advice declares its second attribute a
//! consumer. A stream of point probes follows. With the annotation, the
//! CMS builds a hash index when caching and every probe is an O(1)
//! lookup; with the same attribute declared a producer (`V^`), nothing
//! marks it for indexing and every probe scans the extension.

use crate::experiments::support::{ms, ratio, single_relation_catalog};
use crate::table::Table;
use braid_advice::{parse_view_spec, Advice};
use braid_caql::parse_rule;
use braid_cms::{Cms, CmsConfig};
use braid_remote::RemoteDbms;
use std::time::Instant;

/// Run E6.
pub fn run(quick: bool) -> Table {
    let probes = if quick { 100 } else { 400 };
    let mut t = Table::new(
        format!("E6 advice-driven indexing — {probes} point probes on a cached view"),
        &[
            "view size",
            "indexed ms",
            "scan ms",
            "speedup",
            "indices built",
        ],
    );

    let sizes: &[usize] = if quick {
        &[2_000, 10_000]
    } else {
        &[10_000, 50_000, 100_000]
    };
    for &rows in sizes {
        let mut times = Vec::new();
        let mut indices = Vec::new();
        for consumer in ["V?", "V^"] {
            // Values are unique per row: probe on v (the consumer column).
            let remote = RemoteDbms::with_defaults(single_relation_catalog("b", rows, 64, 9));
            let config = CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false)
                .with_lazy(false);
            let mut cms = Cms::new(remote, config);
            let mut advice = Advice::none();
            advice.view_specs.push(
                parse_view_spec(&format!("d(K^, {consumer}) =def b(K^, {consumer})")).unwrap(),
            );
            cms.begin_session(advice);
            // Prime the cache (index built here when advice asks for it).
            cms.query(parse_rule("g(K, V) :- b(K, V).").unwrap())
                .expect("prime")
                .drain();
            indices.push(cms.metrics().indices_built);
            let start = Instant::now();
            for i in 0..probes {
                let v = format!("v{}", (i * 37) % rows);
                cms.query(parse_rule(&format!("q(K) :- b(K, {v}).")).unwrap())
                    .expect("probe")
                    .drain();
            }
            times.push(start.elapsed());
        }
        t.row(vec![
            rows.to_string(),
            ms(times[0]),
            ms(times[1]),
            ratio(times[1].as_secs_f64(), times[0].as_secs_f64()),
            format!("{} / {}", indices[0], indices[1]),
        ]);
    }
    t.note(
        "Probes hit the cached extension either way (0 remote requests); the \
         index turns each residual selection into a hash probe. Speedups grow \
         with view size — the paper's motivation for spending advice on \
         indexing decisions.",
    );
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn index_advice_builds_and_wins() {
        let t = super::run(true);
        for row in &t.rows {
            assert_eq!(row[4], "1 / 0", "index built only with advice: {row:?}");
        }
        // The largest size should show a clear speedup.
        let last = t.rows.last().unwrap();
        let speedup: f64 = last[3].trim_end_matches('x').parse().unwrap();
        assert!(speedup > 1.0, "indexed probes faster: {speedup}");
    }
}
