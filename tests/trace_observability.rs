//! Observability invariants across the IE→CMS→remote pipeline.
//!
//! 1. Monotonicity: metrics counters and histogram counts never move
//!    backwards, no matter how many sessions hammer the shared CMS.
//! 2. Well-formedness: the drained span log forms a forest — ids are
//!    unique, every recorded parent id names a recorded span, and a
//!    child's interval nests inside its parent's.
//! 3. Histogram algebra: snapshot merge is associative and commutative,
//!    and `since` inverts `merge` (proptest).
//! 4. EXPLAIN stability: the timing-free [`ExplainSummary`] of a
//!    deterministic workload is identical across independent runs — the
//!    golden-comparison contract the report is designed for.

use braid::{
    BraidConfig, BraidSystem, Catalog, CmsConfig, Histogram, KnowledgeBase, RingSink, Strategy,
    TraceKind,
};
use braid_relational::{tuple, Relation, Schema};
use braid_workload::genealogy;
use proptest::prelude::*;
use std::sync::Arc;

const STRATEGY: Strategy = Strategy::ConjunctionCompiled;

fn genealogy_system(trace: Option<Arc<RingSink>>) -> (BraidSystem, Vec<String>) {
    let sc = genealogy::scenario(3, 2, 42, 12);
    let mut config = BraidConfig::with_cms(CmsConfig::braid());
    if let Some(ring) = trace {
        config = config.with_trace(ring);
    }
    (sc.system(config), sc.queries.clone())
}

// ---------------------------------------------------------------------
// 1. Counter monotonicity under concurrency
// ---------------------------------------------------------------------

#[test]
fn counters_are_monotone_under_concurrent_sessions() {
    let (system, queries) = genealogy_system(None);
    let system = &system;
    let queries = &queries;

    std::thread::scope(|s| {
        // Four sessions drive the workload repeatedly...
        let workers: Vec<_> = (0..4)
            .map(|si| {
                s.spawn(move || {
                    let mut sess = system.session_owned();
                    for round in 0..3 {
                        for (qi, q) in queries.iter().enumerate() {
                            let _ = (round, si, qi);
                            sess.solve_all(q, STRATEGY).expect("session solves");
                        }
                    }
                })
            })
            .collect();

        // ...while an observer snapshots mid-flight. Every successive
        // snapshot must dominate the previous one field by field.
        let mut prev = system.metrics();
        for _ in 0..50 {
            let now = system.metrics();
            assert!(now.cms.queries >= prev.cms.queries);
            assert!(now.cms.full_cache_answers >= prev.cms.full_cache_answers);
            assert!(now.cms.remote_subqueries >= prev.cms.remote_subqueries);
            assert!(now.cms.tuples_to_ie >= prev.cms.tuples_to_ie);
            assert!(now.cms.query_latency_us.count() >= prev.cms.query_latency_us.count());
            assert!(now.remote.requests >= prev.remote.requests);
            assert!(now.remote.rtt_units.count() >= prev.remote.rtt_units.count());
            // `since` of a later snapshot against an earlier one must
            // never underflow — that is the monotonicity contract.
            let delta = now.since(&prev);
            assert!(delta.cms.queries <= now.cms.queries);
            prev = now;
            std::thread::yield_now();
        }
        for w in workers {
            w.join().unwrap();
        }
    });

    let end = system.metrics();
    // 4 sessions × 3 rounds × |queries| top-level solves, each of which
    // issues at least one CMS query (and records its latency).
    assert!(end.cms.queries >= (4 * 3 * queries.len()) as u64);
    assert_eq!(end.cms.query_latency_us.count(), end.cms.queries);
}

// ---------------------------------------------------------------------
// 2. Span tree well-formedness
// ---------------------------------------------------------------------

#[test]
fn span_log_forms_a_well_nested_forest() {
    let ring = Arc::new(RingSink::new(1 << 16));
    let (mut system, queries) = {
        let (s, q) = genealogy_system(Some(Arc::clone(&ring)));
        (s, q)
    };
    for q in &queries {
        system.solve_all(q, STRATEGY).expect("query solves");
    }
    let events = ring.drain();
    assert_eq!(ring.dropped(), 0, "ring must be large enough for the run");
    assert!(!events.is_empty());

    // Forest well-formedness — unique span ids, every parent recorded,
    // child intervals nested — is the shared `verify_span_forest`
    // checker (braid-trace), which the simulation harness also runs
    // after every scenario.
    let checked = braid_trace::verify_span_forest(&events)
        .unwrap_or_else(|e| panic!("span log is not a well-nested forest: {e}"));
    assert!(checked > 0, "workload must produce nested spans");

    // The pipeline stages all appear.
    for kind in [
        TraceKind::IeSolve,
        TraceKind::Query,
        TraceKind::PlanDecision,
        TraceKind::Execute,
        TraceKind::RemoteFetch,
        TraceKind::CacheInsert,
        TraceKind::RemoteRequest,
    ] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "expected at least one {} event",
            kind.as_str()
        );
    }
    // Every insert says which columns it indexed and what it costs.
    for e in events.iter().filter(|e| e.kind == TraceKind::CacheInsert) {
        assert!(
            e.field("indexed").is_some_and(
                |cols| cols.is_empty() || cols.split(',').all(|c| c.parse::<usize>().is_ok())
            ),
            "{e:?}"
        );
        assert!(
            e.field("bytes")
                .and_then(|b| b.parse::<usize>().ok())
                .is_some(),
            "{e:?}"
        );
    }
}

// ---------------------------------------------------------------------
// 3. Histogram merge algebra
// ---------------------------------------------------------------------

fn hist_of(values: &[u64]) -> braid::HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        a in proptest::collection::vec(0u64..1 << 40, 0..24),
        b in proptest::collection::vec(0u64..1 << 40, 0..24),
        c in proptest::collection::vec(0u64..1 << 40, 0..24),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        prop_assert_eq!(ha.merge(&hb).merge(&hc), ha.merge(&hb.merge(&hc)));
        prop_assert_eq!(ha.merge(&hb), hb.merge(&ha));
        prop_assert_eq!(ha.merge(&hb).count(), ha.count() + hb.count());
        // `since` inverts `merge`: (a ∪ b) − a = b.
        prop_assert_eq!(ha.merge(&hb).since(&ha), hb);
        // Merging matches recording everything into one histogram.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(ha.merge(&hb), hist_of(&all));
    }
}

// ---------------------------------------------------------------------
// 4. EXPLAIN golden stability
// ---------------------------------------------------------------------

#[test]
fn explain_summary_is_stable_across_identical_runs() {
    let run = || {
        let (mut system, queries) = genealogy_system(None);
        queries
            .iter()
            .map(|q| {
                system
                    .solve_explained(q, STRATEGY)
                    .expect("query solves")
                    .report
                    .summary()
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "summaries must be timing-free");
    assert!(first.iter().all(|s| s.exact));
}

#[test]
fn explain_names_matched_views_and_remainder() {
    // Hand-built genealogy: cold solve ships the remainder, warm solve
    // names the matched view — the paper's §5.3.2 reuse story, visible
    // per query.
    let mut db = Catalog::new();
    db.install(
        Relation::from_tuples(
            Schema::of_strs("parent", &["p", "c"]),
            vec![
                tuple!["ann", "bob"],
                tuple!["bob", "dee"],
                tuple!["dee", "fay"],
            ],
        )
        .unwrap(),
    );
    let mut kb = KnowledgeBase::new();
    kb.declare_base("parent", 2);
    kb.add_program("grandparent(X, Y) :- parent(X, Z), parent(Z, Y).")
        .unwrap();
    let mut braid = BraidSystem::new(db, kb, BraidConfig::default());

    let cold = braid
        .solve_explained("?- grandparent(ann, Y).", STRATEGY)
        .expect("query solves");
    assert_eq!(cold.solutions.len(), 1);
    assert!(cold.report.summary().exact);
    assert_eq!(cold.report.plans.len(), 1);
    let plan = &cold.report.plans[0];
    assert_eq!(plan.decision, "all_remote");
    assert!(plan.matched_views.is_empty());
    assert!(
        plan.remainder.iter().any(|r| r.contains("parent")),
        "cold remainder must name the shipped subquery, got {:?}",
        plan.remainder
    );
    assert!(cold.report.remote_fetches > 0);
    assert_eq!(cold.report.advice_view_specs, Some(1));

    let warm = braid
        .solve_explained("?- grandparent(ann, Y).", STRATEGY)
        .expect("query solves");
    assert_eq!(warm.solutions, cold.solutions);
    let plan = &warm.report.plans[0];
    assert_eq!(plan.decision, "full_cache");
    assert!(
        !plan.matched_views.is_empty(),
        "warm plan must name the matched cached view"
    );
    assert!(plan.remainder.is_empty());
    assert_eq!(warm.report.remote_fetches, 0);

    // The rendered report carries the same story for humans.
    let text = warm.report.to_string();
    assert!(text.contains("matched views:"));
    assert!(text.contains("completeness: exact"));
}

#[test]
fn explain_shows_how_each_cache_part_reached_its_rows() {
    // A cached int relation, a point query that scans it, then a band
    // that clusters it and reads only its slice.
    let mut db = Catalog::new();
    let rows = (0..1_000i64).map(|k| tuple![k, k % 100]);
    db.install(Relation::from_tuples(Schema::of_strs("num", &["k", "v"]), rows).unwrap());
    let mut kb = KnowledgeBase::new();
    kb.declare_base("num", 2);
    kb.add_program(
        "all(K, V) :- num(K, V).\n\
         band(K, V) :- num(K, V), V >= 10, V < 12.\n\
         at(K) :- num(K, 7).",
    )
    .unwrap();
    let mut braid = BraidSystem::new(db, kb, BraidConfig::default());
    braid.solve_all("?- all(K, V).", STRATEGY).unwrap();
    let access = |braid: &mut BraidSystem, q: &str| {
        let explained = braid.solve_explained(q, STRATEGY).expect("query solves");
        assert_eq!(explained.report.remote_fetches, 0, "`{q}` is derived");
        explained.report.cache_access
    };
    let point = access(&mut braid, "?- at(K).");
    let band = access(&mut braid, "?- band(K, V).");
    assert_eq!(point.len(), 1, "{point:?}");
    assert!(point[0].ends_with(": scan"), "{point:?}");
    assert_eq!(band.len(), 1, "{band:?}");
    assert!(band[0].ends_with(": range(1) 20/1000"), "{band:?}");
    let text = braid
        .solve_explained("?- band(K, V).", STRATEGY)
        .unwrap()
        .report
        .to_string();
    assert!(text.contains("range(1) 20/1000"), "{text}");
}
