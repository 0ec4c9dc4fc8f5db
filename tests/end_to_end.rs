//! Cross-crate integration tests: the full bridge on the three workload
//! scenarios, the advice-driven techniques observable end to end, and the
//! session protocol.

use braid::{BraidConfig, CmsConfig, Strategy};
use braid_workload::baseline::{run_all, Coupling};
use braid_workload::{genealogy, suppliers, transit};

#[test]
fn genealogy_all_strategies_agree() {
    let s = genealogy::scenario(4, 2, 99, 0);
    for q in [
        "?- grandparent(p0, Y).",
        "?- sibling(p3, Y).",
        "?- ancestor(p1, Y).",
        "?- cousin(p7, Y).",
    ] {
        let mut answers = Vec::new();
        for strat in [
            Strategy::Interpreted,
            Strategy::ConjunctionCompiled,
            Strategy::FullyCompiled,
        ] {
            let mut sys = s.system(BraidConfig::default());
            answers.push(sys.solve_all(q, strat).unwrap());
        }
        assert_eq!(answers[0], answers[1], "{q}");
        assert_eq!(answers[1], answers[2], "{q}");
    }
}

#[test]
fn ancestor_counts_match_tree_shape() {
    // In a complete binary tree of g generations, the root's descendants
    // are everyone else.
    let s = genealogy::scenario(4, 2, 5, 0);
    let total = genealogy::person_count(4, 2);
    let mut sys = s.system(BraidConfig::default());
    let sols = sys
        .solve_all("?- ancestor(p0, Y).", Strategy::FullyCompiled)
        .unwrap();
    assert_eq!(sols.len(), total - 1);
}

#[test]
fn coupling_modes_ranked_by_remote_requests() {
    let s = genealogy::scenario(4, 2, 7, 24);
    let results = run_all(&s, Strategy::ConjunctionCompiled);
    let req = |m: Coupling| {
        results
            .iter()
            .find(|r| r.mode == m)
            .unwrap()
            .metrics
            .remote
            .requests
    };
    // The paper's Figure 1 ordering claim, measurably: richer bridges use
    // the remote DBMS less.
    assert!(req(Coupling::Braid) < req(Coupling::Loose));
    assert!(req(Coupling::ExactMatch) <= req(Coupling::Loose));
    // Everyone computes the same answers.
    let sols: Vec<usize> = results.iter().map(|r| r.solutions).collect();
    assert!(sols.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn suppliers_closure_and_joins() {
    let s = suppliers::scenario(30, 8, 5, 0);
    let mut sys = s.system(BraidConfig::default());
    let all = sys
        .solve_all("?- component(part0, Y).", Strategy::FullyCompiled)
        .unwrap();
    assert_eq!(all.len(), 29);
    // Mixed rule: join of base + recursive view.
    let sc = sys
        .solve_all("?- supplies_component(sup0, W).", Strategy::FullyCompiled)
        .unwrap();
    // Every answer's W is an ancestor part of something sup0 supplies.
    assert!(sc.iter().all(|t| t.values()[0].to_string() == "sup0"));
}

#[test]
fn transit_reachability_over_cycles() {
    let s = transit::scenario(3, 5, 2, 0);
    let mut sys = s.system(BraidConfig::default());
    let sols = sys
        .solve_all("?- reachable(st_0_0, Y).", Strategy::FullyCompiled)
        .unwrap();
    // All 15 stations reachable (interchanges connect the lines; cycles
    // must not diverge).
    assert_eq!(sols.len(), 15);
}

#[test]
fn advice_techniques_fire_on_genealogy() {
    let s = genealogy::scenario(4, 2, 13, 20);
    let mut sys = s.system(BraidConfig::default());
    for q in &s.queries {
        sys.solve_all(q, Strategy::ConjunctionCompiled).unwrap();
    }
    let m = sys.metrics();
    assert!(m.cms.queries > 0);
    assert!(
        m.cms.full_cache_answers > 0,
        "locality must produce cache hits: {m}"
    );
    assert!(m.remote.requests > 0);
}

#[test]
fn cache_capacity_pressure_evicts_but_stays_correct() {
    let s = genealogy::scenario(4, 2, 31, 30);
    let small = BraidConfig::with_cms(CmsConfig::braid().with_capacity(8 * 1024));
    let mut constrained = s.system(small);
    let mut unconstrained = s.system(BraidConfig::default());
    for q in &s.queries {
        let a = constrained
            .solve_all(q, Strategy::ConjunctionCompiled)
            .unwrap();
        let b = unconstrained
            .solve_all(q, Strategy::ConjunctionCompiled)
            .unwrap();
        assert_eq!(a, b, "{q}");
    }
    assert!(
        constrained.metrics().cms.queries > 0
            && constrained.cms().cache_len() <= unconstrained.cms().cache_len()
    );
}

#[test]
fn lazy_streams_stop_early() {
    let s = genealogy::scenario(5, 2, 3, 0);
    let mut sys = s.system(BraidConfig::default());
    // Prime the cache with the general ancestor extension.
    sys.solve_all("?- grandparent(p0, Y).", Strategy::ConjunctionCompiled)
        .unwrap();
    // Now ask again and take only the first answer: demand-driven.
    let mut stream = sys
        .solve("?- grandparent(p0, Y).", Strategy::ConjunctionCompiled)
        .unwrap();
    let first = stream.next();
    assert!(first.is_some());
    drop(stream);
}

#[test]
fn session_protocol_advice_then_queries() {
    use braid_advice::Advice;
    let s = genealogy::scenario(3, 2, 1, 0);
    let mut sys = s.system(BraidConfig::default());
    // Hand-written session: advice first, then CAQL queries (§3).
    let mut advice = Advice::none();
    advice
        .view_specs
        .push(braid_advice::parse_view_spec("d1(X^, Y^) =def parent(X^, Y^)").unwrap());
    advice.path = Some(braid_advice::parse_path_expr("(d1(X^, Y^))<1,1>").unwrap());
    sys.cms_mut().begin_session(advice);
    let stream = sys
        .cms_mut()
        .query_head(&braid_caql::parse_atom("d1(X, Y)").unwrap())
        .unwrap();
    let rows = stream.drain();
    assert_eq!(rows.len(), s.catalog.relation("parent").unwrap().len());
}

/// Range queries over an int relation cached whole as one columnar
/// element: the first range derivation clusters the element on the
/// range column, once, without changing the bytes it is charged, and
/// every answer before and after equals the reference model's.
#[test]
fn range_answers_match_the_model_across_clustering() {
    use braid::{BraidSystem, KnowledgeBase};
    use braid_relational::{Relation, Schema, Tuple, Value};
    use braid_remote::Catalog;
    use braid_sim::RefModel;

    const N: i64 = 2_000;
    let catalog = || {
        let rows = (0..N).map(|k| Tuple::new(vec![Value::int(k), Value::int((k * 7919) % 300)]));
        let mut c = Catalog::new();
        c.install(Relation::from_tuples(Schema::of_strs("num", &["k", "v"]), rows).unwrap());
        c
    };
    let bands = [(10, 20), (0, 1), (299, 400), (-5, 3), (150, 150), (40, 90)];
    let mut program = vec!["all(K, V) :- num(K, V).".to_string()];
    program.push("at(K) :- num(K, 42).".to_string());
    for (i, (lo, hi)) in bands.iter().enumerate() {
        program.push(format!("band{i}(K, V) :- num(K, V), V >= {lo}, V < {hi}."));
        program.push(format!("upto{i}(K) :- num(K, V), V <= {lo}, K > {hi}."));
    }
    let kb = || {
        let mut kb = KnowledgeBase::new();
        kb.declare_base("num", 2);
        kb.add_program(&program.join("\n")).unwrap();
        kb
    };
    let model = RefModel::new(&catalog(), &kb()).unwrap();
    let config = BraidConfig::with_cms(
        CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false),
    );
    let mut sys = BraidSystem::new(catalog(), kb(), config);
    let ask = |sys: &mut BraidSystem, q: &str| {
        let got = sys.solve_all(q, Strategy::ConjunctionCompiled).unwrap();
        assert_eq!(got, model.solve_text(q).unwrap(), "`{q}`");
    };

    // Cache `num` whole, then answer a point query from it: equality
    // does not cluster.
    ask(&mut sys, "?- all(K, V).");
    ask(&mut sys, "?- at(K).");
    let cache = sys.cms().shared_cache();
    let (bytes, elements) = (cache.used_bytes(), cache.len());
    assert_eq!(elements, 1);
    assert_eq!(
        (cache.model()[0].indexed.clone(), cache.model()[0].sorted_on),
        (vec![], None)
    );
    assert_eq!(sys.metrics().cms.clusterings, 0);

    let requests = sys.metrics().remote.requests;
    for round in 0..2 {
        for i in 0..bands.len() {
            ask(&mut sys, &format!("?- band{i}(K, V)."));
            ask(&mut sys, &format!("?- upto{i}(K)."));
        }
        ask(&mut sys, "?- at(K).");
        assert_eq!(sys.metrics().cms.clusterings, 1, "round {round}");
    }
    assert_eq!(
        sys.metrics().remote.requests,
        requests,
        "every range was derived"
    );
    let cache = sys.cms().shared_cache();
    assert_eq!((cache.used_bytes(), cache.len()), (bytes, elements));
    assert!(cache.byte_drift().is_empty());
}
