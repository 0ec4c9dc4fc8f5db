//! Property tests pinning the two directions of the subsumption engine:
//!
//! * **Completeness on constructed instances** — any query built by
//!   *instantiating* a cached view's body (constants for variables,
//!   variable merges) must be recognized as subsumed: the paper's whole
//!   reuse story rests on instance queries hitting general cached views
//!   (§5.3.1's `d1/d2/d3` are exactly such instances).
//! * **The candidate index loses nothing** — under any interleaving of
//!   inserts and removes, `SubsumptionEngine`'s indexed searches return
//!   exactly what `decompose` + `subsumes` over every live definition
//!   return: the same elements, in the same order, with the same
//!   derivations.
//! * **Round-trips of the advice notation** — display∘parse is the
//!   identity on the path-expression language (the IE and CMS exchange
//!   this text, §3).

use braid_advice::{parse_path_expr, PathExpr, PatternArg, QueryPattern, RepBound, Repetition};
use braid_caql::{parse_rule, Atom, CmpOp, Comparison, ConjunctiveQuery, Literal, Subst, Term};
use braid_subsume::{decompose, subsumes, Component, Derivation, SubsumptionEngine, ViewDef};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

// ---------- subsumption completeness ----------

/// A random conjunctive body over predicates p0..p2 with variables V0..V3.
fn body_strategy() -> impl Strategy<Value = Vec<Atom>> {
    proptest::collection::vec((0..3u8, proptest::collection::vec(0..4u8, 1..3)), 1..4).prop_map(
        |atoms| {
            atoms
                .into_iter()
                .map(|(p, args)| {
                    Atom::new(
                        format!("p{p}"),
                        args.into_iter()
                            .map(|v| Term::var(format!("V{v}")))
                            .collect(),
                    )
                })
                .collect()
        },
    )
}

/// A random instantiation: each variable independently stays itself, maps
/// to another variable (a merge), or becomes a constant.
fn subst_strategy() -> impl Strategy<Value = Subst> {
    proptest::collection::vec(0..9u8, 4).prop_map(|choices| {
        let mut s = Subst::new();
        for (i, c) in choices.into_iter().enumerate() {
            let v = format!("V{i}");
            match c {
                0..=2 => {} // keep the variable
                3..=5 => s.insert(v, Term::var(format!("W{}", c - 3))),
                _ => s.insert(v, Term::val(format!("c{}", c - 6))),
            }
        }
        s
    })
}

proptest! {
    #[test]
    fn constructed_instances_are_always_subsumed(
        body in body_strategy(),
        inst in subst_strategy(),
    ) {
        // Element: stores every variable (maximal-reuse form the CMS uses
        // when caching results).
        let element = ViewDef::over_conjunction(
            "e",
            body.iter().cloned().map(Literal::Atom).collect(),
        )
        .expect("generated bodies have at least one atom");

        // Query: the same body instantiated.
        let q_body: Vec<Literal> = body
            .iter()
            .map(|a| Literal::Atom(inst.apply_atom(a)))
            .collect();
        let mut head_vars: Vec<Term> = Vec::new();
        for l in &q_body {
            if let Literal::Atom(a) = l {
                for v in a.vars() {
                    if !head_vars.iter().any(|t| t.as_var() == Some(v)) {
                        head_vars.push(Term::var(v));
                    }
                }
            }
        }
        let q = ConjunctiveQuery::new(Atom::new("q", head_vars.clone()), q_body);
        let needed: Vec<&str> = head_vars.iter().filter_map(|t| t.as_var()).collect();

        let d = subsumes(&element, &Component::whole(&q), &needed);
        prop_assert!(
            d.is_some(),
            "instance {q} must be derivable from element {element}"
        );
        // Every needed variable is exposed.
        let d = d.expect("checked above");
        for v in needed {
            prop_assert!(d.var_cols.contains_key(v), "missing {v}");
        }
    }

    /// The reverse direction must *fail* when the element is strictly more
    /// restricted than the query (constants in the element where the query
    /// has variables).
    #[test]
    fn restricted_elements_never_subsume_general_queries(
        pred in 0..3u8,
        pos in 0..2usize,
    ) {
        let e = ViewDef::new(
            parse_rule(&format!(
                "e(X) :- p{pred}({}).",
                if pos == 0 { "c9, X" } else { "X, c9" }
            ))
            .unwrap(),
        )
        .unwrap();
        let q = parse_rule(&format!("q(A, B) :- p{pred}(A, B).")).unwrap();
        prop_assert!(subsumes(&e, &Component::whole(&q), &["A", "B"]).is_none());
    }
}

// ---------- indexed search ≡ exhaustive search ----------

/// A term from a pool small enough that index buckets collide: three
/// variables, two strings, and `1` beside `1.0` (equal in sort order,
/// distinct as values).
fn pooled_term() -> impl Strategy<Value = Term> {
    (0..7u8).prop_map(|t| match t {
        0..=2 => Term::var(format!("V{t}")),
        3 => Term::val("c0"),
        4 => Term::val("c1"),
        5 => Term::val(Value::Int(1)),
        _ => Term::val(Value::Float(1.0)),
    })
}

/// A conjunctive body over `p0/2`, `p1/2` and `p2/1`, with up to two
/// comparisons against small integers.
fn pooled_body() -> impl Strategy<Value = Vec<Literal>> {
    let atom = (0..3u8, pooled_term(), pooled_term()).prop_map(|(p, a, b)| match p {
        2 => Atom::new("p2", vec![a]),
        _ => Atom::new(format!("p{p}"), vec![a, b]),
    });
    let cmp = (0..3u8, 0..3u8, 0..3i64).prop_map(|(v, op, k)| Comparison {
        op: [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq][op as usize],
        lhs: Term::var(format!("V{v}")).into(),
        rhs: Term::val(k).into(),
    });
    (
        proptest::collection::vec(atom, 1..4),
        proptest::collection::vec(cmp, 0..3),
    )
        .prop_map(|(atoms, cmps)| {
            let atoms = atoms.into_iter().map(Literal::Atom);
            atoms.chain(cmps.into_iter().map(Literal::Cmp)).collect()
        })
}

/// A query (or view definition) over a pooled body, its head every atom
/// variable or all but the first.
fn pooled_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (pooled_body(), 0..2u8).prop_map(|(body, drop)| {
        let mut head: Vec<Term> = Vec::new();
        for a in body.iter().filter_map(Literal::as_atom) {
            for v in a.vars() {
                if !head.iter().any(|t| t.as_var() == Some(v)) {
                    head.push(Term::var(v));
                }
            }
        }
        let head = head.split_off(usize::from(drop).min(head.len()));
        ConjunctiveQuery::new(Atom::new("q", head), body)
    })
}

/// The variables a component must expose — the engine's contract,
/// restated: head variables it covers plus its join variables with the
/// rest of the query.
fn needed_vars(q: &ConjunctiveQuery, c: &Component) -> Vec<String> {
    let atoms = q.positive_atoms();
    let mut outside: BTreeSet<&str> = q.head.var_set();
    if !c.is_whole(atoms.len()) {
        for (i, a) in atoms.iter().enumerate() {
            if i < c.start || i >= c.end {
                outside.extend(a.var_set());
            }
        }
        for l in &q.body {
            if let Literal::Cmp(cmp) = l {
                if !c.cmps.contains(cmp) {
                    outside.extend(cmp.lhs.vars());
                    outside.extend(cmp.rhs.vars());
                }
            }
        }
    }
    let inside = c.vars();
    inside
        .intersection(&outside)
        .map(|v| v.to_string())
        .collect()
}

/// Assert both indexed searches equal the exhaustive reference over
/// `live` (ascending ids within each component, components largest
/// first).
fn assert_index_matches_reference(
    engine: &SubsumptionEngine,
    live: &BTreeMap<u64, ViewDef>,
    q: &ConjunctiveQuery,
) {
    let whole = Component::whole(q);
    let needed: Vec<&str> = q.head.var_set().into_iter().collect();
    let want_whole: Vec<(u64, Derivation)> = live
        .iter()
        .filter_map(|(id, def)| Some((*id, subsumes(def, &whole, &needed)?)))
        .collect();
    assert_eq!(engine.find_whole(q), want_whole, "find_whole for `{q}`");

    let mut want_relevant = Vec::new();
    for c in decompose(q) {
        let needed = needed_vars(q, &c);
        let needed: Vec<&str> = needed.iter().map(String::as_str).collect();
        for (id, def) in live {
            if let Some(d) = subsumes(def, &c, &needed) {
                want_relevant.push((*id, c.clone(), d));
            }
        }
    }
    let got: Vec<(u64, Component, Derivation)> = engine
        .find_relevant(q)
        .into_iter()
        .map(|u| (u.element, u.component, u.derivation))
        .collect();
    assert_eq!(got, want_relevant, "find_relevant for `{q}`");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_search_equals_exhaustive_search(
        steps in proptest::collection::vec((0..4u8, 0..24u64, pooled_query()), 1..24),
        probes in proptest::collection::vec(pooled_query(), 3..5),
    ) {
        let mut engine = SubsumptionEngine::new();
        let mut live: BTreeMap<u64, ViewDef> = BTreeMap::new();
        for (op, id, view) in steps {
            if op == 0 {
                // Remove: a live id when there is one, else a no-op.
                let id = live.keys().nth(id as usize % live.len().max(1)).copied().unwrap_or(id);
                prop_assert_eq!(engine.remove(id), live.remove(&id));
            } else if let Ok(def) = ViewDef::new(view) {
                // Insert, re-registering the id if it is live already.
                engine.insert(id, def.clone());
                live.insert(id, def);
            }
            prop_assert_eq!(engine.len(), live.len());
            for q in probes.iter().chain(live.values().map(ViewDef::query)) {
                assert_index_matches_reference(&engine, &live, q);
            }
        }
    }
}

#[test]
fn int_and_float_constants_are_told_apart() {
    let mut engine = SubsumptionEngine::new();
    let mut live = BTreeMap::new();
    for (id, src) in [
        (1, "i(V) :- p1(1, V)."),
        (2, "f(V) :- p1(1.0, V)."),
        (3, "g(K, V) :- p1(K, V)."),
    ] {
        let def = ViewDef::new(parse_rule(src).unwrap()).unwrap();
        engine.insert(id, def.clone());
        live.insert(id, def);
    }
    for src in [
        "q(V) :- p1(1, V).",
        "q(V) :- p1(1.0, V).",
        "q(V) :- p1(1, V), p1(V, 1.0).",
    ] {
        assert_index_matches_reference(&engine, &live, &parse_rule(src).unwrap());
    }
    let hits = |src: &str| -> Vec<u64> {
        let q = parse_rule(src).unwrap();
        engine
            .find_whole(&q)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    };
    assert_eq!(hits("q(V) :- p1(1, V)."), vec![1, 3]);
    assert_eq!(hits("q(V) :- p1(1.0, V)."), vec![2, 3]);
}

// ---------- advice notation round-trips ----------

fn pattern_strategy() -> impl Strategy<Value = QueryPattern> {
    (0..6u8, proptest::collection::vec((0..3u8, 0..4u8), 0..3)).prop_map(|(d, args)| {
        QueryPattern::new(
            format!("d{d}"),
            args.into_iter()
                .map(|(kind, v)| match kind {
                    0 => PatternArg::Free(format!("V{v}")),
                    1 => PatternArg::Bound(format!("V{v}")),
                    _ => PatternArg::Const(braid_caql::Value::str(format!("c{v}"))),
                })
                .collect(),
        )
    })
}

fn path_expr_strategy() -> impl Strategy<Value = PathExpr> {
    let leaf = pattern_strategy().prop_map(PathExpr::Pattern);
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (
                proptest::collection::vec(inner.clone(), 1..3),
                0..2u64,
                prop_oneof![
                    (1..4u64).prop_map(RepBound::Count),
                    (0..3u8).prop_map(|v| RepBound::Card(format!("V{v}"))),
                    Just(RepBound::Unbounded),
                ],
            )
                .prop_map(|(items, lo, hi)| PathExpr::Seq {
                    items,
                    rep: Repetition {
                        lo: RepBound::Count(lo),
                        hi,
                    },
                }),
            (
                proptest::collection::vec(inner, 1..3),
                proptest::option::of(1..3usize),
            )
                .prop_map(|(items, select)| PathExpr::Alt { items, select }),
        ]
    })
}

// ---------- edge cases, checked against the braid-sim reference model ----------
//
// Three corners the instance-subsumption properties above cannot reach:
// views with negated literals (outside the PSJ fragment — they must
// bypass reuse, not corrupt it), comparison ranges that abut without
// overlapping (`Y < s` next to `Y >= s` shares no tuple, so reuse would
// be wrong), and disjunctive remainders (a cached mid-range splits the
// uncovered part of a wider query into two intervals). Each is driven
// through the full system and compared against the naive reference
// evaluator from braid-sim.

use braid::{BraidConfig, BraidSystem, CmsConfig, KnowledgeBase, Strategy as SolveStrategy};
use braid_relational::{Relation, Schema, Tuple, Value};
use braid_remote::Catalog;
use braid_sim::RefModel;

/// `num(x<i>, i)` for i in 0..n — a numeric column for range views.
fn num_catalog(n: i64) -> Catalog {
    let mut r = Relation::new(Schema::of_strs("num", &["x", "y"]));
    for i in 0..n {
        r.insert(Tuple::new(vec![Value::str(format!("x{i}")), Value::int(i)]))
            .expect("arity 2");
    }
    let mut c = Catalog::new();
    c.install(r);
    c
}

fn num_kb(rules: &[String]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.declare_base("num", 2);
    for r in rules {
        kb.add_program(r).expect("rule parses");
    }
    kb
}

/// A system (subsumption on, the speculative techniques off so metric
/// deltas attribute cleanly) plus the reference model over the same data.
fn system_and_model(n: i64, rules: &[String]) -> (BraidSystem, RefModel) {
    let model = RefModel::new(&num_catalog(n), &num_kb(rules)).expect("model builds");
    let config = BraidConfig::with_cms(
        CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false),
    );
    (
        BraidSystem::new(num_catalog(n), num_kb(rules), config),
        model,
    )
}

fn assert_matches_model(sys: &mut BraidSystem, model: &RefModel, query: &str) {
    let got = sys
        .solve_all(query, SolveStrategy::ConjunctionCompiled)
        .expect("system solves");
    let want = model.solve_text(query).expect("model solves");
    assert_eq!(got, want, "`{query}` diverged from the reference model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine level: an element holding `y < split` answers any narrower
    /// upper range, and never the abutting complement `y >= split` —
    /// adjacent intervals share no tuple, so "close" must not count.
    #[test]
    fn abutting_ranges_never_subsume_narrower_ones_always_do(
        split in 1i64..8,
        narrow in 1i64..8,
    ) {
        let element = ViewDef::new(
            parse_rule(&format!("e(X, Y) :- num(X, Y), Y < {split}.")).unwrap(),
        )
        .unwrap();

        let abut = parse_rule(&format!("q(X, Y) :- num(X, Y), Y >= {split}.")).unwrap();
        prop_assert!(
            subsumes(&element, &Component::whole(&abut), &["X", "Y"]).is_none(),
            "abutting range y >= {split} reused an element holding y < {split}"
        );

        let narrower = parse_rule(&format!("q(X, Y) :- num(X, Y), Y < {narrow}.")).unwrap();
        let d = subsumes(&element, &Component::whole(&narrower), &["X", "Y"]);
        if narrow <= split {
            prop_assert!(d.is_some(), "y < {narrow} fits inside y < {split}");
        } else {
            prop_assert!(d.is_none(), "y < {narrow} exceeds the cached y < {split}");
        }
    }

    /// System level: warm `y < split`, then ask the abutting complement
    /// and a contained range. The contained query must be answered from
    /// the cache (no new remote requests); the abutting one must go back
    /// to the remote; and both answers must match the reference model.
    #[test]
    fn abutting_ranges_refetch_and_contained_ranges_reuse(
        split in 2i64..7,
        n in 8i64..14,
    ) {
        let rules = vec![
            format!("lo(X, Y) :- num(X, Y), Y < {split}."),
            format!("sub(X, Y) :- num(X, Y), Y < {}.", split - 1),
            format!("hi(X, Y) :- num(X, Y), Y >= {split}."),
        ];
        let (mut sys, model) = system_and_model(n, &rules);

        assert_matches_model(&mut sys, &model, "?- lo(X, Y).");
        let warmed = sys.metrics().remote.requests;

        assert_matches_model(&mut sys, &model, "?- sub(X, Y).");
        let after_sub = sys.metrics().remote.requests;
        prop_assert_eq!(
            after_sub, warmed,
            "contained range should be a pure cache answer"
        );

        assert_matches_model(&mut sys, &model, "?- hi(X, Y).");
        prop_assert!(
            sys.metrics().remote.requests > after_sub,
            "abutting range cannot be served from the cached interval"
        );
    }

    /// Disjunctive remainder: with a mid-range `lo <= y < hi` cached, a
    /// full scan's uncovered part is `y < lo OR y >= hi` — two disjoint
    /// intervals. Whatever plan the CMS picks (compensate + refetch or
    /// full refetch), the answer must equal the model's.
    #[test]
    fn disjunctive_remainders_stay_correct(
        lo in 1i64..4,
        width in 1i64..4,
        n in 8i64..14,
    ) {
        let hi = lo + width;
        let rules = vec![
            format!("mid(X, Y) :- num(X, Y), Y >= {lo}, Y < {hi}."),
            "all(X, Y) :- num(X, Y).".to_string(),
            format!("rim(X, Y) :- num(X, Y), Y < {lo}."),
        ];
        let (mut sys, model) = system_and_model(n, &rules);

        assert_matches_model(&mut sys, &model, "?- mid(X, Y).");
        // The full scan's remainder around the cached mid-range is
        // disjunctive; then the left rim alone must also stay exact.
        assert_matches_model(&mut sys, &model, "?- all(X, Y).");
        assert_matches_model(&mut sys, &model, "?- rim(X, Y).");
        // And a second pass over everything, now fully warm.
        assert_matches_model(&mut sys, &model, "?- all(X, Y).");
        assert_matches_model(&mut sys, &model, "?- mid(X, Y).");
    }
}

#[test]
fn negated_literal_views_are_rejected_from_reuse_but_answer_correctly() {
    // A body with negation is outside the PSJ fragment: it must never
    // become a reusable view definition ...
    let neg_rule = parse_rule("v(X) :- num(X, Y), not even(Y).").unwrap();
    assert!(
        ViewDef::new(neg_rule).is_err(),
        "negated-literal bodies must not enter the subsumption engine"
    );

    // ... and at system level the negated parts are planned separately
    // (anti-join compensation), so answers must still match the model —
    // cold, warm, and for a subsequent query that could only be answered
    // by (wrongly) reusing the negation-bearing result.
    let mut kb = KnowledgeBase::new();
    kb.declare_base("num", 2);
    kb.declare_base("flag", 1);
    kb.add_program("odd_only(X, Y) :- num(X, Y), not flag(Y).")
        .unwrap();
    kb.add_program("narrow(X, Y) :- num(X, Y), not flag(Y), Y < 4.")
        .unwrap();
    kb.add_program("plain(X, Y) :- num(X, Y), Y < 4.").unwrap();

    let build_catalog = || {
        let mut c = num_catalog(10);
        let mut f = Relation::new(Schema::of_strs("flag", &["y"]));
        for i in (0..10i64).step_by(2) {
            f.insert(Tuple::new(vec![Value::int(i)])).expect("arity 1");
        }
        c.install(f);
        c
    };
    let model = RefModel::new(&build_catalog(), &kb).expect("model builds");
    let config = BraidConfig::with_cms(
        CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false),
    );
    let mut sys = BraidSystem::new(build_catalog(), kb, config);

    assert_matches_model(&mut sys, &model, "?- odd_only(X, Y).");
    assert_matches_model(&mut sys, &model, "?- odd_only(X, Y)."); // warm
    assert_matches_model(&mut sys, &model, "?- narrow(X, Y).");
    // `plain` keeps the flagged tuples the negated views filtered out: if
    // either negated result were wrongly reused, these would be missing.
    assert_matches_model(&mut sys, &model, "?- plain(X, Y).");
}

proptest! {
    #[test]
    fn path_expression_display_parse_round_trip(e in path_expr_strategy()) {
        let printed = e.to_string();
        let reparsed = parse_path_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(
            reparsed.to_string(),
            printed,
            "display∘parse must be the identity"
        );
    }

    #[test]
    fn rule_display_parse_round_trip(body in body_strategy()) {
        let vd = ViewDef::over_conjunction(
            "e",
            body.into_iter().map(Literal::Atom).collect(),
        )
        .unwrap();
        let printed = format!("{}.", vd.query());
        let reparsed = parse_rule(&printed).unwrap();
        prop_assert_eq!(reparsed, vd.query().clone());
    }
}
