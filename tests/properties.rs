//! Property-based tests over the core invariants.
//!
//! The central soundness property of semantic caching: *no configuration
//! of the CMS may change query answers* — caching, subsumption,
//! generalization, prefetching and lazy evaluation are pure
//! optimizations. Plus algebraic invariants of the substrate.

use braid::{
    BraidConfig, BraidSystem, CmsConfig, Coupling, KnowledgeBase, Strategy as BraidStrategy,
};
use braid_caql::parse_rule;
use braid_relational::{
    ops, tuple, Candidates, CmpOp, ColumnarRelation, Expr, Generator, Relation, Schema, Tuple,
    Value,
};
use braid_subsume::{subsumes, Component, ViewDef};
use proptest::prelude::*;
use std::sync::Arc;

// ---------- generators ----------

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..6i64).prop_map(Value::Int),
        (0..4u8).prop_map(|i| Value::str(format!("c{i}"))),
    ]
}

fn relation_2col(name: &'static str) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((small_value(), small_value()), 0..12).prop_map(move |rows| {
        let mut r = Relation::new(Schema::of_strs(name, &["x", "y"]));
        for (a, b) in rows {
            r.insert(Tuple::new(vec![a, b])).unwrap();
        }
        r
    })
}

// ---------- relational algebra invariants ----------

proptest! {
    #[test]
    fn lazy_equals_eager_select_project(rel in relation_2col("b")) {
        let pred = Expr::col_cmp(0, braid_relational::CmpOp::Ge, 2);
        let eager = ops::project(&ops::select(&rel, &pred).unwrap(), &[1]).unwrap();
        let lazy = Generator::scan(Arc::new(rel))
            .filter(pred)
            .project(&[1])
            .unwrap()
            .materialize()
            .unwrap();
        prop_assert_eq!(eager, lazy);
    }

    #[test]
    fn lazy_equals_eager_join(l in relation_2col("l"), r in relation_2col("r")) {
        let eager = ops::equijoin(&l, &r, &[(1, 0)]).unwrap();
        let lazy = Generator::scan(Arc::new(l))
            .hash_join(Generator::scan(Arc::new(r)), &[(1, 0)])
            .materialize()
            .unwrap();
        prop_assert_eq!(eager, lazy);
    }

    #[test]
    fn union_is_commutative_and_idempotent(
        a in relation_2col("a"),
        b in relation_2col("b"),
    ) {
        let ab = ops::union(&a, &b).unwrap();
        let ba = ops::union(&b, &a).unwrap();
        prop_assert_eq!(&ab, &ba);
        let aa = ops::union(&a, &a).unwrap();
        prop_assert_eq!(&aa, &a);
    }

    #[test]
    fn difference_and_intersection_partition(
        a in relation_2col("a"),
        b in relation_2col("b"),
    ) {
        let diff = ops::difference(&a, &b).unwrap();
        let inter = ops::intersect(&a, &b).unwrap();
        prop_assert_eq!(diff.len() + inter.len(), a.len());
    }

    #[test]
    fn index_probe_equals_scan(
        rel in relation_2col("b"),
        key in prop_oneof![small_value(), (0..6i64).prop_map(|i| Value::Float(i as f64))],
    ) {
        // The rows a scan's `col0 = key` keeps, by position.
        let scan: Vec<u32> = (0u32..)
            .zip(rel.iter())
            .filter(|(_, t)| CmpOp::Eq.eval(&t.values()[0], &key))
            .map(|(i, _)| i)
            .collect();
        let indexed = ColumnarRelation::from_relation(&rel).with_indexes(&[0]).unwrap();
        let eq = [Expr::col_cmp(0, CmpOp::Eq, key)];
        let Candidates::Probe { col: 0, rows } = indexed.candidate_rows(&eq) else {
            panic!("an equality on the indexed column probes");
        };
        prop_assert_eq!(scan, rows.to_vec());
    }
}

// ---------- subsumption soundness ----------

proptest! {
    /// Whenever `subsumes` claims a derivation, evaluating the derivation
    /// against the element's extension equals evaluating the query
    /// directly against the base data.
    #[test]
    fn subsumption_derivations_are_sound(
        base in relation_2col("b"),
        c1 in small_value(),
    ) {
        // Element: e(X, Y) :- b(X, Y)  (materialized = base itself).
        let e = ViewDef::new(parse_rule("e(X, Y) :- b(X, Y).").unwrap()).unwrap();
        // Query: q(X) :- b(X, c1).
        let q = parse_rule(&format!(
            "q(X) :- b(X, {}).",
            render_const(&c1)
        )).unwrap();
        let comp = Component::whole(&q);
        let d = subsumes(&e, &comp, &["X"]).expect("general element subsumes instance");
        // Derivation evaluation: filter + project over the extension.
        let derived = ops::project(
            &ops::select(&base, &d.filter_expr()).unwrap(),
            &d.projection(&["X"]).unwrap(),
        ).unwrap();
        // Direct evaluation.
        let direct = ops::project(
            &ops::select(&base, &Expr::col_cmp(1, braid_relational::CmpOp::Eq, c1)).unwrap(),
            &[0],
        ).unwrap();
        prop_assert_eq!(derived, direct);
    }
}

fn render_const(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        other => other.to_string(),
    }
}

// ---------- end-to-end: configurations never change answers ----------

fn tiny_system(parent_rows: &[(u8, u8)], cms: CmsConfig) -> BraidSystem {
    let mut db = braid::Catalog::new();
    let mut rel = Relation::new(Schema::of_strs("parent", &["p", "c"]));
    for (a, b) in parent_rows {
        rel.insert(tuple![format!("p{a}"), format!("p{b}")])
            .unwrap();
    }
    db.install(rel);
    let mut kb = KnowledgeBase::new();
    kb.declare_base("parent", 2);
    kb.add_program(
        "gp(X, Y) :- parent(X, Z), parent(Z, Y).\n\
         sib(X, Y) :- parent(P, X), parent(P, Y), X != Y.\n\
         vip(p1).\n\
         vip(p3).\n\
         vipkid(X, Y) :- vip(X), parent(X, Y).",
    )
    .unwrap();
    BraidSystem::new(db, kb, BraidConfig::with_cms(cms))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn cms_configuration_never_changes_answers(
        rows in proptest::collection::vec((0..8u8, 0..8u8), 1..14),
        queries in proptest::collection::vec((0..3u8, 0..8u8), 1..6),
    ) {
        let mut reference: Option<Vec<Vec<Tuple>>> = None;
        for coupling in Coupling::ALL {
            let mut sys = tiny_system(&rows, CmsConfig::coupled(coupling));
            let mut answers = Vec::new();
            for (view, c) in &queries {
                let v = match *view % 3 {
                    0 => "gp",
                    1 => "sib",
                    _ => "vipkid",
                };
                let q = format!("?- {v}(p{c}, Y).");
                answers.push(sys.solve_all(&q, BraidStrategy::ConjunctionCompiled).unwrap());
            }
            match &reference {
                None => reference = Some(answers),
                Some(r) => prop_assert_eq!(r, &answers),
            }
        }
    }

    #[test]
    fn strategies_agree_on_answers(
        rows in proptest::collection::vec((0..8u8, 0..8u8), 1..12),
        c in 0..8u8,
    ) {
        let query = format!("?- gp(p{c}, Y).");
        let mut reference: Option<Vec<Tuple>> = None;
        for strat in [
            BraidStrategy::Interpreted,
            BraidStrategy::ConjunctionCompiled,
            BraidStrategy::FullyCompiled,
        ] {
            let mut sys = tiny_system(&rows, CmsConfig::braid());
            let answers = sys.solve_all(&query, strat).unwrap();
            match &reference {
                None => reference = Some(answers),
                Some(r) => prop_assert_eq!(r, &answers),
            }
        }
    }
}

// ---------- parser round-trips ----------

proptest! {
    #[test]
    fn rule_display_parses_back(
        arity in 1..3usize,
        n_atoms in 1..4usize,
        seed in 0..1000u32,
    ) {
        // Construct a simple random rule deterministically from the seed.
        let mut body = Vec::new();
        for i in 0..n_atoms {
            let mut args = Vec::new();
            for j in 0..arity {
                if (seed as usize + i * 3 + j).is_multiple_of(3) {
                    args.push(format!("c{}", (seed as usize + j) % 5));
                } else {
                    args.push(format!("V{}", (i + j) % 4));
                }
            }
            body.push(format!("b{i}({})", args.join(", ")));
        }
        // Ensure safety: head vars drawn from body.
        let src = format!("h(V0) :- {}, V0 = V0.", body.join(", "));
        if let Ok(rule) = parse_rule(&src) {
            let reparsed = parse_rule(&format!("{rule}.")).unwrap();
            prop_assert_eq!(rule, reparsed);
        }
    }
}
