//! The reference model: a naive, cache-free, subsumption-free CAQL
//! evaluator that serves as the answer oracle.
//!
//! The model deliberately shares *no* machinery with the system under
//! test. Where the IE/CMS pipeline plans, caches, subsumes, generalizes,
//! prefetches and degrades, the model does the dumbest correct thing:
//! bottom-up naive fixpoint evaluation of the whole knowledge base over
//! the ground-truth catalog, with stratified negation-as-failure, then a
//! select over the goal pattern. If the two ever disagree on an
//! `Exact`-tagged answer, the system is wrong (or, symmetrically, the
//! model is — either way a bug worth a shrunk repro).
//!
//! Answer shape contract (matching `InferenceEngine::solve_all`): one
//! tuple per solution, one column per goal argument (constants included),
//! sorted and deduplicated.

use braid::{KnowledgeBase, Rule};
use braid_caql::{parse_query, Atom, ConjunctiveQuery, Literal, Subst, Term};
use braid_relational::{CmpOp, Relation, Schema, Tuple, Value};
use braid_remote::Catalog;
use std::collections::{BTreeMap, BTreeSet};

/// One variable assignment produced while evaluating a rule body.
type Bindings = BTreeMap<String, Value>;

/// The oracle: every predicate's full extension, computed once, naively.
pub struct RefModel {
    /// Extension of every base and derived predicate.
    db: BTreeMap<String, Relation>,
}

impl RefModel {
    /// Evaluate the whole knowledge base over the catalog to fixpoint.
    ///
    /// # Errors
    /// Returns a message if the program is unstratifiable (negation
    /// through recursion), a rule head has an unbound variable, or a rule
    /// references a relation absent from both the catalog and the rules.
    pub fn new(catalog: &Catalog, kb: &KnowledgeBase) -> Result<RefModel, String> {
        let mut db: BTreeMap<String, Relation> = BTreeMap::new();
        for name in catalog.names() {
            let rel = catalog
                .relation(name)
                .map_err(|e| format!("catalog relation {name}: {e}"))?;
            db.insert(name.to_string(), (**rel).clone());
        }
        // Empty extensions for every derived predicate, so negation over
        // a not-yet-derived predicate in a later stratum still resolves.
        for r in kb.rules() {
            let head = &r.clause.head;
            db.entry(head.pred.clone()).or_insert_with(|| {
                Relation::new(Schema::positional(head.pred.clone(), head.arity()))
            });
        }

        for stratum in stratify(kb)? {
            fixpoint(&mut db, &stratum)?;
        }
        Ok(RefModel { db })
    }

    /// Solve a textual AI query (`?- p(a, X).`) against the model.
    ///
    /// # Errors
    /// Parse errors and unknown predicates.
    pub fn solve_text(&self, query: &str) -> Result<Vec<Tuple>, String> {
        let goal = parse_query(query).map_err(|e| format!("parse `{query}`: {e}"))?;
        self.solve_goal(&goal)
    }

    /// All solutions of a goal atom: the predicate's extension selected by
    /// the goal's constants and repeated variables, full goal arity,
    /// sorted and deduplicated. A constant matches a stored value as the
    /// engines' comparisons do (`1` matches `1.0`), and the answer shows
    /// the goal's constant, as the system's does.
    ///
    /// # Errors
    /// Unknown predicates.
    pub fn solve_goal(&self, goal: &Atom) -> Result<Vec<Tuple>, String> {
        let rel = self
            .db
            .get(&goal.pred)
            .ok_or_else(|| format!("unknown predicate {}", goal.pred))?;
        let mut out: BTreeSet<Tuple> = BTreeSet::new();
        'tuples: for t in rel.iter() {
            let mut bound: BTreeMap<&str, &Value> = BTreeMap::new();
            let mut row = Vec::with_capacity(goal.arity());
            for (arg, v) in goal.args.iter().zip(t.values()) {
                let shown = match arg {
                    Term::Const(c) if CmpOp::Eq.eval(c, v) => c,
                    Term::Const(_) => continue 'tuples,
                    Term::Var(name) => match bound.get(name.as_str()) {
                        Some(prev) if *prev != v => continue 'tuples,
                        Some(_) => v,
                        None => {
                            bound.insert(name, v);
                            v
                        }
                    },
                };
                row.push(shown.clone());
            }
            out.insert(Tuple::new(row));
        }
        Ok(out.into_iter().collect())
    }

    /// Evaluate an arbitrary conjunctive query (head projection included)
    /// against the model database — base relations *and* derived
    /// extensions. Used by edge-case tests as the ground truth for
    /// CMS-level plans (subsumption compensation, remainders, negation).
    ///
    /// # Errors
    /// Unknown predicates, unschedulable literals, unbound head variables.
    pub fn eval_query(&self, q: &ConjunctiveQuery) -> Result<Vec<Tuple>, String> {
        let rows = eval_body(&self.db, &q.body)?;
        let mut out: BTreeSet<Tuple> = BTreeSet::new();
        for b in &rows {
            out.insert(instantiate_head(&q.head, b)?);
        }
        Ok(out.into_iter().collect())
    }

    /// The full extension of a predicate (test support).
    pub fn extension(&self, pred: &str) -> Option<&Relation> {
        self.db.get(pred)
    }
}

/// Assign each derived predicate a stratum: positive dependencies stay in
/// the same stratum or above, negative dependencies must be strictly
/// above. Returns rules grouped by stratum, ascending.
fn stratify(kb: &KnowledgeBase) -> Result<Vec<Vec<Rule>>, String> {
    let mut stratum: BTreeMap<&str, usize> = BTreeMap::new();
    for r in kb.rules() {
        stratum.insert(&r.clause.head.pred, 0);
    }
    let npreds = stratum.len().max(1);
    // Bellman-Ford-style relaxation; more than |preds| lifts of any
    // predicate means a negative cycle (unstratifiable program).
    for round in 0..=npreds {
        let mut changed = false;
        for r in kb.rules() {
            let head = r.clause.head.pred.as_str();
            let mut need = stratum[head];
            for l in &r.clause.body {
                match l {
                    Literal::Atom(a) => {
                        if let Some(&s) = stratum.get(a.pred.as_str()) {
                            need = need.max(s);
                        }
                    }
                    Literal::Neg(a) => {
                        if let Some(&s) = stratum.get(a.pred.as_str()) {
                            need = need.max(s + 1);
                        }
                    }
                    Literal::Cmp(_) | Literal::Bind { .. } => {}
                }
            }
            if need > stratum[head] {
                stratum.insert(&r.clause.head.pred, need);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == npreds {
            return Err("program is not stratifiable (negation through recursion)".into());
        }
    }
    let max = stratum.values().copied().max().unwrap_or(0);
    let mut out: Vec<Vec<Rule>> = vec![Vec::new(); max + 1];
    for r in kb.rules() {
        out[stratum[r.clause.head.pred.as_str()]].push(r.clone());
    }
    Ok(out.into_iter().filter(|s| !s.is_empty()).collect())
}

/// Naive fixpoint of one stratum: re-derive every rule until no relation
/// grows.
fn fixpoint(db: &mut BTreeMap<String, Relation>, rules: &[Rule]) -> Result<(), String> {
    loop {
        let mut changed = false;
        for r in rules {
            let rows = eval_body(db, &r.clause.body)?;
            let head = &r.clause.head;
            let mut fresh = Vec::new();
            for b in &rows {
                fresh.push(instantiate_head(head, b)?);
            }
            let rel = db
                .get_mut(&head.pred)
                .expect("derived extensions pre-seeded");
            for t in fresh {
                if rel.insert(t).map_err(|e| format!("insert: {e}"))? {
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

/// Ground the head atom under one binding row.
fn instantiate_head(head: &Atom, b: &Bindings) -> Result<Tuple, String> {
    let mut vals = Vec::with_capacity(head.arity());
    for arg in &head.args {
        match arg {
            Term::Const(c) => vals.push(c.clone()),
            Term::Var(v) => vals.push(
                b.get(v)
                    .cloned()
                    .ok_or_else(|| format!("unsafe rule: head variable {v} unbound"))?,
            ),
        }
    }
    Ok(Tuple::new(vals))
}

/// Evaluate a body: nested-loop joins for positive atoms, with
/// comparisons, evaluable binds and negation-as-failure applied as soon
/// as their inputs are bound. Negations are deferred until no positive
/// literal can bind more variables; their never-bound variables are
/// existential (safe-query semantics).
fn eval_body(db: &BTreeMap<String, Relation>, body: &[Literal]) -> Result<Vec<Bindings>, String> {
    let mut rows: Vec<Bindings> = vec![BTreeMap::new()];
    let mut bound: BTreeSet<String> = BTreeSet::new();
    let mut pending: Vec<&Literal> = body.iter().collect();

    while !pending.is_empty() {
        let ready = pending.iter().position(|l| match l {
            Literal::Atom(_) => true,
            Literal::Cmp(c) => {
                c.lhs.vars().iter().all(|v| bound.contains(*v))
                    && c.rhs.vars().iter().all(|v| bound.contains(*v))
            }
            Literal::Bind { expr, .. } => expr.vars().iter().all(|v| bound.contains(*v)),
            Literal::Neg(_) => false,
        });
        let idx = match ready {
            Some(i) => i,
            // Only negations (or unschedulable comparisons) left.
            None => match pending.iter().position(|l| matches!(l, Literal::Neg(_))) {
                Some(i) => i,
                None => {
                    return Err(format!(
                        "cannot schedule literal `{}`: unbound variables",
                        pending[0]
                    ))
                }
            },
        };
        let lit = pending.remove(idx);
        match lit {
            Literal::Atom(a) => {
                let rel = db
                    .get(&a.pred)
                    .ok_or_else(|| format!("unknown relation {}", a.pred))?;
                let mut next = Vec::new();
                for b in &rows {
                    join_atom(a, rel, b, &mut next);
                }
                rows = next;
                for v in a.vars() {
                    bound.insert(v.to_string());
                }
            }
            Literal::Neg(a) => {
                let rel = db
                    .get(&a.pred)
                    .ok_or_else(|| format!("unknown relation {}", a.pred))?;
                rows.retain(|b| {
                    let mut probe = Vec::new();
                    join_atom(a, rel, b, &mut probe);
                    probe.is_empty()
                });
            }
            Literal::Cmp(c) => {
                let mut keep = Vec::new();
                for b in rows {
                    let s = subst_of(&b);
                    let ground = match s.apply_literal(&Literal::Cmp(c.clone())) {
                        Literal::Cmp(g) => g,
                        _ => unreachable!("substitution preserves literal shape"),
                    };
                    if ground.eval().map_err(|e| format!("comparison {c}: {e}"))? {
                        keep.push(b);
                    }
                }
                rows = keep;
            }
            Literal::Bind { var, expr } => {
                let mut next = Vec::new();
                for mut b in rows {
                    let s = subst_of(&b);
                    let v = s
                        .apply_arith(expr)
                        .eval()
                        .map_err(|e| format!("bind {var} is {expr}: {e}"))?;
                    match b.get(var.as_str()) {
                        Some(prev) if *prev != v => {}
                        Some(_) => next.push(b),
                        None => {
                            b.insert(var.clone(), v);
                            next.push(b);
                        }
                    }
                }
                rows = next;
                bound.insert(var.clone());
            }
        }
    }
    Ok(rows)
}

/// Extend one binding row against every matching tuple of `rel`.
fn join_atom(a: &Atom, rel: &Relation, b: &Bindings, out: &mut Vec<Bindings>) {
    'row: for t in rel.iter() {
        if t.values().len() != a.arity() {
            continue;
        }
        let mut nb = b.clone();
        for (arg, v) in a.args.iter().zip(t.values()) {
            match arg {
                Term::Const(c) => {
                    if !CmpOp::Eq.eval(c, v) {
                        continue 'row;
                    }
                }
                Term::Var(x) => match nb.get(x.as_str()) {
                    Some(prev) if prev != v => continue 'row,
                    Some(_) => {}
                    None => {
                        nb.insert(x.clone(), v.clone());
                    }
                },
            }
        }
        out.push(nb);
    }
}

/// A binding row as a substitution (for grounding comparisons/binds).
fn subst_of(b: &Bindings) -> Subst {
    let mut s = Subst::new();
    for (v, val) in b {
        s.insert(v.clone(), Term::Const(val.clone()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid::{BraidConfig, BraidSystem, Strategy};
    use braid_caql::parse_rule;
    use braid_relational::tuple;

    fn tiny_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.install(
            Relation::from_tuples(
                Schema::of_strs("parent", &["p", "c"]),
                vec![
                    tuple!["ann", "bob"],
                    tuple!["bob", "cal"],
                    tuple!["cal", "dee"],
                ],
            )
            .unwrap(),
        );
        c
    }

    fn tiny_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.declare_base("parent", 2);
        kb.add_program(
            "anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).\n\
             leaf(X) :- parent(P, X), not parent(X, Q).",
        )
        .unwrap();
        kb
    }

    #[test]
    fn recursive_closure_reaches_fixpoint() {
        let m = RefModel::new(&tiny_catalog(), &tiny_kb()).unwrap();
        assert_eq!(m.extension("anc").unwrap().len(), 6);
        let sols = m.solve_text("?- anc(ann, Y).").unwrap();
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn goal_constants_and_repeats_select() {
        let m = RefModel::new(&tiny_catalog(), &tiny_kb()).unwrap();
        let sols = m.solve_text("?- anc(bob, dee).").unwrap();
        assert_eq!(sols, vec![tuple!["bob", "dee"]]);
        // Repeated variable: anc(X, X) is empty on a tree.
        assert!(m.solve_text("?- anc(X, X).").unwrap().is_empty());
    }

    #[test]
    fn negation_as_failure_is_stratified() {
        let m = RefModel::new(&tiny_catalog(), &tiny_kb()).unwrap();
        let sols = m.solve_text("?- leaf(X).").unwrap();
        assert_eq!(sols, vec![tuple!["dee"]]);
    }

    #[test]
    fn unstratifiable_program_is_rejected() {
        let mut kb = KnowledgeBase::new();
        kb.declare_base("b", 1);
        kb.add_program("p(X) :- b(X), not q(X).\nq(X) :- b(X), not p(X).")
            .unwrap();
        let mut c = Catalog::new();
        c.install(Relation::from_tuples(Schema::of_strs("b", &["x"]), vec![tuple!["a"]]).unwrap());
        assert!(RefModel::new(&c, &kb).is_err());
    }

    #[test]
    fn eval_query_handles_comparisons_and_binds() {
        let mut c = Catalog::new();
        c.install(
            Relation::from_tuples(
                Schema::of_strs("n", &["x"]),
                (0..6i64).map(|i| Tuple::new(vec![Value::Int(i)])),
            )
            .unwrap(),
        );
        let m = RefModel::new(&c, &KnowledgeBase::new()).unwrap();
        let q = parse_rule("big(X, Y) :- n(X), X >= 3, Y is X + 1.").unwrap();
        let sols = m.eval_query(&q).unwrap();
        assert_eq!(
            sols,
            vec![
                Tuple::new(vec![Value::Int(3), Value::Int(4)]),
                Tuple::new(vec![Value::Int(4), Value::Int(5)]),
                Tuple::new(vec![Value::Int(5), Value::Int(6)]),
            ]
        );
    }

    #[test]
    fn goal_constants_compare_numerically_as_the_system_does() {
        let catalog = || {
            let mut c = Catalog::new();
            c.install(
                Relation::from_tuples(
                    Schema::of_strs("b", &["k", "v"]),
                    vec![tuple!["x", 1.0], tuple!["y", 2], tuple!["z", 1]],
                )
                .unwrap(),
            );
            c
        };
        let kb = || {
            let mut kb = KnowledgeBase::new();
            kb.declare_base("b", 2);
            kb.add_program("one(K) :- b(K, 1).").unwrap();
            kb
        };
        let m = RefModel::new(&catalog(), &kb()).unwrap();
        let mut sys = BraidSystem::new(catalog(), kb(), BraidConfig::default());
        for q in ["?- b(K, 1).", "?- one(K)."] {
            let want = m.solve_text(q).unwrap();
            assert_eq!(
                sys.solve_all(q, Strategy::ConjunctionCompiled).unwrap(),
                want,
                "`{q}`"
            );
            assert_eq!(want.len(), 2, "`{q}`: `1` matches the stored `1.0`");
        }
    }
}
