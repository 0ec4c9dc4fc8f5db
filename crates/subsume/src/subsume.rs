//! The directional containment test with compensation.
//!
//! §5.3.2: "Check for subsumption requires matching the predicate in the
//! subquery with the predicate in the cache element. This matching is like
//! a unification in a single direction; a constant in the predicate in the
//! subquery can match with the same constant or a variable at the
//! corresponding position in the predicate in the cache element, but a
//! variable can only match with a variable."
//!
//! [`subsumes`] extends that per-predicate test to whole components: it
//! searches for a bijective mapping of the element's relation occurrences
//! onto the component's occurrences under a single global substitution,
//! verifies the element's selection predicates are implied by the
//! component's, and emits the residual selection/projection
//! ([`Derivation`]) that computes the component from the element's stored
//! columns.

use crate::decompose::Component;
use crate::derive::{Derivation, ResidualFilter};
use crate::view::ViewDef;
use braid_caql::{ArithExpr, Atom, Comparison, Term, Value};
use braid_relational::CmpOp;
use std::collections::BTreeMap;

/// A flat, one-step mapping from element variables to query terms.
///
/// Deliberately *not* a [`braid_caql::Subst`]: element and query variable
/// namespaces may overlap (both sides like to call things `X`), so
/// chain-following application would leak query variables back into
/// element bindings. One-step lookup keeps the two namespaces apart.
type Theta = BTreeMap<String, Term>;

fn theta_term(theta: &Theta, t: &Term) -> Term {
    match t {
        Term::Var(v) => theta.get(v).cloned().unwrap_or_else(|| t.clone()),
        Term::Const(_) => t.clone(),
    }
}

fn theta_arith(theta: &Theta, e: &ArithExpr) -> ArithExpr {
    match e {
        ArithExpr::Term(t) => ArithExpr::Term(theta_term(theta, t)),
        ArithExpr::Bin(op, a, b) => ArithExpr::Bin(
            *op,
            Box::new(theta_arith(theta, a)),
            Box::new(theta_arith(theta, b)),
        ),
    }
}

/// Test whether view `e` subsumes (can derive) the query `component`, with
/// the variables in `needed` required to be available in the result.
///
/// Returns the [`Derivation`] on success. The derivation's `var_cols`
/// covers every component variable that the element's stored columns
/// expose, which always includes `needed`.
///
/// ```
/// use braid_caql::parse_rule;
/// use braid_subsume::{subsumes, Component, ViewDef};
///
/// // The paper's E12 = b3(X, c2, Y) against the b3-part of d2(X, c6).
/// let e12 = ViewDef::new(parse_rule("e12(X, Y) :- b3(X, c2, Y).").unwrap()).unwrap();
/// let q = parse_rule("q(Z) :- b3(Z, c2, c6).").unwrap();
/// let d = subsumes(&e12, &Component::whole(&q), &["Z"]).unwrap();
/// assert_eq!(d.var_cols["Z"], 0);        // Z comes from E12's first column
/// assert_eq!(d.filters.len(), 1);        // residual selection: col1 = c6
/// ```
pub fn subsumes(e: &ViewDef, component: &Component, needed: &[&str]) -> Option<Derivation> {
    let e_atoms = e.atoms();
    let q_atoms: Vec<&Atom> = component.atoms.iter().collect();
    if e_atoms.len() != q_atoms.len() {
        // The element either misses occurrences (cannot produce the join)
        // or has extra ones ("the cache element is more restricted").
        return None;
    }

    // Quick multiset check on functors before searching.
    let mut fe: Vec<(&str, usize)> = e_atoms.iter().map(|a| (&*a.pred, a.arity())).collect();
    let mut fq: Vec<(&str, usize)> = q_atoms.iter().map(|a| (&*a.pred, a.arity())).collect();
    fe.sort_unstable();
    fq.sort_unstable();
    if fe != fq {
        return None;
    }

    let mut used = vec![false; q_atoms.len()];
    let mut theta = Theta::new();
    if !assign(&e_atoms, 0, &q_atoms, &mut used, &mut theta) {
        return None;
    }
    finish(e, component, needed, &theta)
}

/// Depth-first search for a consistent bijective assignment of element
/// atoms onto query atoms under a shared substitution.
fn assign(
    e_atoms: &[&Atom],
    i: usize,
    q_atoms: &[&Atom],
    used: &mut [bool],
    theta: &mut Theta,
) -> bool {
    if i == e_atoms.len() {
        return true;
    }
    for (j, q) in q_atoms.iter().enumerate() {
        if used[j] {
            continue;
        }
        if let Some(extension) = match_under(e_atoms[i], q, theta) {
            used[j] = true;
            let saved = theta.clone();
            theta.extend(extension);
            if assign(e_atoms, i + 1, q_atoms, used, theta) {
                return true;
            }
            *theta = saved;
            used[j] = false;
        }
    }
    false
}

/// Directional match of one element atom onto one query atom, consistent
/// with the bindings already in `theta`. Returns the *new* bindings.
fn match_under(e: &Atom, q: &Atom, theta: &Theta) -> Option<Theta> {
    if e.pred != q.pred || e.arity() != q.arity() {
        return None;
    }
    let mut fresh = Theta::new();
    for (te, tq) in e.args.iter().zip(&q.args) {
        match te {
            Term::Const(ce) => match tq {
                Term::Const(cq) if ce == cq => {}
                // Element constant vs query variable or different constant:
                // the element is more restricted.
                _ => return None,
            },
            Term::Var(v) => {
                let bound = theta.get(v).cloned().or_else(|| fresh.get(v).cloned());
                match bound {
                    None => {
                        fresh.insert(v.clone(), tq.clone());
                    }
                    Some(prev) if prev == *tq => {}
                    Some(_) => return None,
                }
            }
        }
    }
    Some(fresh)
}

/// After a successful atom mapping, validate comparisons and build the
/// derivation.
fn finish(
    e: &ViewDef,
    component: &Component,
    needed: &[&str],
    theta: &Theta,
) -> Option<Derivation> {
    // Columns per element variable (first head occurrence).
    let col_of = |v: &str| e.col_of_var(v);

    let mut filters: Vec<ResidualFilter> = Vec::new();
    let mut var_cols: BTreeMap<String, usize> = BTreeMap::new();
    // Element vars grouped by the query variable they map to (to emit
    // ColsEq residuals for query joins the element did not enforce).
    let mut by_query_var: BTreeMap<String, Vec<String>> = BTreeMap::new();

    for a in e.atoms() {
        for t in &a.args {
            if let Term::Var(v) = t {
                match theta_term(theta, t) {
                    Term::Const(c) => {
                        // Query constant where the element is generic:
                        // residual equality selection.
                        let col = col_of(v)?;
                        let f = ResidualFilter::ColConst(col, CmpOp::Eq, c);
                        if !filters.contains(&f) {
                            filters.push(f);
                        }
                    }
                    Term::Var(qv) => {
                        by_query_var.entry(qv).or_default().push(v.clone());
                    }
                }
            }
        }
    }

    for (qv, evs) in &by_query_var {
        let mut evs = evs.clone();
        evs.sort();
        evs.dedup();
        // Expose the query variable through the first stored column among
        // its element variables.
        let cols: Vec<Option<usize>> = evs.iter().map(|v| col_of(v)).collect();
        let first_col = cols.iter().flatten().copied().next();
        if let Some(c0) = first_col {
            var_cols.insert(qv.clone(), c0);
        }
        if evs.len() > 1 {
            // Query join not enforced by the element: all element vars
            // mapping to qv must be stored and pairwise equated.
            let mut stored = Vec::new();
            for c in &cols {
                match c {
                    Some(c) => stored.push(*c),
                    None => return None,
                }
            }
            stored.sort_unstable();
            for w in stored.windows(2) {
                let f = ResidualFilter::ColsEq(w[0], w[1]);
                if !filters.contains(&f) {
                    filters.push(f);
                }
            }
        }
    }

    // Element comparisons (θ-applied) must be implied by the component.
    for ec in e.comparisons() {
        let inst = Comparison {
            op: ec.op,
            lhs: theta_arith(theta, &ec.lhs),
            rhs: theta_arith(theta, &ec.rhs),
        };
        if inst.lhs.vars().is_empty() && inst.rhs.vars().is_empty() {
            // Ground after instantiation: must hold outright.
            if !inst.eval().unwrap_or(false) {
                return None;
            }
            continue;
        }
        let implied = component.cmps.iter().any(|qc| cmp_implies(qc, &inst))
            || component.cmps.contains(&inst);
        if !implied {
            return None;
        }
    }

    // Component comparisons become residuals unless the element already
    // enforces something at least as strong.
    'outer: for qc in &component.cmps {
        for ec in e.comparisons() {
            let inst = Comparison {
                op: ec.op,
                lhs: theta_arith(theta, &ec.lhs),
                rhs: theta_arith(theta, &ec.rhs),
            };
            if inst == *qc || cmp_implies(&inst, qc) {
                continue 'outer;
            }
        }
        // Translate the comparison to element columns.
        match (term_of(&qc.lhs), term_of(&qc.rhs)) {
            (Some(Term::Var(a)), Some(Term::Var(b))) => {
                let (ca, cb) = (var_cols.get(a).copied()?, var_cols.get(b).copied()?);
                filters.push(ResidualFilter::ColCol(ca, qc.op, cb));
            }
            (Some(Term::Var(a)), Some(Term::Const(c))) => {
                let ca = var_cols.get(a).copied()?;
                filters.push(ResidualFilter::ColConst(ca, qc.op, c.clone()));
            }
            (Some(Term::Const(c)), Some(Term::Var(b))) => {
                let cb = var_cols.get(b).copied()?;
                filters.push(ResidualFilter::ColConst(cb, qc.op.flipped(), c.clone()));
            }
            (Some(Term::Const(a)), Some(Term::Const(b))) => {
                if !qc.op.eval(a, b) {
                    return None;
                }
            }
            // Arithmetic beyond bare terms: conservatively refuse unless
            // the exact-match branch above caught it.
            _ => return None,
        }
    }

    // Every needed variable must be exposed.
    for v in needed {
        if !var_cols.contains_key(*v) {
            return None;
        }
    }

    Some(Derivation { var_cols, filters })
}

fn term_of(e: &ArithExpr) -> Option<&Term> {
    match e {
        ArithExpr::Term(t) => Some(t),
        ArithExpr::Bin(..) => None,
    }
}

/// Sound (incomplete) implication test between two comparisons over the
/// same variable with constant bounds: does `a` imply `b`?
///
/// Handles the single-variable interval cases (`X < 5` implies `X < 10`,
/// `X = 3` implies `X >= 1`, ...). Anything else returns `false`, which is
/// always safe: the consequence is at worst a redundant residual filter or
/// a missed reuse, never a wrong answer.
pub fn cmp_implies(a: &Comparison, b: &Comparison) -> bool {
    let (Some((va, opa, ca)), Some((vb, opb, cb))) = (normalize(a), normalize(b)) else {
        return a == b;
    };
    if va != vb {
        return false;
    }
    use CmpOp::*;
    match (opa, opb) {
        // X = c implies X op c' iff c op c' holds.
        (Eq, op) => op.eval(&ca, &cb),
        // X < ca implies...
        (Lt, Lt) => ca <= cb,
        (Lt, Le) => ca <= cb,
        (Lt, Ne) => cb >= ca,
        (Le, Le) => ca <= cb,
        (Le, Lt) => ca < cb,
        (Le, Ne) => cb > ca,
        // X > ca implies...
        (Gt, Gt) => ca >= cb,
        (Gt, Ge) => ca >= cb,
        (Gt, Ne) => cb <= ca,
        (Ge, Ge) => ca >= cb,
        (Ge, Gt) => ca > cb,
        (Ge, Ne) => cb < ca,
        // Ne implies only an identical Ne.
        (Ne, Ne) => ca == cb,
        _ => false,
    }
}

/// Normalize `var op const` / `const op var` to `(var, op, const)`.
fn normalize(c: &Comparison) -> Option<(&str, CmpOp, Value)> {
    match (term_of(&c.lhs), term_of(&c.rhs)) {
        (Some(Term::Var(v)), Some(Term::Const(k))) => Some((v, c.op, k.clone())),
        (Some(Term::Const(k)), Some(Term::Var(v))) => Some((v, c.op.flipped(), k.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Component;
    use braid_caql::parse_rule;

    fn view(src: &str) -> ViewDef {
        ViewDef::new(parse_rule(src).unwrap()).unwrap()
    }

    fn component(src: &str) -> Component {
        // Parse `q(..) :- body.` and take the whole body as one component.
        let q = parse_rule(src).unwrap();
        Component::whole(&q)
    }

    #[test]
    fn paper_e12_subsumes_b3_part() {
        // §5.3.2: E12 = b3(X, c2, Y) can compute the b3(Z, c2, c6) part of
        // d2(X, c6).
        let e12 = view("e12(X, Y) :- b3(X, c2, Y).");
        let q = component("q(Z) :- b3(Z, c2, c6).");
        let d = subsumes(&e12, &q, &["Z"]).unwrap();
        assert_eq!(d.var_cols["Z"], 0);
        assert_eq!(
            d.filters,
            vec![ResidualFilter::ColConst(1, CmpOp::Eq, Value::str("c6"))]
        );
    }

    #[test]
    fn paper_e13_subsumes_b3_part() {
        // E13 = b3(X, Y, Z) also works, with an extra residual on c2.
        let e13 = view("e13(X, Y, Z) :- b3(X, Y, Z).");
        let q = component("q(Z) :- b3(Z, c2, c6).");
        let d = subsumes(&e13, &q, &["Z"]).unwrap();
        assert_eq!(d.filters.len(), 2);
    }

    #[test]
    fn more_restricted_element_rejected() {
        // E2 = b21(3, Y): constant 3 cannot cover the query's variable.
        let e2 = view("e2(Y) :- b21(3, Y).");
        let q = component("q(X) :- b21(X, 2).");
        assert!(subsumes(&e2, &q, &["X"]).is_none());
    }

    #[test]
    fn paper_e1_considered_for_single_predicate() {
        // E1 = b21(X,Y) & b22(Y,Z) has an extra atom: it is *not* a
        // derivation source for the single-atom component (the join may
        // have dropped tuples).
        let e1 = view("e1(X, Y, Z) :- b21(X, Y), b22(Y, Z).");
        let q = component("q(X) :- b21(X, 2).");
        assert!(subsumes(&e1, &q, &["X"]).is_none());
    }

    #[test]
    fn join_component_with_matching_shape() {
        // Paper step 2's Q1b = b23(2,3) & b21(X,2) vs
        // E3' = b21(X,2) & b23(2,Z): order-insensitive assignment.
        let e3 = view("e3(X, Z) :- b21(X, 2), b23(2, Z).");
        let q = component("q(X) :- b23(2, 3), b21(X, 2).");
        let d = subsumes(&e3, &q, &["X"]).unwrap();
        // Residual: Z = 3 on the b23 column.
        assert_eq!(
            d.filters,
            vec![ResidualFilter::ColConst(1, CmpOp::Eq, Value::int(3))]
        );
    }

    #[test]
    fn unenforced_join_requires_cols_eq() {
        // Element stores the cross product; query joins.
        let e = view("e(X, Y, U, V) :- b1(X, Y), b2(U, V).");
        let q = component("q(X, V) :- b1(X, Y), b2(Y, V).");
        let d = subsumes(&e, &q, &["X", "V"]).unwrap();
        assert!(d.filters.contains(&ResidualFilter::ColsEq(1, 2)));
    }

    #[test]
    fn element_enforced_join_covers_query_join() {
        let e = view("e(X, Y, V) :- b1(X, Y), b2(Y, V).");
        let q = component("q(X, V) :- b1(X, Y), b2(Y, V).");
        let d = subsumes(&e, &q, &["X", "V"]).unwrap();
        assert!(d.is_exact());
    }

    #[test]
    fn element_join_does_not_cover_query_product() {
        // Element is more restricted: it joined, the query did not.
        let e = view("e(X, Y, V) :- b1(X, Y), b2(Y, V).");
        let q = component("q(X, U, V) :- b1(X, Y), b2(U, V).");
        assert!(subsumes(&e, &q, &["X", "U"]).is_none());
    }

    #[test]
    fn projected_away_column_blocks_residual() {
        // Element dropped the column the residual must select on.
        let e = view("e(X) :- b1(X, Y).");
        let q = component("q(X) :- b1(X, c9).");
        assert!(subsumes(&e, &q, &["X"]).is_none());
    }

    #[test]
    fn needed_variable_must_be_stored() {
        let e = view("e(X) :- b1(X, Y).");
        let q = component("q(X, Y) :- b1(X, Y).");
        assert!(subsumes(&e, &q, &["X", "Y"]).is_none());
        assert!(subsumes(&e, &q, &["X"]).is_some());
    }

    #[test]
    fn element_comparison_must_be_implied() {
        // Element only holds X > 10: cannot answer an unconstrained query.
        let e = view("e(X, Y) :- b1(X, Y), X > 10.");
        let q = component("q(X, Y) :- b1(X, Y).");
        assert!(subsumes(&e, &q, &["X", "Y"]).is_none());
        // But it can answer X > 20 (implication), with the residual X > 20.
        let q2 = component("q(X, Y) :- b1(X, Y), X > 20.");
        let d = subsumes(&e, &q2, &["X", "Y"]).unwrap();
        assert_eq!(
            d.filters,
            vec![ResidualFilter::ColConst(0, CmpOp::Gt, Value::int(20))]
        );
    }

    #[test]
    fn identical_comparison_needs_no_residual() {
        let e = view("e(X, Y) :- b1(X, Y), X > 10.");
        let q = component("q(X, Y) :- b1(X, Y), X > 10.");
        let d = subsumes(&e, &q, &["X", "Y"]).unwrap();
        assert!(d.is_exact());
    }

    #[test]
    fn query_comparison_residual_between_columns() {
        let e = view("e(X, Y) :- b1(X, Y).");
        let q = component("q(X, Y) :- b1(X, Y), X < Y.");
        let d = subsumes(&e, &q, &["X", "Y"]).unwrap();
        assert_eq!(d.filters, vec![ResidualFilter::ColCol(0, CmpOp::Lt, 1)]);
    }

    #[test]
    fn ground_element_comparison_evaluated() {
        let e = view("e(X, Y) :- b1(X, Y), Y > 5.");
        // Y instantiated to 3 by the query: element can't contain it.
        let q = component("q(X) :- b1(X, 3).");
        assert!(subsumes(&e, &q, &["X"]).is_none());
        let q2 = component("q(X) :- b1(X, 7).");
        assert!(subsumes(&e, &q2, &["X"]).is_some());
    }

    #[test]
    fn cmp_implies_interval_cases() {
        let c = |s: &str| {
            let r = parse_rule(&format!("q(X) :- b(X), {s}.")).unwrap();
            match &r.body[1] {
                braid_caql::Literal::Cmp(c) => c.clone(),
                _ => unreachable!(),
            }
        };
        assert!(cmp_implies(&c("X < 5"), &c("X < 10")));
        assert!(!cmp_implies(&c("X < 10"), &c("X < 5")));
        assert!(cmp_implies(&c("X = 3"), &c("X >= 1")));
        assert!(cmp_implies(&c("X <= 4"), &c("X < 5")));
        assert!(cmp_implies(&c("X > 7"), &c("X != 7")));
        assert!(!cmp_implies(&c("X > 7"), &c("X != 8")));
        assert!(cmp_implies(&c("X >= 8"), &c("X > 7")));
        assert!(!cmp_implies(&c("X >= 7"), &c("X > 7")));
    }

    #[test]
    fn repeated_query_variable_inside_one_atom() {
        let e = view("e(X, Y) :- b1(X, Y).");
        let q = component("q(X) :- b1(X, X).");
        let d = subsumes(&e, &q, &["X"]).unwrap();
        assert_eq!(d.filters, vec![ResidualFilter::ColsEq(0, 1)]);
    }

    #[test]
    fn self_join_components_assign_bijectively() {
        let e = view("e(A, B, C) :- p(A, B), p(B, C).");
        let q = component("q(X, Z) :- p(X, Y), p(Y, Z).");
        let d = subsumes(&e, &q, &["X", "Z"]).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.var_cols["X"], 0);
        assert_eq!(d.var_cols["Z"], 2);
    }
}
