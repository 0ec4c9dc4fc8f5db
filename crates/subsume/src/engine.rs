//! The relevant-element search over a cache of view definitions.
//!
//! §5.3.2's two-step sketch: "1. Consider subqueries of single predicates
//! and the cache elements that have the same predicate in their
//! definitions. An index of type (predicate name, cache element) can
//! expedite this process. ... 2. Consider the predicates to the left and
//! the right of the predicate considered in step 1. If the query does not
//! have the same respective predicates that are also subsumed by the
//! predicates in the cache element, then the cache element is more
//! restricted, and cannot be used".
//!
//! [`SubsumptionEngine::find_relevant`] realizes this with the paper's
//! step-1 key extended by what tells views of one predicate apart: a
//! `(functor, arg position, constant)` candidate index (step 1), then the
//! full containment check of [`crate::subsumes`] — whose bijective atom
//! assignment is exactly the left/right-neighbour requirement, applied
//! exhaustively — on each candidate (step 2).
//!
//! Each element is filed under one slot: the functor of one of its atoms
//! plus that atom's first constant argument and its position, or the
//! functor alone when no atom carries a constant. A query atom looks up
//! its functor's constant-free slot and one slot per constant argument it
//! has. That union misses no subsumer: the directional match lets an
//! element constant match only the *same* query constant at the same
//! position, so whichever query atom the element's filed atom maps onto
//! holds the filed constant there. Constants key by [`braid_caql::Value`]
//! itself, whose `Hash` agrees with the `==` the match applies (`1` and
//! `1.0` stay distinct). A warm probe over a thousand `look(kᵢ, V)` views
//! therefore tests one candidate, not a thousand.

use crate::decompose::{decompose, Component};
use crate::derive::Derivation;
use crate::subsume::subsumes;
use crate::view::ViewDef;
use braid_caql::{Atom, ConjunctiveQuery, Term, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a registered element (assigned by the caller — the CMS
/// uses its cache-element ids).
pub type ElemId = u64;

/// A way to compute one component of a query from one cached element.
#[derive(Debug, Clone)]
pub struct CandidateUse {
    /// The cache element that subsumes the component.
    pub element: ElemId,
    /// The subsumed component of the query.
    pub component: Component,
    /// The compensation computing the component from the element.
    pub derivation: Derivation,
}

/// A candidate-index slot under one predicate: the arity, plus the
/// position and value of one constant argument (`None`: the atom has no
/// constant).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Slot {
    arity: usize,
    bound: Option<(usize, Value)>,
}

/// The predicate and slot `def` is filed under: its first constant
/// argument in body order, or its first atom's bare functor when no atom
/// has a constant.
fn filing(def: &ViewDef) -> (&str, Slot) {
    let atoms = def.atoms();
    let (a, bound) = atoms
        .iter()
        .find_map(|a| Some((*a, Some(constants(a).next()?))))
        .unwrap_or((atoms[0], None));
    let arity = a.arity();
    (&a.pred, Slot { arity, bound })
}

/// The `(position, constant)` pairs among an atom's arguments.
fn constants(a: &Atom) -> impl Iterator<Item = (usize, Value)> + '_ {
    a.args.iter().enumerate().filter_map(|(pos, t)| match t {
        Term::Const(c) => Some((pos, c.clone())),
        Term::Var(_) => None,
    })
}

/// An index of view definitions supporting relevant-element search.
#[derive(Debug, Default)]
pub struct SubsumptionEngine {
    elements: HashMap<ElemId, ViewDef>,
    // predicate → slot → the elements filed there (one slot each).
    index: HashMap<String, HashMap<Slot, BTreeSet<ElemId>>>,
    // containment tests run so far.
    tests: AtomicU64,
}

impl SubsumptionEngine {
    /// Empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an element's definition under `id` (replacing any
    /// definition already registered there).
    pub fn insert(&mut self, id: ElemId, def: ViewDef) {
        self.remove(id);
        let (pred, slot) = filing(&def);
        self.index
            .entry(pred.to_string())
            .or_default()
            .entry(slot)
            .or_default()
            .insert(id);
        self.elements.insert(id, def);
    }

    /// Remove an element (e.g. after cache replacement).
    pub fn remove(&mut self, id: ElemId) -> Option<ViewDef> {
        let def = self.elements.remove(&id)?;
        let (pred, slot) = filing(&def);
        if let Some(slots) = self.index.get_mut(pred) {
            if let Some(ids) = slots.get_mut(&slot) {
                ids.remove(&id);
                if ids.is_empty() {
                    slots.remove(&slot);
                }
            }
            if slots.is_empty() {
                self.index.remove(pred);
            }
        }
        Some(def)
    }

    /// Containment tests ([`crate::subsumes`] calls) the `find_*`
    /// searches have run over this engine's lifetime.
    pub fn containment_tests(&self) -> u64 {
        self.tests.load(Ordering::Relaxed)
    }

    /// The definition registered under `id`.
    pub fn definition(&self, id: ElemId) -> Option<&ViewDef> {
        self.elements.get(&id)
    }

    /// Number of registered elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when no element is registered.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Find every `(component, element, derivation)` triple for `q` — the
    /// paper's set of relevant elements `R(Eᵢ)` of `Q`, with the extra
    /// information of *which* component each element derives and *how*.
    /// Components are returned largest-first.
    pub fn find_relevant(&self, q: &ConjunctiveQuery) -> Vec<CandidateUse> {
        let mut out = Vec::new();
        let n_atoms = q.positive_atoms().len();
        for component in decompose(q) {
            // Step 1: the index.
            let candidates = self.candidates(&component.atoms);
            if candidates.is_empty() {
                continue;
            }
            // Step 2 + full check.
            let needed = needed_vars(q, &component, n_atoms);
            let needed_refs: Vec<&str> = needed.iter().map(String::as_str).collect();
            for id in candidates {
                if let Some(derivation) = self.test(id, &component, &needed_refs) {
                    out.push(CandidateUse {
                        element: id,
                        component: component.clone(),
                        derivation,
                    });
                }
            }
        }
        out
    }

    /// Elements that subsume the *whole* query — usable to answer it
    /// entirely from the cache. Convenience wrapper over
    /// [`SubsumptionEngine::find_relevant`] semantics for the common case.
    pub fn find_whole(&self, q: &ConjunctiveQuery) -> Vec<(ElemId, Derivation)> {
        let component = Component::whole(q);
        let needed: Vec<&str> = q.head.var_set().into_iter().collect();
        self.candidates(&component.atoms)
            .into_iter()
            .filter_map(|id| Some((id, self.test(id, &component, &needed)?)))
            .collect()
    }

    /// Step 1 for a run of query atoms: the elements filed under a slot
    /// one of the atoms satisfies and having as many atoms as the run (a
    /// subsumer's atoms map bijectively onto it), in ascending id order.
    fn candidates(&self, atoms: &[Atom]) -> Vec<ElemId> {
        let mut ids = Vec::new();
        for a in atoms {
            let Some(slots) = self.index.get(&a.pred) else {
                continue;
            };
            let arity = a.arity();
            for bound in std::iter::once(None).chain(constants(a).map(Some)) {
                if let Some(filed) = slots.get(&Slot { arity, bound }) {
                    ids.extend(filed);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|id| {
            let body = &self.elements[id].query().body;
            body.iter().filter(|l| l.as_atom().is_some()).count() == atoms.len()
        });
        ids
    }

    /// One counted containment test of element `id` against `component`.
    fn test(&self, id: ElemId, component: &Component, needed: &[&str]) -> Option<Derivation> {
        self.tests.fetch_add(1, Ordering::Relaxed);
        subsumes(&self.elements[&id], component, needed)
    }
}

/// The variables a component must expose: the query-head variables it
/// covers plus the join variables it shares with the rest of the query
/// (atoms outside the segment and comparisons not fully inside it).
fn needed_vars(q: &ConjunctiveQuery, component: &Component, n_atoms: usize) -> Vec<String> {
    let inside = component.vars();
    let mut outside: BTreeSet<&str> = q.head.var_set();
    if !component.is_whole(n_atoms) {
        let atoms = q.positive_atoms();
        for (i, a) in atoms.iter().enumerate() {
            if i < component.start || i >= component.end {
                outside.extend(a.var_set());
            }
        }
        for l in &q.body {
            if let braid_caql::Literal::Cmp(c) = l {
                if !component.cmps.contains(c) {
                    let mut vs = c.lhs.vars();
                    vs.extend(c.rhs.vars());
                    outside.extend(vs);
                }
            }
        }
    }
    inside
        .intersection(&outside)
        .map(|v| v.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;

    fn view(src: &str) -> ViewDef {
        ViewDef::new(parse_rule(src).unwrap()).unwrap()
    }

    /// The cache state of the paper's running example (§5.3.2):
    ///   E11: b2(X, c1) & b3(Y, c2, c6)
    ///   E12: b3(X, c2, Y)
    ///   E13: b3(X, Y, Z)
    fn paper_cache() -> SubsumptionEngine {
        let mut e = SubsumptionEngine::new();
        e.insert(11, view("e11(X, Y) :- b2(X, c1), b3(Y, c2, c6)."));
        e.insert(12, view("e12(X, Y) :- b3(X, c2, Y)."));
        e.insert(13, view("e13(X, Y, Z) :- b3(X, Y, Z)."));
        e
    }

    #[test]
    fn paper_example_finds_e12_and_e13_for_b3_part() {
        // Query d2(X, c6) = b2(X, Z) & b3(Z, c2, c6): "the CMS will
        // identify that either E12 or E13 can be used to compute the
        // b3(X, c2, Y) part of the query".
        let engine = paper_cache();
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let uses = engine.find_relevant(&q);
        let b3_uses: Vec<_> = uses
            .iter()
            .filter(|u| u.component.len() == 1 && u.component.start == 1)
            .map(|u| u.element)
            .collect();
        assert!(b3_uses.contains(&12), "E12 must be relevant: {uses:?}");
        assert!(b3_uses.contains(&13), "E13 must be relevant: {uses:?}");
        assert!(!b3_uses.contains(&11), "E11 joined b2 in; too restricted");
    }

    #[test]
    fn e12_residual_is_single_selection() {
        let engine = paper_cache();
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let uses = engine.find_relevant(&q);
        let e12 = uses
            .iter()
            .find(|u| u.element == 12 && u.component.start == 1)
            .unwrap();
        // E12 already pins c2; only the c6 selection remains.
        assert_eq!(e12.derivation.filters.len(), 1);
        let e13 = uses
            .iter()
            .find(|u| u.element == 13 && u.component.start == 1)
            .unwrap();
        assert_eq!(e13.derivation.filters.len(), 2);
    }

    #[test]
    fn whole_query_subsumption() {
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("e(X, Z, Y) :- b2(X, Z), b3(Z, c2, Y)."));
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let whole = engine.find_whole(&q);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].0, 1);
        assert!(!whole[0].1.is_exact()); // residual Y = c6
    }

    #[test]
    fn remove_unregisters_from_index() {
        let mut engine = paper_cache();
        assert_eq!(engine.len(), 3);
        engine.remove(12).unwrap();
        assert_eq!(engine.len(), 2);
        let q = parse_rule("q(Z) :- b3(Z, c2, c6).").unwrap();
        let uses = engine.find_relevant(&q);
        assert!(uses.iter().all(|u| u.element != 12));
        assert!(engine.remove(12).is_none());
    }

    #[test]
    fn needed_vars_include_join_variables() {
        // Segment b2(X, Z): Z joins with the b3 atom outside the segment,
        // so an element projecting Z away is unusable for that segment.
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("e(X) :- b2(X, Z)."));
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let uses = engine.find_relevant(&q);
        assert!(uses.iter().all(|u| u.element != 1));
        // With Z stored it becomes usable.
        engine.insert(2, view("e2(X, Z) :- b2(X, Z)."));
        let uses = engine.find_relevant(&q);
        assert!(uses.iter().any(|u| u.element == 2));
    }

    #[test]
    fn larger_components_come_first() {
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("e1(X, Z) :- b2(X, Z)."));
        engine.insert(2, view("e2(X, Z, Y) :- b2(X, Z), b3(Z, c2, Y)."));
        let q = parse_rule("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y).").unwrap();
        let uses = engine.find_relevant(&q);
        assert!(!uses.is_empty());
        // First use covers the whole query (element 2).
        assert_eq!(uses[0].element, 2);
        assert!(uses[0].component.is_whole(2));
    }

    #[test]
    fn empty_engine_finds_nothing() {
        let engine = SubsumptionEngine::new();
        let q = parse_rule("q(X) :- b(X).").unwrap();
        assert!(engine.find_relevant(&q).is_empty());
        assert!(engine.is_empty());
    }

    #[test]
    fn constants_narrow_the_candidates_to_the_matching_view() {
        // A thousand point views over one predicate plus a general one:
        // a probe tests the view with its constant and the general view,
        // in each of the two searches, and nothing else.
        let mut engine = SubsumptionEngine::new();
        engine.insert(0, view("all(K, V) :- fam(K, V)."));
        for k in 1..=1000 {
            engine.insert(k, view(&format!("look(V) :- fam(k{k}, V).")));
        }
        let q = parse_rule("q(V) :- fam(k7, V).").unwrap();
        let before = engine.containment_tests();
        let whole: Vec<ElemId> = engine.find_whole(&q).iter().map(|(id, _)| *id).collect();
        let relevant: Vec<ElemId> = engine.find_relevant(&q).iter().map(|u| u.element).collect();
        assert_eq!(whole, vec![0, 7], "ascending ids");
        assert_eq!(relevant, whole);
        assert_eq!(engine.containment_tests() - before, 4);
    }

    #[test]
    fn int_and_float_constants_file_apart() {
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("i(V) :- num(1, V)."));
        engine.insert(2, view("f(V) :- num(1.0, V)."));
        let hits = |engine: &SubsumptionEngine, src: &str| -> Vec<ElemId> {
            let q = parse_rule(src).unwrap();
            engine.find_whole(&q).iter().map(|(id, _)| *id).collect()
        };
        assert_eq!(hits(&engine, "q(V) :- num(1, V)."), vec![1]);
        assert_eq!(hits(&engine, "q(V) :- num(1.0, V)."), vec![2]);
        engine.remove(1).unwrap();
        assert!(hits(&engine, "q(V) :- num(1, V).").is_empty());
        assert_eq!(hits(&engine, "q(V) :- num(1.0, V)."), vec![2]);
    }

    #[test]
    fn reinserting_an_id_refiles_it() {
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("a(V) :- p(c1, V)."));
        engine.insert(1, view("b(V) :- p(c2, V)."));
        assert_eq!(engine.len(), 1);
        let q = parse_rule("q(V) :- p(c1, V).").unwrap();
        assert!(engine.find_whole(&q).is_empty());
        engine.remove(1).unwrap();
        assert!(engine.index.is_empty(), "no empty buckets left behind");
    }
}
