//! The view specifier.
//!
//! "The view specifier flattens a problem graph ... and produces a set of
//! view specifications. ... Sequences of base and evaluable predicates
//! under an AND node constitute a candidate for a view specification. ...
//! a parameter controls the maximum size of the conjunctions that can be
//! transformed into view specifications (with 1 being the smallest
//! possible value)" (§4.1).
//!
//! The argument set of each `dᵢ` is the paper's minimum set:
//! **A = (H ∪ B) ∩ D** where `H` is the head's variables, `D` the
//! variables of the view body, and `B` the variables of the rest of the
//! rule body (§4.2.1). Producer/consumer annotations come from the
//! binding-flow analysis: a parameter bound before the run executes is a
//! consumer (`?`), one produced by the run is a producer (`^`).

use crate::graph::{AndId, BodyItem, OrId, OrKind, ProblemGraph};
use braid_advice::{Annotation, ViewSpec};
use braid_caql::{Literal, Term};
use std::collections::{BTreeMap, BTreeSet};

/// View-specifier knobs.
#[derive(Debug, Clone, Copy)]
pub struct SpecifyOptions {
    /// Maximum number of relation occurrences per view specification.
    /// `1` gives the interpreted granularity (one CAQL query per base
    /// goal); `usize::MAX` gives conjunction compilation.
    pub max_conj: usize,
}

impl Default for SpecifyOptions {
    fn default() -> Self {
        SpecifyOptions {
            max_conj: usize::MAX,
        }
    }
}

/// One element of an AND node's execution sequence after specification.
#[derive(Debug, Clone)]
pub enum Segment {
    /// A base-and-evaluable run compiled into a view specification;
    /// `spec` indexes into [`SpecifiedGraph::specs`].
    Run {
        /// Index of the view spec.
        spec: usize,
        /// Indices (into the AND node's items) this run covers.
        items: Vec<usize>,
    },
    /// A user-defined (or recursive) subgoal.
    Goal {
        /// Item index.
        item: usize,
        /// The subgoal's OR node.
        or: OrId,
    },
    /// A constraint evaluated by the IE.
    Constraint {
        /// Item index.
        item: usize,
    },
}

/// The output of the view specifier: the specs (advice) and, per AND
/// node, the segmented execution sequence the controller follows.
#[derive(Debug, Clone, Default)]
pub struct SpecifiedGraph {
    /// All view specifications, in creation (d1, d2, ...) order.
    pub specs: Vec<ViewSpec>,
    /// Per-AND-node segmentation.
    pub segments: BTreeMap<AndId, Vec<Segment>>,
}

/// Run the view specifier over a (shaped) problem graph. `start_index`
/// numbers the first spec (`d{start_index+1}`), letting dynamic recursive
/// expansions continue the numbering.
pub fn specify(g: &ProblemGraph, options: SpecifyOptions, start_index: usize) -> SpecifiedGraph {
    let mut out = SpecifiedGraph::default();
    let mut counter = start_index;
    let mut bound: BTreeSet<String> = BTreeSet::new();
    visit_or(g, g.root, options, &mut out, &mut counter, &mut bound);
    out
}

/// Specify a single OR subtree (used when a recursive cut is expanded
/// dynamically at inference time). `bound` is the set of variables bound
/// at entry.
pub fn specify_subtree(
    g: &ProblemGraph,
    root: OrId,
    options: SpecifyOptions,
    out: &mut SpecifiedGraph,
    counter: &mut usize,
    bound: &mut BTreeSet<String>,
) {
    visit_or(g, root, options, out, counter, bound);
}

fn visit_or(
    g: &ProblemGraph,
    or: OrId,
    options: SpecifyOptions,
    out: &mut SpecifiedGraph,
    counter: &mut usize,
    bound: &mut BTreeSet<String>,
) {
    let node = g.or_node(or);
    for &and in &node.children {
        if out.segments.contains_key(&and) {
            continue; // already specified (shared subtree)
        }
        // Each alternative sees the same entry bindings.
        let mut branch_bound = bound.clone();
        visit_and(g, and, options, out, counter, &mut branch_bound);
    }
    // Binding flow propagates through *emitting* elements (runs, binds)
    // only: the paper's Example 2 keeps `d2(X^, Y?)` unchanged even though
    // the IE-internal guard k3(X) precedes the run — "the view
    // specifications for this example would be identical to those of the
    // previous example" (§4.2.2) — so a user-defined subgoal does not turn
    // later occurrences of its variables into consumers.
    let _ = node;
}

fn visit_and(
    g: &ProblemGraph,
    and: AndId,
    options: SpecifyOptions,
    out: &mut SpecifiedGraph,
    counter: &mut usize,
    bound: &mut BTreeSet<String>,
) {
    let node = g.and_node(and);
    let n = node.items.len();
    let mut segments: Vec<Segment> = Vec::new();
    let mut i = 0;
    while i < n {
        match &node.items[i] {
            BodyItem::Goal(o) if g.or_node(*o).kind == OrKind::Base => {
                // Collect a maximal run of base goals (≤ max_conj) plus
                // the evaluable comparisons among them.
                let mut items: Vec<usize> = Vec::new();
                let mut body: Vec<Literal> = Vec::new();
                let mut run_vars: BTreeSet<String> = BTreeSet::new();
                let mut atoms = 0;
                let mut j = i;
                while j < n {
                    match &node.items[j] {
                        BodyItem::Goal(o2) if g.or_node(*o2).kind == OrKind::Base => {
                            if atoms >= options.max_conj {
                                break;
                            }
                            let goal = &g.or_node(*o2).goal;
                            run_vars.extend(goal.var_set().iter().map(|v| v.to_string()));
                            body.push(Literal::Atom(goal.clone()));
                            items.push(j);
                            atoms += 1;
                            j += 1;
                        }
                        BodyItem::Constraint(Literal::Cmp(c)) => {
                            // Absorb a comparison whose variables are all
                            // covered by the run (or already bound: those
                            // become constants at query time).
                            let mut vs = c.lhs.vars();
                            vs.extend(c.rhs.vars());
                            if !vs.is_empty()
                                && vs
                                    .iter()
                                    .all(|v| run_vars.contains(*v) || bound.contains(*v))
                            {
                                body.push(Literal::Cmp(c.clone()));
                                items.push(j);
                                j += 1;
                            } else {
                                break;
                            }
                        }
                        _ => break,
                    }
                }
                // Build the view spec for the run.
                *counter += 1;
                let name = format!("d{counter}");
                let params = min_argument_set(g, node, &items, &run_vars, bound);
                let spec = ViewSpec::new(name, params, body, vec![node.rule_id.clone()]);
                out.specs.push(spec);
                segments.push(Segment::Run {
                    spec: out.specs.len() - 1,
                    items,
                });
                // Run variables become bound for the continuation.
                bound.extend(run_vars);
                i = j;
            }
            BodyItem::Goal(o) => {
                let or = *o;
                segments.push(Segment::Goal { item: i, or });
                visit_or(g, or, options, out, counter, bound);
                i += 1;
            }
            BodyItem::Constraint(l) => {
                segments.push(Segment::Constraint { item: i });
                if let Literal::Bind { var, .. } = l {
                    bound.insert(var.clone());
                }
                i += 1;
            }
        }
    }
    out.segments.insert(and, segments);
}

/// The paper's A = (H ∪ B) ∩ D, with producer/consumer annotations from
/// the entry binding set. Parameters are ordered by first occurrence in
/// the run.
fn min_argument_set(
    g: &ProblemGraph,
    node: &crate::graph::AndNode,
    run_items: &[usize],
    run_vars: &BTreeSet<String>,
    bound: &BTreeSet<String>,
) -> Vec<(Term, Annotation)> {
    // H: head variables.
    let h: BTreeSet<&str> = node.head.var_set();
    // B: variables of the rest of the body (items not in the run).
    let mut b: BTreeSet<String> = BTreeSet::new();
    for (idx, item) in node.items.iter().enumerate() {
        if run_items.contains(&idx) {
            continue;
        }
        match item {
            BodyItem::Goal(o) => {
                b.extend(g.or_node(*o).goal.var_set().iter().map(|v| v.to_string()))
            }
            BodyItem::Constraint(c) => b.extend(c.var_set().iter().map(|v| v.to_string())),
        }
    }
    // D: run variables — `run_vars`, but ordered by first occurrence.
    let mut ordered_d: Vec<String> = Vec::new();
    for &idx in run_items {
        if let BodyItem::Goal(o) = &node.items[idx] {
            for v in g.or_node(*o).goal.vars() {
                if !ordered_d.contains(&v.to_string()) {
                    ordered_d.push(v.to_string());
                }
            }
        }
    }
    debug_assert!(ordered_d.iter().all(|v| run_vars.contains(v)));

    ordered_d
        .into_iter()
        .filter(|v| h.contains(v.as_str()) || b.contains(v))
        .map(|v| {
            let ann = if bound.contains(&v) {
                Annotation::Consumer
            } else {
                Annotation::Producer
            };
            (Term::Var(v), ann)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::KnowledgeBase;
    use braid_caql::parse_atom;

    fn example1_graph() -> ProblemGraph {
        let mut kb = KnowledgeBase::new();
        kb.declare_base("b1", 2);
        kb.declare_base("b2", 2);
        kb.declare_base("b3", 3);
        kb.add_program(
            "k1(X, Y) :- b1(c1, Y), k2(X, Y).\n\
             k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).\n\
             k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).",
        )
        .unwrap();
        ProblemGraph::extract(&kb, &parse_atom("k1(X, Y)").unwrap()).unwrap()
    }

    #[test]
    fn example1_view_specs_match_paper() {
        // Paper §4.2.2 Example 1:
        //   d1(Y^)      =def b1(c1, Y^)            (R1)
        //   d2(X^, Y?)  =def b2(X^, Z) & b3(Z, c2, Y?)   (R2)
        //   d3(X^, Y?)  =def b3(X^, c3, Z) & b1(Z, Y?)   (R3)
        let g = example1_graph();
        let s = specify(&g, SpecifyOptions::default(), 0);
        let rendered: Vec<String> = s.specs.iter().map(|v| v.to_string()).collect();
        assert_eq!(rendered[0], "d1(Y^) =def b1(c1, Y^) (R1)");
        // Rule-internal variables are renamed apart (Z_k); normalize for
        // the comparison.
        let norm = |x: &str| {
            let mut out = String::new();
            let mut chars = x.chars().peekable();
            while let Some(c) = chars.next() {
                if c == '_' {
                    while chars.peek().map(|d| d.is_ascii_digit()).unwrap_or(false) {
                        chars.next();
                    }
                } else {
                    out.push(c);
                }
            }
            out
        };
        assert_eq!(
            norm(&rendered[1]),
            "d2(X^, Y?) =def b2(X^, Z) & b3(Z, c2, Y?) (R2)"
        );
        assert_eq!(
            norm(&rendered[2]),
            "d3(X^, Y?) =def b3(X^, c3, Z) & b1(Z, Y?) (R3)"
        );
    }

    #[test]
    fn paper_minimum_argument_set_k9_example() {
        // §4.2.1: k9(X,Y) ← k2(X,Z) & b1(Z,W) & b2(W,U) & b3(U,V) & k3(V,Y)
        // yields d(Z, V) over the base run.
        let mut kb = KnowledgeBase::new();
        kb.declare_base("b1", 2);
        kb.declare_base("b2", 2);
        kb.declare_base("b3", 2);
        kb.declare_base("bk", 2);
        kb.add_program(
            "k9(X, Y) :- k2(X, Z), b1(Z, W), b2(W, U), b3(U, V), k3(V, Y).\n\
             k2(X, Z) :- bk(X, Z).\n\
             k3(V, Y) :- bk(V, Y).",
        )
        .unwrap();
        let g = ProblemGraph::extract(&kb, &parse_atom("k9(X, Y)").unwrap()).unwrap();
        let s = specify(&g, SpecifyOptions::default(), 0);
        // The b1&b2&b3 run of the k9 rule: find the spec with 3 atoms.
        let d = s
            .specs
            .iter()
            .find(|v| v.body.len() == 3)
            .expect("three-atom run spec");
        let params: Vec<String> = d
            .params
            .iter()
            .filter_map(|(t, _)| t.as_var())
            .map(|v| v.split('_').next().unwrap_or(v).to_string())
            .collect();
        assert_eq!(params, vec!["Z", "V"], "A = (H ∪ B) ∩ D = {{Z, V}}");
    }

    #[test]
    fn interpreted_granularity_one_atom_per_spec() {
        let g = example1_graph();
        let s = specify(&g, SpecifyOptions { max_conj: 1 }, 0);
        assert!(s.specs.iter().all(|v| {
            v.body
                .iter()
                .filter(|l| matches!(l, Literal::Atom(_)))
                .count()
                == 1
        }));
        // b1, then b2, b3 (R2), then b3, b1 (R3) → 5 specs.
        assert_eq!(s.specs.len(), 5);
    }

    #[test]
    fn segments_cover_every_item() {
        let g = example1_graph();
        let s = specify(&g, SpecifyOptions::default(), 0);
        for (and_id, segs) in &s.segments {
            let n = g.and_node(*and_id).items.len();
            let mut covered: BTreeSet<usize> = BTreeSet::new();
            for seg in segs {
                match seg {
                    Segment::Run { items, .. } => covered.extend(items.iter().copied()),
                    Segment::Goal { item, .. } | Segment::Constraint { item } => {
                        covered.insert(*item);
                    }
                }
            }
            assert_eq!(covered.len(), n, "AND node {and_id} fully segmented");
        }
    }

    #[test]
    fn consumer_annotation_requires_prior_binding() {
        // Without the b1 producer first, both k2-params of d-specs would
        // be producers; Example 1's Y? hinges on d1 binding Y first.
        let mut kb = KnowledgeBase::new();
        kb.declare_base("b2", 2);
        kb.declare_base("b3", 3);
        kb.add_program("k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).")
            .unwrap();
        let g = ProblemGraph::extract(&kb, &parse_atom("k2(X, Y)").unwrap()).unwrap();
        let s = specify(&g, SpecifyOptions::default(), 0);
        assert!(s.specs[0]
            .params
            .iter()
            .all(|(_, a)| *a == Annotation::Producer));
    }

    #[test]
    fn numbering_continues_from_start_index() {
        let g = example1_graph();
        let s = specify(&g, SpecifyOptions::default(), 7);
        assert_eq!(s.specs[0].name, "d8");
    }
}
