//! The Query Planner/Optimizer (QPO).
//!
//! "The first step is to determine the query to be evaluated. The second
//! step is to identify relevant cache elements that can possibly be used
//! in processing all or a part of the query. The third step is to generate
//! a plan that consists of a partially ordered set of subqueries to be
//! evaluated by the Cache Manager and the remote DBMS" (§5.3).
//!
//! Step 1 (generalization against advice) lives in [`crate::cms`], which
//! has the advice manager at hand; this module implements steps 2–3:
//! relevant-element identification via the subsumption engine, overlap
//! pruning ("when multiple cache elements overlap ... the most appropriate
//! element has to be chosen", §5.3.3), and the split of the query into
//! cache-local and remote subqueries.

use crate::cache::CacheRead;
use crate::error::{CmsError, Result};
use braid_caql::{Atom, Comparison, ConjunctiveQuery, Literal};
use braid_subsume::{CandidateUse, Derivation};
use std::collections::BTreeSet;

/// Where one plan part's tuples come from.
#[derive(Debug, Clone)]
pub enum PartSource {
    /// Compensation over a cache element (Cache Manager executes).
    Cache {
        /// The element.
        element: crate::element::ElemId,
        /// The residual select/project.
        derivation: Derivation,
    },
    /// A conjunctive subquery shipped to the remote DBMS (RDI executes).
    Remote {
        /// Relation occurrences of the subquery.
        atoms: Vec<Atom>,
        /// Comparisons pushed into the subquery.
        cmps: Vec<Comparison>,
    },
}

/// One subquery of the plan, producing a relation whose columns are named
/// by query variables.
#[derive(Debug, Clone)]
pub struct PlanPart {
    /// Output column names (query variables), in order.
    pub vars: Vec<String>,
    /// The source.
    pub source: PartSource,
}

impl PlanPart {
    /// Is this part served by the cache?
    pub fn is_cache(&self) -> bool {
        matches!(self.source, PartSource::Cache { .. })
    }
}

/// An executable plan: parts (joinable on shared variable names), residual
/// comparisons, and the head to project at the end. Parts are mutually
/// independent — the "partially ordered set of subqueries" of §5 with the
/// join as the single downstream node — which is what lets remote and
/// cache parts run in parallel (§5 feature (e)).
#[derive(Debug, Clone)]
pub struct Plan {
    /// The query this plan evaluates.
    pub query: ConjunctiveQuery,
    /// The subqueries.
    pub parts: Vec<PlanPart>,
    /// Comparisons applied after the join (not guaranteed by any part).
    pub residual_cmps: Vec<Comparison>,
    /// Safe negated atoms, applied as anti-joins after the positive join
    /// — CAQL's NOT, one of the operations "the remote DBMS does not
    /// support ... but the CMS does" (§5.3.3). Each is planned like a
    /// positive part (cache-first, remote fallback) and then removes the
    /// matching bindings.
    pub neg_parts: Vec<PlanPart>,
}

impl Plan {
    /// True when every part is cache-local — the precondition for lazy
    /// evaluation ("lazy evaluation can only be supported by the CMS when
    /// all required data is in the cache", §2).
    pub fn all_cache(&self) -> bool {
        self.parts.iter().all(PlanPart::is_cache)
    }

    /// Number of remote subqueries.
    pub fn remote_parts(&self) -> usize {
        self.parts.iter().filter(|p| !p.is_cache()).count()
    }
}

/// Build a plan for `q` (steps 2–3 of §5.3).
///
/// `use_subsumption` selects between full subsumption reuse and the
/// exact-match-only baseline. The greedy cover prefers larger subsumed
/// components, then fewer residual filters, then smaller elements — this
/// reproduces the §5.3.3 choice of "a selection on E103" over "the join
/// between E101 and E102".
///
/// # Errors
/// Returns an error for unsafe or unplannable queries.
pub fn plan<C: CacheRead>(q: &ConjunctiveQuery, cache: &C, use_subsumption: bool) -> Result<Plan> {
    if !q.is_safe() {
        return Err(CmsError::UnsafeQuery(q.to_string()));
    }
    let atoms: Vec<Atom> = q.positive_atoms().into_iter().cloned().collect();
    if atoms.is_empty() {
        return Err(CmsError::Unplannable(format!(
            "query `{q}` has no relation occurrence"
        )));
    }
    let all_cmps: Vec<Comparison> = q
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Cmp(c) => Some(c.clone()),
            _ => None,
        })
        .collect();
    let mut neg_atoms: Vec<Atom> = Vec::new();
    for l in &q.body {
        match l {
            Literal::Bind { .. } => {
                return Err(CmsError::Unplannable(format!(
                    "literal `{l}` is outside the CMS planning fragment"
                )))
            }
            Literal::Neg(a) => neg_atoms.push(a.clone()),
            _ => {}
        }
    }

    let mut candidates: Vec<CandidateUse> = if use_subsumption {
        cache.relevant(q)
    } else {
        exact_only_candidates(q, cache)
    };

    // Overlap pruning: order by (size desc, residual filters asc, element
    // cardinality asc), then greedily take candidates over uncovered atom
    // ranges.
    candidates.sort_by_key(|c| {
        let card = cache.cardinality_of(c.element).unwrap_or(usize::MAX);
        (
            std::cmp::Reverse(c.component.len()),
            c.derivation.filters.len(),
            card,
        )
    });

    let mut covered = vec![false; atoms.len()];
    let mut parts: Vec<PlanPart> = Vec::new();
    let mut enforced_cmps: Vec<Comparison> = Vec::new();

    for cand in candidates {
        if covered[cand.component.start..cand.component.end]
            .iter()
            .any(|c| *c)
        {
            continue;
        }
        for c in covered
            .iter_mut()
            .take(cand.component.end)
            .skip(cand.component.start)
        {
            *c = true;
        }
        // Expose every variable the element stores (maximal join freedom).
        let vars: Vec<String> = cand.derivation.var_cols.keys().cloned().collect();
        enforced_cmps.extend(cand.component.cmps.iter().cloned());
        parts.push(PlanPart {
            vars,
            source: PartSource::Cache {
                element: cand.element,
                derivation: cand.derivation,
            },
        });
    }

    // Group the uncovered atoms into contiguous remote subqueries — one
    // DBMS request per run, letting the server do the joins it can
    // ("allowing each to perform those operations for which it is best
    // suited", §5).
    let mut i = 0;
    while i < atoms.len() {
        if covered[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < atoms.len() && !covered[i] {
            i += 1;
        }
        let run: Vec<Atom> = atoms[start..i].to_vec();
        let run_vars: BTreeSet<&str> = run.iter().flat_map(|a| a.var_set()).collect();
        // Push simple comparisons whose variables live in the run.
        let pushed: Vec<Comparison> = all_cmps
            .iter()
            .filter(|c| {
                let mut vs = c.lhs.vars();
                vs.extend(c.rhs.vars());
                !vs.is_empty()
                    && vs.iter().all(|v| run_vars.contains(v))
                    && comparison_in_remote_fragment(c)
            })
            .cloned()
            .collect();
        enforced_cmps.extend(pushed.iter().cloned());
        let vars: Vec<String> = run_vars.iter().map(|v| v.to_string()).collect();
        parts.push(PlanPart {
            vars,
            source: PartSource::Remote {
                atoms: run,
                cmps: pushed,
            },
        });
    }

    // Residual comparisons: everything not enforced by some part.
    let residual_cmps: Vec<Comparison> = all_cmps
        .iter()
        .filter(|c| !enforced_cmps.contains(c))
        .cloned()
        .collect();

    // Negated atoms: plan each as its own single-atom part (cache-first).
    let mut neg_parts: Vec<PlanPart> = Vec::new();
    for a in neg_atoms {
        let single = ConjunctiveQuery::new(
            Atom::new(
                "neg",
                a.vars().iter().map(|v| braid_caql::Term::var(*v)).collect(),
            ),
            vec![Literal::Atom(a.clone())],
        );
        let vars: Vec<String> = a.vars().iter().map(|v| v.to_string()).collect();
        let cover = if use_subsumption {
            cache.whole_subsumers(&single).into_iter().next()
        } else {
            None
        };
        let source = match cover {
            Some((element, derivation)) => PartSource::Cache {
                element,
                derivation,
            },
            None => PartSource::Remote {
                atoms: vec![a],
                cmps: Vec::new(),
            },
        };
        neg_parts.push(PlanPart { vars, source });
    }

    Ok(Plan {
        query: q.clone(),
        parts,
        residual_cmps,
        neg_parts,
    })
}

/// The baseline reuse rule: only a whole-query exact match counts
/// ("cached results must exactly match the query", §5.3.2 on \[SELL87\] and
/// \[IOAN88\]).
fn exact_only_candidates<C: CacheRead>(q: &ConjunctiveQuery, cache: &C) -> Vec<CandidateUse> {
    let Some(id) = cache.exact_lookup(q) else {
        return Vec::new();
    };
    // An exact match still needs its variable mapping; reuse the
    // subsumption test against this single element for a sound derivation.
    cache
        .whole_subsumers(q)
        .into_iter()
        .filter(|(e, _)| *e == id)
        .map(|(element, derivation)| CandidateUse {
            element,
            component: braid_subsume::Component::whole(q),
            derivation,
        })
        .collect()
}

fn comparison_in_remote_fragment(c: &Comparison) -> bool {
    use braid_caql::ArithExpr;
    matches!(c.lhs, ArithExpr::Term(_)) && matches!(c.rhs, ArithExpr::Term(_))
}

// ---------------------------------------------------------------------
// §5.3.3 cost-based placement: plan (a) vs plan (b).
// ---------------------------------------------------------------------

/// Statistics of the remote base relations, used for cost estimates.
pub type RemoteStats = std::collections::BTreeMap<String, braid_relational::RelationStats>;

/// Estimated output cardinality of a conjunction of base atoms with the
/// classical uniform assumptions: equality selections scale by `1/V(col)`,
/// each shared-variable join divides by the larger distinct count.
pub fn estimate_conjunction(atoms: &[Atom], stats: &RemoteStats) -> f64 {
    let mut est = 1.0f64;
    // Track, per variable, the distinct-count of its first binding site.
    let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for a in atoms {
        let st = stats.get(&a.pred);
        let card = st.map(|s| s.cardinality as f64).unwrap_or(1000.0);
        est *= card.max(1.0);
        for (i, t) in a.args.iter().enumerate() {
            match t {
                braid_caql::Term::Const(_) => {
                    let sel = st.map(|s| s.eq_selectivity(i)).unwrap_or(0.1);
                    est *= sel;
                }
                braid_caql::Term::Var(v) => {
                    let d = st
                        .and_then(|s| s.distinct.get(i).copied())
                        .unwrap_or(100)
                        .max(1);
                    match seen.get(v.as_str()) {
                        None => {
                            seen.insert(v, d);
                        }
                        Some(prev) => {
                            // Join on v: divide by the larger distinct set.
                            est /= (*prev).max(d) as f64;
                        }
                    }
                }
            }
        }
    }
    est.max(0.0)
}

/// Estimated cost (in remote cost units) of a plan, per the paper's
/// metric: per-remote-part request overhead plus shipped tuples, plus
/// workstation tuple operations for cache parts and the final join.
pub fn estimate_plan_cost<C: CacheRead>(
    plan: &Plan,
    cache: &C,
    stats: &RemoteStats,
    request_overhead: f64,
) -> f64 {
    let mut cost = 0.0;
    let mut part_sizes: Vec<f64> = Vec::new();
    for part in &plan.parts {
        match &part.source {
            PartSource::Cache {
                element,
                derivation,
            } => {
                let card = cache.cardinality_of(*element).unwrap_or(100) as f64;
                // An index probe reads ~selectivity of the extension; a
                // scan reads it all. Workstation ops are cheap relative to
                // the wire: weight 1 op = 1 unit (matches CostModel).
                let local = if derivation.probe_cols().is_empty() {
                    card
                } else {
                    (card / 10.0).max(1.0)
                };
                cost += local;
                part_sizes.push(card);
            }
            PartSource::Remote { atoms, .. } => {
                let shipped = estimate_conjunction(atoms, stats);
                cost += request_overhead + shipped;
                part_sizes.push(shipped);
            }
        }
    }
    // Local join work: sum of intermediate sizes (hash join linear passes).
    if part_sizes.len() > 1 {
        cost += part_sizes.iter().sum::<f64>();
    }
    cost
}

/// §5.3.3's alternative (b): ship the *whole* query to the DBMS. Returns
/// the estimated cost (request overhead + final result tuples shipped +
/// the server's own work, weighted as one unit per tuple op).
pub fn estimate_all_remote_cost(
    q: &ConjunctiveQuery,
    stats: &RemoteStats,
    request_overhead: f64,
) -> f64 {
    let atoms: Vec<Atom> = q.positive_atoms().into_iter().cloned().collect();
    let result = estimate_conjunction(&atoms, stats);
    // Server work: roughly the sum of inputs it scans.
    let server: f64 = atoms
        .iter()
        .map(|a| {
            stats
                .get(&a.pred)
                .map(|s| s.cardinality as f64)
                .unwrap_or(1000.0)
        })
        .sum();
    request_overhead + result + server * 0.1
}

/// Cost-based placement (§5.3.3): given a mixed plan, decide whether
/// exporting the whole query to the remote DBMS is cheaper — "(b) Export
/// b2(X,Y) & b3(Z,c2,c6) to the DBMS". Returns the chosen plan.
pub fn choose_placement<C: CacheRead>(
    plan: Plan,
    cache: &C,
    stats: &RemoteStats,
    request_overhead: f64,
) -> Plan {
    // Only mixed plans have a real alternative; all-cache never goes
    // remote, all-remote is already alternative (b).
    let has_cache = plan.parts.iter().any(PlanPart::is_cache);
    let has_remote = plan.parts.iter().any(|p| !p.is_cache());
    if !has_cache || !has_remote {
        return plan;
    }
    // Alternative (b) requires a remote-expressible query (negation,
    // in particular, must stay local).
    let q = &plan.query;
    if !plan.neg_parts.is_empty()
        || !braid_caql::CaqlQuery::Conjunctive(q.clone()).remote_supported()
    {
        return plan;
    }
    let mixed = estimate_plan_cost(&plan, cache, stats, request_overhead);
    let all_remote = estimate_all_remote_cost(q, stats, request_overhead);
    if all_remote < mixed {
        // Rebuild as a single remote part over every atom.
        let atoms: Vec<Atom> = q.positive_atoms().into_iter().cloned().collect();
        let cmps: Vec<Comparison> = q
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Cmp(c) if comparison_in_remote_fragment(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        let residual: Vec<Comparison> = q
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Cmp(c) if !comparison_in_remote_fragment(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        let vars: Vec<String> = q.body_vars().into_iter().map(str::to_string).collect();
        return Plan {
            query: q.clone(),
            parts: vec![PlanPart {
                vars,
                source: PartSource::Remote { atoms, cmps },
            }],
            residual_cmps: residual,
            neg_parts: Vec::new(),
        };
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheManager;
    use braid_caql::parse_rule;
    use braid_relational::{ColumnarRelation, Relation, Schema};
    use braid_subsume::ViewDef;
    use std::sync::Arc;

    fn def(src: &str) -> ViewDef {
        ViewDef::new(parse_rule(src).unwrap()).unwrap()
    }

    fn rel(name: &str, arity: usize, n: usize) -> Arc<ColumnarRelation> {
        let cols: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut r = Relation::new(Schema::of_strs(name, &col_refs));
        for i in 0..n {
            let vals: Vec<braid_relational::Value> = (0..arity)
                .map(|k| braid_relational::Value::str(format!("v{}{}", i, k)))
                .collect();
            r.insert(braid_relational::Tuple::new(vals)).unwrap();
        }
        Arc::new(ColumnarRelation::from_relation(&r))
    }

    #[test]
    fn empty_cache_yields_single_remote_part() {
        let cache = CacheManager::new(usize::MAX);
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        assert_eq!(p.parts.len(), 1);
        assert_eq!(p.remote_parts(), 1);
        assert!(!p.all_cache());
    }

    #[test]
    fn paper_5_3_3_overlap_pruning_prefers_e103() {
        // Cache: E101 = b1(X,Y); E102 = b2(X,c1); E103 = b1(X,Y) & b2(Y,Z).
        // Query: b1(X,Y) & b2(Y,c1). The QPO must use a selection on E103
        // rather than the E101 ⋈ E102 join.
        let mut cache = CacheManager::new(usize::MAX);
        cache.insert(def("e101(X, Y) :- b1(X, Y)."), rel("e101", 2, 10));
        cache.insert(def("e102(X) :- b2(X, c1)."), rel("e102", 1, 10));
        let e103 = cache
            .insert(
                def("e103(X, Y, Z) :- b1(X, Y), b2(Y, Z)."),
                rel("e103", 3, 10),
            )
            .unwrap();
        let q = parse_rule("q(X, Y) :- b1(X, Y), b2(Y, c1).").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        assert_eq!(p.parts.len(), 1, "one part covering both atoms: {p:?}");
        match &p.parts[0].source {
            PartSource::Cache {
                element,
                derivation,
            } => {
                assert_eq!(*element, e103);
                // Residual: the Z = c1 selection.
                assert_eq!(derivation.filters.len(), 1);
            }
            other => panic!("expected cache part, got {other:?}"),
        }
        assert!(p.all_cache());
    }

    #[test]
    fn partial_cover_mixes_cache_and_remote() {
        // Paper §5.3.2/§5.3.3: with E12 cached, d2(X, c6) splits into the
        // cached b3 part and a remote b2 fetch.
        let mut cache = CacheManager::new(usize::MAX);
        cache.insert(def("e12(X, Y) :- b3(X, c2, Y)."), rel("e12", 2, 5));
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        assert_eq!(p.parts.len(), 2);
        assert_eq!(p.remote_parts(), 1);
        let cache_part = p.parts.iter().find(|x| x.is_cache()).unwrap();
        assert!(cache_part.vars.contains(&"Z".to_string()));
        let remote_part = p.parts.iter().find(|x| !x.is_cache()).unwrap();
        match &remote_part.source {
            PartSource::Remote { atoms, .. } => {
                assert_eq!(atoms.len(), 1);
                assert_eq!(atoms[0].pred, "b2");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exact_match_mode_ignores_subsuming_elements() {
        let mut cache = CacheManager::new(usize::MAX);
        cache.insert(def("e(X, Y) :- b1(X, Y)."), rel("e", 2, 5));
        // The instantiated query is subsumed but not an exact match.
        let q = parse_rule("q(X) :- b1(X, c1).").unwrap();
        let exact = plan(&q, &cache, false).unwrap();
        assert_eq!(exact.remote_parts(), 1);
        let subsumed = plan(&q, &cache, true).unwrap();
        assert_eq!(subsumed.remote_parts(), 0);
    }

    #[test]
    fn exact_match_mode_hits_identical_query() {
        let mut cache = CacheManager::new(usize::MAX);
        cache.insert(def("e(X) :- b1(X, c1)."), rel("e", 1, 5));
        let q = parse_rule("q(A) :- b1(A, c1).").unwrap();
        let p = plan(&q, &cache, false).unwrap();
        assert!(p.all_cache());
    }

    #[test]
    fn comparisons_push_to_remote_and_residual() {
        let cache = CacheManager::new(usize::MAX);
        let q = parse_rule("q(X, Y) :- b1(X, Y), X > 3.").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        match &p.parts[0].source {
            PartSource::Remote { cmps, .. } => assert_eq!(cmps.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.residual_cmps.is_empty());
    }

    #[test]
    fn arithmetic_comparison_stays_residual() {
        let cache = CacheManager::new(usize::MAX);
        let q = parse_rule("q(X, Y) :- b1(X, Y), Y > X + 1.").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        match &p.parts[0].source {
            PartSource::Remote { cmps, .. } => assert!(cmps.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.residual_cmps.len(), 1);
    }

    #[test]
    fn unsafe_query_rejected() {
        let cache = CacheManager::new(usize::MAX);
        let q = parse_rule("q(W) :- b1(X, Y).").unwrap();
        assert!(matches!(
            plan(&q, &cache, true),
            Err(CmsError::UnsafeQuery(_))
        ));
    }

    #[test]
    fn negation_becomes_anti_join_part() {
        let cache = CacheManager::new(usize::MAX);
        let q = parse_rule("q(X) :- b1(X, Y), not b2(X, Y).").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        assert_eq!(p.neg_parts.len(), 1);
        assert!(
            !p.neg_parts[0].is_cache(),
            "empty cache: negated atom fetched"
        );
        assert_eq!(p.neg_parts[0].vars, vec!["X", "Y"]);
        // A cached cover for the negated atom is preferred.
        let mut warm = CacheManager::new(usize::MAX);
        warm.insert(def("e(X, Y) :- b2(X, Y)."), rel("e", 2, 5));
        let p2 = plan(&q, &warm, true).unwrap();
        assert!(p2.neg_parts[0].is_cache());
    }

    #[test]
    fn bind_still_rejected() {
        let cache = CacheManager::new(usize::MAX);
        let q = parse_rule("q(X, Y) :- b1(X, Z), Y is Z + 1.").unwrap();
        assert!(matches!(
            plan(&q, &cache, true),
            Err(CmsError::Unplannable(_))
        ));
    }

    #[test]
    fn placement_exports_when_remote_join_ships_less() {
        // Cache holds tiny `small`; the uncovered `huge` atom is
        // unselective: a mixed plan ships all of `huge`, while the server
        // can join and ship only the (small) result — §5.3.3's plan (b).
        let mut cache = CacheManager::new(usize::MAX);
        cache.insert(def("e(X, Y) :- small(X, Y)."), rel("small", 2, 4));
        let q = parse_rule("q(X, Z) :- small(X, Y), huge(Y, Z).").unwrap();
        let mixed = plan(&q, &cache, true).unwrap();
        assert_eq!(mixed.remote_parts(), 1);
        assert!(mixed.parts.iter().any(PlanPart::is_cache));

        let mut stats = RemoteStats::new();
        stats.insert(
            "huge".into(),
            braid_relational::RelationStats {
                cardinality: 100_000,
                distinct: vec![50, 50],
                min: vec![],
                max: vec![],
                approx_bytes: 1_000_000,
            },
        );
        stats.insert(
            "small".into(),
            braid_relational::RelationStats {
                cardinality: 4,
                distinct: vec![4, 4],
                min: vec![],
                max: vec![],
                approx_bytes: 100,
            },
        );
        let chosen = choose_placement(mixed, &cache, &stats, 50.0);
        assert_eq!(chosen.remote_parts(), 1);
        assert!(
            chosen.parts.iter().all(|p| !p.is_cache()),
            "whole query exported: {chosen:?}"
        );
        assert_eq!(
            chosen.parts[0].vars.len(),
            3,
            "exported part produces every body variable"
        );
    }

    #[test]
    fn placement_keeps_mixed_plan_when_remote_part_is_selective() {
        let mut cache = CacheManager::new(usize::MAX);
        cache.insert(def("e(X, Y) :- small(X, Y)."), rel("small", 2, 4));
        // The remote atom is pinned by a constant: it ships almost nothing.
        let q = parse_rule("q(X, Z) :- small(X, Y), huge(Y, c7, Z).").unwrap();
        let mixed = plan(&q, &cache, true).unwrap();
        let mut stats = RemoteStats::new();
        stats.insert(
            "huge".into(),
            braid_relational::RelationStats {
                cardinality: 100_000,
                distinct: vec![50, 50_000, 50],
                min: vec![],
                max: vec![],
                approx_bytes: 1_000_000,
            },
        );
        stats.insert(
            "small".into(),
            braid_relational::RelationStats {
                cardinality: 4,
                distinct: vec![4, 4],
                min: vec![],
                max: vec![],
                approx_bytes: 100,
            },
        );
        let chosen = choose_placement(mixed, &cache, &stats, 50.0);
        assert!(
            chosen.parts.iter().any(PlanPart::is_cache),
            "selective remote part keeps the cached cover: {chosen:?}"
        );
    }

    #[test]
    fn placement_never_touches_pure_plans() {
        let mut cache = CacheManager::new(usize::MAX);
        cache.insert(def("e(X, Y) :- b1(X, Y)."), rel("e", 2, 5));
        let stats = RemoteStats::new();
        // All-cache plan.
        let q = parse_rule("q(X, Y) :- b1(X, Y).").unwrap();
        let p1 = plan(&q, &cache, true).unwrap();
        assert!(p1.all_cache());
        let chosen = choose_placement(p1, &cache, &stats, 50.0);
        assert!(chosen.all_cache());
        // All-remote plan.
        let q2 = parse_rule("q(X, Y) :- b9(X, Y).").unwrap();
        let p2 = plan(&q2, &cache, true).unwrap();
        let chosen2 = choose_placement(p2, &cache, &stats, 50.0);
        assert_eq!(chosen2.remote_parts(), 1);
    }

    #[test]
    fn estimate_conjunction_applies_joins_and_selections() {
        let mut stats = RemoteStats::new();
        stats.insert(
            "r".into(),
            braid_relational::RelationStats {
                cardinality: 1000,
                distinct: vec![100, 10],
                min: vec![],
                max: vec![],
                approx_bytes: 10_000,
            },
        );
        let q = parse_rule("q(X, Z) :- r(X, Y), r(Y, Z).").unwrap();
        let atoms: Vec<braid_caql::Atom> = q.positive_atoms().into_iter().cloned().collect();
        // 1000 × 1000 / max(V(col1)=10, V(col0)=100) = 10_000.
        let est = estimate_conjunction(&atoms, &stats);
        assert!((est - 10_000.0).abs() < 1e-6, "est = {est}");
        // A constant selection scales by 1/V.
        let qc = parse_rule("q(Y) :- r(c1, Y).").unwrap();
        let atoms: Vec<braid_caql::Atom> = qc.positive_atoms().into_iter().cloned().collect();
        let est = estimate_conjunction(&atoms, &stats);
        assert!((est - 10.0).abs() < 1e-6, "est = {est}");
    }

    #[test]
    fn noncontiguous_uncovered_atoms_make_separate_remote_parts() {
        let mut cache = CacheManager::new(usize::MAX);
        cache.insert(def("e(X, Y) :- b2(X, Y)."), rel("e", 2, 5));
        // b2 (middle atom) is covered; b1 and b3 become two remote runs.
        let q = parse_rule("q(X, W) :- b1(X, Y), b2(Y, Z), b3(Z, W).").unwrap();
        let p = plan(&q, &cache, true).unwrap();
        assert_eq!(p.remote_parts(), 2);
        assert_eq!(p.parts.len(), 3);
    }
}
