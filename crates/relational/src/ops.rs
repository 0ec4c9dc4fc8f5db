//! Eager relational operators — thin wrappers over the physical plan.
//!
//! These implement the full set of operations the CMS's Query Processor
//! must support ("joins, selects, aggregation, indexing, etc.", §5) and the
//! restricted subset exposed by the simulated remote DBMS. Every function
//! here builds a one-node [`PhysicalPlan`] over its materialized
//! [`Relation`] inputs and runs it to completion through the shared
//! batched executor ([`PhysicalPlan::materialize`]); the lazy generator
//! API in [`crate::lazy`] opens the same plans incrementally. There is no
//! second implementation of any operator.
//!
//! Error semantics are *strict* (the first predicate-evaluation error
//! aborts), matching the original eager operators; the generator API uses
//! errors-as-unknown filters instead.

use crate::error::{RelationalError, Result};
use crate::expr::Expr;
use crate::plan::PhysicalPlan;
use crate::relation::Relation;

pub use crate::plan::{AggFunc, Aggregate};

/// One-leaf plan over a borrowed relation: shares the tuples (they are
/// `Arc`-backed) without cloning the relation's dedup set.
fn plan_of(r: &Relation) -> PhysicalPlan {
    PhysicalPlan::rows(r.schema().clone(), r.to_vec())
}

/// σ — tuples of `r` satisfying `pred`.
pub fn select(r: &Relation, pred: &Expr) -> Result<Relation> {
    plan_of(r).filter_strict(pred.clone()).materialize()
}

/// π — projection onto `cols` (indices may repeat or reorder); result is
/// deduplicated (set semantics).
pub fn project(r: &Relation, cols: &[usize]) -> Result<Relation> {
    plan_of(r).project(cols)?.materialize()
}

/// × — Cartesian product.
pub fn product(l: &Relation, r: &Relation) -> Result<Relation> {
    plan_of(l).hash_join(plan_of(r), &[]).materialize()
}

/// ⋈ — equi-join on pairs of (left column, right column), implemented as a
/// hash join building on the smaller input.
pub fn equijoin(l: &Relation, r: &Relation, on: &[(usize, usize)]) -> Result<Relation> {
    for &(c, _) in on {
        if c >= l.schema().arity() {
            return Err(RelationalError::ColumnIndexOutOfRange {
                index: c,
                arity: l.schema().arity(),
            });
        }
    }
    for &(_, c) in on {
        if c >= r.schema().arity() {
            return Err(RelationalError::ColumnIndexOutOfRange {
                index: c,
                arity: r.schema().arity(),
            });
        }
    }
    // Build on the smaller side; output columns stay l-then-r.
    let plan = if l.len() <= r.len() {
        plan_of(l).hash_join(plan_of(r), on)
    } else {
        plan_of(l).hash_join_build_right(plan_of(r), on)
    };
    plan.materialize()
}

/// ⋉ — left semi-join: tuples of `l` that join with at least one tuple of
/// `r` on the given column pairs.
pub fn semijoin(l: &Relation, r: &Relation, on: &[(usize, usize)]) -> Result<Relation> {
    plan_of(l).semijoin(plan_of(r), on).materialize()
}

/// ▷ — anti-join: tuples of `l` with no join partner in `r`.
pub fn antijoin(l: &Relation, r: &Relation, on: &[(usize, usize)]) -> Result<Relation> {
    plan_of(l).antijoin(plan_of(r), on).materialize()
}

/// ∪ — union of two union-compatible relations (wrapper over
/// [`union_all`]).
pub fn union(l: &Relation, r: &Relation) -> Result<Relation> {
    union_all([l, r])
}

/// n-ary ∪ — union of any number of union-compatible relations with a
/// *single* dedup pass at the root (the pairwise [`union`] chains used
/// for remainder/compensation assembly pay one pass per link).
///
/// # Errors
/// Returns [`RelationalError::NotUnionCompatible`] when any part is
/// incompatible with the first, or a type error for an empty part list.
pub fn union_all<'a>(parts: impl IntoIterator<Item = &'a Relation>) -> Result<Relation> {
    let parts: Vec<&Relation> = parts.into_iter().collect();
    let Some(first) = parts.first() else {
        return Err(RelationalError::TypeError(
            "union of zero relations has no schema".into(),
        ));
    };
    for p in &parts[1..] {
        if !first.schema().union_compatible(p.schema()) {
            return Err(RelationalError::NotUnionCompatible {
                left: first.schema().name().to_string(),
                right: p.schema().name().to_string(),
            });
        }
    }
    PhysicalPlan::union(parts.into_iter().map(plan_of).collect())
        .expect("non-empty part list")
        .materialize()
}

/// − — set difference of union-compatible relations (anti-join on all
/// columns).
pub fn difference(l: &Relation, r: &Relation) -> Result<Relation> {
    if !l.schema().union_compatible(r.schema()) {
        return Err(RelationalError::NotUnionCompatible {
            left: l.schema().name().to_string(),
            right: r.schema().name().to_string(),
        });
    }
    let all: Vec<(usize, usize)> = (0..l.schema().arity()).map(|i| (i, i)).collect();
    plan_of(l).antijoin(plan_of(r), &all).materialize()
}

/// ∩ — set intersection of union-compatible relations (semi-join on all
/// columns).
pub fn intersect(l: &Relation, r: &Relation) -> Result<Relation> {
    if !l.schema().union_compatible(r.schema()) {
        return Err(RelationalError::NotUnionCompatible {
            left: l.schema().name().to_string(),
            right: r.schema().name().to_string(),
        });
    }
    let all: Vec<(usize, usize)> = (0..l.schema().arity()).map(|i| (i, i)).collect();
    plan_of(l).semijoin(plan_of(r), &all).materialize()
}

/// γ — grouped aggregation. Output columns are the `group_by` columns
/// followed by one column per aggregate. With an empty `group_by`, yields a
/// single row (aggregates over the whole relation; COUNT of an empty
/// relation is 0, other aggregates error).
pub fn aggregate(r: &Relation, group_by: &[usize], aggs: &[Aggregate]) -> Result<Relation> {
    plan_of(r).aggregate(group_by, aggs)?.materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::Column;
    use crate::value::{Value, ValueType};
    use crate::{tuple, Schema};

    fn parent() -> Relation {
        Relation::from_tuples(
            Schema::of_strs("parent", &["p", "c"]),
            vec![
                tuple!["ann", "bob"],
                tuple!["ann", "cal"],
                tuple!["bob", "dee"],
                tuple!["cal", "eli"],
            ],
        )
        .unwrap()
    }

    fn age() -> Relation {
        let schema = Schema::new(
            "age",
            vec![
                Column::new("person", ValueType::Str),
                Column::new("years", ValueType::Int),
            ],
        )
        .unwrap();
        Relation::from_tuples(
            schema,
            vec![
                tuple!["ann", 70],
                tuple!["bob", 45],
                tuple!["cal", 44],
                tuple!["dee", 20],
            ],
        )
        .unwrap()
    }

    #[test]
    fn select_filters() {
        let r = select(&parent(), &Expr::col_cmp(0, CmpOp::Eq, "ann")).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn project_dedups() {
        let r = project(&parent(), &[0]).unwrap();
        assert_eq!(r.len(), 3); // ann, bob, cal
    }

    #[test]
    fn equijoin_grandparents() {
        let p = parent();
        let j = equijoin(&p, &p, &[(1, 0)]).unwrap();
        let gp = project(&j, &[0, 3]).unwrap();
        let mut rows = gp.sorted_tuples();
        rows.sort();
        assert_eq!(rows, vec![tuple!["ann", "dee"], tuple!["ann", "eli"]]);
    }

    #[test]
    fn equijoin_empty_on_is_product() {
        let p = parent();
        let a = age();
        let j = equijoin(&p, &a, &[]).unwrap();
        assert_eq!(j.len(), p.len() * a.len());
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let p = parent();
        let a = age();
        // parents whose child has a known age
        let semi = semijoin(&p, &a, &[(1, 0)]).unwrap();
        let anti = antijoin(&p, &a, &[(1, 0)]).unwrap();
        assert_eq!(semi.len() + anti.len(), p.len());
        assert!(anti.contains(&tuple!["cal", "eli"]));
    }

    #[test]
    fn union_difference_intersect() {
        let p = parent();
        let q = Relation::from_tuples(
            Schema::of_strs("extra", &["p", "c"]),
            vec![tuple!["ann", "bob"], tuple!["zoe", "yan"]],
        )
        .unwrap();
        assert_eq!(union(&p, &q).unwrap().len(), 5);
        assert_eq!(difference(&p, &q).unwrap().len(), 3);
        assert_eq!(intersect(&p, &q).unwrap().len(), 1);
    }

    #[test]
    fn union_all_matches_pairwise_chain() {
        let p = parent();
        let q = Relation::from_tuples(
            Schema::of_strs("extra", &["p", "c"]),
            vec![tuple!["ann", "bob"], tuple!["zoe", "yan"]],
        )
        .unwrap();
        let s = Relation::from_tuples(
            Schema::of_strs("more", &["p", "c"]),
            vec![tuple!["zoe", "yan"], tuple!["uma", "vic"]],
        )
        .unwrap();
        let chained = union(&union(&p, &q).unwrap(), &s).unwrap();
        let nary = union_all([&p, &q, &s]).unwrap();
        assert_eq!(chained, nary);
        assert_eq!(nary.len(), 6);
    }

    #[test]
    fn union_all_rejects_incompatible_and_empty() {
        let p = parent();
        let a = age();
        assert!(union_all([&p, &a]).is_err());
        assert!(union_all([]).is_err());
    }

    #[test]
    fn union_incompatible_rejected() {
        let p = parent();
        let a = age();
        assert!(union(&p, &a).is_err());
    }

    #[test]
    fn aggregate_group_by() {
        let p = parent();
        let counts = aggregate(
            &p,
            &[0],
            &[Aggregate {
                func: AggFunc::Count,
                col: 0,
            }],
        )
        .unwrap();
        assert!(counts.contains(&tuple!["ann", 2]));
        assert!(counts.contains(&tuple!["bob", 1]));
    }

    #[test]
    fn aggregate_global_and_numeric() {
        let a = age();
        let r = aggregate(
            &a,
            &[],
            &[
                Aggregate {
                    func: AggFunc::Sum,
                    col: 1,
                },
                Aggregate {
                    func: AggFunc::Min,
                    col: 1,
                },
                Aggregate {
                    func: AggFunc::Max,
                    col: 1,
                },
                Aggregate {
                    func: AggFunc::Avg,
                    col: 1,
                },
            ],
        )
        .unwrap();
        let row = &r.sorted_tuples()[0];
        assert_eq!(row.values()[0], Value::Int(179));
        assert_eq!(row.values()[1], Value::Int(20));
        assert_eq!(row.values()[2], Value::Int(70));
        assert_eq!(row.values()[3], Value::Float(179.0 / 4.0));
    }

    #[test]
    fn count_of_empty_relation_is_zero() {
        let empty = Relation::new(Schema::of_strs("e", &["x"]));
        let r = aggregate(
            &empty,
            &[],
            &[Aggregate {
                func: AggFunc::Count,
                col: 0,
            }],
        )
        .unwrap();
        assert_eq!(r.sorted_tuples()[0], tuple![0]);
    }

    #[test]
    fn min_of_empty_relation_errors() {
        let empty = Relation::new(Schema::of_strs("e", &["x"]));
        assert!(aggregate(
            &empty,
            &[],
            &[Aggregate {
                func: AggFunc::Min,
                col: 0
            }]
        )
        .is_err());
    }

    #[test]
    fn join_out_of_range_errors() {
        let p = parent();
        assert!(equijoin(&p, &p, &[(5, 0)]).is_err());
    }
}
