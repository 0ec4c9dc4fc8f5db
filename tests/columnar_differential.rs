//! Differential battery for the columnar representation and its
//! vectorized kernels (DESIGN.md §12).
//!
//! Two independent obligations are checked here:
//!
//! 1. **Round trip**: `Relation → ColumnarRelation → Relation` is the
//!    identity — including row order, NULLs (validity masks), and
//!    dictionary edge cases (empty strings, duplicates, more than 255
//!    distinct values).
//! 2. **Execution equivalence**: any plan over a columnar scan produces
//!    results identical to the same plan over the row relation, across
//!    batch sizes 1 / 7 / 256 — whether the plan compiles to the
//!    vectorized bitmap/fused kernels or falls back to row operators,
//!    and whichever access path (index probe, clustered slice, scan) the
//!    kernels read through.
//!
//! The row executor is itself differentially tested against a naive
//! reference in `executor_differential.rs`, so agreement with it is
//! agreement with the spec.

use braid_relational::{
    tuple, AggFunc, Aggregate, Candidates, CmpOp, ColumnarRelation, ExecConfig, Expr, PhysicalPlan,
    Relation, Schema, Tuple, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---------- generators ----------

/// Values drawn from a pool small enough that comparisons hit, wide
/// enough to exercise every column representation: typed ints, floats
/// and bools, dictionary strings (empty string included), NULLs, and —
/// via per-row type mixing — the Mixed fallback.
fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..5i64).prop_map(Value::Int),
        (0..5i64).prop_map(Value::Int),
        (0..4u8).prop_map(|i| if i == 0 {
            Value::str("")
        } else {
            Value::str(format!("c{i}"))
        }),
        prop_oneof![Just(0.5f64), Just(1.5), Just(2.5)].prop_map(Value::Float),
        (0..2u8).prop_map(|b| Value::Bool(b == 1)),
        Just(Value::Null),
    ]
}

/// A relation of up to 24 three-column rows over `any_value()`.
fn rel_3col() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((any_value(), any_value(), any_value()), 0..24).prop_map(|rows| {
        let mut r = Relation::new(Schema::positional("t", 3));
        for (a, b, c) in rows {
            r.insert(Tuple::new(vec![a, b, c])).unwrap();
        }
        r
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// A vectorizable predicate: comparisons of columns against constants
/// (or other columns), combined with And / Or / Not — exactly the
/// subset `exec::vectorizable_pred` admits to the bitmap kernel.
fn pred_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0..3usize, cmp_op(), any_value()).prop_map(|(i, op, v)| Expr::Cmp(
            op,
            Box::new(Expr::Col(i)),
            Box::new(Expr::Const(v))
        )),
        (0..3usize, cmp_op(), 0..3usize).prop_map(|(i, op, j)| Expr::Cmp(
            op,
            Box::new(Expr::Col(i)),
            Box::new(Expr::Col(j))
        )),
    ]
}

fn vec_pred() -> impl Strategy<Value = Expr> {
    prop_oneof![
        pred_leaf(),
        pred_leaf(),
        proptest::collection::vec(pred_leaf(), 1..3).prop_map(Expr::And),
        proptest::collection::vec(pred_leaf(), 1..3).prop_map(Expr::Or),
        pred_leaf().prop_map(|e| Expr::Not(Box::new(e))),
    ]
}

// ---------- plumbing ----------

fn row_plan(rel: &Relation) -> PhysicalPlan {
    PhysicalPlan::scan(Arc::new(rel.clone()))
}

fn col_plan(rel: &Relation) -> PhysicalPlan {
    PhysicalPlan::scan_columnar(Arc::new(ColumnarRelation::from_relation(rel)))
}

/// Materialized rows in produced order (row order is part of the
/// contract for order-preserving plans).
fn rows_of(plan: &PhysicalPlan, batch_size: usize) -> Vec<Tuple> {
    let (rel, _) = plan
        .materialize_with(ExecConfig::with_batch_size(batch_size))
        .unwrap();
    rel.to_vec()
}

/// Materialized rows, sorted — for operators (aggregate, join, dedup)
/// whose output order is not part of the contract.
fn sorted_rows_of(plan: &PhysicalPlan, batch_size: usize) -> Vec<Tuple> {
    let mut v = rows_of(plan, batch_size);
    v.sort();
    v
}

/// Execution outcome with errors kept comparable: fallible plans (e.g.
/// SUM over a string) must fail on both representations with the same
/// *kind* of error. The offending value named in the message is not
/// compared — which row gets blamed first depends on accumulation
/// order, and that is not contractual (the row aggregate's dedup pass
/// visits tuples in hash order).
fn outcome_of(plan: &PhysicalPlan, batch_size: usize) -> Result<Vec<Tuple>, String> {
    plan.materialize_with(ExecConfig::with_batch_size(batch_size))
        .map(|(rel, _)| {
            let mut v = rel.to_vec();
            v.sort();
            v
        })
        .map_err(|e| {
            let msg = e.to_string();
            msg.split_once(" value ")
                .map_or(msg.clone(), |(kind, _)| kind.to_string())
        })
}

const BATCH_SIZES: [usize; 3] = [1, 7, 256];

// ---------- satellite 1: round-trip identity ----------

proptest! {
    #[test]
    fn round_trip_is_the_identity_including_order(rel in rel_3col()) {
        let col = ColumnarRelation::from_relation(&rel);
        prop_assert_eq!(col.len(), rel.len());
        let back = col.to_relation().unwrap();
        prop_assert_eq!(&back, &rel);
        // Not just the same set: the same row order, slot for slot.
        prop_assert_eq!(back.to_vec(), rel.to_vec());
    }

    #[test]
    fn double_conversion_is_stable(rel in rel_3col()) {
        // Columnar → row → columnar → row reaches a fixed point at the
        // first row relation (conversions introduce no drift).
        let once = ColumnarRelation::from_relation(&rel).to_relation().unwrap();
        let twice = ColumnarRelation::from_relation(&once).to_relation().unwrap();
        prop_assert_eq!(once.to_vec(), twice.to_vec());
    }

    // ---------- satellite 2: execution equivalence ----------

    #[test]
    fn vectorized_filter_matches_row_filter(rel in rel_3col(), pred in vec_pred()) {
        let row = row_plan(&rel).filter(pred.clone());
        let col = col_plan(&rel).filter(pred);
        for bs in BATCH_SIZES {
            // Filters preserve scan order on both paths, so the rows
            // must agree in order, not merely as sets.
            prop_assert_eq!(rows_of(&col, bs), rows_of(&row, bs), "batch size {}", bs);
        }
    }

    #[test]
    fn strict_filter_agrees_with_row_strict_filter(rel in rel_3col(), pred in vec_pred()) {
        // Vectorizable predicates cannot error, so strict and
        // errors-as-unknown coincide — on both representations.
        let row = row_plan(&rel).filter_strict(pred.clone());
        let col = col_plan(&rel).filter_strict(pred);
        for bs in BATCH_SIZES {
            prop_assert_eq!(rows_of(&col, bs), rows_of(&row, bs), "batch size {}", bs);
        }
    }

    #[test]
    fn filter_chain_and_projection_match(rel in rel_3col(), p1 in vec_pred(), p2 in vec_pred()) {
        let cols = [2usize, 0];
        let row = row_plan(&rel).filter(p1.clone()).filter(p2.clone()).project(&cols).unwrap();
        let col = col_plan(&rel).filter(p1).filter(p2).project(&cols).unwrap();
        for bs in BATCH_SIZES {
            prop_assert_eq!(rows_of(&col, bs), rows_of(&row, bs), "batch size {}", bs);
        }
    }

    #[test]
    fn fused_filter_aggregate_matches_row_aggregate(
        rel in rel_3col(),
        pred in vec_pred(),
        func in prop_oneof![
            Just(AggFunc::Count),
            Just(AggFunc::Sum),
            Just(AggFunc::Min),
            Just(AggFunc::Max),
        ],
    ) {
        // Aggregate output order is not contractual (compare sorted),
        // and SUM over a non-numeric value errors — in which case both
        // representations must fail with the identical error.
        let aggs = [Aggregate { func, col: 1 }];
        let row = row_plan(&rel).filter(pred.clone()).aggregate(&[0], &aggs).unwrap();
        let col = col_plan(&rel).filter(pred).aggregate(&[0], &aggs).unwrap();
        for bs in BATCH_SIZES {
            prop_assert_eq!(outcome_of(&col, bs), outcome_of(&row, bs), "batch size {}", bs);
        }
    }

    #[test]
    fn non_vectorizable_filter_falls_back_and_agrees(rel in rel_3col(), k in 0..5i64) {
        // Arithmetic in the predicate: the chain is not vectorizable, so
        // the columnar plan runs ColScanOp + the row filter operator —
        // and must still agree with the all-row plan.
        let pred = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Add(Box::new(Expr::Col(0)), Box::new(Expr::Const(Value::Int(0))))),
            Box::new(Expr::Const(Value::Int(k))),
        );
        let row = row_plan(&rel).filter(pred.clone());
        let col = col_plan(&rel).filter(pred);
        for bs in BATCH_SIZES {
            prop_assert_eq!(rows_of(&col, bs), rows_of(&row, bs), "batch size {}", bs);
        }
    }

    #[test]
    fn columnar_scan_feeds_row_join_and_dedup(l in rel_3col(), r in rel_3col()) {
        // Joins have no vectorized kernel: the columnar side must stream
        // row batches into the ordinary hash join unchanged.
        let on = [(1usize, 0usize)];
        let row = row_plan(&l).hash_join(row_plan(&r), &on).project(&[0, 4]).unwrap().dedup();
        let col = col_plan(&l).hash_join(col_plan(&r), &on).project(&[0, 4]).unwrap().dedup();
        for bs in BATCH_SIZES {
            prop_assert_eq!(sorted_rows_of(&col, bs), sorted_rows_of(&row, bs), "batch size {}", bs);
        }
    }

    #[test]
    fn composed_columnar_plan_ignores_batch_size(rel in rel_3col(), pred in vec_pred()) {
        let plan = col_plan(&rel)
            .filter(pred)
            .project(&[1, 2])
            .unwrap()
            .dedup();
        let reference = rows_of(&plan, 256);
        for bs in [1, 2, 3, 7] {
            prop_assert_eq!(&rows_of(&plan, bs), &reference, "batch size {}", bs);
        }
    }
}

// ---------- fixed dictionary / NULL edge cases, through real plans ----------

#[test]
fn dictionary_with_duplicates_and_empty_strings_filters_identically() {
    let mut rel = Relation::new(Schema::positional("s", 2));
    rel.insert(tuple!["", 0]).unwrap();
    rel.insert(tuple!["", 1]).unwrap();
    for i in 0..60i64 {
        rel.insert(tuple![format!("k{}", i % 4), i]).unwrap();
    }
    for pred in [
        Expr::col_cmp(0, CmpOp::Eq, Value::str("")),
        Expr::col_cmp(0, CmpOp::Ne, Value::str("k2")),
        Expr::col_cmp(0, CmpOp::Gt, Value::str("k1")),
    ] {
        let row = row_plan(&rel).filter(pred.clone());
        let col = col_plan(&rel).filter(pred);
        for bs in BATCH_SIZES {
            assert_eq!(rows_of(&col, bs), rows_of(&row, bs));
        }
    }
}

#[test]
fn dictionary_beyond_255_distinct_values_filters_identically() {
    // Forces > u8::MAX codes: the per-dictionary-entry comparison table
    // must hold and index correctly past 255.
    let mut rel = Relation::new(Schema::positional("s", 2));
    for i in 0..300i64 {
        rel.insert(tuple![format!("v{i:03}"), i]).unwrap();
    }
    let colrel = ColumnarRelation::from_relation(&rel);
    assert_eq!(colrel.col(0).dict_len(), Some(300));
    let pred = Expr::col_cmp(0, CmpOp::Ge, Value::str("v280"));
    let row = row_plan(&rel).filter(pred.clone());
    let col = PhysicalPlan::scan_columnar(Arc::new(colrel)).filter(pred);
    for bs in BATCH_SIZES {
        let got = rows_of(&col, bs);
        assert_eq!(got, rows_of(&row, bs));
        assert_eq!(got.len(), 20);
    }
}

#[test]
fn null_rows_survive_filters_and_aggregates_identically() {
    let rel = Relation::from_tuples(
        Schema::positional("n", 3),
        vec![
            tuple![1, 10, "a"],
            Tuple::new(vec![Value::Null, Value::Int(20), Value::str("b")]),
            Tuple::new(vec![Value::Int(1), Value::Null, Value::Null]),
            Tuple::new(vec![Value::Null, Value::Null, Value::Null]),
            tuple![2, 30, "a"],
        ],
    )
    .unwrap();
    let pred = Expr::col_cmp(0, CmpOp::Le, 1);
    let aggs = [Aggregate {
        func: AggFunc::Count,
        col: 1,
    }];
    let row = row_plan(&rel)
        .filter(pred.clone())
        .aggregate(&[2], &aggs)
        .unwrap();
    let col = col_plan(&rel).filter(pred).aggregate(&[2], &aggs).unwrap();
    for bs in BATCH_SIZES {
        assert_eq!(sorted_rows_of(&col, bs), sorted_rows_of(&row, bs));
    }
}

#[test]
fn fused_kernel_actually_engages_on_vectorizable_chains() {
    // Not just equal answers: the fused σ→γ plan must do measurably less
    // operator work than the row pipeline (it emits only its own output
    // batches), proving the vectorized path is the one executing.
    let mut rel = Relation::new(Schema::positional("w", 2));
    for i in 0..2000i64 {
        rel.insert(tuple![i % 10, i]).unwrap();
    }
    let pred = Expr::col_cmp(1, CmpOp::Ge, 1000);
    let aggs = [Aggregate {
        func: AggFunc::Sum,
        col: 1,
    }];
    let row = row_plan(&rel)
        .filter(pred.clone())
        .aggregate(&[0], &aggs)
        .unwrap();
    let col = col_plan(&rel).filter(pred).aggregate(&[0], &aggs).unwrap();
    let (row_rel, row_stats) = row
        .materialize_with(ExecConfig::with_batch_size(64))
        .unwrap();
    let (col_rel, col_stats) = col
        .materialize_with(ExecConfig::with_batch_size(64))
        .unwrap();
    assert_eq!(row_rel, col_rel);
    assert!(
        col_stats.batches < row_stats.batches,
        "fused kernel must produce fewer operator batches ({} vs {})",
        col_stats.batches,
        row_stats.batches
    );
}

// ---------- clustering: the same rows sorted on one numeric column ----------
//
// A clustered relation answers a range conjunct on its sort column by
// binary search and evaluates the predicates over that slice only. The
// answer set and the executor counters must equal the unclustered scan's
// for every comparison, both operand orders, and the float corners where
// a sort order and a comparison could disagree (NaN, ±0.0, ±inf, and
// integers that do not survive the widening to f64).

const TWO_53: i64 = 1 << 53;

fn edge_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3..4i64,
        -3..4i64,
        Just(TWO_53 - 1),
        Just(TWO_53),
        Just(TWO_53 + 1),
        Just(-TWO_53 - 1),
        Just(i64::MAX),
        Just(i64::MIN),
    ]
}

fn edge_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-3..4i64).prop_map(|i| i as f64 * 0.5),
        (-3..4i64).prop_map(|i| i as f64 * 0.5),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(TWO_53 as f64),
    ]
}

/// Constants a range conjunct may name: ints and floats from the edge
/// pools (an int column against a float constant included), plus
/// non-numeric constants, which must not narrow the range.
fn edge_const() -> impl Strategy<Value = Value> {
    prop_oneof![
        edge_int().prop_map(Value::Int),
        edge_int().prop_map(Value::Int),
        edge_float().prop_map(Value::Float),
        edge_float().prop_map(Value::Float),
        prop_oneof![
            Just(Value::str("x")),
            Just(Value::Bool(true)),
            Just(Value::Null),
        ],
    ]
}

/// 1 to 40 rows `(int, float, tag)`: column 0 is `Ints`, column 1
/// `Floats`, both clusterable, with duplicate keys likely. (An empty
/// relation's columns are `Mixed`, which does not cluster.)
fn numeric_rel() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((edge_int(), edge_float(), 0..3u8), 1..40).prop_map(|rows| {
        let mut r = Relation::new(Schema::positional("n", 3));
        for (i, f, t) in rows {
            let row = vec![Value::Int(i), Value::Float(f), Value::str(format!("t{t}"))];
            r.insert(Tuple::new(row)).unwrap();
        }
        r
    })
}

/// `col op const` on one of the two numeric columns, in either operand
/// order.
fn range_leaf() -> impl Strategy<Value = Expr> {
    (0..2usize, cmp_op(), edge_const(), 0..2u8).prop_map(|(c, op, v, flip)| {
        let (col, k) = (Box::new(Expr::Col(c)), Box::new(Expr::Const(v)));
        if flip == 1 {
            Expr::Cmp(op, k, col)
        } else {
            Expr::Cmp(op, col, k)
        }
    })
}

/// Conjunctions of range leaves (nested `And`s included), with `Or` and
/// `Not` over them, and a tag comparison for a non-sort conjunct.
fn range_pred() -> impl Strategy<Value = Expr> {
    let tag = (0..3u8).prop_map(|t| Expr::col_cmp(2, CmpOp::Eq, Value::str(format!("t{t}"))));
    prop_oneof![
        range_leaf(),
        proptest::collection::vec(range_leaf(), 1..4).prop_map(Expr::And),
        proptest::collection::vec(range_leaf(), 1..4).prop_map(Expr::And),
        (range_leaf(), proptest::collection::vec(range_leaf(), 1..3))
            .prop_map(|(a, rest)| Expr::And(vec![a, Expr::And(rest)])),
        (range_leaf(), tag).prop_map(|(a, t)| Expr::And(vec![t, a])),
        proptest::collection::vec(range_leaf(), 1..3).prop_map(Expr::Or),
        range_leaf().prop_map(|e| Expr::Not(Box::new(e))),
    ]
}

/// Rows and counters of `preds` chained over `rel`, rows sorted.
fn run_chain(rel: Arc<ColumnarRelation>, preds: &[Expr], bs: usize) -> (Vec<Tuple>, u64) {
    let plan = preds
        .iter()
        .fold(PhysicalPlan::scan_columnar(rel), |p, e| p.filter(e.clone()));
    let (out, stats) = plan
        .materialize_with(ExecConfig::with_batch_size(bs))
        .unwrap();
    let mut rows = out.to_vec();
    rows.sort();
    (rows, stats.rows_pruned)
}

proptest! {
    #[test]
    fn clustered_filter_matches_unclustered(
        rel in numeric_rel(),
        on in 0..2usize,
        preds in proptest::collection::vec(range_pred(), 1..3),
    ) {
        let plain = Arc::new(ColumnarRelation::from_relation(&rel));
        let clustered = Arc::new(plain.clustered_on(on).expect("numeric, no nulls"));
        let mut want = row_plan(&rel).filter(Expr::And(preds.clone())).materialize().unwrap().to_vec();
        want.sort();
        for bs in BATCH_SIZES {
            let (got_plain, pruned_plain) = run_chain(Arc::clone(&plain), &preds, bs);
            let (got, pruned) = run_chain(Arc::clone(&clustered), &preds, bs);
            prop_assert_eq!(&got_plain, &want, "batch size {}", bs);
            prop_assert_eq!(&got, &want, "clustered on {}, batch size {}", on, bs);
            prop_assert_eq!(pruned, pruned_plain, "rows outside the slice count as pruned");
        }
    }

    #[test]
    fn clustered_aggregate_matches_unclustered(
        rel in numeric_rel(),
        on in 0..2usize,
        pred in range_pred(),
    ) {
        let aggs = [Aggregate { func: AggFunc::Count, col: 0 }];
        let plain = Arc::new(ColumnarRelation::from_relation(&rel));
        let clustered = Arc::new(plain.clustered_on(on).unwrap());
        let agg = |c: Arc<ColumnarRelation>| {
            PhysicalPlan::scan_columnar(c).filter(pred.clone()).aggregate(&[2], &aggs).unwrap()
        };
        for bs in BATCH_SIZES {
            prop_assert_eq!(outcome_of(&agg(Arc::clone(&clustered)), bs), outcome_of(&agg(Arc::clone(&plain)), bs));
        }
    }

    #[test]
    fn clustering_keeps_rows_and_bytes(rel in numeric_rel(), on in 0..2usize) {
        let plain = ColumnarRelation::from_relation(&rel);
        let clustered = plain.clustered_on(on).unwrap();
        prop_assert_eq!(clustered.sorted_on(), Some(on));
        prop_assert_eq!(clustered.to_relation().unwrap(), rel);
        prop_assert_eq!(clustered.approx_size(), plain.approx_size());
        // Sorted under the comparison kernels' order.
        let key = |r: usize| clustered.value_at(r, on).as_f64().unwrap();
        for r in 1..clustered.len() {
            prop_assert!(key(r - 1).total_cmp(&key(r)).is_le());
        }
    }
}

/// `(k, v, tag)` with `v = k % 10`: ten rows per key value, so every
/// range edge falls among duplicates.
fn banded(n: i64) -> Relation {
    let mut rel = Relation::new(Schema::positional("b", 3));
    for k in 0..n {
        rel.insert(tuple![k, k % 10, format!("t{}", k % 3)])
            .unwrap();
    }
    rel
}

#[test]
fn range_conjuncts_read_only_their_slice() {
    let plain = Arc::new(ColumnarRelation::from_relation(&banded(100)));
    let clustered = Arc::new(plain.clustered_on(1).unwrap());
    let cases: [(Vec<Expr>, Option<usize>); 9] = [
        // Duplicate keys at both edges: v in [3, 5) is 20 rows.
        (
            vec![
                Expr::col_cmp(1, CmpOp::Ge, 3),
                Expr::col_cmp(1, CmpOp::Lt, 5),
            ],
            Some(20),
        ),
        // The same range, flipped and nested, with a float constant.
        (
            vec![Expr::And(vec![
                Expr::Cmp(
                    CmpOp::Le,
                    Box::new(Expr::Const(Value::Float(2.5))),
                    Box::new(Expr::Col(1)),
                ),
                Expr::And(vec![Expr::col_cmp(1, CmpOp::Le, 4)]),
            ])],
            Some(20),
        ),
        (vec![Expr::col_cmp(1, CmpOp::Eq, 7)], Some(10)),
        (vec![Expr::col_cmp(1, CmpOp::Gt, 8)], Some(10)),
        // Empty ranges: crossed bounds, and constants beyond min / max.
        (
            vec![
                Expr::col_cmp(1, CmpOp::Gt, 6),
                Expr::col_cmp(1, CmpOp::Lt, 2),
            ],
            Some(0),
        ),
        (vec![Expr::col_cmp(1, CmpOp::Lt, -1)], Some(0)),
        (vec![Expr::col_cmp(1, CmpOp::Ge, 1_000)], Some(0)),
        // Neither `!=`, `Or`, `Not` nor a non-numeric constant narrows.
        (
            vec![
                Expr::col_cmp(1, CmpOp::Ne, 3),
                Expr::Or(vec![Expr::col_cmp(1, CmpOp::Lt, 2)]),
                Expr::Not(Box::new(Expr::col_cmp(1, CmpOp::Ge, 2))),
                Expr::col_cmp(1, CmpOp::Lt, Value::str("z")),
            ],
            None,
        ),
        // A conjunct on another column does not narrow either.
        (vec![Expr::col_cmp(0, CmpOp::Lt, 5)], None),
    ];
    for (preds, slice) in cases {
        let read = match clustered.candidate_rows(&preds) {
            Candidates::Range { col: 1, rows } => Some(rows.len()),
            Candidates::Scan => None,
            other => panic!("{other:?}"),
        };
        assert_eq!(read, slice, "{preds:?}");
        assert_eq!(
            plain.candidate_rows(&preds),
            Candidates::Scan,
            "unclustered never narrows"
        );
        let (got, pruned) = run_chain(Arc::clone(&clustered), &preds, 7);
        assert_eq!(
            (got, pruned),
            run_chain(Arc::clone(&plain), &preds, 7),
            "{preds:?}"
        );
    }
}

#[test]
fn clustering_refuses_null_dictionary_bool_and_mixed_columns() {
    let rel = Relation::from_tuples(
        Schema::positional("m", 5),
        vec![
            Tuple::new(vec![
                Value::Int(1),
                Value::str("a"),
                Value::Bool(true),
                Value::Int(1),
                Value::Int(1),
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::str("b"),
                Value::Bool(false),
                Value::str("x"),
                Value::Int(2),
            ]),
        ],
    )
    .unwrap();
    let col = ColumnarRelation::from_relation(&rel);
    for c in 0..4 {
        assert!(!col.is_clusterable(c), "column {c}");
        assert!(col.clustered_on(c).is_none(), "column {c}");
    }
    assert!(col.clustered_on(4).is_some(), "an int column without nulls");
    assert!(col.clustered_on(5).is_none(), "out of range");
}

// ---------- index probes ----------
//
// A hash index on a column makes a `col = const` conjunct read the
// constant's bucket. Keys follow the kernels' comparison, so the probe
// must select exactly what the scan selects — ints against floats, NaN,
// ±0.0 and integers past 2^53 included — in scan order, with the rows
// outside the bucket counted as pruned, clustered or not.

/// `col = const` on one of three columns, in either operand order.
fn eq_leaf(consts: impl Strategy<Value = Value>) -> impl Strategy<Value = Expr> {
    (0..3usize, consts, 0..2u8).prop_map(|(c, v, flip)| {
        let (col, k) = (Box::new(Expr::Col(c)), Box::new(Expr::Const(v)));
        if flip == 1 {
            Expr::Cmp(CmpOp::Eq, k, col)
        } else {
            Expr::Cmp(CmpOp::Eq, col, k)
        }
    })
}

/// A filter chain holding an equality leaf: alone, beside another
/// predicate, or nested in a conjunction with it.
fn probe_chain(
    eq: impl Strategy<Value = Expr>,
    other: impl Strategy<Value = Expr>,
) -> impl Strategy<Value = Vec<Expr>> {
    (eq, other, 0..3u8).prop_map(|(eq, other, shape)| match shape {
        0 => vec![eq],
        1 => vec![other, eq],
        _ => vec![Expr::And(vec![other, eq])],
    })
}

/// What a filter chain over `rel` yields at batch size `bs`: its rows in
/// produced order and the rows pruned, a projection (produced order),
/// and a grouped aggregate (sorted, errors by kind).
type ProbeOutcome = (Vec<Tuple>, u64, Vec<Tuple>, Result<Vec<Tuple>, String>);

fn probe_outcome(rel: &Arc<ColumnarRelation>, preds: &[Expr], bs: usize) -> ProbeOutcome {
    let chain = preds
        .iter()
        .fold(PhysicalPlan::scan_columnar(Arc::clone(rel)), |p, e| {
            p.filter(e.clone())
        });
    let (out, stats) = chain
        .materialize_with(ExecConfig::with_batch_size(bs))
        .unwrap();
    let projected = rows_of(&chain.clone().project(&[2, 0]).unwrap(), bs);
    let aggs = [
        Aggregate {
            func: AggFunc::Count,
            col: 0,
        },
        Aggregate {
            func: AggFunc::Min,
            col: 1,
        },
        Aggregate {
            func: AggFunc::Sum,
            col: 0,
        },
    ];
    let grouped = outcome_of(&chain.aggregate(&[2], &aggs).unwrap(), bs);
    (out.to_vec(), stats.rows_pruned, projected, grouped)
}

/// Indexed ≡ unindexed in order, and indexed-and-clustered ≡ unindexed
/// as sets (clustering reorders rows), at every batch size.
fn indexed_forms_agree(rel: &Relation, preds: &[Expr]) {
    let plain = Arc::new(ColumnarRelation::from_relation(rel));
    let indexed = Arc::new(
        ColumnarRelation::from_relation(rel)
            .with_indexes(&[0, 1, 2])
            .unwrap(),
    );
    let clustered = (0..3)
        .find(|&c| plain.is_clusterable(c))
        .map(|c| Arc::new(indexed.clustered_on(c).unwrap()));
    let sorted = |(mut rows, pruned, mut projected, grouped): ProbeOutcome| {
        rows.sort();
        projected.sort();
        (rows, pruned, projected, grouped)
    };
    for bs in BATCH_SIZES {
        let want = probe_outcome(&plain, preds, bs);
        prop_assert_eq!(
            &probe_outcome(&indexed, preds, bs),
            &want,
            "batch size {}",
            bs
        );
        if let Some(both) = &clustered {
            let got = sorted(probe_outcome(both, preds, bs));
            prop_assert_eq!(got, sorted(want), "clustered, batch size {}", bs);
        }
    }
}

proptest! {
    #[test]
    fn indexed_numeric_filters_projections_and_aggregates_match_unindexed(
        rel in numeric_rel(),
        preds in probe_chain(
            eq_leaf(prop_oneof![edge_const(), Just(Value::str("t1"))]),
            range_pred(),
        ),
    ) {
        indexed_forms_agree(&rel, &preds);
    }

    #[test]
    fn indexed_mixed_filters_projections_and_aggregates_match_unindexed(
        rel in rel_3col(),
        preds in probe_chain(eq_leaf(prop_oneof![edge_const(), any_value()]), vec_pred()),
    ) {
        indexed_forms_agree(&rel, &preds);
    }
}

#[test]
fn an_int_constant_probes_a_float_column_as_a_scan_compares() {
    let rel = Relation::from_tuples(
        Schema::positional("t", 2),
        vec![tuple!["a", 1.0], tuple!["b", 2.0]],
    )
    .unwrap();
    let pred = Expr::col_cmp(1, CmpOp::Eq, Value::int(1));
    let scanned = row_plan(&rel).filter(pred.clone()).materialize().unwrap();
    assert_eq!(scanned.to_vec(), vec![tuple!["a", 1.0]]);
    let indexed = ColumnarRelation::from_relation(&rel)
        .with_indexes(&[1])
        .unwrap();
    assert_eq!(
        indexed.candidate_rows(std::slice::from_ref(&pred)),
        Candidates::Probe { col: 1, rows: &[0] }
    );
    let probed = PhysicalPlan::scan_columnar(Arc::new(indexed))
        .filter(pred)
        .materialize()
        .unwrap();
    assert_eq!(probed.to_vec(), scanned.to_vec());
}

#[test]
fn clustering_an_indexed_relation_keeps_its_bytes_and_every_probe() {
    let rel = banded(100);
    let indexed = ColumnarRelation::from_relation(&rel)
        .with_indexes(&[0, 2])
        .unwrap();
    // Sorting on v moves nearly every row.
    let clustered = Arc::new(indexed.clustered_on(1).unwrap());
    let unindexed = Arc::new(
        ColumnarRelation::from_relation(&rel)
            .clustered_on(1)
            .unwrap(),
    );
    assert_eq!(clustered.approx_size(), indexed.approx_size());
    assert_eq!(clustered.indexed_cols(), vec![0, 2]);
    let indexed = Arc::new(indexed);
    let keys = (0..100)
        .map(|k| (0, Value::int(k)))
        .chain((0..3).map(|t| (2, Value::str(format!("t{t}")))));
    for (col, key) in keys {
        let eq = [Expr::col_cmp(col, CmpOp::Eq, key)];
        let Candidates::Probe { rows, .. } = clustered.candidate_rows(&eq) else {
            panic!("column {col} is indexed");
        };
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "buckets ascending");
        // The probe yields what a scan of the same rows yields, in its
        // order, and the rows the unclustered probe found.
        let (probed, pruned) = run_unsorted(&clustered, &eq);
        assert_eq!((probed.clone(), pruned), run_unsorted(&unindexed, &eq));
        let mut probed = probed;
        probed.sort();
        assert_eq!(probed, run_chain(Arc::clone(&indexed), &eq, 7).0);
    }
}

/// Rows and counters of `preds` chained over `rel`, in produced order.
fn run_unsorted(rel: &Arc<ColumnarRelation>, preds: &[Expr]) -> (Vec<Tuple>, u64) {
    let (rows, pruned, _, _) = probe_outcome(rel, preds, 7);
    (rows, pruned)
}
