//! E20 — columnar representation & vectorized kernels (DESIGN.md §14).
//!
//! The CMS can hold a cache element column-major ([`braid_relational::ColumnarRelation`]):
//! per-column typed vectors, dictionary-encoded strings, validity masks.
//! Filter chains and fused σ→γ over a columnar scan compile to
//! vectorized bitmap kernels; everything else falls back to row batches.
//! Three workloads measure what that buys:
//!
//! 1. a fused σ→γ scan-aggregate over a large integer relation (the
//!    kernel's home turf — this is the headline speedup),
//! 2. a selective dictionary-string filter (one comparison per
//!    *dictionary entry* instead of per row),
//! 3. E12's σ⋈πδ join workload, where joins have no vectorized kernel
//!    and the columnar scans only feed row operators (expected ≈1x —
//!    the fallback must not regress).
//!
//! Plus the cost of getting there: the row→columnar→row conversion
//! overhead on the same relation. Results are asserted bit-identical
//! between representations in every workload.

use crate::experiments::support::{binary_relation, ms, ratio};
use crate::table::Table;
use braid_relational::{
    AggFunc, Aggregate, CmpOp, ColumnarRelation, ExecConfig, Expr, PhysicalPlan, Relation, Schema,
    Tuple, Value,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wide scan relation `scan(k, v, tag)`: integer group key, unique
/// integer value, and an 8-entry dictionary string column.
fn scan_relation(rows: usize) -> Relation {
    let mut r = Relation::new(Schema::of_strs("scan", &["k", "v", "tag"]));
    for i in 0..rows as i64 {
        r.insert(Tuple::new(vec![
            Value::Int(i % 10),
            Value::Int(i),
            Value::str(format!("tag{}", i % 8)),
        ]))
        .expect("arity 3");
    }
    r
}

/// Best-of-`reps` wall time for materializing `plan`, asserting every
/// run returns `expect`.
fn best_time(mk: impl Fn() -> PhysicalPlan, reps: usize, expect: &Relation) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let plan = mk();
        let start = Instant::now();
        let (rel, _) = plan
            .materialize_with(ExecConfig::default())
            .expect("plan executes");
        best = best.min(start.elapsed());
        assert_eq!(&rel, expect, "representations must agree bit-for-bit");
    }
    best
}

/// Run E20.
pub fn run(quick: bool) -> Table {
    let rows = if quick { 10_000 } else { 50_000 };
    let reps = if quick { 3 } else { 5 };
    let rel = Arc::new(scan_relation(rows));
    let col = Arc::new(ColumnarRelation::from_relation(&rel));

    let mut t = Table::new(
        format!("E20 columnar representation & vectorized kernels — {rows}-row scans"),
        &["workload", "row ms", "columnar ms", "speedup"],
    );

    // 1. Fused σ→γ: selective filter + grouped SUM, the vectorized
    //    kernel's target shape.
    let pred = Expr::col_cmp(1, CmpOp::Ge, (rows / 2) as i64);
    let aggs = [Aggregate {
        func: AggFunc::Sum,
        col: 1,
    }];
    let row_plan = || {
        PhysicalPlan::scan(Arc::clone(&rel))
            .filter(pred.clone())
            .aggregate(&[0], &aggs)
            .expect("columns in range")
    };
    let col_plan = || {
        PhysicalPlan::scan_columnar(Arc::clone(&col))
            .filter(pred.clone())
            .aggregate(&[0], &aggs)
            .expect("columns in range")
    };
    let (expect, _) = row_plan()
        .materialize_with(ExecConfig::default())
        .expect("reference run");
    let row_t = best_time(row_plan, reps, &expect);
    let col_t = best_time(col_plan, reps, &expect);
    t.row(vec![
        "σ→γ fused scan-aggregate".into(),
        ms(row_t),
        ms(col_t),
        ratio(row_t.as_secs_f64(), col_t.as_secs_f64()),
    ]);
    let fused_speedup = row_t.as_secs_f64() / col_t.as_secs_f64().max(1e-12);

    // 2. Dictionary filter: the bitmap kernel compares once per
    //    dictionary entry (8 here) and maps codes through the table.
    let tag_pred = Expr::col_cmp(2, CmpOp::Eq, Value::str("tag3"));
    let row_plan = || PhysicalPlan::scan(Arc::clone(&rel)).filter(tag_pred.clone());
    let col_plan = || PhysicalPlan::scan_columnar(Arc::clone(&col)).filter(tag_pred.clone());
    let (expect, _) = row_plan()
        .materialize_with(ExecConfig::default())
        .expect("reference run");
    let row_t = best_time(row_plan, reps, &expect);
    let col_t = best_time(col_plan, reps, &expect);
    t.row(vec![
        "σ dictionary string filter".into(),
        ms(row_t),
        ms(col_t),
        ratio(row_t.as_secs_f64(), col_t.as_secs_f64()),
    ]);

    // 3. E12's σ⋈πδ: no vectorized join kernel exists, so the columnar
    //    scans stream row batches into the same operators — this row
    //    measures that the fallback costs ≈ nothing.
    let join_rows = if quick { 2_000 } else { 20_000 };
    let l = Arc::new(binary_relation("l", join_rows, join_rows / 10, 7));
    let r = Arc::new(binary_relation("r", join_rows, join_rows / 10, 11));
    let lc = Arc::new(ColumnarRelation::from_relation(&l));
    let rc = Arc::new(ColumnarRelation::from_relation(&r));
    let join = |left: PhysicalPlan, right: PhysicalPlan| {
        left.filter(Expr::col_cmp(1, CmpOp::Lt, Value::str("v5")))
            .hash_join_build_right(right, &[(0, 0)])
            .project(&[0, 1, 3])
            .expect("projection in range")
            .dedup()
    };
    let row_plan = || {
        join(
            PhysicalPlan::scan(Arc::clone(&l)),
            PhysicalPlan::scan(Arc::clone(&r)),
        )
    };
    let col_plan = || {
        join(
            PhysicalPlan::scan_columnar(Arc::clone(&lc)),
            PhysicalPlan::scan_columnar(Arc::clone(&rc)),
        )
    };
    let (expect, _) = row_plan()
        .materialize_with(ExecConfig::default())
        .expect("reference run");
    let row_t = best_time(row_plan, reps, &expect);
    let col_t = best_time(col_plan, reps, &expect);
    t.row(vec![
        format!("σ⋈πδ join (E12, {join_rows} rows)"),
        ms(row_t),
        ms(col_t),
        ratio(row_t.as_secs_f64(), col_t.as_secs_f64()),
    ]);

    // 4. Conversion overhead: what `ensure_columnar` / `ensure_extension`
    //    pay when the CMS flips an element's representation.
    let start = Instant::now();
    let converted = ColumnarRelation::from_relation(&rel);
    let to_col = start.elapsed();
    let start = Instant::now();
    let back = converted.to_relation().expect("lossless");
    let to_row = start.elapsed();
    assert_eq!(&back, rel.as_ref(), "round trip must be the identity");
    t.row(vec![
        "row→columnar / columnar→row conversion".into(),
        ms(to_col),
        ms(to_row),
        format!(
            "{:.2}x bytes",
            col.approx_size() as f64 / rel.approx_size() as f64
        ),
    ]);

    t.note(format!(
        "Answers are asserted bit-identical between representations in every \
         workload. The fused σ→γ kernel ran {fused_speedup:.1}x faster than \
         the row pipeline; the dictionary filter compares once per dictionary \
         entry (8) instead of once per row; the join workload exercises the \
         row-batch fallback. The last row prices a representation flip and \
         the columnar size ratio (dictionary encoding shrinks the string \
         column)."
    ));
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn columnar_beats_rows_on_the_fused_workload() {
        let t = super::run(true);
        assert_eq!(t.rows.len(), 4);
        // Acceptance: the vectorized fused kernel must be at least 2x
        // faster than the row pipeline on the scan-aggregate workload.
        let speedup: f64 = t.rows[0][3]
            .trim_end_matches('x')
            .parse()
            .expect("speedup cell parses");
        assert!(
            speedup >= 2.0,
            "fused kernel speedup must be >= 2x, got {speedup}"
        );
    }
}
