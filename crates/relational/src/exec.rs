//! The batched pull executor behind [`crate::plan::PhysicalPlan`].
//!
//! Exactly one implementation of every relational operator lives here.
//! Operators exchange [`TupleBatch`]es — vectors of `Arc`-shared
//! [`Tuple`]s, at most [`ExecConfig::batch_size`] rows from a leaf scan
//! (default 256) — instead of single tuples, amortizing per-row virtual
//! dispatch across a batch. Adjacent filter+project pairs in the plan
//! are *fused* into a single pass over each batch at build time.
//!
//! Two thin modes drive the executor:
//!
//! * **eager** — [`crate::plan::PhysicalPlan::materialize`] pulls batches
//!   to completion and collects them into a [`Relation`], propagating
//!   errors (used by the eager wrappers in [`crate::ops`]);
//! * **generator** — [`crate::plan::PhysicalPlan::open`] wraps the same
//!   operator tree in a [`RunningPlan`], an infallible tuple-at-a-time
//!   stream that deduplicates at the root (the paper's "produces a
//!   single tuple on demand", §5.1).
//!
//! Executor work is observable through [`ExecStats`]: batches and tuples
//! produced by all operators, plus rows pruned by (fused) filters. The
//! CMS and the simulated remote DBMS fold these counters into their own
//! metrics.

use crate::columnar::{Candidates, ColData, ColVec, ColumnarRelation};
use crate::error::{RelationalError, Result};
use crate::expr::{CmpOp, Expr};
use crate::plan::{AggFunc, Aggregate, PhysicalPlan, PlanNode};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A batch of `Arc`-shared tuples — the unit of exchange between
/// executor operators and across the remote-DBMS stream channel.
pub type TupleBatch = Vec<Tuple>;

/// Executor configuration: the batch-size knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Target rows per leaf batch (operators may emit more after a join
    /// fan-out, or fewer at stream end). Clamped to at least 1.
    pub batch_size: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { batch_size: 256 }
    }
}

impl ExecConfig {
    /// Config with an explicit batch size (clamped to at least 1).
    pub fn with_batch_size(batch_size: usize) -> Self {
        ExecConfig {
            batch_size: batch_size.max(1),
        }
    }
}

/// Shared work counters, bumped by every operator in a running plan.
#[derive(Debug, Default)]
pub struct ExecCounters {
    batches: AtomicU64,
    tuples: AtomicU64,
    rows_pruned: AtomicU64,
}

impl ExecCounters {
    fn produced(&self, rows: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.tuples.fetch_add(rows as u64, Ordering::Relaxed);
    }

    fn pruned(&self, rows: usize) {
        self.rows_pruned.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> ExecStats {
        ExecStats {
            batches: self.batches.load(Ordering::Relaxed),
            tuples: self.tuples.load(Ordering::Relaxed),
            rows_pruned: self.rows_pruned.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of executor work: how many batches and tuples all
/// operators of a plan produced, and how many rows (fused) filters
/// pruned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Batches produced across all operators.
    pub batches: u64,
    /// Tuples produced across all operators.
    pub tuples: u64,
    /// Rows removed by filter passes (including fused filter+project).
    pub rows_pruned: u64,
}

impl ExecStats {
    /// Accumulate another snapshot into this one.
    pub fn merge(&mut self, other: ExecStats) {
        self.batches += other.batches;
        self.tuples += other.tuples;
        self.rows_pruned += other.rows_pruned;
    }
}

/// A pull-based stream of tuples with a known schema.
pub trait TupleStream: Send {
    /// The schema of produced tuples.
    fn schema(&self) -> &Schema;
    /// Produce the next tuple, or `None` when exhausted.
    fn next_tuple(&mut self) -> Option<Tuple>;
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

/// One physical operator: pull the next batch, or `None` when drained.
pub(crate) trait Operator: Send {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>>;
}

/// Compile a plan into its operator tree, applying the filter+project
/// fusion rule.
pub(crate) fn build(
    plan: &PhysicalPlan,
    cfg: ExecConfig,
    counters: &Arc<ExecCounters>,
) -> Box<dyn Operator> {
    match &plan.node {
        PlanNode::ScanRel(rel) => Box::new(ScanOp {
            src: ScanSrc::Rel(Arc::clone(rel)),
            pos: 0,
            cfg,
            counters: Arc::clone(counters),
        }),
        PlanNode::ScanRows(rows) => Box::new(ScanOp {
            src: ScanSrc::Rows(Arc::clone(rows)),
            pos: 0,
            cfg,
            counters: Arc::clone(counters),
        }),
        PlanNode::ScanCol(rel) => Box::new(ColScanOp {
            rel: Arc::clone(rel),
            pos: 0,
            cfg,
            counters: Arc::clone(counters),
        }),
        PlanNode::Project { cols, child } => {
            // Vectorized fusion: project over a columnar filter chain
            // runs the whole σ+π as one column-at-a-time pass.
            if let Some((rel, preds)) = columnar_chain(child) {
                return Box::new(ColFilterProjectOp::new(
                    rel,
                    preds,
                    Some(cols.clone().into_boxed_slice()),
                    cfg,
                    counters,
                ));
            }
            // Fusion: project-over-filter becomes one pass per batch.
            if let PlanNode::Filter {
                pred,
                strict,
                child: inner,
            } = &child.node
            {
                return Box::new(FilterProjectOp {
                    pred: Some(pred.clone()),
                    strict: *strict,
                    cols: Some(cols.clone().into_boxed_slice()),
                    child: build(inner, cfg, counters),
                    counters: Arc::clone(counters),
                });
            }
            Box::new(FilterProjectOp {
                pred: None,
                strict: false,
                cols: Some(cols.clone().into_boxed_slice()),
                child: build(child, cfg, counters),
                counters: Arc::clone(counters),
            })
        }
        PlanNode::Filter {
            pred,
            strict,
            child,
        } => {
            // Vectorized path: a filter chain over a columnar scan with
            // total (never-erroring) predicates computes a selection
            // bitmap column-at-a-time. Strictness is moot for such
            // predicates, so both filter modes take this path.
            if let Some((rel, preds)) = columnar_chain(plan) {
                return Box::new(ColFilterProjectOp::new(rel, preds, None, cfg, counters));
            }
            Box::new(FilterProjectOp {
                pred: Some(pred.clone()),
                strict: *strict,
                cols: None,
                child: build(child, cfg, counters),
                counters: Arc::clone(counters),
            })
        }
        PlanNode::HashJoin {
            build: b,
            probe,
            on,
            probe_first,
        } => Box::new(HashJoinOp {
            build_child: Some(build(b, cfg, counters)),
            table: HashMap::new(),
            probe: build(probe, cfg, counters),
            bcols: on.iter().map(|&(a, _)| a).collect(),
            pcols: on.iter().map(|&(_, b)| b).collect(),
            probe_first: *probe_first,
            counters: Arc::clone(counters),
        }),
        PlanNode::Semi {
            left,
            right,
            on,
            anti,
        } => Box::new(SemiOp {
            left: build(left, cfg, counters),
            right_child: Some(build(right, cfg, counters)),
            keys: HashSet::new(),
            lcols: on.iter().map(|&(a, _)| a).collect(),
            rcols: on.iter().map(|&(_, b)| b).collect(),
            anti: *anti,
            counters: Arc::clone(counters),
        }),
        PlanNode::Union(parts) => {
            let mut children: Vec<_> = parts.iter().map(|p| build(p, cfg, counters)).collect();
            children.reverse();
            Box::new(UnionOp {
                rest: children,
                current: None,
            })
        }
        PlanNode::Dedup(child) => Box::new(DedupOp {
            child: build(child, cfg, counters),
            seen: HashSet::new(),
            counters: Arc::clone(counters),
        }),
        PlanNode::Aggregate {
            group_by,
            aggs,
            child,
        } => {
            // Vectorized path: aggregate directly over a columnar filter
            // chain in one fused loop. The chain's rows are duplicate-free
            // (a columnar scan of a set through filters only), so the row
            // operator's dedup pass is skipped soundly.
            if let Some((rel, preds)) = columnar_chain(child) {
                return Box::new(ColAggregateOp {
                    input: Some((rel, preds)),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    counters: Arc::clone(counters),
                });
            }
            Box::new(AggregateOp {
                child: Some(build(child, cfg, counters)),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                counters: Arc::clone(counters),
            })
        }
        PlanNode::Limit { n, child } => Box::new(LimitOp {
            child: build(child, cfg, counters),
            remaining: *n,
        }),
    }
}

enum ScanSrc {
    Rel(Arc<Relation>),
    Rows(Arc<Vec<Tuple>>),
}

impl ScanSrc {
    fn len(&self) -> usize {
        match self {
            ScanSrc::Rel(r) => r.len(),
            ScanSrc::Rows(v) => v.len(),
        }
    }

    fn slice(&self, from: usize, to: usize) -> TupleBatch {
        match self {
            ScanSrc::Rel(r) => (from..to).filter_map(|i| r.row(i).cloned()).collect(),
            ScanSrc::Rows(v) => v[from..to].to_vec(),
        }
    }
}

struct ScanOp {
    src: ScanSrc,
    pos: usize,
    cfg: ExecConfig,
    counters: Arc<ExecCounters>,
}

impl Operator for ScanOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let len = self.src.len();
        if self.pos >= len {
            return Ok(None);
        }
        let end = (self.pos + self.cfg.batch_size.max(1)).min(len);
        let batch = self.src.slice(self.pos, end);
        self.pos = end;
        self.counters.produced(batch.len());
        Ok(Some(batch))
    }
}

/// σ, π, or the fused σ+π single pass (the fusion rule): evaluates the
/// predicate and projects in one traversal of each batch, reusing one
/// projection index slice per batch instead of re-borrowing per tuple.
struct FilterProjectOp {
    pred: Option<Expr>,
    strict: bool,
    cols: Option<Box<[usize]>>,
    child: Box<dyn Operator>,
    counters: Arc<ExecCounters>,
}

impl Operator for FilterProjectOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        loop {
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let mut out = Vec::with_capacity(batch.len());
            let mut pruned = 0usize;
            for t in batch {
                if let Some(pred) = &self.pred {
                    match pred.eval_bool(&t) {
                        Ok(true) => {}
                        Ok(false) => {
                            pruned += 1;
                            continue;
                        }
                        Err(e) if self.strict => return Err(e),
                        Err(_) => {
                            pruned += 1;
                            continue;
                        }
                    }
                }
                out.push(match &self.cols {
                    Some(cols) => t.project(cols),
                    None => t,
                });
            }
            self.counters.pruned(pruned);
            if !out.is_empty() {
                self.counters.produced(out.len());
                return Ok(Some(out));
            }
        }
    }
}

struct HashJoinOp {
    build_child: Option<Box<dyn Operator>>,
    table: HashMap<Vec<Value>, Vec<Tuple>>,
    probe: Box<dyn Operator>,
    bcols: Vec<usize>,
    pcols: Vec<usize>,
    probe_first: bool,
    counters: Arc<ExecCounters>,
}

impl Operator for HashJoinOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        // Build side is drained lazily, on first pull.
        if let Some(mut b) = self.build_child.take() {
            while let Some(batch) = b.next_batch()? {
                for t in batch {
                    self.table.entry(t.key(&self.bcols)).or_default().push(t);
                }
            }
        }
        loop {
            let Some(batch) = self.probe.next_batch()? else {
                return Ok(None);
            };
            let mut out = Vec::new();
            for p in &batch {
                if let Some(matches) = self.table.get(&p.key(&self.pcols)) {
                    for m in matches {
                        out.push(if self.probe_first {
                            p.concat(m)
                        } else {
                            m.concat(p)
                        });
                    }
                }
            }
            if !out.is_empty() {
                self.counters.produced(out.len());
                return Ok(Some(out));
            }
        }
    }
}

struct SemiOp {
    left: Box<dyn Operator>,
    right_child: Option<Box<dyn Operator>>,
    keys: HashSet<Vec<Value>>,
    lcols: Vec<usize>,
    rcols: Vec<usize>,
    anti: bool,
    counters: Arc<ExecCounters>,
}

impl Operator for SemiOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if let Some(mut r) = self.right_child.take() {
            while let Some(batch) = r.next_batch()? {
                for t in batch {
                    self.keys.insert(t.key(&self.rcols));
                }
            }
        }
        loop {
            let Some(batch) = self.left.next_batch()? else {
                return Ok(None);
            };
            let mut pruned = 0usize;
            let mut out: TupleBatch = Vec::with_capacity(batch.len());
            for t in batch {
                if self.keys.contains(&t.key(&self.lcols)) != self.anti {
                    out.push(t);
                } else {
                    pruned += 1;
                }
            }
            self.counters.pruned(pruned);
            if !out.is_empty() {
                self.counters.produced(out.len());
                return Ok(Some(out));
            }
        }
    }
}

struct UnionOp {
    /// Remaining children in reverse order (popped from the back).
    rest: Vec<Box<dyn Operator>>,
    current: Option<Box<dyn Operator>>,
}

impl Operator for UnionOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        loop {
            if self.current.is_none() {
                self.current = self.rest.pop();
            }
            let Some(cur) = self.current.as_mut() else {
                return Ok(None);
            };
            match cur.next_batch()? {
                Some(batch) => return Ok(Some(batch)),
                None => self.current = None,
            }
        }
    }
}

struct DedupOp {
    child: Box<dyn Operator>,
    seen: HashSet<Tuple>,
    counters: Arc<ExecCounters>,
}

impl Operator for DedupOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        loop {
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let mut out: TupleBatch = Vec::with_capacity(batch.len());
            for t in batch {
                if self.seen.insert(t.clone()) {
                    out.push(t);
                }
            }
            if !out.is_empty() {
                self.counters.produced(out.len());
                return Ok(Some(out));
            }
        }
    }
}

struct AggregateOp {
    /// `Some` until the single output batch has been produced.
    child: Option<Box<dyn Operator>>,
    group_by: Vec<usize>,
    aggs: Vec<Aggregate>,
    counters: Arc<ExecCounters>,
}

impl Operator for AggregateOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let Some(mut child) = self.child.take() else {
            return Ok(None);
        };
        // Aggregation is a pipeline breaker: drain the input (as a set —
        // eager semantics aggregate materialized relations) and group.
        let mut seen: HashSet<Tuple> = HashSet::new();
        let mut groups: HashMap<Vec<Value>, Vec<Tuple>> = HashMap::new();
        while let Some(batch) = child.next_batch()? {
            for t in batch {
                if seen.insert(t.clone()) {
                    groups.entry(t.key(&self.group_by)).or_default().push(t);
                }
            }
        }
        let mut out: TupleBatch = Vec::with_capacity(groups.len());
        if groups.is_empty() && self.group_by.is_empty() {
            // Global aggregate over the empty input: COUNT is 0, other
            // aggregates are undefined.
            let mut row: Vec<Value> = Vec::new();
            for a in &self.aggs {
                match a.func {
                    AggFunc::Count => row.push(Value::Int(0)),
                    other => return Err(RelationalError::EmptyAggregate(other.name().to_string())),
                }
            }
            out.push(Tuple::new(row));
        } else {
            for (key, members) in groups {
                let mut row = key;
                for a in &self.aggs {
                    row.push(eval_agg(a, &members)?);
                }
                out.push(Tuple::new(row));
            }
        }
        self.counters.produced(out.len());
        Ok(Some(out))
    }
}

fn eval_agg(a: &Aggregate, members: &[Tuple]) -> Result<Value> {
    match a.func {
        AggFunc::Count => Ok(Value::Int(members.len() as i64)),
        AggFunc::Min => members
            .iter()
            .map(|t| t.values()[a.col].clone())
            .min()
            .ok_or_else(|| RelationalError::EmptyAggregate("min".into())),
        AggFunc::Max => members
            .iter()
            .map(|t| t.values()[a.col].clone())
            .max()
            .ok_or_else(|| RelationalError::EmptyAggregate("max".into())),
        AggFunc::Sum => {
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut any_float = false;
            for t in members {
                match &t.values()[a.col] {
                    Value::Int(i) => int_sum = int_sum.wrapping_add(*i),
                    Value::Float(f) => {
                        any_float = true;
                        float_sum += f;
                    }
                    other => {
                        return Err(RelationalError::TypeError(format!(
                            "SUM over non-numeric value {other}"
                        )))
                    }
                }
            }
            if any_float {
                Ok(Value::Float(float_sum + int_sum as f64))
            } else {
                Ok(Value::Int(int_sum))
            }
        }
        AggFunc::Avg => {
            if members.is_empty() {
                return Err(RelationalError::EmptyAggregate("avg".into()));
            }
            let mut sum = 0.0;
            for t in members {
                sum += t.values()[a.col].as_f64().ok_or_else(|| {
                    RelationalError::TypeError("AVG over non-numeric value".into())
                })?;
            }
            Ok(Value::Float(sum / members.len() as f64))
        }
    }
}

struct LimitOp {
    child: Box<dyn Operator>,
    remaining: usize,
}

impl Operator for LimitOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(mut batch) = self.child.next_batch()? else {
            return Ok(None);
        };
        if batch.len() > self.remaining {
            batch.truncate(self.remaining);
        }
        self.remaining -= batch.len();
        Ok(Some(batch))
    }
}

// ---------------------------------------------------------------------
// Vectorized (columnar) kernels
// ---------------------------------------------------------------------

/// Match a `Filter*(ScanCol)` chain whose predicates are all
/// *vectorizable*: boolean trees of comparisons over in-range columns
/// and constants. Such predicates can never error, so the selection can
/// be computed column-at-a-time as a bitmap with semantics identical to
/// per-tuple evaluation in either filter mode.
fn columnar_chain(plan: &PhysicalPlan) -> Option<(Arc<ColumnarRelation>, Vec<Expr>)> {
    fn walk(plan: &PhysicalPlan, preds: &mut Vec<Expr>) -> Option<Arc<ColumnarRelation>> {
        match &plan.node {
            PlanNode::ScanCol(rel) => Some(Arc::clone(rel)),
            PlanNode::Filter { pred, child, .. } => {
                let rel = walk(child, preds)?;
                preds.push(pred.clone());
                Some(rel)
            }
            _ => None,
        }
    }
    let mut preds = Vec::new();
    let rel = walk(plan, &mut preds)?;
    let arity = rel.arity();
    preds
        .iter()
        .all(|p| vectorizable_pred(p, arity))
        .then_some((rel, preds))
}

/// A boolean expression the bitmap kernel can evaluate: comparisons,
/// conjunctions, disjunctions and negations over columns (in range) and
/// constants. Every node yields a boolean and no node can error, which
/// is what makes strict and errors-as-unknown filters coincide.
fn vectorizable_pred(e: &Expr, arity: usize) -> bool {
    fn scalar(e: &Expr, arity: usize) -> bool {
        match e {
            Expr::Col(i) => *i < arity,
            Expr::Const(_) => true,
            _ => false,
        }
    }
    match e {
        Expr::Const(Value::Bool(_)) => true,
        Expr::Cmp(_, a, b) => scalar(a, arity) && scalar(b, arity),
        Expr::And(es) | Expr::Or(es) => es.iter().all(|e| vectorizable_pred(e, arity)),
        Expr::Not(inner) => vectorizable_pred(inner, arity),
        _ => false,
    }
}

/// The rows a filter chain selects, ascending. Only the candidates
/// ([`ColumnarRelation::candidate_rows`]) are evaluated — an index
/// bucket row by row, a clustered slice or every row as bitmaps; rows
/// outside the candidates fail a conjunct, so the answer is the full
/// scan's.
fn selected_rows(rel: &ColumnarRelation, preds: &[Expr]) -> Vec<u32> {
    let rows = match rel.candidate_rows(preds) {
        Candidates::Probe { rows, .. } => {
            return (rows.iter().copied())
                .filter(|&r| preds.iter().all(|p| row_holds(rel, p, r as usize)))
                .collect();
        }
        Candidates::Range { rows, .. } => rows,
        Candidates::Scan => 0..rel.len(),
    };
    let from = rows.start;
    let mut sel = vec![true; rows.len()];
    for p in preds {
        for (s, v) in sel.iter_mut().zip(pred_bitmap(rel, p, &rows)) {
            *s &= v;
        }
    }
    (from..)
        .zip(sel)
        .filter_map(|(i, keep)| keep.then_some(i as u32))
        .collect()
}

/// One vectorizable predicate at one row: [`CmpOp::eval`] over the
/// row's values, which is what every bitmap kernel replicates.
fn row_holds(rel: &ColumnarRelation, e: &Expr, r: usize) -> bool {
    let value = |e: &Expr| match e {
        Expr::Col(i) => rel.value_at(r, *i),
        Expr::Const(v) => v.clone(),
        _ => unreachable!("guarded by vectorizable_pred"),
    };
    match e {
        Expr::Const(Value::Bool(b)) => *b,
        Expr::And(es) => es.iter().all(|e| row_holds(rel, e, r)),
        Expr::Or(es) => es.iter().any(|e| row_holds(rel, e, r)),
        Expr::Not(inner) => !row_holds(rel, inner, r),
        Expr::Cmp(op, a, b) => op.eval(&value(a), &value(b)),
        _ => unreachable!("guarded by vectorizable_pred"),
    }
}

/// One predicate as a bitmap over `rows`. Logical connectives combine
/// child bitmaps; in the vectorizable subset no operand can error, so
/// eager bitwise combination equals the row evaluator's short-circuit.
fn pred_bitmap(rel: &ColumnarRelation, e: &Expr, rows: &Range<usize>) -> Vec<bool> {
    let n = rows.len();
    match e {
        Expr::Const(Value::Bool(b)) => vec![*b; n],
        Expr::And(es) => {
            let mut acc = vec![true; n];
            for e in es {
                for (a, v) in acc.iter_mut().zip(pred_bitmap(rel, e, rows)) {
                    *a &= v;
                }
            }
            acc
        }
        Expr::Or(es) => {
            let mut acc = vec![false; n];
            for e in es {
                for (a, v) in acc.iter_mut().zip(pred_bitmap(rel, e, rows)) {
                    *a |= v;
                }
            }
            acc
        }
        Expr::Not(inner) => {
            let mut acc = pred_bitmap(rel, inner, rows);
            for v in &mut acc {
                *v = !*v;
            }
            acc
        }
        Expr::Cmp(op, a, b) => cmp_bitmap(rel, *op, a, b, rows),
        _ => unreachable!("guarded by vectorizable_pred"),
    }
}

fn cmp_bitmap(
    rel: &ColumnarRelation,
    op: CmpOp,
    a: &Expr,
    b: &Expr,
    rows: &Range<usize>,
) -> Vec<bool> {
    match (a, b) {
        (Expr::Col(i), Expr::Const(v)) => col_const_bitmap(rel.col(*i), op, v, rows),
        // `const op col` flips to `col flipped(op) const`.
        (Expr::Const(v), Expr::Col(i)) => col_const_bitmap(rel.col(*i), op.flipped(), v, rows),
        (Expr::Col(i), Expr::Col(j)) => rows
            .clone()
            .map(|r| op.eval(&rel.value_at(r, *i), &rel.value_at(r, *j)))
            .collect(),
        (Expr::Const(u), Expr::Const(v)) => vec![op.eval(u, v); rows.len()],
        _ => unreachable!("guarded by vectorizable_pred"),
    }
}

/// `column op constant` over `rows`. Typed columns compared against a
/// numeric constant run a tight loop replicating [`CmpOp::eval`]'s
/// numeric path exactly (ints widen to f64, `total_cmp`); string columns
/// compare once per *dictionary entry* and map codes through the table;
/// everything else falls back to per-slot [`CmpOp::eval`]. Null slots
/// are patched afterwards with the null-vs-constant result.
fn col_const_bitmap(col: &ColVec, op: CmpOp, v: &Value, rows: &Range<usize>) -> Vec<bool> {
    let mut out: Vec<bool> = match (&col.data, v.as_f64()) {
        (ColData::Ints(xs), Some(y)) => xs[rows.clone()]
            .iter()
            .map(|&x| op.holds((x as f64).total_cmp(&y)))
            .collect(),
        (ColData::Floats(xs), Some(y)) => xs[rows.clone()]
            .iter()
            .map(|&x| op.holds(x.total_cmp(&y)))
            .collect(),
        (ColData::Strs { dict, codes }, _) => {
            let table: Vec<bool> = match v {
                // `CmpOp::eval` on two strings is `str` order; compare
                // the borrowed entries without building a `Value` each.
                Value::Str(c) => dict
                    .iter()
                    .map(|s| op.holds(s.as_ref().cmp(c.as_ref())))
                    .collect(),
                _ => dict
                    .iter()
                    .map(|s| op.eval(&Value::Str(Arc::clone(s)), v))
                    .collect(),
            };
            codes[rows.clone()]
                .iter()
                .map(|&c| table[c as usize])
                .collect()
        }
        (ColData::Mixed(vals), _) => vals[rows.clone()].iter().map(|x| op.eval(x, v)).collect(),
        // Bool columns, and typed numerics against a non-numeric
        // constant: row semantics bottom out in the total value order;
        // evaluate per raw slot (null slots are patched below).
        _ => rows
            .clone()
            .map(|i| op.eval(&col.raw_value_at(i), v))
            .collect(),
    };
    if let Some(valid) = &col.validity {
        let null_result = op.eval(&Value::Null, v);
        for (o, &ok) in out.iter_mut().zip(&valid[rows.clone()]) {
            if !ok {
                *o = null_result;
            }
        }
    }
    out
}

/// Leaf scan over a columnar relation, emitting ordinary row batches —
/// the universal fallback that lets every row operator (joins, unions,
/// dedup, non-vectorizable filters) consume columnar inputs unchanged.
struct ColScanOp {
    rel: Arc<ColumnarRelation>,
    pos: usize,
    cfg: ExecConfig,
    counters: Arc<ExecCounters>,
}

impl Operator for ColScanOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let len = self.rel.len();
        if self.pos >= len {
            return Ok(None);
        }
        let end = (self.pos + self.cfg.batch_size.max(1)).min(len);
        let batch: TupleBatch = (self.pos..end).map(|i| self.rel.tuple_at(i)).collect();
        self.pos = end;
        self.counters.produced(batch.len());
        Ok(Some(batch))
    }
}

/// Vectorized σ(+π): the whole filter chain becomes one selection bitmap
/// (computed on first pull), and only surviving rows are materialized as
/// tuples — pruned rows never pay tuple construction.
struct ColFilterProjectOp {
    rel: Arc<ColumnarRelation>,
    preds: Vec<Expr>,
    cols: Option<Box<[usize]>>,
    /// Surviving row ids, computed on first pull.
    sel: Option<Vec<u32>>,
    pos: usize,
    cfg: ExecConfig,
    counters: Arc<ExecCounters>,
}

impl ColFilterProjectOp {
    fn new(
        rel: Arc<ColumnarRelation>,
        preds: Vec<Expr>,
        cols: Option<Box<[usize]>>,
        cfg: ExecConfig,
        counters: &Arc<ExecCounters>,
    ) -> ColFilterProjectOp {
        ColFilterProjectOp {
            rel,
            preds,
            cols,
            sel: None,
            pos: 0,
            cfg,
            counters: Arc::clone(counters),
        }
    }
}

impl Operator for ColFilterProjectOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if self.sel.is_none() {
            let sel = selected_rows(&self.rel, &self.preds);
            self.counters.pruned(self.rel.len() - sel.len());
            self.sel = Some(sel);
        }
        let sel = self.sel.as_ref().expect("computed above");
        if self.pos >= sel.len() {
            return Ok(None);
        }
        let end = (self.pos + self.cfg.batch_size.max(1)).min(sel.len());
        let batch: TupleBatch = sel[self.pos..end]
            .iter()
            .map(|&r| {
                let r = r as usize;
                match &self.cols {
                    Some(cols) => {
                        Tuple::new(cols.iter().map(|&c| self.rel.value_at(r, c)).collect())
                    }
                    None => self.rel.tuple_at(r),
                }
            })
            .collect();
        self.pos = end;
        self.counters.produced(batch.len());
        Ok(Some(batch))
    }
}

/// Per-group accumulator mirroring [`eval_agg`] exactly: same wrapping
/// integer sums, same int-then-float widening, same error messages —
/// but fed one value at a time in row order instead of from a collected
/// member vector.
enum AggAcc {
    Count(i64),
    Min(Option<Value>),
    Max(Option<Value>),
    Sum {
        int_sum: i64,
        float_sum: f64,
        any_float: bool,
    },
    Avg {
        sum: f64,
        n: usize,
    },
}

impl AggAcc {
    fn new(func: AggFunc) -> AggAcc {
        match func {
            AggFunc::Count => AggAcc::Count(0),
            AggFunc::Min => AggAcc::Min(None),
            AggFunc::Max => AggAcc::Max(None),
            AggFunc::Sum => AggAcc::Sum {
                int_sum: 0,
                float_sum: 0.0,
                any_float: false,
            },
            AggFunc::Avg => AggAcc::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, v: Value) -> Result<()> {
        match self {
            AggAcc::Count(n) => *n += 1,
            // `Iterator::min` keeps the first of equals, `max` the last;
            // mirror that with `<` and `>=` (equal values are
            // interchangeable, but stay pedantic).
            AggAcc::Min(cur) => {
                if cur.as_ref().is_none_or(|c| v < *c) {
                    *cur = Some(v);
                }
            }
            AggAcc::Max(cur) => {
                if cur.as_ref().is_none_or(|c| v >= *c) {
                    *cur = Some(v);
                }
            }
            AggAcc::Sum {
                int_sum,
                float_sum,
                any_float,
            } => match v {
                Value::Int(i) => *int_sum = int_sum.wrapping_add(i),
                Value::Float(f) => {
                    *any_float = true;
                    *float_sum += f;
                }
                other => {
                    return Err(RelationalError::TypeError(format!(
                        "SUM over non-numeric value {other}"
                    )))
                }
            },
            AggAcc::Avg { sum, n } => {
                *sum += v.as_f64().ok_or_else(|| {
                    RelationalError::TypeError("AVG over non-numeric value".into())
                })?;
                *n += 1;
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Value> {
        match self {
            AggAcc::Count(n) => Ok(Value::Int(n)),
            AggAcc::Min(v) => v.ok_or_else(|| RelationalError::EmptyAggregate("min".into())),
            AggAcc::Max(v) => v.ok_or_else(|| RelationalError::EmptyAggregate("max".into())),
            AggAcc::Sum {
                int_sum,
                float_sum,
                any_float,
            } => {
                if any_float {
                    Ok(Value::Float(float_sum + int_sum as f64))
                } else {
                    Ok(Value::Int(int_sum))
                }
            }
            AggAcc::Avg { sum, n } => {
                if n == 0 {
                    return Err(RelationalError::EmptyAggregate("avg".into()));
                }
                Ok(Value::Float(sum / n as f64))
            }
        }
    }
}

/// Fused vectorized σ→γ: selection bitmap first, then a single
/// accumulate pass over surviving rows — no intermediate tuples, no
/// dedup hashing (the input is duplicate-free by construction).
struct ColAggregateOp {
    /// `Some` until the single output batch has been produced.
    input: Option<(Arc<ColumnarRelation>, Vec<Expr>)>,
    group_by: Vec<usize>,
    aggs: Vec<Aggregate>,
    counters: Arc<ExecCounters>,
}

impl Operator for ColAggregateOp {
    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let Some((rel, preds)) = self.input.take() else {
            return Ok(None);
        };
        let sel = selected_rows(&rel, &preds);
        let mut groups: HashMap<Vec<Value>, Vec<AggAcc>> = HashMap::new();
        for &r in &sel {
            let r = r as usize;
            let key: Vec<Value> = self.group_by.iter().map(|&c| rel.value_at(r, c)).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| self.aggs.iter().map(|a| AggAcc::new(a.func)).collect());
            for (acc, a) in accs.iter_mut().zip(&self.aggs) {
                acc.update(rel.value_at(r, a.col))?;
            }
        }
        self.counters.pruned(rel.len() - sel.len());
        let mut out: TupleBatch = Vec::with_capacity(groups.len());
        if groups.is_empty() && self.group_by.is_empty() {
            // Global aggregate over the empty input: COUNT is 0, other
            // aggregates are undefined — identical to the row operator.
            let mut row: Vec<Value> = Vec::new();
            for a in &self.aggs {
                match a.func {
                    AggFunc::Count => row.push(Value::Int(0)),
                    other => return Err(RelationalError::EmptyAggregate(other.name().to_string())),
                }
            }
            out.push(Tuple::new(row));
        } else {
            for (key, accs) in groups {
                let mut row = key;
                for acc in accs {
                    row.push(acc.finish()?);
                }
                out.push(Tuple::new(row));
            }
        }
        self.counters.produced(out.len());
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------
// Generator mode
// ---------------------------------------------------------------------

/// An opened plan in generator mode: the paper's "stream \[that\] will
/// produce a tuple on demand" (§5.5). Internally the stream pulls whole
/// batches from the executor and hands out one tuple at a time,
/// deduplicating at the root (set semantics).
///
/// The stream is infallible ([`TupleStream::next_tuple`] returns
/// `Option`); a strict-filter or aggregate error ends the stream early
/// and is stashed in [`RunningPlan::error`]. Plans built through the
/// generator API use errors-as-unknown filters and cannot fail.
pub struct RunningPlan {
    op: Box<dyn Operator>,
    schema: Schema,
    batch: std::vec::IntoIter<Tuple>,
    seen: HashSet<Tuple>,
    produced: usize,
    lifetime: Option<Arc<AtomicUsize>>,
    counters: Arc<ExecCounters>,
    error: Option<RelationalError>,
}

impl RunningPlan {
    pub(crate) fn new(op: Box<dyn Operator>, schema: Schema, counters: Arc<ExecCounters>) -> Self {
        RunningPlan {
            op,
            schema,
            batch: Vec::new().into_iter(),
            seen: HashSet::new(),
            produced: 0,
            lifetime: None,
            counters,
            error: None,
        }
    }

    /// Attach a counter that accumulates produced tuples across runs
    /// (used by [`crate::lazy::Generator`] to count over re-opens).
    pub(crate) fn attach_lifetime_counter(&mut self, counter: Arc<AtomicUsize>) {
        self.lifetime = Some(counter);
    }

    /// How many tuples **this run** has produced so far. A re-opened
    /// plan starts a fresh run; see
    /// [`crate::lazy::Generator::total_produced`] for the counter that
    /// accumulates across opens.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// Executor work counters for this run.
    pub fn stats(&self) -> ExecStats {
        self.counters.snapshot()
    }

    /// The error that ended the stream early, if any. Always `None` for
    /// plans built through the generator API.
    pub fn error(&self) -> Option<&RelationalError> {
        self.error.as_ref()
    }
}

impl TupleStream for RunningPlan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.error.is_some() {
            return None;
        }
        loop {
            if let Some(t) = self.batch.next() {
                if self.seen.insert(t.clone()) {
                    self.produced += 1;
                    if let Some(l) = &self.lifetime {
                        l.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(t);
                }
                continue;
            }
            match self.op.next_batch() {
                Ok(Some(batch)) => self.batch = batch.into_iter(),
                Ok(None) => return None,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
    }
}

impl Iterator for RunningPlan {
    type Item = Tuple;
    fn next(&mut self) -> Option<Tuple> {
        self.next_tuple()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::plan::PhysicalPlan;
    use crate::{tuple, Schema};

    fn nums(n: i64) -> Arc<Relation> {
        let mut r = Relation::new(Schema::of_strs("n", &["x"]));
        for i in 0..n {
            r.insert(tuple![i]).unwrap();
        }
        Arc::new(r)
    }

    #[test]
    fn scans_respect_batch_size() {
        let plan = PhysicalPlan::scan(nums(10));
        let (rel, stats) = plan
            .materialize_with(ExecConfig::with_batch_size(3))
            .unwrap();
        assert_eq!(rel.len(), 10);
        assert_eq!(stats.batches, 4); // 3 + 3 + 3 + 1
        assert_eq!(stats.tuples, 10);
    }

    #[test]
    fn fused_filter_project_counts_pruned_rows() {
        let plan = PhysicalPlan::scan(nums(10))
            .filter(Expr::col_cmp(0, CmpOp::Lt, 4))
            .project(&[0])
            .unwrap();
        let (rel, stats) = plan.materialize_with(ExecConfig::default()).unwrap();
        assert_eq!(rel.len(), 4);
        assert_eq!(stats.rows_pruned, 6);
        // One scan batch + one fused batch: fusion did not add a
        // separate projection pass.
        assert_eq!(stats.batches, 2);
    }

    #[test]
    fn batch_size_one_equals_default() {
        let plan = PhysicalPlan::scan(nums(20))
            .filter(Expr::col_cmp(0, CmpOp::Ge, 5))
            .project(&[0])
            .unwrap();
        let small = plan
            .materialize_with(ExecConfig::with_batch_size(1))
            .unwrap()
            .0;
        let big = plan
            .materialize_with(ExecConfig::with_batch_size(256))
            .unwrap()
            .0;
        assert_eq!(small, big);
    }

    #[test]
    fn limit_stops_pulling_early() {
        let plan = PhysicalPlan::scan(nums(1000)).limit(5);
        let (rel, stats) = plan
            .materialize_with(ExecConfig::with_batch_size(10))
            .unwrap();
        assert_eq!(rel.len(), 5);
        // Only the first scan batch was pulled.
        assert_eq!(stats.tuples, 10);
    }

    #[test]
    fn columnar_filter_is_one_fused_pass() {
        use crate::columnar::ColumnarRelation;
        let rel = nums(100);
        let col = Arc::new(ColumnarRelation::from_relation(&rel));
        let pred = Expr::col_cmp(0, CmpOp::Lt, 10);

        let row_plan = PhysicalPlan::scan(Arc::clone(&rel)).filter(pred.clone());
        let col_plan = PhysicalPlan::scan_columnar(Arc::clone(&col)).filter(pred.clone());
        let (row_rel, row_stats) = row_plan.materialize_with(ExecConfig::default()).unwrap();
        let (col_rel, col_stats) = col_plan.materialize_with(ExecConfig::default()).unwrap();

        assert_eq!(row_rel, col_rel);
        assert_eq!(col_stats.rows_pruned, 90);
        // The vectorized operator emits only its own output batches —
        // no separate scan batches — so it does strictly less batch work.
        assert!(col_stats.batches < row_stats.batches);

        // Strict mode takes the same vectorized path (the predicate is
        // total) and agrees too.
        let strict = PhysicalPlan::scan_columnar(col)
            .filter_strict(pred)
            .materialize()
            .unwrap();
        assert_eq!(strict, col_rel);
    }

    #[test]
    fn columnar_aggregate_fuses_filter_and_skips_dedup() {
        use crate::columnar::ColumnarRelation;
        let rel = nums(50);
        let col = Arc::new(ColumnarRelation::from_relation(&rel));
        let agg = [Aggregate {
            func: AggFunc::Sum,
            col: 0,
        }];
        let pred = Expr::col_cmp(0, CmpOp::Ge, 40);
        let row = PhysicalPlan::scan(rel)
            .filter(pred.clone())
            .aggregate(&[], &agg)
            .unwrap()
            .materialize()
            .unwrap();
        let fused = PhysicalPlan::scan_columnar(col)
            .filter(pred)
            .aggregate(&[], &agg)
            .unwrap()
            .materialize()
            .unwrap();
        assert_eq!(row, fused);
        assert_eq!(
            fused.to_vec(),
            vec![tuple![40 + 41 + 42 + 43 + 44 + 45 + 46 + 47 + 48 + 49]]
        );
    }

    #[test]
    fn columnar_empty_global_count_matches_row_semantics() {
        use crate::columnar::ColumnarRelation;
        let rel = nums(0);
        let col = Arc::new(ColumnarRelation::from_relation(&rel));
        let count = [Aggregate {
            func: AggFunc::Count,
            col: 0,
        }];
        let got = PhysicalPlan::scan_columnar(Arc::clone(&col))
            .aggregate(&[], &count)
            .unwrap()
            .materialize()
            .unwrap();
        assert_eq!(got.to_vec(), vec![tuple![0]]);
        // Non-count aggregates over an empty input error, like row mode.
        let sum = [Aggregate {
            func: AggFunc::Sum,
            col: 0,
        }];
        assert!(PhysicalPlan::scan_columnar(col)
            .aggregate(&[], &sum)
            .unwrap()
            .materialize()
            .is_err());
    }

    #[test]
    fn non_vectorizable_predicate_falls_back_to_row_filter() {
        use crate::columnar::ColumnarRelation;
        let rel = nums(10);
        let col = Arc::new(ColumnarRelation::from_relation(&rel));
        // x + 0 >= 5 involves arithmetic: not vectorizable, so the plan
        // runs ColScanOp + row FilterProjectOp — and still agrees.
        let pred = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Add(
                Box::new(Expr::Col(0)),
                Box::new(Expr::Const(Value::Int(0))),
            )),
            Box::new(Expr::Const(Value::Int(5))),
        );
        let row = PhysicalPlan::scan(rel)
            .filter(pred.clone())
            .materialize()
            .unwrap();
        let colr = PhysicalPlan::scan_columnar(col)
            .filter(pred)
            .materialize()
            .unwrap();
        assert_eq!(row, colr);
        assert_eq!(colr.len(), 5);
    }

    #[test]
    fn running_plan_stashes_strict_errors() {
        let plan = PhysicalPlan::scan(nums(3)).filter_strict(Expr::col_cmp(7, CmpOp::Eq, 1));
        let mut running = plan.open();
        assert!(running.next_tuple().is_none());
        assert!(running.error().is_some());
    }
}
