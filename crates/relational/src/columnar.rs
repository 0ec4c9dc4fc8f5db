//! Column-major relation representation — the cache's one stored form.
//!
//! The paper's CMS "frequently maintains co-existing, alternative
//! representations of the same relation" (§5.2): a generator for
//! sequential production and an indexed extension for random probes. A
//! [`ColumnarRelation`] is that extension: per-column typed vectors
//! (`i64` / `f64` / `bool`), dictionary-encoded strings, and a validity
//! mask for nulls, with a [`ColData::Mixed`] fallback for heterogeneous
//! columns. Conversion from and back to a row [`Relation`] is lossless
//! (`Relation → ColumnarRelation → Relation` is the identity, including
//! row order).
//!
//! Two optional access structures ride on the columns, and the columnar
//! kernels read through both ([`ColumnarRelation::candidate_rows`]):
//!
//! - single-column [hash indexes](HashIndex)
//!   ([`ColumnarRelation::with_indexes`]): a `col = constant` conjunct on
//!   an indexed column reads the constant's bucket;
//! - a *clustering* ([`ColumnarRelation::clustered_on`]): the same rows,
//!   stored sorted on one numeric column, so a range conjunct on that
//!   column reads only the slice a binary search finds.
//!
//! Indexes are built once, when the relation is built, and clustering
//! permutes rows (and the index positions with them) and nothing else,
//! so a relation's byte footprint never changes after it is built.
//!
//! Invariant: a `ColumnarRelation` is only ever built from a [`Relation`]
//! (a set), so its rows are duplicate-free — the vectorized aggregate
//! kernel in [`crate::exec`] relies on this to skip the row operator's
//! dedup pass.

use crate::error::{RelationalError, Result};
use crate::expr::{CmpOp, Expr};
use crate::index::HashIndex;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The typed storage behind one column.
#[derive(Debug, Clone)]
pub(crate) enum ColData {
    /// All non-null values are integers.
    Ints(Vec<i64>),
    /// All non-null values are floats.
    Floats(Vec<f64>),
    /// All non-null values are booleans.
    Bools(Vec<bool>),
    /// All non-null values are strings, dictionary-encoded: `codes[i]`
    /// indexes `dict` (first-occurrence order). Null slots hold code 0
    /// as a placeholder and are masked by the validity vector.
    Strs {
        dict: Vec<Arc<str>>,
        codes: Vec<u32>,
    },
    /// Heterogeneous (or all-null) column: values stored verbatim,
    /// nulls included.
    Mixed(Vec<Value>),
}

impl ColData {
    fn len(&self) -> usize {
        match self {
            ColData::Ints(v) => v.len(),
            ColData::Floats(v) => v.len(),
            ColData::Bools(v) => v.len(),
            ColData::Strs { codes, .. } => codes.len(),
            ColData::Mixed(v) => v.len(),
        }
    }
}

/// One column: typed data plus an optional validity mask.
#[derive(Debug, Clone)]
pub struct ColVec {
    pub(crate) data: ColData,
    /// `Some(mask)` when the column contains nulls: `mask[i] == false`
    /// marks row `i` as null (the typed slot holds a placeholder).
    /// `None` means every slot is valid.
    pub(crate) validity: Option<Vec<bool>>,
}

impl ColVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `row` holds a null.
    pub fn is_null(&self, row: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v[row])
    }

    /// The value at `row`, honoring the validity mask.
    pub fn value_at(&self, row: usize) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        self.raw_value_at(row)
    }

    /// The typed slot at `row`, ignoring the validity mask (null slots
    /// yield their placeholder). The vectorized kernels compute over raw
    /// slots and patch null rows afterwards.
    pub(crate) fn raw_value_at(&self, row: usize) -> Value {
        match &self.data {
            ColData::Ints(v) => Value::Int(v[row]),
            ColData::Floats(v) => Value::Float(v[row]),
            ColData::Bools(v) => Value::Bool(v[row]),
            ColData::Strs { dict, codes } => Value::Str(Arc::clone(&dict[codes[row] as usize])),
            ColData::Mixed(v) => v[row].clone(),
        }
    }

    /// Approximate bytes held by this column.
    pub fn approx_size(&self) -> usize {
        let data = match &self.data {
            ColData::Ints(v) => 8 * v.len(),
            ColData::Floats(v) => 8 * v.len(),
            ColData::Bools(v) => v.len(),
            ColData::Strs { dict, codes } => {
                dict.iter().map(|s| 16 + s.len()).sum::<usize>() + 4 * codes.len()
            }
            ColData::Mixed(v) => v.iter().map(Value::approx_size).sum(),
        };
        data + self.validity.as_ref().map_or(0, Vec::len)
    }

    /// Number of dictionary entries (string columns only) — exposed for
    /// tests and stats.
    pub fn dict_len(&self) -> Option<usize> {
        match &self.data {
            ColData::Strs { dict, .. } => Some(dict.len()),
            _ => None,
        }
    }

    /// The column's rows in `perm` order. Dictionaries and validity
    /// masks travel with their rows; a dictionary keeps its entries.
    fn gather(&self, perm: &[u32]) -> ColVec {
        fn pick<T: Clone>(v: &[T], perm: &[u32]) -> Vec<T> {
            perm.iter().map(|&i| v[i as usize].clone()).collect()
        }
        let data = match &self.data {
            ColData::Ints(v) => ColData::Ints(pick(v, perm)),
            ColData::Floats(v) => ColData::Floats(pick(v, perm)),
            ColData::Bools(v) => ColData::Bools(pick(v, perm)),
            ColData::Strs { dict, codes } => ColData::Strs {
                dict: dict.clone(),
                codes: pick(codes, perm),
            },
            ColData::Mixed(v) => ColData::Mixed(pick(v, perm)),
        };
        ColVec {
            data,
            validity: self.validity.as_deref().map(|m| pick(m, perm)),
        }
    }
}

/// A relation stored column-major. See the module docs for the format
/// and the set-ness invariant.
#[derive(Debug, Clone)]
pub struct ColumnarRelation {
    schema: Schema,
    len: usize,
    cols: Vec<ColVec>,
    /// The column the rows are sorted on, if clustered.
    sorted_on: Option<usize>,
    /// Single-column hash indexes, by ascending column.
    indexes: Vec<(usize, HashIndex)>,
}

/// The rows a conjunction of predicates can select, and the access path
/// that finds them ([`ColumnarRelation::candidate_rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Candidates<'a> {
    /// The bucket of a `col = constant` conjunct on an indexed column:
    /// row positions, ascending.
    Probe {
        /// The indexed column.
        col: usize,
        /// The bucket.
        rows: &'a [u32],
    },
    /// The slice of a clustered relation its sort-column conjuncts leave.
    Range {
        /// The sort column.
        col: usize,
        /// The slice.
        rows: Range<usize>,
    },
    /// Every row.
    Scan,
}

impl ColumnarRelation {
    /// Convert a row relation into columnar form, unindexed and
    /// unclustered. Row order is preserved; the dedup set is not carried
    /// over.
    pub fn from_relation(rel: &Relation) -> ColumnarRelation {
        let arity = rel.schema().arity();
        let cols = (0..arity).map(|c| build_col(rel, c)).collect();
        ColumnarRelation {
            schema: rel.schema().clone(),
            len: rel.len(),
            cols,
            sorted_on: None,
            indexes: Vec::new(),
        }
    }

    /// The same relation with a hash index on each column in `cols` (a
    /// column named twice, or already indexed, is indexed once). The
    /// indexes count in [`ColumnarRelation::approx_size`].
    ///
    /// # Errors
    /// A column out of range.
    pub fn with_indexes(mut self, cols: &[usize]) -> Result<ColumnarRelation> {
        for &c in cols {
            if c >= self.arity() {
                return Err(RelationalError::ColumnIndexOutOfRange {
                    index: c,
                    arity: self.arity(),
                });
            }
            if self.index_on(c).is_none() {
                let idx = HashIndex::build(&self.cols[c]);
                self.indexes.push((c, idx));
            }
        }
        self.indexes.sort_unstable_by_key(|(c, _)| *c);
        Ok(self)
    }

    /// The hash index on column `c`, if one was built.
    pub fn index_on(&self, c: usize) -> Option<&HashIndex> {
        self.indexes
            .iter()
            .find(|(i, _)| *i == c)
            .map(|(_, idx)| idx)
    }

    /// The indexed columns, ascending.
    pub fn indexed_cols(&self) -> Vec<usize> {
        self.indexes.iter().map(|(c, _)| *c).collect()
    }

    /// Convert back to a row relation — the lossless inverse of
    /// [`ColumnarRelation::from_relation`], preserving row order.
    ///
    /// # Errors
    /// Propagates relation-construction errors (arity always matches,
    /// so this cannot fail in practice).
    pub fn to_relation(&self) -> Result<Relation> {
        let mut rel = Relation::new(self.schema.clone());
        for i in 0..self.len {
            rel.insert(self.tuple_at(i))?;
        }
        Ok(rel)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The column at index `c`.
    pub fn col(&self, c: usize) -> &ColVec {
        &self.cols[c]
    }

    /// The value at (`row`, `col`).
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.cols[col].value_at(row)
    }

    /// Materialize row `row` as a tuple.
    pub fn tuple_at(&self, row: usize) -> Tuple {
        Tuple::new(self.cols.iter().map(|c| c.value_at(row)).collect())
    }

    /// Approximate bytes held, indexes included (dictionary encoding
    /// typically makes this smaller than the row extension for
    /// repetitive string columns).
    pub fn approx_size(&self) -> usize {
        let indexes: usize = self.indexes.iter().map(|(_, i)| i.approx_size()).sum();
        64 + indexes + self.cols.iter().map(ColVec::approx_size).sum::<usize>()
    }

    /// The column the rows are sorted on, if the relation is clustered.
    pub fn sorted_on(&self) -> Option<usize> {
        self.sorted_on
    }

    /// Whether [`ColumnarRelation::clustered_on`] accepts column `c`: an
    /// integer or float column without nulls.
    pub fn is_clusterable(&self, c: usize) -> bool {
        self.cols.get(c).is_some_and(|col| {
            col.validity.is_none() && matches!(col.data, ColData::Ints(_) | ColData::Floats(_))
        })
    }

    /// The same rows, stably sorted on column `c` under the order the
    /// comparison kernels use (`(x as f64).total_cmp`), so a binary
    /// search means exactly what a comparison predicate means — NaN,
    /// ±0.0 and integers beyond 2^53 included. `None` when `c` is not
    /// clusterable ([`ColumnarRelation::is_clusterable`]). Indexes move
    /// with their rows, buckets kept ascending, so the byte footprint is
    /// unchanged and a probe still yields rows in scan order.
    pub fn clustered_on(&self, c: usize) -> Option<ColumnarRelation> {
        if !self.is_clusterable(c) {
            return None;
        }
        let mut keyed: Vec<(f64, u32)> = match &self.cols[c].data {
            ColData::Ints(xs) => (0u32..).zip(xs).map(|(i, &x)| (x as f64, i)).collect(),
            ColData::Floats(xs) => (0u32..).zip(xs).map(|(i, &x)| (x, i)).collect(),
            _ => unreachable!("guarded by is_clusterable"),
        };
        // The row id breaks ties, which makes the unstable sort stable.
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let perm: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
        let mut moved_to = vec![0u32; self.len];
        for (new, &old) in (0u32..).zip(&perm) {
            moved_to[old as usize] = new;
        }
        Some(ColumnarRelation {
            schema: self.schema.clone(),
            len: self.len,
            cols: self.cols.iter().map(|col| col.gather(&perm)).collect(),
            sorted_on: Some(c),
            indexes: (self.indexes.iter())
                .map(|(i, idx)| (*i, idx.remapped(&moved_to)))
                .collect(),
        })
    }

    /// The rows a conjunction of `preds` can select — the access path
    /// the columnar kernels read and EXPLAIN reports. Rows outside the
    /// candidates fail some conjunct; rows inside still need every
    /// predicate. In order:
    ///
    /// - the bucket of the first AND-ed `col = constant` conjunct (either
    ///   operand order, nested `And`s included) on an indexed column;
    /// - in a clustered relation, the slice every AND-ed
    ///   `col op numeric-constant` conjunct on the sort column (`<`,
    ///   `<=`, `>`, `>=`, `=`) leaves after a binary search each;
    /// - every row. `!=`, `Or`, `Not` and (for the slice) non-numeric
    ///   constants never narrow.
    pub fn candidate_rows(&self, preds: &[Expr]) -> Candidates<'_> {
        if !self.indexes.is_empty() {
            let mut probe = None;
            for p in preds {
                col_const_conjuncts(p, &mut |c, op, v| {
                    if probe.is_none() && op == CmpOp::Eq {
                        probe = self.index_on(c).map(|idx| (c, idx.get(v)));
                    }
                });
            }
            if let Some((col, rows)) = probe {
                return Candidates::Probe { col, rows };
            }
        }
        match (self.sorted_on, self.clustered_range(preds)) {
            (Some(col), Some(rows)) => Candidates::Range { col, rows },
            _ => Candidates::Scan,
        }
    }

    /// The slice of a clustered relation the sort-column conjuncts of
    /// `preds` leave; `None` when unclustered or no conjunct narrows.
    fn clustered_range(&self, preds: &[Expr]) -> Option<Range<usize>> {
        let c = self.sorted_on?;
        let mut bounds: Option<Range<usize>> = None;
        let mut narrow = |op: CmpOp, y: f64| {
            // First row not below `y`, and first row above it.
            let (lo, hi) = match &self.cols[c].data {
                ColData::Ints(xs) => (
                    xs.partition_point(|&x| (x as f64).total_cmp(&y) == Ordering::Less),
                    xs.partition_point(|&x| (x as f64).total_cmp(&y) != Ordering::Greater),
                ),
                ColData::Floats(xs) => (
                    xs.partition_point(|x| x.total_cmp(&y) == Ordering::Less),
                    xs.partition_point(|x| x.total_cmp(&y) != Ordering::Greater),
                ),
                _ => unreachable!("only clusterable columns are sorted on"),
            };
            let (from, to) = match op {
                CmpOp::Lt => (0, lo),
                CmpOp::Le => (0, hi),
                CmpOp::Gt => (hi, self.len),
                CmpOp::Ge => (lo, self.len),
                CmpOp::Eq => (lo, hi),
                CmpOp::Ne => return,
            };
            let r = bounds.get_or_insert(0..self.len);
            let start = r.start.max(from);
            *r = start..r.end.min(to).max(start);
        };
        for p in preds {
            col_const_conjuncts(p, &mut |col, op, v| {
                if let Some(y) = v.as_f64().filter(|_| col == c) {
                    narrow(op, y);
                }
            });
        }
        bounds
    }
}

/// Call `f(col, op, v)` for every AND-ed conjunct of `e` reading
/// `col op v` with a constant `v` (the `const op col` form is flipped).
fn col_const_conjuncts(e: &Expr, f: &mut impl FnMut(usize, CmpOp, &Value)) {
    match e {
        Expr::And(es) => {
            for e in es {
                col_const_conjuncts(e, f);
            }
        }
        Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(i), Expr::Const(v)) => f(*i, *op, v),
            (Expr::Const(v), Expr::Col(i)) => f(*i, op.flipped(), v),
            _ => {}
        },
        _ => {}
    }
}

/// Build one column: pick the tightest representation that holds every
/// non-null value, falling back to [`ColData::Mixed`] for heterogeneous
/// or all-null columns.
fn build_col(rel: &Relation, c: usize) -> ColVec {
    let mut has_null = false;
    let mut ty: Option<ValueType> = None;
    let mut mixed = false;
    for t in rel.iter() {
        match &t.values()[c] {
            Value::Null => has_null = true,
            v => {
                let vt = v.value_type();
                match ty {
                    None => ty = Some(vt),
                    Some(t0) if t0 == vt => {}
                    Some(_) => {
                        mixed = true;
                        break;
                    }
                }
            }
        }
    }
    let Some(ty) = ty.filter(|_| !mixed) else {
        return ColVec {
            data: ColData::Mixed(rel.iter().map(|t| t.values()[c].clone()).collect()),
            validity: None,
        };
    };
    let validity = has_null.then(|| {
        rel.iter()
            .map(|t| !matches!(t.values()[c], Value::Null))
            .collect()
    });
    let data = match ty {
        ValueType::Int => ColData::Ints(
            rel.iter()
                .map(|t| t.values()[c].as_int().unwrap_or(0))
                .collect(),
        ),
        ValueType::Float => ColData::Floats(
            rel.iter()
                .map(|t| match &t.values()[c] {
                    Value::Float(f) => *f,
                    _ => 0.0,
                })
                .collect(),
        ),
        ValueType::Bool => ColData::Bools(
            rel.iter()
                .map(|t| t.values()[c].as_bool().unwrap_or(false))
                .collect(),
        ),
        ValueType::Str => {
            let mut dict: Vec<Arc<str>> = Vec::new();
            let mut codes: Vec<u32> = Vec::with_capacity(rel.len());
            let mut interned: HashMap<Arc<str>, u32> = HashMap::new();
            for t in rel.iter() {
                match &t.values()[c] {
                    Value::Str(s) => {
                        let code = *interned.entry(Arc::clone(s)).or_insert_with(|| {
                            dict.push(Arc::clone(s));
                            (dict.len() - 1) as u32
                        });
                        codes.push(code);
                    }
                    _ => codes.push(0),
                }
            }
            ColData::Strs { dict, codes }
        }
        ValueType::Null => unreachable!("all-null columns take the Mixed arm"),
    };
    ColVec { data, validity }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Schema};

    fn roundtrip(rel: &Relation) -> Relation {
        ColumnarRelation::from_relation(rel).to_relation().unwrap()
    }

    fn typed_rel() -> Relation {
        Relation::from_tuples(
            Schema::of_strs("t", &["i", "s", "f", "b"]),
            vec![
                tuple![1, "alpha", 1.5, true],
                tuple![2, "beta", -0.5, false],
                tuple![3, "alpha", 2.25, true],
            ],
        )
        .unwrap()
    }

    #[test]
    fn typed_columns_round_trip_in_order() {
        let rel = typed_rel();
        let col = ColumnarRelation::from_relation(&rel);
        assert_eq!(col.len(), 3);
        assert_eq!(col.arity(), 4);
        let back = col.to_relation().unwrap();
        assert_eq!(back, rel);
        // Row order is preserved, not just the set.
        assert_eq!(back.to_vec(), rel.to_vec());
    }

    #[test]
    fn strings_are_dictionary_encoded() {
        let mut rel = Relation::new(Schema::of_strs("s", &["k", "i"]));
        for i in 0..100i64 {
            rel.insert(tuple![format!("k{}", i % 4), i]).unwrap();
        }
        let col = ColumnarRelation::from_relation(&rel);
        // 100 rows share 4 distinct strings: the dictionary holds exactly
        // those, every row is a code.
        assert_eq!(col.len(), 100);
        assert_eq!(col.col(0).dict_len(), Some(4));
        assert_eq!(col.to_relation().unwrap(), rel);
    }

    #[test]
    fn dictionary_handles_empty_strings_and_many_codes() {
        let mut rel = Relation::new(Schema::of_strs("s", &["k", "v"]));
        rel.insert(tuple!["", 0]).unwrap();
        for i in 0..300i64 {
            rel.insert(tuple![format!("v{i}"), i]).unwrap();
        }
        let col = ColumnarRelation::from_relation(&rel);
        // > 255 distinct values: codes are u32, not u8.
        assert_eq!(col.col(0).dict_len(), Some(301));
        assert_eq!(col.value_at(0, 0), Value::str(""));
        assert_eq!(col.to_relation().unwrap(), rel);
    }

    #[test]
    fn nulls_round_trip_through_validity_masks() {
        let rel = Relation::from_tuples(
            Schema::of_strs("n", &["i", "s"]),
            vec![
                tuple![1, "a"],
                Tuple::new(vec![Value::Null, Value::str("b")]),
                Tuple::new(vec![Value::Int(3), Value::Null]),
                Tuple::new(vec![Value::Null, Value::Null]),
            ],
        )
        .unwrap();
        let col = ColumnarRelation::from_relation(&rel);
        assert!(col.col(0).is_null(1));
        assert_eq!(col.value_at(1, 0), Value::Null);
        assert_eq!(col.value_at(2, 0), Value::Int(3));
        assert_eq!(roundtrip(&rel), rel);
    }

    #[test]
    fn heterogeneous_and_all_null_columns_fall_back_to_mixed() {
        let rel = Relation::from_tuples(
            Schema::of_strs("m", &["x", "z"]),
            vec![
                Tuple::new(vec![Value::Int(1), Value::Null]),
                Tuple::new(vec![Value::str("two"), Value::Null]),
                Tuple::new(vec![Value::Float(3.0), Value::Null]),
            ],
        )
        .unwrap();
        let col = ColumnarRelation::from_relation(&rel);
        assert!(matches!(col.col(0).data, ColData::Mixed(_)));
        assert!(matches!(col.col(1).data, ColData::Mixed(_)));
        assert_eq!(roundtrip(&rel), rel);
    }

    #[test]
    fn empty_relation_round_trips() {
        let rel = Relation::new(Schema::of_strs("e", &["a", "b"]));
        let col = ColumnarRelation::from_relation(&rel);
        assert!(col.is_empty());
        assert_eq!(roundtrip(&rel), rel);
    }

    #[test]
    fn index_probe_matches_scan() {
        let rel = Relation::from_tuples(
            Schema::of_strs("parent", &["p", "c"]),
            vec![
                tuple!["ann", "bob"],
                tuple!["bob", "cal"],
                tuple!["ann", "dee"],
            ],
        )
        .unwrap();
        let plain = ColumnarRelation::from_relation(&rel);
        let indexed = plain.clone().with_indexes(&[0, 0]).unwrap();
        assert_eq!(indexed.indexed_cols(), vec![0]);
        assert!(indexed.approx_size() > plain.approx_size(), "charged");
        let ann = [Expr::col_cmp(0, CmpOp::Eq, "ann")];
        assert_eq!(plain.candidate_rows(&ann), Candidates::Scan);
        assert_eq!(
            indexed.candidate_rows(&ann),
            Candidates::Probe {
                col: 0,
                rows: &[0, 2]
            }
        );
        // Not an equality, or not on the indexed column: no probe.
        for p in [
            Expr::col_cmp(0, CmpOp::Ne, "ann"),
            Expr::col_cmp(1, CmpOp::Eq, "bob"),
            Expr::Or(vec![Expr::col_cmp(0, CmpOp::Eq, "ann")]),
        ] {
            assert_eq!(indexed.candidate_rows(&[p]), Candidates::Scan);
        }
    }

    #[test]
    fn index_out_of_range_errors() {
        let col = ColumnarRelation::from_relation(&typed_rel());
        assert!(col.with_indexes(&[7]).is_err());
    }

    #[test]
    fn dictionary_encoding_shrinks_repetitive_string_columns() {
        let mut rel = Relation::new(Schema::of_strs("s", &["k", "i"]));
        for i in 0..1000i64 {
            rel.insert(tuple![format!("warehouse-{}", i % 3), i])
                .unwrap();
        }
        let col = ColumnarRelation::from_relation(&rel);
        assert!(
            col.approx_size() < rel.approx_size() / 2,
            "columnar {} should be well under row {}",
            col.approx_size(),
            rel.approx_size()
        );
    }
}
