//! Column-major relation representation — the cache's sequential
//! extension format, beside the indexed row extension.
//!
//! The paper's CMS "frequently maintains co-existing, alternative
//! representations of the same relation" (§5.2). A [`ColumnarRelation`]
//! is an alternative *extension* format: per-column typed vectors
//! (`i64` / `f64` / `bool`), dictionary-encoded strings, and a validity
//! mask for nulls, with a [`ColData::Mixed`] fallback for heterogeneous
//! columns. Conversion from and back to a row [`Relation`] is lossless
//! (`Relation → ColumnarRelation → Relation` is the identity, including
//! row order); the CMS chooses an element's form once, at insert.
//!
//! A columnar relation may be *clustered*
//! ([`ColumnarRelation::clustered_on`]): the same rows, stored sorted on
//! one numeric column, so a range selection on that column reads only
//! the slice a binary search finds
//! ([`ColumnarRelation::clustered_range`]). Clustering permutes rows and
//! nothing else, so the byte footprint is unchanged.
//!
//! Invariant: a `ColumnarRelation` is only ever built from a [`Relation`]
//! (a set), so its rows are duplicate-free — the vectorized aggregate
//! kernel in [`crate::exec`] relies on this to skip the row operator's
//! dedup pass.

use crate::error::Result;
use crate::expr::{CmpOp, Expr};
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
}

impl ColumnarRelation {
    /// Convert a row relation into columnar form. Row order is
    /// preserved; indices and the dedup set are not carried over (the
    /// columnar form has no point-probe structures — that is the row
    /// representation's job).
    pub fn from_relation(rel: &Relation) -> ColumnarRelation {
        let arity = rel.schema().arity();
        let cols = (0..arity).map(|c| build_col(rel, c)).collect();
        ColumnarRelation {
            schema: rel.schema().clone(),
            len: rel.len(),
            cols,
            sorted_on: None,
        }
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

    /// Approximate bytes held (dictionary encoding typically makes this
    /// smaller than the row extension for repetitive string columns).
    pub fn approx_size(&self) -> usize {
        64 + self.cols.iter().map(ColVec::approx_size).sum::<usize>()
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
    /// clusterable ([`ColumnarRelation::is_clusterable`]).
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
        Some(ColumnarRelation {
            schema: self.schema.clone(),
            len: self.len,
            cols: self.cols.iter().map(|col| col.gather(&perm)).collect(),
            sorted_on: Some(c),
        })
    }

    /// The rows a conjunction of `preds` can select in a clustered
    /// relation: every AND-ed `col op numeric-constant` conjunct on the
    /// sort column (`<`, `<=`, `>`, `>=`, `=`, either operand order,
    /// nested `And`s included) narrows the range by binary search; `!=`,
    /// `Or`, `Not` and non-numeric constants do not. `None` when the
    /// relation is unclustered or no conjunct narrows. Rows outside the
    /// range fail some conjunct; rows inside still need every predicate.
    pub fn clustered_range(&self, preds: &[Expr]) -> Option<Range<usize>> {
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
            sort_column_conjuncts(p, c, &mut narrow);
        }
        bounds
    }
}

/// Call `f(op, y)` for every AND-ed conjunct of `e` reading
/// `col c op y` with a numeric constant `y` (the `const op col` form is
/// flipped).
fn sort_column_conjuncts(e: &Expr, c: usize, f: &mut impl FnMut(CmpOp, f64)) {
    match e {
        Expr::And(es) => {
            for e in es {
                sort_column_conjuncts(e, c, f);
            }
        }
        Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(i), Expr::Const(v)) if *i == c => {
                if let Some(y) = v.as_f64() {
                    f(*op, y);
                }
            }
            (Expr::Const(v), Expr::Col(i)) if *i == c => {
                if let Some(y) = v.as_f64() {
                    f(op.flipped(), y);
                }
            }
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
