//! The cache model: meta-information about the cache.
//!
//! "The CMS controls the cache and the cache model (i.e., meta-information
//! about the cache)" (§3). "The cache model contains information on the
//! cache elements. It is a relation of type (E_id, E_def, ....)" (§5.3.2)
//! — and since the IE "can access cache model information from the CMS"
//! (§3), the model is exported as an ordinary relation.

use crate::element::CacheElement;
use braid_relational::{Column, Relation, Schema, Tuple, Value, ValueType};

/// One row of the cache model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRow {
    /// `E_id`.
    pub id: u64,
    /// `E_def` — printed view definition.
    pub def: String,
    /// The columns carrying a hash index, ascending (empty when none).
    pub indexed: Vec<usize>,
    /// The column the rows are clustered on, if any.
    pub sorted_on: Option<usize>,
    /// Cardinality.
    pub cardinality: usize,
    /// Approximate bytes held.
    pub bytes: usize,
    /// Derivation hits served.
    pub hits: u64,
    /// Logical time of last use.
    pub last_used: u64,
    /// Advice-pinned against replacement?
    pub pinned: bool,
}

impl ModelRow {
    /// Summarize an element.
    pub fn of(e: &CacheElement) -> ModelRow {
        ModelRow {
            id: e.id,
            def: e.def.to_string(),
            indexed: e.columns.indexed_cols(),
            sorted_on: e.columns.sorted_on(),
            cardinality: e.cardinality(),
            bytes: e.approx_bytes(),
            hits: e.hits,
            last_used: e.last_used,
            pinned: e.pinned,
        }
    }
}

/// The schema of the exported cache-model relation.
pub fn model_schema() -> Schema {
    Schema::new(
        "cache_model",
        vec![
            Column::new("e_id", ValueType::Int),
            Column::new("e_def", ValueType::Str),
            Column::new("indexed", ValueType::Str),
            Column::new("sorted_on", ValueType::Int),
            Column::new("cardinality", ValueType::Int),
            Column::new("bytes", ValueType::Int),
            Column::new("hits", ValueType::Int),
            Column::new("last_used", ValueType::Int),
            Column::new("pinned", ValueType::Bool),
        ],
    )
    .expect("static schema is valid")
}

/// Columns as the model and the trace print them: `"0,2"`, or `""`.
pub(crate) fn col_list(cols: &[usize]) -> String {
    let cols: Vec<String> = cols.iter().map(ToString::to_string).collect();
    cols.join(",")
}

/// Export rows as a relation the IE can query.
pub fn as_relation<'a>(rows: impl Iterator<Item = &'a ModelRow>) -> Relation {
    let mut rel = Relation::new(model_schema());
    for r in rows {
        let t = Tuple::new(vec![
            Value::Int(r.id as i64),
            Value::str(&r.def),
            Value::str(col_list(&r.indexed)),
            r.sorted_on.map_or(Value::Null, |c| Value::Int(c as i64)),
            Value::Int(r.cardinality as i64),
            Value::Int(r.bytes as i64),
            Value::Int(r.hits as i64),
            Value::Int(r.last_used as i64),
            Value::Bool(r.pinned),
        ]);
        rel.insert(t).expect("model schema arity matches");
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;
    use braid_relational::ColumnarRelation;
    use braid_subsume::ViewDef;
    use std::sync::Arc;

    #[test]
    fn model_row_and_relation_export() {
        let def = ViewDef::new(parse_rule("e(X, Y) :- b(X, Y).").unwrap()).unwrap();
        let rel = Relation::from_tuples(
            Schema::of_strs("e", &["x", "y"]),
            vec![braid_relational::tuple!["a", "b"]],
        )
        .unwrap();
        let columns = ColumnarRelation::from_relation(&rel).with_indexes(&[1, 0]);
        let e = CacheElement::new(7, def, Arc::new(columns.unwrap()), 3);
        let row = ModelRow::of(&e);
        assert_eq!(row.id, 7);
        assert_eq!((row.indexed.as_slice(), row.sorted_on), (&[0, 1][..], None));
        assert_eq!(row.cardinality, 1);
        let exported = as_relation([row].iter());
        assert_eq!(exported.len(), 1);
        assert_eq!(exported.schema().arity(), 9);
        let t = &exported.to_vec()[0];
        assert_eq!(t.values()[2..4], [Value::str("0,1"), Value::Null]);
    }
}
