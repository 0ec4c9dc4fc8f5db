//! Single-column hash indexes over columnar relations.
//!
//! The paper's Query Processor "uses hash indices when available to speed
//! up joins and some selections" (§5.4); the CMS builds them in response to
//! consumer (`?`) binding annotations in advice (§4.2.1). An index is an
//! access path of a [`ColumnarRelation`](crate::ColumnarRelation), built
//! once from one of its columns: a `col = constant` conjunct reads the
//! constant's bucket instead of every row.
//!
//! Keys follow the comparison kernels, so a probe selects exactly what a
//! scan does: a numeric value keys on `(v as f64).to_bits()` — the
//! equality [`CmpOp::eval`](crate::CmpOp::eval) decides with
//! `total_cmp`, under which `Int(1)` equals `Float(1.0)` and NaN equals a
//! NaN of the same bits — and any other value keys on the [`Value`]
//! itself.

use crate::columnar::ColVec;
use crate::value::Value;
use std::collections::HashMap;

/// An index key: the kernels' equality classes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    /// A numeric value, widened to `f64`.
    Num(u64),
    /// A non-numeric value (string, boolean, null).
    Other(Value),
}

impl Key {
    fn of(v: &Value) -> Key {
        match v.as_f64() {
            Some(x) => Key::Num(x.to_bits()),
            None => Key::Other(v.clone()),
        }
    }

    fn approx_size(&self) -> usize {
        match self {
            Key::Num(_) => 8,
            Key::Other(v) => v.approx_size(),
        }
    }
}

/// A multimap from a column value to the positions of the rows holding
/// it, each bucket ascending (scan order).
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<Key, Vec<u32>>,
}

impl HashIndex {
    /// Index every row of `col` (nulls key on [`Value::Null`]).
    pub fn build(col: &ColVec) -> HashIndex {
        let mut map: HashMap<Key, Vec<u32>> = HashMap::new();
        for row in 0..col.len() {
            map.entry(Key::of(&col.value_at(row)))
                .or_default()
                .push(row as u32);
        }
        HashIndex { map }
    }

    /// Positions of the rows whose value equals `v` under the kernels'
    /// comparison, ascending (empty slice when none).
    pub fn get(&self, v: &Value) -> &[u32] {
        self.map.get(&Key::of(v)).map_or(&[], Vec::as_slice)
    }

    /// The same index after the rows moved: the row at old position `p`
    /// now sits at `moved_to[p]`. Buckets stay ascending.
    pub(crate) fn remapped(&self, moved_to: &[u32]) -> HashIndex {
        let map = (self.map.iter())
            .map(|(k, rows)| {
                let mut rows: Vec<u32> = rows.iter().map(|&p| moved_to[p as usize]).collect();
                rows.sort_unstable();
                (k.clone(), rows)
            })
            .collect();
        HashIndex { map }
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_size(&self) -> usize {
        self.map
            .iter()
            .map(|(k, rows)| 48 + k.approx_size() + 4 * rows.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, ColumnarRelation, Relation, Schema};

    #[test]
    fn add_and_get() {
        let rel = Relation::from_tuples(
            Schema::of_strs("t", &["k", "n"]),
            vec![tuple!["a", 1], tuple!["a", 2], tuple!["b", 3]],
        )
        .unwrap();
        let idx = HashIndex::build(ColumnarRelation::from_relation(&rel).col(0));
        assert_eq!(idx.get(&Value::str("a")), &[0, 1]);
        assert_eq!(idx.get(&Value::str("b")), &[2]);
        assert_eq!(idx.get(&Value::str("z")), &[] as &[u32]);
    }
}
