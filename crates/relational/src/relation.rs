//! Materialized relations: a schema plus a set of tuples.
//!
//! Relations are *set-like*: duplicate insertion is idempotent. This matches
//! the logic-programming view the inference engine takes of extensional
//! data, and makes cache-element semantics (materialized views) crisp.

use crate::error::{RelationalError, Result};
use crate::index::HashIndex;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;

/// A materialized relation: schema, tuples and any hash indices built over
/// them. This is the paper's relation *extension* (§5.1).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
    seen: HashSet<Tuple>,
    indices: HashMap<Vec<usize>, HashIndex>,
    approx_bytes: usize,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            seen: HashSet::new(),
            indices: HashMap::new(),
            approx_bytes: 0,
        }
    }

    /// Build a relation from tuples, deduplicating.
    ///
    /// # Errors
    /// Returns [`RelationalError::ArityMismatch`] if any tuple's arity
    /// differs from the schema's.
    pub fn from_tuples(schema: Schema, tuples: impl IntoIterator<Item = Tuple>) -> Result<Self> {
        let mut r = Relation::new(schema);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rename the relation (returns a view with shared tuples).
    pub fn renamed(&self, name: &str) -> Relation {
        let mut r = self.clone();
        r.schema = self.schema.renamed(name);
        r
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Approximate heap footprint in bytes, for cache accounting.
    pub fn approx_size(&self) -> usize {
        64 + self.approx_bytes
    }

    /// Insert a tuple. Returns `true` if the tuple was new.
    ///
    /// # Errors
    /// Returns [`RelationalError::ArityMismatch`] on arity mismatch.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                expected: self.schema.arity(),
                got: t.arity(),
            });
        }
        if !self.seen.insert(t.clone()) {
            return Ok(false);
        }
        let row = self.tuples.len();
        self.approx_bytes += t.approx_size();
        for (cols, idx) in self.indices.iter_mut() {
            idx.add(&t, cols, row);
        }
        self.tuples.push(t);
        Ok(true)
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.seen.contains(t)
    }

    /// Iterate over tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Tuple at row id `i`.
    pub fn row(&self, i: usize) -> Option<&Tuple> {
        self.tuples.get(i)
    }

    /// Owned snapshot of all tuples (cheap: tuples are `Arc`-backed).
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.tuples.clone()
    }

    /// Build (or rebuild) a hash index on the given columns and return a
    /// reference to it. Index construction is what the CMS does when advice
    /// marks an attribute as a *consumer* ("a prime candidate for
    /// indexing", §4.2.1).
    ///
    /// # Errors
    /// Returns an error if any index column is out of range.
    pub fn build_index(&mut self, cols: &[usize]) -> Result<&HashIndex> {
        for &c in cols {
            if c >= self.schema.arity() {
                return Err(RelationalError::ColumnIndexOutOfRange {
                    index: c,
                    arity: self.schema.arity(),
                });
            }
        }
        let key: Vec<usize> = cols.to_vec();
        if !self.indices.contains_key(&key) {
            let mut idx = HashIndex::new();
            for (row, t) in self.tuples.iter().enumerate() {
                idx.add(t, cols, row);
            }
            self.indices.insert(key.clone(), idx);
        }
        Ok(&self.indices[&key])
    }

    /// Existing index on exactly these columns, if one has been built.
    pub fn index_on(&self, cols: &[usize]) -> Option<&HashIndex> {
        self.indices.get(cols)
    }

    /// Probe an index: row ids of tuples whose `cols` equal `key`.
    /// Falls back to a scan when no index exists.
    pub fn lookup(&self, cols: &[usize], key: &[crate::Value]) -> Vec<usize> {
        if let Some(idx) = self.indices.get(cols) {
            return idx.get(key).to_vec();
        }
        self.tuples
            .iter()
            .enumerate()
            .filter(|(_, t)| cols.iter().zip(key).all(|(&c, v)| t.get(c) == Some(v)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Deterministically sorted copy of the tuples (for tests and display).
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v = self.tuples.clone();
        v.sort();
        v
    }
}

impl PartialEq for Relation {
    /// Set equality of tuples; schemas must have equal arity but names are
    /// ignored (relations are compared by content).
    fn eq(&self, other: &Self) -> bool {
        self.schema.arity() == other.schema.arity() && self.seen == other.seen
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.sorted_tuples() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::{tuple, Schema};

    fn rel() -> Relation {
        let mut r = Relation::new(Schema::of_strs("parent", &["p", "c"]));
        r.insert(tuple!["ann", "bob"]).unwrap();
        r.insert(tuple!["bob", "cal"]).unwrap();
        r.insert(tuple!["ann", "dee"]).unwrap();
        r
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = rel();
        assert_eq!(r.len(), 3);
        assert!(!r.insert(tuple!["ann", "bob"]).unwrap());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = rel();
        assert!(matches!(
            r.insert(tuple!["x"]),
            Err(RelationalError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut r = rel();
        let scan = r.lookup(&[0], &[Value::str("ann")]);
        r.build_index(&[0]).unwrap();
        let probe = r.lookup(&[0], &[Value::str("ann")]);
        assert_eq!(scan, probe);
        assert_eq!(probe.len(), 2);
    }

    #[test]
    fn index_stays_current_after_insert() {
        let mut r = rel();
        r.build_index(&[0]).unwrap();
        r.insert(tuple!["ann", "eli"]).unwrap();
        assert_eq!(r.lookup(&[0], &[Value::str("ann")]).len(), 3);
    }

    #[test]
    fn index_out_of_range_errors() {
        let mut r = rel();
        assert!(r.build_index(&[7]).is_err());
    }

    #[test]
    fn relation_equality_is_set_equality() {
        let a = rel();
        let mut b = Relation::new(Schema::of_strs("other", &["x", "y"]));
        // Insert in a different order.
        b.insert(tuple!["ann", "dee"]).unwrap();
        b.insert(tuple!["ann", "bob"]).unwrap();
        b.insert(tuple!["bob", "cal"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn approx_size_grows_with_content() {
        let mut r = Relation::new(Schema::of_strs("r", &["x"]));
        let before = r.approx_size();
        r.insert(tuple!["hello world"]).unwrap();
        assert!(r.approx_size() > before);
    }
}
