//! Materialized relations: a schema plus a set of tuples.
//!
//! Relations are *set-like*: duplicate insertion is idempotent. This matches
//! the logic-programming view the inference engine takes of extensional
//! data, and makes cache-element semantics (materialized views) crisp.

use crate::error::{RelationalError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::HashSet;
use std::fmt;

/// A materialized relation: schema and tuples. This is the paper's
/// relation *extension* (§5.1) in row-major shape; the cache stores it
/// column-major ([`crate::ColumnarRelation`]).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
    seen: HashSet<Tuple>,
    approx_bytes: usize,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            seen: HashSet::new(),
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

    /// The same relation under another name; the tuples move, untouched.
    pub fn renamed(mut self, name: &str) -> Relation {
        self.schema = self.schema.renamed(name);
        self
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
        self.approx_bytes += t.approx_size();
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
