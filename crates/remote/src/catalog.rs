//! The remote database catalog: base relations, schemas, statistics.
//!
//! Each base relation is held twice, both built once at install time: as
//! rows, which is what callers outside the engine read, and as columns
//! ([`ColumnarRelation`]), which is what the engine scans, so a
//! selective query reads its predicate columns rather than every tuple.

use crate::error::{RemoteError, Result};
use braid_relational::{ColumnarRelation, Relation, RelationStats, Schema};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The remote DBMS's database: named base relations plus computed
/// statistics. The schema half of this structure is what the CMS holds "(a
/// copy of)" (§5) and what the IE's shaper reads "cardinality and
/// selectivity information" from (§4.1).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    relations: BTreeMap<String, Arc<Relation>>,
    columns: BTreeMap<String, Arc<ColumnarRelation>>,
    stats: BTreeMap<String, RelationStats>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Install (or replace) a base relation; its statistics and its
    /// column-major form are computed immediately.
    pub fn install(&mut self, rel: Relation) {
        let name = rel.schema().name().to_string();
        self.stats.insert(name.clone(), RelationStats::of(&rel));
        self.columns.insert(
            name.clone(),
            Arc::new(ColumnarRelation::from_relation(&rel)),
        );
        self.relations.insert(name, Arc::new(rel));
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Arc<Relation>> {
        self.relations
            .get(name)
            .ok_or_else(|| RemoteError::UnknownRelation(name.to_string()))
    }

    /// The column-major form of a relation: the same rows in the same
    /// order, as the engine scans them.
    pub fn columns(&self, name: &str) -> Result<&Arc<ColumnarRelation>> {
        self.columns
            .get(name)
            .ok_or_else(|| RemoteError::UnknownRelation(name.to_string()))
    }

    /// The schema of a base relation.
    pub fn schema(&self, name: &str) -> Result<&Schema> {
        Ok(self.relation(name)?.schema())
    }

    /// Statistics of a base relation.
    pub fn stats(&self, name: &str) -> Result<&RelationStats> {
        self.stats
            .get(name)
            .ok_or_else(|| RemoteError::UnknownRelation(name.to_string()))
    }

    /// All relation names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// A snapshot of every schema — the "copy of the remote database
    /// schema" handed to the CMS at connection time.
    pub fn schema_snapshot(&self) -> BTreeMap<String, Schema> {
        self.relations
            .iter()
            .map(|(n, r)| (n.clone(), r.schema().clone()))
            .collect()
    }

    /// A snapshot of all statistics.
    pub fn stats_snapshot(&self) -> BTreeMap<String, RelationStats> {
        self.stats.clone()
    }

    /// Total number of tuples across all base relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_relational::tuple;

    #[test]
    fn install_and_lookup() {
        let mut c = Catalog::new();
        c.install(
            Relation::from_tuples(
                Schema::of_strs("parent", &["p", "c"]),
                vec![tuple!["ann", "bob"]],
            )
            .unwrap(),
        );
        assert_eq!(c.relation("parent").unwrap().len(), 1);
        assert_eq!(c.stats("parent").unwrap().cardinality, 1);
        assert!(matches!(
            c.relation("nope"),
            Err(RemoteError::UnknownRelation(_))
        ));
        assert_eq!(c.names().collect::<Vec<_>>(), vec!["parent"]);
        assert_eq!(c.total_tuples(), 1);
    }

    #[test]
    fn columns_hold_every_relation_in_row_order() {
        let mut c = Catalog::new();
        c.install(
            Relation::from_tuples(
                Schema::of_strs("parent", &["p", "c"]),
                vec![
                    tuple!["cal", "eli"],
                    tuple!["ann", "bob"],
                    tuple!["bob", "dee"],
                ],
            )
            .unwrap(),
        );
        c.install(
            Relation::from_tuples(
                Schema::of_strs("age", &["p", "n"]),
                vec![tuple!["ann", 61], tuple!["bob", 1.5], tuple!["cal", "?"]],
            )
            .unwrap(),
        );
        c.install(Relation::new(Schema::of_strs("b1", &["x", "y"])));
        let names: Vec<String> = c.names().map(str::to_string).collect();
        assert_eq!(names, vec!["age", "b1", "parent"]);
        for name in &names {
            let rows = c.relation(name).unwrap();
            let cols = c.columns(name).unwrap().to_relation().unwrap();
            assert_eq!(cols.schema(), rows.schema());
            assert_eq!(cols.to_vec(), rows.to_vec(), "{name}");
        }
        assert!(matches!(
            c.columns("nope"),
            Err(RemoteError::UnknownRelation(_))
        ));
    }

    #[test]
    fn snapshot_contains_schemas() {
        let mut c = Catalog::new();
        c.install(Relation::new(Schema::of_strs("b1", &["x", "y"])));
        let snap = c.schema_snapshot();
        assert_eq!(snap["b1"].arity(), 2);
    }
}
