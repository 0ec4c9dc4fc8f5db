//! Cache elements: materialized views, stored column-major.
//!
//! "A cache element is a relation defined by a CAQL expression ... The CMS
//! represents a relation as either the full extension of the relation or
//! as a generator which produces a single tuple on demand" (§5, §5.1), and
//! keeps "a generator for sequential production and an indexed extension
//! for random probes" (§5.2). Here every element is one extension, a
//! [`ColumnarRelation`] materialized once, at insert, with its access
//! structures attached:
//!
//! - hash indexes on the columns a consumer (`?`) annotation predicts
//!   random probes on, built at insert;
//! - at most one clustering on a range column, applied by the first
//!   range derivation (see [`ColumnarRelation::clustered_on`]).
//!
//! The generator is not a stored form: [`CacheElement::as_generator`]
//! opens one over the extension, so lazy answers stream from the same
//! stored data the eager path reads (one stored plan, two modes). An
//! element never changes size after insert — indexes are charged when
//! built, and clustering permutes rows and keeps every byte — so the
//! cache's byte accounting is fixed at insert too.

use braid_relational::{ColumnarRelation, Generator, PhysicalPlan, RelationStats};
use braid_subsume::ViewDef;
use std::sync::Arc;

/// Identifier of a cache element.
pub type ElemId = u64;

/// A cache element: definition, extension, statistics and replacement
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct CacheElement {
    /// Element id (the cache model's `E_id`).
    pub id: ElemId,
    /// Defining view (`E_def`): head terms name the stored columns.
    pub def: ViewDef,
    /// The stored extension, fixed at insert up to one clustering.
    pub columns: Arc<ColumnarRelation>,
    /// Logical clock of last use (for LRU).
    pub last_used: u64,
    /// How many times the element served a derivation.
    pub hits: u64,
    /// Whether advice pinned this element against replacement.
    pub pinned: bool,
    /// Count of open sessions streaming from this element. A non-zero
    /// count blocks eviction so a concurrent replacement scan cannot
    /// invalidate an open `RunningPlan` mid-stream (snapshot-consistent
    /// reads). Distinct from the advice `pinned` flag: advice pins are
    /// policy, session pins are correctness.
    pub pin_count: u32,
    /// Whether a derivation has claimed this element's one clustering
    /// (see `SharedCache`): set once, never cleared.
    pub(crate) cluster_claimed: bool,
}

impl CacheElement {
    /// Create an element over an extension.
    pub fn new(id: ElemId, def: ViewDef, columns: Arc<ColumnarRelation>, now: u64) -> CacheElement {
        CacheElement {
            id,
            def,
            columns,
            last_used: now,
            hits: 0,
            pinned: false,
            pin_count: 0,
            cluster_claimed: false,
        }
    }

    /// A generator over this element's stored columns: the lazy answers'
    /// access path. Filters composed on it compile to the vectorized
    /// kernels, which read through the element's index or clustering.
    pub fn as_generator(&self) -> Generator {
        Generator::from_plan(PhysicalPlan::scan_columnar(Arc::clone(&self.columns)))
    }

    /// Whether replacement may choose this element: neither advice nor an
    /// open session holds it.
    pub fn evictable(&self) -> bool {
        !self.pinned && self.pin_count == 0
    }

    /// Approximate bytes held, fixed at insert (see
    /// [`CacheElement::charge`]).
    pub fn approx_bytes(&self) -> usize {
        CacheElement::charge(&self.columns)
    }

    /// Approximate bytes an element over `columns` is charged: the
    /// extension's dictionary-compressed footprint and its indexes, plus
    /// definition overhead.
    pub fn charge(columns: &ColumnarRelation) -> usize {
        128 + columns.approx_size()
    }

    /// Statistics of the extension (identical to the row extension's,
    /// see [`RelationStats::same_logical_stats`]).
    pub fn stats(&self) -> RelationStats {
        RelationStats::of_columnar(&self.columns)
    }

    /// Cardinality of the extension.
    pub fn cardinality(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;
    use braid_relational::{tuple, Relation, Schema};

    fn def() -> ViewDef {
        ViewDef::new(parse_rule("e1(X, Y) :- b1(X, Y).").unwrap()).unwrap()
    }

    fn rel() -> Relation {
        Relation::from_tuples(
            Schema::of_strs("e1", &["x", "y"]),
            vec![tuple!["a", "1"], tuple!["b", "2"]],
        )
        .unwrap()
    }

    fn columns(index: &[usize]) -> Arc<ColumnarRelation> {
        let c = ColumnarRelation::from_relation(&rel());
        Arc::new(c.with_indexes(index).unwrap())
    }

    #[test]
    fn materialized_element_roundtrip() {
        let e = CacheElement::new(1, def(), columns(&[]), 0);
        assert_eq!(e.cardinality(), 2);
        assert_eq!(e.as_generator().materialize().unwrap().len(), 2);
    }

    #[test]
    fn advice_indexes_are_charged_in_the_elements_bytes() {
        let plain = CacheElement::new(1, def(), columns(&[]), 0);
        let indexed = CacheElement::new(2, def(), columns(&[1, 0]), 0);
        assert_eq!(indexed.columns.indexed_cols(), vec![0, 1]);
        let index_bytes: usize = (0..2)
            .map(|c| indexed.columns.index_on(c).unwrap().approx_size())
            .sum();
        assert_eq!(indexed.approx_bytes(), plain.approx_bytes() + index_bytes);
    }

    #[test]
    fn columnar_element_round_trips_losslessly() {
        let e = CacheElement::new(7, def(), columns(&[0]), 0);
        assert_eq!(e.cardinality(), 2);
        // The uniform access path serves the same tuples, in order.
        assert_eq!(e.as_generator().materialize().unwrap(), rel());
    }

    #[test]
    fn columnar_element_reports_row_identical_stats() {
        let col = CacheElement::new(9, def(), columns(&[]), 0);
        let rs = RelationStats::of(&rel());
        let cs = col.stats();
        assert!(rs.same_logical_stats(&cs), "row {rs:?} vs columnar {cs:?}");
    }
}
