//! Cache elements: materialized views in one of two forms.
//!
//! "A cache element is a relation defined by a CAQL expression ... The CMS
//! represents a relation as either the full extension of the relation or
//! as a generator which produces a single tuple on demand" (§5, §5.1), and
//! keeps "a generator for sequential production and an indexed extension
//! for random probes" (§5.2). Here every element is materialized once, at
//! insert, in the form its consumers want:
//!
//! - **Columns** — the column-major extension (per-column typed vectors,
//!   dictionary-encoded strings, validity masks). The sequential form:
//!   derivations over it compile to the executor's vectorized kernels.
//! - **Rows** — the row extension with the hash indexes advice asked for.
//!   The point-probe form, kept only where a consumer (`?`) annotation
//!   predicts random probes.
//!
//! The generator is not a stored form: [`CacheElement::as_generator`]
//! opens one over either extension, so lazy answers stream from the same
//! stored data the eager path reads (one stored plan, two modes). An
//! element never changes size after insert, so the cache's byte
//! accounting is fixed at insert too; its rows may be clustered once
//! (see [`ColumnarRelation::clustered_on`]), which permutes them and
//! keeps every byte.

use crate::error::Result;
use braid_relational::{ColumnarRelation, Generator, PhysicalPlan, Relation, RelationStats};
use braid_subsume::ViewDef;
use std::sync::Arc;

/// Identifier of a cache element.
pub type ElemId = u64;

/// The stored form of an element's extension.
#[derive(Debug, Clone)]
pub enum Repr {
    /// Column-major: the sequential form, served by the vectorized
    /// kernels.
    Columns(Arc<ColumnarRelation>),
    /// Rows with advice-requested hash indexes: the point-probe form.
    Rows(Arc<Relation>),
}

impl Repr {
    /// The representation rule, applied once before insert: columns,
    /// unless advice names columns to index for point probes, in which
    /// case rows with those indexes built.
    ///
    /// # Errors
    /// An index column out of the relation's range.
    pub fn choose(rel: &Relation, index_cols: &[usize]) -> Result<Repr> {
        if index_cols.is_empty() {
            let columns = ColumnarRelation::from_relation(rel);
            return Ok(Repr::Columns(Arc::new(columns)));
        }
        let mut rows = rel.clone();
        for &c in index_cols {
            rows.build_index(&[c])?;
        }
        Ok(Repr::Rows(Arc::new(rows)))
    }

    /// `"columnar"` or `"rows"`: the cache model's, EXPLAIN's and the
    /// `cache.insert` event's name for the form.
    pub fn label(&self) -> &'static str {
        match self {
            Repr::Columns(_) => "columnar",
            Repr::Rows(_) => "rows",
        }
    }

    /// A scan of the stored form, whichever it is — the uniform access
    /// path for derivations. Filters and aggregates composed on a
    /// columnar scan compile to the executor's vectorized kernels.
    pub fn scan_plan(&self) -> PhysicalPlan {
        match self {
            Repr::Columns(c) => PhysicalPlan::scan_columnar(Arc::clone(c)),
            Repr::Rows(r) => PhysicalPlan::scan(Arc::clone(r)),
        }
    }

    /// A generator over [`Repr::scan_plan`]: the lazy answers' access
    /// path.
    pub fn as_generator(&self) -> Generator {
        Generator::from_plan(self.scan_plan())
    }

    /// Approximate bytes an element in this form is charged: the
    /// extension (a columnar one reports its dictionary-compressed
    /// footprint) plus definition overhead.
    pub fn approx_bytes(&self) -> usize {
        128 + match self {
            Repr::Columns(c) => c.approx_size(),
            Repr::Rows(r) => r.approx_size(),
        }
    }
}

impl From<Relation> for Repr {
    /// Unindexed rows (tests and callers that bypass the rule).
    fn from(rel: Relation) -> Repr {
        Repr::Rows(Arc::new(rel))
    }
}

/// A cache element: definition, representation, statistics and
/// replacement bookkeeping.
#[derive(Debug, Clone)]
pub struct CacheElement {
    /// Element id (the cache model's `E_id`).
    pub id: ElemId,
    /// Defining view (`E_def`): head terms name the stored columns.
    pub def: ViewDef,
    /// The stored extension, fixed at insert up to one clustering.
    pub repr: Repr,
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
    pub fn new(id: ElemId, def: ViewDef, repr: Repr, now: u64) -> CacheElement {
        CacheElement {
            id,
            def,
            repr,
            last_used: now,
            hits: 0,
            pinned: false,
            pin_count: 0,
            cluster_claimed: false,
        }
    }

    /// The row extension, if that is the stored form.
    pub fn rows(&self) -> Option<&Arc<Relation>> {
        match &self.repr {
            Repr::Rows(r) => Some(r),
            Repr::Columns(_) => None,
        }
    }

    /// Whether this element is held column-major.
    pub fn is_columnar(&self) -> bool {
        matches!(self.repr, Repr::Columns(_))
    }

    /// A generator over this element's stored columns (see
    /// [`Repr::as_generator`]).
    pub fn as_generator(&self) -> Generator {
        self.repr.as_generator()
    }

    /// Whether replacement may choose this element: neither advice nor an
    /// open session holds it.
    pub fn evictable(&self) -> bool {
        !self.pinned && self.pin_count == 0
    }

    /// Approximate bytes held (see [`Repr::approx_bytes`]), fixed at
    /// insert.
    pub fn approx_bytes(&self) -> usize {
        self.repr.approx_bytes()
    }

    /// Statistics of the extension. Both forms report identical logical
    /// statistics (see [`RelationStats::same_logical_stats`]).
    pub fn stats(&self) -> RelationStats {
        match &self.repr {
            Repr::Columns(c) => RelationStats::of_columnar(c),
            Repr::Rows(r) => RelationStats::of(r),
        }
    }

    /// Cardinality of the extension.
    pub fn cardinality(&self) -> usize {
        match &self.repr {
            Repr::Columns(c) => c.len(),
            Repr::Rows(r) => r.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;
    use braid_relational::{tuple, Schema};

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

    #[test]
    fn materialized_element_roundtrip() {
        let e = CacheElement::new(1, def(), rel().into(), 0);
        assert_eq!(e.cardinality(), 2);
        assert!(!e.is_columnar());
        assert_eq!(e.as_generator().materialize().unwrap().len(), 2);
    }

    #[test]
    fn the_rule_picks_columns_unless_advice_asks_for_an_index() {
        let cols = Repr::choose(&rel(), &[]).unwrap();
        assert_eq!(cols.label(), "columnar");
        let rows = Repr::choose(&rel(), &[1, 0]).unwrap();
        let Repr::Rows(r) = &rows else {
            panic!("an index request keeps rows")
        };
        assert!(r.index_on(&[0]).is_some() && r.index_on(&[1]).is_some());
        assert!(Repr::choose(&rel(), &[2]).is_err(), "no column 2");
    }

    #[test]
    fn columnar_element_round_trips_losslessly() {
        let e = CacheElement::new(7, def(), Repr::choose(&rel(), &[]).unwrap(), 0);
        assert!(e.is_columnar());
        assert!(e.rows().is_none());
        assert_eq!(e.cardinality(), 2);
        // The uniform access path serves the same tuples, in order.
        assert_eq!(e.as_generator().materialize().unwrap(), rel());
    }

    #[test]
    fn columnar_element_reports_row_identical_stats() {
        let row = CacheElement::new(8, def(), rel().into(), 0);
        let col = CacheElement::new(9, def(), Repr::choose(&rel(), &[]).unwrap(), 0);
        let rs = row.stats();
        let cs = col.stats();
        assert!(rs.same_logical_stats(&cs), "row {rs:?} vs columnar {cs:?}");
    }
}
