//! Cache elements: materialized views and generators.
//!
//! "A cache element is a relation defined by a CAQL expression ... The CMS
//! represents a relation as either the full extension of the relation or
//! as a generator which produces a single tuple on demand" (§5, §5.1), and
//! "frequently maintains co-existing, alternative representations of the
//! same relation" (§5.2) — here an element may hold a generator *and* a
//! materialized extension at once, with indices on the extension.
//!
//! Since the executor unification, both representations are two execution
//! modes over **one stored physical plan**: the generator holds the
//! [`braid_relational::PhysicalPlan`] and opens it incrementally
//! ([`Generator::open`]), while [`CacheElement::ensure_extension`] runs
//! the *same* plan through the same batched executor in eager mode
//! ([`Generator::materialize`]). There is no separate lazy evaluator to
//! drift out of sync with the eager one.

use crate::error::{CmsError, Result};
use braid_relational::sort::{SortKey, SortedView};
use braid_relational::{ColumnarRelation, Generator, Relation, RelationStats, Schema, Tuple};
use braid_subsume::ViewDef;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a cache element.
pub type ElemId = u64;

/// The representation(s) an element currently holds.
#[derive(Debug, Clone)]
pub enum Repr {
    /// Only a materialized extension.
    Extension(Arc<Relation>),
    /// Only a generator (lazy form).
    Generator(Generator),
    /// Both — the paper's co-existing alternative representations: the
    /// generator serves sequential producers, the (possibly indexed)
    /// extension serves random probes.
    Both {
        /// The lazy form.
        generator: Generator,
        /// The materialized form.
        extension: Arc<Relation>,
    },
    /// A column-major extension — the third representation: per-column
    /// typed vectors with dictionary-encoded strings and validity masks.
    /// Sequential scans and aggregates over it compile to the executor's
    /// vectorized kernels; point probes convert back to indexed rows
    /// first ([`CacheElement::ensure_extension`] is lossless both ways).
    Columnar(Arc<ColumnarRelation>),
}

/// A cache element: definition, representation(s), statistics and
/// replacement bookkeeping.
#[derive(Debug, Clone)]
pub struct CacheElement {
    /// Element id (the cache model's `E_id`).
    pub id: ElemId,
    /// Defining view (`E_def`): head terms name the stored columns.
    pub def: ViewDef,
    /// Current representation(s).
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
    /// Alternative *sorted* representations over the extension, keyed by
    /// the ascending/descending column spec — "consider, for example, the
    /// case where alternative sortings are required" (§5.2). Views are
    /// built lazily and share the extension's tuples.
    sorted: BTreeMap<Vec<(usize, bool)>, SortedView>,
}

impl CacheElement {
    /// Create an element over a materialized extension.
    pub fn materialized(id: ElemId, def: ViewDef, rel: Relation, now: u64) -> CacheElement {
        CacheElement {
            id,
            def,
            repr: Repr::Extension(Arc::new(rel)),
            last_used: now,
            hits: 0,
            pinned: false,
            pin_count: 0,
            sorted: BTreeMap::new(),
        }
    }

    /// Create an element in generator (lazy) form.
    pub fn lazy(id: ElemId, def: ViewDef, generator: Generator, now: u64) -> CacheElement {
        CacheElement {
            id,
            def,
            repr: Repr::Generator(generator),
            last_used: now,
            hits: 0,
            pinned: false,
            pin_count: 0,
            sorted: BTreeMap::new(),
        }
    }

    /// The stored-column schema (named `e<id>` with positional columns).
    pub fn schema(&self) -> Schema {
        match &self.repr {
            Repr::Extension(r) | Repr::Both { extension: r, .. } => r.schema().clone(),
            Repr::Generator(g) => g.schema().clone(),
            Repr::Columnar(c) => c.schema().clone(),
        }
    }

    /// The materialized extension, if present.
    pub fn extension(&self) -> Option<&Arc<Relation>> {
        match &self.repr {
            Repr::Extension(r) | Repr::Both { extension: r, .. } => Some(r),
            Repr::Generator(_) | Repr::Columnar(_) => None,
        }
    }

    /// The generator form, if present.
    pub fn generator(&self) -> Option<&Generator> {
        match &self.repr {
            Repr::Generator(g) | Repr::Both { generator: g, .. } => Some(g),
            Repr::Extension(_) | Repr::Columnar(_) => None,
        }
    }

    /// The column-major extension, if that is the current representation.
    pub fn columnar(&self) -> Option<&Arc<ColumnarRelation>> {
        match &self.repr {
            Repr::Columnar(c) => Some(c),
            _ => None,
        }
    }

    /// Whether this element is currently held column-major.
    pub fn is_columnar(&self) -> bool {
        matches!(self.repr, Repr::Columnar(_))
    }

    /// A generator over this element's stored columns, whichever
    /// representation backs it — the uniform access path for derivations.
    pub fn as_generator(&self) -> Generator {
        match &self.repr {
            Repr::Extension(r) | Repr::Both { extension: r, .. } => Generator::scan(Arc::clone(r)),
            Repr::Generator(g) => g.clone(),
            // Filters/aggregates composed on top of this scan compile to
            // the executor's vectorized kernels.
            Repr::Columnar(c) => Generator::scan_columnar(Arc::clone(c)),
        }
    }

    /// Materialize the generator form in place (keeping it, per §5.2) and
    /// return the extension. No-op when already materialized.
    ///
    /// # Errors
    /// Propagates evaluation errors.
    pub fn ensure_extension(&mut self) -> Result<Arc<Relation>> {
        match &self.repr {
            Repr::Extension(r) | Repr::Both { extension: r, .. } => Ok(Arc::clone(r)),
            Repr::Generator(g) => {
                let rel = Arc::new(g.materialize().map_err(CmsError::from)?);
                self.repr = Repr::Both {
                    generator: g.clone(),
                    extension: Arc::clone(&rel),
                };
                Ok(rel)
            }
            // Lossless conversion back to rows — a point-probe consumer
            // needs the indexable row extension.
            Repr::Columnar(c) => {
                let rel = Arc::new(c.to_relation().map_err(CmsError::from)?);
                self.repr = Repr::Extension(Arc::clone(&rel));
                self.sorted.clear();
                Ok(rel)
            }
        }
    }

    /// Convert the element to the column-major representation
    /// (materializing a generator first if needed) and return it. No-op
    /// when already columnar. Lossless: [`CacheElement::ensure_extension`]
    /// recovers the identical row relation.
    ///
    /// # Errors
    /// Propagates materialization errors.
    pub fn ensure_columnar(&mut self) -> Result<Arc<ColumnarRelation>> {
        if let Repr::Columnar(c) = &self.repr {
            return Ok(Arc::clone(c));
        }
        let rel = self.ensure_extension()?;
        let col = Arc::new(ColumnarRelation::from_relation(&rel));
        self.repr = Repr::Columnar(Arc::clone(&col));
        self.sorted.clear();
        Ok(col)
    }

    /// Build (or reuse) a hash index on the extension's `cols`.
    /// Materializes first if needed. Returns whether a new index was
    /// actually built.
    ///
    /// # Errors
    /// Propagates materialization and index errors.
    pub fn ensure_index(&mut self, cols: &[usize]) -> Result<bool> {
        let rel = self.ensure_extension()?;
        if rel.index_on(cols).is_some() {
            return Ok(false);
        }
        // Cloning the Arc'd relation to mutate: cheap for the tuple data
        // (Arc'd tuples), pays only the index build we are doing anyway.
        let mut owned = (*rel).clone();
        owned.build_index(cols).map_err(CmsError::from)?;
        let new_rel = Arc::new(owned);
        self.repr = match &self.repr {
            Repr::Both { generator, .. } => Repr::Both {
                generator: generator.clone(),
                extension: Arc::clone(&new_rel),
            },
            _ => Repr::Extension(Arc::clone(&new_rel)),
        };
        // Row ids survive (indexing only re-wraps the same tuple vector),
        // but rebuild sorted views defensively against future divergence.
        self.sorted.clear();
        Ok(true)
    }

    /// Ensure an alternative sorted representation over the extension
    /// (materializing first if needed) and return the tuples in order —
    /// §5.2's co-existing representations serving ordered consumers.
    ///
    /// `keys` pairs a column with `true` for ascending.
    ///
    /// # Errors
    /// Propagates materialization and key-validation errors.
    pub fn sorted_tuples(&mut self, keys: &[(usize, bool)]) -> Result<Vec<Tuple>> {
        let ext = self.ensure_extension()?;
        if !self.sorted.contains_key(keys) {
            let sort_keys: Vec<SortKey> = keys
                .iter()
                .map(|&(c, asc)| {
                    if asc {
                        SortKey::asc(c)
                    } else {
                        SortKey::desc(c)
                    }
                })
                .collect();
            let view = SortedView::new(&ext, &sort_keys).map_err(CmsError::from)?;
            self.sorted.insert(keys.to_vec(), view);
        }
        let view = self.sorted.get(keys).expect("inserted above");
        Ok(view.iter(&ext).cloned().collect())
    }

    /// Number of alternative sorted representations currently held.
    pub fn sorted_view_count(&self) -> usize {
        self.sorted.len()
    }

    /// Whether replacement may choose this element: neither advice nor an
    /// open session holds it.
    pub fn evictable(&self) -> bool {
        !self.pinned && self.pin_count == 0
    }

    /// Approximate bytes held (extension + definition overhead; a pure
    /// generator is nearly free — that is its point; a columnar extension
    /// reports its dictionary-compressed footprint).
    pub fn approx_bytes(&self) -> usize {
        128 + match &self.repr {
            Repr::Extension(r) | Repr::Both { extension: r, .. } => r.approx_size(),
            Repr::Generator(_) => 64,
            Repr::Columnar(c) => c.approx_size(),
        }
    }

    /// Statistics of the materialized extension (row or columnar), if
    /// any. Both representations report identical logical statistics
    /// (see [`RelationStats::same_logical_stats`]).
    pub fn stats(&self) -> Option<RelationStats> {
        match &self.repr {
            Repr::Extension(r) | Repr::Both { extension: r, .. } => Some(RelationStats::of(r)),
            Repr::Generator(_) => None,
            Repr::Columnar(c) => Some(RelationStats::of_columnar(c)),
        }
    }

    /// Cardinality if materialized (row or columnar).
    pub fn cardinality(&self) -> Option<usize> {
        match &self.repr {
            Repr::Extension(r) | Repr::Both { extension: r, .. } => Some(r.len()),
            Repr::Generator(_) => None,
            Repr::Columnar(c) => Some(c.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;
    use braid_relational::{tuple, Expr};

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
        let e = CacheElement::materialized(1, def(), rel(), 0);
        assert_eq!(e.cardinality(), Some(2));
        assert!(e.generator().is_none());
        assert_eq!(e.as_generator().materialize().unwrap().len(), 2);
    }

    #[test]
    fn lazy_element_materializes_to_both() {
        let g = Generator::scan(Arc::new(rel())).filter(Expr::always());
        let mut e = CacheElement::lazy(2, def(), g, 0);
        assert!(e.extension().is_none());
        let ext = e.ensure_extension().unwrap();
        assert_eq!(ext.len(), 2);
        // Now both representations co-exist (§5.2).
        assert!(e.generator().is_some());
        assert!(e.extension().is_some());
    }

    #[test]
    fn ensure_index_builds_once() {
        let mut e = CacheElement::materialized(3, def(), rel(), 0);
        assert!(e.ensure_index(&[0]).unwrap());
        assert!(!e.ensure_index(&[0]).unwrap());
        assert!(e.extension().unwrap().index_on(&[0]).is_some());
    }

    #[test]
    fn sorted_views_coexist_with_extension() {
        let mut e = CacheElement::materialized(6, def(), rel(), 0);
        let asc = e.sorted_tuples(&[(1, true)]).unwrap();
        let desc = e.sorted_tuples(&[(1, false)]).unwrap();
        assert_eq!(asc.len(), 2);
        assert_eq!(asc[0].values()[1], braid_relational::Value::str("1"));
        assert_eq!(desc[0].values()[1], braid_relational::Value::str("2"));
        // Both views coexist (§5.2) alongside the unsorted extension.
        assert_eq!(e.sorted_view_count(), 2);
        assert!(e.extension().is_some());
    }

    #[test]
    fn columnar_element_round_trips_losslessly() {
        let mut e = CacheElement::materialized(7, def(), rel(), 0);
        let col = e.ensure_columnar().unwrap();
        assert!(e.is_columnar());
        assert!(e.extension().is_none());
        assert_eq!(e.cardinality(), Some(2));
        assert_eq!(col.len(), 2);
        // The uniform access path serves the same tuples.
        assert_eq!(e.as_generator().materialize().unwrap(), rel());
        // And converting back recovers the identical row relation.
        let back = e.ensure_extension().unwrap();
        assert_eq!(*back, rel());
        assert!(!e.is_columnar());
    }

    #[test]
    fn columnar_element_reports_row_identical_stats() {
        let row = CacheElement::materialized(8, def(), rel(), 0);
        let mut col = CacheElement::materialized(9, def(), rel(), 0);
        col.ensure_columnar().unwrap();
        let rs = row.stats().unwrap();
        let cs = col.stats().unwrap();
        assert!(rs.same_logical_stats(&cs), "row {rs:?} vs columnar {cs:?}");
    }

    #[test]
    fn ensure_columnar_from_lazy_materializes_first() {
        let g = Generator::scan(Arc::new(rel())).filter(Expr::always());
        let mut e = CacheElement::lazy(10, def(), g, 0);
        e.ensure_columnar().unwrap();
        assert!(e.is_columnar());
        assert_eq!(e.as_generator().materialize().unwrap(), rel());
    }

    #[test]
    fn approx_bytes_smaller_for_generator() {
        let g = Generator::scan(Arc::new(rel()));
        let lazy = CacheElement::lazy(4, def(), g, 0);
        let eager = CacheElement::materialized(5, def(), rel(), 0);
        assert!(lazy.approx_bytes() < eager.approx_bytes());
    }
}
