//! The Cache Manager.
//!
//! "The primary responsibilities of the Cache Manager include (a)
//! maintaining the cache as well as storing and replacing cache elements
//! (using an LRU scheme which may be modified due to advi\[c\]e); (b)
//! executing queries on cached data in the working memory; (c) keeping
//! track of resources consumed by the cached data; and (d) maintaining
//! sufficient historical meta-data to support cache replacement and
//! accumulate performance measurement statistics" (§5.4).

use crate::element::{CacheElement, ElemId};
use crate::error::Result;
use crate::model::ModelRow;
use braid_caql::ConjunctiveQuery;
use braid_relational::{
    Candidates, CmpOp, ColumnarRelation, ExecConfig, ExecStats, Expr, Generator, PhysicalPlan,
    Relation,
};
use braid_subsume::derive::ResidualFilter;
use braid_subsume::{CandidateUse, Derivation, SubsumptionEngine, ViewDef};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// The cache: elements, the subsumption index over their definitions, an
/// exact-match index, and replacement machinery.
#[derive(Debug)]
pub struct CacheManager {
    elements: BTreeMap<ElemId, CacheElement>,
    engine: SubsumptionEngine,
    exact: HashMap<String, ElemId>,
    // element → the exact-match keys it registered (definition + aliases).
    exact_keys: HashMap<ElemId, Vec<String>>,
    // every element as `(last_used, id)`: the LRU order, oldest first.
    lru: BTreeSet<(u64, ElemId)>,
    // view name → the elements cached under it (what advice pins name).
    by_name: HashMap<String, BTreeSet<ElemId>>,
    // the view names whose elements carry the advice pin, and elements
    // cached under one of them since the pins were last applied.
    pinned_views: BTreeSet<String>,
    pin_pending: BTreeSet<ElemId>,
    next_id: ElemId,
    id_stride: u64,
    clock: u64,
    capacity_bytes: usize,
    used_bytes: usize,
    evictions: u64,
}

impl Default for CacheManager {
    fn default() -> CacheManager {
        CacheManager::new(0)
    }
}

impl CacheManager {
    /// A cache with the given capacity (approximate bytes).
    pub fn new(capacity_bytes: usize) -> CacheManager {
        CacheManager::with_id_sequence(capacity_bytes, 0, 1)
    }

    /// A cache issuing element ids `start, start+stride, start+2·stride, …`
    /// — shard `s` of an N-way [`crate::SharedCache`] uses `(s, N)` so ids
    /// stay globally unique across shards and `id % N` recovers the shard.
    pub fn with_id_sequence(capacity_bytes: usize, start: ElemId, stride: u64) -> CacheManager {
        CacheManager {
            elements: BTreeMap::new(),
            engine: SubsumptionEngine::default(),
            exact: HashMap::new(),
            exact_keys: HashMap::new(),
            lru: BTreeSet::new(),
            by_name: HashMap::new(),
            pinned_views: BTreeSet::new(),
            pin_pending: BTreeSet::new(),
            next_id: start,
            id_stride: stride.max(1),
            clock: 0,
            capacity_bytes,
            used_bytes: 0,
            evictions: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Approximate bytes in use.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Containment tests the subsumption engine has run.
    pub(crate) fn subsume_tests(&self) -> u64 {
        self.engine.containment_tests()
    }

    /// Advance and return the logical clock.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Move an element's LRU stamp to `now`.
    fn restamp(&mut self, id: ElemId, now: u64) -> Option<&mut CacheElement> {
        let e = self.elements.get_mut(&id)?;
        self.lru.remove(&(e.last_used, id));
        self.lru.insert((now, id));
        e.last_used = now;
        Some(e)
    }

    /// Canonical exact-match key: the head's *name* is arbitrary (the IE
    /// may call the same result `d2` or `q`), so it is normalized away;
    /// variables are canonically numbered by `canonical_key`.
    fn exact_key(q: &ConjunctiveQuery) -> String {
        let mut q = q.clone();
        q.head.pred = "_".to_string();
        q.canonical_key()
    }

    /// Install an element over `columns`, indexed as the caller chose.
    /// Returns `None`
    /// (and drops the element, evicting nothing) if it cannot fit even
    /// once every unpinned element is gone. Evicts LRU-first among
    /// unpinned elements when needed — the paper's advice-modified LRU
    /// (§5.4). An element's size is fixed here: nothing resizes it later.
    pub fn insert(&mut self, def: ViewDef, columns: Arc<ColumnarRelation>) -> Option<ElemId> {
        let id = self.next_id;
        let now = self.tick();
        let element = CacheElement::new(id, def, columns, now);
        let bytes = element.approx_bytes();
        // Advice and session pins keep their bytes through any eviction:
        // refuse up front rather than evict every other element and still
        // not fit.
        if self.used_bytes.saturating_add(bytes) > self.capacity_bytes {
            let pinned = self.elements.values().filter(|e| !e.evictable());
            if pinned.map(CacheElement::approx_bytes).sum::<usize>() + bytes > self.capacity_bytes {
                return None;
            }
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            if !self.evict_one() {
                return None;
            }
        }
        self.next_id += self.id_stride;
        self.used_bytes += bytes;
        self.register_exact(Self::exact_key(element.def.query()), id);
        self.engine.insert(id, element.def.clone());
        let name = element.def.name();
        if self.pinned_views.contains(name) {
            self.pin_pending.insert(id);
        }
        self.by_name.entry(name.to_string()).or_default().insert(id);
        self.lru.insert((now, id));
        self.elements.insert(id, element);
        Some(id)
    }

    fn register_exact(&mut self, key: String, id: ElemId) {
        self.exact.insert(key.clone(), id);
        self.exact_keys.entry(id).or_default().push(key);
    }

    /// [`CacheManager::insert`], additionally registering the element
    /// under extra exact-match keys (e.g. the original projected query a
    /// result was computed for, alongside its all-variables definition).
    pub fn insert_with_aliases(
        &mut self,
        def: ViewDef,
        columns: Arc<ColumnarRelation>,
        aliases: &[String],
    ) -> Option<ElemId> {
        let id = self.insert(def, columns)?;
        for a in aliases {
            self.register_exact(a.clone(), id);
        }
        Some(id)
    }

    /// Evict the least-recently-used unpinned element (the smallest id
    /// among equal stamps). Returns `false` when nothing is evictable.
    /// Elements with open session pins (`pin_count > 0`) are never
    /// victims: an open generator may still be streaming from them.
    fn evict_one(&mut self) -> bool {
        let victim = self
            .lru
            .iter()
            .map(|&(_, id)| id)
            .find(|id| self.elements[id].evictable());
        match victim {
            Some(id) => {
                self.remove(id);
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Remove an element outright.
    pub fn remove(&mut self, id: ElemId) -> Option<CacheElement> {
        let e = self.elements.remove(&id)?;
        self.used_bytes = self.used_bytes.saturating_sub(e.approx_bytes());
        self.engine.remove(id);
        self.lru.remove(&(e.last_used, id));
        self.pin_pending.remove(&id);
        if let Some(ids) = self.by_name.get_mut(e.def.name()) {
            ids.remove(&id);
            if ids.is_empty() {
                self.by_name.remove(e.def.name());
            }
        }
        // A key a later element re-registered stays with that element.
        for key in self.exact_keys.remove(&id).unwrap_or_default() {
            if self.exact.get(&key) == Some(&id) {
                self.exact.remove(&key);
            }
        }
        Some(e)
    }

    /// Borrow an element.
    pub fn get(&self, id: ElemId) -> Option<&CacheElement> {
        self.elements.get(&id)
    }

    /// Record a derivation hit on an element (LRU + statistics).
    pub fn touch(&mut self, id: ElemId) {
        let now = self.tick();
        if let Some(e) = self.restamp(id, now) {
            e.hits += 1;
        }
    }

    /// Whether [`CacheManager::pin_views`] would change any advice pin:
    /// the named views differ from the applied ones, or an element was
    /// cached under an applied name since.
    pub(crate) fn pins_stale(&self, views: &BTreeSet<String>) -> bool {
        *views != self.pinned_views || !self.pin_pending.is_empty()
    }

    /// Set the advice pins: exactly the elements cached under a view name
    /// in `views` survive replacement scans ("it is clear that d1 is not
    /// the best candidate", §4.2.2). Pinning an element also refreshes
    /// its LRU stamp: advice declaring an element worth keeping is a use
    /// signal, and without the refresh a just-unpinned element would
    /// carry stale recency from before it was pinned and be evicted first
    /// despite having been protected (and presumably served) the whole
    /// time. Visits only the elements whose pin changes.
    pub(crate) fn pin_views(&mut self, views: &BTreeSet<String>) {
        if !self.pins_stale(views) {
            return;
        }
        let named = |v: &String| self.by_name.get(v).into_iter().flatten().copied();
        let unpin: Vec<ElemId> = self
            .pinned_views
            .difference(views)
            .flat_map(named)
            .collect();
        let pending = (self.pin_pending.iter().copied())
            .filter(|id| views.contains(self.elements[id].def.name()));
        let pin: Vec<ElemId> = (views.difference(&self.pinned_views).flat_map(named))
            .chain(pending)
            .collect();
        for id in unpin {
            if let Some(e) = self.elements.get_mut(&id) {
                e.pinned = false;
            }
        }
        let now = self.tick();
        for id in pin {
            if let Some(e) = self.restamp(id, now) {
                e.pinned = true;
            }
        }
        self.pinned_views.clone_from(views);
        self.pin_pending.clear();
    }

    /// Take a session pin on an element: while `pin_count > 0` the
    /// element cannot be evicted. Callers must pair with
    /// [`CacheManager::unpin`]. No-op for unknown ids.
    pub fn pin(&mut self, id: ElemId) {
        if let Some(e) = self.elements.get_mut(&id) {
            e.pin_count = e.pin_count.saturating_add(1);
        }
    }

    /// Release a session pin taken by [`CacheManager::pin`].
    pub fn unpin(&mut self, id: ElemId) {
        if let Some(e) = self.elements.get_mut(&id) {
            e.pin_count = e.pin_count.saturating_sub(1);
        }
    }

    /// Exact-match lookup: an element whose definition is identical (up to
    /// variable renaming) to `q` — the only reuse the paper's baselines
    /// support.
    pub fn exact_lookup(&self, q: &ConjunctiveQuery) -> Option<ElemId> {
        self.exact.get(&Self::exact_key(q)).copied()
    }

    /// All `(component, element, derivation)` reuse options for `q` via
    /// the subsumption engine (§5.3.2 step 2).
    pub fn relevant(&self, q: &ConjunctiveQuery) -> Vec<CandidateUse> {
        self.engine.find_relevant(q)
    }

    /// Elements subsuming the whole of `q`.
    pub fn whole_subsumers(&self, q: &ConjunctiveQuery) -> Vec<(ElemId, Derivation)> {
        self.engine.find_whole(q)
    }

    /// The stored columns of an element, shared (an `Arc` clone). They
    /// are immutable (clustering swaps in a new copy), so a derivation may
    /// run over them after the caller has let go of the cache.
    ///
    /// # Errors
    /// Returns an error if the element is gone.
    pub(crate) fn columns_of(&self, id: ElemId) -> Result<Arc<ColumnarRelation>> {
        self.elements
            .get(&id)
            .map(|e| Arc::clone(&e.columns))
            .ok_or_else(|| crate::error::CmsError::Unplannable(format!("no element {id}")))
    }

    /// [`derive`] over a cached element.
    ///
    /// # Errors
    /// Returns an error if the element is gone or a projection variable
    /// is unavailable.
    pub fn derive(&self, id: ElemId, derivation: &Derivation, vars: &[&str]) -> Result<Generator> {
        derive(id, &self.columns_of(id)?, derivation, vars).map(|(g, _)| g)
    }

    /// [`derive_relation`] over a cached element.
    ///
    /// # Errors
    /// Returns an error if the element is gone or a projection variable
    /// is unavailable.
    pub fn derive_relation(
        &self,
        id: ElemId,
        derivation: &Derivation,
        vars: &[&str],
        exec: ExecConfig,
    ) -> Result<Derived> {
        derive_relation(id, &self.columns_of(id)?, derivation, vars, exec)
    }

    /// Claim the one clustering of an element whose stored columns are
    /// still `old`: true for the first caller only, so one caller
    /// sorts and the others read `old` until [`CacheManager::recluster`]
    /// swaps the sorted copy in.
    pub(crate) fn claim_clustering(&mut self, id: ElemId, old: &Arc<ColumnarRelation>) -> bool {
        match self.elements.get_mut(&id) {
            Some(e) if !e.cluster_claimed && Arc::ptr_eq(&e.columns, old) => {
                e.cluster_claimed = true;
                true
            }
            _ => false,
        }
    }

    /// Replace an element's stored columns with `clustered`, the same
    /// rows sorted on one column — only if the element is still resident
    /// and still holds `old`, so a concurrent replacement is never
    /// overwritten. The bytes charged do not change. Returns whether the
    /// swap happened.
    pub(crate) fn recluster(
        &mut self,
        id: ElemId,
        old: &Arc<ColumnarRelation>,
        clustered: Arc<ColumnarRelation>,
    ) -> bool {
        let Some(e) = self.elements.get_mut(&id) else {
            return false;
        };
        if !Arc::ptr_eq(&e.columns, old) {
            return false;
        }
        debug_assert_eq!(old.approx_size(), clustered.approx_size());
        e.columns = clustered;
        true
    }

    /// Cardinality of an element's extension, if the element exists.
    pub fn cardinality_of(&self, id: ElemId) -> Option<usize> {
        self.elements.get(&id).map(CacheElement::cardinality)
    }

    /// Cache-model rows for all elements (§5.3.2's `(E_id, E_def, ...)`).
    pub fn model(&self) -> Vec<ModelRow> {
        self.elements.values().map(ModelRow::of).collect()
    }

    /// Iterate elements (for the advice manager's pin scoring).
    pub fn elements(&self) -> impl Iterator<Item = &CacheElement> {
        self.elements.values()
    }
}

fn projection(id: ElemId, derivation: &Derivation, vars: &[&str]) -> Result<Vec<usize>> {
    derivation.projection(vars).ok_or_else(|| {
        crate::error::CmsError::Unplannable(format!("element {id} does not expose all of {vars:?}"))
    })
}

/// Build the local compensation pipeline computing a derivation from
/// element `id`'s `columns`: generator → residual filter → projection
/// onto `vars` (in order), and the access path it will take. This is the
/// Query Processor at work (§5.4).
///
/// # Errors
/// Returns an error if a projection variable is unavailable.
pub(crate) fn derive(
    id: ElemId,
    columns: &Arc<ColumnarRelation>,
    derivation: &Derivation,
    vars: &[&str],
) -> Result<(Generator, Access)> {
    let cols = projection(id, derivation, vars)?;
    let filter = derivation.filter_expr();
    let access = scan_access(columns, &filter);
    let scan = Generator::from_plan(PhysicalPlan::scan_columnar(Arc::clone(columns)));
    let g = scan.filter(filter).project(&cols)?;
    Ok((g, access))
}

/// How a derivation reached its element's rows — EXPLAIN's `access`
/// field on a cache part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// A hash-index probe on the column.
    Probe(usize),
    /// The slice of a clustered element a binary search on its sort
    /// column left: `read` of `total` rows.
    Range {
        /// The sort column.
        col: usize,
        /// Rows the kernel evaluated.
        read: usize,
        /// Rows the element holds.
        total: usize,
    },
    /// Every row.
    Scan,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Probe(c) => write!(f, "probe({c})"),
            Access::Range { col, read, total } => write!(f, "range({col}) {read}/{total}"),
            Access::Scan => write!(f, "scan"),
        }
    }
}

/// An eagerly evaluated derivation: its rows, the executor's counters,
/// and the access path it took.
#[derive(Debug)]
pub struct Derived {
    /// The derived relation (columns in the order of the requested
    /// variables).
    pub rel: Relation,
    /// The executor's work counters for the derivation.
    pub stats: ExecStats,
    /// How the element's rows were reached.
    pub access: Access,
}

/// Eagerly evaluate a derivation with the executor configuration `exec`.
/// The columnar kernels read only the candidate rows: an equality
/// residual on an indexed column probes the index — the Query Processor
/// "uses hash indices when available to speed up joins and some
/// selections" (§5.4) — and a clustered element reads only the slice
/// its range residuals leave; anything else scans.
///
/// # Errors
/// Returns an error if a projection variable is unavailable.
pub(crate) fn derive_relation(
    id: ElemId,
    columns: &Arc<ColumnarRelation>,
    derivation: &Derivation,
    vars: &[&str],
    exec: ExecConfig,
) -> Result<Derived> {
    let cols = projection(id, derivation, vars)?;
    let filter = derivation.filter_expr();
    let access = scan_access(columns, &filter);
    let plan = PhysicalPlan::scan_columnar(Arc::clone(columns)).filter(filter);
    let (rel, stats) = plan.project(&cols)?.materialize_with(exec)?;
    Ok(Derived { rel, stats, access })
}

/// The access path a filter over `columns` takes: the candidate rows
/// the columnar kernels read ([`ColumnarRelation::candidate_rows`]), so
/// the label is the access the kernel makes.
fn scan_access(columns: &ColumnarRelation, filter: &Expr) -> Access {
    match columns.candidate_rows(std::slice::from_ref(filter)) {
        Candidates::Probe { col, .. } => Access::Probe(col),
        Candidates::Range { col, rows } => Access::Range {
            col,
            read: rows.len(),
            total: columns.len(),
        },
        Candidates::Scan => Access::Scan,
    }
}

/// The column a columnar element would be clustered on for this
/// derivation: the first residual comparing a clusterable column to a
/// constant with `<`, `<=`, `>` or `>=`.
pub(crate) fn range_column(cols: &ColumnarRelation, derivation: &Derivation) -> Option<usize> {
    derivation.filters.iter().find_map(|f| match f {
        ResidualFilter::ColConst(c, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge, _)
            if cols.is_clusterable(*c) =>
        {
            Some(*c)
        }
        _ => None,
    })
}

/// The read-side cache interface the planner and monitor run against.
///
/// Implemented both by the plain [`CacheManager`] (single-session, `&mut`
/// ownership) and by the sharded, lock-protected [`crate::SharedCache`]
/// (N concurrent sessions) — planning and execution are written once,
/// generic over this trait, so the two ownership models cannot drift.
pub trait CacheRead {
    /// All `(component, element, derivation)` reuse options for `q`.
    fn relevant(&self, q: &ConjunctiveQuery) -> Vec<CandidateUse>;
    /// Elements subsuming the whole of `q`.
    fn whole_subsumers(&self, q: &ConjunctiveQuery) -> Vec<(ElemId, Derivation)>;
    /// Exact-match lookup (canonical up to variable renaming).
    fn exact_lookup(&self, q: &ConjunctiveQuery) -> Option<ElemId>;
    /// Cardinality of an element's materialized extension, if any.
    fn cardinality_of(&self, id: ElemId) -> Option<usize>;
    /// Eagerly evaluate a derivation over an element with the executor
    /// configuration `exec`.
    ///
    /// # Errors
    /// Returns an error if the element is gone or a projection variable
    /// is unavailable.
    fn derive_relation(
        &self,
        id: ElemId,
        derivation: &Derivation,
        vars: &[&str],
        exec: ExecConfig,
    ) -> Result<Derived>;
}

impl CacheRead for CacheManager {
    fn relevant(&self, q: &ConjunctiveQuery) -> Vec<CandidateUse> {
        CacheManager::relevant(self, q)
    }

    fn whole_subsumers(&self, q: &ConjunctiveQuery) -> Vec<(ElemId, Derivation)> {
        CacheManager::whole_subsumers(self, q)
    }

    fn exact_lookup(&self, q: &ConjunctiveQuery) -> Option<ElemId> {
        CacheManager::exact_lookup(self, q)
    }

    fn cardinality_of(&self, id: ElemId) -> Option<usize> {
        CacheManager::cardinality_of(self, id)
    }

    fn derive_relation(
        &self,
        id: ElemId,
        derivation: &Derivation,
        vars: &[&str],
        exec: ExecConfig,
    ) -> Result<Derived> {
        CacheManager::derive_relation(self, id, derivation, vars, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;
    use braid_relational::{tuple, Relation, Schema};

    fn def(src: &str) -> ViewDef {
        ViewDef::new(parse_rule(src).unwrap()).unwrap()
    }

    fn rel(n: usize) -> Arc<ColumnarRelation> {
        let mut r = Relation::new(Schema::of_strs("e", &["x", "y"]));
        for i in 0..n {
            r.insert(tuple![format!("k{i}"), format!("v{i}")]).unwrap();
        }
        columns(&r, &[])
    }

    fn columns(rel: &Relation, index: &[usize]) -> Arc<ColumnarRelation> {
        let c = ColumnarRelation::from_relation(rel);
        Arc::new(c.with_indexes(index).unwrap())
    }

    fn views(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn insert_and_exact_lookup() {
        let mut c = CacheManager::new(usize::MAX);
        let id = c.insert(def("e(X, Y) :- b1(X, Y)."), rel(3)).unwrap();
        // Exact match is canonical: variable names don't matter.
        let q = parse_rule("q(A, B) :- b1(A, B).").unwrap();
        assert_eq!(c.exact_lookup(&q), Some(id));
        let diff = parse_rule("q(A) :- b1(A, c1).").unwrap();
        assert_eq!(c.exact_lookup(&diff), None);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let bytes_of_3 = {
            let e = CacheElement::new(0, def("e(X, Y) :- b1(X, Y)."), rel(3), 0);
            e.approx_bytes()
        };
        let mut c = CacheManager::new(bytes_of_3 * 2 + 64);
        let a = c.insert(def("a(X, Y) :- b1(X, Y)."), rel(3)).unwrap();
        let b = c.insert(def("b(X, Y) :- b2(X, Y)."), rel(3)).unwrap();
        // Touch `a` so `b` becomes LRU.
        c.touch(a);
        let d = c.insert(def("d(X, Y) :- b3(X, Y)."), rel(3)).unwrap();
        assert!(c.get(a).is_some());
        assert!(c.get(b).is_none(), "LRU element must be evicted");
        assert!(c.get(d).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn pinned_elements_survive_eviction() {
        let unit = CacheElement::new(0, def("e(X, Y) :- b1(X, Y)."), rel(3), 0).approx_bytes();
        let mut c = CacheManager::new(unit * 2 + 64);
        let a = c.insert(def("a(X, Y) :- b1(X, Y)."), rel(3)).unwrap();
        let b = c.insert(def("b(X, Y) :- b2(X, Y)."), rel(3)).unwrap();
        // `a` is older but pinned: `b` gets evicted instead.
        c.pin_views(&views(&["a"]));
        let d = c.insert(def("d(X, Y) :- b3(X, Y)."), rel(3)).unwrap();
        assert!(c.get(a).is_some());
        assert!(c.get(b).is_none());
        // An element that would fit an empty cache but not beside the
        // pinned `a` is refused without evicting `d` first.
        let big = CacheElement::new(0, def("x(X, Y) :- b9(X, Y)."), rel(5), 0);
        assert!(unit + big.approx_bytes() > unit * 2 + 64 && big.approx_bytes() <= unit * 2 + 64);
        let refused = c.insert(def("x(X, Y) :- b9(X, Y)."), rel(5));
        assert!(refused.is_none());
        assert!(
            c.get(d).is_some(),
            "nothing evicted for an insert that cannot fit"
        );
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn pinning_refreshes_recency() {
        // The touch/pin ordering bug: pin bookkeeping used to leave
        // `last_used` stale, so an element that had just been unpinned
        // was evicted ahead of elements it outlived while protected.
        let unit = CacheElement::new(0, def("e(X, Y) :- b1(X, Y)."), rel(3), 0).approx_bytes();
        let mut c = CacheManager::new(unit * 2 + 64);
        let a = c.insert(def("a(X, Y) :- b1(X, Y)."), rel(3)).unwrap();
        let b = c.insert(def("b(X, Y) :- b2(X, Y)."), rel(3)).unwrap();
        c.touch(b); // b is now more recent than a…
        c.pin_views(&views(&["a"])); // …but pinning a counts as a use of a.
        c.pin_views(&views(&[])); // advice withdrawn: both unpinned again.
        let d = c.insert(def("d(X, Y) :- b3(X, Y)."), rel(3)).unwrap();
        assert!(c.get(b).is_none(), "b is LRU once pinning refreshed a");
        assert!(c.get(a).is_some(), "pinning a refreshed its recency");
        assert!(c.get(d).is_some());
    }

    #[test]
    fn session_pins_block_eviction_until_released() {
        let unit = CacheElement::new(0, def("e(X, Y) :- b1(X, Y)."), rel(3), 0).approx_bytes();
        let mut c = CacheManager::new(unit * 2 + 64);
        let a = c.insert(def("a(X, Y) :- b1(X, Y)."), rel(3)).unwrap();
        let b = c.insert(def("b(X, Y) :- b2(X, Y)."), rel(3)).unwrap();
        c.pin(a);
        c.pin(a); // two concurrent streams over a
        let d = c.insert(def("d(X, Y) :- b3(X, Y)."), rel(3)).unwrap();
        assert!(c.get(a).is_some(), "session-pinned element survives");
        assert!(c.get(b).is_none(), "unpinned LRU element is the victim");
        c.unpin(a);
        assert_eq!(c.get(a).unwrap().pin_count, 1, "one stream still open");
        c.unpin(a);
        // Fully released: a is evictable again (and is LRU vs d).
        let e2 = c.insert(def("f(X, Y) :- b1(X, Z), b2(Z, Y)."), rel(3));
        assert!(e2.is_some());
        assert!(c.get(a).is_none(), "released element evicts normally");
        assert!(c.get(d).is_some());
    }

    #[test]
    fn strided_id_sequences_never_collide() {
        let mut shard0 = CacheManager::with_id_sequence(usize::MAX, 0, 4);
        let mut shard3 = CacheManager::with_id_sequence(usize::MAX, 3, 4);
        let a = shard0.insert(def("a(X, Y) :- b1(X, Y)."), rel(1)).unwrap();
        let b = shard0.insert(def("b(X, Y) :- b2(X, Y)."), rel(1)).unwrap();
        let c = shard3.insert(def("c(X, Y) :- b3(X, Y)."), rel(1)).unwrap();
        assert_eq!((a, b, c), (0, 4, 3));
        assert_eq!(a % 4, 0);
        assert_eq!(c % 4, 3);
    }

    #[test]
    fn oversized_element_rejected() {
        let mut c = CacheManager::new(10);
        assert!(c.insert(def("a(X, Y) :- b1(X, Y)."), rel(100)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn derive_builds_compensation_pipeline() {
        let mut c = CacheManager::new(usize::MAX);
        let id = c.insert(def("e(X, Y) :- b1(X, Y)."), rel(4)).unwrap();
        let q = parse_rule("q(X) :- b1(X, v2).").unwrap();
        let uses = c.relevant(&q);
        assert!(!uses.is_empty());
        let u = &uses[0];
        let g = c.derive(u.element, &u.derivation, &["X"]).unwrap();
        let out = g.materialize().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.sorted_tuples()[0], tuple!["k2"]);
        assert_eq!(u.element, id);
    }

    #[test]
    fn point_probes_and_band_derivations_agree_over_both_forms() {
        // Indexed and unindexed columns, unclustered and clustered.
        let mut nums = Relation::new(Schema::of_strs("e", &["k", "n"]));
        for i in 0..40i64 {
            nums.insert(tuple![format!("k{}", i % 8), i]).unwrap();
        }
        let d = def("e(K, N) :- b1(K, N).");
        let indexed = columns(&nums, &[0]);
        let forms = [
            Arc::clone(&indexed),
            columns(&nums, &[]),
            Arc::new(indexed.clustered_on(1).unwrap()),
        ];
        let cases = [
            ("q(N) :- b1(k3, N).", &["N"][..], Some(Access::Probe(0))),
            (
                "q(K, N) :- b1(K, N), N >= 10, N < 20.",
                &["K", "N"][..],
                None,
            ),
        ];
        for (src, vars, indexed_access) in cases {
            let q = parse_rule(src).unwrap();
            let mut answers = Vec::new();
            for (i, form) in forms.iter().enumerate() {
                let mut c = CacheManager::new(usize::MAX);
                let id = c.insert(d.clone(), Arc::clone(form)).unwrap();
                let (_, via) = c.whole_subsumers(&q).remove(0);
                let got = c
                    .derive_relation(id, &via, vars, ExecConfig::default())
                    .unwrap();
                if let (0, Some(access)) = (i, &indexed_access) {
                    assert_eq!(&got.access, access, "{src}");
                }
                let lazy = c.derive(id, &via, vars).unwrap().materialize().unwrap();
                assert_eq!(lazy.to_vec(), got.rel.to_vec(), "{src}: lazy ≡ eager");
                answers.push(got.rel.sorted_tuples());
            }
            assert!(!answers[0].is_empty(), "{src}");
            assert!(answers.iter().all(|a| *a == answers[0]), "{src}");
        }
    }

    #[test]
    fn two_equality_residuals_probe_the_indexed_column() {
        // Indexes are single-column, so `K = k3, N = 3` over an element
        // indexed on K probes K and filters the bucket.
        let mut rel = Relation::new(Schema::of_strs("e", &["k", "n"]));
        for i in 0..400i64 {
            rel.insert(tuple![format!("k{}", i % 40), i % 13]).unwrap();
        }
        let d = def("e(K, N) :- b1(K, N).");
        let (mut indexed, mut plain) =
            (CacheManager::new(usize::MAX), CacheManager::new(usize::MAX));
        let i = indexed.insert(d.clone(), columns(&rel, &[0])).unwrap();
        let p = plain.insert(d, columns(&rel, &[])).unwrap();
        let derivation = Derivation {
            var_cols: [("K".to_string(), 0), ("N".to_string(), 1)].into(),
            filters: vec![
                ResidualFilter::ColConst(0, CmpOp::Eq, braid_relational::Value::str("k3")),
                ResidualFilter::ColConst(1, CmpOp::Eq, braid_relational::Value::int(3)),
            ],
        };
        let exec = ExecConfig::default();
        let probed = indexed
            .derive_relation(i, &derivation, &["K", "N"], exec)
            .unwrap();
        let scanned = plain
            .derive_relation(p, &derivation, &["K", "N"], exec)
            .unwrap();
        assert_eq!(probed.access, Access::Probe(0));
        assert_eq!(scanned.access, Access::Scan);
        assert!(!probed.rel.is_empty());
        assert_eq!(
            probed.rel.to_vec(),
            scanned.rel.to_vec(),
            "same rows, same order"
        );
        // Rows outside the bucket count as pruned, as a scan prunes them.
        assert_eq!(probed.stats, scanned.stats);
        // The probe reads k3's bucket: 10 of the 400 rows.
        let filter = derivation.filter_expr();
        let read = match indexed.columns_of(i).unwrap().candidate_rows(&[filter]) {
            Candidates::Probe { rows, .. } => rows.len(),
            other => panic!("{other:?}"),
        };
        assert_eq!(read, 10);
    }

    #[test]
    fn one_caller_claims_an_elements_clustering_and_swaps_it_in() {
        let rows = (0..100i64).map(|k| tuple![k, (k * 37) % 100]);
        let rel = Relation::from_tuples(Schema::of_strs("e", &["k", "v"]), rows).unwrap();
        let mut c = CacheManager::new(usize::MAX);
        let id = c
            .insert(def("e(K, V) :- b1(K, V)."), columns(&rel, &[]))
            .unwrap();
        let old = c.columns_of(id).unwrap();
        assert!(c.claim_clustering(id, &old));
        assert!(
            !c.claim_clustering(id, &old),
            "the racing caller reads `old`"
        );
        let clustered = Arc::new(old.clustered_on(1).unwrap());
        let bytes = c.used_bytes();
        assert!(c.recluster(id, &old, Arc::clone(&clustered)));
        assert_eq!(c.used_bytes(), bytes);
        // The element now holds the clustered copy: neither call matches.
        assert!(!c.claim_clustering(id, &old));
        assert!(!c.recluster(id, &old, clustered));
        assert!(!c.claim_clustering(id + 1, &old), "a missing element");
    }

    #[test]
    fn remove_clears_indices() {
        let mut c = CacheManager::new(usize::MAX);
        let id = c.insert(def("a(X, Y) :- b1(X, Y)."), rel(2)).unwrap();
        assert!(c.remove(id).is_some());
        let q = parse_rule("q(A, B) :- b1(A, B).").unwrap();
        assert!(c.exact_lookup(&q).is_none());
        assert!(c.relevant(&q).is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn removal_keeps_exact_keys_a_later_element_took_over() {
        let mut c = CacheManager::new(usize::MAX);
        let alias = |k: &str| vec![k.to_string(), format!("{k}_own")];
        let a = c
            .insert_with_aliases(def("a(X, Y) :- b1(X, Y)."), rel(2), &alias("shared"))
            .unwrap();
        let b = c
            .insert_with_aliases(def("b(X, Y) :- b2(X, Y)."), rel(2), &["shared".to_string()])
            .unwrap();
        c.remove(a).unwrap();
        assert_eq!(c.exact.get("shared"), Some(&b));
        assert!(!c.exact.contains_key("shared_own"));
        assert!(c
            .exact_lookup(&parse_rule("q(A, B) :- b1(A, B).").unwrap())
            .is_none());
        assert_eq!(c.exact.len(), 2, "b's definition key and the shared alias");
    }

    #[test]
    fn equal_stamps_evict_the_smallest_id_first() {
        let unit = CacheElement::new(0, def("e(X, Y) :- b1(X, Y)."), rel(3), 0).approx_bytes();
        let mut c = CacheManager::new(unit * 3 + 64);
        let mut put = |src: &str| c.insert(def(src), rel(3)).unwrap();
        let (a, b, d) = (
            put("v(X, Y) :- b1(X, Y)."),
            put("w(X, Y) :- b2(X, Y)."),
            put("v(X, Y) :- b3(X, Y)."),
        );
        // One pin_views call stamps a and d with one tick, after b.
        c.pin_views(&views(&["v"]));
        c.pin_views(&views(&[]));
        assert_eq!(c.get(a).unwrap().last_used, c.get(d).unwrap().last_used);
        for (src, gone) in [("x(X, Y) :- b4(X, Y).", b), ("y(X, Y) :- b5(X, Y).", a)] {
            c.insert(def(src), rel(3)).unwrap();
            assert!(c.get(gone).is_none());
        }
        assert!(c.get(d).is_some(), "the larger id of the tie outlives a");
        assert_eq!(c.lru.len(), c.len());
    }

    #[test]
    fn pins_reach_elements_cached_under_a_pinned_name_later() {
        let mut c = CacheManager::new(usize::MAX);
        let pinned = views(&["d2"]);
        c.pin_views(&pinned);
        assert!(!c.pins_stale(&pinned));
        let id = c.insert(def("d2(X, Y) :- b2(X, Y)."), rel(2)).unwrap();
        assert!(
            !c.get(id).unwrap().pinned,
            "pinned when advice next applies"
        );
        assert!(c.pins_stale(&pinned));
        c.pin_views(&pinned);
        assert!(c.get(id).unwrap().pinned);
        assert!(!c.pins_stale(&pinned), "nothing left to change");
        c.pin_views(&views(&["d3"]));
        assert!(!c.get(id).unwrap().pinned);
    }

    #[test]
    fn model_reports_elements() {
        let mut c = CacheManager::new(usize::MAX);
        c.insert(def("a(X, Y) :- b1(X, Y)."), rel(2));
        let m = c.model();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].cardinality, 2);
    }
}
