//! The shared, concurrently-usable cache: BrAID's CMS is "a main-memory
//! DBMS whose database is the cache" serving *all* inference sessions, so
//! the cache itself must outlive any one session and admit concurrent
//! readers.
//!
//! Structure: N shards, each a [`CacheManager`] behind its own `RwLock`.
//! An element lives in the shard of its *base-relation footprint* (the
//! minimum relation name its definition reads, hashed with FNV-1a).
//! Subsumption requires a homomorphism from the element's body onto the
//! query component, so `footprint(E) ⊆ footprint(Q)` for every candidate
//! `E` — consulting exactly the shards of `Q`'s own relations is both
//! sound and complete, and lookups over disjoint relations never contend.
//!
//! Element ids stay globally unique across shards because shard `s` of
//! `N` issues the strided sequence `s, s+N, s+2N, …`; `id % N` recovers
//! the owning shard without any shared counter.

use crate::cache::{CacheManager, CacheRead};
use crate::element::{CacheElement, ElemId, Repr};
use crate::error::Result;
use crate::metrics::CmsMetrics;
use crate::model::ModelRow;
use braid_caql::ConjunctiveQuery;
use braid_relational::{Generator, Relation};
use braid_subsume::{base_footprint, CandidateUse, Derivation, ViewDef};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// FNV-1a: deterministic across processes (unlike `DefaultHasher`), so
/// shard routing — and therefore eviction behavior — is reproducible.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A sharded, lock-protected cache shared by concurrent sessions.
#[derive(Debug)]
pub struct SharedCache {
    shards: Vec<RwLock<CacheManager>>,
    // per shard: the containment-test count already added to `metrics`.
    tests_published: Vec<AtomicU64>,
    shard_capacity_bytes: usize,
    metrics: Arc<CmsMetrics>,
}

impl SharedCache {
    /// A shared cache with `shards` independent locks splitting
    /// `capacity_bytes` evenly. One shard reproduces the single-session
    /// [`CacheManager`] behavior exactly (same capacity, same LRU order).
    pub fn new(capacity_bytes: usize, shards: usize, metrics: Arc<CmsMetrics>) -> SharedCache {
        let n = shards.max(1);
        let per_shard = if capacity_bytes == usize::MAX {
            usize::MAX
        } else {
            capacity_bytes / n
        };
        SharedCache {
            shards: (0..n)
                .map(|s| {
                    RwLock::new(CacheManager::with_id_sequence(
                        per_shard,
                        s as ElemId,
                        n as u64,
                    ))
                })
                .collect(),
            tests_published: (0..n).map(|_| AtomicU64::new(0)).collect(),
            shard_capacity_bytes: per_shard,
            metrics,
        }
    }

    /// Add the containment tests shard `idx` ran since the last publish
    /// to the `subsume_tests` metric. Concurrent readers of one shard
    /// race benignly: `fetch_max` hands each test to exactly one of them.
    fn publish_tests(&self, idx: usize, mgr: &CacheManager) {
        let total = mgr.subsume_tests();
        let seen = self.tests_published[idx].fetch_max(total, Ordering::Relaxed);
        self.metrics.add_subsume_tests(total.saturating_sub(seen));
    }

    /// The capacity of one shard: the most any single element can
    /// occupy, since an element lives whole in its home shard.
    pub fn shard_capacity_bytes(&self) -> usize {
        self.shard_capacity_bytes
    }

    fn shard_of_relation(&self, rel: &str) -> usize {
        (fnv1a(rel) % self.shards.len() as u64) as usize
    }

    fn shard_of_id(&self, id: ElemId) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// The home shard of a query: the shard of the smallest relation in
    /// its footprint (queries with no positive atoms go to shard 0).
    fn home_shard(&self, q: &ConjunctiveQuery) -> usize {
        base_footprint(q)
            .iter()
            .next()
            .map_or(0, |r| self.shard_of_relation(r))
    }

    /// Ascending, deduplicated shard indices a query's footprint touches.
    /// Every subsumption candidate for `q` lives in one of these shards.
    fn shards_of_query(&self, q: &ConjunctiveQuery) -> Vec<usize> {
        let fp = base_footprint(q);
        if fp.is_empty() {
            return vec![0];
        }
        let mut idx: Vec<usize> = fp.iter().map(|r| self.shard_of_relation(r)).collect();
        idx.sort_unstable();
        idx.dedup();
        idx
    }

    /// Read-lock a shard, counting contention: a failed `try_read` is a
    /// lock wait another session caused.
    fn read(&self, idx: usize) -> RwLockReadGuard<'_, CacheManager> {
        let lock = &self.shards[idx];
        match lock.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.metrics.add_shard_lock_waits(1);
                lock.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }

    /// Write-lock a shard, counting contention.
    fn write(&self, idx: usize) -> RwLockWriteGuard<'_, CacheManager> {
        let lock = &self.shards[idx];
        match lock.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.metrics.add_shard_lock_waits(1);
                lock.write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }

    /// Number of elements across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes in use across all shards.
    pub fn used_bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read(i).used_bytes())
            .sum()
    }

    /// Total evictions across all shards.
    pub fn evictions(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.read(i).evictions())
            .sum()
    }

    /// Install a result element (routed to its footprint's home shard),
    /// registering extra exact-match aliases. Returns the id (existing id
    /// if an identical definition is already cached — two sessions racing
    /// past the same miss must not double-store the result) and how many
    /// elements the insert evicted.
    pub fn insert_with_aliases(
        &self,
        def: ViewDef,
        repr: Repr,
        aliases: &[String],
    ) -> (Option<ElemId>, u64) {
        let idx = self.home_shard(def.query());
        let mut mgr = self.write(idx);
        if let Some(id) = mgr.exact_lookup(def.query()) {
            mgr.touch(id);
            return (Some(id), 0);
        }
        let before = mgr.evictions();
        let id = mgr.insert_with_aliases(def, repr, aliases);
        let evicted = mgr.evictions() - before;
        (id, evicted)
    }

    /// Record a derivation hit (LRU + statistics).
    pub fn touch(&self, id: ElemId) {
        self.write(self.shard_of_id(id)).touch(id);
    }

    /// Set the advice pins globally: elements cached under a view name in
    /// `views` survive replacement scans, all others are unpinned. Shards
    /// are updated one at a time (advice pins are policy, not correctness
    /// — a momentary cross-shard skew is harmless), and a shard where no
    /// pin changes is never write-locked.
    pub(crate) fn pin_views(&self, views: &BTreeSet<String>) {
        for i in 0..self.shards.len() {
            if self.read(i).pins_stale(views) {
                self.write(i).pin_views(views);
            }
        }
    }

    /// Take a session pin on an element, atomically checking it still
    /// exists. Returns `None` when the element was already evicted — the
    /// caller must re-plan rather than execute against a dangling id.
    pub fn try_pin(self: &Arc<Self>, id: ElemId) -> Option<PinGuard> {
        let mut mgr = self.write(self.shard_of_id(id));
        mgr.get(id)?;
        mgr.pin(id);
        drop(mgr);
        Some(PinGuard {
            cache: Arc::clone(self),
            id,
        })
    }

    fn unpin_raw(&self, id: ElemId) {
        self.write(self.shard_of_id(id)).unpin(id);
    }

    /// Run `f` over an element (refreshing nothing).
    pub fn with_element<R>(&self, id: ElemId, f: impl FnOnce(&CacheElement) -> R) -> Option<R> {
        let mgr = self.read(self.shard_of_id(id));
        mgr.get(id).map(f)
    }

    /// Shards whose tracked `used_bytes` differs from the sum of their
    /// elements' `approx_bytes`, as `(shard, tracked, summed)`. Reads
    /// only and evicts nothing; empty when the accounting is exact.
    pub fn byte_drift(&self) -> Vec<(usize, usize, usize)> {
        (0..self.shards.len())
            .filter_map(|i| {
                let mgr = self.read(i);
                let summed = mgr.elements().map(CacheElement::approx_bytes).sum();
                (mgr.used_bytes() != summed).then_some((i, mgr.used_bytes(), summed))
            })
            .collect()
    }

    /// The stored form of an element, taken under the shard's read lock
    /// and used after it is released.
    fn repr_of(&self, id: ElemId) -> Result<Repr> {
        self.read(self.shard_of_id(id)).repr_of(id)
    }

    /// Build the compensation pipeline for a derivation. The returned
    /// [`Generator`] owns its inputs (`Arc`-shared with the element), so
    /// it stays valid after the lock is released; hold a [`PinGuard`]
    /// while streaming to keep the element itself resident.
    ///
    /// # Errors
    /// Returns an error if the element is gone or a projection variable
    /// is unavailable.
    pub fn derive(&self, id: ElemId, derivation: &Derivation, vars: &[&str]) -> Result<Generator> {
        crate::cache::derive(id, &self.repr_of(id)?, derivation, vars)
    }

    /// Cache-model rows across all shards, ordered by element id.
    pub fn model(&self) -> Vec<ModelRow> {
        let mut rows: Vec<ModelRow> = (0..self.shards.len())
            .flat_map(|i| self.read(i).model())
            .collect();
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Ids of elements still carrying a session pin. After every
    /// [`AnswerStream`](crate::AnswerStream) of every session has been
    /// dropped this must be empty — the pin-balance invariant the
    /// simulation oracle (and the concurrency tests) check.
    pub fn leaked_session_pins(&self) -> Vec<ElemId> {
        let mut ids: Vec<ElemId> = Vec::new();
        for i in 0..self.shards.len() {
            let mgr = self.read(i);
            ids.extend(mgr.elements().filter(|e| e.pin_count > 0).map(|e| e.id));
        }
        ids.sort_unstable();
        ids
    }
}

impl CacheRead for SharedCache {
    fn relevant(&self, q: &ConjunctiveQuery) -> Vec<CandidateUse> {
        let mut out = Vec::new();
        for idx in self.shards_of_query(q) {
            let mgr = self.read(idx);
            out.extend(mgr.relevant(q));
            self.publish_tests(idx, &mgr);
        }
        out
    }

    fn whole_subsumers(&self, q: &ConjunctiveQuery) -> Vec<(ElemId, Derivation)> {
        let mut out = Vec::new();
        for idx in self.shards_of_query(q) {
            let mgr = self.read(idx);
            out.extend(mgr.whole_subsumers(q));
            self.publish_tests(idx, &mgr);
        }
        out
    }

    fn exact_lookup(&self, q: &ConjunctiveQuery) -> Option<ElemId> {
        self.read(self.home_shard(q)).exact_lookup(q)
    }

    fn cardinality_of(&self, id: ElemId) -> Option<usize> {
        self.read(self.shard_of_id(id)).cardinality_of(id)
    }

    fn is_columnar(&self, id: ElemId) -> bool {
        self.read(self.shard_of_id(id)).is_columnar(id)
    }

    fn derive_relation(
        &self,
        id: ElemId,
        derivation: &Derivation,
        vars: &[&str],
    ) -> Result<Relation> {
        // The kernel runs outside the lock: a long scan must not hold up
        // another session's hit, which needs the shard's write lock to pin
        // and touch.
        crate::cache::derive_relation(id, &self.repr_of(id)?, derivation, vars)
    }
}

/// A held session pin: while alive, the pinned element cannot be evicted,
/// so an open generator streaming from it stays valid. Dropping the guard
/// releases the pin.
#[derive(Debug)]
pub struct PinGuard {
    cache: Arc<SharedCache>,
    id: ElemId,
}

impl PinGuard {
    /// The pinned element.
    pub fn id(&self) -> ElemId {
        self.id
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.cache.unpin_raw(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;
    use braid_relational::{tuple, Schema};

    fn metrics() -> Arc<CmsMetrics> {
        Arc::new(CmsMetrics::new())
    }

    fn def(src: &str) -> ViewDef {
        ViewDef::new(parse_rule(src).unwrap()).unwrap()
    }

    fn rel(n: usize) -> Relation {
        let mut r = Relation::new(Schema::of_strs("e", &["x", "y"]));
        for i in 0..n {
            r.insert(tuple![format!("k{i}"), format!("v{i}")]).unwrap();
        }
        r
    }

    #[test]
    fn routing_is_footprint_stable_and_ids_unique() {
        let c = SharedCache::new(usize::MAX, 4, metrics());
        let mut ids = Vec::new();
        for rel_name in ["b1", "b2", "b3", "b4", "b5", "b6"] {
            let d = def(&format!("v(X, Y) :- {rel_name}(X, Y)."));
            let (id, _) = c.insert_with_aliases(d, rel(2).into(), &[]);
            ids.push(id.unwrap());
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids unique across shards");
        // Lookup by an equivalent query finds the element wherever it is.
        for rel_name in ["b1", "b2", "b3", "b4", "b5", "b6"] {
            let q = parse_rule(&format!("q(A, B) :- {rel_name}(A, B).")).unwrap();
            assert!(c.exact_lookup(&q).is_some(), "{rel_name} reachable");
        }
    }

    #[test]
    fn subsumption_candidates_found_across_shard_counts() {
        // Same content, different shard counts: candidate sets agree.
        for shards in [1usize, 2, 4, 8] {
            let c = SharedCache::new(usize::MAX, shards, metrics());
            c.insert_with_aliases(def("v(X, Y) :- b3(X, Y)."), rel(3).into(), &[]);
            let q = parse_rule("q(A) :- b3(A, v1).").unwrap();
            assert_eq!(c.relevant(&q).len(), 1, "shards={shards}");
            assert_eq!(c.whole_subsumers(&q).len(), 1, "shards={shards}");
        }
    }

    #[test]
    fn duplicate_definitions_collapse_to_one_element() {
        let c = SharedCache::new(usize::MAX, 2, metrics());
        let (a, _) = c.insert_with_aliases(def("v(X, Y) :- b1(X, Y)."), rel(2).into(), &[]);
        let (b, _) = c.insert_with_aliases(def("w(P, Q) :- b1(P, Q)."), rel(2).into(), &[]);
        assert_eq!(a, b, "second racing insert reuses the first element");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pin_guard_blocks_eviction_and_releases_on_drop() {
        let unit =
            CacheElement::new(0, def("e(X, Y) :- b1(X, Y)."), rel(3).into(), 0).approx_bytes();
        let c = Arc::new(SharedCache::new(unit * 2 + 64, 1, metrics()));
        let (a, _) = c.insert_with_aliases(def("a(X, Y) :- b1(X, Y)."), rel(3).into(), &[]);
        let a = a.unwrap();
        let guard = c.try_pin(a).expect("element present");
        // Pressure: inserting two more elements evicts around the pin.
        c.insert_with_aliases(def("b(X, Y) :- b2(X, Y)."), rel(3).into(), &[]);
        c.insert_with_aliases(def("d(X, Y) :- b3(X, Y)."), rel(3).into(), &[]);
        assert!(
            c.with_element(a, |_| ()).is_some(),
            "pinned element survived the storm"
        );
        drop(guard);
        assert_eq!(c.with_element(a, |e| e.pin_count), Some(0));
        // Gone elements cannot be pinned.
        assert!(c.try_pin(9999).is_none());
    }

    #[test]
    fn used_bytes_matches_reconciled_sum() {
        let c = SharedCache::new(usize::MAX, 4, metrics());
        for rel_name in ["b1", "b2", "b3"] {
            let d = def(&format!("v(X, Y) :- {rel_name}(X, Y)."));
            c.insert_with_aliases(d, rel(4).into(), &[]);
        }
        assert!(c.byte_drift().is_empty(), "accounting is exact");
        assert_eq!(
            c.used_bytes(),
            c.model().iter().map(|r| r.bytes).sum::<usize>()
        );
    }
}
