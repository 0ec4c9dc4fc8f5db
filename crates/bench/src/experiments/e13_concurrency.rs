//! E13 — concurrent multi-session CMS: shared cache + single-flight.
//!
//! The paper's interaction protocol is "a set of sessions" (§3), and the
//! CMS is "a main memory relational DBMS" serving all of them — but one
//! workstation rarely runs a single IE session at a time. This experiment
//! drives N concurrent sessions (`BraidSystem::session_owned` under
//! `std::thread::scope`) against ONE shared cache and compares the remote
//! server's tuple operations with N fully independent systems, each
//! owning a private cache of the same per-session capacity share.
//!
//! Two sharing mechanisms are at work and reported separately: cache
//! reuse (a session hits an element a sibling fetched earlier) and
//! single-flight deduplication (two sessions missing on
//! subsumption-equivalent queries at the same instant share one fetch,
//! counted as `dedup_hits`). Shard-lock contention (`shard lock waits`)
//! and the server-side concurrency high-water mark (`peak inflight`) show
//! what the concurrency costs.

use crate::experiments::support::{binary_relation, ratio};
use crate::table::Table;
use braid::{BraidConfig, BraidSystem, CombinedMetrics};
use braid_cms::CmsConfig;
use braid_ie::{KnowledgeBase, Strategy};
use braid_remote::{Catalog, LatencyModel};

const STRATEGY: Strategy = Strategy::ConjunctionCompiled;

fn catalog(rows: usize, keys: usize) -> Catalog {
    let mut c = Catalog::new();
    c.install(binary_relation("fam", rows, keys, 13));
    c
}

fn kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.declare_base("fam", 2);
    kb.add_program("look(K, V) :- fam(K, V).").unwrap();
    kb
}

fn config(capacity: usize, shards: usize, latency: LatencyModel) -> BraidConfig {
    let mut bc = BraidConfig::with_cms(
        CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false)
            .with_capacity(capacity)
            .with_shards(shards),
    );
    bc.latency = latency;
    bc
}

/// The per-session query list: `queries` distinct key selections over
/// `fam`, identical across sessions — the best case for sharing, and the
/// workload where independent caches waste the most remote work.
fn workload(queries: usize, keys: usize) -> Vec<String> {
    (0..queries)
        .map(|i| format!("?- look(k{}, V).", i % keys))
        .collect()
}

/// Drive `sessions` concurrent sessions of ONE system over the workload.
pub fn run_shared(
    rows: usize,
    keys: usize,
    queries: usize,
    sessions: usize,
    capacity: usize,
    shards: usize,
    latency: LatencyModel,
) -> CombinedMetrics {
    let system = BraidSystem::new(catalog(rows, keys), kb(), config(capacity, shards, latency));
    let qs = workload(queries, keys);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                let mut sess = system.session_owned();
                let qs = &qs;
                s.spawn(move || {
                    for q in qs {
                        sess.solve_all(q, STRATEGY).expect("healthy link");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("session thread");
        }
    });
    system.metrics()
}

/// The baseline: `sessions` fully independent systems (private cache of
/// the same per-session capacity share, private remote counter), run one
/// after another. Returns the summed metrics.
pub fn run_independent(
    rows: usize,
    keys: usize,
    queries: usize,
    sessions: usize,
    capacity: usize,
) -> u64 {
    let per_session = if capacity == usize::MAX {
        usize::MAX
    } else {
        capacity / sessions.max(1)
    };
    let qs = workload(queries, keys);
    let mut server_ops = 0u64;
    for _ in 0..sessions {
        let mut system = BraidSystem::new(
            catalog(rows, keys),
            kb(),
            config(per_session, 1, LatencyModel::Counted),
        );
        for q in &qs {
            system.solve_all(q, STRATEGY).expect("healthy link");
        }
        server_ops += system.metrics().remote.server_tuple_ops;
    }
    server_ops
}

/// Run E13.
pub fn run(quick: bool) -> Table {
    let rows = if quick { 160 } else { 480 };
    let keys = 16;
    let queries = if quick { 24 } else { 48 };
    let session_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    // A tiny per-unit sleep widens the fetch windows so concurrent misses
    // actually overlap and the single-flight layer has work to do.
    let latency = LatencyModel::Real { unit_micros: 2 };

    let mut t = Table::new(
        format!(
            "E13 concurrent sessions — {queries} queries/session over {keys} keys, \
             shared cache vs independent caches"
        ),
        &[
            "sessions x capacity",
            "shared server ops",
            "indep server ops",
            "saved",
            "dedup hits",
            "flight fetches",
            "lock waits",
            "peak inflight",
        ],
    );

    // Element footprint is ~rows/keys tuples; 1/4 of the full extension
    // forces eviction churn, MAX removes capacity from the picture.
    let unit = rows * 48;
    for &sessions in session_counts {
        for (cap_label, capacity) in [("1/4", unit / 4), ("max", usize::MAX)] {
            let shards = sessions.min(4);
            let m = run_shared(rows, keys, queries, sessions, capacity, shards, latency);
            let indep = run_independent(rows, keys, queries, sessions, capacity);
            t.row(vec![
                format!("{sessions} x {cap_label}"),
                m.remote.server_tuple_ops.to_string(),
                indep.to_string(),
                ratio(indep as f64, m.remote.server_tuple_ops.max(1) as f64),
                m.cms.dedup_hits.to_string(),
                m.cms.flight_fetches.to_string(),
                m.cms.shard_lock_waits.to_string(),
                m.remote.peak_inflight_requests.to_string(),
            ]);
        }
    }

    t.note(
        "N sessions over one shared cache do at most the remote work of a \
         single session: whichever session misses first fetches for \
         everyone (and simultaneous misses collapse into one fetch via \
         single-flight, the dedup-hits column). Independent caches repeat \
         the same fetches N times, and under a capacity budget each \
         private cache also thrashes at 1/N of the shared capacity. Lock \
         waits stay small because the cache is sharded by base-relation \
         footprint; peak inflight confirms the sessions really did \
         overlap at the server.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: usize = 160;
    const KEYS: usize = 16;
    const QUERIES: usize = 24;

    #[test]
    fn shared_cache_never_does_more_remote_work_than_independent() {
        for sessions in [2usize, 4] {
            let m = run_shared(
                ROWS,
                KEYS,
                QUERIES,
                sessions,
                usize::MAX,
                sessions,
                LatencyModel::Counted,
            );
            let indep = run_independent(ROWS, KEYS, QUERIES, sessions, usize::MAX);
            assert!(
                m.remote.server_tuple_ops <= indep,
                "sessions={sessions}: shared {} > independent {indep}",
                m.remote.server_tuple_ops
            );
            // Every fetch that went through the flight table is accounted
            // either as a led fetch or a dedup hit.
            assert!(m.cms.flight_fetches > 0);
        }
    }

    #[test]
    fn single_session_shared_equals_independent() {
        let m = run_shared(ROWS, KEYS, QUERIES, 1, usize::MAX, 1, LatencyModel::Counted);
        let indep = run_independent(ROWS, KEYS, QUERIES, 1, usize::MAX);
        assert_eq!(m.remote.server_tuple_ops, indep);
    }

    #[test]
    fn independent_baseline_is_deterministic() {
        let a = run_independent(ROWS, KEYS, QUERIES, 3, usize::MAX);
        let b = run_independent(ROWS, KEYS, QUERIES, 3, usize::MAX);
        assert_eq!(a, b);
    }
}
