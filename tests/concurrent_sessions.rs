//! Concurrent multi-session tests: N inference sessions over ONE shared
//! CMS cache (the paper's "set of sessions", §3).
//!
//! Invariants:
//!
//! 1. Differential: every session of a concurrent run gets answers
//!    byte-identical to a serial single-session run of the same queries —
//!    whatever the interleaving, whatever another session did to the
//!    cache.
//! 2. Single-flight: sessions missing on the same subquery at the same
//!    instant share one remote fetch (`dedup_hits > 0`), and a shared
//!    cache never costs the remote more than independent caches would.
//! 3. Pinning: an open lazy stream keeps its cache element resident
//!    through a concurrent eviction storm, and releases the pin on drop.
//! 4. Structural: shared-cache accounting survives concurrent hammering
//!    (exact byte accounting, globally unique ids, pinned never evicted).

use std::sync::{Arc, Barrier};

use braid::{BraidConfig, BraidSystem, CmsConfig, Strategy, Tuple};
use braid_caql::parse_rule;
use braid_cms::{Cms, CmsMetrics, SharedCache};
use braid_relational::{tuple, ColumnarRelation, Relation, Schema};
use braid_remote::{Catalog, LatencyModel, RemoteDbms};
use braid_subsume::ViewDef;
use braid_workload::{genealogy, suppliers, Scenario};
use proptest::prelude::*;

const STRATEGY: Strategy = Strategy::ConjunctionCompiled;

fn shared_config(shards: usize) -> BraidConfig {
    BraidConfig::with_cms(CmsConfig::braid().with_shards(shards))
}

/// Serial ground truth: a fresh single-session system answers the
/// workload alone.
fn serial_answers(sc: &Scenario, config: &BraidConfig) -> Vec<Vec<Tuple>> {
    let mut sys = sc.system(config.clone());
    sc.queries
        .iter()
        .map(|q| sys.solve_all(q, STRATEGY).expect("serial run solves"))
        .collect()
}

/// Invariant 1 on a scenario: `sessions` concurrent sessions, each
/// issuing the whole workload starting at a different offset (so the
/// cache is warmed in a different order from each session's point of
/// view), all match the serial run query-for-query.
fn assert_concurrent_matches_serial(sc: &Scenario, sessions: usize, shards: usize) {
    let config = shared_config(shards);
    let truth = serial_answers(sc, &config);
    let system = sc.system(config);
    let n_queries = sc.queries.len();

    let per_session: Vec<Vec<Vec<Tuple>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|si| {
                let mut sess = system.session_owned();
                let queries = &sc.queries;
                s.spawn(move || {
                    // Rotated issue order; answers are indexed back to
                    // the canonical query positions for comparison.
                    let mut got = vec![Vec::new(); n_queries];
                    for off in 0..n_queries {
                        let qi = (si + off) % n_queries;
                        got[qi] = sess
                            .solve_all(&queries[qi], STRATEGY)
                            .expect("concurrent session solves");
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (si, got) in per_session.iter().enumerate() {
        for (qi, answers) in got.iter().enumerate() {
            assert_eq!(
                answers, &truth[qi],
                "session {si}, query `{}` diverged from the serial run",
                sc.queries[qi]
            );
        }
    }
}

#[test]
fn genealogy_concurrent_sessions_match_serial() {
    let sc = genealogy::scenario(3, 2, 42, 10);
    assert_concurrent_matches_serial(&sc, 4, 4);
}

#[test]
fn suppliers_concurrent_sessions_match_serial() {
    let sc = suppliers::scenario(24, 8, 7, 10);
    assert_concurrent_matches_serial(&sc, 3, 2);
}

#[test]
fn one_shard_concurrent_sessions_match_serial() {
    // shards = 1 is the default configuration: every session contends on
    // one lock, the differential guarantee must hold regardless.
    let sc = genealogy::scenario(3, 2, 9, 8);
    assert_concurrent_matches_serial(&sc, 4, 1);
}

// Schedule-diversity stress now lives in the simulation harness: `just
// soak` drives seeded scenarios (SIM_SEED_START/SIM_ROUNDS env vars)
// through both the deterministic step scheduler and the threaded runner
// of braid-sim, oracle-checking every answer against the reference
// model — strictly stronger than the fixed 25-round loop that used to
// sit here behind #[ignore]. A cheap fixed-seed smoke stays in
// scripts/ci.sh.

// ---------------------------------------------------------------------
// Invariant 2: single-flight deduplication across sessions.
// ---------------------------------------------------------------------

fn lookup_catalog(rows: usize, keys: usize) -> Catalog {
    let mut r = Relation::new(Schema::of_strs("fam", &["k", "v"]));
    for i in 0..rows {
        r.insert(tuple![format!("k{}", i % keys), format!("v{i}")])
            .unwrap();
    }
    let mut c = Catalog::new();
    c.install(r);
    c
}

#[test]
fn simultaneous_equivalent_misses_share_one_fetch() {
    // Overlap is timing-dependent: a barrier releases all sessions into
    // the same cold miss and a real (sleeping) latency model keeps the
    // leader's fetch in flight long enough for the others to join it.
    // One overlapping round suffices, so a few attempts make the test
    // robust without making it slow.
    const SESSIONS: usize = 4;
    const ATTEMPTS: usize = 10;
    for attempt in 0..ATTEMPTS {
        let mut kb = braid::KnowledgeBase::new();
        kb.declare_base("fam", 2);
        kb.add_program("look(K, V) :- fam(K, V).").unwrap();
        let mut config = BraidConfig::with_cms(
            CmsConfig::braid()
                .with_prefetching(false)
                .with_shards(SESSIONS),
        );
        config.latency = LatencyModel::Real { unit_micros: 10 };
        let system = BraidSystem::new(lookup_catalog(400, 8), kb, config);

        let barrier = Arc::new(Barrier::new(SESSIONS));
        std::thread::scope(|s| {
            for _ in 0..SESSIONS {
                let mut sess = system.session_owned();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    let answers = sess
                        .solve_all("?- look(k3, V).", STRATEGY)
                        .expect("healthy link");
                    assert_eq!(answers.len(), 400 / 8);
                });
            }
        });

        let m = system.metrics();
        if m.cms.dedup_hits > 0 {
            assert!(m.cms.flight_fetches >= 1, "a dedup hit implies a led fetch");
            // The whole point: fewer remote fetches than sessions.
            assert!(
                m.remote.requests < SESSIONS as u64,
                "dedup should save remote requests, got {}",
                m.remote.requests
            );
            return;
        }
        eprintln!("attempt {attempt}: no overlap this round, retrying");
    }
    panic!("no single-flight dedup in {ATTEMPTS} barrier-synchronized attempts");
}

#[test]
fn shared_cache_does_no_more_remote_work_than_independent_caches() {
    // N sessions over one shared cache against N private systems running
    // the same key look-ups: whichever session misses first fetches for
    // everyone, so the shared run's server work is bounded by the
    // independent runs' sum (and equals it for a single session).
    const KEYS: usize = 16;
    let queries: Vec<String> = (0..24)
        .map(|i| format!("?- look(k{}, V).", i % KEYS))
        .collect();
    let system = |shards: usize| {
        let mut kb = braid::KnowledgeBase::new();
        kb.declare_base("fam", 2);
        kb.add_program("look(K, V) :- fam(K, V).").unwrap();
        let config = BraidConfig::with_cms(
            CmsConfig::braid()
                .with_prefetching(false)
                .with_generalization(false)
                .with_shards(shards),
        );
        BraidSystem::new(lookup_catalog(160, KEYS), kb, config)
    };
    let mut alone = system(1);
    for q in &queries {
        alone.solve_all(q, STRATEGY).expect("healthy link");
    }
    let independent = alone.metrics().remote.server_tuple_ops;

    for sessions in [1usize, 2, 4] {
        let shared = system(sessions);
        std::thread::scope(|s| {
            for _ in 0..sessions {
                let (mut sess, queries) = (shared.session_owned(), &queries);
                s.spawn(move || {
                    for q in queries {
                        sess.solve_all(q, STRATEGY).expect("healthy link");
                    }
                });
            }
        });
        let m = shared.metrics();
        assert!(
            m.remote.server_tuple_ops <= independent * sessions as u64,
            "sessions={sessions}: shared {} > independent {}",
            m.remote.server_tuple_ops,
            independent * sessions as u64
        );
        if sessions == 1 {
            assert_eq!(m.remote.server_tuple_ops, independent);
        }
        // Every remote fetch went through the flight table.
        assert!(m.cms.flight_fetches > 0);
    }
}

// ---------------------------------------------------------------------
// Invariant 3: session pins vs concurrent eviction pressure.
// ---------------------------------------------------------------------

#[test]
fn open_lazy_stream_survives_concurrent_eviction_storm() {
    // A cache barely big enough for the warmed element plus one more:
    // every storm insert forces an eviction decision.
    let remote = RemoteDbms::with_defaults(lookup_catalog(64, 8));
    let config = CmsConfig::braid()
        .with_prefetching(false)
        .with_lazy(true)
        .with_capacity(16 * 1024)
        .with_shards(1);
    let mut cms = Cms::new(remote, config);

    // Warm the whole relation, then reopen it lazily: a single all-cache
    // part with an all-variable head takes the generator path and holds a
    // session pin on the element.
    cms.query(parse_rule("w(K, V) :- fam(K, V).").unwrap())
        .expect("warm run")
        .drain();
    let stream = cms
        .query(parse_rule("l(K, V) :- fam(K, V).").unwrap())
        .expect("lazy reopen");

    let cache = Arc::clone(cms.shared_cache());
    let pinned = cache.leaked_session_pins();
    assert_eq!(pinned.len(), 1, "the open stream holds exactly one pin");
    let pinned_id = pinned[0];

    // Storm: concurrent sessions hammer the cache with distinct
    // selections, each insert competing for the tiny capacity.
    std::thread::scope(|s| {
        for t in 0..4 {
            let mut sess = cms.fork_session();
            s.spawn(move || {
                for i in 0..8 {
                    let rule = format!("s{t}_{i}(V) :- fam(k{}, V).", (t * 8 + i) % 8);
                    sess.query(parse_rule(&rule).unwrap())
                        .expect("storm query")
                        .drain();
                }
            });
        }
    });

    assert!(
        cache.with_element(pinned_id, |_| ()).is_some(),
        "pinned element evicted while its stream was open"
    );

    // The stream still delivers the full, correct extension.
    let got = stream.drain();
    assert_eq!(got.len(), 64, "lazy stream complete after the storm");

    // Draining consumed the stream; its pin guard is gone.
    assert_eq!(
        cache.with_element(pinned_id, |e| e.pin_count),
        Some(0),
        "pin released once the stream is dropped"
    );
}

// ---------------------------------------------------------------------
// Invariant 4: shared-cache structural invariants under concurrency.
// ---------------------------------------------------------------------

fn view(def_src: &str) -> ViewDef {
    ViewDef::new(parse_rule(def_src).unwrap()).unwrap()
}

fn payload(rows: usize) -> Arc<ColumnarRelation> {
    let mut r = Relation::new(Schema::of_strs("p", &["x", "y"]));
    for i in 0..rows {
        r.insert(tuple![format!("x{i}"), format!("y{i}")]).unwrap();
    }
    Arc::new(ColumnarRelation::from_relation(&r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn shared_cache_invariants_hold_under_concurrent_hammering(
        threads in 1usize..5,
        shards in 1usize..5,
        seed in 0u64..1000,
        capacity_kb in 4usize..64,
    ) {
        let cache = Arc::new(SharedCache::new(
            capacity_kb * 1024,
            shards,
            Arc::new(CmsMetrics::new()),
        ));

        std::thread::scope(|s| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..24 {
                        // Deterministic per-thread op mix, decorrelated
                        // across proptest cases by the seed.
                        let x = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add((t * 100 + i) as u64);
                        let rel = format!("b{}", x % 7);
                        let d = view(&format!("v{t}_{i}(X, Y) :- {rel}(X, Y)."));
                        let rows = 1 + (x % 13) as usize;
                        let (id, _) = cache.insert_with_aliases(
                            d,
                            payload(rows),
                            &[],
                        );
                        let Some(id) = id else { continue };
                        match x % 3 {
                            0 => cache.touch(id),
                            1 => {
                                // Pin, apply pressure, verify survival.
                                if let Some(guard) = cache.try_pin(id) {
                                    let d2 = view(&format!(
                                        "pp{t}_{i}(X, Y) :- {rel}(X, Y)."
                                    ));
                                    cache.insert_with_aliases(
                                        d2,
                                        payload(16),
                                        &[],
                                    );
                                    assert!(
                                        cache.with_element(guard.id(), |_| ()).is_some(),
                                        "pinned element evicted"
                                    );
                                }
                            }
                            _ => {}
                        }
                    }
                });
            }
        });

        // Ids are globally unique across shards.
        let rows = cache.model();
        let mut ids: Vec<_> = rows.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let before_dedup = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before_dedup, "duplicate element ids");

        // Byte accounting is exact: every shard's tracked bytes equal the
        // sum over its elements.
        prop_assert_eq!(cache.byte_drift(), Vec::new(), "byte accounting drifted");

        // No session pins are left behind.
        prop_assert!(
            cache.leaked_session_pins().is_empty(),
            "leaked session pins"
        );
    }
}
