//! Cooperative multi-session tests: N resumable [`SessionTask`] state
//! machines multiplexed onto a fixed [`WorkerPool`], sharing ONE CMS
//! cache — the pool-backed sibling of `concurrent_sessions.rs`.
//!
//! Invariants:
//!
//! 1. Differential: every session of a pool run gets answers
//!    byte-identical to a serial single-session run of the same queries,
//!    whatever the worker count, step budget, or park/resume schedule.
//! 2. Liveness: no session starves — even a ONE-worker pool with a
//!    step budget of 1 finishes every session of every workload (the
//!    FIFO ready queue guarantees each parked-then-woken session gets
//!    its turn).
//! 3. Conservation: at quiescence every coop park was matched by exactly
//!    one wake (no leaked wakers) and no single-flight entry stays open.

use std::sync::{Arc, Mutex};

use braid::{BraidConfig, CmsConfig, PoolConfig, SessionTask, Strategy, Tuple, WorkerPool};
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

/// Drive `sessions` [`SessionTask`]s over one shared cache, each issuing
/// the whole workload from a rotated offset. Returns per-session answers
/// indexed back to canonical query positions, after asserting the
/// scheduler's conservation invariants.
fn run_coop(
    sc: &Scenario,
    config: BraidConfig,
    sessions: usize,
    workers: usize,
    step_budget: usize,
) -> Vec<Vec<Vec<Tuple>>> {
    let system = sc.system(config);
    let n = sc.queries.len();
    let pool = WorkerPool::with_metrics(
        PoolConfig {
            workers,
            step_budget,
        },
        system.cms().metrics_handle(),
    );

    // One slot per (session, canonical query); `None` = never answered,
    // so a starved or dropped query is distinguishable from an empty
    // answer set.
    type SessionLog = Arc<Mutex<Vec<Option<Vec<Tuple>>>>>;
    let logs: Vec<SessionLog> = (0..sessions)
        .map(|_| Arc::new(Mutex::new(vec![None; n])))
        .collect();

    for (si, slot) in logs.iter().enumerate() {
        let list: Vec<String> = (0..n)
            .map(|off| sc.queries[(si + off) % n].clone())
            .collect();
        let log = Arc::clone(slot);
        pool.spawn(Box::new(SessionTask::new(
            system.session_owned(),
            list,
            STRATEGY,
            move |off, result| {
                let qi = (si + off) % n;
                let a = result.expect("coop session solves");
                log.lock().unwrap()[qi] = Some(a.solutions);
            },
        )));
    }

    pool.join();
    let snap = pool.snapshot();
    pool.shutdown();
    assert_eq!(snap.panicked, 0, "a session task panicked");
    assert_eq!(system.cms().open_flights(), 0, "leaked single-flight entry");
    let m = system.metrics().cms;
    assert_eq!(m.wakes, m.sessions_parked, "leaked or duplicated wakers");

    logs.into_iter()
        .map(|l| {
            let got = Arc::try_unwrap(l)
                .expect("finished task still holds its log")
                .into_inner()
                .unwrap();
            got.into_iter()
                .enumerate()
                .map(|(qi, a)| a.unwrap_or_else(|| panic!("query {qi} never answered")))
                .collect()
        })
        .collect()
}

fn assert_coop_matches_serial(
    sc: &Scenario,
    sessions: usize,
    workers: usize,
    step_budget: usize,
    shards: usize,
) {
    let config = shared_config(shards);
    let truth = serial_answers(sc, &config);
    let per_session = run_coop(sc, config, sessions, workers, step_budget);
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
fn genealogy_coop_sessions_match_serial() {
    let sc = genealogy::scenario(3, 2, 42, 10);
    assert_coop_matches_serial(&sc, 8, 3, 4, 4);
}

#[test]
fn suppliers_coop_sessions_match_serial() {
    let sc = suppliers::scenario(24, 8, 7, 10);
    assert_coop_matches_serial(&sc, 6, 2, 8, 2);
}

#[test]
fn more_sessions_than_workers_match_serial() {
    // 16 sessions on a single worker: pure cooperative interleaving,
    // every park must round-trip through the ready queue.
    let sc = genealogy::scenario(3, 2, 9, 8);
    assert_coop_matches_serial(&sc, 16, 1, 2, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Invariant 2: a one-worker pool with the smallest legal step budget
    /// still finishes every session (run_coop panics on any unanswered
    /// query) and still matches the serial run byte-for-byte.
    #[test]
    fn no_session_starves_on_a_one_worker_pool(
        seed in 0u64..200,
        sessions in 2usize..7,
        queries in 3usize..8,
    ) {
        let sc = genealogy::scenario(2, 2, seed, queries);
        assert_coop_matches_serial(&sc, sessions, 1, 1, 2);
    }
}

/// One cache, one cold miss, two kinds of session: a blocking caller on a
/// plain thread and a [`SessionTask`] on a worker pool. Whichever gets
/// there first leads the fetch; the other joins it — the blocking caller
/// by parking its thread, the task by parking the session — and both
/// read the same bytes off one remote request.
#[test]
fn blocking_and_pool_sessions_share_one_fetch() {
    use braid::{BraidSystem, LatencyModel};
    use braid_relational::{tuple, Relation, Schema};

    const QUERY: &str = "?- look(k3, V).";
    const ATTEMPTS: usize = 10;

    let system = || {
        let mut fam = Relation::new(Schema::of_strs("fam", &["k", "v"]));
        for i in 0..400 {
            fam.insert(tuple![format!("k{}", i % 8), format!("v{i}")])
                .unwrap();
        }
        let mut db = braid::Catalog::new();
        db.install(fam);
        let mut kb = braid::KnowledgeBase::new();
        kb.declare_base("fam", 2);
        kb.add_program("look(K, V) :- fam(K, V).").unwrap();
        let mut config = BraidConfig::with_cms(CmsConfig::braid().with_prefetching(false));
        // A sleeping latency model keeps the leader's fetch in flight
        // long enough for the other session to arrive.
        config.latency = LatencyModel::Real { unit_micros: 10 };
        BraidSystem::new(db, kb, config)
    };
    // Spin until the first session's flight is open (or, if we blinked,
    // already over — the attempt then retries).
    let leader_registered = |system: &BraidSystem| {
        while system.cms().open_flights() == 0 && system.metrics().cms.flight_fetches == 0 {
            std::thread::yield_now();
        }
    };

    for pool_leads in [false, true] {
        let mut overlapped = false;
        for _ in 0..ATTEMPTS {
            let system = system();
            let pool = WorkerPool::with_metrics(
                PoolConfig {
                    workers: 1,
                    step_budget: 4,
                },
                system.cms().metrics_handle(),
            );
            let pooled: Arc<Mutex<Option<Vec<Tuple>>>> = Arc::default();
            let task = {
                let sink = Arc::clone(&pooled);
                Box::new(SessionTask::new(
                    system.session_owned(),
                    vec![QUERY.to_string()],
                    STRATEGY,
                    move |_, r| {
                        *sink.lock().unwrap() = Some(r.expect("pool session solves").solutions)
                    },
                ))
            };
            let mut blocking = system.session_owned();
            let blocked = std::thread::scope(|s| {
                if pool_leads {
                    pool.spawn(task);
                    leader_registered(&system);
                    blocking.solve_all(QUERY, STRATEGY)
                } else {
                    let caller = s.spawn(|| blocking.solve_all(QUERY, STRATEGY));
                    leader_registered(&system);
                    pool.spawn(task);
                    caller.join().unwrap()
                }
            })
            .expect("blocking session solves");
            pool.join();
            pool.shutdown();

            let pooled = pooled.lock().unwrap().take().expect("task answered");
            assert_eq!(blocked, pooled, "both sessions read the same answer");
            assert_eq!(blocked.len(), 400 / 8);
            let m = system.metrics();
            assert_eq!(m.cms.wakes, m.cms.sessions_parked, "leaked waker");
            assert_eq!(system.cms().open_flights(), 0, "leaked flight");
            // A joining task parks its session; a joining blocking caller
            // parks its thread and counts the shared fetch on the spot.
            // (A task's `dedup_hits` bump is not a reliable witness: its
            // re-poll may find the leader's result already cached.)
            let joined = if pool_leads {
                m.cms.dedup_hits == 1
            } else {
                m.cms.sessions_parked == 1
            };
            if !joined {
                // The leader landed before the joiner arrived; the second
                // session was served from the cache instead. Try again.
                continue;
            }
            assert_eq!(m.cms.flight_fetches, 1, "one leader");
            assert_eq!(m.remote.requests, 1, "one round trip for both");
            overlapped = true;
            break;
        }
        assert!(
            overlapped,
            "no overlap in {ATTEMPTS} attempts (pool_leads = {pool_leads})"
        );
    }
}
