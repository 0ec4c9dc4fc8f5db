//! E17 — resumable sessions on a fixed worker pool vs thread-per-session.
//!
//! The paper's front-end is "a set of sessions" (§3), and N *threads*
//! sharing one cache already do the remote work of one. But a workstation
//! serving many clients cannot afford a kernel thread per session: the
//! cooperative lane runs each session as a resumable [`SessionTask`]
//! state machine on a fixed [`WorkerPool`], parking at single-flight
//! joins instead of blocking an OS thread. This experiment drives the
//! pool lane to 10,000 concurrent sessions on 8 workers — a scale where
//! thread-per-session is off the table — and runs the threaded baseline
//! at the largest scale that is still reasonable (hundreds of threads),
//! comparing per-query p99 latency from the shared `query_latency_us`
//! histogram plus the scheduler counters (parked, wakes, run-queue
//! high-water) that show how much cooperative yielding actually happened.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::experiments::support::binary_relation;
use crate::table::Table;
use braid::{
    BraidConfig, BraidSystem, CombinedMetrics, Completeness, PoolConfig, SessionTask, WorkerPool,
};
use braid_cms::CmsConfig;
use braid_ie::{KnowledgeBase, Strategy};
use braid_remote::{Catalog, LatencyModel};

const STRATEGY: Strategy = Strategy::ConjunctionCompiled;

fn catalog(rows: usize, keys: usize) -> Catalog {
    let mut c = Catalog::new();
    c.install(binary_relation("fam", rows, keys, 17));
    c
}

fn kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.declare_base("fam", 2);
    kb.add_program("look(K, V) :- fam(K, V).").unwrap();
    kb
}

fn config(latency: LatencyModel) -> BraidConfig {
    let mut bc = BraidConfig::with_cms(
        CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false)
            .with_shards(4),
    );
    bc.latency = latency;
    bc
}

fn workload(keys: usize) -> Vec<String> {
    (0..keys).map(|k| format!("?- look(k{k}, V).")).collect()
}

/// Each session walks `queries` keys starting at its own offset, so the
/// cold-cache window has *different* sessions missing on *different*
/// keys at the same instant — concurrent leaders plus coop joiners.
fn session_queries(session: usize, queries: usize, qs: &[String]) -> Vec<String> {
    (0..queries)
        .map(|j| qs[(session + j) % qs.len()].clone())
        .collect()
}

/// One lane's outcome, shared between the table and the tests.
pub struct LaneResult {
    pub metrics: CombinedMetrics,
    pub answers: u64,
    pub exact: u64,
    pub elapsed: Duration,
    pub panicked: u64,
}

/// Pool lane: `sessions` resumable [`SessionTask`]s multiplexed onto
/// `workers` fixed threads, all sharing one cache.
pub fn run_pool(
    rows: usize,
    keys: usize,
    queries: usize,
    sessions: usize,
    workers: usize,
    latency: LatencyModel,
) -> LaneResult {
    let system = BraidSystem::new(catalog(rows, keys), kb(), config(latency));
    let qs = workload(keys);
    let pool = WorkerPool::with_metrics(
        PoolConfig {
            workers,
            step_budget: 8,
        },
        system.cms().metrics_handle(),
    );
    let answers = Arc::new(AtomicU64::new(0));
    let exact = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    for s in 0..sessions {
        let answers = Arc::clone(&answers);
        let exact = Arc::clone(&exact);
        pool.spawn(Box::new(SessionTask::new(
            system.session_owned(),
            session_queries(s, queries, &qs),
            STRATEGY,
            move |_, result| {
                answers.fetch_add(1, Ordering::Relaxed);
                if matches!(&result, Ok(a) if a.completeness == Completeness::Exact) {
                    exact.fetch_add(1, Ordering::Relaxed);
                }
            },
        )));
    }
    pool.join();
    let elapsed = start.elapsed();
    let snap = pool.snapshot();
    pool.shutdown();
    LaneResult {
        metrics: system.metrics(),
        answers: answers.load(Ordering::Relaxed),
        exact: exact.load(Ordering::Relaxed),
        elapsed,
        panicked: snap.panicked,
    }
}

/// Baseline lane: one OS thread per session over the same shared cache.
pub fn run_threaded(
    rows: usize,
    keys: usize,
    queries: usize,
    sessions: usize,
    latency: LatencyModel,
) -> LaneResult {
    let system = BraidSystem::new(catalog(rows, keys), kb(), config(latency));
    let qs = workload(keys);
    let answers = AtomicU64::new(0);
    let exact = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..sessions {
            let mut sess = system.session_owned();
            let list = session_queries(s, queries, &qs);
            let answers = &answers;
            let exact = &exact;
            scope.spawn(move || {
                for q in &list {
                    let a = sess.solve_checked(q, STRATEGY).expect("healthy link");
                    answers.fetch_add(1, Ordering::Relaxed);
                    if a.completeness == Completeness::Exact {
                        exact.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    LaneResult {
        metrics: system.metrics(),
        answers: answers.load(Ordering::Relaxed),
        exact: exact.load(Ordering::Relaxed),
        elapsed,
        panicked: 0,
    }
}

/// Run E17.
pub fn run(quick: bool) -> Table {
    let rows = if quick { 160 } else { 480 };
    let keys = 16;
    let queries = if quick { 4 } else { 8 };
    let pool_sessions = if quick { 1_000 } else { 10_000 };
    let thread_sessions = if quick { 128 } else { 512 };
    let workers = 8;
    // A tiny per-unit sleep: wide enough fetch windows that cold-cache
    // misses overlap and joiners actually park.
    let latency = LatencyModel::Real { unit_micros: 2 };

    let mut t = Table::new(
        format!(
            "E17 session scheduling — {queries} queries/session over {keys} keys, \
             fixed {workers}-worker pool vs thread-per-session"
        ),
        &[
            "lane",
            "sessions",
            "threads",
            "answers",
            "exact",
            "p99 us",
            "parked",
            "wakes",
            "peak runq",
            "elapsed ms",
        ],
    );

    let th = run_threaded(rows, keys, queries, thread_sessions, latency);
    assert_eq!(th.exact, th.answers, "threaded lane produced partials");
    t.row(vec![
        "thread-per-session".into(),
        thread_sessions.to_string(),
        thread_sessions.to_string(),
        th.answers.to_string(),
        th.exact.to_string(),
        th.metrics.cms.query_latency_us.p99().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        th.elapsed.as_millis().to_string(),
    ]);

    let pl = run_pool(rows, keys, queries, pool_sessions, workers, latency);
    assert_eq!(pl.panicked, 0, "pool lane panicked");
    assert_eq!(pl.exact, pl.answers, "pool lane produced partials");
    assert_eq!(
        pl.answers,
        (pool_sessions * queries) as u64,
        "pool lane lost answers"
    );
    t.row(vec![
        format!("pool ({workers} workers)"),
        pool_sessions.to_string(),
        workers.to_string(),
        pl.answers.to_string(),
        pl.exact.to_string(),
        pl.metrics.cms.query_latency_us.p99().to_string(),
        pl.metrics.cms.sessions_parked.to_string(),
        pl.metrics.cms.wakes.to_string(),
        pl.metrics.cms.run_queue_depth.to_string(),
        pl.elapsed.as_millis().to_string(),
    ]);

    t.note(
        "Thread-per-session stops scaling at hundreds of sessions (stack \
         and scheduler cost per kernel thread), so the baseline runs at \
         its practical ceiling while the pool lane multiplexes 10,000 \
         resumable session state machines onto 8 fixed workers. Every \
         answer in both lanes is Exact. `parked`/`wakes` count coop \
         suspensions at single-flight joins (equal at quiescence — no \
         leaked wakers); `peak runq` is the ready-queue high-water mark, \
         i.e. how many sessions were runnable at once at the worst \
         moment. p99 comes from the shared per-query latency histogram.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: usize = 160;
    const KEYS: usize = 16;
    const QUERIES: usize = 4;

    #[test]
    fn pool_lane_completes_all_sessions_exactly() {
        let r = run_pool(ROWS, KEYS, QUERIES, 256, 4, LatencyModel::Counted);
        assert_eq!(r.panicked, 0);
        assert_eq!(r.answers, (256 * QUERIES) as u64);
        assert_eq!(r.exact, r.answers);
        // Coop conservation: every park was matched by exactly one wake.
        assert_eq!(r.metrics.cms.wakes, r.metrics.cms.sessions_parked);
    }

    #[test]
    fn pool_lane_outnumbers_its_workers() {
        // 256 sessions on 2 workers: completion itself is the claim.
        let r = run_pool(ROWS, KEYS, QUERIES, 256, 2, LatencyModel::Counted);
        assert_eq!(r.answers, (256 * QUERIES) as u64);
        assert_eq!(r.exact, r.answers);
    }

    #[test]
    fn threaded_baseline_is_all_exact() {
        let r = run_threaded(ROWS, KEYS, QUERIES, 32, LatencyModel::Counted);
        assert_eq!(r.answers, (32 * QUERIES) as u64);
        assert_eq!(r.exact, r.answers);
    }
}
