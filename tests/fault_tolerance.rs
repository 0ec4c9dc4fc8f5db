//! Chaos tests: the genealogy workload driven over a faulty
//! workstation–server link.
//!
//! Invariants under seeded fault injection:
//!
//! 1. Every query terminates — with an answer or a typed error, never a
//!    panic or a hang.
//! 2. Any answer tagged `Completeness::Exact` is identical to the answer
//!    a fault-free run produces.
//! 3. Under a sustained outage, cache-covered queries still answer Exact
//!    and uncovered queries degrade to explicit Partial answers.
//! 4. Recovery is deterministic: same fault seed, same workload → same
//!    per-query outcomes.

use braid::{
    BraidConfig, BraidError, CheckedSolutions, CmsConfig, Completeness, FaultPlan, IeError,
    ResilienceConfig, Strategy, Tuple,
};
use braid_workload::genealogy;
use proptest::prelude::*;

const STRATEGY: Strategy = Strategy::ConjunctionCompiled;

fn scenario() -> braid_workload::Scenario {
    genealogy::scenario(3, 2, 42, 12)
}

fn config(resilience: ResilienceConfig, faults: Option<FaultPlan>) -> BraidConfig {
    let mut c = BraidConfig::with_cms(CmsConfig::braid().with_resilience(resilience));
    c.faults = faults;
    c
}

/// The ground truth: every query answered over a perfectly healthy link.
fn fault_free_answers(sc: &braid_workload::Scenario) -> Vec<Vec<Tuple>> {
    let mut sys = sc.system(config(ResilienceConfig::none(), None));
    sc.queries
        .iter()
        .map(|q| sys.solve_all(q, STRATEGY).expect("fault-free run solves"))
        .collect()
}

#[test]
fn flaky_link_with_retries_completes_the_whole_workload_exactly() {
    let sc = scenario();
    let truth = fault_free_answers(&sc);

    // 20% transient-fault rate; 5 retries with capped backoff.
    let faults = FaultPlan::seeded(7).with_transient_failures(0.20);
    let resilience = ResilienceConfig::none()
        .with_retries(5)
        .with_backoff(16, 256);
    let mut sys = sc.system(config(resilience, Some(faults)));

    for (q, expected) in sc.queries.iter().zip(&truth) {
        let got = sys
            .solve_checked(q, STRATEGY)
            .unwrap_or_else(|e| panic!("query `{q}` failed under retries: {e}"));
        assert!(got.is_exact(), "query `{q}` should recover to Exact");
        assert_eq!(&got.solutions, expected, "query `{q}` answers diverge");
    }

    let m = sys.metrics();
    assert!(
        m.remote.faults_injected > 0,
        "faults were actually injected"
    );
    assert!(m.cms.retries > 0, "recovery actually retried");
}

#[test]
fn flaky_link_recovery_is_deterministic() {
    let sc = scenario();
    let run = || -> Vec<CheckedSolutions> {
        let faults = FaultPlan::seeded(7)
            .with_transient_failures(0.25)
            .with_disconnects(0.10, 3);
        let resilience = ResilienceConfig::none()
            .with_retries(6)
            .with_backoff(16, 256)
            .with_breaker(5, 2)
            .with_degraded_mode(true);
        let mut sys = sc.system(config(resilience, Some(faults)));
        sc.queries
            .iter()
            .map(|q| {
                sys.solve_checked(q, STRATEGY)
                    .expect("degraded mode never errors")
            })
            .collect()
    };
    assert_eq!(run(), run(), "same seed, same workload, same outcomes");
}

#[test]
fn sustained_outage_splits_covered_exact_from_uncovered_partial() {
    let sc = scenario();
    let truth = fault_free_answers(&sc);
    let resilience = ResilienceConfig::none()
        .with_retries(2)
        .with_backoff(8, 64)
        .with_degraded_mode(true);

    // Warm phase: answer the full workload over a healthy link, then the
    // server goes away for good.
    let mut sys = sc.system(config(resilience.clone(), None));
    for q in &sc.queries {
        sys.solve_all(q, STRATEGY).expect("warm run solves");
    }
    sys.cms()
        .remote()
        .set_fault_plan(Some(FaultPlan::seeded(1).with_outage(0, u64::MAX)));

    // Covered: every repeated query is answerable from the cache alone,
    // and subsumption proves it — still Exact, still byte-identical.
    for (q, expected) in sc.queries.iter().zip(&truth) {
        let got = sys
            .solve_checked(q, STRATEGY)
            .unwrap_or_else(|e| panic!("covered query `{q}` failed during outage: {e}"));
        assert!(
            got.is_exact(),
            "covered query `{q}` should stay Exact during the outage"
        );
        assert_eq!(&got.solutions, expected, "covered query `{q}` diverged");
    }

    // Uncovered: a cold system behind the same dead link can only
    // degrade — explicit Partial answers naming the missing subqueries.
    let mut cold = sc.system(
        config(resilience, None), // install plan after construction
    );
    cold.cms()
        .remote()
        .set_fault_plan(Some(FaultPlan::seeded(1).with_outage(0, u64::MAX)));
    let got = cold
        .solve_checked(&sc.queries[0], STRATEGY)
        .expect("degraded mode answers instead of failing");
    match got.completeness {
        Completeness::Partial {
            ref missing_subqueries,
        } => {
            assert!(
                !missing_subqueries.is_empty(),
                "partial answers name what is missing"
            );
        }
        Completeness::Exact => panic!("cold cache + dead link cannot be Exact"),
    }
}

#[test]
fn outage_without_degraded_mode_surfaces_typed_errors() {
    let sc = scenario();
    let faults = FaultPlan::seeded(1).with_outage(0, u64::MAX);
    let resilience = ResilienceConfig::none().with_retries(1);
    let mut sys = sc.system(config(resilience, Some(faults)));
    let err = sys
        .solve_checked(&sc.queries[0], STRATEGY)
        .expect_err("cold cache + dead link + no degradation must error");
    // The error is structured all the way down: BraidError → IeError →
    // CmsError (transient, Exhausted-wrapping-Unavailable), reachable
    // both by matching and by walking the std `source()` chain.
    match &err {
        BraidError::Cms(e) => assert!(e.is_transient(), "outage error is transient: {e}"),
        BraidError::Ie(IeError::Cms(e)) => {
            assert!(e.is_transient(), "outage error is transient: {e}");
        }
        other => panic!("unexpected error kind: {other}"),
    }
    let mut depth = 0;
    let mut cur: &dyn std::error::Error = &err;
    while let Some(next) = cur.source() {
        cur = next;
        depth += 1;
    }
    assert!(depth >= 2, "source() chain reaches the remote fault");
}

#[test]
fn concurrent_sessions_survive_chaos_with_honest_completeness() {
    // Faults fire while N sessions drive the workload over one shared
    // cache. Invariants, per session: every query terminates (answer or
    // typed error — the scope join itself rules out hangs and panics),
    // every Exact answer is byte-identical to the fault-free run, and
    // every degraded answer is honestly tagged Partial.
    let sc = scenario();
    let truth = fault_free_answers(&sc);
    let faults = FaultPlan::seeded(23)
        .with_transient_failures(0.25)
        .with_disconnects(0.10, 3)
        .with_latency_spikes(0.05, 100);
    let resilience = ResilienceConfig::none()
        .with_retries(4)
        .with_backoff(16, 128)
        .with_breaker(5, 2)
        .with_degraded_mode(true);
    let mut cfg = config(resilience, Some(faults));
    cfg.cms = cfg.cms.with_shards(4);
    let system = sc.system(cfg);

    const SESSIONS: usize = 4;
    let outcomes: Vec<Vec<Result<CheckedSolutions, BraidError>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|_| {
                let mut sess = system.session_owned();
                let queries = &sc.queries;
                s.spawn(move || {
                    queries
                        .iter()
                        .map(|q| sess.solve_checked(q, STRATEGY))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut exact = 0usize;
    for (si, session) in outcomes.iter().enumerate() {
        for (qi, outcome) in session.iter().enumerate() {
            match outcome {
                Ok(got) => {
                    if got.is_exact() {
                        exact += 1;
                        assert_eq!(
                            &got.solutions, &truth[qi],
                            "session {si}: Exact answer for `{}` diverged",
                            sc.queries[qi]
                        );
                    } else {
                        // Honest degradation: a Partial answer names
                        // what is missing.
                        match &got.completeness {
                            Completeness::Partial { missing_subqueries } => {
                                assert!(
                                    !missing_subqueries.is_empty(),
                                    "session {si}: Partial without missing subqueries"
                                );
                            }
                            Completeness::Exact => unreachable!(),
                        }
                    }
                }
                Err(e) => {
                    // Degraded mode absorbs transient faults; only
                    // typed, non-parse errors may surface.
                    assert!(
                        !matches!(e, BraidError::Parse(_)),
                        "session {si}: workload queries always parse: {e}"
                    );
                }
            }
        }
    }
    assert!(
        exact > 0,
        "with retries and a shared cache, some answers recover to Exact"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn chaos_terminates_and_exact_answers_match_fault_free(
        seed in 0u64..1_000_000,
        fault_prob_pct in 5u64..45,
        disconnect_pct in 0u64..20,
    ) {
        let sc = scenario();
        let truth = fault_free_answers(&sc);
        let faults = FaultPlan::seeded(seed)
            .with_transient_failures(fault_prob_pct as f64 / 100.0)
            .with_disconnects(disconnect_pct as f64 / 100.0, 2)
            .with_latency_spikes(0.05, 100);
        let resilience = ResilienceConfig::none()
            .with_retries(3)
            .with_backoff(16, 128)
            .with_breaker(4, 3)
            .with_degraded_mode(true);
        let mut sys = sc.system(config(resilience, Some(faults)));
        for (q, expected) in sc.queries.iter().zip(&truth) {
            // Invariant 1: terminates with an answer or a typed error.
            match sys.solve_checked(q, STRATEGY) {
                Ok(got) => {
                    // Invariant 2: Exact answers are byte-identical to
                    // the fault-free run.
                    if got.is_exact() {
                        prop_assert_eq!(&got.solutions, expected);
                    }
                }
                Err(e) => {
                    // Degraded mode converts transient failures into
                    // partial answers; only hard errors may surface.
                    prop_assert!(
                        !matches!(e, BraidError::Parse(_)),
                        "workload queries always parse: {}", e
                    );
                }
            }
        }
    }
}
