//! Integration suite for the deterministic simulation harness (DESIGN.md
//! §10): a seeded smoke sweep, the seed-stability guard pinning the
//! generator's output, the bug-injection meta-test proving the oracle +
//! shrinker actually work, and the EXPLAIN differential (answers through
//! `solve_explained` must be byte-identical to `solve_checked`, faults
//! included) with a golden `ExplainSummary` for a degraded-mode solve.

use braid::Strategy;
use braid_sim::{
    build_system, regression_test, run_scenario, shrink, Dataset, FaultSpec, Lane, SimBug,
    SimOptions, SimReport, SimRng, SimScenario, ViolationKind,
};

// ---------------------------------------------------------------------
// Seeded smoke sweep (a disjoint seed range from the ci.sh sweep).
// ---------------------------------------------------------------------

/// The stepped digest of seeds 1000..1040, in seed order. A change that
/// claims "answers unchanged" keeps this list; one that moves a digest
/// must say why and update it.
const FORTY_SEED_DIGESTS: [u64; 40] = [
    0xca1c2bb2f825df17,
    0xa39476ea13541936,
    0x332bf0a6619c828d,
    0x93bbfc362cea5147,
    0xa9eb1c6c27c9d395,
    0x9b03ea4563756df9,
    0xc3830c62103cdf16,
    0xddaedbae23d1188b,
    0x8dfe34e7f44075ea,
    0x0f755b310a7f2cb8,
    0x3d4f006b1ce96229,
    0xe1b725031b572da4,
    0xc6bc0645fcd5e85e,
    0xabf501557de9c016,
    0x47e0fdacd3a5eb62,
    0x9817d3affcb9b65c,
    0xf8cb830b29901f78,
    0x20c27f2b176f0209,
    0x8c3d4c05611e8952,
    0x3cdadaea351eadb1,
    0x6b85a27c7e700e04,
    0xf1dd52ba2d57f939,
    0x02775b61c33fee58,
    0xf271b72acf7411ca,
    0xfcc7934f98b8bbc4,
    0x0fc14405b66ff5f2,
    0x324fe4c4b5698774,
    0xa31b05c9a55d9538,
    0xf0a1568972316b06,
    0xb9f9e94460c29116,
    0x8599ac6b081a2590,
    0x012defa4da6a3392,
    0x48368a58cc42969f,
    0x2e5b8bafa153b5de,
    0x95df286619c0c3e2,
    0x20e03ba3aeb82d8d,
    0xf53103a0700d0982,
    0xa92feec00c7719eb,
    0x0dcd21741db2e1da,
    0x054f89831d6da64c,
];

#[test]
fn forty_seeded_scenarios_pass_every_oracle() {
    let opts = SimOptions::default();
    for (seed, want) in (1000..1040u64).zip(FORTY_SEED_DIGESTS) {
        let sc = SimScenario::generate(seed);
        let report = run_scenario(&sc, Lane::Stepped, &opts).expect("harness runs");
        assert!(
            report.passed(),
            "seed {seed} failed:\n{:#?}\nscenario: {}",
            report.violations,
            sc.to_json()
        );
        assert_eq!(
            report.digest, want,
            "seed {seed}: stepped digest {:#018x} moved",
            report.digest
        );
    }
}

// ---------------------------------------------------------------------
// A large cache: the generator's scenarios cache a handful of views, so
// these two hand-built ones put the candidate index under a thousand
// point views over one predicate — `grandparent(pᵢ, pⱼ)` for every pair
// of a 31-person tree, then `grandparent(pᵢ, Y)` and `grandparent(X, pⱼ)`
// (filed under constants in different positions and atoms), then all
// 1,023 again in shuffled order. The bounded variant holds a fraction of
// them, so evictions (and index removals) interleave with the lookups.
// ---------------------------------------------------------------------

fn large_cache_scenario(capacity_bytes: Option<u64>) -> SimScenario {
    let persons = braid_workload::genealogy::person_count(4, 2);
    let mut queries: Vec<String> = (0..persons)
        .flat_map(|i| (0..persons).map(move |j| format!("?- grandparent(p{i}, p{j}).")))
        .collect();
    queries.extend((0..persons).map(|i| format!("?- grandparent(p{i}, Y).")));
    queries.extend((0..persons).map(|j| format!("?- grandparent(X, p{j}).")));
    let mut again = queries.clone();
    let mut rng = SimRng::new(0x1a7e);
    for i in (1..again.len()).rev() {
        again.swap(i, rng.below(i as u64 + 1) as usize);
    }
    queries.extend(again);
    SimScenario {
        seed: 0,
        dataset: Dataset::Genealogy {
            generations: 4,
            branching: 2,
            seed: 11,
        },
        strategy: Strategy::ConjunctionCompiled,
        schedule: vec![0; queries.len()],
        sessions: vec![queries],
        capacity_bytes,
        shards: 2,
        batch_size: 32,
        lazy: true,
        // No speculative fetches: every point query caches its own view.
        prefetch: false,
        generalization: false,
        subsumption: true,
        faults: None,
    }
}

#[test]
fn a_thousand_point_views_answer_exactly_on_every_lane() {
    let opts = SimOptions::default();
    for capacity in [None, Some(48_000)] {
        let sc = large_cache_scenario(capacity);
        assert!(sc.query_count() >= 2_000);
        for lane in Lane::ALL.into_iter().filter(|lane| lane.accepts(&sc)) {
            let report = run_scenario(&sc, lane, &opts).expect("harness runs");
            assert!(
                report.passed(),
                "{lane:?}, capacity {capacity:?}: {:#?}",
                report.violations
            );
            assert_eq!(report.exact, sc.query_count(), "{lane:?}: all Exact");
        }
    }
}

// ---------------------------------------------------------------------
// Front-door coverage: the procs lane drives client codec → `BraidServer`
// → `ConnTask`, the path the pinned benchmark times. Thread spawn mode
// here (a libtest binary cannot self-exec as a worker process);
// crates/load/tests/multiprocess.rs runs the same lane on real forks.
// ---------------------------------------------------------------------

#[test]
fn quiet_multi_session_seeds_pass_through_the_front_door() {
    let opts = SimOptions::default();
    let quiet: Vec<SimScenario> = (0..64u64)
        .map(SimScenario::generate)
        .filter(|sc| !sc.faults_active() && sc.sessions.len() >= 2)
        .take(5)
        .collect();
    assert_eq!(
        quiet.len(),
        5,
        "seeds 0..64 hold five quiet multi-session scenarios"
    );
    for sc in &quiet {
        let report = run_scenario(sc, Lane::Procs, &opts).expect("harness runs");
        assert!(
            report.passed(),
            "seed {} failed:\n{:#?}\nscenario: {}",
            sc.seed,
            report.violations,
            sc.to_json()
        );
        assert_eq!(report.solves, sc.query_count(), "seed {}", sc.seed);
        assert_eq!(report.exact, report.solves, "quiet answers are all Exact");
    }
}

#[test]
fn the_procs_lane_refuses_fault_injecting_scenarios() {
    let faulted = (0..200u64)
        .map(SimScenario::generate)
        .find(SimScenario::faults_active)
        .expect("generator produces faulted scenarios");
    assert!(!Lane::Procs.accepts(&faulted));
    assert!(Lane::ALL[..4].iter().all(|lane| lane.accepts(&faulted)));
    let err = run_scenario(&faulted, Lane::Procs, &SimOptions::default())
        .expect_err("an injected error would read as a bug on this lane");
    assert!(err.contains("fault-injecting"), "{err}");
}

// ---------------------------------------------------------------------
// Seed stability: the scenario generated for a fixed seed is pinned, so
// any change to the generator (new knobs, reordered draws) is a visible,
// deliberate diff — otherwise every "replayable" seed silently changes
// meaning.
// ---------------------------------------------------------------------

#[test]
fn generated_scenario_for_seed_42_is_pinned() {
    let golden = r#"{"seed":42,"dataset":{"kind":"genealogy","generations":3,"branching":2,"seed":3858},"strategy":"interpreted","sessions":[["?- ancestor(X, p14).","?- elder_parent(p10, Y).","?- grandparent(p6, Y).","?- uncle(p1, Y)."],["?- uncle(X, Y).","?- sibling(X, Y)."],["?- grandparent(p13, p10).","?- grandparent(p4, Y).","?- uncle(X, Y)."]],"schedule":[1,1,2,0,0,2,0,2,0],"capacity_bytes":null,"shards":4,"batch_size":7,"lazy":true,"prefetch":true,"generalization":false,"subsumption":false,"faults":null}"#;
    let sc = SimScenario::generate(42);
    assert_eq!(
        sc.to_json(),
        golden,
        "the scenario for seed 42 changed — if the generator change is \
         deliberate, update this golden and note it in CHANGES.md"
    );
    // And the pinned text replays into the identical scenario.
    assert_eq!(SimScenario::from_json(golden).expect("golden parses"), sc);
}

// ---------------------------------------------------------------------
// Meta-test: a known bug (drop one tuple from every non-empty answer, the
// signature of a skipped remainder subquery) must be *caught* by the
// oracle and *shrunk* to a tiny repro — deterministically.
// ---------------------------------------------------------------------

/// First generated fault-free scenario with enough queries and data-bearing
/// answers to make shrinking meaningful.
fn meaty_quiet_scenario() -> SimScenario {
    let opts = SimOptions::default();
    (0..200u64)
        .map(SimScenario::generate)
        .find(|sc| {
            !sc.faults_active()
                && sc.query_count() >= 6
                && run_scenario(sc, Lane::Stepped, &opts)
                    .is_ok_and(|r| r.passed() && r.nonempty_answers > 1)
        })
        .expect("seeds 0..200 contain a meaty fault-free scenario")
}

#[test]
fn injected_bug_is_caught_and_shrunk_to_a_tiny_repro() {
    let sc = meaty_quiet_scenario();
    let opts = SimOptions {
        bug: SimBug::DropLastTuple { every: 1 },
        ..SimOptions::default()
    };

    let buggy: SimReport = run_scenario(&sc, Lane::Stepped, &opts).expect("harness runs");
    assert!(
        buggy
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::AnswerMismatch),
        "oracle must flag the dropped tuple, got {:#?}",
        buggy.violations
    );

    let shrunk = shrink(&sc, &opts);
    assert!(
        shrunk.scenario.query_count() <= 3,
        "shrinker must reduce the repro to <=3 queries, got {} ({})",
        shrunk.scenario.query_count(),
        shrunk.scenario.to_json()
    );
    let final_report = shrunk.report.as_ref().expect("shrunk scenario re-ran");
    assert!(!final_report.passed(), "shrunk scenario must still fail");

    // Fully deterministic: catching and shrinking again is identical.
    let buggy2 = run_scenario(&sc, Lane::Stepped, &opts).expect("harness runs");
    assert_eq!(buggy, buggy2, "bug detection must replay bit-for-bit");
    let shrunk2 = shrink(&sc, &opts);
    assert_eq!(shrunk2.scenario, shrunk.scenario);
    assert_eq!(shrunk2.runs, shrunk.runs);

    // The emitted regression test embeds the shrunk scenario verbatim.
    let src = regression_test("repro_meta", &shrunk.scenario);
    let start = src.find("r##\"").expect("raw string open") + 4;
    let end = src.find("\"##").expect("raw string close");
    assert_eq!(
        SimScenario::from_json(&src[start..end]).expect("embedded JSON parses"),
        shrunk.scenario
    );
}

// ---------------------------------------------------------------------
// EXPLAIN differential: `solve_explained` must return byte-identical
// answers (solutions AND completeness) to `solve_checked` when driving
// two identically-configured systems through the same faulted schedule —
// attaching the explain ring must never change what is answered.
// ---------------------------------------------------------------------

#[test]
fn solve_explained_matches_solve_checked_under_faults() {
    let sc = (0..200u64)
        .map(SimScenario::generate)
        .find(|s| s.faults_active() && s.query_count() >= 4)
        .expect("generator produces faulted scenarios");

    let checked_sys = build_system(&sc);
    let explained_sys = build_system(&sc);
    let mut checked_sessions: Vec<_> = sc
        .sessions
        .iter()
        .map(|_| checked_sys.session_owned())
        .collect();
    let mut explained_sessions: Vec<_> = sc
        .sessions
        .iter()
        .map(|_| explained_sys.session_owned())
        .collect();

    let mut cursors = vec![0usize; sc.sessions.len()];
    for &s in &sc.schedule {
        let query = &sc.sessions[s][cursors[s]];
        cursors[s] += 1;
        let a = checked_sessions[s].solve_checked(query, sc.strategy);
        let b = explained_sessions[s].solve_explained(query, sc.strategy);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.solutions, b.solutions, "`{query}` answers diverged");
                assert_eq!(
                    a.completeness, b.completeness,
                    "`{query}` completeness diverged"
                );
                assert_eq!(a.solutions.len(), b.report.solutions);
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "`{query}` errors diverged");
            }
            (a, b) => panic!(
                "`{query}`: solve_checked -> {:?}, solve_explained -> {:?}",
                a.map(|x| x.completeness),
                b.map(|x| x.completeness)
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Golden EXPLAIN summary for a faulted, degraded-mode scenario: a total
// outage from the first remote request forces the cache-only path, and
// the summary (timing-free by construction) must be pinned exactly.
// ---------------------------------------------------------------------

#[test]
fn golden_explain_summary_for_a_degraded_solve() {
    let sc = SimScenario {
        seed: 7,
        dataset: Dataset::Genealogy {
            generations: 3,
            branching: 2,
            seed: 7,
        },
        strategy: Strategy::ConjunctionCompiled,
        sessions: vec![vec!["?- grandparent(p0, Y).".into()]],
        schedule: vec![0],
        capacity_bytes: None,
        shards: 1,
        batch_size: 32,
        lazy: false,
        prefetch: false,
        generalization: false,
        subsumption: true,
        faults: Some(FaultSpec {
            seed: 7,
            transient_permille: 0,
            timeout_permille: 0,
            latency_spike_permille: 0,
            latency_spike_units: 0,
            disconnect_permille: 0,
            disconnect_after_tuples: 0,
            outages: vec![(0, u64::MAX)],
        }),
    };
    let system = build_system(&sc);
    let mut session = system.session_owned();
    let got = session
        .solve_explained("?- grandparent(p0, Y).", sc.strategy)
        .expect("degraded mode answers instead of erroring")
        .report
        .summary();

    // Degraded mode: no remote, empty cache => zero solutions, Partial.
    assert_eq!(got.goal, "?- grandparent(p0, Y).");
    assert_eq!(got.solutions, 0);
    assert!(!got.exact, "an outage from request 0 cannot be Exact");
    assert!(
        !got.degraded.is_empty(),
        "the degraded path must be visible in EXPLAIN, got {got:#?}"
    );
    for plan in &got.plans {
        assert!(
            plan.matched_views.is_empty(),
            "nothing can be matched in a cold cache, got {got:#?}"
        );
    }

    // The run is deterministic, so the whole summary golden-compares.
    let replay_system = build_system(&sc);
    let again = replay_system
        .session_owned()
        .solve_explained("?- grandparent(p0, Y).", sc.strategy)
        .expect("replay answers")
        .report
        .summary();
    assert_eq!(got, again, "ExplainSummary must be stable across replays");
}
