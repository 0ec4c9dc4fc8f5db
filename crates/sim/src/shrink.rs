//! Scenario shrinking: minimize a failing scenario while preserving the
//! failure, in the order that keeps repros readable — drop queries
//! first, then faults, then whole sessions, and only then touch cache
//! capacity. Every candidate is re-run through the deterministic
//! scheduler, so the result is exactly as reproducible as the original.

use crate::run::{run_scenario, Lane, SimOptions, SimReport};
use crate::scenario::SimScenario;

/// Outcome of a shrink.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized scenario (still failing).
    pub scenario: SimScenario,
    /// Scenario executions spent shrinking.
    pub runs: usize,
    /// The report of the final failing run.
    pub report: Option<SimReport>,
}

/// Does this scenario still fail? A harness-level error counts as a
/// failure too (a scenario that breaks the runner is worth keeping).
fn fails(sc: &SimScenario, opts: &SimOptions) -> (bool, Option<SimReport>) {
    match run_scenario(sc, Lane::Stepped, opts) {
        Ok(r) => (!r.passed(), Some(r)),
        Err(_) => (true, None),
    }
}

/// Remove query `i` of session `s`, and the matching dispatch (the
/// `i+1`-th occurrence of `s`) from the schedule.
fn remove_query(sc: &SimScenario, s: usize, i: usize) -> SimScenario {
    let mut out = sc.clone();
    out.sessions[s].remove(i);
    let mut seen = 0usize;
    if let Some(pos) = out.schedule.iter().position(|&x| {
        if x == s {
            seen += 1;
            seen == i + 1
        } else {
            false
        }
    }) {
        out.schedule.remove(pos);
    }
    out
}

/// Remove session `s` entirely (its queries, its dispatches, and shift
/// higher session indices down).
fn remove_session(sc: &SimScenario, s: usize) -> SimScenario {
    let mut out = sc.clone();
    out.sessions.remove(s);
    out.schedule.retain(|&x| x != s);
    for x in &mut out.schedule {
        if *x > s {
            *x -= 1;
        }
    }
    out
}

/// Minimize `sc`, which must fail under `opts`. Deterministic: the same
/// failing scenario always shrinks to the same minimum.
pub fn shrink(sc: &SimScenario, opts: &SimOptions) -> ShrinkOutcome {
    let mut cur = sc.clone();
    let mut runs = 0usize;
    let mut last_report = None;
    let try_keep = |cur: &mut SimScenario,
                    cand: SimScenario,
                    runs: &mut usize,
                    last: &mut Option<SimReport>|
     -> bool {
        *runs += 1;
        let (still_fails, report) = fails(&cand, opts);
        if still_fails {
            *cur = cand;
            *last = report;
            true
        } else {
            false
        }
    };

    loop {
        let mut improved = false;

        // Pass 1: drop queries, one at a time, until none can go.
        'queries: loop {
            for s in 0..cur.sessions.len() {
                for i in (0..cur.sessions[s].len()).rev() {
                    let cand = remove_query(&cur, s, i);
                    if try_keep(&mut cur, cand, &mut runs, &mut last_report) {
                        improved = true;
                        continue 'queries;
                    }
                }
            }
            break;
        }

        // Pass 2: drop or simplify faults.
        if cur.faults.is_some() {
            let mut cand = cur.clone();
            cand.faults = None;
            if try_keep(&mut cur, cand, &mut runs, &mut last_report) {
                improved = true;
            } else {
                let zeroings: Vec<fn(&mut crate::scenario::FaultSpec)> = vec![
                    |f| f.transient_permille = 0,
                    |f| f.timeout_permille = 0,
                    |f| f.latency_spike_permille = 0,
                    |f| f.disconnect_permille = 0,
                    |f| f.outages.clear(),
                ];
                for zero in zeroings {
                    let mut cand = cur.clone();
                    let spec = cand.faults.as_mut().expect("checked above");
                    zero(spec);
                    if cand != cur && try_keep(&mut cur, cand, &mut runs, &mut last_report) {
                        improved = true;
                    }
                }
            }
        }

        // Pass 3: drop whole sessions (emptied ones go for free).
        'sessions: loop {
            if cur.sessions.len() <= 1 {
                break;
            }
            for s in (0..cur.sessions.len()).rev() {
                if cur.sessions[s].is_empty() {
                    cur = remove_session(&cur, s);
                    improved = true;
                    continue 'sessions;
                }
                let cand = remove_session(&cur, s);
                if try_keep(&mut cur, cand, &mut runs, &mut last_report) {
                    improved = true;
                    continue 'sessions;
                }
            }
            break;
        }
        // A lone empty session can remain if the failure is end-of-run
        // only; keep it, the scenario must stay valid.

        // Pass 4: capacity. Prefer removing the pressure knob entirely;
        // if the failure needs it, leave it untouched.
        if cur.capacity_bytes.is_some() {
            let mut cand = cur.clone();
            cand.capacity_bytes = None;
            if try_keep(&mut cur, cand, &mut runs, &mut last_report) {
                improved = true;
            }
        }

        if !improved {
            break;
        }
    }

    if last_report.is_none() {
        let (_, report) = fails(&cur, opts);
        runs += 1;
        last_report = report;
    }
    ShrinkOutcome {
        scenario: cur,
        runs,
        report: last_report,
    }
}

/// Render a ready-to-paste regression test for a (shrunk) scenario.
pub fn regression_test(name: &str, sc: &SimScenario) -> String {
    let json = sc.to_json();
    format!(
        "#[test]\n\
         fn {name}() {{\n\
         \x20   // Shrunk from seed {seed}; replays deterministically.\n\
         \x20   let sc = braid_sim::SimScenario::from_json(r##\"{json}\"##).expect(\"scenario parses\");\n\
         \x20   let report = braid_sim::run_scenario(&sc, braid_sim::Lane::Stepped, &braid_sim::SimOptions::default())\n\
         \x20       .expect(\"harness runs\");\n\
         \x20   assert!(report.passed(), \"{{:#?}}\", report.violations);\n\
         }}\n",
        seed = sc.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::SimBug;

    #[test]
    fn schedule_stays_consistent_under_mutations() {
        for seed in 0..50u64 {
            let sc = SimScenario::generate(seed);
            for s in 0..sc.sessions.len() {
                for i in 0..sc.sessions[s].len() {
                    remove_query(&sc, s, i).validate().expect("query removal");
                }
                if sc.sessions.len() > 1 {
                    remove_session(&sc, s).validate().expect("session removal");
                }
            }
        }
    }

    #[test]
    fn shrinks_an_injected_bug_to_a_tiny_repro() {
        // DropLastTuple{every:1} fails on the first non-empty answer, so
        // the minimum is one query (plus whatever the oracle needs).
        let sc = (0..100u64)
            .map(SimScenario::generate)
            .find(|s| !s.faults_active() && s.query_count() >= 6)
            .expect("fault-free scenario");
        let opts = SimOptions {
            bug: SimBug::DropLastTuple { every: 1 },
            ..SimOptions::default()
        };
        let (failing, _) = fails(&sc, &opts);
        assert!(failing, "bug must make the scenario fail");
        let out = shrink(&sc, &opts);
        assert!(
            out.scenario.query_count() <= 3,
            "repro must be ≤3 queries, got {}",
            out.scenario.query_count()
        );
        assert_eq!(out.scenario.sessions.len(), 1);
        // Determinism: shrinking again lands on the identical scenario.
        let again = shrink(&sc, &opts);
        assert_eq!(again.scenario, out.scenario);
        assert_eq!(again.runs, out.runs);
    }

    #[test]
    fn regression_test_embeds_a_replayable_scenario() {
        let sc = SimScenario::generate(11);
        let src = regression_test("repro_seed_11", &sc);
        assert!(src.contains("braid_sim::SimScenario::from_json"));
        // The embedded JSON must survive extraction.
        let start = src.find("r##\"").unwrap() + 4;
        let end = src.find("\"##").unwrap();
        let back = SimScenario::from_json(&src[start..end]).expect("embedded JSON parses");
        assert_eq!(back, sc);
    }
}
