//! Coupling-mode baselines: the paper's Figure 1 taxonomy, runnable
//! head-to-head.
//!
//! "Loose coupling ... uses a simple interface ... The relatively low
//! level of integration results in poor performance" (§1); BERMUDA "uses
//! a form of result caching" with exact-match reuse; Ceri et al. buffer
//! single relation extensions; BrAID adds subsumption, advice,
//! generalization, prefetching and lazy evaluation on top.

use crate::scenario::Scenario;
use braid::{BraidConfig, BraidSystem, CmsConfig, CombinedMetrics, Strategy};
use std::time::{Duration, Instant};

/// The paper's taxonomy, declared once in the CMS configuration.
pub use braid::Coupling;

/// The outcome of running a workload under one coupling mode.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The mode.
    pub mode: Coupling,
    /// Cost counters accumulated over the whole workload.
    pub metrics: CombinedMetrics,
    /// Total solutions produced (correctness cross-check).
    pub solutions: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Run a scenario's full query workload under `mode` and `strategy`.
///
/// # Panics
/// Panics if any workload query fails — workloads are constructed valid.
pub fn run(scenario: &Scenario, mode: Coupling, strategy: Strategy) -> RunResult {
    let mut system: BraidSystem = scenario.system(BraidConfig::with_cms(CmsConfig::coupled(mode)));
    let start = Instant::now();
    let mut solutions = 0usize;
    for q in &scenario.queries {
        let sols = system
            .solve_all(q, strategy)
            .unwrap_or_else(|e| panic!("workload query `{q}` failed: {e}"));
        solutions += sols.len();
    }
    RunResult {
        mode,
        metrics: system.metrics(),
        solutions,
        elapsed: start.elapsed(),
    }
}

/// Run all four coupling modes over a scenario.
pub fn run_all(scenario: &Scenario, strategy: Strategy) -> Vec<RunResult> {
    Coupling::ALL
        .into_iter()
        .map(|m| run(scenario, m, strategy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        crate::genealogy::scenario(3, 2, 17, 12)
    }

    #[test]
    fn all_modes_agree_on_solutions() {
        let s = tiny();
        let results = run_all(&s, Strategy::ConjunctionCompiled);
        let first = results[0].solutions;
        for r in &results {
            assert_eq!(
                r.solutions, first,
                "{:?} produced different answers",
                r.mode
            );
        }
    }

    #[test]
    fn braid_issues_fewest_requests() {
        let s = tiny();
        let results = run_all(&s, Strategy::ConjunctionCompiled);
        let req = |m: Coupling| {
            results
                .iter()
                .find(|r| r.mode == m)
                .map(|r| r.metrics.remote.requests)
                .expect("mode present")
        };
        assert!(
            req(Coupling::Braid) < req(Coupling::Loose),
            "braid ({}) must beat loose coupling ({})",
            req(Coupling::Braid),
            req(Coupling::Loose)
        );
        assert!(
            req(Coupling::Braid) <= req(Coupling::ExactMatch),
            "subsumption reuse at least matches exact-match"
        );
    }

    #[test]
    fn mode_labels_unique() {
        let labels: std::collections::HashSet<&str> =
            Coupling::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
