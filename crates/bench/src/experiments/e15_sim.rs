//! E15 — simulation-harness throughput and oracle coverage.
//!
//! The deterministic simulation harness (braid-sim, DESIGN.md §10) is
//! only useful if seeded scenarios are cheap enough to run by the
//! hundred in CI. This experiment measures scenarios/second for the
//! deterministic step scheduler and the threaded soak runner over a
//! fixed seed range, and reports what the generated population actually
//! exercises (faulted scenarios, capacity pressure, multi-session
//! interleavings, partial answers) so drift in the generator shows up as
//! a table change rather than silent coverage loss. Every scenario is
//! oracle-checked against the reference model; the violation column must
//! read 0.

use crate::table::Table;
use braid_sim::{run_scenario, Lane, SimOptions, SimScenario};
use std::time::Instant;

struct LaneStats {
    scenarios: usize,
    solves: usize,
    exact: usize,
    partial: usize,
    tolerated: usize,
    violations: usize,
    secs: f64,
}

fn run_lane(seeds: std::ops::Range<u64>, lane: Lane) -> LaneStats {
    let opts = SimOptions::default();
    let mut stats = LaneStats {
        scenarios: 0,
        solves: 0,
        exact: 0,
        partial: 0,
        tolerated: 0,
        violations: 0,
        secs: 0.0,
    };
    let start = Instant::now();
    for seed in seeds {
        let sc = SimScenario::generate(seed);
        let report = run_scenario(&sc, lane, &opts).expect("harness runs");
        stats.scenarios += 1;
        stats.solves += report.solves;
        stats.exact += report.exact;
        stats.partial += report.partial;
        stats.tolerated += report.tolerated_errors;
        stats.violations += report.violations.len();
    }
    stats.secs = start.elapsed().as_secs_f64();
    stats
}

fn lane_row(name: &str, s: &LaneStats) -> Vec<String> {
    vec![
        name.to_string(),
        s.scenarios.to_string(),
        s.solves.to_string(),
        format!("{:.1}", s.scenarios as f64 / s.secs.max(1e-9)),
        s.exact.to_string(),
        s.partial.to_string(),
        s.tolerated.to_string(),
        s.violations.to_string(),
    ]
}

/// Run E15.
pub fn run(quick: bool) -> Table {
    let rounds: u64 = if quick { 40 } else { 200 };
    let seeds = 0..rounds;

    let mut faulted = 0usize;
    let mut capped = 0usize;
    let mut multi = 0usize;
    for seed in seeds.clone() {
        let sc = SimScenario::generate(seed);
        faulted += usize::from(sc.faults_active());
        capped += usize::from(sc.capacity_bytes.is_some());
        multi += usize::from(sc.sessions.len() > 1);
    }

    let det = run_lane(seeds.clone(), Lane::Stepped);
    let thr = run_lane(seeds, Lane::Threads);

    let mut t = Table::new(
        format!(
            "E15 simulation harness — {rounds} seeded scenarios \
             ({faulted} faulted, {capped} capacity-capped, {multi} multi-session), \
             every answer checked against the reference model"
        ),
        &[
            "runner",
            "scenarios",
            "solves",
            "scenarios/s",
            "exact",
            "partial",
            "tolerated errs",
            "violations",
        ],
    );
    t.row(lane_row("deterministic step scheduler", &det));
    t.row(lane_row("threaded soak runner", &thr));
    t.note(
        "The deterministic lane replays bit-for-bit from the seed (serial \
         remote parts, schedule-ordered dispatch); the threaded lane runs \
         one OS thread per session over the same shared cache for real \
         schedule diversity at the cost of replayability. `partial` and \
         `tolerated errs` are expected to be non-zero exactly because some \
         scenarios inject remote faults — the oracle then checks subset \
         consistency instead of equality. A non-zero violations cell is a \
         bug; `cargo run -p braid-bench --bin sim` shrinks it to a \
         replayable repro."
            .to_string(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_structure_and_zero_violations() {
        let t = run(true);
        assert_eq!(t.headers.len(), 8);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row[7], "0", "oracle violations in {row:?}");
        }
    }
}
