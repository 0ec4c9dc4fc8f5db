//! True multi-process coverage: fork the `load` binary itself as worker
//! processes (Cargo exposes its path as `CARGO_BIN_EXE_load` to this
//! integration test) and check the whole pipe protocol — spec frame
//! down stdin, report frame up stdout — plus the oracle and the
//! server's gauge drain, with real process isolation.

use braid_bench::harness::{run_load, LoadConfig, LoadOutcome};
use braid_sim::{run_scenario, Dataset, Lane, SimOptions, SimScenario, SpawnMode};
use std::path::PathBuf;

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_load"))
}

#[test]
fn forked_processes_pass_the_oracle_open_loop() {
    // Wire tracing on and a live STATS poller running: real worker
    // processes exercise the full observability path while the oracle
    // still checks every answer.
    let out = run_load(&LoadConfig {
        procs: 2,
        conns: 2,
        queries_per_proc: 30,
        rate_per_sec: 2_000,
        workers: 2,
        spawn: SpawnMode::Process(worker_binary()),
        trace_one_in: 1,
        stats_poll_hz: 20,
        ..LoadConfig::default()
    })
    .expect("harness runs");
    assert!(out.passed(), "run failed: {out:?}");
    assert_eq!(out.total_ok(), 60);
    assert_eq!(out.merged.count(), 60, "histograms merged across processes");
    // 2 procs x 2 conns, plus the poller's side connection.
    assert_eq!(out.stats.connections_accepted, 5);
    assert_eq!(out.stats.active, 0, "connections drained");
    assert_eq!(out.pool.spawned, out.pool.finished, "pool drained");
    assert!(out.stats_polls >= 1, "poller sampled the run: {out:?}");
    assert!(
        out.peak_inflight >= 1,
        "polled snapshots saw live connections: {out:?}"
    );
}

#[test]
fn forked_processes_pass_the_oracle_closed_loop_suppliers() {
    let out = run_load(&LoadConfig {
        dataset: Dataset::Suppliers {
            parts: 12,
            fanout: 3,
            suppliers: 4,
            cities: 4,
            seed: 9,
        },
        procs: 2,
        conns: 1,
        queries_per_proc: 20,
        rate_per_sec: 0,
        workers: 2,
        spawn: SpawnMode::Process(worker_binary()),
        ..LoadConfig::default()
    })
    .expect("harness runs");
    assert!(out.passed(), "run failed: {out:?}");
    assert_eq!(out.total_ok(), 40);
}

/// `(session, solves, digest)` for every session of a run.
fn session_digests(out: &LoadOutcome) -> Vec<(u32, u64, u64)> {
    out.reports
        .iter()
        .flat_map(|r| &r.sessions)
        .map(|s| (s.session, s.solves, s.digest))
        .collect()
}

#[test]
fn process_and_thread_modes_agree_on_digests() {
    // Same config, both spawn modes, tracing and STATS polling on:
    // identical per-session digests, because each is a pure function of
    // (dataset, seed, session) whatever carries it.
    let cfg = LoadConfig {
        procs: 2,
        conns: 2,
        queries_per_proc: 25,
        rate_per_sec: 0,
        workers: 2,
        seed: 77,
        trace_one_in: 3,
        stats_poll_hz: 20,
        ..LoadConfig::default()
    };
    let threads = run_load(&cfg).expect("thread mode runs");
    let procs = run_load(&LoadConfig {
        spawn: SpawnMode::Process(worker_binary()),
        ..cfg
    })
    .expect("process mode runs");
    assert!(threads.passed() && procs.passed());
    assert_eq!(session_digests(&threads).len(), 4, "2 procs x 2 conns");
    assert_eq!(session_digests(&threads), session_digests(&procs));
}

#[test]
fn sim_scenarios_route_through_real_processes() {
    let opts = SimOptions {
        workers: 2,
        procs: 2,
        spawn: SpawnMode::Process(worker_binary()),
        ..SimOptions::default()
    };
    let mut checked = 0;
    for seed in 0..32u64 {
        let sc = SimScenario::generate(seed);
        if sc.faults_active() || sc.sessions.len() < 2 {
            continue;
        }
        let report = run_scenario(&sc, Lane::Procs, &opts).expect("lane runs");
        assert!(
            report.passed(),
            "seed {seed} violations: {:?}",
            report.violations
        );
        assert_eq!(report.solves, sc.query_count(), "seed {seed}");
        checked += 1;
        if checked == 3 {
            return;
        }
    }
    panic!("fewer than 3 quiet multi-session scenarios in the first 32 seeds");
}
