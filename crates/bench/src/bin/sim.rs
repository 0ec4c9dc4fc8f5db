//! Seeded simulation runner: generate scenarios, drive them through the
//! deterministic step scheduler, oracle-check every answer, and shrink
//! any failure to a minimal replayable repro.
//!
//! ```sh
//! cargo run --release -p braid-bench --bin sim -- --rounds 200
//! cargo run --release -p braid-bench --bin sim -- --seed 42          # one scenario, verbose
//! cargo run --release -p braid-bench --bin sim -- --rounds 50 --soak # + every other lane
//! cargo run -p braid-bench --bin sim -- --replay scenario.json
//! ```
//!
//! `SIM_SEED_START` and `SIM_ROUNDS` set the defaults (the `just soak`
//! lane drives seed ranges through them); `SIM_WORKERS` sizes the pool
//! and procs lanes' worker pool and `SIM_PROCS` the procs lane's client
//! count — under `--soak` those clients are forked copies of this
//! binary. Exit status is non-zero iff any scenario fails its oracle.

use braid_sim::{regression_test, run_scenario, shrink, Lane, SimOptions, SimScenario, SpawnMode};
use std::time::Instant;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_u64(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    // The procs lane forks this binary as its worker processes.
    braid_load::maybe_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let soak = args.iter().any(|a| a == "--soak");
    let single = args.iter().any(|a| a == "--seed") && !args.iter().any(|a| a == "--rounds");
    let seed_start = arg_u64(&args, "--seed").unwrap_or_else(|| env_u64("SIM_SEED_START", 0));
    let rounds = if single {
        1
    } else {
        arg_u64(&args, "--rounds").unwrap_or_else(|| env_u64("SIM_ROUNDS", 200))
    };
    let replay: Option<&String> = args
        .iter()
        .position(|a| a == "--replay")
        .and_then(|i| args.get(i + 1));

    let defaults = SimOptions::default();
    let opts = SimOptions {
        workers: env_u64("SIM_WORKERS", defaults.workers as u64).max(1) as usize,
        procs: env_u64("SIM_PROCS", defaults.procs as u64) as usize,
        spawn: std::env::current_exe().map_or(SpawnMode::Thread, SpawnMode::Process),
        ..defaults
    };

    if let Some(path) = replay {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("sim: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let sc = SimScenario::from_json(&json).unwrap_or_else(|e| {
            eprintln!("sim: cannot parse {path}: {e}");
            std::process::exit(2);
        });
        std::process::exit(run_one(&sc, &opts, true, soak).0);
    }

    eprintln!(
        "sim: seeds {seed_start}..{} ({rounds} rounds{})",
        seed_start + rounds,
        if soak {
            ", stepped + threads + socket + pool + procs"
        } else {
            ""
        }
    );
    let start = Instant::now();
    let (mut solves, mut runs, mut failed) = (0usize, 0usize, 0usize);
    for seed in seed_start..seed_start + rounds {
        let sc = SimScenario::generate(seed);
        solves += sc.query_count();
        let (status, lanes) = run_one(&sc, &opts, single, soak);
        runs += lanes;
        failed += usize::from(status != 0);
    }
    let dt = start.elapsed().as_secs_f64();
    eprintln!(
        "sim: {rounds} scenarios, {solves} solves, {runs} runs, {:.1} runs/s, {failed} failed",
        runs as f64 / dt.max(1e-9)
    );
    std::process::exit(i32::from(failed > 0));
}

/// Run one scenario on the stepped lane — plus, under `--soak`, every
/// other lane that accepts it. Stepped failures are shrunk to a
/// replayable repro; the other lanes are not replayable step-for-step, so
/// their failures print the scenario for the stepped lane to chase. Returns the exit status contribution and
/// how many runs it took.
fn run_one(sc: &SimScenario, opts: &SimOptions, verbose: bool, soak: bool) -> (i32, usize) {
    let mut lanes = vec![Lane::Stepped];
    if soak {
        lanes.extend(Lane::ALL[1..].iter().filter(|lane| lane.accepts(sc)));
    }
    let ran = lanes.len();

    let mut status = 0;
    for lane in lanes {
        let label = if lane == Lane::Stepped {
            "deterministic".to_string()
        } else {
            format!("{lane:?}")
        };
        let report = match run_scenario(sc, lane, opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sim: seed {}: {label} harness error: {e}", sc.seed);
                status = 1;
                continue;
            }
        };
        if !report.passed() {
            status = 1;
            if lane == Lane::Stepped {
                report_failure(sc, opts, &report.violations, &label);
            } else {
                eprintln!(
                    "sim: seed {}: {label} run FAILED:\n{:#?}\nscenario: {}",
                    sc.seed,
                    report.violations,
                    sc.to_json()
                );
            }
        }
        if lane == Lane::Stepped && verbose {
            eprintln!(
                "sim: seed {}: {} solves ({} exact, {} partial, {} tolerated errors), digest {:016x}",
                sc.seed,
                report.solves,
                report.exact,
                report.partial,
                report.tolerated_errors,
                report.digest
            );
        }
    }
    (status, ran)
}

fn report_failure(
    sc: &SimScenario,
    opts: &SimOptions,
    violations: &[braid_sim::Violation],
    lane: &str,
) {
    eprintln!("sim: seed {}: {lane} run FAILED:\n{violations:#?}", sc.seed);
    eprintln!("sim: shrinking ...");
    let out = shrink(sc, opts);
    eprintln!(
        "sim: shrunk to {} queries / {} sessions in {} runs",
        out.scenario.query_count(),
        out.scenario.sessions.len(),
        out.runs
    );
    eprintln!("sim: replayable scenario:\n{}", out.scenario.to_json());
    eprintln!(
        "sim: regression test:\n{}",
        regression_test(&format!("repro_seed_{}", sc.seed), &out.scenario)
    );
}
