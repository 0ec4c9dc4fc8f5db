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
//! lane drives seed ranges through them). `SIM_PROCS > 0` additionally
//! routes a sample of quiet (fault-free) scenarios through the
//! multi-process harness: sessions split across that many real forked
//! client processes against a `BraidServer`, per-session digests
//! checked against the same reference model. Exit status is non-zero
//! iff any scenario fails its oracle.

use braid_load::{run_scenario_procs, SpawnMode};
use braid_sim::{regression_test, run_scenario, shrink, Lane, SimOptions, SimScenario};
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
    // The SIM_PROCS lane forks this binary as its worker processes.
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

    let opts = SimOptions::default();
    let procs = env_u64("SIM_PROCS", 0) as usize;

    if let Some(path) = replay {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("sim: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let sc = SimScenario::from_json(&json).unwrap_or_else(|e| {
            eprintln!("sim: cannot parse {path}: {e}");
            std::process::exit(2);
        });
        std::process::exit(run_one(&sc, &opts, true, soak, procs));
    }

    eprintln!(
        "sim: seeds {seed_start}..{} ({rounds} rounds{}{})",
        seed_start + rounds,
        if soak {
            ", stepped + columnar + threads + socket + pool"
        } else {
            ""
        },
        if procs > 0 {
            format!(", procs lane x{procs}")
        } else {
            String::new()
        }
    );
    let start = Instant::now();
    let mut solves = 0usize;
    let mut failed = 0usize;
    for seed in seed_start..seed_start + rounds {
        let sc = SimScenario::generate(seed);
        solves += sc.query_count();
        if run_one(&sc, &opts, single, soak, procs) != 0 {
            failed += 1;
        }
    }
    let dt = start.elapsed().as_secs_f64();
    let runs_per_seed = if soak { 5.0 } else { 1.0 };
    eprintln!(
        "sim: {rounds} scenarios, {solves} solves, {:.1} scenarios/s, {failed} failed",
        (rounds as f64 * runs_per_seed) / dt.max(1e-9)
    );
    std::process::exit(i32::from(failed > 0));
}

/// Run one scenario on the stepped lane — plus, under `--soak`, a
/// columnar-forced stepped rerun and every other lane. Stepped failures
/// are shrunk to a replayable repro; the other lanes are not replayable
/// step-for-step, so their failures print the scenario for the stepped
/// lane to chase. Returns the exit status contribution.
fn run_one(sc: &SimScenario, opts: &SimOptions, verbose: bool, soak: bool, procs: usize) -> i32 {
    // Columnar lane: the identical scenario with the column-major
    // representation forced on. Fully deterministic and replayable, and
    // the answer digest must agree bit-for-bit with the row run —
    // representation invariance checked at soak scale.
    let forced = (soak && !sc.columnar).then(|| SimScenario {
        columnar: true,
        ..sc.clone()
    });
    let mut runs: Vec<(String, &SimScenario, Lane)> =
        vec![("deterministic".into(), sc, Lane::Stepped)];
    if soak {
        runs.extend(forced.iter().map(|f| ("columnar".into(), f, Lane::Stepped)));
        runs.extend(
            Lane::ALL[1..]
                .iter()
                .map(|&lane| (format!("{lane:?}"), sc, lane)),
        );
    }

    let mut status = 0;
    let mut row_digest = None;
    for (i, (label, scenario, lane)) in runs.into_iter().enumerate() {
        let (row_run, columnar_rerun) = (i == 0, i > 0 && lane == Lane::Stepped);
        let report = match run_scenario(scenario, lane, opts) {
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
                report_failure(scenario, opts, &report.violations, &label);
            } else {
                eprintln!(
                    "sim: seed {}: {label} run FAILED:\n{:#?}\nscenario: {}",
                    sc.seed,
                    report.violations,
                    sc.to_json()
                );
            }
        } else if columnar_rerun && Some(report.digest) != row_digest {
            status = 1;
            eprintln!(
                "sim: seed {}: COLUMNAR digest {:016x} != row digest {:016x}\nscenario: {}",
                sc.seed,
                report.digest,
                row_digest.unwrap_or_default(),
                scenario.to_json()
            );
        }
        if row_run {
            row_digest = Some(report.digest);
            if verbose {
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
    }
    // Process lane (SIM_PROCS knob): a sample of quiet scenarios with
    // their sessions split across real forked client processes against
    // a braid server, per-session digests checked against the same
    // model. Fault scenarios stay out — this lane has no fault
    // tolerance, so an injected error would read as a bug.
    if procs > 0 && !sc.faults_active() && sc.seed.is_multiple_of(8) {
        let spawn = match std::env::current_exe() {
            Ok(exe) => SpawnMode::Process(exe),
            Err(_) => SpawnMode::Thread,
        };
        match run_scenario_procs(sc, procs, 4, &spawn) {
            Ok(out) if !out.passed() => {
                status = 1;
                eprintln!(
                    "sim: seed {}: PROCS run failed:\n{:#?}\nscenario: {}",
                    sc.seed,
                    out.violations,
                    sc.to_json()
                );
            }
            Ok(_) => {}
            Err(e) => {
                status = 1;
                eprintln!("sim: seed {}: procs harness error: {e}", sc.seed);
            }
        }
    }
    status
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
