//! Drives the built binary the way the driver and `run.sh` do, at smoke
//! size. Run with `cargo test --release`: a debug build is ten times
//! slower.

use braid_benchmark::json::Json;
use braid_benchmark::spec::Spec;
use std::path::PathBuf;
use std::process::Command;

const BINARY: &str = env!("CARGO_BIN_EXE_braid-benchmark");

/// Per-layer metrics that count work rather than time it, and do not
/// depend on how threads interleave: on one connection they must repeat
/// exactly from run to run.
const EXACT_COUNTS: &[&str] = &[
    "remote_requests_per_query",
    "remote_bytes_per_query",
    "failed_share",
    "net.bytes_per_query",
    "ie.cms_queries_per_query",
    "subsume.population",
    "cms.hit_ratio",
    "cms.partial_ratio",
    "cms.cache_elements",
    "cms.evictions_per_query",
    "cms.dedup_hits",
    "cms.flight_fetches",
    "relational.tuples_per_query",
    "relational.rows_pruned_per_query",
    "relational.local_ops_per_query",
    "remote.tuples_per_query",
    "remote.cost_units_per_query",
];

fn one_run(workload: &str, seed: u64, trace: u8) -> Json {
    let output = Command::new(BINARY)
        .args(["--workload", workload, "--smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric `{name}`"))
}

#[test]
fn the_suite_emits_every_declared_metric_once_and_is_correct() {
    let spec = Spec::load();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-suite.json");
    let _ = std::fs::remove_file(&out);
    let status = Command::new(BINARY)
        .args(["run", "--smoke", "--traced", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("binary runs");
    assert!(status.success(), "a smoke run failed its correctness gate");

    let file = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let runs = file.get("runs").map(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 2 * spec.workloads.len());
    for (workload, _) in &spec.workloads {
        for traced in [false, true] {
            let matching: Vec<&Json> = runs
                .iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
                .filter(|r| {
                    r.get("trace").and_then(Json::as_f64) == Some(f64::from(u8::from(traced)))
                })
                .collect();
            assert_eq!(matching.len(), 1, "{workload} traced={traced}");
            let run = matching[0];
            assert_eq!(run.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(run.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let emitted = run.get("metrics").map(Json::as_obj).unwrap();
            let declared = spec.metrics(traced);
            let names: Vec<&str> = emitted.iter().map(|(n, _)| n.as_str()).collect();
            let wanted: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(names, wanted, "{workload} traced={traced}");
            for (def, (_, value)) in declared.iter().zip(emitted) {
                assert_eq!(
                    value.get("unit").and_then(Json::as_str),
                    Some(def.unit.as_str())
                );
                let v = value.get("value").and_then(Json::as_f64).unwrap();
                assert!(v.is_finite(), "{workload}: {} = {v}", def.name);
            }
        }
    }

    // The gate's own assertions, restated on the reported numbers.
    let traced = |workload: &str| {
        runs.iter()
            .find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(workload)
                    && r.get("trace").and_then(Json::as_f64) == Some(1.0)
            })
            .unwrap()
    };
    assert_eq!(
        metric(traced("warm_probe"), "remote_requests_per_query"),
        0.0
    );
    assert_eq!(metric(traced("warm_probe"), "cms.hit_ratio"), 1.0);
    assert_eq!(
        metric(traced("scan_derive"), "remote_requests_per_query"),
        0.0
    );
    assert!(metric(traced("cold_fetch"), "remote_requests_per_query") >= 0.95);
    assert!(metric(traced("shared_mix"), "remote_requests_per_query") > 0.0);
}

#[test]
fn one_connection_counts_repeat_exactly_for_one_seed() {
    for workload in ["warm_probe", "cold_fetch", "scan_derive"] {
        let (first, second) = (one_run(workload, 9, 1), one_run(workload, 9, 1));
        assert_eq!(
            first.get("attempted"),
            second.get("attempted"),
            "{workload}"
        );
        for name in EXACT_COUNTS {
            assert_eq!(
                metric(&first, name).to_bits(),
                metric(&second, name).to_bits(),
                "{workload}: {name}"
            );
        }
        let (first, second) = (one_run(workload, 9, 0), one_run(workload, 9, 0));
        assert_eq!(
            metric(&first, "cache_mb").to_bits(),
            metric(&second, "cache_mb").to_bits(),
            "{workload}: cache_mb"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(BINARY)
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
