//! `run`: every workload, each run in a fresh process (clean allocator,
//! clean peak RSS), gathered into one result file. `compare`: two such
//! files, one verdict per workload and end-to-end metric.

use crate::json::Json;
use crate::spec::{MetricDef, Spec};
use crate::stats::{median, quartiles};
use crate::Flags;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

pub fn run(mut flags: Flags, spec: &Spec) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(spec.run_seconds);
    let smoke = flags.switch("--smoke");
    let traced = flags.switch("--traced");
    let repeats: usize = flags.parsed("--repeats")?.unwrap_or(1);
    let label = flags.value("--label")?.unwrap_or_else(|| "run".into());
    let out = match flags.value("--out")? {
        Some(path) => PathBuf::from(path),
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("{label}-seed{seed}.json")),
    };
    if !flags.done()?.is_empty() {
        return Err("run: unexpected argument".into());
    }

    // `--repeats` appends: a caller interleaving two builds keeps one
    // file per build and alternates.
    let mut runs: Vec<Json> = match std::fs::read_to_string(&out) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", out.display()))?
            .get("runs")
            .map(|r| r.as_arr().to_vec())
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "braid benchmark: seed {seed}, {} per run, {nproc} cores, results in {}",
        if smoke {
            "smoke counts".to_string()
        } else {
            format!("{seconds} s")
        },
        out.display()
    );

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for _ in 0..repeats {
        for (workload, _) in &spec.workloads {
            for trace in 0..=u8::from(traced) {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stdout(Stdio::piped());
                if smoke {
                    cmd.arg("--smoke");
                }
                if trace == 1 {
                    cmd.arg("--spans")
                        .arg(out.with_extension(format!("{workload}.spans.jsonl")));
                }
                let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout
                    .lines()
                    .last()
                    .ok_or_else(|| format!("{workload}: run printed no result"))?;
                let result = Json::parse(line).map_err(|e| format!("{workload}: {e}"))?;
                let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
                all_correct &= correct && output.status.success();
                print_run(workload, trace, &result);
                let mut record = vec![
                    ("label".to_string(), Json::str(&label)),
                    ("workload".to_string(), Json::str(workload)),
                    ("seed".to_string(), Json::Num(seed as f64)),
                    ("trace".to_string(), Json::Num(f64::from(trace))),
                    ("smoke".to_string(), Json::Bool(smoke)),
                    ("seconds".to_string(), Json::Num(seconds)),
                    ("nproc".to_string(), Json::Num(nproc as f64)),
                ];
                record.extend(result.as_obj().iter().cloned());
                runs.push(Json::Obj(record));
            }
        }
    }
    let file = Json::obj([("benchmark", Json::str("braid")), ("runs", Json::Arr(runs))]);
    // One run a line keeps the committed baseline diffable.
    let text = file.render().replace("{\"label\"", "\n{\"label\"");
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_run(workload: &str, trace: u8, result: &Json) {
    let number = |key| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "\n{workload} ({}): {} — {} queries attempted, {} failed",
        if trace == 1 { "traced" } else { "untraced" },
        match result.get("correct").and_then(Json::as_bool) {
            Some(true) => "correct",
            _ => "NOT CORRECT",
        },
        number("attempted"),
        number("failed"),
    );
    for (name, metric) in result.get("metrics").map(Json::as_obj).unwrap_or_default() {
        println!(
            "  {name:<34} {:>14.3} {}",
            metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            metric.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
}

/// Every value of `metric` on `workload` in a result file.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// End-to-end metrics that `BENCHMARK.json` cannot bound, reported by
/// traced runs and judged here. Three counts can be zero, so no share of
/// them can be taken: remote requests and bytes per query are exact on one
/// connection and within 5% on `shared_mix`, and `failed_share` may never
/// rise. Peak RSS holds 10% on one connection but flips between two
/// values a fifth apart on `shared_mix`, as its two threads happen to
/// share a malloc arena or not.
fn traced_gates(workload: &str) -> Vec<MetricDef> {
    let racing = workload == "shared_mix";
    [
        ("remote_requests_per_query", if racing { 0.05 } else { 0.0 }),
        ("remote_bytes_per_query", if racing { 0.05 } else { 0.0 }),
        ("failed_share", 0.0),
        ("peak_rss_mb", if racing { 0.25 } else { 0.10 }),
    ]
    .into_iter()
    .map(|(name, bound)| MetricDef {
        name: name.into(),
        unit: String::new(),
        higher_is_better: false,
        bound: Some(bound),
    })
    .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread is wider than the bound: no verdict either way.
    Unresolved,
}

fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

fn judge(def: &MetricDef, base: &[f64], change: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (a, b) = (median(base), median(change));
    let worse_by = if def.higher_is_better { a - b } else { b - a };
    // Against a zero base there is no share to take: compare as is.
    let scale = if a == 0.0 { 1.0 } else { a.abs() };
    if spread(base).max(spread(change)) > bound && bound > 0.0 {
        Verdict::Unresolved
    } else if worse_by > bound * scale {
        Verdict::Regressed
    } else if -worse_by > bound * scale {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub fn compare(paths: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let [base, change] = paths else {
        return Err("usage: compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, change) = (load(base)?, load(change)?);
    println!(
        "{:<12} {:<26} {:>34} {:>34} {:>18}  verdict",
        "workload", "metric", "A: median [q1, q3] (n)", "B: median [q1, q3] (n)", "B/A (base A)"
    );
    let side = |v: &[f64]| {
        let (q1, q3) = quartiles(v).unwrap_or((median(v), median(v)));
        format!("{:.4} [{:.4}, {:.4}] ({})", median(v), q1, q3, v.len())
    };
    let mut regressed = false;
    for (workload, _) in &spec.workloads {
        for def in spec.end_to_end.iter().chain(&traced_gates(workload)) {
            let a = values(&base, workload, &def.name);
            let b = values(&change, workload, &def.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = judge(def, &a, &b);
            regressed |= verdict == Verdict::Regressed;
            let ratio = match median(&a) {
                0.0 => "-".to_string(),
                m => format!("{:.4} ({:.4})", median(&b) / m, m),
            };
            println!(
                "{workload:<12} {:<26} {:>34} {:>34} {ratio:>18}  {}",
                def.name,
                side(&a),
                side(&b),
                match verdict {
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "p50_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        let slower = [115.0, 116.0, 114.0, 115.5, 115.0];
        let faster = [80.0, 81.0, 79.0, 80.5, 80.0];
        let noisy = [100.0, 140.0, 70.0, 125.0, 90.0];
        assert_eq!(judge(&lower(0.10), &steady, &steady), Verdict::Unchanged);
        assert_eq!(judge(&lower(0.10), &steady, &slower), Verdict::Regressed);
        assert_eq!(judge(&lower(0.10), &steady, &faster), Verdict::Improved);
        assert_eq!(judge(&lower(0.10), &steady, &noisy), Verdict::Unresolved);
        let higher = MetricDef {
            higher_is_better: true,
            ..lower(0.10)
        };
        assert_eq!(judge(&higher, &steady, &slower), Verdict::Improved);
    }

    #[test]
    fn a_zero_base_is_compared_absolutely() {
        let exact = lower(0.0);
        assert_eq!(judge(&exact, &[0.0, 0.0], &[0.0, 0.0]), Verdict::Unchanged);
        assert_eq!(
            judge(&exact, &[0.0, 0.0], &[0.01, 0.01]),
            Verdict::Regressed
        );
    }
}
