//! The pinned BrAID benchmark. See `README.md` beside this package.
//!
//! ```text
//! braid-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! braid-benchmark run [--seed N] [--seconds S] [--smoke] [--traced]
//!                     [--repeats N] [--label NAME] [--out FILE]    every workload
//! braid-benchmark compare A.json B.json                            two sets of runs
//! ```

mod drive;
mod gen;
pub mod json;
mod ladder;
mod oracle;
mod pin;
mod rig;
mod run;
pub mod spec;
mod stats;
mod suite;
mod workloads;

use json::Json;
use spec::Spec;
use std::process::ExitCode;

/// `--flag value` pairs and bare `--switch`es, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn switch(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == name) {
            Some(i) if i + 1 < self.0.len() => {
                self.0.remove(i);
                Ok(Some(self.0.remove(i)))
            }
            Some(_) => Err(format!("{name} needs a value")),
            None => Ok(None),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{v}`")),
            None => Ok(None),
        }
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown flag {unknown}")),
            None => Ok(self.0),
        }
    }
}

fn one_run(mut flags: Flags, spec: &Spec) -> Result<ExitCode, String> {
    let name = flags.value("--workload")?.ok_or("--workload is required")?;
    let args = run::Args {
        workload: workloads::Workload::by_name(&name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: flags.parsed("--seed")?.unwrap_or(1),
        seconds: flags.parsed("--seconds")?.unwrap_or(spec.run_seconds),
        smoke: flags.switch("--smoke"),
        traced: flags.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
        spans: flags.value("--spans")?.map(Into::into),
    };
    if !flags.done()?.is_empty() {
        return Err("unexpected argument".into());
    }
    let report = run::run(&args).map_err(|e| format!("{name}: {e}"))?;
    for problem in &report.problems {
        eprintln!("FAILED {name}: {problem}");
    }

    // Exactly the metrics BENCHMARK.json declares for this kind of run.
    let mut metrics = Vec::new();
    for def in spec.metrics(args.traced) {
        let (_, value) = report
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .ok_or_else(|| format!("run produced no `{}`", def.name))?;
        if !value.is_finite() {
            return Err(format!("`{}` is not finite", def.name));
        }
        metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(&def.unit))]),
        ));
    }
    let line = Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

pub fn main() -> ExitCode {
    let spec = Spec::load();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite::run(Flags(args.split_off(1)), &spec),
        Some("compare") => suite::compare(&args[1..], &spec),
        _ => one_run(Flags(args), &spec),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("braid-benchmark: {e}");
        ExitCode::from(2)
    })
}
