//! One run of one workload in one process: set up, measure, check.
//!
//! An untraced run reports the end-to-end metrics; a traced run climbs
//! the ladder and reports the per-layer metrics. Either way every answer
//! passes the correctness gate, and every gauge must drain.

use crate::drive::{self, ask_all, Asked, ConnLog, Span, Stop, Trace};
use crate::gen::{self, Dataset};
use crate::ladder::{self, LeafInput, Window, RUNG0, RUNG1, RUNG2};
use crate::oracle;
use crate::pin;
use crate::rig::{Rig, Rung};
use crate::stats::{median, micros, percentile};
use crate::workloads::{Plan, Stream, Workload};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Latency samples a time slice needs before its own percentiles count.
const SLICE_SAMPLES: usize = 200;
const MAX_SLICES: usize = 10;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
    /// A fiftieth of the full fixed count, a tenth of the warm-up, one
    /// set-up: the whole suite in seconds, with counts that repeat.
    pub smoke: bool,
    pub traced: bool,
    /// Where to dump the recorder's spans, one JSON object a line.
    pub spans: Option<PathBuf>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn log(&mut self, logs: &[ConnLog]) {
        for asked in logs.iter().flat_map(|l| &l.asked) {
            self.attempted += 1;
            if let Some(problem) = &asked.problem {
                self.fail(format!("`{}`: {problem}", asked.query.text));
            }
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        // Keep the report readable when everything fails the same way.
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    fn violations(&mut self, lines: Vec<String>) {
        for line in lines {
            self.fail(line);
        }
    }

    fn check(&mut self, data: &Dataset, seed: u64, primed: &ConnLog, timed: &[&ConnLog]) {
        let timed: Vec<&Asked> = timed.iter().flat_map(|l| &l.asked).collect();
        let verdict = oracle::check(data, seed, &primed.asked, &timed);
        let wanted = timed.len().min(100);
        if verdict.checked < wanted {
            self.fail(format!(
                "oracle re-solved {} answers, fewer than {wanted}",
                verdict.checked
            ));
        }
        self.violations(verdict.mismatches);
    }

    /// The remote counters must tell the story the workload was built
    /// to tell, or the counting engine is not the one behind the wire.
    fn remote_wiring(&mut self, workload: Workload, requests: u64, queries: usize) {
        let per_query = requests as f64 / queries.max(1) as f64;
        let as_built = match workload {
            Workload::WarmProbe | Workload::ScanDerive => requests == 0,
            Workload::ColdFetch => per_query >= 0.95,
            Workload::SharedMix => requests > 0,
        };
        if !as_built {
            self.fail(format!(
                "{}: {per_query:.3} remote requests per query is not what this workload provokes",
                workload.name()
            ));
        }
    }
}

/// A rig brought to the workload's steady state.
struct Warm {
    data: Dataset,
    rig: Rig,
    primed: ConnLog,
    took: Duration,
}

fn set_up(plan: &Plan, seed: u64) -> io::Result<Warm> {
    // See `pin`: set-up always runs on one core, and a one-connection
    // workload stays there.
    let mut pinned = pin::to_current_core();
    let started = Instant::now();
    let data = gen::dataset(seed);
    let rig = Rig::start(&data, plan.workload.cache_capacity_bytes())?;
    let primed = ask_all(&mut rig.client()?, plan.warmup());
    if plan.connections > 1 {
        pinned &= pin::release();
    }
    if !pinned {
        eprintln!("could not set core affinity: expect run-to-run swings of 30%");
    }
    Ok(Warm {
        data,
        rig,
        primed,
        took: started.elapsed(),
    })
}

fn streams(plan: &Plan) -> Vec<Stream<'_>> {
    (0..plan.connections)
        .map(|conn| plan.stream(conn))
        .collect()
}

fn rungs<R: Rung + 'static>(
    plan: &Plan,
    mut open: impl FnMut() -> io::Result<R>,
) -> io::Result<Vec<Box<dyn Rung>>> {
    (0..plan.connections)
        .map(|_| open().map(|r| Box::new(r) as Box<dyn Rung>))
        .collect()
}

pub fn run(args: &Args) -> io::Result<Report> {
    if args.traced {
        traced(args)
    } else {
        untraced(args)
    }
}

fn stop(args: &Args, share: f64) -> Stop {
    if args.smoke {
        Stop::Count((args.workload.full_queries() as f64 / 50.0 * share).ceil() as usize)
    } else {
        Stop::Deadline(Duration::from_secs_f64(args.seconds * share))
    }
}

fn untraced(args: &Args) -> io::Result<Report> {
    let plan = args.workload.plan(args.seed, args.smoke);
    let mut report = Report::default();

    let warm = set_up(&plan, args.seed)?;
    let mut setups = vec![warm.took.as_secs_f64()];
    report.log(std::slice::from_ref(&warm.primed));
    let mut clients = rungs(&plan, || warm.rig.client())?;
    let remote_before = warm.rig.remote.metrics();
    let (logs, wall) = drive::drive(&mut clients, &mut streams(&plan), stop(args, 1.0), None);
    let remote = warm.rig.remote.metrics().since(&remote_before);
    drop(clients);
    let cache_mb = warm.rig.cms().shared_cache().used_bytes() as f64 / 1e6;
    report.log(&logs);
    report.violations(warm.rig.shutdown());
    let queries: usize = logs.iter().map(|l| l.asked.len()).sum();
    report.remote_wiring(args.workload, remote.requests, queries);
    report.check(
        &warm.data,
        args.seed,
        &warm.primed,
        &logs.iter().collect::<Vec<_>>(),
    );
    drop(warm.data);

    for _ in 1..if args.smoke { 1 } else { SETUP_REPEATS } {
        let again = set_up(&plan, args.seed)?;
        setups.push(again.took.as_secs_f64());
        report.log(std::slice::from_ref(&again.primed));
        report.violations(again.rig.shutdown());
    }

    let (p50, p95, qps) = best_slice(&logs, wall);
    report.metrics = vec![
        ("p50_us", p50),
        ("p95_us", p95),
        ("qps", qps),
        ("cache_mb", cache_mb),
        ("setup_s", median(&setups)),
    ];
    Ok(report)
}

/// The best of up to ten equal time slices of the timed section: the
/// lowest slice p50, the lowest slice p95, the highest slice throughput.
/// What the sandbox adds to a run — another process on the core, a host
/// hiccup — only ever adds, and comes in bursts: over repeated runs the
/// best slice moved by 1.5% where the median slice moved by 9%. A
/// slowdown in the program slows every slice, the best one too.
fn best_slice(logs: &[ConnLog], wall: Duration) -> (f64, f64, f64) {
    let asked: Vec<&Asked> = logs.iter().flat_map(|l| &l.asked).collect();
    let slices = (asked.len() / SLICE_SAMPLES).clamp(1, MAX_SLICES);
    let width = wall.as_secs_f64() / slices as f64;
    let mut latencies = vec![Vec::new(); slices];
    for a in asked {
        let slice = ((a.done.as_secs_f64() / width) as usize).min(slices - 1);
        latencies[slice].push(micros(a.latency));
    }
    let lowest = |p: f64| {
        latencies
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| percentile(l, p))
            .fold(f64::INFINITY, f64::min)
    };
    let busiest = latencies.iter().map(Vec::len).max().unwrap_or(0);
    (lowest(0.50), lowest(0.95), busiest as f64 / width)
}

fn peak_rss_bytes() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Set up a fresh rig and replay the first `count` queries of every
/// connection's stream at the rung `open` gives, recording spans.
fn replay<R: Rung + 'static>(
    plan: &Plan,
    seed: u64,
    report: &mut Report,
    open: impl Fn(&Rig) -> R,
    count: usize,
    trace: Trace,
) -> io::Result<(Warm, Vec<ConnLog>)> {
    let warm = set_up(plan, seed)?;
    report.log(std::slice::from_ref(&warm.primed));
    let mut rungs = rungs(plan, || Ok(open(&warm.rig)))?;
    let (logs, _) = drive::drive(
        &mut rungs,
        &mut streams(plan),
        Stop::Count(count),
        Some(trace),
    );
    drop(rungs);
    report.log(&logs);
    Ok((warm, logs))
}

fn traced(args: &Args) -> io::Result<Report> {
    let plan = args.workload.plan(args.seed, args.smoke);
    let mut report = Report::default();
    let epoch = Instant::now();
    let trace = |name, parent| Trace {
        name,
        parent,
        epoch,
    };

    // Rung 0: the recorded pass sets the query count, the unrecorded pass
    // that follows it on the same connections prices the recorder.
    let warm = set_up(&plan, args.seed)?;
    report.log(std::slice::from_ref(&warm.primed));
    let mut clients = rungs(&plan, || warm.rig.client())?;
    let mut client_streams = streams(&plan);
    let cms_before = warm.rig.cms().metrics();
    let remote_before = warm.rig.remote.metrics();
    let pool_before = warm.rig.cms().transport_pool_stats().unwrap_or_default();
    let (mut rung0, _) = drive::drive(
        &mut clients,
        &mut client_streams,
        stop(args, 0.25),
        Some(trace(RUNG0, None)),
    );
    // Every later pass replays the part of the list all connections got
    // through.
    let count = rung0.iter().map(|l| l.asked.len()).min().unwrap_or(0);
    let traced_wall = rung0
        .iter()
        .filter_map(|l| l.asked.get(count.checked_sub(1)?))
        .map(|a| a.done)
        .max()
        .unwrap_or_default();
    let (unrecorded, untraced_wall) =
        drive::drive(&mut clients, &mut client_streams, Stop::Count(count), None);
    drop(clients);
    // Read now: one system set up once and measured is the memory a user
    // would see. The later rigs, the leaf probes and the oracle's model
    // are the benchmark's own.
    let peak_rss_mb = peak_rss_bytes()? as f64 / 1e6;
    report.log(&rung0);
    report.log(&unrecorded);
    let cms = warm.rig.cms().metrics();
    let pool = warm.rig.cms().transport_pool_stats().unwrap_or_default();
    let queries: usize = rung0.iter().chain(&unrecorded).map(|l| l.asked.len()).sum();
    let window = Window {
        queries,
        cms: cms.since(&cms_before),
        remote: warm.rig.remote.metrics().since(&remote_before),
        pool_connects: pool.connects - pool_before.connects,
        pool_requests: pool.requests - pool_before.requests,
        queue_peak: cms.run_queue_depth,
        cache_elements: warm.rig.cms().cache_len(),
        traced_wall,
        untraced_wall,
        client_us: rung0
            .iter()
            .chain(&unrecorded)
            .flat_map(|l| &l.asked)
            .map(|a| micros(a.latency))
            .collect(),
        peak_rss_mb,
    };
    report.remote_wiring(args.workload, window.remote.requests, queries);
    report.violations(warm.rig.shutdown());
    let mut primed = warm.primed;
    drop(warm.data);

    // Rungs 1 and 2, each on a rig of its own, warmed the same way.
    let (warm, mut rung1) = replay(
        &plan,
        args.seed,
        &mut report,
        Rig::session,
        count,
        trace(RUNG1, Some(RUNG0)),
    )?;
    report.violations(warm.rig.shutdown());
    primed.asked.extend(warm.primed.asked);
    drop(warm.data);
    let (warm, mut rung2) = replay(
        &plan,
        args.seed,
        &mut report,
        Rig::cms_direct,
        count,
        trace(RUNG2, Some(RUNG1)),
    )?;
    // The CMS answers in the view's own columns, so only the sizes can be
    // held against rung 0.
    for (conn, (cms_log, client_log)) in rung2.iter().zip(&rung0).enumerate() {
        for (direct, client) in cms_log.asked.iter().zip(&client_log.asked) {
            if direct.query != client.query || direct.tuples != client.tuples {
                report.fail(format!(
                    "connection {conn}: rung 2 gave {} tuples for `{}`, rung 0 gave {} for `{}`",
                    direct.tuples, direct.query.text, client.tuples, client.query.text
                ));
            }
        }
    }

    // The third rig stays up to lend the leaf probes its engine and its
    // catalog statistics.
    let first = rung0.first();
    let mut leaf = ladder::leaves(&LeafInput {
        data: &warm.data,
        plan: &plan,
        engine: warm.rig.server.system().engine(),
        cms: warm.rig.cms(),
        sample: first.map_or(&[][..], |l| &l.asked[..l.kept.len()]),
        answers: first.map_or(&[][..], |l| &l.kept),
        population: window.cache_elements,
        epoch,
    })?;
    report.violations(warm.rig.shutdown());
    // One model answers for both rungs that return whole AI answers; the
    // three rigs were built from one seed, so one dataset stands for all.
    report.check(
        &warm.data,
        args.seed,
        &primed,
        &rung0
            .iter()
            .chain(&unrecorded)
            .chain(&rung1)
            .collect::<Vec<_>>(),
    );

    let mut spans = std::mem::take(&mut leaf.spans);
    for log in rung0.iter_mut().chain(&mut rung1).chain(&mut rung2) {
        spans.append(&mut log.spans);
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics = ladder::fold(&spans, &leaf, &window, failed_share);
    if let Some(path) = &args.spans {
        dump(&spans, path)?;
    }
    Ok(report)
}

fn dump(spans: &[Span], path: &PathBuf) -> io::Result<()> {
    use crate::json::Json;
    use std::io::Write;
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("name", Json::str(s.name)),
            ("parent", s.parent.map_or(Json::Null, Json::str)),
            ("conn", Json::Num(s.conn as f64)),
            ("query", Json::Num(s.query as f64)),
            ("start_us", Json::Num(micros(s.start))),
            ("end_us", Json::Num(micros(s.end))),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}
