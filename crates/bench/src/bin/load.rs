//! Multi-process load generator CLI.
//!
//! ```sh
//! cargo run --release -p braid-bench --bin load                       # defaults: 4 procs, open loop
//! cargo run --release -p braid-bench --bin load -- --procs 2 --rate 0 # closed loop
//! cargo run --release -p braid-bench --bin load -- --dataset suppliers --queries 500
//! ```
//!
//! Forks itself (`--braid-worker`) as real client processes, each
//! opening `--conns` connections that speak CAQL over TCP against a
//! shared in-process braid server, every connection on its own seeded
//! open-loop arrival schedule. Exit status is non-zero iff any session's
//! digest disagrees with the reference model, any query errors, or the
//! server fails to drain.

use braid_bench::harness::{run_load, LoadConfig};
use braid_sim::{Dataset, SpawnMode};

fn arg_u64(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn arg_str<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    braid_sim::maybe_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let procs = arg_u64(&args, "--procs").unwrap_or(4) as u32;
    let conns = arg_u64(&args, "--conns").unwrap_or(2) as u32;
    let queries = arg_u64(&args, "--queries").unwrap_or(200) as u32;
    let rate = arg_u64(&args, "--rate").unwrap_or(800) as u32;
    let workers = arg_u64(&args, "--workers").unwrap_or(4) as usize;
    let seed = arg_u64(&args, "--seed").unwrap_or(0);
    let trace_one_in = if args.iter().any(|a| a == "--trace") {
        arg_u64(&args, "--trace-sample").unwrap_or(1).max(1) as u32
    } else {
        0
    };
    let stats_poll_hz = arg_u64(&args, "--stats-poll-hz").unwrap_or(0) as u32;
    let dataset = match arg_str(&args, "--dataset").unwrap_or("genealogy") {
        "suppliers" => Dataset::Suppliers {
            parts: 16,
            fanout: 3,
            suppliers: 5,
            cities: 4,
            seed: seed ^ 0x5f5f,
        },
        _ => Dataset::Genealogy {
            generations: 3,
            branching: 2,
            seed: seed ^ 0x5f5f,
        },
    };

    let program = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("load: cannot resolve own binary for self-exec: {e}");
        std::process::exit(2);
    });
    let cfg = LoadConfig {
        dataset,
        procs,
        conns,
        queries_per_proc: queries,
        rate_per_sec: rate,
        seed,
        workers,
        spawn: SpawnMode::Process(program),
        trace_one_in,
        stats_poll_hz,
    };
    eprintln!(
        "load: {procs} processes x {conns} conns x {queries} queries, {} ({} server workers)",
        if rate == 0 {
            "closed loop".into()
        } else {
            format!("open loop @ {rate}/s per process")
        },
        workers
    );

    let out = match run_load(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("load: harness error: {e}");
            std::process::exit(2);
        }
    };
    for r in &out.reports {
        for s in &r.sessions {
            eprintln!(
                "load: proc {} session {}: ok {} errors {} exact {} digest {:016x}",
                r.proc, s.session, s.solves, s.errors, s.exact, s.digest
            );
        }
    }
    println!(
        "load: {} ok answers across {} processes in {} ms | latency us p50 {} p90 {} p99 {} max {} | \
         server: accepted {} queries {} peak-runq {} parked {} wakes {}",
        out.total_ok(),
        out.reports.len(),
        out.elapsed.as_millis(),
        out.merged.p50(),
        out.merged.p90(),
        out.merged.p99(),
        out.merged.max(),
        out.stats.connections_accepted,
        out.stats.queries,
        out.metrics.cms.run_queue_depth,
        out.metrics.cms.sessions_parked,
        out.metrics.cms.wakes,
    );
    if out.stats_polls > 0 {
        println!(
            "load: stats poller: {} polls | peak run-queue {} | peak inflight {}",
            out.stats_polls, out.peak_run_queue, out.peak_inflight
        );
    }
    for failure in &out.failed_sessions {
        eprintln!("load: ORACLE FAILURE: {failure}");
    }
    if !out.passed() {
        eprintln!("load: FAILED (digests, errors, or undrained gauges)");
        std::process::exit(1);
    }
    eprintln!("load: all session digests match the reference model; gauges drained");
}
