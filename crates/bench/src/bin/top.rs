//! `top` for a running [`BraidServer`]: a live terminal dashboard over
//! the wire STATS protocol.
//!
//! ```sh
//! cargo run --release -p braid-bench --bin top -- --addr 127.0.0.1:7878
//! cargo run --release -p braid-bench --bin top -- --demo             # self-contained
//! cargo run --release -p braid-bench --bin top -- --demo --once      # CI smoke
//! ```
//!
//! Each tick is one `STATS_REQUEST`/`STATS_REPORT` round trip on a
//! plain [`BraidClient`] connection — the dashboard observes the server
//! exactly the way any other client could, with no side channel. Rates
//! (qps, wakes/s) come from the server's own sampler ring, so a
//! first-tick reading is already meaningful; percentiles are computed
//! client-side from the raw log2 buckets in the report.
//!
//! `--demo` starts an in-process server over a small genealogy catalog
//! plus one background query loop, then points the dashboard at it over
//! real TCP — a one-command way to see live numbers (and the CI smoke
//! target behind `just top-smoke`).

use braid::{
    BraidClient, BraidConfig, BraidServer, BraidServerConfig, HistogramSnapshot, Strategy,
};
use braid_remote::clientproto::StatsReport;
use braid_sim::{Dataset, QueryGen};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

fn counter(report: &StatsReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn hist(report: &StatsReport, name: &str) -> HistogramSnapshot {
    report
        .hists
        .iter()
        .find(|(n, _)| n == name)
        .map_or_else(HistogramSnapshot::default, |(_, buckets)| {
            HistogramSnapshot { buckets: *buckets }
        })
}

fn milli(v: u64) -> String {
    format!("{}.{:01}", v / 1000, (v % 1000) / 100)
}

fn uptime(us: u64) -> String {
    let secs = us / 1_000_000;
    if secs >= 3600 {
        format!(
            "{}h{:02}m{:02}s",
            secs / 3600,
            (secs % 3600) / 60,
            secs % 60
        )
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{}.{}s", secs, (us % 1_000_000) / 100_000)
    }
}

/// Render one report as the fixed dashboard layout. Pure text in/out so
/// `--once` mode, the live loop and the smoke test share one code path.
fn render(addr: &str, report: &StatsReport) -> String {
    let lat = hist(report, "cms.query_latency_us");
    let parked = counter(report, "cms.sessions_parked");
    let wakes = counter(report, "cms.wakes");
    let queries = counter(report, "cms.queries").max(1);
    let full = counter(report, "cms.full_cache_answers");
    let partial = counter(report, "cms.partial_cache_answers");
    let mut out = String::new();
    out.push_str(&format!(
        "braid top — {addr}   up {}   conns {} active / {} accepted\n\n",
        uptime(report.uptime_us),
        report.active_connections,
        report.connections_accepted,
    ));
    out.push_str(&format!(
        "  queries {:>8}   qps {:>9}   wakes/s {:>9}   cache hit {:>5}%\n",
        report.queries,
        milli(report.qps_milli),
        milli(report.wakes_per_sec_milli),
        milli(report.hit_rate_milli.saturating_mul(100)),
    ));
    out.push_str(&format!(
        "  latency µs   p50 {:>7}   p90 {:>7}   p99 {:>7}   max {:>9}   (n {})\n",
        lat.p50(),
        lat.p90(),
        lat.p99(),
        lat.max(),
        lat.count(),
    ));
    out.push_str(&format!(
        "  pool   run-queue {:>4}   parked {:>4}   spawned {}   finished {}   panicked {}\n",
        report.pool_queue_len,
        report.pool_parked,
        report.pool_spawned,
        report.pool_finished,
        report.pool_panicked,
    ));
    out.push_str(&format!(
        "  sched  parks {parked} / wakes {wakes} {}   steps {}\n",
        if parked == wakes {
            "(balanced)"
        } else {
            "(in flight)"
        },
        counter(report, "cms.steps_executed"),
    ));
    out.push_str(&format!(
        "  cache  full {full}   partial {partial}   remote subqueries {}   evictions {}\n",
        counter(report, "cms.remote_subqueries"),
        counter(report, "cms.evictions"),
    ));
    out.push_str(&format!(
        "  faults retries {}   timeouts {}   breaker opens {}   degraded {}   recorder dropped {}\n",
        counter(report, "cms.retries"),
        counter(report, "cms.deadline_timeouts"),
        counter(report, "cms.breaker_opens"),
        counter(report, "cms.degraded_answers"),
        report.recorder_dropped,
    ));
    out.push_str(&format!(
        "  share  {:.1}% of internal queries answered fully from cache ({} of {})\n",
        full as f64 * 100.0 / queries as f64,
        full,
        queries,
    ));
    out
}

/// The self-contained demo: a small genealogy server plus one
/// background connection issuing the seeded query pool in a loop.
struct Demo {
    server: BraidServer,
    stop: Arc<AtomicBool>,
    traffic: Option<std::thread::JoinHandle<()>>,
}

impl Demo {
    fn start() -> std::io::Result<Demo> {
        let dataset = Dataset::Genealogy {
            generations: 3,
            branching: 2,
            seed: 42,
        };
        let system = braid::BraidSystem::new(
            dataset.catalog(),
            dataset.knowledge_base(),
            BraidConfig::default(),
        );
        let server = BraidServer::start(
            system,
            BraidServerConfig {
                workers: 2,
                ..BraidServerConfig::default()
            },
        )?;
        let stop = Arc::new(AtomicBool::new(false));
        let queries = QueryGen::new(&dataset).stream(7, 64);
        let addr = server.local_addr();
        let traffic = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let Ok(mut client) = BraidClient::connect_timeout(addr, Duration::from_secs(5))
                else {
                    return;
                };
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let _ = client
                        .solve_checked(&queries[i % queries.len()], Strategy::ConjunctionCompiled);
                    i += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                client.goodbye();
            })
        };
        Ok(Demo {
            server,
            stop,
            traffic: Some(traffic),
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

impl Drop for Demo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.traffic.take() {
            let _ = h.join();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let once = args.iter().any(|a| a == "--once");
    let demo_mode = args.iter().any(|a| a == "--demo");
    let interval = Duration::from_millis(arg_u64(&args, "--interval-ms").unwrap_or(1000).max(10));
    // 0 = run until interrupted; the demo defaults to a short bounded
    // run so it terminates on its own.
    let ticks = arg_u64(&args, "--ticks").unwrap_or(if demo_mode && !once { 10 } else { 0 });

    let demo = if demo_mode {
        match Demo::start() {
            Ok(d) => Some(d),
            Err(e) => {
                eprintln!("top: demo server failed to start: {e}");
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    let addr: SocketAddr = match (&demo, arg_str(&args, "--addr")) {
        (Some(d), _) => d.addr(),
        (None, Some(a)) => match a.parse() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("top: bad --addr `{a}`: {e}");
                std::process::exit(2);
            }
        },
        (None, None) => {
            eprintln!(
                "usage: top (--addr HOST:PORT | --demo) [--once] [--interval-ms N] [--ticks N]"
            );
            std::process::exit(2);
        }
    };

    let mut client = match BraidClient::connect_timeout(addr, Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("top: cannot connect to {addr}: {e}");
            std::process::exit(2);
        }
    };
    // Give the demo's background loop a beat so the first frame has
    // non-zero traffic behind it.
    if demo.is_some() {
        std::thread::sleep(Duration::from_millis(300));
    }

    let mut tick = 0u64;
    loop {
        let report = match client.stats() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("top: stats request failed: {e}");
                std::process::exit(1);
            }
        };
        if once || ticks == 1 {
            print!("{}", render(&addr.to_string(), &report));
            break;
        }
        // Live mode: repaint in place.
        print!("\x1b[2J\x1b[H{}", render(&addr.to_string(), &report));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        tick += 1;
        if ticks > 0 && tick >= ticks {
            println!();
            break;
        }
        std::thread::sleep(interval);
    }
    client.goodbye();
}
