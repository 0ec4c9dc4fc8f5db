//! The load harness: a front end over the sim's front-door client
//! driver ([`braid_sim::clients`]). It builds `procs × conns` sessions
//! from the sim's own query generator, paces them open-loop on seeded
//! Poisson schedules (or closed-loop), optionally traces and polls
//! STATS, and reports one merged latency histogram beside the driver's
//! per-session oracle verdicts and the server's drained gauges.
//!
//! Three properties make a run a *measurement* rather than a demo:
//! latency is charged from the *scheduled* arrival, so a stalled server
//! accrues the queueing delay it caused (no coordinated omission);
//! every answer is chained into a per-session digest the parent
//! recomputes from the [`RefModel`]; and the log2
//! histograms merge associatively across processes, so the p99 is
//! computed from data, not averaged from per-process percentiles.

use braid::{
    BraidClient, BraidConfig, BraidServerStats, CombinedMetrics, HistogramSnapshot, Strategy,
};
use braid_cms::sched::PoolSnapshot;
use braid_sim::{
    run_clients, serve, ClientPlan, ClientReport, Dataset, Pacing, QueryGen, RefModel, SpawnMode,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Ground-truth database parameters (shared by server and oracle).
    pub dataset: Dataset,
    /// Worker processes (or threads) the sessions are dealt across.
    pub procs: u32,
    /// Connections (sessions) per process.
    pub conns: u32,
    /// Queries per process, split evenly across its connections.
    pub queries_per_proc: u32,
    /// Per-process open-loop arrival rate (queries/second), split evenly
    /// across its connections; `0` runs the closed loop.
    pub rate_per_sec: u32,
    /// Harness seed (query streams and schedules derive from it).
    pub seed: u64,
    /// Server worker-pool threads.
    pub workers: usize,
    /// Thread or process workers.
    pub spawn: SpawnMode,
    /// Send one query in this many per session with wire tracing on
    /// (TRACE frames + client-side grafting); `0` traces none. E19's
    /// deployed lane runs 1-in-8, its audit lane 1-in-1.
    pub trace_one_in: u32,
    /// Poll the server's STATS protocol at this rate (Hz) on a side
    /// connection while the run is in flight; `0` disables polling.
    /// The polled snapshots feed [`LoadOutcome::peak_run_queue`] and
    /// [`LoadOutcome::peak_inflight`].
    pub stats_poll_hz: u32,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            dataset: Dataset::Genealogy {
                generations: 3,
                branching: 2,
                seed: 11,
            },
            procs: 4,
            conns: 2,
            queries_per_proc: 200,
            rate_per_sec: 800,
            seed: 0,
            workers: 4,
            spawn: SpawnMode::Thread,
            trace_one_in: 0,
            stats_poll_hz: 0,
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Per-process reports, in process order.
    pub reports: Vec<ClientReport>,
    /// All processes' latency buckets merged (client-observed,
    /// open-loop-charged when a rate was set).
    pub merged: HistogramSnapshot,
    /// The oracle's complaints, one per failed session, each naming it
    /// (empty ⇒ every answer of every session was oracle-correct).
    pub failed_sessions: Vec<String>,
    /// Server-side metrics at quiescence (latency histogram, run-queue
    /// high water, park/wake counters).
    pub metrics: CombinedMetrics,
    /// Server counters at quiescence (before shutdown).
    pub stats: BraidServerStats,
    /// Pool counters at quiescence (before shutdown).
    pub pool: PoolSnapshot,
    /// Wall-clock time from the first worker's start to the last report.
    pub elapsed: Duration,
    /// STATS snapshots the in-flight poller collected (0 when
    /// `stats_poll_hz` was 0).
    pub stats_polls: u64,
    /// Highest `pool_queue_len` any polled snapshot saw — the run-queue
    /// high-water as a live dashboard would have observed it.
    pub peak_run_queue: u64,
    /// Highest `active_connections` any polled snapshot saw (the
    /// poller's own side connection included).
    pub peak_inflight: u64,
}

impl LoadOutcome {
    /// Did every session answer every query oracle-correctly, and did
    /// the server drain completely?
    pub fn passed(&self) -> bool {
        self.failed_sessions.is_empty()
            && self.stats.active == 0
            && self.pool.spawned == self.pool.finished
            && self.pool.parked == 0
    }

    /// Total queries answered across sessions.
    pub fn total_ok(&self) -> u64 {
        self.reports
            .iter()
            .flat_map(|r| &r.sessions)
            .map(|s| s.solves)
            .sum()
    }
}

/// The run's sessions: `procs × conns` streams from the sim's query
/// generator. The driver deals session `s` to process `s % procs`, so
/// `s / procs` is its connection within that process, and each process
/// gets `queries_per_proc` queries in all.
fn sessions(cfg: &LoadConfig) -> Vec<Vec<String>> {
    let gen = QueryGen::new(&cfg.dataset);
    let (procs, conns) = (cfg.procs.max(1), cfg.conns.max(1));
    (0..procs * conns)
        .map(|s| {
            let conn = s / procs;
            let n = cfg.queries_per_proc / conns + u32::from(conn < cfg.queries_per_proc % conns);
            let seed = cfg.seed ^ u64::from(s).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            gen.stream(seed, n as usize)
        })
        .collect()
}

/// Run one load configuration end to end: server up, workers out,
/// reports in, digests checked, gauges drained, server down.
///
/// # Errors
/// Worker spawn/pipe failures, a worker dying without a report, or the
/// reference model rejecting the workload (never answer mismatches —
/// those are reported in [`LoadOutcome::failed_sessions`]).
pub fn run_load(cfg: &LoadConfig) -> Result<LoadOutcome, String> {
    let catalog = cfg.dataset.catalog();
    let kb = cfg.dataset.knowledge_base();
    let model = RefModel::new(&catalog, &kb)?;
    let server = serve(
        braid::BraidSystem::new(catalog, kb, BraidConfig::default()),
        cfg.workers,
    )?;

    // The optional in-flight poller: a side connection hitting the
    // STATS protocol at `stats_poll_hz` for the whole run, exactly the
    // traffic a live `top` dashboard adds.
    let polling = Arc::new(AtomicBool::new(true));
    let poller = (cfg.stats_poll_hz > 0).then(|| {
        let polling = Arc::clone(&polling);
        let addr = server.local_addr();
        let period = Duration::from_micros(1_000_000 / u64::from(cfg.stats_poll_hz));
        std::thread::spawn(move || {
            let (mut polls, mut peak_q, mut peak_in) = (0u64, 0u64, 0u64);
            let Ok(mut client) = BraidClient::connect_timeout(addr, Duration::from_secs(5)) else {
                return (polls, peak_q, peak_in);
            };
            while polling.load(Ordering::SeqCst) {
                if let Ok(s) = client.stats() {
                    polls += 1;
                    peak_q = peak_q.max(s.pool_queue_len);
                    peak_in = peak_in.max(s.active_connections);
                }
                std::thread::sleep(period);
            }
            client.goodbye();
            (polls, peak_q, peak_in)
        })
    });

    let sessions = sessions(cfg);
    let run = run_clients(
        &server,
        &model,
        &ClientPlan {
            strategy: Strategy::ConjunctionCompiled,
            sessions: &sessions,
            procs: cfg.procs as usize,
            pacing: (cfg.rate_per_sec > 0).then(|| Pacing {
                seed: cfg.seed.rotate_left(17),
                rate_per_sec: (cfg.rate_per_sec / cfg.conns.max(1)).max(1),
            }),
            trace_one_in: cfg.trace_one_in,
            spawn: &cfg.spawn,
        },
    );
    polling.store(false, Ordering::SeqCst);
    let (stats_polls, peak_run_queue, peak_inflight) = poller
        .map(|h| h.join().unwrap_or((0, 0, 0)))
        .unwrap_or((0, 0, 0));
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            server.shutdown();
            return Err(e);
        }
    };

    let merged = run
        .reports
        .iter()
        .fold(HistogramSnapshot::default(), |acc, r| {
            acc.merge(&HistogramSnapshot {
                buckets: r.latency_us,
            })
        });
    // Every client said goodbye; give the connection tasks a bounded
    // moment to observe their closed inboxes before reading the gauges
    // (`LoadOutcome::passed` judges what is left).
    server.quiesce(Duration::from_secs(10));
    let stats = server.stats();
    let pool = server.pool_snapshot();
    let metrics = server.metrics();
    server.shutdown();

    Ok(LoadOutcome {
        failed_sessions: run
            .checks
            .into_iter()
            .filter_map(|c| c.verdict.err())
            .collect(),
        reports: run.reports,
        merged,
        metrics,
        stats,
        pool,
        elapsed: run.elapsed,
        stats_polls,
        peak_run_queue,
        peak_inflight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_mode_closed_loop_run_passes_the_oracle() {
        let out = run_load(&LoadConfig {
            procs: 2,
            conns: 2,
            queries_per_proc: 24,
            rate_per_sec: 0,
            workers: 2,
            ..LoadConfig::default()
        })
        .expect("harness runs");
        assert!(out.passed(), "run failed: {out:?}");
        assert_eq!(out.total_ok(), 48);
        assert_eq!(out.merged.count(), 48);
        assert_eq!(out.stats.connections_accepted, 4, "2 procs x 2 conns");
        assert!(out.reports.iter().all(|r| r.sessions.len() == 2));
    }

    #[test]
    fn traced_run_with_stats_polling_passes_the_oracle() {
        let out = run_load(&LoadConfig {
            procs: 2,
            conns: 2,
            queries_per_proc: 24,
            rate_per_sec: 0,
            workers: 2,
            trace_one_in: 1,
            stats_poll_hz: 50,
            ..LoadConfig::default()
        })
        .expect("harness runs");
        assert!(out.passed(), "run failed: {out:?}");
        assert_eq!(out.total_ok(), 48, "tracing must not change answers");
        // The poller fires at least once before checking its stop flag,
        // and its own side connection keeps the inflight gauge nonzero.
        assert!(out.stats_polls >= 1);
        assert!(out.peak_inflight >= 1, "{out:?}");
    }

    #[test]
    fn thread_mode_open_loop_charges_the_schedule() {
        let out = run_load(&LoadConfig {
            procs: 2,
            conns: 1,
            queries_per_proc: 16,
            rate_per_sec: 2_000,
            workers: 2,
            ..LoadConfig::default()
        })
        .expect("harness runs");
        assert!(out.passed(), "run failed: {out:?}");
        assert_eq!(out.merged.count(), 32);
    }

    #[test]
    fn suppliers_dataset_is_oracle_checkable_too() {
        let out = run_load(&LoadConfig {
            dataset: Dataset::Suppliers {
                parts: 12,
                fanout: 3,
                suppliers: 4,
                cities: 4,
                seed: 3,
            },
            procs: 2,
            conns: 1,
            queries_per_proc: 16,
            rate_per_sec: 0,
            workers: 2,
            ..LoadConfig::default()
        })
        .expect("harness runs");
        assert!(out.passed(), "run failed: {out:?}");
    }

    #[test]
    fn odd_splits_give_every_process_its_queries() {
        let cfg = LoadConfig {
            procs: 2,
            conns: 3,
            queries_per_proc: 10,
            ..LoadConfig::default()
        };
        let lens: Vec<usize> = sessions(&cfg).iter().map(Vec::len).collect();
        // Sessions 0, 2, 4 go to process 0; 1, 3, 5 to process 1.
        assert_eq!(lens, [4, 4, 3, 3, 3, 3]);
    }
}
