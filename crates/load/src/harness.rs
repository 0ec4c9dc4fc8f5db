//! The parent side: start a [`BraidServer`], fan out worker processes,
//! collect their report frames, merge histograms, and check every
//! process digest against the reference model.

use crate::spec::{query_pool, LoadSpec};
use crate::worker::run_load_worker;
use braid::{
    BraidClient, BraidConfig, BraidServer, BraidServerConfig, BraidServerStats, CheckedSolutions,
    CombinedMetrics, Completeness, Strategy,
};
use braid_cms::sched::PoolSnapshot;
use braid_remote::clientproto::{decode_load_report, kind, LoadReport};
use braid_sim::{digest_answer, fork_workers, Dataset, RefModel, SpawnMode, DIGEST_SEED};
use braid_trace::HistogramSnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Ground-truth database parameters (shared by server and oracle).
    pub dataset: Dataset,
    /// Inference strategy every query uses.
    pub strategy: Strategy,
    /// Worker processes to fork.
    pub procs: u32,
    /// Connections (client threads) per process.
    pub conns: u32,
    /// Queries per process.
    pub queries_per_proc: u32,
    /// Per-process open-loop arrival rate (queries/second); `0` runs the
    /// closed loop.
    pub rate_per_sec: u32,
    /// Harness seed (schedules and query pools derive from it).
    pub seed: u64,
    /// Server worker-pool threads.
    pub workers: usize,
    /// Server per-task step budget.
    pub step_budget: usize,
    /// Thread or process workers.
    pub spawn: SpawnMode,
    /// Run queries with wire tracing on (TRACE frames + client-side
    /// grafting) — the E19 overhead knob.
    pub wire_trace: bool,
    /// Head-sampling period when `wire_trace` is set: trace one query
    /// slot in every `trace_sample` (`1` = every query; clamped to ≥ 1).
    /// Production tracers sample for exactly this reason — E19's
    /// deployed lane runs 1-in-8, its audit lane runs 1-in-1.
    pub trace_sample: u32,
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
            strategy: Strategy::ConjunctionCompiled,
            procs: 4,
            conns: 2,
            queries_per_proc: 200,
            rate_per_sec: 800,
            seed: 0,
            workers: 4,
            step_budget: 8,
            spawn: SpawnMode::Thread,
            wire_trace: false,
            trace_sample: 1,
            stats_poll_hz: 0,
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Per-process reports, in process order.
    pub reports: Vec<LoadReport>,
    /// All processes' latency buckets merged (client-observed,
    /// open-loop-charged when a rate was set).
    pub merged: HistogramSnapshot,
    /// Process indices whose digest disagreed with the reference model
    /// (empty ⇒ every answer of every process was oracle-correct).
    pub digest_mismatches: Vec<u32>,
    /// Server-side metrics at quiescence (latency histogram, run-queue
    /// high water, park/wake counters).
    pub metrics: CombinedMetrics,
    /// Server counters at quiescence (before shutdown).
    pub stats: BraidServerStats,
    /// Pool counters at quiescence (before shutdown).
    pub pool: PoolSnapshot,
    /// Wall-clock time from first fork to last report.
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
    /// Did every process finish every query with oracle-correct answers
    /// and did the server drain completely?
    pub fn passed(&self) -> bool {
        self.digest_mismatches.is_empty()
            && self.reports.iter().all(|r| r.errors == 0 && r.ok == r.sent)
            && self.stats.active == 0
            && self.pool.spawned == self.pool.finished
            && self.pool.parked == 0
    }

    /// Total queries answered successfully across processes.
    pub fn total_ok(&self) -> u64 {
        self.reports.iter().map(|r| r.ok).sum()
    }
}

/// The expected digest for one process: replay its seeded query pool
/// through the reference model and combine per-query digests exactly as
/// the worker does (wrapping add; every answer Exact, since load runs
/// are fault-free).
fn expected_digest(model: &RefModel, spec: &LoadSpec) -> Result<u64, String> {
    let mut total = 0u64;
    for q in query_pool(&spec.dataset, spec.stream_seed(), spec.queries as usize) {
        let checked = CheckedSolutions {
            solutions: model.solve_text(&q)?,
            completeness: Completeness::Exact,
        };
        let mut d = DIGEST_SEED;
        digest_answer(&mut d, &q, &checked);
        total = total.wrapping_add(d);
    }
    Ok(total)
}

/// Run one load configuration end to end: server up, workers out,
/// reports in, digests checked, gauges drained, server down.
///
/// # Errors
/// Worker spawn/pipe failures, a worker dying without a report, or the
/// reference model rejecting the workload (never answer mismatches —
/// those are reported in [`LoadOutcome::digest_mismatches`]).
pub fn run_load(cfg: &LoadConfig) -> Result<LoadOutcome, String> {
    let catalog = cfg.dataset.catalog();
    let kb = cfg.dataset.knowledge_base();
    let model = RefModel::new(&catalog, &kb)?;
    let system = braid::BraidSystem::new(catalog, kb, BraidConfig::default());
    let server = BraidServer::start(
        system,
        BraidServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: cfg.workers,
            step_budget: cfg.step_budget,
        },
    )
    .map_err(|e| format!("server start failed: {e}"))?;
    let addr = server.local_addr().to_string();

    let specs: Vec<LoadSpec> = (0..cfg.procs.max(1))
        .map(|p| LoadSpec {
            addr: addr.clone(),
            proc: p,
            seed: cfg.seed,
            dataset: cfg.dataset.clone(),
            strategy: cfg.strategy,
            conns: cfg.conns,
            queries: cfg.queries_per_proc,
            rate_per_sec: cfg.rate_per_sec,
            trace: cfg.wire_trace,
            trace_sample: cfg.trace_sample.max(1),
        })
        .collect();

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

    let start = Instant::now();
    let reports: Vec<LoadReport> = match &cfg.spawn {
        SpawnMode::Thread => std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| scope.spawn(move || run_load_worker(spec)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "worker thread panicked".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })?,
        SpawnMode::Process(program) => {
            let texts: Vec<String> = specs.iter().map(LoadSpec::to_json).collect();
            fork_workers(program, kind::LOAD_SPEC, &texts, kind::LOAD_REPORT)?
                .iter()
                .map(|p| decode_load_report(p).map_err(|e| format!("load report corrupt: {e}")))
                .collect::<Result<_, String>>()?
        }
    };
    let elapsed = start.elapsed();
    polling.store(false, Ordering::SeqCst);
    let (stats_polls, peak_run_queue, peak_inflight) = poller
        .map(|h| h.join().unwrap_or((0, 0, 0)))
        .unwrap_or((0, 0, 0));

    let mut digest_mismatches = Vec::new();
    for (report, spec) in reports.iter().zip(&specs) {
        if report.digest != expected_digest(&model, spec)? {
            digest_mismatches.push(report.proc);
        }
    }

    let merged = reports.iter().fold(HistogramSnapshot::default(), |acc, r| {
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
        reports,
        merged,
        digest_mismatches,
        metrics,
        stats,
        pool,
        elapsed,
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
    }

    #[test]
    fn traced_run_with_stats_polling_passes_the_oracle() {
        let out = run_load(&LoadConfig {
            procs: 2,
            conns: 2,
            queries_per_proc: 24,
            rate_per_sec: 0,
            workers: 2,
            wire_trace: true,
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
        // The schedule spans ~8ms per process; the run cannot finish
        // faster than its last scheduled arrival.
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
}
