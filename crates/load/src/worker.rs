//! The worker side of the fork: a process started with [`WORKER_FLAG`]
//! reads one spec frame from stdin, drives the braid server, and writes
//! one report frame to stdout.
//!
//! Workers never print to stdout themselves — the pipe *is* the report
//! channel (diagnostics go to stderr, which the parent leaves
//! inherited).

use crate::schedule::arrival_offsets_us;
use crate::spec::{query_pool, LoadSpec};
use braid::BraidClient;
use braid_cms::Completeness;
use braid_net::{read_frame, write_frame, MAX_FRAME_BYTES};
use braid_remote::clientproto::{
    decode_spec, encode_load_report, kind, LoadReport, LOAD_HIST_BUCKETS,
};
use braid_sim::{digest_answer, DIGEST_SEED, WORKER_FLAG};
use braid_trace::Histogram;
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Call this first thing in `main`: if the process was started as a
/// fork target (argv contains [`WORKER_FLAG`]), run the worker protocol
/// over stdin/stdout and exit; otherwise return and let `main` proceed.
pub fn maybe_worker() {
    if std::env::args().any(|a| a == WORKER_FLAG) {
        std::process::exit(worker_main());
    }
}

fn worker_main() -> i32 {
    match serve_one_spec() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("braid-load worker: {e}");
            2
        }
    }
}

/// One spec frame in, the matching worker run, one report frame out.
fn serve_one_spec() -> Result<(), String> {
    let frame = read_frame(&mut std::io::stdin().lock(), MAX_FRAME_BYTES)
        .map_err(|e| format!("bad spec frame: {e}"))?
        .ok_or("stdin closed before a spec frame")?;
    let text = decode_spec(&frame.payload).map_err(|e| format!("bad spec payload: {e}"))?;
    let (report_kind, payload) = match frame.kind {
        kind::LOAD_SPEC => {
            let spec = LoadSpec::from_json(&text).map_err(|e| format!("bad load spec: {e}"))?;
            (
                kind::LOAD_REPORT,
                encode_load_report(&run_load_worker(&spec)),
            )
        }
        kind::SIM_SPEC => (
            kind::SIM_REPORT,
            braid_sim::procs_worker(&text).map_err(|e| format!("bad sim spec: {e}"))?,
        ),
        other => return Err(format!("unexpected spec kind {other:#x}")),
    };
    let mut stdout = std::io::stdout().lock();
    write_frame(&mut stdout, report_kind, &payload)
        .map_err(|e| format!("report write failed: {e}"))?;
    stdout
        .flush()
        .map_err(|e| format!("report flush failed: {e}"))
}

/// Execute one [`LoadSpec`] in this process: open `conns` connections,
/// claim arrival slots from the shared schedule, and fold every answer
/// into the report's digest and latency histogram. Runs entirely
/// in-process (no fork), so the harness's thread spawn mode and unit
/// tests share this exact code path with real worker processes.
pub fn run_load_worker(spec: &LoadSpec) -> LoadReport {
    let queries = Arc::new(query_pool(
        &spec.dataset,
        spec.stream_seed(),
        spec.queries as usize,
    ));
    let arrivals = Arc::new(arrival_offsets_us(
        spec.stream_seed().rotate_left(17),
        spec.rate_per_sec,
        queries.len(),
    ));
    let addr: Option<SocketAddr> = spec.addr.parse().ok();
    let next = Arc::new(AtomicUsize::new(0));
    let hist = Arc::new(Histogram::new());
    let sent = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let exact = Arc::new(AtomicU64::new(0));
    let partial = Arc::new(AtomicU64::new(0));
    // Commutative (wrapping-add) combine: connection threads race for
    // arrival slots, so the process digest must not depend on
    // completion order. Per-query digests still pin answer contents.
    let digest = Arc::new(AtomicU64::new(0));
    let start = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..spec.conns.max(1) {
            let queries = Arc::clone(&queries);
            let arrivals = Arc::clone(&arrivals);
            let next = Arc::clone(&next);
            let hist = Arc::clone(&hist);
            let sent = Arc::clone(&sent);
            let ok = Arc::clone(&ok);
            let errors = Arc::clone(&errors);
            let exact = Arc::clone(&exact);
            let partial = Arc::clone(&partial);
            let digest = Arc::clone(&digest);
            scope.spawn(move || {
                let Some(addr) = addr else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let mut client = match BraidClient::connect_timeout(addr, Duration::from_secs(10)) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("braid-load worker {}: connect failed: {e}", spec.proc);
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= queries.len() {
                        break;
                    }
                    // Open loop: wait for the slot's scheduled arrival,
                    // then charge latency from that instant even if we
                    // are already late — lateness *is* queueing delay.
                    let charged_from = if let Some(&offset) = arrivals.get(i) {
                        let scheduled = Duration::from_micros(offset);
                        let now = start.elapsed();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        scheduled
                    } else {
                        start.elapsed()
                    };
                    sent.fetch_add(1, Ordering::Relaxed);
                    // Traced slots exercise the whole observability path —
                    // TRACE frame, graft, report build — so E19 measures
                    // the cost a real dashboarded client would pay. The
                    // slot index decides sampling (deterministic under
                    // connection races; the digest is trace-agnostic).
                    let sample = spec.trace_sample.max(1) as usize;
                    let result = if spec.trace && i.is_multiple_of(sample) {
                        client
                            .solve_explained(&queries[i], spec.strategy)
                            .map(|explained| braid::CheckedSolutions {
                                solutions: explained.solutions,
                                completeness: explained.completeness,
                            })
                    } else {
                        client.solve_checked(&queries[i], spec.strategy)
                    };
                    match result {
                        Ok(checked) => {
                            hist.record(
                                start
                                    .elapsed()
                                    .saturating_sub(charged_from)
                                    .as_micros()
                                    .min(u128::from(u64::MAX))
                                    as u64,
                            );
                            ok.fetch_add(1, Ordering::Relaxed);
                            match checked.completeness {
                                Completeness::Exact => exact.fetch_add(1, Ordering::Relaxed),
                                Completeness::Partial { .. } => {
                                    partial.fetch_add(1, Ordering::Relaxed)
                                }
                            };
                            let mut d = DIGEST_SEED;
                            digest_answer(&mut d, &queries[i], &checked);
                            digest.fetch_add(d, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("braid-load worker {}: query {i} failed: {e}", spec.proc);
                            errors.fetch_add(1, Ordering::Relaxed);
                            // A failed solve usually means the transport
                            // is gone; stop claiming slots rather than
                            // burn the rest of the schedule on errors.
                            break;
                        }
                    }
                }
                client.goodbye();
            });
        }
    });

    let snapshot = hist.snapshot();
    let mut latency_us = [0u64; LOAD_HIST_BUCKETS];
    latency_us.copy_from_slice(&snapshot.buckets);
    LoadReport {
        proc: spec.proc,
        sent: sent.load(Ordering::Relaxed),
        ok: ok.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        exact: exact.load(Ordering::Relaxed),
        partial: partial.load(Ordering::Relaxed),
        digest: digest.load(Ordering::Relaxed),
        latency_us,
    }
}

#[cfg(test)]
mod tests {
    use braid_remote::clientproto::LOAD_HIST_BUCKETS;
    use braid_trace::HIST_BUCKETS;

    /// The report frame ships raw `braid-trace` buckets; the wire
    /// constant lives below `braid-trace` in the crate DAG, so their
    /// agreement is pinned here where both are visible.
    #[test]
    fn wire_bucket_count_matches_trace_histograms() {
        assert_eq!(LOAD_HIST_BUCKETS, HIST_BUCKETS);
    }
}
