//! E18 — open-loop multi-process load against the braid server.
//!
//! E17 measured the worker pool from inside the server's own process;
//! this experiment measures the whole front door from outside it, under
//! load the pinned benchmark (closed-loop by design — its four
//! workloads are the closed-loop record) does not offer: the braid-load
//! harness forks real client processes (self-exec with the worker
//! flag), each opening TCP connections through [`BraidClient`] and
//! submitting a seeded query pool on seeded Poisson arrivals, with
//! latency charged from the *scheduled* arrival so queueing delay lands
//! in the histogram instead of silently pacing the generator. Every
//! process digest is checked against the sim `RefModel`, the per-process
//! log2 histograms merge into one cross-process p50/p90/p99, and the
//! run asserts all server gauges drain to zero.
//!
//! [`BraidClient`]: braid::BraidClient

use crate::experiments::support::load_lane;
use crate::table::Table;
use braid_load::{LoadConfig, LoadOutcome};

/// One lane of the sweep.
fn lane(procs: u32, conns: u32, queries: u32, rate: u32, quick: bool) -> LoadOutcome {
    load_lane(
        quick,
        LoadConfig {
            procs,
            conns,
            queries_per_proc: queries,
            rate_per_sec: rate,
            seed: 18,
            ..LoadConfig::default()
        },
    )
}

fn row(t: &mut Table, label: &str, procs: u32, conns: u32, rate: u32, out: &LoadOutcome) {
    t.row(vec![
        label.into(),
        procs.to_string(),
        conns.to_string(),
        rate.to_string(),
        out.total_ok().to_string(),
        out.digest_mismatches.len().to_string(),
        out.merged.p50().to_string(),
        out.merged.p90().to_string(),
        out.merged.p99().to_string(),
        out.metrics.cms.run_queue_depth.to_string(),
        out.metrics.cms.sessions_parked.to_string(),
        out.stats.connections_accepted.to_string(),
        out.elapsed.as_millis().to_string(),
    ]);
}

/// Run E18.
pub fn run(quick: bool) -> Table {
    let queries = if quick { 40 } else { 250 };
    let procs = if quick { 2 } else { 4 };
    let wide_procs = if quick { 2 } else { 6 };
    let conns = 2;

    let mut t = Table::new(
        format!(
            "E18 open-loop multi-process load — {queries} queries/process over TCP via {}, \
             digests checked against the reference model",
            if quick {
                "in-process worker threads"
            } else {
                "forked worker processes"
            }
        ),
        &[
            "lane",
            "procs",
            "conns",
            "rate/s",
            "ok",
            "digest miss",
            "p50 us",
            "p90 us",
            "p99 us",
            "peak runq",
            "parked",
            "accepted",
            "elapsed ms",
        ],
    );

    // A rate the server can absorb (per-process capacity is a few
    // hundred queries/s here), then a rate that outruns it enough that
    // queueing delay dominates the whole distribution.
    let gentle = 150;
    let out = lane(procs, conns, queries, gentle, quick);
    row(&mut t, "open loop (gentle)", procs, conns, gentle, &out);

    let hot = if quick { 6_000 } else { 12_000 };
    let out = lane(procs, conns, queries, hot, quick);
    row(&mut t, "open loop (hot)", procs, conns, hot, &out);

    let out = lane(wide_procs, conns, queries, gentle, quick);
    row(&mut t, "open loop (wide)", wide_procs, conns, gentle, &out);

    t.note(
        "Each process is a real forked client (self-exec worker mode) with \
         its own connections; per-process FNV digests are recomputed from \
         the RefModel oracle, so `digest miss` must be 0. Arrivals are \
         seeded Poisson and latency is charged from the scheduled arrival, so \
         a lagging server accrues queueing delay at p99 instead of slowing \
         the generator (no coordinated omission). Percentiles come from \
         merging every process's log2 histogram buckets shipped in the \
         report frames; `peak runq`/`parked` are server-side pool gauges, \
         and every run asserts active connections and pool tasks drain to \
         zero on shutdown.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests stay in thread mode: the libtest binary cannot
    // self-exec as a worker. True process coverage lives in
    // crates/load/tests/multiprocess.rs against the `load` binary.
    #[test]
    fn open_lanes_pass_the_oracle() {
        let open = lane(2, 1, 12, 3_000, true);
        assert_eq!(open.total_ok(), 24);
        assert_eq!(open.merged.count(), 24);
    }
}
