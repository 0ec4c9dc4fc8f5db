//! E19 — the price of watching: wire observability overhead.
//!
//! E18 drives the multi-process load harness open-loop; this experiment
//! runs the same harness closed-loop with the observability machinery
//! switched on: wire tracing (the server ships a traced query's span
//! records in a `TRACE` frame and the client grafts them into its own
//! span forest — `solve_explained`) and a live STATS poller (a side
//! connection hitting the `STATS_REQUEST` protocol at 10 Hz, exactly
//! the traffic the `top` dashboard adds). Tracing runs in two shapes:
//! the *deployed* configuration head-samples 1-in-8 queries (the
//! production-tracer pattern — overhead stays proportional to the
//! sample rate), and the *audit* configuration traces every query,
//! which prices the full span pipeline honestly. Latency percentiles
//! and elapsed wall time are compared against the dark baseline, and
//! every lane still runs the full digest oracle — observability that
//! changes answers is a bug, not an overhead.

use crate::experiments::support::load_lane;
use crate::table::Table;
use braid_load::{LoadConfig, LoadOutcome};

/// The load harness's closed-loop lane with the observability knobs
/// exposed; the oracle check doubles as "watching changed no answer".
fn lane(trace: bool, sample: u32, poll_hz: u32, quick: bool) -> LoadOutcome {
    load_lane(
        quick,
        LoadConfig {
            procs: if quick { 2 } else { 4 },
            conns: 2,
            queries_per_proc: if quick { 40 } else { 250 },
            rate_per_sec: 0,
            seed: 19,
            wire_trace: trace,
            trace_sample: sample,
            stats_poll_hz: poll_hz,
            ..LoadConfig::default()
        },
    )
}

/// Signed percent delta vs the baseline, rendered with one decimal.
fn overhead(value: u128, base: u128) -> String {
    if base == 0 {
        return "-".into();
    }
    let delta = value as i128 - base as i128;
    let milli = delta * 1000 / base as i128;
    format!(
        "{}{}.{}%",
        if milli < 0 { "-" } else { "+" },
        milli.abs() / 10,
        milli.abs() % 10
    )
}

/// Elapsed overhead as the *median of per-rep paired ratios*: rep `r`
/// of a lane is compared against rep `r` of the baseline, which ran
/// seconds earlier under the same box conditions, so machine-level
/// drift between reps cancels instead of landing in the delta (the
/// lanes on this suite's shared box swing by double digits run to
/// run; unpaired best-of comparisons inherit that swing).
fn paired_overhead(lane: &[LoadOutcome], base: &[LoadOutcome]) -> String {
    let mut milli: Vec<i128> = lane
        .iter()
        .zip(base)
        .filter(|(_, b)| b.elapsed.as_millis() > 0)
        .map(|(l, b)| {
            (l.elapsed.as_millis() as i128 - b.elapsed.as_millis() as i128) * 1000
                / b.elapsed.as_millis() as i128
        })
        .collect();
    if milli.is_empty() {
        return "-".into();
    }
    milli.sort_unstable();
    let m = milli[milli.len() / 2];
    format!(
        "{}{}.{}%",
        if m < 0 { "-" } else { "+" },
        m.abs() / 10,
        m.abs() % 10
    )
}

/// One lane's result folded over its interleaved repetitions: wall time
/// is best-of-reps (the minimum strips box-level noise the lanes did
/// not cause), percentiles come from the merged
/// histograms of every rep (3× the samples per bucket), and the gauge
/// peaks take the cross-rep maximum.
struct Measured {
    ok: u64,
    digest_misses: usize,
    hist: braid::HistogramSnapshot,
    best_ms: u128,
    stats_polls: u64,
    peak_inflight: u64,
}

fn summarize(reps: &[LoadOutcome]) -> Measured {
    let first = reps.first().expect("at least one rep");
    let hist = reps[1..]
        .iter()
        .fold(first.merged, |acc, o| acc.merge(&o.merged));
    Measured {
        ok: first.total_ok(),
        digest_misses: reps.iter().map(|o| o.digest_mismatches.len()).sum(),
        hist,
        best_ms: reps
            .iter()
            .map(|o| o.elapsed.as_millis())
            .min()
            .unwrap_or_default(),
        stats_polls: reps.iter().map(|o| o.stats_polls).max().unwrap_or(0),
        peak_inflight: reps.iter().map(|o| o.peak_inflight).max().unwrap_or(0),
    }
}

fn row(t: &mut Table, label: &str, out: &Measured, base: &Measured, elapsed_overhead: String) {
    t.row(vec![
        label.into(),
        out.ok.to_string(),
        out.digest_misses.to_string(),
        out.hist.p50().to_string(),
        out.hist.p99().to_string(),
        out.best_ms.to_string(),
        overhead(u128::from(out.hist.p50()), u128::from(base.hist.p50())),
        elapsed_overhead,
        out.stats_polls.to_string(),
        out.peak_inflight.to_string(),
    ]);
}

/// Run E19.
pub fn run(quick: bool) -> Table {
    let mut t = Table::new(
        "E19 wire observability overhead — the load harness's closed-loop lane with \
         wire tracing (1-in-8 deployed sampling and trace-everything audit) \
         and a 10 Hz STATS poller, vs the dark baseline; interleaved \
         best-of-5 (best-of-3 in quick mode)"
            .to_string(),
        &[
            "lane",
            "ok",
            "digest miss",
            "p50 us",
            "p99 us",
            "elapsed ms",
            "p50 overhead",
            "elapsed overhead",
            "stats polls",
            "peak inflight",
        ],
    );

    // (label, trace, sample, poll_hz); run interleaved — every lane
    // runs rep r before any lane runs rep r+1, so a box-level slowdown
    // lands on all lanes evenly instead of biasing one.
    let shapes: [(&str, bool, u32, u32); 5] = [
        ("baseline (dark)", false, 1, 0),
        ("STATS poller 10 Hz", false, 1, 10),
        ("deployed: 1-in-8 tracing + poller", true, 8, 10),
        ("audit: trace every query", true, 1, 0),
        ("audit tracing + poller", true, 1, 10),
    ];
    // The box this suite runs on shows double-digit run-to-run swings
    // under the multi-process lanes; the full report takes 5 reps per
    // lane so best-of strips more of it (quick keeps 3 for CI time).
    let reps = if quick { 3 } else { 5 };
    let mut runs: Vec<Vec<LoadOutcome>> = shapes.iter().map(|_| Vec::new()).collect();
    for _ in 0..reps {
        for (i, &(_, trace, sample, poll_hz)) in shapes.iter().enumerate() {
            runs[i].push(lane(trace, sample, poll_hz, quick));
        }
    }
    let measured: Vec<Measured> = runs.iter().map(|r| summarize(r)).collect();
    let base = &measured[0];
    for (i, (&(label, ..), m)) in shapes.iter().zip(&measured).enumerate() {
        row(&mut t, label, m, base, paired_overhead(&runs[i], &runs[0]));
    }

    t.note(
        "Wire tracing turns a traced query into `solve_explained`: the \
         server attaches a per-connection ring sink, ships the query's span \
         records in a TRACE frame ahead of the answer batches, and the \
         client grafts them under its own request span (clock-offset \
         normalized) before rebuilding the checked answer — so traced \
         queries pay for span recording, the extra frame, and the \
         client-side forest build. A traced query here ships ~10-30 \
         materialized span records over a base query of a few hundred \
         microseconds, so tracing *every* query (the audit lanes) costs a \
         measurable double-digit percent — which is exactly why production \
         tracers head-sample. The deployed lane runs the shipping \
         configuration: 1-in-8 sampling plus the 10 Hz STATS poller, whose \
         per-query cost amortizes to within the ≤5% observability budget. \
         The STATS poller is a real side connection polling the server's \
         sampler ring, the same load a live `top` adds. Every lane replays \
         the identical seeded closed-loop pool and must pass the digest \
         oracle (`digest miss` = 0). Lanes run interleaved over several \
         reps: the elapsed column is the per-lane minimum, percentiles \
         merge every rep's histogram, and `elapsed overhead` is the median \
         of per-rep *paired* ratios — each rep's lane against the same \
         rep's baseline, run seconds apart, so box-level drift cancels \
         instead of landing in the delta. \
         p50/p99 land in log2 buckets, so a lane whose median latency sits \
         at a bucket edge can read a whole-bucket (±100%) p50 delta where \
         the true shift is a few percent — elapsed wall time is the \
         fine-grained number. `peak inflight` is the poller's own view of \
         active connections mid-run.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // Thread mode only: the libtest binary cannot self-exec as a
    // worker (same constraint as E18's unit tests).
    #[test]
    fn observability_lanes_pass_the_oracle() {
        let base = lane(false, 1, 0, true);
        let both = lane(true, 1, 20, true);
        assert_eq!(base.total_ok(), both.total_ok());
        assert_eq!(base.stats_polls, 0);
        assert!(both.stats_polls >= 1, "poller sampled the run");
    }

    #[test]
    fn sampled_tracing_answers_match_the_full_trace_lane() {
        let sampled = lane(true, 8, 0, true);
        let full = lane(true, 1, 0, true);
        assert_eq!(sampled.total_ok(), full.total_ok());
        for (s, f) in sampled.reports.iter().zip(&full.reports) {
            assert_eq!(
                s.digest, f.digest,
                "sampling changed proc {} answers",
                s.proc
            );
        }
    }

    #[test]
    fn overhead_renders_signed_percents() {
        assert_eq!(overhead(110, 100), "+10.0%");
        assert_eq!(overhead(95, 100), "-5.0%");
        assert_eq!(overhead(100, 100), "+0.0%");
        assert_eq!(overhead(5, 0), "-");
    }
}
