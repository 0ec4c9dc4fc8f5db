//! The closed loop: each connection asks, waits for the whole answer,
//! and only then asks again — as an inference engine waits for a subgoal
//! before it moves to the next.

use crate::rig::{self, Outcome, Rung};
use crate::workloads::{Query, Stream};
use braid::Tuple;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Answers kept whole (not just digested) per connection, for the leaf
/// probes that need real payloads.
pub const KEPT_ANSWERS: usize = 256;

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Stop asking once this much time has passed.
    Deadline(Duration),
    /// Ask exactly this many queries on each connection.
    Count(usize),
}

#[derive(Debug, Clone)]
pub struct Asked {
    pub query: Query,
    pub latency: Duration,
    /// When the answer was complete, from the common start.
    pub done: Duration,
    pub digest: u64,
    pub tuples: usize,
    /// Why this query counts as failed, if it does.
    pub problem: Option<String>,
}

impl Asked {
    fn new(query: Query, outcome: &Outcome, done: Duration) -> Asked {
        let problem = match &outcome.exact {
            Ok(true) => None,
            Ok(false) => Some("answer was Partial, not Exact".to_string()),
            Err(e) => Some(e.clone()),
        };
        Asked {
            query,
            latency: outcome.latency,
            done,
            digest: rig::digest(&outcome.tuples),
            tuples: outcome.tuples.len(),
            problem,
        }
    }
}

/// One timed call, as the benchmark's own recorder keeps it. The ladder
/// replays one query list at three entry points, so a span's parent is
/// the layer above it, named — not an enclosing interval on one clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub conn: usize,
    /// Position of the query in its connection's stream.
    pub query: usize,
    /// From the recorder's epoch.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Turns the recorder on for a pass: every call becomes a [`Span`].
#[derive(Debug, Clone, Copy)]
pub struct Trace {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub epoch: Instant,
}

#[derive(Debug, Default)]
pub struct ConnLog {
    pub asked: Vec<Asked>,
    /// The first [`KEPT_ANSWERS`] answers, in order.
    pub kept: Vec<Vec<Tuple>>,
    /// One span per query when the pass was traced.
    pub spans: Vec<Span>,
}

/// Ask `queries` one after another on one rung (warm-up and priming).
pub fn ask_all(rung: &mut dyn Rung, queries: Vec<Query>) -> ConnLog {
    let started = Instant::now();
    let mut log = ConnLog::default();
    for query in queries {
        let outcome = rung.ask(&query);
        log.asked
            .push(Asked::new(query, &outcome, started.elapsed()));
    }
    log
}

/// Run one connection per rung, each on its own thread and its own
/// stream, until `stop`. Returns the logs and the wall time of the pass.
pub fn drive(
    rungs: &mut [Box<dyn Rung>],
    streams: &mut [Stream<'_>],
    stop: Stop,
    trace: Option<Trace>,
) -> (Vec<ConnLog>, Duration) {
    assert_eq!(rungs.len(), streams.len());
    let barrier = Barrier::new(rungs.len());
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = rungs
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(conn, (rung, stream))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    barrier.wait();
                    let started = Instant::now();
                    loop {
                        match stop {
                            Stop::Count(n) if log.asked.len() >= n => break,
                            Stop::Deadline(d) if started.elapsed() >= d => break,
                            _ => {}
                        }
                        let query = stream.next_query();
                        let outcome = rung.ask(&query);
                        if let Some(t) = trace {
                            let end = t.epoch.elapsed();
                            log.spans.push(Span {
                                name: t.name,
                                parent: t.parent,
                                conn,
                                query: log.asked.len(),
                                start: end.saturating_sub(outcome.latency),
                                end,
                            });
                        }
                        log.asked
                            .push(Asked::new(query, &outcome, started.elapsed()));
                        if log.kept.len() < KEPT_ANSWERS {
                            log.kept.push(outcome.tuples);
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall = logs
        .iter()
        .filter_map(|l| l.asked.last())
        .map(|a| a.done)
        .max()
        .unwrap_or_default();
    (logs, wall)
}
