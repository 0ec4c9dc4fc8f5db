//! The front-door client driver: a system behind a [`BraidServer`] and
//! many client sessions against it, dealt across worker threads or
//! forked processes (see [`crate::fork`]). Every session is one
//! [`BraidClient`] connection that issues its query stream in order —
//! optionally paced by a seeded Poisson schedule, optionally tracing one
//! query in N — and chains every answer into a per-session digest. The
//! parent recomputes each chain from the [`RefModel`], so a session that
//! got any answer wrong, or got answers in the wrong order, is named.
//!
//! Two callers share it: the sim's procs lane (`Lane::Procs`: a
//! scenario's sessions, unpaced and untraced) and the load harness
//! (`procs × conns` generated sessions, open loop, traced on demand).

use crate::fork::{fork_workers, SpawnMode};
use crate::model::RefModel;
use crate::run::{digest_answer, DIGEST_SEED};
use crate::schedule::arrival_offsets_us;
use crate::spec::{ClientReport, ClientSpec, Pacing, SessionDigest};
use braid::{
    BraidClient, BraidServer, BraidServerConfig, BraidSystem, CheckedSolutions, Completeness,
    Strategy,
};
use braid_trace::Histogram;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Start `system` behind a [`BraidServer`] with a `workers`-thread pool
/// on an ephemeral local port.
///
/// # Errors
/// The listener cannot bind.
pub fn serve(system: impl Into<Arc<BraidSystem>>, workers: usize) -> Result<BraidServer, String> {
    let config = BraidServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
    };
    BraidServer::start(system, config).map_err(|e| format!("server start failed: {e}"))
}

/// A run's clients: their query streams, how they are dealt, paced and
/// traced.
#[derive(Debug, Clone)]
pub struct ClientPlan<'a> {
    /// Inference strategy of every query.
    pub strategy: Strategy,
    /// One query stream per session; session `s` runs on worker
    /// `s % procs`.
    pub sessions: &'a [Vec<String>],
    /// Workers the sessions are dealt across (clamped to the session
    /// count).
    pub procs: usize,
    /// Open-loop arrivals, or `None` for back-to-back queries.
    pub pacing: Option<Pacing>,
    /// Trace one query in this many per session; `0` traces none.
    pub trace_one_in: u32,
    /// Whether workers are threads or forked processes.
    pub spawn: &'a SpawnMode,
}

/// One session's verdict from the model check.
#[derive(Debug, Clone)]
pub struct SessionCheck {
    /// The model's answers to the session's queries, in stream order.
    pub answers: Vec<CheckedSolutions>,
    /// `Ok` iff the session answered every query and its digest equals
    /// the model's chain; otherwise what went wrong, naming the session.
    pub verdict: Result<(), String>,
}

/// A finished run: reports as the workers sent them and the model's
/// verdict on every session. The server is still up: draining and
/// reading its gauges is the caller's.
#[derive(Debug)]
pub struct ClientRun {
    /// One report per worker, in worker order.
    pub reports: Vec<ClientReport>,
    /// One check per session, in session order.
    pub checks: Vec<SessionCheck>,
    /// Wall time from the first worker's start to the last report.
    pub elapsed: Duration,
}

/// Deal `plan`'s sessions to workers, run them against `server`, collect
/// the reports and check every session against `model`.
///
/// # Errors
/// Worker spawn or pipe failures, a worker dying without a report, or
/// the model rejecting a query — never a wrong answer: those are
/// [`SessionCheck::verdict`]s.
pub fn run_clients(
    server: &BraidServer,
    model: &RefModel,
    plan: &ClientPlan,
) -> Result<ClientRun, String> {
    let specs = deal(plan, &server.local_addr().to_string());
    let start = Instant::now();
    let reports: Vec<ClientReport> = match plan.spawn {
        SpawnMode::Thread => std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| scope.spawn(|| run_worker(spec)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "worker thread panicked".to_string()))
                .collect::<Result<_, String>>()
        })?,
        SpawnMode::Process(program) => {
            let texts: Vec<String> = specs.iter().map(ClientSpec::to_json).collect();
            fork_workers(program, &texts)?
                .iter()
                .map(|text| ClientReport::from_json(text).map_err(|e| format!("bad report: {e}")))
                .collect::<Result<_, String>>()?
        }
    };
    let elapsed = start.elapsed();
    let checks = check_sessions(model, plan.sessions, &reports)?;
    Ok(ClientRun {
        reports,
        checks,
        elapsed,
    })
}

/// One spec per worker: session `s` of `plan` goes to worker
/// `s % procs`, every worker pointed at `addr`.
pub(crate) fn deal(plan: &ClientPlan, addr: &str) -> Vec<ClientSpec> {
    let procs = plan.procs.clamp(1, plan.sessions.len().max(1));
    (0..procs)
        .map(|proc| ClientSpec {
            addr: addr.to_string(),
            proc: proc as u32,
            strategy: plan.strategy,
            sessions: (proc..plan.sessions.len())
                .step_by(procs)
                .map(|s| (s as u32, plan.sessions[s].clone()))
                .collect(),
            pacing: plan.pacing,
            trace_one_in: plan.trace_one_in,
        })
        .collect()
}

/// The model check: replay each session's queries through `model`,
/// chain the answers exactly as a worker does, and hold the session's
/// reported digest and counts to it. Every answer must be `Exact`: the
/// driver runs only fault-free systems.
///
/// # Errors
/// The model rejects a query.
fn check_sessions(
    model: &RefModel,
    sessions: &[Vec<String>],
    reports: &[ClientReport],
) -> Result<Vec<SessionCheck>, String> {
    let mut reported: Vec<Option<(u32, &SessionDigest)>> = vec![None; sessions.len()];
    for r in reports {
        for s in &r.sessions {
            let slot = reported
                .get_mut(s.session as usize)
                .ok_or_else(|| format!("proc {} reports unknown session {}", r.proc, s.session))?;
            *slot = Some((r.proc, s));
        }
    }
    sessions
        .iter()
        .zip(reported)
        .enumerate()
        .map(|(session, (queries, got))| {
            let mut want = DIGEST_SEED;
            let mut answers = Vec::with_capacity(queries.len());
            for q in queries {
                let answer = CheckedSolutions {
                    solutions: model.solve_text(q)?,
                    completeness: Completeness::Exact,
                };
                digest_answer(&mut want, q, &answer);
                answers.push(answer);
            }
            let verdict = match got {
                None => Err(format!("session {session}: no worker reported it")),
                Some((proc, s)) if s.errors > 0 || s.solves != queries.len() as u64 => {
                    Err(format!(
                        "session {session} (proc {proc}): {} of {} answered, {} error(s)",
                        s.solves,
                        queries.len(),
                        s.errors
                    ))
                }
                Some((proc, s)) if s.digest != want => Err(format!(
                    "session {session} (proc {proc}): digest {:016x} != model {want:016x}",
                    s.digest
                )),
                Some(_) => Ok(()),
            };
            Ok(SessionCheck { answers, verdict })
        })
        .collect()
}

/// Run one worker's sessions in this process, one thread and one
/// connection per session, all recording into one latency histogram.
/// Thread-mode workers and forked worker processes both run this.
pub(crate) fn run_worker(spec: &ClientSpec) -> ClientReport {
    let addr: Option<SocketAddr> = spec.addr.parse().ok();
    let hist = Histogram::new();
    let start = Instant::now();
    let sessions = std::thread::scope(|scope| {
        let handles: Vec<_> = spec
            .sessions
            .iter()
            .map(|(session, queries)| {
                let hist = &hist;
                scope.spawn(move || run_session(spec, *session, queries, addr, start, hist))
            })
            .collect();
        // A panicking session fails its whole worker: the parent sees a
        // panicked thread or a process exiting without a report.
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    ClientReport {
        proc: spec.proc,
        sessions,
        latency_us: hist.snapshot().buckets,
    }
}

/// One session: connect, issue the queries in order (sleeping to the
/// schedule when paced), chain every answer. A failed solve ends the
/// session — the transport is usually gone.
fn run_session(
    spec: &ClientSpec,
    session: u32,
    queries: &[String],
    addr: Option<SocketAddr>,
    start: Instant,
    hist: &Histogram,
) -> SessionDigest {
    let mut out = SessionDigest {
        session,
        solves: 0,
        errors: 0,
        exact: 0,
        digest: DIGEST_SEED,
    };
    let arrivals = spec.pacing.map_or_else(Vec::new, |p| {
        arrival_offsets_us(p.session_seed(session), p.rate_per_sec, queries.len())
    });
    let Some(mut client) =
        addr.and_then(|a| BraidClient::connect_timeout(a, Duration::from_secs(10)).ok())
    else {
        eprintln!("worker {}: session {session}: connect failed", spec.proc);
        out.errors = 1;
        return out;
    };
    for (i, q) in queries.iter().enumerate() {
        // Open loop: wait for the query's scheduled arrival, then charge
        // latency from that instant even if already late — lateness *is*
        // queueing delay.
        let charged_from = match arrivals.get(i) {
            Some(&offset) => {
                let scheduled = Duration::from_micros(offset);
                if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                scheduled
            }
            None => start.elapsed(),
        };
        // A traced query crosses the whole observability path (TRACE
        // frame, graft, report build); the digest does not see it.
        let traced = spec.trace_one_in > 0 && i.is_multiple_of(spec.trace_one_in as usize);
        let result = if traced {
            client
                .solve_explained(q, spec.strategy)
                .map(|explained| CheckedSolutions {
                    solutions: explained.solutions,
                    completeness: explained.completeness,
                })
        } else {
            client.solve_checked(q, spec.strategy)
        };
        match result {
            Ok(checked) => {
                let latency = start.elapsed().saturating_sub(charged_from);
                hist.record(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
                out.solves += 1;
                out.exact += u64::from(matches!(checked.completeness, Completeness::Exact));
                digest_answer(&mut out.digest, q, &checked);
            }
            Err(e) => {
                eprintln!("worker {}: session {session}: query {i}: {e}", spec.proc);
                out.errors += 1;
                break;
            }
        }
    }
    client.goodbye();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::QueryGen;
    use crate::scenario::Dataset;
    use braid::BraidConfig;

    #[test]
    fn a_flipped_session_digest_fails_the_check_and_is_named() {
        let dataset = Dataset::Genealogy {
            generations: 3,
            branching: 2,
            seed: 5,
        };
        let (catalog, kb) = (dataset.catalog(), dataset.knowledge_base());
        let model = RefModel::new(&catalog, &kb).expect("model builds");
        let gen = QueryGen::new(&dataset);
        let sessions: Vec<Vec<String>> = (0..3).map(|s| gen.stream(s, 6)).collect();
        let server =
            serve(BraidSystem::new(catalog, kb, BraidConfig::default()), 2).expect("server starts");
        let plan = ClientPlan {
            strategy: Strategy::ConjunctionCompiled,
            sessions: &sessions,
            procs: 2,
            pacing: None,
            trace_one_in: 0,
            spawn: &SpawnMode::Thread,
        };
        let mut run = run_clients(&server, &model, &plan).expect("driver runs");
        server.shutdown();
        assert!(run.checks.iter().all(|c| c.verdict.is_ok()), "{run:?}");

        // Session 1 is the first session dealt to worker 1.
        run.reports[1].sessions[0].digest ^= 1;
        let checks = check_sessions(&model, &sessions, &run.reports).expect("model answers");
        let failed: Vec<&String> = checks
            .iter()
            .filter_map(|c| c.verdict.as_ref().err())
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with("session 1 "), "{failed:?}");
        assert!(failed[0].contains("digest"), "{failed:?}");
    }
}
