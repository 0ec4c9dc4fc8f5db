//! Per-query EXPLAIN: a structured report reconstructed from one solve's
//! span tree.
//!
//! [`SessionHandle::solve_explained`](crate::SessionHandle::solve_explained)
//! attaches a private ring sink to the session's tracer, runs the solve,
//! and folds the drained events into an [`ExplainReport`]: advice
//! consulted, planner decisions per CMS query (cache / mixed / remote,
//! lazy / eager), the cached views subsumption matched, the remainder
//! subqueries shipped to the DBMS, faults and retries survived, and the
//! completeness verdict. [`ExplainReport::summary`] strips everything
//! timing-dependent so tests can golden-compare reports across runs.

use braid_cms::trace::{render_text, TraceEvent, TraceKind};
use braid_cms::Completeness;
use std::fmt;

/// One CMS query's planner decision, reconstructed from its `cms.plan`
/// trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplain {
    /// The CAQL query head the CMS answered.
    pub query: String,
    /// Where the answer came from: `full_cache`, `mixed` or `all_remote`.
    pub decision: String,
    /// Delivery mode: `lazy` (generator) or `eager` (materialized).
    pub mode: String,
    /// Cached views subsumption matched (plan parts served locally).
    pub matched_views: Vec<String>,
    /// Remainder subqueries shipped to the remote DBMS.
    pub remainder: Vec<String>,
    /// Cache pins taken to hold the plan's elements resident.
    pub pins: u64,
}

/// The full EXPLAIN report for one solve.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The AI query as submitted.
    pub goal: String,
    /// Number of (unique, sorted) solutions returned.
    pub solutions: usize,
    /// Completeness verdict: `Exact`, or `Partial` naming what the cache
    /// could not cover while the remote was unreachable.
    pub completeness: Completeness,
    /// View specifications installed by the IE's advice step (`None`
    /// when the solve was a direct base probe without advice).
    pub advice_view_specs: Option<u64>,
    /// Planner decision per CMS query, in submission order.
    pub plans: Vec<PlanExplain>,
    /// Generalized queries evaluated in place of narrower ones (§5.3.1).
    pub generalizations: Vec<String>,
    /// Prefetch heads evaluated into the cache ahead of demand (§4.2).
    pub prefetches: Vec<String>,
    /// Resilience incidents: retries, breaker transitions, deadline
    /// timeouts — rendered as `kind: label`.
    pub faults: Vec<String>,
    /// Queries answered in degraded (cache-only) mode.
    pub degraded: Vec<String>,
    /// Cooperative-scheduler incidents: each park and resume of the
    /// session, rendered as `kind: label` (resumes carry the parked
    /// duration in their event fields; see [`ExplainReport::render_trace`]).
    pub sched: Vec<String>,
    /// Remote fetch spans opened by the execution monitor.
    pub remote_fetches: u64,
    /// Plan parts served from the cache by the execution monitor.
    pub cache_parts: u64,
    /// How each cache part reached its element's rows, as
    /// `element #id: access` — `probe(col)` for an index probe,
    /// `range(col) read/total` for a clustered slice, `scan` otherwise.
    pub cache_access: Vec<String>,
    /// The raw span/event log (completion order), for
    /// [`ExplainReport::render_trace`] and JSON export.
    pub events: Vec<TraceEvent>,
}

/// The timing-free projection of an [`ExplainReport`]: everything that is
/// deterministic for a deterministic workload, so golden tests can
/// compare it with `==` across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainSummary {
    /// The AI query as submitted.
    pub goal: String,
    /// Number of solutions.
    pub solutions: usize,
    /// Was the answer provably complete?
    pub exact: bool,
    /// View specifications installed by advice.
    pub advice_view_specs: Option<u64>,
    /// Planner decisions, in submission order.
    pub plans: Vec<PlanExplain>,
    /// Generalized queries.
    pub generalizations: Vec<String>,
    /// Queries answered degraded.
    pub degraded: Vec<String>,
}

fn split_list(s: &str, sep: &str) -> Vec<String> {
    s.split(sep)
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

impl ExplainReport {
    /// Fold a drained event log into a report. `goal`, `solutions` and
    /// `completeness` come from the solve itself; everything else is
    /// reconstructed from the events.
    pub fn from_events(
        goal: &str,
        solutions: usize,
        completeness: Completeness,
        events: Vec<TraceEvent>,
    ) -> ExplainReport {
        let mut report = ExplainReport {
            goal: goal.to_string(),
            solutions,
            completeness,
            advice_view_specs: None,
            plans: Vec::new(),
            generalizations: Vec::new(),
            prefetches: Vec::new(),
            faults: Vec::new(),
            degraded: Vec::new(),
            sched: Vec::new(),
            remote_fetches: 0,
            cache_parts: 0,
            cache_access: Vec::new(),
            events,
        };
        for e in &report.events {
            match e.kind {
                TraceKind::AdviceInstalled => {
                    report.advice_view_specs = e.field("view_specs").and_then(|v| v.parse().ok());
                }
                TraceKind::PlanDecision => {
                    report.plans.push(PlanExplain {
                        query: e.label.clone(),
                        decision: e.field("decision").unwrap_or("?").to_string(),
                        mode: e.field("mode").unwrap_or("?").to_string(),
                        matched_views: split_list(e.field("matched_views").unwrap_or(""), ","),
                        remainder: split_list(e.field("remainder").unwrap_or(""), ";"),
                        pins: e.field("pins").and_then(|v| v.parse().ok()).unwrap_or(0),
                    });
                }
                TraceKind::Generalize => report.generalizations.push(e.label.clone()),
                TraceKind::Prefetch => report.prefetches.push(e.label.clone()),
                TraceKind::Retry
                | TraceKind::BreakerOpen
                | TraceKind::BreakerReject
                | TraceKind::DeadlineTimeout => {
                    report
                        .faults
                        .push(format!("{}: {}", e.kind.as_str(), e.label));
                }
                TraceKind::Degraded => report.degraded.push(e.label.clone()),
                TraceKind::SchedPark | TraceKind::SchedResume => {
                    let mut line = format!("{}: {}", e.kind.as_str(), e.label);
                    if let Some(w) = e.field("waited_us") {
                        line.push_str(&format!(" (waited {w}us)"));
                    }
                    report.sched.push(line);
                }
                TraceKind::RemoteFetch => report.remote_fetches += 1,
                TraceKind::CachePart => {
                    report.cache_parts += 1;
                    if let Some(access) = e.field("access") {
                        report.cache_access.push(format!("{}: {access}", e.label));
                    }
                }
                _ => {}
            }
        }
        // Events record in completion order; present plans in
        // submission (start) order.
        report.plans.sort_by_key(|p| {
            report
                .events
                .iter()
                .find(|e| e.kind == TraceKind::PlanDecision && e.label == p.query)
                .map_or(0, |e| e.start_us)
        });
        report
    }

    /// The timing-free projection (see [`ExplainSummary`]).
    pub fn summary(&self) -> ExplainSummary {
        ExplainSummary {
            goal: self.goal.clone(),
            solutions: self.solutions,
            exact: self.completeness.is_exact(),
            advice_view_specs: self.advice_view_specs,
            plans: self.plans.clone(),
            generalizations: self.generalizations.clone(),
            degraded: self.degraded.clone(),
        }
    }

    /// The indented span tree, as captured (includes timings). Spans
    /// grafted from across the wire (tagged `origin=server` by
    /// [`crate::BraidClient::solve_explained`]) render with a
    /// `server:` label prefix so the process boundary stays visible in
    /// the tree.
    pub fn render_trace(&self) -> String {
        if self
            .events
            .iter()
            .all(|e| e.field("origin") != Some("server"))
        {
            return render_text(&self.events);
        }
        let marked: Vec<TraceEvent> = self
            .events
            .iter()
            .cloned()
            .map(|mut e| {
                if e.field("origin") == Some("server") {
                    e.label = format!("server: {}", e.label);
                }
                e
            })
            .collect();
        render_text(&marked)
    }

    /// The raw event log as JSON lines.
    pub fn to_json_lines(&self) -> String {
        braid_cms::trace::render_json_lines(&self.events)
    }
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXPLAIN {}", self.goal)?;
        writeln!(
            f,
            "  solutions: {}   completeness: {}",
            self.solutions,
            match &self.completeness {
                Completeness::Exact => "exact".to_string(),
                Completeness::Partial { missing_subqueries } =>
                    format!("PARTIAL (missing: {})", missing_subqueries.join("; ")),
            }
        )?;
        if let Some(n) = self.advice_view_specs {
            writeln!(f, "  advice: {n} view spec(s) installed")?;
        }
        for p in &self.plans {
            writeln!(f, "  plan {} -> {} ({})", p.query, p.decision, p.mode)?;
            if !p.matched_views.is_empty() {
                writeln!(f, "    matched views: {}", p.matched_views.join(", "))?;
            }
            if !p.remainder.is_empty() {
                writeln!(f, "    remainder (remote): {}", p.remainder.join("; "))?;
            }
            if p.pins > 0 {
                writeln!(f, "    pins: {}", p.pins)?;
            }
        }
        for g in &self.generalizations {
            writeln!(f, "  generalized: {g}")?;
        }
        for p in &self.prefetches {
            writeln!(f, "  prefetched: {p}")?;
        }
        for d in &self.degraded {
            writeln!(f, "  degraded: {d}")?;
        }
        for fault in &self.faults {
            writeln!(f, "  fault: {fault}")?;
        }
        for s in &self.sched {
            writeln!(f, "  sched: {s}")?;
        }
        writeln!(
            f,
            "  monitor: {} remote fetch(es), {} cache part(s)",
            self.remote_fetches, self.cache_parts
        )?;
        for a in &self.cache_access {
            writeln!(f, "    cache part {a}")?;
        }
        write!(f, "{}", self.render_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: TraceKind, label: &str, fields: Vec<(&'static str, String)>) -> TraceEvent {
        TraceEvent {
            seq: 0,
            id: 1,
            parent: None,
            kind,
            label: label.to_string(),
            start_us: 0,
            dur_us: 0,
            fields,
        }
    }

    #[test]
    fn report_reconstructs_plan_decisions() {
        let events = vec![
            event(
                TraceKind::AdviceInstalled,
                "gp(ann, Y)",
                vec![("view_specs", "2".into())],
            ),
            event(
                TraceKind::PlanDecision,
                "q(X)",
                vec![
                    ("decision", "mixed".into()),
                    ("mode", "eager".into()),
                    ("matched_views", "g, w".into()),
                    ("remainder", "b2(X, Z)".into()),
                    ("pins", "2".into()),
                ],
            ),
            event(TraceKind::RemoteFetch, "SELECT ...", vec![]),
        ];
        let r = ExplainReport::from_events("?- gp(ann, Y).", 3, Completeness::Exact, events);
        assert_eq!(r.advice_view_specs, Some(2));
        assert_eq!(r.plans.len(), 1);
        assert_eq!(r.plans[0].decision, "mixed");
        assert_eq!(r.plans[0].matched_views, vec!["g", "w"]);
        assert_eq!(r.plans[0].remainder, vec!["b2(X, Z)"]);
        assert_eq!(r.remote_fetches, 1);
        let text = r.to_string();
        assert!(text.contains("EXPLAIN ?- gp(ann, Y)."));
        assert!(text.contains("matched views: g, w"));
        assert!(text.contains("completeness: exact"));
    }

    #[test]
    fn summary_is_timing_free_and_comparable() {
        let mk = |start_us| {
            let mut e = event(
                TraceKind::PlanDecision,
                "q(X)",
                vec![("decision", "full_cache".into()), ("mode", "lazy".into())],
            );
            e.start_us = start_us;
            e.dur_us = start_us * 3;
            ExplainReport::from_events("?- q(X).", 1, Completeness::Exact, vec![e]).summary()
        };
        assert_eq!(mk(10), mk(99_999));
    }

    #[test]
    fn sched_parks_and_resumes_surface_with_timing() {
        let mut resume = event(
            TraceKind::SchedResume,
            "?- q(X).",
            vec![("waited_us", "120".into())],
        );
        resume.start_us = 120;
        let events = vec![event(TraceKind::SchedPark, "?- q(X).", vec![]), resume];
        let r = ExplainReport::from_events("?- q(X).", 1, Completeness::Exact, events);
        assert_eq!(
            r.sched,
            vec![
                "sched.park: ?- q(X).",
                "sched.resume: ?- q(X). (waited 120us)"
            ]
        );
        let text = r.to_string();
        assert!(text.contains("sched: sched.park: ?- q(X)."));
        assert!(text.contains("(waited 120us)"));
    }

    #[test]
    fn partial_completeness_rendered() {
        let r = ExplainReport::from_events(
            "?- q(X).",
            0,
            Completeness::Partial {
                missing_subqueries: vec!["b1(X, Y)".into()],
            },
            vec![event(TraceKind::Degraded, "q(X)", vec![])],
        );
        assert_eq!(r.degraded, vec!["q(X)"]);
        assert!(!r.summary().exact);
        assert!(r.to_string().contains("PARTIAL (missing: b1(X, Y))"));
    }
}
