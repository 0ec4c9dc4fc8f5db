//! Resilience policy for remote fetches: retry with capped exponential
//! backoff, per-request deadlines, and a circuit breaker shared across
//! the Execution Monitor's parallel fetch threads.
//!
//! Everything here is *simulated-time deterministic*: backoff is charged
//! in cost units (counters, not sleeps), the breaker is count-based
//! (K consecutive failures open it, the next `cooldown` attempts are
//! rejected, then a half-open probe decides), and deadlines compare the
//! per-request latency receipt the remote server returns. Same fault
//! plan + same request order → same recovery behaviour.

use crate::error::{CmsError, Result};
use crate::metrics::CmsMetrics;
use braid_trace::{TraceKind, Tracer};
use std::sync::{Arc, Mutex};

/// Tunable resilience policy, carried on
/// [`CmsConfig`](crate::config::CmsConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Retries per remote subquery after the first attempt
    /// (0 = fail on first transient error).
    pub max_retries: u32,
    /// Backoff charged before the first retry, in simulated cost units.
    pub backoff_base_units: u64,
    /// Cap on a single retry's backoff charge (exponential doubling
    /// stops here).
    pub backoff_cap_units: u64,
    /// Per-attempt budget of simulated latency units; an attempt whose
    /// receipt exceeds it is treated as [`RemoteError::Timeout`]
    /// (and retried). `None` disables deadlines.
    ///
    /// [`RemoteError::Timeout`]: braid_remote::RemoteError::Timeout
    pub deadline_units: Option<u64>,
    /// Consecutive transient failures that open the circuit breaker
    /// (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Attempts rejected while the breaker is open before a half-open
    /// probe is allowed through.
    pub breaker_cooldown: u32,
    /// When the remote is unreachable (retries exhausted or breaker
    /// open), answer from the cache alone and tag the answer's
    /// completeness instead of failing the query.
    pub degraded_mode: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_retries: 3,
            backoff_base_units: 16,
            backoff_cap_units: 256,
            deadline_units: None,
            breaker_threshold: 5,
            breaker_cooldown: 8,
            degraded_mode: true,
        }
    }
}

impl ResilienceConfig {
    /// No retries, no breaker, no degradation: every transient fault
    /// surfaces immediately (the pre-resilience behaviour).
    pub fn none() -> Self {
        ResilienceConfig {
            max_retries: 0,
            backoff_base_units: 0,
            backoff_cap_units: 0,
            deadline_units: None,
            breaker_threshold: 0,
            breaker_cooldown: 0,
            degraded_mode: false,
        }
    }

    /// Set the retry budget.
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Set the backoff schedule (base doubling up to cap, in cost units).
    #[must_use]
    pub fn with_backoff(mut self, base_units: u64, cap_units: u64) -> Self {
        self.backoff_base_units = base_units;
        self.backoff_cap_units = cap_units;
        self
    }

    /// Set the per-attempt latency deadline.
    #[must_use]
    pub fn with_deadline(mut self, units: u64) -> Self {
        self.deadline_units = Some(units);
        self
    }

    /// Set the breaker policy (`threshold` 0 disables it).
    #[must_use]
    pub fn with_breaker(mut self, threshold: u32, cooldown: u32) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Enable or disable cache-only degraded answers.
    #[must_use]
    pub fn with_degraded_mode(mut self, on: bool) -> Self {
        self.degraded_mode = on;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerPhase {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug)]
struct BreakerState {
    phase: BreakerPhase,
    consecutive_failures: u32,
    rejects_left: u32,
}

/// Shared resilience machinery: one instance per [`Cms`](crate::Cms),
/// shared by reference across the Execution Monitor's fetch threads so
/// all subqueries see the same breaker state.
#[derive(Debug)]
pub struct Resilience {
    config: ResilienceConfig,
    metrics: Arc<CmsMetrics>,
    breaker: Mutex<BreakerState>,
    tracer: Tracer,
}

impl Resilience {
    /// Build the policy engine over the CMS metrics sink.
    pub fn new(config: ResilienceConfig, metrics: Arc<CmsMetrics>) -> Resilience {
        Resilience {
            config,
            metrics,
            breaker: Mutex::new(BreakerState {
                phase: BreakerPhase::Closed,
                consecutive_failures: 0,
                rejects_left: 0,
            }),
            tracer: Tracer::disabled(),
        }
    }

    /// Point this policy engine's fault events at a session tracer.
    /// Retries, breaker transitions and deadline timeouts surface as
    /// point events under the session's current span.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer fault events are reported through.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The active policy.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// The per-attempt deadline, if any.
    pub fn deadline_units(&self) -> Option<u64> {
        self.config.deadline_units
    }

    /// The metrics sink this policy reports into.
    pub(crate) fn metrics(&self) -> &CmsMetrics {
        &self.metrics
    }

    /// Should an attempt be allowed through the breaker right now?
    /// A rejected attempt advances the open-state cooldown, so retrying
    /// against an open breaker eventually earns a half-open probe.
    fn admit(&self) -> Result<()> {
        if self.config.breaker_threshold == 0 {
            return Ok(());
        }
        let mut b = self.breaker.lock().expect("breaker lock poisoned");
        match b.phase {
            BreakerPhase::Closed | BreakerPhase::HalfOpen => Ok(()),
            BreakerPhase::Open => {
                if b.rejects_left > 0 {
                    b.rejects_left -= 1;
                    self.metrics.add_breaker_rejections(1);
                    self.tracer.event(
                        TraceKind::BreakerReject,
                        "attempt rejected while breaker open",
                        vec![("rejects_left", b.rejects_left.to_string())],
                    );
                    Err(CmsError::CircuitOpen)
                } else {
                    b.phase = BreakerPhase::HalfOpen;
                    Ok(())
                }
            }
        }
    }

    fn record_success(&self) {
        if self.config.breaker_threshold == 0 {
            return;
        }
        let mut b = self.breaker.lock().expect("breaker lock poisoned");
        b.phase = BreakerPhase::Closed;
        b.consecutive_failures = 0;
    }

    fn record_failure(&self) {
        if self.config.breaker_threshold == 0 {
            return;
        }
        let mut b = self.breaker.lock().expect("breaker lock poisoned");
        match b.phase {
            BreakerPhase::HalfOpen => {
                // Failed probe: snap back open for a full cooldown.
                b.phase = BreakerPhase::Open;
                b.rejects_left = self.config.breaker_cooldown;
                self.metrics.add_breaker_opens(1);
                self.tracer.event(
                    TraceKind::BreakerOpen,
                    "half-open probe failed",
                    vec![("cooldown", self.config.breaker_cooldown.to_string())],
                );
            }
            BreakerPhase::Closed => {
                b.consecutive_failures += 1;
                if b.consecutive_failures >= self.config.breaker_threshold {
                    b.phase = BreakerPhase::Open;
                    b.rejects_left = self.config.breaker_cooldown;
                    self.metrics.add_breaker_opens(1);
                    self.tracer.event(
                        TraceKind::BreakerOpen,
                        "consecutive transient failures reached threshold",
                        vec![
                            ("failures", b.consecutive_failures.to_string()),
                            ("cooldown", self.config.breaker_cooldown.to_string()),
                        ],
                    );
                }
            }
            BreakerPhase::Open => {}
        }
    }

    /// Is the breaker currently refusing attempts?
    pub fn breaker_open(&self) -> bool {
        self.breaker.lock().expect("breaker lock poisoned").phase == BreakerPhase::Open
    }

    /// Run one remote operation under the retry + breaker policy.
    ///
    /// Transient errors ([`CmsError::is_transient`]) consume retries,
    /// charging capped exponential backoff in cost units; hard errors
    /// surface immediately. When the budget is spent the final error is
    /// wrapped in [`CmsError::Exhausted`].
    ///
    /// # Errors
    /// Hard errors from `op` verbatim; `Exhausted` after the retry
    /// budget is spent on transient errors or breaker rejections.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempts = 0u32;
        let mut last: Option<CmsError> = None;
        for attempt in 0..=self.config.max_retries {
            if let Err(e) = self.admit() {
                // Breaker rejection consumes this slot in the schedule
                // but never reaches the remote.
                last = Some(e);
                continue;
            }
            attempts += 1;
            match op() {
                Ok(v) => {
                    self.record_success();
                    return Ok(v);
                }
                Err(e) if e.is_transient() => {
                    self.record_failure();
                    if attempt < self.config.max_retries {
                        let backoff = self
                            .config
                            .backoff_base_units
                            .saturating_mul(1u64 << attempt.min(32))
                            .min(self.config.backoff_cap_units);
                        self.metrics.add_retries(1);
                        self.metrics.add_backoff_units(backoff);
                        self.metrics.record_retry_backoff(backoff);
                        self.tracer.event(
                            TraceKind::Retry,
                            e.to_string(),
                            vec![
                                ("attempt", (attempt + 1).to_string()),
                                ("backoff_units", backoff.to_string()),
                            ],
                        );
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(CmsError::Exhausted {
            attempts,
            last: Box::new(last.unwrap_or(CmsError::CircuitOpen)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_remote::RemoteError;

    fn res(cfg: ResilienceConfig) -> Resilience {
        Resilience::new(cfg, Arc::new(CmsMetrics::new()))
    }

    /// No `..`: a new field does not compile until it is listed here
    /// with what tells its values apart (and in DESIGN.md §3).
    #[test]
    fn every_field_is_accounted_for() {
        let ResilienceConfig {
            max_retries: _,        // E11's retry rows
            backoff_base_units: _, // `backoff_is_charged_and_capped`; E11's wasted units
            backoff_cap_units: _,  // `backoff_is_charged_and_capped`
            deadline_units: _,     // nothing yet: no caller sets it (ROADMAP item 10)
            breaker_threshold: _,  // `breaker_opens_after_threshold_and_recovers_on_probe`
            breaker_cooldown: _,   // the same; E11's breaker row
            degraded_mode: _,      // E11's partial column; `tests/fault_tolerance.rs`
        } = ResilienceConfig::default();
    }

    #[test]
    fn first_success_needs_no_retry() {
        let r = res(ResilienceConfig::default());
        let out: Result<u32> = r.run(|| Ok(7));
        assert_eq!(out.unwrap(), 7);
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let r = res(ResilienceConfig::default().with_retries(3));
        let mut calls = 0;
        let out = r.run(|| {
            calls += 1;
            if calls < 3 {
                Err(CmsError::Remote(RemoteError::Unavailable))
            } else {
                Ok("done")
            }
        });
        assert_eq!(out.unwrap(), "done");
        assert_eq!(calls, 3);
    }

    #[test]
    fn hard_errors_are_not_retried() {
        let r = res(ResilienceConfig::default().with_retries(5));
        let mut calls = 0;
        let out: Result<()> = r.run(|| {
            calls += 1;
            Err(CmsError::UnknownRelation("nope".into()))
        });
        assert_eq!(out.unwrap_err(), CmsError::UnknownRelation("nope".into()));
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhaustion_wraps_final_error_with_attempt_count() {
        let r = res(ResilienceConfig::default()
            .with_retries(2)
            .with_breaker(0, 0));
        let out: Result<()> = r.run(|| Err(CmsError::Remote(RemoteError::Timeout)));
        match out.unwrap_err() {
            CmsError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert_eq!(*last, CmsError::Remote(RemoteError::Timeout));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_charged_and_capped() {
        let metrics = Arc::new(CmsMetrics::new());
        let r = Resilience::new(
            ResilienceConfig::default()
                .with_retries(4)
                .with_backoff(10, 25)
                .with_breaker(0, 0),
            Arc::clone(&metrics),
        );
        let _: Result<()> = r.run(|| Err(CmsError::Remote(RemoteError::Unavailable)));
        let s = metrics.snapshot();
        assert_eq!(s.retries, 4);
        // 10, 20, then capped at 25 twice.
        assert_eq!(s.retry_backoff_units, 10 + 20 + 25 + 25);
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_on_probe() {
        let metrics = Arc::new(CmsMetrics::new());
        let r = Resilience::new(
            ResilienceConfig::default()
                .with_retries(0)
                .with_breaker(2, 3),
            Arc::clone(&metrics),
        );
        // Two failing calls open the breaker.
        for _ in 0..2 {
            let _: Result<()> = r.run(|| Err(CmsError::Remote(RemoteError::Unavailable)));
        }
        assert!(r.breaker_open());
        // The next three attempts are rejected without calling op.
        for _ in 0..3 {
            let mut called = false;
            let out: Result<()> = r.run(|| {
                called = true;
                Ok(())
            });
            assert!(!called, "op must not run while breaker is open");
            assert!(matches!(
                out.unwrap_err(),
                CmsError::Exhausted { attempts: 0, .. }
            ));
        }
        // Cooldown spent: the next attempt is a half-open probe, and its
        // success closes the breaker.
        let out: Result<u32> = r.run(|| Ok(1));
        assert_eq!(out.unwrap(), 1);
        assert!(!r.breaker_open());
        let s = metrics.snapshot();
        assert_eq!(s.breaker_opens, 1);
        assert_eq!(s.breaker_rejections, 3);
    }

    #[test]
    fn failed_probe_reopens_breaker() {
        let r = res(ResilienceConfig::default()
            .with_retries(0)
            .with_breaker(1, 1));
        let _: Result<()> = r.run(|| Err(CmsError::Remote(RemoteError::Unavailable)));
        assert!(r.breaker_open());
        // One rejection spends the cooldown...
        let _: Result<()> = r.run(|| Ok(()));
        // ...so this is the probe; it fails and the breaker reopens.
        let _: Result<()> = r.run(|| Err(CmsError::Remote(RemoteError::Unavailable)));
        assert!(r.breaker_open());
    }

    #[test]
    fn retrying_through_open_breaker_earns_probe() {
        // With enough retries in one run() call, the breaker's cooldown
        // is consumed by rejections and the probe succeeds.
        let r = res(ResilienceConfig::default()
            .with_retries(4)
            .with_breaker(1, 2));
        let _: Result<()> = r.run(|| Err(CmsError::Remote(RemoteError::Unavailable)));
        assert!(r.breaker_open());
        let mut calls = 0;
        let out = r.run(|| {
            calls += 1;
            Ok(9)
        });
        assert_eq!(out.unwrap(), 9);
        assert_eq!(calls, 1, "two rejected slots, then one probe");
    }
}
