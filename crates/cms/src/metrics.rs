//! Workstation-side cost accounting for the CMS.
//!
//! Together with the remote server's counters this completes the paper's
//! cost metric (§3): communication volume and server demand live in
//! `braid-remote`; "computation that needs to be done by the workstation"
//! is counted here.
//!
//! Every field — monotone counter or log2 histogram — is declared once,
//! in the [`cms_metrics!`] invocation below. The macro generates the
//! atomic struct, the `Copy` snapshot struct, the bump methods,
//! `snapshot`/`reset`, and the field-by-field [`CmsMetricsSnapshot::since`]
//! delta, so a new counter cannot silently miss delta accounting: adding
//! a field to the list wires all five at once, and the size-of guard
//! test below fails if the snapshot ever grows a field outside the list.

use braid_trace::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the full CMS metrics surface in one place. Generates:
/// `CmsMetrics` (atomics), `CmsMetricsSnapshot` (`Copy` values),
/// per-field bump/record methods, `snapshot()`, `reset()`,
/// `CmsMetricsSnapshot::since()`, and the `COUNTER_FIELDS` /
/// `GAUGE_FIELDS` / `HISTOGRAM_FIELDS` counts backing the completeness
/// guard test. Counters bump with `fetch_add`; gauges are monotone
/// high-water marks recorded with `fetch_max` (so `since` deltas stay
/// non-negative); histograms record log2-bucketed values.
macro_rules! cms_metrics {
    (
        counters { $($(#[$cmeta:meta])* $cname:ident => $cbump:ident,)+ }
        gauges { $($(#[$gmeta:meta])* $gname:ident => $gbump:ident,)+ }
        histograms { $($(#[$hmeta:meta])* $hname:ident => $hbump:ident,)+ }
    ) => {
        /// Counters, high-water gauges and histograms maintained by the CMS.
        #[derive(Debug, Default)]
        pub struct CmsMetrics {
            $($cname: AtomicU64,)+
            $($gname: AtomicU64,)+
            $($hname: Histogram,)+
        }

        /// Snapshot of [`CmsMetrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CmsMetricsSnapshot {
            $($(#[$cmeta])* pub $cname: u64,)+
            $($(#[$gmeta])* pub $gname: u64,)+
            $($(#[$hmeta])* pub $hname: HistogramSnapshot,)+
        }

        impl CmsMetrics {
            $(
                pub(crate) fn $cbump(&self, n: u64) {
                    self.$cname.fetch_add(n, Ordering::Relaxed);
                }
            )+
            $(
                pub(crate) fn $gbump(&self, value: u64) {
                    self.$gname.fetch_max(value, Ordering::Relaxed);
                }
            )+
            $(
                pub(crate) fn $hbump(&self, value: u64) {
                    self.$hname.record(value);
                }
            )+

            /// Read all counters, gauges and histograms.
            pub fn snapshot(&self) -> CmsMetricsSnapshot {
                CmsMetricsSnapshot {
                    $($cname: self.$cname.load(Ordering::Relaxed),)+
                    $($gname: self.$gname.load(Ordering::Relaxed),)+
                    $($hname: self.$hname.snapshot(),)+
                }
            }

            /// Zero all counters, gauges and histograms.
            pub fn reset(&self) {
                $(self.$cname.store(0, Ordering::Relaxed);)+
                $(self.$gname.store(0, Ordering::Relaxed);)+
                $(self.$hname.reset();)+
            }
        }

        impl CmsMetricsSnapshot {
            /// Number of scalar counter fields the macro generated.
            pub const COUNTER_FIELDS: usize = [$(stringify!($cname)),+].len();
            /// Number of high-water gauge fields the macro generated.
            pub const GAUGE_FIELDS: usize = [$(stringify!($gname)),+].len();
            /// Number of histogram fields the macro generated.
            pub const HISTOGRAM_FIELDS: usize = [$(stringify!($hname)),+].len();

            /// Every counter and gauge as a `("cms.<name>", value)`
            /// entry, in declaration order — the flattening the wire
            /// STATS protocol ships, generated here so a new metric is
            /// exported automatically.
            pub fn counter_entries(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $((concat!("cms.", stringify!($cname)), self.$cname),)+
                    $((concat!("cms.", stringify!($gname)), self.$gname),)+
                ]
            }

            /// Every histogram as a `("cms.<name>", snapshot)` entry.
            pub fn histogram_entries(&self) -> Vec<(&'static str, HistogramSnapshot)> {
                vec![$((concat!("cms.", stringify!($hname)), self.$hname),)+]
            }

            /// Field-by-field delta (`self - earlier`). Counters and
            /// gauges subtract (both are monotone); histograms subtract
            /// bucketwise.
            #[must_use]
            pub fn since(&self, earlier: &CmsMetricsSnapshot) -> CmsMetricsSnapshot {
                CmsMetricsSnapshot {
                    $($cname: self.$cname - earlier.$cname,)+
                    $($gname: self.$gname - earlier.$gname,)+
                    $($hname: self.$hname.since(&earlier.$hname),)+
                }
            }
        }
    };
}

cms_metrics! {
    counters {
        /// IE-queries received.
        queries => add_queries,
        /// Queries answered entirely from the cache.
        full_cache_answers => add_full_cache,
        /// Queries answered partly from the cache.
        partial_cache_answers => add_partial_cache,
        /// Subqueries shipped to the remote DBMS.
        remote_subqueries => add_remote_subqueries,
        /// Queries evaluated in a generalized form.
        generalized_queries => add_generalized,
        /// CMS-generated prefetch queries.
        prefetched_queries => add_prefetched,
        /// Queries answered with a lazy generator.
        lazy_answers => add_lazy,
        /// Hash indices built from advice.
        indices_built => add_indices,
        /// Cache elements evicted.
        evictions => add_evictions,
        /// Tuples processed by local (cache) operators.
        local_tuple_ops => add_local_ops,
        /// Batches produced by the local batched executor.
        executor_batches => add_executor_batches,
        /// Tuples produced by the local batched executor (all operators).
        executor_tuples => add_executor_tuples,
        /// Rows pruned by (fused) filter passes in the local executor.
        executor_rows_pruned => add_executor_rows_pruned,
        /// Tuples actually delivered to the IE.
        tuples_to_ie => add_tuples_to_ie,
        /// Remote fetch attempts retried after a transient fault.
        retries => add_retries,
        /// Simulated cost units charged as retry backoff.
        retry_backoff_units => add_backoff_units,
        /// Attempts abandoned because the per-request deadline was exceeded.
        deadline_timeouts => add_deadline_timeouts,
        /// Times the circuit breaker tripped open.
        breaker_opens => add_breaker_opens,
        /// Attempts rejected without contacting the remote (breaker open).
        breaker_rejections => add_breaker_rejections,
        /// Queries answered in degraded (cache-only) mode with a
        /// `Partial` completeness tag.
        degraded_answers => add_degraded,
        /// Remote fetches actually issued through the single-flight layer
        /// (each one led a flight other sessions could join).
        flight_fetches => add_flight_fetches,
        /// Remote fetches avoided because a subsumption-equivalent fetch was
        /// already in flight — the session joined it instead of duplicating
        /// the server work.
        dedup_hits => add_dedup_hits,
        /// Contended shared-cache shard-lock acquisitions (a `try_lock`
        /// failed before blocking) — the lock-wait proxy reported by E13.
        shard_lock_waits => add_shard_lock_waits,
        /// Cooperative sessions parked on a pending single-flight join
        /// (the worker pool suspended them instead of blocking a thread).
        sessions_parked => add_sessions_parked,
        /// Waker firings that re-enqueued (or flagged) a parked session.
        /// At quiescence with all flights closed this equals
        /// `sessions_parked` — the "no leaked wakers" invariant.
        wakes => add_wakes,
        /// Cooperative scheduler steps executed across all pool workers.
        steps_executed => add_steps_executed,
        /// Containment tests the subsumption engine ran: candidates that
        /// passed the candidate index and got the full `subsumes` check.
        subsume_tests => add_subsume_tests,
        /// Columnar elements clustered on a range column by their first
        /// range derivation (each element at most once).
        clusterings => add_clusterings,
    }
    gauges {
        /// High-water mark of the worker pool's run-queue depth.
        run_queue_depth => record_run_queue_depth,
    }
    histograms {
        /// Wall-clock latency of [`Cms::query`](crate::Cms::query) calls,
        /// in microseconds (log2 buckets; p50/p90/p99 accessors).
        query_latency_us => record_query_latency,
        /// Simulated cost units charged per individual retry backoff.
        retry_backoff => record_retry_backoff,
    }
}

impl CmsMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one plan execution's counters into the running totals.
    pub(crate) fn add_exec_stats(&self, stats: braid_relational::ExecStats) {
        self.add_executor_batches(stats.batches);
        self.add_executor_tuples(stats.tuples);
        self.add_executor_rows_pruned(stats.rows_pruned);
    }
}

impl CmsMetricsSnapshot {
    /// Cache hit rate over answered queries (full hits / queries).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.full_cache_answers as f64 / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hit_rate() {
        let m = CmsMetrics::new();
        m.add_queries(4);
        m.add_full_cache(1);
        m.add_lazy(1);
        let s = m.snapshot();
        assert_eq!(s.queries, 4);
        assert_eq!(s.lazy_answers, 1);
        assert!((s.hit_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        assert_eq!(CmsMetricsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn executor_counters_accumulate_and_reset() {
        let m = CmsMetrics::new();
        m.add_exec_stats(braid_relational::ExecStats {
            batches: 3,
            tuples: 40,
            rows_pruned: 7,
        });
        m.add_exec_stats(braid_relational::ExecStats {
            batches: 1,
            tuples: 2,
            rows_pruned: 0,
        });
        let s = m.snapshot();
        assert_eq!(s.executor_batches, 4);
        assert_eq!(s.executor_tuples, 42);
        assert_eq!(s.executor_rows_pruned, 7);
        m.reset();
        assert_eq!(m.snapshot().executor_tuples, 0);
    }

    #[test]
    fn since_subtracts_every_field() {
        let m = CmsMetrics::new();
        m.add_queries(3);
        m.record_query_latency(100);
        let earlier = m.snapshot();
        m.add_queries(2);
        m.add_retries(1);
        m.record_query_latency(100);
        m.record_retry_backoff(16);
        let d = m.snapshot().since(&earlier);
        assert_eq!(d.queries, 2);
        assert_eq!(d.retries, 1);
        assert_eq!(d.query_latency_us.count(), 1);
        assert_eq!(d.retry_backoff.count(), 1);
    }

    /// Completeness guard: the snapshot struct may only hold fields the
    /// `cms_metrics!` list generated — a field added by hand (bypassing
    /// the macro, and therefore missing from `since`/`reset`) changes
    /// the struct's size and fails here.
    #[test]
    fn every_snapshot_field_is_macro_generated() {
        assert_eq!(
            std::mem::size_of::<CmsMetricsSnapshot>(),
            (CmsMetricsSnapshot::COUNTER_FIELDS + CmsMetricsSnapshot::GAUGE_FIELDS)
                * std::mem::size_of::<u64>()
                + CmsMetricsSnapshot::HISTOGRAM_FIELDS * std::mem::size_of::<HistogramSnapshot>(),
        );
        assert_eq!(CmsMetricsSnapshot::COUNTER_FIELDS, 28);
        assert_eq!(CmsMetricsSnapshot::GAUGE_FIELDS, 1);
        assert_eq!(CmsMetricsSnapshot::HISTOGRAM_FIELDS, 2);
    }

    /// The flattened entry lists cover every macro-declared field, so
    /// the wire STATS export can never silently miss a metric.
    #[test]
    fn entry_lists_cover_every_field() {
        let m = CmsMetrics::new();
        m.add_queries(5);
        m.record_run_queue_depth(2);
        let s = m.snapshot();
        let counters = s.counter_entries();
        assert_eq!(
            counters.len(),
            CmsMetricsSnapshot::COUNTER_FIELDS + CmsMetricsSnapshot::GAUGE_FIELDS
        );
        assert!(counters.contains(&("cms.queries", 5)));
        assert!(counters.contains(&("cms.run_queue_depth", 2)));
        assert_eq!(
            s.histogram_entries().len(),
            CmsMetricsSnapshot::HISTOGRAM_FIELDS
        );
        assert_eq!(s.histogram_entries()[0].0, "cms.query_latency_us");
    }

    #[test]
    fn run_queue_depth_is_a_high_water_mark() {
        let m = CmsMetrics::new();
        m.record_run_queue_depth(3);
        m.record_run_queue_depth(9);
        m.record_run_queue_depth(5);
        assert_eq!(m.snapshot().run_queue_depth, 9, "fetch_max, not fetch_add");
        let earlier = m.snapshot();
        m.record_run_queue_depth(12);
        assert_eq!(m.snapshot().since(&earlier).run_queue_depth, 3);
    }

    #[test]
    fn histograms_reset_with_counters() {
        let m = CmsMetrics::new();
        m.record_query_latency(50);
        m.reset();
        assert!(m.snapshot().query_latency_us.is_empty());
    }
}
