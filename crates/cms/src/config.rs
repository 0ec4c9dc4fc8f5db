//! CMS configuration: the experiment switchboard.
//!
//! Every technique in the paper's Figure 2 ("Alleviating the Impedance
//! Mismatch") and §5.3 is independently toggleable so the benchmark
//! harness can run ablations: result caching, subsumption reuse, query
//! generalization, prefetching, advice-driven indexing and replacement,
//! lazy evaluation, and parallel cache/remote execution.

use crate::resilience::ResilienceConfig;
use braid_relational::ExecConfig;
use braid_remote::TransportConfig;
use braid_trace::{SinkHandle, TraceSink};
use std::sync::Arc;

/// Tunable CMS behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct CmsConfig {
    /// Cache capacity in approximate bytes. `usize::MAX` ⇒ unbounded.
    pub cache_capacity_bytes: usize,
    /// Number of shared-cache shards (each behind its own `RwLock`),
    /// with capacity split evenly between them. 1 (the default) keeps
    /// the whole cache in a single shard so single-session capacity
    /// behaviour is byte-identical to the unsharded CMS; concurrent
    /// multi-session runs raise this to reduce lock contention.
    pub cache_shards: usize,
    /// Cache the results of evaluated queries (§5.3 "result caching").
    pub result_caching: bool,
    /// Reuse cached elements via subsumption and local compensation
    /// (§5.3.2). With this off, only exact-match reuse happens — the
    /// BERMUDA/\[SELL87\] baseline behaviour.
    pub subsumption: bool,
    /// Generalize IE-queries when advice shows a subsuming view spec
    /// (§5.3.1): fetch more, reuse later.
    pub generalization: bool,
    /// Prefetch predicted-next queries from the path expression (§4.2).
    pub prefetching: bool,
    /// Build hash indices on consumer-annotated (`?`) attributes
    /// (§4.2.1).
    pub index_advice: bool,
    /// Modify LRU replacement with path-expression predictions (§5.4:
    /// "an LRU scheme which may be modified due to advi\[c\]e").
    pub advice_replacement: bool,
    /// Answer cache-only queries with lazy generators (§5.1).
    pub lazy_evaluation: bool,
    /// Execute remote and cache subqueries in parallel (§5 feature (e)).
    pub parallel_execution: bool,
    /// Use pipelined (streaming) transfer from the remote DBMS (§5.5);
    /// otherwise store-and-forward.
    pub pipelining: bool,
    /// Transfer buffer size, in tuples (§5.5 buffering).
    pub transfer_buffer_tuples: usize,
    /// How many predicted queries ahead an element is pinned against
    /// replacement (the paper's "d1 is not the best candidate" horizon).
    pub pin_horizon: usize,
    /// Upper bound, in milliseconds, on how long a single-flight *joiner*
    /// waits for its leader to publish before presuming the leader
    /// wedged, evicting the stale flight entry, and surfacing a
    /// transient [`CmsError::FlightStranded`](crate::CmsError). 0 ⇒ wait
    /// forever. Bounds a blocking caller parked on its own thread; a
    /// polled session is parked by its scheduler, which has no timer.
    pub flight_join_timeout_ms: u64,
    /// Estimated number of future hits needed to make generalization
    /// worthwhile (cost heuristic of §5.3.1 step 1).
    pub generalization_min_predicted_reuse: usize,
    /// §5.3.3 cost-based placement: when a plan mixes cache and remote
    /// parts, estimate the mixed plan against exporting the whole query
    /// to the DBMS ("(b) Export b2(X,Y) & b3(Z,c2,c6) to the DBMS") and
    /// take the cheaper. Off by default: the heuristic trades cache reuse
    /// for shipped-result size, which only pays when cached fractions are
    /// small and unselective.
    pub cost_based_placement: bool,
    /// Hold producer-style cache elements in the column-major
    /// representation (§5.2's co-existing alternative representations,
    /// third form): per-column typed vectors with dictionary-encoded
    /// strings, served by the executor's vectorized kernels. Elements
    /// with consumer (`?`) annotations keep indexed rows — point probes
    /// want the hash index, sequential scans and aggregates want
    /// columns. Conversion is lossless both ways; answers are
    /// bit-identical either way. Off by default so the representation
    /// choice is an explicit ablation knob.
    pub columnar: bool,
    /// Cache *whole base relations* on first touch and answer locally —
    /// the single-relation buffering strategy of Ceri, Gottlob &
    /// Wiederhold \[CERI86\] that the paper contrasts with ("in \[CERI86\],
    /// cached elements contain only single relations", §5.3.2).
    pub whole_relation_caching: bool,
    /// Remote-fault handling: retries, deadlines, circuit breaking and
    /// cache-only degraded answers (see [`ResilienceConfig`]).
    pub resilience: ResilienceConfig,
    /// How remote fetches reach the DBMS engine: the default in-process
    /// call path (byte-identical to the pre-network CMS), or a pooled
    /// TCP client speaking the length-prefixed wire protocol to a
    /// [`RemoteTcpServer`](braid_remote::RemoteTcpServer).
    pub transport: TransportConfig,
    /// Batched-executor configuration (batch-size knob) used for every
    /// local plan execution: monitor pipelines, cache derivations, and
    /// lazy generator opens.
    pub exec: ExecConfig,
    /// Structured-tracing sink shared by every session of this CMS. The
    /// default no-op sink disables all instrumentation sites (at
    /// effectively zero cost); install a
    /// [`RingSink`](braid_trace::RingSink) via
    /// [`CmsConfig::with_trace`] to capture span/event logs.
    pub trace: SinkHandle,
}

impl Default for CmsConfig {
    /// Full BrAID: every technique on, effectively unbounded cache.
    fn default() -> Self {
        CmsConfig {
            cache_capacity_bytes: usize::MAX,
            cache_shards: 1,
            result_caching: true,
            subsumption: true,
            generalization: true,
            prefetching: true,
            index_advice: true,
            advice_replacement: true,
            lazy_evaluation: true,
            parallel_execution: true,
            pipelining: true,
            transfer_buffer_tuples: 64,
            pin_horizon: 2,
            flight_join_timeout_ms: 30_000,
            generalization_min_predicted_reuse: 1,
            cost_based_placement: false,
            columnar: false,
            whole_relation_caching: false,
            resilience: ResilienceConfig::default(),
            transport: TransportConfig::InProcess,
            exec: ExecConfig::default(),
            trace: SinkHandle::noop(),
        }
    }
}

impl CmsConfig {
    /// Everything off: the loose-coupling baseline (every IE request goes
    /// to the remote DBMS; nothing is cached).
    pub fn loose_coupling() -> Self {
        CmsConfig {
            cache_capacity_bytes: 0,
            cache_shards: 1,
            result_caching: false,
            subsumption: false,
            generalization: false,
            prefetching: false,
            index_advice: false,
            advice_replacement: false,
            lazy_evaluation: false,
            parallel_execution: false,
            pipelining: false,
            transfer_buffer_tuples: 1,
            pin_horizon: 0,
            flight_join_timeout_ms: 30_000,
            generalization_min_predicted_reuse: usize::MAX,
            cost_based_placement: false,
            columnar: false,
            whole_relation_caching: false,
            resilience: ResilienceConfig::default(),
            transport: TransportConfig::InProcess,
            exec: ExecConfig::default(),
            trace: SinkHandle::noop(),
        }
    }

    /// Exact-match result caching only — the BERMUDA-style bridge
    /// baseline: results are cached and reused only "if an exact match of
    /// a later query occurs" (§2).
    pub fn exact_match() -> Self {
        CmsConfig {
            subsumption: false,
            generalization: false,
            prefetching: false,
            index_advice: false,
            advice_replacement: false,
            lazy_evaluation: false,
            ..CmsConfig::default()
        }
    }

    /// Single-relation buffering (the \[CERI86\] baseline): whole base
    /// relations are cached on first touch and queries evaluate locally;
    /// no view-level result caching, no advice-driven techniques.
    pub fn single_relation() -> Self {
        CmsConfig {
            result_caching: false,
            generalization: false,
            prefetching: false,
            index_advice: false,
            advice_replacement: false,
            whole_relation_caching: true,
            ..CmsConfig::default()
        }
    }

    /// Full BrAID (alias of `default`).
    pub fn braid() -> Self {
        CmsConfig::default()
    }

    /// Builder-style toggles for ablation benches.
    pub fn with_subsumption(mut self, on: bool) -> Self {
        self.subsumption = on;
        self
    }

    /// Toggle generalization.
    pub fn with_generalization(mut self, on: bool) -> Self {
        self.generalization = on;
        self
    }

    /// Toggle prefetching.
    pub fn with_prefetching(mut self, on: bool) -> Self {
        self.prefetching = on;
        self
    }

    /// Toggle advice-driven indexing.
    pub fn with_index_advice(mut self, on: bool) -> Self {
        self.index_advice = on;
        self
    }

    /// Toggle lazy evaluation.
    pub fn with_lazy(mut self, on: bool) -> Self {
        self.lazy_evaluation = on;
        self
    }

    /// Toggle advice-modified replacement.
    pub fn with_advice_replacement(mut self, on: bool) -> Self {
        self.advice_replacement = on;
        self
    }

    /// Toggle parallel subquery execution.
    pub fn with_parallel(mut self, on: bool) -> Self {
        self.parallel_execution = on;
        self
    }

    /// Toggle pipelined (streaming) transfer from the remote DBMS.
    pub fn with_pipelining(mut self, on: bool) -> Self {
        self.pipelining = on;
        self
    }

    /// Make execution deterministic for simulation/replay: remote parts
    /// run serially on the driving thread, so the remote request clock —
    /// and with it every seeded `FaultPlan` decision — is a pure function
    /// of the order queries are dispatched in. Used by the braid-sim
    /// step scheduler; every other technique keeps its configured value.
    pub fn deterministic(mut self) -> Self {
        self.parallel_execution = false;
        self
    }

    /// Set the cache capacity.
    pub fn with_capacity(mut self, bytes: usize) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Set the shared-cache shard count (clamped ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Toggle §5.3.3 cost-based placement.
    pub fn with_cost_based_placement(mut self, on: bool) -> Self {
        self.cost_based_placement = on;
        self
    }

    /// Toggle the column-major cache representation for producer-style
    /// elements (vectorized scans/aggregates; consumer-annotated
    /// elements keep indexed rows).
    pub fn with_columnar(mut self, on: bool) -> Self {
        self.columnar = on;
        self
    }

    /// Bound how long a single-flight joiner waits for its leader
    /// (milliseconds; 0 ⇒ wait forever).
    pub fn with_flight_join_timeout_ms(mut self, ms: u64) -> Self {
        self.flight_join_timeout_ms = ms;
        self
    }

    /// Set the resilience policy (retries, deadlines, breaker,
    /// degraded mode).
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Set the remote transport: [`TransportConfig::InProcess`] (the
    /// default) or [`TransportConfig::Tcp`] with a client-pool config
    /// pointed at a listening [`RemoteTcpServer`](braid_remote::RemoteTcpServer).
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Set the executor batch size (rows per leaf batch, clamped ≥ 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.exec = ExecConfig::with_batch_size(batch_size);
        self
    }

    /// Install a structured-tracing sink shared by every session of this
    /// CMS (see [`braid_trace`]). Replaces the default no-op sink.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = SinkHandle::new(sink);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_documented() {
        let braid = CmsConfig::braid();
        assert!(braid.subsumption && braid.prefetching && braid.lazy_evaluation);
        let exact = CmsConfig::exact_match();
        assert!(exact.result_caching && !exact.subsumption && !exact.prefetching);
        let loose = CmsConfig::loose_coupling();
        assert!(!loose.result_caching && loose.cache_capacity_bytes == 0);
    }

    #[test]
    fn builder_toggles() {
        let c = CmsConfig::braid()
            .with_subsumption(false)
            .with_capacity(1024);
        assert!(!c.subsumption);
        assert_eq!(c.cache_capacity_bytes, 1024);
        assert!(c.prefetching);
    }

    #[test]
    fn shard_knob_defaults_to_one_and_clamps() {
        assert_eq!(CmsConfig::braid().cache_shards, 1);
        assert_eq!(CmsConfig::loose_coupling().cache_shards, 1);
        assert_eq!(CmsConfig::braid().with_shards(0).cache_shards, 1);
        assert_eq!(CmsConfig::braid().with_shards(4).cache_shards, 4);
    }

    #[test]
    fn batch_size_knob_clamps_to_one() {
        assert_eq!(CmsConfig::braid().exec.batch_size, 256);
        assert_eq!(CmsConfig::braid().with_batch_size(0).exec.batch_size, 1);
        assert_eq!(CmsConfig::braid().with_batch_size(32).exec.batch_size, 32);
    }
}
