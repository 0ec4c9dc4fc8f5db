//! CMS configuration: sizes, the [`Coupling`] (which of the paper's
//! Figure 1 bridges this CMS is), and the technique switches a sim lane
//! or an experiment still tells apart.
//!
//! The paper's CMS decides from advice (§4.2), and so does this one:
//! under [`Coupling::Braid`] a consumer (`?`) annotation builds an
//! attribute index, and path-expression predictions pin elements against
//! replacement and gate generalization. An experiment ablates them by
//! sending different advice, not by setting a flag. DESIGN.md §3
//! "Configuration" says what distinguishes every field.

use crate::resilience::ResilienceConfig;
use braid_relational::ExecConfig;
use braid_remote::TransportConfig;
use braid_trace::{SinkHandle, TraceSink};
use std::sync::Arc;

/// The AI/DB bridges of the paper's Figure 1 taxonomy, as the CMS
/// realizes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coupling {
    /// Full BrAID: view-level result caching, with the session's advice
    /// deciding attribute indexing (consumer annotations, §4.2.1) and
    /// replacement pins (path-expression predictions, §5.4).
    #[default]
    Braid,
    /// The BERMUDA-style bridge: results are cached and reused only "if
    /// an exact match of a later query occurs" (§2); advice is ignored.
    ExactMatch,
    /// Single-relation buffering (\[CERI86\]): whole base relations are
    /// cached on first touch and queries evaluate locally; "cached
    /// elements contain only single relations" (§5.3.2).
    SingleRelation,
    /// Figure 1's loose coupling: every IE request goes to the DBMS.
    Loose,
}

impl Coupling {
    /// Every coupling, in taxonomy order.
    pub const ALL: [Coupling; 4] = [
        Coupling::Loose,
        Coupling::ExactMatch,
        Coupling::SingleRelation,
        Coupling::Braid,
    ];

    /// Short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Coupling::Loose => "loose-coupling",
            Coupling::ExactMatch => "exact-match",
            Coupling::SingleRelation => "single-relation",
            Coupling::Braid => "braid",
        }
    }

    /// Are the results of evaluated queries stored as cache elements
    /// (§5.3 "result caching")?
    pub fn caches_results(self) -> bool {
        matches!(self, Coupling::Braid | Coupling::ExactMatch)
    }

    /// Are base relations buffered whole on first touch?
    pub fn buffers_relations(self) -> bool {
        self == Coupling::SingleRelation
    }

    /// Does the session's advice decide attribute indexing and
    /// replacement pins?
    pub fn follows_advice(self) -> bool {
        self == Coupling::Braid
    }
}

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
    /// Which of Figure 1's bridges this CMS is: what it caches, and
    /// whether advice steers indexing and replacement.
    pub coupling: Coupling,
    /// Reuse cached elements via subsumption and local compensation
    /// (§5.3.2). With this off, only exact-match reuse happens — the
    /// BERMUDA/\[SELL87\] baseline behaviour.
    pub subsumption: bool,
    /// Generalize IE-queries when advice shows a subsuming view spec and
    /// the path expression predicts the view it came from (§5.3.1):
    /// fetch more, reuse later.
    pub generalization: bool,
    /// Prefetch predicted-next queries from the path expression (§4.2).
    pub prefetching: bool,
    /// Answer cache-only queries with lazy generators (§5.1).
    pub lazy_evaluation: bool,
    /// Execute remote and cache subqueries in parallel (§5 feature (e)).
    pub parallel_execution: bool,
    /// §5.3.3 cost-based placement: when a plan mixes cache and remote
    /// parts, estimate the mixed plan against exporting the whole query
    /// to the DBMS ("(b) Export b2(X,Y) & b3(Z,c2,c6) to the DBMS") and
    /// take the cheaper. Off by default: the heuristic trades cache reuse
    /// for shipped-result size, which only pays when cached fractions are
    /// small and unselective.
    pub cost_based_placement: bool,
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
            coupling: Coupling::Braid,
            subsumption: true,
            generalization: true,
            prefetching: true,
            lazy_evaluation: true,
            parallel_execution: true,
            cost_based_placement: false,
            resilience: ResilienceConfig::default(),
            transport: TransportConfig::InProcess,
            exec: ExecConfig::default(),
            trace: SinkHandle::noop(),
        }
    }
}

impl CmsConfig {
    /// The CMS realizing one of Figure 1's bridges. Beyond what
    /// [`Coupling`] itself decides, the baselines run without the
    /// techniques they predate: exact-match reuse only and no advice
    /// techniques for [`Coupling::ExactMatch`], no advice techniques for
    /// [`Coupling::SingleRelation`], and for [`Coupling::Loose`] no cache
    /// at all.
    pub fn coupled(coupling: Coupling) -> Self {
        let braid = CmsConfig {
            coupling,
            ..CmsConfig::default()
        };
        match coupling {
            Coupling::Braid => braid,
            Coupling::ExactMatch => CmsConfig {
                subsumption: false,
                generalization: false,
                prefetching: false,
                lazy_evaluation: false,
                ..braid
            },
            Coupling::SingleRelation => CmsConfig {
                generalization: false,
                prefetching: false,
                ..braid
            },
            Coupling::Loose => CmsConfig {
                cache_capacity_bytes: 0,
                subsumption: false,
                generalization: false,
                prefetching: false,
                lazy_evaluation: false,
                parallel_execution: false,
                ..braid
            },
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

    /// Toggle lazy evaluation.
    pub fn with_lazy(mut self, on: bool) -> Self {
        self.lazy_evaluation = on;
        self
    }

    /// Toggle parallel subquery execution.
    pub fn with_parallel(mut self, on: bool) -> Self {
        self.parallel_execution = on;
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
        assert_eq!(braid.coupling, Coupling::Braid);
        let exact = CmsConfig::coupled(Coupling::ExactMatch);
        assert!(exact.coupling.caches_results() && !exact.subsumption && !exact.prefetching);
        let single = CmsConfig::coupled(Coupling::SingleRelation);
        assert!(single.coupling.buffers_relations() && !single.coupling.caches_results());
        let loose = CmsConfig::coupled(Coupling::Loose);
        assert!(!loose.coupling.caches_results() && loose.cache_capacity_bytes == 0);
        assert!(braid.coupling.follows_advice() && !exact.coupling.follows_advice());
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
        assert_eq!(CmsConfig::coupled(Coupling::Loose).cache_shards, 1);
        assert_eq!(CmsConfig::braid().with_shards(0).cache_shards, 1);
        assert_eq!(CmsConfig::braid().with_shards(4).cache_shards, 4);
    }

    #[test]
    fn batch_size_knob_clamps_to_one() {
        assert_eq!(CmsConfig::braid().exec.batch_size, 256);
        assert_eq!(CmsConfig::braid().with_batch_size(0).exec.batch_size, 1);
        assert_eq!(CmsConfig::braid().with_batch_size(32).exec.batch_size, 32);
    }

    /// No `..`: a new field does not compile until it is listed here
    /// with what tells its values apart (and in DESIGN.md §3).
    #[test]
    fn every_field_is_accounted_for() {
        let CmsConfig {
            cache_capacity_bytes: _, // E7; the sim's capacity caps; `cold_fetch`
            cache_shards: _,         // sim knob `shards`; `cms.shard_lock_waits`
            coupling: _,             // E1's six rows
            subsumption: _,          // sim knob; E2
            generalization: _,       // sim knob; E3
            prefetching: _,          // sim knob `prefetch`; E4
            lazy_evaluation: _,      // sim knob `lazy`; E5
            parallel_execution: _,   // `Lane::Stepped` needs `deterministic()`; E9
            cost_based_placement: _, // E9's placement rows
            resilience: _,           // E11; `tests/fault_tolerance.rs`
            transport: _,            // `Lane::Socket`; E16; the pinned benchmark
            exec: _,                 // sim knob `batch_size`
            trace: _,                // `tests/trace_observability.rs`; `trace.overhead_ratio`
        } = CmsConfig::braid();
    }
}
