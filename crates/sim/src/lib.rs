//! # braid-sim — deterministic simulation harness for BrAID
//!
//! FoundationDB-style simulation testing for the IE → CMS → remote
//! pipeline, with a SQLancer-style model-based differential oracle:
//!
//! * [`model::RefModel`] — a naive, cache-free, subsumption-free CAQL
//!   evaluator (stratified bottom-up Datalog fixpoint) over the same
//!   ground-truth database the simulated remote serves. Whatever the
//!   full system answers is checked against it.
//! * [`scenario::SimScenario`] — a declarative scenario: dataset,
//!   per-session query streams, an explicit interleaving schedule,
//!   cache-capacity pressure, batch/shard/technique knobs, and a seeded
//!   [`scenario::FaultSpec`]. Scenarios round-trip through JSON
//!   ([`SimScenario::to_json`]/[`SimScenario::from_json`]) so failures
//!   replay from a pasted string.
//! * [`gen`] — a fully deterministic generator: one `u64` seed ⇒ one
//!   scenario, byte-stable across runs and platforms (SplitMix64, no
//!   external RNG crate).
//! * [`run`] — the runner. [`run::run_scenario`] drives a scenario's
//!   sessions through a [`run::Lane`]. On `Lane::Stepped` every session
//!   runs on the calling thread in schedule order with parallel
//!   execution disabled ([`braid_cms::CmsConfig::deterministic`]), so
//!   the remote request clock — and every seeded fault decision — is a
//!   pure function of the scenario. The other lanes (OS threads, OS
//!   threads over real sockets behind a fault proxy, a fixed worker
//!   pool, client connections to a `BraidServer` from threads or forked
//!   processes) trade that replayability for real schedule diversity.
//! * [`fork`] — the parent side of the self-exec worker protocol the
//!   procs lane and the `braid-load` harness both fork through.
//! * [`shrink`] — delta-debugging minimization of failing scenarios
//!   (drop queries, then faults, then sessions; capacity last) plus
//!   [`shrink::regression_test`] to emit a ready-to-paste test.
//!
//! The oracle checks after every solve: `Exact` answers must be
//! byte-identical to the model, `Partial` answers must be a subset with
//! a non-empty `missing_subqueries` explanation, and end-of-run
//! invariants (pin balance, metrics conservation, span-forest
//! well-formedness) must hold.

pub mod fork;
pub mod gen;
pub mod json;
pub mod model;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use fork::{fork_workers, SpawnMode, WORKER_FLAG};
pub use gen::SimRng;
pub use json::Json;
pub use model::RefModel;
pub use run::{
    build_system, digest_answer, procs_worker, run_scenario, Lane, SimBug, SimOptions, SimReport,
    Violation, ViolationKind, DIGEST_SEED,
};
pub use scenario::{Dataset, FaultSpec, SimScenario};
pub use shrink::{regression_test, shrink, ShrinkOutcome};
