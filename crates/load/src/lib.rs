//! # braid-load — multi-process load generation for the braid server
//!
//! A load test that lives in the server's own process shares its
//! allocator, its scheduler run queue and its page cache — exactly the
//! contention it is supposed to measure from the outside. This crate
//! forks **real client processes** against a
//! [`BraidServer`](braid::BraidServer) through the self-exec worker
//! protocol ([`braid_sim::fork_workers`]): each child gets a [`LoadSpec`]
//! frame on stdin and answers with one
//! [`LoadReport`](braid_remote::clientproto::LoadReport) frame on stdout.
//!
//! Three properties make a run a *measurement* rather than a demo:
//!
//! * **Open-loop arrivals** ([`arrival_offsets_us`]): each process
//!   precomputes a seeded exponential arrival schedule and charges
//!   latency from the *scheduled* arrival time, not the send time, so a
//!   stalled server accrues the queueing delay it caused
//!   (coordination-omission-free). `rate_per_sec == 0` degrades to the
//!   classic closed loop for comparison.
//! * **Oracle-checked answers**: every worker folds each answer into an
//!   FNV digest with the exact shape the simulation harness uses
//!   ([`braid_sim::digest_answer`]); the parent recomputes the expected
//!   digest from the [`RefModel`](braid_sim::RefModel) over the same
//!   seeded query pool. Throughput numbers over wrong answers are
//!   worthless.
//! * **Mergeable latency** ([`braid_trace::Histogram`]): log2 buckets
//!   travel in the report frame and merge associatively, so the
//!   cross-process p99 is computed from data, not averaged from
//!   per-process percentiles.
//!
//! Call [`maybe_worker`] first thing in `main` of any binary that wants
//! to act as a fork target (the `load` bin and the bench `report`/`sim`
//! bins all do); it serves both this crate's load specs and the sim
//! oracle's procs lane (`braid_sim::Lane::Procs`).

pub mod harness;
pub mod schedule;
pub mod spec;
pub mod worker;

pub use braid_sim::{SpawnMode, WORKER_FLAG};
pub use harness::{run_load, LoadConfig, LoadOutcome};
pub use schedule::arrival_offsets_us;
pub use spec::{query_pool, LoadSpec};
pub use worker::{maybe_worker, run_load_worker};
