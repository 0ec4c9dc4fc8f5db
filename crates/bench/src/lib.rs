//! # braid-bench
//!
//! The experiment suite of the BrAID reproduction. The paper (an
//! architecture paper) defers its quantitative study to an unavailable
//! tech report, so each experiment here operationalizes one of the
//! paper's *claims* (see DESIGN.md §4): the Figure 1 coupling taxonomy,
//! the Figure 2 technique matrix, and the §5.3 optimization list.
//!
//! Every experiment is a pure function `run(quick) -> Table` over the
//! deterministic cost counters (remote requests, tuples, bytes, server
//! ops, workstation ops) plus wall time where latency is the object of
//! study. `cargo run -p braid-bench --bin report` regenerates every
//! EXPERIMENTS.md table. Timing claims belong to the pinned benchmark
//! (`BENCHMARK.json`, `benchmark/`), which is why the experiments it
//! measures on a steadier rig — E12, E13, E14, E20 and E18's closed-loop
//! row — are retired from this list (EXPERIMENTS.md keeps a pointer to
//! the workload and metric that replaced each).

pub mod experiments;
pub mod table;

pub use table::Table;

/// An experiment entry point: `quick` flag in, result table out.
pub type ExperimentFn = fn(bool) -> Table;

/// All experiments in order, as `(id, runner)`.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("E1", experiments::e01_coupling::run as ExperimentFn),
        ("E2", experiments::e02_subsumption::run),
        ("E3", experiments::e03_generalization::run),
        ("E4", experiments::e04_prefetch::run),
        ("E5", experiments::e05_lazy::run),
        ("E6", experiments::e06_indexing::run),
        ("E7", experiments::e07_replacement::run),
        ("E8", experiments::e08_icrange::run),
        ("E9", experiments::e09_parallel::run),
        ("E10", experiments::e10_pipeline::run),
        ("E11", experiments::e11_faults::run),
        ("E15", experiments::e15_sim::run),
        ("E16", experiments::e16_net::run),
        ("E17", experiments::e17_sessions::run),
        ("E18", experiments::e18_load::run),
        ("E19", experiments::e19_wireobs::run),
    ]
}
