//! One module per experiment (DESIGN.md §4). Each exposes
//! `run(quick: bool) -> Table`.

pub mod e01_coupling;
pub mod e02_subsumption;
pub mod e03_generalization;
pub mod e04_prefetch;
pub mod e05_lazy;
pub mod e06_indexing;
pub mod e07_replacement;
pub mod e08_icrange;
pub mod e09_parallel;
pub mod e10_pipeline;
pub mod e11_faults;
pub mod e15_sim;
pub mod e16_net;
pub mod e17_sessions;
pub mod e18_load;
pub mod e19_wireobs;

pub(crate) mod support;
