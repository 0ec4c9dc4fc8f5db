//! # braid-workload
//!
//! Synthetic databases, rule sets, query workloads and coupling-mode
//! baselines for the BrAID reproduction's experiments.
//!
//! The paper motivates BrAID with knowledge-processing applications over
//! "large amounts of shared data" (§1); the three scenarios here give the
//! benchmark harness realistic shapes:
//!
//! * [`genealogy`] — family trees: the classic recursive `ancestor` /
//!   `cousin` workload dominated by backtracking and repeated subgoals,
//! * [`suppliers`] — parts/suppliers with a bill-of-materials hierarchy:
//!   joins plus a `component-of` closure,
//! * [`transit`] — a transit network: reachability over a cyclic graph
//!   (exercises the compiled strategy's fixpoint),
//!
//! plus [`queries`] (instantiated query sequences with a locality knob)
//! and [`baseline`] — the coupling modes of the paper's Figure 1 taxonomy
//! run head-to-head against the same remote DBMS.

pub mod baseline;
pub mod genealogy;
pub mod queries;
pub mod scenario;
pub mod suppliers;
pub mod transit;

pub use baseline::Coupling;
pub use queries::QueryWorkload;
pub use scenario::Scenario;
