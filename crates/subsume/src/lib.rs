//! # braid-subsume
//!
//! The subsumption machinery of the BrAID Cache Management System.
//!
//! "The CMS ... employs a subsumption algorithm to find all relevant data
//! in the cache for a given CAQL query" (Sheth & O'Hare, ICDE 1991, §3).
//! §5.3.2 sets the problem precisely: given a cache of elements `Eᵢ`
//! (views defined by CAQL expressions) and a query `Q`, "find all `Q_c` of
//! `Q`, such that `Q_c` is derivable from an `Eᵢ` (i.e., there exists an
//! `Eᵢ ⊐ Q_c`, where `⊐` stands for 'subsumes' or 'can be used to
//! derive')". Both queries and elements are limited "to logic expressions
//! equivalent to PSJ expressions (as in \[LARS85\])".
//!
//! This crate implements:
//!
//! * [`ViewDef`] — a validated PSJ view definition (positive atoms plus
//!   comparisons; the head lists the stored columns),
//! * [`subsumes`] — directional containment of a query component in a
//!   view, returning a [`Derivation`]: the compensation (residual
//!   selection and projection over the element's stored columns) needed to
//!   compute the component from the element,
//! * [`decompose`] — enumeration of the conjunctive components of a query
//!   (the paper's `n(n+1)/2` contiguous subqueries), and
//! * [`SubsumptionEngine`] — the two-step relevant-element search of
//!   §5.3.2 (a `(functor, position, constant)` candidate index, then the
//!   neighbour/containment check), producing every
//!   `(component, element, derivation)` triple.
//!
//! This strictly generalizes the reuse tests of the systems the paper
//! compares against: "in \[SELL87\] and \[IOAN88\], the cached results must
//! exactly match the query. In \[CERI86\], cached elements contain only
//! single relations" (§5.3.2).

pub mod decompose;
pub mod derive;
pub mod engine;
pub mod subsume;
pub mod view;

pub use decompose::{base_footprint, decompose, Component};
pub use derive::Derivation;
pub use engine::{CandidateUse, SubsumptionEngine};
pub use subsume::{cmp_implies, subsumes};
pub use view::{ViewDef, ViewDefError};
