//! # braid-relational
//!
//! A main-memory relational substrate shared by the two data-holding
//! components of the BrAID reproduction:
//!
//! * the **cache** managed by the Cache Management System (CMS), which the
//!   paper describes as "functionally ... a main memory relational database
//!   management system" (Sheth & O'Hare, ICDE 1991, §3), and
//! * the **simulated remote DBMS** standing in for the paper's INGRES /
//!   Britton-Lee IDM-500 back ends.
//!
//! The crate provides typed [`Value`]s, [`Schema`]s, immutable shared
//! [`Tuple`]s, materialized [`Relation`]s with optional [hash
//! indices](index::HashIndex), and a single physical-plan layer
//! ([`plan`]) executed by a batched pull executor ([`exec`]). The eager
//! relational [operators](ops) and the *lazy* generator API ([`lazy`]) —
//! the paper's **generators** ("a generator ... produces a single tuple
//! on demand", §5.1) — are two thin modes over that one executor.
//! Per-relation [statistics](stats) support cost-based planning.
//!
//! Everything is deliberately free of I/O and external dependencies: the
//! BrAID architecture treats both stores as main-memory systems and models
//! remote access cost separately (see the `braid-remote` crate).

pub mod columnar;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod lazy;
pub mod ops;
pub mod plan;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod value;

pub use columnar::{ColVec, ColumnarRelation};
pub use error::{RelationalError, Result};
pub use exec::{ExecConfig, ExecStats, RunningPlan, TupleBatch};
pub use expr::{CmpOp, Expr};
pub use index::HashIndex;
pub use lazy::{Generator, RunningGenerator, TupleStream};
pub use plan::{AggFunc, Aggregate, PhysicalPlan};
pub use relation::Relation;
pub use schema::{Column, Schema};
pub use stats::RelationStats;
pub use tuple::Tuple;
pub use value::{Value, ValueType};
