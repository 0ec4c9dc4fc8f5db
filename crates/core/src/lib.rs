//! # braid
//!
//! A from-scratch Rust reproduction of **BrAID** — *"The Architecture of
//! BrAID: A System for Bridging AI/DB Systems"*, A. Sheth & A. O'Hare,
//! Proc. 7th Intl. Conf. on Data Engineering (ICDE), 1991.
//!
//! BrAID bridges a logic-based AI system (an inference engine) and a
//! conventional, unmodified relational DBMS through a **Cache Management
//! System**: a main-memory relational store whose cached views are reused
//! via *subsumption*, guided by *advice* (view specifications with
//! producer/consumer annotations and path expressions) that the inference
//! engine derives by pre-analyzing each AI query.
//!
//! ## Quickstart
//!
//! ```
//! use braid::{BraidConfig, BraidSystem};
//! use braid_relational::{tuple, Relation, Schema};
//!
//! // 1. A "remote" database (the unmodified DBMS of the paper).
//! let mut db = braid::Catalog::new();
//! db.install(Relation::from_tuples(
//!     Schema::of_strs("parent", &["parent", "child"]),
//!     vec![
//!         tuple!["ann", "bob"],
//!         tuple!["bob", "cal"],
//!         tuple!["cal", "dee"],
//!     ],
//! ).unwrap());
//!
//! // 2. A knowledge base (the IE's rules).
//! let mut kb = braid::KnowledgeBase::new();
//! kb.declare_base("parent", 2);
//! kb.add_program(
//!     "anc(X, Y) :- parent(X, Y).\n\
//!      anc(X, Y) :- parent(X, Z), anc(Z, Y).",
//! ).unwrap();
//!
//! // 3. Bridge them and ask an AI query.
//! let mut braid = BraidSystem::new(db, kb, BraidConfig::default());
//! let answers = braid.solve_all("?- anc(ann, Y).", braid::Strategy::ConjunctionCompiled)
//!     .unwrap();
//! assert_eq!(answers.len(), 3);
//! ```
//!
//! ## Crate map (the architecture of Figure 3)
//!
//! | paper component | crate |
//! |---|---|
//! | inference engine (Fig. 4) | `braid-ie` |
//! | Cache Management System (Fig. 5) | `braid-cms` |
//! | remote DBMS (simulated INGRES / IDM-500) | `braid-remote` |
//! | CAQL | `braid-caql` |
//! | advice language | `braid-advice` |
//! | PSJ subsumption | `braid-subsume` |
//! | relational substrate | `braid-relational` |

pub mod explain;
pub mod metrics;
pub mod server;
pub mod system;
pub mod task;

pub use explain::{ExplainReport, ExplainSummary, PlanExplain};
pub use metrics::CombinedMetrics;
pub use server::{BraidClient, BraidServer, BraidServerConfig, BraidServerStats};
pub use system::{
    BraidConfig, BraidError, BraidSystem, CheckedSolutions, ExplainedSolutions, SessionHandle,
};
pub use task::{SessionState, SessionTask};

// The public API surface, re-exported so applications depend on one crate.
pub use braid_advice::{Advice, PathExpr, PathTracker, ViewSpec};
pub use braid_caql::{
    parse_atom, parse_program, parse_query, parse_rule, Atom, CaqlQuery, ConjunctiveQuery, Literal,
    Subst, Term,
};
pub use braid_cms::{
    AnswerStream, Cms, CmsConfig, Completeness, Coupling, PoolConfig, ResilienceConfig, Waker,
    WorkerPool,
};
pub use braid_ie::{IeError, InferenceEngine, KnowledgeBase, Rule, Soa, Strategy};
pub use braid_relational::{Relation, Schema, Tuple, Value};
pub use braid_remote::{
    Catalog, CostModel, FaultPlan, LatencyModel, PoolStats, RemoteDbms, RemoteTcpServer,
    TcpClientConfig, TcpServerConfig, TransportConfig,
};
pub use braid_trace as trace;
pub use braid_trace::{Histogram, HistogramSnapshot, RingSink, SinkHandle, TraceEvent, TraceKind};
