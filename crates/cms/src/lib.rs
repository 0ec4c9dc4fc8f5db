//! # braid-cms
//!
//! BrAID's **Cache Management System (CMS)** — the interface subsystem
//! that bridges the inference engine and the unmodified remote DBMS.
//!
//! "Functionally, the CMS is a main memory relational database management
//! system where the database \[is\] referred to as the cache. The cache
//! consists of relations which are typically views over the remote
//! database as defined by CAQL queries. ... The CMS is functionally more
//! powerful than a traditional DBMS. It employs a subsumption algorithm to
//! find all relevant data in the cache for a given CAQL query. To retrieve
//! data from the remote database, it performs query translation to \[the\]
//! data manipulation language (DML) of the remote DBMS" (Sheth & O'Hare,
//! ICDE 1991, §3).
//!
//! The module layout mirrors Figure 5 ("Organization of the CMS"):
//!
//! | Figure 5 box            | module        |
//! |-------------------------|---------------|
//! | Query Planner/Optimizer | [`planner`]   |
//! | Advice Manager          | [`advice_mgr`]|
//! | Execution Monitor       | [`monitor`]   |
//! | Remote DBMS Interface   | [`rdi`]       |
//! | Cache Manager (+ Query Processor) | [`cache`], [`element`] |
//! | cache model             | [`model`]     |
//!
//! plus [`config`] (sizes, the Figure 1 [`Coupling`], and the technique
//! switches advice does not decide), [`stream`] (the tuple-at-a-time answer streams
//! handed to the IE) and [`metrics`] (workstation-side cost accounting).

pub mod advice_mgr;
pub mod cache;
pub mod caql_exec;
pub mod cms;
pub mod config;
pub mod element;
pub mod error;
pub mod flight;
pub mod metrics;
pub mod model;
pub mod monitor;
pub mod planner;
pub mod rdi;
pub mod resilience;
pub mod sched;
pub mod shared;
pub mod stream;

pub use cache::CacheRead;
pub use cms::Cms;
pub use config::{CmsConfig, Coupling};
pub use element::{CacheElement, ElemId};
pub use error::{CmsError, Result};
pub use flight::{SingleFlight, Waker};
pub use metrics::{CmsMetrics, CmsMetricsSnapshot};
pub use monitor::RemoteFlight;
pub use planner::{PartSource, Plan, PlanPart};
pub use resilience::{Resilience, ResilienceConfig};
pub use sched::{PoolConfig, PoolSnapshot, Step, Task, TaskId, WorkerPool};
pub use shared::{PinGuard, SharedCache};
pub use stream::{AnswerStream, Completeness};

// The structured-tracing subsystem the CMS is instrumented with, re-exported
// so downstream crates (IE, core) share one span tree without a direct
// `braid-trace` dependency.
pub use braid_trace as trace;
