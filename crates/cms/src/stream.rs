//! Answer streams: tuple-at-a-time delivery to the inference engine.
//!
//! "The CMS returns the result for the query using a stream" (§3). An
//! eager stream iterates a materialized result; a lazy stream pulls from a
//! running generator, producing "a single solution on demand whenever
//! possible (i.e., when a query can be solved using only cached data)"
//! (§5.5).
//!
//! The lazy arm is where the batched executor's output is adapted back to
//! the IE's tuple-at-a-time interface: the underlying
//! [`braid_relational::RunningPlan`] pulls whole `TupleBatch`es from its
//! operator tree and hands them out one tuple per [`TupleStream::next_tuple`]
//! call, so the IE sees single-tuple demand while the executor amortizes
//! per-operator overhead across the batch.

use crate::metrics::CmsMetrics;
use braid_relational::{RunningGenerator, Schema, Tuple, TupleStream};
use std::collections::VecDeque;
use std::sync::Arc;

/// How complete an answer stream is with respect to the query's true
/// result. Exact is the normal case; Partial arises only in degraded
/// mode, when the remote DBMS was unreachable and subsumption could
/// *not* prove the cache covers the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completeness {
    /// Every answer tuple is present: either the remote cooperated, or
    /// subsumption proved the cached data fully covers the query.
    Exact,
    /// The remote was unreachable and coverage could not be proven; the
    /// stream holds only the tuples provable from cache. Each listed
    /// subquery names a plan part that would have needed the remote.
    Partial {
        /// Human-readable descriptions of the unanswerable plan parts.
        missing_subqueries: Vec<String>,
    },
}

impl Completeness {
    /// Is the answer provably complete?
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }
}

enum Inner {
    Eager(VecDeque<Tuple>),
    Lazy(Box<RunningGenerator>),
}

/// A stream of answer tuples handed to the IE.
pub struct AnswerStream {
    schema: Schema,
    inner: Inner,
    delivered: usize,
    lazy: bool,
    completeness: Completeness,
    // Session pins on the cache elements a lazy generator reads from.
    // Held only for their Drop impl: while the stream is open, concurrent
    // sessions cannot evict those elements out from under it.
    _pins: Vec<crate::shared::PinGuard>,
    // Where a lazy stream books its executor counters when it drops: its
    // generator runs as the IE pulls, so the work is known only then.
    exec_sink: Option<Arc<CmsMetrics>>,
}

impl AnswerStream {
    /// An eager stream over a computed result.
    pub fn eager(schema: Schema, tuples: Vec<Tuple>) -> AnswerStream {
        AnswerStream {
            schema,
            inner: Inner::Eager(tuples.into()),
            delivered: 0,
            lazy: false,
            completeness: Completeness::Exact,
            _pins: Vec::new(),
            exec_sink: None,
        }
    }

    /// A lazy stream over a running generator.
    pub fn lazy(generator: RunningGenerator) -> AnswerStream {
        let schema = generator.schema().clone();
        AnswerStream {
            schema,
            inner: Inner::Lazy(Box::new(generator)),
            delivered: 0,
            lazy: true,
            completeness: Completeness::Exact,
            _pins: Vec::new(),
            exec_sink: None,
        }
    }

    /// A lazy stream holding session pins on the cache elements it reads
    /// from, released when the stream drops, when it also books the
    /// generator's executor counters into `metrics`.
    pub fn lazy_pinned(
        generator: RunningGenerator,
        pins: Vec<crate::shared::PinGuard>,
        metrics: Arc<CmsMetrics>,
    ) -> AnswerStream {
        let mut s = AnswerStream::lazy(generator);
        s._pins = pins;
        s.exec_sink = Some(metrics);
        s
    }

    /// Tag the stream's completeness (degraded-mode answers).
    #[must_use]
    pub fn with_completeness(mut self, completeness: Completeness) -> AnswerStream {
        self.completeness = completeness;
        self
    }

    /// How complete this answer is (see [`Completeness`]).
    pub fn completeness(&self) -> &Completeness {
        &self.completeness
    }

    /// Shorthand: is this answer provably complete?
    pub fn is_exact(&self) -> bool {
        self.completeness.is_exact()
    }

    /// Schema of the answers.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Was this answer produced lazily?
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Tuples delivered so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Pull the next answer (the IE's tuple-at-a-time interface).
    pub fn next_tuple(&mut self) -> Option<Tuple> {
        let t = match &mut self.inner {
            Inner::Eager(q) => q.pop_front(),
            Inner::Lazy(g) => g.next_tuple(),
        };
        if t.is_some() {
            self.delivered += 1;
        }
        t
    }

    /// Drain everything (set-at-a-time consumers — compiled IEs).
    pub fn drain(mut self) -> Vec<Tuple> {
        let mut out = Vec::new();
        while let Some(t) = self.next_tuple() {
            out.push(t);
        }
        out
    }
}

impl Iterator for AnswerStream {
    type Item = Tuple;
    fn next(&mut self) -> Option<Tuple> {
        self.next_tuple()
    }
}

impl Drop for AnswerStream {
    fn drop(&mut self) {
        if let (Some(metrics), Inner::Lazy(g)) = (&self.exec_sink, &self.inner) {
            metrics.add_exec_stats(g.stats());
        }
    }
}

impl std::fmt::Debug for AnswerStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerStream")
            .field("schema", &self.schema.to_string())
            .field("lazy", &self.lazy)
            .field("delivered", &self.delivered)
            .field("completeness", &self.completeness)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_relational::{tuple, Generator, Relation};
    use std::sync::Arc;

    #[test]
    fn eager_stream_counts_deliveries() {
        let mut s =
            AnswerStream::eager(Schema::of_strs("r", &["x"]), vec![tuple!["a"], tuple!["b"]]);
        assert!(!s.is_lazy());
        assert_eq!(s.next_tuple(), Some(tuple!["a"]));
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.by_ref().count(), 1);
    }

    #[test]
    fn streams_default_to_exact_and_can_be_tagged_partial() {
        let s = AnswerStream::eager(Schema::of_strs("r", &["x"]), vec![]);
        assert!(s.is_exact());
        let s = s.with_completeness(Completeness::Partial {
            missing_subqueries: vec!["b2(X, Z)".into()],
        });
        assert!(!s.is_exact());
        match s.completeness() {
            Completeness::Partial { missing_subqueries } => {
                assert_eq!(missing_subqueries, &["b2(X, Z)".to_string()]);
            }
            Completeness::Exact => panic!("expected partial"),
        }
    }

    #[test]
    fn lazy_stream_pulls_from_generator() {
        let rel = Relation::from_tuples(
            Schema::of_strs("r", &["x"]),
            vec![tuple!["a"], tuple!["b"], tuple!["c"]],
        )
        .unwrap();
        let g = Generator::scan(Arc::new(rel));
        let mut s = AnswerStream::lazy(g.open());
        assert!(s.is_lazy());
        assert!(s.next_tuple().is_some());
        assert_eq!(s.delivered(), 1);
        let rest = s.drain();
        assert_eq!(rest.len(), 2);
    }
}
