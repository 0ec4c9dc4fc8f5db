//! One session's query list as a resumable state machine.
//!
//! [`SessionTask`] drives an owned [`SessionHandle`] through a fixed
//! sequence of queries on a [`braid_cms::sched::WorkerPool`], yielding
//! the worker thread at every blocking point instead of parking it:
//!
//! ```text
//!          +--------------------------------------------+
//!          v                                            |
//! Plan -> Execute --(would-block)--> FetchWait --.      |
//!   |        |                           ^       |      |
//!   |        | (answer or error)         '-wake--'      |
//!   |        v                                          |
//!   |     Stream ---------------------------------------+
//!   |        |
//!   '------> Done (query list exhausted)
//! ```
//!
//! * **Plan** picks the next query (or finishes).
//! * **Execute** polls [`SessionHandle::poll_checked`] with the pool's
//!   waker. A single-flight join another session is leading comes back
//!   `Pending`; the task records the park and returns [`Step::Pending`]
//!   — the pool suspends the *session*, the OS thread moves on to
//!   another one.
//! * **FetchWait** is where the waker re-delivers the task: it records
//!   the parked duration (a `sched.resume` trace event EXPLAIN picks
//!   up) and loops back to Execute, whose re-poll consumes the joined
//!   result — byte-identical to the blocking call's answer.
//! * **Stream** delivers the finished [`CheckedSolutions`] through the
//!   `on_result` callback.
//!
//! Each state transition is one [`Task::step`] slice, so the pool's
//! per-session step budget bounds how long any session can monopolize a
//! worker.

use crate::system::{BraidError, CheckedSolutions, SessionHandle};
use braid_cms::sched::{Step, Task};
use braid_cms::Waker;
use braid_ie::Strategy;
use braid_trace::TraceKind;
use std::task::Poll;
use std::time::Instant;

/// Where a [`SessionTask`] is in its machine (see the module diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Selecting the next query (or finishing).
    Plan,
    /// Running the solve; may complete or park.
    Execute,
    /// Parked on a pending single-flight join, waiting for the waker.
    FetchWait,
    /// Delivering the finished answer to the caller.
    Stream,
    /// Query list exhausted.
    Done,
}

/// Callback invoked once per query with its index and outcome.
pub type OnResult = Box<dyn FnMut(usize, Result<CheckedSolutions, BraidError>) + Send>;

/// A resumable session: an owned [`SessionHandle`], a query list, and
/// the state machine that advances them one scheduler slice at a time.
/// Implements [`braid_cms::sched::Task`], so it is spawned directly onto
/// a [`braid_cms::sched::WorkerPool`].
pub struct SessionTask {
    session: SessionHandle,
    queries: Vec<String>,
    strategy: Strategy,
    on_result: OnResult,
    next: usize,
    state: SessionState,
    parked_at: Option<Instant>,
    finished: Option<Result<CheckedSolutions, BraidError>>,
}

impl SessionTask {
    /// A task that will solve `queries` in order on `session`, reporting
    /// each answer through `on_result`.
    pub fn new(
        session: SessionHandle,
        queries: Vec<String>,
        strategy: Strategy,
        on_result: impl FnMut(usize, Result<CheckedSolutions, BraidError>) + Send + 'static,
    ) -> SessionTask {
        SessionTask {
            session,
            queries,
            strategy,
            on_result: Box::new(on_result),
            next: 0,
            state: SessionState::Plan,
            parked_at: None,
            finished: None,
        }
    }

    /// Current state (test/inspection hook).
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The current query's text, while one is in progress.
    fn current_query(&self) -> &str {
        &self.queries[self.next]
    }
}

impl Task for SessionTask {
    fn step(&mut self, waker: &Waker) -> Step {
        match self.state {
            SessionState::Plan => {
                if self.next >= self.queries.len() {
                    self.state = SessionState::Done;
                    return Step::Done;
                }
                self.state = SessionState::Execute;
                Step::Yield
            }
            SessionState::Execute => {
                let query = &self.queries[self.next];
                match self.session.poll_checked(query, self.strategy, waker) {
                    Poll::Pending => {
                        self.parked_at = Some(Instant::now());
                        self.session.cms().tracer().event(
                            TraceKind::SchedPark,
                            query.clone(),
                            vec![],
                        );
                        self.state = SessionState::FetchWait;
                        Step::Pending
                    }
                    Poll::Ready(done) => {
                        self.finished = Some(done);
                        self.state = SessionState::Stream;
                        Step::Yield
                    }
                }
            }
            SessionState::FetchWait => {
                let waited_us = self
                    .parked_at
                    .take()
                    .map_or(0, |t| t.elapsed().as_micros() as u64);
                self.session.cms().tracer().event(
                    TraceKind::SchedResume,
                    self.current_query().to_string(),
                    vec![("waited_us", waited_us.to_string())],
                );
                self.state = SessionState::Execute;
                Step::Yield
            }
            SessionState::Stream => {
                let result = self
                    .finished
                    .take()
                    .expect("Stream entered with a finished result");
                (self.on_result)(self.next, result);
                self.next += 1;
                self.state = SessionState::Plan;
                Step::Yield
            }
            SessionState::Done => Step::Done,
        }
    }
}

impl std::fmt::Debug for SessionTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTask")
            .field("state", &self.state)
            .field("next", &self.next)
            .field("queries", &self.queries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{BraidConfig, BraidSystem};
    use braid_cms::sched::{PoolConfig, WorkerPool};
    use braid_relational::Tuple;
    use std::sync::{Arc, Mutex};

    fn system() -> BraidSystem {
        crate::system::tests::system(BraidConfig::default())
    }

    #[test]
    fn session_task_walks_its_query_list_on_a_pool() {
        let b = system();
        type ResultLog = Arc<Mutex<Vec<(usize, Vec<Tuple>)>>>;
        let results: ResultLog = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&results);
        let task = SessionTask::new(
            b.session_owned(),
            vec!["?- gp(ann, Y).".into(), "?- anc(ann, Y).".into()],
            Strategy::ConjunctionCompiled,
            move |i, r| {
                sink.lock().unwrap().push((i, r.unwrap().solutions));
            },
        );
        let pool = WorkerPool::new(PoolConfig {
            workers: 2,
            step_budget: 4,
        });
        pool.spawn(Box::new(task));
        pool.join();
        let got = results.lock().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 0);
        assert_eq!(got[0].1.len(), 1, "gp(ann, Y) -> cal");
        assert_eq!(got[1].1.len(), 3, "anc(ann, Y) -> bob, cal, dee");
    }

    #[test]
    fn coop_and_threaded_sessions_agree() {
        let b = system();
        let mut serial = b.session_owned();
        let expected = serial
            .solve_all("?- anc(ann, Y).", Strategy::ConjunctionCompiled)
            .unwrap();
        let results: Arc<Mutex<Vec<Vec<Tuple>>>> = Arc::new(Mutex::new(Vec::new()));
        let pool = WorkerPool::new(PoolConfig {
            workers: 4,
            step_budget: 2,
        });
        for _ in 0..8 {
            let sink = Arc::clone(&results);
            pool.spawn(Box::new(SessionTask::new(
                b.session_owned(),
                vec!["?- anc(ann, Y).".into()],
                Strategy::ConjunctionCompiled,
                move |_, r| sink.lock().unwrap().push(r.unwrap().solutions),
            )));
        }
        pool.join();
        let got = results.lock().unwrap();
        assert_eq!(got.len(), 8);
        for sols in got.iter() {
            assert_eq!(sols, &expected);
        }
        assert_eq!(b.cms().open_flights(), 0, "no leaked flights");
    }
}
