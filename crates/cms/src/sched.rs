//! Fixed worker pool with a readiness queue for cooperative sessions.
//!
//! BrAID's million-user ambition (§6 of the paper) rules out a thread
//! per session: the workstation side must multiplex many sessions onto
//! a few OS threads, suspending a session wherever it would otherwise
//! block on shared work (a single-flight join led by another session).
//! This module is that multiplexer:
//!
//! - A [`Task`] is a resumable state machine. Each [`Task::step`] call
//!   runs until the task yields (made progress, more to do), parks
//!   (waiting on a [`Waker`]), or completes.
//! - The pool keeps a FIFO run queue (`Mutex` + `Condvar`) of ready
//!   task ids. Workers pop, step up to `step_budget` times, then
//!   re-enqueue at the tail — FIFO order plus the budget bound give the
//!   no-starvation guarantee the proptest in
//!   `tests/cooperative_sessions.rs` checks.
//! - A parked task is re-enqueued when its waker fires. A waker that
//!   fires *while the task is still mid-step* (the leader published
//!   before the joiner finished unwinding) sets a `wake_pending` flag
//!   instead, and the task is re-enqueued the moment its step returns
//!   `Pending` — the lost-wakeup race cannot strand a session.
//!
//! Waker contract (shared with [`crate::flight`]): every waker a task
//! hands out is fired *exactly once* (on flight publish or leader
//! abandonment), and every `Pending` step registered exactly one waker.
//! Hence at quiescence `sessions_parked == wakes` in
//! [`crate::CmsMetrics`] — the pin-balance-style invariant the sim's
//! cooperative lane asserts ("no leaked wakers").

use crate::flight::Waker;
use crate::metrics::CmsMetrics;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;

/// What a [`Task::step`] call ended with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Made progress; more work remains. The pool keeps stepping (up to
    /// the fairness budget) and then re-enqueues at the tail.
    Yield,
    /// Blocked on shared work. The task registered the provided waker
    /// before returning; the pool parks it until the waker fires.
    Pending,
    /// The task is complete and is dropped.
    Done,
}

/// A resumable unit of work multiplexed onto the pool.
///
/// `step` receives the waker to hand to any subsystem (the single-flight
/// table) that will later make the task runnable again. A step that
/// returns [`Step::Pending`] must have registered that waker exactly
/// once; a step that returns [`Step::Yield`] or [`Step::Done`] must not
/// have left it registered anywhere that will still fire spuriously —
/// except for the benign case of a stashed flight ticket whose waker
/// fires after the park it belonged to was already serviced (the pool
/// treats a wake of a running or queued task as a flag or a no-op).
pub trait Task: Send {
    /// Run one bounded slice of work.
    fn step(&mut self, waker: &Waker) -> Step;
}

/// Identifies a spawned task within one pool.
pub type TaskId = u64;

/// Sizing knobs for [`WorkerPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// OS threads servicing the run queue.
    pub workers: usize,
    /// Consecutive steps one task may run before being re-enqueued at
    /// the tail (fairness bound; ≥ 1).
    pub step_budget: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            step_budget: 8,
        }
    }
}

/// Where a spawned task currently lives.
enum Slot {
    /// In the run queue, waiting for a worker.
    Queued(Box<dyn Task>),
    /// Owned by a worker mid-step. `wake_pending` records a waker that
    /// fired during the step, so a subsequent `Pending` re-enqueues
    /// immediately instead of parking forever.
    Running { wake_pending: bool },
    /// Suspended until its waker fires.
    Parked(Box<dyn Task>),
}

struct PoolState {
    queue: VecDeque<TaskId>,
    slots: HashMap<TaskId, Slot>,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signals workers that the queue gained an entry (or shutdown).
    ready: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    spawned: AtomicU64,
    finished: AtomicU64,
    panicked: AtomicU64,
    /// Signals `join` that `finished` caught up with `spawned`.
    drained: Condvar,
    step_budget: usize,
    metrics: Option<Arc<CmsMetrics>>,
}

impl PoolInner {
    fn push_ready(&self, st: &mut PoolState, id: TaskId) {
        st.queue.push_back(id);
        if let Some(m) = &self.metrics {
            m.record_run_queue_depth(st.queue.len() as u64);
        }
        self.ready.notify_one();
    }

    /// Fire-side of the waker contract: every call counts as a wake,
    /// then either re-enqueues a parked task, flags a running one, or —
    /// for a queued/finished task — is a benign no-op.
    fn wake(&self, id: TaskId) {
        if let Some(m) = &self.metrics {
            m.add_wakes(1);
        }
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match st.slots.get_mut(&id) {
            Some(Slot::Parked(_)) => {
                let task = match st.slots.remove(&id) {
                    Some(Slot::Parked(t)) => t,
                    _ => unreachable!("checked parked above"),
                };
                st.slots.insert(id, Slot::Queued(task));
                self.push_ready(&mut st, id);
            }
            Some(Slot::Running { wake_pending }) => *wake_pending = true,
            Some(Slot::Queued(_)) | None => {}
        }
    }

    fn mark_finished(&self, st: &mut PoolState, id: TaskId) {
        st.slots.remove(&id);
        self.finished.fetch_add(1, Ordering::SeqCst);
        self.drained.notify_all();
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            // Claim the next ready task, or sleep until one appears.
            let (id, mut task) = {
                let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if let Some(id) = st.queue.pop_front() {
                        match st.slots.remove(&id) {
                            Some(Slot::Queued(t)) => {
                                st.slots.insert(
                                    id,
                                    Slot::Running {
                                        wake_pending: false,
                                    },
                                );
                                break (id, t);
                            }
                            other => {
                                // A stale queue entry (task already
                                // finished); put any slot back and keep
                                // draining.
                                if let Some(slot) = other {
                                    st.slots.insert(id, slot);
                                }
                                continue;
                            }
                        }
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    st = self.ready.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            };

            let waker = waker_for(Arc::downgrade(self), id);
            let mut verdict = None;
            for _ in 0..self.step_budget {
                if let Some(m) = &self.metrics {
                    m.add_steps_executed(1);
                }
                match catch_unwind(AssertUnwindSafe(|| task.step(&waker))) {
                    Ok(Step::Yield) => continue,
                    Ok(Step::Pending) => {
                        verdict = Some(Step::Pending);
                        break;
                    }
                    Ok(Step::Done) => {
                        verdict = Some(Step::Done);
                        break;
                    }
                    Err(_) => {
                        self.panicked.fetch_add(1, Ordering::SeqCst);
                        verdict = Some(Step::Done);
                        break;
                    }
                }
            }

            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            match verdict {
                // Budget exhausted while still runnable: back of the line.
                None => {
                    st.slots.insert(id, Slot::Queued(task));
                    self.push_ready(&mut st, id);
                }
                Some(Step::Pending) => {
                    if let Some(m) = &self.metrics {
                        m.add_sessions_parked(1);
                    }
                    let woken_mid_step = matches!(
                        st.slots.get(&id),
                        Some(Slot::Running { wake_pending: true })
                    );
                    if woken_mid_step {
                        // The waker already fired: this park lasted zero
                        // time; re-enqueue straight away.
                        st.slots.insert(id, Slot::Queued(task));
                        self.push_ready(&mut st, id);
                    } else {
                        st.slots.insert(id, Slot::Parked(task));
                    }
                }
                Some(Step::Done) => self.mark_finished(&mut st, id),
                Some(Step::Yield) => unreachable!("Yield never ends the budget loop"),
            }
        }
    }
}

fn waker_for(inner: Weak<PoolInner>, id: TaskId) -> Waker {
    Waker::new(move || {
        if let Some(pool) = inner.upgrade() {
            pool.wake(id);
        }
    })
}

/// Point-in-time pool introspection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Tasks ever spawned.
    pub spawned: u64,
    /// Tasks that ran to completion (including panicked ones).
    pub finished: u64,
    /// Tasks whose step panicked (the pool survives; the task is dropped).
    pub panicked: u64,
    /// Ready tasks currently queued.
    pub queue_len: usize,
    /// Tasks currently parked on a waker.
    pub parked: usize,
}

/// Fixed pool of worker threads stepping [`Task`]s from a FIFO
/// readiness queue. See the module docs for the scheduling and waker
/// contract.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Start `config.workers` threads with no metrics sink.
    pub fn new(config: PoolConfig) -> WorkerPool {
        Self::build(config, None)
    }

    /// Start the pool and publish scheduler counters (`sessions_parked`,
    /// `wakes`, `steps_executed`, `run_queue_depth`) into `metrics`.
    pub fn with_metrics(config: PoolConfig, metrics: Arc<CmsMetrics>) -> WorkerPool {
        Self::build(config, Some(metrics))
    }

    fn build(config: PoolConfig, metrics: Option<Arc<CmsMetrics>>) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                slots: HashMap::new(),
            }),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spawned: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            drained: Condvar::new(),
            step_budget: config.step_budget.max(1),
            metrics,
        });
        let handles = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("braid-sched-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Enqueue a task; it starts running as soon as a worker is free.
    pub fn spawn(&self, task: Box<dyn Task>) -> TaskId {
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        self.inner.spawned.fetch_add(1, Ordering::SeqCst);
        let mut st = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        st.slots.insert(id, Slot::Queued(task));
        self.inner.push_ready(&mut st, id);
        id
    }

    /// A waker that re-enqueues `id` when fired — for external event
    /// sources (e.g. a server connection's reader thread) that make a
    /// parked task runnable.
    pub fn waker(&self, id: TaskId) -> Waker {
        waker_for(Arc::downgrade(&self.inner), id)
    }

    /// Block until every task spawned so far has finished. (A parked
    /// task whose waker never fires blocks `join` forever — that is the
    /// leaked-waker bug this layer's invariants exist to catch, not a
    /// condition to paper over with a timeout.)
    pub fn join(&self) {
        let mut st = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        while self.inner.finished.load(Ordering::SeqCst) < self.inner.spawned.load(Ordering::SeqCst)
        {
            st = self
                .inner
                .drained
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Current counters and queue occupancy.
    pub fn snapshot(&self) -> PoolSnapshot {
        let st = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        PoolSnapshot {
            spawned: self.inner.spawned.load(Ordering::SeqCst),
            finished: self.inner.finished.load(Ordering::SeqCst),
            panicked: self.inner.panicked.load(Ordering::SeqCst),
            queue_len: st.queue.len(),
            parked: st
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Parked(_)))
                .count(),
        }
    }

    /// Stop the workers (idle ones exit immediately; busy ones after
    /// their current task parks, finishes, or exhausts its budget and
    /// the queue is empty). Remaining queued/parked tasks are dropped.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A task driven by a closure — each call is one step.
    struct FnTask(Box<dyn FnMut(&Waker) -> Step + Send>);

    impl Task for FnTask {
        fn step(&mut self, waker: &Waker) -> Step {
            (self.0)(waker)
        }
    }

    fn fn_task(f: impl FnMut(&Waker) -> Step + Send + 'static) -> Box<dyn Task> {
        Box::new(FnTask(Box::new(f)))
    }

    /// No `..`: a new field does not compile until it is listed here
    /// with what tells its values apart (and in DESIGN.md §3).
    #[test]
    fn every_field_is_accounted_for() {
        let PoolConfig {
            workers: _,     // E17's pool row; `Lane::Pool`; `core.queue_peak`
            step_budget: _, // budgets of 1, 2, 4 here and in `cooperative_sessions`
        } = PoolConfig::default();
    }

    #[test]
    fn tasks_run_to_completion_on_one_worker() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            step_budget: 1,
        });
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let hits = Arc::clone(&hits);
            let mut left = 3;
            pool.spawn(fn_task(move |_| {
                hits.fetch_add(1, Ordering::SeqCst);
                left -= 1;
                if left == 0 {
                    Step::Done
                } else {
                    Step::Yield
                }
            }));
        }
        pool.join();
        assert_eq!(hits.load(Ordering::SeqCst), 24, "8 tasks x 3 steps each");
        let snap = pool.snapshot();
        assert_eq!((snap.spawned, snap.finished), (8, 8));
        assert_eq!(snap.queue_len, 0);
        pool.shutdown();
    }

    #[test]
    fn parked_task_resumes_when_waker_fires() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 2,
            step_budget: 4,
        });
        let stash: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let steps = Arc::new(AtomicUsize::new(0));
        let (st, sp) = (Arc::clone(&stash), Arc::clone(&steps));
        pool.spawn(fn_task(move |w| {
            if sp.fetch_add(1, Ordering::SeqCst) == 0 {
                *st.lock().unwrap() = Some(w.clone());
                Step::Pending
            } else {
                Step::Done
            }
        }));
        // Wait until the task has provably parked, then wake it.
        loop {
            if pool.snapshot().parked == 1 {
                break;
            }
            std::thread::yield_now();
        }
        stash.lock().unwrap().take().expect("waker stashed").wake();
        pool.join();
        assert_eq!(steps.load(Ordering::SeqCst), 2, "one park, one resume");
        pool.shutdown();
    }

    #[test]
    fn wake_during_step_is_not_lost() {
        // The waker fires *inside* the step, before Pending is returned
        // — the wake_pending flag must turn the park into an immediate
        // re-enqueue rather than stranding the task.
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            step_budget: 1,
        });
        let steps = Arc::new(AtomicUsize::new(0));
        let sp = Arc::clone(&steps);
        pool.spawn(fn_task(move |w| {
            if sp.fetch_add(1, Ordering::SeqCst) == 0 {
                w.wake(); // fires while we are still Running
                Step::Pending
            } else {
                Step::Done
            }
        }));
        pool.join();
        assert_eq!(steps.load(Ordering::SeqCst), 2);
        pool.shutdown();
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            step_budget: 2,
        });
        pool.spawn(fn_task(|_| panic!("task bug")));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.spawn(fn_task(move |_| {
            r.fetch_add(1, Ordering::SeqCst);
            Step::Done
        }));
        pool.join();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "survivor still ran");
        let snap = pool.snapshot();
        assert_eq!(snap.panicked, 1);
        assert_eq!(snap.finished, 2, "panicked task counts as finished");
        pool.shutdown();
    }

    #[test]
    fn scheduler_metrics_balance() {
        let metrics = Arc::new(CmsMetrics::new());
        let pool = WorkerPool::with_metrics(
            PoolConfig {
                workers: 2,
                step_budget: 2,
            },
            Arc::clone(&metrics),
        );
        for _ in 0..4 {
            let mut parked = false;
            pool.spawn(fn_task(move |w| {
                if parked {
                    Step::Done
                } else {
                    parked = true;
                    w.wake();
                    Step::Pending
                }
            }));
        }
        pool.join();
        let s = metrics.snapshot();
        assert_eq!(s.sessions_parked, 4);
        assert_eq!(
            s.wakes, s.sessions_parked,
            "every park matched by exactly one wake"
        );
        assert!(s.steps_executed >= 8, "at least two steps per task");
        assert!(s.run_queue_depth >= 1);
        pool.shutdown();
    }
}
