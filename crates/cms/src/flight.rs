//! Single-flight deduplication of remote fetches.
//!
//! When two sessions miss the cache on subsumption-equivalent subqueries
//! at the same time, the translated SQL they would ship to the server is
//! identical. Issuing it twice doubles the server's tuple operations for
//! no information gain — so the first session to arrive *leads* the
//! flight and actually fetches, while later arrivals *join* it and share
//! the leader's result (success or error), counted as `dedup_hits` in
//! [`crate::CmsMetrics`].
//!
//! There is one way in and one way to wait:
//! 1. [`SingleFlight::enter`] decides lead-or-join *atomically* under
//!    the map lock. An absent key inserts a fresh flight and hands back a
//!    [`LeaderGuard`]; an open one registers the caller's [`Waker`] on it
//!    and hands back a [`FlightTicket`]. Because the waker is registered
//!    before the map lock is released, a joiner can never miss the
//!    publish, and nobody ever waits inside this table.
//! 2. The leader runs its fetch (the *entire* resilience retry/breaker
//!    loop — joiners share the final outcome, not an intermediate
//!    failure) and calls [`LeaderGuard::publish`], which retires the map
//!    entry, stores the result, and fires every registered waker.
//! 3. A joiner goes away until its waker fires, then reads the ticket
//!    ([`FlightTicket::state`]). Who sleeps is the joiner's business: a
//!    scheduler task parks the *session* and frees its worker thread; a
//!    blocking caller parks its own OS thread ([`SingleFlight::park_on`]).
//!
//! The leader removes the key *before* publishing, so a session arriving
//! after completion starts a fresh flight — results are never reused
//! across time, only shared within one overlapping window (the cache,
//! not the flight table, is the store of record).
//!
//! Leader failure is survivable in both directions:
//! - A *panicking* leader drops its guard unpublished: the entry is
//!   retired, the flight marked abandoned, and every joiner woken; they
//!   re-enter and one of them leads a fresh flight. Nobody is stranded.
//! - A *wedged* leader (stuck in a hung transport call) is bounded by the
//!   joiner's deadline in [`SingleFlight::park_on`]: the joiner gives
//!   up, evicts the stale map entry (only if it is still the same
//!   flight) so later arrivals can lead fresh, and surfaces a typed
//!   timeout to the caller.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The outcome shared between a flight's leader and its joiners.
pub type FlightResult<T, E> = std::result::Result<T, E>;

/// A callback fired exactly once when a joined flight publishes or is
/// abandoned. Cloneable so the flight can hold it while the scheduler
/// keeps its own handle; firing is idempotent from the flight's side
/// (each registered clone is invoked once, then dropped).
#[derive(Clone)]
pub struct Waker(Arc<dyn Fn() + Send + Sync>);

impl Waker {
    /// Wrap a callback as a waker.
    pub fn new(f: impl Fn() + Send + Sync + 'static) -> Waker {
        Waker(Arc::new(f))
    }

    /// The blocking caller's waker: unparks the thread that created it
    /// (pair with [`SingleFlight::park_on`] on that same thread).
    pub(crate) fn unpark_current_thread() -> Waker {
        let thread = std::thread::current();
        Waker::new(move || thread.unpark())
    }

    /// Fire the callback.
    pub fn wake(&self) {
        (self.0)();
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

#[derive(Debug)]
struct FlightState<T, E> {
    /// The published outcome; `None` while the leader is still fetching.
    result: Option<FlightResult<T, E>>,
    /// Set when the leader unwound without publishing: joiners must
    /// re-enter (one of them leads a fresh flight).
    abandoned: bool,
    /// Joiners to fire on publish/abandon.
    wakers: Vec<Waker>,
}

type Flight<T, E> = Mutex<FlightState<T, E>>;

/// Outcome of [`SingleFlight::enter`].
pub enum Entered<'a, T, E> {
    /// No flight was open for the key: the caller leads. Fetch, then
    /// [`LeaderGuard::publish`]; dropping the guard unpublished abandons
    /// the flight.
    Lead(LeaderGuard<'a, T, E>),
    /// Joined an open flight. The waker fires exactly once when the
    /// leader publishes or abandons; the ticket then resolves.
    Parked(FlightTicket<T, E>),
}

/// What a joined flight looks like right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TicketState<T, E> {
    /// The leader is still fetching (the waker has not fired yet).
    Pending,
    /// The leader published; here is the shared result.
    Done(FlightResult<T, E>),
    /// The leader unwound without publishing: re-enter (and maybe lead).
    Abandoned,
}

/// A handle onto a joined flight, read after the waker fires.
#[derive(Debug, Clone)]
pub struct FlightTicket<T, E> {
    key: String,
    flight: Arc<Flight<T, E>>,
}

impl<T: Clone, E: Clone> FlightTicket<T, E> {
    /// The flight's current state.
    pub fn state(&self) -> TicketState<T, E> {
        let st = self.flight.lock().unwrap_or_else(|p| p.into_inner());
        match &st.result {
            Some(r) => TicketState::Done(r.clone()),
            None if st.abandoned => TicketState::Abandoned,
            None => TicketState::Pending,
        }
    }
}

/// A joiner's wait exceeded the configured deadline — the leader is
/// presumed wedged. Carries how long the joiner actually waited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinTimedOut {
    /// Wall-clock time spent waiting before giving up.
    pub waited: Duration,
}

/// The leader's obligation: publish a result, or — when the fetch
/// unwinds and the guard drops unpublished — retire the map entry and
/// wake joiners so they re-enter and one of them leads a fresh flight
/// instead of waiting forever.
pub struct LeaderGuard<'a, T, E> {
    table: &'a SingleFlight<T, E>,
    key: &'a str,
    flight: Arc<Flight<T, E>>,
    published: bool,
}

impl<T: Clone, E: Clone> LeaderGuard<'_, T, E> {
    /// Retire the entry, share `result` with every joiner, wake them.
    pub fn publish(mut self, result: &FlightResult<T, E>) {
        self.published = true;
        self.table.finish(self.key, &self.flight, |st| {
            st.result = Some(result.clone());
        });
    }
}

impl<T, E> Drop for LeaderGuard<'_, T, E> {
    fn drop(&mut self) {
        if !self.published {
            self.table
                .finish(self.key, &self.flight, |st| st.abandoned = true);
        }
    }
}

/// The single-flight table, keyed by translated remote-SQL text.
#[derive(Debug)]
pub struct SingleFlight<T, E> {
    inflight: Mutex<HashMap<String, Arc<Flight<T, E>>>>,
}

impl<T, E> Default for SingleFlight<T, E> {
    fn default() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }
}

impl<T, E> SingleFlight<T, E> {
    /// Remove `key`'s entry *only if* it is still `flight` — tolerant of
    /// the entry having already been evicted by a timed-out joiner or
    /// replaced by a newer flight for the same key.
    fn retire(&self, key: &str, flight: &Arc<Flight<T, E>>) {
        let mut map = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        if map.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
            map.remove(key);
        }
    }

    /// End a flight: retire the entry first (so a woken joiner that
    /// re-enters immediately leads fresh), record the outcome, then fire
    /// every waker outside the lock.
    fn finish(
        &self,
        key: &str,
        flight: &Arc<Flight<T, E>>,
        outcome: impl FnOnce(&mut FlightState<T, E>),
    ) {
        self.retire(key, flight);
        let wakers = {
            let mut st = flight.lock().unwrap_or_else(|p| p.into_inner());
            outcome(&mut st);
            std::mem::take(&mut st.wakers)
        };
        for w in wakers {
            w.wake();
        }
    }
}

impl<T: Clone, E: Clone> SingleFlight<T, E> {
    /// Fresh, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of joiners registered on `key`'s flight (0 when no flight
    /// is open). Deterministic test hook: a leader can hold its fetch
    /// open until a joiner has provably arrived.
    pub fn waiter_count(&self, key: &str) -> usize {
        let map = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        map.get(key).map_or(0, |f| {
            f.lock().unwrap_or_else(|p| p.into_inner()).wakers.len()
        })
    }

    /// Is a flight currently open for `key`? Deterministic test hook: a
    /// would-be joiner can wait until the leader has registered.
    pub fn in_flight(&self, key: &str) -> bool {
        let map = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        map.contains_key(key)
    }

    /// Number of flights currently open — the "no leaked wakers"
    /// invariant check: at quiescence every flight has published (firing
    /// its wakers) and retired its entry, so this must be zero.
    pub fn open_flights(&self) -> usize {
        let map = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        map.len()
    }

    /// Lead or join `key`'s flight, atomically: under the map lock,
    /// either insert a fresh flight (the caller leads) or register
    /// `waker()` on the open one (the caller joins). An entry found under
    /// the map lock cannot have published or been abandoned yet — both
    /// retire the entry first — so a registered waker always fires.
    /// Never blocks and never runs a fetch.
    pub fn enter<'a>(&'a self, key: &'a str, waker: impl FnOnce() -> Waker) -> Entered<'a, T, E> {
        let mut map = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(f) = map.get(key) {
            let flight = Arc::clone(f);
            flight
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .wakers
                .push(waker());
            Entered::Parked(FlightTicket {
                key: key.to_string(),
                flight,
            })
        } else {
            let flight = Arc::new(Mutex::new(FlightState {
                result: None,
                abandoned: false,
                wakers: Vec::new(),
            }));
            map.insert(key.to_string(), Arc::clone(&flight));
            Entered::Lead(LeaderGuard {
                table: self,
                key,
                flight,
                published: false,
            })
        }
    }

    /// The blocking joiner: park the *calling thread* until `ticket`
    /// resolves — `Ok(Some(result))` once the leader publishes,
    /// `Ok(None)` when it abandoned (re-enter) — or `deadline` elapses
    /// (`None` waits forever). On timeout the stale map entry is evicted
    /// (if it is still the same flight) so later arrivals can lead
    /// fresh. The ticket's waker must be
    /// [`Waker::unpark_current_thread`] made on this thread; spurious
    /// unparks are absorbed by re-reading the ticket.
    pub(crate) fn park_on(
        &self,
        ticket: &FlightTicket<T, E>,
        deadline: Option<Duration>,
    ) -> Result<Option<FlightResult<T, E>>, JoinTimedOut> {
        let start = Instant::now();
        loop {
            match ticket.state() {
                TicketState::Done(r) => return Ok(Some(r)),
                TicketState::Abandoned => return Ok(None),
                TicketState::Pending => {}
            }
            match deadline {
                None => std::thread::park(),
                Some(d) => {
                    let waited = start.elapsed();
                    if waited >= d {
                        self.retire(&ticket.key, &ticket.flight);
                        return Err(JoinTimedOut { waited });
                    }
                    std::thread::park_timeout(d - waited);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    type Table = SingleFlight<u32, String>;

    /// The blocking driver every in-process caller uses (the monitor's
    /// `fetch_remote` is this loop plus metrics): lead and fetch, or join
    /// and park this thread until the leader's result arrives. Returns
    /// the result plus whether this call led.
    fn run(
        sf: &Table,
        key: &str,
        deadline: Option<Duration>,
        fetch: impl FnOnce() -> FlightResult<u32, String>,
    ) -> Result<(FlightResult<u32, String>, bool), JoinTimedOut> {
        let mut fetch = Some(fetch);
        loop {
            match sf.enter(key, Waker::unpark_current_thread) {
                Entered::Lead(guard) => {
                    let result = (fetch.take().expect("fetch unconsumed until we lead"))();
                    guard.publish(&result);
                    return Ok((result, true));
                }
                Entered::Parked(ticket) => {
                    if let Some(r) = sf.park_on(&ticket, deadline)? {
                        return Ok((r, false));
                    }
                }
            }
        }
    }

    fn run_unbounded(
        sf: &Table,
        key: &str,
        fetch: impl FnOnce() -> FlightResult<u32, String>,
    ) -> (FlightResult<u32, String>, bool) {
        run(sf, key, None, fetch).expect("no deadline, so a join can never time out")
    }

    /// Spin until `key`'s leader has registered.
    fn await_leader(sf: &Table, key: &str) {
        while !sf.in_flight(key) {
            std::thread::yield_now();
        }
    }

    /// Spin (inside a leader's fetch) until a joiner has registered.
    fn await_joiner(sf: &Table, key: &str) {
        while sf.waiter_count(key) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn solo_flight_leads_and_returns() {
        let sf = Table::new();
        let (r, led) = run_unbounded(&sf, "k", || Ok(7));
        assert_eq!(r, Ok(7));
        assert!(led);
        assert!(!sf.in_flight("k"), "entry retired after the fetch");
    }

    #[test]
    fn sequential_calls_both_lead() {
        // The flight table shares only *overlapping* fetches: once a
        // flight lands, the next call re-fetches (the cache is the store
        // of record, not the flight table).
        let sf = Table::new();
        let fetches = AtomicUsize::new(0);
        let mut led_count = 0;
        for _ in 0..2 {
            let (_, led) = run_unbounded(&sf, "k", || {
                fetches.fetch_add(1, Ordering::SeqCst);
                Ok(1)
            });
            led_count += usize::from(led);
        }
        assert_eq!(fetches.load(Ordering::SeqCst), 2);
        assert_eq!(led_count, 2);
    }

    #[test]
    fn distinct_keys_do_not_interfere() {
        let sf = Table::new();
        let (a, _) = run_unbounded(&sf, "a", || Ok(1));
        let (b, _) = run_unbounded(&sf, "b", || Ok(2));
        assert_eq!((a, b), (Ok(1), Ok(2)));
    }

    #[test]
    fn concurrent_entries_get_exactly_one_lead_and_never_wait() {
        // The race the atomic lead-or-join closes: N threads hit one key
        // at once. Exactly one leads; every other call comes straight
        // back with a ticket (`enter` has no waiting path at all — with
        // the leader holding its guard until all have entered, a waiting
        // joiner would deadlock the barrier).
        const N: usize = 8;
        let sf = Table::new();
        let entered = Barrier::new(N);
        let leads = AtomicUsize::new(0);
        let wakes = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    let w = Arc::clone(&wakes);
                    let entry = sf.enter("k", || {
                        Waker::new(move || {
                            w.fetch_add(1, Ordering::SeqCst);
                        })
                    });
                    entered.wait();
                    match entry {
                        Entered::Lead(guard) => {
                            leads.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(sf.waiter_count("k"), N - 1);
                            assert_eq!(wakes.load(Ordering::SeqCst), 0, "not before publish");
                            guard.publish(&Ok(5));
                        }
                        Entered::Parked(ticket) => {
                            while ticket.state() == TicketState::Pending {
                                std::thread::yield_now();
                            }
                            assert_eq!(ticket.state(), TicketState::Done(Ok(5)));
                        }
                    }
                });
            }
        });
        assert_eq!(leads.load(Ordering::SeqCst), 1, "exactly one leader");
        assert_eq!(
            wakes.load(Ordering::SeqCst),
            N - 1,
            "every joiner's waker fired exactly once"
        );
        assert_eq!(sf.open_flights(), 0);
    }

    #[test]
    fn concurrent_joiner_shares_the_leaders_result() {
        // Deterministic overlap: the leader's fetch refuses to complete
        // until the joiner has provably joined (waiter_count hook).
        let sf = Table::new();
        let fetches = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                run_unbounded(&sf, "k", || {
                    fetches.fetch_add(1, Ordering::SeqCst);
                    await_joiner(&sf, "k");
                    Ok(42)
                })
            });
            await_leader(&sf, "k");
            let (r, led) = run_unbounded(&sf, "k", || {
                fetches.fetch_add(1, Ordering::SeqCst);
                Ok(0) // must never run
            });
            let (lr, lled) = leader.join().unwrap();
            assert_eq!(fetches.load(Ordering::SeqCst), 1, "exactly one fetch");
            assert_eq!(r, Ok(42), "joiner sees the leader's value");
            assert_eq!(lr, Ok(42));
            assert!(lled);
            assert!(!led, "second session joined, not led");
        });
    }

    #[test]
    fn errors_broadcast_to_joiners() {
        let sf = Table::new();
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                run_unbounded(&sf, "k", || {
                    await_joiner(&sf, "k");
                    Err("boom".to_string())
                })
            });
            await_leader(&sf, "k");
            let (r, led) = run_unbounded(&sf, "k", || Ok(1));
            let (lr, _) = leader.join().unwrap();
            assert_eq!(lr, Err("boom".to_string()));
            assert!(!led, "arrived while the leader's flight was open");
            assert_eq!(r, Err("boom".to_string()), "joiners share the error");
        });
    }

    #[test]
    fn panicking_leader_does_not_strand_joiners() {
        // A leader whose fetch panics drops its guard unpublished: every
        // subscriber is woken — the blocking joiner observes abandonment,
        // re-enters and leads fresh; a task-style subscriber's waker
        // fires once and its ticket reads `Abandoned`. No deadline is
        // ever needed for this failure mode.
        let sf = Table::new();
        let fired = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_unbounded(&sf, "k", || {
                        while sf.waiter_count("k") < 2 {
                            std::thread::yield_now();
                        }
                        panic!("leader killed mid-flight");
                    })
                }));
                assert!(result.is_err(), "leader must have panicked");
            });
            await_leader(&sf, "k");
            let f = Arc::clone(&fired);
            let ticket = match sf.enter("k", || {
                Waker::new(move || {
                    f.fetch_add(1, Ordering::SeqCst);
                })
            }) {
                Entered::Parked(t) => t,
                Entered::Lead(_) => panic!("flight open: must join"),
            };
            assert_eq!(ticket.state(), TicketState::Pending);
            // Joins the doomed flight; after the leader dies, re-enters
            // and leads its own fetch.
            let (r, led) = run_unbounded(&sf, "k", || Ok(99));
            leader.join().unwrap();
            assert_eq!(r, Ok(99), "rescued joiner re-led and fetched");
            assert!(led, "the rescued joiner became the new leader");
            assert_eq!(
                fired.load(Ordering::SeqCst),
                1,
                "abandonment fired the waker"
            );
            assert_eq!(
                ticket.state(),
                TicketState::Abandoned,
                "abandoned ticket never resolves: its holder re-enters"
            );
            assert_eq!(sf.open_flights(), 0, "no stale entry left behind");
        });
    }

    #[test]
    fn wedged_leader_times_out_joiner_and_evicts_entry() {
        // A leader stuck in a hung fetch never publishes; the joiner's
        // deadline fires, the stale entry is evicted so later arrivals
        // can lead fresh, and the caller sees a typed timeout.
        let sf = Table::new();
        let release = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                run_unbounded(&sf, "k", || {
                    // Wedge until the test releases us.
                    while release.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    Ok(1)
                })
            });
            await_leader(&sf, "k");
            let err = run(&sf, "k", Some(Duration::from_millis(20)), || Ok(2))
                .expect_err("wedged leader must time the joiner out");
            assert!(err.waited >= Duration::from_millis(20));
            assert!(
                !sf.in_flight("k"),
                "timed-out joiner evicts the stale entry"
            );
            // A fresh arrival now leads immediately instead of joining
            // the wedged flight.
            let (r, led) = run_unbounded(&sf, "k", || Ok(3));
            assert_eq!((r, led), (Ok(3), true));
            // Unwedge the original leader; its publish must tolerate the
            // entry being gone (ptr_eq-guarded retire).
            release.store(1, Ordering::SeqCst);
            let (lr, lled) = leader.join().unwrap();
            assert_eq!((lr, lled), (Ok(1), true));
            assert_eq!(sf.open_flights(), 0);
        });
    }
}
