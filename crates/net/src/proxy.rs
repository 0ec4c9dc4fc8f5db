//! A deterministic fault-injecting TCP proxy.
//!
//! [`FaultProxy`] sits between a client and an upstream server and
//! forwards bytes in both directions — except when the seeded
//! [`ProxyPlan`] says otherwise. Faults are decided *per accepted
//! connection* on a logical connection counter, with the same
//! splitmix64 derivation `braid-remote`'s `FaultPlan` uses per request:
//! the same seed and the same connection order always produce the same
//! faults, so chaos tests over real sockets stay reproducible.
//!
//! Fault vocabulary (the network-level analogue of `FaultKind`):
//!
//! | fault            | wire behaviour                                        |
//! |------------------|-------------------------------------------------------|
//! | `Refuse`         | accept, then close before any byte (outage windows)   |
//! | `Reset`          | connect upstream, then cut both ways before any byte  |
//! | `Truncate{n}`    | forward exactly `n` downstream bytes, then cut (torn frame) |
//! | `Delay{ms}`      | sleep before forwarding downstream (latency spike)    |
//! | `Stall`          | swallow downstream bytes forever (black hole — the    |
//! |                  | client's read timeout is its only way out)            |

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::listener::Listener;
use crate::port::bind_ephemeral;

/// How often blocked proxy reads wake up to observe shutdown.
const POLL: Duration = Duration::from_millis(25);

/// One network-level fault applied to a proxied connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProxyFault {
    /// Close the client connection immediately on accept, without ever
    /// contacting the upstream (a full outage as seen from outside).
    Refuse,
    /// Cut the connection before a single downstream byte is forwarded.
    Reset,
    /// Forward exactly `after_bytes` downstream bytes, then cut — the
    /// client observes a torn frame.
    Truncate { after_bytes: u64 },
    /// Sleep `ms` before forwarding downstream bytes (latency spike).
    Delay { ms: u64 },
    /// Forward nothing downstream but keep the connection open — a
    /// black hole the client can only escape via its read timeout.
    Stall,
}

/// A seeded, deterministic fault plan over the proxy's logical
/// connection clock. Mirrors `FaultPlan`'s builder/`decide` shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyPlan {
    seed: u64,
    reset_prob: f64,
    truncate_prob: f64,
    truncate_after: u64,
    delay_prob: f64,
    delay_ms: u64,
    stall_prob: f64,
    /// Half-open `[start, end)` windows of connection indices refused.
    outages: Vec<(u64, u64)>,
    /// Exact per-connection overrides, strongest precedence.
    schedule: Vec<(u64, ProxyFault)>,
}

impl ProxyPlan {
    /// A plan that injects nothing (useful as a pass-through baseline).
    pub fn healthy() -> ProxyPlan {
        ProxyPlan::seeded(0)
    }

    /// An empty plan over `seed`; add faults with the builders.
    pub fn seeded(seed: u64) -> ProxyPlan {
        ProxyPlan {
            seed,
            reset_prob: 0.0,
            truncate_prob: 0.0,
            truncate_after: 0,
            delay_prob: 0.0,
            delay_ms: 0,
            stall_prob: 0.0,
            outages: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// Reset a connection with probability `p` before any byte flows.
    pub fn with_resets(mut self, p: f64) -> ProxyPlan {
        self.reset_prob = p;
        self
    }

    /// Tear a connection with probability `p` after `after_bytes`
    /// downstream bytes — mid-frame when the value lands inside one.
    pub fn with_truncation(mut self, p: f64, after_bytes: u64) -> ProxyPlan {
        self.truncate_prob = p;
        self.truncate_after = after_bytes;
        self
    }

    /// Delay downstream forwarding by `ms` with probability `p`.
    pub fn with_delays(mut self, p: f64, ms: u64) -> ProxyPlan {
        self.delay_prob = p;
        self.delay_ms = ms;
        self
    }

    /// Black-hole a connection with probability `p`.
    pub fn with_stalls(mut self, p: f64) -> ProxyPlan {
        self.stall_prob = p;
        self
    }

    /// Refuse every connection whose index falls in `[start, end)`.
    pub fn with_outage(mut self, start: u64, end: u64) -> ProxyPlan {
        self.outages.push((start, end));
        self
    }

    /// Force `fault` on exactly connection `conn`.
    pub fn with_scheduled(mut self, conn: u64, fault: ProxyFault) -> ProxyPlan {
        self.schedule.push((conn, fault));
        self
    }

    /// The fault (if any) for connection number `conn`. Pure: depends
    /// only on the plan and `conn`.
    pub fn decide(&self, conn: u64) -> Option<ProxyFault> {
        if let Some((_, fault)) = self.schedule.iter().find(|(c, _)| *c == conn) {
            return Some(*fault);
        }
        if self.outages.iter().any(|(s, e)| conn >= *s && conn < *e) {
            return Some(ProxyFault::Refuse);
        }
        let mut state = self.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut draw = || {
            state = splitmix64(state);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        if draw() < self.reset_prob {
            return Some(ProxyFault::Reset);
        }
        if draw() < self.truncate_prob {
            return Some(ProxyFault::Truncate {
                after_bytes: self.truncate_after,
            });
        }
        if draw() < self.delay_prob {
            return Some(ProxyFault::Delay { ms: self.delay_ms });
        }
        if draw() < self.stall_prob {
            return Some(ProxyFault::Stall);
        }
        None
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct ProxyStats {
    connections: AtomicU64,
    refused: AtomicU64,
    resets: AtomicU64,
    truncated: AtomicU64,
    delayed: AtomicU64,
    stalled: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
}

/// Counters observed so far (faults *applied*, not merely planned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProxyStatsSnapshot {
    /// Connections accepted (including refused ones).
    pub connections: u64,
    /// Connections dropped on accept (outage windows / `Refuse`).
    pub refused: u64,
    /// Connections reset before any downstream byte.
    pub resets: u64,
    /// Connections torn mid-stream by a truncation budget.
    pub truncated: u64,
    /// Connections given a latency spike.
    pub delayed: u64,
    /// Connections black-holed.
    pub stalled: u64,
    /// Client→server bytes forwarded.
    pub bytes_up: u64,
    /// Server→client bytes forwarded.
    pub bytes_down: u64,
}

/// A running fault proxy. Listens on an ephemeral loopback port (see
/// [`addr`](FaultProxy::addr)) and forwards to `upstream` until dropped.
#[derive(Debug)]
pub struct FaultProxy {
    listener: Listener,
    stats: Arc<ProxyStats>,
}

impl FaultProxy {
    /// Start proxying `upstream` through `plan` on a fresh ephemeral
    /// port.
    pub fn start(upstream: SocketAddr, plan: ProxyPlan) -> io::Result<FaultProxy> {
        let (listener, _) = bind_ephemeral()?;
        let stats = Arc::new(ProxyStats::default());
        let listener = {
            let stats = Arc::clone(&stats);
            // The plan's logical clock: one tick per accepted connection.
            let mut clock = 0u64;
            Listener::start(listener, "braid-net-proxy", move |client, stop| {
                let idx = clock;
                clock += 1;
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let fault = plan.decide(idx);
                if matches!(fault, Some(ProxyFault::Refuse)) {
                    stats.refused.fetch_add(1, Ordering::Relaxed);
                    let _ = client.shutdown(Shutdown::Both);
                    return None;
                }
                let (stop, stats) = (Arc::clone(stop), Arc::clone(&stats));
                Some(move || forward(client, upstream, fault, &stop, &stats))
            })?
        };
        Ok(FaultProxy { listener, stats })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Counters so far.
    pub fn stats(&self) -> ProxyStatsSnapshot {
        let s = &self.stats;
        ProxyStatsSnapshot {
            connections: s.connections.load(Ordering::Relaxed),
            refused: s.refused.load(Ordering::Relaxed),
            resets: s.resets.load(Ordering::Relaxed),
            truncated: s.truncated.load(Ordering::Relaxed),
            delayed: s.delayed.load(Ordering::Relaxed),
            stalled: s.stalled.load(Ordering::Relaxed),
            bytes_up: s.bytes_up.load(Ordering::Relaxed),
            bytes_down: s.bytes_down.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, cut every in-flight connection, join all
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

/// Handle one proxied connection: connect upstream, apply the fault,
/// pump both directions until either side closes or shutdown.
fn forward(
    client: TcpStream,
    upstream: SocketAddr,
    fault: Option<ProxyFault>,
    stop: &AtomicBool,
    stats: &ProxyStats,
) {
    let server = match TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    for s in [&client, &server] {
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(POLL));
        let _ = s.set_write_timeout(Some(Duration::from_secs(2)));
    }

    let mut down_budget: Option<u64> = None;
    let mut swallow_down = false;
    match fault {
        Some(ProxyFault::Reset) => {
            stats.resets.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        }
        Some(ProxyFault::Delay { ms }) => {
            stats.delayed.fetch_add(1, Ordering::Relaxed);
            sleep_unless_stopped(ms, stop);
        }
        Some(ProxyFault::Truncate { after_bytes }) => {
            stats.truncated.fetch_add(1, Ordering::Relaxed);
            down_budget = Some(after_bytes);
        }
        Some(ProxyFault::Stall) => {
            stats.stalled.fetch_add(1, Ordering::Relaxed);
            swallow_down = true;
        }
        Some(ProxyFault::Refuse) | None => {}
    }

    thread::scope(|s| {
        s.spawn(|| pump(&client, &server, None, false, stop, &stats.bytes_up));
        s.spawn(|| {
            pump(
                &server,
                &client,
                down_budget,
                swallow_down,
                stop,
                &stats.bytes_down,
            )
        });
    });
}

/// Copy bytes `from` → `to` until EOF, error, an exhausted truncation
/// budget, or shutdown; then cut both sockets so the opposite pump
/// unblocks too. With `swallow`, bytes are read and discarded (black
/// hole).
fn pump(
    from: &TcpStream,
    to: &TcpStream,
    budget: Option<u64>,
    swallow: bool,
    stop: &AtomicBool,
    counter: &AtomicU64,
) {
    let mut from = from;
    let mut to = to;
    let mut remaining = budget;
    let mut buf = [0u8; 8192];
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if swallow {
                    continue;
                }
                let mut n = n;
                if let Some(rem) = remaining.as_mut() {
                    n = n.min(*rem as usize);
                    *rem -= n as u64;
                }
                if n > 0 && to.write_all(&buf[..n]).is_err() {
                    break;
                }
                counter.fetch_add(n as u64, Ordering::Relaxed);
                if remaining == Some(0) {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

fn sleep_unless_stopped(ms: u64, stop: &AtomicBool) {
    let mut left = ms;
    while left > 0 && !stop.load(Ordering::Relaxed) {
        let step = left.min(25);
        thread::sleep(Duration::from_millis(step));
        left -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
    use crate::NetError;
    use std::thread::JoinHandle;

    /// An upstream that answers every frame `[k, payload]` with a frame
    /// `[k+1, payload]`, until the client closes.
    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let (listener, addr) = bind_ephemeral().unwrap();
        let h = thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let _ = (|| -> Result<(), NetError> {
                    while let Some(f) = read_frame(&mut s, MAX_FRAME_BYTES)? {
                        write_frame(&mut s, f.kind.wrapping_add(1), &f.payload)?;
                    }
                    Ok(())
                })();
            }
        });
        (addr, h)
    }

    fn roundtrip_via(addr: SocketAddr) -> Result<(u8, Vec<u8>), NetError> {
        let mut s = TcpStream::connect(addr).map_err(|e| NetError::Io(e.kind()))?;
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        write_frame(&mut s, 7, b"ping")?;
        match read_frame(&mut s, MAX_FRAME_BYTES)? {
            Some(f) => Ok((f.kind, f.payload)),
            None => Err(NetError::Truncated { needed: 5, got: 0 }),
        }
    }

    #[test]
    fn healthy_plan_passes_bytes_through() {
        let (up, _h) = echo_upstream();
        let mut proxy = FaultProxy::start(up, ProxyPlan::healthy()).unwrap();
        let (kind, payload) = roundtrip_via(proxy.addr()).unwrap();
        assert_eq!((kind, payload.as_slice()), (8, b"ping".as_slice()));
        proxy.shutdown();
        let st = proxy.stats();
        assert_eq!(st.connections, 1);
        assert!(st.bytes_down > 0);
    }

    #[test]
    fn outage_window_refuses_then_recovers() {
        let (up, _h) = echo_upstream();
        let plan = ProxyPlan::seeded(3).with_outage(0, 2);
        let mut proxy = FaultProxy::start(up, plan).unwrap();
        // Connections 0 and 1 die before any byte.
        for _ in 0..2 {
            assert!(roundtrip_via(proxy.addr()).is_err());
        }
        // Connection 2 is past the window.
        let (kind, _) = roundtrip_via(proxy.addr()).unwrap();
        assert_eq!(kind, 8);
        proxy.shutdown();
        assert_eq!(proxy.stats().refused, 2);
    }

    #[test]
    fn scheduled_truncation_tears_the_reply_frame() {
        let (up, _h) = echo_upstream();
        // Forward only 3 downstream bytes: the reply frame header alone
        // is 5 bytes, so the client must observe a torn frame.
        let plan = ProxyPlan::seeded(9).with_scheduled(0, ProxyFault::Truncate { after_bytes: 3 });
        let mut proxy = FaultProxy::start(up, plan).unwrap();
        let err = roundtrip_via(proxy.addr()).unwrap_err();
        assert!(
            matches!(err, NetError::Truncated { .. } | NetError::Io(_)),
            "torn frame surfaces as a typed error: {err:?}"
        );
        proxy.shutdown();
        assert_eq!(proxy.stats().truncated, 1);
        assert!(proxy.stats().bytes_down <= 3);
    }

    #[test]
    fn scheduled_reset_cuts_before_any_byte() {
        let (up, _h) = echo_upstream();
        let plan = ProxyPlan::seeded(4).with_scheduled(0, ProxyFault::Reset);
        let mut proxy = FaultProxy::start(up, plan).unwrap();
        assert!(roundtrip_via(proxy.addr()).is_err());
        proxy.shutdown();
        let st = proxy.stats();
        assert_eq!(st.resets, 1);
        assert_eq!(st.bytes_down, 0);
    }

    #[test]
    fn stall_is_escaped_by_the_client_read_timeout() {
        let (up, _h) = echo_upstream();
        let plan = ProxyPlan::seeded(5).with_scheduled(0, ProxyFault::Stall);
        let mut proxy = FaultProxy::start(up, plan).unwrap();
        let err = roundtrip_via(proxy.addr()).unwrap_err();
        assert!(
            matches!(err, NetError::Io(k) if k == io::ErrorKind::WouldBlock || k == io::ErrorKind::TimedOut),
            "black hole surfaces as a timeout: {err:?}"
        );
        proxy.shutdown();
        assert_eq!(proxy.stats().stalled, 1);
    }

    #[test]
    fn decide_is_deterministic_and_seed_sensitive() {
        let plan = ProxyPlan::seeded(11)
            .with_resets(0.3)
            .with_truncation(0.2, 64)
            .with_delays(0.1, 5)
            .with_stalls(0.05);
        let a: Vec<_> = (0..64).map(|c| plan.decide(c)).collect();
        let b: Vec<_> = (0..64).map(|c| plan.decide(c)).collect();
        assert_eq!(a, b, "same plan, same decisions");
        assert!(a.iter().any(Option::is_some), "faults actually fire");
        assert!(a.iter().any(Option::is_none), "not every connection faults");
        let other = ProxyPlan::seeded(12)
            .with_resets(0.3)
            .with_truncation(0.2, 64)
            .with_delays(0.1, 5)
            .with_stalls(0.05);
        let c: Vec<_> = (0..64).map(|i| other.decide(i)).collect();
        assert_ne!(a, c, "different seeds, different decisions");
    }
}
