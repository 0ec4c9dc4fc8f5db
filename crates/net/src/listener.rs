//! The TCP listener skeleton every server in the workspace stands on.
//!
//! [`Listener`] owns what `RemoteTcpServer`, [`FaultProxy`] and
//! `BraidServer` would otherwise each hand-roll: the accept thread, the
//! stop flag, the registry of live connections, and the shutdown
//! sequence. A server supplies one closure, called on the accept thread
//! for every connection, that either sheds the connection (`None`) or
//! returns the handler to run on that connection's own thread.
//!
//! Shutdown is deterministic: set the flag, unblock `accept` with a
//! throwaway self-dial, join the accept thread, then *cut every live
//! socket* and join every handler. The accept loop re-checks the flag
//! after `accept` returns and before dispatching, so a real client racing
//! the self-dial is dropped rather than handed to a handler nobody will
//! join. The registry is pruned of finished handlers on every accept, so
//! it tracks live connections, not the listener's whole accept history.
//!
//! [`FaultProxy`]: crate::FaultProxy

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// One live connection as shutdown sees it: a clone of the socket (to cut
/// it out from under a blocked handler) and the handler's thread.
struct Conn {
    socket: TcpStream,
    handler: JoinHandle<()>,
}

/// A running accept loop plus its live-connection registry.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl Listener {
    /// Start accepting on `listener`. `admit` runs on the accept thread
    /// for each connection with the listener's stop flag (handlers that
    /// poll use it to notice shutdown between reads); the handler it
    /// returns runs on a thread of its own, named after `name`.
    ///
    /// # Errors
    /// Address lookup or thread-spawn failures.
    pub fn start<H>(
        listener: TcpListener,
        name: &str,
        mut admit: impl FnMut(TcpStream, &Arc<AtomicBool>) -> Option<H> + Send + 'static,
    ) -> io::Result<Listener>
    where
        H: FnOnce() + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (stop, conns) = (Arc::clone(&stop), Arc::clone(&conns));
            let handler_name = format!("{name}-conn");
            thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let Ok(stream) = conn else { continue };
                        let Ok(socket) = stream.try_clone() else {
                            continue;
                        };
                        let Some(handler) = admit(stream, &stop) else {
                            continue;
                        };
                        let Ok(handler) = thread::Builder::new()
                            .name(handler_name.clone())
                            .spawn(handler)
                        else {
                            continue;
                        };
                        let mut conns = conns.lock().unwrap_or_else(|p| p.into_inner());
                        conns.retain(|c| !c.handler.is_finished());
                        conns.push(Conn { socket, handler });
                    }
                })?
        };
        Ok(Listener {
            addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently in the registry (live, plus any that
    /// finished since the last accept).
    pub fn live_connections(&self) -> usize {
        self.conns.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Stop accepting, cut every live connection, join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
            let _ = accept.join();
        }
        // With the accept loop gone the registry is stable.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for conn in &conns {
            let _ = conn.socket.shutdown(Shutdown::Both);
        }
        for conn in conns {
            let _ = conn.handler.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Listener")
            .field("addr", &self.addr)
            .field("live_connections", &self.live_connections())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::bind_ephemeral;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    /// Echo bytes back until the peer closes.
    fn echo_listener(served: Arc<AtomicUsize>) -> Listener {
        let (listener, _) = bind_ephemeral().unwrap();
        Listener::start(listener, "test-echo", move |mut stream, _stop| {
            let served = Arc::clone(&served);
            Some(move || {
                let mut byte = [0u8; 1];
                while let Ok(1) = stream.read(&mut byte) {
                    if stream.write_all(&byte).is_err() {
                        break;
                    }
                }
                served.fetch_add(1, Ordering::SeqCst);
            })
        })
        .unwrap()
    }

    #[test]
    fn registry_tracks_live_connections_not_accept_history() {
        let served = Arc::new(AtomicUsize::new(0));
        let mut listener = echo_listener(Arc::clone(&served));
        for i in 0..1_000usize {
            let mut c = TcpStream::connect(listener.addr()).unwrap();
            c.write_all(&[i as u8]).unwrap();
            let mut back = [0u8; 1];
            c.read_exact(&mut back).unwrap();
            assert_eq!(back[0], i as u8);
            drop(c);
            // The handler exits on our close; let it, so the bound below
            // is about pruning rather than scheduling luck.
            while served.load(Ordering::SeqCst) <= i {
                thread::yield_now();
            }
        }
        assert!(
            listener.live_connections() < 16,
            "1,000 finished conversations left {} registry entries",
            listener.live_connections()
        );
        listener.shutdown();
        assert_eq!(listener.live_connections(), 0);
    }

    #[test]
    fn shutdown_cuts_connections_blocked_in_a_read() {
        let served = Arc::new(AtomicUsize::new(0));
        let mut listener = echo_listener(Arc::clone(&served));
        // Clients that go quiet after one round trip (which proves their
        // handler is running): the handlers sit in a blocking read with
        // no timeout, so only cutting the sockets lets shutdown join them.
        let idle: Vec<TcpStream> = (0..4)
            .map(|_| {
                let mut c = TcpStream::connect(listener.addr()).unwrap();
                c.write_all(&[7]).unwrap();
                c.read_exact(&mut [0u8; 1]).unwrap();
                c
            })
            .collect();
        listener.shutdown();
        assert_eq!(served.load(Ordering::SeqCst), 4, "every handler joined");
        drop(idle);
    }
}
