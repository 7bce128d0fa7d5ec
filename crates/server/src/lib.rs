#![warn(missing_docs)]

//! # rasql-server
//!
//! A long-running multi-client query daemon over a shared
//! [`RaSqlContext`]. One OS thread accepts TCP connections; each
//! connection gets a thread that speaks the versioned framed protocol
//! defined in [`rasql_api::wire`], one statement worker thread that runs its
//! statements for as long as it lives, and its own
//! [`rasql_core::Session`] (private views and prepared statements over the
//! shared base catalog).
//!
//! The engine's resource governance applies unchanged on the server: every
//! query passes the shared admission controller, runs under its own memory
//! budget and deadline, and is killable by id from *any* connection
//! (`Kill`). On top of that the server adds connection-level enforcement —
//! a client that disconnects mid-query has the session's interrupt token
//! fired, which cancels everything that session had in flight (query tokens
//! are children of the session token), releasing admission slots and spill
//! directories.
//!
//! ## Lifecycle
//!
//! ```no_run
//! use rasql_core::RaSqlContext;
//! use std::sync::Arc;
//!
//! let ctx = Arc::new(RaSqlContext::builder().workers(4).build());
//! let handle = rasql_server::serve(ctx, "127.0.0.1:7432").unwrap();
//! println!("listening on {}", handle.addr());
//! // ... clients connect with rasql-client or the shell's \connect ...
//! let clean = handle.shutdown(); // drain in-flight queries, then exit
//! assert!(clean);
//! ```
//!
//! Shutdown is graceful: the acceptor stops taking connections, in-flight
//! statements finish streaming, idle connections close at their next poll.
//! Connections that outlive the drain timeout have their sessions
//! interrupted — queries unwind with `Cancelled` at the next stage or round
//! boundary and the join completes promptly.

mod conn;

use rasql_core::{RaSqlContext, Session};
use rasql_storage::sync::{LockRank, RankedMutex};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Server software identifier sent in the `Hello` handshake.
pub const SERVER_IDENT: &str = concat!("rasql-server/", env!("CARGO_PKG_VERSION"));

/// How long [`ServerHandle::shutdown`] lets in-flight work drain before
/// interrupting the remaining sessions.
pub const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a connection may sit idle between requests before the server
/// reaps it. A live client reconnects transparently (`rasql-client` redials
/// with backoff); a half-open socket whose peer died without a FIN would
/// otherwise hold its thread and session forever.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Shared server state: the engine, the shutdown latch, and the live
/// connection registry.
pub(crate) struct ServerState {
    pub(crate) ctx: Arc<RaSqlContext>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) connections: RankedMutex<Vec<ConnEntry>>,
    /// Idle keepalive: reap connections quiet for this long
    /// (`Duration::ZERO` disables reaping).
    pub(crate) idle_timeout: Duration,
    /// Times the acceptor woke from `accept`: once per connection.
    accept_wakeups: Arc<AtomicU64>,
    /// Replies a connection thread found already queued right after a timed
    /// wake (see [`ServerHandle::late_replies`]).
    late_replies: Arc<AtomicU64>,
}

pub(crate) struct ConnEntry {
    pub(crate) session: Arc<Session>,
    pub(crate) handle: thread::JoinHandle<()>,
}

impl ServerState {
    /// Connections whose threads are still running.
    pub(crate) fn live_sessions(&self) -> usize {
        self.connections
            .lock()
            .iter()
            .filter(|e| !e.handle.is_finished())
            .count()
    }
}

/// A running server: its bound address and the levers to stop it.
///
/// Dropping the handle shuts the server down (best effort, same drain
/// policy as [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<thread::JoinHandle<()>>,
    drain_timeout: Duration,
}

/// Start a server on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port)
/// with the default drain timeout.
pub fn serve(ctx: Arc<RaSqlContext>, addr: &str) -> io::Result<ServerHandle> {
    serve_with(ctx, addr, DEFAULT_DRAIN_TIMEOUT)
}

/// Start a server with an explicit drain timeout (how long
/// [`ServerHandle::shutdown`] waits for in-flight queries before
/// interrupting their sessions).
pub fn serve_with(
    ctx: Arc<RaSqlContext>,
    addr: &str,
    drain_timeout: Duration,
) -> io::Result<ServerHandle> {
    serve_full(ctx, addr, drain_timeout, DEFAULT_IDLE_TIMEOUT)
}

/// Start a server with explicit drain and idle-keepalive timeouts. An idle
/// timeout of [`Duration::ZERO`] disables connection reaping.
pub fn serve_full(
    ctx: Arc<RaSqlContext>,
    addr: &str,
    drain_timeout: Duration,
    idle_timeout: Duration,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        ctx,
        shutdown: AtomicBool::new(false),
        connections: RankedMutex::new(LockRank::ServerConnections, Vec::new()),
        idle_timeout,
        accept_wakeups: Arc::new(AtomicU64::new(0)),
        late_replies: Arc::new(AtomicU64::new(0)),
    });
    let accept_state = Arc::clone(&state);
    let accept = thread::Builder::new()
        .name("rasql-accept".into())
        .spawn(move || accept_loop(&listener, &accept_state))?;
    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        drain_timeout,
    })
}

impl ServerHandle {
    /// The address the server is listening on (with the real port when
    /// bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested (by [`ServerHandle::shutdown`]
    /// or a client's `Shutdown` request).
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::Relaxed)
    }

    /// Open client sessions right now.
    pub fn live_sessions(&self) -> usize {
        self.state.live_sessions()
    }

    /// The acceptor's wake-up count, readable after shutdown too: one per
    /// accepted connection, and one for the connection shutdown wakes it
    /// with. An acceptor that polled would wake once per poll.
    pub fn accept_wakeups(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.state.accept_wakeups)
    }

    /// Replies the connection threads found already queued right after a
    /// timed wake, over all connections. A thread that waits on its
    /// statement worker wakes the moment a reply is sent, so this stays near
    /// 0; one that slept and polled would find every reply that arrived
    /// during a sleep this way.
    pub fn late_replies(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.state.late_replies)
    }

    /// Block until something requests shutdown (a client `Shutdown` frame,
    /// or [`ServerHandle::shutdown`] from another thread — this method does
    /// not itself initiate one). The binary's main thread parks here.
    pub fn wait_for_shutdown(&self) {
        while !self.is_shutting_down() {
            #[expect(
                clippy::disallowed_methods,
                reason = "shutdown latch has no waker; 50ms poll is the wire-level idle loop"
            )]
            thread::sleep(Duration::from_millis(50));
        }
    }

    /// Stop accepting, drain in-flight queries, and join every connection
    /// thread. Connections still busy when the drain timeout expires get
    /// their sessions interrupted (queries unwind with `Cancelled` at the
    /// next cooperative boundary). Returns `true` when everything drained
    /// within the timeout, `false` when interruption was needed.
    pub fn shutdown(mut self) -> bool {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> bool {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let Some(accept) = self.accept.take() else {
            return true; // already shut down
        };
        // The acceptor blocks in `accept`; a connection of our own wakes it
        // to see the latch. A listener on an unspecified address is reached
        // through loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        drop(TcpStream::connect(wake));
        let _ = accept.join();
        let deadline = Instant::now() + self.drain_timeout;
        let mut clean = true;
        loop {
            let all_done = self
                .state
                .connections
                .lock()
                .iter()
                .all(|e| e.handle.is_finished());
            if all_done {
                break;
            }
            if Instant::now() >= deadline {
                clean = false;
                for entry in self.state.connections.lock().iter() {
                    entry.session.interrupt();
                }
                break;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "drain loop polls joinable handles; no condvar on JoinHandle"
            )]
            thread::sleep(Duration::from_millis(5));
        }
        let entries: Vec<ConnEntry> = std::mem::take(&mut *self.state.connections.lock());
        for entry in entries {
            let _ = entry.handle.join();
        }
        // Every session is drained or interrupted; make sure the WAL tail
        // is on stable storage before the process exits (no-op in-memory,
        // best-effort — acknowledged records were already fsynced).
        let _ = self.state.ctx.flush_durability();
        clean
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accept connections until the shutdown latch is set. `accept` blocks, so a
/// new connection is served the moment it arrives; shutdown wakes the loop
/// with a connection of its own, which is dropped unserved.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let accepted = listener.accept();
        state.accept_wakeups.fetch_add(1, Ordering::SeqCst);
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let session = Arc::new(state.ctx.session());
                let conn_session = Arc::clone(&session);
                let conn_state = Arc::clone(state);
                let spawned = thread::Builder::new()
                    .name("rasql-conn".into())
                    .spawn(move || conn::run(stream, &conn_session, &conn_state));
                if let Ok(handle) = spawned {
                    // Reap finished connections so the registry doesn't grow
                    // without bound over a long uptime. Join (not detach):
                    // a finished closure's thread may still be mid-exit, and
                    // dropping its handle would leak that teardown past
                    // shutdown's final join.
                    let finished: Vec<ConnEntry> = {
                        let mut connections = state.connections.lock();
                        let (done, live) = std::mem::take(&mut *connections)
                            .into_iter()
                            .partition(|e| e.handle.is_finished());
                        *connections = live;
                        connections.push(ConnEntry { session, handle });
                        done
                    };
                    for entry in finished {
                        let _ = entry.handle.join();
                    }
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "transient accept errors (out of descriptors) back off briefly"
            )]
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}
