//! One connection: handshake, request dispatch, streaming execution on the
//! connection's statement worker, and disconnect detection.

use crate::ServerState;
use rasql_api::wire::{read_request, FrameBuf, Request, Response, PROTOCOL_VERSION};
use rasql_api::{ApiError, ErrorCode, ServerStatus};
use rasql_core::{error_to_wire, result_to_wire, Session};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How often an idle connection checks the shutdown latch.
const POLL: Duration = Duration::from_millis(25);

/// How long the connection thread waits on a running query's worker before
/// it probes the socket for a vanished client. The wait ends the instant the
/// worker reports, so this bounds disconnect detection, not query latency.
const DISCONNECT_PROBE: Duration = Duration::from_millis(10);

/// Rows per `RowBatch` frame (fewer when their bytes would pass the frame
/// cap).
const BATCH_ROWS: usize = 512;

/// Run a connection to completion on this thread, with one statement worker
/// beside it for the connection's life. Always leaves the session
/// interrupted on exit, so a dropped connection can never strand an
/// in-flight query, and joins the worker before returning.
pub(crate) fn run(stream: TcpStream, session: &Arc<Session>, state: &Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    let (jobs, job_rx) = mpsc::channel::<Job>();
    let (event_tx, events) = mpsc::channel::<Event>();
    let worker_session = Arc::clone(session);
    let worker = thread::Builder::new()
        .name("rasql-stmt".into())
        .spawn(move || run_jobs(&worker_session, &job_rx, &event_tx));
    let Ok(worker) = worker else {
        session.interrupt();
        return;
    };
    let mut conn = Conn {
        stream,
        out: FrameBuf::default(),
        session: Arc::clone(session),
        state: Arc::clone(state),
        jobs,
        events,
    };
    let _ = conn.serve();
    session.interrupt();
    // Closes the socket and drops the job sender, which ends the worker's
    // loop once its interrupted statement unwinds.
    drop(conn);
    let _ = worker.join();
}

/// The statement worker: runs the connection's jobs in order, reporting each
/// statement's result the moment it completes.
fn run_jobs(session: &Session, jobs: &Receiver<Job>, events: &Sender<Event>) {
    for job in jobs {
        let on_result = |r: rasql_core::QueryResult| {
            drop(events.send(Event::Result(result_to_wire(&r))));
        };
        let run = match &job {
            Job::Script(sql) => session.query_script_with(sql, on_result),
            Job::Prepared(name) => session.execute_prepared_with(name, on_result),
        };
        let _ = events.send(match run {
            Ok(()) => Event::Done,
            Err(e) => Event::Failed(error_to_wire(&e)),
        });
    }
}

struct Conn {
    stream: TcpStream,
    /// Frames not yet written; see [`Conn::run_streaming`] for when they go.
    out: FrameBuf,
    session: Arc<Session>,
    state: Arc<ServerState>,
    jobs: Sender<Job>,
    events: Receiver<Event>,
}

/// What the statement worker reports back to the connection thread.
enum Event {
    Result(rasql_api::QueryResult),
    Done,
    Failed(ApiError),
}

/// What the worker should execute.
enum Job {
    Script(String),
    Prepared(String),
}

impl Conn {
    fn serve(&mut self) -> Result<(), ApiError> {
        self.stream
            .set_read_timeout(Some(POLL))
            .map_err(|e| ApiError::io(&e))?;
        if !self.handshake()? {
            return Ok(());
        }
        loop {
            let request = match self.read_polled() {
                Ok(r) => r,
                // A clean disconnect between requests is a normal goodbye.
                Err(e) if e.code == ErrorCode::ConnectionClosed => return Ok(()),
                Err(e) if e.code == ErrorCode::ServerShutdown => {
                    let _ = self.send(&Response::Error { error: e });
                    let _ = self.send(&Response::Goodbye);
                    return Ok(());
                }
                Err(e) => {
                    let _ = self.send(&Response::Error { error: e });
                    return Ok(());
                }
            };
            match request {
                Request::Query { sql } => self.run_streaming(Job::Script(sql))?,
                Request::Execute { name } => {
                    if self.session.has_prepared(&name) {
                        self.run_streaming(Job::Prepared(name))?;
                    } else {
                        self.send(&Response::Error {
                            error: ApiError::new(
                                ErrorCode::UnknownPrepared,
                                format!("no prepared statement '{name}' in this session"),
                            ),
                        })?;
                    }
                }
                Request::Prepare { name, sql } => {
                    let response = match self.session.prepare(&name, &sql) {
                        Ok(n) => Response::Prepared {
                            statements: n as u64,
                        },
                        Err(e) => Response::Error {
                            error: error_to_wire(&e),
                        },
                    };
                    self.send(&response)?;
                }
                Request::Register { name, schema, rows } => {
                    let response = match rasql_storage::Relation::try_new(schema, rows) {
                        Ok(rel) => {
                            let rows = rel.len() as u64;
                            match self.session.register(&name, rel) {
                                Ok(()) => Response::Registered { rows },
                                Err(e) => Response::Error {
                                    error: error_to_wire(&e),
                                },
                            }
                        }
                        Err(e) => Response::Error {
                            error: ApiError::new(ErrorCode::Storage, e.to_string()),
                        },
                    };
                    self.send(&response)?;
                }
                Request::Kill { query_id } => {
                    let found = self.state.ctx.kill(query_id);
                    self.send(&Response::Killed { found })?;
                }
                Request::Metrics => {
                    let text = self.state.ctx.metrics().prometheus_text();
                    self.send(&Response::MetricsText { text })?;
                }
                Request::Status => {
                    let status = self.status();
                    self.send(&Response::Status { status })?;
                }
                Request::ListViews => {
                    let views = self.state.ctx.view_infos();
                    self.send(&Response::Views { views })?;
                }
                Request::Durability => {
                    let status = self.state.ctx.durability_status();
                    self.send(&Response::Durability { status })?;
                }
                Request::Shutdown => {
                    self.state.shutdown.store(true, Ordering::Relaxed);
                    let _ = self.send(&Response::Goodbye);
                    return Ok(());
                }
                Request::Goodbye => {
                    let _ = self.send(&Response::Goodbye);
                    return Ok(());
                }
                Request::Hello { .. } => {
                    self.send(&Response::Error {
                        error: ApiError::protocol("unexpected Hello after handshake"),
                    })?;
                }
            }
        }
    }

    /// Version handshake. Returns `Ok(false)` when the connection should
    /// close without serving (mismatched version, wrong first frame).
    fn handshake(&mut self) -> Result<bool, ApiError> {
        match self.read_polled()? {
            Request::Hello { version } if version == PROTOCOL_VERSION => {
                self.send(&Response::Hello {
                    version: PROTOCOL_VERSION,
                    server: crate::SERVER_IDENT.to_string(),
                })?;
                Ok(true)
            }
            Request::Hello { version } => {
                let _ = self.send(&Response::Error {
                    error: ApiError::new(
                        ErrorCode::VersionMismatch,
                        format!(
                            "server speaks protocol v{PROTOCOL_VERSION}, client sent v{version}"
                        ),
                    ),
                });
                Ok(false)
            }
            _ => {
                let _ = self.send(&Response::Error {
                    error: ApiError::protocol("expected Hello as the first request"),
                });
                Ok(false)
            }
        }
    }

    /// Hand a script (or prepared script) to the statement worker while this
    /// thread streams results out and watches the socket for a disconnect.
    /// A vanished client interrupts the session: every query token is a
    /// child of the session token, so the in-flight fixpoint unwinds with
    /// `Cancelled` at its next stage or round boundary.
    ///
    /// Frames are queued in `out` and written when the worker has nothing
    /// more ready, after every `RowBatch`, and at the end of the script: a
    /// small answer leaves in one or two writes, each statement of a script
    /// the moment it completes, and a large answer frame by frame.
    fn run_streaming(&mut self, job: Job) -> Result<(), ApiError> {
        if self.jobs.send(job).is_err() {
            return Err(self.worker_died());
        }
        // Set once a result could not be framed: its error is sent, and the
        // script's remaining events are drained without reply.
        let mut abandoned = false;
        // Set by a timed wake: a reply the next `try_recv` finds already
        // queued waited for the timer instead of waking the thread.
        let mut timed_out = false;
        loop {
            let woke_on_timer = std::mem::take(&mut timed_out);
            let event = match self.events.try_recv() {
                Ok(event) => {
                    if woke_on_timer {
                        self.state.late_replies.fetch_add(1, Ordering::Relaxed);
                    }
                    event
                }
                Err(TryRecvError::Empty) => {
                    self.flush()?;
                    match self.events.recv_timeout(DISCONNECT_PROBE) {
                        Ok(event) => event,
                        Err(RecvTimeoutError::Timeout) => {
                            if self.client_gone() {
                                self.session.interrupt();
                                // Keep draining: the worker will surface
                                // `Cancelled` as Event::Failed shortly.
                            }
                            timed_out = true;
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => return Err(self.worker_died()),
                    }
                }
                Err(TryRecvError::Disconnected) => return Err(self.worker_died()),
            };
            match event {
                Event::Result(_) if abandoned => {}
                Event::Result(result) => match self.stream_result(&result) {
                    Ok(()) => {}
                    // The write failed: the client is gone (`flush` has
                    // cancelled the rest of the script).
                    Err(e) if e.code == ErrorCode::Io => return Err(e),
                    Err(error) => {
                        abandoned = true;
                        self.send(&Response::Error { error })?;
                    }
                },
                Event::Done | Event::Failed(_) if abandoned => return Ok(()),
                Event::Done => return self.send(&Response::QueryDone),
                Event::Failed(error) => {
                    // Best effort: the socket may already be gone when the
                    // failure *is* the disconnect cancellation.
                    let _ = self.send(&Response::Error { error });
                    return Ok(());
                }
            }
        }
    }

    /// Queue one statement's result: header, row batches (each written as
    /// soon as it is encoded, straight from the engine's row buffer), stats.
    ///
    /// # Errors
    /// `Io` when a write fails; `Protocol` when one row alone passes the
    /// frame cap.
    fn stream_result(&mut self, result: &rasql_api::QueryResult) -> Result<(), ApiError> {
        self.out.push_response(&Response::ResultHeader {
            schema: result.schema.clone(),
        })?;
        let mut rest = &result.rows[..];
        while !rest.is_empty() {
            let taken = self
                .out
                .push_row_batch(&rest[..rest.len().min(BATCH_ROWS)])?;
            self.flush()?;
            rest = &rest[taken..];
        }
        self.out.push_response(&Response::StatementDone {
            stats: result.stats,
        })
    }

    /// The worker is gone mid-job (it panicked), so no statement can run on
    /// this connection any more: answer with an `Error` and end it.
    fn worker_died(&mut self) -> ApiError {
        let error = ApiError::new(
            ErrorCode::Internal,
            "the connection's statement worker died",
        );
        let _ = self.send(&Response::Error {
            error: error.clone(),
        });
        error
    }

    /// Block for the next request, waking every [`POLL`] to check the
    /// shutdown latch and for peer EOF. The peek never consumes bytes, so a
    /// frame that arrives is then read whole with no timeout.
    ///
    /// Doubles as the keepalive reaper: a connection quiet past the idle
    /// timeout is closed. A TCP peer that died without a FIN (pulled cable,
    /// killed VM) looks exactly like a quiet client — peeking never returns
    /// EOF — so without this, dead connections hold their threads and
    /// sessions forever. Live-but-idle clients reconnect transparently.
    fn read_polled(&mut self) -> Result<Request, ApiError> {
        let idle_since = Instant::now();
        loop {
            if self.state.shutdown.load(Ordering::Relaxed) {
                return Err(ApiError::new(
                    ErrorCode::ServerShutdown,
                    "server is draining for shutdown",
                ));
            }
            if !self.state.idle_timeout.is_zero() && idle_since.elapsed() >= self.state.idle_timeout
            {
                self.state.ctx.note_connection_reaped();
                return Err(ApiError::new(
                    ErrorCode::ConnectionClosed,
                    "connection idle past the keepalive timeout; reaped",
                ));
            }
            let mut probe = [0u8; 1];
            match self.stream.peek(&mut probe) {
                Ok(0) => {
                    return Err(ApiError::new(
                        ErrorCode::ConnectionClosed,
                        "client disconnected",
                    ))
                }
                Ok(_) => {
                    self.stream
                        .set_read_timeout(None)
                        .map_err(|e| ApiError::io(&e))?;
                    let request = read_request(&mut self.stream);
                    self.stream
                        .set_read_timeout(Some(POLL))
                        .map_err(|e| ApiError::io(&e))?;
                    return request;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(ApiError::io(&e)),
            }
        }
    }

    /// Whether the peer has closed its end (EOF on a non-consuming peek).
    /// The peek is non-blocking — it must not hold the connection thread off
    /// the worker's result for the socket's read timeout — so a quiet, live
    /// client reads as `WouldBlock`.
    fn client_gone(&mut self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut probe = [0u8; 1];
        let gone = match self.stream.peek(&mut probe) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
        };
        // A socket that cannot go back to blocking cannot be served further.
        let restored = self.stream.set_nonblocking(false).is_ok();
        gone || !restored
    }

    /// Queue a response — or, should it pass the frame cap, an `Error`
    /// saying so — and write everything queued.
    fn send(&mut self, response: &Response) -> Result<(), ApiError> {
        if let Err(error) = self.out.push_response(response) {
            self.out.push_response(&Response::Error { error })?;
        }
        self.flush()
    }

    /// Write every queued frame. A failed write means the client is gone:
    /// the session is interrupted, cancelling the rest of any script.
    fn flush(&mut self) -> Result<(), ApiError> {
        self.out.write_to(&mut self.stream).inspect_err(|_| {
            self.session.interrupt();
        })
    }

    fn status(&self) -> ServerStatus {
        let ctx = &self.state.ctx;
        ServerStatus {
            active_queries: ctx.active_queries(),
            running: ctx.running_queries() as u64,
            waiting: ctx.waiting_queries() as u64,
            sessions: self.state.live_sessions() as u64,
            tables: ctx.table_names(),
            index_store: ctx.index_stats().to_string(),
        }
    }
}
