//! One connection: handshake, request dispatch, streaming execution, and
//! disconnect detection.

use crate::ServerState;
use rasql_api::wire::{
    read_request, send_response, send_row_batch, Request, Response, PROTOCOL_VERSION,
};
use rasql_api::{ApiError, ErrorCode, ServerStatus};
use rasql_core::{error_to_wire, result_to_wire, Session};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How often an idle connection checks the shutdown latch.
const POLL: Duration = Duration::from_millis(25);

/// How long the connection thread waits on a running query's worker before
/// it probes the socket for a vanished client. The wait ends the instant the
/// worker reports, so this bounds disconnect detection, not query latency.
const DISCONNECT_PROBE: Duration = Duration::from_millis(10);

/// Rows per `RowBatch` frame.
const BATCH_ROWS: usize = 512;

/// Run a connection to completion. Always leaves the session interrupted on
/// exit, so a dropped connection can never strand an in-flight query.
pub(crate) fn run(stream: TcpStream, session: &Arc<Session>, state: &Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    let mut conn = Conn {
        stream,
        session: Arc::clone(session),
        state: Arc::clone(state),
    };
    let _ = conn.serve();
    session.interrupt();
}

struct Conn {
    stream: TcpStream,
    session: Arc<Session>,
    state: Arc<ServerState>,
}

/// What a query worker reports back to the connection thread.
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
                Request::Query { sql } => self.run_streaming(&Job::Script(sql))?,
                Request::Execute { name } => {
                    if self.session.has_prepared(&name) {
                        self.run_streaming(&Job::Prepared(name))?;
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

    /// Run a script (or prepared script) on a worker thread while this
    /// thread streams results out and watches the socket for a disconnect.
    /// A vanished client interrupts the session: every query token is a
    /// child of the session token, so the in-flight fixpoint unwinds with
    /// `Cancelled` at its next stage or round boundary.
    fn run_streaming(&mut self, job: &Job) -> Result<(), ApiError> {
        let (tx, rx) = mpsc::channel::<Event>();
        let session = Arc::clone(&self.session);
        let mut outcome: Result<(), ApiError> = Ok(());
        thread::scope(|scope| {
            scope.spawn(move || {
                let tx_results = tx.clone();
                let on_result = |r: rasql_core::QueryResult| {
                    drop(tx_results.send(Event::Result(result_to_wire(&r))));
                };
                let run = match job {
                    Job::Script(sql) => session.query_script_with(sql, on_result),
                    Job::Prepared(name) => session.execute_prepared_with(name, on_result),
                };
                let _ = tx.send(match run {
                    Ok(()) => Event::Done,
                    Err(e) => Event::Failed(error_to_wire(&e)),
                });
            });
            loop {
                match rx.recv_timeout(DISCONNECT_PROBE) {
                    Ok(Event::Result(result)) => {
                        if let Err(e) = self.stream_result(&result) {
                            // Write failure: the client is gone. Cancel the
                            // rest of the script and report the dead socket.
                            self.session.interrupt();
                            outcome = Err(e);
                            break;
                        }
                    }
                    Ok(Event::Done) => {
                        outcome = self.send(&Response::QueryDone);
                        break;
                    }
                    Ok(Event::Failed(error)) => {
                        // Best effort: the socket may already be gone when
                        // the failure *is* the disconnect cancellation.
                        let _ = self.send(&Response::Error { error });
                        break;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if self.client_gone() {
                            self.session.interrupt();
                            // Keep draining: the worker will surface
                            // `Cancelled` as Event::Failed shortly.
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        });
        outcome
    }

    /// Stream one statement's result: header, row batches, stats.
    fn stream_result(&mut self, result: &rasql_api::QueryResult) -> Result<(), ApiError> {
        self.send(&Response::ResultHeader {
            schema: result.schema.clone(),
        })?;
        // Frames are encoded straight from the engine's row buffer.
        for chunk in result.rows.chunks(BATCH_ROWS) {
            send_row_batch(&mut self.stream, chunk)?;
        }
        self.send(&Response::StatementDone {
            stats: result.stats,
        })
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

    fn send(&mut self, response: &Response) -> Result<(), ApiError> {
        send_response(&mut self.stream, response)
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
