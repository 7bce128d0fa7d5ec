#![warn(missing_docs)]

//! # rasql-client
//!
//! A small blocking client for `rasql-server`. It depends only on
//! [`rasql_api`] (the wire types and framed codec) and the standard
//! library — no engine crates — so anything that can open a TCP socket can
//! embed it.
//!
//! ```no_run
//! use rasql_client::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7432").unwrap();
//! let results = client.query("SELECT count(*) FROM edge").unwrap();
//! println!("{} rows", results[0].rows.len());
//! client.close().unwrap();
//! ```
//!
//! One [`Client`] is one server session: views created and statements
//! prepared through it are invisible to other connections. Errors carry the
//! server's stable `RA####` codes ([`rasql_api::ErrorCode`]); transport
//! failures surface as [`ErrorCode::Io`] or [`ErrorCode::ConnectionClosed`].
//!
//! ## Reconnection
//!
//! A server restart (or a keepalive reap of an idle connection) kills the
//! TCP session but not the client's usefulness: the client remembers the
//! resolved address and transparently redials with bounded exponential
//! backoff ([`ReconnectPolicy`]) when a request hits a dead socket.
//!
//! Retries are scoped by what is safe to repeat:
//!
//! - **Idempotent reads** ([`Client::status`], [`Client::metrics`],
//!   [`Client::views`], [`Client::durability`], [`Client::kill`]) retry the
//!   whole round trip — re-reading costs nothing.
//! - **Everything else** ([`Client::query`], [`Client::execute`],
//!   [`Client::prepare`], [`Client::register`]) retries only while the
//!   request fails to *send*: a frame the server never received was never
//!   executed. Once the request is on the wire, a transport failure
//!   surfaces to the caller, which must decide whether re-running is safe.
//!
//! Note that a reconnect is a **new session**: server-side prepared
//! statements and session-local views do not survive it. After retries
//! exhaust, the last typed [`ApiError`] is returned.

use rasql_api::wire::{read_response, send_request, FrameBuf, Request, Response, PROTOCOL_VERSION};
use rasql_api::{ApiError, DurabilityStatus, ErrorCode, QueryResult, Row, Schema, ServerStatus};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Bounded exponential backoff for transparent reconnects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Reconnect attempts per failed request; `0` disables reconnection.
    pub max_attempts: u32,
    /// Delay before the first reconnect attempt; doubles on each retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
}

impl ReconnectPolicy {
    /// No reconnection: every transport failure surfaces immediately.
    pub fn disabled() -> Self {
        ReconnectPolicy {
            max_attempts: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The delay before reconnect attempt `attempt` (1-based): the base
    /// delay doubled per prior attempt, capped at `max_delay`.
    fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }
}

impl Default for ReconnectPolicy {
    /// Four attempts at 25 ms, 50 ms, 100 ms, 200 ms — enough to ride out a
    /// server restart, short enough that a truly dead server fails fast.
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
        }
    }
}

/// A connected `rasql-server` session.
pub struct Client {
    /// Requests go out on the socket; responses come in through `reader`, a
    /// buffered clone of it, so a frame costs one `read` rather than three.
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The request frame being sent.
    out: FrameBuf,
    /// The server's identifier from the handshake (e.g. `rasql-server/0.1.0`).
    server: String,
    /// Resolved dial addresses, retained for reconnects.
    addrs: Vec<SocketAddr>,
    reconnect: ReconnectPolicy,
}

impl Client {
    /// Connect and perform the version handshake, with the default
    /// [`ReconnectPolicy`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ApiError> {
        Self::connect_with(addr, ReconnectPolicy::default())
    }

    /// Connect with an explicit reconnect policy
    /// ([`ReconnectPolicy::disabled`] restores fail-fast behavior).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        reconnect: ReconnectPolicy,
    ) -> Result<Client, ApiError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ApiError::io(&e))?
            .collect();
        let (stream, reader, server) = Self::dial(&addrs)?;
        Ok(Client {
            stream,
            reader,
            out: FrameBuf::default(),
            server,
            addrs,
            reconnect,
        })
    }

    /// Dial the first reachable address and perform the handshake.
    fn dial(addrs: &[SocketAddr]) -> Result<(TcpStream, BufReader<TcpStream>, String), ApiError> {
        let mut last: Option<ApiError> = None;
        for addr in addrs {
            let mut stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => {
                    last = Some(ApiError::io(&e));
                    continue;
                }
            };
            let _ = stream.set_nodelay(true);
            let mut reader = match stream.try_clone() {
                Ok(s) => BufReader::new(s),
                Err(e) => {
                    last = Some(ApiError::io(&e));
                    continue;
                }
            };
            let hello = Request::Hello {
                version: PROTOCOL_VERSION,
            };
            let outcome =
                send_request(&mut stream, &hello).and_then(|()| read_response(&mut reader));
            match outcome {
                Ok(Response::Hello { server, .. }) => return Ok((stream, reader, server)),
                Ok(Response::Error { error }) => return Err(error),
                Ok(other) => return Err(unexpected("Hello", &other)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            ApiError::new(ErrorCode::Io, "address resolved to no socket addresses")
        }))
    }

    /// The server identifier from the handshake.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// Execute a `;`-separated SQL script; one [`QueryResult`] per
    /// statement, in order. Results stream: earlier statements' rows are in
    /// flight while later ones still execute server-side.
    pub fn query(&mut self, sql: &str) -> Result<Vec<QueryResult>, ApiError> {
        self.send_reconnecting(&Request::Query {
            sql: sql.to_string(),
        })?;
        self.collect_results()
    }

    /// Parse and analyze a script server-side under `name`; returns the
    /// statement count. Re-preparing a name replaces it.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<u64, ApiError> {
        self.send_reconnecting(&Request::Prepare {
            name: name.to_string(),
            sql: sql.to_string(),
        })?;
        match self.recv()? {
            Response::Prepared { statements } => Ok(statements),
            Response::Error { error } => Err(error),
            other => Err(unexpected("Prepared", &other)),
        }
    }

    /// Execute a previously prepared script.
    pub fn execute(&mut self, name: &str) -> Result<Vec<QueryResult>, ApiError> {
        self.send_reconnecting(&Request::Execute {
            name: name.to_string(),
        })?;
        self.collect_results()
    }

    /// Register (or replace) a base table in the server's shared catalog.
    /// Returns the row count the server accepted. A table whose encoding
    /// passes the frame cap ([`rasql_api::wire::MAX_FRAME_LEN`]) fails with
    /// [`ErrorCode::Protocol`] before anything is sent.
    pub fn register(
        &mut self,
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
    ) -> Result<u64, ApiError> {
        self.send_reconnecting(&Request::Register {
            name: name.to_string(),
            schema,
            rows,
        })?;
        match self.recv()? {
            Response::Registered { rows } => Ok(rows),
            Response::Error { error } => Err(error),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Cooperatively cancel a running query (any session's) by id. Returns
    /// whether the id matched an active query. Idempotent (cancelling twice
    /// is a no-op), so it reconnects and retries on transport failure.
    pub fn kill(&mut self, query_id: u64) -> Result<bool, ApiError> {
        match self.round_trip_idempotent(&Request::Kill { query_id })? {
            Response::Killed { found } => Ok(found),
            Response::Error { error } => Err(error),
            other => Err(unexpected("Killed", &other)),
        }
    }

    /// Cumulative engine metrics in Prometheus text exposition format.
    pub fn metrics(&mut self) -> Result<String, ApiError> {
        match self.round_trip_idempotent(&Request::Metrics)? {
            Response::MetricsText { text } => Ok(text),
            Response::Error { error } => Err(error),
            other => Err(unexpected("MetricsText", &other)),
        }
    }

    /// The server's registered materialized views: name, version,
    /// staleness, resident-state bytes, and last refresh mode.
    pub fn views(&mut self) -> Result<Vec<rasql_api::ViewInfo>, ApiError> {
        match self.round_trip_idempotent(&Request::ListViews)? {
            Response::Views { views } => Ok(views),
            Response::Error { error } => Err(error),
            other => Err(unexpected("Views", &other)),
        }
    }

    /// Point-in-time server status: active query ids, admission counts,
    /// open sessions, table names.
    pub fn status(&mut self) -> Result<ServerStatus, ApiError> {
        match self.round_trip_idempotent(&Request::Status)? {
            Response::Status { status } => Ok(status),
            Response::Error { error } => Err(error),
            other => Err(unexpected("Status", &other)),
        }
    }

    /// The server's durability status: WAL and snapshot counters when it
    /// runs with a data directory, `None` when it is in-memory.
    pub fn durability(&mut self) -> Result<Option<DurabilityStatus>, ApiError> {
        match self.round_trip_idempotent(&Request::Durability)? {
            Response::Durability { status } => Ok(status),
            Response::Error { error } => Err(error),
            other => Err(unexpected("Durability", &other)),
        }
    }

    /// Ask the server to drain and exit, then close this connection.
    pub fn shutdown(mut self) -> Result<(), ApiError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::Goodbye => Ok(()),
            Response::Error { error } => Err(error),
            other => Err(unexpected("Goodbye", &other)),
        }
    }

    /// Close the session politely. Dropping the client without calling this
    /// also works — the server treats the EOF as a disconnect and cancels
    /// anything the session still had running.
    pub fn close(mut self) -> Result<(), ApiError> {
        self.send(&Request::Goodbye)?;
        match self.recv()? {
            Response::Goodbye => Ok(()),
            Response::Error { error } => Err(error),
            other => Err(unexpected("Goodbye", &other)),
        }
    }

    /// Reassemble streamed `ResultHeader`/`RowBatch`/`StatementDone` frames
    /// into per-statement results, ending at `QueryDone` or `Error`.
    fn collect_results(&mut self) -> Result<Vec<QueryResult>, ApiError> {
        let mut results = Vec::new();
        let mut current: Option<(Schema, Vec<Row>)> = None;
        loop {
            match self.recv()? {
                Response::ResultHeader { schema } => {
                    if current.is_some() {
                        return Err(ApiError::protocol(
                            "ResultHeader before previous statement finished",
                        ));
                    }
                    current = Some((schema, Vec::new()));
                }
                Response::RowBatch { rows } => match &mut current {
                    Some((_, acc)) => acc.extend(rows),
                    None => return Err(ApiError::protocol("RowBatch outside a statement")),
                },
                Response::StatementDone { stats } => match current.take() {
                    Some((schema, rows)) => results.push(QueryResult {
                        schema,
                        rows: Arc::new(rows),
                        stats,
                    }),
                    None => return Err(ApiError::protocol("StatementDone outside a statement")),
                },
                Response::QueryDone => {
                    if current.is_some() {
                        return Err(ApiError::protocol("QueryDone mid-statement"));
                    }
                    return Ok(results);
                }
                Response::Error { error } => return Err(error),
                other => return Err(unexpected("result stream", &other)),
            }
        }
    }

    /// Whether an error means the transport died (as opposed to a server
    /// answer): only these justify redialing.
    fn transport_failure(e: &ApiError) -> bool {
        matches!(e.code, ErrorCode::Io | ErrorCode::ConnectionClosed)
    }

    /// Back off (attempt is 1-based) and redial. The reader is replaced with
    /// the stream, so no byte left from the dead connection is ever parsed
    /// as a reply. A failed redial leaves the dead stream in place: the
    /// caller's next send fails fast and either burns another attempt or
    /// surfaces the error.
    fn backoff_and_redial(&mut self, attempt: u32) {
        let delay = self.reconnect.delay(attempt);
        if !delay.is_zero() {
            #[expect(
                clippy::disallowed_methods,
                reason = "reconnect backoff: the server is gone, so there is no event to wait on"
            )]
            std::thread::sleep(delay);
        }
        if let Ok((stream, reader, server)) = Self::dial(&self.addrs) {
            self.stream = stream;
            self.reader = reader;
            self.server = server;
        }
    }

    /// Send a request whose execution must not be repeated. The send alone
    /// is retried across reconnects — a frame that never reached the server
    /// was never executed — but once sent, failures surface to the caller.
    fn send_reconnecting(&mut self, request: &Request) -> Result<(), ApiError> {
        let mut attempt = 0u32;
        loop {
            match self.send(request) {
                Err(e) if Self::transport_failure(&e) && attempt < self.reconnect.max_attempts => {
                    attempt += 1;
                    self.backoff_and_redial(attempt);
                }
                other => return other,
            }
        }
    }

    /// Full round trip with reconnect-and-retry; only for idempotent
    /// single-frame requests (pure reads and `Kill`), where repeating the
    /// request after an ambiguous failure is harmless.
    fn round_trip_idempotent(&mut self, request: &Request) -> Result<Response, ApiError> {
        let mut attempt = 0u32;
        loop {
            match self.send(request).and_then(|()| self.recv()) {
                Err(e) if Self::transport_failure(&e) && attempt < self.reconnect.max_attempts => {
                    attempt += 1;
                    self.backoff_and_redial(attempt);
                }
                other => return other,
            }
        }
    }

    /// Encode and send one request. A request past the frame cap fails with
    /// [`ErrorCode::Protocol`] before any byte is sent.
    fn send(&mut self, request: &Request) -> Result<(), ApiError> {
        self.out.push_request(request)?;
        self.out.write_to(&mut self.stream)
    }

    fn recv(&mut self) -> Result<Response, ApiError> {
        read_response(&mut self.reader)
    }
}

fn unexpected(wanted: &str, got: &Response) -> ApiError {
    let tag = match got {
        Response::Hello { .. } => "Hello",
        Response::ResultHeader { .. } => "ResultHeader",
        Response::RowBatch { .. } => "RowBatch",
        Response::StatementDone { .. } => "StatementDone",
        Response::QueryDone => "QueryDone",
        Response::Error { .. } => "Error",
        Response::Registered { .. } => "Registered",
        Response::Prepared { .. } => "Prepared",
        Response::Killed { .. } => "Killed",
        Response::MetricsText { .. } => "MetricsText",
        Response::Status { .. } => "Status",
        Response::Views { .. } => "Views",
        Response::Goodbye => "Goodbye",
        Response::Durability { .. } => "Durability",
    };
    ApiError::new(
        ErrorCode::Protocol,
        format!("expected {wanted}, server sent {tag}"),
    )
}

/// Convenience re-export: everything a caller needs to interpret results.
pub use rasql_api as api;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = ReconnectPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(150),
        };
        assert_eq!(p.delay(1), Duration::from_millis(25));
        assert_eq!(p.delay(2), Duration::from_millis(50));
        assert_eq!(p.delay(3), Duration::from_millis(100));
        assert_eq!(p.delay(4), Duration::from_millis(150), "capped");
        assert_eq!(p.delay(40), Duration::from_millis(150), "shift saturates");
    }

    #[test]
    fn disabled_policy_has_no_attempts() {
        assert_eq!(ReconnectPolicy::disabled().max_attempts, 0);
    }
}
