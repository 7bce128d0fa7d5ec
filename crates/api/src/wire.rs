//! The versioned framed client/server protocol.
//!
//! ## Framing
//!
//! Every message is one frame:
//!
//! ```text
//! +----------+----------------+------------------+
//! | "RQ" (2) | length u32 BE  | payload (length) |
//! +----------+----------------+------------------+
//! ```
//!
//! The two magic bytes reject garbage prefixes immediately (a stray HTTP
//! request or random bytes fail on the first read, not after a multi-gigabyte
//! "length"); the length is additionally capped at [`MAX_FRAME_LEN`]. A clean
//! EOF *before* a frame starts is a normal disconnect
//! ([`ErrorCode::ConnectionClosed`]); EOF *inside* a frame is a protocol
//! error (truncated frame). A writer never sends a frame past the cap: a
//! [`FrameBuf`] refuses the payload before any byte of it is queued, and
//! splits a row batch that would pass it.
//!
//! ## Payload encoding
//!
//! A payload is a one-byte message tag, then fields in the engine's one byte
//! codec ([`crate::codec`]): LEB128 varints, length-prefixed UTF-8 strings,
//! schemas, and rows as column-lane row batches. Decoding is strict: unknown
//! tags, truncated fields, over-long counts and trailing bytes are all
//! [`ErrorCode::Protocol`] errors.
//!
//! ## Versioning
//!
//! The first exchange on a connection is `Hello{version}` in both
//! directions. [`PROTOCOL_VERSION`] is bumped on any incompatible change;
//! within a version, tags and field orders are frozen — new message kinds get
//! new tags. A server answers a version it does not speak with an
//! `Error(RA0902)` frame and closes.
//!
//! ## Conversation shape
//!
//! ```text
//! client: Hello ----------------------------> server
//! client: <---------------------------------- Hello
//! client: Query{sql} -----------------------> server
//! client: <- ResultHeader <- RowBatch* <- StatementDone   (per statement)
//! client: <---------------------------------- QueryDone | Error
//! ```
//!
//! `Prepare`/`Execute`, `Register`, `Kill`, `Metrics`, `Status`, `Shutdown`
//! and `Goodbye` are single-request/single-response.

use crate::codec::{
    expect_end, get_bool, get_count, get_rows, get_schema, get_str, get_string, get_u8, get_varint,
    put_bool, put_rows, put_schema, put_str, put_varint,
};
use crate::error::{ApiError, ErrorCode};
use crate::result::{DurabilityStatus, QueryStats, ServerStatus, ViewInfo};
use crate::row::Row;
use crate::schema::Schema;
use std::io::{Read, Write};

/// The protocol version this crate speaks (3: rows travel as column-lane
/// batches).
pub const PROTOCOL_VERSION: u16 = 3;

/// Frame magic: every frame starts with these two bytes.
pub const FRAME_MAGIC: [u8; 2] = *b"RQ";

/// Upper bound on a frame payload; larger lengths are rejected as garbage.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Message tag of [`Response::RowBatch`].
const ROW_BATCH_TAG: u8 = 3;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open the conversation; the server refuses mismatched versions.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Execute a `;`-separated SQL script in this session.
    Query {
        /// The SQL text.
        sql: String,
    },
    /// Parse and analyze a script now, under a session-local name.
    Prepare {
        /// Session-local statement name.
        name: String,
        /// The SQL text.
        sql: String,
    },
    /// Execute a previously prepared script.
    Execute {
        /// The name given at `Prepare` time.
        name: String,
    },
    /// Register (or replace) a base table in the shared catalog.
    Register {
        /// Table name.
        name: String,
        /// Table schema.
        schema: Schema,
        /// Table rows.
        rows: Vec<Row>,
    },
    /// Cooperatively cancel a running query by id (any session's).
    Kill {
        /// The id from [`QueryStats::query_id`] or `Status`.
        query_id: u64,
    },
    /// Fetch cumulative engine metrics in Prometheus text format.
    Metrics,
    /// Fetch a point-in-time server status.
    Status,
    /// Ask the server to drain in-flight queries and exit.
    Shutdown,
    /// Close this session politely.
    Goodbye,
    /// List the materialized views and their staleness.
    ListViews,
    /// Fetch the server's durability status (WAL and snapshot counters).
    Durability,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Version handshake reply.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
        /// Server software identifier (e.g. `rasql-server/0.1`).
        server: String,
    },
    /// A statement's result begins; its rows follow in `RowBatch` frames.
    ResultHeader {
        /// The result schema.
        schema: Schema,
    },
    /// A batch of result rows (streamed; a statement may send many).
    RowBatch {
        /// The rows.
        rows: Vec<Row>,
    },
    /// A statement's result is complete.
    StatementDone {
        /// The statement's execution statistics.
        stats: QueryStats,
    },
    /// The whole `Query`/`Execute` script is complete.
    QueryDone,
    /// The request failed (for `Query`, aborts the remainder of the script).
    Error {
        /// The failure.
        error: ApiError,
    },
    /// `Register` succeeded.
    Registered {
        /// Rows now in the table.
        rows: u64,
    },
    /// `Prepare` succeeded.
    Prepared {
        /// Statements in the prepared script.
        statements: u64,
    },
    /// `Kill` reply.
    Killed {
        /// Whether the id matched an active query.
        found: bool,
    },
    /// `Metrics` reply: Prometheus text-format exposition.
    MetricsText {
        /// The rendered metrics.
        text: String,
    },
    /// `Status` reply.
    Status {
        /// The server status.
        status: ServerStatus,
    },
    /// The session (or, after `Shutdown`, the server) is closing.
    Goodbye,
    /// `ListViews` reply.
    Views {
        /// One entry per materialized view, sorted by name.
        views: Vec<ViewInfo>,
    },
    /// `Durability` reply; `None` when the server runs in-memory.
    Durability {
        /// WAL and snapshot counters, when a data directory is attached.
        status: Option<DurabilityStatus>,
    },
}

// --------------------------------------------------------------------
// Message fields (over the shared primitives of `crate::codec`)
// --------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    put_varint(buf, u64::from(v));
}

fn get_u16(input: &mut &[u8]) -> Result<u16, ApiError> {
    u16::try_from(get_varint(input)?).map_err(|_| ApiError::protocol("u16 out of range"))
}

fn put_stats(buf: &mut Vec<u8>, s: &QueryStats) {
    for v in [
        s.query_id,
        s.elapsed_us,
        s.iterations,
        s.stages,
        s.tasks,
        s.shuffle_rows,
        s.shuffle_bytes,
        s.peak_memory,
        s.spilled_bytes,
        s.spill_files,
    ] {
        put_varint(buf, v);
    }
}

fn get_stats(input: &mut &[u8]) -> Result<QueryStats, ApiError> {
    Ok(QueryStats {
        query_id: get_varint(input)?,
        elapsed_us: get_varint(input)?,
        iterations: get_varint(input)?,
        stages: get_varint(input)?,
        tasks: get_varint(input)?,
        shuffle_rows: get_varint(input)?,
        shuffle_bytes: get_varint(input)?,
        peak_memory: get_varint(input)?,
        spilled_bytes: get_varint(input)?,
        spill_files: get_varint(input)?,
    })
}

fn put_views(buf: &mut Vec<u8>, views: &[ViewInfo]) {
    put_varint(buf, views.len() as u64);
    for v in views {
        put_str(buf, &v.name);
        put_varint(buf, v.version);
        put_bool(buf, v.stale);
        put_varint(buf, v.retained_bytes);
        put_str(buf, &v.last_refresh);
    }
}

fn get_views(input: &mut &[u8]) -> Result<Vec<ViewInfo>, ApiError> {
    let n = get_count(input)?;
    let mut views = Vec::with_capacity(n);
    for _ in 0..n {
        views.push(ViewInfo {
            name: get_string(input)?,
            version: get_varint(input)?,
            stale: get_bool(input)?,
            retained_bytes: get_varint(input)?,
            last_refresh: get_string(input)?,
        });
    }
    Ok(views)
}

fn put_durability(buf: &mut Vec<u8>, status: &Option<DurabilityStatus>) {
    match status {
        None => put_bool(buf, false),
        Some(s) => {
            put_bool(buf, true);
            put_str(buf, &s.data_dir);
            put_varint(buf, s.wal_records);
            put_varint(buf, s.wal_bytes);
            put_varint(buf, s.snapshots);
            put_varint(buf, s.last_snapshot_bytes);
        }
    }
}

fn get_durability(input: &mut &[u8]) -> Result<Option<DurabilityStatus>, ApiError> {
    if !get_bool(input)? {
        return Ok(None);
    }
    Ok(Some(DurabilityStatus {
        data_dir: get_string(input)?,
        wal_records: get_varint(input)?,
        wal_bytes: get_varint(input)?,
        snapshots: get_varint(input)?,
        last_snapshot_bytes: get_varint(input)?,
    }))
}

fn put_error(buf: &mut Vec<u8>, e: &ApiError) {
    put_str(buf, e.code.code());
    put_str(buf, &e.message);
}

fn get_error(input: &mut &[u8]) -> Result<ApiError, ApiError> {
    let code = ErrorCode::from_code(get_str(input)?);
    let message = get_string(input)?;
    Ok(ApiError { code, message })
}

fn put_status(buf: &mut Vec<u8>, s: &ServerStatus) {
    put_varint(buf, s.active_queries.len() as u64);
    for &q in &s.active_queries {
        put_varint(buf, q);
    }
    put_varint(buf, s.running);
    put_varint(buf, s.waiting);
    put_varint(buf, s.sessions);
    put_varint(buf, s.tables.len() as u64);
    for t in &s.tables {
        put_str(buf, t);
    }
    put_str(buf, &s.index_store);
}

fn get_status(input: &mut &[u8]) -> Result<ServerStatus, ApiError> {
    let n = get_count(input)?;
    let mut active_queries = Vec::with_capacity(n);
    for _ in 0..n {
        active_queries.push(get_varint(input)?);
    }
    let running = get_varint(input)?;
    let waiting = get_varint(input)?;
    let sessions = get_varint(input)?;
    let t = get_count(input)?;
    let mut tables = Vec::with_capacity(t);
    for _ in 0..t {
        tables.push(get_string(input)?);
    }
    Ok(ServerStatus {
        active_queries,
        running,
        waiting,
        sessions,
        tables,
        index_store: get_string(input)?,
    })
}

// --------------------------------------------------------------------
// Message codecs
// --------------------------------------------------------------------

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the frame payload to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Hello { version } => {
                buf.push(1);
                put_u16(buf, *version);
            }
            Request::Query { sql } => {
                buf.push(2);
                put_str(buf, sql);
            }
            Request::Prepare { name, sql } => {
                buf.push(3);
                put_str(buf, name);
                put_str(buf, sql);
            }
            Request::Execute { name } => {
                buf.push(4);
                put_str(buf, name);
            }
            Request::Register { name, schema, rows } => {
                buf.push(5);
                put_str(buf, name);
                put_schema(buf, schema);
                put_rows(buf, rows);
            }
            Request::Kill { query_id } => {
                buf.push(6);
                put_varint(buf, *query_id);
            }
            Request::Metrics => buf.push(7),
            Request::Status => buf.push(8),
            Request::Shutdown => buf.push(9),
            Request::Goodbye => buf.push(10),
            Request::ListViews => buf.push(11),
            Request::Durability => buf.push(12),
        }
    }

    /// Decode a frame payload.
    ///
    /// # Errors
    /// [`ErrorCode::Protocol`] on unknown tags, truncation, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, ApiError> {
        let mut input = payload;
        let tag = get_u8(&mut input)?;
        let req = match tag {
            1 => Request::Hello {
                version: get_u16(&mut input)?,
            },
            2 => Request::Query {
                sql: get_string(&mut input)?,
            },
            3 => Request::Prepare {
                name: get_string(&mut input)?,
                sql: get_string(&mut input)?,
            },
            4 => Request::Execute {
                name: get_string(&mut input)?,
            },
            5 => Request::Register {
                name: get_string(&mut input)?,
                schema: get_schema(&mut input)?,
                rows: get_rows(&mut input)?,
            },
            6 => Request::Kill {
                query_id: get_varint(&mut input)?,
            },
            7 => Request::Metrics,
            8 => Request::Status,
            9 => Request::Shutdown,
            10 => Request::Goodbye,
            11 => Request::ListViews,
            12 => Request::Durability,
            other => return Err(ApiError::protocol(format!("unknown request tag {other}"))),
        };
        expect_end(input)?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the frame payload to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Hello { version, server } => {
                buf.push(1);
                put_u16(buf, *version);
                put_str(buf, server);
            }
            Response::ResultHeader { schema } => {
                buf.push(2);
                put_schema(buf, schema);
            }
            Response::RowBatch { rows } => put_row_batch(buf, rows),
            Response::StatementDone { stats } => {
                buf.push(4);
                put_stats(buf, stats);
            }
            Response::QueryDone => buf.push(5),
            Response::Error { error } => {
                buf.push(6);
                put_error(buf, error);
            }
            Response::Registered { rows } => {
                buf.push(7);
                put_varint(buf, *rows);
            }
            Response::Prepared { statements } => {
                buf.push(8);
                put_varint(buf, *statements);
            }
            Response::Killed { found } => {
                buf.push(9);
                put_bool(buf, *found);
            }
            Response::MetricsText { text } => {
                buf.push(10);
                put_str(buf, text);
            }
            Response::Status { status } => {
                buf.push(11);
                put_status(buf, status);
            }
            Response::Goodbye => buf.push(12),
            Response::Views { views } => {
                buf.push(13);
                put_views(buf, views);
            }
            Response::Durability { status } => {
                buf.push(14);
                put_durability(buf, status);
            }
        }
    }

    /// Decode a frame payload.
    ///
    /// # Errors
    /// [`ErrorCode::Protocol`] on unknown tags, truncation, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, ApiError> {
        let mut input = payload;
        let tag = get_u8(&mut input)?;
        let resp = match tag {
            1 => Response::Hello {
                version: get_u16(&mut input)?,
                server: get_string(&mut input)?,
            },
            2 => Response::ResultHeader {
                schema: get_schema(&mut input)?,
            },
            ROW_BATCH_TAG => Response::RowBatch {
                rows: get_rows(&mut input)?,
            },
            4 => Response::StatementDone {
                stats: get_stats(&mut input)?,
            },
            5 => Response::QueryDone,
            6 => Response::Error {
                error: get_error(&mut input)?,
            },
            7 => Response::Registered {
                rows: get_varint(&mut input)?,
            },
            8 => Response::Prepared {
                statements: get_varint(&mut input)?,
            },
            9 => Response::Killed {
                found: get_bool(&mut input)?,
            },
            10 => Response::MetricsText {
                text: get_string(&mut input)?,
            },
            11 => Response::Status {
                status: get_status(&mut input)?,
            },
            12 => Response::Goodbye,
            13 => Response::Views {
                views: get_views(&mut input)?,
            },
            14 => Response::Durability {
                status: get_durability(&mut input)?,
            },
            other => return Err(ApiError::protocol(format!("unknown response tag {other}"))),
        };
        expect_end(input)?;
        Ok(resp)
    }
}

// --------------------------------------------------------------------
// Frame I/O
// --------------------------------------------------------------------

/// Bytes before a frame's payload: the magic, then the length.
const FRAME_HEADER: usize = 6;

/// Capacity a [`FrameBuf`] keeps between writes. An outsized frame's buffer
/// is released once it is written, so one big answer does not pin its size
/// for the connection's life.
const RETAINED_CAPACITY: usize = 1 << 20;

/// Frames queued for one write. Each payload is encoded straight into the
/// buffer behind its header, and [`FrameBuf::write_to`] sends everything
/// queued with one `write_all`: a short reply of several frames leaves in
/// one write, and no payload is copied into a frame of its own.
///
/// A frame whose payload would pass [`MAX_FRAME_LEN`] is refused before any
/// byte of it is queued, so no peer ever reads a length it must reject.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// Queue one frame whose payload `encode` appends; refuse it (the buffer
    /// unchanged) when the payload passes the cap.
    fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), ApiError> {
        let start = self.buf.len();
        self.buf.extend_from_slice(&FRAME_MAGIC);
        self.buf.extend_from_slice(&[0; FRAME_HEADER - 2]);
        encode(&mut self.buf);
        let len = self.buf.len() - start - FRAME_HEADER;
        match u32::try_from(len) {
            Ok(len32) if len <= MAX_FRAME_LEN => {
                self.buf[start + 2..start + FRAME_HEADER].copy_from_slice(&len32.to_be_bytes());
                Ok(())
            }
            _ => {
                self.buf.truncate(start);
                Err(ApiError::protocol(format!(
                    "frame length {len} exceeds cap {MAX_FRAME_LEN}"
                )))
            }
        }
    }

    /// Queue a request frame.
    ///
    /// # Errors
    /// [`ErrorCode::Protocol`] when its payload passes [`MAX_FRAME_LEN`].
    pub fn push_request(&mut self, req: &Request) -> Result<(), ApiError> {
        self.push(|buf| req.encode_into(buf))
    }

    /// Queue a response frame.
    ///
    /// # Errors
    /// [`ErrorCode::Protocol`] when its payload passes [`MAX_FRAME_LEN`].
    pub fn push_response(&mut self, resp: &Response) -> Result<(), ApiError> {
        self.push(|buf| resp.encode_into(buf))
    }

    /// Queue a `RowBatch` frame of the first rows of `rows`, encoded straight
    /// from the borrowed slice: all of them when their payload fits under
    /// [`MAX_FRAME_LEN`], else the longest halving that does. Returns how
    /// many rows the frame holds. Each frame is byte for byte
    /// `Response::RowBatch { rows: taken.to_vec() }.encode()`.
    ///
    /// # Errors
    /// [`ErrorCode::Protocol`] when one row alone passes the cap.
    pub fn push_row_batch(&mut self, rows: &[Row]) -> Result<usize, ApiError> {
        let mut n = rows.len();
        loop {
            match self.push(|buf| put_row_batch(buf, &rows[..n])) {
                Ok(()) => return Ok(n),
                Err(_) if n > 1 => n /= 2,
                Err(e) => return Err(e),
            }
        }
    }

    /// Send every queued frame with one write, then flush. The buffer is
    /// empty afterwards whether or not the write succeeded.
    ///
    /// # Errors
    /// [`ErrorCode::Io`] on transport errors.
    pub fn write_to(&mut self, w: &mut impl Write) -> Result<(), ApiError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "frames go to a socket, not to disk"
        )]
        let sent = w.write_all(&self.buf).and_then(|()| w.flush());
        self.buf.clear();
        if self.buf.capacity() > RETAINED_CAPACITY {
            self.buf = Vec::new();
        }
        sent.map_err(|e| ApiError::io(&e))
    }
}

/// Write one frame (magic, length, payload) and flush.
///
/// # Errors
/// - [`ErrorCode::Protocol`] when the payload passes [`MAX_FRAME_LEN`];
///   nothing is sent.
/// - [`ErrorCode::Io`] on transport errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ApiError> {
    let mut frames = FrameBuf::default();
    frames.push(|buf| buf.extend_from_slice(payload))?;
    frames.write_to(w)
}

/// Read one frame payload.
///
/// # Errors
/// - [`ErrorCode::ConnectionClosed`] on clean EOF before a frame starts.
/// - [`ErrorCode::Protocol`] on bad magic, oversized length, or truncation.
/// - [`ErrorCode::Io`] on transport errors.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ApiError> {
    let mut magic = [0u8; 2];
    read_exact_or(r, &mut magic, ErrorCode::ConnectionClosed)?;
    if magic != FRAME_MAGIC {
        return Err(ApiError::protocol(format!(
            "bad frame magic {magic:02x?} (expected \"RQ\")"
        )));
    }
    let mut len_bytes = [0u8; 4];
    read_exact_or(r, &mut len_bytes, ErrorCode::Protocol)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ApiError::protocol(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, ErrorCode::Protocol)?;
    Ok(payload)
}

/// `read_exact` with EOF mapped to `eof_code` ("connection closed" at a frame
/// boundary, "truncated frame" inside one) and other I/O errors to `Io`.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], eof_code: ErrorCode) -> Result<(), ApiError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            let what = match eof_code {
                ErrorCode::ConnectionClosed => "peer closed the connection",
                _ => "truncated frame",
            };
            ApiError::new(eof_code, what)
        } else {
            ApiError::io(&e)
        }
    })
}

/// Encode and send a request as one frame.
///
/// # Errors
/// As [`FrameBuf::push_request`] and [`FrameBuf::write_to`].
pub fn send_request(w: &mut impl Write, req: &Request) -> Result<(), ApiError> {
    let mut frames = FrameBuf::default();
    frames.push_request(req)?;
    frames.write_to(w)
}

/// Encode and send a response as one frame.
///
/// # Errors
/// As [`FrameBuf::push_response`] and [`FrameBuf::write_to`].
pub fn send_response(w: &mut impl Write, resp: &Response) -> Result<(), ApiError> {
    let mut frames = FrameBuf::default();
    frames.push_response(resp)?;
    frames.write_to(w)
}

/// Append a `RowBatch` payload over borrowed rows.
fn put_row_batch(buf: &mut Vec<u8>, rows: &[Row]) {
    buf.push(ROW_BATCH_TAG);
    put_rows(buf, rows);
}

/// Read and decode one request frame.
///
/// # Errors
/// As [`read_frame`], plus [`ErrorCode::Protocol`] on malformed payloads.
pub fn read_request(r: &mut impl Read) -> Result<Request, ApiError> {
    Request::decode(&read_frame(r)?)
}

/// Read and decode one response frame.
///
/// # Errors
/// As [`read_frame`], plus [`ErrorCode::Protocol`] on malformed payloads.
pub fn read_response(r: &mut impl Read) -> Result<Response, ApiError> {
    Response::decode(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = buf.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
    }

    #[test]
    fn oversized_frame_is_refused_before_sending() {
        let mut sent = Vec::new();
        let err = write_frame(&mut sent, &vec![0; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(sent.is_empty(), "{} bytes sent", sent.len());
    }

    #[test]
    fn eof_at_boundary_is_connection_closed() {
        let mut empty: &[u8] = &[];
        let err = read_frame(&mut empty).unwrap_err();
        assert_eq!(err.code, ErrorCode::ConnectionClosed);
    }

    #[test]
    fn garbage_prefix_rejected() {
        let mut garbage: &[u8] = b"GET / HTTP/1.1\r\n";
        let err = read_frame(&mut garbage).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = frame.as_slice();
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
    }

    #[test]
    fn request_round_trip() {
        let reqs = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Query {
                sql: "SELECT 1".into(),
            },
            Request::Kill { query_id: 7 },
            Request::Metrics,
            Request::Goodbye,
            Request::ListViews,
            Request::Durability,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn views_response_round_trips() {
        let resp = Response::Views {
            views: vec![
                ViewInfo {
                    name: "paths".into(),
                    version: 3,
                    stale: true,
                    retained_bytes: 4096,
                    last_refresh: "incremental".into(),
                },
                ViewInfo {
                    name: "reach".into(),
                    version: 1,
                    stale: false,
                    retained_bytes: 0,
                    last_refresh: "full".into(),
                },
            ],
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        assert_eq!(
            Response::decode(&Response::Views { views: vec![] }.encode()).unwrap(),
            Response::Views { views: vec![] }
        );
    }

    #[test]
    fn durability_response_round_trips() {
        let present = Response::Durability {
            status: Some(DurabilityStatus {
                data_dir: "/var/lib/rasql".into(),
                wal_records: 42,
                wal_bytes: 8192,
                snapshots: 3,
                last_snapshot_bytes: 65536,
            }),
        };
        assert_eq!(Response::decode(&present.encode()).unwrap(), present);
        let absent = Response::Durability { status: None };
        assert_eq!(Response::decode(&absent.encode()).unwrap(), absent);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Request::Metrics.encode();
        payload.push(0xff);
        let err = Request::decode(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
    }
}
