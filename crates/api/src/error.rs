//! Typed, stable error codes for the wire surface.
//!
//! The compile-time verifier already stamps its diagnostics with `RA00xx`
//! (stratification/safety), `RA01xx` (PreM), and `RA02xx` (partition
//! certificates). The wire surface extends the same partitioned code space so
//! a client can branch on a failure class without parsing prose:
//!
//! | range | class |
//! |---|---|
//! | `RA0300` | SQL parse errors |
//! | `RA0400` | analysis / planning errors (including verifier rejections) |
//! | `RA0500` | storage and catalog errors |
//! | `RA0501` | unknown materialized view |
//! | `RA0601`–`RA0606` | execution & governance (panic, cancel, deadline, memory, spill I/O, admission) |
//! | `RA0700` | fixpoint non-termination (iteration cap) |
//! | `RA0901`–`RA0906` | protocol & session (malformed frame, version, unknown prepared name, connection closed, server shutdown, transport I/O) |
//! | `RA0999` | anything else (internal) |
//!
//! Codes are part of the versioned protocol: existing codes never change
//! meaning; new failure classes get new codes.

use std::fmt;

/// Stable machine-readable failure class, `RA####`-coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// `RA0300` — the SQL text failed to parse.
    Parse,
    /// `RA0400` — the statement failed analysis or planning.
    Plan,
    /// `RA0500` — a storage or catalog operation failed.
    Storage,
    /// `RA0501` — a statement named a materialized view that does not exist.
    UnknownView,
    /// `RA0601` — execution failed (task panic or retries exhausted).
    ExecutionFailed,
    /// `RA0602` — the query was cooperatively cancelled (kill or disconnect).
    Cancelled,
    /// `RA0603` — the query exceeded its deadline.
    DeadlineExceeded,
    /// `RA0604` — an allocation could not fit the memory budget even after
    /// spilling.
    MemoryExceeded,
    /// `RA0605` — a spill file could not be written or read back.
    SpillIo,
    /// `RA0606` — the admission wait queue was full; the query was rejected.
    AdmissionRejected,
    /// `RA0700` — a fixpoint hit the iteration cap without converging.
    NonTermination,
    /// `RA0901` — a malformed frame: bad magic, bad length, unknown tag, or
    /// truncated payload.
    Protocol,
    /// `RA0902` — client and server speak different protocol versions.
    VersionMismatch,
    /// `RA0903` — `EXECUTE` named a statement this session never prepared.
    UnknownPrepared,
    /// `RA0904` — the peer closed the connection mid-exchange.
    ConnectionClosed,
    /// `RA0905` — the server is draining for shutdown and takes no new work.
    ServerShutdown,
    /// `RA0906` — a transport-level I/O error.
    Io,
    /// `RA0999` — an internal error with no more specific class.
    Internal,
}

impl ErrorCode {
    /// The stable `RA####` code string.
    pub fn code(self) -> &'static str {
        match self {
            ErrorCode::Parse => "RA0300",
            ErrorCode::Plan => "RA0400",
            ErrorCode::Storage => "RA0500",
            ErrorCode::UnknownView => "RA0501",
            ErrorCode::ExecutionFailed => "RA0601",
            ErrorCode::Cancelled => "RA0602",
            ErrorCode::DeadlineExceeded => "RA0603",
            ErrorCode::MemoryExceeded => "RA0604",
            ErrorCode::SpillIo => "RA0605",
            ErrorCode::AdmissionRejected => "RA0606",
            ErrorCode::NonTermination => "RA0700",
            ErrorCode::Protocol => "RA0901",
            ErrorCode::VersionMismatch => "RA0902",
            ErrorCode::UnknownPrepared => "RA0903",
            ErrorCode::ConnectionClosed => "RA0904",
            ErrorCode::ServerShutdown => "RA0905",
            ErrorCode::Io => "RA0906",
            ErrorCode::Internal => "RA0999",
        }
    }

    /// Parse a code string back into its class; unknown codes (from a newer
    /// peer) land on [`ErrorCode::Internal`] rather than failing.
    pub fn from_code(code: &str) -> Self {
        match code {
            "RA0300" => ErrorCode::Parse,
            "RA0400" => ErrorCode::Plan,
            "RA0500" => ErrorCode::Storage,
            "RA0501" => ErrorCode::UnknownView,
            "RA0601" => ErrorCode::ExecutionFailed,
            "RA0602" => ErrorCode::Cancelled,
            "RA0603" => ErrorCode::DeadlineExceeded,
            "RA0604" => ErrorCode::MemoryExceeded,
            "RA0605" => ErrorCode::SpillIo,
            "RA0606" => ErrorCode::AdmissionRejected,
            "RA0700" => ErrorCode::NonTermination,
            "RA0901" => ErrorCode::Protocol,
            "RA0902" => ErrorCode::VersionMismatch,
            "RA0903" => ErrorCode::UnknownPrepared,
            "RA0904" => ErrorCode::ConnectionClosed,
            "RA0905" => ErrorCode::ServerShutdown,
            "RA0906" => ErrorCode::Io,
            _ => ErrorCode::Internal,
        }
    }

    /// All defined codes (for exhaustive wire tests).
    pub fn all() -> [ErrorCode; 18] {
        [
            ErrorCode::Parse,
            ErrorCode::Plan,
            ErrorCode::Storage,
            ErrorCode::UnknownView,
            ErrorCode::ExecutionFailed,
            ErrorCode::Cancelled,
            ErrorCode::DeadlineExceeded,
            ErrorCode::MemoryExceeded,
            ErrorCode::SpillIo,
            ErrorCode::AdmissionRejected,
            ErrorCode::NonTermination,
            ErrorCode::Protocol,
            ErrorCode::VersionMismatch,
            ErrorCode::UnknownPrepared,
            ErrorCode::ConnectionClosed,
            ErrorCode::ServerShutdown,
            ErrorCode::Io,
            ErrorCode::Internal,
        ]
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A wire-facing error: a stable class code plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The stable failure class.
    pub code: ErrorCode,
    /// Human-readable detail (not stable; never branch on it).
    pub message: String,
}

impl ApiError {
    /// Build an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for a protocol-level (malformed frame) error.
    pub fn protocol(message: impl Into<String>) -> Self {
        ApiError::new(ErrorCode::Protocol, message)
    }

    /// Shorthand for a transport I/O error.
    pub fn io(err: &std::io::Error) -> Self {
        ApiError::new(ErrorCode::Io, err.to_string())
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// A payload the codec rejects is a malformed frame.
impl From<crate::codec::CodecError> for ApiError {
    fn from(e: crate::codec::CodecError) -> Self {
        ApiError::protocol(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in ErrorCode::all() {
            assert_eq!(ErrorCode::from_code(code.code()), code);
        }
        assert_eq!(ErrorCode::from_code("RA9999"), ErrorCode::Internal);
    }

    #[test]
    fn display_includes_code() {
        let e = ApiError::new(ErrorCode::Cancelled, "query 3 cancelled");
        assert_eq!(e.to_string(), "error[RA0602]: query 3 cancelled");
    }
}
