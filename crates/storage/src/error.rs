//! Storage-layer errors.

use std::fmt;

/// Errors from the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// Row arity does not match relation schema.
    ArityMismatch {
        /// Arity the schema expects.
        expected: usize,
        /// Arity the row actually has.
        actual: usize,
    },
    /// Unknown table name in a catalog lookup.
    UnknownTable(String),
    /// A table with this name is already registered.
    DuplicateTable(String),
    /// Malformed input during CSV/text ingestion.
    Parse(String),
    /// Codec error (corrupt varint stream etc).
    Codec(String),
    /// A durability record (WAL frame or snapshot) failed its CRC or shape
    /// check at a position that cannot be explained by a torn tail write.
    Corrupt {
        /// Byte offset of the bad record within its file.
        offset: u64,
        /// What exactly failed (CRC mismatch, bad tag, truncated field...).
        detail: String,
    },
    /// An intact durability file written in a format this build does not
    /// read (an older or newer release's WAL or snapshot).
    UnsupportedFormat {
        /// Which file kind ("snapshot", "wal record").
        what: &'static str,
        /// The format the file carries.
        found: u32,
        /// The format this build reads and writes.
        expected: u32,
    },
    /// A deterministic crashpoint fired: the durability layer simulated
    /// process death at the named write/fsync/rename boundary.
    InjectedCrash(String),
    /// A derived table's patch was made for rows the table does not hold.
    Conflict(String),
    /// Underlying IO error.
    Io(std::io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row arity {actual} does not match schema arity {expected}"
                )
            }
            StorageError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            StorageError::DuplicateTable(t) => write!(f, "table '{t}' already exists"),
            StorageError::Parse(m) => write!(f, "parse error: {m}"),
            StorageError::Codec(m) => write!(f, "codec error: {m}"),
            StorageError::Corrupt { offset, detail } => {
                write!(f, "corrupt durability record at byte {offset}: {detail}")
            }
            StorageError::UnsupportedFormat {
                what,
                found,
                expected,
            } => write!(
                f,
                "{what} is in format {found}; this build reads format {expected}"
            ),
            StorageError::InjectedCrash(site) => write!(f, "injected crash at {site}"),
            StorageError::Conflict(m) => write!(f, "conflicting write: {m}"),
            StorageError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<rasql_api::codec::CodecError> for StorageError {
    fn from(e: rasql_api::codec::CodecError) -> Self {
        StorageError::Codec(e.to_string())
    }
}
