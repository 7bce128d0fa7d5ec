#![deny(missing_docs)]

//! # rasql-api
//!
//! The stable, wire-facing surface of the RaSQL reproduction: the types a
//! client sees, with no dependency on the engine's internals (or on anything
//! else — this crate is std-only by design, so embedding a client costs
//! nothing).
//!
//! Three layers:
//!
//! - **Data**: [`Value`], [`Row`], [`Schema`] — the engine's own runtime
//!   representation, re-exported by `rasql-storage`, so results cross the
//!   API boundary without conversion.
//! - **Results & errors**: [`QueryResult`] / [`QueryStats`] (the stable
//!   subset of execution statistics) and [`ApiError`] / [`ErrorCode`] —
//!   every failure carries a stable `RA####` class code extending the
//!   compile-time verifier's diagnostic scheme (see [`error`] for the full
//!   code table).
//! - **Protocol**: [`wire`] — the versioned framed request/response protocol
//!   spoken between `rasql-server` and `rasql-client`. Frames are
//!   `"RQ" + u32 length + payload`; payloads are built from [`codec`] (see
//!   [`wire`] for the framing, versioning, and conversation rules). The
//!   current version is [`wire::PROTOCOL_VERSION`].
//!
//! [`codec`] is the engine's one byte codec — varints, strings, schemas,
//! tagged values and column-lane row batches — which the WAL, snapshots,
//! checkpoints, spill files and broadcast payloads share with
//! the wire.
//!
//! The protocol never serializes internal executor types: servers translate
//! engine results and errors into the types here, and the translation — not
//! the engine — is what [`wire::PROTOCOL_VERSION`] freezes.

pub mod codec;
pub mod error;
pub mod result;
pub mod row;
pub mod schema;
pub mod value;
pub mod wire;

pub use error::{ApiError, ErrorCode};
pub use result::{DurabilityStatus, QueryResult, QueryStats, ServerStatus, ViewInfo};
pub use row::{int_row, Row};
pub use schema::{DataType, Field, Schema};
pub use value::Value;
