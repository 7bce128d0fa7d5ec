#![warn(missing_docs)]

//! # rasql-storage
//!
//! The storage substrate of the RaSQL reproduction: in-memory relations,
//! hash partitioning, a fast non-cryptographic hasher, compressed broadcast
//! of base relations (paper §7.2), and the durability files (WAL,
//! snapshots), whose bytes all come from the shared codec in
//! `rasql_api::codec`.
//!
//! The dynamically-typed value, row, and schema types live in the
//! dependency-light `rasql-api` crate (they are part of the engine's stable
//! wire surface) and are re-exported here at their historical paths, so
//! everything above this crate (parser, planner, executor, fixpoint
//! operator) keeps manipulating data through `rasql_storage::{Value, Row,
//! Schema}` — which *are* the wire types, no conversion needed.
//!
//! ## Quick tour
//!
//! ```
//! use rasql_storage::{Relation, Schema, DataType, Value, Row};
//!
//! let schema = Schema::new(vec![
//!     ("src", DataType::Int),
//!     ("dst", DataType::Int),
//! ]);
//! let mut rel = Relation::empty(schema);
//! rel.push(Row::from(vec![Value::Int(1), Value::Int(2)]));
//! rel.push(Row::from(vec![Value::Int(2), Value::Int(3)]));
//! assert_eq!(rel.len(), 2);
//! ```

pub mod catalog;
pub mod codec;
pub mod crashpoint;
pub mod csr;
pub mod error;
pub mod hasher;
pub mod index;
pub mod keys;
pub mod partition;
pub mod relation;
pub mod snapshot;
pub mod sync;
pub mod wal;

/// Re-export of the wire-facing row type (now defined in `rasql-api`, kept
/// at its historical path here).
pub mod row {
    pub use rasql_api::row::*;
}

/// Re-export of the wire-facing schema types (now defined in `rasql-api`).
pub mod schema {
    pub use rasql_api::schema::*;
}

/// Re-export of the wire-facing value type (now defined in `rasql-api`).
pub mod value {
    pub use rasql_api::value::*;
}

pub use catalog::{Catalog, Derived, KeyLookup, RowPatch, TableVersion};
pub use crashpoint::{CrashInjector, CrashSpec, CRASH_SITES};
pub use csr::{CsrGraph, CsrWeight, InEdges};
pub use error::StorageError;
pub use hasher::{splitmix64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{
    Fetch, HashIndex, HashTable, Index, IndexDep, IndexKey, IndexLayout, IndexStats, IndexStore,
    WordIndex, WordMatches, WordShape, WordTable,
};
pub use keys::{KeyCell, KeyIndex};
pub use partition::{hash_partition, partition_rows, Partitioning};
pub use relation::Relation;
pub use row::Row;
pub use schema::{DataType, Field, Schema};
pub use snapshot::DurableState;
pub use sync::{LockRank, RankedCondvarMutex, RankedMutex, RankedRwLock};
pub use value::Value;
pub use wal::{TableImage, ViewDelta, ViewDep, ViewImage, Wal, WalRecord, WalStats};
