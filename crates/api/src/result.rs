//! Wire-facing query results and statistics.
//!
//! These are deliberately *not* the engine's internal result types: the
//! protocol serializes only what a remote client can reason about (rows,
//! iteration counts, a stable subset of runtime counters), so internal
//! executor types can evolve without a wire version bump.

use crate::row::Row;
use crate::schema::Schema;
use std::sync::Arc;

/// Stable per-statement execution statistics.
///
/// A subset of the engine's runtime counters chosen for wire stability; the
/// governance numbers (`peak_memory`, `spilled_bytes`, `spill_files`) are the
/// statement's own, exact even under concurrent sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// The server-assigned query id (the handle `Kill` takes); 0 for
    /// statements that never entered execution (e.g. `CREATE VIEW`).
    pub query_id: u64,
    /// Wall-clock execution time in microseconds.
    pub elapsed_us: u64,
    /// Total fixpoint iterations across the statement's recursive cliques.
    pub iterations: u64,
    /// Execution stages scheduled.
    pub stages: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Rows moved through shuffle exchanges.
    pub shuffle_rows: u64,
    /// Bytes moved through shuffle exchanges.
    pub shuffle_bytes: u64,
    /// High-water mark of governed memory for this statement, in bytes.
    pub peak_memory: u64,
    /// Bytes this statement spilled to disk under memory pressure.
    pub spilled_bytes: u64,
    /// Spill files this statement wrote.
    pub spill_files: u64,
}

/// One statement's complete result as it travels over the wire.
///
/// Servers stream this in pieces (`ResultHeader`, then `RowBatch` frames,
/// then `StatementDone`); clients reassemble it into this shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Result schema (empty for statements with no rows, e.g. `CREATE VIEW`).
    pub schema: Schema,
    /// The result rows, behind an `Arc` so a server hands the engine's own
    /// row buffer to the wire without copying it; reads as a `&[Row]`.
    pub rows: Arc<Vec<Row>>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Rows sorted lexicographically — the canonical order for differential
    /// comparison against another execution of the same statement.
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows = self.rows.to_vec();
        rows.sort_unstable();
        rows
    }
}

/// One materialized view's status, as returned by `ListViews`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewInfo {
    /// View name.
    pub name: String,
    /// Monotonically increasing version, bumped on every refresh.
    pub version: u64,
    /// Whether a base relation changed since the last refresh.
    pub stale: bool,
    /// Bytes of converged fixpoint state kept resident for delta-seeded
    /// refresh.
    pub retained_bytes: u64,
    /// How the last refresh ran: `"full"`, `"incremental"`, or `"none"`
    /// for a view that has never been refreshed since creation.
    pub last_refresh: String,
}

/// A point-in-time description of an engine's durability subsystem, as
/// returned by `Durability` (and the shell's `\durability`). All counters
/// are since the current process attached to the data directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// The data directory the write-ahead log and snapshots live in.
    pub data_dir: String,
    /// Records currently in the write-ahead log (since the last snapshot).
    pub wal_records: u64,
    /// Bytes currently in the write-ahead log.
    pub wal_bytes: u64,
    /// Snapshots published (log compactions) by this process.
    pub snapshots: u64,
    /// Size in bytes of the most recently published snapshot.
    pub last_snapshot_bytes: u64,
}

/// A point-in-time description of a server, as returned by `Status`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStatus {
    /// Ids of queries currently executing, ascending.
    pub active_queries: Vec<u64>,
    /// Queries currently admitted (holding an execution slot).
    pub running: u64,
    /// Queries blocked in the admission wait queue.
    pub waiting: u64,
    /// Open client sessions.
    pub sessions: u64,
    /// Names of the registered base tables, sorted.
    pub tables: Vec<String>,
    /// One line on the index store: entries, bytes, builds, advances,
    /// rebuilds and probes since the server started.
    pub index_store: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;
    use crate::schema::DataType;

    #[test]
    fn sorted_rows_are_canonical() {
        let r = QueryResult {
            schema: Schema::new(vec![("x", DataType::Int)]),
            rows: Arc::new(vec![int_row(&[3]), int_row(&[1]), int_row(&[2])]),
            stats: QueryStats::default(),
        };
        assert_eq!(
            r.sorted_rows(),
            vec![int_row(&[1]), int_row(&[2]), int_row(&[3])]
        );
    }
}
