//! In-memory relations: a schema plus a bag of rows, with text ingestion and
//! the small utility operations (sort, dedup, pretty-print) the test and bench
//! harnesses use everywhere.

use crate::error::StorageError;
use crate::hasher::FxHashSet;
use crate::row::Row;
use crate::schema::{DataType, Schema};
use crate::value::Value;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// A schema plus rows. Bag semantics: duplicates are allowed until an explicit
/// `dedup`, matching SQL.
///
/// The rows sit behind an `Arc`, so `Clone` is O(1) and a catalog snapshot, a
/// scan's partitions, a query result, a result-cache entry and a wire result
/// can all be the same allocation. Mutators copy on write: they work in place
/// while this relation holds the only reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    rows: Arc<Vec<Row>>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation::new_unchecked(schema, vec![])
    }

    /// Build from schema and rows, validating arity.
    pub fn try_new(schema: Schema, rows: Vec<Row>) -> Result<Self, StorageError> {
        if let Some(bad) = rows.iter().find(|r| r.arity() != schema.arity()) {
            return Err(StorageError::ArityMismatch {
                expected: schema.arity(),
                actual: bad.arity(),
            });
        }
        Ok(Relation::new_unchecked(schema, rows))
    }

    /// Build without validation (hot paths that construct rows internally).
    pub fn new_unchecked(schema: Schema, rows: Vec<Row>) -> Self {
        Relation::from_shared(schema, Arc::new(rows))
    }

    /// Build over an already-shared row buffer without touching a row.
    pub fn from_shared(schema: Schema, rows: Arc<Vec<Row>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.arity() == schema.arity()));
        Relation { schema, rows }
    }

    /// Integer edge list `(src, dst)` — the pervasive graph-workload shape.
    pub fn edges(pairs: &[(i64, i64)]) -> Self {
        let schema = Schema::new(vec![("src", DataType::Int), ("dst", DataType::Int)]);
        let rows = pairs
            .iter()
            .map(|&(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
            .collect();
        Relation::new_unchecked(schema, rows)
    }

    /// Weighted integer edge list `(src, dst, cost)`.
    pub fn weighted_edges(triples: &[(i64, i64, f64)]) -> Self {
        let schema = Schema::new(vec![
            ("src", DataType::Int),
            ("dst", DataType::Int),
            ("cost", DataType::Double),
        ]);
        let rows = triples
            .iter()
            .map(|&(s, d, c)| Row::new(vec![Value::Int(s), Value::Int(d), Value::Double(c)]))
            .collect();
        Relation::new_unchecked(schema, rows)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows slice.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The shared row buffer itself (an `Arc` clone of it shares the rows).
    pub fn shared_rows(&self) -> &Arc<Vec<Row>> {
        &self.rows
    }

    /// The rows, to change: in place when this relation holds the only
    /// reference to its buffer, in a copy otherwise (copy-on-write).
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        Arc::make_mut(&mut self.rows)
    }

    /// Consume into rows: moved when this relation holds the only reference
    /// to its buffer, cloned otherwise.
    pub fn into_rows(self) -> Vec<Row> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row (arity checked in debug builds only).
    pub fn push(&mut self, row: Row) {
        debug_assert_eq!(row.arity(), self.schema.arity());
        Arc::make_mut(&mut self.rows).push(row);
    }

    /// Append rows (arity checked in debug builds only): in place when this
    /// relation holds the only reference to its buffer, otherwise into one
    /// fresh buffer sized for both, leaving the shared one untouched.
    pub fn append(&mut self, rows: Vec<Row>) {
        debug_assert!(rows.iter().all(|r| r.arity() == self.schema.arity()));
        if let Some(own) = Arc::get_mut(&mut self.rows) {
            own.extend(rows);
        } else {
            let mut grown = Vec::with_capacity(self.rows.len() + rows.len());
            grown.extend_from_slice(&self.rows);
            grown.extend(rows);
            self.rows = Arc::new(grown);
        }
    }

    /// Sort rows lexicographically — gives deterministic output for tests.
    pub fn sorted(mut self) -> Self {
        Arc::make_mut(&mut self.rows).sort_unstable();
        self
    }

    /// Remove duplicate rows (set semantics), preserving first occurrence.
    pub fn dedup(mut self) -> Self {
        let mut seen: FxHashSet<Row> = FxHashSet::default();
        Arc::make_mut(&mut self.rows).retain(|r| seen.insert(r.clone()));
        self
    }

    /// Total approximate size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.rows.iter().map(Row::size_bytes).sum()
    }

    /// Load a whitespace/comma-separated text file of typed columns
    /// (the format used for graph edge lists: one edge per line, `#` comments).
    pub fn load_text(path: &Path, schema: Schema) -> Result<Self, StorageError> {
        let content = std::fs::read_to_string(path)?;
        Self::parse_text(&content, schema)
    }

    /// Parse edge-list style text into a relation per the schema types.
    pub fn parse_text(content: &str, schema: Schema) -> Result<Self, StorageError> {
        let mut rows = Vec::new();
        for (lineno, line) in content.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line
                .split(|c: char| c == ',' || c.is_whitespace())
                .filter(|p| !p.is_empty())
                .collect();
            if parts.len() != schema.arity() {
                return Err(StorageError::Parse(format!(
                    "line {}: expected {} fields, got {}",
                    lineno + 1,
                    schema.arity(),
                    parts.len()
                )));
            }
            let mut values = Vec::with_capacity(parts.len());
            for (part, field) in parts.iter().zip(schema.fields()) {
                let v =
                    match field.data_type {
                        DataType::Int => Value::Int(part.parse::<i64>().map_err(|e| {
                            StorageError::Parse(format!("line {}: {e}", lineno + 1))
                        })?),
                        DataType::Double => Value::Double(part.parse::<f64>().map_err(|e| {
                            StorageError::Parse(format!("line {}: {e}", lineno + 1))
                        })?),
                        DataType::Bool => Value::Bool(part.eq_ignore_ascii_case("true")),
                        DataType::Str | DataType::Any => Value::from(*part),
                    };
                values.push(v);
            }
            rows.push(Row::new(values));
        }
        Ok(Relation::new_unchecked(schema, rows))
    }

    /// Write as one-row-per-line text (inverse of [`Relation::parse_text`]).
    pub fn save_text(&self, path: &Path) -> Result<(), StorageError> {
        let mut out = String::new();
        for row in self.rows.iter() {
            for (i, v) in row.values().iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        std::fs::write(path, out)?;
        Ok(())
    }

    /// Pretty table for the examples/README output.
    pub fn pretty(&self, max_rows: usize) -> String {
        let mut s = String::new();
        let names = self.schema.names();
        s.push_str(&names.join(" | "));
        s.push('\n');
        s.push_str(&"-".repeat(names.join(" | ").len().max(8)));
        s.push('\n');
        for row in self.rows.iter().take(max_rows) {
            let cells: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
            s.push_str(&cells.join(" | "));
            s.push('\n');
        }
        if self.rows.len() > max_rows {
            s.push_str(&format!("... ({} rows total)\n", self.rows.len()));
        }
        s
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    #[test]
    fn build_and_validate() {
        let schema = Schema::new(vec![("a", DataType::Int)]);
        assert!(Relation::try_new(schema.clone(), vec![int_row(&[1])]).is_ok());
        assert!(matches!(
            Relation::try_new(schema, vec![int_row(&[1, 2])]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn dedup_preserves_first() {
        let r = Relation::edges(&[(1, 2), (1, 2), (2, 3)]).dedup();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn clone_shares_rows_and_mutation_copies_on_write() {
        let a = Relation::edges(&[(1, 2), (2, 3)]);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(a.shared_rows(), b.shared_rows()));
        // Shared: the append builds a fresh buffer and `a` keeps its rows.
        b.append(vec![int_row(&[3, 4])]);
        assert!(!Arc::ptr_eq(a.shared_rows(), b.shared_rows()));
        assert_eq!((a.len(), b.len()), (2, 3));
        // Unique: the next append grows the same buffer in place.
        let own = Arc::as_ptr(b.shared_rows());
        b.append(vec![int_row(&[4, 5])]);
        b.push(int_row(&[5, 6]));
        assert_eq!(Arc::as_ptr(b.shared_rows()), own);
        assert_eq!(
            b.rows()[2..],
            [int_row(&[3, 4]), int_row(&[4, 5]), int_row(&[5, 6])]
        );
        // Sorting a shared relation leaves the other holder's order alone.
        let sorted = Relation::edges(&[(2, 1), (1, 1)]);
        let keep = sorted.clone();
        assert_eq!(sorted.sorted().rows()[0], int_row(&[1, 1]));
        assert_eq!(keep.rows()[0], int_row(&[2, 1]));
    }

    #[test]
    fn into_rows_moves_when_unique_and_clones_when_shared() {
        let a = Relation::edges(&[(1, 2)]);
        let first = a.rows()[0].values().as_ptr();
        let keep = a.clone();
        let cloned = a.into_rows();
        assert_ne!(cloned[0].values().as_ptr(), first);
        assert_eq!(keep.into_rows()[0].values().as_ptr(), first);
    }

    #[test]
    fn parse_text_formats() {
        let schema = Schema::new(vec![("s", DataType::Int), ("d", DataType::Int)]);
        let r = Relation::parse_text("# comment\n1 2\n3,4\n\n5\t6\n", schema).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows()[2], int_row(&[5, 6]));
    }

    #[test]
    fn parse_text_rejects_bad_arity() {
        let schema = Schema::new(vec![("s", DataType::Int)]);
        assert!(Relation::parse_text("1 2\n", schema).is_err());
    }

    #[test]
    fn text_round_trip() {
        let dir = std::env::temp_dir().join("rasql_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        let r = Relation::weighted_edges(&[(1, 2, 0.5), (2, 3, 1.5)]);
        r.save_text(&path).unwrap();
        let schema = r.schema().clone();
        let r2 = Relation::load_text(&path, schema).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn pretty_truncates() {
        let r = Relation::edges(&[(1, 2), (2, 3), (3, 4)]);
        let p = r.pretty(2);
        assert!(p.contains("(3 rows total)"));
    }
}
