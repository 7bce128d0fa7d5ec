//! Row batches for the crates above storage, and broadcast compression
//! (paper §7.2).
//!
//! The row-batch functions are the shared codec's ([`rasql_api::codec`]),
//! re-exported at this historical path for the executor's checkpoints and
//! spill files.
//!
//! The paper's decomposed-plan optimization broadcasts the base relation to every
//! worker. Spark's default builds the hash table on the master and ships it
//! (2-3x larger than the raw data); RaSQL instead ships a *compressed* edge list
//! and lets each worker build its own hash table. We reproduce that by sorting
//! the rows and writing them as one row batch: sorted integer columns become
//! small zigzag deltas (the CSR analog), doubles raw bits, anything else
//! tagged values.

use crate::error::StorageError;
use crate::row::Row;
use crate::schema::Schema;
pub use rasql_api::codec::{
    decode_lanes, decode_rows, encode_rows, expect_end, get_rows, put_rows, LaneBatch, LaneColumn,
};

/// A compressed, broadcast-ready encoding of a relation. It decompresses to
/// the original bag of rows, sorted — order is immaterial for hash-table
/// builds.
#[derive(Debug, Clone)]
pub struct CompressedRelation {
    schema: Schema,
    payload: Vec<u8>,
    rows: usize,
}

impl CompressedRelation {
    /// Compress rows of `schema`.
    pub fn compress(schema: &Schema, rows: &[Row]) -> Self {
        let mut sorted: Vec<&Row> = rows.iter().collect();
        sorted.sort_unstable();
        CompressedRelation {
            schema: schema.clone(),
            payload: encode_rows(&sorted),
            rows: rows.len(),
        }
    }

    /// Compressed payload size in bytes (what would cross the network).
    pub fn size_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no rows are encoded.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The schema of the encoded relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Decompress back to rows.
    pub fn decompress(&self) -> Result<Vec<Row>, StorageError> {
        Ok(decode_rows(&self.payload)?)
    }

    /// Decompress to columns, rows in the order [`decompress`](Self::decompress)
    /// gives them: packed columns stay words and no row is built.
    pub fn decompress_lanes(&self) -> Result<LaneBatch, StorageError> {
        Ok(decode_lanes(&self.payload)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;
    use crate::schema::DataType;
    use crate::value::Value;

    #[test]
    fn int_relation_round_trip_and_compresses() {
        let schema = Schema::new(vec![("s", DataType::Int), ("d", DataType::Int)]);
        let rows: Vec<Row> = (0..1000).map(|i| int_row(&[i / 10, i % 10])).collect();
        let raw_size: usize = rows.iter().map(Row::size_bytes).sum();
        let c = CompressedRelation::compress(&schema, &rows);
        assert!(
            c.size_bytes() * 4 < raw_size,
            "compressed {} vs raw {raw_size}",
            c.size_bytes()
        );
        let mut back = c.decompress().unwrap();
        back.sort_unstable();
        let mut orig = rows;
        orig.sort_unstable();
        assert_eq!(back, orig);
    }

    #[test]
    fn mixed_relation_round_trip() {
        let schema = Schema::new(vec![("m", DataType::Str), ("p", DataType::Double)]);
        let rows = vec![
            Row::new(vec![Value::Null, Value::Double(-0.25)]),
            Row::new(vec![Value::from(""), Value::Double(f64::INFINITY)]),
            Row::new(vec![Value::from("alice"), Value::Double(1.5)]),
        ];
        let c = CompressedRelation::compress(&schema, &rows);
        assert_eq!(c.decompress().unwrap(), rows);
        let lanes = c.decompress_lanes().unwrap();
        assert_eq!(lanes.rows, 3);
        assert!(matches!(lanes.columns[1], LaneColumn::Words(..)));
        let LaneColumn::Values(names) = &lanes.columns[0] else {
            panic!("a string column is tagged values");
        };
        assert_eq!(names[2], Value::from("alice"));
    }

    #[test]
    fn corrupt_payload_is_an_error() {
        let schema = Schema::new(vec![("s", DataType::Str)]);
        let rows = vec![Row::new(vec![Value::from("hello")])];
        let mut c = CompressedRelation::compress(&schema, &rows);
        c.payload.truncate(c.payload.len() - 2);
        assert!(matches!(c.decompress(), Err(StorageError::Codec(_))));
    }
}
