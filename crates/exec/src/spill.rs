//! Spill-to-disk for memory-governed execution.
//!
//! Two unbounded structures can outgrow a query's memory budget: shuffle
//! exchange buckets gathered on the driver, and the all-relation aggregate
//! map the fixpoint accumulates across rounds. When the
//! [`crate::governor::MemoryTracker`] reports over-budget, those structures
//! page out here and page back in when needed.
//!
//! The on-disk format is the shared codec's row batch
//! ([`rasql_storage::codec`]) but deliberately **not**
//! [`crate::checkpoint::encode_rows`]: that encoding canonicalises by
//! sorting, which is right for checkpoint digests and wrong for a spill —
//! shuffle buckets must be merged back in the exact order they were written
//! so a spilled run stays bit-identical to an in-memory one. A spill file is
//! a sequence of batches, one per append; reading concatenates them in file
//! order.
//!
//! Every spill file lives inside a per-query [`SpillDir`], an RAII guard
//! that removes the whole directory on drop — success, error, cancellation,
//! or panic all take the same cleanup path.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rasql_storage::codec::{encode_rows, get_rows};
use rasql_storage::Row;

use crate::error::ExecError;

/// Distinguishes spill dirs created by concurrent queries (and by the same
/// query id across reused contexts) within one process.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> ExecError {
    ExecError::SpillIo {
        detail: format!("{what} {}: {e}", path.display()),
    }
}

/// Decode a whole spill file: a concatenation of row batches, yielding rows
/// in the exact order they were appended.
///
/// # Errors
/// [`ExecError::SpillIo`] on a truncated or corrupt stream.
pub fn decode_row_stream(mut bytes: &[u8]) -> Result<Vec<Row>, ExecError> {
    let mut rows = Vec::new();
    while !bytes.is_empty() {
        rows.extend(get_rows(&mut bytes).map_err(|e| ExecError::SpillIo {
            detail: format!("corrupt spill stream: {e}"),
        })?);
    }
    Ok(rows)
}

/// A per-query spill directory with RAII cleanup.
///
/// Created lazily by [`crate::governor::QueryGovernor::spill_dir`] on the
/// first spill; `Drop` removes the directory and every file in it, so no
/// exit path — success, typed error, cancellation, or panic unwind — leaks
/// temp files.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create `root/rasql-spill-q{query_id}-{seq}` (and `root` itself if
    /// missing).
    ///
    /// # Errors
    /// [`ExecError::SpillIo`] if the directory cannot be created.
    pub fn create(root: &Path, query_id: u64) -> Result<SpillDir, ExecError> {
        let seq = SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!(
            "rasql-spill-q{query_id}-p{}-{seq}",
            std::process::id()
        ));
        fs::create_dir_all(&path).map_err(|e| io_err("creating spill dir", &path, &e))?;
        Ok(SpillDir { path })
    }

    /// Where the spill files live.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one batch of rows (in order) to the named spill file,
    /// creating it on first use. Returns the bytes written.
    ///
    /// # Errors
    /// [`ExecError::SpillIo`] on any filesystem failure.
    pub fn append_rows(&self, name: &str, rows: &[Row]) -> Result<u64, ExecError> {
        let encoded = encode_rows(rows);
        let path = self.file_path(name);
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("opening spill file", &path, &e))?;
        #[expect(
            clippy::disallowed_methods,
            reason = "a spill file is scratch space, deleted with its query and never recovered"
        )]
        f.write_all(&encoded)
            .map_err(|e| io_err("writing spill file", &path, &e))?;
        Ok(encoded.len() as u64)
    }

    /// Read every row ever appended to the named spill file, in append
    /// order, then delete the file (a spill is consumed exactly once).
    ///
    /// # Errors
    /// [`ExecError::SpillIo`] on filesystem failure or a corrupt stream.
    pub fn take_rows(&self, name: &str) -> Result<Vec<Row>, ExecError> {
        let path = self.file_path(name);
        let bytes = read_file(&path)?;
        let rows = decode_row_stream(&bytes)?;
        fs::remove_file(&path).map_err(|e| io_err("removing spill file", &path, &e))?;
        Ok(rows)
    }

    /// Write an opaque blob (e.g. a checkpoint-codec state image),
    /// replacing any previous content. Returns the bytes written.
    ///
    /// # Errors
    /// [`ExecError::SpillIo`] on any filesystem failure.
    pub fn write_blob(&self, name: &str, bytes: &[u8]) -> Result<u64, ExecError> {
        let path = self.file_path(name);
        fs::write(&path, bytes).map_err(|e| io_err("writing spill file", &path, &e))?;
        Ok(bytes.len() as u64)
    }

    /// Read back a blob written with [`SpillDir::write_blob`] and delete it.
    ///
    /// # Errors
    /// [`ExecError::SpillIo`] if the file is missing or unreadable.
    pub fn take_blob(&self, name: &str) -> Result<Vec<u8>, ExecError> {
        let path = self.file_path(name);
        let bytes = read_file(&path)?;
        fs::remove_file(&path).map_err(|e| io_err("removing spill file", &path, &e))?;
        Ok(bytes)
    }

    /// Whether the named spill file currently exists.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.file_path(name).exists()
    }

    fn file_path(&self, name: &str) -> PathBuf {
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.path.join(format!("{safe}.spill"))
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>, ExecError> {
    let mut f = fs::File::open(path).map_err(|e| io_err("opening spill file", path, &e))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)
        .map_err(|e| io_err("reading spill file", path, &e))?;
    Ok(bytes)
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best-effort: cleanup must not panic during unwind.
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_storage::Value;

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn row_stream_preserves_order_across_batches() {
        let dir = SpillDir::create(&std::env::temp_dir(), 1).expect("spill dir");
        let a = vec![row(&[3, 1]), row(&[1, 2])];
        let b = vec![row(&[2, 9]), row(&[0, 0])];
        dir.append_rows("bucket-0", &a).expect("append a");
        dir.append_rows("bucket-0", &b).expect("append b");
        let back = dir.take_rows("bucket-0").expect("read back");
        let want: Vec<Row> = a.into_iter().chain(b).collect();
        assert_eq!(back, want, "spill must preserve append order");
        assert!(!dir.contains("bucket-0"), "take consumes the file");
    }

    #[test]
    fn mixed_value_types_round_trip() {
        let dir = SpillDir::create(&std::env::temp_dir(), 2).expect("spill dir");
        let rows = vec![
            Row::new(vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-42),
                Value::Double(2.5),
                Value::from("spill".to_string()),
            ]),
            Row::new(vec![Value::Int(i64::MIN)]),
        ];
        dir.append_rows("mixed", &rows).expect("append");
        assert_eq!(dir.take_rows("mixed").expect("read"), rows);
    }

    #[test]
    fn blob_round_trip() {
        let dir = SpillDir::create(&std::env::temp_dir(), 3).expect("spill dir");
        let blob = vec![0u8, 1, 2, 255, 7];
        dir.write_blob("state-v0-p1", &blob).expect("write");
        assert!(dir.contains("state-v0-p1"));
        assert_eq!(dir.take_blob("state-v0-p1").expect("read"), blob);
        assert!(!dir.contains("state-v0-p1"));
    }

    #[test]
    fn drop_removes_directory() {
        let path;
        {
            let dir = SpillDir::create(&std::env::temp_dir(), 4).expect("spill dir");
            dir.append_rows("x", &[row(&[1])]).expect("append");
            path = dir.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists(), "Drop must remove the spill dir");
    }

    #[test]
    fn decode_rejects_corrupt_stream() {
        let mut bytes = encode_rows(&[row(&[1, 2, 3])]);
        bytes.truncate(bytes.len() - 2);
        assert!(decode_row_stream(&bytes).is_err());
    }

    /// A ragged batch whose one row claims 2^62 values is a typed spill
    /// error, not an allocation.
    #[test]
    fn a_row_claiming_more_values_than_bytes_is_a_spill_error() {
        // One row, ragged layout, arity 2^62 as a varint, then four values.
        let mut bytes = vec![1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            decode_row_stream(&bytes),
            Err(ExecError::SpillIo { .. })
        ));
    }
}
