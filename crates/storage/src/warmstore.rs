//! Warm-state store: retained converged fixpoint state for materialized
//! views.
//!
//! The incremental view-maintenance subsystem (`core::matview`) keeps the
//! converged recursive-view rows of every materialized view resident so a
//! refresh can resume semi-naive evaluation from them instead of
//! recomputing the view in full. This store holds that state as row-batch
//! blobs of the shared codec ([`rasql_api::codec`]) keyed by
//! `"view-name/clique-view"` and accounts for the total retained bytes
//! (surfaced as a metrics gauge and charged against the memory governor
//! during refresh).

use crate::sync::{LockRank, RankedRwLock};
use bytes::Bytes;
use std::collections::BTreeMap;

/// A thread-safe store of encoded warm-state blobs with byte accounting.
pub struct WarmStore {
    blobs: RankedRwLock<BTreeMap<String, Bytes>>,
}

impl Default for WarmStore {
    fn default() -> Self {
        Self::new()
    }
}

impl WarmStore {
    /// An empty store.
    pub fn new() -> Self {
        WarmStore {
            blobs: RankedRwLock::new(LockRank::WarmStore, BTreeMap::new()),
        }
    }

    /// Store a blob under `key`, replacing any previous one. Returns the
    /// blob's size in bytes.
    pub fn put(&self, key: &str, blob: Bytes) -> usize {
        let len = blob.len();
        self.blobs.write().insert(key.to_string(), blob);
        len
    }

    /// Fetch a blob (cheap clone of the shared buffer).
    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.blobs.read().get(key).cloned()
    }

    /// Remove every blob whose key starts with `prefix` (all state of one
    /// view). Returns the number of bytes released.
    pub fn remove_prefix(&self, prefix: &str) -> usize {
        let mut blobs = self.blobs.write();
        let doomed: Vec<String> = blobs
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect();
        doomed
            .iter()
            .filter_map(|k| blobs.remove(k))
            .map(|b| b.len())
            .sum()
    }

    /// Total bytes currently retained across all blobs.
    pub fn retained_bytes(&self) -> u64 {
        self.blobs.read().values().map(|b| b.len() as u64).sum()
    }

    /// Bytes retained under one key prefix (one view's state).
    pub fn retained_bytes_prefix(&self, prefix: &str) -> u64 {
        self.blobs
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, b)| b.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::row::{int_row, Row};
    use rasql_api::codec::{decode_rows, encode_rows, put_varint};

    fn blob(rows: &[Row]) -> Bytes {
        Bytes::from(encode_rows(rows))
    }

    #[test]
    fn store_accounts_bytes() {
        let s = WarmStore::new();
        assert_eq!(s.retained_bytes(), 0);
        let rows: Vec<Row> = (0..10).map(|i| int_row(&[i, i + 1])).collect();
        s.put("mv/a/v0", blob(&rows));
        s.put("mv/b/v0", blob(&rows[..2]));
        assert!(s.retained_bytes() > 0);
        assert!(s.retained_bytes_prefix("mv/a/") > s.retained_bytes_prefix("mv/b/"));
        assert!(s.get("mv/a/v0").is_some());
        let freed = s.remove_prefix("mv/a/");
        assert!(freed > 0);
        assert!(s.get("mv/a/v0").is_none());
        assert_eq!(s.retained_bytes(), s.retained_bytes_prefix("mv/b/"));
    }

    /// A warm blob that claims 2^62 rows in ten bytes is a typed codec
    /// error, not an allocation.
    #[test]
    fn a_blob_claiming_more_rows_than_bytes_is_a_codec_error() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1 << 62);
        bytes.resize(10, 0);
        let err = StorageError::from(decode_rows(&bytes).unwrap_err());
        assert!(matches!(err, StorageError::Codec(_)), "{err}");
        let whole = blob(&[int_row(&[1, 2])]);
        let truncated = &whole.as_ref()[..whole.len() - 1];
        assert!(decode_rows(truncated).is_err());
    }
}
