//! Checksummed whole-state snapshots for WAL compaction.
//!
//! A snapshot is the full durable state — every table image, every
//! materialized-view image (a certified view's converged rows included), and
//! the catalog version floor — in one checksummed file. A certified view's
//! result table is derived from its converged rows, so its image carries the
//! schema and versions and no rows. Publication is atomic (temp file →
//! `fsync` → rename over `snapshot.bin` → directory `fsync` → log
//! truncation) and lives on [`Wal::publish_snapshot`](crate::wal::Wal) so
//! the write path shares the appender lock and crashpoint instrumentation;
//! this module owns the encoding and the read side.
//!
//! ```text
//! snapshot := b"RQSN" | u8 format_version | body | crc32(body) as u32 LE
//! body     := varint version_floor
//!           | varint table_count | table images
//!           | varint view_count  | view images
//! ```
//!
//! Table and view images are the WAL's own (rows as the shared codec's row
//! batches). A snapshot that fails its magic or CRC check is a typed
//! [`StorageError::Corrupt`] — torn-tail tolerance is a WAL property; a
//! *published* snapshot was fsynced before its rename, so damage here can
//! never be explained by a crash and must not be silently skipped. An
//! intact snapshot of another format (format 1 wrote rows row-major, format 2
//! warm state as encoded blobs and every view table's rows) is
//! [`StorageError::UnsupportedFormat`].

use std::fs;
use std::path::{Path, PathBuf};

use rasql_api::codec::{expect_end, get_count, get_varint, put_varint};

use crate::error::StorageError;
use crate::wal::{
    crc32, get_table_image, get_view_image, put_table_image, put_view_image, TableImage, ViewImage,
    SNAPSHOT_FILE, SNAPSHOT_TEMP_FILE,
};

const MAGIC: &[u8; 4] = b"RQSN";
const FORMAT_VERSION: u8 = 3;

/// Everything recovery needs: the catalog and view registry, verbatim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurableState {
    /// Floor for the catalog's global version counter (strictly above every
    /// version recorded in `tables`, so post-recovery mints cannot alias).
    pub version_floor: u64,
    /// Every base table, sorted by name.
    pub tables: Vec<TableImage>,
    /// Every materialized view, sorted by key.
    pub views: Vec<ViewImage>,
}

/// Encode a snapshot (magic, format version, body, trailing CRC).
#[must_use]
pub fn encode_state(state: &DurableState) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    put_varint(&mut out, state.version_floor);
    put_varint(&mut out, state.tables.len() as u64);
    for t in &state.tables {
        put_table_image(&mut out, t);
    }
    put_varint(&mut out, state.views.len() as u64);
    for v in &state.views {
        put_view_image(&mut out, v);
    }
    let crc = crc32(&out[MAGIC.len() + 1..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode a snapshot produced by [`encode_state`].
///
/// # Errors
/// [`StorageError::UnsupportedFormat`] for another format version;
/// [`StorageError::Corrupt`] (offset 0, the whole file is one record) on a
/// bad magic, CRC mismatch, or malformed body.
pub fn decode_state(bytes: &[u8]) -> Result<DurableState, StorageError> {
    let corrupt = |detail: String| StorageError::Corrupt { offset: 0, detail };
    if bytes.len() < MAGIC.len() + 5 {
        return Err(corrupt(format!(
            "snapshot too short ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[..4] != MAGIC {
        return Err(corrupt("bad snapshot magic".into()));
    }
    if bytes[4] != FORMAT_VERSION {
        return Err(StorageError::UnsupportedFormat {
            what: "snapshot",
            found: u32::from(bytes[4]),
            expected: u32::from(FORMAT_VERSION),
        });
    }
    let body = &bytes[5..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 crc bytes"));
    let computed = crc32(body);
    if computed != stored {
        return Err(corrupt(format!(
            "snapshot crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    let mut input = body;
    let state = (|| -> Result<DurableState, StorageError> {
        let input = &mut input;
        let version_floor = get_varint(input)?;
        let ntables = get_count(input)?;
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            tables.push(get_table_image(input)?);
        }
        let nviews = get_count(input)?;
        let mut views = Vec::with_capacity(nviews);
        for _ in 0..nviews {
            views.push(get_view_image(input)?);
        }
        expect_end(input)?;
        Ok(DurableState {
            version_floor,
            tables,
            views,
        })
    })()
    .map_err(|e| corrupt(format!("undecodable snapshot body: {e}")))?;
    Ok(state)
}

/// Read `dir/snapshot.bin`, if one has been published.
///
/// # Errors
/// [`StorageError::Corrupt`] on a damaged snapshot, [`StorageError::Io`] on
/// filesystem failure. A missing file is `Ok(None)` — a fresh directory.
pub fn read_snapshot(dir: &Path) -> Result<Option<DurableState>, StorageError> {
    match fs::read(dir.join(SNAPSHOT_FILE)) {
        Ok(bytes) => Ok(Some(decode_state(&bytes)?)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StorageError::Io(e)),
    }
}

/// Remove a stray `snapshot.tmp` left by a publish that died before its
/// rename. Returns whether one was found (recovery logs it; the soak's
/// leak check asserts none remain *after* recovery).
///
/// # Errors
/// [`StorageError::Io`] if a stray file exists but cannot be removed.
pub fn sweep_stray_temp(dir: &Path) -> Result<bool, StorageError> {
    let tmp = dir.join(SNAPSHOT_TEMP_FILE);
    match fs::remove_file(&tmp) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(StorageError::Io(e)),
    }
}

/// Temp/stray files currently present in a data directory (the crash-soak
/// leak check: after recovery this must be empty).
#[must_use]
pub fn stray_temp_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".tmp"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;
    use crate::schema::{DataType, Schema};
    use crate::wal::ViewDep;

    fn sample_state() -> DurableState {
        DurableState {
            version_floor: 42,
            tables: vec![TableImage {
                name: "edge".into(),
                schema: Schema::new(vec![("src", DataType::Int), ("dst", DataType::Int)]),
                rows: vec![int_row(&[1, 2]), int_row(&[2, 3])],
                version: 7,
                rewrite_version: 3,
            }],
            views: vec![ViewImage {
                key: "paths".into(),
                sql: "CREATE MATERIALIZED VIEW paths AS SELECT 1;".into(),
                version: 2,
                eligible: false,
                ineligible_reason: Some("RA0920: non-monotonic aggregate".into()),
                last_refresh: "full".into(),
                deps: vec![ViewDep {
                    table: "edge".into(),
                    version: 7,
                    rewrite_version: 3,
                    len: 2,
                }],
                warm: vec![],
            }],
        }
    }

    #[test]
    fn state_round_trips() {
        let state = sample_state();
        assert_eq!(decode_state(&encode_state(&state)).expect("decode"), state);
        let empty = DurableState::default();
        assert_eq!(decode_state(&encode_state(&empty)).expect("decode"), empty);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let bytes = encode_state(&sample_state());
        // Flip one bit at a sample of positions across the file (every 7th
        // byte keeps the test fast while covering magic, header, body, crc).
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                matches!(decode_state(&bad), Err(StorageError::Corrupt { .. })),
                "bit flip at byte {pos} must be detected"
            );
        }
    }

    #[test]
    fn another_format_is_refused_not_corrupt() {
        for found in [1, 2] {
            let mut bytes = encode_state(&sample_state());
            bytes[4] = found;
            assert!(matches!(
                decode_state(&bytes),
                Err(StorageError::UnsupportedFormat {
                    what: "snapshot",
                    found: f,
                    expected: 3
                }) if f == u32::from(found)
            ));
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_state(&sample_state());
        for keep in 0..bytes.len() {
            assert!(
                matches!(
                    decode_state(&bytes[..keep]),
                    Err(StorageError::Corrupt { .. })
                ),
                "truncation to {keep} bytes must be detected"
            );
        }
    }

    #[test]
    fn sweep_reports_and_removes_stray_temp() {
        let dir = std::env::temp_dir().join(format!(
            "rasql-snap-test-p{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("dir");
        assert!(!sweep_stray_temp(&dir).expect("sweep empty"));
        fs::write(dir.join(SNAPSHOT_TEMP_FILE), b"half").expect("stray");
        assert_eq!(stray_temp_files(&dir).len(), 1);
        assert!(sweep_stray_temp(&dir).expect("sweep"));
        assert!(stray_temp_files(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
