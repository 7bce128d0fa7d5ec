//! Checksummed write-ahead log for crash-consistent durability.
//!
//! When a context is opened with a data directory, every catalog mutation
//! (CREATE/INSERT/DELETE under the existing `version`/`rewrite_version` bump
//! discipline) and every materialized-view lifecycle event (create/publish/
//! drop, warm state included) appends one record here *before* the operation
//! is acknowledged. On restart, replaying the latest snapshot plus this log's
//! tail reconstructs the exact pre-crash catalog and view registry — same
//! rows, same version counters, same warm fixpoint blobs.
//!
//! ## On-disk format
//!
//! The log is a sequence of self-delimiting frames:
//!
//! ```text
//! frame   := varint payload_len | payload | crc32(payload) as u32 LE
//! payload := u8 (WAL_FORMAT << 4 | record kind) | record fields
//! ```
//!
//! Record fields are built from the shared byte codec
//! ([`rasql_api::codec`]); rows are its row batches. The tag's high nibble
//! carries the log format (format 1 wrote bare kinds `1..=6`), so an intact
//! record of another format is refused as
//! [`StorageError::UnsupportedFormat`] without a file header.
//!
//! Appends are serialized under [`LockRank::DurabilityLog`] — journaling
//! happens *inside* the catalog's `tables` write section, so log order is
//! exactly apply order — and each append is `fsync`ed before it returns.
//!
//! ## Torn tails vs corruption
//!
//! A process death can tear at most the **last** frame, so replay draws a
//! sharp line: a frame that fails to parse and *touches end-of-file* is a
//! torn tail — the file is truncated at the frame start and recovery
//! continues with everything before it; a CRC/shape failure on a frame with
//! more bytes after it cannot be explained by a crash and surfaces as
//! [`StorageError::Corrupt`] with the offending byte range, never as a
//! silently wrong catalog.
//!
//! Snapshot publication (encode → temp file → `fsync` → atomic rename →
//! directory `fsync` → log truncation) also lives on this type so every
//! durable write in the crate goes through the two fsync-disciplined modules
//! the `RL0005` lint allows. Each boundary consults the [`CrashInjector`]
//! first, which is how the `reproduce crash-soak` gate simulates death at
//! every enumerated point.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rasql_api::codec::{
    expect_end, get_bool, get_bytes, get_count, get_rows, get_schema, get_string, get_u8,
    get_varint, put_bool, put_bytes, put_rows, put_schema, put_str, put_varint,
};

use crate::crashpoint::CrashInjector;
use crate::error::StorageError;
use crate::row::Row;
use crate::schema::Schema;
use crate::sync::{LockRank, RankedMutex};

/// WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// Published snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// In-flight snapshot temp file name (stray copies mean a crashed publish).
pub const SNAPSHOT_TEMP_FILE: &str = "snapshot.tmp";

// --------------------------------------------------------------------
// CRC32 (IEEE), table-driven; no external crate in the offline build.
// --------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes` (the per-frame and whole-snapshot checksum).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// --------------------------------------------------------------------
// Record types
// --------------------------------------------------------------------

/// Full image of one base table: schema, rows, and the exact version pair it
/// carried when recorded, so recovery reproduces versions bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    /// Lower-cased table name (the catalog key).
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// Every row, in storage order.
    pub rows: Vec<Row>,
    /// The table's `version` counter at record time.
    pub version: u64,
    /// The table's `rewrite_version` counter at record time.
    pub rewrite_version: u64,
}

/// One dependency edge of a materialized view (mirrors `core::matview`'s
/// `DepRecord`; duplicated here so storage stays dependency-light).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDep {
    /// Base-table name the view reads.
    pub table: String,
    /// `version` observed when the view was (re)built.
    pub version: u64,
    /// `rewrite_version` observed when the view was (re)built.
    pub rewrite_version: u64,
    /// Row count observed (the append-delta low-water mark).
    pub len: u64,
}

/// Full image of one materialized view's registry entry plus its warm
/// fixpoint blobs. The defining SQL is stored as the complete source script
/// it arrived in; recovery re-parses and re-analyzes it against the restored
/// catalog (the AST has no renderer, and re-analysis also restores planner
/// state like `CREATE VIEW` definitions the statement depends on).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewImage {
    /// Lower-cased view name (registry key).
    pub key: String,
    /// The full source script containing the defining statement.
    pub sql: String,
    /// Registry version (bumped per refresh).
    pub version: u64,
    /// Whether the view is incremental-maintenance eligible.
    pub eligible: bool,
    /// Why not, when ineligible.
    pub ineligible_reason: Option<String>,
    /// Human-readable last-refresh mode ("none", "incremental", ...).
    pub last_refresh: String,
    /// Warm-state bytes retained for this view.
    pub retained_bytes: u64,
    /// Base-table versions the current contents were computed from.
    pub deps: Vec<ViewDep>,
    /// Warm fixpoint blobs, `(warmstore key, canonical encoded rows)`.
    pub warm: Vec<(String, Vec<u8>)>,
}

/// One durability log record. Every variant carries the versions minted when
/// the operation originally ran, so replay is idempotent (a record whose
/// version the in-memory state already reached is a no-op — the window where
/// a snapshot is renamed but the log not yet truncated replays harmlessly).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `CREATE TABLE` (or recovery re-registration): full table image.
    Register(TableImage),
    /// `INSERT`: appended rows and the version the append minted.
    Insert {
        /// Lower-cased table name.
        name: String,
        /// The appended rows (the delta, not the whole table).
        rows: Vec<Row>,
        /// `version` after the append (`rewrite_version` is unchanged).
        version: u64,
    },
    /// Whole-table rewrite (`DELETE`, replace, view publish): full image.
    Replace(TableImage),
    /// Table dropped.
    Drop {
        /// Lower-cased table name.
        name: String,
    },
    /// Materialized-view create or refresh publish: full registry image.
    ViewPut(ViewImage),
    /// Materialized view dropped.
    ViewDrop {
        /// Lower-cased view name.
        key: String,
    },
}

// --------------------------------------------------------------------
// Payload codec
// --------------------------------------------------------------------

/// The log format this build writes, carried in every record tag's high
/// nibble.
const WAL_FORMAT: u8 = 2;

pub(crate) fn put_table_image(buf: &mut Vec<u8>, img: &TableImage) {
    put_str(buf, &img.name);
    put_schema(buf, &img.schema);
    put_varint(buf, img.version);
    put_varint(buf, img.rewrite_version);
    put_rows(buf, &img.rows);
}

pub(crate) fn get_table_image(input: &mut &[u8]) -> Result<TableImage, StorageError> {
    Ok(TableImage {
        name: get_string(input)?,
        schema: get_schema(input)?,
        version: get_varint(input)?,
        rewrite_version: get_varint(input)?,
        rows: get_rows(input)?,
    })
}

pub(crate) fn put_view_image(buf: &mut Vec<u8>, img: &ViewImage) {
    put_str(buf, &img.key);
    put_str(buf, &img.sql);
    put_varint(buf, img.version);
    put_bool(buf, img.eligible);
    put_bool(buf, img.ineligible_reason.is_some());
    if let Some(r) = &img.ineligible_reason {
        put_str(buf, r);
    }
    put_str(buf, &img.last_refresh);
    put_varint(buf, img.retained_bytes);
    put_varint(buf, img.deps.len() as u64);
    for d in &img.deps {
        put_str(buf, &d.table);
        put_varint(buf, d.version);
        put_varint(buf, d.rewrite_version);
        put_varint(buf, d.len);
    }
    put_varint(buf, img.warm.len() as u64);
    for (key, blob) in &img.warm {
        put_str(buf, key);
        put_bytes(buf, blob);
    }
}

pub(crate) fn get_view_image(input: &mut &[u8]) -> Result<ViewImage, StorageError> {
    let key = get_string(input)?;
    let sql = get_string(input)?;
    let version = get_varint(input)?;
    let eligible = get_bool(input)?;
    let ineligible_reason = if get_bool(input)? {
        Some(get_string(input)?)
    } else {
        None
    };
    let last_refresh = get_string(input)?;
    let retained_bytes = get_varint(input)?;
    let ndeps = get_count(input)?;
    let mut deps = Vec::with_capacity(ndeps);
    for _ in 0..ndeps {
        deps.push(ViewDep {
            table: get_string(input)?,
            version: get_varint(input)?,
            rewrite_version: get_varint(input)?,
            len: get_varint(input)?,
        });
    }
    let nwarm = get_count(input)?;
    let mut warm = Vec::with_capacity(nwarm);
    for _ in 0..nwarm {
        warm.push((get_string(input)?, get_bytes(input)?.to_vec()));
    }
    Ok(ViewImage {
        key,
        sql,
        version,
        eligible,
        ineligible_reason,
        last_refresh,
        retained_bytes,
        deps,
        warm,
    })
}

impl WalRecord {
    /// Encode the record payload (tag + fields, no frame).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let kind = match self {
            WalRecord::Register(_) => 1,
            WalRecord::Insert { .. } => 2,
            WalRecord::Replace(_) => 3,
            WalRecord::Drop { .. } => 4,
            WalRecord::ViewPut(_) => 5,
            WalRecord::ViewDrop { .. } => 6,
        };
        buf.push(WAL_FORMAT << 4 | kind);
        match self {
            WalRecord::Register(img) | WalRecord::Replace(img) => put_table_image(&mut buf, img),
            WalRecord::Insert {
                name,
                rows,
                version,
            } => {
                put_str(&mut buf, name);
                put_varint(&mut buf, *version);
                put_rows(&mut buf, rows);
            }
            WalRecord::Drop { name } => put_str(&mut buf, name),
            WalRecord::ViewPut(img) => put_view_image(&mut buf, img),
            WalRecord::ViewDrop { key } => put_str(&mut buf, key),
        }
        buf
    }

    /// Decode a payload produced by [`WalRecord::encode`], rejecting
    /// trailing bytes.
    ///
    /// # Errors
    /// [`StorageError::UnsupportedFormat`] for a record of another log
    /// format, [`StorageError::Codec`] on a truncated or malformed payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, StorageError> {
        let mut input = payload;
        let tag = get_u8(&mut input)?;
        let format = (tag >> 4).max(1);
        if format != WAL_FORMAT {
            return Err(StorageError::UnsupportedFormat {
                what: "wal record",
                found: u32::from(format),
                expected: u32::from(WAL_FORMAT),
            });
        }
        let input = &mut input;
        let rec = match tag & 0xf {
            1 => WalRecord::Register(get_table_image(input)?),
            2 => {
                let name = get_string(input)?;
                let version = get_varint(input)?;
                let rows = get_rows(input)?;
                WalRecord::Insert {
                    name,
                    rows,
                    version,
                }
            }
            3 => WalRecord::Replace(get_table_image(input)?),
            4 => WalRecord::Drop {
                name: get_string(input)?,
            },
            5 => WalRecord::ViewPut(get_view_image(input)?),
            6 => WalRecord::ViewDrop {
                key: get_string(input)?,
            },
            t => return Err(StorageError::Codec(format!("unknown wal record kind {t}"))),
        };
        expect_end(input)?;
        Ok(rec)
    }

    /// Frame the record for the log: `varint len | payload | crc32`.
    #[must_use]
    pub fn frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut buf = Vec::with_capacity(payload.len() + 9);
        put_varint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf
    }
}

// --------------------------------------------------------------------
// Replay
// --------------------------------------------------------------------

/// What replaying a log produced: the decoded records plus whether a torn
/// tail was cut off (byte offset the file was truncated at).
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Records in append order.
    pub records: Vec<WalRecord>,
    /// Offset a torn tail was truncated at, if one was found.
    pub truncated_at: Option<u64>,
    /// Valid log bytes (the file length after any tail truncation).
    pub bytes: u64,
}

/// Replay the log at `path` (missing file = empty log). A frame that fails
/// to parse and touches end-of-file is treated as a torn tail: the file is
/// truncated at the frame start and the records before it are returned. A
/// bad frame with bytes *after* it is real corruption.
///
/// # Errors
/// [`StorageError::Corrupt`] for a mid-log CRC/shape failure (with the
/// offending byte range), [`StorageError::Io`] on filesystem failure.
pub fn replay(path: &Path) -> Result<ReplayOutcome, StorageError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ReplayOutcome {
                records: Vec::new(),
                truncated_at: None,
                bytes: 0,
            })
        }
        Err(e) => return Err(StorageError::Io(e)),
    };
    let total = bytes.len();
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn: Option<u64> = None;
    while pos < total {
        let frame_start = pos;
        let mut rest = &bytes[pos..];
        // A length varint that runs off the end of the file, or a length
        // past it, can only be a torn final frame (valid frames never start
        // with an overlong varint — lengths are bounded by the file size).
        let Ok(payload_len) = get_count(&mut rest) else {
            torn = Some(frame_start as u64);
            break;
        };
        let header_len = total - frame_start - rest.len();
        let frame_end = frame_start + header_len + payload_len + 4;
        if frame_end > total {
            torn = Some(frame_start as u64);
            break;
        }
        let payload = &bytes[frame_start + header_len..frame_start + header_len + payload_len];
        let stored = u32::from_le_bytes(
            bytes[frame_end - 4..frame_end]
                .try_into()
                .expect("4 crc bytes"),
        );
        if crc32(payload) != stored {
            if frame_end == total {
                torn = Some(frame_start as u64);
                break;
            }
            return Err(StorageError::Corrupt {
                offset: frame_start as u64,
                detail: format!(
                    "crc mismatch in wal frame at bytes {frame_start}..{frame_end} \
                     (stored {stored:#010x}, computed {:#010x})",
                    crc32(payload)
                ),
            });
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            // An intact record of another format is a typed refusal; the
            // file is left as it is.
            Err(e @ StorageError::UnsupportedFormat { .. }) => return Err(e),
            // The payload passed its CRC, so a decode failure is structural
            // corruption regardless of position — a torn write cannot
            // produce a checksummed-but-malformed record.
            Err(e) => {
                return Err(StorageError::Corrupt {
                    offset: frame_start as u64,
                    detail: format!(
                        "undecodable wal frame at bytes {frame_start}..{frame_end}: {e}"
                    ),
                })
            }
        }
        pos = frame_end;
    }
    if let Some(at) = torn {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(at)?;
        f.sync_data()?;
    }
    // When a tail was torn, the loop broke with `pos` still at the frame
    // start, which is exactly where the file was truncated.
    Ok(ReplayOutcome {
        records,
        truncated_at: torn,
        bytes: pos as u64,
    })
}

// --------------------------------------------------------------------
// The appender
// --------------------------------------------------------------------

/// Counters snapshotted for `\durability` / the status API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since the last snapshot (current log tail).
    pub records: u64,
    /// Bytes in the current log tail.
    pub bytes: u64,
    /// Snapshots published over this appender's lifetime.
    pub snapshots: u64,
    /// Size of the most recently published snapshot.
    pub last_snapshot_bytes: u64,
}

/// The fsync-disciplined appender owning a data directory's `wal.log` and
/// snapshot publication. One instance per open context; catalog and view
/// registry journal through it from inside their own critical sections
/// ([`LockRank::CatalogTables`] < [`LockRank::DurabilityLog`], so the
/// nesting is legal under the rank checker).
pub struct Wal {
    inner: RankedMutex<WalFile>,
    dir: PathBuf,
    records: AtomicU64,
    bytes: AtomicU64,
    snapshots: AtomicU64,
    last_snapshot_bytes: AtomicU64,
    injector: CrashInjector,
}

struct WalFile {
    file: fs::File,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("records", &self.records.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Open (creating if needed) `dir/wal.log` for appending. Counters
    /// start from the file's current state: recovery truncates the log
    /// before attaching an appender, so they normally start at zero.
    ///
    /// # Errors
    /// [`StorageError::Io`] if the directory or file cannot be created.
    pub fn open(dir: &Path, injector: CrashInjector) -> Result<Wal, StorageError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        Ok(Wal {
            inner: RankedMutex::new(LockRank::DurabilityLog, WalFile { file }),
            dir: dir.to_path_buf(),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(len),
            snapshots: AtomicU64::new(0),
            last_snapshot_bytes: AtomicU64::new(0),
            injector,
        })
    }

    /// The data directory this appender owns.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records appended since the last snapshot (the compaction trigger and
    /// the counter the snapshot race check compares).
    pub fn record_count(&self) -> u64 {
        self.records.load(Ordering::SeqCst)
    }

    /// Current counters for status surfaces.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            last_snapshot_bytes: self.last_snapshot_bytes.load(Ordering::Relaxed),
        }
    }

    /// Append one record: frame, write, `fsync`. Returns only after the
    /// record is durable (or a crashpoint simulated death at one of the
    /// three boundaries — before the write, mid-write leaving a torn frame,
    /// or after the fsync).
    ///
    /// # Errors
    /// [`StorageError::InjectedCrash`] when an armed crashpoint fires,
    /// [`StorageError::Io`] on real filesystem failure.
    pub fn append(&self, record: &WalRecord) -> Result<(), StorageError> {
        let frame = record.frame();
        let mut inner = self.inner.lock();
        if self.injector.fire("wal-append-pre") {
            return Err(StorageError::InjectedCrash("wal-append-pre".into()));
        }
        if self.injector.fire("wal-append-torn") {
            // Simulate death mid-write: half a frame reaches the file.
            inner.file.write_all(&frame[..frame.len() / 2])?;
            inner.file.sync_data()?;
            return Err(StorageError::InjectedCrash("wal-append-torn".into()));
        }
        inner.file.write_all(&frame)?;
        inner.file.sync_data()?;
        self.records.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        if self.injector.fire("wal-append-post") {
            return Err(StorageError::InjectedCrash("wal-append-post".into()));
        }
        Ok(())
    }

    /// Force pending log bytes to disk (appends already fsync; this is the
    /// drain hook for shutdown paths and is a no-op on a quiet log).
    ///
    /// # Errors
    /// [`StorageError::Io`] on filesystem failure.
    pub fn flush(&self) -> Result<(), StorageError> {
        self.inner.lock().file.sync_data()?;
        Ok(())
    }

    /// Publish a snapshot: write `encoded` to `snapshot.tmp`, `fsync`,
    /// rename over `snapshot.bin`, `fsync` the directory, then truncate the
    /// log. The whole sequence holds the appender lock, and it runs only if
    /// the record count still equals `expected_records` — the caller
    /// collected its state *without* this lock (catalog locks rank below
    /// it), so a count mismatch means a mutation landed in between and the
    /// collected state may be stale; the caller re-collects and retries.
    ///
    /// Returns whether the snapshot was published.
    ///
    /// # Errors
    /// [`StorageError::InjectedCrash`] when an armed crashpoint fires at one
    /// of the five write/rename/truncate boundaries, [`StorageError::Io`] on
    /// real filesystem failure.
    pub fn publish_snapshot(
        &self,
        encoded: &[u8],
        expected_records: u64,
    ) -> Result<bool, StorageError> {
        let inner = self.inner.lock();
        if self.records.load(Ordering::SeqCst) != expected_records {
            return Ok(false);
        }
        let tmp = self.dir.join(SNAPSHOT_TEMP_FILE);
        let published = self.dir.join(SNAPSHOT_FILE);
        if self.injector.fire("snapshot-temp-pre") {
            return Err(StorageError::InjectedCrash("snapshot-temp-pre".into()));
        }
        if self.injector.fire("snapshot-temp-torn") {
            // Death mid-write: a stray half-written temp file remains for
            // recovery to sweep up (the leak check asserts it does).
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encoded[..encoded.len() / 2])?;
            f.sync_data()?;
            return Err(StorageError::InjectedCrash("snapshot-temp-torn".into()));
        }
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(encoded)?;
            f.sync_data()?;
        }
        if self.injector.fire("snapshot-temp-written") {
            return Err(StorageError::InjectedCrash("snapshot-temp-written".into()));
        }
        fs::rename(&tmp, &published)?;
        sync_dir(&self.dir)?;
        if self.injector.fire("snapshot-renamed") {
            // Snapshot is live but the log still holds the same operations;
            // replay is version-guarded, so recovering from here is exact.
            return Err(StorageError::InjectedCrash("snapshot-renamed".into()));
        }
        inner.file.set_len(0)?;
        inner.file.sync_data()?;
        self.records.store(0, Ordering::SeqCst);
        self.bytes.store(0, Ordering::Relaxed);
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.last_snapshot_bytes
            .store(encoded.len() as u64, Ordering::Relaxed);
        if self.injector.fire("snapshot-truncated") {
            return Err(StorageError::InjectedCrash("snapshot-truncated".into()));
        }
        Ok(true)
    }
}

/// `fsync` a directory so a rename within it is durable (best effort on
/// platforms where directories cannot be opened for sync).
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    match fs::File::open(dir) {
        Ok(f) => {
            f.sync_all().ok();
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crashpoint::CrashSpec;
    use crate::row::int_row;
    use crate::schema::DataType;
    use crate::value::Value;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rasql-wal-test-{tag}-p{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Register(TableImage {
                name: "edge".into(),
                schema: Schema::new(vec![("src", DataType::Int), ("dst", DataType::Int)]),
                rows: vec![int_row(&[1, 2]), int_row(&[2, 3])],
                version: 1,
                rewrite_version: 1,
            }),
            WalRecord::Insert {
                name: "edge".into(),
                rows: vec![int_row(&[3, 4])],
                version: 2,
            },
            WalRecord::ViewPut(ViewImage {
                key: "paths".into(),
                sql: "CREATE MATERIALIZED VIEW paths AS SELECT 1;".into(),
                version: 3,
                eligible: true,
                ineligible_reason: None,
                last_refresh: "incremental".into(),
                retained_bytes: 17,
                deps: vec![ViewDep {
                    table: "edge".into(),
                    version: 2,
                    rewrite_version: 1,
                    len: 3,
                }],
                warm: vec![("mv/paths/0".into(), vec![0, 1, 2, 255])],
            }),
            WalRecord::Replace(TableImage {
                name: "mixed".into(),
                schema: Schema::new(vec![("s", DataType::Str), ("d", DataType::Double)]),
                rows: vec![Row::new(vec![Value::from("a"), Value::Double(0.5)])],
                version: 4,
                rewrite_version: 4,
            }),
            WalRecord::Drop {
                name: "edge".into(),
            },
            WalRecord::ViewDrop {
                key: "paths".into(),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_payload_codec() {
        for rec in sample_records() {
            let back = WalRecord::decode(&rec.encode()).expect("decode");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn append_and_replay_round_trips() {
        let dir = tmp_dir("roundtrip");
        let wal = Wal::open(&dir, CrashInjector::none()).expect("open");
        for rec in sample_records() {
            wal.append(&rec).expect("append");
        }
        assert_eq!(wal.record_count(), sample_records().len() as u64);
        let outcome = replay(&dir.join(WAL_FILE)).expect("replay");
        assert_eq!(outcome.records, sample_records());
        assert!(outcome.truncated_at.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_and_keeps_prefix() {
        let dir = tmp_dir("torn");
        let wal = Wal::open(&dir, CrashInjector::none()).expect("open");
        let recs = sample_records();
        for rec in &recs {
            wal.append(rec).expect("append");
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let full = fs::read(&path).expect("read");
        // Chop three bytes off the final frame: a torn tail.
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open");
        f.set_len(full.len() as u64 - 3).expect("truncate");
        drop(f);
        let outcome = replay(&path).expect("replay");
        assert_eq!(outcome.records, recs[..recs.len() - 1]);
        assert!(outcome.truncated_at.is_some());
        // The file was physically truncated at the frame start; a second
        // replay is clean.
        let again = replay(&path).expect("replay again");
        assert_eq!(again.records, recs[..recs.len() - 1]);
        assert!(again.truncated_at.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_spanned_error() {
        let dir = tmp_dir("corrupt");
        let wal = Wal::open(&dir, CrashInjector::none()).expect("open");
        for rec in sample_records() {
            wal.append(&rec).expect("append");
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).expect("read");
        // Flip a payload bit in the FIRST frame (well before EOF).
        bytes[3] ^= 0x40;
        fs::write(&path, &bytes).expect("write");
        let err = replay(&path).expect_err("must be corrupt");
        match err {
            StorageError::Corrupt { offset, detail } => {
                assert_eq!(offset, 0, "first frame starts at 0");
                assert!(detail.contains("crc mismatch"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A format-1 record (bare kind tag) that passes its CRC is a typed
    /// refusal, and replay leaves the log as it found it.
    #[test]
    fn another_format_is_refused_and_the_log_left_intact() {
        let dir = tmp_dir("format");
        let mut payload = sample_records()[1].encode();
        payload[0] = 2;
        let mut log = Vec::new();
        put_varint(&mut log, payload.len() as u64);
        log.extend_from_slice(&payload);
        log.extend_from_slice(&crc32(&payload).to_le_bytes());
        let path = dir.join(WAL_FILE);
        fs::write(&path, &log).expect("write");
        let err = replay(&path).expect_err("refused");
        assert!(
            matches!(
                err,
                StorageError::UnsupportedFormat {
                    what: "wal record",
                    found: 1,
                    expected: 2
                }
            ),
            "{err}"
        );
        assert_eq!(fs::read(&path).expect("read"), log);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_crashpoint_leaves_recoverable_log() {
        let dir = tmp_dir("crash-torn");
        {
            let wal = Wal::open(&dir, CrashInjector::none()).expect("open");
            wal.append(&sample_records()[0]).expect("append");
        }
        // Arm the injector so the very next boundary (wal-append-pre of the
        // second append) survives and the torn site fires on hit index 1.
        let wal = Wal::open(&dir, CrashInjector::new(CrashSpec::at(1))).expect("open");
        let err = wal.append(&sample_records()[1]).expect_err("torn crash");
        assert!(matches!(err, StorageError::InjectedCrash(ref s) if s == "wal-append-torn"));
        drop(wal);
        let outcome = replay(&dir.join(WAL_FILE)).expect("replay");
        assert_eq!(outcome.records, sample_records()[..1]);
        assert!(outcome.truncated_at.is_some(), "half frame must be cut");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_snapshot_truncates_log_and_respects_race_guard() {
        let dir = tmp_dir("snapshot");
        let wal = Wal::open(&dir, CrashInjector::none()).expect("open");
        wal.append(&sample_records()[0]).expect("append");
        let count = wal.record_count();
        // Stale expectation: refused.
        assert!(!wal
            .publish_snapshot(b"payload", count + 1)
            .expect("guarded publish"));
        // Current expectation: published, log truncated, counters reset.
        assert!(wal.publish_snapshot(b"payload", count).expect("publish"));
        assert_eq!(wal.record_count(), 0);
        assert_eq!(
            fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot"),
            b"payload"
        );
        assert_eq!(fs::read(dir.join(WAL_FILE)).expect("wal").len(), 0);
        assert!(!dir.join(SNAPSHOT_TEMP_FILE).exists(), "temp must be gone");
        assert_eq!(wal.stats().snapshots, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}
