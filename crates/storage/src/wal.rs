//! Checksummed write-ahead log for crash-consistent durability.
//!
//! When a context is opened with a data directory, every catalog mutation
//! (CREATE/INSERT/DELETE under the existing `version`/`rewrite_version` bump
//! discipline) and every materialized-view lifecycle event (create, refresh,
//! drop) appends one record here *before* the operation is published. On
//! restart, replaying the latest snapshot plus this log's tail reconstructs
//! the exact pre-crash catalog and view registry — same rows, same version
//! counters, same converged fixpoint state. A view certified for delta-seeded
//! refresh journals a refresh as one [`WalRecord::ViewDelta`] (the tuples
//! whose totals changed); its result table is derived from that state, so it
//! is never journaled as rows.
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
//! carries the log format (format 1 wrote bare kinds `1..=6`; format 2 wrote
//! view images with encoded warm blobs), so an intact record of another
//! format is refused as [`StorageError::UnsupportedFormat`] without a file
//! header.
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
//! durable write in the workspace goes through this one fsync-disciplined
//! module, the only one `clippy.toml`'s disallowed `File::create` /
//! `write_all` / `fs::rename` exempt. Each boundary consults the
//! [`CrashInjector`] first, which is how the `reproduce crash-soak` gate
//! simulates death at every enumerated point.
#![expect(
    clippy::disallowed_methods,
    reason = "the WAL append and the snapshot publish are the durable-write protocol"
)]

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rasql_api::codec::{
    expect_end, get_bool, get_count, get_rows, get_schema, get_string, get_u8, get_varint,
    put_bool, put_rows, put_schema, put_str, put_varint,
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

/// Full image of one materialized view's registry entry plus, for a view
/// certified for delta-seeded refresh, its converged fixpoint rows. The
/// defining SQL is stored as the complete source script it arrived in;
/// recovery re-parses and re-analyzes it against the restored catalog (the
/// AST has no renderer, and re-analysis also restores planner state like
/// `CREATE VIEW` definitions the statement depends on).
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
    /// Base-table versions the current contents were computed from.
    pub deps: Vec<ViewDep>,
    /// The converged rows of each clique view, in clique order — written
    /// sorted — for an eligible view; empty otherwise.
    pub warm: Vec<Vec<Row>>,
}

impl ViewImage {
    /// Replay a refresh's delta over this image: the registry fields move to
    /// the delta's, and each clique view's changed tuples are appended to its
    /// rows. A key may then occur more than once; loading the rows merges its
    /// totals under the view's monotone ops (set union, `min`, `max`), so a
    /// delta replayed twice, or over an image that already holds it, changes
    /// nothing.
    pub fn apply(&mut self, delta: ViewDelta) {
        self.version = delta.version;
        self.deps = delta.deps;
        self.last_refresh = "incremental".to_string();
        for (rows, mut changed) in self.warm.iter_mut().zip(delta.changed) {
            rows.append(&mut changed);
        }
    }
}

/// What a delta-seeded refresh of a certified view changed: the registry
/// fields it moves, the version of the view's derived result table, and per
/// clique view the tuples whose totals changed.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDelta {
    /// Lower-cased view name (registry key).
    pub key: String,
    /// Registry version after the refresh.
    pub version: u64,
    /// Base-table versions the refreshed contents were computed from.
    pub deps: Vec<ViewDep>,
    /// Catalog version of the view's result table after the refresh.
    pub table: u64,
    /// Per clique view, in clique order, every tuple the refresh added or
    /// whose aggregate improved, with its new totals.
    pub changed: Vec<Vec<Row>>,
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
    /// Whole-table rewrite (`DELETE`, replace, the publish of a view that is
    /// not certified): full image.
    Replace(TableImage),
    /// Table dropped.
    Drop {
        /// Lower-cased table name.
        name: String,
    },
    /// Materialized-view create or full refresh: the full registry image.
    ViewPut {
        /// The view's registry entry (and converged rows, when certified).
        image: ViewImage,
        /// Catalog version of a certified (`image.eligible`) view's result
        /// table, which is derived from the converged rows and never
        /// journaled itself; 0, and ignored, for any other view — its table
        /// travels in a `Replace` record.
        table: u64,
    },
    /// A certified view's delta-seeded refresh.
    ViewDelta(ViewDelta),
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
const WAL_FORMAT: u8 = 3;

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

fn put_deps(buf: &mut Vec<u8>, deps: &[ViewDep]) {
    put_varint(buf, deps.len() as u64);
    for d in deps {
        put_str(buf, &d.table);
        put_varint(buf, d.version);
        put_varint(buf, d.rewrite_version);
        put_varint(buf, d.len);
    }
}

fn get_deps(input: &mut &[u8]) -> Result<Vec<ViewDep>, StorageError> {
    let n = get_count(input)?;
    let mut deps = Vec::with_capacity(n);
    for _ in 0..n {
        deps.push(ViewDep {
            table: get_string(input)?,
            version: get_varint(input)?,
            rewrite_version: get_varint(input)?,
            len: get_varint(input)?,
        });
    }
    Ok(deps)
}

/// One row batch per clique view.
fn put_batches(buf: &mut Vec<u8>, batches: &[Vec<Row>]) {
    put_varint(buf, batches.len() as u64);
    for rows in batches {
        put_rows(buf, rows);
    }
}

fn get_batches(input: &mut &[u8]) -> Result<Vec<Vec<Row>>, StorageError> {
    let n = get_count(input)?;
    let mut batches = Vec::with_capacity(n);
    for _ in 0..n {
        batches.push(get_rows(input)?);
    }
    Ok(batches)
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
    put_deps(buf, &img.deps);
    put_batches(buf, &img.warm);
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
    Ok(ViewImage {
        key,
        sql,
        version,
        eligible,
        ineligible_reason,
        last_refresh: get_string(input)?,
        deps: get_deps(input)?,
        warm: get_batches(input)?,
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
            WalRecord::ViewPut { .. } => 5,
            WalRecord::ViewDrop { .. } => 6,
            WalRecord::ViewDelta(_) => 7,
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
            WalRecord::ViewPut { image, table } => {
                put_view_image(&mut buf, image);
                put_varint(&mut buf, *table);
            }
            WalRecord::ViewDrop { key } => put_str(&mut buf, key),
            WalRecord::ViewDelta(d) => {
                put_str(&mut buf, &d.key);
                put_varint(&mut buf, d.version);
                put_deps(&mut buf, &d.deps);
                put_varint(&mut buf, d.table);
                put_batches(&mut buf, &d.changed);
            }
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
            5 => WalRecord::ViewPut {
                image: get_view_image(input)?,
                table: get_varint(input)?,
            },
            6 => WalRecord::ViewDrop {
                key: get_string(input)?,
            },
            7 => WalRecord::ViewDelta(ViewDelta {
                key: get_string(input)?,
                version: get_varint(input)?,
                deps: get_deps(input)?,
                table: get_varint(input)?,
                changed: get_batches(input)?,
            }),
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
    position: AtomicU64,
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
            position: AtomicU64::new(0),
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

    /// Records appended since the last snapshot (the compaction trigger).
    pub fn record_count(&self) -> u64 {
        self.records.load(Ordering::SeqCst)
    }

    /// Records appended through this appender so far — what the snapshot
    /// race check compares. Unlike [`record_count`](Self::record_count) a
    /// snapshot does not reset it, so a collection older than another
    /// snapshot never matches again, however many records land after it.
    pub fn position(&self) -> u64 {
        self.position.load(Ordering::SeqCst)
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
        self.position.fetch_add(1, Ordering::SeqCst);
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
    /// the log is still at [`position`](Self::position) `collected_at` — the
    /// caller collected its state *without* this lock (catalog locks rank
    /// below it), so a moved position means a mutation landed in between and
    /// the collected state may be stale; the caller re-collects and retries.
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
        collected_at: u64,
    ) -> Result<bool, StorageError> {
        let inner = self.inner.lock();
        if self.position.load(Ordering::SeqCst) != collected_at {
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
            WalRecord::ViewPut {
                image: ViewImage {
                    key: "paths".into(),
                    sql: "CREATE MATERIALIZED VIEW paths AS SELECT 1;".into(),
                    version: 3,
                    eligible: true,
                    ineligible_reason: None,
                    last_refresh: "incremental".into(),
                    deps: vec![ViewDep {
                        table: "edge".into(),
                        version: 2,
                        rewrite_version: 1,
                        len: 3,
                    }],
                    warm: vec![vec![int_row(&[1, 0]), int_row(&[2, 1])]],
                },
                table: 4,
            },
            WalRecord::ViewDelta(ViewDelta {
                key: "paths".into(),
                version: 4,
                deps: vec![ViewDep {
                    table: "edge".into(),
                    version: 5,
                    rewrite_version: 1,
                    len: 4,
                }],
                table: 6,
                changed: vec![vec![int_row(&[4, 2])]],
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

    /// A record of an earlier format — format 1's bare kind tag, format 2's
    /// nibble — that passes its CRC is a typed refusal, and replay leaves the
    /// log as it found it.
    #[test]
    fn another_format_is_refused_and_the_log_left_intact() {
        let dir = tmp_dir("format");
        for (tag, found) in [(2u8, 1u32), (0x22, 2)] {
            let mut payload = sample_records()[1].encode();
            payload[0] = tag;
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
                        found: f,
                        expected: 3
                    } if f == found
                ),
                "{err}"
            );
            assert_eq!(fs::read(&path).expect("read"), log);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A delta replays over the image it follows, and replaying it again —
    /// as the window between a snapshot's rename and the log's truncation
    /// does — appends rows a load merges away, and moves nothing else.
    #[test]
    fn a_view_delta_applies_to_its_image_idempotently() {
        let records = sample_records();
        let (WalRecord::ViewPut { image, .. }, WalRecord::ViewDelta(delta)) =
            (&records[2], &records[3])
        else {
            panic!("sample records changed shape");
        };
        let mut once = image.clone();
        once.apply(delta.clone());
        assert_eq!((once.version, &once.deps), (4, &delta.deps));
        assert_eq!(once.last_refresh, "incremental");
        assert_eq!(
            once.warm,
            [vec![int_row(&[1, 0]), int_row(&[2, 1]), int_row(&[4, 2])]]
        );
        let mut twice = once.clone();
        twice.apply(delta.clone());
        assert_eq!((twice.version, &twice.deps), (once.version, &once.deps));
        let mut distinct = twice.warm[0].clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct, once.warm[0]);
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
        let position = wal.position();
        // Stale expectation: refused.
        assert!(!wal
            .publish_snapshot(b"payload", position + 1)
            .expect("guarded publish"));
        // Current expectation: published, log truncated, counters reset.
        assert!(wal.publish_snapshot(b"payload", position).expect("publish"));
        assert_eq!(wal.record_count(), 0);
        assert_eq!(wal.position(), position, "a snapshot keeps the position");
        assert_eq!(
            fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot"),
            b"payload"
        );
        assert_eq!(fs::read(dir.join(WAL_FILE)).expect("wal").len(), 0);
        assert!(!dir.join(SNAPSHOT_TEMP_FILE).exists(), "temp must be gone");
        assert_eq!(wal.stats().snapshots, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A collection made before another snapshot was published is refused
    /// even once as many records have landed since that snapshot as the
    /// log held when it was made: the record count came back, the position
    /// did not.
    #[test]
    fn a_collection_older_than_a_snapshot_is_refused() {
        let dir = tmp_dir("snapshot-aba");
        let wal = Wal::open(&dir, CrashInjector::none()).expect("open");
        wal.append(&sample_records()[0]).expect("append");
        let (stale, count) = (wal.position(), wal.record_count());
        assert!(wal.publish_snapshot(b"newer", stale).expect("publish"));
        wal.append(&sample_records()[1]).expect("append");
        assert_eq!(wal.record_count(), count);
        assert!(!wal.publish_snapshot(b"older", stale).expect("guarded"));
        assert_eq!(
            fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot"),
            b"newer"
        );
        assert_eq!(wal.record_count(), 1, "the newer record stays in the log");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}
