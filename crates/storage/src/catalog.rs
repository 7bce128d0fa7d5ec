//! Catalog: the named base tables visible to a query session.
//!
//! Every table carries a pair of version counters so higher layers can do
//! cheap change detection (the incremental view-maintenance subsystem keys
//! its staleness checks and caches on them):
//!
//! * `version` — bumped on *every* mutation (insert, replace, re-register).
//! * `rewrite_version` — bumped only on non-append mutations (replace,
//!   delete, drop+re-register). While `rewrite_version` is unchanged the
//!   relation has only grown by appends, so `rows[old_len..]` is exactly
//!   the delta since any earlier observation of length `old_len`.
//!
//! Version numbers are drawn from one catalog-global counter, so a dropped
//! and re-created table can never alias an older version of itself.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::row::Row;
use crate::sync::{LockRank, RankedRwLock};
use crate::value::{Escaped, Value};
use crate::wal::{TableImage, Wal, WalRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The version pair tracked per table (see the module docs for the
/// append-only invariant `rewrite_version` encodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableVersion {
    /// Bumped on every mutation.
    pub version: u64,
    /// Bumped only on non-append mutations (replace / re-register).
    pub rewrite_version: u64,
}

struct Entry {
    rel: Arc<Relation>,
    version: u64,
    rewrite_version: u64,
    /// The result table of a materialized view certified for delta-seeded
    /// refresh: derived from the view's converged state, so journaled by the
    /// view's own records and exported without rows.
    derived: bool,
    /// Key reads a derived table answers from the state it is derived
    /// from; published and dropped with the rows it points into.
    lookup: Option<Arc<dyn KeyLookup>>,
}

/// Point reads of a derived table answered by the state it is derived from:
/// the position of the one row whose column [`KeyLookup::column`] equals a
/// key, with no scan and no index. Implemented above this crate (a view's
/// resident state); the catalog only publishes it beside its rows.
pub trait KeyLookup: Send + Sync {
    /// The table column the lookup is keyed on.
    fn column(&self) -> usize;

    /// The position of the row whose key column equals `key` as `Value::eq`
    /// sees it, `None` when no row does; `Escaped` when the lookup cannot
    /// tell (the caller then reads the table another way).
    fn position(&self, key: &Value) -> Result<Option<usize>, Escaped>;
}

/// How a refresh rewrites a derived table.
pub enum Derived {
    /// These rows, whatever the table held.
    Rows(Relation),
    /// A change to the rows the table holds.
    Patch(RowPatch),
}

/// A change to a derived table whose rows lie in consecutive ranges, one
/// per partition of the state the table is derived from: some rows replaced
/// where they stand, and new rows added at the end of their range. Applying
/// it moves rows, and copies none.
pub struct RowPatch {
    /// Per range, in table order: its length now and the rows added to it.
    pub ranges: Vec<(usize, Vec<Row>)>,
    /// Rows replaced: the position of the row now, and the new row.
    pub set: Vec<(usize, Row)>,
}

impl RowPatch {
    /// Whether the patch was made for a table of `rows` rows.
    fn fits(&self, rows: usize) -> bool {
        let before: usize = self.ranges.iter().map(|(len, _)| len).sum();
        before == rows && self.set.iter().all(|(at, _)| *at < rows)
    }

    fn apply(self, rows: &mut Vec<Row>) {
        for (at, row) in self.set {
            rows[at] = row;
        }
        if self.ranges.iter().all(|(_, added)| added.is_empty()) {
            return;
        }
        let total = rows.len() + self.ranges.iter().map(|(_, a)| a.len()).sum::<usize>();
        let mut old = std::mem::take(rows).into_iter();
        rows.reserve_exact(total);
        for (len, added) in self.ranges {
            rows.extend(old.by_ref().take(len));
            rows.extend(added);
        }
    }
}

/// What the `tables` lock guards: the tables and the catalog-global version
/// counter. The counter lives here so that minting a version needs `&mut` of
/// it — only a holder of the write lock can draw one.
#[derive(Default)]
struct Tables {
    map: BTreeMap<String, Entry>,
    versions: Versions,
}

/// The catalog-global version counter: the highest version minted (or
/// recovered) so far.
#[derive(Default)]
struct Versions(u64);

impl Versions {
    /// Draw the next version. Drawing inside the write section is what keeps
    /// every individual table's version sequence monotonic (two mutations of
    /// one table serialize on the lock and draw in that same order).
    fn fresh_version(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    /// Raise the counter to at least `floor`, so post-recovery mints can
    /// never alias a recovered version.
    fn bump_floor(&mut self, floor: u64) {
        self.0 = self.0.max(floor);
    }
}

/// A thread-safe registry of base relations, shared between the engine's
/// planner and the executor's workers. Names are case-insensitive (SQL).
pub struct Catalog {
    tables: RankedRwLock<Tables>,
    /// Durability journal, attached once after recovery. Mutators append
    /// from *inside* the `tables` write section (rank `CatalogTables` <
    /// `DurabilityLog`), so log order is exactly apply order.
    journal: OnceLock<Arc<Wal>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            tables: RankedRwLock::new(LockRank::CatalogTables, Tables::default()),
            journal: OnceLock::new(),
        }
    }

    /// Attach the write-ahead journal. Recovery attaches only after replay
    /// has finished, so replayed operations are never re-journaled; a
    /// second attach is ignored.
    pub fn attach_journal(&self, wal: Arc<Wal>) {
        let _ = self.journal.set(wal);
    }

    /// Whether a journal is attached (i.e. this catalog is durable).
    pub fn is_journaled(&self) -> bool {
        self.journal.get().is_some()
    }

    /// Journal the record `build` makes, when a journal is attached. The
    /// record is built only then: a table image is a deep copy of the table.
    fn journal_with(&self, build: impl FnOnce() -> WalRecord) -> Result<(), StorageError> {
        match self.journal.get() {
            Some(wal) => wal.append(&build()),
            None => Ok(()),
        }
    }

    /// The entry's image; a derived table's carries no rows.
    fn image(key: &str, entry: &Entry) -> TableImage {
        TableImage {
            name: key.to_string(),
            schema: entry.rel.schema().clone(),
            rows: if entry.derived {
                Vec::new()
            } else {
                entry.rel.rows().to_vec()
            },
            version: entry.version,
            rewrite_version: entry.rewrite_version,
        }
    }

    /// Register a table, failing if the name is taken.
    pub fn register(&self, name: &str, rel: Relation) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.map.contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        let v = tables.versions.fresh_version();
        let entry = Entry {
            rel: Arc::new(rel),
            version: v,
            rewrite_version: v,
            derived: false,
            lookup: None,
        };
        self.journal_with(|| WalRecord::Register(Self::image(&key, &entry)))?;
        tables.map.insert(key, entry);
        Ok(())
    }

    /// Register or replace a table. Counts as a rewrite: both version
    /// counters are bumped.
    ///
    /// # Errors
    /// Only when a durability journal is attached and the append fails.
    pub fn register_or_replace(&self, name: &str, rel: Relation) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let v = tables.versions.fresh_version();
        let entry = Entry {
            rel: Arc::new(rel),
            version: v,
            rewrite_version: v,
            derived: false,
            lookup: None,
        };
        self.journal_with(|| WalRecord::Replace(Self::image(&key, &entry)))?;
        tables.map.insert(key, entry);
        Ok(())
    }

    /// Register or replace a table from an already-shared relation, without
    /// cloning its rows (used for overlay catalogs during delta-seeded
    /// refresh). Counts as a rewrite: both version counters are bumped.
    ///
    /// # Errors
    /// Only when a durability journal is attached and the append fails.
    pub fn register_shared(&self, name: &str, rel: Arc<Relation>) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let v = tables.versions.fresh_version();
        let entry = Entry {
            rel,
            version: v,
            rewrite_version: v,
            derived: false,
            lookup: None,
        };
        self.journal_with(|| WalRecord::Replace(Self::image(&key, &entry)))?;
        tables.map.insert(key, entry);
        Ok(())
    }

    /// Publish the result table of a materialized view certified for
    /// delta-seeded refresh: `rows` whole, or patched into the rows the table
    /// holds (in place while the catalog holds the only reference to them,
    /// copy-on-write while a reader's snapshot is alive, as
    /// [`Catalog::insert_rows`] appends), with the `lookup` that answers key
    /// reads of them. Counts as a rewrite: both version counters are bumped.
    /// The table is derived from the view's converged state, so its rows are
    /// never journaled: `journal` appends the view's own record, given the
    /// table's new version, from inside the write section — log order is
    /// apply order, and nothing is published unless it succeeds. Returns the
    /// version.
    ///
    /// # Errors
    /// Whatever `journal` returns, and [`StorageError::Conflict`] — before
    /// anything is journaled — for a patch made for other rows than the
    /// table's.
    pub fn replace_derived(
        &self,
        name: &str,
        rows: Derived,
        lookup: Option<Arc<dyn KeyLookup>>,
        journal: impl FnOnce(u64) -> Result<(), StorageError>,
    ) -> Result<u64, StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let Tables { map, versions } = &mut *tables;
        let (mut rel, patch) = match rows {
            Derived::Rows(rel) => (Arc::new(rel), None),
            Derived::Patch(patch) => {
                let held = map.get(&key).map(|e| Arc::clone(&e.rel));
                match held.filter(|rel| patch.fits(rel.len())) {
                    Some(rel) => (rel, Some(patch)),
                    None => {
                        return Err(StorageError::Conflict(format!(
                            "table '{name}' does not hold the rows its patch was made for"
                        )))
                    }
                }
            }
        };
        let v = versions.fresh_version();
        journal(v)?;
        // The entry's reference goes first, so a patch applies in place
        // unless a reader still holds the rows.
        map.remove(&key);
        if let Some(patch) = patch {
            patch.apply(Arc::make_mut(&mut rel).rows_mut());
        }
        map.insert(
            key,
            Entry {
                rel,
                version: v,
                rewrite_version: v,
                derived: true,
                lookup,
            },
        );
        Ok(v)
    }

    /// Append rows to an existing table: in place when the catalog holds the
    /// only reference to its rows, copy-on-write while a reader's snapshot
    /// (a `get()`, a scan, a cached result) is alive — that reader keeps
    /// seeing the old rows. Bumps `version` but not `rewrite_version`, and
    /// returns the table's row count from *before* the append — the suffix
    /// `rows[old_len..]` of the new relation is exactly the inserted delta.
    pub fn insert_rows(
        &self,
        name: &str,
        rows: Vec<crate::row::Row>,
    ) -> Result<usize, StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let Tables { map, versions } = &mut *tables;
        let entry = map
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        let arity = entry.rel.schema().arity();
        if let Some(bad) = rows.iter().find(|r| r.arity() != arity) {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                actual: bad.arity(),
            });
        }
        let old_len = entry.rel.len();
        let v = versions.fresh_version();
        self.journal_with(|| WalRecord::Insert {
            name: key.clone(),
            rows: rows.clone(),
            version: v,
        })?;
        Arc::make_mut(&mut entry.rel).append(rows);
        entry.version = v;
        entry.lookup = None;
        Ok(old_len)
    }

    /// Replace a table's contents in place (e.g. after a `DELETE`). Counts
    /// as a rewrite: both version counters are bumped. Fails if the table
    /// does not exist.
    pub fn replace_rows(&self, name: &str, rel: Relation) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let Tables { map, versions } = &mut *tables;
        let entry = map
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        let v = versions.fresh_version();
        entry.rel = Arc::new(rel);
        entry.version = v;
        entry.rewrite_version = v;
        entry.lookup = None;
        self.journal_with(|| WalRecord::Replace(Self::image(&key, entry)))?;
        Ok(())
    }

    /// Replace a table's contents only if its `version` still equals
    /// `expected` — the publish step of an optimistic read-evaluate-replace
    /// cycle (e.g. `DELETE` evaluates its keep-predicate against a version
    /// snapshot and must not clobber rows inserted concurrently). Returns
    /// whether the replacement was applied; when it is, it counts as a
    /// rewrite and both version counters are bumped. Fails if the table
    /// does not exist.
    pub fn replace_rows_if(
        &self,
        name: &str,
        rel: Relation,
        expected: u64,
    ) -> Result<bool, StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let Tables { map, versions } = &mut *tables;
        let entry = map
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        if entry.version != expected {
            return Ok(false);
        }
        let v = versions.fresh_version();
        entry.rel = Arc::new(rel);
        entry.version = v;
        entry.rewrite_version = v;
        entry.lookup = None;
        self.journal_with(|| WalRecord::Replace(Self::image(&key, entry)))?;
        Ok(true)
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Result<Arc<Relation>, StorageError> {
        self.tables
            .read()
            .map
            .get(&name.to_ascii_lowercase())
            .map(|e| Arc::clone(&e.rel))
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// The rows of table `name` whose column `col` equals `key`, read
    /// through the [`KeyLookup`] published with them: at most one row, no
    /// scan. `None` when the table has no lookup on `col`, or it cannot tell.
    pub fn lookup(&self, name: &str, col: usize, key: &Value) -> Option<Vec<Row>> {
        let tables = self.tables.read();
        let entry = tables.map.get(&name.to_ascii_lowercase())?;
        let lookup = entry.lookup.as_ref().filter(|l| l.column() == col)?;
        let at = lookup.position(key).ok()?;
        Some(
            at.and_then(|i| entry.rel.rows().get(i))
                .cloned()
                .into_iter()
                .collect(),
        )
    }

    /// Look up a table together with its version pair and current length,
    /// atomically (a consistent snapshot for dependency tracking).
    pub fn get_versioned(&self, name: &str) -> Result<(Arc<Relation>, TableVersion), StorageError> {
        self.tables
            .read()
            .map
            .get(&name.to_ascii_lowercase())
            .map(|e| {
                (
                    Arc::clone(&e.rel),
                    TableVersion {
                        version: e.version,
                        rewrite_version: e.rewrite_version,
                    },
                )
            })
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// The version pair of a table, if it exists.
    pub fn version_of(&self, name: &str) -> Option<TableVersion> {
        self.tables
            .read()
            .map
            .get(&name.to_ascii_lowercase())
            .map(|e| TableVersion {
                version: e.version,
                rewrite_version: e.rewrite_version,
            })
    }

    /// True if the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables
            .read()
            .map
            .contains_key(&name.to_ascii_lowercase())
    }

    /// Remove a table; returns it if present.
    ///
    /// # Errors
    /// Only when a durability journal is attached and the append fails.
    pub fn drop_table(&self, name: &str) -> Result<Option<Arc<Relation>>, StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        match tables.map.remove(&key) {
            Some(e) => {
                self.journal_with(|| WalRecord::Drop { name: key })?;
                Ok(Some(e.rel))
            }
            None => Ok(None),
        }
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().map.keys().cloned().collect()
    }

    // ----------------------------------------------------------------
    // Recovery and snapshot support
    // ----------------------------------------------------------------

    /// Install a table image if it is newer than what the catalog holds
    /// (replay path — never journals). Version-guarded so replaying a log
    /// whose operations a snapshot already covers is a no-op, which is what
    /// makes the snapshot-renamed-but-log-not-yet-truncated crash window
    /// safe.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] if the image's rows do not match its
    /// own schema (only possible for a hand-forged image).
    pub fn apply_image(&self, img: TableImage) -> Result<(), StorageError> {
        let TableImage {
            name,
            schema,
            rows,
            version,
            rewrite_version,
        } = img;
        let key = name.to_ascii_lowercase();
        let rel = Relation::try_new(schema, rows)?;
        let mut tables = self.tables.write();
        if tables.map.get(&key).is_some_and(|e| e.version >= version) {
            return Ok(());
        }
        tables.map.insert(
            key,
            Entry {
                rel: Arc::new(rel),
                version,
                rewrite_version,
                derived: false,
                lookup: None,
            },
        );
        tables.versions.bump_floor(version.max(rewrite_version));
        Ok(())
    }

    /// Replay an `INSERT` record: append `rows` and set the table's version
    /// to the recorded one, unless the table already reached it.
    ///
    /// # Errors
    /// [`StorageError::UnknownTable`] if the table is missing (a log that
    /// inserts into a never-registered table is corrupt upstream).
    pub fn apply_insert(
        &self,
        name: &str,
        rows: Vec<crate::row::Row>,
        version: u64,
    ) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let Tables { map, versions } = &mut *tables;
        let entry = map
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        if entry.version >= version {
            return Ok(());
        }
        Arc::make_mut(&mut entry.rel).append(rows);
        entry.version = version;
        entry.lookup = None;
        versions.bump_floor(version);
        Ok(())
    }

    /// Replay a `Drop` record (no-op if already absent, never journals).
    pub fn apply_drop(&self, name: &str) {
        self.tables.write().map.remove(&name.to_ascii_lowercase());
    }

    /// Replay a certified view's record: its derived result table reached
    /// `version` (no-op if the table already did). The rows — and, for a
    /// table the snapshot did not hold, the schema — are installed by
    /// [`Catalog::fill_derived`] once the view is restored.
    pub fn apply_derived(&self, name: &str, version: u64) {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        match tables.map.get_mut(&key) {
            Some(e) if e.version >= version => {}
            Some(e) => {
                e.version = version;
                e.rewrite_version = version;
                e.derived = true;
                e.lookup = None;
            }
            None => {
                let rel = Arc::new(Relation::empty(crate::schema::Schema::empty()));
                tables.map.insert(
                    key,
                    Entry {
                        rel,
                        version,
                        rewrite_version: version,
                        derived: true,
                        lookup: None,
                    },
                );
            }
        }
        tables.versions.bump_floor(version);
    }

    /// Install the rows of a certified view's result table, which the log
    /// and the snapshot carry without rows, keeping the versions they
    /// recorded (recovery path — never journals). Returns false, installing
    /// nothing, when the table is absent: a crash between a view's `Drop`
    /// and `ViewDrop` records leaves the view registered without its table.
    pub fn fill_derived(
        &self,
        name: &str,
        rel: Relation,
        lookup: Option<Arc<dyn KeyLookup>>,
    ) -> bool {
        match self.tables.write().map.get_mut(&name.to_ascii_lowercase()) {
            Some(e) => {
                e.rel = Arc::new(rel);
                e.derived = true;
                e.lookup = lookup;
                true
            }
            None => false,
        }
    }

    /// Full images of every table, for snapshot collection; a derived table
    /// is exported with its schema and versions and no rows.
    pub fn export_tables(&self) -> Vec<TableImage> {
        self.tables
            .read()
            .map
            .iter()
            .map(|(k, e)| Self::image(k, e))
            .collect()
    }

    /// The highest version this catalog has minted (snapshots persist it as
    /// the recovery floor).
    pub fn version_ceiling(&self) -> u64 {
        self.tables.read().versions.0
    }

    /// Raise the version counter to at least `floor`, so post-recovery
    /// mints can never alias a recovered version.
    pub fn bump_version_floor(&self, floor: u64) {
        self.tables.write().versions.bump_floor(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    #[test]
    fn register_lookup_case_insensitive() {
        let c = Catalog::new();
        c.register("Edge", Relation::edges(&[(1, 2)])).unwrap();
        assert!(c.contains("edge"));
        assert_eq!(c.get("EDGE").unwrap().len(), 1);
    }

    #[test]
    fn duplicate_rejected_replace_allowed() {
        let c = Catalog::new();
        c.register("t", Relation::edges(&[])).unwrap();
        assert!(c.register("T", Relation::edges(&[])).is_err());
        c.register_or_replace("t", Relation::edges(&[(1, 2)]))
            .unwrap();
        assert_eq!(c.get("t").unwrap().len(), 1);
    }

    #[test]
    fn drop_and_names() {
        let c = Catalog::new();
        c.register("b", Relation::edges(&[])).unwrap();
        c.register("a", Relation::edges(&[])).unwrap();
        assert_eq!(c.table_names(), vec!["a", "b"]);
        assert!(c.drop_table("a").unwrap().is_some());
        assert!(c.get("a").is_err());
    }

    #[test]
    fn insert_bumps_version_not_rewrite() {
        let c = Catalog::new();
        c.register("t", Relation::edges(&[(1, 2)])).unwrap();
        let v0 = c.version_of("t").unwrap();
        let old_len = c.insert_rows("t", vec![int_row(&[3, 4])]).unwrap();
        assert_eq!(old_len, 1);
        let v1 = c.version_of("t").unwrap();
        assert!(v1.version > v0.version);
        assert_eq!(v1.rewrite_version, v0.rewrite_version);
        // The suffix past old_len is exactly the delta.
        assert_eq!(c.get("t").unwrap().rows()[old_len..], [int_row(&[3, 4])]);
    }

    #[test]
    fn held_snapshot_keeps_its_rows_across_an_insert() {
        let c = Catalog::new();
        c.register("t", Relation::edges(&[(1, 2)])).unwrap();
        let snapshot = c.get("t").unwrap();
        let v0 = c.version_of("t").unwrap();
        c.insert_rows("t", vec![int_row(&[3, 4])]).unwrap();
        // The reader that took `get()` before the INSERT still sees one row;
        // the catalog copied on write instead of growing under it.
        assert_eq!(snapshot.rows(), [int_row(&[1, 2])]);
        let now = c.get("t").unwrap();
        assert_eq!(now.len(), 2);
        assert!(!Arc::ptr_eq(snapshot.shared_rows(), now.shared_rows()));
        assert!(c.version_of("t").unwrap().version > v0.version);
    }

    #[test]
    fn insert_appends_in_place_when_no_snapshot_is_held() {
        let c = Catalog::new();
        c.register("t", Relation::edges(&[(1, 2)])).unwrap();
        // The shared buffer's identity survives every append (the `Vec`
        // inside it grows): a copy-on-write would have made a new one.
        let buf = Arc::as_ptr(c.get("t").unwrap().shared_rows());
        let mut last = c.version_of("t").unwrap().version;
        for i in 0..8 {
            let old_len = c.insert_rows("t", vec![int_row(&[i, i])]).unwrap();
            assert_eq!(old_len, 1 + i as usize);
            let v = c.version_of("t").unwrap().version;
            assert!(v > last);
            last = v;
        }
        let rel = c.get("t").unwrap();
        assert_eq!(rel.len(), 9);
        assert_eq!(
            Arc::as_ptr(rel.shared_rows()),
            buf,
            "no table copy per INSERT"
        );
    }

    #[test]
    fn replace_bumps_rewrite() {
        let c = Catalog::new();
        c.register("t", Relation::edges(&[(1, 2)])).unwrap();
        let v0 = c.version_of("t").unwrap();
        c.replace_rows("t", Relation::edges(&[])).unwrap();
        let v1 = c.version_of("t").unwrap();
        assert!(v1.rewrite_version > v0.rewrite_version);
        // Re-registering after a drop can't alias the old versions.
        c.drop_table("t").unwrap().unwrap();
        c.register("t", Relation::edges(&[])).unwrap();
        let v2 = c.version_of("t").unwrap();
        assert!(v2.version > v1.version);
    }

    #[test]
    fn replace_rows_if_guards_version() {
        let c = Catalog::new();
        c.register("t", Relation::edges(&[(1, 2)])).unwrap();
        let v0 = c.version_of("t").unwrap();
        // Stale expectation (a concurrent insert moved the version): refused.
        c.insert_rows("t", vec![int_row(&[3, 4])]).unwrap();
        assert!(!c
            .replace_rows_if("t", Relation::edges(&[]), v0.version)
            .unwrap());
        assert_eq!(c.get("t").unwrap().len(), 2);
        // Current expectation: applied, counted as a rewrite.
        let v1 = c.version_of("t").unwrap();
        assert!(c
            .replace_rows_if("t", Relation::edges(&[(9, 9)]), v1.version)
            .unwrap());
        let v2 = c.version_of("t").unwrap();
        assert!(v2.rewrite_version > v1.rewrite_version);
        assert_eq!(c.get("t").unwrap().len(), 1);
        assert!(c
            .replace_rows_if("missing", Relation::edges(&[]), 0)
            .is_err());
    }

    #[test]
    fn versions_monotonic_under_concurrent_mutation() {
        // Versions are drawn inside the tables write lock, so one table's
        // version sequence can never run backwards even when many threads
        // mutate it at once.
        let c = Arc::new(Catalog::new());
        c.register("t", Relation::edges(&[])).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..50 {
                        c.insert_rows("t", vec![int_row(&[1, 2])]).unwrap();
                        let v = c.version_of("t").unwrap().version;
                        assert!(v > last, "version went backwards: {last} -> {v}");
                        last = v;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// A derived table is published only once its journal closure succeeds,
    /// is exported without rows, and comes back from a replayed version plus
    /// the rows its view derives.
    #[test]
    fn a_derived_table_is_journaled_by_its_view_and_exported_without_rows() {
        let c = Catalog::new();
        let whole = || Derived::Rows(Relation::edges(&[(1, 2)]));
        let err = c.replace_derived("v", whole(), None, |_| {
            Err(StorageError::InjectedCrash("test".into()))
        });
        assert!(err.is_err());
        assert!(!c.contains("v"), "a failed journal publishes nothing");
        let mut journaled = 0;
        let v = c
            .replace_derived("v", whole(), None, |v| {
                journaled = v;
                Ok(())
            })
            .unwrap();
        assert_eq!((journaled, c.version_of("v").unwrap().version), (v, v));
        let [header] = &c.export_tables()[..] else {
            panic!("one table");
        };
        assert!(header.rows.is_empty());
        assert_eq!(header.schema.arity(), 2);

        let recovered = Catalog::new();
        recovered.apply_derived("v", v);
        recovered.apply_derived("v", v - 1);
        assert!(recovered.fill_derived("v", Relation::edges(&[(1, 2)]), None));
        assert_eq!(recovered.export_tables(), c.export_tables());
        assert_eq!(recovered.get("v").unwrap().len(), 1);
        assert!(recovered.version_ceiling() >= v);
        assert!(!recovered.fill_derived("gone", Relation::edges(&[]), None));
    }

    /// A lookup keyed on column 0 of `edges`, found by scanning them.
    struct Scan(Vec<i64>);

    impl KeyLookup for Scan {
        fn column(&self) -> usize {
            0
        }

        fn position(&self, key: &Value) -> Result<Option<usize>, Escaped> {
            Ok(self.0.iter().position(|&k| Value::Int(k) == *key))
        }
    }

    /// A patch replaces rows where they stand and adds rows at the end of
    /// their range; it applies in place unless a reader holds the rows, who
    /// keeps the old ones; one made for other rows publishes nothing. The
    /// lookup is published with the rows and dropped by an append.
    #[test]
    fn a_derived_table_is_patched_in_place_or_copied_on_write() {
        let c = Catalog::new();
        let lookup = |keys: &[i64]| Some(Arc::new(Scan(keys.to_vec())) as Arc<dyn KeyLookup>);
        let rows = Derived::Rows(Relation::edges(&[(1, 10), (2, 20), (3, 30)]));
        c.replace_derived("v", rows, lookup(&[1, 2, 3]), |_| Ok(()))
            .unwrap();
        assert_eq!(
            c.lookup("v", 0, &Value::Int(2)),
            Some(vec![int_row(&[2, 20])])
        );
        assert_eq!(c.lookup("v", 0, &Value::Int(9)), Some(vec![]));
        assert_eq!(
            c.lookup("v", 1, &Value::Int(20)),
            None,
            "no lookup on column 1"
        );

        let held = c.get("v").unwrap();
        let patch = || RowPatch {
            ranges: vec![(2, vec![int_row(&[4, 40])]), (1, vec![int_row(&[5, 50])])],
            set: vec![(1, int_row(&[2, 21]))],
        };
        c.replace_derived(
            "v",
            Derived::Patch(patch()),
            lookup(&[1, 2, 4, 3, 5]),
            |_| Ok(()),
        )
        .unwrap();
        let want = Relation::edges(&[(1, 10), (2, 21), (4, 40), (3, 30), (5, 50)]);
        assert_eq!(c.get("v").unwrap().rows(), want.rows());
        assert_eq!(held.len(), 3, "a reader keeps the rows it holds");
        assert_eq!(held.rows()[1], int_row(&[2, 20]));
        assert_eq!(
            c.lookup("v", 0, &Value::Int(3)),
            Some(vec![int_row(&[3, 30])])
        );

        drop(held);
        let before = c.get("v").unwrap().rows().as_ptr();
        let grown = RowPatch {
            ranges: vec![(5, vec![])],
            set: vec![(0, int_row(&[1, 11]))],
        };
        c.replace_derived("v", Derived::Patch(grown), None, |_| Ok(()))
            .unwrap();
        assert_eq!(
            c.get("v").unwrap().rows().as_ptr(),
            before,
            "patched in place"
        );
        let version = c.version_of("v").unwrap();
        let err = c.replace_derived("v", Derived::Patch(patch()), None, |_| Ok(()));
        assert!(matches!(err, Err(StorageError::Conflict(_))), "{err:?}");
        assert_eq!(c.version_of("v").unwrap(), version, "nothing is minted");

        c.replace_derived("v", Derived::Rows(want), lookup(&[1, 2, 4, 3, 5]), |_| {
            Ok(())
        })
        .unwrap();
        c.insert_rows("v", vec![int_row(&[6, 60])]).unwrap();
        assert_eq!(
            c.lookup("v", 0, &Value::Int(1)),
            None,
            "an append drops the lookup"
        );
    }

    #[test]
    fn insert_validates_arity() {
        let c = Catalog::new();
        c.register("t", Relation::edges(&[])).unwrap();
        assert!(c.insert_rows("t", vec![int_row(&[1])]).is_err());
        assert!(c.insert_rows("missing", vec![]).is_err());
    }

    #[test]
    fn journaled_mutations_replay_to_an_identical_catalog() {
        use crate::crashpoint::CrashInjector;
        use crate::wal;

        let dir = std::env::temp_dir().join(format!(
            "rasql-catalog-journal-p{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Catalog::new();
        c.attach_journal(Arc::new(
            wal::Wal::open(&dir, CrashInjector::none()).unwrap(),
        ));
        assert!(c.is_journaled());
        c.register("edge", Relation::edges(&[(1, 2)])).unwrap();
        c.insert_rows("edge", vec![int_row(&[2, 3])]).unwrap();
        c.register("gone", Relation::edges(&[])).unwrap();
        c.replace_rows("edge", Relation::edges(&[(5, 6)])).unwrap();
        c.drop_table("gone").unwrap().unwrap();

        let recovered = Catalog::new();
        for rec in wal::replay(&dir.join(wal::WAL_FILE)).unwrap().records {
            match rec {
                wal::WalRecord::Register(img) | wal::WalRecord::Replace(img) => {
                    recovered.apply_image(img).unwrap();
                }
                wal::WalRecord::Insert {
                    name,
                    rows,
                    version,
                } => recovered.apply_insert(&name, rows, version).unwrap(),
                wal::WalRecord::Drop { name } => recovered.apply_drop(&name),
                other => panic!("unexpected view record {other:?}"),
            }
        }
        assert_eq!(recovered.export_tables(), c.export_tables());
        assert_eq!(recovered.version_of("edge"), c.version_of("edge"));
        // The floor guarantees fresh mints stay above every recovered version.
        recovered.register("next", Relation::edges(&[])).unwrap();
        assert!(
            recovered.version_of("next").unwrap().version > c.version_of("edge").unwrap().version
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
