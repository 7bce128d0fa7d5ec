//! The index store: the one place a join index of base data is built, kept,
//! advanced and found.
//!
//! The paper keeps what recursion probes resident — the base relation is
//! hashed (or compressed) once per fixpoint and every iteration reuses it
//! (§6.1, §7.2). This module extends that across statements: an index is
//! keyed by *what it indexes* — the build plan's text, the key columns and
//! the layout — and remembers, per base table the plan reads, the
//! `(rewrite_version, len)` it covers. Recursive joins, kernel CSR graphs,
//! incremental view refreshes and `WHERE col = literal` lookups all ask the
//! same store, so they share one index and one invalidation rule.
//!
//! # The fetch protocol (which is the invalidation protocol)
//!
//! A reader snapshots the plan's tables, renders their
//! [`IndexDep`]s and calls [`IndexStore::fetch`]:
//!
//! * every dependency equal → [`Fetch::Hit`]: the index is lent (`Arc`
//!   clones);
//! * every dependency at the same `rewrite_version`, none shorter, exactly
//!   one grown → [`Fetch::Grown`]: the reader — if the plan distributes over
//!   appended rows and reads that table once — evaluates the plan over only
//!   `rows[from..]` of it and hands the rows to [`IndexStore::advance`];
//! * anything else → [`Fetch::Miss`]: the reader evaluates the plan over its
//!   snapshot, builds with [`Index::build`] and [`IndexStore::publish`]es.
//!
//! Plans are evaluated and indexes built outside the store's lock;
//! publication re-checks under it and the first publisher of a version wins.
//! The lock ([`LockRank::IndexStore`]) is never held across a catalog
//! access. An `INSERT` therefore touches nothing here (the next fetch
//! advances); replacing, deleting from or dropping a table
//! [`sweep`](IndexStore::sweep)s its entries, which only frees their memory
//! early — a stale entry can never be lent, its `rewrite_version` no longer
//! matches.
//!
//! # Advance ≡ rebuild
//!
//! A hash entry appends each delta row under its key, so per-key row order
//! stays table order; a CSR entry is [`CsrGraph::extended`], which interns
//! new endpoints after the existing ones and puts each vertex's new edges
//! after its old ones — both exactly what a build over all rows produces.

use crate::csr::{CsrGraph, CsrWeight};
use crate::hasher::FxHashMap;
use crate::partition::{hash_partition, row_partition};
use crate::row::Row;
use crate::sync::{LockRank, RankedMutex};
use crate::value::Value;
use std::sync::Arc;

/// A multimap hash table over `key_cols` of the build rows.
#[derive(Debug, Clone, Default)]
pub struct HashTable {
    map: FxHashMap<Box<[Value]>, Vec<Row>>,
    key_cols: Vec<usize>,
}

impl HashTable {
    /// Build from rows.
    pub fn build(rows: &[Row], key_cols: &[usize]) -> Self {
        let mut table = HashTable {
            map: FxHashMap::default(),
            key_cols: key_cols.to_vec(),
        };
        table.append(rows);
        table
    }

    /// Append rows, each after the rows already under its key. A key is
    /// looked up through one reused buffer and allocated only when vacant.
    pub fn append(&mut self, rows: &[Row]) {
        let mut key: Vec<Value> = Vec::with_capacity(self.key_cols.len());
        for row in rows {
            self.push(row, &mut key);
        }
    }

    /// Append one row; `key` is the caller's scratch buffer.
    fn push(&mut self, row: &Row, key: &mut Vec<Value>) {
        key.clear();
        key.extend(self.key_cols.iter().map(|&c| row[c].clone()));
        match self.map.get_mut(&key[..]) {
            Some(bucket) => bucket.push(row.clone()),
            None => {
                self.map.insert(key[..].into(), vec![row.clone()]);
            }
        }
    }

    /// Key columns this table is built on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Probe with key values.
    #[inline]
    pub fn probe(&self, key: &[Value]) -> &[Row] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn keys(&self) -> usize {
        self.map.len()
    }

    /// Total rows stored.
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate memory footprint: the paper notes a hashed relation is
    /// typically 2-3x the raw data — this is what broadcast compression avoids
    /// shipping.
    pub fn size_bytes(&self) -> usize {
        self.map
            .iter()
            .map(|(k, v)| {
                32 + k.iter().map(Value::size_bytes).sum::<usize>()
                    + v.iter().map(Row::size_bytes).sum::<usize>()
            })
            .sum()
    }
}

/// A co-partitioned hash index: partition `p` holds the rows whose key
/// hashes to `p` under the engine's partition function, so the join of a
/// delta partitioned on the probe key runs partition-wise against it.
#[derive(Debug, Clone)]
pub struct HashIndex {
    parts: Vec<Arc<HashTable>>,
    key_cols: Vec<usize>,
}

impl HashIndex {
    /// Index `rows` on `key_cols` into `partitions` tables.
    pub fn build(rows: &[Row], key_cols: &[usize], partitions: usize) -> Self {
        let mut index = HashIndex {
            parts: (0..partitions.max(1))
                .map(|_| Arc::new(HashTable::build(&[], key_cols)))
                .collect(),
            key_cols: key_cols.to_vec(),
        };
        index.append(rows);
        index
    }

    /// Append rows: in place in every partition table this index holds the
    /// only reference to, on a copy of a table a running query still reads —
    /// the protocol [`crate::Catalog::insert_rows`] uses for rows.
    pub fn append(&mut self, rows: &[Row]) {
        let n = self.parts.len();
        let mut key: Vec<Value> = Vec::with_capacity(self.key_cols.len());
        for row in rows {
            let part = row_partition(row, &self.key_cols, n);
            Arc::make_mut(&mut self.parts[part]).push(row, &mut key);
        }
    }

    /// The per-partition tables.
    pub fn parts(&self) -> &[Arc<HashTable>] {
        &self.parts
    }

    /// The partition table a key lives in.
    pub fn table_for(&self, key: &[Value]) -> &Arc<HashTable> {
        let key: Vec<&Value> = key.iter().collect();
        &self.parts[hash_partition(&key, self.parts.len())]
    }

    /// Total rows stored.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|t| t.len()).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|t| t.is_empty())
    }

    /// Approximate memory footprint.
    pub fn size_bytes(&self) -> usize {
        self.parts.iter().map(|t| t.size_bytes()).sum()
    }
}

/// The physical shape of an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexLayout {
    /// Per-partition hash tables on the key columns.
    Hash {
        /// Partition count.
        partitions: usize,
    },
    /// A CSR graph with dense vertex ids (the kernels' broadcast payload).
    Csr {
        /// Source-vertex column.
        src: usize,
        /// Destination-vertex column.
        dst: usize,
        /// How edge weights are extracted.
        weight: CsrWeight,
        /// Partition count (`part_of` is precomputed for it).
        partitions: usize,
    },
}

/// What an index indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexKey {
    /// The build plan's cache text (literals spelled out).
    pub plan: String,
    /// Key columns of the plan's output rows.
    pub key_cols: Vec<usize>,
    /// Physical shape.
    pub layout: IndexLayout,
}

/// How much of one base table an index covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDep {
    /// Lower-cased table name.
    pub table: String,
    /// The table's `rewrite_version`: unchanged means append-only since.
    pub rewrite_version: u64,
    /// Rows of the table the index was built over.
    pub len: usize,
}

/// A built index, lent by `Arc`.
#[derive(Debug, Clone)]
pub enum Index {
    /// A co-partitioned hash index.
    Hash(HashIndex),
    /// A CSR graph.
    Csr(Arc<CsrGraph>),
}

impl Index {
    /// Build the index `key` describes over the plan's output `rows`.
    /// `None` when a CSR layout meets a row that is not of its declared
    /// types (the caller falls back to the interpreter).
    pub fn build(key: &IndexKey, rows: &[Row]) -> Option<Index> {
        Some(match key.layout {
            IndexLayout::Hash { partitions } => {
                Index::Hash(HashIndex::build(rows, &key.key_cols, partitions))
            }
            IndexLayout::Csr {
                src,
                dst,
                weight,
                partitions,
            } => Index::Csr(Arc::new(CsrGraph::build(
                rows,
                src,
                dst,
                weight,
                [],
                partitions,
            )?)),
        })
    }

    /// Approximate memory footprint.
    pub fn size_bytes(&self) -> usize {
        match self {
            Index::Hash(h) => h.size_bytes(),
            Index::Csr(g) => g.size_bytes(),
        }
    }
}

/// The answer to a [`IndexStore::fetch`].
#[derive(Debug)]
pub enum Fetch {
    /// An entry covers exactly the reader's snapshot.
    Hit(Index),
    /// An entry covers a prefix: `table` grew by appends past row `from` and
    /// nothing else changed.
    Grown {
        /// The grown table.
        table: String,
        /// Rows of it the entry covers.
        from: usize,
    },
    /// No usable entry.
    Miss,
}

/// Counters of the store since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Indexes published under a key the store did not hold.
    pub builds: u64,
    /// Entries advanced by appended rows.
    pub advances: u64,
    /// Indexes published over an entry of the same key at other versions.
    pub rebuilds: u64,
    /// Fetches answered from an entry (as it was, or advanced).
    pub probes: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Approximate bytes currently held.
    pub bytes: u64,
}

impl std::fmt::Display for IndexStats {
    /// The one line status surfaces show.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries, {} bytes, {} builds, {} advances, {} rebuilds, {} probes",
            self.entries, self.bytes, self.builds, self.advances, self.rebuilds, self.probes
        )
    }
}

/// Entries kept (least recently lent evicted first). Indexes are table-sized;
/// a handful of (plan, key) pairs in flight is the realistic working set.
const INDEX_STORE_CAPACITY: usize = 16;

struct Entry {
    key: IndexKey,
    deps: Vec<IndexDep>,
    index: Index,
    bytes: u64,
}

#[derive(Default)]
struct Inner {
    /// Least recently lent first.
    entries: Vec<Entry>,
    /// Keys a lookup asked for and did not find, with the rewrite versions
    /// it asked at; oldest first, bounded like `entries`.
    asked: Vec<(IndexKey, Vec<u64>)>,
    stats: IndexStats,
}

impl Inner {
    fn lend(&mut self, at: usize) -> Index {
        let entry = self.entries.remove(at);
        let index = entry.index.clone();
        self.entries.push(entry);
        self.stats.probes += 1;
        index
    }
}

/// The versioned index store; see the [module docs](self).
pub struct IndexStore {
    inner: RankedMutex<Inner>,
}

impl Default for IndexStore {
    fn default() -> Self {
        Self::new()
    }
}

/// True when `deps` is `now` except that `table` stood at `from` rows.
fn covers_prefix(deps: &[IndexDep], now: &[IndexDep], table: &str, from: usize) -> bool {
    deps.len() == now.len()
        && deps.iter().zip(now).all(|(d, n)| {
            d.table == n.table
                && d.rewrite_version == n.rewrite_version
                && d.len == if d.table == table { from } else { n.len }
        })
}

impl IndexStore {
    /// An empty store.
    pub fn new() -> Self {
        IndexStore {
            inner: RankedMutex::new(LockRank::IndexStore, Inner::default()),
        }
    }

    /// Ask for the index `key` describes at the table versions `now` (sorted
    /// by table name, as every caller renders them).
    pub fn fetch(&self, key: &IndexKey, now: &[IndexDep]) -> Fetch {
        let mut inner = self.inner.lock();
        let Some(at) = inner.entries.iter().position(|e| e.key == *key) else {
            return Fetch::Miss;
        };
        if inner.entries[at].deps[..] == *now {
            return Fetch::Hit(inner.lend(at));
        }
        // Exactly one dependency longer, everything else as recorded.
        let deps = &inner.entries[at].deps;
        let mut grown = deps.iter().zip(now).filter(|(d, n)| n.len > d.len);
        match (grown.next(), grown.next()) {
            (Some((d, _)), None) if covers_prefix(deps, now, &d.table, d.len) => Fetch::Grown {
                table: d.table.clone(),
                from: d.len,
            },
            _ => Fetch::Miss,
        }
    }

    /// Advance the entry of `key` from the state [`Fetch::Grown`] reported to
    /// `now` with `delta`, the plan's output over only the appended rows.
    /// `None` when the entry is no longer at that state (another reader moved
    /// it) or a CSR delta row is not of the graph's types; the caller
    /// rebuilds.
    pub fn advance(
        &self,
        key: &IndexKey,
        table: &str,
        from: usize,
        now: &[IndexDep],
        delta: &[Row],
    ) -> Option<Index> {
        let delta_bytes: u64 = delta.iter().map(|r| r.size_bytes() as u64).sum();
        let base = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            let at = inner.entries.iter().position(|e| e.key == *key)?;
            let entry = &mut inner.entries[at];
            if !covers_prefix(&entry.deps, now, table, from) {
                return None;
            }
            match &mut entry.index {
                // Appending already-evaluated rows is the whole cost.
                Index::Hash(h) => {
                    h.append(delta);
                    entry.deps = now.to_vec();
                    entry.bytes += delta_bytes;
                    inner.stats.advances += 1;
                    return Some(inner.lend(at));
                }
                Index::Csr(g) => Arc::clone(g),
            }
        };
        // A CSR graph is re-laid-out, O(V + E): outside the lock, published
        // only if the entry is still where it was.
        let IndexLayout::Csr {
            src,
            dst,
            weight,
            partitions,
        } = key.layout
        else {
            return None;
        };
        let graph = Arc::new(base.extended(delta, src, dst, weight, [], partitions)?);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let at = inner.entries.iter().position(|e| e.key == *key)?;
        let entry = &mut inner.entries[at];
        if entry.deps[..] == *now {
            return Some(inner.lend(at));
        }
        if !covers_prefix(&entry.deps, now, table, from) {
            return None;
        }
        entry.bytes = graph.size_bytes() as u64;
        entry.index = Index::Csr(graph);
        entry.deps = now.to_vec();
        inner.stats.advances += 1;
        Some(inner.lend(at))
    }

    /// Publish an index built outside the lock over the snapshot `deps`.
    /// Returns the index to use: the store's own when another reader
    /// published the same versions first.
    pub fn publish(&self, key: IndexKey, deps: Vec<IndexDep>, index: Index) -> Index {
        let bytes = index.size_bytes() as u64;
        let mut inner = self.inner.lock();
        if let Some(at) = inner.entries.iter().position(|e| e.key == key) {
            if inner.entries[at].deps == deps {
                return inner.lend(at);
            }
            inner.entries.remove(at);
            inner.stats.rebuilds += 1;
        } else {
            inner.stats.builds += 1;
        }
        while inner.entries.len() >= INDEX_STORE_CAPACITY {
            inner.entries.remove(0);
        }
        inner.asked.retain(|(k, _)| *k != key);
        inner.entries.push(Entry {
            key,
            deps,
            index: index.clone(),
            bytes,
        });
        index
    }

    /// Whether a lookup that found no entry should build one: true the
    /// second time the same key is asked for at the same rewrite versions.
    /// A table that is replaced between single reads never pays a build it
    /// would use once.
    pub fn second_use(&self, key: &IndexKey, now: &[IndexDep]) -> bool {
        let versions: Vec<u64> = now.iter().map(|d| d.rewrite_version).collect();
        let mut inner = self.inner.lock();
        if let Some(at) = inner.asked.iter().position(|(k, _)| k == key) {
            let (_, asked_at) = inner.asked.remove(at);
            if asked_at == versions {
                return true;
            }
        }
        if inner.asked.len() >= INDEX_STORE_CAPACITY {
            inner.asked.remove(0);
        }
        inner.asked.push((key.clone(), versions));
        false
    }

    /// Drop every entry built from `table` (it was replaced, deleted from or
    /// dropped); returns how many were dropped.
    pub fn sweep(&self, table: &str) -> u64 {
        let table = table.to_ascii_lowercase();
        let mut inner = self.inner.lock();
        let before = inner.entries.len();
        inner
            .entries
            .retain(|e| e.deps.iter().all(|d| d.table != table));
        (before - inner.entries.len()) as u64
    }

    /// Counters since creation plus what is held now.
    pub fn stats(&self) -> IndexStats {
        let inner = self.inner.lock();
        IndexStats {
            entries: inner.entries.len() as u64,
            bytes: inner.entries.iter().map(|e| e.bytes).sum(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    fn key(plan: &str) -> IndexKey {
        IndexKey {
            plan: plan.into(),
            key_cols: vec![0],
            layout: IndexLayout::Hash { partitions: 2 },
        }
    }

    fn dep(table: &str, rewrite_version: u64, len: usize) -> IndexDep {
        IndexDep {
            table: table.into(),
            rewrite_version,
            len,
        }
    }

    #[test]
    fn hash_table_build_and_probe() {
        let rows = vec![int_row(&[1, 10]), int_row(&[1, 11]), int_row(&[2, 20])];
        let ht = HashTable::build(&rows, &[0]);
        assert_eq!(ht.keys(), 2);
        assert_eq!(ht.len(), 3);
        assert_eq!(ht.probe(&[Value::Int(1)]).len(), 2);
        assert_eq!(ht.probe(&[Value::Int(3)]).len(), 0);
    }

    #[test]
    fn hash_table_is_larger_than_raw() {
        let rows: Vec<Row> = (0..1000).map(|i| int_row(&[i, i])).collect();
        let raw: usize = rows.iter().map(Row::size_bytes).sum();
        let ht = HashTable::build(&rows, &[0]);
        assert!(ht.size_bytes() > raw, "{} !> {raw}", ht.size_bytes());
    }

    #[test]
    fn fetch_hit_grown_miss() {
        let store = IndexStore::new();
        let rows: Vec<Row> = (0..6).map(|i| int_row(&[i % 3, i])).collect();
        let k = key("TableScan t");
        assert!(matches!(store.fetch(&k, &[dep("t", 1, 4)]), Fetch::Miss));
        let built = Index::build(&k, &rows[..4]).unwrap();
        store.publish(k.clone(), vec![dep("t", 1, 4)], built);
        assert!(matches!(store.fetch(&k, &[dep("t", 1, 4)]), Fetch::Hit(_)));
        // Appended: advance from the covered length.
        match store.fetch(&k, &[dep("t", 1, 6)]) {
            Fetch::Grown { table, from } => {
                assert_eq!((table.as_str(), from), ("t", 4));
                let Some(Index::Hash(h)) =
                    store.advance(&k, &table, from, &[dep("t", 1, 6)], &rows[4..])
                else {
                    panic!("advance refused");
                };
                assert_eq!(h.len(), 6);
            }
            other => panic!("{other:?}"),
        }
        // Advancing from a state the entry has left is refused.
        assert!(store
            .advance(&k, "t", 4, &[dep("t", 1, 6)], &rows[4..])
            .is_none());
        // Rewritten or shrunk: rebuild.
        assert!(matches!(store.fetch(&k, &[dep("t", 2, 6)]), Fetch::Miss));
        assert!(matches!(store.fetch(&k, &[dep("t", 1, 5)]), Fetch::Miss));
        let s = store.stats();
        assert_eq!((s.builds, s.advances, s.rebuilds, s.entries), (1, 1, 0, 1));
        assert_eq!(store.sweep("T"), 1);
        assert_eq!(store.stats().bytes, 0);
    }

    #[test]
    fn two_grown_tables_rebuild() {
        let store = IndexStore::new();
        let k = key("Join a b");
        let deps = vec![dep("a", 1, 2), dep("b", 2, 2)];
        store.publish(k.clone(), deps, Index::build(&k, &[]).unwrap());
        let one = [dep("a", 1, 3), dep("b", 2, 2)];
        assert!(matches!(store.fetch(&k, &one), Fetch::Grown { .. }));
        let both = [dep("a", 1, 3), dep("b", 2, 3)];
        assert!(matches!(store.fetch(&k, &both), Fetch::Miss));
    }

    #[test]
    fn first_publisher_of_a_version_wins_and_lru_evicts() {
        let store = IndexStore::new();
        let k = key("p");
        let first = Index::build(&k, &[int_row(&[1, 1])]).unwrap();
        store.publish(k.clone(), vec![dep("t", 1, 1)], first);
        let second = Index::build(&k, &[int_row(&[9, 9])]).unwrap();
        let Index::Hash(kept) = store.publish(k.clone(), vec![dep("t", 1, 1)], second) else {
            panic!("layout changed");
        };
        assert_eq!(kept.table_for(&[Value::Int(1)]).len(), 1);
        // Other versions of the same key replace it.
        let third = Index::build(&k, &[]).unwrap();
        store.publish(k.clone(), vec![dep("t", 2, 0)], third);
        assert_eq!(store.stats().rebuilds, 1);
        // A key lent between publishes survives a capacity's worth of others.
        for i in 0..2 * INDEX_STORE_CAPACITY {
            let other = key(&format!("q{i}"));
            let ix = Index::build(&other, &[]).unwrap();
            store.publish(other, vec![dep("u", 1, 0)], ix);
            assert!(matches!(store.fetch(&k, &[dep("t", 2, 0)]), Fetch::Hit(_)));
        }
        assert_eq!(store.stats().entries, INDEX_STORE_CAPACITY as u64);
    }

    #[test]
    fn second_use_is_per_rewrite_version() {
        let store = IndexStore::new();
        let k = key("TableScan t");
        assert!(!store.second_use(&k, &[dep("t", 1, 5)]));
        assert!(store.second_use(&k, &[dep("t", 1, 9)]), "appends keep it");
        assert!(!store.second_use(&k, &[dep("t", 1, 9)]), "consumed");
        assert!(!store.second_use(&k, &[dep("t", 2, 9)]), "rewritten");
        assert!(store.second_use(&k, &[dep("t", 2, 9)]));
    }

    #[test]
    fn shared_partition_tables_copy_on_append() {
        let mut index = HashIndex::build(&[int_row(&[1, 1])], &[0], 1);
        let held = Arc::clone(&index.parts()[0]);
        index.append(&[int_row(&[1, 2])]);
        assert_eq!(held.len(), 1, "a running query keeps what it was lent");
        assert_eq!(index.len(), 2);
        let buf = Arc::as_ptr(&index.parts()[0]);
        drop(held);
        index.append(&[int_row(&[1, 3])]);
        assert_eq!(Arc::as_ptr(&index.parts()[0]), buf, "unshared: in place");
    }
}
