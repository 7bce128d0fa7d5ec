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
//! A hash or packed entry appends each delta row under its key, so per-key
//! row order stays table order; a CSR entry is [`CsrGraph::extended`], which
//! interns new endpoints after the existing ones and puts each vertex's new
//! edges after its old ones — each exactly what a build over all rows
//! produces. An in-edge entry is derived from a CSR graph, never from rows:
//! its reader transposes the graph the store lent it at the same versions
//! ([`CsrGraph::in_edges`]) and hands it to [`IndexStore::advance_to`] or
//! [`IndexStore::publish`].

use crate::csr::{CsrGraph, CsrWeight, InEdges};
use crate::hasher::{FxHashMap, FxHasher};
use crate::keys::KeyIndex;
use crate::partition::{hash_partition, row_partition};
use crate::row::Row;
use crate::sync::{LockRank, RankedMutex};
use crate::value::{Escaped, Lane, Value};
use rasql_api::codec::{LaneBatch, LaneColumn};
use std::hash::Hasher;
use std::sync::Arc;

/// A multimap hash table over `key_cols` of the build rows. An equi-join
/// never matches NULL (`NULL = x` is not true), so a row with a NULL key
/// column is not kept and a key holding NULL finds nothing.
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
        if key.iter().any(Value::is_null) {
            return;
        }
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

    /// Probe with key values (one holding NULL finds no row).
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the store's co-partitioned index: one empty table per partition, filled by `append`"
    )]
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
        &self.parts[hash_partition(key, self.parts.len())]
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

/// What a word clique's join takes of a build side: the key columns, the
/// lane of the probe's cell for each, and per build column the lane a match
/// is read in (`None`: nothing downstream reads it).
#[derive(Debug, Clone)]
pub struct WordShape {
    key_cols: Arc<[usize]>,
    lanes: Arc<[Lane]>,
    read: Arc<[Option<Lane>]>,
}

/// One cell of a row a packed table is built from.
#[derive(Clone, Copy)]
enum Src<'a> {
    Value(&'a Value),
    Word(Lane, u64),
}

impl Src<'_> {
    /// [`Lane::key_cell`] of the cell's value.
    #[inline]
    fn key(self, lane: Lane) -> Result<Option<u64>, Escaped> {
        match self {
            Src::Word(l, w) if l == lane => Ok(Some(w)),
            Src::Word(l, w) => lane.key_cell(&l.decode(w)),
            Src::Value(v) => lane.key_cell(v),
        }
    }

    /// The cell read in `lane`: strictly of its variant, or an escape.
    #[inline]
    fn read(self, lane: Lane) -> Result<u64, Escaped> {
        match self {
            Src::Word(l, w) if l == lane => Ok(w),
            Src::Word(..) => Err(Escaped),
            Src::Value(v) => lane.encode(v),
        }
    }
}

impl WordShape {
    /// A shape; `lanes` has one lane per key column.
    pub fn new(key_cols: &[usize], lanes: &[Lane], read: &[Option<Lane>]) -> Self {
        debug_assert_eq!(key_cols.len(), lanes.len());
        WordShape {
            key_cols: key_cols.into(),
            lanes: lanes.into(),
            read: read.into(),
        }
    }

    /// Replace `key` with the row's key cells; false when no probe can match
    /// the row (a key value equal to no cell of its lane). A key value equal
    /// to more than one cell escapes.
    #[inline]
    fn key_cells<'a>(
        &self,
        src: impl Fn(usize) -> Src<'a>,
        key: &mut Vec<u64>,
    ) -> Result<bool, Escaped> {
        key.clear();
        let mut many = false;
        for (&c, &lane) in self.key_cols.iter().zip(self.lanes.iter()) {
            match src(c).key(lane) {
                Ok(Some(w)) => key.push(w),
                Ok(None) => return Ok(false),
                Err(Escaped) => many = true,
            }
        }
        if many {
            return Err(Escaped);
        }
        Ok(true)
    }

    /// Whether every column read of the row is of its lane.
    fn reads<'a>(&self, src: impl Fn(usize) -> Src<'a>) -> Result<(), Escaped> {
        for (c, lane) in self.read.iter().enumerate() {
            if let Some(lane) = lane {
                src(c).read(*lane)?;
            }
        }
        Ok(())
    }

    /// The partition of `n` a row with these key cells lives in — the
    /// partition `row_partition` gives every row whose key equals them.
    #[inline]
    fn partition(&self, key: &[u64], n: usize) -> usize {
        let mut h = FxHasher::default();
        for (&w, lane) in key.iter().zip(self.lanes.iter()) {
            lane.hash_word(w, &mut h);
        }
        (h.finish() % n as u64) as usize
    }
}

/// The end of a chain of rows.
const NIL: u32 = u32::MAX;

/// Where one key's rows are: a contiguous run of the laid-out rows, then
/// the rows appended since the table was laid out, chained.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: u32,
    len: u32,
    first: u32,
    last: u32,
}

/// A packed build side: the build plan's rows as arity-strided `u64` cells,
/// grouped by key under a [`KeyIndex`] keyed on the probe's lanes.
/// Only the columns the join reads are filled (the others are 0), so a
/// match extends a tuple in flight to `stream ++ build` as words. Per key,
/// matches come out in table order: a fresh build lays each key's rows out
/// as one contiguous run, which a probe reads sequentially, and rows
/// appended later go to a vector of their own — so the first append never
/// moves the laid-out rows — chained after it.
///
/// A key value equal to no cell of its lane — NULL, `2.5` or a string under
/// `Int` — is dropped, since no word probe can match it; an integral
/// `Double` lands on its `Int`. A key value equal to more than one cell, or a
/// read column outside its lane, fails the build with [`Escaped`].
#[derive(Debug, Clone)]
pub struct WordTable {
    shape: WordShape,
    /// The laid-out rows, key run after key run.
    cells: Vec<u64>,
    /// The rows appended since (while building: every row, until laid out).
    tail: Vec<u64>,
    /// Per appended row, the next one chained under its key (`NIL` ends a
    /// chain).
    next: Vec<u32>,
    /// Per key, its cells, strided by the key's width.
    keys: Vec<u64>,
    /// Per key, where its rows are.
    groups: Vec<Group>,
    /// Where each key is among `keys`.
    index: KeyIndex,
}

/// The matches of one probe of a [`WordTable`], in table order.
pub struct WordMatches<'a> {
    run: std::slice::ChunksExact<'a, u64>,
    table: &'a WordTable,
    at: u32,
}

impl<'a> Iterator for WordMatches<'a> {
    type Item = &'a [u64];

    #[inline]
    fn next(&mut self) -> Option<&'a [u64]> {
        if let Some(row) = self.run.next() {
            return Some(row);
        }
        if self.at == NIL {
            return None;
        }
        let row = self.at as usize;
        self.at = self.table.next[row];
        let arity = self.table.arity();
        Some(&self.table.tail[row * arity..(row + 1) * arity])
    }
}

impl WordTable {
    /// An empty table of this shape.
    pub fn new(shape: WordShape) -> Self {
        WordTable::with_capacity(shape, 0)
    }

    /// An empty table of this shape with room for `rows` rows.
    fn with_capacity(shape: WordShape, rows: usize) -> Self {
        debug_assert!(!shape.read.is_empty(), "a build plan has columns");
        WordTable {
            cells: Vec::new(),
            tail: Vec::with_capacity(rows * shape.read.len()),
            next: Vec::new(),
            shape,
            keys: Vec::new(),
            groups: Vec::new(),
            index: KeyIndex::default(),
        }
    }

    /// The table of `rows`.
    pub fn from_rows(shape: WordShape, rows: &[Row]) -> Result<Self, Escaped> {
        let rows = rows.iter().map(|row| move |c: usize| Src::Value(&row[c]));
        WordTable::laid_out(shape, rows)
    }

    /// The table of tuples of word cells, of the columns' `lanes`.
    pub fn from_tuples<'t>(
        shape: WordShape,
        lanes: &'t [Lane],
        tuples: impl IntoIterator<Item = &'t [u64]>,
    ) -> Result<Self, Escaped> {
        let rows = (tuples.into_iter()).map(|tuple| move |c: usize| Src::Word(lanes[c], tuple[c]));
        WordTable::laid_out(shape, rows)
    }

    /// The table of a batch decoded column by column: a packed column's
    /// words are taken as they are, and no row is built.
    pub fn from_batch(shape: WordShape, batch: &LaneBatch) -> Result<Self, Escaped> {
        let rows = (0..batch.rows).map(|r| {
            move |c: usize| match &batch.columns[c] {
                LaneColumn::Words(lane, words) => Src::Word(*lane, words[r]),
                LaneColumn::Values(values) => Src::Value(&values[r]),
            }
        });
        WordTable::laid_out(shape, rows)
    }

    /// A fresh table of the rows `rows` lends, each as its cell accessor.
    fn laid_out<'a, F: Fn(usize) -> Src<'a> + Copy>(
        shape: WordShape,
        rows: impl Iterator<Item = F>,
    ) -> Result<Self, Escaped> {
        let n = rows.size_hint().0;
        let mut table = WordTable::with_capacity(shape, n);
        let (mut key, mut keys_of) = (Vec::new(), Vec::with_capacity(n));
        for src in rows {
            if table.shape.key_cells(src, &mut key)? {
                keys_of.push(table.push_row(&key, src)?);
            }
        }
        table.lay_out(&keys_of);
        Ok(table)
    }

    /// Cells per row: the build plan's arity.
    #[inline]
    fn arity(&self) -> usize {
        self.shape.read.len()
    }

    /// Rows held.
    pub fn len(&self) -> usize {
        (self.cells.len() + self.tail.len()) / self.arity().max(1)
    }

    /// True if no row is held.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.tail.is_empty()
    }

    /// Distinct keys.
    pub fn keys(&self) -> usize {
        self.groups.len()
    }

    /// Bytes held: cells, chains, keys and index.
    pub fn size_bytes(&self) -> usize {
        8 * (self.cells.len() + self.tail.len() + self.keys.len())
            + 16 * self.groups.len()
            + 4 * self.next.len()
            + self.index.heap_bytes() as usize
    }

    /// The index of the keys.
    pub fn key_index(&self) -> &KeyIndex {
        &self.index
    }

    /// The rows whose key cells are `key`, in table order.
    #[inline]
    pub fn probe(&self, key: &[u64]) -> WordMatches<'_> {
        let arity = self.arity();
        let Some(k) = self.index.find(&self.keys, key) else {
            return WordMatches {
                run: [].chunks_exact(arity.max(1)),
                table: self,
                at: NIL,
            };
        };
        let g = self.groups[k];
        let (start, end) = (g.start as usize * arity, (g.start + g.len) as usize * arity);
        WordMatches {
            run: self.cells[start..end].chunks_exact(arity.max(1)),
            table: self,
            at: g.first,
        }
    }

    /// Append one row's cells to the tail under the key cells `key`; returns
    /// the key's index. The row is not reachable from its key yet: a fresh
    /// build lays every row out at once ([`lay_out`](Self::lay_out)), an
    /// append chains it ([`link`](Self::link)).
    fn push_row<'a>(
        &mut self,
        key: &[u64],
        src: impl Fn(usize) -> Src<'a>,
    ) -> Result<u32, Escaped> {
        assert!(self.len() < NIL as usize, "packed table row overflow");
        let start = self.tail.len();
        for c in 0..self.arity() {
            let cell = match self.shape.read[c] {
                Some(lane) => src(c).read(lane),
                None => Ok(0),
            };
            match cell {
                Ok(w) => self.tail.push(w),
                Err(e) => {
                    self.tail.truncate(start);
                    return Err(e);
                }
            }
        }
        let keys = self.groups.len();
        Ok(
            match self.index.intern::<u64, 0>(&self.keys, keys, key, None) {
                Ok(k) => k as u32,
                Err(k) => {
                    self.keys.extend_from_slice(key);
                    self.groups.push(Group {
                        start: 0,
                        len: 0,
                        first: NIL,
                        last: NIL,
                    });
                    k as u32
                }
            },
        )
    }

    /// Chain the row appended last after the rows under key `k`.
    fn link(&mut self, k: u32) {
        let row = self.next.len() as u32;
        self.next.push(NIL);
        let g = &mut self.groups[k as usize];
        match g.last {
            NIL => g.first = row,
            last => self.next[last as usize] = row,
        }
        g.last = row;
    }

    /// Lay a fresh table's rows out of the tail — `keys_of[r]` is row `r`'s
    /// key — as one contiguous run per key, in table order, keys in
    /// first-occurrence order, so a probe reads its matches as a slice. A
    /// counting sort: the rows are read once, in order.
    fn lay_out(&mut self, keys_of: &[u32]) {
        let arity = self.arity();
        let mut at = vec![0u32; self.groups.len()];
        for &k in keys_of {
            at[k as usize] += 1;
        }
        let mut start = 0;
        for (g, at) in self.groups.iter_mut().zip(&mut at) {
            *g = Group {
                start,
                len: *at,
                first: NIL,
                last: NIL,
            };
            start += *at;
            *at = g.start;
        }
        let mut cells = vec![0; self.tail.len()];
        for (row, &k) in self.tail.chunks_exact(arity.max(1)).zip(keys_of) {
            let to = at[k as usize] as usize;
            at[k as usize] += 1;
            cells[to * arity..(to + 1) * arity].copy_from_slice(row);
        }
        self.cells = cells;
        self.tail = Vec::new();
    }
}

/// A co-partitioned packed index: partition `p` holds the rows whose key
/// cells hash to `p` — where every row whose key equals them lives, and so
/// where a delta partitioned on the probe key probes it.
#[derive(Debug, Clone)]
pub struct WordIndex {
    parts: Vec<Arc<WordTable>>,
}

impl WordIndex {
    /// Index `rows` into `partitions` packed tables of `shape`.
    pub fn build(rows: &[Row], shape: &WordShape, partitions: usize) -> Result<Self, Escaped> {
        // Each partition's table, and the key of each row it holds.
        let share = rows.len() / partitions.max(1) + 1;
        let mut parts: Vec<(WordTable, Vec<u32>)> = (0..partitions.max(1))
            .map(|_| {
                (
                    WordTable::with_capacity(shape.clone(), share),
                    Vec::with_capacity(share),
                )
            })
            .collect();
        let (n, mut key) = (parts.len(), Vec::new());
        for row in rows {
            let src = |c: usize| Src::Value(&row[c]);
            if shape.key_cells(src, &mut key)? {
                let (table, keys_of) = &mut parts[shape.partition(&key, n)];
                keys_of.push(table.push_row(&key, src)?);
            }
        }
        let parts = parts.into_iter().map(|(mut table, keys_of)| {
            table.lay_out(&keys_of);
            Arc::new(table)
        });
        Ok(WordIndex {
            parts: parts.collect(),
        })
    }

    /// Append rows after the rows under their keys, in place in every table
    /// only this index holds and on a copy of one a running query still
    /// reads. Every row is checked before any is appended, so a row that
    /// escapes leaves the index as it was.
    pub fn append(&mut self, rows: &[Row]) -> Result<(), Escaped> {
        let shape = self.parts[0].shape.clone();
        let (n, mut key) = (self.parts.len(), Vec::new());
        for row in rows {
            let src = |c: usize| Src::Value(&row[c]);
            if shape.key_cells(src, &mut key)? {
                shape.reads(src)?;
            }
        }
        for row in rows {
            let src = |c: usize| Src::Value(&row[c]);
            if shape.key_cells(src, &mut key)? {
                let part = Arc::make_mut(&mut self.parts[shape.partition(&key, n)]);
                let k = part.push_row(&key, src)?;
                part.link(k);
            }
        }
        Ok(())
    }

    /// The per-partition tables.
    pub fn parts(&self) -> &[Arc<WordTable>] {
        &self.parts
    }

    /// Total rows stored.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|t| t.len()).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|t| t.is_empty())
    }

    /// Bytes held.
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
    /// Per-partition packed tables, keyed on the probe's lanes
    /// ([`WordTable`]): what a word clique's co-partitioned join probes.
    Words {
        /// Partition count.
        partitions: usize,
        /// Per key column, the lane of the probe's cell.
        lanes: Vec<Lane>,
        /// Per build column, the lane a match is read in.
        read: Vec<Option<Lane>>,
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
    /// The in-edges of the [`IndexLayout::Csr`] graph on the same columns
    /// ([`InEdges`]): what a kernel's pull rounds gather over. Dense ids do
    /// not depend on the partition count, so it is not part of the key.
    InEdges {
        /// Source-vertex column.
        src: usize,
        /// Destination-vertex column.
        dst: usize,
        /// How edge weights are extracted.
        weight: CsrWeight,
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
    /// A co-partitioned packed index.
    Words(WordIndex),
    /// A CSR graph.
    Csr(Arc<CsrGraph>),
    /// A CSR graph's in-edges.
    InEdges(Arc<InEdges>),
}

impl Index {
    /// Build the index `key` describes over the plan's output `rows`.
    /// `None` when a CSR layout meets a row that is not of its declared
    /// types (the caller falls back to the interpreter), or a packed one a
    /// row that escapes its lanes (the clique runs on rows), and for the
    /// in-edges, which are transposed from a graph ([`CsrGraph::in_edges`]).
    #[expect(
        clippy::disallowed_methods,
        reason = "the index store's feeder: the one build of a kept index"
    )]
    pub fn build(key: &IndexKey, rows: &[Row]) -> Option<Index> {
        Some(match &key.layout {
            IndexLayout::Hash { partitions } => {
                Index::Hash(HashIndex::build(rows, &key.key_cols, *partitions))
            }
            IndexLayout::Words {
                partitions,
                lanes,
                read,
            } => {
                let shape = WordShape::new(&key.key_cols, lanes, read);
                Index::Words(WordIndex::build(rows, &shape, *partitions).ok()?)
            }
            IndexLayout::Csr {
                src,
                dst,
                weight,
                partitions,
            } => Index::Csr(Arc::new(CsrGraph::build(
                rows,
                *src,
                *dst,
                *weight,
                [],
                *partitions,
            )?)),
            // Transposed from the store's graph, never built from rows.
            IndexLayout::InEdges { .. } => return None,
        })
    }

    /// Approximate memory footprint.
    pub fn size_bytes(&self) -> usize {
        match self {
            Index::Hash(h) => h.size_bytes(),
            Index::Words(w) => w.size_bytes(),
            Index::Csr(g) => g.size_bytes(),
            Index::InEdges(g) => g.size_bytes(),
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
    /// it), or a delta row is not of a CSR graph's types or escapes a packed
    /// index's lanes (the entry is left as it was), or the entry is in-edges
    /// (advanced from their graph, [`IndexStore::advance_to`]); the caller
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
                Index::Words(w) => {
                    w.append(delta).ok()?;
                    entry.deps = now.to_vec();
                    entry.bytes = w.size_bytes() as u64;
                    inner.stats.advances += 1;
                    return Some(inner.lend(at));
                }
                Index::Csr(g) => Arc::clone(g),
                Index::InEdges(_) => return None,
            }
        };
        // A CSR graph is re-laid-out, O(V + E), outside the lock.
        let IndexLayout::Csr {
            src,
            dst,
            weight,
            partitions,
        } = key.layout
        else {
            return None;
        };
        let graph = base.extended(delta, src, dst, weight, [], partitions)?;
        self.advance_to(key, table, from, now, Index::Csr(Arc::new(graph)))
    }

    /// Replace the entry of `key` at the state [`Fetch::Grown`] reported by
    /// `index`, laid out outside the lock for `now`; counted as an advance.
    /// Returns the index to use: the store's own when another reader already
    /// advanced it to `now`. `None` when the entry is no longer at that state.
    pub fn advance_to(
        &self,
        key: &IndexKey,
        table: &str,
        from: usize,
        now: &[IndexDep],
        index: Index,
    ) -> Option<Index> {
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
        entry.bytes = index.size_bytes() as u64;
        entry.index = index;
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
#[expect(
    clippy::disallowed_methods,
    reason = "the tests build each layout the store keeps, to check it against the others"
)]
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
    fn a_packed_table_holds_what_the_join_reads_grouped_by_key() {
        let rows = vec![
            int_row(&[1, 10]),
            int_row(&[2, 20]),
            Row::new(vec![Value::Double(1.0), Value::Int(11)]),
            Row::new(vec![Value::Double(2.5), Value::Int(99)]),
            Row::new(vec![Value::Null, Value::Int(99)]),
            Row::new(vec![Value::Double(-0.0), Value::Int(99)]),
        ];
        // Keyed on column 0 probed as `Int`, column 1 read as `Int`.
        let shape = WordShape::new(&[0], &[Lane::Int], &[None, Some(Lane::Int)]);
        let table = WordTable::from_rows(shape.clone(), &rows).unwrap();
        assert_eq!((table.len(), table.keys()), (3, 2));
        let one: Vec<&[u64]> = table.probe(&[1]).collect();
        assert_eq!(
            one,
            [&[0, 10][..], &[0, 11]],
            "table order, key column unread"
        );
        assert_eq!(table.probe(&[0]).count(), 0, "-0.0 equals no Int");
        // A key equal to more than one cell, or a read cell off its lane.
        let wide = Row::new(vec![Value::Double(2f64.powi(60)), Value::Int(1)]);
        assert!(WordTable::from_rows(shape.clone(), &[wide]).is_err());
        let stray = Row::new(vec![Value::Int(3), Value::Double(3.0)]);
        assert!(WordTable::from_rows(shape.clone(), std::slice::from_ref(&stray)).is_err());
        // An index refuses an escaping delta and keeps what it held.
        let mut index = WordIndex::build(&rows, &shape, 2).unwrap();
        assert!(index.append(&[int_row(&[1, 12]), stray]).is_err());
        assert_eq!(index.len(), 3);
        index.append(&[int_row(&[1, 12])]).unwrap();
        let part = shape.partition(&[1], 2);
        let one: Vec<&[u64]> = index.parts()[part].probe(&[1]).collect();
        assert_eq!(one, [&[0, 10][..], &[0, 11], &[0, 12]]);
        assert_eq!(part, row_partition(&int_row(&[1]), &[0], 2));
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
