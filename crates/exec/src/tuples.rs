//! Tuple representation of the generic fixpoint: flat batches of fixed-width
//! cells, and the one place that knows what a cell is.
//!
//! The paper's fixpoint is fast because its all-relation is a compact,
//! append-only set of fixed-width tuples (§6.1) and its per-iteration
//! pipeline is compiled over binary rows (§7.3). Here a recursive relation's
//! tuples live in [`Tuples`] — one arity-strided vector — under one of two
//! cell types:
//!
//! - **word lanes** (`u64` cells): every column is [`Lane::Int`] or
//!   [`Lane::Double`] and a cell is the value's bits. Within a lane, bit
//!   equality is `Value` equality (`Double` compares by `total_cmp`), so a
//!   tuple hashes and compares as plain words;
//! - **values** (`Value` cells): any column type, NULLs included.
//!
//! [`Cell`] is everything the two differ in — down to the join build side
//! each probes (`Cell::Table`: a row [`HashTable`] for values, a packed
//! [`WordTable`] for words); the state tables ([`crate::state`]), the
//! pipeline ([`crate::pipeline`]) and the fixpoint's round logic are written
//! once over it. A word run that meets a value
//! outside its lane — an `Int` overflow, a NULL, a mistyped base column —
//! reports [`Escaped`] and the clique is re-evaluated on values.
//!
//! # Blocks
//!
//! The pipeline hands its output to the state a [`Block`] at a time: a
//! borrowed run of same-arity tuples. A block insert
//! ([`TupleSet::intern_block`], and the state's `insert_block` and
//! `merge_block` over it) hashes every tuple of the block first, then
//! interns them in order — the same sequence of interns, growths and slots
//! as one insert per tuple. It looks at the arity once per block: tuples of
//! 1–4 cells run a body compiled for that arity (fixed-length hash and
//! compare), wider ones the body over a runtime length.
//!
//! # The partition identity
//!
//! A view's state is co-partitioned with the hash indexes its delta probes,
//! which are partitioned by `row_partition` over `Value`s. [`Cell::hash_key`]
//! therefore feeds the hasher exactly what `Value::hash` would (an integral
//! `Double` hashes as its `Int`), so [`partition_of`] of a word tuple equals
//! `row_partition` of the equivalent row bit for bit.

use crate::join::{HashTable, JoinTable};
use crate::state::{MergeOutcome, MonotoneOp};
pub(crate) use rasql_storage::keys::{hash32, nth};
pub use rasql_storage::value::{Escaped, Lane};
use rasql_storage::{DataType, FxHasher, KeyCell, KeyIndex, Row, Schema, Value, WordTable};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// The lanes of a schema whose every column is `Int` or `Double`; `None`
/// sends the relation to value cells.
pub fn lanes_of(schema: &Schema) -> Option<Arc<[Lane]>> {
    kinds_of::<u64>(schema)
}

/// The column kinds of a relation with this schema under cell type `C`, or
/// `None` when the representation cannot hold one of its columns.
pub fn kinds_of<C: Cell>(schema: &Schema) -> Option<Arc<[C::Kind]>> {
    let fields = schema.fields().iter();
    fields.map(|f| C::kind_of(f.data_type)).collect()
}

/// One column value of a tuple representation; a tuple of them is a key a
/// [`KeyIndex`] indexes (and hashes, [`hash32`]).
pub trait Cell: KeyCell + Clone + std::fmt::Debug + Send + Sync + 'static {
    /// What must be known about a column to interpret its cells.
    type Kind: Copy + std::fmt::Debug + Send + Sync + 'static;

    /// The join build side a tuple of these cells probes with a key of
    /// them, and whose matches it is extended by.
    type Table: JoinTable<Self>;

    /// The kind of a column of this declared type, or `None` when the
    /// representation cannot hold it.
    fn kind_of(data_type: DataType) -> Option<Self::Kind>;

    /// The kind of column `col`. Values need none, so a batch of them may
    /// be created before its arity is known, with no kinds at all.
    fn kind(kinds: &[Self::Kind], col: usize) -> Self::Kind;

    /// Feed the hasher what `Value::hash` of this cell's value would.
    fn hash_key(&self, kind: Self::Kind, h: &mut FxHasher);

    /// `Row::size_bytes` of the equivalent row.
    fn row_bytes(cells: &[Self]) -> u64;

    /// The cell's value.
    fn to_value(&self, kind: Self::Kind) -> Value;

    /// The cell of `v`, which must be of the column's kind.
    fn from_value(v: &Value, kind: Self::Kind) -> Result<Self, Escaped>;

    /// The one cell of the column's kind a join key `v` equals, as a hash
    /// join sees it: `Ok(None)` when none does (NULL equals nothing), and
    /// `Escaped` when more than one might ([`Lane::key_cell`]).
    fn key_cell(v: &Value, kind: Self::Kind) -> Result<Option<Self>, Escaped>;

    /// Merge `new` into `cur` under a monotone aggregate.
    fn merge(
        op: MonotoneOp,
        kind: Self::Kind,
        cur: &mut Self,
        new: &Self,
    ) -> Result<MergeOutcome, Escaped>;

    /// `a - b`: a `sum` column's increment since the previous round.
    fn minus(kind: Self::Kind, a: &Self, b: &Self) -> Result<Self, Escaped>;

    /// The `Int` 1 a distinct-tuple `count` adds per new contributor.
    fn one(kind: Self::Kind) -> Result<Self, Escaped>;
}

impl Cell for Value {
    type Kind = ();
    type Table = HashTable;

    fn kind_of(_: DataType) -> Option<()> {
        Some(())
    }

    #[inline]
    fn kind(_: &[()], _: usize) {}

    #[inline]
    fn hash_key(&self, (): (), h: &mut FxHasher) {
        self.hash(h);
    }

    #[inline]
    fn row_bytes(cells: &[Value]) -> u64 {
        16 + cells.iter().map(Value::size_bytes).sum::<usize>() as u64
    }

    #[inline]
    fn to_value(&self, (): ()) -> Value {
        self.clone()
    }

    #[inline]
    fn from_value(v: &Value, (): ()) -> Result<Value, Escaped> {
        Ok(v.clone())
    }

    fn key_cell(v: &Value, (): ()) -> Result<Option<Value>, Escaped> {
        Ok((!v.is_null()).then(|| v.clone()))
    }

    #[inline]
    fn merge(
        op: MonotoneOp,
        (): (),
        cur: &mut Value,
        new: &Value,
    ) -> Result<MergeOutcome, Escaped> {
        Ok(op.merge(cur, new))
    }

    #[inline]
    fn minus((): (), a: &Value, b: &Value) -> Result<Value, Escaped> {
        Ok(a.sub(b))
    }

    #[inline]
    fn one((): ()) -> Result<Value, Escaped> {
        Ok(Value::Int(1))
    }
}

impl Cell for u64 {
    type Kind = Lane;
    type Table = WordTable;

    fn kind_of(data_type: DataType) -> Option<Lane> {
        match data_type {
            DataType::Int => Some(Lane::Int),
            DataType::Double => Some(Lane::Double),
            _ => None,
        }
    }

    #[inline]
    fn kind(lanes: &[Lane], col: usize) -> Lane {
        lanes[col]
    }

    #[inline]
    fn hash_key(&self, lane: Lane, h: &mut FxHasher) {
        lane.hash_word(*self, h);
    }

    #[inline]
    fn row_bytes(cells: &[u64]) -> u64 {
        16 + 8 * cells.len() as u64
    }

    #[inline]
    fn to_value(&self, lane: Lane) -> Value {
        lane.decode(*self)
    }

    #[inline]
    fn from_value(v: &Value, lane: Lane) -> Result<u64, Escaped> {
        lane.encode(v)
    }

    fn key_cell(v: &Value, lane: Lane) -> Result<Option<u64>, Escaped> {
        lane.key_cell(v)
    }

    /// `MonotoneOp::merge` on one lane; where `Value::add` would promote an
    /// overflowing `Int` sum to `Double`, the cell escapes instead.
    #[inline]
    fn merge(
        op: MonotoneOp,
        lane: Lane,
        cur: &mut u64,
        new: &u64,
    ) -> Result<MergeOutcome, Escaped> {
        let improved = match op {
            MonotoneOp::Min => lane.cmp(*new, *cur) == Ordering::Less,
            MonotoneOp::Max => lane.cmp(*new, *cur) == Ordering::Greater,
            MonotoneOp::Sum => {
                let sum = match lane {
                    Lane::Int if *new == 0 => return Ok(MergeOutcome::Unchanged),
                    Lane::Int => (*cur as i64).checked_add(*new as i64).ok_or(Escaped)? as u64,
                    Lane::Double if f64::from_bits(*new) == 0.0 => {
                        return Ok(MergeOutcome::Unchanged)
                    }
                    Lane::Double => (f64::from_bits(*cur) + f64::from_bits(*new)).to_bits(),
                };
                *cur = sum;
                return Ok(MergeOutcome::Improved);
            }
        };
        if improved {
            *cur = *new;
            Ok(MergeOutcome::Improved)
        } else {
            Ok(MergeOutcome::Unchanged)
        }
    }

    #[inline]
    fn minus(lane: Lane, a: &u64, b: &u64) -> Result<u64, Escaped> {
        match lane {
            Lane::Int => Ok((*a as i64).checked_sub(*b as i64).ok_or(Escaped)? as u64),
            Lane::Double => Ok((f64::from_bits(*a) - f64::from_bits(*b)).to_bits()),
        }
    }

    #[inline]
    fn one(lane: Lane) -> Result<u64, Escaped> {
        match lane {
            Lane::Int => Ok(1),
            Lane::Double => Err(Escaped),
        }
    }
}

/// A tuple's cells as values.
pub fn values_of<C: Cell>(kinds: &[C::Kind], cells: &[C]) -> Vec<Value> {
    let cells = cells.iter().enumerate();
    cells
        .map(|(c, cell)| cell.to_value(C::kind(kinds, c)))
        .collect()
}

/// Replace `buf` with the cells of `values`, each checked against its
/// column's kind — a tuple of rows entering the representation.
#[inline]
pub fn cells_of<C: Cell>(
    kinds: &[C::Kind],
    values: &[Value],
    buf: &mut Vec<C>,
) -> Result<(), Escaped> {
    buf.clear();
    for (i, v) in values.iter().enumerate() {
        buf.push(C::from_value(v, C::kind(kinds, i))?);
    }
    Ok(())
}

/// The partition of a tuple under hash partitioning on `key` columns —
/// `rasql_storage::partition::row_partition` of the equivalent row.
#[inline]
pub fn partition_of<C: Cell>(kinds: &[C::Kind], cells: &[C], key: &[usize], n: usize) -> usize {
    let mut h = FxHasher::default();
    for &c in key {
        cells[c].hash_key(C::kind(kinds, c), &mut h);
    }
    (h.finish() % n as u64) as usize
}

/// [`partition_of`] for word tuples.
#[inline]
pub fn lane_partition(lanes: &[Lane], cells: &[u64], key: &[usize], n: usize) -> usize {
    partition_of(lanes, cells, key, n)
}

/// Borrowed same-arity tuples in one arity-strided slice of cells: what a
/// pipeline emits and a block insert consumes.
#[derive(Debug)]
pub struct Block<'a, C> {
    cells: &'a [C],
    arity: usize,
    len: usize,
}

impl<C> Clone for Block<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for Block<'_, C> {}

impl<'a, C> Block<'a, C> {
    /// `len` tuples of `arity` cells each.
    #[inline]
    pub fn new(cells: &'a [C], arity: usize, len: usize) -> Self {
        debug_assert_eq!(cells.len(), arity * len);
        Block { cells, arity, len }
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells per tuple.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The cells, tuple after tuple.
    #[inline]
    pub fn cells(&self) -> &'a [C] {
        self.cells
    }

    /// Tuple `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &'a [C] {
        nth::<C, 0>(self.cells, self.arity, i)
    }

    /// Iterate the tuples.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [C]> + 'a {
        let (cells, arity) = (self.cells, self.arity);
        (0..self.len).map(move |i| nth::<C, 0>(cells, arity, i))
    }
}

/// Evaluate a const-generic block body once for `arity`, with the const
/// `$n` = the arity for 1–4 and 0 (the runtime-length body) otherwise: one
/// dispatch per block.
macro_rules! by_arity {
    ($arity:expr, $n:ident => $body:expr) => {
        match $arity {
            1 => {
                const $n: usize = 1;
                $body
            }
            2 => {
                const $n: usize = 2;
                $body
            }
            3 => {
                const $n: usize = 3;
                $body
            }
            4 => {
                const $n: usize = 4;
                $body
            }
            _ => {
                const $n: usize = 0;
                $body
            }
        }
    };
}
pub(crate) use by_arity;

/// A batch of same-arity tuples in one vector of cells, with the column
/// kinds that interpret them (the lanes, for words).
#[derive(Debug, Clone)]
pub struct Tuples<C: Cell = u64> {
    cells: Vec<C>,
    kinds: Arc<[C::Kind]>,
    /// Cells per tuple. A batch created without kinds (values need none)
    /// takes the arity of its first tuple.
    arity: usize,
    len: usize,
    /// Running [`Cell::row_bytes`] total.
    bytes: u64,
}

impl<C: Cell> Default for Tuples<C> {
    fn default() -> Self {
        Tuples::new(Vec::new().into())
    }
}

impl<C: Cell> Tuples<C> {
    /// An empty batch of tuples with these column kinds.
    pub fn new(kinds: Arc<[C::Kind]>) -> Self {
        Tuples {
            cells: Vec::new(),
            arity: kinds.len(),
            kinds,
            len: 0,
            bytes: 0,
        }
    }

    /// An empty batch with room for `n` tuples.
    pub fn with_capacity(kinds: Arc<[C::Kind]>, n: usize) -> Self {
        let mut tuples = Tuples::new(kinds);
        tuples.cells.reserve(n * tuples.arity);
        tuples
    }

    /// The column kinds.
    pub fn kinds(&self) -> &Arc<[C::Kind]> {
        &self.kinds
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tuple `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[C] {
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }

    /// Append a tuple.
    #[inline]
    pub fn push(&mut self, tuple: &[C]) {
        if self.len == 0 && self.kinds.is_empty() {
            self.arity = tuple.len();
        }
        debug_assert_eq!(tuple.len(), self.arity);
        self.cells.extend_from_slice(tuple);
        self.len += 1;
        self.bytes += C::row_bytes(tuple);
    }

    /// Move every tuple of `other` to the end of this batch.
    pub fn append(&mut self, other: &mut Tuples<C>) {
        if self.len == 0 {
            self.arity = other.arity;
        }
        self.cells.append(&mut other.cells);
        self.len += std::mem::take(&mut other.len);
        self.bytes += std::mem::take(&mut other.bytes);
    }

    /// Iterate the tuples.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[C]> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Tuples `range`, as a block.
    #[inline]
    pub fn block(&self, range: Range<usize>) -> Block<'_, C> {
        let cells = &self.cells[range.start * self.arity..range.end * self.arity];
        Block::new(cells, self.arity, range.len())
    }

    /// Bytes of the equivalent rows (`16 + 8·arity` per numeric tuple —
    /// `Row::size_bytes`), which is what shuffle accounting counts. O(1).
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes this batch really holds: the cell vector plus what value cells
    /// own beyond their 8 accounted bytes (strings). O(1).
    pub fn heap_bytes(&self) -> u64 {
        let accounted = 16 * self.len as u64 + 8 * self.cells.len() as u64;
        (self.cells.len() * std::mem::size_of::<C>()) as u64 + self.bytes.saturating_sub(accounted)
    }

    /// Append a tuple given as values, each checked against its column.
    pub fn push_values(&mut self, values: &[Value]) -> Result<(), Escaped> {
        if self.len == 0 && self.kinds.is_empty() {
            self.arity = values.len();
        }
        if values.len() != self.arity {
            return Err(Escaped);
        }
        let start = self.cells.len();
        for (i, v) in values.iter().enumerate() {
            match C::from_value(v, C::kind(&self.kinds, i)) {
                Ok(cell) => self.cells.push(cell),
                Err(e) => {
                    self.cells.truncate(start);
                    return Err(e);
                }
            }
        }
        self.len += 1;
        self.bytes += C::row_bytes(&self.cells[start..]);
        Ok(())
    }

    /// The batch of `rows`, every value checked against its column.
    pub fn from_rows(kinds: Arc<[C::Kind]>, rows: &[Row]) -> Result<Self, Escaped> {
        let mut tuples = Tuples::new(kinds);
        for row in rows {
            tuples.push_values(row.values())?;
        }
        Ok(tuples)
    }

    /// Tuple `i` as a row — the one allocation a result tuple costs.
    pub fn row(&self, i: usize) -> Row {
        Row::new(values_of(&self.kinds, self.get(i)))
    }

    /// Every tuple as a row, in order.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }
}

/// A set of tuples: a [`Tuples`] arena behind a [`KeyIndex`] — hashed
/// slots, or a directory addressed by the tuple itself when its cells are
/// small words. Nothing is allocated per tuple, and tuples keep their
/// insertion order. A clone is a flat copy of the arena and the index:
/// nothing is hashed again.
#[derive(Debug, Clone)]
pub struct TupleSet<C: Cell = u64> {
    tuples: Tuples<C>,
    index: KeyIndex,
}

impl<C: Cell> Default for TupleSet<C> {
    fn default() -> Self {
        TupleSet::new(Vec::new().into())
    }
}

impl<C: Cell> TupleSet<C> {
    /// An empty set of tuples with these column kinds.
    pub fn new(kinds: Arc<[C::Kind]>) -> Self {
        TupleSet {
            tuples: Tuples::new(kinds),
            index: KeyIndex::default(),
        }
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Tuple `i`, in insertion order.
    #[inline]
    pub fn get(&self, i: usize) -> &[C] {
        self.tuples.get(i)
    }

    /// The tuples, in insertion order.
    pub fn tuples(&self) -> &Tuples<C> {
        &self.tuples
    }

    /// The tuples, in insertion order, without the index.
    pub fn into_tuples(self) -> Tuples<C> {
        self.tuples
    }

    /// The index of the tuples.
    pub fn key_index(&self) -> &KeyIndex {
        &self.index
    }

    /// Bytes really held: arena plus index. O(1).
    pub fn heap_bytes(&self) -> u64 {
        self.tuples.heap_bytes() + self.index.heap_bytes()
    }

    /// The index of `tuple`, if present.
    #[inline]
    pub fn find(&self, tuple: &[C]) -> Option<usize> {
        self.index.find(&self.tuples.cells, tuple)
    }

    /// The index of `tuple`, appended if absent; true if it was absent.
    #[inline]
    pub fn intern(&mut self, tuple: &[C]) -> (usize, bool) {
        self.intern_hashed::<0>(tuple, None)
    }

    /// [`TupleSet::intern`] of a tuple of `N` cells (any number when `N` is
    /// 0) whose [`hash32`] may be known.
    #[inline(always)]
    pub(crate) fn intern_hashed<const N: usize>(
        &mut self,
        tuple: &[C],
        hash32: Option<u32>,
    ) -> (usize, bool) {
        let len = self.tuples.len();
        match (self.index).intern::<C, N>(&self.tuples.cells, len, tuple, hash32) {
            Ok(i) => (i, false),
            Err(i) => {
                self.tuples.push(tuple);
                (i, true)
            }
        }
    }

    /// [`TupleSet::intern`] of every tuple of `block`, in order — the same
    /// interns as one call per tuple — with the arity looked at once and,
    /// while the index is hashed, every tuple hashed first (into `hashes`, a
    /// reused buffer).
    pub fn intern_block(&mut self, block: Block<'_, C>, hashes: &mut Vec<u32>) {
        by_arity!(block.arity(), N => self.intern_run::<N>(block, hashes));
    }

    fn intern_run<const N: usize>(&mut self, block: Block<'_, C>, hashes: &mut Vec<u32>) {
        self.hash_run::<N>(block, hashes);
        for i in 0..block.len {
            let tuple = nth::<C, N>(block.cells, block.arity, i);
            self.intern_hashed::<N>(tuple, hashes.get(i).copied());
        }
    }

    /// [`hash_run`] of `block` into `hashes` while the index is hashed; no
    /// hash at all (`hashes` emptied) while it is addressed by position.
    #[inline(always)]
    pub(crate) fn hash_run<const N: usize>(&self, block: Block<'_, C>, hashes: &mut Vec<u32>) {
        if self.index.by_position() {
            hashes.clear();
        } else {
            hash_run::<C, N>(block, hashes);
        }
    }

    /// [`TupleSet::hash_run`] for a block of any arity.
    pub(crate) fn hash_block(&self, block: Block<'_, C>, hashes: &mut Vec<u32>) {
        by_arity!(block.arity(), N => self.hash_run::<N>(block, hashes));
    }
}

/// [`hash32`] of every tuple of `block` (of `N` cells, any number when `N`
/// is 0), replacing `out`.
#[inline(always)]
pub(crate) fn hash_run<C: Cell, const N: usize>(block: Block<'_, C>, out: &mut Vec<u32>) {
    out.clear();
    let (cells, arity) = (block.cells, block.arity);
    out.extend((0..block.len).map(|i| hash32(nth::<C, N>(cells, arity, i))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_storage::partition::row_partition;
    use rasql_storage::row::int_row;

    #[test]
    fn lanes_follow_the_schema() {
        let numeric = Schema::new(vec![("a", DataType::Int), ("b", DataType::Double)]);
        assert_eq!(
            lanes_of(&numeric).as_deref(),
            Some(&[Lane::Int, Lane::Double][..])
        );
        let text = Schema::new(vec![("a", DataType::Int), ("s", DataType::Str)]);
        assert!(lanes_of(&text).is_none());
    }

    #[test]
    fn rows_round_trip_and_mistyped_values_escape() {
        let lanes: Arc<[Lane]> = vec![Lane::Int, Lane::Double].into();
        let rows = vec![
            Row::new(vec![Value::Int(-3), Value::Double(0.5)]),
            Row::new(vec![Value::Int(i64::MAX), Value::Double(f64::NAN)]),
        ];
        let tuples = Tuples::<u64>::from_rows(lanes.clone(), &rows).unwrap();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples.to_rows(), rows);
        assert_eq!(tuples.size_bytes(), 2 * (16 + 16));
        assert_eq!(
            tuples.size_bytes(),
            rows.iter().map(|r| r.size_bytes() as u64).sum::<u64>()
        );
        for bad in [
            vec![Value::Double(1.0), Value::Double(1.0)],
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(1)],
        ] {
            assert!(Tuples::<u64>::from_rows(lanes.clone(), &[Row::new(bad)]).is_err());
        }
    }

    #[test]
    fn a_set_interns_each_tuple_once_in_insertion_order() {
        let mut set = TupleSet::<u64>::new(vec![Lane::Int, Lane::Int].into());
        assert_eq!(set.find(&[1, 2]), None);
        for i in 0..1000u64 {
            let (at, new) = set.intern(&[i % 250, i % 2]);
            assert_eq!((at, new), ((i % 250) as usize, i < 250));
        }
        assert_eq!(set.len(), 250);
        assert_eq!(set.get(17), &[17, 1]);
        assert_eq!(set.find(&[17, 1]), Some(17));
        assert_eq!(set.find(&[17, 0]), None);
        // The same through value cells, strings included.
        let mut set = TupleSet::<Value>::default();
        assert!(set.intern(&[Value::from("a"), Value::Null]).1);
        assert!(set.intern(&[Value::from("b"), Value::Null]).1);
        assert_eq!(set.intern(&[Value::from("a"), Value::Null]), (0, false));
        assert_eq!(
            set.tuples().row(1),
            Row::new(vec![Value::from("b"), Value::Null])
        );
    }

    #[test]
    fn word_partitions_are_row_partitions() {
        let lanes = [Lane::Int, Lane::Double];
        for (i, d) in [
            (7i64, 2.0f64),
            (-1, 2.5),
            (i64::MIN, -0.0),
            (0, f64::INFINITY),
        ] {
            let row = Row::new(vec![Value::Int(i), Value::Double(d)]);
            let cells = [i as u64, d.to_bits()];
            for key in [&[0usize][..], &[1], &[0, 1]] {
                assert_eq!(
                    lane_partition(&lanes, &cells, key, 7),
                    row_partition(&row, key, 7)
                );
            }
        }
        // An integral double lands where its integer does.
        let as_int = row_partition(&int_row(&[2]), &[0], 5);
        assert_eq!(
            lane_partition(&[Lane::Double], &[2.0f64.to_bits()], &[0], 5),
            as_int
        );
    }
}
