//! Dense vertex-indexed fixpoint state and monomorphized delta-join kernels.
//!
//! This is the compiled fast path for the dominant recursive-query shape —
//! `(Int vertex key, Int/Double monotone aggregate)` over a static edge
//! relation (SSSP, CC, reachability, path counting). Instead of
//! `FxHashMap<Row, Value>` with dynamic [`crate::MonotoneOp`] dispatch per
//! candidate, aggregate state lives in flat `Vec` slabs indexed by the dense
//! vertex ids of a [`rasql_storage::CsrGraph`], and the per-round
//! delta-join-aggregate loop is monomorphized over a [`MergeOp`] so the
//! compiler emits one tight loop per (op, type) pair — the whole-stage
//! code-generation analog of paper §7.3.
//!
//! **Semantics contract**: every structure here mirrors the generic
//! [`crate::AggState`] / [`crate::SetState`] behavior bit-for-bit —
//! vacant slots accept any first contribution (even a zero `sum`
//! contribution counts as a change), `min`/`max` move only on *strictly*
//! better values (`f64` compared with `total_cmp`, exactly like
//! `Value::cmp`), and a zero `sum` contribution onto an occupied slot is a
//! no-op. The differential proptests in `rasql-core` enforce this against
//! the interpreter on random graphs.
//!
//! A round of an idempotent kernel (`min`, `max`, set) may also *pull*: a
//! partition publishes its delta into a [`DeltaSnapshot`] instead of scanning
//! it, and in the next round every partition gathers its vertices' in-edges
//! from the published values ([`DeltaSnapshot::gather`]). [`pulls`] is the
//! per-round cost rule that picks the direction.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rasql_storage::{CsrGraph, InEdges, Value};

use crate::Escaped;

/// Scalar types the kernels are monomorphized over.
///
/// `lt`/`gt` define the same total order as `Value::cmp` (`f64` uses
/// `total_cmp`); `add`/`sub` are the slab-local analogs of
/// `Value::add`/`Value::sub`, checked where those promote.
pub trait KernelValue: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// Additive identity (the generic path's vacant-`sum` `prev` of `Int(0)`).
    fn zero() -> Self;
    /// Strict total-order less-than.
    fn lt(a: Self, b: Self) -> bool;
    /// Strict total-order greater-than.
    fn gt(a: Self, b: Self) -> bool;
    /// Addition; `None` when an `i64` sum leaves `i64`. `Value::add`
    /// promotes to `Double` there, which a slab cannot hold: the kernel run
    /// is abandoned and the interpreter answers.
    fn add(a: Self, b: Self) -> Option<Self>;
    /// Subtraction (used to form per-round `sum` increments); `None` as for
    /// [`KernelValue::add`].
    fn sub(a: Self, b: Self) -> Option<Self>;
    /// True for the additive identity (a `sum` contribution that cannot
    /// change an occupied slot).
    fn is_zero(self) -> bool;
    /// The value as 64 opaque bits — how a typed base-case seed carries its
    /// aggregate before a slab of this type exists. Equal bits are equal
    /// values under `Value::cmp` (`f64` by `total_cmp`).
    fn to_bits(self) -> u64;
    /// Inverse of [`KernelValue::to_bits`].
    fn from_bits(bits: u64) -> Self;
    /// *Strict* conversion of a state value: `None` unless the value is
    /// exactly this type — any mismatch sends the query to the interpreter.
    fn from_value(v: &Value) -> Option<Self>;
    /// Convert an additive literal; `f64` also accepts `Int` (the promotion
    /// `Value::add` performs).
    fn from_const(v: &Value) -> Option<Self> {
        Self::from_value(v)
    }
    /// Convert back for materialization.
    fn to_value(self) -> Value;
    /// The CSR weight slab of this scalar type.
    fn weights(csr: &CsrGraph) -> &[Self];
    /// The same weights in in-edge order.
    fn in_weights(inn: &InEdges) -> &[Self];
}

impl KernelValue for i64 {
    #[inline]
    fn zero() -> Self {
        0
    }
    #[inline]
    fn lt(a: Self, b: Self) -> bool {
        a < b
    }
    #[inline]
    fn gt(a: Self, b: Self) -> bool {
        a > b
    }
    #[inline]
    fn add(a: Self, b: Self) -> Option<Self> {
        a.checked_add(b)
    }
    #[inline]
    fn sub(a: Self, b: Self) -> Option<Self> {
        a.checked_sub(b)
    }
    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }
    #[inline]
    fn to_bits(self) -> u64 {
        u64::from_ne_bytes(self.to_ne_bytes())
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        i64::from_ne_bytes(bits.to_ne_bytes())
    }
    fn from_value(v: &Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
    fn to_value(self) -> Value {
        Value::Int(self)
    }
    fn weights(csr: &CsrGraph) -> &[i64] {
        &csr.weights_i
    }
    fn in_weights(inn: &InEdges) -> &[i64] {
        &inn.weights_i
    }
}

impl KernelValue for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn lt(a: Self, b: Self) -> bool {
        a.total_cmp(&b) == std::cmp::Ordering::Less
    }
    #[inline]
    fn gt(a: Self, b: Self) -> bool {
        a.total_cmp(&b) == std::cmp::Ordering::Greater
    }
    #[inline]
    fn add(a: Self, b: Self) -> Option<Self> {
        Some(a + b)
    }
    #[inline]
    fn sub(a: Self, b: Self) -> Option<Self> {
        Some(a - b)
    }
    #[inline]
    fn is_zero(self) -> bool {
        self == 0.0
    }
    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    fn from_value(v: &Value) -> Option<f64> {
        match v {
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }
    fn from_const(v: &Value) -> Option<f64> {
        match v {
            #[allow(clippy::cast_precision_loss)]
            Value::Int(i) => Some(*i as f64),
            _ => Self::from_value(v),
        }
    }
    fn to_value(self) -> Value {
        Value::Double(self)
    }
    fn weights(csr: &CsrGraph) -> &[f64] {
        &csr.weights_f
    }
    fn in_weights(inn: &InEdges) -> &[f64] {
        &inn.weights_f
    }
}

/// A monotone merge operator, monomorphized per scalar type.
///
/// `merge` returns `Some(updated)` when the contribution strictly improves
/// the current total, `None` when the slot is unchanged — the exact
/// changed/unchanged split [`crate::MonotoneOp::merge`] reports — and
/// `Escaped` when a `sum` leaves `i64` ([`KernelValue::add`]).
pub trait MergeOp<T: KernelValue>: Send + Sync + 'static {
    /// Operator name as it appears in kernel labels (`min`, `max`, `sum`).
    const NAME: &'static str;
    /// Merging a contribution twice leaves what merging it once does, so a
    /// round may gather its contributions instead of having them pushed.
    const IDEMPOTENT: bool = false;
    /// Merge `new` into `cur`.
    fn merge(cur: T, new: T) -> Result<Option<T>, Escaped>;
}

/// `min`: move only on strictly smaller values.
#[derive(Debug, Clone, Copy)]
pub struct MinOp;
/// `max`: move only on strictly larger values.
#[derive(Debug, Clone, Copy)]
pub struct MaxOp;
/// `sum`: accumulate; zero contributions are no-ops.
#[derive(Debug, Clone, Copy)]
pub struct SumOp;

impl<T: KernelValue> MergeOp<T> for MinOp {
    const NAME: &'static str = "min";
    const IDEMPOTENT: bool = true;
    #[inline]
    fn merge(cur: T, new: T) -> Result<Option<T>, Escaped> {
        Ok(T::lt(new, cur).then_some(new))
    }
}

impl<T: KernelValue> MergeOp<T> for MaxOp {
    const NAME: &'static str = "max";
    const IDEMPOTENT: bool = true;
    #[inline]
    fn merge(cur: T, new: T) -> Result<Option<T>, Escaped> {
        Ok(T::gt(new, cur).then_some(new))
    }
}

impl<T: KernelValue> MergeOp<T> for SumOp {
    const NAME: &'static str = "sum";
    #[inline]
    fn merge(cur: T, new: T) -> Result<Option<T>, Escaped> {
        if new.is_zero() {
            Ok(None)
        } else {
            T::add(cur, new).map(Some).ok_or(Escaped)
        }
    }
}

/// Dense vertex-indexed aggregate state — the flat-slab sibling of
/// [`crate::AggState`] for single-`Int`-key, single-aggregate views.
///
/// Slabs are sized to the vertex universe of the query's CSR graph. A
/// round-tagged stamp array dedups the dirty list (each vertex enters a
/// round's delta at most once) and records the pre-round total so `sum`
/// increments can be formed without a second map.
#[derive(Debug, Clone)]
pub struct DenseAggState<T> {
    vals: Vec<T>,
    occupied: Vec<bool>,
    /// `round + 1` when the slot is already dirty this round; 0 = never.
    stamp: Vec<u32>,
    /// Total at the moment the slot first became dirty this round (zero for
    /// slots that were vacant), so `increment = vals[v] - inc_base[v]`.
    inc_base: Vec<T>,
    dirty: Vec<u32>,
    rows: usize,
    /// A merge or an increment left `i64`; the slab no longer holds what
    /// the interpreter would, and the run must be abandoned.
    overflowed: bool,
}

impl<T: KernelValue> DenseAggState<T> {
    /// State for a universe of `n` dense vertex ids, all vacant.
    pub fn new(n: usize) -> Self {
        DenseAggState {
            vals: vec![T::zero(); n],
            occupied: vec![false; n],
            stamp: vec![0; n],
            inc_base: vec![T::zero(); n],
            dirty: Vec::new(),
            rows: 0,
            overflowed: false,
        }
    }

    /// Merge one contribution for dense vertex `v` during 1-based `round`.
    /// Returns true when the slot changed (mirrors `MergeOutcome::Changed`):
    /// always on first occupancy, otherwise per `Op::merge`. A merge that
    /// leaves `i64` changes nothing and marks the state overflowed.
    #[inline]
    pub fn merge<Op: MergeOp<T>>(&mut self, v: u32, c: T, round: u32) -> bool {
        let i = v as usize;
        if !self.occupied[i] {
            self.occupied[i] = true;
            self.vals[i] = c;
            self.rows += 1;
            self.mark_dirty(i, round, T::zero());
            return true;
        }
        match Op::merge(self.vals[i], c) {
            Ok(Some(updated)) => {
                let before = self.vals[i];
                self.mark_dirty(i, round, before);
                self.vals[i] = updated;
                true
            }
            Ok(None) => false,
            Err(Escaped) => {
                self.overflowed = true;
                false
            }
        }
    }

    #[inline]
    fn mark_dirty(&mut self, i: usize, round: u32, base: T) {
        if self.stamp[i] != round + 1 {
            self.stamp[i] = round + 1;
            self.inc_base[i] = base;
            #[allow(clippy::cast_possible_truncation)]
            self.dirty.push(i as u32);
        }
    }

    /// Drain this round's delta. With `totals` the pairs carry the current
    /// totals (min/max driver mode — where increments *are* totals);
    /// otherwise per-round increments (`sum` increment driver mode).
    pub fn take_delta(&mut self, totals: bool) -> Vec<(u32, T)> {
        let dirty = std::mem::take(&mut self.dirty);
        dirty
            .into_iter()
            .map(|v| {
                let i = v as usize;
                let out = if totals {
                    self.vals[i]
                } else {
                    T::sub(self.vals[i], self.inc_base[i]).unwrap_or_else(|| {
                        self.overflowed = true;
                        T::zero()
                    })
                };
                (v, out)
            })
            .collect()
    }

    /// Number of occupied slots (the view's row count in this partition).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Current total for dense vertex `v`, if occupied.
    #[inline]
    pub fn get(&self, v: u32) -> Option<T> {
        self.occupied[v as usize].then(|| self.vals[v as usize])
    }

    /// Iterate occupied `(dense id, total)` pairs in dense-id order.
    #[allow(clippy::cast_possible_truncation)]
    pub fn iter(&self) -> impl Iterator<Item = (u32, T)> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .filter(|&(_, &occ)| occ)
            .map(|(i, _)| (i as u32, self.vals[i]))
    }

    /// Reset every slot to vacant (the reset-and-rerun recovery path).
    pub fn clear(&mut self) {
        self.vals.iter_mut().for_each(|v| *v = T::zero());
        self.occupied.iter_mut().for_each(|o| *o = false);
        self.stamp.iter_mut().for_each(|s| *s = 0);
        self.inc_base.iter_mut().for_each(|b| *b = T::zero());
        self.dirty.clear();
        self.rows = 0;
        self.overflowed = false;
    }

    /// Slab footprint in bytes, for memory-budget accounting. Dense slabs
    /// are allocated up front to the vertex universe, so this is a constant
    /// charge per partition for the fixpoint's lifetime.
    pub fn size_bytes(&self) -> u64 {
        (self.vals.len() * (2 * std::mem::size_of::<T>() + 1 + 4) + self.dirty.capacity() * 4)
            as u64
    }
}

/// Dense vertex membership state — the flat sibling of [`crate::SetState`]
/// for single-`Int`-key set views (reachability).
#[derive(Debug, Clone, Default)]
pub struct DenseSetState {
    present: Vec<bool>,
    dirty: Vec<u32>,
    rows: usize,
}

impl DenseSetState {
    /// State for a universe of `n` dense vertex ids, all absent.
    pub fn new(n: usize) -> Self {
        DenseSetState {
            present: vec![false; n],
            dirty: Vec::new(),
            rows: 0,
        }
    }

    /// Insert dense vertex `v`; true (and queued for the delta) when new.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let i = v as usize;
        if self.present[i] {
            return false;
        }
        self.present[i] = true;
        self.rows += 1;
        self.dirty.push(v);
        true
    }

    /// Drain this round's newly inserted vertices.
    pub fn take_delta(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.dirty)
    }

    /// Number of present vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no vertex is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Iterate present dense ids in ascending order.
    #[allow(clippy::cast_possible_truncation)]
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p)
            .map(|(i, _)| i as u32)
    }

    /// Reset every vertex to absent (the reset-and-rerun recovery path).
    pub fn clear(&mut self) {
        self.present.iter_mut().for_each(|p| *p = false);
        self.dirty.clear();
        self.rows = 0;
    }

    /// Slab footprint in bytes, for memory-budget accounting.
    pub fn size_bytes(&self) -> u64 {
        (self.present.len() + self.dirty.capacity() * 4) as u64
    }
}

/// One partition's dense fixpoint state as the kernel driver sees it. The
/// driver (`rasql-core`'s `Dense` round step) is written once over this trait;
/// `Op` picks the merge operator (`()` for the set state, which has none).
#[allow(clippy::len_without_is_empty)]
pub trait DenseState<Op>: Send + 'static {
    /// A contribution and a delta entry alike: `(vertex, value)`, or the
    /// vertex alone.
    type Item: Copy + Send + Sync + 'static;
    /// Whether a round may pull: the merge is idempotent, so gathering a
    /// published delta's contributions changes exactly what pushing them
    /// would ([`MergeOp::IDEMPOTENT`]; always for the set state).
    const PULLS: bool;
    /// One contribution is all a vertex can take (set membership): a gather
    /// stops at a vertex's first published in-neighbour.
    const FIRST_WINS: bool = false;
    /// State for a universe of `n` dense vertex ids, all vacant.
    fn new(n: usize) -> Self;
    /// The item of a typed base-case seed: dense vertex plus the aggregate's
    /// [`KernelValue::to_bits`] (ignored by the set state).
    fn item(v: u32, bits: u64) -> Self::Item;
    /// The aggregate bits of an item, as [`DenseState::item`] takes them.
    fn bits(item: Self::Item) -> u64;
    /// Whether vertex `v` can gain nothing more (a present set member): a
    /// gather skips it.
    fn settled(&self, _v: u32) -> bool {
        false
    }
    /// How many vertices are [`settled`](DenseState::settled).
    fn settled_count(&self) -> usize {
        0
    }
    /// The vertex an item is for.
    fn vertex(item: Self::Item) -> u32;
    /// Map-side combine: fold `new` into the item a scan task already holds
    /// for the same vertex — what `Partial` does for the interpreter.
    fn combine(held: &mut Self::Item, new: Self::Item) -> Result<(), Escaped>;
    /// Merge one contribution during 1-based `round`; true when the state
    /// changed.
    fn merge(&mut self, item: Self::Item, round: u32) -> bool;
    /// Drain this round's delta (`totals`: see [`DenseAggState::take_delta`]);
    /// `Escaped` once a merge or an increment has left `i64`.
    fn take_delta(&mut self, totals: bool) -> Result<Vec<Self::Item>, Escaped>;
    /// Rows held (occupied slots).
    fn len(&self) -> usize;
    /// Slab footprint in bytes, for memory-budget accounting.
    fn size_bytes(&self) -> u64;
    /// Reset to vacant (the reset-and-rerun recovery path).
    fn clear(&mut self);
    /// Lend every occupied `(dense id, aggregate bits)` pair to `f`, in
    /// dense-id order ([`KernelValue::to_bits`]; 0 for the set state).
    fn for_each_cell(&self, f: impl FnMut(u32, u64));
}

impl<T: KernelValue, Op: MergeOp<T>> DenseState<Op> for DenseAggState<T> {
    type Item = (u32, T);
    const PULLS: bool = Op::IDEMPOTENT;
    fn new(n: usize) -> Self {
        DenseAggState::new(n)
    }
    #[inline]
    fn item(v: u32, bits: u64) -> (u32, T) {
        (v, T::from_bits(bits))
    }
    #[inline]
    fn bits(item: (u32, T)) -> u64 {
        item.1.to_bits()
    }
    #[inline]
    fn vertex(item: (u32, T)) -> u32 {
        item.0
    }
    #[inline]
    fn combine(held: &mut (u32, T), new: (u32, T)) -> Result<(), Escaped> {
        if let Some(updated) = Op::merge(held.1, new.1)? {
            held.1 = updated;
        }
        Ok(())
    }
    #[inline]
    fn merge(&mut self, (v, c): (u32, T), round: u32) -> bool {
        DenseAggState::merge::<Op>(self, v, c, round)
    }
    fn take_delta(&mut self, totals: bool) -> Result<Vec<(u32, T)>, Escaped> {
        let delta = DenseAggState::take_delta(self, totals);
        (!self.overflowed).then_some(delta).ok_or(Escaped)
    }
    fn len(&self) -> usize {
        self.rows
    }
    fn size_bytes(&self) -> u64 {
        DenseAggState::size_bytes(self)
    }
    fn clear(&mut self) {
        DenseAggState::clear(self);
    }
    fn for_each_cell(&self, mut f: impl FnMut(u32, u64)) {
        self.iter().for_each(|(d, val)| f(d, val.to_bits()));
    }
}

impl DenseState<()> for DenseSetState {
    type Item = u32;
    const PULLS: bool = true;
    const FIRST_WINS: bool = true;
    fn new(n: usize) -> Self {
        DenseSetState::new(n)
    }
    #[inline]
    fn item(v: u32, _bits: u64) -> u32 {
        v
    }
    #[inline]
    fn bits(_item: u32) -> u64 {
        0
    }
    #[inline]
    fn settled(&self, v: u32) -> bool {
        self.present[v as usize]
    }
    fn settled_count(&self) -> usize {
        self.rows
    }
    #[inline]
    fn vertex(item: u32) -> u32 {
        item
    }
    #[inline]
    fn combine(_held: &mut u32, _new: u32) -> Result<(), Escaped> {
        Ok(())
    }
    #[inline]
    fn merge(&mut self, v: u32, _round: u32) -> bool {
        self.insert(v)
    }
    fn take_delta(&mut self, _totals: bool) -> Result<Vec<u32>, Escaped> {
        Ok(DenseSetState::take_delta(self))
    }
    fn len(&self) -> usize {
        self.rows
    }
    fn size_bytes(&self) -> u64 {
        DenseSetState::size_bytes(self)
    }
    fn clear(&mut self) {
        DenseSetState::clear(self);
    }
    fn for_each_cell(&self, mut f: impl FnMut(u32, u64)) {
        self.iter().for_each(|d| f(d, 0));
    }
}

/// The one edge walk every scan shares: for each delta entry, follow its
/// vertex's CSR adjacency and hand `sink` the contribution `along` carries
/// over each edge, with the partition that owns the destination. `along` and
/// `sink` are monomorphized per query shape and per sink, so the loop
/// compiles to straight-line code that allocates no row.
#[inline]
fn edge_walk<D: Copy, C>(
    csr: &CsrGraph,
    delta: &[D],
    vertex: impl Fn(D) -> u32,
    along: impl Fn(D, usize, u32) -> C,
    mut sink: impl FnMut(usize, u32, C),
) {
    for &d in delta {
        for e in csr.adjacency(vertex(d)) {
            let dst = csr.targets[e];
            sink(csr.part_of[dst as usize] as usize, dst, along(d, e, dst));
        }
    }
}

/// The one in-edge gather every pull round shares: for each vertex of
/// `owned` that can still change, fold the contribution `along` carries over
/// each in-edge from a source `published` holds a value for (its item, or
/// `None`), and merge the fold into `slab` at stamp `round`. The set state
/// stops at the first. Returns the in-edges read. `along` is monomorphized
/// per query shape, so the loop compiles to straight-line code that
/// allocates no row.
#[inline]
fn edge_gather<Op, S: DenseState<Op>>(
    inn: &InEdges,
    owned: &[u32],
    slab: &mut S,
    round: u32,
    published: impl Fn(u32) -> Option<S::Item>,
    along: impl Fn(S::Item, usize, u32) -> Result<S::Item, Escaped>,
) -> Result<u64, Escaped> {
    let mut read = 0;
    for &v in owned {
        if slab.settled(v) {
            continue;
        }
        let (first, mut last) = (inn.offsets[v as usize], inn.offsets[v as usize + 1]);
        let mut best: Option<S::Item> = None;
        for ie in first as usize..last as usize {
            let Some(src) = published(inn.sources[ie]) else {
                continue;
            };
            let c = along(src, ie, v)?;
            match &mut best {
                None => best = Some(c),
                Some(held) => S::combine(held, c)?,
            }
            if S::FIRST_WINS {
                // In-edge indexes are `u32` (`InEdges::offsets`).
                #[allow(clippy::cast_possible_truncation)]
                let read_to = ie as u32 + 1;
                last = read_to;
                break;
            }
        }
        read += u64::from(last - first);
        if let Some(c) = best {
            slab.merge(c, round);
        }
    }
    Ok(read)
}

/// Scan one delta against CSR adjacency, pushing every derived contribution
/// to its partition's output bucket — the walk with the uncombined sink.
/// `edge_fn(value, edge_index)` computes the contribution carried along edge
/// `edge_index` (identity, `+ weight`, `+ const`, `least(value, weight)`).
#[inline]
pub fn scan_delta<T, E>(csr: &CsrGraph, delta: &[(u32, T)], edge_fn: E, out: &mut [Vec<(u32, T)>])
where
    T: KernelValue,
    E: Fn(T, usize) -> T,
{
    edge_walk(
        csr,
        delta,
        |(v, _)| v,
        |(_, val), e, dst| (dst, edge_fn(val, e)),
        |p, _, c| out[p].push(c),
    );
}

/// Set-kernel analog of [`scan_delta`]: propagate membership along edges.
#[inline]
pub fn scan_delta_set(csr: &CsrGraph, delta: &[u32], out: &mut [Vec<u32>]) {
    edge_walk(csr, delta, |v| v, |_, _, dst| dst, |p, _, c| out[p].push(c));
}

/// The engine's scan sink — the ShuffleMap stage's partial aggregation
/// (paper §7.1, Algorithm 5): per scan, at most one item per destination
/// vertex leaves the task. A vertex's first contribution is pushed to its
/// partition's bucket and later ones are [`DenseState::combine`]d into it,
/// exactly as `Partial::Groups` / `Partial::Distinct` pre-merge for the
/// interpreter (a task-local `sum` that cancels still ships its zero).
///
/// One combiner serves one partition's scans for a whole fixpoint: `slot`
/// maps a vertex to 1 + its item's index in the bucket being filled and is
/// all zero between scans.
#[derive(Debug)]
pub struct Combiner {
    slot: Vec<u32>,
}

impl Combiner {
    /// A combiner for a universe of `n` dense vertex ids.
    pub fn new(n: usize) -> Self {
        Combiner { slot: vec![0; n] }
    }

    /// Walk `delta`'s edges and return the combined contributions, bucketed
    /// by destination partition, each bucket in first-contribution order.
    /// `along(delta item, edge index, destination)` is the contribution an
    /// edge carries; `Escaped` when it, or a combine, leaves `i64`.
    pub fn scan<Op, S: DenseState<Op>>(
        &mut self,
        csr: &CsrGraph,
        delta: &[S::Item],
        parts: usize,
        along: impl Fn(S::Item, usize, u32) -> Result<S::Item, Escaped>,
    ) -> Result<Vec<Vec<S::Item>>, Escaped> {
        let slot = &mut self.slot;
        let mut out: Vec<Vec<S::Item>> = vec![Vec::new(); parts];
        let mut escaped = Ok(());
        edge_walk(csr, delta, S::vertex, along, |p, dst, c| {
            let bucket = &mut out[p];
            match (c, slot[dst as usize]) {
                (Err(e), _) => escaped = Err(e),
                (Ok(c), 0) => {
                    bucket.push(c);
                    // A bucket holds one item per vertex, and vertex ids are `u32`.
                    #[allow(clippy::cast_possible_truncation)]
                    let at = bucket.len() as u32;
                    slot[dst as usize] = at;
                }
                (Ok(c), at) => escaped = escaped.and(S::combine(&mut bucket[at as usize - 1], c)),
            }
        });
        for &item in out.iter().flatten() {
            slot[S::vertex(item) as usize] = 0;
        }
        escaped.map(|()| out)
    }

    /// Footprint in bytes, for memory-budget accounting.
    pub fn size_bytes(&self) -> u64 {
        (self.slot.len() * 4) as u64
    }
}

/// Nanoseconds a push round spends per out-edge of its delta: the walk, the
/// map-side combine and the owner's merge. Measured single-threaded on a
/// 2-core x86-64 host on RMAT-65536 (655 360 edges): dense rounds pushed
/// 9–15 ns per out-edge for REACH, 12–20 for CC, 20–26 for SSSP.
const PUSH_NS_PER_EDGE: usize = 20;

/// Nanoseconds a gather spends per in-edge and per vertex it reads, measured
/// with [`PUSH_NS_PER_EDGE`]: 4–6 ns for CC, 8–11 for SSSP (which also reads
/// a weight and folds more candidates). Only the ratio decides: on the same
/// host, in the engine with two workers, pulling wherever it pays made
/// `graph_kernel`'s cycle 0.78–0.81× the all-push one, and a ratio of 3.3 instead
/// of 2.5 made no difference that the host's noise did not cover.
const PULL_NS_PER_EDGE: usize = 8;

/// The out-edges of `delta`'s vertices: what pushing it walks.
pub fn out_edges<Op, S: DenseState<Op>>(graph: &CsrGraph, delta: &[S::Item]) -> u64 {
    (delta.iter())
        .map(|&item| graph.adjacency(S::vertex(item)).len() as u64)
        .sum()
}

/// The direction rule: whether a partition of `parts` whose state is `slab`
/// should publish a delta with `out_edges` out-edges ([`out_edges`]) for the
/// next round to gather (pull) rather than walk them (push). Pushing costs
/// the out-edges. The gather costs the partition's share of the graph's
/// vertices and of the in-edges of those still open (not
/// [`settled`](DenseState::settled)), for once any partition publishes,
/// every partition gathers all of its own vertices. Only a state that
/// [`DenseState::PULLS`] ever pulls.
pub fn pulls<Op, S: DenseState<Op>>(
    graph: &CsrGraph,
    slab: &S,
    out_edges: u64,
    parts: usize,
) -> bool {
    if !S::PULLS {
        return false;
    }
    let (n, parts) = (graph.vertex_count().max(1), parts.max(1));
    let open = n.saturating_sub(slab.settled_count() * parts);
    let gather = (graph.edge_count() * open / n + n) / parts * PULL_NS_PER_EDGE;
    out_edges * PUSH_NS_PER_EDGE as u64 > gather as u64
}

/// The values pull rounds read: per vertex, the value it last published, in
/// one of two buffers by round parity. Round `r`'s publishers write buffer
/// `r % 2`, and round `r + 1` gathers from that buffer — never from a value
/// written in its own stage. A value published in an earlier round of the
/// same parity was gathered the round after it was published, so what it
/// carries now is no better than what its destinations hold (the merge is
/// idempotent): only the previous round's delta changes anything, exactly
/// as its push would have. A partition writes only the values of the
/// vertices it owns; the stage barrier orders a round's writes before the
/// next round's reads.
#[derive(Debug)]
pub struct DeltaSnapshot {
    /// Per buffer, whether each vertex has published into it.
    present: [Vec<AtomicBool>; 2],
    /// Per buffer, the aggregate bits each vertex published last. (Beside
    /// `present` rather than interleaved with it: a gather reads a byte and
    /// a word per in-edge, and the bytes stay cached.)
    bits: [Vec<AtomicU64>; 2],
}

impl DeltaSnapshot {
    /// Two empty buffers for a universe of `n` dense vertex ids.
    pub fn new(n: usize) -> Self {
        let present = || (0..n).map(|_| AtomicBool::new(false)).collect();
        let bits = || (0..n).map(|_| AtomicU64::new(0)).collect();
        DeltaSnapshot {
            present: [present(), present()],
            bits: [bits(), bits()],
        }
    }

    /// Publish `delta` as round `round`'s.
    pub fn publish<Op, S: DenseState<Op>>(&self, delta: &[S::Item], round: u32) {
        let at = (round % 2) as usize;
        let (present, bits) = (&self.present[at], &self.bits[at]);
        for &item in delta {
            let v = S::vertex(item) as usize;
            bits[v].store(S::bits(item), Ordering::Relaxed);
            present[v].store(true, Ordering::Relaxed);
        }
    }

    /// Forget everything published, in both buffers (a rewind's reset: the
    /// state the values were gathered into is gone).
    pub fn clear(&self) {
        for present in self.present.iter().flatten() {
            present.store(false, Ordering::Relaxed);
        }
    }

    /// A pull round's gather for the vertices `owned` of `slab`'s partition:
    /// merge into `slab`, at merge stamp `round`, the best contribution each
    /// gathers over `inn` from the values published up to round `published`
    /// (the previous round); returns the in-edges read. `along(source item,
    /// in-edge index, destination)` is the contribution an in-edge carries;
    /// `Escaped` when it, or a fold, leaves `i64`.
    pub fn gather<Op, S: DenseState<Op>>(
        &self,
        slab: &mut S,
        inn: &InEdges,
        owned: &[u32],
        published: u32,
        round: u32,
        along: impl Fn(S::Item, usize, u32) -> Result<S::Item, Escaped>,
    ) -> Result<u64, Escaped> {
        let at = (published % 2) as usize;
        let (present, bits) = (&self.present[at], &self.bits[at]);
        edge_gather::<Op, S>(
            inn,
            owned,
            slab,
            round,
            |u| {
                (present[u as usize].load(Ordering::Relaxed))
                    .then(|| S::item(u, bits[u as usize].load(Ordering::Relaxed)))
            },
            along,
        )
    }

    /// Footprint in bytes, for memory-budget accounting.
    pub fn size_bytes(&self) -> u64 {
        (self.bits.iter().map(Vec::len).sum::<usize>() * 9) as u64
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "fixtures: graphs made by hand")]
mod tests {
    use super::*;

    #[test]
    fn vacant_insert_always_changes() {
        let mut s: DenseAggState<i64> = DenseAggState::new(4);
        // Even a zero sum contribution occupies the slot and is "changed".
        assert!(s.merge::<SumOp>(2, 0, 1));
        assert_eq!(s.get(2), Some(0));
        assert_eq!(s.len(), 1);
        let d = s.take_delta(false);
        assert_eq!(d, vec![(2, 0)]);
    }

    #[test]
    fn min_strictness_and_delta_dedup() {
        let mut s: DenseAggState<i64> = DenseAggState::new(4);
        assert!(s.merge::<MinOp>(1, 10, 1));
        assert!(!s.merge::<MinOp>(1, 10, 1)); // equal — not strictly better
        assert!(s.merge::<MinOp>(1, 7, 1));
        assert!(s.merge::<MinOp>(1, 3, 1));
        let d = s.take_delta(true);
        assert_eq!(d, vec![(1, 3)]); // one delta entry despite three changes
        assert!(!s.merge::<MinOp>(1, 5, 2));
        assert!(s.take_delta(true).is_empty());
    }

    #[test]
    fn sum_increments_per_round() {
        let mut s: DenseAggState<i64> = DenseAggState::new(2);
        assert!(s.merge::<SumOp>(0, 5, 1));
        assert!(s.merge::<SumOp>(0, 3, 1));
        assert!(!s.merge::<SumOp>(0, 0, 1)); // zero onto occupied: no-op
        assert_eq!(s.take_delta(false), vec![(0, 8)]);
        assert!(s.merge::<SumOp>(0, 2, 2));
        assert_eq!(s.get(0), Some(10));
        assert_eq!(s.take_delta(false), vec![(0, 2)]); // increment, not total
        assert!(s.merge::<SumOp>(0, 4, 3));
        assert_eq!(s.take_delta(true), vec![(0, 14)]); // totals mode
    }

    #[test]
    fn i64_overflow_is_reported_not_wrapped() {
        let mut s: DenseAggState<i64> = DenseAggState::new(1);
        assert!(s.merge::<SumOp>(0, i64::MAX, 1));
        assert!(
            !s.merge::<SumOp>(0, 1, 1),
            "an overflowing merge changes nothing"
        );
        assert_eq!(DenseState::<SumOp>::take_delta(&mut s, true), Err(Escaped));
        // An increment that leaves `i64` is caught the same way; a reset
        // (the rerun path) starts clean.
        s.clear();
        assert!(s.merge::<MinOp>(0, i64::MIN, 1));
        assert_eq!(s.take_delta(true), vec![(0, i64::MIN)]);
        assert!(s.merge::<MaxOp>(0, 1, 2));
        assert_eq!(DenseState::<MaxOp>::take_delta(&mut s, false), Err(Escaped));
    }

    #[test]
    fn f64_total_order_matches_value_cmp() {
        let mut s: DenseAggState<f64> = DenseAggState::new(2);
        assert!(s.merge::<MinOp>(0, f64::NAN, 1));
        // total_cmp puts every number below NaN, like Value::cmp.
        assert!(s.merge::<MinOp>(0, f64::INFINITY, 1));
        assert!(s.merge::<MinOp>(0, 1.5, 1));
        assert!(!s.merge::<MinOp>(0, 1.5, 1));
        assert_eq!(s.get(0), Some(1.5));
        let mut m: DenseAggState<f64> = DenseAggState::new(1);
        assert!(m.merge::<MaxOp>(0, -0.0, 1));
        assert!(m.merge::<MaxOp>(0, 0.0, 1)); // total_cmp: +0.0 > -0.0
    }

    #[test]
    fn set_state_dedups() {
        let mut s = DenseSetState::new(3);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.insert(2));
        assert_eq!(s.take_delta(), vec![1, 2]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn combined_scan_ships_one_item_per_destination() {
        use rasql_storage::{row::int_row, CsrGraph, CsrWeight};
        // 0 → 2 (+5), 1 → 2 (−5), 0 → 3 (+1), 1 → 3 (+2): one task scans both
        // sources, so vertex 2's contributions cancel inside it.
        let rows: Vec<_> = [(0i64, 2i64, 5i64), (1, 2, -5), (0, 3, 1), (1, 3, 2)]
            .iter()
            .map(|&(s, d, w)| int_row(&[s, d, w]))
            .collect();
        let csr = CsrGraph::build(&rows, 0, 1, CsrWeight::Int { col: 2 }, [], 1).unwrap();
        let id = |v: i64| csr.dense_id(v).unwrap();
        let ws = &csr.weights_i;
        let delta = [(id(0), 0i64), (id(1), 0)];
        let mut sink = Combiner::new(csr.vertex_count());
        let scan = |sink: &mut Combiner| {
            sink.scan::<SumOp, DenseAggState<i64>>(&csr, &delta, 1, |(_, val), e, dst| {
                Ok((dst, val + ws[e]))
            })
        };
        // First-contribution order, and the cancelled sum still ships its
        // zero — exactly what `Partial::Groups` hands the interpreter.
        assert_eq!(scan(&mut sink), Ok(vec![vec![(id(2), 0), (id(3), 3)]]));
        // The slot index is clean again: a second scan sees no stale entry.
        assert_eq!(scan(&mut sink), Ok(vec![vec![(id(2), 0), (id(3), 3)]]));
        // A zero occupies a vacant slot (changed) and is a no-op on an
        // occupied one, like the interpreter's reducer.
        let mut state: DenseAggState<i64> = DenseAggState::new(csr.vertex_count());
        assert!(state.merge::<SumOp>(id(2), 0, 1));
        assert!(!state.merge::<SumOp>(id(2), 0, 2));
        // min keeps the best, max the largest, the set kernel just skips.
        let best = sink.scan::<MinOp, DenseAggState<i64>>(&csr, &delta, 1, |(_, val), e, dst| {
            Ok((dst, val + ws[e]))
        });
        assert_eq!(best, Ok(vec![vec![(id(2), -5), (id(3), 1)]]));
        let set = sink.scan::<(), DenseSetState>(&csr, &[id(0), id(1)], 1, |_, _, dst| Ok(dst));
        assert_eq!(set, Ok(vec![vec![id(2), id(3)]]));
        // A combine that leaves `i64` fails the scan, and the slot index is
        // still left clean.
        let far = [(id(0), i64::MAX - 1), (id(1), i64::MAX - 1)];
        let summed = sink
            .scan::<SumOp, DenseAggState<i64>>(&csr, &far, 1, |(_, val), _, dst| Ok((dst, val)));
        assert_eq!(summed, Err(Escaped));
        assert_eq!(scan(&mut sink), Ok(vec![vec![(id(2), 0), (id(3), 3)]]));
    }

    #[test]
    fn a_gather_merges_what_the_push_of_the_same_delta_does() {
        use rasql_storage::{row::int_row, CsrGraph, CsrWeight};
        // A self-loop, a parallel edge, a cycle and a vertex only a seed names.
        let rows: Vec<_> = [
            (0i64, 1i64, 4i64),
            (0, 1, 2),
            (1, 2, 3),
            (2, 0, 1),
            (2, 2, 0),
        ]
        .iter()
        .map(|&(s, d, w)| int_row(&[s, d, w]))
        .collect();
        let csr = CsrGraph::build(&rows, 0, 1, CsrWeight::Int { col: 2 }, [9], 2).unwrap();
        let inn = csr.in_edges().unwrap();
        let n = csr.vertex_count();
        let mut owned = vec![Vec::new(); 2];
        for v in 0..inn.vertex_count() {
            owned[csr.part_of[v] as usize].push(v as u32);
        }
        let (ws, iws) = (&csr.weights_i, &inn.weights_i);
        let snapshot = DeltaSnapshot::new(n);
        let (mut push, mut pull): (DenseAggState<i64>, DenseAggState<i64>) =
            (DenseAggState::new(n), DenseAggState::new(n));
        let seed = csr.dense_id(0).unwrap();
        push.merge::<MinOp>(seed, 0, 0);
        pull.merge::<MinOp>(seed, 0, 0);
        let mut sink = Combiner::new(n);
        for round in 1..8u32 {
            let (a, b) = (push.take_delta(true), pull.take_delta(true));
            assert_eq!(a, b, "round {round}");
            if a.is_empty() {
                break;
            }
            let out = sink.scan::<MinOp, DenseAggState<i64>>(&csr, &a, 2, |(_, x), e, dst| {
                Ok((dst, x + ws[e]))
            });
            for (v, x) in out.unwrap().into_iter().flatten() {
                push.merge::<MinOp>(v, x, round);
            }
            // Publish, then gather every partition from the round's buffer.
            snapshot.publish::<MinOp, DenseAggState<i64>>(&b, round);
            for owned in &owned {
                let gathered = snapshot.gather::<MinOp, DenseAggState<i64>>(
                    &mut pull,
                    &inn,
                    owned,
                    round,
                    round,
                    |(_, x), ie, dst| Ok((dst, x + iws[ie])),
                );
                assert!(gathered.is_ok());
            }
        }
        assert_eq!(
            push.iter().collect::<Vec<_>>(),
            pull.iter().collect::<Vec<_>>()
        );
        // A cleared snapshot offers nothing.
        snapshot.clear();
        let mut fresh: DenseAggState<i64> = DenseAggState::new(n);
        for (round, owned) in (1..).step_by(2).zip(&owned) {
            let along = |(_, x): (u32, i64), _, dst| Ok((dst, x));
            snapshot
                .gather::<MinOp, DenseAggState<i64>>(&mut fresh, &inn, owned, round, round, along)
                .unwrap();
        }
        assert!(fresh.is_empty());
    }

    #[test]
    fn a_set_gather_stops_at_the_first_and_skips_the_present() {
        use rasql_storage::{row::int_row, CsrGraph, CsrWeight};
        let rows: Vec<_> = [(0i64, 2i64), (1, 2), (2, 3), (3, 3)]
            .iter()
            .map(|&(s, d)| int_row(&[s, d]))
            .collect();
        let csr = CsrGraph::build(&rows, 0, 1, CsrWeight::None, [], 1).unwrap();
        let inn = csr.in_edges().unwrap();
        let id = |v: i64| csr.dense_id(v).unwrap();
        let all: Vec<u32> = (0..csr.vertex_count() as u32).collect();
        let snapshot = DeltaSnapshot::new(csr.vertex_count());
        let mut set = DenseSetState::new(csr.vertex_count());
        set.insert(id(0));
        set.insert(id(1));
        set.insert(id(3));
        let delta = set.take_delta();
        snapshot.publish::<(), DenseSetState>(&delta, 1);
        // One contribution per vertex: 2 is reached once although both of its
        // in-neighbours published; 3 is present already and not walked.
        let reached = std::cell::Cell::new(0);
        let along = |_, _, dst| {
            reached.set(reached.get() + 1);
            Ok(dst)
        };
        let gathered = snapshot.gather::<(), DenseSetState>(&mut set, &inn, &all, 1, 1, along);
        // It read one in-edge: the first of vertex 2's.
        assert_eq!((gathered, reached.get()), (Ok(1), 1));
        assert_eq!(set.take_delta(), vec![id(2)]);
    }

    #[test]
    fn only_an_idempotent_state_with_a_dense_frontier_pulls() {
        use rasql_storage::{row::int_row, CsrGraph, CsrWeight};
        // A star: the hub's delta walks every edge; a leaf's walks none.
        let rows: Vec<_> = (1..200i64).map(|leaf| int_row(&[0, leaf])).collect();
        let csr = CsrGraph::build(&rows, 0, 1, CsrWeight::None, [], 2).unwrap();
        let (hub, leaf) = (csr.dense_id(0).unwrap(), csr.dense_id(7).unwrap());
        let n = csr.vertex_count();
        let min: DenseAggState<i64> = DenseAggState::new(n);
        let walks = |delta: &[(u32, i64)]| out_edges::<MinOp, DenseAggState<i64>>(&csr, delta);
        assert_eq!(
            (walks(&[(hub, 0)]), walks(&[(leaf, 0)]), walks(&[])),
            (199, 0, 0)
        );
        assert!(pulls::<MinOp, DenseAggState<i64>>(&csr, &min, 199, 2));
        assert!(!pulls::<MinOp, DenseAggState<i64>>(&csr, &min, 0, 2));
        assert!(!pulls::<SumOp, DenseAggState<i64>>(&csr, &min, 199, 2));
        assert!(pulls::<(), DenseSetState>(
            &csr,
            &DenseSetState::new(n),
            199,
            2
        ));
        // A gather for a set whose vertices are all present reads only its
        // vertices: one out-edge does not outweigh them, a hundred do.
        let mut full = DenseSetState::new(n);
        for v in 0..n as u32 {
            full.insert(v);
        }
        assert!(!pulls::<(), DenseSetState>(&csr, &full, 1, 2));
        assert!(pulls::<(), DenseSetState>(&csr, &full, 100, 2));
    }

    #[test]
    fn scan_routes_by_partition() {
        use rasql_storage::{row::int_row, CsrGraph, CsrWeight};
        let rows: Vec<_> = [(0i64, 1i64, 10i64), (0, 2, 20), (1, 2, 30)]
            .iter()
            .map(|&(s, d, w)| int_row(&[s, d, w]))
            .collect();
        let csr = CsrGraph::build(&rows, 0, 1, CsrWeight::Int { col: 2 }, [], 3).unwrap();
        let v0 = csr.dense_id(0).unwrap();
        let mut out: Vec<Vec<(u32, i64)>> = vec![Vec::new(); 3];
        let w = csr.weights_i.clone();
        scan_delta(&csr, &[(v0, 100)], |val, e| val + w[e], &mut out);
        let mut pairs: Vec<(i64, i64)> = out
            .iter()
            .flatten()
            .map(|&(d, v)| (csr.orig_id(d), v))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 110), (2, 120)]);
        // Each pair landed in the partition the generic path would pick.
        for (p, bucket) in out.iter().enumerate() {
            for &(d, _) in bucket {
                assert_eq!(csr.part_of[d as usize] as usize, p);
            }
        }
    }
}
