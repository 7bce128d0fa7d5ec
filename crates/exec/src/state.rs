//! Per-partition fixpoint state: the SetRDD analog (§6.1) and the monotone
//! aggregate maps (§6.2).
//!
//! Both structures are *mutable and cached on their worker across iterations*
//! — the paper's key departure from immutable RDDs: the union of the delta
//! into the all-relation only pays for the new items, never a re-copy. Tuples
//! carry the round in which they were merged, giving the old/new snapshots the
//! non-linear semi-naive expansion needs. Both are written once over the
//! tuple representation's [`Cell`] type (packed words or values), and both
//! take a [`Block`] of tuples per call (`insert_block`, `merge_block`): every
//! tuple of the block is hashed first (unless its index is addressed by
//! position, which needs no hash), then inserted or merged in order — the
//! same state as one insert per tuple.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::tuples::{by_arity, nth, Block, Cell, Escaped, TupleSet, Tuples};
use rasql_storage::{KeyIndex, Row, Value};
use std::sync::Arc;

/// Monotone merge operators for aggregates-in-recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonotoneOp {
    /// Keep the minimum.
    Min,
    /// Keep the maximum.
    Max,
    /// Accumulate (sum of positive contributions / continuous count).
    Sum,
}

impl MonotoneOp {
    /// Merge `new` into `cur`; returns the increment actually applied for
    /// `Sum` and whether the value improved for `Min`/`Max`.
    #[inline]
    pub fn merge(&self, cur: &mut Value, new: &Value) -> MergeOutcome {
        match self {
            MonotoneOp::Min => {
                if new < cur {
                    *cur = new.clone();
                    MergeOutcome::Improved
                } else {
                    MergeOutcome::Unchanged
                }
            }
            MonotoneOp::Max => {
                if new > cur {
                    *cur = new.clone();
                    MergeOutcome::Improved
                } else {
                    MergeOutcome::Unchanged
                }
            }
            MonotoneOp::Sum => {
                // A zero increment is no change — propagating it would keep
                // the fixpoint spinning forever.
                if matches!(new.as_f64(), Some(x) if x == 0.0) {
                    return MergeOutcome::Unchanged;
                }
                let next = cur.add(new);
                *cur = next;
                MergeOutcome::Improved
            }
        }
    }
}

/// Result of a monotone merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The stored value changed (delta must propagate).
    Improved,
    /// No change (tuple discarded, per §6.2).
    Unchanged,
}

/// The SetRDD analog (§6.1): an append-only per-partition set of tuples with
/// round stamps, stored in one arena behind an open-addressing index
/// ([`TupleSet`]) with the stamps in a parallel vector. Tuples keep their
/// insertion order, so the tuples a round appended are the arena's suffix —
/// that round's delta, with nothing copied.
#[derive(Debug)]
pub struct SetState<C: Cell = Value> {
    set: TupleSet<C>,
    rounds: Vec<u32>,
}

impl<C: Cell> Default for SetState<C> {
    fn default() -> Self {
        SetState::with_kinds(Vec::new().into())
    }
}

impl SetState<Value> {
    /// Empty state of value tuples; the first insert sets the arity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a row at `round`; true if it is new. (The row is only read —
    /// its values are copied into the arena — but the signature is the one
    /// callers that hand a row over have always used.)
    #[inline]
    #[allow(clippy::needless_pass_by_value)]
    pub fn insert(&mut self, row: Row, round: u32) -> bool {
        self.insert_slice(row.values(), round)
    }
}

impl<C: Cell> SetState<C> {
    /// Empty state of tuples with these column kinds.
    pub fn with_kinds(kinds: Arc<[C::Kind]>) -> Self {
        SetState {
            set: TupleSet::new(kinds),
            rounds: Vec::new(),
        }
    }

    /// Insert a borrowed tuple at `round`; true if it is new. One hash per
    /// call, and nothing is allocated for the tuple.
    #[inline]
    pub fn insert_slice(&mut self, tuple: &[C], round: u32) -> bool {
        let (_, new) = self.set.intern(tuple);
        if new {
            self.rounds.push(round);
        }
        new
    }

    /// [`SetState::insert_slice`] of every tuple of `block` at `round`, in
    /// order; `hashes` is a reused buffer.
    pub fn insert_block(&mut self, block: Block<'_, C>, round: u32, hashes: &mut Vec<u32>) {
        self.set.intern_block(block, hashes);
        self.rounds.resize(self.set.len(), round);
    }

    /// Membership including the current round.
    #[inline]
    pub fn contains(&self, tuple: &[C]) -> bool {
        self.set.find(tuple).is_some()
    }

    /// The insertion-order index of `tuple`, if present.
    #[inline]
    pub fn find(&self, tuple: &[C]) -> Option<usize> {
        self.set.find(tuple)
    }

    /// Membership in the snapshot *before* `round` was merged.
    #[inline]
    pub fn contained_before(&self, tuple: &[C], round: u32) -> bool {
        self.set.find(tuple).is_some_and(|i| self.rounds[i] < round)
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The tuples, in insertion order.
    pub fn tuples(&self) -> &Tuples<C> {
        self.set.tuples()
    }

    /// The tuples, in insertion order, without the index and the stamps.
    pub fn into_tuples(self) -> Tuples<C> {
        self.set.into_tuples()
    }

    /// Iterate all tuples, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[C]> + '_ {
        self.set.tuples().iter()
    }

    /// Iterate tuples merged strictly before `round`.
    pub fn iter_before(&self, round: u32) -> impl Iterator<Item = &[C]> + '_ {
        self.iter_with_rounds()
            .filter(move |&(_, r)| r < round)
            .map(|(tuple, _)| tuple)
    }

    /// Iterate `(tuple, merge round)` pairs — the full state the checkpoint
    /// codec must capture (round watermarks drive old/new snapshots).
    pub fn iter_with_rounds(&self) -> impl Iterator<Item = (&[C], u32)> + '_ {
        self.iter().zip(self.rounds.iter().copied())
    }

    /// Bytes the state really holds — arena, index and stamps — for
    /// memory-budget accounting. O(1).
    pub fn size_bytes(&self) -> u64 {
        self.set.heap_bytes() + 4 * self.rounds.len() as u64
    }

    /// The index of the tuples.
    pub fn key_index(&self) -> &KeyIndex {
        self.set.key_index()
    }

    /// A copy of the state with every tuple stamped round 0 — what a run
    /// resumed from it sees as the converged state. The arena and the index
    /// are copied flat: no tuple is hashed or decoded.
    pub fn restamped(&self) -> Self {
        SetState {
            set: self.set.clone(),
            rounds: vec![0; self.rounds.len()],
        }
    }
}

/// One aggregate group as stored.
#[derive(Debug, Clone, Copy)]
pub struct AggGroup<'a, C> {
    /// The group key.
    pub key: &'a [C],
    /// Current aggregate values (one per aggregate column).
    pub values: &'a [C],
    /// Values before the round of the last change (for old snapshots).
    pub prev: &'a [C],
    /// Round of the last change.
    pub round: u32,
    /// Round in which the group first appeared.
    pub created: u32,
}

/// What merging one contribution did to its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggChange {
    /// Nothing changed; the tuple is discarded.
    Unchanged,
    /// The group (by index) changed for the first time in this round: the
    /// caller's changed list gains it.
    First(usize),
    /// The group changed again in a round that had already changed it.
    Again,
}

/// The monotone aggregate map (§6.2): group key → aggregate values, with
/// previous values kept for old-snapshot reads, plus a contributor set for
/// distinct-tuple counting (Party Attendance-style `count()`). Keys live in a
/// [`TupleSet`]; a group is its index there, and its current values,
/// previous values and round stamps sit at that index in parallel columns.
#[derive(Debug)]
pub struct AggState<C: Cell = Value> {
    keys: TupleSet<C>,
    agg_kinds: Arc<[C::Kind]>,
    /// Aggregate columns per group; taken from the first contribution.
    width: usize,
    cur: Vec<C>,
    prev: Vec<C>,
    round: Vec<u32>,
    created: Vec<u32>,
    /// Distinct contributing tuples already counted.
    contributors: TupleSet<C>,
    /// A group's totals before the merge in progress (reused buffer).
    before: Vec<C>,
    /// The hashes of a block's keys and of its contributors (reused).
    key_hashes: Vec<u32>,
    tuple_hashes: Vec<u32>,
}

impl<C: Cell> Default for AggState<C> {
    fn default() -> Self {
        let none = || Arc::from(Vec::new());
        AggState::with_kinds(none(), none(), none())
    }
}

impl AggState<Value> {
    /// Empty state of value groups.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`AggState::merge_in_place`] on values, which cannot leave a lane;
    /// true if the group changed.
    pub fn merge(
        &mut self,
        key: &[Value],
        vals: &[Value],
        ops: &[MonotoneOp],
        round: u32,
        dedup_tuple: Option<&[Value]>,
    ) -> bool {
        let change = self.merge_in_place(key, vals, ops, round, dedup_tuple);
        change != Ok(AggChange::Unchanged)
    }
}

impl<C: Cell> AggState<C> {
    /// Empty state whose keys, aggregate columns and contributor tuples have
    /// these kinds.
    pub fn with_kinds(
        key_kinds: Arc<[C::Kind]>,
        agg_kinds: Arc<[C::Kind]>,
        contributor_kinds: Arc<[C::Kind]>,
    ) -> Self {
        AggState {
            keys: TupleSet::new(key_kinds),
            agg_kinds,
            width: 0,
            cur: Vec::new(),
            prev: Vec::new(),
            round: Vec::new(),
            created: Vec::new(),
            contributors: TupleSet::new(contributor_kinds),
            before: Vec::new(),
            key_hashes: Vec::new(),
            tuple_hashes: Vec::new(),
        }
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    #[inline]
    fn span(&self, group: usize) -> std::ops::Range<usize> {
        group * self.width..(group + 1) * self.width
    }

    /// Merge a contribution `(key, vals)` at `round` with per-column ops.
    /// The group is found with one hash of the borrowed key and everything
    /// happens in place; nothing is allocated per contribution.
    ///
    /// `dedup_tuple` — when `Some(tuple)`, the contribution is only applied if
    /// the tuple has not contributed before (distinct-tuple counting mode).
    #[inline]
    pub fn merge_in_place(
        &mut self,
        key: &[C],
        vals: &[C],
        ops: &[MonotoneOp],
        round: u32,
        dedup_tuple: Option<&[C]>,
    ) -> Result<AggChange, Escaped> {
        if let Some(t) = dedup_tuple {
            if !self.contributors.intern(t).1 {
                return Ok(AggChange::Unchanged);
            }
        }
        let (group, new) = self.keys.intern(key);
        self.settle(group, new, vals, ops, round)
    }

    /// [`AggState::merge_in_place`] of every contribution of a block, in
    /// order: contribution `i` is key `keys.get(i)` with aggregate values
    /// `vals.get(i)` and — distinct-tuple counting — contributing tuple
    /// `contributors.get(i)`. Every key and contributor is hashed first
    /// (while its index is hashed) and the key arity is looked at once. Each
    /// group whose change is its first of the round ([`AggChange::First`]) is
    /// appended to `changed`. An escape ends the block at the contribution
    /// that escaped.
    pub fn merge_block(
        &mut self,
        keys: Block<'_, C>,
        vals: Block<'_, C>,
        contributors: Option<Block<'_, C>>,
        ops: &[MonotoneOp],
        round: u32,
        changed: Option<&mut Vec<usize>>,
    ) -> Result<(), Escaped> {
        let mut key_hashes = std::mem::take(&mut self.key_hashes);
        let mut tuple_hashes = std::mem::take(&mut self.tuple_hashes);
        if let Some(tuples) = contributors {
            self.contributors.hash_block(tuples, &mut tuple_hashes);
        }
        let merged = by_arity!(keys.arity(), N => {
            self.keys.hash_run::<N>(keys, &mut key_hashes);
            self.merge_run::<N>(keys, &key_hashes, vals, contributors, &tuple_hashes, ops, round, changed)
        });
        self.key_hashes = key_hashes;
        self.tuple_hashes = tuple_hashes;
        merged
    }

    /// [`AggState::merge_block`] for keys of `N` cells (any number when `N`
    /// is 0), hashed while their index is.
    #[allow(clippy::too_many_arguments)]
    fn merge_run<const N: usize>(
        &mut self,
        keys: Block<'_, C>,
        key_hashes: &[u32],
        vals: Block<'_, C>,
        contributors: Option<Block<'_, C>>,
        tuple_hashes: &[u32],
        ops: &[MonotoneOp],
        round: u32,
        mut changed: Option<&mut Vec<usize>>,
    ) -> Result<(), Escaped> {
        for i in 0..keys.len() {
            if let Some(tuples) = contributors {
                let (tuple, hash) = (tuples.get(i), tuple_hashes.get(i).copied());
                if !self.contributors.intern_hashed::<0>(tuple, hash).1 {
                    continue;
                }
            }
            let key = nth::<C, N>(keys.cells(), keys.arity(), i);
            let (group, new) = self
                .keys
                .intern_hashed::<N>(key, key_hashes.get(i).copied());
            if let AggChange::First(group) = self.settle(group, new, vals.get(i), ops, round)? {
                if let Some(changed) = changed.as_deref_mut() {
                    changed.push(group);
                }
            }
        }
        Ok(())
    }

    /// Merge `vals` into group `group` (`new`: just interned) at `round`.
    #[inline(always)]
    fn settle(
        &mut self,
        group: usize,
        new: bool,
        vals: &[C],
        ops: &[MonotoneOp],
        round: u32,
    ) -> Result<AggChange, Escaped> {
        debug_assert_eq!(vals.len(), ops.len());
        if new {
            // First contribution: totals = the contribution itself. Nothing
            // reads a group's previous totals before a later round has
            // snapshotted them (old snapshots skip a group created at or
            // after their cutoff), so they start as a copy.
            self.width = vals.len();
            self.cur.extend_from_slice(vals);
            self.prev.extend_from_slice(vals);
            self.round.push(round);
            self.created.push(round);
            return Ok(AggChange::First(group));
        }
        // The totals as they stand, in case this merge is the group's first
        // change of the round: an old snapshot reads `prev` only for a group
        // changed at or after its cutoff, so `prev` (and the round stamp) is
        // written when the group changes — a contribution that improves
        // nothing touches the group's current totals and nothing else.
        let span = self.span(group);
        self.before.clear();
        self.before
            .extend_from_slice(&self.cur[span.start..span.end]);
        let mut changed = false;
        for (j, (cur, new)) in self.cur[span.start..span.end]
            .iter_mut()
            .zip(vals)
            .enumerate()
        {
            let kind = C::kind(&self.agg_kinds, j);
            changed |= C::merge(ops[j], kind, cur, new)? == MergeOutcome::Improved;
        }
        if !changed {
            return Ok(AggChange::Unchanged);
        }
        let first = self.round[group] < round;
        self.round[group] = round;
        if !first {
            return Ok(AggChange::Again);
        }
        self.prev[span].clone_from_slice(&self.before);
        Ok(AggChange::First(group))
    }

    /// Group `group`, by index (insertion order).
    #[inline]
    pub fn group(&self, group: usize) -> AggGroup<'_, C> {
        let span = self.span(group);
        AggGroup {
            key: self.keys.get(group),
            values: &self.cur[span.clone()],
            prev: &self.prev[span],
            round: self.round[group],
            created: self.created[group],
        }
    }

    /// The insertion-order index of the group of `key`, if present.
    #[inline]
    pub fn find(&self, key: &[C]) -> Option<usize> {
        self.keys.find(key)
    }

    /// Current totals of a group.
    pub fn get(&self, key: &[C]) -> Option<&[C]> {
        self.keys.find(key).map(|g| self.group(g).values)
    }

    /// Totals of group `group` as of the snapshot before `round`; `None` if
    /// the group did not exist then.
    #[inline]
    pub fn before(&self, group: usize, round: u32) -> Option<&[C]> {
        let g = self.group(group);
        if g.created >= round {
            return None;
        }
        Some(if g.round < round { g.values } else { g.prev })
    }

    /// [`AggState::before`] by key.
    pub fn get_before(&self, key: &[C], round: u32) -> Option<&[C]> {
        self.before(self.keys.find(key)?, round)
    }

    /// Iterate the groups, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = AggGroup<'_, C>> + '_ {
        (0..self.len()).map(|g| self.group(g))
    }

    /// Iterate the distinct-contributor tuples (checkpoint capture).
    pub fn contributors(&self) -> impl Iterator<Item = &[C]> + '_ {
        self.contributors.tuples().iter()
    }

    /// Reinstall a group verbatim (checkpoint restore).
    pub fn insert_group(&mut self, g: &AggGroup<'_, C>) {
        if self.keys.intern(g.key).1 {
            self.width = g.values.len();
            self.cur.extend_from_slice(g.values);
            self.prev.extend_from_slice(g.prev);
            self.round.push(g.round);
            self.created.push(g.created);
        }
    }

    /// Reinstall a contributor tuple verbatim (checkpoint restore).
    pub fn insert_contributor(&mut self, tuple: &[C]) {
        self.contributors.intern(tuple);
    }

    /// Column kinds of the keys, the aggregate columns and the contributor
    /// tuples — what [`AggState::with_kinds`] was given.
    pub fn kinds(&self) -> [&Arc<[C::Kind]>; 3] {
        [
            self.keys.tuples().kinds(),
            &self.agg_kinds,
            self.contributors.tuples().kinds(),
        ]
    }

    /// Bytes the state really holds — key arena and index, the value
    /// columns, the stamps and the contributor set — for memory-budget
    /// accounting. O(1).
    pub fn size_bytes(&self) -> u64 {
        let cells = (self.cur.len() + self.prev.len()) * std::mem::size_of::<C>();
        self.keys.heap_bytes()
            + cells as u64
            + 8 * self.round.len() as u64
            + self.contributors.heap_bytes()
    }

    /// The index of the group keys.
    pub fn key_index(&self) -> &KeyIndex {
        self.keys.key_index()
    }

    /// A copy of the state with every group stamped round 0 and its previous
    /// totals equal to its current ones — the state a group's first
    /// contribution at round 0 leaves. Copied flat: no key is hashed.
    pub fn restamped(&self) -> Self {
        AggState {
            keys: self.keys.clone(),
            agg_kinds: Arc::clone(&self.agg_kinds),
            width: self.width,
            cur: self.cur.clone(),
            prev: self.cur.clone(),
            round: vec![0; self.round.len()],
            created: vec![0; self.created.len()],
            contributors: self.contributors.clone(),
            before: Vec::new(),
            key_hashes: Vec::new(),
            tuple_hashes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuples::Lane;
    use rasql_storage::row::int_row;

    fn vals(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn set_state_rounds() {
        let mut s = SetState::new();
        assert!(s.insert(int_row(&[1]), 1));
        assert!(!s.insert(int_row(&[1]), 2));
        assert!(s.insert(int_row(&[2]), 2));
        assert_eq!(s.len(), 2);
        assert!(s.contained_before(&vals(&[1]), 2));
        assert!(!s.contained_before(&vals(&[2]), 2));
        assert_eq!(s.iter_before(2).count(), 1);
    }

    #[test]
    fn a_rounds_delta_is_the_arena_suffix() {
        let mut s = SetState::<u64>::with_kinds(vec![Lane::Int; 2].into());
        for t in [[1, 2], [3, 4]] {
            s.insert_slice(&t, 0);
        }
        let before = s.len();
        for t in [[3, 4], [5, 6], [1, 2], [7, 8]] {
            s.insert_slice(&t, 1);
        }
        let delta: Vec<&[u64]> = (before..s.len()).map(|i| s.tuples().get(i)).collect();
        assert_eq!(delta, [&[5, 6][..], &[7, 8]]);
        // Arena, index and stamps, without walking a tuple.
        assert_eq!(s.size_bytes(), 4 * 16 + 8 * 8 + 4 * 4);
    }

    #[test]
    fn min_merge_keeps_best_and_reports_improvement() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Min];
        assert!(st.merge(&vals(&[7]), &vals(&[10]), &ops, 1, None));
        assert_eq!(st.get(&vals(&[7])).unwrap()[0], Value::Int(10));
        // Worse value discarded.
        assert!(!st.merge(&vals(&[7]), &vals(&[12]), &ops, 2, None));
        // Better value improves.
        assert!(st.merge(&vals(&[7]), &vals(&[3]), &ops, 2, None));
        assert_eq!(st.get(&vals(&[7])).unwrap()[0], Value::Int(3));
    }

    #[test]
    fn a_group_is_reported_once_per_round_it_changes_in() {
        let mut st = AggState::<u64>::with_kinds(
            vec![Lane::Int].into(),
            vec![Lane::Int].into(),
            Vec::new().into(),
        );
        let ops = [MonotoneOp::Sum];
        let mut merge = |v: u64, round| st.merge_in_place(&[1], &[v], &ops, round, None);
        assert_eq!(merge(5, 1), Ok(AggChange::First(0)));
        assert_eq!(merge(3, 1), Ok(AggChange::Again));
        assert_eq!(merge(0, 2), Ok(AggChange::Unchanged));
        assert_eq!(merge(2, 2), Ok(AggChange::First(0)));
        // `Value::add` would promote this sum to `Double`: the lane escapes.
        assert_eq!(merge(i64::MAX as u64, 3), Err(Escaped));
        assert_eq!(st.get(&[1]), Some(&[10][..]));
        assert_eq!(st.before(0, 3), Some(&[10][..]));
        assert_eq!(st.before(0, 1), None);
    }

    /// A restamped copy is the state a preload at round 0 builds: same
    /// tuples and totals, every stamp 0, previous totals current — and the
    /// original is left as it was.
    #[test]
    fn a_restamped_copy_reads_as_preloaded_at_round_zero() {
        let mut s = SetState::<u64>::with_kinds(vec![Lane::Int].into());
        s.insert_slice(&[1], 0);
        s.insert_slice(&[2], 3);
        let copy = s.restamped();
        assert_eq!(
            copy.iter_with_rounds().collect::<Vec<_>>(),
            [(&[1][..], 0), (&[2][..], 0)]
        );
        assert!(
            !s.contained_before(&[2], 1),
            "the original keeps its stamps"
        );
        assert_eq!(copy.size_bytes(), s.size_bytes());

        let mut a = AggState::<u64>::with_kinds(
            vec![Lane::Int].into(),
            vec![Lane::Int].into(),
            Vec::new().into(),
        );
        let ops = [MonotoneOp::Min];
        a.merge_in_place(&[7], &[10], &ops, 0, None).unwrap();
        a.merge_in_place(&[7], &[4], &ops, 2, None).unwrap();
        let mut copy = a.restamped();
        let g = copy.group(0);
        assert_eq!(
            (g.values, g.prev, g.round, g.created),
            (&[4][..], &[4][..], 0, 0)
        );
        assert_eq!(
            a.before(0, 2),
            Some(&[10][..]),
            "the original keeps its history"
        );
        // Merging into the copy at round 1 reports the change as new.
        assert_eq!(
            copy.merge_in_place(&[7], &[3], &ops, 1, None),
            Ok(AggChange::First(0))
        );
        assert_eq!(copy.before(0, 1), Some(&[4][..]));
    }

    #[test]
    fn sum_merge_accumulates() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        st.merge(&vals(&[1]), &vals(&[5]), &ops, 1, None);
        assert!(st.merge(&vals(&[1]), &vals(&[3]), &ops, 2, None));
        assert_eq!(st.get(&vals(&[1])).unwrap()[0], Value::Int(8));
        // A zero increment is no change.
        assert!(!st.merge(&vals(&[1]), &vals(&[0]), &ops, 3, None));
    }

    #[test]
    fn distinct_tuple_dedup() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        let tuple = vals(&[1, 42]);
        assert!(st.merge(&vals(&[1]), &vals(&[1]), &ops, 1, Some(&tuple)));
        // Same contributing tuple again: ignored.
        assert!(!st.merge(&vals(&[1]), &vals(&[1]), &ops, 2, Some(&tuple)));
        // New tuple counts.
        let tuple2 = vals(&[1, 43]);
        assert!(st.merge(&vals(&[1]), &vals(&[1]), &ops, 2, Some(&tuple2)));
        assert_eq!(st.get(&vals(&[1])).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn old_snapshot_semantics() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        st.merge(&vals(&[1]), &vals(&[10]), &ops, 1, None);
        st.merge(&vals(&[1]), &vals(&[5]), &ops, 3, None);
        // Before round 3: total was 10.
        assert_eq!(st.get_before(&vals(&[1]), 3).unwrap()[0], Value::Int(10));
        // Group created in round 1 didn't exist before round 1.
        assert_eq!(st.get_before(&vals(&[1]), 1), None);
        // Current total.
        assert_eq!(st.get(&vals(&[1])).unwrap()[0], Value::Int(15));
    }

    #[test]
    fn multi_column_aggregates() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Min, MonotoneOp::Max];
        st.merge(&vals(&[1]), &vals(&[5, 5]), &ops, 1, None);
        assert!(st.merge(&vals(&[1]), &vals(&[3, 9]), &ops, 2, None));
        assert_eq!(st.get(&vals(&[1])).unwrap(), &vals(&[3, 9])[..]);
    }
}
