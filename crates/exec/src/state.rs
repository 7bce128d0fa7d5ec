//! Per-partition fixpoint state: the SetRDD analog (§6.1) and the monotone
//! aggregate maps (§6.2).
//!
//! Both structures are *mutable and cached on their worker across iterations*
//! — the paper's key departure from immutable RDDs: the union of the delta
//! into the all-relation only pays for the new items, never a re-copy. Rows
//! carry the round in which they were merged, giving the old/new snapshots the
//! non-linear semi-naive expansion needs.

use rasql_storage::{FxHashMap, FxHashSet, Row, Value};

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

/// The SetRDD analog: an append-only per-partition set of rows with round
/// stamps.
#[derive(Debug, Default)]
pub struct SetState {
    rows: FxHashMap<Row, u32>,
}

impl SetState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a row at `round`; true if it is new.
    #[inline]
    pub fn insert(&mut self, row: Row, round: u32) -> bool {
        use std::collections::hash_map::Entry;
        match self.rows.entry(row) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(round);
                true
            }
        }
    }

    /// Insert an owned row at `round`; if it is new, returns the copy the
    /// delta keeps (the row itself moves into the state).
    #[inline]
    pub fn insert_cloned(&mut self, row: Row, round: u32) -> Option<Row> {
        use std::collections::hash_map::Entry;
        match self.rows.entry(row) {
            Entry::Occupied(_) => None,
            Entry::Vacant(v) => {
                let copy = v.key().clone();
                v.insert(round);
                Some(copy)
            }
        }
    }

    /// Insert a borrowed tuple at `round`; true if it is new. Only a new
    /// tuple is allocated — a duplicate costs one lookup.
    #[inline]
    pub fn insert_slice(&mut self, tuple: &[Value], round: u32) -> bool {
        let new = !self.rows.contains_key(tuple);
        if new {
            self.rows.insert(Row::from_slice(tuple), round);
        }
        new
    }

    /// Membership including the current round.
    #[inline]
    pub fn contains(&self, row: &Row) -> bool {
        self.rows.contains_key(row)
    }

    /// Membership in the snapshot *before* `round` was merged.
    #[inline]
    pub fn contained_before(&self, row: &Row, round: u32) -> bool {
        self.rows.get(row).is_some_and(|&r| r < round)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate all rows.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.keys()
    }

    /// Consume the state into its rows, in [`SetState::iter`] order: a
    /// converged fixpoint hands its rows to the result instead of copying.
    pub fn into_rows(self) -> impl Iterator<Item = Row> {
        self.rows.into_keys()
    }

    /// Iterate rows merged strictly before `round`.
    pub fn iter_before(&self, round: u32) -> impl Iterator<Item = &Row> + '_ {
        self.rows
            .iter()
            .filter(move |(_, &r)| r < round)
            .map(|(row, _)| row)
    }

    /// Iterate `(row, merge round)` pairs — the full state the checkpoint
    /// codec must capture (round watermarks drive old/new snapshots).
    pub fn iter_with_rounds(&self) -> impl Iterator<Item = (&Row, u32)> {
        self.rows.iter().map(|(row, &r)| (row, r))
    }

    /// Estimated heap footprint, for memory-budget accounting: deep row
    /// sizes plus per-entry map overhead.
    pub fn size_bytes(&self) -> u64 {
        self.rows
            .keys()
            .map(|r| r.size_bytes() as u64 + 16)
            .sum::<u64>()
    }
}

/// One aggregate group's stored state.
#[derive(Debug, Clone)]
pub struct AggEntry {
    /// Current aggregate values (one per aggregate column).
    pub values: Box<[Value]>,
    /// Values before the current round's merges (for old snapshots).
    pub prev: Box<[Value]>,
    /// Round of the last change.
    pub round: u32,
    /// Round in which the group first appeared.
    pub created: u32,
}

/// The monotone aggregate map: group key → aggregate values, with previous
/// values kept for old-snapshot reads, plus an optional contributor set for
/// distinct-tuple counting (Party Attendance-style `count()`).
#[derive(Debug, Default)]
pub struct AggState {
    groups: FxHashMap<Box<[Value]>, AggEntry>,
    /// Distinct contributing tuples (key ++ contribution) already counted.
    contributors: FxHashSet<Box<[Value]>>,
}

/// The result of merging one contribution into an [`AggState`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggMergeResult {
    /// Nothing changed; the tuple is discarded.
    Unchanged,
    /// The group changed; carries the new totals and per-column increments
    /// (increment = new total − old total for Sum; = new value for Min/Max).
    Changed {
        /// New totals after the merge.
        totals: Box<[Value]>,
        /// Per-column increments to propagate to linear sum consumers.
        increments: Box<[Value]>,
    },
}

impl AggState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Merge a contribution `(key, vals)` at `round` with per-column ops;
    /// true if the group changed (the delta must propagate). The group is
    /// looked up by the borrowed key and everything happens in place: only
    /// a group seen for the first time (and a contributor tuple counted for
    /// the first time) is allocated.
    ///
    /// `dedup_tuple` — when `Some(tuple)`, the contribution is only applied if
    /// the tuple has not contributed before (distinct-tuple counting mode).
    pub fn merge_in_place(
        &mut self,
        key: &[Value],
        vals: &[Value],
        ops: &[MonotoneOp],
        round: u32,
        dedup_tuple: Option<&[Value]>,
    ) -> bool {
        debug_assert_eq!(vals.len(), ops.len());
        if let Some(t) = dedup_tuple {
            if self.contributors.contains(t) {
                return false;
            }
            self.contributors.insert(t.into());
        }
        let Some(entry) = self.groups.get_mut(key) else {
            // First contribution: totals = the contribution itself; the
            // "previous" totals are identity values so old snapshots see
            // nothing for this group.
            let prev = ops
                .iter()
                .map(|op| match op {
                    MonotoneOp::Sum => Value::Int(0),
                    _ => Value::Null,
                })
                .collect();
            let entry = AggEntry {
                values: vals.into(),
                prev,
                round,
                created: round,
            };
            self.groups.insert(key.into(), entry);
            return true;
        };
        if entry.round < round {
            // First touch this round: snapshot previous totals.
            entry.prev.clone_from(&entry.values);
        }
        let mut changed = false;
        for ((cur, new), op) in entry.values.iter_mut().zip(vals).zip(ops) {
            changed |= op.merge(cur, new) == MergeOutcome::Improved;
        }
        if changed {
            entry.round = round;
        }
        changed
    }

    /// [`AggState::merge_in_place`] reporting what changed: the group's new
    /// totals and per-column increments. The fixpoint reads neither (it
    /// assembles one delta row per changed group after a round's merges).
    pub fn merge(
        &mut self,
        key: &[Value],
        vals: &[Value],
        ops: &[MonotoneOp],
        round: u32,
        dedup_tuple: Option<&[Value]>,
    ) -> AggMergeResult {
        // Only a sum's increment depends on the totals before the merge.
        let before: Option<Box<[Value]>> = (ops.contains(&MonotoneOp::Sum))
            .then(|| self.get(key).map(Box::from))
            .flatten();
        if !self.merge_in_place(key, vals, ops, round, dedup_tuple) {
            return AggMergeResult::Unchanged;
        }
        let totals: Box<[Value]> = self.get(key).map(Box::from).unwrap_or_default();
        let increments = match before {
            None => totals.clone(),
            Some(before) => (ops.iter().zip(totals.iter().zip(before.iter())))
                .map(|(op, (now, was))| match op {
                    MonotoneOp::Sum => now.sub(was),
                    _ => now.clone(),
                })
                .collect(),
        };
        AggMergeResult::Changed { totals, increments }
    }

    /// Current totals of a group.
    pub fn get(&self, key: &[Value]) -> Option<&[Value]> {
        self.groups.get(key).map(|e| e.values.as_ref())
    }

    /// Totals of a group as of the snapshot before `round`; `None` if the
    /// group did not exist then.
    pub fn get_before(&self, key: &[Value], round: u32) -> Option<&[Value]> {
        let e = self.groups.get(key)?;
        if e.created >= round {
            return None;
        }
        Some(if e.round < round { &e.values } else { &e.prev })
    }

    /// Iterate `(key, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &AggEntry)> {
        self.groups.iter().map(|(k, e)| (k.as_ref(), e))
    }

    /// Iterate the distinct-contributor tuples (checkpoint capture).
    pub fn contributors(&self) -> impl Iterator<Item = &[Value]> {
        self.contributors.iter().map(|t| t.as_ref())
    }

    /// Reinstall a group entry verbatim (checkpoint restore).
    pub fn insert_group(&mut self, key: Box<[Value]>, entry: AggEntry) {
        self.groups.insert(key, entry);
    }

    /// Reinstall a contributor tuple verbatim (checkpoint restore).
    pub fn insert_contributor(&mut self, tuple: Box<[Value]>) {
        self.contributors.insert(tuple);
    }

    /// Estimated heap footprint, for memory-budget accounting: deep sizes of
    /// keys, totals, previous totals, and contributor tuples plus per-entry
    /// overhead.
    pub fn size_bytes(&self) -> u64 {
        let value_bytes =
            |vs: &[Value]| vs.iter().map(Value::size_bytes).sum::<usize>() as u64 + 16;
        let groups: u64 = self
            .groups
            .iter()
            .map(|(k, e)| value_bytes(k) + value_bytes(&e.values) + value_bytes(&e.prev) + 8)
            .sum();
        let contributors: u64 = self.contributors.iter().map(|t| value_bytes(t)).sum();
        groups + contributors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn set_state_rounds() {
        let mut s = SetState::new();
        assert!(s.insert(rasql_storage::row::int_row(&[1]), 1));
        assert!(!s.insert(rasql_storage::row::int_row(&[1]), 2));
        assert!(s.insert(rasql_storage::row::int_row(&[2]), 2));
        assert_eq!(s.len(), 2);
        let r1 = rasql_storage::row::int_row(&[1]);
        let r2 = rasql_storage::row::int_row(&[2]);
        assert!(s.contained_before(&r1, 2));
        assert!(!s.contained_before(&r2, 2));
        assert_eq!(s.iter_before(2).count(), 1);
    }

    #[test]
    fn min_merge_keeps_best_and_reports_improvement() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Min];
        match st.merge(&vals(&[7]), &vals(&[10]), &ops, 1, None) {
            AggMergeResult::Changed { totals, .. } => assert_eq!(totals[0], Value::Int(10)),
            r => panic!("{r:?}"),
        }
        // Worse value discarded.
        assert_eq!(
            st.merge(&vals(&[7]), &vals(&[12]), &ops, 2, None),
            AggMergeResult::Unchanged
        );
        // Better value improves.
        match st.merge(&vals(&[7]), &vals(&[3]), &ops, 2, None) {
            AggMergeResult::Changed { totals, .. } => assert_eq!(totals[0], Value::Int(3)),
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn sum_merge_accumulates_with_increments() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        st.merge(&vals(&[1]), &vals(&[5]), &ops, 1, None);
        match st.merge(&vals(&[1]), &vals(&[3]), &ops, 2, None) {
            AggMergeResult::Changed { totals, increments } => {
                assert_eq!(totals[0], Value::Int(8));
                assert_eq!(increments[0], Value::Int(3));
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn distinct_tuple_dedup() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        let tuple = vals(&[1, 42]);
        assert!(matches!(
            st.merge(&vals(&[1]), &vals(&[1]), &ops, 1, Some(&tuple)),
            AggMergeResult::Changed { .. }
        ));
        // Same contributing tuple again: ignored.
        assert_eq!(
            st.merge(&vals(&[1]), &vals(&[1]), &ops, 2, Some(&tuple)),
            AggMergeResult::Unchanged
        );
        // New tuple counts.
        let tuple2 = vals(&[1, 43]);
        assert!(matches!(
            st.merge(&vals(&[1]), &vals(&[1]), &ops, 2, Some(&tuple2)),
            AggMergeResult::Changed { .. }
        ));
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
        match st.merge(&vals(&[1]), &vals(&[3, 9]), &ops, 2, None) {
            AggMergeResult::Changed { totals, .. } => {
                assert_eq!(totals.as_ref(), &vals(&[3, 9])[..]);
            }
            r => panic!("{r:?}"),
        }
    }
}
