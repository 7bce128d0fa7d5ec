use super::*;

// --------------------------------------------------------------------
// Reduce-side merge
// --------------------------------------------------------------------

/// Merge schema-shaped contributions into one partition's state, a block at
/// a time; returns the delta batch (stamped `round`).
pub(super) fn merge_into_state<C: Cell>(
    v: &ViewRt<C>,
    state: &mut ViewState<C>,
    contributions: &Tuples<C>,
    round: u32,
) -> Result<DeltaBatch<C>, Escaped> {
    let mut merge = Merge::new(v, state, round);
    for start in (0..contributions.len()).step_by(BLOCK) {
        let end = contributions.len().min(start + BLOCK);
        merge.push_block(state, contributions.block(start..end))?;
    }
    merge.finish(state)
}

/// One round's merge into one partition's state, fed blocks of borrowed
/// schema-shaped tuples in emission order: a tuple is copied — into the
/// state's arena — only when the state finds it new, and nothing is
/// allocated for it.
pub(super) struct Merge<'a, C: Cell> {
    v: &'a ViewRt<C>,
    round: u32,
    /// Tuples the set state held before this merge: its delta starts here.
    start: usize,
    /// Changed groups, by index, once each (the state's round stamp says
    /// whether a group already changed this round); delta tuples are
    /// assembled after all merges so a group appears with its final totals.
    changed: Vec<usize>,
    /// Whether a column counts distinct tuples, so every contribution must
    /// first pass the state's contributor set.
    dedup: bool,
    /// A block's hashes (set views), or its keys and aggregate values
    /// (aggregate views), gathered column by column.
    hashes: Vec<u32>,
    keys: Vec<C>,
    vals: Vec<C>,
}

impl<'a, C: Cell> Merge<'a, C> {
    pub(super) fn new(v: &'a ViewRt<C>, state: &ViewState<C>, round: u32) -> Self {
        let distinct = |j: usize| {
            v.modes[j] == CountMode::DistinctTuple
                && matches!(v.funcs[j], AggFunc::Count | AggFunc::Sum)
        };
        Merge {
            v,
            round,
            start: state.len(),
            changed: Vec::new(),
            dedup: (0..v.funcs.len()).any(distinct),
            hashes: Vec::new(),
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    #[inline]
    pub(super) fn push_block(
        &mut self,
        state: &mut ViewState<C>,
        block: Block<'_, C>,
    ) -> Result<(), Escaped> {
        if block.is_empty() {
            return Ok(());
        }
        let v = self.v;
        match state {
            ViewState::Set(s) => s.insert_block(block, self.round, &mut self.hashes),
            ViewState::Agg(a) => {
                let keys = gather(block, &v.spec.key_cols, &mut self.keys);
                let width = v.agg_cols.len();
                gather(block, &v.agg_cols, &mut self.vals);
                for j in (0..width).filter(|&j| v.counts_tuples(j)) {
                    let one = C::one(v.agg_kinds[j])?;
                    for t in 0..block.len() {
                        self.vals[t * width + j] = one.clone();
                    }
                }
                let vals = Block::new(&self.vals, width, block.len());
                let dedup = self.dedup.then_some(block);
                a.merge_block(
                    keys,
                    vals,
                    dedup,
                    &v.ops,
                    self.round,
                    Some(&mut self.changed),
                )?;
            }
        }
        Ok(())
    }
    pub(super) fn finish(mut self, state: &ViewState<C>) -> Result<DeltaBatch<C>, Escaped> {
        let (v, round) = (self.v, self.round);
        let a = match state {
            ViewState::Set(s) => return Ok(DeltaBatch::Suffix(self.start..s.len())),
            ViewState::Agg(a) => a,
        };
        let mut totals = v.batch();
        let mut increments = v.increments.then(|| v.batch());
        let tuple = &mut self.keys;
        for group in self.changed {
            let g = a.group(group);
            tuple.clear();
            assemble(&v.layout, g.key, g.values, tuple);
            totals.push(tuple);
            let Some(increments) = &mut increments else {
                continue;
            };
            // What a `sum` gained this round; a group new this round — and
            // every `min`/`max` — passes its total on.
            if let Some(prev) = a.before(group, round) {
                for (j, &c) in v.agg_cols.iter().enumerate() {
                    if v.ops[j] == MonotoneOp::Sum {
                        tuple[c] = C::minus(v.agg_kinds[j], &g.values[j], &prev[j])?;
                    }
                }
            }
            increments.push(tuple);
        }
        Ok(DeltaBatch::Owned { totals, increments })
    }
}

/// Replace `out` with columns `cols` of every tuple of `block` — a column
/// gather — and lend it as a block.
#[inline]
pub(super) fn gather<'o, C: Cell>(
    block: Block<'_, C>,
    cols: &[usize],
    out: &'o mut Vec<C>,
) -> Block<'o, C> {
    out.clear();
    for tuple in block.iter() {
        out.extend(cols.iter().map(|&c| tuple[c].clone()));
    }
    Block::new(out, cols.len(), block.len())
}

/// Pending contributions regrouped for the merge tasks: `[partition][view]`
/// tuples, so each task owns what it merges.
pub(super) fn by_partition<C: Cell>(contributions: Buckets<C>, p: usize) -> Vec<Vec<Tuples<C>>> {
    let mut out: Vec<Vec<Tuples<C>>> = (0..p).map(|_| Vec::new()).collect();
    for per_view in contributions {
        for (part, tuples) in per_view.into_iter().enumerate() {
            out[part].push(tuples);
        }
    }
    out
}

/// Freshly-allocated empty contribution buckets (views × `p` partitions).
pub(super) fn empty_buckets<C: Cell>(views: &[ViewRt<C>], p: usize) -> Buckets<C> {
    (views.iter())
        .map(|v| (0..p).map(|_| v.batch()).collect())
        .collect()
}

/// The branch's co-partitioned base build side, if it has one — `(step,
/// plan, build keys)`: its first join, when that joins a base plan, the delta
/// arrives partitioned (on `partition_key`) on exactly the probe key, and the
/// view is not decomposed. Every other base build side is broadcast.
pub(super) fn co_partitioned_build<'p>(
    prog: &'p BranchProgram,
    partition_key: &[usize],
    decomposed: bool,
) -> Option<(usize, &'p LogicalPlan, &'p [usize])> {
    let first_join = prog
        .steps
        .iter()
        .enumerate()
        .find(|(_, s)| matches!(s, BranchStep::HashJoin { .. }));
    match first_join {
        Some((
            si,
            BranchStep::HashJoin {
                build: JoinBuild::Base(plan),
                stream_keys,
                build_keys,
                ..
            },
        )) if !decomposed
            && !build_keys.is_empty()
            && stream_keys_match(stream_keys, partition_key) =>
        {
            Some((si, plan, build_keys))
        }
        _ => None,
    }
}

fn stream_keys_match(stream_keys: &[PExpr], partition_key: &[usize]) -> bool {
    stream_keys.len() == partition_key.len()
        && stream_keys
            .iter()
            .zip(partition_key)
            .all(|(e, &c)| *e == PExpr::Col(c))
}
