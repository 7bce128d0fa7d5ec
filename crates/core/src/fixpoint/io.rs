use super::*;

// --------------------------------------------------------------------
// Map-side evaluation
// --------------------------------------------------------------------

/// Where and how a branch runs: the round's snapshots of recursive build
/// sides (one slot per compiled op of the clique, this branch's from
/// `op_base`), the partition and worker whose build sides it probes, and
/// whether operators are fused.
pub(super) struct BranchAt<'a, C: Cell> {
    pub(super) snapshots: &'a [Snapshot<C>],
    pub(super) op_base: usize,
    /// `usize::MAX`: no co-partitioned build exists (decomposed mode).
    pub(super) part: usize,
    pub(super) worker: usize,
    pub(super) fused: bool,
}

/// The two ends of a branch run: the delta tuples it consumes, and where its
/// contributions — blocks of tuples of the target view's schema shape, in
/// emission order — go. One object, because in the decomposed loop they are
/// the same state.
pub(super) trait BranchIo<C: Cell> {
    /// The input tuples, where they lie: tuples `range` of one batch. (In
    /// the decomposed loop that batch is the arena the contributions are
    /// merged into, so it is borrowed anew for every block.)
    fn input(&self) -> (&Tuples<C>, Range<usize>);
    /// Take one block of contributions.
    fn emit_block(&mut self, block: Block<'_, C>) -> Result<(), Escaped>;
}

/// A map task's branch run: a partition's delta in, a [`Partial`] out.
pub(super) struct MapIo<'a, 'v, C: Cell> {
    pub(super) delta: &'a DeltaBatch<C>,
    pub(super) mode: DeltaValueMode,
    /// The driver view's partition state, which lends a set delta.
    pub(super) state: &'a ViewState<C>,
    pub(super) partial: &'a mut Partial<'v, C>,
}

impl<C: Cell> BranchIo<C> for MapIo<'_, '_, C> {
    #[inline]
    fn input(&self) -> (&Tuples<C>, Range<usize>) {
        self.delta.tuples(self.state, self.mode)
    }

    #[inline]
    fn emit_block(&mut self, block: Block<'_, C>) -> Result<(), Escaped> {
        self.partial.push_block(block)
    }
}

/// A decomposed local round's branch run: the delta comes out of the state
/// the contributions are merged into.
pub(super) struct LocalIo<'a, 'v, C: Cell> {
    pub(super) delta: &'a DeltaBatch<C>,
    pub(super) mode: DeltaValueMode,
    pub(super) state: &'a mut ViewState<C>,
    pub(super) merge: &'a mut Merge<'v, C>,
}

impl<C: Cell> BranchIo<C> for LocalIo<'_, '_, C> {
    #[inline]
    fn input(&self) -> (&Tuples<C>, Range<usize>) {
        self.delta.tuples(self.state, self.mode)
    }

    #[inline]
    fn emit_block(&mut self, block: Block<'_, C>) -> Result<(), Escaped> {
        self.merge.push_block(self.state, block)
    }
}

/// Run all branch pipelines over one partition's deltas; returns contributions
/// bucketed per (target view, target partition).
pub(super) fn map_task<C: Repr>(
    views: &[ViewRt<C>],
    branches: &[CompiledBranch<C>],
    deltas: &[DeltaBatch<C>],
    snapshots: &[Snapshot<C>],
    part: usize,
    worker: usize,
    fused: bool,
) -> Result<Buckets<C>, Escaped> {
    let p = views[0].state.len();
    let mut buckets = empty_buckets(views, p);
    let mut op_index = 0usize;
    for b in branches {
        let at = BranchAt {
            snapshots,
            op_base: op_index,
            part,
            worker,
            fused,
        };
        op_index += b.ops.len();
        let delta = &deltas[b.driver];
        if delta.is_empty() {
            continue;
        }
        let target = &views[b.target];
        let mut partial = Partial::new(target);
        {
            let driver = views[b.driver].state[part].lock();
            let mut io = MapIo {
                delta,
                mode: b.driver_value_mode,
                state: &driver,
                partial: &mut partial,
            };
            run_branch(b, &mut io, &at)?;
        }
        for tuple in partial.finish().iter() {
            buckets[b.target][target.partition_of(tuple, p)].push(tuple);
        }
    }
    Ok(buckets)
}

/// Execute one compiled branch over `io`'s input tuples, handing every
/// block of contributions to `io`: the fused pipeline, a block of input
/// tuples at a time, unless the representation runs this branch on a path
/// of its own.
pub(super) fn run_branch<C: Repr>(
    b: &CompiledBranch<C>,
    io: &mut impl BranchIo<C>,
    at: &BranchAt<'_, C>,
) -> Result<(), Escaped> {
    if C::run_apart(b, io, at)? {
        return Ok(());
    }
    let pipeline = b.pipeline(0, at);
    let range = io.input().1;
    run_blocks(&pipeline, io, range, |io, s, block| {
        pipeline.run_block(s, io.input().0, block)
    })
}

/// The block loop of a branch run: `run` is `pipeline` over the input from
/// a block's start (it reads `io`'s own batch, borrowed anew for each
/// block, or rows the run materialized first), and each block's
/// contributions are handed to `io` before the next block is read.
pub(super) fn run_blocks<C: Cell, Io: BranchIo<C>>(
    pipeline: &Pipeline<C>,
    io: &mut Io,
    range: Range<usize>,
    mut run: impl FnMut(&Io, &mut Scratch<C>, Range<usize>) -> Result<usize, Escaped>,
) -> Result<(), Escaped> {
    let mut s = pipeline.scratch();
    let mut next = range.start;
    while next < range.end {
        next = run(io, &mut s, next..range.end)?;
        let Emitted::Block(block) = s.output() else {
            unreachable!("a branch projects to its target's shape")
        };
        io.emit_block(block)?;
    }
    Ok(())
}

/// The per-round snapshots of the recursive relations that branches use as
/// join build sides (mutual/non-linear recursion), one slot per compiled op;
/// `tuples_of(view, mode)` supplies a relation's tuples as the round sees
/// them, in the representation's own cells — a word clique's snapshot is
/// packed straight from its state tuples.
pub(super) fn snapshots<C: Repr>(
    branches: &[CompiledBranch<C>],
    mut tuples_of: impl FnMut(usize, RecAllMode) -> Tuples<C>,
) -> Result<Vec<Snapshot<C>>, Escaped> {
    let ops = branches.iter().flat_map(|b| &b.ops);
    ops.map(|op| match op {
        CompiledOp::Join(CompiledStep {
            build: BuildSide::Recursive { view, mode },
            join,
            ..
        }) => {
            let table = C::tuples_table(&tuples_of(*view, *mode), join)?;
            Ok(Some(Arc::new(table)))
        }
        _ => Ok(None),
    })
    .collect()
}

/// Merge each view's `rows` into its (empty) partitions, stamped round 0 —
/// a key that occurs more than once keeps its merged totals. A value outside
/// its column's kind escapes.
/// The warm tuples of `driver` that `build` — a seed's delta rows at the
/// branch's first join — can join, found by key in the partitions that own
/// them and in the order the whole warm relation presents them (partition
/// after partition, each in arena order), so the seed run emits what it
/// would over all of them. `None` unless the join probes exactly the
/// driver's key columns, or when a key might equal more than one cell.
pub(super) fn keyed_warm<C: Cell>(
    prog: &BranchProgram,
    driver: &ViewRt<C>,
    build: &[Row],
) -> Option<Tuples<C>> {
    let Some(BranchStep::HashJoin {
        stream_keys,
        build_keys,
        ..
    }) = prog.steps.first()
    else {
        return None;
    };
    let key_cols = &driver.spec.key_cols;
    if stream_keys.len() != key_cols.len() {
        return None;
    }
    // Per driver key column, the build column its value is read from.
    let from: Vec<usize> = (key_cols.iter())
        .map(|&k| {
            let i = stream_keys.iter().position(|e| *e == PExpr::Col(k))?;
            Some(build_keys[i])
        })
        .collect::<Option<_>>()?;
    let (n, cols) = (driver.state.len(), (0..from.len()).collect::<Vec<usize>>());
    let mut found: Vec<(usize, usize)> = Vec::new();
    let mut key = Vec::with_capacity(from.len());
    for row in build {
        key.clear();
        for (&c, &kind) in from.iter().zip(driver.key_kinds.iter()) {
            match C::key_cell(&row[c], kind).ok()? {
                Some(cell) => key.push(cell),
                None => break,
            }
        }
        if key.len() < from.len() {
            continue; // equals no warm key (a NULL, `2.5` under `Int`)
        }
        let part = partition_of(&driver.key_kinds, &key, &cols, n);
        if let Some(i) = driver.state[part].lock().find(&key) {
            found.push((part, i));
        }
    }
    found.sort_unstable();
    found.dedup();
    let mut warm = driver.batch();
    for (part, i) in found {
        driver.state[part]
            .lock()
            .push_tuple(&driver.layout, i, &mut warm);
    }
    Some(warm)
}

pub(super) fn preload<C: Cell, R: AsRef<[Row]>>(
    views: &[ViewRt<C>],
    rows: &[R],
) -> Result<(), Escaped> {
    for (v, rows) in views.iter().zip(rows) {
        let p = v.state.len();
        let mut per_part: Vec<Tuples<C>> = (0..p).map(|_| v.batch()).collect();
        for tuple in v.tuples_of(rows.as_ref())?.iter() {
            per_part[v.partition_of(tuple, p)].push(tuple);
        }
        for (cell, tuples) in v.state.iter().zip(&per_part) {
            merge_into_state(v, &mut cell.lock(), tuples, 0)?;
        }
    }
    Ok(())
}

/// A view's tuples as a semi-naive round whose delta is stamped `cutoff`
/// reads them: all of them (`New`), or the state before that delta was
/// merged (`Old`).
pub(super) fn state_tuples<C: Cell>(v: &ViewRt<C>, mode: RecAllMode, cutoff: u32) -> Tuples<C> {
    let which = match mode {
        RecAllMode::Old => Stamped::Before(cutoff),
        RecAllMode::New => Stamped::All,
    };
    let mut tuples = v.batch();
    for part in &v.state {
        part.lock().for_each(&v.layout, which, |t| tuples.push(t));
    }
    tuples
}

/// Map-side partial aggregation / dedup before the shuffle (Algorithm 5), fed
/// one block of schema-shaped tuples at a time.
pub(super) enum Partial<'a, C: Cell> {
    /// Set views — and views with a distinct-tuple column, which must be
    /// deduplicated globally at the reducer: locally we may only drop
    /// *identical* tuples (idempotent), not merge. First-occurrence order,
    /// one hash per tuple.
    Distinct { seen: TupleSet<C>, hashes: Vec<u32> },
    /// One group per key, its aggregate columns merged in place.
    Groups {
        target: &'a ViewRt<C>,
        groups: Box<AggState<C>>,
        /// The block's keys and aggregate values, gathered column by column.
        keys: Vec<C>,
        vals: Vec<C>,
    },
}

impl<'a, C: Cell> Partial<'a, C> {
    pub(super) fn new(target: &'a ViewRt<C>) -> Self {
        if target.is_set() || target.modes.contains(&CountMode::DistinctTuple) {
            Partial::Distinct {
                seen: TupleSet::new(target.kinds.clone()),
                hashes: Vec::new(),
            }
        } else {
            let [key, agg] = [&target.key_kinds, &target.agg_kinds].map(Arc::clone);
            Partial::Groups {
                target,
                groups: Box::new(AggState::with_kinds(key, agg, Vec::new().into())),
                keys: Vec::new(),
                vals: Vec::new(),
            }
        }
    }

    #[inline]
    fn push_block(&mut self, block: Block<'_, C>) -> Result<(), Escaped> {
        match self {
            Partial::Distinct { seen, hashes } => seen.intern_block(block, hashes),
            Partial::Groups {
                target,
                groups,
                keys,
                vals,
            } => {
                let keys = gather(block, &target.spec.key_cols, keys);
                let vals = gather(block, &target.agg_cols, vals);
                groups.merge_block(keys, vals, None, &target.ops, 0, None)?;
            }
        }
        Ok(())
    }

    pub(super) fn finish(self) -> Tuples<C> {
        match self {
            Partial::Distinct { seen, .. } => seen.into_tuples(),
            Partial::Groups { target, groups, .. } => {
                ViewState::Agg(groups).tuples(&target.kinds, &target.layout)
            }
        }
    }
}
