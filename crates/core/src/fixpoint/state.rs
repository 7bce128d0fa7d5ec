use super::*;

// --------------------------------------------------------------------
// Per-view runtime state
// --------------------------------------------------------------------

/// The tuples a round's merge found new — the delta the next map consumes.
pub(super) enum DeltaBatch<C: Cell> {
    /// A set view's delta is the range of its partition's state arena that
    /// the merge appended: nothing is copied, and a consumer reads it by
    /// index (the decomposed loop appends to the arena while it reads).
    Suffix(Range<usize>),
    /// An aggregate view's delta: one schema-shaped tuple per changed group
    /// carrying its totals and, when some branch reads increments and they
    /// differ from the totals, the same tuples carrying those. Naive
    /// evaluation's whole-state "deltas" are this too.
    Owned {
        totals: Tuples<C>,
        increments: Option<Tuples<C>>,
    },
}

impl<C: Cell> DeltaBatch<C> {
    pub(super) fn len(&self) -> usize {
        match self {
            DeltaBatch::Suffix(range) => range.len(),
            DeltaBatch::Owned { totals, .. } => totals.len(),
        }
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tuples a consumer with the given value mode reads, where they
    /// lie: tuples `range` of one batch — `state`'s arena, which the delta
    /// came out of, or the delta's own.
    #[inline]
    pub(super) fn tuples<'a>(
        &'a self,
        state: &'a ViewState<C>,
        mode: DeltaValueMode,
    ) -> (&'a Tuples<C>, Range<usize>) {
        match (self, state, mode) {
            (DeltaBatch::Suffix(range), ViewState::Set(s), _) => (s.tuples(), range.clone()),
            (
                DeltaBatch::Owned {
                    increments: Some(increments),
                    ..
                },
                _,
                DeltaValueMode::Increment,
            ) => (increments, 0..increments.len()),
            (DeltaBatch::Owned { totals, .. }, ..) => (totals, 0..totals.len()),
            (DeltaBatch::Suffix(_), ViewState::Agg(_), _) => {
                unreachable!("only a set state lends its suffix")
            }
        }
    }
}

/// Per-view partitioned fixpoint state.
pub(super) enum ViewState<C: Cell> {
    Set(SetState<C>),
    Agg(Box<AggState<C>>),
}

impl<C: Cell> ViewState<C> {
    /// An empty partition state of the view's kind.
    pub(super) fn empty(v: &ViewRt<C>) -> ViewState<C> {
        if v.is_set() {
            ViewState::Set(SetState::with_kinds(v.kinds.clone()))
        } else {
            let [key, agg] = [&v.key_kinds, &v.agg_kinds].map(Arc::clone);
            ViewState::Agg(Box::new(AggState::with_kinds(key, agg, v.kinds.clone())))
        }
    }

    /// Tuples held.
    pub(super) fn len(&self) -> usize {
        match self {
            ViewState::Set(s) => s.len(),
            ViewState::Agg(a) => a.len(),
        }
    }

    /// Bytes held. O(1).
    pub(super) fn size_bytes(&self) -> u64 {
        match self {
            ViewState::Set(s) => s.size_bytes(),
            ViewState::Agg(a) => a.size_bytes(),
        }
    }

    /// This partition in the canonical checkpoint codec.
    pub(super) fn encode(&self) -> Bytes {
        match self {
            ViewState::Set(s) => encode_set_state(s),
            ViewState::Agg(a) => encode_agg_state(a),
        }
    }

    /// The state [`ViewState::encode`] wrote for a partition of `v`.
    pub(super) fn decode(v: &ViewRt<C>, data: &[u8]) -> Result<ViewState<C>, EngineError> {
        Ok(match ViewState::empty(v) {
            ViewState::Set(s) => ViewState::Set(decode_set_state(data, s)?),
            ViewState::Agg(a) => ViewState::Agg(Box::new(decode_agg_state(data, *a)?)),
        })
    }

    /// [`ViewState::tuples`], moved out of a set state.
    pub(super) fn into_tuples(self, kinds: &Arc<[C::Kind]>, layout: &[Slot]) -> Tuples<C> {
        match self {
            ViewState::Set(s) => s.into_tuples(),
            agg @ ViewState::Agg(_) => agg.tuples(kinds, layout),
        }
    }

    /// The state's tuples, schema-shaped, of a view with column `kinds` and
    /// aggregate `layout`.
    pub(super) fn tuples(&self, kinds: &Arc<[C::Kind]>, layout: &[Slot]) -> Tuples<C> {
        match self {
            ViewState::Set(s) => s.tuples().clone(),
            ViewState::Agg(a) => {
                let mut out = Tuples::with_capacity(Arc::clone(kinds), a.len());
                let mut tuple = Vec::new();
                for g in a.iter() {
                    tuple.clear();
                    assemble(layout, g.key, g.values, &mut tuple);
                    out.push(&tuple);
                }
                out
            }
        }
    }

    /// Lend the `which` tuples of the state to `f`, schema-shaped for a
    /// view with aggregate `layout`.
    pub(super) fn for_each(&self, layout: &[Slot], which: Stamped, mut f: impl FnMut(&[C])) {
        let mut tuple = Vec::new();
        let mut group = |key: &[C], aggs: &[C]| {
            tuple.clear();
            assemble(layout, key, aggs, &mut tuple);
            f(&tuple);
        };
        match (self, which) {
            (ViewState::Set(s), Stamped::All) => s.iter().for_each(f),
            (ViewState::Set(s), Stamped::Before(cutoff)) => s.iter_before(cutoff).for_each(f),
            (_, Stamped::From(round)) => self.for_each_from(layout, round, |_, t| f(t)),
            (ViewState::Agg(a), Stamped::All) => a.iter().for_each(|g| group(g.key, g.values)),
            (ViewState::Agg(a), Stamped::Before(cutoff)) => {
                for g in 0..a.len() {
                    if let Some(vals) = a.before(g, cutoff) {
                        group(a.group(g).key, vals);
                    }
                }
            }
        }
    }

    /// Append the `which` tuples of the state to `out` as schema-shaped rows
    /// of a view with column `kinds` and aggregate `layout`.
    fn extend_rows(&self, kinds: &[C::Kind], layout: &[Slot], which: Stamped, out: &mut Vec<Row>) {
        self.for_each(layout, which, |t| out.push(Row::new(values_of(kinds, t))));
    }

    /// A private copy of the state with every tuple stamped round 0.
    pub(super) fn restamped(&self) -> ViewState<C> {
        match self {
            ViewState::Set(s) => ViewState::Set(s.restamped()),
            ViewState::Agg(a) => ViewState::Agg(Box::new(a.restamped())),
        }
    }

    /// The index of the tuple whose key cells (in key-column order) are
    /// `key`: a set's whole tuple, an aggregate's group.
    pub(super) fn find(&self, key: &[C]) -> Option<usize> {
        match self {
            ViewState::Set(s) => s.find(key),
            ViewState::Agg(a) => a.find(key),
        }
    }

    /// Append tuple `i`, schema-shaped, to `out`.
    pub(super) fn push_tuple(&self, layout: &[Slot], i: usize, out: &mut Tuples<C>) {
        match self {
            ViewState::Set(s) => out.push(s.tuples().get(i)),
            ViewState::Agg(a) => {
                let (g, mut tuple) = (a.group(i), Vec::new());
                assemble(layout, g.key, g.values, &mut tuple);
                out.push(&tuple);
            }
        }
    }

    /// Lend every tuple merged at `round` or later to `f`, schema-shaped,
    /// with its index in the partition.
    fn for_each_from(&self, layout: &[Slot], round: u32, mut f: impl FnMut(usize, &[C])) {
        match self {
            ViewState::Set(s) => (s.iter_with_rounds().enumerate())
                .filter(|(_, (_, r))| *r >= round)
                .for_each(|(i, (t, _))| f(i, t)),
            ViewState::Agg(a) => {
                let mut tuple = Vec::new();
                for (i, g) in a.iter().enumerate().filter(|(_, g)| g.round >= round) {
                    tuple.clear();
                    assemble(layout, g.key, g.values, &mut tuple);
                    f(i, &tuple);
                }
            }
        }
    }
}

/// Which tuples of a partition state a read takes, by round stamp.
#[derive(Clone, Copy)]
pub(super) enum Stamped {
    All,
    /// The state as a round whose delta is stamped this saw it before the
    /// delta was merged.
    Before(u32),
    /// What was merged at this round or later — for a state resumed at round
    /// 0, every tuple the resumed run added or changed.
    From(u32),
}

/// A group of a view with aggregate `layout` as a schema-shaped tuple,
/// appended to `buf`.
#[inline]
pub(super) fn assemble<C: Cell>(layout: &[Slot], key: &[C], aggs: &[C], buf: &mut Vec<C>) {
    let cell = |slot: &Slot| match *slot {
        Slot::Key(i) => &key[i],
        Slot::Agg(j) => &aggs[j],
    };
    buf.extend(layout.iter().map(|slot| cell(slot).clone()));
}

/// Where a schema column of an aggregate view lives in its state.
#[derive(Clone, Copy)]
pub(super) enum Slot {
    Key(usize),
    Agg(usize),
}

pub(super) struct ViewRt<C: Cell> {
    pub(super) spec: ViewSpec,
    /// Column kinds, in schema order, and those of the key and of the
    /// aggregate columns.
    pub(super) kinds: Arc<[C::Kind]>,
    pub(super) key_kinds: Arc<[C::Kind]>,
    pub(super) agg_kinds: Arc<[C::Kind]>,
    /// Aggregate column positions (schema order).
    pub(super) agg_cols: Vec<usize>,
    /// Per schema column, its position among the key or aggregate columns.
    pub(super) layout: Vec<Slot>,
    /// Monotone ops per aggregate column.
    pub(super) ops: Vec<MonotoneOp>,
    /// Aggregate functions per aggregate column.
    pub(super) funcs: Vec<AggFunc>,
    /// Resolved accumulation mode per aggregate column (see
    /// [`resolve_count_modes`]).
    pub(super) modes: Vec<CountMode>,
    /// Whether a delta must carry increments beside its totals: some branch
    /// reads this view's delta as increments, and a `sum` makes them differ.
    pub(super) increments: bool,
    /// Partitioning key for this view's state (key cols, or the preserved
    /// columns in decomposed mode).
    pub(super) partition_key: Vec<usize>,
    /// Per-partition state.
    pub(super) state: Vec<RankedMutex<ViewState<C>>>,
    /// Whether this view runs decomposed.
    pub(super) decomposed: bool,
    /// Whether a partition was decoded from the checkpoint codec (a rewind,
    /// a page-in), which writes tuples in key order, not arena order.
    pub(super) reordered: AtomicBool,
}

impl<C: Cell> ViewRt<C> {
    pub(super) fn is_set(&self) -> bool {
        self.spec.aggs.is_empty()
    }

    /// Whether aggregate column `j` counts distinct contributing tuples.
    pub(super) fn counts_tuples(&self, j: usize) -> bool {
        (self.funcs[j], self.modes[j]) == (AggFunc::Count, CountMode::DistinctTuple)
    }

    pub(super) fn partition_of(&self, tuple: &[C], partitions: usize) -> usize {
        partition_of(&self.kinds, tuple, &self.partition_key, partitions)
    }

    /// An empty batch of this view's tuples.
    pub(super) fn batch(&self) -> Tuples<C> {
        Tuples::new(self.kinds.clone())
    }

    /// The batch of `rows`; a value outside its column's kind escapes.
    pub(super) fn tuples_of(&self, rows: &[Row]) -> Result<Tuples<C>, Escaped> {
        Tuples::from_rows(self.kinds.clone(), rows)
    }

    /// [`ViewRt::tuples_of`] for rows this run wrote out itself (checkpoint,
    /// spill): they are of the view's kinds.
    pub(super) fn restored(&self, rows: &[Row]) -> Result<Tuples<C>, EngineError> {
        self.tuples_of(rows).map_err(|Escaped| {
            EngineError::Other(format!(
                "view '{}': a restored tuple is not of the view's column types",
                self.spec.name
            ))
        })
    }
}

// --------------------------------------------------------------------
// Resident view state
// --------------------------------------------------------------------

/// A certified view clique's converged fixpoint state, kept resident between
/// the refreshes of its materialized view — the paper's SetRDD (§6.1) kept
/// across jobs instead of across rounds. It is immutable: a refresh lends it
/// to [`FixpointExecutor::run_resume`], which works on a private copy and
/// returns the state it converged to. A refresh that fails, is killed,
/// escapes to rows or pages out under a budget therefore leaves the lent
/// state as it was.
pub struct CliqueState {
    pub(super) views: Held,
    /// Every tuple of the state a resumed run started from kept its
    /// position (partition and arena index): no partition was decoded.
    pub(super) kept_order: bool,
}

/// The views of a resident state, in the representation its run used.
pub(super) enum Held {
    Words(Vec<ResidentView<u64>>),
    Rows(Vec<ResidentView<Value>>),
}

/// One clique view's converged partitions (partitioned on its key, as a
/// resumed run partitions them) and the shape a group's row takes.
pub(super) struct ResidentView<C: Cell> {
    kinds: Arc<[C::Kind]>,
    layout: Vec<Slot>,
    key_cols: Vec<usize>,
    pub(super) parts: Vec<ViewState<C>>,
}

impl<C: Cell> ResidentView<C> {
    /// The partitions `v` holds, taken out of it.
    pub(super) fn take(v: &ViewRt<C>) -> Self {
        let parts = v.state.iter();
        ResidentView {
            kinds: Arc::clone(&v.kinds),
            layout: v.layout.clone(),
            key_cols: v.spec.key_cols.clone(),
            parts: parts
                .map(|part| std::mem::replace(&mut *part.lock(), ViewState::empty(v)))
                .collect(),
        }
    }

    /// Tuple `t` projected on `cols`, as a row.
    fn project(&self, cols: &[usize], t: &[C]) -> Row {
        Row::new(
            cols.iter()
                .map(|&c| t[c].to_value(C::kind(&self.kinds, c)))
                .collect(),
        )
    }

    /// Every tuple projected on `cols`, as rows in the state's order:
    /// partition after partition, each in arena order.
    fn table(&self, cols: &[usize]) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.parts.iter().map(ViewState::len).sum());
        for part in &self.parts {
            part.for_each(&self.layout, Stamped::All, |t| {
                rows.push(self.project(cols, t));
            });
        }
        rows
    }

    /// What takes [`ResidentView::table`] of `before` to this view's: the
    /// tuples a resumed run changed, replaced where they stand, and those
    /// it added, at the end of their partition's range.
    fn patch(&self, before: &[usize], cols: &[usize]) -> RowPatch {
        let mut patch = RowPatch {
            ranges: Vec::with_capacity(before.len()),
            set: Vec::new(),
        };
        let mut start = 0;
        for (part, &len) in self.parts.iter().zip(before) {
            let mut added = Vec::new();
            part.for_each_from(&self.layout, 1, |i, t| {
                let row = self.project(cols, t);
                if i < len {
                    patch.set.push((start + i, row));
                } else {
                    added.push(row);
                }
            });
            patch.ranges.push((len, added));
            start += len;
        }
        patch
    }

    /// The position, in [`ResidentView::table`], of the tuple whose single
    /// key column equals `key` (`Value::eq`); `Escaped` when the key is not
    /// one column, or `key` might equal more than one cell of its lane.
    fn position(&self, key: &Value) -> Result<Option<usize>, Escaped> {
        let &[k] = &self.key_cols[..] else {
            return Err(Escaped);
        };
        let kind = C::kind(&self.kinds, k);
        let Some(cell) = C::key_cell(key, kind)? else {
            return Ok(None);
        };
        let key = std::slice::from_ref(&cell);
        let p = partition_of(&[kind], key, &[0], self.parts.len());
        let offset: usize = self.parts[..p].iter().map(ViewState::len).sum();
        Ok(self.parts[p].find(key).map(|i| offset + i))
    }

    /// The `which` tuples of every partition as rows, partition by partition.
    fn rows(&self, which: Stamped) -> Vec<Row> {
        let mut rows = match which {
            Stamped::All => Vec::with_capacity(self.parts.iter().map(ViewState::len).sum()),
            Stamped::Before(_) | Stamped::From(_) => Vec::new(),
        };
        for part in &self.parts {
            part.extend_rows(&self.kinds, &self.layout, which, &mut rows);
        }
        rows
    }

    fn size_bytes(&self) -> u64 {
        self.parts.iter().map(ViewState::size_bytes).sum()
    }
}

impl CliqueState {
    /// Per clique view, the `which` tuples as rows.
    pub(super) fn rows(&self, which: Stamped) -> Vec<Vec<Row>> {
        match &self.views {
            Held::Words(views) => views.iter().map(|v| v.rows(which)).collect(),
            Held::Rows(views) => views.iter().map(|v| v.rows(which)).collect(),
        }
    }

    /// Each clique view's converged relation, partition by partition.
    pub fn relations(&self, spec: &FixpointSpec) -> Vec<Relation> {
        let rows = self.rows(Stamped::All).into_iter();
        let views = spec.views.iter().zip(rows);
        views
            .map(|(v, rows)| Relation::new_unchecked(v.schema.clone(), rows))
            .collect()
    }

    /// Per clique view, its converged rows, sorted: the durable image, the
    /// same whatever order the tuples were merged in.
    pub fn image(&self) -> Vec<Vec<Row>> {
        let mut rows = self.rows(Stamped::All);
        rows.iter_mut().for_each(|r| r.sort_unstable());
        rows
    }

    /// Per clique view, the tuples the run that converged to this state
    /// added or changed, with their new totals — everything stamped after
    /// the round-0 state it resumed from. What a refresh journals.
    pub fn changed(&self) -> Vec<Vec<Row>> {
        self.rows(Stamped::From(1))
    }

    /// Clique view `view`'s tuples projected on `cols`, as rows in the
    /// state's order — partition after partition, each in arena order: the
    /// table of a materialized view whose final plan projects them.
    pub fn table(&self, view: usize, cols: &[usize]) -> Vec<Row> {
        match &self.views {
            Held::Words(views) => views[view].table(cols),
            Held::Rows(views) => views[view].table(cols),
        }
    }

    /// The patch that takes [`CliqueState::table`] of `before` — the state
    /// this one was resumed from — to this state's: O(changed tuples) rows
    /// built, and no other row touched. `None` when the resumed run moved
    /// tuples (it paged a partition out or rewound to a checkpoint).
    pub fn table_patch(
        &self,
        before: &CliqueState,
        view: usize,
        cols: &[usize],
    ) -> Option<RowPatch> {
        if !self.kept_order {
            return None;
        }
        let lens: Vec<usize> = match &before.views {
            Held::Words(views) => views[view].parts.iter().map(ViewState::len).collect(),
            Held::Rows(views) => views[view].parts.iter().map(ViewState::len).collect(),
        };
        Some(match &self.views {
            Held::Words(views) => views[view].patch(&lens, cols),
            Held::Rows(views) => views[view].patch(&lens, cols),
        })
    }

    /// The position, in [`CliqueState::table`] of clique view `view`, of
    /// the tuple whose key — one column — equals `key`: a hash probe of the
    /// partition that owns it, no scan.
    ///
    /// # Errors
    /// `Escaped` when the view's key is not one column, or `key` might equal
    /// more than one cell of its lane.
    pub fn position(&self, view: usize, key: &Value) -> Result<Option<usize>, Escaped> {
        match &self.views {
            Held::Words(views) => views[view].position(key),
            Held::Rows(views) => views[view].position(key),
        }
    }

    /// Bytes the partitions hold: arenas, indexes and stamps.
    pub fn size_bytes(&self) -> u64 {
        match &self.views {
            Held::Words(views) => views.iter().map(ResidentView::size_bytes).sum(),
            Held::Rows(views) => views.iter().map(ResidentView::size_bytes).sum(),
        }
    }
}

impl std::fmt::Debug for CliqueState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (tuples, views) = match &self.views {
            Held::Words(views) => ("words", views.len()),
            Held::Rows(views) => ("rows", views.len()),
        };
        f.debug_struct("CliqueState")
            .field("tuples", &tuples)
            .field("views", &views)
            .field("bytes", &self.size_bytes())
            .finish()
    }
}

/// The resolved per-column accumulation mode: `DistinctTuple` if any recursive
/// branch targeting the view counts distinct tuples for that column; branches
/// must agree (the analyzer's count-mode inference never mixes them for the
/// paper's query class — a genuine mix is rejected here).
pub(super) fn resolve_count_modes(v: &ViewSpec) -> Result<Vec<CountMode>, EngineError> {
    let n = v.aggs.len();
    let mut modes = vec![None::<CountMode>; n];
    for prog in &v.recursive {
        for (j, m) in prog.count_modes.iter().enumerate() {
            match modes[j] {
                None => modes[j] = Some(*m),
                Some(prev) if prev == *m => {}
                Some(_) => {
                    return Err(EngineError::Other(format!(
                        "view '{}' mixes increment-flow and distinct-tuple branches \
                         for aggregate column {j}; this is not supported",
                        v.name
                    )))
                }
            }
        }
    }
    Ok(modes
        .into_iter()
        .map(|m| m.unwrap_or(CountMode::SumValues))
        .collect())
}
