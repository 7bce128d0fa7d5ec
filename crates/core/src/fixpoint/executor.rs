use super::*;

// --------------------------------------------------------------------
// The round loop's interface to a strategy
// --------------------------------------------------------------------

/// What one [`RoundStep::step`] did, as the trace and the metrics see it.
pub(super) struct Round {
    pub(super) delta_rows: u64,
    pub(super) total_rows: u64,
    pub(super) stages: u64,
    pub(super) shuffle_rows: u64,
    pub(super) shuffle_bytes: u64,
    /// The strategy's own clock for the round, where the driver's would
    /// mislead (decomposed local rounds all run inside one stage).
    pub(super) elapsed_us: Option<u64>,
    /// A kernel partition published its delta for the next round to gather
    /// instead of scanning it.
    pub(super) pull: bool,
    /// The edges a kernel round read (0 where the strategy does not count).
    pub(super) edges: u64,
    /// The round found nothing new: the fixpoint was reached the round
    /// before, and this one is not an iteration.
    pub(super) closing: bool,
}

/// Why a step or a cut did not finish.
pub(super) enum Halt {
    /// A stage was lost past its retry budget; the drain guarantee of
    /// `run_stage_traced` means no task still holds state, so
    /// [`FixpointExecutor::drive`] may rewind to the last cut and replay.
    Lost(ExecError),
    /// A decomposed local fixpoint ran past the iteration cap on its
    /// worker; [`FixpointExecutor::drive`] reports it as its own cap.
    Capped,
    /// A value left its word lane, or `i64` in a kernel: nothing of the run
    /// is kept, and the clique is evaluated again on the next representation
    /// (value cells, or the interpreter). [`FixpointExecutor::drive`]
    /// abandons its clique record and lets the escape out.
    Escaped,
    /// Anything else ends the query.
    Fatal(EngineError),
}

impl From<EngineError> for Halt {
    fn from(e: EngineError) -> Self {
        Halt::Fatal(e)
    }
}

impl From<Escaped> for Halt {
    fn from(_: Escaped) -> Self {
        Halt::Escaped
    }
}

impl From<Halt> for EngineError {
    /// The error a halt ends the query with where nothing recovers from it.
    fn from(h: Halt) -> Self {
        match h {
            Halt::Lost(e) => EngineError::Exec(e),
            Halt::Fatal(e) => e,
            // Only a step halts so, and `drive` answers both.
            Halt::Capped | Halt::Escaped => {
                EngineError::Other("a fixpoint step halted outside its round loop".into())
            }
        }
    }
}

/// A turn of the round loop. Every round method of a [`RoundStep`] takes one,
/// and its field is private to this module, so only
/// [`FixpointExecutor::drive`] can make one: no other code runs a step, cuts,
/// rewinds, pages in or settles.
pub(super) struct Turn(());

/// One evaluation strategy as [`FixpointExecutor::drive`] sees it. A strategy
/// only evaluates: what surrounds a round — cancellation, the cap, the
/// checkpoint cadence, recovery, the governor's charge, metrics, the trace —
/// is the driver's. It reaches its executor through a [`StepCx`].
pub(super) trait RoundStep {
    /// `(view names, trace mode, kernel label)` of the clique.
    fn label(&self) -> (Vec<String>, &'static str, &'static str);

    /// Evaluate round `round`. `None`: there is no such round — the fixpoint
    /// was reached in `round - 1` and nothing is left to report.
    fn step(&mut self, round: u32, _: Turn) -> Result<Option<Round>, Halt>;

    /// Save the boundary after round `round` so that [`RoundStep::rewind`]
    /// can return to it; `false` when nothing was saved. The default is for
    /// a strategy that derives everything from an immutable base: the base
    /// is its round-0 cut, and it takes no other.
    fn cut(&mut self, round: u32, _: Turn) -> Result<bool, Halt> {
        Ok(round == 0)
    }

    /// After a lost stage, put the state back to the cut taken at `to`;
    /// returns what was done, for the recovery event.
    fn rewind(&mut self, to: u32, _: Turn) -> Result<String, EngineError>;

    /// Bring back whatever [`RoundStep::settle`] paged out: the coming round
    /// (and a cut before it) needs the whole state resident.
    fn page_in(&mut self, _g: &QueryGovernor, _: Turn) -> Result<(), EngineError> {
        Ok(())
    }

    /// Charge what stays resident until the next round to the query's
    /// tracker, paging out while that leaves it over budget; returns the
    /// bytes left charged.
    fn settle(&mut self, _g: &QueryGovernor, _round: u32, _: Turn) -> Result<u64, EngineError> {
        Ok(0)
    }
}

/// The tracker's charge for the inter-round resident set, given back on
/// every way out of [`FixpointExecutor::drive`].
struct Resident<'g> {
    governor: Option<&'g QueryGovernor>,
    bytes: u64,
}

impl Drop for Resident<'_> {
    fn drop(&mut self) {
        if let Some(g) = self.governor {
            g.tracker().release(self.bytes);
        }
    }
}

/// The fixpoint executor for one clique. Its fields are private to this
/// module, which holds [`FixpointExecutor::drive`]: the other modules of the
/// operator read them through [`FixpointExecutor::eval`] and
/// [`FixpointExecutor::config`], and a strategy only through its [`StepCx`].
pub struct FixpointExecutor<'a> {
    eval: &'a EvalContext<'a>,
    config: &'a EngineConfig,
}

impl<'a> FixpointExecutor<'a> {
    /// Create an executor.
    pub fn new(eval: &'a EvalContext<'a>, config: &'a EngineConfig) -> Self {
        FixpointExecutor { eval, config }
    }

    /// The evaluation context the clique's plans run in.
    pub(super) fn eval(&self) -> &'a EvalContext<'a> {
        self.eval
    }

    /// The engine's settings.
    pub(super) fn config(&self) -> &'a EngineConfig {
        self.config
    }

    /// The handle a strategy of this executor holds.
    pub(super) fn step_cx(&self) -> StepCx<'_, 'a> {
        StepCx(self)
    }

    /// Evaluate the clique to materialized view relations.
    pub fn run(&self, spec: &FixpointSpec) -> Result<FixpointResult, EngineError> {
        // Specialized-kernel fast path (§7.3): statically selected from the
        // plan shape and the verifier's Proven-PreM verdicts; a data-level
        // mismatch (`Ok(None)`) falls through to the generic interpreter.
        if let Some(kp) = select_kernel(spec, self.config) {
            if let Some(result) = self.run_specialized(spec, &kp)? {
                return Ok(result);
            }
        }
        self.on_words_or_rows(true, |words| {
            if words {
                self.run_on::<u64>(spec)
            } else {
                self.run_on::<Value>(spec)
            }
        })
    }

    /// The interpreter's representation choice, made from the clique — never
    /// from a setting: words when every view has lanes and every branch
    /// compiles, rows otherwise, and rows again (from the immutable base,
    /// nothing of the word run kept) when a value left its lane. An
    /// evaluation is `tally`'d (`word_cliques`, `lane_escapes`); building a
    /// resident state from rows is not.
    pub(super) fn on_words_or_rows<T>(
        &self,
        tally: bool,
        mut run: impl FnMut(bool) -> Result<Option<T>, Halt>,
    ) -> Result<T, EngineError> {
        let metrics = &self.eval.cluster().metrics;
        match run(true) {
            Ok(Some(result)) => {
                if tally {
                    Metrics::add(&metrics.word_cliques, 1);
                }
                return Ok(result);
            }
            Ok(None) => {}
            Err(Halt::Escaped) => {
                if tally {
                    Metrics::add(&metrics.lane_escapes, 1);
                }
            }
            Err(h) => return Err(h.into()),
        }
        match run(false) {
            Ok(Some(result)) => Ok(result),
            Ok(None) | Err(Halt::Escaped) => Err(EngineError::Other(
                "the row representation declined a clique".into(),
            )),
            Err(h) => Err(h.into()),
        }
    }

    /// Evaluate the clique on representation `C`; `None` when `C` declines
    /// it (before anything was evaluated).
    fn run_on<C: Repr>(&self, spec: &FixpointSpec) -> Result<Option<FixpointResult>, Halt> {
        let Some(views) = self.view_runtimes::<C>(spec, self.config.decomposed_plans)? else {
            return Ok(None);
        };
        let Some(evals) = branch_evals(spec, &views) else {
            return Ok(None);
        };
        let views = Arc::new(views);
        let clique = self.compile_clique(spec, &views, evals)?;
        // The base cases: round-0 contributions.
        let base = self.base_buckets(spec, &views)?;
        let iterations = if views.iter().any(|v| v.decomposed) {
            self.drive(&mut Decomposed::new(clique, base), 0)
        } else {
            match self.config.eval_mode {
                EvalMode::SemiNaive => self.drive(&mut SemiNaive::new(clique, base), 0),
                EvalMode::Naive => self.drive(&mut Naive::new(clique, base), 0),
            }
        }?;
        self.converged(&views);
        // The state moves into the result a partition at a time — a set's
        // arena as it is — for nothing reads it after the last round.
        let views = (views.iter())
            .map(|v| {
                let parts = v.state.iter().map(|part| {
                    let state = std::mem::replace(&mut *part.lock(), ViewState::empty(v));
                    state.into_tuples(&v.kinds, &v.layout)
                });
                C::view_data(&v.spec.schema, &v.kinds, parts)
            })
            .collect();
        Ok(Some(FixpointResult { views, iterations }))
    }

    /// Compile every recursive branch of the clique, in view order
    /// (evaluating and caching the base build sides), from its evaluators
    /// ([`branch_evals`]: checked first, so a clique the representation
    /// declines has evaluated nothing).
    pub(super) fn compile_clique<'e, C: Repr>(
        &'e self,
        spec: &FixpointSpec,
        views: &Arc<Vec<ViewRt<C>>>,
        evals: Vec<BranchEvals<C>>,
    ) -> Result<Clique<'e, 'a, C>, Halt> {
        let progs = (spec.views.iter().enumerate())
            .flat_map(|(vi, v)| v.recursive.iter().map(move |p| (vi, p)));
        let mut branches: Vec<CompiledBranch<C>> = Vec::new();
        for ((vi, prog), evals) in progs.zip(evals) {
            branches.push(self.compile_branch(prog, evals, views, vi)?);
        }
        Ok(Clique {
            exec: StepCx(self),
            views: Arc::clone(views),
            branches: Arc::new(branches),
        })
    }

    /// The clique's views on representation `C` as a resident state holds
    /// them — decomposed evaluation off, so every partition is keyed on its
    /// view's key columns — with every recursive branch's evaluators; `None`
    /// when `C` declines the clique. Building a resident state
    /// ([`load_state`](Self::load_state)) and resuming from one
    /// ([`run_resume`](Self::run_resume)) both choose here, so a state is
    /// held in the representation its refreshes run on.
    pub(super) fn resident_views<C: Repr>(
        &self,
        spec: &FixpointSpec,
    ) -> Result<Option<ResidentViews<C>>, EngineError> {
        let Some(views) = self.view_runtimes::<C>(spec, false)? else {
            return Ok(None);
        };
        Ok(branch_evals(spec, &views).map(|evals| (Arc::new(views), evals)))
    }

    /// Per-view runtime state with empty partitions, or `None` when the
    /// representation cannot hold a view's columns or run the configuration.
    /// Decomposed evaluation (when `decomposable`) is selected purely on the
    /// analyzer's partition-preservation certificate (§7.2) — the proof
    /// already covers single-view-ness, linearity and key pass-through.
    fn view_runtimes<C: Repr>(
        &self,
        spec: &FixpointSpec,
        decomposable: bool,
    ) -> Result<Option<Vec<ViewRt<C>>>, EngineError> {
        if !C::runs(self.config) {
            return Ok(None);
        }
        let mut views: Vec<ViewRt<C>> = Vec::with_capacity(spec.views.len());
        for (vi, v) in spec.views.iter().enumerate() {
            let Some(kinds) = kinds_of::<C>(&v.schema) else {
                return Ok(None);
            };
            let preserved = decomposable
                .then(|| v.certificate.preserved_key())
                .flatten();
            let funcs: Vec<AggFunc> = v.aggs.iter().map(|(_, f)| *f).collect();
            let ops: Vec<MonotoneOp> = funcs
                .iter()
                .map(|f| match f {
                    AggFunc::Min => MonotoneOp::Min,
                    AggFunc::Max => MonotoneOp::Max,
                    AggFunc::Sum | AggFunc::Count => MonotoneOp::Sum,
                    AggFunc::Avg => unreachable!("rejected by the analyzer"),
                })
                .collect();
            let agg_cols: Vec<usize> = v.aggs.iter().map(|(c, _)| *c).collect();
            let mut layout = vec![Slot::Key(0); kinds.len()];
            for (i, &c) in v.key_cols.iter().enumerate() {
                layout[c] = Slot::Key(i);
            }
            for (j, &c) in agg_cols.iter().enumerate() {
                layout[c] = Slot::Agg(j);
            }
            let pick = |cols: &[usize]| cols.iter().map(|&c| kinds[c]).collect();
            let reads_increments = |p: &BranchProgram| {
                p.driver == vi && p.driver_value_mode == DeltaValueMode::Increment
            };
            let mut rt = ViewRt {
                spec: v.clone(),
                key_kinds: pick(&v.key_cols),
                agg_kinds: pick(&agg_cols),
                kinds,
                agg_cols,
                layout,
                increments: ops.contains(&MonotoneOp::Sum)
                    && (spec.views.iter()).any(|v| v.recursive.iter().any(reads_increments)),
                ops,
                funcs,
                modes: resolve_count_modes(v)?,
                partition_key: preserved.unwrap_or(&v.key_cols).to_vec(),
                state: Vec::new(),
                decomposed: preserved.is_some(),
                reordered: AtomicBool::new(false),
            };
            // A distinct-tuple `count` adds the `Int` 1 per contributor.
            let counts = (0..rt.funcs.len()).filter(|&j| rt.counts_tuples(j));
            if counts.into_iter().any(|j| C::one(rt.agg_kinds[j]).is_err()) {
                return Ok(None);
            }
            rt.state = (0..self.config.partitions)
                .map(|_| RankedMutex::new(LockRank::FixpointState, ViewState::empty(&rt)))
                .collect();
            views.push(rt);
        }
        Ok(Some(views))
    }

    /// Round-0 contributions: every view's base branches evaluated against
    /// the catalog, combined by set UNION (so deduplicated) and bucketed by
    /// the view's partitioning.
    pub(super) fn base_buckets<C: Repr>(
        &self,
        spec: &FixpointSpec,
        views: &[ViewRt<C>],
    ) -> Result<Buckets<C>, Halt> {
        let p = self.config.partitions;
        let mut buckets = empty_buckets(views, p);
        for (vi, v) in spec.views.iter().enumerate() {
            for tuple in self.eval_base(v, &views[vi])?.iter() {
                buckets[vi][views[vi].partition_of(tuple, p)].push(tuple);
            }
        }
        Ok(buckets)
    }

    /// A view's base tuples: its base branches combine by set UNION, so
    /// they are deduplicated, in first-occurrence order. The base plans'
    /// rows are only read — nothing is allocated for a tuple.
    fn eval_base<C: Repr>(&self, v: &ViewSpec, rt: &ViewRt<C>) -> Result<Tuples<C>, Halt> {
        let mut distinct = TupleSet::new(rt.kinds.clone());
        let mut tuple = Vec::new();
        for plan in &v.base {
            for row in self.eval.evaluate(plan)?.rows() {
                cells_of(&rt.kinds, row.values(), &mut tuple)?;
                distinct.intern(&tuple);
            }
        }
        Ok(distinct.into_tuples())
    }
}

/// What a [`RoundStep`] may use of its executor: it runs stages, notes and
/// counts the recovery actions it takes, and reads the settings, the
/// governor, `fused` and which worker owns a partition. The trace's clique
/// and round records, the iteration and restore counts and the cap are not
/// reachable through it: they are [`FixpointExecutor::drive`]'s.
#[derive(Clone, Copy)]
pub(super) struct StepCx<'e, 'a>(&'e FixpointExecutor<'a>);

impl<'a> StepCx<'_, 'a> {
    /// Run one traced stage of the round loop. An error means the stage is
    /// lost: the cluster has already spent the retry budget on it.
    pub(super) fn stage<R: Send + 'static>(
        &self,
        label: &str,
        kind: StageKind,
        tasks: Vec<StageTask<R>>,
    ) -> Result<Vec<R>, Halt> {
        let eval = self.0.eval;
        let run = (eval.cluster()).run_stage_traced(eval.trace(), label, kind, tasks);
        run.map_err(Halt::Lost)
    }

    /// Record a fault-tolerance or governance action on clique `stage`, if
    /// the query is traced.
    pub(super) fn note(&self, kind: RecoveryKind, stage: String, round: u32, detail: String) {
        if let Some(t) = self.0.eval.trace() {
            t.record_recovery(RecoveryEvent {
                kind,
                stage,
                round,
                detail,
            });
        }
    }

    /// Count a checkpoint of `bytes`.
    pub(super) fn count_checkpoint(&self, bytes: u64) {
        let metrics = &self.0.eval.cluster().metrics;
        Metrics::add(&metrics.checkpoints, 1);
        Metrics::add(&metrics.checkpoint_bytes, bytes);
    }

    /// Count a spill of `bytes` in `files`.
    pub(super) fn count_spill(&self, bytes: u64, files: u64) {
        let metrics = &self.0.eval.cluster().metrics;
        Metrics::add(&metrics.spilled_bytes, bytes);
        Metrics::add(&metrics.spill_files, files);
    }

    pub(super) fn config(&self) -> &'a EngineConfig {
        self.0.config
    }

    pub(super) fn governor(&self) -> Option<&'a QueryGovernor> {
        self.0.eval.governor()
    }

    pub(super) fn fused(&self) -> bool {
        self.0.eval.fused()
    }

    pub(super) fn workers(&self) -> usize {
        self.0.eval.cluster().workers()
    }

    /// The worker that owns partition `part`.
    pub(super) fn owner_of(&self, part: usize) -> usize {
        self.0.eval.cluster().owner_of(part)
    }

    /// The in-edges of a kernel's graph, from the index store
    /// ([`EvalContext::fetch_in_edges`]).
    pub(super) fn in_edges(
        &self,
        plan: &LogicalPlan,
        key_cols: &[usize],
        layout: IndexLayout,
        graph: &CsrGraph,
        at: Option<&[IndexDep]>,
    ) -> Result<Arc<InEdges>, EngineError> {
        (self.0.eval).fetch_in_edges(plan, key_cols, layout, graph, at)
    }
}

impl<'a> FixpointExecutor<'a> {
    /// A run on representation `C` converged: name its tuples in the trace
    /// and count its views' key indexes.
    pub(super) fn converged<C: Repr>(&self, views: &[ViewRt<C>]) {
        if let Some(t) = self.eval.trace() {
            t.set_tuples(C::TUPLES);
        }
        for part in views.iter().flat_map(|v| v.state.iter()) {
            self.tally_keys([match &*part.lock() {
                ViewState::Set(s) => s.key_index(),
                ViewState::Agg(a) => a.key_index(),
            }]);
        }
    }

    /// Count the key indexes laid out by position, and their re-layouts.
    fn tally_keys<'k>(&self, indexes: impl IntoIterator<Item = &'k KeyIndex>) {
        let metrics = &self.eval.cluster().metrics;
        for index in indexes {
            if index.by_position() {
                Metrics::add(&metrics.keys_by_position, 1);
            }
            Metrics::add(&metrics.key_relayouts, u64::from(index.relayouts()));
        }
    }

    /// Fetch every index a delta-seeded resume of `spec` will ask the store
    /// for, so the first refresh of a view finds its build sides built and
    /// only advances them: the packed one a resume on words asks for, or —
    /// when words are declined or a build row escapes them — the row one.
    /// The row index is also what a `WHERE col = literal` lookup of the same
    /// plan probes; beside a packed one it is asked for as a lookup asks, so
    /// the first such lookup builds it instead of scanning first.
    pub fn warm_indexes(&self, spec: &FixpointSpec) -> Result<(), EngineError> {
        if self.config.join == JoinStrategy::SortMerge {
            return Ok(());
        }
        // Like `run_resume`: decomposed evaluation off, so the state is
        // partitioned on the key columns.
        let words = self.resident_views::<u64>(spec)?;
        let progs = (spec.views.iter()).flat_map(|v| v.recursive.iter().map(move |p| (v, p)));
        for (b, (v, prog)) in progs.enumerate() {
            let Some((si, plan, build_keys)) = co_partitioned_build(prog, &v.key_cols, false)
            else {
                continue;
            };
            let packed = match words.as_ref().map(|(_, e)| &e[b].steps[si]) {
                Some(StepEval::Join(_, join)) => match self.co_partitioned_index::<u64>(plan, join)
                {
                    Ok(_) => true,
                    Err(Halt::Escaped) => false,
                    Err(h) => return Err(h.into()),
                },
                _ => false,
            };
            let layout = IndexLayout::Hash {
                partitions: self.config.partitions,
            };
            self.eval.fetch_index(plan, build_keys, layout, !packed)?;
        }
        Ok(())
    }

    /// The store's index of `plan` for a join of this shape, one table per
    /// partition; a packed one a build row escapes is an escape.
    fn co_partitioned_index<C: Repr>(
        &self,
        plan: &LogicalPlan,
        join: &JoinShape<C>,
    ) -> Result<Vec<Arc<C::Table>>, Halt> {
        let layout = C::layout(self.config.partitions, join);
        let Some(index) = self.eval.fetch_index(plan, &join.keys, layout, true)? else {
            return Err(Halt::Escaped);
        };
        let parts = C::parts(index).ok_or_else(|| {
            Halt::Fatal(EngineError::Other(
                "index store answered a fetch with another layout".into(),
            ))
        })?;
        self.tally_keys(parts.iter().filter_map(|t| t.key_index()));
        Ok(parts)
    }

    // ----------------------------------------------------------------
    // Branch compilation
    // ----------------------------------------------------------------

    fn compile_branch<C: Repr>(
        &self,
        prog: &BranchProgram,
        evals: BranchEvals<C>,
        views: &[ViewRt<C>],
        owner: usize,
    ) -> Result<CompiledBranch<C>, Halt> {
        let p = self.config.partitions;
        let driver = &views[owner];
        let co_partitioned =
            co_partitioned_build(prog, &driver.partition_key, driver.decomposed).map(|(si, ..)| si);
        CompiledBranch::new(prog, evals, |si, build, join| {
            Ok(match build {
                JoinBuild::RecursiveAll { view, mode, .. } => BuildSide::Recursive {
                    view: *view,
                    mode: *mode,
                },
                JoinBuild::Base(plan) if co_partitioned == Some(si) => {
                    if self.config.join == JoinStrategy::SortMerge {
                        let rows = self.eval.evaluate(plan)?.into_rows();
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "sorted runs are built per query: the store keeps the hash, packed and CSR layouts"
                        )]
                        let parts = rasql_storage::partition_rows(rows, &join.keys, p);
                        BuildSide::PartitionedSorted(
                            parts
                                .into_iter()
                                .map(|rows| Arc::new(SortedRun::build(rows, &join.keys)))
                                .collect(),
                        )
                    } else {
                        BuildSide::Partitioned(self.co_partitioned_index(plan, join)?)
                    }
                }
                JoinBuild::Base(plan) => {
                    let rel = self.eval.evaluate(plan)?;
                    // Broadcast build (§7.2): compressed payload +
                    // per-worker build, or ship the prebuilt table.
                    let governor = self.eval.governor();
                    let bc = if self.config.broadcast_compression {
                        let compressed =
                            Arc::new(CompressedRelation::compress(rel.schema(), rel.rows()));
                        let payload = compressed.size_bytes();
                        let join = join.clone();
                        Broadcast::try_distribute_traced(
                            self.eval.cluster(),
                            None,
                            payload,
                            move |_w| C::payload_table(&compressed, &join),
                            governor,
                        )
                    } else {
                        let master = Arc::new(C::rows_table(rel.rows(), join)?);
                        let payload = master.size_bytes();
                        Broadcast::try_distribute_traced(
                            self.eval.cluster(),
                            None,
                            payload,
                            move |_w| Ok(master.as_ref().clone()),
                            governor,
                        )
                    };
                    BuildSide::Replicated(Arc::new(bc.map_err(EngineError::from)??))
                }
            })
        })
    }

    // ----------------------------------------------------------------
    // The round loop
    // ----------------------------------------------------------------

    /// The round loop — the only one, and the only caller of a [`RoundStep`]'s
    /// round methods (it alone makes a [`Turn`]). Everything that is not
    /// evaluation is written here, once: the trace's clique bracket, the boundary
    /// cancellation check, the governor's inter-round charge, the checkpoint
    /// cadence, recovery from a lost stage, the iteration cap, the iteration
    /// and shuffle metrics and the per-round trace record. Returns the
    /// iterations until the fixpoint; halts only with [`Halt::Escaped`] (the
    /// clique record abandoned) or [`Halt::Fatal`].
    ///
    /// `start_round` is 0 for a run from the base case (stamped 0); a
    /// delta-seeded resume passes 1 so the warm state (stamped 0) stays
    /// distinct from the seeded contributions (merged at stamp 1).
    ///
    /// The cap: a fixpoint of `k` iterations succeeds iff `k <=
    /// max_iterations`. A closing round derives nothing and is not counted,
    /// so round `max_iterations + 1` may run — and fails the query only if
    /// it is not the closing one.
    pub(super) fn drive(&self, s: &mut dyn RoundStep, start_round: u32) -> Result<u32, Halt> {
        let sink = self.eval.trace();
        let metrics = &self.eval.cluster().metrics;
        let (views, mode, kernel) = s.label();
        let clique = views.join(",");
        if let Some(t) = sink {
            t.begin_clique(views.clone(), mode, kernel);
        }
        let mut resident = Resident {
            governor: self.eval.governor(),
            bytes: 0,
        };
        // Cuts are taken at round boundaries — round 0 (the base delta) and
        // every `checkpoint_interval` rounds after — and a lost stage rewinds
        // to the last one. The restore budget refills whenever a newer cut is
        // saved (forward progress); a replay that comes back to the boundary
        // it was rewound to neither re-saves it nor refills the budget.
        let ckpt_every = self.config.checkpoint_interval;
        let mut last_cut: Option<u32> = None;
        let mut restores_left = RESTORE_BUDGET;
        let mut round = start_round;
        let capped = || {
            Halt::Fatal(EngineError::NonTermination {
                view: views[0].clone(),
                iterations: self.config.max_iterations,
            })
        };
        let iterations = loop {
            if let Some(g) = resident.governor {
                // Cooperative cancellation and the deadline, at every round
                // boundary.
                g.check().map_err(EngineError::from)?;
                s.page_in(g, Turn(()))?;
                // The stages take ownership of the resident set now.
                g.tracker().release(std::mem::take(&mut resident.bytes));
            }
            let due = ckpt_every > 0 && round.is_multiple_of(ckpt_every) && last_cut != Some(round);
            let cut = if due {
                s.cut(round, Turn(()))
            } else {
                Ok(false)
            };
            let stepped = cut.and_then(|saved| {
                if saved {
                    last_cut = Some(round);
                    restores_left = RESTORE_BUDGET;
                }
                round += 1;
                let t0 = Instant::now();
                Ok((s.step(round, Turn(()))?, t0))
            });
            let (r, t0) = match stepped {
                Ok((Some(r), t0)) => (r, t0),
                Ok((None, _)) => break round - 1,
                Err(Halt::Escaped) => {
                    if let Some(t) = sink {
                        t.abandon_clique();
                    }
                    return Err(Halt::Escaped);
                }
                Err(Halt::Capped) => return Err(capped()),
                Err(Halt::Lost(e)) => {
                    let (Some(at), 1..) = (last_cut, restores_left) else {
                        return Err(Halt::Fatal(EngineError::Exec(e)));
                    };
                    restores_left -= 1;
                    let done = s.rewind(at, Turn(()))?;
                    Metrics::add(&metrics.restores, 1);
                    let detail = format!("{done} after: {e}");
                    StepCx(self).note(RecoveryKind::Restore, clique.clone(), at, detail);
                    round = at;
                    continue;
                }
                Err(fatal) => return Err(fatal),
            };
            Metrics::add(&metrics.iterations, 1);
            Metrics::add(&metrics.shuffle_rows, r.shuffle_rows);
            Metrics::add(&metrics.shuffle_bytes, r.shuffle_bytes);
            if let Some(t) = sink {
                t.record_iteration(IterationTrace {
                    round,
                    delta_rows: r.delta_rows,
                    total_rows: r.total_rows,
                    stages: r.stages,
                    shuffle_rows: r.shuffle_rows,
                    shuffle_bytes: r.shuffle_bytes,
                    elapsed_us: r
                        .elapsed_us
                        .unwrap_or_else(|| t0.elapsed().as_micros() as u64),
                    pull: r.pull,
                    edges: r.edges,
                });
            }
            if r.closing {
                break round - 1;
            }
            if round > self.config.max_iterations {
                return Err(capped());
            }
            if let Some(g) = resident.governor {
                resident.bytes = s.settle(g, round, Turn(()))?;
            }
        };
        if let Some(t) = sink {
            t.end_clique(iterations);
        }
        Ok(iterations)
    }
}
