use super::*;

/// The build side of a compiled join step: tables of the representation's
/// own cells (`Cell::Table`).
pub(super) enum BuildSide<C: Cell> {
    /// Co-partitioned tables (one per partition), lent by the index store
    /// (or built for this query alone when the plan reads its views).
    Partitioned(Vec<Arc<C::Table>>),
    /// Co-partitioned cached sorted runs (sort-merge strategy, rows only).
    PartitionedSorted(Vec<Arc<SortedRun>>),
    /// One replicated table per worker (broadcast, §7.2).
    Replicated(Arc<Broadcast<C::Table>>),
    /// Snapshot of a recursive relation, rebuilt per round.
    Recursive { view: usize, mode: RecAllMode },
}

pub(super) struct CompiledStep<C: Cell> {
    pub(super) build: BuildSide<C>,
    pub(super) stream_keys: Vec<PExpr>,
    /// `stream_keys` as the pipeline's probe-key extractor.
    key: KeyFn<C>,
    /// What the join takes of its build side.
    pub(super) join: JoinShape<C>,
}

pub(super) enum CompiledOp<C: Cell> {
    Join(CompiledStep<C>),
    Filter(PredFn<C>),
}

/// One step's expressions as evaluators: a filter, or a join's probe key
/// and what it takes of its build side.
pub(super) enum StepEval<C: Cell> {
    Filter(PredFn<C>),
    Join(KeyFn<C>, JoinShape<C>),
}

/// A branch's expressions as evaluators of one representation: one per step,
/// and the final projection — the branch's key and aggregate expressions
/// evaluated straight into the target's schema shape.
pub(super) struct BranchEvals<C: Cell> {
    pub(super) steps: Vec<StepEval<C>>,
    emit: Projection<C>,
}

impl<C: Repr> BranchEvals<C> {
    /// `None` when the representation cannot type one of the expressions.
    pub(super) fn compile(prog: &BranchProgram, views: &[ViewRt<C>]) -> Option<Self> {
        let target = &views[prog.target];
        let arity = target.spec.key_cols.len() + target.agg_cols.len();
        let mut emit = vec![PExpr::Lit(Value::Null); arity];
        let keys = prog.key_exprs.iter().zip(&target.spec.key_cols);
        for (e, &c) in keys.chain(prog.agg_exprs.iter().zip(&target.agg_cols)) {
            emit[c] = e.clone();
        }
        // The columns of the combined `stream ++ build ++ …` tuple that an
        // expression reads: a join copies only those out of a matched row.
        let mut used: Vec<usize> = Vec::new();
        for step in &prog.steps {
            match step {
                BranchStep::Filter(e) => e.columns(&mut used),
                BranchStep::HashJoin { stream_keys, .. } => {
                    stream_keys.iter().for_each(|e| e.columns(&mut used));
                }
            }
        }
        emit.iter().for_each(|e| e.columns(&mut used));

        let mut input: Vec<Option<C::Kind>> =
            views[prog.driver].kinds.iter().map(|&k| Some(k)).collect();
        let mut steps = Vec::with_capacity(prog.steps.len());
        for step in &prog.steps {
            match step {
                BranchStep::Filter(e) => steps.push(StepEval::Filter(C::pred(e, &input)?)),
                BranchStep::HashJoin {
                    build,
                    stream_keys,
                    build_keys,
                    ..
                } => {
                    let (key, key_kinds) = C::key(stream_keys, &input)?;
                    let build_kinds: Vec<Option<C::Kind>> = match build {
                        JoinBuild::Base(plan) => {
                            let fields = plan.schema().fields().iter();
                            fields.map(|f| C::kind_of(f.data_type)).collect()
                        }
                        JoinBuild::RecursiveAll { view, .. } => {
                            views[*view].kinds.iter().map(|&k| Some(k)).collect()
                        }
                    };
                    let base = input.len();
                    let read: Arc<[Option<C::Kind>]> = (build_kinds.into_iter().enumerate())
                        .map(|(c, kind)| kind.filter(|_| used.contains(&(base + c))))
                        .collect();
                    input.extend(read.iter().copied());
                    let join = JoinShape {
                        keys: build_keys.clone(),
                        key_kinds,
                        read,
                    };
                    steps.push(StepEval::Join(key, join));
                }
            }
        }
        let emit = C::emit(emit, &input, &target.kinds)?;
        Some(BranchEvals { steps, emit })
    }
}

pub(super) struct CompiledBranch<C: Cell> {
    pub(super) driver: usize,
    pub(super) driver_value_mode: DeltaValueMode,
    pub(super) ops: Vec<CompiledOp<C>>,
    pub(super) target: usize,
    emit: Projection<C>,
    pub(super) uses_recursive_build: bool,
}

impl<C: Cell> CompiledBranch<C> {
    /// The branch over its evaluators, with `build(step, plan side, join)`
    /// supplying each join's build side.
    pub(super) fn new(
        prog: &BranchProgram,
        evals: BranchEvals<C>,
        mut build: impl FnMut(usize, &JoinBuild, &JoinShape<C>) -> Result<BuildSide<C>, Halt>,
    ) -> Result<Self, Halt> {
        let mut ops = Vec::with_capacity(prog.steps.len());
        let mut uses_recursive_build = false;
        for (si, (step, eval)) in prog.steps.iter().zip(evals.steps).enumerate() {
            ops.push(match (step, eval) {
                (
                    BranchStep::HashJoin {
                        build: side,
                        stream_keys,
                        ..
                    },
                    StepEval::Join(key, join),
                ) => {
                    uses_recursive_build |= matches!(side, JoinBuild::RecursiveAll { .. });
                    CompiledOp::Join(CompiledStep {
                        build: build(si, side, &join)?,
                        stream_keys: stream_keys.clone(),
                        key,
                        join,
                    })
                }
                (BranchStep::Filter(_), StepEval::Filter(keep)) => CompiledOp::Filter(keep),
                _ => unreachable!("evaluators are compiled step for step"),
            });
        }
        Ok(CompiledBranch {
            driver: prog.driver,
            driver_value_mode: prog.driver_value_mode,
            ops,
            target: prog.target,
            emit: evals.emit,
            uses_recursive_build,
        })
    }

    /// The fused pipeline of the ops from `start` on, over the build sides
    /// as partition `at.part` on worker `at.worker` sees them this round.
    pub(super) fn pipeline(&self, start: usize, at: &BranchAt<'_, C>) -> Pipeline<C> {
        let mut steps: Vec<PipelineStep<C>> = Vec::new();
        for (i, op) in self.ops.iter().enumerate().skip(start) {
            let cs = match op {
                CompiledOp::Filter(keep) => {
                    steps.push(PipelineStep::Filter(Arc::clone(keep)));
                    continue;
                }
                CompiledOp::Join(cs) => cs,
            };
            let table = match &cs.build {
                BuildSide::Partitioned(tables) => &tables[at.part],
                BuildSide::PartitionedSorted(_) => {
                    unreachable!("sorted joins are executed eagerly, on rows")
                }
                BuildSide::Replicated(bc) => bc.on_worker(at.worker),
                #[expect(
                    clippy::expect_used,
                    reason = "snapshot pass above fills every Recursive slot"
                )]
                BuildSide::Recursive { .. } => at.snapshots[at.op_base + i]
                    .as_ref()
                    .expect("snapshot built for recursive build side"),
            };
            steps.push(PipelineStep::HashJoin {
                table: Arc::clone(table),
                key: Arc::clone(&cs.key),
            });
        }
        Pipeline {
            steps,
            project: Some(self.emit.clone()),
        }
    }
}

/// Every recursive branch's evaluators, in view order; `None` when the
/// representation cannot type one of them.
pub(super) fn branch_evals<C: Repr>(
    spec: &FixpointSpec,
    views: &[ViewRt<C>],
) -> Option<Vec<BranchEvals<C>>> {
    (spec.views.iter().flat_map(|v| &v.recursive))
        .map(|prog| BranchEvals::compile(prog, views))
        .collect()
}

/// A clique's views as a resident state holds them, with the evaluators of
/// its recursive branches.
pub(super) type ResidentViews<C> = (Arc<Vec<ViewRt<C>>>, Vec<BranchEvals<C>>);

/// Contributions produced by a map task: per target view, per target
/// partition, schema-shaped tuples.
pub(super) type Buckets<C> = Vec<Vec<Tuples<C>>>;

/// A snapshot of a recursive relation used as a join build side (`None` in
/// the slots of filters and base build sides).
pub(super) type Snapshot<C> = Option<Arc<<C as Cell>::Table>>;
