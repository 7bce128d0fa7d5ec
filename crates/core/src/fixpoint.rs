//! The fixpoint operator: distributed semi-naive evaluation with
//! aggregates-in-recursion (paper §6, §7).
//!
//! One executor evaluates one recursive clique. The loop structure follows
//! Algorithm 4/5 (separate Map and Reduce stages per iteration) or the
//! optimized Algorithm 6 (one combined ShuffleMap stage per iteration) per
//! `EngineConfig::stage_combination`; decomposable views (§7.2) instead run
//! per-partition local fixpoints against broadcast base relations with *zero*
//! per-iteration global stages.
//!
//! Round bookkeeping: contributions merged at the end of round *r* are
//! stamped *r* and form the delta consumed by the next round; base-case
//! results are stamped 0 and form the first delta. During a round with delta
//! stamp *c*, the *old* snapshot of a relation (needed by the non-linear
//! semi-naive term expansion) is "state before stamp *c* was merged".

use crate::config::{EngineConfig, EvalMode, JoinStrategy};
use crate::error::EngineError;
use crate::eval::EvalContext;
use crate::kernel::{select_kernel, KernelEdgeFn, KernelOp, KernelPlan, KernelScalar};
use rasql_exec::checkpoint::{
    decode_agg_state, decode_rows, decode_set_state, encode_agg_state, encode_rows,
    encode_set_state, Bytes, CheckpointStore,
};
use rasql_exec::join::SortedRun;
use rasql_exec::pipeline::{KeyFn, MapFn, PredFn};
use rasql_exec::state::{AggState, MonotoneOp};
use rasql_exec::{
    merge_join, run_unfused, Broadcast, Cluster, Combiner, DenseAggState, DenseSetState,
    DenseState, ExecError, HashTable, IterationTrace, KernelValue, MaxOp, MergeOp, Metrics, MinOp,
    Pipeline, PipelineStep, QueryGovernor, RecoveryEvent, RecoveryKind, SetState, StageKind,
    StageTask, SumOp, TraceSink,
};
use rasql_parser::ast::AggFunc;
use rasql_plan::{
    BranchProgram, BranchStep, CountMode, DeltaValueMode, FixpointSpec, JoinBuild, LogicalPlan,
    PExpr, RecAllMode, ViewSpec,
};
use rasql_storage::codec::CompressedRelation;
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::{
    partition::row_partition, CsrGraph, FxHashMap, FxHashSet, Index, IndexLayout, Relation, Row,
    Value,
};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Per-partition local-fixpoint history: one `(delta rows consumed, state
/// rows after merge, wall-clock µs)` triple per local round (`Err` marks a
/// task that gave up).
type RoundHistory = Result<Vec<(u64, u64, u64)>, LocalAbort>;

/// Why a decomposed local fixpoint gave up mid-stage. Local rounds run
/// entirely inside one cluster stage, so both conditions are detected on the
/// worker and reported back for the driver to turn into a typed error.
#[derive(Clone, Copy)]
enum LocalAbort {
    /// Local rounds exceeded the iteration cap.
    NonTermination,
    /// The query's cancellation token fired (kill or deadline).
    Cancelled,
}

/// How many times the fixpoint may restore from the *same* checkpoint before
/// giving up. The budget refills whenever a newer checkpoint is captured
/// (forward progress), so this only bounds repeated failures of one round —
/// a livelock guard, not a global retry cap.
const RESTORE_BUDGET: u32 = 8;

/// Result of evaluating a clique.
pub struct FixpointResult {
    /// Materialized view contents, in clique view order.
    pub views: Vec<Relation>,
    /// Iterations until the fixpoint (max over partitions for decomposed
    /// evaluation).
    pub iterations: u32,
}

/// A delta batch: schema-shaped rows (aggregate columns hold *totals*) plus a
/// parallel vector of per-row increments for the aggregate columns.
#[derive(Clone, Default)]
struct DeltaBatch {
    rows: Vec<Row>,
    increments: Vec<Box<[Value]>>,
}

impl DeltaBatch {
    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows as seen by a consumer with the given value mode: the delta's own
    /// rows for totals, substituted copies for increments.
    fn reader_rows(&self, mode: DeltaValueMode, agg_cols: &[usize]) -> Cow<'_, [Row]> {
        match mode {
            DeltaValueMode::Total => Cow::Borrowed(&self.rows),
            DeltaValueMode::Increment => self
                .rows
                .iter()
                .zip(&self.increments)
                .map(|(r, inc)| {
                    let mut vals = r.values().to_vec();
                    for (j, &c) in agg_cols.iter().enumerate() {
                        vals[c] = inc[j].clone();
                    }
                    Row::new(vals)
                })
                .collect(),
        }
    }
}

/// Per-view partitioned fixpoint state.
enum ViewState {
    Set(SetState),
    Agg(AggState),
}

struct ViewRt {
    spec: ViewSpec,
    /// Aggregate column positions (schema order).
    agg_cols: Vec<usize>,
    /// Monotone ops per aggregate column.
    ops: Vec<MonotoneOp>,
    /// Aggregate functions per aggregate column.
    funcs: Vec<AggFunc>,
    /// Resolved accumulation mode per aggregate column (see
    /// [`resolve_count_modes`]).
    modes: Vec<CountMode>,
    /// Partitioning key for this view's state (key cols, or the preserved
    /// columns in decomposed mode).
    partition_key: Vec<usize>,
    /// Per-partition state.
    state: Vec<RankedMutex<ViewState>>,
    /// Whether this view runs decomposed.
    decomposed: bool,
}

impl ViewRt {
    fn is_set(&self) -> bool {
        self.spec.aggs.is_empty()
    }

    fn partition_of(&self, row: &Row, partitions: usize) -> usize {
        row_partition(row, &self.partition_key, partitions)
    }
}

/// The resolved per-column accumulation mode: `DistinctTuple` if any recursive
/// branch targeting the view counts distinct tuples for that column; branches
/// must agree (the analyzer's count-mode inference never mixes them for the
/// paper's query class — a genuine mix is rejected here).
fn resolve_count_modes(v: &ViewSpec) -> Result<Vec<CountMode>, EngineError> {
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

/// The build side of a compiled join step.
enum BuildSide {
    /// Co-partitioned hash tables (one per partition), lent by the index
    /// store (or built for this query alone when the plan reads its views).
    Partitioned(Vec<Arc<HashTable>>),
    /// Co-partitioned cached sorted runs (sort-merge strategy).
    PartitionedSorted(Vec<Arc<SortedRun>>),
    /// One replicated table per worker (broadcast, §7.2).
    Replicated(Arc<Broadcast<HashTable>>),
    /// Snapshot of a recursive relation, rebuilt per round.
    Recursive { view: usize, mode: RecAllMode },
}

struct CompiledStep {
    build: BuildSide,
    stream_keys: Vec<PExpr>,
    /// `stream_keys` as the pipeline's probe-key extractor.
    key: KeyFn,
    build_keys: Vec<usize>,
}

enum CompiledOp {
    Join(CompiledStep),
    Filter(PredFn),
}

impl CompiledOp {
    fn filter(e: &PExpr) -> CompiledOp {
        let e = e.clone();
        CompiledOp::Filter(Arc::new(move |t: &[Value]| e.eval_vals(t).is_truthy()))
    }

    fn join(build: BuildSide, stream_keys: &[PExpr], build_keys: &[usize]) -> CompiledOp {
        let keys = stream_keys.to_vec();
        CompiledOp::Join(CompiledStep {
            build,
            stream_keys: stream_keys.to_vec(),
            key: Arc::new(move |t: &[Value], k: &mut Vec<Value>| {
                k.extend(keys.iter().map(|e| e.eval_vals(t)));
            }),
            build_keys: build_keys.to_vec(),
        })
    }
}

struct CompiledBranch {
    driver: usize,
    driver_value_mode: DeltaValueMode,
    ops: Vec<CompiledOp>,
    target: usize,
    /// The pipeline's final projection: the branch's key and aggregate
    /// expressions evaluated straight into the target's schema shape.
    emit: MapFn,
    uses_recursive_build: bool,
}

impl CompiledBranch {
    fn new(
        prog: &BranchProgram,
        target: &ViewRt,
        ops: Vec<CompiledOp>,
        uses_recursive_build: bool,
    ) -> Self {
        let arity = target.spec.key_cols.len() + target.agg_cols.len();
        let mut exprs = vec![PExpr::Lit(Value::Null); arity];
        let keys = prog.key_exprs.iter().zip(&target.spec.key_cols);
        for (e, &c) in keys.chain(prog.agg_exprs.iter().zip(&target.agg_cols)) {
            exprs[c] = e.clone();
        }
        CompiledBranch {
            driver: prog.driver,
            driver_value_mode: prog.driver_value_mode,
            ops,
            target: prog.target,
            emit: Arc::new(move |t: &[Value], out: &mut Vec<Value>| {
                out.extend(exprs.iter().map(|e| e.eval_vals(t)));
            }),
            uses_recursive_build,
        }
    }
}

/// Contributions produced by a map task: per target view, per target
/// partition, schema-shaped rows.
type Buckets = Vec<Vec<Vec<Row>>>;

/// Per-op recursive-relation snapshots of a seed branch (`None` for
/// filters and base build sides).
type SeedSnapshots = Vec<Option<Arc<HashTable>>>;

/// The fixpoint executor for one clique.
pub struct FixpointExecutor<'a> {
    eval: &'a EvalContext<'a>,
    config: &'a EngineConfig,
    cluster: &'a Cluster,
}

impl<'a> FixpointExecutor<'a> {
    /// Create an executor.
    pub fn new(eval: &'a EvalContext<'a>, config: &'a EngineConfig) -> Self {
        FixpointExecutor {
            eval,
            config,
            cluster: eval.cluster,
        }
    }

    /// Cooperative cancellation/deadline check, called at every fixpoint
    /// round boundary (and before launching long-running stages).
    fn check_cancel(&self) -> Result<(), EngineError> {
        if let Some(g) = self.eval.governor {
            g.check()?;
        }
        Ok(())
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
        let views = Arc::new(self.view_runtimes(spec, self.config.decomposed_plans)?);

        // --- Compile branch programs (evaluate & cache base build sides). ---
        let mut branches: Vec<CompiledBranch> = Vec::new();
        for (vi, v) in spec.views.iter().enumerate() {
            for prog in &v.recursive {
                branches.push(self.compile_branch(prog, &views, vi)?);
            }
        }
        let branches = Arc::new(branches);

        // --- Evaluate base cases (round-0 contributions). ---
        let base_buckets = self.base_buckets(spec, &views)?;

        let iterations = if views.iter().any(|v| v.decomposed) {
            self.run_decomposed(&views, &branches, base_buckets)?
        } else {
            match self.config.eval_mode {
                EvalMode::SemiNaive => self.run_semi_naive(&views, &branches, base_buckets, 0)?,
                EvalMode::Naive => self.run_naive(&views, &branches, &base_buckets)?,
            }
        };
        Ok(self.finish(&views, iterations))
    }

    /// Per-view runtime state with empty partitions. Decomposed evaluation
    /// (when `decomposable`) is selected purely on the analyzer's
    /// partition-preservation certificate (§7.2) — the proof already covers
    /// single-view-ness, linearity and key pass-through.
    fn view_runtimes(
        &self,
        spec: &FixpointSpec,
        decomposable: bool,
    ) -> Result<Vec<ViewRt>, EngineError> {
        let mut views: Vec<ViewRt> = Vec::with_capacity(spec.views.len());
        for v in &spec.views {
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
            views.push(ViewRt {
                spec: v.clone(),
                agg_cols: v.aggs.iter().map(|(c, _)| *c).collect(),
                ops,
                funcs,
                modes: resolve_count_modes(v)?,
                partition_key: preserved.unwrap_or(&v.key_cols).to_vec(),
                state: (0..self.config.partitions)
                    .map(|_| RankedMutex::new(LockRank::FixpointState, empty_state(v)))
                    .collect(),
                decomposed: preserved.is_some(),
            });
        }
        Ok(views)
    }

    /// Round-0 contributions: every view's base branches evaluated against
    /// the catalog, combined by set UNION (so deduplicated) and bucketed by
    /// the view's partitioning.
    fn base_buckets(&self, spec: &FixpointSpec, views: &[ViewRt]) -> Result<Buckets, EngineError> {
        let p = self.config.partitions;
        let mut buckets = empty_buckets(views.len(), p);
        for (vi, v) in spec.views.iter().enumerate() {
            for row in self.eval_base(v)? {
                let part = views[vi].partition_of(&row, p);
                buckets[vi][part].push(row);
            }
        }
        Ok(buckets)
    }

    /// A view's base rows: its base branches combine by set UNION, so rows
    /// are deduplicated, in first-occurrence order.
    fn eval_base(&self, v: &ViewSpec) -> Result<Vec<Row>, EngineError> {
        let mut rows = Distinct::default();
        for plan in &v.base {
            for row in self.eval.evaluate(plan)?.into_rows() {
                rows.push_row(row);
            }
        }
        Ok(rows.finish())
    }

    /// Close the clique's trace and move the converged state into the result
    /// relations — nothing reads the state after the last round, so set rows
    /// are handed over, not copied.
    fn finish(&self, views: &[ViewRt], iterations: u32) -> FixpointResult {
        if let Some(sink) = self.eval.trace {
            sink.end_clique(iterations);
        }
        let views = views
            .iter()
            .map(|v| {
                let mut rows = Vec::new();
                for part in &v.state {
                    match std::mem::replace(&mut *part.lock(), empty_state(&v.spec)) {
                        ViewState::Set(s) => rows.extend(s.into_rows()),
                        agg => rows.extend(state_rows(v, &agg)),
                    }
                }
                Relation::new_unchecked(v.spec.schema.clone(), rows)
            })
            .collect();
        FixpointResult { views, iterations }
    }

    /// Resume a converged fixpoint from retained warm state: `warm` holds
    /// the converged rows per clique view, `changed` the *inserted* delta
    /// rows per mutated base relation. Only sound for idempotent recursion
    /// (set semantics or min/max aggregates with Proven PreM) over
    /// insert-only deltas — the materialized-view layer certifies this
    /// before calling.
    ///
    /// The algorithm: preload warm state at round stamp 0; re-evaluate base
    /// branches against the new catalog (re-merging converged rows is a
    /// no-op under idempotence, so only genuinely new base facts survive as
    /// deltas); additionally seed, for every recursive branch and every join
    /// position reading a changed relation, the join of the *warm* driver
    /// rows against only the *delta* rows at that position. Completeness:
    /// any new derivation tree has a bottommost node whose base leaf is new
    /// and whose recursive inputs are warm-derivable — that node is exactly
    /// warm ⋈ Δbase (covered by the seed), and everything above it flows
    /// through the ordinary semi-naive rounds, which the resumed loop
    /// re-enters at round 1 (warm rows keep stamp 0, so old-snapshot cutoffs
    /// of non-linear branches stay exact).
    pub fn run_resume(
        &self,
        spec: &FixpointSpec,
        warm: &[Vec<Row>],
        changed: &[(String, Vec<Row>)],
    ) -> Result<FixpointResult, EngineError> {
        let p = self.config.partitions;
        // Like `run`, but decomposed evaluation is forced off — warm state is
        // partitioned on the key columns, and the resumed loop must keep that
        // partitioning.
        let views = self.view_runtimes(spec, false)?;

        // Preload the warm rows, stamped round 0.
        for (vi, v) in views.iter().enumerate() {
            let mut per_part: Vec<Vec<Row>> = vec![Vec::new(); p];
            for row in &warm[vi] {
                per_part[v.partition_of(row, p)].push(row.clone());
            }
            for (part, rows) in per_part.into_iter().enumerate() {
                merge_into_state(v, &mut v.state[part].lock(), rows, 0);
            }
        }
        let views = Arc::new(views);

        // Compile the loop branches against the *new* catalog; the index
        // store advances the build sides it holds by the inserted rows.
        let mut branches: Vec<CompiledBranch> = Vec::new();
        for (vi, v) in spec.views.iter().enumerate() {
            for prog in &v.recursive {
                branches.push(self.compile_branch(prog, &views, vi)?);
            }
        }
        let branches = Arc::new(branches);

        // Re-evaluate base branches over the new catalog. Converged rows
        // re-merge as no-ops; inserted base facts become round-1 deltas.
        let mut base_buckets = self.base_buckets(spec, &views)?;

        // Delta-build seeding: warm driver ⋈ Δbase at each changed position.
        // One seed run per (join position, changed table); every other table
        // in the position's build plan sees its full new contents, so a
        // derivation touching several changed tables is still covered (the
        // duplicates this superset produces are no-ops under idempotence).
        for v in &spec.views {
            for prog in &v.recursive {
                for (si, step) in prog.steps.iter().enumerate() {
                    let BranchStep::HashJoin {
                        build: JoinBuild::Base(plan),
                        ..
                    } = step
                    else {
                        continue;
                    };
                    let mut tabs: Vec<String> = Vec::new();
                    plan.referenced_tables(&mut tabs);
                    for (table, delta_rows) in changed {
                        if !tabs.iter().any(|t| t.eq_ignore_ascii_case(table)) {
                            continue;
                        }
                        let target = &views[prog.target];
                        let (seed, snaps) =
                            self.compile_seed_branch(prog, target, si, table, delta_rows, warm)?;
                        let mut partial = Partial::new(target);
                        let sink = &mut |t: &[Value]| partial.push(t);
                        let rows = &warm[seed.driver];
                        run_branch(&seed, rows, &snaps, 0, 0, 0, self.eval.fused, sink);
                        for row in partial.finish() {
                            let part = target.partition_of(&row, p);
                            base_buckets[seed.target][part].push(row);
                        }
                    }
                }
            }
        }

        self.check_cancel()?;
        let iterations = self.run_semi_naive(&views, &branches, base_buckets, 1)?;
        Ok(self.finish(&views, iterations))
    }

    /// Compile one *seed* instance of a recursive branch for delta-seeded
    /// resume: sequential (each base build a single whole hash table, run on
    /// partition 0), with the base build at step `delta_pos` evaluated under
    /// an overlay catalog where `delta_table` holds only the inserted rows,
    /// and recursive build sides snapshotted from the warm rows.
    fn compile_seed_branch(
        &self,
        prog: &BranchProgram,
        target: &ViewRt,
        delta_pos: usize,
        delta_table: &str,
        delta_rows: &[Row],
        warm: &[Vec<Row>],
    ) -> Result<(CompiledBranch, SeedSnapshots), EngineError> {
        let mut ops = Vec::with_capacity(prog.steps.len());
        let mut snaps: SeedSnapshots = Vec::with_capacity(prog.steps.len());
        let mut uses_recursive_build = false;
        for (si, step) in prog.steps.iter().enumerate() {
            match step {
                BranchStep::Filter(e) => {
                    ops.push(CompiledOp::filter(e));
                    snaps.push(None);
                }
                BranchStep::HashJoin {
                    build,
                    stream_keys,
                    build_keys,
                    ..
                } => {
                    let build_side = match build {
                        JoinBuild::RecursiveAll { view, mode, .. } => {
                            uses_recursive_build = true;
                            // lint: allow(RL0008, a snapshot of the view's own warm rows, not of base data)
                            let snap = HashTable::build(&warm[*view], build_keys);
                            snaps.push(Some(Arc::new(snap)));
                            BuildSide::Recursive {
                                view: *view,
                                mode: *mode,
                            }
                        }
                        JoinBuild::Base(plan) => {
                            let rel = if si == delta_pos {
                                self.eval
                                    .eval_with_table_delta(plan, delta_table, delta_rows)?
                            } else {
                                self.eval.evaluate(plan)?
                            };
                            snaps.push(None);
                            // lint: allow(RL0008, a seed run probes one whole table of the delta overlay once)
                            let whole = HashTable::build(rel.rows(), build_keys);
                            BuildSide::Partitioned(vec![Arc::new(whole)])
                        }
                    };
                    ops.push(CompiledOp::join(build_side, stream_keys, build_keys));
                }
            }
        }
        let seed = CompiledBranch::new(prog, target, ops, uses_recursive_build);
        Ok((seed, snaps))
    }

    /// Fetch every index a delta-seeded resume of `spec` will ask the store
    /// for, so the first refresh of a view finds its build sides built and
    /// only advances them.
    pub fn warm_indexes(&self, spec: &FixpointSpec) -> Result<(), EngineError> {
        if self.config.join == JoinStrategy::SortMerge {
            return Ok(());
        }
        // Like `run_resume`: decomposed evaluation off.
        let views = self.view_runtimes(spec, false)?;
        for (vi, v) in spec.views.iter().enumerate() {
            for prog in &v.recursive {
                if let Some((_, plan, build_keys)) = co_partitioned_build(prog, &views[vi]) {
                    self.co_partitioned_index(plan, build_keys)?;
                }
            }
        }
        Ok(())
    }

    /// The store's hash index of `plan` on `build_keys`, one table per
    /// partition.
    fn co_partitioned_index(
        &self,
        plan: &LogicalPlan,
        build_keys: &[usize],
    ) -> Result<Vec<Arc<HashTable>>, EngineError> {
        let layout = IndexLayout::Hash {
            partitions: self.config.partitions,
        };
        match self.eval.fetch_index(plan, build_keys, layout, true)? {
            Some(Index::Hash(index)) => Ok(index.parts().to_vec()),
            _ => Err(EngineError::Other(
                "index store answered a hash fetch with another layout".into(),
            )),
        }
    }

    // ----------------------------------------------------------------
    // Branch compilation
    // ----------------------------------------------------------------

    fn compile_branch(
        &self,
        prog: &BranchProgram,
        views: &[ViewRt],
        owner: usize,
    ) -> Result<CompiledBranch, EngineError> {
        let p = self.config.partitions;
        let co_partitioned = co_partitioned_build(prog, &views[owner]).map(|(si, ..)| si);
        let mut ops = Vec::with_capacity(prog.steps.len());
        let mut uses_recursive_build = false;
        for (si, step) in prog.steps.iter().enumerate() {
            match step {
                BranchStep::Filter(e) => ops.push(CompiledOp::filter(e)),
                BranchStep::HashJoin {
                    build,
                    stream_keys,
                    build_keys,
                    ..
                } => {
                    let build_side = match build {
                        JoinBuild::RecursiveAll { view, mode, .. } => {
                            uses_recursive_build = true;
                            BuildSide::Recursive {
                                view: *view,
                                mode: *mode,
                            }
                        }
                        JoinBuild::Base(plan) if co_partitioned == Some(si) => {
                            if self.config.join == JoinStrategy::SortMerge {
                                let rows = self.eval.evaluate(plan)?.into_rows();
                                // lint: allow(RL0008, sorted runs are built per query: the store keeps the hash and CSR layouts)
                                let parts = rasql_storage::partition_rows(rows, build_keys, p);
                                BuildSide::PartitionedSorted(
                                    parts
                                        .into_iter()
                                        .map(|rows| Arc::new(SortedRun::build(rows, build_keys)))
                                        .collect(),
                                )
                            } else {
                                BuildSide::Partitioned(self.co_partitioned_index(plan, build_keys)?)
                            }
                        }
                        JoinBuild::Base(plan) => {
                            let rel = self.eval.evaluate(plan)?;
                            // Broadcast build (§7.2): compressed payload +
                            // per-worker rebuild, or ship the prebuilt
                            // (2-3x larger) hash table.
                            let keys = build_keys.clone();
                            let governor = self.eval.governor;
                            let bc = if self.config.broadcast_compression {
                                let compressed = Arc::new(CompressedRelation::compress(
                                    rel.schema(),
                                    rel.rows(),
                                ));
                                let payload = compressed.size_bytes();
                                Broadcast::distribute_traced(
                                    self.cluster,
                                    None,
                                    payload,
                                    move |_w| {
                                        let rows = compressed.decompress();
                                        // lint: allow(RL0002, round-tripping a payload this pass just compressed)
                                        let rows = rows.expect("own payload");
                                        // lint: allow(RL0008, the broadcast models the network: every worker rebuilds its copy)
                                        HashTable::build(&rows, &keys)
                                    },
                                    governor,
                                )
                            } else {
                                // lint: allow(RL0008, the broadcast models the network: the master copy is shipped per query)
                                let master = Arc::new(HashTable::build(rel.rows(), &keys));
                                let payload = master.size_bytes();
                                Broadcast::distribute_traced(
                                    self.cluster,
                                    None,
                                    payload,
                                    move |_w| master.as_ref().clone(),
                                    governor,
                                )
                            };
                            BuildSide::Replicated(Arc::new(bc?))
                        }
                    };
                    ops.push(CompiledOp::join(build_side, stream_keys, build_keys));
                }
            }
        }
        let target = &views[prog.target];
        Ok(CompiledBranch::new(prog, target, ops, uses_recursive_build))
    }

    // ----------------------------------------------------------------
    // Semi-naive loop (Algorithms 4/5 and 6)
    // ----------------------------------------------------------------

    /// `start_round` is 0 for a from-scratch run; a delta-seeded resume
    /// passes 1 so the warm state (stamped 0) stays distinct from the seeded
    /// contributions (merged at stamp 1) — the old-snapshot cutoff of the
    /// first resumed round then correctly selects exactly the warm rows.
    fn run_semi_naive(
        &self,
        views: &Arc<Vec<ViewRt>>,
        branches: &Arc<Vec<CompiledBranch>>,
        base_buckets: Buckets,
        start_round: u32,
    ) -> Result<u32, EngineError> {
        let p = self.config.partitions;
        let nv = views.len();
        let mut contributions: Buckets = base_buckets;
        let mut round: u32 = start_round;
        // Round-boundary checkpointing (see `rasql_exec::checkpoint`): between
        // rounds every partition's state plus the pending contributions form a
        // consistent cut, so that is where snapshots are taken and where
        // replay resumes after an unrecoverable stage failure.
        let ckpt_every = self.config.checkpoint_interval;
        let store = (ckpt_every > 0).then(CheckpointStore::memory);
        let mut last_ckpt: Option<u32> = None;
        let mut restores_left: u32 = RESTORE_BUDGET;
        // Stage combination fuses the reduce of round r with the map of round
        // r+1 — sound only when no branch reads old/new snapshots of another
        // recursive relation (those need the merge barrier).
        let combine =
            self.config.stage_combination && branches.iter().all(|b| !b.uses_recursive_build);
        let sink = self.eval.trace;
        if let Some(s) = sink {
            s.begin_clique(
                views.iter().map(|v| v.spec.name.clone()).collect(),
                if combine {
                    "semi_naive_combined"
                } else {
                    "semi_naive"
                },
            );
        }
        // Resource governance: `gov_charge` is what the tracker holds for the
        // inter-round resident set (pending contribution buckets plus the
        // all-relation aggregate/set state); anything the governor paged out
        // to disk at the previous round boundary is listed here and read back
        // right before the next round consumes it.
        let governor = self.eval.governor;
        let mut gov_charge: u64 = 0;
        let mut paged_contribs: Vec<(usize, usize, String)> = Vec::new();
        let mut paged_state: Vec<(usize, usize, String)> = Vec::new();

        'rounds: loop {
            self.check_cancel()?;
            if let Some(g) = governor {
                // Page spilled buckets/state back in (the merge stage and the
                // checkpoint capture below both need them resident), then drop
                // the inter-round charge: the stages take ownership now.
                page_in(
                    g,
                    views,
                    &mut contributions,
                    &mut paged_contribs,
                    &mut paged_state,
                )?;
                g.tracker().release(std::mem::take(&mut gov_charge));
            }
            // Capture at the round boundary: round 0 (the base delta) and
            // every `ckpt_every` rounds after. A restore rewinds `round` to a
            // boundary we already captured; the `last_ckpt` guard keeps the
            // replay from re-capturing (and re-filling the restore budget for)
            // the same snapshot.
            if let Some(st) = store.as_ref() {
                if round.is_multiple_of(ckpt_every) && last_ckpt != Some(round) {
                    match self.capture_checkpoint(st, views, &contributions, round) {
                        Ok(()) => {
                            last_ckpt = Some(round);
                            restores_left = RESTORE_BUDGET;
                        }
                        Err(e) => {
                            // The capture stage itself was lost; rewind to the
                            // previous snapshot (if any) and replay.
                            round = self.restore_or_fail(
                                Some(st),
                                views,
                                &mut contributions,
                                last_ckpt,
                                &mut restores_left,
                                e,
                            )?;
                            continue 'rounds;
                        }
                    }
                }
            }
            round += 1;
            if round > self.config.max_iterations {
                return Err(EngineError::NonTermination {
                    view: views[0].spec.name.clone(),
                    iterations: self.config.max_iterations,
                });
            }
            Metrics::add(&self.cluster.metrics.iterations, 1);
            let round_t0 = Instant::now();

            let map_out: Vec<(u64, Buckets)> = if combine {
                // --- One combined ShuffleMap stage: merge + join + partial
                // aggregate per partition (Algorithm 6). ---
                let views_c = Arc::clone(views);
                let branches_c = Arc::clone(branches);
                let fused = self.eval.fused;
                let tasks: Vec<StageTask<(u64, Buckets)>> = by_partition(contributions, p)
                    .into_iter()
                    .enumerate()
                    .map(|(part, mine)| {
                        let views_c = Arc::clone(&views_c);
                        let branches_c = Arc::clone(&branches_c);
                        StageTask::new(part % self.cluster.workers(), move |w| {
                            let deltas: Vec<DeltaBatch> = (views_c.iter().zip(mine))
                                .map(|(v, rows)| merge_partition(v, part, rows, round - 1))
                                .collect();
                            let delta_rows: u64 = deltas.iter().map(|d| d.rows.len() as u64).sum();
                            let refs: Vec<&DeltaBatch> = deltas.iter().collect();
                            let buckets =
                                map_task(&views_c, &branches_c, &refs, &[], part, w, fused);
                            (delta_rows, buckets)
                        })
                    })
                    .collect();
                match self.cluster.run_stage_traced(
                    sink,
                    "fixpoint combined",
                    StageKind::Combined,
                    tasks,
                ) {
                    Ok(out) => out,
                    Err(e) => {
                        // `contributions` was moved into the stage's tasks; the
                        // drain guarantee of `run_stage_traced` means no task
                        // still holds the state locks here.
                        contributions = empty_buckets(nv, p);
                        round = self.restore_or_fail(
                            store.as_ref(),
                            views,
                            &mut contributions,
                            last_ckpt,
                            &mut restores_left,
                            EngineError::Exec(e),
                        )?;
                        continue 'rounds;
                    }
                }
            } else {
                // --- Reduce stage (Algorithm 4 lines 11-16). ---
                let views_c = Arc::clone(views);
                let reduce_tasks: Vec<StageTask<Vec<DeltaBatch>>> = by_partition(contributions, p)
                    .into_iter()
                    .enumerate()
                    .map(|(part, mine)| {
                        let views_c = Arc::clone(&views_c);
                        StageTask::new(part % self.cluster.workers(), move |_w| {
                            (views_c.iter().zip(mine))
                                .map(|(v, rows)| merge_partition(v, part, rows, round - 1))
                                .collect()
                        })
                    })
                    .collect();
                let merged = match self.cluster.run_stage_traced(
                    sink,
                    "fixpoint reduce",
                    StageKind::Reduce,
                    reduce_tasks,
                ) {
                    Ok(out) => out,
                    Err(e) => {
                        contributions = empty_buckets(nv, p);
                        round = self.restore_or_fail(
                            store.as_ref(),
                            views,
                            &mut contributions,
                            last_ckpt,
                            &mut restores_left,
                            EngineError::Exec(e),
                        )?;
                        continue 'rounds;
                    }
                };
                let mut deltas: Vec<Vec<DeltaBatch>> =
                    (0..nv).map(|_| vec![DeltaBatch::default(); p]).collect();
                let mut all_empty = true;
                for (part, dv) in merged.into_iter().enumerate() {
                    for (vi, d) in dv.into_iter().enumerate() {
                        all_empty &= d.is_empty();
                        deltas[vi][part] = d;
                    }
                }
                if all_empty {
                    // Closing round: the reduce found nothing new.
                    if let Some(s) = sink {
                        s.record_iteration(IterationTrace {
                            round,
                            delta_rows: 0,
                            total_rows: total_state_rows(views),
                            stages: 1,
                            shuffle_rows: 0,
                            shuffle_bytes: 0,
                            elapsed_us: round_t0.elapsed().as_micros() as u64,
                        });
                    }
                    return Ok(round - 1);
                }

                // --- Map stage (Algorithm 4 lines 6-9 / Algorithm 5). ---
                // Old/new snapshots use the delta stamp `round - 1` as cutoff.
                let snapshots = Arc::new(self.build_snapshots(views, branches, round - 1));
                let deltas = Arc::new(deltas);
                let views_c = Arc::clone(views);
                let branches_c = Arc::clone(branches);
                let fused = self.eval.fused;
                let tasks: Vec<StageTask<(u64, Buckets)>> = (0..p)
                    .map(|part| {
                        let deltas = Arc::clone(&deltas);
                        let views_c = Arc::clone(&views_c);
                        let branches_c = Arc::clone(&branches_c);
                        let snapshots = Arc::clone(&snapshots);
                        StageTask::new(part % self.cluster.workers(), move |w| {
                            let delta_rows: u64 =
                                deltas.iter().map(|dv| dv[part].rows.len() as u64).sum();
                            let refs: Vec<&DeltaBatch> =
                                deltas.iter().map(|dv| &dv[part]).collect();
                            let buckets =
                                map_task(&views_c, &branches_c, &refs, &snapshots, part, w, fused);
                            (delta_rows, buckets)
                        })
                    })
                    .collect();
                match self
                    .cluster
                    .run_stage_traced(sink, "fixpoint map", StageKind::Map, tasks)
                {
                    Ok(out) => out,
                    Err(e) => {
                        contributions = empty_buckets(nv, p);
                        round = self.restore_or_fail(
                            store.as_ref(),
                            views,
                            &mut contributions,
                            last_ckpt,
                            &mut restores_left,
                            EngineError::Exec(e),
                        )?;
                        continue 'rounds;
                    }
                }
            };

            let delta_rows: u64 = map_out.iter().map(|(n, _)| *n).sum();
            if combine && delta_rows == 0 {
                // Closing round: every partition merged an empty delta.
                if let Some(s) = sink {
                    s.record_iteration(IterationTrace {
                        round,
                        delta_rows: 0,
                        total_rows: total_state_rows(views),
                        stages: 1,
                        shuffle_rows: 0,
                        shuffle_bytes: 0,
                        elapsed_us: round_t0.elapsed().as_micros() as u64,
                    });
                }
                return Ok(round - 1);
            }

            // --- Shuffle: gather buckets per (view, partition). ---
            contributions = empty_buckets(nv, p);
            let mut moved_rows = 0u64;
            let mut moved_bytes = 0u64;
            for (src_part, (_, buckets)) in map_out.into_iter().enumerate() {
                for (vi, per_view) in buckets.into_iter().enumerate() {
                    for (dst_part, rows) in per_view.into_iter().enumerate() {
                        if self.cluster.owner_of(src_part) != self.cluster.owner_of(dst_part) {
                            moved_rows += rows.len() as u64;
                            moved_bytes += rows.iter().map(Row::size_bytes).sum::<usize>() as u64;
                        }
                        contributions[vi][dst_part].extend(rows);
                    }
                }
            }
            Metrics::add(&self.cluster.metrics.shuffle_rows, moved_rows);
            Metrics::add(&self.cluster.metrics.shuffle_bytes, moved_bytes);
            if let Some(s) = sink {
                s.record_iteration(IterationTrace {
                    round,
                    delta_rows,
                    total_rows: total_state_rows(views),
                    stages: if combine { 1 } else { 2 },
                    shuffle_rows: moved_rows,
                    shuffle_bytes: moved_bytes,
                    elapsed_us: round_t0.elapsed().as_micros() as u64,
                });
            }
            if let Some(g) = governor {
                gov_charge = self.govern_round_footprint(
                    g,
                    views,
                    &mut contributions,
                    &mut paged_contribs,
                    &mut paged_state,
                    round,
                    sink,
                )?;
            }
        }
    }

    /// End-of-round memory governance for the semi-naive loop: charge the
    /// inter-round resident set (pending contribution buckets plus the
    /// all-relation aggregate/set state) to the query's tracker, and while the
    /// tracker is over budget page it out to the governor's spill directory —
    /// buckets first (order-preserving row codec, so the next merge replays
    /// contributions byte-for-byte), then per-partition state (canonical
    /// checkpoint codec). Returns the bytes that stayed resident and charged.
    #[allow(clippy::too_many_arguments)]
    fn govern_round_footprint(
        &self,
        g: &QueryGovernor,
        views: &[ViewRt],
        contributions: &mut Buckets,
        paged_contribs: &mut Vec<(usize, usize, String)>,
        paged_state: &mut Vec<(usize, usize, String)>,
        round: u32,
        sink: Option<&TraceSink>,
    ) -> Result<u64, EngineError> {
        let mut charge = buckets_bytes(contributions) + state_size_bytes(views);
        g.tracker().charge(charge);
        if !g.tracker().over_budget() {
            return Ok(charge);
        }
        let dir = g.spill_dir()?;
        let mut written = 0u64;
        let mut files = 0u64;
        'page: {
            for (vi, per_view) in contributions.iter_mut().enumerate() {
                for (part, rows) in per_view.iter_mut().enumerate() {
                    if rows.is_empty() {
                        continue;
                    }
                    let freed: u64 = rows.iter().map(|r| r.size_bytes() as u64 + 16).sum();
                    let name = format!("contrib-r{round}-v{vi}-p{part}");
                    written += dir.append_rows(&name, rows).map_err(EngineError::Exec)?;
                    files += 1;
                    rows.clear();
                    paged_contribs.push((vi, part, name));
                    g.tracker().release(freed);
                    charge = charge.saturating_sub(freed);
                    if !g.tracker().over_budget() {
                        break 'page;
                    }
                }
            }
            for (vi, v) in views.iter().enumerate() {
                for (part, cell) in v.state.iter().enumerate() {
                    let mut st = cell.lock();
                    let (blob, freed) = match &*st {
                        ViewState::Set(s) => (encode_set_state(s), s.size_bytes()),
                        ViewState::Agg(a) => (encode_agg_state(a), a.size_bytes()),
                    };
                    if freed == 0 {
                        continue;
                    }
                    let name = format!("state-r{round}-v{vi}-p{part}");
                    written += dir
                        .write_blob(&name, blob.as_ref())
                        .map_err(EngineError::Exec)?;
                    files += 1;
                    *st = empty_state(&v.spec);
                    drop(st);
                    paged_state.push((vi, part, name));
                    g.tracker().release(freed);
                    charge = charge.saturating_sub(freed);
                    if !g.tracker().over_budget() {
                        break 'page;
                    }
                }
            }
        }
        g.note_spill(written, files);
        Metrics::add(&self.cluster.metrics.spilled_bytes, written);
        Metrics::add(&self.cluster.metrics.spill_files, files);
        if let Some(s) = sink {
            s.record_recovery(RecoveryEvent {
                kind: RecoveryKind::Spill,
                stage: clique_label(views),
                round,
                detail: format!("paged out {written} B in {files} files (footprint over budget)"),
            });
        }
        Ok(charge)
    }

    // ----------------------------------------------------------------
    // Checkpoint / restore (round-boundary recovery)
    // ----------------------------------------------------------------

    /// Serialize every partition's state (as a traced cluster stage — the
    /// encode work runs where the state lives, and is itself subject to fault
    /// injection) plus the pending contribution buckets (driver-side, it
    /// already holds them) into the store under round `round`.
    fn capture_checkpoint(
        &self,
        store: &CheckpointStore,
        views: &Arc<Vec<ViewRt>>,
        contributions: &Buckets,
        round: u32,
    ) -> Result<(), EngineError> {
        let p = self.config.partitions;
        let sink = self.eval.trace;
        let views_c = Arc::clone(views);
        let tasks: Vec<StageTask<Vec<(String, Bytes)>>> = (0..p)
            .map(|part| {
                let views_c = Arc::clone(&views_c);
                StageTask::new(part % self.cluster.workers(), move |_w| {
                    views_c
                        .iter()
                        .enumerate()
                        .map(|(vi, v)| {
                            let data = match &*v.state[part].lock() {
                                ViewState::Set(s) => encode_set_state(s),
                                ViewState::Agg(a) => encode_agg_state(a),
                            };
                            (format!("r{round}/v{vi}/p{part}"), data)
                        })
                        .collect()
                })
            })
            .collect();
        let encoded = self
            .cluster
            .run_stage_traced(sink, "fixpoint checkpoint", StageKind::Checkpoint, tasks)
            .map_err(EngineError::Exec)?;
        let mut bytes = 0u64;
        for per_part in encoded {
            for (key, data) in per_part {
                bytes += store.put(&key, data)? as u64;
            }
        }
        for (vi, per_view) in contributions.iter().enumerate() {
            for (part, rows) in per_view.iter().enumerate() {
                let data = encode_rows(rows);
                bytes += store.put(&format!("r{round}/contrib/v{vi}/p{part}"), data)? as u64;
            }
        }
        Metrics::add(&self.cluster.metrics.checkpoints, 1);
        Metrics::add(&self.cluster.metrics.checkpoint_bytes, bytes);
        if let Some(s) = sink {
            s.record_recovery(RecoveryEvent {
                kind: RecoveryKind::Checkpoint,
                stage: clique_label(views),
                round,
                detail: format!("{bytes} B across {p} partitions"),
            });
        }
        Ok(())
    }

    /// Rewind to the last captured round boundary, or fail with `err` if no
    /// snapshot (or no budget) is left. On success every partition's state and
    /// the pending contributions hold exactly what was captured, and the
    /// returned round is where the loop resumes.
    fn restore_or_fail(
        &self,
        store: Option<&CheckpointStore>,
        views: &[ViewRt],
        contributions: &mut Buckets,
        last_ckpt: Option<u32>,
        restores_left: &mut u32,
        err: EngineError,
    ) -> Result<u32, EngineError> {
        let (Some(store), Some(at), 1..) = (store, last_ckpt, *restores_left) else {
            return Err(err);
        };
        *restores_left -= 1;
        let mut bytes = 0u64;
        for (vi, v) in views.iter().enumerate() {
            for (part, contrib) in contributions[vi].iter_mut().enumerate() {
                let key = format!("r{at}/v{vi}/p{part}");
                let data = checkpoint_entry(store, &key)?;
                bytes += data.len() as u64;
                *v.state[part].lock() = if v.is_set() {
                    ViewState::Set(decode_set_state(data)?)
                } else {
                    ViewState::Agg(decode_agg_state(data)?)
                };
                let data = checkpoint_entry(store, &format!("r{at}/contrib/v{vi}/p{part}"))?;
                bytes += data.len() as u64;
                *contrib = decode_rows(data)?;
            }
        }
        Metrics::add(&self.cluster.metrics.restores, 1);
        if let Some(s) = self.eval.trace {
            s.record_recovery(RecoveryEvent {
                kind: RecoveryKind::Restore,
                stage: clique_label(views),
                round: at,
                detail: format!("replaying from round {at} ({bytes} B) after: {err}"),
            });
        }
        Ok(at)
    }

    /// Per-round snapshots of recursive relations used as join build sides
    /// (mutual/non-linear recursion). `cutoff` is the current delta's stamp.
    fn build_snapshots(
        &self,
        views: &Arc<Vec<ViewRt>>,
        branches: &Arc<Vec<CompiledBranch>>,
        cutoff: u32,
    ) -> Vec<Option<Arc<HashTable>>> {
        let mut out = Vec::new();
        for b in branches.iter() {
            for op in &b.ops {
                if let CompiledOp::Join(CompiledStep {
                    build: BuildSide::Recursive { view, mode },
                    build_keys,
                    ..
                }) = op
                {
                    let v = &views[*view];
                    let mut rows = Vec::new();
                    for part in &v.state {
                        match &*part.lock() {
                            ViewState::Set(s) => match mode {
                                RecAllMode::New => rows.extend(s.iter().cloned()),
                                RecAllMode::Old => rows.extend(s.iter_before(cutoff).cloned()),
                            },
                            ViewState::Agg(a) => {
                                for (key, entry) in a.iter() {
                                    let vals = match mode {
                                        RecAllMode::New => Some(&entry.values[..]),
                                        RecAllMode::Old => a.get_before(key, cutoff),
                                    };
                                    if let Some(vals) = vals {
                                        rows.push(assemble_row(
                                            key,
                                            vals,
                                            &v.spec.key_cols,
                                            &v.agg_cols,
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    // lint: allow(RL0008, a per-round snapshot of a recursive relation, not of base data)
                    out.push(Some(Arc::new(HashTable::build(&rows, build_keys))));
                } else {
                    out.push(None);
                }
            }
        }
        out
    }

    // ----------------------------------------------------------------
    // Naive loop (Algorithm 2 / the Spark-SQL-Naive baseline of Fig 10)
    // ----------------------------------------------------------------

    fn run_naive(
        &self,
        views: &Arc<Vec<ViewRt>>,
        branches: &Arc<Vec<CompiledBranch>>,
        base_buckets: &Buckets,
    ) -> Result<u32, EngineError> {
        let p = self.config.partitions;
        let nv = views.len();
        let mut round: u32 = 0;
        let sink = self.eval.trace;
        if let Some(s) = sink {
            s.begin_clique(views.iter().map(|v| v.spec.name.clone()).collect(), "naive");
        }
        // Previous full state as plain (schema-shaped) rows per view/partition.
        let mut prev: Vec<Vec<Vec<Row>>> = (0..nv).map(|_| vec![Vec::new(); p]).collect();
        loop {
            self.check_cancel()?;
            round += 1;
            if round > self.config.max_iterations {
                return Err(EngineError::NonTermination {
                    view: views[0].spec.name.clone(),
                    iterations: self.config.max_iterations,
                });
            }
            Metrics::add(&self.cluster.metrics.iterations, 1);
            let round_t0 = Instant::now();

            // Derive contributions = base ∪ T(prev); drivers read totals.
            let mut contributions: Buckets = base_buckets.clone();
            let snapshots = Arc::new(self.naive_snapshots(branches, &prev));
            let prev_arc = Arc::new(prev);
            let views_c = Arc::clone(views);
            let branches_c = Arc::clone(branches);
            let fused = self.eval.fused;
            let tasks: Vec<StageTask<Buckets>> = (0..p)
                .map(|part| {
                    let prev = Arc::clone(&prev_arc);
                    let views_c = Arc::clone(&views_c);
                    let branches_c = Arc::clone(&branches_c);
                    let snapshots = Arc::clone(&snapshots);
                    StageTask::new(part % self.cluster.workers(), move |w| {
                        let deltas: Vec<DeltaBatch> = views_c
                            .iter()
                            .enumerate()
                            .map(|(vi, v)| DeltaBatch {
                                rows: prev[vi][part].clone(),
                                increments: prev[vi][part]
                                    .iter()
                                    .map(|r| v.agg_cols.iter().map(|&c| r[c].clone()).collect())
                                    .collect(),
                            })
                            .collect();
                        let refs: Vec<&DeltaBatch> = deltas.iter().collect();
                        map_task(&views_c, &branches_c, &refs, &snapshots, part, w, fused)
                    })
                })
                .collect();
            // Naive evaluation has no mid-round mutable state to protect (the
            // map is pure and state is rebuilt from scratch below), so a
            // failed stage simply propagates as a typed error.
            let map_out = self
                .cluster
                .run_stage_traced(sink, "fixpoint naive map", StageKind::Map, tasks)
                .map_err(EngineError::Exec)?;
            let mut derived_rows = 0u64;
            for buckets in map_out {
                for (vi, per_view) in buckets.into_iter().enumerate() {
                    for (dst, rows) in per_view.into_iter().enumerate() {
                        derived_rows += rows.len() as u64;
                        contributions[vi][dst].extend(rows);
                    }
                }
            }
            prev = Arc::try_unwrap(prev_arc).map_err(|_| {
                EngineError::Exec(ExecError::TaskPanicked {
                    stage: "fixpoint naive map".into(),
                    task: 0,
                    worker: 0,
                    message: "previous-state snapshot still shared after the stage".into(),
                })
            })?;

            // Recompute state from scratch; compare with the previous round.
            let mut changed = false;
            let mut next: Vec<Vec<Vec<Row>>> = (0..nv).map(|_| vec![Vec::new(); p]).collect();
            for (vi, v) in views.iter().enumerate() {
                for part in 0..p {
                    let mut fresh = empty_state(&v.spec);
                    let rows = std::mem::take(&mut contributions[vi][part]);
                    merge_into_state(v, &mut fresh, rows, 0);
                    let rows = state_rows(v, &fresh);
                    let mut sorted = rows.clone();
                    sorted.sort_unstable();
                    let mut old_sorted = prev[vi][part].clone();
                    old_sorted.sort_unstable();
                    if sorted != old_sorted {
                        changed = true;
                    }
                    next[vi][part] = rows;
                    *v.state[part].lock() = fresh;
                }
            }
            prev = next;
            if let Some(s) = sink {
                // Naive evaluation has no deltas: record the re-derivation
                // volume instead (the waste the SN ablation measures).
                s.record_iteration(IterationTrace {
                    round,
                    delta_rows: if changed { derived_rows } else { 0 },
                    total_rows: total_state_rows(views),
                    stages: 1,
                    shuffle_rows: 0,
                    shuffle_bytes: 0,
                    elapsed_us: round_t0.elapsed().as_micros() as u64,
                });
            }
            if !changed {
                return Ok(round - 1);
            }
        }
    }

    fn naive_snapshots(
        &self,
        branches: &Arc<Vec<CompiledBranch>>,
        prev: &[Vec<Vec<Row>>],
    ) -> Vec<Option<Arc<HashTable>>> {
        let mut out = Vec::new();
        for b in branches.iter() {
            for op in &b.ops {
                if let CompiledOp::Join(CompiledStep {
                    build: BuildSide::Recursive { view, .. },
                    build_keys,
                    ..
                }) = op
                {
                    let rows: Vec<Row> = prev[*view].iter().flatten().cloned().collect();
                    // lint: allow(RL0008, a per-round snapshot of a recursive relation, not of base data)
                    out.push(Some(Arc::new(HashTable::build(&rows, build_keys))));
                } else {
                    out.push(None);
                }
            }
        }
        out
    }

    // ----------------------------------------------------------------
    // Decomposed evaluation (§7.2): per-partition local fixpoints
    // ----------------------------------------------------------------

    fn run_decomposed(
        &self,
        views: &Arc<Vec<ViewRt>>,
        branches: &Arc<Vec<CompiledBranch>>,
        base_buckets: Buckets,
    ) -> Result<u32, EngineError> {
        debug_assert_eq!(views.len(), 1);
        let max_iter = self.config.max_iterations;
        let p = self.config.partitions;
        let sink = self.eval.trace;
        if let Some(s) = sink {
            s.begin_clique(vec![views[0].spec.name.clone()], "decomposed");
        }
        let base = Arc::new(base_buckets);
        let views_c = Arc::clone(views);
        let branches_c = Arc::clone(branches);
        let fused = self.eval.fused;
        // The whole local fixpoint runs inside one stage, so the cancellation
        // token travels into the task and is polled per local round.
        let token = self.eval.governor.map(|g| g.token().clone());
        // Each task returns its local per-round history: (delta rows consumed,
        // state rows after the round's merge, the round's wall time).
        let make_tasks = || -> Vec<StageTask<RoundHistory>> {
            (0..p)
                .map(|part| {
                    let base = Arc::clone(&base);
                    let views_c = Arc::clone(&views_c);
                    let branches_c = Arc::clone(&branches_c);
                    let token = token.clone();
                    StageTask::new(part % self.cluster.workers(), move |w| {
                        let v = &views_c[0];
                        let mut state = v.state[part].lock();
                        let mut delta = merge_into_state(v, &mut state, base[0][part].clone(), 0);
                        let mut iters: u32 = 0;
                        let mut history: Vec<(u64, u64, u64)> = Vec::new();
                        while !delta.is_empty() {
                            let round_t0 = Instant::now();
                            iters += 1;
                            if iters > max_iter {
                                return Err(LocalAbort::NonTermination);
                            }
                            if token.as_ref().is_some_and(|t| t.check().is_err()) {
                                return Err(LocalAbort::Cancelled);
                            }
                            let consumed = delta.rows.len() as u64;
                            // Every branch's tuples go straight into this
                            // round's merge; the preserved-column property
                            // guarantees they stay in this partition.
                            let mut merge = Merge::new(v, &mut state, iters);
                            for b in branches_c.iter() {
                                let input = delta.reader_rows(b.driver_value_mode, &v.agg_cols);
                                let sink = &mut |t: &[Value]| merge.push(t);
                                run_branch(b, &input, &[], 0, usize::MAX, w, fused, sink);
                            }
                            delta = merge.finish();
                            history.push((
                                consumed,
                                state_len(&state) as u64,
                                round_t0.elapsed().as_micros() as u64,
                            ));
                        }
                        Ok(history)
                    })
                })
                .collect()
        };
        // A decomposed run has no round boundaries to checkpoint at — the
        // entire local fixpoint is one stage — so recovery is reset-and-rerun:
        // wipe every partition back to empty state and run the stage again
        // (sound because the stage derives everything from the immutable base
        // buckets). Only attempted when checkpointing is enabled; otherwise a
        // lost stage propagates as a typed error.
        let mut reruns_left = if self.config.checkpoint_interval > 0 {
            RESTORE_BUDGET
        } else {
            0
        };
        let results = loop {
            self.check_cancel()?;
            match self.cluster.run_stage_traced(
                sink,
                "fixpoint decomposed",
                StageKind::Decomposed,
                make_tasks(),
            ) {
                Ok(r) => break r,
                Err(e) => {
                    if reruns_left == 0 {
                        return Err(EngineError::Exec(e));
                    }
                    reruns_left -= 1;
                    for part in &views[0].state {
                        *part.lock() = empty_state(&views[0].spec);
                    }
                    Metrics::add(&self.cluster.metrics.restores, 1);
                    if let Some(s) = sink {
                        s.record_recovery(RecoveryEvent {
                            kind: RecoveryKind::Restore,
                            stage: clique_label(views),
                            round: 0,
                            detail: format!("state reset to empty; rerunning after: {e}"),
                        });
                    }
                }
            }
        };
        let mut histories: Vec<Vec<(u64, u64, u64)>> = Vec::with_capacity(p);
        for r in results {
            match r {
                Ok(history) => histories.push(history),
                Err(LocalAbort::NonTermination) => {
                    return Err(EngineError::NonTermination {
                        view: views[0].spec.name.clone(),
                        iterations: max_iter,
                    })
                }
                Err(LocalAbort::Cancelled) => {
                    // `check_cancel` re-derives the precise typed error
                    // (cancelled vs. deadline); the fallback covers a token
                    // that was somehow un-fired by the time we got here.
                    self.check_cancel()?;
                    return Err(EngineError::Exec(ExecError::Cancelled {
                        query_id: self.eval.governor.map_or(0, QueryGovernor::query_id),
                    }));
                }
            }
        }
        let max_rounds = histories.iter().map(Vec::len).max().unwrap_or(0) as u32;
        if let Some(s) = sink {
            // Partition totals only change while that partition still
            // iterates, so a partition past its own fixpoint contributes its
            // final state size to later global rounds.
            let final_lens: Vec<u64> = (0..p)
                .map(|part| state_len(&views[0].state[part].lock()) as u64)
                .collect();
            for r in 0..max_rounds as usize {
                let mut delta_rows = 0u64;
                let mut total_rows = 0u64;
                // Partitions run their local rounds side by side, so a global
                // round lasts as long as its slowest partition.
                let mut elapsed_us = 0u64;
                for (part, h) in histories.iter().enumerate() {
                    match h.get(r) {
                        Some(&(d, t, us)) => {
                            delta_rows += d;
                            total_rows += t;
                            elapsed_us = elapsed_us.max(us);
                        }
                        None => total_rows += final_lens[part],
                    }
                }
                s.record_iteration(IterationTrace {
                    round: r as u32 + 1,
                    delta_rows,
                    total_rows,
                    // Local rounds run inside the single decomposed stage:
                    // no per-round stages and no shuffle (the §7.2 claim).
                    stages: 0,
                    shuffle_rows: 0,
                    shuffle_bytes: 0,
                    elapsed_us,
                });
            }
        }
        Metrics::add(&self.cluster.metrics.iterations, max_rounds as u64);
        Ok(max_rounds)
    }

    // ----------------------------------------------------------------
    // Specialized fixpoint kernels (§7.3): CSR broadcast + dense state
    // ----------------------------------------------------------------

    /// Try to evaluate the clique on the monomorphized kernel selected by
    /// [`select_kernel`]. Returns `Ok(None)` when the *data* disagrees with
    /// the statically selected shape (a non-`Int` vertex id, a mistyped
    /// aggregate value or edge weight) — the caller then falls back to the
    /// generic interpreter, which re-evaluates the base and build plans.
    /// Every such check happens before any kernel state exists.
    fn run_specialized(
        &self,
        spec: &FixpointSpec,
        kp: &KernelPlan,
    ) -> Result<Option<FixpointResult>, EngineError> {
        let v = &spec.views[0];
        let Some(seeds) = self.kernel_seeds(v, kp)? else {
            return Ok(None);
        };
        let Some((csr, seeds)) = self.kernel_graph(kp, &seeds)? else {
            return Ok(None);
        };
        match (kp.op, kp.scalar) {
            (KernelOp::Set, _) => {
                let p = self.config.partitions;
                let scan = move |g: &CsrGraph, delta: &[u32], sink: &mut Combiner| {
                    sink.scan::<(), DenseSetState>(g, delta, p, |_, _, dst| dst)
                };
                let materialise = |g: &CsrGraph, slab: &DenseSetState, rows: &mut Vec<Row>| {
                    rows.extend(
                        slab.iter()
                            .map(|d| Row::new(vec![Value::Int(g.orig_id(d))])),
                    );
                };
                self.run_kernel::<DenseSetState, ()>(v, kp, &csr, &seeds, scan, materialise)
                    .map(Some)
            }
            (KernelOp::Min, KernelScalar::I64) => {
                self.run_kernel_agg::<i64, MinOp>(v, kp, &csr, &seeds)
            }
            (KernelOp::Min, KernelScalar::F64) => {
                self.run_kernel_agg::<f64, MinOp>(v, kp, &csr, &seeds)
            }
            (KernelOp::Max, KernelScalar::I64) => {
                self.run_kernel_agg::<i64, MaxOp>(v, kp, &csr, &seeds)
            }
            (KernelOp::Max, KernelScalar::F64) => {
                self.run_kernel_agg::<f64, MaxOp>(v, kp, &csr, &seeds)
            }
            (KernelOp::Sum, _) => self.run_kernel_agg::<i64, SumOp>(v, kp, &csr, &seeds),
        }
    }

    /// The view's base case as typed seeds — `(vertex key, aggregate bits)`,
    /// in first-occurrence order — streamed out of the base plans with no row
    /// built for a tuple; `None` when a tuple is not of the kernel's types.
    /// Base branches combine by set UNION: each input partition drops its own
    /// exact duplicates, which is all `min`/`max`/set need (they are
    /// idempotent); `sum` would see a duplicate, so its seeds are also
    /// deduplicated across partitions and branches.
    fn kernel_seeds(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
    ) -> Result<Option<Vec<(i64, u64)>>, EngineError> {
        let (key_col, agg) = (kp.key_col, kp.agg_col.map(|c| (c, kp.scalar)));
        let mut seeds: Vec<(i64, u64)> = Vec::new();
        for plan in &v.base {
            let folds = self.eval.fold_partitions(
                plan,
                "kernel seeds",
                move |f: &mut SeedFold, tuple| {
                    f.push_seed(tuple, key_col, agg);
                },
            )?;
            for fold in folds {
                if fold.mistyped {
                    return Ok(None);
                }
                seeds.extend(fold.seeds);
            }
        }
        if kp.op == KernelOp::Sum {
            let mut seen = FxHashSet::default();
            seeds.retain(|s| seen.insert(*s));
        }
        Ok(Some(seeds))
    }

    /// The clique's CSR graph — the index store's entry for the build plan,
    /// lent, advanced by the edges inserted since, or built — with the seeds
    /// resolved to its dense ids (one `remap` lookup per seed). The store
    /// keeps the graph of the edge rows alone: seed vertices get their dense
    /// ids after every edge endpoint, so that one entry serves every seed
    /// list drawn from the graph's own vertices, and a list that adds a
    /// vertex gets a private extension of it (typed arrays moved, no row
    /// read). `None` when the edge rows are not of the kernel's types.
    fn kernel_graph(
        &self,
        kp: &KernelPlan,
        seeds: &[(i64, u64)],
    ) -> Result<Option<(Arc<CsrGraph>, DenseSeeds)>, EngineError> {
        let p = self.config.partitions;
        let resolve = |g: &CsrGraph| -> Option<DenseSeeds> {
            seeds
                .iter()
                .map(|&(k, bits)| Some((g.dense_id(k)?, bits)))
                .collect()
        };
        let layout = IndexLayout::Csr {
            src: kp.src_col,
            dst: kp.dst_col,
            weight: kp.weight,
            partitions: p,
        };
        let Some(Index::Csr(shared)) =
            self.eval
                .fetch_index(&kp.build, &[kp.src_col], layout, true)?
        else {
            return Ok(None);
        };
        if let Some(dense) = resolve(&shared) {
            return Ok(Some((shared, dense)));
        }
        let extras = seeds.iter().map(|s| s.0);
        let Some(seeded) = shared.extended(&[], kp.src_col, kp.dst_col, kp.weight, extras, p)
        else {
            return Ok(None);
        };
        Ok(resolve(&seeded).map(|dense| (Arc::new(seeded), dense)))
    }

    /// The aggregate kernels: [`FixpointExecutor::run_kernel`] over
    /// [`DenseAggState`], scanning with the plan's per-edge transform and
    /// materializing `(vertex, total)` rows.
    fn run_kernel_agg<T, Op>(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
        csr: &Arc<CsrGraph>,
        seeds: &[(u32, u64)],
    ) -> Result<Option<FixpointResult>, EngineError>
    where
        T: KernelValue,
        Op: MergeOp<T>,
    {
        let p = self.config.partitions;
        let Some(agg_col) = kp.agg_col else {
            // A planner bug, not a data mismatch — but falling back to the
            // interpreter is strictly safer than panicking mid-query.
            return Ok(None);
        };
        let edge_fn = kp.edge_fn.clone();
        let add = match &edge_fn {
            KernelEdgeFn::AddConst(lit) => match T::from_const(lit) {
                Some(c) => c,
                None => return Ok(None),
            },
            _ => T::zero(),
        };
        // One monomorphized walk per edge transform: no `Value` dispatch and
        // no branch on the transform inside the loop.
        let scan = move |g: &CsrGraph, delta: &[(u32, T)], sink: &mut Combiner| {
            let ws = T::weights(g);
            match edge_fn {
                KernelEdgeFn::Identity => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), _, dst| (dst, val))
                }
                KernelEdgeFn::AddWeight => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), e, dst| {
                        (dst, T::add(val, ws[e]))
                    })
                }
                KernelEdgeFn::AddConst(_) => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), _, dst| {
                        (dst, T::add(val, add))
                    })
                }
                KernelEdgeFn::MinWeight => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), e, dst| {
                        (dst, if T::lt(ws[e], val) { ws[e] } else { val })
                    })
                }
            }
        };
        let (key_col, arity) = (kp.key_col, v.schema.arity());
        let materialise = move |g: &CsrGraph, slab: &DenseAggState<T>, rows: &mut Vec<Row>| {
            rows.extend(slab.iter().map(|(d, val)| {
                let mut vals = vec![Value::Null; arity];
                vals[key_col] = Value::Int(g.orig_id(d));
                vals[agg_col] = val.to_value();
                Row::new(vals)
            }));
        };
        self.run_kernel::<DenseAggState<T>, Op>(v, kp, csr, seeds, scan, materialise)
            .map(Some)
    }

    /// The kernel round loop, written once over [`DenseState`]: one combined
    /// stage per round, in which task `part` merges what the previous round's
    /// tasks produced for it into its dense slab and scans the fresh delta
    /// against the broadcast CSR graph, combining map-side (Algorithm 5).
    /// Mirrors `run_semi_naive`'s combined mode round-for-round — same
    /// iteration counting, same closing-round bookkeeping, same shuffle
    /// accounting for worker-crossing contributions. `scan` and
    /// `materialise` are all that differs between kernels.
    fn run_kernel<S, Op>(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
        csr: &Arc<CsrGraph>,
        seeds: &[(u32, u64)],
        scan: impl Fn(&CsrGraph, &[S::Item], &mut Combiner) -> Vec<Vec<S::Item>> + Send + Sync + 'static,
        materialise: impl Fn(&CsrGraph, &S, &mut Vec<Row>),
    ) -> Result<FixpointResult, EngineError>
    where
        S: DenseState<Op>,
    {
        let p = self.config.partitions;
        let n = csr.vertex_count();
        // Pre-combine the seeds through a scratch state, in first-touch
        // order, and bucket them exactly where the generic partitioner would
        // send them: one item per seeded vertex.
        let mut base: Vec<Vec<S::Item>> = vec![Vec::new(); p];
        {
            let mut scratch = S::new(n);
            for &(d, bits) in seeds {
                scratch.merge(S::item(d, bits), 0);
            }
            for item in scratch.take_delta(true) {
                base[csr.part_of[S::vertex(item) as usize] as usize].push(item);
            }
        }

        // §7.2: the graph is broadcast once and every worker reads that one
        // copy. `broadcast_bytes` and the governor's transient charge model
        // the network (`payload × workers`), not a memcpy.
        let sink = self.eval.trace;
        let bc = {
            let graph = Arc::clone(csr);
            Arc::new(
                Broadcast::distribute_traced(
                    self.cluster,
                    sink,
                    csr.size_bytes(),
                    move |_w| Arc::clone(&graph),
                    self.eval.governor,
                )
                .map_err(EngineError::Exec)?,
            )
        };
        let parts: Arc<Vec<RankedMutex<(S, Combiner)>>> = Arc::new(
            (0..p)
                .map(|_| RankedMutex::new(LockRank::FixpointState, (S::new(n), Combiner::new(n))))
                .collect(),
        );
        let scan = Arc::new(scan);
        let totals = kp.totals_delta;
        if let Some(s) = sink {
            s.begin_clique_kernel(vec![v.name.clone()], "specialized", kp.name);
        }

        // The exchange: last round's task outputs as they are, `[src][dst]`.
        // Task `part` merges `pending[src][part]` for every `src` in order —
        // the order concatenating them would produce.
        let mut pending = Arc::new(vec![base.clone()]);
        let mut round: u32 = 0;
        // Reset-and-rerun recovery (the decomposed path's model): dense slabs
        // take no round-boundary snapshots, but the base items are immutable,
        // so a lost stage wipes the state and restarts from round 0.
        let mut reruns_left = if self.config.checkpoint_interval > 0 {
            RESTORE_BUDGET
        } else {
            0
        };
        let mut gov_charge: u64 = 0;
        let (iterations, total_rows) = loop {
            self.check_cancel()?;
            round += 1;
            if round > self.config.max_iterations {
                return Err(EngineError::NonTermination {
                    view: v.name.clone(),
                    iterations: self.config.max_iterations,
                });
            }
            Metrics::add(&self.cluster.metrics.iterations, 1);
            let round_t0 = Instant::now();
            let tasks: Vec<StageTask<ScanTaskOut<S::Item>>> = (0..p)
                .map(|part| {
                    let pending = Arc::clone(&pending);
                    let parts = Arc::clone(&parts);
                    let bc = Arc::clone(&bc);
                    let scan = Arc::clone(&scan);
                    StageTask::new(part % self.cluster.workers(), move |w| {
                        let mut guard = parts[part].lock();
                        let (slab, combiner) = &mut *guard;
                        for src in pending.iter() {
                            for &item in &src[part] {
                                slab.merge(item, round - 1);
                            }
                        }
                        let delta = slab.take_delta(totals);
                        (delta.len() as u64, scan(bc.on_worker(w), &delta, combiner))
                    })
                })
                .collect();
            let results = match self.cluster.run_stage_traced(
                sink,
                "fixpoint kernel",
                StageKind::Combined,
                tasks,
            ) {
                Ok(r) => r,
                Err(e) => {
                    if reruns_left == 0 {
                        return Err(EngineError::Exec(e));
                    }
                    reruns_left -= 1;
                    for part in parts.iter() {
                        part.lock().0.clear();
                    }
                    pending = Arc::new(vec![base.clone()]);
                    round = 0;
                    Metrics::add(&self.cluster.metrics.restores, 1);
                    if let Some(s) = sink {
                        s.record_recovery(RecoveryEvent {
                            kind: RecoveryKind::Restore,
                            stage: v.name.clone(),
                            round: 0,
                            detail: format!("kernel state reset to empty; rerunning after: {e}"),
                        });
                    }
                    continue;
                }
            };

            let delta_rows: u64 = results.iter().map(|(n, _)| *n).sum();
            let (mut total_rows, mut footprint) = (0u64, 0u64);
            for part in parts.iter() {
                let guard = part.lock();
                total_rows += guard.0.len() as u64;
                footprint += guard.0.size_bytes() + guard.1.size_bytes();
            }
            if let Some(g) = self.eval.governor {
                // Dense slabs are the kernel's resident state: keep the
                // tracker's charge equal to their current footprint.
                if footprint >= gov_charge {
                    g.tracker().charge(footprint - gov_charge);
                } else {
                    g.tracker().release(gov_charge - footprint);
                }
                gov_charge = footprint;
            }
            // The driver moves nothing: it only counts what crosses workers.
            // (A closing round — every partition merged an empty delta —
            // scanned nothing, so it counts zero.)
            let (mut moved_rows, mut moved_bytes) = (0u64, 0u64);
            let item_bytes = std::mem::size_of::<S::Item>() as u64;
            for (src_part, (_, out)) in results.iter().enumerate() {
                for (dst_part, items) in out.iter().enumerate() {
                    if self.cluster.owner_of(src_part) != self.cluster.owner_of(dst_part) {
                        moved_rows += items.len() as u64;
                        moved_bytes += items.len() as u64 * item_bytes;
                    }
                }
            }
            Metrics::add(&self.cluster.metrics.shuffle_rows, moved_rows);
            Metrics::add(&self.cluster.metrics.shuffle_bytes, moved_bytes);
            if let Some(s) = sink {
                s.record_iteration(IterationTrace {
                    round,
                    delta_rows,
                    total_rows,
                    stages: 1,
                    shuffle_rows: moved_rows,
                    shuffle_bytes: moved_bytes,
                    elapsed_us: round_t0.elapsed().as_micros() as u64,
                });
            }
            if delta_rows == 0 {
                break (round - 1, total_rows);
            }
            pending = Arc::new(results.into_iter().map(|(_, out)| out).collect());
        };
        if let Some(g) = self.eval.governor {
            g.tracker().release(gov_charge);
        }
        if let Some(s) = sink {
            s.end_clique(iterations);
        }

        // Materialize: a vertex is occupied only in its owner partition.
        let mut rows: Vec<Row> = Vec::with_capacity(total_rows as usize);
        for part in parts.iter() {
            materialise(csr, &part.lock().0, &mut rows);
        }
        Ok(FixpointResult {
            views: vec![Relation::new_unchecked(v.schema.clone(), rows)],
            iterations,
        })
    }
}

/// What a kernel scan task returns: the delta row count it consumed plus its
/// combined contributions, bucketed by destination partition.
type ScanTaskOut<I> = (u64, Vec<Vec<I>>);

/// A kernel's base-case seeds resolved to a graph's dense ids:
/// `(vertex, aggregate bits)`.
type DenseSeeds = Vec<(u32, u64)>;

/// One input partition's share of a kernel's base case: typed seeds in
/// first-occurrence order, exact duplicates dropped.
#[derive(Default)]
struct SeedFold {
    seen: FxHashSet<(i64, u64)>,
    seeds: Vec<(i64, u64)>,
    /// A tuple's key was not `Int`, or its aggregate not of the slab's type.
    mistyped: bool,
}

impl SeedFold {
    /// The fold's sink: one borrowed base tuple, checked and kept as
    /// `(key, aggregate bits)` — `agg` names the aggregate column and the
    /// slab's scalar type, `None` for a set kernel.
    fn push_seed(&mut self, tuple: &[Value], key_col: usize, agg: Option<(usize, KernelScalar)>) {
        let bits = match agg {
            None => Some(0),
            Some((c, KernelScalar::I64)) => i64::from_value(&tuple[c]).map(KernelValue::to_bits),
            Some((c, KernelScalar::F64)) => f64::from_value(&tuple[c]).map(KernelValue::to_bits),
        };
        match (&tuple[key_col], bits) {
            (Value::Int(k), Some(bits)) => {
                if self.seen.insert((*k, bits)) {
                    self.seeds.push((*k, bits));
                }
            }
            _ => self.mistyped = true,
        }
    }
}

// --------------------------------------------------------------------
// Map-side evaluation
// --------------------------------------------------------------------

/// Run all branch pipelines over one partition's deltas; returns contributions
/// bucketed per (target view, target partition).
fn map_task(
    views: &[ViewRt],
    branches: &[CompiledBranch],
    deltas: &[&DeltaBatch],
    snapshots: &[Option<Arc<HashTable>>],
    part: usize,
    worker: usize,
    fused: bool,
) -> Buckets {
    let p = views[0].state.len();
    let mut buckets = empty_buckets(views.len(), p);
    let mut op_index = 0usize;
    for b in branches {
        let op_base = op_index;
        op_index += b.ops.len();
        let delta = deltas[b.driver];
        if delta.is_empty() {
            continue;
        }
        let input = delta.reader_rows(b.driver_value_mode, &views[b.driver].agg_cols);
        let target = &views[b.target];
        let mut partial = Partial::new(target);
        let sink = &mut |t: &[Value]| partial.push(t);
        run_branch(b, &input, snapshots, op_base, part, worker, fused, sink);
        for row in partial.finish() {
            let dst = target.partition_of(&row, p);
            buckets[b.target][dst].push(row);
        }
    }
    buckets
}

/// Execute one compiled branch over input rows, lending every contribution —
/// a tuple of the target view's schema shape — to `sink`. `part ==
/// usize::MAX` means "no co-partitioned builds exist" (decomposed mode).
#[allow(clippy::too_many_arguments)]
fn run_branch(
    b: &CompiledBranch,
    input: &[Row],
    snapshots: &[Option<Arc<HashTable>>],
    op_base: usize,
    part: usize,
    worker: usize,
    fused: bool,
    sink: &mut impl FnMut(&[Value]),
) {
    // A leading sort-merge join (if any) is executed eagerly; the remaining
    // operators run as a (fused or unfused) pipeline.
    let mut current: Option<Vec<Row>> = None;
    let mut start = 0usize;
    for (i, op) in b.ops.iter().enumerate() {
        match op {
            CompiledOp::Filter(keep) => {
                // Only pre-execute filters that precede a sort-merge join.
                if b.ops[i..].iter().any(|o| {
                    matches!(
                        o,
                        CompiledOp::Join(CompiledStep {
                            build: BuildSide::PartitionedSorted(_),
                            ..
                        })
                    )
                }) {
                    let rows = current.get_or_insert_with(|| input.to_vec());
                    rows.retain(|r| keep(r.values()));
                    start = i + 1;
                } else {
                    break;
                }
            }
            CompiledOp::Join(CompiledStep {
                build: BuildSide::PartitionedSorted(runs),
                stream_keys,
                ..
            }) => {
                let probe_cols: Vec<usize> = stream_keys
                    .iter()
                    .map(|e| match e {
                        PExpr::Col(c) => *c,
                        _ => unreachable!("co-partitioned keys are plain columns"),
                    })
                    .collect();
                let mut probe = current.take().unwrap_or_else(|| input.to_vec());
                let mut out = Vec::new();
                merge_join(&mut probe, &probe_cols, &runs[part], |r| out.push(r));
                current = Some(out);
                start = i + 1;
            }
            CompiledOp::Join(_) => break,
        }
    }

    let mut steps: Vec<PipelineStep> = Vec::new();
    for (i, op) in b.ops.iter().enumerate().skip(start) {
        let cs = match op {
            CompiledOp::Filter(keep) => {
                steps.push(PipelineStep::Filter(Arc::clone(keep)));
                continue;
            }
            CompiledOp::Join(cs) => cs,
        };
        let table = match &cs.build {
            BuildSide::Partitioned(tables) => &tables[part],
            BuildSide::PartitionedSorted(_) => unreachable!("sorted joins executed eagerly above"),
            BuildSide::Replicated(bc) => bc.on_worker(worker),
            BuildSide::Recursive { .. } => snapshots[op_base + i]
                .as_ref()
                // lint: allow(RL0002, snapshot pass above fills every Recursive slot)
                .expect("snapshot built for recursive build side"),
        };
        steps.push(PipelineStep::HashJoin {
            table: Arc::clone(table),
            key: Arc::clone(&cs.key),
        });
    }
    let pipeline = Pipeline::with_project(steps, Arc::clone(&b.emit));
    let input_rows: &[Row] = current.as_deref().unwrap_or(input);
    if fused {
        pipeline.for_each(input_rows, sink);
    } else {
        for row in run_unfused(input_rows, &pipeline) {
            sink(row.values());
        }
    }
}

fn assemble_row(key: &[Value], aggs: &[Value], key_cols: &[usize], agg_cols: &[usize]) -> Row {
    let arity = key_cols.len() + agg_cols.len();
    let mut vals = vec![Value::Null; arity];
    for (i, &c) in key_cols.iter().enumerate() {
        vals[c] = key[i].clone();
    }
    for (j, &c) in agg_cols.iter().enumerate() {
        vals[c] = aggs[j].clone();
    }
    Row::new(vals)
}

/// Duplicate elimination in first-occurrence order that allocates a tuple
/// once, when it is first seen: the map holds the only copy of each row
/// beside its sequence number, and `finish` moves the rows out in order.
#[derive(Default)]
struct Distinct(FxHashMap<Row, usize>);

impl Distinct {
    fn push(&mut self, tuple: &[Value]) {
        if !self.0.contains_key(tuple) {
            // lint: allow(RL0007, the one copy of a tuple seen for the first time)
            self.0.insert(Row::from_slice(tuple), self.0.len());
        }
    }

    fn push_row(&mut self, row: Row) {
        let next = self.0.len();
        self.0.entry(row).or_insert(next);
    }

    fn finish(self) -> Vec<Row> {
        let mut rows = vec![Row::unit(); self.0.len()];
        for (row, at) in self.0 {
            rows[at] = row;
        }
        rows
    }
}

/// Map-side partial aggregation / dedup before the shuffle (Algorithm 5), fed
/// one borrowed schema-shaped tuple at a time.
enum Partial<'a> {
    /// Set views — and views with a distinct-tuple column, which must be
    /// deduplicated globally at the reducer: locally we may only drop
    /// *identical* tuples (idempotent), not merge.
    Distinct(Distinct),
    /// One tuple per group key, its aggregate columns merged in place.
    Groups {
        target: &'a ViewRt,
        groups: FxHashMap<Box<[Value]>, Vec<Value>>,
        key: Vec<Value>,
    },
}

impl<'a> Partial<'a> {
    fn new(target: &'a ViewRt) -> Self {
        if target.is_set() || target.modes.contains(&CountMode::DistinctTuple) {
            Partial::Distinct(Distinct::default())
        } else {
            Partial::Groups {
                target,
                groups: FxHashMap::default(),
                key: Vec::new(),
            }
        }
    }

    fn push(&mut self, tuple: &[Value]) {
        match self {
            Partial::Distinct(seen) => seen.push(tuple),
            Partial::Groups {
                target,
                groups,
                key,
            } => {
                key.clear();
                key.extend(target.spec.key_cols.iter().map(|&c| tuple[c].clone()));
                match groups.get_mut(&key[..]) {
                    None => {
                        // lint: allow(RL0007, the one copy of a group seen for the first time)
                        groups.insert(key[..].into(), tuple.to_vec());
                    }
                    Some(cur) => {
                        for (op, &c) in target.ops.iter().zip(&target.agg_cols) {
                            op.merge(&mut cur[c], &tuple[c]);
                        }
                    }
                }
            }
        }
    }

    fn finish(self) -> Vec<Row> {
        match self {
            Partial::Distinct(seen) => seen.finish(),
            Partial::Groups { groups, .. } => groups.into_values().map(Row::new).collect(),
        }
    }
}

// --------------------------------------------------------------------
// Reduce-side merge
// --------------------------------------------------------------------

/// Merge schema-shaped contributions into one partition's state; returns the
/// delta batch (stamped `round`).
fn merge_partition(v: &ViewRt, part: usize, contributions: Vec<Row>, round: u32) -> DeltaBatch {
    let mut state = v.state[part].lock();
    merge_into_state(v, &mut state, contributions, round)
}

fn merge_into_state(
    v: &ViewRt,
    state: &mut ViewState,
    contributions: Vec<Row>,
    round: u32,
) -> DeltaBatch {
    let mut merge = Merge::new(v, state, round);
    for row in contributions {
        merge.push_row(row);
    }
    merge.finish()
}

/// One round's merge into one partition's state, fed borrowed schema-shaped
/// tuples: a tuple becomes a row only when the state finds it new.
struct Merge<'a> {
    v: &'a ViewRt,
    state: &'a mut ViewState,
    round: u32,
    delta: DeltaBatch,
    /// Changed groups; delta rows are assembled after all merges so a group
    /// appears once per round with its final totals.
    changed: FxHashSet<Box<[Value]>>,
    /// Whether a column counts distinct tuples, so every contribution must
    /// first pass the state's contributor set.
    dedup: bool,
    key: Vec<Value>,
    vals: Vec<Value>,
}

impl<'a> Merge<'a> {
    fn new(v: &'a ViewRt, state: &'a mut ViewState, round: u32) -> Self {
        let distinct = |j: usize| {
            v.modes[j] == CountMode::DistinctTuple
                && matches!(v.funcs[j], AggFunc::Count | AggFunc::Sum)
        };
        Merge {
            v,
            state,
            round,
            delta: DeltaBatch::default(),
            changed: FxHashSet::default(),
            dedup: (0..v.funcs.len()).any(distinct),
            key: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Merge an owned contribution: a row that is new to a set state moves
    /// into it (the delta gets the one copy); an aggregate state only reads.
    fn push_row(&mut self, row: Row) {
        match &mut *self.state {
            ViewState::Set(s) => self.delta.rows.extend(s.insert_cloned(row, self.round)),
            ViewState::Agg(_) => self.push(row.values()),
        }
    }

    fn push(&mut self, tuple: &[Value]) {
        let v = self.v;
        match &mut *self.state {
            ViewState::Set(s) => {
                if s.insert_slice(tuple, self.round) {
                    // lint: allow(RL0007, the delta's copy of a tuple the state found new)
                    self.delta.rows.push(Row::from_slice(tuple));
                }
            }
            ViewState::Agg(a) => {
                self.key.clear();
                self.key
                    .extend(v.spec.key_cols.iter().map(|&c| tuple[c].clone()));
                self.vals.clear();
                for (j, &c) in v.agg_cols.iter().enumerate() {
                    let counted =
                        (v.funcs[j], v.modes[j]) == (AggFunc::Count, CountMode::DistinctTuple);
                    self.vals.push(if counted {
                        Value::Int(1)
                    } else {
                        tuple[c].clone()
                    });
                }
                let dedup_tuple = self.dedup.then_some(tuple);
                if a.merge_in_place(&self.key, &self.vals, &v.ops, self.round, dedup_tuple)
                    && !self.changed.contains(&self.key[..])
                {
                    self.changed.insert(self.key[..].into());
                }
            }
        }
    }

    fn finish(mut self) -> DeltaBatch {
        let (v, round) = (self.v, self.round);
        let ViewState::Agg(a) = self.state else {
            return self.delta;
        };
        for key in self.changed {
            if let Some(totals) = a.get(&key) {
                let prev = a.get_before(&key, round);
                let increments: Box<[Value]> = v
                    .ops
                    .iter()
                    .enumerate()
                    .map(|(j, op)| match (op, prev) {
                        (MonotoneOp::Sum, Some(p)) => totals[j].sub(&p[j]),
                        _ => totals[j].clone(),
                    })
                    .collect();
                self.delta
                    .rows
                    .push(assemble_row(&key, totals, &v.spec.key_cols, &v.agg_cols));
                self.delta.increments.push(increments);
            }
        }
        self.delta
    }
}

/// An empty partition state of the view's kind.
fn empty_state(v: &ViewSpec) -> ViewState {
    if v.aggs.is_empty() {
        ViewState::Set(SetState::new())
    } else {
        ViewState::Agg(AggState::new())
    }
}

/// Pending contributions regrouped for the merge tasks: `[partition][view]`
/// rows, so each task owns what it merges.
fn by_partition(contributions: Buckets, p: usize) -> Vec<Vec<Vec<Row>>> {
    let mut out: Vec<Vec<Vec<Row>>> = (0..p).map(|_| Vec::new()).collect();
    for per_view in contributions {
        for (part, rows) in per_view.into_iter().enumerate() {
            out[part].push(rows);
        }
    }
    out
}

/// Freshly-allocated empty contribution buckets (`nv` views × `p` partitions).
fn empty_buckets(nv: usize, p: usize) -> Buckets {
    (0..nv)
        .map(|_| (0..p).map(|_| Vec::new()).collect())
        .collect()
}

/// Estimated heap footprint of pending contribution buckets (per-row payload
/// plus container overhead — the same estimate the shuffle exchange uses).
fn buckets_bytes(buckets: &Buckets) -> u64 {
    buckets
        .iter()
        .flatten()
        .flatten()
        .map(|r| r.size_bytes() as u64 + 16)
        .sum()
}

/// Estimated heap footprint of every partition's fixpoint state.
fn state_size_bytes(views: &[ViewRt]) -> u64 {
    views
        .iter()
        .flat_map(|v| v.state.iter())
        .map(|cell| match &*cell.lock() {
            ViewState::Set(s) => s.size_bytes(),
            ViewState::Agg(a) => a.size_bytes(),
        })
        .sum()
}

/// Read back everything [`FixpointExecutor::govern_round_footprint`] paged
/// out at the previous round boundary: spilled contribution rows are appended
/// back in their original order (the spill row codec preserves it), and
/// paged-out state partitions are decoded from their checkpoint-codec blobs.
fn page_in(
    g: &QueryGovernor,
    views: &[ViewRt],
    contributions: &mut Buckets,
    paged_contribs: &mut Vec<(usize, usize, String)>,
    paged_state: &mut Vec<(usize, usize, String)>,
) -> Result<(), EngineError> {
    if paged_contribs.is_empty() && paged_state.is_empty() {
        return Ok(());
    }
    let dir = g.spill_dir()?;
    for (vi, part, name) in paged_contribs.drain(..) {
        let mut rows = dir.take_rows(&name).map_err(EngineError::Exec)?;
        rows.append(&mut contributions[vi][part]);
        contributions[vi][part] = rows;
    }
    for (vi, part, name) in paged_state.drain(..) {
        let blob = dir.take_blob(&name).map_err(EngineError::Exec)?;
        let v = &views[vi];
        *v.state[part].lock() = if v.is_set() {
            ViewState::Set(decode_set_state(Bytes::from(blob))?)
        } else {
            ViewState::Agg(decode_agg_state(Bytes::from(blob))?)
        };
    }
    Ok(())
}

/// Comma-joined view names — the `stage` label for clique-scoped recovery
/// events.
fn clique_label(views: &[ViewRt]) -> String {
    views
        .iter()
        .map(|v| v.spec.name.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

/// Fetch a checkpoint entry that must exist (it was captured this run).
fn checkpoint_entry(store: &CheckpointStore, key: &str) -> Result<Bytes, EngineError> {
    store.get(key)?.ok_or_else(|| {
        EngineError::Other(format!("checkpoint entry '{key}' missing from the store"))
    })
}

/// Rows currently held in one partition's state.
fn state_len(state: &ViewState) -> usize {
    match state {
        ViewState::Set(s) => s.len(),
        ViewState::Agg(a) => a.len(),
    }
}

/// Total rows across every partition of every view in the clique.
fn total_state_rows(views: &[ViewRt]) -> u64 {
    views
        .iter()
        .map(|v| {
            v.state
                .iter()
                .map(|m| state_len(&m.lock()) as u64)
                .sum::<u64>()
        })
        .sum()
}

fn state_rows(v: &ViewRt, state: &ViewState) -> Vec<Row> {
    match state {
        ViewState::Set(s) => s.iter().cloned().collect(),
        ViewState::Agg(a) => a
            .iter()
            .map(|(k, e)| assemble_row(k, &e.values, &v.spec.key_cols, &v.agg_cols))
            .collect(),
    }
}

/// The branch's co-partitioned base build side, if it has one — `(step,
/// plan, build keys)`: its first join, when that joins a base plan, the delta
/// arrives partitioned on exactly the probe key, and the view is not
/// decomposed. Every other base build side is broadcast.
fn co_partitioned_build<'p>(
    prog: &'p BranchProgram,
    driver: &ViewRt,
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
        )) if !driver.decomposed
            && !build_keys.is_empty()
            && stream_keys_match(stream_keys, &driver.partition_key) =>
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
