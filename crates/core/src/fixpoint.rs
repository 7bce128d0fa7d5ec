//! The fixpoint operator: distributed semi-naive evaluation with
//! aggregates-in-recursion (paper §6, §7).
//!
//! One executor evaluates one recursive clique, and one loop —
//! `FixpointExecutor::drive` — runs its rounds. What a round *does* is a
//! `RoundStep`: semi-naive (Algorithm 4/5, separate Map and Reduce stages, or
//! the optimized Algorithm 6, one combined ShuffleMap stage, per
//! `EngineConfig::stage_combination`), naive (Algorithm 2), decomposed (§7.2:
//! per-partition local fixpoints against broadcast base relations with *zero*
//! per-iteration global stages) or a dense kernel (§7.3).
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
    StageTask, SumOp,
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
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// One partition's local fixpoint: a `(delta rows consumed, state rows after
/// merge, wall-clock µs)` triple per local round, and the final state size.
type LocalRounds = (Vec<(u64, u64, u64)>, u64);

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

impl ViewState {
    /// An empty partition state of the view's kind.
    fn empty(v: &ViewSpec) -> ViewState {
        if v.aggs.is_empty() {
            ViewState::Set(SetState::new())
        } else {
            ViewState::Agg(AggState::new())
        }
    }

    /// Rows held.
    fn len(&self) -> usize {
        match self {
            ViewState::Set(s) => s.len(),
            ViewState::Agg(a) => a.len(),
        }
    }

    /// Estimated heap footprint.
    fn size_bytes(&self) -> u64 {
        match self {
            ViewState::Set(s) => s.size_bytes(),
            ViewState::Agg(a) => a.size_bytes(),
        }
    }

    /// This partition in the canonical checkpoint codec.
    fn encode(&self) -> Bytes {
        match self {
            ViewState::Set(s) => encode_set_state(s),
            ViewState::Agg(a) => encode_agg_state(a),
        }
    }

    /// The state [`ViewState::encode`] wrote for a view of `v`'s kind.
    fn decode(v: &ViewSpec, data: Bytes) -> Result<ViewState, EngineError> {
        Ok(if v.aggs.is_empty() {
            ViewState::Set(decode_set_state(data)?)
        } else {
            ViewState::Agg(decode_agg_state(data)?)
        })
    }

    /// Append the state's tuples to `out` as schema-shaped rows.
    fn extend_rows(&self, v: &ViewRt, out: &mut Vec<Row>) {
        match self {
            ViewState::Set(s) => out.extend(s.iter().cloned()),
            ViewState::Agg(a) => out.extend(
                a.iter()
                    .map(|(k, e)| assemble_row(k, &e.values, &v.spec.key_cols, &v.agg_cols)),
            ),
        }
    }
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

/// A hash-table snapshot of a recursive relation used as a join build side
/// (`None` in the slots of filters and base build sides).
type Snapshot = Option<Arc<HashTable>>;

// --------------------------------------------------------------------
// The round loop's interface to a strategy
// --------------------------------------------------------------------

/// What one [`RoundStep::step`] did, as the trace and the metrics see it.
struct Round {
    delta_rows: u64,
    total_rows: u64,
    stages: u64,
    shuffle_rows: u64,
    shuffle_bytes: u64,
    /// The strategy's own clock for the round, where the driver's would
    /// mislead (decomposed local rounds all run inside one stage).
    elapsed_us: Option<u64>,
    /// The round found nothing new: the fixpoint was reached the round
    /// before, and this one is not an iteration.
    closing: bool,
}

/// Why a step or a cut did not finish.
enum Halt {
    /// A stage was lost past its retry budget; the drain guarantee of
    /// `run_stage_traced` means no task still holds state, so
    /// [`FixpointExecutor::drive`] may rewind to the last cut and replay.
    Lost(ExecError),
    /// Anything else ends the query.
    Fatal(EngineError),
}

impl From<EngineError> for Halt {
    fn from(e: EngineError) -> Self {
        Halt::Fatal(e)
    }
}

/// One evaluation strategy as [`FixpointExecutor::drive`] sees it. A strategy
/// only evaluates: what surrounds a round — cancellation, the cap, the
/// checkpoint cadence, recovery, the governor's charge, metrics, the trace —
/// is the driver's.
trait RoundStep {
    /// `(view names, trace mode, kernel label)` of the clique.
    fn label(&self) -> (Vec<String>, &'static str, &'static str);

    /// Evaluate round `round`. `None`: there is no such round — the fixpoint
    /// was reached in `round - 1` and nothing is left to report.
    fn step(&mut self, round: u32) -> Result<Option<Round>, Halt>;

    /// Save the boundary after round `round` so that [`RoundStep::rewind`]
    /// can return to it; `false` when nothing was saved. The default is for
    /// a strategy that derives everything from an immutable base: the base
    /// is its round-0 cut, and it takes no other.
    fn cut(&mut self, round: u32) -> Result<bool, Halt> {
        Ok(round == 0)
    }

    /// After a lost stage, put the state back to the cut taken at `to`;
    /// returns what was done, for the recovery event.
    fn rewind(&mut self, to: u32) -> Result<String, EngineError>;

    /// Bring back whatever [`RoundStep::settle`] paged out: the coming round
    /// (and a cut before it) needs the whole state resident.
    fn page_in(&mut self, _g: &QueryGovernor) -> Result<(), EngineError> {
        Ok(())
    }

    /// Charge what stays resident until the next round to the query's
    /// tracker, paging out while that leaves it over budget; returns the
    /// bytes left charged.
    fn settle(&mut self, _g: &QueryGovernor, _round: u32) -> Result<u64, EngineError> {
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

    /// Run one traced stage of the round loop. An error means the stage is
    /// lost: the cluster has already spent the retry budget on it.
    fn stage<R: Send + 'static>(
        &self,
        label: &str,
        kind: StageKind,
        tasks: Vec<StageTask<R>>,
    ) -> Result<Vec<R>, Halt> {
        let run = self
            .cluster
            .run_stage_traced(self.eval.trace, label, kind, tasks);
        run.map_err(Halt::Lost)
    }

    /// Record a fault-tolerance or governance action on clique `stage`, if
    /// the query is traced.
    fn note(&self, kind: RecoveryKind, stage: String, round: u32, detail: String) {
        if let Some(t) = self.eval.trace {
            t.record_recovery(RecoveryEvent {
                kind,
                stage,
                round,
                detail,
            });
        }
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
        let clique = self.compile_clique(spec, &views)?;
        // The base cases: round-0 contributions.
        let base = self.base_buckets(spec, &views)?;
        let iterations = if views.iter().any(|v| v.decomposed) {
            self.drive(&mut Decomposed::new(clique, base), 0)?
        } else {
            match self.config.eval_mode {
                EvalMode::SemiNaive => self.drive(&mut SemiNaive::new(clique, base), 0)?,
                EvalMode::Naive => self.drive(&mut Naive::new(clique, base), 0)?,
            }
        };
        Ok(self.finish(&views, iterations))
    }

    /// Compile every recursive branch of the clique, in view order
    /// (evaluating and caching the base build sides).
    fn compile_clique<'e>(
        &'e self,
        spec: &FixpointSpec,
        views: &Arc<Vec<ViewRt>>,
    ) -> Result<Clique<'e, 'a>, EngineError> {
        let mut branches: Vec<CompiledBranch> = Vec::new();
        for (vi, v) in spec.views.iter().enumerate() {
            for prog in &v.recursive {
                branches.push(self.compile_branch(prog, views, vi)?);
            }
        }
        Ok(Clique {
            exec: self,
            views: Arc::clone(views),
            branches: Arc::new(branches),
        })
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
                    .map(|_| RankedMutex::new(LockRank::FixpointState, ViewState::empty(v)))
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

    /// Move the converged state into the result relations — nothing reads
    /// the state after the last round, so set rows are handed over, not
    /// copied.
    fn finish(&self, views: &[ViewRt], iterations: u32) -> FixpointResult {
        let views = views
            .iter()
            .map(|v| {
                let mut rows = Vec::new();
                for part in &v.state {
                    match std::mem::replace(&mut *part.lock(), ViewState::empty(&v.spec)) {
                        ViewState::Set(s) => rows.extend(s.into_rows()),
                        agg => agg.extend_rows(v, &mut rows),
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
        let clique = self.compile_clique(spec, &views)?;

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

        // Warm rows keep stamp 0 and the seeds merge at stamp 1, so the first
        // resumed round's old-snapshot cutoff selects exactly the warm rows.
        let iterations = self.drive(&mut SemiNaive::new(clique, base_buckets), 1)?;
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
    ) -> Result<(CompiledBranch, Vec<Snapshot>), EngineError> {
        let mut ops = Vec::with_capacity(prog.steps.len());
        let mut snaps: Vec<Snapshot> = Vec::with_capacity(prog.steps.len());
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
    // The round loop
    // ----------------------------------------------------------------

    /// The round loop — the only one. Everything that is not evaluation is
    /// written here, once: the trace's clique bracket, the boundary
    /// cancellation check, the governor's inter-round charge, the checkpoint
    /// cadence, recovery from a lost stage, the iteration cap, the iteration
    /// and shuffle metrics and the per-round trace record. Returns the
    /// iterations until the fixpoint.
    ///
    /// `start_round` is 0 for a run from the base case (stamped 0); a
    /// delta-seeded resume passes 1 so the warm state (stamped 0) stays
    /// distinct from the seeded contributions (merged at stamp 1).
    ///
    /// The cap: a fixpoint of `k` iterations succeeds iff `k <=
    /// max_iterations`. A closing round derives nothing and is not counted,
    /// so round `max_iterations + 1` may run — and fails the query only if
    /// it is not the closing one.
    fn drive(&self, s: &mut dyn RoundStep, start_round: u32) -> Result<u32, EngineError> {
        let sink = self.eval.trace;
        let metrics = &self.cluster.metrics;
        let (views, mode, kernel) = s.label();
        let clique = views.join(",");
        if let Some(t) = sink {
            t.begin_clique(views.clone(), mode, kernel);
        }
        let mut resident = Resident {
            governor: self.eval.governor,
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
        let iterations = loop {
            self.check_cancel()?;
            if let Some(g) = resident.governor {
                s.page_in(g)?;
                // The stages take ownership of the resident set now.
                g.tracker().release(std::mem::take(&mut resident.bytes));
            }
            let due = ckpt_every > 0 && round.is_multiple_of(ckpt_every) && last_cut != Some(round);
            let cut = if due { s.cut(round) } else { Ok(false) };
            let stepped = cut.and_then(|saved| {
                if saved {
                    last_cut = Some(round);
                    restores_left = RESTORE_BUDGET;
                }
                round += 1;
                let t0 = Instant::now();
                Ok((s.step(round)?, t0))
            });
            let (r, t0) = match stepped {
                Ok((Some(r), t0)) => (r, t0),
                Ok((None, _)) => break round - 1,
                Err(Halt::Fatal(e)) => return Err(e),
                Err(Halt::Lost(e)) => {
                    let (Some(at), 1..) = (last_cut, restores_left) else {
                        return Err(EngineError::Exec(e));
                    };
                    restores_left -= 1;
                    let done = s.rewind(at)?;
                    Metrics::add(&metrics.restores, 1);
                    let detail = format!("{done} after: {e}");
                    self.note(RecoveryKind::Restore, clique.clone(), at, detail);
                    round = at;
                    continue;
                }
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
                });
            }
            if r.closing {
                break round - 1;
            }
            if round > self.config.max_iterations {
                return Err(EngineError::NonTermination {
                    view: views[0].clone(),
                    iterations: self.config.max_iterations,
                });
            }
            if let Some(g) = resident.governor {
                resident.bytes = s.settle(g, round)?;
            }
        };
        if let Some(t) = sink {
            t.end_clique(iterations);
        }
        Ok(iterations)
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
                self.run_dense::<DenseSetState, ()>(v, kp, &csr, &seeds, scan, materialise)
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

    /// The aggregate kernels: [`FixpointExecutor::run_dense`] over
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
        self.run_dense::<DenseAggState<T>, Op>(v, kp, csr, seeds, scan, materialise)
            .map(Some)
    }

    /// A kernel-selected clique, dense from its seeds to its rows: bucket the
    /// seeds, broadcast the graph once, drive [`Dense`] to the fixpoint and
    /// materialise the slabs. `scan` and `materialise` are all that differs
    /// between kernels.
    fn run_dense<S, Op>(
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
        let graph = Arc::clone(csr);
        let bc = Broadcast::distribute_traced(
            self.cluster,
            self.eval.trace,
            csr.size_bytes(),
            move |_w| Arc::clone(&graph),
            self.eval.governor,
        )?;
        let mut dense = Dense {
            exec: self,
            view: v.name.clone(),
            kernel: kp.name,
            totals: kp.totals_delta,
            scan: Arc::new(scan),
            bc: Arc::new(bc),
            pending: Arc::new(vec![base.clone()]),
            base,
            parts: Arc::new(
                (0..p)
                    .map(|_| {
                        RankedMutex::new(LockRank::FixpointState, (S::new(n), Combiner::new(n)))
                    })
                    .collect(),
            ),
            op: PhantomData::<Op>,
        };
        let iterations = self.drive(&mut dense, 0)?;

        // Materialize: a vertex is occupied only in its owner partition.
        let total: usize = dense.parts.iter().map(|part| part.lock().0.len()).sum();
        let mut rows: Vec<Row> = Vec::with_capacity(total);
        for part in dense.parts.iter() {
            materialise(csr, &part.lock().0, &mut rows);
        }
        Ok(FixpointResult {
            views: vec![Relation::new_unchecked(v.schema.clone(), rows)],
            iterations,
        })
    }
}

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
// The interpreter's strategies
// --------------------------------------------------------------------

/// What the three interpreter strategies evaluate: the clique's runtime
/// views (whose partitions hold the state) and its compiled branches.
struct Clique<'e, 'a> {
    exec: &'e FixpointExecutor<'a>,
    views: Arc<Vec<ViewRt>>,
    branches: Arc<Vec<CompiledBranch>>,
}

impl Clique<'_, '_> {
    fn names(&self) -> Vec<String> {
        self.views.iter().map(|v| v.spec.name.clone()).collect()
    }

    fn label(&self, mode: &'static str) -> (Vec<String>, &'static str, &'static str) {
        (self.names(), mode, "generic")
    }

    /// Comma-joined view names — the `stage` label of clique-scoped
    /// recovery events.
    fn name(&self) -> String {
        self.names().join(",")
    }

    /// Total rows across every partition of every view.
    fn total_rows(&self) -> u64 {
        let parts = self.views.iter().flat_map(|v| v.state.iter());
        parts.map(|cell| cell.lock().len() as u64).sum()
    }
}

/// Semi-naive evaluation (Algorithms 4/5, or 6 when `combine`): the state
/// lives in the views' partitions, and `pending` holds the contributions the
/// next round merges — base-case results first. A delta-seeded resume is this
/// strategy over preloaded partitions, driven from round 1.
struct SemiNaive<'e, 'a> {
    c: Clique<'e, 'a>,
    /// Stage combination fuses the reduce of round r with the map of round
    /// r+1 — sound only when no branch reads old/new snapshots of another
    /// recursive relation (those need the merge barrier).
    combine: bool,
    pending: Buckets,
    /// Between rounds every partition's state plus `pending` form a
    /// consistent cut (see `rasql_exec::checkpoint`): that is what is saved.
    store: CheckpointStore,
    /// What `settle` paged out to the governor's spill directory, read back
    /// by `page_in`: `(view, partition, file)`.
    paged_pending: Vec<(usize, usize, String)>,
    paged_state: Vec<(usize, usize, String)>,
}

impl<'e, 'a> SemiNaive<'e, 'a> {
    fn new(c: Clique<'e, 'a>, base: Buckets) -> Self {
        let combine =
            c.exec.config.stage_combination && c.branches.iter().all(|b| !b.uses_recursive_build);
        SemiNaive {
            c,
            combine,
            pending: base,
            store: CheckpointStore::memory(),
            paged_pending: Vec::new(),
            paged_state: Vec::new(),
        }
    }
}

impl RoundStep for SemiNaive<'_, '_> {
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        self.c.label(if self.combine {
            "semi_naive_combined"
        } else {
            "semi_naive"
        })
    }

    fn step(&mut self, round: u32) -> Result<Option<Round>, Halt> {
        let exec = self.c.exec;
        let (p, workers) = (exec.config.partitions, exec.cluster.workers());
        // The round's two halves, each run on the partition it names. Merge:
        // fold the pending contributions into the state, stamped with the
        // delta's round (Algorithm 4 lines 11-16). Map: join the fresh delta
        // through every branch and partially aggregate (lines 6-9 / Alg. 5).
        let merge = {
            let views = Arc::clone(&self.c.views);
            move |part: usize, mine: Vec<Vec<Row>>| -> Vec<DeltaBatch> {
                (views.iter().zip(mine))
                    .map(|(v, rows)| {
                        merge_into_state(v, &mut v.state[part].lock(), rows, round - 1)
                    })
                    .collect()
            }
        };
        let map = {
            let (views, branches) = (Arc::clone(&self.c.views), Arc::clone(&self.c.branches));
            let fused = exec.eval.fused;
            move |part: usize, deltas: &[DeltaBatch], snapshots: &[Snapshot], w: usize| {
                let delta_rows: u64 = deltas.iter().map(|d| d.rows.len() as u64).sum();
                let buckets = map_task(&views, &branches, deltas, snapshots, part, w, fused);
                (delta_rows, buckets)
            }
        };
        let fresh = empty_buckets(self.c.views.len(), p);
        let mine = by_partition(std::mem::replace(&mut self.pending, fresh), p);
        let mut stages = 1;
        let map_out: Vec<(u64, Buckets)> = if self.combine {
            // One combined ShuffleMap stage (Algorithm 6).
            let tasks = (mine.into_iter().enumerate())
                .map(|(part, rows)| {
                    let (merge, map) = (merge.clone(), map.clone());
                    StageTask::new(part % workers, move |w| {
                        map(part, &merge(part, rows), &[], w)
                    })
                })
                .collect();
            exec.stage("fixpoint combined", StageKind::Combined, tasks)?
        } else {
            let tasks = (mine.into_iter().enumerate())
                .map(|(part, rows)| {
                    let merge = merge.clone();
                    StageTask::new(part % workers, move |_w| merge(part, rows))
                })
                .collect();
            let merged: Vec<Vec<DeltaBatch>> =
                exec.stage("fixpoint reduce", StageKind::Reduce, tasks)?;
            if merged.iter().flatten().all(DeltaBatch::is_empty) {
                Vec::new()
            } else {
                stages = 2;
                // Old/new snapshots use the delta's stamp as cutoff.
                let views = &self.c.views;
                let snapshots = Arc::new(snapshots(&self.c.branches, |view, mode| {
                    state_snapshot(&views[view], mode, round - 1)
                }));
                let tasks = (merged.into_iter().enumerate())
                    .map(|(part, deltas)| {
                        let (map, snapshots) = (map.clone(), Arc::clone(&snapshots));
                        StageTask::new(part % workers, move |w| map(part, &deltas, &snapshots, w))
                    })
                    .collect();
                exec.stage("fixpoint map", StageKind::Map, tasks)?
            }
        };

        // Shuffle: gather the map outputs per (view, partition), counting
        // what crosses workers.
        let delta_rows: u64 = map_out.iter().map(|(n, _)| *n).sum();
        let (mut moved_rows, mut moved_bytes) = (0u64, 0u64);
        for (src_part, (_, buckets)) in map_out.into_iter().enumerate() {
            for (vi, per_view) in buckets.into_iter().enumerate() {
                for (dst_part, rows) in per_view.into_iter().enumerate() {
                    if exec.cluster.owner_of(src_part) != exec.cluster.owner_of(dst_part) {
                        moved_rows += rows.len() as u64;
                        moved_bytes += rows.iter().map(Row::size_bytes).sum::<usize>() as u64;
                    }
                    self.pending[vi][dst_part].extend(rows);
                }
            }
        }
        Ok(Some(Round {
            delta_rows,
            total_rows: self.c.total_rows(),
            stages,
            shuffle_rows: moved_rows,
            shuffle_bytes: moved_bytes,
            elapsed_us: None,
            // Every partition merged an empty delta.
            closing: delta_rows == 0,
        }))
    }

    /// Serialize every partition's state (as a traced cluster stage — the
    /// encode work runs where the state lives, and is itself subject to fault
    /// injection) plus the pending contributions (driver-side, it already
    /// holds them) into the store under `round`.
    fn cut(&mut self, round: u32) -> Result<bool, Halt> {
        let exec = self.c.exec;
        let p = exec.config.partitions;
        let tasks: Vec<StageTask<Vec<(String, Bytes)>>> = (0..p)
            .map(|part| {
                let views = Arc::clone(&self.c.views);
                StageTask::new(part % exec.cluster.workers(), move |_w| {
                    (views.iter().enumerate())
                        .map(|(vi, v)| {
                            let data = v.state[part].lock().encode();
                            (format!("r{round}/v{vi}/p{part}"), data)
                        })
                        .collect()
                })
            })
            .collect();
        let encoded = exec.stage("fixpoint checkpoint", StageKind::Checkpoint, tasks)?;
        let put = |key: &str, data: Bytes| self.store.put(key, data).map_err(EngineError::from);
        let mut bytes = 0u64;
        for (key, data) in encoded.into_iter().flatten() {
            bytes += put(&key, data)? as u64;
        }
        for (vi, per_view) in self.pending.iter().enumerate() {
            for (part, rows) in per_view.iter().enumerate() {
                let key = format!("r{round}/contrib/v{vi}/p{part}");
                bytes += put(&key, encode_rows(rows))? as u64;
            }
        }
        Metrics::add(&exec.cluster.metrics.checkpoints, 1);
        Metrics::add(&exec.cluster.metrics.checkpoint_bytes, bytes);
        let detail = format!("{bytes} B across {p} partitions");
        exec.note(RecoveryKind::Checkpoint, self.c.name(), round, detail);
        Ok(true)
    }

    /// Every partition's state and the pending contributions back to exactly
    /// what was captured at `to`.
    fn rewind(&mut self, to: u32) -> Result<String, EngineError> {
        let entry = |key: String| {
            self.store.get(&key)?.ok_or_else(|| {
                EngineError::Other(format!("checkpoint entry '{key}' missing from the store"))
            })
        };
        let mut bytes = 0u64;
        for (vi, v) in self.c.views.iter().enumerate() {
            for (part, pending) in self.pending[vi].iter_mut().enumerate() {
                let data = entry(format!("r{to}/v{vi}/p{part}"))?;
                bytes += data.len() as u64;
                *v.state[part].lock() = ViewState::decode(&v.spec, data)?;
                let data = entry(format!("r{to}/contrib/v{vi}/p{part}"))?;
                bytes += data.len() as u64;
                *pending = decode_rows(data)?;
            }
        }
        Ok(format!("replaying from round {to} ({bytes} B)"))
    }

    /// Spilled contribution rows go back in front of what was gathered since,
    /// in their original order (the spill row codec preserves it); paged-out
    /// partitions are decoded from their checkpoint-codec blobs.
    fn page_in(&mut self, g: &QueryGovernor) -> Result<(), EngineError> {
        if self.paged_pending.is_empty() && self.paged_state.is_empty() {
            return Ok(());
        }
        let dir = g.spill_dir()?;
        for (vi, part, name) in self.paged_pending.drain(..) {
            let mut rows = dir.take_rows(&name)?;
            rows.append(&mut self.pending[vi][part]);
            self.pending[vi][part] = rows;
        }
        for (vi, part, name) in self.paged_state.drain(..) {
            let blob = dir.take_blob(&name)?;
            let v = &self.c.views[vi];
            *v.state[part].lock() = ViewState::decode(&v.spec, Bytes::from(blob))?;
        }
        Ok(())
    }

    /// The resident set is the pending contribution buckets plus the
    /// all-relation state. Over budget it is paged out to the governor's
    /// spill directory — buckets first (order-preserving row codec, so the
    /// next merge replays contributions byte-for-byte), then per-partition
    /// state (canonical checkpoint codec).
    fn settle(&mut self, g: &QueryGovernor, round: u32) -> Result<u64, EngineError> {
        let exec = self.c.exec;
        let row_bytes = |r: &Row| r.size_bytes() as u64 + 16;
        let pending = self.pending.iter().flatten().flatten();
        let cells = self.c.views.iter().flat_map(|v| v.state.iter());
        let mut charge = pending.map(row_bytes).sum::<u64>()
            + cells.map(|cell| cell.lock().size_bytes()).sum::<u64>();
        g.tracker().charge(charge);
        if !g.tracker().over_budget() {
            return Ok(charge);
        }
        let dir = g.spill_dir()?;
        let (mut written, mut files) = (0u64, 0u64);
        let mut paged = |freed: u64| {
            files += 1;
            g.tracker().release(freed);
            charge = charge.saturating_sub(freed);
            !g.tracker().over_budget()
        };
        'page: {
            for (vi, per_view) in self.pending.iter_mut().enumerate() {
                for (part, rows) in per_view.iter_mut().enumerate() {
                    if rows.is_empty() {
                        continue;
                    }
                    let name = format!("contrib-r{round}-v{vi}-p{part}");
                    written += dir.append_rows(&name, rows)?;
                    let freed = rows.drain(..).map(|r| row_bytes(&r)).sum();
                    self.paged_pending.push((vi, part, name));
                    if paged(freed) {
                        break 'page;
                    }
                }
            }
            for (vi, v) in self.c.views.iter().enumerate() {
                for (part, cell) in v.state.iter().enumerate() {
                    let mut st = cell.lock();
                    let freed = st.size_bytes();
                    if freed == 0 {
                        continue;
                    }
                    let name = format!("state-r{round}-v{vi}-p{part}");
                    written += dir.write_blob(&name, st.encode().as_ref())?;
                    *st = ViewState::empty(&v.spec);
                    drop(st);
                    self.paged_state.push((vi, part, name));
                    if paged(freed) {
                        break 'page;
                    }
                }
            }
        }
        g.note_spill(written, files);
        Metrics::add(&exec.cluster.metrics.spilled_bytes, written);
        Metrics::add(&exec.cluster.metrics.spill_files, files);
        let detail = format!("paged out {written} B in {files} files (footprint over budget)");
        exec.note(RecoveryKind::Spill, self.c.name(), round, detail);
        Ok(charge)
    }
}

/// Naive evaluation (Algorithm 2 / the Spark-SQL-Naive baseline of Fig 10):
/// every round re-derives `base ∪ T(prev)` from the whole previous state and
/// rebuilds the partitions from scratch; there is no delta to consume.
struct Naive<'e, 'a> {
    c: Clique<'e, 'a>,
    base: Buckets,
    /// The previous round's full state as schema-shaped rows per
    /// (view, partition).
    prev: Arc<Buckets>,
}

impl<'e, 'a> Naive<'e, 'a> {
    fn new(c: Clique<'e, 'a>, base: Buckets) -> Self {
        let prev = Arc::new(empty_buckets(c.views.len(), c.exec.config.partitions));
        Naive { c, base, prev }
    }
}

impl RoundStep for Naive<'_, '_> {
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        self.c.label("naive")
    }

    fn step(&mut self, _round: u32) -> Result<Option<Round>, Halt> {
        let exec = self.c.exec;
        let p = exec.config.partitions;
        let views = &self.c.views;
        let snapshots = Arc::new(snapshots(&self.c.branches, |view, _| {
            self.prev[view].iter().flatten().cloned().collect()
        }));
        // Drivers read totals: the whole previous state is the "delta".
        let tasks: Vec<StageTask<Buckets>> = (0..p)
            .map(|part| {
                let prev = Arc::clone(&self.prev);
                let (views, branches) = (Arc::clone(views), Arc::clone(&self.c.branches));
                let snapshots = Arc::clone(&snapshots);
                let fused = exec.eval.fused;
                StageTask::new(part % exec.cluster.workers(), move |w| {
                    let deltas: Vec<DeltaBatch> = (views.iter().zip(prev.iter()))
                        .map(|(v, rows)| DeltaBatch {
                            rows: rows[part].clone(),
                            increments: (rows[part].iter())
                                .map(|r| v.agg_cols.iter().map(|&c| r[c].clone()).collect())
                                .collect(),
                        })
                        .collect();
                    map_task(&views, &branches, &deltas, &snapshots, part, w, fused)
                })
            })
            .collect();
        let map_out = exec.stage("fixpoint naive map", StageKind::Map, tasks)?;
        let mut contributions = self.base.clone();
        let mut derived_rows = 0u64;
        for buckets in map_out {
            for (vi, per_view) in buckets.into_iter().enumerate() {
                for (dst, rows) in per_view.into_iter().enumerate() {
                    derived_rows += rows.len() as u64;
                    contributions[vi][dst].extend(rows);
                }
            }
        }

        // Recompute state from scratch; compare with the previous round.
        let mut changed = false;
        let mut next = empty_buckets(views.len(), p);
        for (vi, v) in views.iter().enumerate() {
            for part in 0..p {
                let mut fresh = ViewState::empty(&v.spec);
                let rows = std::mem::take(&mut contributions[vi][part]);
                merge_into_state(v, &mut fresh, rows, 0);
                let mut rows = Vec::new();
                fresh.extend_rows(v, &mut rows);
                let mut sorted = rows.clone();
                sorted.sort_unstable();
                let mut old_sorted = self.prev[vi][part].clone();
                old_sorted.sort_unstable();
                changed |= sorted != old_sorted;
                next[vi][part] = rows;
                *v.state[part].lock() = fresh;
            }
        }
        self.prev = Arc::new(next);
        Ok(Some(Round {
            // Naive evaluation has no deltas: record the re-derivation
            // volume instead (the waste the SN ablation measures).
            delta_rows: if changed { derived_rows } else { 0 },
            total_rows: self.c.total_rows(),
            stages: 1,
            shuffle_rows: 0,
            shuffle_bytes: 0,
            elapsed_us: None,
            closing: !changed,
        }))
    }

    /// Every round rebuilds the partitions, so forgetting the previous state
    /// is the whole rewind.
    fn rewind(&mut self, _to: u32) -> Result<String, EngineError> {
        let (nv, p) = (self.c.views.len(), self.c.exec.config.partitions);
        self.prev = Arc::new(empty_buckets(nv, p));
        Ok("previous state forgotten; rerunning".into())
    }
}

/// Decomposed evaluation (§7.2): one stage runs every partition's local
/// fixpoint to the end — the preserved-column property keeps each derivation
/// in its partition, so there is no exchange and no per-round stage — and
/// the local histories are then reported one global round per step.
struct Decomposed<'e, 'a> {
    c: Clique<'e, 'a>,
    base: Arc<Buckets>,
    /// Every partition's local rounds; `None` until the stage has run.
    local: Option<Vec<LocalRounds>>,
}

impl<'e, 'a> Decomposed<'e, 'a> {
    fn new(c: Clique<'e, 'a>, base: Buckets) -> Self {
        debug_assert_eq!(c.views.len(), 1);
        Decomposed {
            c,
            base: Arc::new(base),
            local: None,
        }
    }

    /// Run the one stage. The whole local fixpoint runs inside it, so the
    /// cancellation token and the iteration cap travel into the task and are
    /// checked per local round; a task that gives up says why.
    fn local_fixpoints(&self) -> Result<Vec<LocalRounds>, Halt> {
        let exec = self.c.exec;
        let max_iter = exec.config.max_iterations;
        let fused = exec.eval.fused;
        let token = exec.eval.governor.map(|g| g.token().clone());
        let tasks = (0..exec.config.partitions)
            .map(|part| {
                let base = Arc::clone(&self.base);
                let (views, branches) = (Arc::clone(&self.c.views), Arc::clone(&self.c.branches));
                let token = token.clone();
                StageTask::new(part % exec.cluster.workers(), move |w| {
                    let v = &views[0];
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
                        // round's merge.
                        let mut merge = Merge::new(v, &mut state, iters);
                        for b in branches.iter() {
                            let input = delta.reader_rows(b.driver_value_mode, &v.agg_cols);
                            let sink = &mut |t: &[Value]| merge.push(t);
                            run_branch(b, &input, &[], 0, usize::MAX, w, fused, sink);
                        }
                        delta = merge.finish();
                        history.push((
                            consumed,
                            state.len() as u64,
                            round_t0.elapsed().as_micros() as u64,
                        ));
                    }
                    Ok((history, state.len() as u64))
                })
            })
            .collect();
        let results = exec.stage("fixpoint decomposed", StageKind::Decomposed, tasks)?;
        let mut local = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(history) => local.push(history),
                Err(LocalAbort::NonTermination) => {
                    // lint: allow(RL0009, a local fixpoint runs on a worker with only the token and the cap: this translates its report)
                    return Err(Halt::Fatal(EngineError::NonTermination {
                        view: self.c.views[0].spec.name.clone(),
                        iterations: max_iter,
                    }));
                }
                Err(LocalAbort::Cancelled) => {
                    // `check_cancel` re-derives the precise typed error
                    // (cancelled vs. deadline); the fallback covers a token
                    // that was somehow un-fired by the time we got here.
                    exec.check_cancel()?;
                    return Err(Halt::Fatal(EngineError::Exec(ExecError::Cancelled {
                        query_id: exec.eval.governor.map_or(0, QueryGovernor::query_id),
                    })));
                }
            }
        }
        Ok(local)
    }
}

impl RoundStep for Decomposed<'_, '_> {
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        self.c.label("decomposed")
    }

    fn step(&mut self, round: u32) -> Result<Option<Round>, Halt> {
        if self.local.is_none() {
            self.local = Some(self.local_fixpoints()?);
        }
        let local = self.local.as_deref().unwrap_or_default();
        let r = round as usize - 1;
        if local.iter().all(|(history, _)| history.len() <= r) {
            return Ok(None);
        }
        let (mut delta_rows, mut total_rows, mut elapsed_us) = (0u64, 0u64, 0u64);
        for (history, final_len) in local {
            match history.get(r) {
                Some(&(d, t, us)) => {
                    delta_rows += d;
                    total_rows += t;
                    // Partitions run their local rounds side by side, so a
                    // global round lasts as long as its slowest partition.
                    elapsed_us = elapsed_us.max(us);
                }
                // A partition past its own fixpoint keeps its final size.
                None => total_rows += final_len,
            }
        }
        Ok(Some(Round {
            delta_rows,
            total_rows,
            // Local rounds run inside the single decomposed stage: no
            // per-round stages and no shuffle (the §7.2 claim).
            stages: 0,
            shuffle_rows: 0,
            shuffle_bytes: 0,
            elapsed_us: Some(elapsed_us),
            closing: false,
        }))
    }

    /// There are no round boundaries to cut at — the entire local fixpoint is
    /// one stage — so the rewind wipes every partition and the stage runs
    /// again (sound because it derives everything from the immutable base).
    fn rewind(&mut self, _to: u32) -> Result<String, EngineError> {
        for part in &self.c.views[0].state {
            *part.lock() = ViewState::empty(&self.c.views[0].spec);
        }
        self.local = None;
        Ok("state reset to empty; rerunning".into())
    }
}

// --------------------------------------------------------------------
// The kernels' strategy (§7.3): CSR broadcast + dense state
// --------------------------------------------------------------------

/// A kernel's base-case seeds resolved to a graph's dense ids:
/// `(vertex, aggregate bits)`.
type DenseSeeds = Vec<(u32, u64)>;

/// The kernel rounds, written once over [`DenseState`]: semi-naive's
/// combined mode round for round — same iteration counting, same closing
/// round, same shuffle accounting for worker-crossing contributions — over
/// dense slabs and the broadcast CSR graph.
struct Dense<'e, 'a, S: DenseState<Op>, Op, F> {
    exec: &'e FixpointExecutor<'a>,
    view: String,
    kernel: &'static str,
    /// Whether a delta entry carries its vertex's total rather than the
    /// contribution that changed it (`KernelPlan::totals_delta`).
    totals: bool,
    scan: Arc<F>,
    bc: Arc<Broadcast<Arc<CsrGraph>>>,
    /// The base items by owner partition — immutable, which is what lets a
    /// rewind restart from them.
    base: Vec<Vec<S::Item>>,
    /// The exchange: last round's task outputs as they are, `[src][dst]`.
    pending: Arc<Vec<Vec<Vec<S::Item>>>>,
    parts: Arc<Vec<RankedMutex<(S, Combiner)>>>,
    op: PhantomData<Op>,
}

impl<S, Op, F> RoundStep for Dense<'_, '_, S, Op, F>
where
    S: DenseState<Op>,
    F: Fn(&CsrGraph, &[S::Item], &mut Combiner) -> Vec<Vec<S::Item>> + Send + Sync + 'static,
{
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        (vec![self.view.clone()], "specialized", self.kernel)
    }

    /// One combined stage: task `part` merges `pending[src][part]` for every
    /// `src` in order — the order concatenating them would produce — into its
    /// slab and scans the fresh delta against the graph, combining map-side
    /// (Algorithm 5).
    fn step(&mut self, round: u32) -> Result<Option<Round>, Halt> {
        let (exec, cluster, totals) = (self.exec, self.exec.cluster, self.totals);
        let tasks = (0..self.parts.len())
            .map(|part| {
                let pending = Arc::clone(&self.pending);
                let parts = Arc::clone(&self.parts);
                let bc = Arc::clone(&self.bc);
                let scan = Arc::clone(&self.scan);
                StageTask::new(part % cluster.workers(), move |w| {
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
        // Each task returns the delta rows it consumed and its combined
        // contributions, bucketed by destination partition.
        let results = exec.stage("fixpoint kernel", StageKind::Combined, tasks)?;

        let delta_rows: u64 = results.iter().map(|(n, _)| *n).sum();
        let total_rows = (self.parts.iter())
            .map(|part| part.lock().0.len() as u64)
            .sum();
        // The driver moves nothing: it only counts what crosses workers. (A
        // closing round scanned nothing, so it counts zero.)
        let (mut moved_rows, mut moved_bytes) = (0u64, 0u64);
        let item_bytes = std::mem::size_of::<S::Item>() as u64;
        for (src_part, (_, out)) in results.iter().enumerate() {
            for (dst_part, items) in out.iter().enumerate() {
                if cluster.owner_of(src_part) != cluster.owner_of(dst_part) {
                    moved_rows += items.len() as u64;
                    moved_bytes += items.len() as u64 * item_bytes;
                }
            }
        }
        self.pending = Arc::new(results.into_iter().map(|(_, out)| out).collect());
        Ok(Some(Round {
            delta_rows,
            total_rows,
            stages: 1,
            shuffle_rows: moved_rows,
            shuffle_bytes: moved_bytes,
            elapsed_us: None,
            // Every partition merged an empty delta.
            closing: delta_rows == 0,
        }))
    }

    /// Dense slabs take no round-boundary snapshots, but a lost stage leaves
    /// them half merged: wipe them and start again from the base items.
    fn rewind(&mut self, _to: u32) -> Result<String, EngineError> {
        for part in self.parts.iter() {
            part.lock().0.clear();
        }
        self.pending = Arc::new(vec![self.base.clone()]);
        Ok("kernel state reset to empty; rerunning".into())
    }

    /// The slabs and combiners are the resident state; they are charged,
    /// never paged.
    fn settle(&mut self, g: &QueryGovernor, _round: u32) -> Result<u64, EngineError> {
        let footprint = (self.parts.iter())
            .map(|part| {
                let guard = part.lock();
                guard.0.size_bytes() + guard.1.size_bytes()
            })
            .sum();
        g.tracker().charge(footprint);
        Ok(footprint)
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
    deltas: &[DeltaBatch],
    snapshots: &[Snapshot],
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
        let delta = &deltas[b.driver];
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
    snapshots: &[Snapshot],
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

/// The per-round snapshots of the recursive relations that branches use as
/// join build sides (mutual/non-linear recursion), one slot per compiled op;
/// `rows_of(view, mode)` supplies a relation's rows as the round sees them.
fn snapshots(
    branches: &[CompiledBranch],
    mut rows_of: impl FnMut(usize, RecAllMode) -> Vec<Row>,
) -> Vec<Snapshot> {
    let ops = branches.iter().flat_map(|b| &b.ops);
    ops.map(|op| match op {
        CompiledOp::Join(CompiledStep {
            build: BuildSide::Recursive { view, mode },
            build_keys,
            ..
        }) => {
            // lint: allow(RL0008, a per-round snapshot of a recursive relation, not of base data)
            let table = HashTable::build(&rows_of(*view, *mode), build_keys);
            Some(Arc::new(table))
        }
        _ => None,
    })
    .collect()
}

/// A view's rows as a semi-naive round whose delta is stamped `cutoff` reads
/// them: all of them (`New`), or the state before that delta was merged
/// (`Old`).
fn state_snapshot(v: &ViewRt, mode: RecAllMode, cutoff: u32) -> Vec<Row> {
    let mut rows = Vec::new();
    for part in &v.state {
        match (&*part.lock(), mode) {
            (state, RecAllMode::New) => state.extend_rows(v, &mut rows),
            (ViewState::Set(s), RecAllMode::Old) => rows.extend(s.iter_before(cutoff).cloned()),
            (ViewState::Agg(a), RecAllMode::Old) => rows.extend(a.iter().filter_map(|(key, _)| {
                let vals = a.get_before(key, cutoff)?;
                Some(assemble_row(key, vals, &v.spec.key_cols, &v.agg_cols))
            })),
        }
    }
    rows
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
