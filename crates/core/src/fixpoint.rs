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
//!
//! Tuple representation: the interpreter's strategies are written once over
//! a cell type (`Repr`). A clique whose every recursive column is `Int` or
//! `Double` runs on packed 8-byte words from its base case to its converged
//! state — typed probe → emit → merge, see `rasql_exec::tuples` — and on
//! `Value` cells otherwise, or when a value leaves its lane mid-run (the word
//! run is abandoned and the clique re-evaluated from the immutable base).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::config::{EngineConfig, EvalMode, JoinStrategy};
use crate::error::EngineError;
use crate::eval::{EvalContext, ViewData};
use crate::kernel::{select_kernel, KernelEdgeFn, KernelOp, KernelPlan, KernelScalar};
use rasql_exec::checkpoint::{
    decode_agg_state, decode_rows, decode_set_state, encode_agg_state, encode_rows,
    encode_set_state, Bytes, CheckpointStore,
};
use rasql_exec::join::SortedRun;
use rasql_exec::pipeline::{run_unfused_rows, Emitted, KeyFn, PredFn, Projection, BLOCK};
use rasql_exec::state::{AggState, MonotoneOp};
use rasql_exec::{
    cells_of, kinds_of, merge_join, partition_of, values_of, Block, Broadcast, Cell, Cluster,
    Combiner, DenseAggState, DenseSetState, DenseState, Escaped, ExecError, HashTable,
    IterationTrace, JoinTable, KernelValue, Lane, MaxOp, MergeOp, Metrics, MinOp, Pipeline,
    PipelineStep, QueryGovernor, RecoveryEvent, RecoveryKind, Scratch, SetState, StageKind,
    StageTask, SumOp, TupleSet, Tuples,
};
use rasql_parser::ast::AggFunc;
use rasql_plan::{
    BranchProgram, BranchStep, CountMode, DeltaValueMode, FixpointSpec, JoinBuild, LogicalPlan,
    PExpr, RecAllMode, ViewSpec, WordExpr, WordType,
};
use rasql_storage::codec::CompressedRelation;
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::{
    CsrGraph, FxHashSet, Index, IndexLayout, KeyIndex, Relation, Row, RowPatch, Schema, Value,
    WordShape, WordTable,
};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One partition's local fixpoint: a `(delta rows consumed, state rows after
/// merge, wall-clock µs)` triple per local round, and the final state size.
type LocalRounds = (Vec<(u64, u64, u64)>, u64);

/// Why a decomposed local fixpoint gave up mid-stage. Local rounds run
/// entirely inside one cluster stage, so every condition is detected on the
/// worker and reported back for the driver to act on.
#[derive(Clone, Copy)]
enum LocalAbort {
    /// Local rounds exceeded the iteration cap.
    NonTermination,
    /// The query's cancellation token fired (kill or deadline).
    Cancelled,
    /// A value left its word lane.
    Escaped,
}

impl From<Escaped> for LocalAbort {
    fn from(_: Escaped) -> Self {
        LocalAbort::Escaped
    }
}

/// How many times the fixpoint may restore from the *same* checkpoint before
/// giving up. The budget refills whenever a newer checkpoint is captured
/// (forward progress), so this only bounds repeated failures of one round —
/// a livelock guard, not a global retry cap.
const RESTORE_BUDGET: u32 = 8;

/// Result of evaluating a clique.
pub struct FixpointResult {
    /// Each view's converged tuples, in clique view order: lane batches when
    /// the clique ran on words or a kernel, rows when it ran on rows.
    pub views: Vec<ViewData>,
    /// Iterations until the fixpoint (max over partitions for decomposed
    /// evaluation).
    pub iterations: u32,
}

/// Why a run of the interpreter on one tuple representation ended without a
/// result.
enum Stop {
    /// A value left its word lane: nothing of the run is kept, and the
    /// clique is evaluated again on value cells.
    Escaped,
    Failed(EngineError),
}

impl From<Escaped> for Stop {
    fn from(_: Escaped) -> Self {
        Stop::Escaped
    }
}

impl From<EngineError> for Stop {
    fn from(e: EngineError) -> Self {
        Stop::Failed(e)
    }
}

// --------------------------------------------------------------------
// The two tuple representations
// --------------------------------------------------------------------

/// What the interpreter needs from a tuple representation beyond its
/// containers ([`Cell`]): how a branch's expressions become evaluators, and
/// which evaluation paths only it has. `u64` is word lanes, [`Value`] is rows.
trait Repr: Cell {
    /// The representation's name in the trace (`tuples=`).
    const TUPLES: &'static str;

    /// Whether cliques may run on it under this configuration.
    fn runs(config: &EngineConfig) -> bool;

    /// A filter over tuples whose columns have the `input` kinds (`None`: a
    /// column the tuple does not carry); `None` to decline the clique.
    fn pred(e: &PExpr, input: &[Option<Self::Kind>]) -> Option<PredFn<Self>>;

    /// A probe-key extractor, with the kinds of the key cells it appends.
    fn key(keys: &[PExpr], input: &[Option<Self::Kind>]) -> Option<ProbeKey<Self>>;

    /// The projection to a tuple of the `target` kinds.
    fn emit(
        exprs: Vec<PExpr>,
        input: &[Option<Self::Kind>],
        target: &[Self::Kind],
    ) -> Option<Projection<Self>>;

    /// Run the branch on an evaluation path other than the fused pipeline,
    /// if this run is on one; false if it is not.
    fn run_apart(
        _b: &CompiledBranch<Self>,
        _io: &mut impl BranchIo<Self>,
        _at: &BranchAt<'_, Self>,
    ) -> Result<bool, Escaped> {
        Ok(false)
    }

    /// The views of a resident state held in this representation; `None`
    /// when it is held in the other one.
    fn lent(state: &CliqueState) -> Option<&[ResidentView<Self>]>;

    /// A resident state of views held in this representation.
    fn resident(views: Vec<ResidentView<Self>>) -> CliqueState;

    /// A view's result from its partitions' tuples, taken one at a time.
    fn view_data(
        schema: &Schema,
        kinds: &Arc<[Self::Kind]>,
        parts: impl Iterator<Item = Tuples<Self>>,
    ) -> ViewData;

    /// The layout of the index store's co-partitioned entry a join of this
    /// shape probes.
    fn layout(partitions: usize, join: &JoinShape<Self>) -> IndexLayout;

    /// The partition tables of an index of that layout.
    fn parts(index: Index) -> Option<Vec<Arc<Self::Table>>>;

    /// A per-query build side of a plan's output rows (a seed's overlay, the
    /// master copy of an uncompressed broadcast).
    fn rows_table(rows: &[Row], join: &JoinShape<Self>) -> Result<Self::Table, Escaped>;

    /// A worker's copy of a compressed broadcast (§7.2), decoded from the
    /// payload.
    fn payload_table(
        payload: &CompressedRelation,
        join: &JoinShape<Self>,
    ) -> Result<Self::Table, Escaped>;

    /// A snapshot of a recursive relation's tuples.
    fn tuples_table(tuples: &Tuples<Self>, join: &JoinShape<Self>) -> Result<Self::Table, Escaped>;
}

/// A seed branch of a resumed run, its recursive build sides' snapshots, and
/// the delta rows its changed build side holds.
type SeedRun<C> = (CompiledBranch<C>, Vec<Snapshot<C>>, Relation);

/// A probe-key extractor and the kinds of the key cells it appends.
type ProbeKey<C> = (KeyFn<C>, Arc<[<C as Cell>::Kind]>);

/// What a join takes of its build side: the build key columns, the kinds of
/// the probe's key cells, and per build column the kind a match is read in
/// (`None`: nothing downstream reads it).
#[derive(Clone)]
struct JoinShape<C: Cell> {
    keys: Vec<usize>,
    key_kinds: Arc<[C::Kind]>,
    read: Arc<[Option<C::Kind>]>,
}

impl JoinShape<u64> {
    fn words(&self) -> WordShape {
        WordShape::new(&self.keys, &self.key_kinds, &self.read)
    }
}

/// Rows: any column type, every configuration — including the paper's
/// ablation axes (naive evaluation, sort-merge joins, unfused operators).
impl Repr for Value {
    const TUPLES: &'static str = "rows";

    fn runs(_: &EngineConfig) -> bool {
        true
    }

    fn lent(state: &CliqueState) -> Option<&[ResidentView<Value>]> {
        match &state.views {
            Held::Rows(views) => Some(views),
            Held::Words(_) => None,
        }
    }

    fn resident(views: Vec<ResidentView<Value>>) -> CliqueState {
        CliqueState {
            views: Held::Rows(views),
            kept_order: true,
        }
    }

    /// Rows, built a partition at a time.
    fn view_data(
        schema: &Schema,
        _: &Arc<[()]>,
        parts: impl Iterator<Item = Tuples<Value>>,
    ) -> ViewData {
        let mut rows = Vec::new();
        for part in parts {
            rows.reserve(part.len());
            rows.extend((0..part.len()).map(|i| part.row(i)));
        }
        ViewData::Rows(Arc::new(Relation::new_unchecked(schema.clone(), rows)))
    }

    fn layout(partitions: usize, _: &JoinShape<Value>) -> IndexLayout {
        IndexLayout::Hash { partitions }
    }

    fn parts(index: Index) -> Option<Vec<Arc<HashTable>>> {
        match index {
            Index::Hash(index) => Some(index.parts().to_vec()),
            _ => None,
        }
    }

    fn rows_table(rows: &[Row], join: &JoinShape<Value>) -> Result<HashTable, Escaped> {
        // lint: allow(RL0008, a per-query build side: a seed's delta overlay or a broadcast's master copy)
        Ok(HashTable::build(rows, &join.keys))
    }

    fn payload_table(
        payload: &CompressedRelation,
        join: &JoinShape<Value>,
    ) -> Result<HashTable, Escaped> {
        #[expect(
            clippy::expect_used,
            reason = "round-tripping a payload this pass just compressed"
        )]
        let rows = payload.decompress().expect("own payload");
        Self::rows_table(&rows, join)
    }

    fn tuples_table(tuples: &Tuples<Value>, join: &JoinShape<Value>) -> Result<HashTable, Escaped> {
        Self::rows_table(&tuples.to_rows(), join)
    }

    fn pred(e: &PExpr, _: &[Option<()>]) -> Option<PredFn> {
        let e = e.clone();
        Some(Arc::new(move |t: &[Value]| Ok(e.eval_vals(t).is_truthy())))
    }

    fn key(keys: &[PExpr], _: &[Option<()>]) -> Option<ProbeKey<Value>> {
        let kinds = vec![(); keys.len()].into();
        let keys = keys.to_vec();
        let key: KeyFn = Arc::new(move |t: &[Value], k: &mut Vec<Value>| {
            k.extend(keys.iter().map(|e| e.eval_vals(t)));
            Ok(())
        });
        Some((key, kinds))
    }

    fn emit(exprs: Vec<PExpr>, _: &[Option<()>], _: &[()]) -> Option<Projection> {
        Some(crate::eval::projection(exprs))
    }

    /// A leading sort-merge join (if any) is executed eagerly over
    /// materialized rows; the remaining operators run as a fused or — the
    /// §7.3 ablation — unfused pipeline.
    fn run_apart(
        b: &CompiledBranch<Value>,
        io: &mut impl BranchIo<Value>,
        at: &BranchAt<'_, Value>,
    ) -> Result<bool, Escaped> {
        let sorted = |op: &CompiledOp<Value>| {
            matches!(
                op,
                CompiledOp::Join(CompiledStep {
                    build: BuildSide::PartitionedSorted(_),
                    ..
                })
            )
        };
        if at.fused && !b.ops.iter().any(sorted) {
            return Ok(false);
        }
        let (tuples, range) = io.input();
        let mut current: Vec<Row> = range.map(|i| Row::from_slice(tuples.get(i))).collect();
        let mut start = 0usize;
        for (i, op) in b.ops.iter().enumerate() {
            match op {
                // Only pre-execute filters that precede a sort-merge join.
                CompiledOp::Filter(keep) if b.ops[i..].iter().any(sorted) => {
                    let mut kept = Ok(());
                    current.retain(|r| {
                        keep(r.values()).unwrap_or_else(|e| {
                            kept = Err(e);
                            false
                        })
                    });
                    kept?;
                    start = i + 1;
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
                    let mut out = Vec::new();
                    merge_join(&mut current, &probe_cols, &runs[at.part], |r| out.push(r));
                    current = out;
                    start = i + 1;
                }
                _ => break,
            }
        }
        let pipeline = b.pipeline(start, at);
        if at.fused {
            let rows = &current[..];
            run_blocks(&pipeline, io, 0..rows.len(), |_, s, block| {
                pipeline.run_block(s, rows, block)
            })?;
            return Ok(true);
        }
        let rows = run_unfused_rows(current, &pipeline);
        let mut cells = Vec::new();
        for chunk in rows.chunks(BLOCK) {
            cells.clear();
            chunk
                .iter()
                .for_each(|r| cells.extend_from_slice(r.values()));
            io.emit_block(Block::new(&cells, cells.len() / chunk.len(), chunk.len()))?;
        }
        Ok(true)
    }
}

/// Word lanes: every expression is compiled against the lanes of its input
/// (`PExpr::compile_words`), so a derivation reads, computes and writes
/// plain `u64` cells. Selected under the condition the kernels use —
/// semi-naive evaluation, hash joins, fused code generation — so the
/// paper's ablation axes keep measuring the row interpreter.
impl Repr for u64 {
    const TUPLES: &'static str = "words";

    fn runs(config: &EngineConfig) -> bool {
        config.eval_mode == EvalMode::SemiNaive
            && config.join == JoinStrategy::ShuffleHash
            && config.fused_codegen
    }

    fn lent(state: &CliqueState) -> Option<&[ResidentView<u64>]> {
        match &state.views {
            Held::Words(views) => Some(views),
            Held::Rows(_) => None,
        }
    }

    fn resident(views: Vec<ResidentView<u64>>) -> CliqueState {
        CliqueState {
            views: Held::Words(views),
            kept_order: true,
        }
    }

    /// The partitions' lane batches as they are: no row is built.
    fn view_data(
        schema: &Schema,
        lanes: &Arc<[Lane]>,
        parts: impl Iterator<Item = Tuples<u64>>,
    ) -> ViewData {
        ViewData::Lanes {
            schema: schema.clone(),
            lanes: Arc::clone(lanes),
            batches: parts.map(Arc::new).collect(),
        }
    }

    fn layout(partitions: usize, join: &JoinShape<u64>) -> IndexLayout {
        IndexLayout::Words {
            partitions,
            lanes: join.key_kinds.to_vec(),
            read: join.read.to_vec(),
        }
    }

    fn parts(index: Index) -> Option<Vec<Arc<WordTable>>> {
        match index {
            Index::Words(index) => Some(index.parts().to_vec()),
            _ => None,
        }
    }

    fn rows_table(rows: &[Row], join: &JoinShape<u64>) -> Result<WordTable, Escaped> {
        // lint: allow(RL0008, a per-query build side: a seed's delta overlay or a broadcast's master copy)
        WordTable::from_rows(join.words(), rows)
    }

    /// Straight from the payload's column lanes into cells: no row is built
    /// per decompressed edge or per hashed edge.
    fn payload_table(
        payload: &CompressedRelation,
        join: &JoinShape<u64>,
    ) -> Result<WordTable, Escaped> {
        #[expect(
            clippy::expect_used,
            reason = "round-tripping a payload this pass just compressed"
        )]
        let batch = payload.decompress_lanes().expect("own payload");
        // lint: allow(RL0008, the broadcast models the network: every worker builds its copy)
        WordTable::from_batch(join.words(), &batch)
    }

    fn tuples_table(tuples: &Tuples<u64>, join: &JoinShape<u64>) -> Result<WordTable, Escaped> {
        // lint: allow(RL0008, a snapshot of a recursive relation's own tuples, not of base data)
        WordTable::from_tuples(join.words(), tuples.kinds(), tuples.iter())
    }

    fn pred(e: &PExpr, input: &[Option<Lane>]) -> Option<PredFn<u64>> {
        word_pred(e, input)
    }

    fn key(keys: &[PExpr], input: &[Option<Lane>]) -> Option<ProbeKey<u64>> {
        let keys = word_exprs(keys, input)?;
        let lanes = keys.iter().map(|&(_, lane)| lane).collect();
        // The probed table is keyed on these lanes: the key is the words.
        let key: KeyFn<u64> = Arc::new(move |t: &[u64], k: &mut Vec<u64>| {
            for (e, _) in &keys {
                k.push(e.eval_cells(t)?);
            }
            Ok(())
        });
        Some((key, lanes))
    }

    fn emit(exprs: Vec<PExpr>, input: &[Option<Lane>], target: &[Lane]) -> Option<Projection<u64>> {
        let (projection, lanes) = word_projection(&exprs, input)?;
        // A column whose static type is not its target's lane would store
        // another variant than the row path does.
        (*lanes == *target).then_some(projection)
    }
}

/// A filter compiled against `input` lanes.
pub(crate) fn word_pred(e: &PExpr, input: &[Option<Lane>]) -> Option<PredFn<u64>> {
    let e = e.compile_words(input)?;
    (e.ty() == WordType::Bool)
        .then(|| -> PredFn<u64> { Arc::new(move |t| Ok(e.eval_cells(t)? == 1)) })
}

/// The projection to `exprs` compiled against `input` lanes, with the lanes
/// of its output.
pub(crate) fn word_projection(
    exprs: &[PExpr],
    input: &[Option<Lane>],
) -> Option<(Projection<u64>, Arc<[Lane]>)> {
    let exprs = word_exprs(exprs, input)?;
    let lanes = exprs.iter().map(|&(_, lane)| lane).collect();
    // A projection that only copies columns — every set view's.
    let cols: Option<Vec<usize>> = exprs.iter().map(|(e, _)| e.column()).collect();
    let projection = match cols {
        Some(cols) => Projection::Columns(cols.into()),
        None => Projection::Map(Arc::new(move |t: &[u64], out: &mut Vec<u64>| {
            for (e, _) in &exprs {
                out.push(e.eval_cells(t)?);
            }
            Ok(())
        })),
    };
    Some((projection, lanes))
}

/// Each expression compiled against `input`, with the lane of its result.
fn word_exprs(exprs: &[PExpr], input: &[Option<Lane>]) -> Option<Vec<(WordExpr, Lane)>> {
    let typed = exprs.iter().map(|e| {
        let e = e.compile_words(input)?;
        let lane = e.ty().lane()?;
        Some((e, lane))
    });
    typed.collect()
}

// --------------------------------------------------------------------
// Per-view runtime state
// --------------------------------------------------------------------

/// The tuples a round's merge found new — the delta the next map consumes.
enum DeltaBatch<C: Cell> {
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
    fn len(&self) -> usize {
        match self {
            DeltaBatch::Suffix(range) => range.len(),
            DeltaBatch::Owned { totals, .. } => totals.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tuples a consumer with the given value mode reads, where they
    /// lie: tuples `range` of one batch — `state`'s arena, which the delta
    /// came out of, or the delta's own.
    #[inline]
    fn tuples<'a>(
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
enum ViewState<C: Cell> {
    Set(SetState<C>),
    Agg(Box<AggState<C>>),
}

impl<C: Cell> ViewState<C> {
    /// An empty partition state of the view's kind.
    fn empty(v: &ViewRt<C>) -> ViewState<C> {
        if v.is_set() {
            ViewState::Set(SetState::with_kinds(v.kinds.clone()))
        } else {
            let [key, agg] = [&v.key_kinds, &v.agg_kinds].map(Arc::clone);
            ViewState::Agg(Box::new(AggState::with_kinds(key, agg, v.kinds.clone())))
        }
    }

    /// Tuples held.
    fn len(&self) -> usize {
        match self {
            ViewState::Set(s) => s.len(),
            ViewState::Agg(a) => a.len(),
        }
    }

    /// Bytes held. O(1).
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

    /// The state [`ViewState::encode`] wrote for a partition of `v`.
    fn decode(v: &ViewRt<C>, data: &[u8]) -> Result<ViewState<C>, EngineError> {
        Ok(match ViewState::empty(v) {
            ViewState::Set(s) => ViewState::Set(decode_set_state(data, s)?),
            ViewState::Agg(a) => ViewState::Agg(Box::new(decode_agg_state(data, *a)?)),
        })
    }

    /// [`ViewState::tuples`], moved out of a set state.
    fn into_tuples(self, kinds: &Arc<[C::Kind]>, layout: &[Slot]) -> Tuples<C> {
        match self {
            ViewState::Set(s) => s.into_tuples(),
            agg @ ViewState::Agg(_) => agg.tuples(kinds, layout),
        }
    }

    /// The state's tuples, schema-shaped, of a view with column `kinds` and
    /// aggregate `layout`.
    fn tuples(&self, kinds: &Arc<[C::Kind]>, layout: &[Slot]) -> Tuples<C> {
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
    fn for_each(&self, layout: &[Slot], which: Stamped, mut f: impl FnMut(&[C])) {
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
    fn restamped(&self) -> ViewState<C> {
        match self {
            ViewState::Set(s) => ViewState::Set(s.restamped()),
            ViewState::Agg(a) => ViewState::Agg(Box::new(a.restamped())),
        }
    }

    /// The index of the tuple whose key cells (in key-column order) are
    /// `key`: a set's whole tuple, an aggregate's group.
    fn find(&self, key: &[C]) -> Option<usize> {
        match self {
            ViewState::Set(s) => s.find(key),
            ViewState::Agg(a) => a.find(key),
        }
    }

    /// Append tuple `i`, schema-shaped, to `out`.
    fn push_tuple(&self, layout: &[Slot], i: usize, out: &mut Tuples<C>) {
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
enum Stamped {
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
fn assemble<C: Cell>(layout: &[Slot], key: &[C], aggs: &[C], buf: &mut Vec<C>) {
    let cell = |slot: &Slot| match *slot {
        Slot::Key(i) => &key[i],
        Slot::Agg(j) => &aggs[j],
    };
    // lint: allow(RL0010, a cell: a word copy when the clique runs on words)
    buf.extend(layout.iter().map(|slot| cell(slot).clone()));
}

/// Where a schema column of an aggregate view lives in its state.
#[derive(Clone, Copy)]
enum Slot {
    Key(usize),
    Agg(usize),
}

struct ViewRt<C: Cell> {
    spec: ViewSpec,
    /// Column kinds, in schema order, and those of the key and of the
    /// aggregate columns.
    kinds: Arc<[C::Kind]>,
    key_kinds: Arc<[C::Kind]>,
    agg_kinds: Arc<[C::Kind]>,
    /// Aggregate column positions (schema order).
    agg_cols: Vec<usize>,
    /// Per schema column, its position among the key or aggregate columns.
    layout: Vec<Slot>,
    /// Monotone ops per aggregate column.
    ops: Vec<MonotoneOp>,
    /// Aggregate functions per aggregate column.
    funcs: Vec<AggFunc>,
    /// Resolved accumulation mode per aggregate column (see
    /// [`resolve_count_modes`]).
    modes: Vec<CountMode>,
    /// Whether a delta must carry increments beside its totals: some branch
    /// reads this view's delta as increments, and a `sum` makes them differ.
    increments: bool,
    /// Partitioning key for this view's state (key cols, or the preserved
    /// columns in decomposed mode).
    partition_key: Vec<usize>,
    /// Per-partition state.
    state: Vec<RankedMutex<ViewState<C>>>,
    /// Whether this view runs decomposed.
    decomposed: bool,
    /// Whether a partition was decoded from the checkpoint codec (a rewind,
    /// a page-in), which writes tuples in key order, not arena order.
    reordered: AtomicBool,
}

impl<C: Cell> ViewRt<C> {
    fn is_set(&self) -> bool {
        self.spec.aggs.is_empty()
    }

    /// Whether aggregate column `j` counts distinct contributing tuples.
    fn counts_tuples(&self, j: usize) -> bool {
        (self.funcs[j], self.modes[j]) == (AggFunc::Count, CountMode::DistinctTuple)
    }

    fn partition_of(&self, tuple: &[C], partitions: usize) -> usize {
        partition_of(&self.kinds, tuple, &self.partition_key, partitions)
    }

    /// An empty batch of this view's tuples.
    fn batch(&self) -> Tuples<C> {
        Tuples::new(self.kinds.clone())
    }

    /// The batch of `rows`; a value outside its column's kind escapes.
    fn tuples_of(&self, rows: &[Row]) -> Result<Tuples<C>, Escaped> {
        Tuples::from_rows(self.kinds.clone(), rows)
    }

    /// [`ViewRt::tuples_of`] for rows this run wrote out itself (checkpoint,
    /// spill): they are of the view's kinds.
    fn restored(&self, rows: &[Row]) -> Result<Tuples<C>, EngineError> {
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
    views: Held,
    /// Every tuple of the state a resumed run started from kept its
    /// position (partition and arena index): no partition was decoded.
    kept_order: bool,
}

/// The views of a resident state, in the representation its run used.
enum Held {
    Words(Vec<ResidentView<u64>>),
    Rows(Vec<ResidentView<Value>>),
}

/// One clique view's converged partitions (partitioned on its key, as a
/// resumed run partitions them) and the shape a group's row takes.
struct ResidentView<C: Cell> {
    kinds: Arc<[C::Kind]>,
    layout: Vec<Slot>,
    key_cols: Vec<usize>,
    parts: Vec<ViewState<C>>,
}

impl<C: Cell> ResidentView<C> {
    /// The partitions `v` holds, taken out of it.
    fn take(v: &ViewRt<C>) -> Self {
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
    fn rows(&self, which: Stamped) -> Vec<Vec<Row>> {
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

/// The build side of a compiled join step: tables of the representation's
/// own cells (`Cell::Table`).
enum BuildSide<C: Cell> {
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

struct CompiledStep<C: Cell> {
    build: BuildSide<C>,
    stream_keys: Vec<PExpr>,
    /// `stream_keys` as the pipeline's probe-key extractor.
    key: KeyFn<C>,
    /// What the join takes of its build side.
    join: JoinShape<C>,
}

enum CompiledOp<C: Cell> {
    Join(CompiledStep<C>),
    Filter(PredFn<C>),
}

/// One step's expressions as evaluators: a filter, or a join's probe key
/// and what it takes of its build side.
enum StepEval<C: Cell> {
    Filter(PredFn<C>),
    Join(KeyFn<C>, JoinShape<C>),
}

/// A branch's expressions as evaluators of one representation: one per step,
/// and the final projection — the branch's key and aggregate expressions
/// evaluated straight into the target's schema shape.
struct BranchEvals<C: Cell> {
    steps: Vec<StepEval<C>>,
    emit: Projection<C>,
}

impl<C: Repr> BranchEvals<C> {
    /// `None` when the representation cannot type one of the expressions.
    fn compile(prog: &BranchProgram, views: &[ViewRt<C>]) -> Option<Self> {
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

struct CompiledBranch<C: Cell> {
    driver: usize,
    driver_value_mode: DeltaValueMode,
    ops: Vec<CompiledOp<C>>,
    target: usize,
    emit: Projection<C>,
    uses_recursive_build: bool,
}

impl<C: Cell> CompiledBranch<C> {
    /// The branch over its evaluators, with `build(step, plan side, join)`
    /// supplying each join's build side.
    fn new(
        prog: &BranchProgram,
        evals: BranchEvals<C>,
        mut build: impl FnMut(usize, &JoinBuild, &JoinShape<C>) -> Result<BuildSide<C>, Stop>,
    ) -> Result<Self, Stop> {
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
    fn pipeline(&self, start: usize, at: &BranchAt<'_, C>) -> Pipeline<C> {
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
fn branch_evals<C: Repr>(spec: &FixpointSpec, views: &[ViewRt<C>]) -> Option<Vec<BranchEvals<C>>> {
    (spec.views.iter().flat_map(|v| &v.recursive))
        .map(|prog| BranchEvals::compile(prog, views))
        .collect()
}

/// A clique's views as a resident state holds them, with the evaluators of
/// its recursive branches.
type ResidentViews<C> = (Arc<Vec<ViewRt<C>>>, Vec<BranchEvals<C>>);

/// Contributions produced by a map task: per target view, per target
/// partition, schema-shaped tuples.
type Buckets<C> = Vec<Vec<Tuples<C>>>;

/// A snapshot of a recursive relation used as a join build side (`None` in
/// the slots of filters and base build sides).
type Snapshot<C> = Option<Arc<<C as Cell>::Table>>;

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
    fn on_words_or_rows<T>(
        &self,
        tally: bool,
        mut run: impl FnMut(bool) -> Result<Option<T>, Stop>,
    ) -> Result<T, EngineError> {
        let metrics = &self.cluster.metrics;
        match run(true) {
            Ok(Some(result)) => {
                if tally {
                    Metrics::add(&metrics.word_cliques, 1);
                }
                return Ok(result);
            }
            Ok(None) => {}
            Err(Stop::Escaped) => {
                if tally {
                    Metrics::add(&metrics.lane_escapes, 1);
                }
                if let Some(t) = self.eval.trace {
                    t.abandon_clique();
                }
            }
            Err(Stop::Failed(e)) => return Err(e),
        }
        match run(false) {
            Ok(Some(result)) => Ok(result),
            Err(Stop::Failed(e)) => Err(e),
            Ok(None) | Err(Stop::Escaped) => Err(EngineError::Other(
                "the row representation declined a clique".into(),
            )),
        }
    }

    /// Evaluate the clique on representation `C`; `None` when `C` declines
    /// it (before anything was evaluated).
    fn run_on<C: Repr>(&self, spec: &FixpointSpec) -> Result<Option<FixpointResult>, Stop> {
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
        let escaped = Arc::clone(&clique.escaped);
        let driven = if views.iter().any(|v| v.decomposed) {
            self.drive(&mut Decomposed::new(clique, base), 0)
        } else {
            match self.config.eval_mode {
                EvalMode::SemiNaive => self.drive(&mut SemiNaive::new(clique, base), 0),
                EvalMode::Naive => self.drive(&mut Naive::new(clique, base), 0),
            }
        };
        let iterations = self.converged(driven, &escaped, &views)?;
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
    fn compile_clique<'e, C: Repr>(
        &'e self,
        spec: &FixpointSpec,
        views: &Arc<Vec<ViewRt<C>>>,
        evals: Vec<BranchEvals<C>>,
    ) -> Result<Clique<'e, 'a, C>, Stop> {
        let progs = (spec.views.iter().enumerate())
            .flat_map(|(vi, v)| v.recursive.iter().map(move |p| (vi, p)));
        let mut branches: Vec<CompiledBranch<C>> = Vec::new();
        for ((vi, prog), evals) in progs.zip(evals) {
            branches.push(self.compile_branch(prog, evals, views, vi)?);
        }
        Ok(Clique {
            exec: self,
            views: Arc::clone(views),
            branches: Arc::new(branches),
            escaped: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The clique's views on representation `C` as a resident state holds
    /// them — decomposed evaluation off, so every partition is keyed on its
    /// view's key columns — with every recursive branch's evaluators; `None`
    /// when `C` declines the clique. Building a resident state
    /// ([`load_state`](Self::load_state)) and resuming from one
    /// ([`run_resume`](Self::run_resume)) both choose here, so a state is
    /// held in the representation its refreshes run on.
    fn resident_views<C: Repr>(
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
    fn base_buckets<C: Repr>(
        &self,
        spec: &FixpointSpec,
        views: &[ViewRt<C>],
    ) -> Result<Buckets<C>, Stop> {
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
    fn eval_base<C: Repr>(&self, v: &ViewSpec, rt: &ViewRt<C>) -> Result<Tuples<C>, Stop> {
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

impl<'a> FixpointExecutor<'a> {
    /// How a run on representation `C` ended: its iterations when it
    /// converged; a run that stopped because a value left its lane is
    /// reported as such.
    fn converged<C: Repr>(
        &self,
        driven: Result<u32, EngineError>,
        escaped: &AtomicBool,
        views: &[ViewRt<C>],
    ) -> Result<u32, Stop> {
        let iterations = match driven {
            Ok(iterations) => iterations,
            Err(_) if escaped.load(Ordering::SeqCst) => return Err(Stop::Escaped),
            Err(e) => return Err(Stop::Failed(e)),
        };
        if let Some(t) = self.eval.trace {
            t.set_tuples(C::TUPLES);
        }
        for part in views.iter().flat_map(|v| v.state.iter()) {
            self.tally_keys([match &*part.lock() {
                ViewState::Set(s) => s.key_index(),
                ViewState::Agg(a) => a.key_index(),
            }]);
        }
        Ok(iterations)
    }

    /// Count the key indexes laid out by position, and their re-layouts.
    fn tally_keys<'k>(&self, indexes: impl IntoIterator<Item = &'k KeyIndex>) {
        let metrics = &self.cluster.metrics;
        for index in indexes {
            if index.by_position() {
                Metrics::add(&metrics.keys_by_position, 1);
            }
            Metrics::add(&metrics.key_relayouts, u64::from(index.relayouts()));
        }
    }

    /// Resume a converged fixpoint from a view's resident state: `state` is
    /// what the view's last refresh converged to, `changed` the *inserted*
    /// delta rows per mutated base relation. Only sound for idempotent
    /// recursion (set semantics or min/max aggregates with Proven PreM) over
    /// insert-only deltas — the materialized-view layer certifies this
    /// before calling. Returns the result and the state it converged to;
    /// `state` itself is only read.
    ///
    /// The algorithm: copy the resident state flat, every tuple stamped round
    /// 0; re-evaluate base branches against the new catalog (re-merging
    /// converged rows is a no-op under idempotence, so only genuinely new
    /// base facts survive as deltas); additionally seed, for every recursive
    /// branch and every join position reading a changed relation, the join of
    /// the *warm* driver rows against only the *delta* rows at that position.
    /// Completeness: any new derivation tree has a bottommost node whose base
    /// leaf is new and whose recursive inputs are warm-derivable — that node
    /// is exactly warm ⋈ Δbase (covered by the seed), and everything above it
    /// flows through the ordinary semi-naive rounds, which the resumed loop
    /// re-enters at round 1 (warm rows keep stamp 0, so old-snapshot cutoffs
    /// of non-linear branches stay exact).
    pub fn run_resume(
        &self,
        spec: &FixpointSpec,
        state: &CliqueState,
        changed: &[(String, Vec<Row>)],
    ) -> Result<(u32, CliqueState), EngineError> {
        self.on_words_or_rows(true, |words| {
            if words {
                self.resume_on::<u64>(spec, state, changed)
            } else {
                self.resume_on::<Value>(spec, state, changed)
            }
        })
    }

    /// [`FixpointExecutor::run_resume`] on representation `C`.
    fn resume_on<C: Repr>(
        &self,
        spec: &FixpointSpec,
        lent: &CliqueState,
        changed: &[(String, Vec<Row>)],
    ) -> Result<Option<(u32, CliqueState)>, Stop> {
        let p = self.config.partitions;
        let Some((views, evals)) = self.resident_views::<C>(spec)? else {
            return Ok(None);
        };
        // Compile the loop branches against the *new* catalog; the index
        // store advances the build sides it holds by the inserted rows.
        let clique = self.compile_clique(spec, &views, evals)?;

        // The warm state, stamped round 0: a flat copy of the resident
        // partitions, or — held in the other representation — its rows.
        match C::lent(lent) {
            Some(resident) => {
                for (v, r) in views.iter().zip(resident) {
                    for (cell, part) in v.state.iter().zip(&r.parts) {
                        *cell.lock() = part.restamped();
                    }
                }
            }
            None => preload(&views, &lent.rows(Stamped::All))?,
        }

        // Re-evaluate base branches over the new catalog. Converged rows
        // re-merge as no-ops; inserted base facts become round-1 deltas.
        let mut base_buckets = self.base_buckets(spec, &views)?;

        // Delta-build seeding: warm driver ⋈ Δbase at each changed position.
        // One seed run per (join position, changed table); every other table
        // in the position's build plan sees its full new contents, so a
        // derivation touching several changed tables is still covered (the
        // duplicates this superset produces are no-ops under idempotence).
        let started = Instant::now();
        let mut warm_tuples: Vec<Option<Tuples<C>>> = views.iter().map(|_| None).collect();
        let mut read = vec![0u64; views.len()];
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
                        let (seed, snaps, delta) =
                            self.compile_seed_branch(prog, &views, si, table, delta_rows)?;
                        let mut partial = Partial::new(target);
                        let driver = &views[seed.driver];
                        // The warm tuples the delta can join drive the seed
                        // run, as an owned delta (no partition state lends
                        // it): found under the delta's keys when the delta is
                        // the first join and probes the driver's key, else
                        // the whole warm relation.
                        let keyed = (si == 0).then(|| keyed_warm(prog, driver, delta.rows()));
                        let warm = match keyed.flatten() {
                            Some(found) => found,
                            None => warm_tuples[seed.driver]
                                .get_or_insert_with(|| state_tuples(driver, RecAllMode::New, 0))
                                .clone(),
                        };
                        read[seed.driver] += warm.len() as u64;
                        let delta = DeltaBatch::Owned {
                            totals: warm,
                            increments: None,
                        };
                        let at = BranchAt {
                            snapshots: &snaps,
                            op_base: 0,
                            part: 0,
                            worker: 0,
                            fused: self.eval.fused,
                        };
                        let state = driver.state[0].lock();
                        let mut io = MapIo {
                            delta: &delta,
                            mode: seed.driver_value_mode,
                            state: &state,
                            partial: &mut partial,
                        };
                        run_branch(&seed, &mut io, &at)?;
                        drop(state);
                        for tuple in partial.finish().iter() {
                            let part = target.partition_of(tuple, p);
                            base_buckets[seed.target][part].push(tuple);
                        }
                    }
                }
            }
        }
        if let Some(t) = self.eval.trace {
            for (v, rows) in spec.views.iter().zip(read) {
                let label = format!("refresh seed {}", v.name);
                t.record_step("refresh".into(), label, rows, 0, started.elapsed());
            }
        }

        // Warm rows keep stamp 0 and the seeds merge at stamp 1, so the first
        // resumed round's old-snapshot cutoff selects exactly the warm rows.
        let escaped = Arc::clone(&clique.escaped);
        let driven = self.drive(&mut SemiNaive::new(clique, base_buckets), 1);
        let iterations = self.converged(driven, &escaped, &views)?;
        // The converged state is the view's next resident state: the caller
        // reads its result out of it.
        let resident = views.iter().map(ResidentView::take).collect();
        let mut state = C::resident(resident);
        state.kept_order = !views.iter().any(|v| v.reordered.load(Ordering::Relaxed));
        Ok(Some((iterations, state)))
    }

    /// A clique's resident state built from its converged rows, one batch
    /// per clique view: after a full run, and from a view's durable image at
    /// recovery — whose appended deltas merge here, under the views'
    /// monotone ops. Held in words when the clique's branches compile on
    /// them and every row fits its lanes — as a refresh would run it — and in
    /// rows otherwise.
    ///
    /// # Errors
    /// A row of another arity or type than its view's (a corrupt image).
    pub fn load_state<R: AsRef<[Row]>>(
        &self,
        spec: &FixpointSpec,
        rows: &[R],
    ) -> Result<CliqueState, EngineError> {
        self.on_words_or_rows(false, |words| {
            if words {
                self.load_on::<u64, R>(spec, rows)
            } else {
                self.load_on::<Value, R>(spec, rows)
            }
        })
    }

    /// [`FixpointExecutor::load_state`] on representation `C`.
    fn load_on<C: Repr, R: AsRef<[Row]>>(
        &self,
        spec: &FixpointSpec,
        rows: &[R],
    ) -> Result<Option<CliqueState>, Stop> {
        let Some((views, _)) = self.resident_views::<C>(spec)? else {
            return Ok(None);
        };
        preload(&views, rows)?;
        Ok(Some(C::resident(
            views.iter().map(ResidentView::take).collect(),
        )))
    }

    /// Compile one *seed* instance of a recursive branch for delta-seeded
    /// resume: sequential (each base build a single whole hash table, run on
    /// partition 0), with the base build at step `delta_pos` evaluated under
    /// an overlay catalog where `delta_table` holds only the inserted rows
    /// (returned too), and recursive build sides snapshotted from the warm
    /// state `views` hold.
    fn compile_seed_branch<C: Repr>(
        &self,
        prog: &BranchProgram,
        views: &[ViewRt<C>],
        delta_pos: usize,
        delta_table: &str,
        delta_rows: &[Row],
    ) -> Result<SeedRun<C>, Stop> {
        let Some(evals) = BranchEvals::compile(prog, views) else {
            return Err(Stop::Failed(EngineError::Other(
                "a seed branch declined a clique its loop branches compiled for".into(),
            )));
        };
        let mut snaps: Vec<Snapshot<C>> = vec![None; prog.steps.len()];
        let mut delta = Relation::empty(Schema::empty());
        let seed = CompiledBranch::new(prog, evals, |si, build, join| {
            Ok(match build {
                JoinBuild::RecursiveAll { view, mode, .. } => {
                    let warm = state_tuples(&views[*view], RecAllMode::New, 0);
                    snaps[si] = Some(Arc::new(C::tuples_table(&warm, join)?));
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
                    // A seed run probes one whole table of the overlay once.
                    let whole = C::rows_table(rel.rows(), join)?;
                    if si == delta_pos {
                        delta = rel;
                    }
                    BuildSide::Partitioned(vec![Arc::new(whole)])
                }
            })
        })?;
        Ok((seed, snaps, delta))
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
                    Err(Stop::Escaped) => false,
                    Err(Stop::Failed(e)) => return Err(e),
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
    ) -> Result<Vec<Arc<C::Table>>, Stop> {
        let layout = C::layout(self.config.partitions, join);
        let Some(index) = self.eval.fetch_index(plan, &join.keys, layout, true)? else {
            return Err(Stop::Escaped);
        };
        let parts = C::parts(index).ok_or_else(|| {
            Stop::Failed(EngineError::Other(
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
    ) -> Result<CompiledBranch<C>, Stop> {
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
                        // lint: allow(RL0008, sorted runs are built per query: the store keeps the hash, packed and CSR layouts)
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
                    let governor = self.eval.governor;
                    let bc = if self.config.broadcast_compression {
                        let compressed =
                            Arc::new(CompressedRelation::compress(rel.schema(), rel.rows()));
                        let payload = compressed.size_bytes();
                        let join = join.clone();
                        Broadcast::try_distribute_traced(
                            self.cluster,
                            None,
                            payload,
                            move |_w| C::payload_table(&compressed, &join),
                            governor,
                        )
                    } else {
                        let master = Arc::new(C::rows_table(rel.rows(), join)?);
                        let payload = master.size_bytes();
                        Broadcast::try_distribute_traced(
                            self.cluster,
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
    /// aggregate value or edge weight, checked before any kernel state
    /// exists; an `Int` sum that leaves `i64`, found mid-run) — the caller
    /// then falls back to the generic interpreter, which re-evaluates the
    /// base and build plans.
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
                    sink.scan::<(), DenseSetState>(g, delta, p, |_, _, dst| Ok(dst))
                };
                self.run_dense::<DenseSetState, ()>(v, kp, &csr, &seeds, scan)
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
    /// [`DenseAggState`], scanning with the plan's per-edge transform.
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
        if kp.agg_col.is_none() {
            // A planner bug, not a data mismatch — but falling back to the
            // interpreter is strictly safer than panicking mid-query.
            return Ok(None);
        }
        let edge_fn = kp.edge_fn.clone();
        let add = match &edge_fn {
            KernelEdgeFn::AddConst(lit) => match T::from_const(lit) {
                Some(c) => c,
                None => return Ok(None),
            },
            _ => T::zero(),
        };
        // One monomorphized walk per edge transform: no `Value` dispatch and
        // no branch on the transform inside the loop. A sum that leaves `i64`
        // abandons the run (`KernelValue::add`).
        let scan = move |g: &CsrGraph, delta: &[(u32, T)], sink: &mut Combiner| {
            let ws = T::weights(g);
            match edge_fn {
                KernelEdgeFn::Identity => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), _, dst| {
                        Ok((dst, val))
                    })
                }
                KernelEdgeFn::AddWeight => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), e, dst| {
                        T::add(val, ws[e]).map(|c| (dst, c)).ok_or(Escaped)
                    })
                }
                KernelEdgeFn::AddConst(_) => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), _, dst| {
                        T::add(val, add).map(|c| (dst, c)).ok_or(Escaped)
                    })
                }
                KernelEdgeFn::MinWeight => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), e, dst| {
                        Ok((dst, if T::lt(ws[e], val) { ws[e] } else { val }))
                    })
                }
            }
        };
        self.run_dense::<DenseAggState<T>, Op>(v, kp, csr, seeds, scan)
    }

    /// A kernel-selected clique, dense from its seeds to its result: bucket
    /// the seeds, broadcast the graph once, drive [`Dense`] to the fixpoint
    /// and write each slab's `(Int id, value)` lanes. `scan` is all that
    /// differs between kernels. `None` when a value left `i64`: the run is abandoned,
    /// as a word run a value escapes from is, and the interpreter answers.
    fn run_dense<S, Op>(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
        csr: &Arc<CsrGraph>,
        seeds: &[(u32, u64)],
        scan: impl Fn(&CsrGraph, &[S::Item], &mut Combiner) -> KernelOut<S::Item>
            + Send
            + Sync
            + 'static,
    ) -> Result<Option<FixpointResult>, EngineError>
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
            let Ok(seeded) = scratch.take_delta(true) else {
                return Ok(None);
            };
            for item in seeded {
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
            escaped: false,
        };
        let iterations = match self.drive(&mut dense, 0) {
            Ok(iterations) => iterations,
            Err(_) if dense.escaped => {
                if let Some(t) = self.eval.trace {
                    t.abandon_clique();
                }
                return Ok(None);
            }
            Err(e) => return Err(e),
        };

        // A vertex is occupied only in its owner partition. A kernel view's
        // key is `Int` and its value the slab's scalar (`select_kernel`).
        let mut lanes = vec![Lane::Int; v.schema.arity()];
        if let (Some(c), KernelScalar::F64) = (kp.agg_col, kp.scalar) {
            lanes[c] = Lane::Double;
        }
        let lanes: Arc<[Lane]> = lanes.into();
        let mut tuple = vec![0u64; lanes.len()];
        let parts = dense.parts.iter().map(|part| {
            let slab = &part.lock().0;
            let mut out = Tuples::with_capacity(Arc::clone(&lanes), slab.len());
            slab.for_each_cell(|d, bits| {
                tuple[kp.key_col] = csr.orig_id(d) as u64;
                if let Some(c) = kp.agg_col {
                    tuple[c] = bits;
                }
                out.push(&tuple);
            });
            out
        });
        let view = <u64 as Repr>::view_data(&v.schema, &lanes, parts);
        Ok(Some(FixpointResult {
            views: vec![view],
            iterations,
        }))
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
/// views (whose partitions hold the state) and its compiled branches, on
/// one tuple representation.
struct Clique<'e, 'a, C: Cell> {
    exec: &'e FixpointExecutor<'a>,
    views: Arc<Vec<ViewRt<C>>>,
    branches: Arc<Vec<CompiledBranch<C>>>,
    /// Set when a value left its lane: the error that ends the round loop
    /// then means "evaluate the clique again on rows", not a failed query.
    escaped: Arc<AtomicBool>,
}

impl<C: Cell> Clique<'_, '_, C> {
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

    /// A task reported that a value left its lane: abandon the run.
    fn escape(&self, Escaped: Escaped) -> Halt {
        self.escaped.store(true, Ordering::SeqCst);
        Halt::Fatal(EngineError::Other(format!(
            "view '{}': a value left its word lane",
            self.views[0].spec.name
        )))
    }

    /// The outputs of a stage whose tasks may escape.
    fn landed<T>(&self, results: Vec<Result<T, Escaped>>) -> Result<Vec<T>, Halt> {
        let results: Result<Vec<T>, Escaped> = results.into_iter().collect();
        results.map_err(|e| self.escape(e))
    }
}

/// Semi-naive evaluation (Algorithms 4/5, or 6 when `combine`): the state
/// lives in the views' partitions, and `pending` holds the contributions the
/// next round merges — base-case results first. A delta-seeded resume is this
/// strategy over preloaded partitions, driven from round 1.
struct SemiNaive<'e, 'a, C: Cell> {
    c: Clique<'e, 'a, C>,
    /// Stage combination fuses the reduce of round r with the map of round
    /// r+1 — sound only when no branch reads old/new snapshots of another
    /// recursive relation (those need the merge barrier).
    combine: bool,
    pending: Buckets<C>,
    /// Between rounds every partition's state plus `pending` form a
    /// consistent cut (see `rasql_exec::checkpoint`): that is what is saved.
    store: CheckpointStore,
    /// What `settle` paged out to the governor's spill directory, read back
    /// by `page_in`: `(view, partition, file)`.
    paged_pending: Vec<(usize, usize, String)>,
    paged_state: Vec<(usize, usize, String)>,
}

impl<'e, 'a, C: Cell> SemiNaive<'e, 'a, C> {
    fn new(c: Clique<'e, 'a, C>, base: Buckets<C>) -> Self {
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

impl<C: Repr> RoundStep for SemiNaive<'_, '_, C> {
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
            move |part: usize, mine: Vec<Tuples<C>>| -> Result<Vec<DeltaBatch<C>>, Escaped> {
                (views.iter().zip(mine))
                    .map(|(v, tuples)| {
                        merge_into_state(v, &mut v.state[part].lock(), &tuples, round - 1)
                    })
                    .collect()
            }
        };
        let map = {
            let (views, branches) = (Arc::clone(&self.c.views), Arc::clone(&self.c.branches));
            let fused = exec.eval.fused;
            move |part: usize,
                  deltas: &[DeltaBatch<C>],
                  snapshots: &[Snapshot<C>],
                  w: usize|
                  -> Result<(u64, Buckets<C>), Escaped> {
                let delta_rows: u64 = deltas.iter().map(|d| d.len() as u64).sum();
                let buckets = map_task(&views, &branches, deltas, snapshots, part, w, fused)?;
                Ok((delta_rows, buckets))
            }
        };
        let fresh = empty_buckets(&self.c.views, p);
        let mine = by_partition(std::mem::replace(&mut self.pending, fresh), p);
        let mut stages = 1;
        let map_out: Vec<(u64, Buckets<C>)> = if self.combine {
            // One combined ShuffleMap stage (Algorithm 6).
            let tasks = (mine.into_iter().enumerate())
                .map(|(part, tuples)| {
                    let (merge, map) = (merge.clone(), map.clone());
                    StageTask::new(part % workers, move |w| {
                        map(part, &merge(part, tuples)?, &[], w)
                    })
                })
                .collect();
            let out = exec.stage("fixpoint combined", StageKind::Combined, tasks)?;
            self.c.landed(out)?
        } else {
            let tasks = (mine.into_iter().enumerate())
                .map(|(part, tuples)| {
                    let merge = merge.clone();
                    StageTask::new(part % workers, move |_w| merge(part, tuples))
                })
                .collect();
            let merged = exec.stage("fixpoint reduce", StageKind::Reduce, tasks)?;
            let merged: Vec<Vec<DeltaBatch<C>>> = self.c.landed(merged)?;
            if merged.iter().flatten().all(DeltaBatch::is_empty) {
                Vec::new()
            } else {
                stages = 2;
                // Old/new snapshots use the delta's stamp as cutoff.
                let views = &self.c.views;
                let snapshots = snapshots(&self.c.branches, |view, mode| {
                    state_tuples(&views[view], mode, round - 1)
                });
                let snapshots = Arc::new(snapshots.map_err(|e| self.c.escape(e))?);
                let tasks = (merged.into_iter().enumerate())
                    .map(|(part, deltas)| {
                        let (map, snapshots) = (map.clone(), Arc::clone(&snapshots));
                        StageTask::new(part % workers, move |w| map(part, &deltas, &snapshots, w))
                    })
                    .collect();
                let out = exec.stage("fixpoint map", StageKind::Map, tasks)?;
                self.c.landed(out)?
            }
        };

        // Shuffle: gather the map outputs per (view, partition), counting
        // what crosses workers.
        let delta_rows: u64 = map_out.iter().map(|(n, _)| *n).sum();
        let (mut moved_rows, mut moved_bytes) = (0u64, 0u64);
        for (src_part, (_, buckets)) in map_out.into_iter().enumerate() {
            for (vi, per_view) in buckets.into_iter().enumerate() {
                for (dst_part, mut tuples) in per_view.into_iter().enumerate() {
                    if exec.cluster.owner_of(src_part) != exec.cluster.owner_of(dst_part) {
                        moved_rows += tuples.len() as u64;
                        moved_bytes += tuples.size_bytes();
                    }
                    self.pending[vi][dst_part].append(&mut tuples);
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
    /// holds them) into the store under `round`, both as rows in the
    /// canonical codec whatever the representation.
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
            for (part, tuples) in per_view.iter().enumerate() {
                let key = format!("r{round}/contrib/v{vi}/p{part}");
                bytes += put(&key, encode_rows(&tuples.to_rows()))? as u64;
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
                *v.state[part].lock() = ViewState::decode(v, data.as_ref())?;
                v.reordered.store(true, Ordering::Relaxed);
                let data = entry(format!("r{to}/contrib/v{vi}/p{part}"))?;
                bytes += data.len() as u64;
                *pending = v.restored(&decode_rows(data)?)?;
            }
        }
        Ok(format!("replaying from round {to} ({bytes} B)"))
    }

    /// Spilled contributions go back in front of what was gathered since,
    /// in their original order (the spill row codec preserves it); paged-out
    /// partitions are decoded from their checkpoint-codec blobs.
    fn page_in(&mut self, g: &QueryGovernor) -> Result<(), EngineError> {
        if self.paged_pending.is_empty() && self.paged_state.is_empty() {
            return Ok(());
        }
        let dir = g.spill_dir()?;
        for (vi, part, name) in self.paged_pending.drain(..) {
            let mut tuples = self.c.views[vi].restored(&dir.take_rows(&name)?)?;
            tuples.append(&mut self.pending[vi][part]);
            self.pending[vi][part] = tuples;
        }
        for (vi, part, name) in self.paged_state.drain(..) {
            let blob = dir.take_blob(&name)?;
            let v = &self.c.views[vi];
            *v.state[part].lock() = ViewState::decode(v, &blob)?;
            v.reordered.store(true, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The resident set is the pending contribution buckets plus the
    /// all-relation state, both priced without walking a tuple: a bucket as
    /// the rows it stands for, a partition as the bytes its arena, index and
    /// stamps hold. Over budget it is paged out to the governor's spill
    /// directory — buckets first (order-preserving row codec, so the next
    /// merge replays contributions byte-for-byte), then per-partition state
    /// (canonical checkpoint codec).
    fn settle(&mut self, g: &QueryGovernor, round: u32) -> Result<u64, EngineError> {
        let exec = self.c.exec;
        let bucket_bytes = |t: &Tuples<C>| t.size_bytes() + 16 * t.len() as u64;
        let pending = self.pending.iter().flatten();
        let cells = self.c.views.iter().flat_map(|v| v.state.iter());
        let mut charge = pending.map(bucket_bytes).sum::<u64>()
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
                for (part, tuples) in per_view.iter_mut().enumerate() {
                    if tuples.is_empty() {
                        continue;
                    }
                    let name = format!("contrib-r{round}-v{vi}-p{part}");
                    written += dir.append_rows(&name, &tuples.to_rows())?;
                    let freed = bucket_bytes(tuples);
                    *tuples = self.c.views[vi].batch();
                    self.paged_pending.push((vi, part, name));
                    if paged(freed) {
                        break 'page;
                    }
                }
            }
            for (vi, v) in self.c.views.iter().enumerate() {
                for (part, cell) in v.state.iter().enumerate() {
                    let mut st = cell.lock();
                    if st.len() == 0 {
                        continue;
                    }
                    let freed = st.size_bytes();
                    let name = format!("state-r{round}-v{vi}-p{part}");
                    written += dir.write_blob(&name, st.encode().as_ref())?;
                    *st = ViewState::empty(v);
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
struct Naive<'e, 'a, C: Cell> {
    c: Clique<'e, 'a, C>,
    base: Buckets<C>,
    /// The previous round's full state as schema-shaped tuples per
    /// (view, partition).
    prev: Arc<Buckets<C>>,
}

impl<'e, 'a, C: Cell> Naive<'e, 'a, C> {
    fn new(c: Clique<'e, 'a, C>, base: Buckets<C>) -> Self {
        let prev = Arc::new(empty_buckets(&c.views, c.exec.config.partitions));
        Naive { c, base, prev }
    }
}

impl<C: Repr> RoundStep for Naive<'_, '_, C> {
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        self.c.label("naive")
    }

    fn step(&mut self, _round: u32) -> Result<Option<Round>, Halt> {
        let exec = self.c.exec;
        let p = exec.config.partitions;
        let views = &self.c.views;
        let snapshots = snapshots(&self.c.branches, |view, _| {
            let mut all = views[view].batch();
            for tuple in self.prev[view].iter().flat_map(Tuples::iter) {
                all.push(tuple);
            }
            all
        });
        let snapshots = Arc::new(snapshots.map_err(|e| self.c.escape(e))?);
        // Drivers read totals: the whole previous state is the "delta".
        let tasks: Vec<StageTask<Result<Buckets<C>, Escaped>>> = (0..p)
            .map(|part| {
                let prev = Arc::clone(&self.prev);
                let (views, branches) = (Arc::clone(views), Arc::clone(&self.c.branches));
                let snapshots = Arc::clone(&snapshots);
                let fused = exec.eval.fused;
                StageTask::new(part % exec.cluster.workers(), move |w| {
                    let deltas: Vec<DeltaBatch<C>> = (prev.iter())
                        .map(|tuples| DeltaBatch::Owned {
                            totals: tuples[part].clone(),
                            increments: None,
                        })
                        .collect();
                    map_task(&views, &branches, &deltas, &snapshots, part, w, fused)
                })
            })
            .collect();
        let map_out = exec.stage("fixpoint naive map", StageKind::Map, tasks)?;
        let mut contributions = self.base.clone();
        let mut derived_rows = 0u64;
        for buckets in self.c.landed(map_out)? {
            for (vi, per_view) in buckets.into_iter().enumerate() {
                for (dst, mut tuples) in per_view.into_iter().enumerate() {
                    derived_rows += tuples.len() as u64;
                    contributions[vi][dst].append(&mut tuples);
                }
            }
        }

        // Recompute state from scratch; compare with the previous round.
        let mut changed = false;
        let mut next = empty_buckets(views, p);
        for (vi, v) in views.iter().enumerate() {
            for part in 0..p {
                let mut fresh = ViewState::empty(v);
                merge_into_state(v, &mut fresh, &contributions[vi][part], 0)
                    .map_err(|e| self.c.escape(e))?;
                let now = fresh.tuples(&v.kinds, &v.layout);
                let (mut sorted, mut old_sorted) = (now.to_rows(), self.prev[vi][part].to_rows());
                sorted.sort_unstable();
                old_sorted.sort_unstable();
                changed |= sorted != old_sorted;
                next[vi][part] = now;
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
        self.prev = Arc::new(empty_buckets(&self.c.views, self.c.exec.config.partitions));
        Ok("previous state forgotten; rerunning".into())
    }
}

/// Decomposed evaluation (§7.2): one stage runs every partition's local
/// fixpoint to the end — the preserved-column property keeps each derivation
/// in its partition, so there is no exchange and no per-round stage — and
/// the local histories are then reported one global round per step.
struct Decomposed<'e, 'a, C: Cell> {
    c: Clique<'e, 'a, C>,
    base: Arc<Buckets<C>>,
    /// Every partition's local rounds; `None` until the stage has run.
    local: Option<Vec<LocalRounds>>,
}

impl<'e, 'a, C: Repr> Decomposed<'e, 'a, C> {
    fn new(c: Clique<'e, 'a, C>, base: Buckets<C>) -> Self {
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
                    let mut delta = merge_into_state(v, &mut state, &base[0][part], 0)?;
                    let mut iters: u32 = 0;
                    let mut history: Vec<(u64, u64, u64)> = Vec::new();
                    let at = BranchAt {
                        snapshots: &[],
                        op_base: 0,
                        // No co-partitioned builds exist in decomposed mode.
                        part: usize::MAX,
                        worker: w,
                        fused,
                    };
                    while !delta.is_empty() {
                        let round_t0 = Instant::now();
                        iters += 1;
                        if iters > max_iter {
                            return Err(LocalAbort::NonTermination);
                        }
                        if token.as_ref().is_some_and(|t| t.check().is_err()) {
                            return Err(LocalAbort::Cancelled);
                        }
                        let consumed = delta.len() as u64;
                        // Every branch's tuples go straight into this
                        // round's merge — into the arena the delta is read
                        // out of, which is why it is read by index.
                        let mut merge = Merge::new(v, &state, iters);
                        for b in branches.iter() {
                            let mut io = LocalIo {
                                delta: &delta,
                                mode: b.driver_value_mode,
                                state: &mut *state,
                                merge: &mut merge,
                            };
                            run_branch(b, &mut io, &at)?;
                        }
                        delta = merge.finish(&state)?;
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
                Err(LocalAbort::Escaped) => return Err(self.c.escape(Escaped)),
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

impl<C: Repr> RoundStep for Decomposed<'_, '_, C> {
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
        let v = &self.c.views[0];
        for part in &v.state {
            *part.lock() = ViewState::empty(v);
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

/// A kernel scan's contributions by destination partition, or `Escaped` when
/// a value left `i64`.
type KernelOut<I> = Result<Vec<Vec<I>>, Escaped>;

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
    /// Set when a value left `i64`: the error that ends the round loop then
    /// means "evaluate the clique on the interpreter", not a failed query.
    escaped: bool,
}

impl<S, Op, F> RoundStep for Dense<'_, '_, S, Op, F>
where
    S: DenseState<Op>,
    F: Fn(&CsrGraph, &[S::Item], &mut Combiner) -> KernelOut<S::Item> + Send + Sync + 'static,
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
                    let delta = slab.take_delta(totals)?;
                    Ok((delta.len() as u64, scan(bc.on_worker(w), &delta, combiner)?))
                })
            })
            .collect();
        // Each task returns the delta rows it consumed and its combined
        // contributions, bucketed by destination partition.
        let results = exec.stage("fixpoint kernel", StageKind::Combined, tasks)?;
        let Ok(results) = results.into_iter().collect::<Result<Vec<_>, Escaped>>() else {
            self.escaped = true;
            return Err(Halt::Fatal(EngineError::Other(format!(
                "view '{}': a value left i64 in kernel {}",
                self.view, self.kernel
            ))));
        };

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

/// Where and how a branch runs: the round's snapshots of recursive build
/// sides (one slot per compiled op of the clique, this branch's from
/// `op_base`), the partition and worker whose build sides it probes, and
/// whether operators are fused.
struct BranchAt<'a, C: Cell> {
    snapshots: &'a [Snapshot<C>],
    op_base: usize,
    /// `usize::MAX`: no co-partitioned build exists (decomposed mode).
    part: usize,
    worker: usize,
    fused: bool,
}

/// The two ends of a branch run: the delta tuples it consumes, and where its
/// contributions — blocks of tuples of the target view's schema shape, in
/// emission order — go. One object, because in the decomposed loop they are
/// the same state.
trait BranchIo<C: Cell> {
    /// The input tuples, where they lie: tuples `range` of one batch. (In
    /// the decomposed loop that batch is the arena the contributions are
    /// merged into, so it is borrowed anew for every block.)
    fn input(&self) -> (&Tuples<C>, Range<usize>);
    /// Take one block of contributions.
    fn emit_block(&mut self, block: Block<'_, C>) -> Result<(), Escaped>;
}

/// A map task's branch run: a partition's delta in, a [`Partial`] out.
struct MapIo<'a, 'v, C: Cell> {
    delta: &'a DeltaBatch<C>,
    mode: DeltaValueMode,
    /// The driver view's partition state, which lends a set delta.
    state: &'a ViewState<C>,
    partial: &'a mut Partial<'v, C>,
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
struct LocalIo<'a, 'v, C: Cell> {
    delta: &'a DeltaBatch<C>,
    mode: DeltaValueMode,
    state: &'a mut ViewState<C>,
    merge: &'a mut Merge<'v, C>,
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
fn map_task<C: Repr>(
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
fn run_branch<C: Repr>(
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
fn run_blocks<C: Cell, Io: BranchIo<C>>(
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
fn snapshots<C: Repr>(
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
fn keyed_warm<C: Cell>(
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

fn preload<C: Cell, R: AsRef<[Row]>>(views: &[ViewRt<C>], rows: &[R]) -> Result<(), Escaped> {
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
fn state_tuples<C: Cell>(v: &ViewRt<C>, mode: RecAllMode, cutoff: u32) -> Tuples<C> {
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
enum Partial<'a, C: Cell> {
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
    fn new(target: &'a ViewRt<C>) -> Self {
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

    fn finish(self) -> Tuples<C> {
        match self {
            Partial::Distinct { seen, .. } => seen.into_tuples(),
            Partial::Groups { target, groups, .. } => {
                ViewState::Agg(groups).tuples(&target.kinds, &target.layout)
            }
        }
    }
}

// --------------------------------------------------------------------
// Reduce-side merge
// --------------------------------------------------------------------

/// Merge schema-shaped contributions into one partition's state, a block at
/// a time; returns the delta batch (stamped `round`).
fn merge_into_state<C: Cell>(
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
struct Merge<'a, C: Cell> {
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
    fn new(v: &'a ViewRt<C>, state: &ViewState<C>, round: u32) -> Self {
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
    fn push_block(&mut self, state: &mut ViewState<C>, block: Block<'_, C>) -> Result<(), Escaped> {
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
                        // lint: allow(RL0010, a cell: a word copy when the clique runs on words)
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
    fn finish(mut self, state: &ViewState<C>) -> Result<DeltaBatch<C>, Escaped> {
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
fn gather<'o, C: Cell>(block: Block<'_, C>, cols: &[usize], out: &'o mut Vec<C>) -> Block<'o, C> {
    out.clear();
    for tuple in block.iter() {
        // lint: allow(RL0010, a cell: a word copy when the clique runs on words)
        out.extend(cols.iter().map(|&c| tuple[c].clone()));
    }
    Block::new(out, cols.len(), block.len())
}

/// Pending contributions regrouped for the merge tasks: `[partition][view]`
/// tuples, so each task owns what it merges.
fn by_partition<C: Cell>(contributions: Buckets<C>, p: usize) -> Vec<Vec<Tuples<C>>> {
    let mut out: Vec<Vec<Tuples<C>>> = (0..p).map(|_| Vec::new()).collect();
    for per_view in contributions {
        for (part, tuples) in per_view.into_iter().enumerate() {
            out[part].push(tuples);
        }
    }
    out
}

/// Freshly-allocated empty contribution buckets (views × `p` partitions).
fn empty_buckets<C: Cell>(views: &[ViewRt<C>], p: usize) -> Buckets<C> {
    (views.iter())
        .map(|v| (0..p).map(|_| v.batch()).collect())
        .collect()
}

/// The branch's co-partitioned base build side, if it has one — `(step,
/// plan, build keys)`: its first join, when that joins a base plan, the delta
/// arrives partitioned (on `partition_key`) on exactly the probe key, and the
/// view is not decomposed. Every other base build side is broadcast.
fn co_partitioned_build<'p>(
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
