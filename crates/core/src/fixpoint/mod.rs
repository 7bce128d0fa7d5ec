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
    cells_of, kinds_of, merge_join, out_edges, partition_of, pulls, values_of, Block, Broadcast,
    Cell, Combiner, DeltaSnapshot, DenseAggState, DenseSetState, DenseState, Escaped, ExecError,
    HashTable, IterationTrace, JoinTable, KernelValue, Lane, MaxOp, MergeOp, Metrics, MinOp,
    Pipeline, PipelineStep, QueryGovernor, RecoveryEvent, RecoveryKind, Scratch, SetState,
    StageKind, StageTask, SumOp, TupleSet, Tuples,
};
use rasql_parser::ast::AggFunc;
use rasql_plan::{
    BranchProgram, BranchStep, CountMode, DeltaValueMode, FixpointSpec, JoinBuild, LogicalPlan,
    PExpr, RecAllMode, ViewSpec, WordExpr, WordType,
};
use rasql_storage::codec::CompressedRelation;
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::{
    CsrGraph, FxHashSet, InEdges, Index, IndexDep, IndexLayout, KeyIndex, Relation, Row, RowPatch,
    Schema, Value, WordShape, WordTable,
};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod branch;
mod dense;
mod executor;
mod io;
mod merge;
mod repr;
mod resume;
mod state;
mod strategy;

use branch::*;
pub use executor::FixpointExecutor;
use executor::*;
use io::*;
use merge::*;
use repr::*;
pub(crate) use repr::{word_pred, word_projection};
pub use state::CliqueState;
use state::*;
use strategy::*;

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
