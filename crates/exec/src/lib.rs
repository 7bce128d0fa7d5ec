#![warn(missing_docs)]

//! # rasql-exec
//!
//! The distributed-runtime substrate of the RaSQL reproduction: a
//! **cluster simulator** standing in for Apache Spark (see DESIGN.md for the
//! substitution argument). It provides:
//!
//! - a pool of worker threads with **stage-granular scheduling** and a
//!   pluggable **locality policy** (partition-aware vs. Spark's default hybrid
//!   policy, §6.1 of the paper);
//! - hash-partitioned [`Dataset`]s whose partitions live on owning workers;
//!   running a task away from its partition's home incurs a *real* deep copy,
//!   so locality effects show up in wall-clock time and in [`Metrics`];
//! - shuffle exchanges with byte accounting;
//! - broadcast variables with byte accounting (compressed payloads are the
//!   caller's choice — §7.2);
//! - the mutable per-partition fixpoint state of §6.1/§6.2: [`SetState`]
//!   (the SetRDD analog) and [`AggState`] (monotone aggregate maps);
//! - hash-join and sort-merge-join kernels (Appendix D);
//! - **fused vs. unfused operator pipelines** — the code-generation analog
//!   (§7.3): the unfused backend materializes an intermediate collection per
//!   operator, the fused backend collapses all steps into one pass;
//! - a **fault-tolerance layer**: deterministic seeded fault injection
//!   ([`FaultSpec`]), task retry with backoff and worker blacklisting, typed
//!   stage errors ([`ExecError`]), and round-boundary checkpoint stores
//!   ([`CheckpointStore`]) for the fixpoint's mutable state (which forfeits
//!   Spark's lineage recovery — see DESIGN.md "Fault tolerance");
//! - a **resource-governance layer**: per-query memory budgets with
//!   spill-to-disk ([`MemoryTracker`], [`crate::spill`]), deadlines and
//!   cooperative cancellation ([`CancellationToken`]), and concurrent-query
//!   admission control ([`AdmissionController`]) — the Spark facilities the
//!   paper's engine inherited for free (see DESIGN.md "Resource
//!   governance").

pub mod broadcast;
pub mod checkpoint;
pub mod cluster;
pub mod dataset;
pub mod error;
pub mod fault;
pub mod governor;
pub mod join;
pub mod kernel;
pub mod metrics;
pub mod pipeline;
pub mod spill;
pub mod state;
pub mod trace;
pub mod tuples;

/// Rank-checked lock wrappers (re-export of [`rasql_storage::sync`], which
/// defines the engine's single global lock-rank table).
pub mod sync {
    pub use rasql_storage::sync::*;
}

pub use broadcast::Broadcast;
pub use checkpoint::{
    decode_agg_state, decode_rows, decode_set_state, encode_agg_state, encode_rows,
    encode_set_state, CheckpointStore,
};
pub use cluster::{default_workers, Cluster, ClusterConfig, StageTask};
pub use dataset::{Dataset, LaneCombiner, LaneDataset, LanePart, Partition, RowCombiner};
pub use error::ExecError;
pub use fault::{FaultInjector, FaultSpec, TaskFault};
pub use governor::{
    AdmissionController, AdmissionPermit, CancellationToken, MemoryTracker, QueryGovernor,
};
pub use join::{merge_join, HashTable, JoinTable};
pub use kernel::{
    out_edges, pulls, scan_delta, scan_delta_set, Combiner, DeltaSnapshot, DenseAggState,
    DenseSetState, DenseState, KernelValue, MaxOp, MergeOp, MinOp, SumOp,
};
pub use metrics::{Metrics, MetricsSnapshot};
pub use pipeline::{
    run_fused, run_unfused, Emitted, Pipeline, PipelineStep, Projection, Scratch, TupleSource,
    BLOCK,
};
pub use spill::SpillDir;
pub use state::{AggChange, AggGroup, AggState, MergeOutcome, MonotoneOp, SetState};
pub use trace::{
    CliqueTrace, IterationTrace, JsonValue, OperatorTrace, QueryTrace, RecoveryEvent, RecoveryKind,
    StageKind, StageSpan, TraceSink,
};
pub use tuples::{
    cells_of, kinds_of, lane_partition, lanes_of, partition_of, values_of, Block, Cell, Escaped,
    Lane, TupleSet, Tuples,
};
