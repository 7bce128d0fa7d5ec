#![deny(missing_docs)]

//! # rasql-core
//!
//! The RaSQL engine (the paper's primary contribution): recursive-aggregate
//! SQL compiled to a **fixpoint operator** executed with **distributed
//! semi-naive evaluation** over the [`rasql_exec`] cluster runtime.
//!
//! Entry point: [`RaSqlContext`].
//!
//! ```
//! use rasql_core::RaSqlContext;
//! use rasql_storage::Relation;
//!
//! let ctx = RaSqlContext::in_memory();
//! ctx.register("edge", Relation::edges(&[(1, 2), (2, 3), (3, 4)])).unwrap();
//! let tc = ctx.query(
//!     "WITH recursive tc (Src, Dst) AS \
//!        (SELECT Src, Dst FROM edge) UNION \
//!        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
//!      SELECT Src, Dst FROM tc",
//! ).unwrap();
//! assert_eq!(tc.relation.len(), 6);
//! assert_eq!(tc.stats.iterations.len(), 1);
//! ```

pub mod cache;
pub mod check;
pub mod config;
pub mod context;
pub mod error;
pub mod eval;
pub mod fixpoint;
mod index;
pub mod kernel;
pub mod library;
pub mod matview;
pub mod prem;
pub mod session;
pub mod wire;

pub use cache::{CachedQuery, ResultCache};
pub use check::{CheckReport, PremColumnEvidence, PremEvidence};
pub use config::{EngineConfig, EvalMode, JoinStrategy};
pub use context::{ContextBuilder, QueryResult, QueryStats, RaSqlContext};
pub use error::EngineError;
pub use kernel::{select_kernel, KernelEdgeFn, KernelOp, KernelPlan, KernelScalar};
pub use matview::{DepRecord, MatView};
pub use prem::{PremCheckOutcome, PremChecker};
pub use rasql_exec::{
    CliqueTrace, IterationTrace, JsonValue, OperatorTrace, QueryTrace, StageKind, StageSpan,
};
pub use rasql_plan::{
    DiagCode, Diagnostic, PremObligation, Severity, StaticVerdict, VerifyReport, ViewVerification,
};
pub use session::Session;
pub use wire::{error_to_wire, result_to_wire, stats_to_wire};
