#![warn(missing_docs)]

//! # RaSQL — Recursive-aggregate SQL in Rust
//!
//! A from-scratch reproduction of *"RaSQL: Greater Power and Performance for Big
//! Data Analytics with Recursive-aggregate-SQL on Spark"* (SIGMOD 2019): a SQL
//! engine whose recursive CTEs may use `min`/`max`/`sum`/`count` aggregates in
//! the recursion itself, compiled to a fixpoint operator evaluated with
//! distributed semi-naive evaluation over a simulated cluster runtime.
//!
//! This facade crate re-exports the whole workspace. Start with
//! [`RaSqlContext`]:
//!
//! ```
//! use rasql::prelude::*;
//!
//! let ctx = RaSqlContext::in_memory();
//! ctx.register("edge", Relation::weighted_edges(&[
//!     (1, 2, 1.0), (2, 3, 2.0), (1, 3, 10.0),
//! ])).unwrap();
//!
//! let result = ctx.query(
//!     "WITH recursive path (Dst, min() AS Cost) AS \
//!        (SELECT 1, 0.0) UNION \
//!        (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge \
//!         WHERE path.Dst = edge.Src) \
//!      SELECT Dst, Cost FROM path",
//! ).unwrap();
//! assert_eq!(result.relation.len(), 3); // shortest paths to nodes 1, 2, 3
//! ```

pub use rasql_core as core;
pub use rasql_datagen as datagen;
pub use rasql_exec as exec;
pub use rasql_gap as gap;
pub use rasql_myria as myria;
pub use rasql_parser as parser;
pub use rasql_plan as plan;
pub use rasql_storage as storage;
pub use rasql_vertex as vertex;

pub use rasql_core::{EngineConfig, QueryResult, QueryTrace, RaSqlContext};
pub use rasql_storage::{DataType, Relation, Row, Schema, Value};

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use rasql_core::{
        EngineConfig, EvalMode, JoinStrategy, QueryResult, QueryStats, QueryTrace, RaSqlContext,
    };
    pub use rasql_storage::{DataType, Relation, Row, Schema, Value};
}
