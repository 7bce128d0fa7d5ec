//! Conversions from engine-internal results and errors to the wire-facing
//! [`rasql_api`] types.
//!
//! The engine and the wire deliberately share their data vocabulary —
//! `Value`, `Row`, and `Schema` are defined in `rasql-api` and re-exported
//! through `rasql-storage` — so converting a result is a flattening, not a
//! translation: rows move wholesale, statistics collapse into the fixed
//! [`rasql_api::QueryStats`] scalar set, and the typed [`EngineError`] tree
//! maps onto the stable `RA####` code space.

use crate::context::{QueryResult, QueryStats};
use crate::error::EngineError;
use rasql_api::{ApiError, ErrorCode};
use rasql_exec::ExecError;

/// Flatten an engine result into its wire form: schema, rows (the
/// relation's own buffer, shared, not copied), and the scalar statistics
/// subset (the trace, if any, stays server-side).
pub fn result_to_wire(result: &QueryResult) -> rasql_api::QueryResult {
    rasql_api::QueryResult {
        schema: result.relation.schema().clone(),
        rows: std::sync::Arc::clone(result.relation.shared_rows()),
        stats: stats_to_wire(&result.stats),
    }
}

/// Collapse engine statistics into the wire scalar set (per-clique iteration
/// counts sum into one total; wall time becomes microseconds).
pub fn stats_to_wire(stats: &QueryStats) -> rasql_api::QueryStats {
    rasql_api::QueryStats {
        query_id: stats.query_id,
        elapsed_us: u64::try_from(stats.elapsed.as_micros()).unwrap_or(u64::MAX),
        iterations: stats.iterations.iter().map(|&i| u64::from(i)).sum(),
        stages: stats.metrics.stages,
        tasks: stats.metrics.tasks,
        shuffle_rows: stats.metrics.shuffle_rows,
        shuffle_bytes: stats.metrics.shuffle_bytes,
        peak_memory: stats.metrics.peak_memory,
        spilled_bytes: stats.metrics.spilled_bytes,
        spill_files: stats.metrics.spill_files,
    }
}

/// Map an engine error onto its stable wire code. The message is the
/// engine's full rendering (spans and all); the code is what clients branch
/// on.
pub fn error_to_wire(err: &EngineError) -> ApiError {
    let code = match err {
        EngineError::Parse(_) => ErrorCode::Parse,
        EngineError::Plan(_) => ErrorCode::Plan,
        EngineError::Storage(_) => ErrorCode::Storage,
        EngineError::Exec(e) => match e {
            ExecError::Cancelled { .. } => ErrorCode::Cancelled,
            ExecError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
            ExecError::MemoryExceeded { .. } => ErrorCode::MemoryExceeded,
            ExecError::SpillIo { .. } => ErrorCode::SpillIo,
            ExecError::AdmissionRejected { .. } => ErrorCode::AdmissionRejected,
            ExecError::TaskPanicked { .. }
            | ExecError::RetriesExhausted { .. }
            | ExecError::WorkerUnavailable { .. } => ErrorCode::ExecutionFailed,
        },
        EngineError::NonTermination { .. } => ErrorCode::NonTermination,
        EngineError::UnknownView(_) => ErrorCode::UnknownView,
        EngineError::Other(_) => ErrorCode::Internal,
    };
    ApiError::new(code, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RaSqlContext;
    use rasql_storage::{Relation, Value};

    #[test]
    fn result_flattens_rows_and_stats() {
        let ctx = RaSqlContext::builder().workers(2).build();
        ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
            .unwrap();
        let result = ctx
            .query(
                "WITH recursive tc (Src, Dst) AS \
                   (SELECT Src, Dst FROM edge) UNION \
                   (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
                 SELECT Src, Dst FROM tc",
            )
            .unwrap();
        let wire = result_to_wire(&result);
        assert_eq!(wire.rows.len(), result.relation.len());
        assert_eq!(wire.schema.arity(), 2);
        assert!(wire.stats.iterations > 0);
        assert_eq!(wire.stats.query_id, result.stats.query_id);
        // Row order is not guaranteed; compare as a sorted set.
        let sorted = wire.sorted_rows();
        assert_eq!(sorted[0].values(), [Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn errors_map_to_stable_codes() {
        let ctx = RaSqlContext::in_memory();
        let parse = ctx.query("SELEKT 1").unwrap_err();
        assert_eq!(error_to_wire(&parse).code, ErrorCode::Parse);
        let plan = ctx.query("SELECT * FROM missing").unwrap_err();
        assert_eq!(error_to_wire(&plan).code, ErrorCode::Plan);
        let other = EngineError::Other("boom".into());
        assert_eq!(error_to_wire(&other).code, ErrorCode::Internal);
        assert_eq!(error_to_wire(&other).message, "boom");
    }
}
