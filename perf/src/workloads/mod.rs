//! The four workloads; `BENCHMARK.json` says why each exists.

pub mod graph_generic;
pub mod graph_kernel;
pub mod ingest_durable;
pub mod serve_mixed;

use crate::harness::{Report, RunArgs};

/// Run the workload `name` names, or `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Report> {
    Some(match name {
        "graph_kernel" => graph_kernel::run(args),
        "graph_generic" => graph_generic::run(args),
        "serve_mixed" => serve_mixed::run(args),
        "ingest_durable" => ingest_durable::run(args),
        _ => return None,
    })
}
