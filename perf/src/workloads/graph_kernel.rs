//! `graph_kernel`: the paper's headline graph queries on one large RMAT
//! graph, all answered by the specialised CSR kernels.

use crate::harness::{engine, measure, run_cycles, Placed, Report, RunArgs, Stmt, TracedSide};
use crate::inputs::{rmat_graph, shape_vertices};
use crate::layers;
use crate::oracle::{self, Expect};
use crate::stats::median;
use rasql_core::library;
use rasql_gap::Csr;

/// RMAT vertices (10 edges each).
const VERTICES: usize = 65_536;
/// Sources inside the giant component; the source moves on at every replacement.
const SOURCES: usize = 8;
/// `edge` is re-registered before every this-many-th cycle, so one cycle in
/// this many pays the cold CSR builds (the CSR cache keys on table version
/// and source) and the rest find them cached.
const REPLACE_EVERY: usize = 4;

pub fn run(args: &RunArgs) -> Report {
    let vertices = if args.smoke { 256 } else { VERTICES };
    let (edges, relabel) = rmat_graph(vertices, true, args.seed);

    // Expectations, from `rasql_gap` over its own CSR.
    let csr = Csr::from_relation(&edges);
    let cc_rows = oracle::cc(&edges);
    let big = |v: usize| oracle::reach(&csr, relabel.id(v)).len() >= vertices / 2;
    let cycles: Vec<Vec<Placed>> = shape_vertices(vertices, SOURCES, big)
        .into_iter()
        .map(|v| {
            let s = relabel.id(v);
            let id = s as i64;
            [
                Stmt::new("cc", library::cc(), Expect::exact(&cc_rows)),
                Stmt::new(
                    "cc_count",
                    library::cc_count(),
                    Expect::exact(&oracle::cc_count(&cc_rows)),
                ),
                Stmt::new(
                    "reach",
                    library::reach(id),
                    Expect::exact(&oracle::reach(&csr, s)),
                ),
                Stmt::new(
                    "sssp",
                    library::sssp(id),
                    Expect::exact(&oracle::sssp(&csr, s)),
                ),
                Stmt::new(
                    "sssp_hops",
                    library::sssp_hops(id),
                    Expect::exact(&oracle::hops(&csr, s)),
                ),
                Stmt::new(
                    "widest_path",
                    library::widest_path(id),
                    Expect::exact(&oracle::widest(&csr, s)),
                ),
            ]
            .into_iter()
            .map(|stmt| (0, stmt))
            .collect()
        })
        .collect();

    let mut side = TracedSide::new(args);
    let mut cold_cc_ms = Vec::new();
    let measured = measure(
        args,
        || {
            let ctx = engine().build();
            ctx.register("edge", edges.clone()).expect("register edge");
            // Warm-up: one unrecorded cycle.
            for (_, stmt) in &cycles[0] {
                ctx.query(&stmt.sql).expect("warm-up statement");
            }
            [ctx]
        },
        |ctxs, rec| {
            run_cycles(
                args,
                ctxs,
                |i| Some(&cycles[i / REPLACE_EVERY % SOURCES][..]),
                |i| {
                    if i % REPLACE_EVERY == 0 {
                        ctxs[0]
                            .register_or_replace("edge", edges.clone())
                            .expect("replace edge");
                    }
                },
                |i, j, ms| {
                    if i % REPLACE_EVERY == 0 && j == 0 {
                        cold_cc_ms.push(ms);
                    }
                },
                rec,
                &mut side,
            );
        },
        |_| Ok(()),
    );

    let metrics = if args.traced {
        let mut metrics = side.metrics(&measured.rec);
        let warm_cc = median(&[measured.rec.kind_median("cc"), side.plain.kind_median("cc")]);
        metrics.insert("core.cache.csr_cold_ms", median(&cold_cc_ms) - warm_cc);
        let ctx = engine().build();
        ctx.register("edge", edges.clone()).expect("register edge");
        let kinds: Vec<_> = cycles[0]
            .iter()
            .map(|(_, s)| (&ctx, s.kind, s.sql.as_str()))
            .collect();
        layers::frontend(&kinds, &mut side.spans, &mut metrics);
        layers::kernel(
            edges.rows(),
            relabel.id(0) as i64,
            &mut side.spans,
            &mut metrics,
        );
        metrics
    } else {
        measured.end_to_end()
    };
    let sizes = format!(
        "RMAT-{vertices} weighted, {} edges; edge re-registered and the source moved every {REPLACE_EVERY} cycles",
        edges.len()
    );
    Report::new(args, "graph_kernel", sizes, measured, side, metrics)
}
