//! Shared benchmark harness for the paper's evaluation (§8, Appendices D-F).
//!
//! Every figure/table has a `fig*`/`table*` function that produces the same
//! rows/series the paper reports, at laptop scale. The `reproduce` binary
//! prints them.

use rasql_core::{library, EngineConfig, EngineError, JoinStrategy, JsonValue, RaSqlContext};
use rasql_datagen::{
    erdos_renyi, grid, real_graph_standin, rmat, tree_hierarchy, RealGraph, RmatConfig, TreeConfig,
};
use rasql_exec::{
    default_workers, scan_delta, scan_delta_set, Cluster, ClusterConfig, DenseAggState,
    DenseSetState, FaultSpec, KernelValue, MinOp, RecoveryKind,
};
use rasql_gap::Csr;
use rasql_myria::{Algorithm as MyriaAlgo, MyriaEngine};
use rasql_storage::{CsrGraph, CsrWeight, Relation};
use rasql_vertex::{BspEngine, Cc, DatasetPregelEngine, Reach, Sssp, VertexGraph};
use std::time::{Duration, Instant};

/// A named benchmark workload: display name, input tables, SQL text.
type Workload<'a> = (&'a str, Vec<(&'a str, &'a Relation)>, String);

/// The graph programs of §8.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphQuery {
    /// Breadth-first reachability.
    Reach,
    /// Connected components (min-label propagation).
    Cc,
    /// Single-source shortest paths.
    Sssp,
}

impl GraphQuery {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            GraphQuery::Reach => "REACH",
            GraphQuery::Cc => "CC",
            GraphQuery::Sssp => "SSSP",
        }
    }

    /// Whether the workload needs edge weights.
    pub fn weighted(&self) -> bool {
        matches!(self, GraphQuery::Sssp)
    }

    fn rasql_sql(&self, source: i64) -> String {
        match self {
            GraphQuery::Reach => library::reach(source),
            GraphQuery::Cc => library::cc(),
            GraphQuery::Sssp => library::sssp(source),
        }
    }
}

/// The systems compared in Fig 8/9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// This paper's engine, fully optimized.
    RaSql,
    /// The BigDatalog stand-in (no stage combination / codegen — DESIGN.md).
    BigDatalog,
    /// GraphX analog (dataset-backed Pregel, 4 stages per superstep).
    GraphX,
    /// Giraph analog (tuned BSP).
    Giraph,
    /// Myria analog (asynchronous semi-naive).
    Myria,
    /// GAP-style serial baseline.
    GapSerial,
}

impl System {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::RaSql => "RaSQL",
            System::BigDatalog => "BigDatalog",
            System::GraphX => "GraphX",
            System::Giraph => "Giraph",
            System::Myria => "Myria",
            System::GapSerial => "GAP-serial",
        }
    }

    /// All distributed systems plus the serial baseline.
    pub fn all() -> [System; 6] {
        [
            System::RaSql,
            System::BigDatalog,
            System::GraphX,
            System::Giraph,
            System::Myria,
            System::GapSerial,
        ]
    }
}

/// The host's cores as the OS reports them (`available_parallelism`), if
/// it does. The BENCH artifacts record it beside their worker count.
fn host_cores() -> Option<usize> {
    std::thread::available_parallelism().ok().map(|n| n.get())
}

/// The `"cores"` field of a BENCH artifact: the host's cores, or null.
fn cores_field() -> (String, JsonValue) {
    let cores = host_cores().map_or(JsonValue::Null, |n| JsonValue::Num(n as f64));
    ("cores".into(), cores)
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// Run a graph query on a system; returns (elapsed, result cardinality).
pub fn run_graph_query(
    system: System,
    query: GraphQuery,
    edges: &Relation,
    source: i64,
    workers: usize,
) -> (Duration, usize) {
    match system {
        System::RaSql => run_rasql(EngineConfig::rasql().workers(workers), query, edges, source),
        System::BigDatalog => run_rasql(
            EngineConfig::bigdatalog_like().workers(workers),
            query,
            edges,
            source,
        ),
        System::GraphX => {
            let g = VertexGraph::from_relation(edges);
            let cluster = Cluster::new(ClusterConfig::with_workers(workers));
            let engine = DatasetPregelEngine::new(&cluster);
            let (d, vals) = match query {
                GraphQuery::Reach => time(|| {
                    engine
                        .run(
                            &g,
                            Reach {
                                source: source as u32,
                            },
                        )
                        .0
                }),
                GraphQuery::Cc => time(|| engine.run(&g, Cc).0),
                GraphQuery::Sssp => time(|| {
                    engine
                        .run(
                            &g,
                            Sssp {
                                source: source as u32,
                            },
                        )
                        .0
                }),
            };
            (d, vals.iter().filter(|v| v.is_finite()).count())
        }
        System::Giraph => {
            let g = VertexGraph::from_relation(edges);
            let cluster = Cluster::new(ClusterConfig::with_workers(workers));
            let engine = BspEngine::new(&cluster);
            let (d, vals) = match query {
                GraphQuery::Reach => time(|| {
                    engine
                        .run(
                            &g,
                            Reach {
                                source: source as u32,
                            },
                        )
                        .0
                }),
                GraphQuery::Cc => time(|| engine.run(&g, Cc).0),
                GraphQuery::Sssp => time(|| {
                    engine
                        .run(
                            &g,
                            Sssp {
                                source: source as u32,
                            },
                        )
                        .0
                }),
            };
            (d, vals.iter().filter(|v| v.is_finite()).count())
        }
        System::Myria => {
            let engine = MyriaEngine::new(workers);
            let algo = match query {
                GraphQuery::Reach => MyriaAlgo::Reach {
                    source: source as u32,
                },
                GraphQuery::Cc => MyriaAlgo::Cc,
                GraphQuery::Sssp => MyriaAlgo::Sssp {
                    source: source as u32,
                },
            };
            let (d, (vals, _)) = time(|| engine.run(edges, algo));
            (d, vals.iter().filter(|v| v.is_finite()).count())
        }
        System::GapSerial => {
            let csr = Csr::from_relation(edges);
            match query {
                GraphQuery::Reach => {
                    let (d, r) = time(|| rasql_gap::bfs_reach(&csr, source as usize));
                    (d, r.len())
                }
                GraphQuery::Cc => {
                    let (d, r) = time(|| rasql_gap::cc_label_propagation(edges));
                    (d, r.len())
                }
                GraphQuery::Sssp => {
                    let (d, r) = time(|| rasql_gap::sssp_dijkstra(&csr, source as usize));
                    (d, r.len())
                }
            }
        }
    }
}

/// Run a RaSQL config on a graph query.
pub fn run_rasql(
    config: EngineConfig,
    query: GraphQuery,
    edges: &Relation,
    source: i64,
) -> (Duration, usize) {
    let ctx = config.build();
    ctx.register("edge", edges.clone()).unwrap();
    let (d, result) = time(|| ctx.query(&query.rasql_sql(source)).unwrap());
    (d, result.relation.len())
}

/// Run an arbitrary SQL statement under a config with pre-registered tables.
pub fn run_sql_with(
    config: EngineConfig,
    tables: &[(&str, &Relation)],
    sql: &str,
) -> (Duration, usize, rasql_core::QueryStats) {
    let ctx = config.build();
    for (name, rel) in tables {
        ctx.register(name, (*rel).clone()).unwrap();
    }
    let (d, result) = time(|| ctx.query(sql).unwrap());
    (d, result.relation.len(), result.stats)
}

/// Run an arbitrary SQL statement with tracing on; returns the elapsed time,
/// result cardinality, and the full [`rasql_core::QueryTrace`] (e.g. for the
/// `reproduce` binary's JSON artifacts).
pub fn run_traced(
    config: EngineConfig,
    tables: &[(&str, &Relation)],
    sql: &str,
) -> (Duration, usize, rasql_core::QueryTrace) {
    let ctx = config.tracing(true).build();
    for (name, rel) in tables {
        ctx.register(name, (*rel).clone()).unwrap();
    }
    let (d, result) = time(|| ctx.query(sql).unwrap());
    let trace = result.trace.expect("tracing enabled");
    (d, result.relation.len(), trace)
}

/// RMAT graph per the paper's §8 parameters.
pub fn rmat_graph(n: usize, weighted: bool, seed: u64) -> Relation {
    rmat(
        n,
        RmatConfig {
            weighted,
            ..Default::default()
        },
        seed,
    )
}

/// A formatted output row.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
            title: title.to_string(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render aligned.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                } else {
                    widths.push(c.len());
                }
            }
        }
        let mut out = format!("\n=== {} ===\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a duration in milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

// ====================================================================
// Figure/table reproductions
// ====================================================================

/// Fig 1: stratified query vs RaSQL on CC and SSSP. The stratified SSSP on a
/// cyclic graph is capped (the paper's `360*` footnote).
pub fn fig1(scale: f64) -> Table {
    let n = ((8_000.0 * scale) as usize).max(200);
    let edges = rmat_graph(n, true, 42);
    let workers = default_workers();
    let mut t = Table::new(
        "Fig 1 — Stratified vs RaSQL (times in ms)",
        &["query", "time_ms", "iterations", "note"],
    );
    for (name, sql, cap) in [
        ("RaSQL-CC", library::cc(), 100_000u32),
        ("RaSQL-SSSP", library::sssp(1), 100_000),
        ("Stratified-CC", library::cc_stratified(), 100_000),
        // The stratified SSSP enumerates every path cost and diverges on
        // cycles; only a few "meaningful iterations" are run, like the
        // paper's `360*` footnote.
        ("Stratified-SSSP", library::sssp_stratified(1), 8),
    ] {
        let ctx = EngineConfig::rasql()
            .workers(workers)
            .max_iterations(cap)
            .build();
        ctx.register("edge", edges.clone()).unwrap();
        let t0 = Instant::now();
        match ctx.query(&sql) {
            Ok(result) => {
                t.row(vec![
                    name.into(),
                    ms(t0.elapsed()),
                    format!("{:?}", result.stats.iterations),
                    String::new(),
                ]);
            }
            Err(_) => {
                t.row(vec![
                    name.into(),
                    ms(t0.elapsed()),
                    format!("{cap}*"),
                    "* capped: does not terminate (cycles)".into(),
                ]);
            }
        }
    }
    t
}

/// Fig 2: the compiled clique + physical plan for the BOM Q2 query.
pub fn fig2() -> String {
    let ctx = RaSqlContext::in_memory();
    ctx.register(
        "assbl",
        Relation::try_new(
            rasql_storage::Schema::new(vec![
                ("Part", rasql_storage::DataType::Int),
                ("SPart", rasql_storage::DataType::Int),
            ]),
            vec![],
        )
        .unwrap(),
    )
    .unwrap();
    ctx.register(
        "basic",
        Relation::try_new(
            rasql_storage::Schema::new(vec![
                ("Part", rasql_storage::DataType::Int),
                ("Days", rasql_storage::DataType::Int),
            ]),
            vec![],
        )
        .unwrap(),
    )
    .unwrap();
    format!(
        "\n=== Fig 2 — RaSQL query plan for BOM Q2 ===\n{}",
        ctx.explain(&library::bom_delivery()).unwrap()
    )
}

/// Fig 5: effect of stage combination on CC/REACH/SSSP over RMAT sizes.
pub fn fig5(scale: f64) -> Table {
    let workers = default_workers();
    let sizes: Vec<usize> = [16_000, 32_000, 64_000, 128_000]
        .iter()
        .map(|&n| ((n as f64) * scale) as usize)
        .collect();
    let mut t = Table::new(
        "Fig 5 — Effect of Stage Combination (times in ms)",
        &["graph", "query", "with_comb", "without_comb", "speedup"],
    );
    for &n in &sizes {
        for q in [GraphQuery::Cc, GraphQuery::Reach, GraphQuery::Sssp] {
            let edges = rmat_graph(n, q.weighted(), 7);
            let (on, _) = run_rasql(
                EngineConfig::rasql()
                    .workers(workers)
                    .decomposed_plans(false),
                q,
                &edges,
                1,
            );
            let (off, _) = run_rasql(
                EngineConfig::rasql()
                    .workers(workers)
                    .decomposed_plans(false)
                    .stage_combination(false),
                q,
                &edges,
                1,
            );
            t.row(vec![
                format!("RMAT-{}k", n / 1000),
                q.name().into(),
                ms(on),
                ms(off),
                format!("{:.2}x", off.as_secs_f64() / on.as_secs_f64()),
            ]);
        }
    }
    t
}

/// Fig 6: decomposed plan evaluation + broadcast compression on TC.
pub fn fig6(scale: f64) -> Table {
    let workers = default_workers();
    let mut t = Table::new(
        "Fig 6 — Decomposition and Broadcast Compression, TC (times in ms)",
        &[
            "graph",
            "decomp+compress",
            "decomp_only",
            "no_opts",
            "bytes_compress",
            "bytes_raw",
        ],
    );
    let gscale = |v: usize| ((v as f64) * scale.sqrt()).max(8.0) as usize;
    let datasets: Vec<(String, Relation)> = vec![
        (format!("Grid{}", gscale(60)), grid(gscale(60), false, 1)),
        (format!("Grid{}", gscale(100)), grid(gscale(100), false, 1)),
        (
            format!("G{}-3", gscale(1500)),
            erdos_renyi(gscale(1500), 1e-3, 2),
        ),
        (
            format!("G{}-2", gscale(600)),
            erdos_renyi(gscale(600), 1e-2, 3),
        ),
    ];
    for (name, edges) in datasets {
        let run = |decomposed: bool, compress: bool| {
            run_sql_with(
                EngineConfig::rasql()
                    .workers(workers)
                    .decomposed_plans(decomposed)
                    .broadcast_compression(compress),
                &[("edge", &edges)],
                &library::transitive_closure(),
            )
        };
        let (t_dc, _, s_dc) = run(true, true);
        let (t_d, _, s_d) = run(true, false);
        let (t_n, _, _) = run(false, false);
        t.row(vec![
            name,
            ms(t_dc),
            ms(t_d),
            ms(t_n),
            format!("{}", s_dc.metrics.broadcast_bytes),
            format!("{}", s_d.metrics.broadcast_bytes),
        ]);
    }
    t
}

/// Fig 7: effect of (fused) code generation on CC/REACH/SSSP. Both legs run
/// the generic interpreter (`specialized_kernels(false)`): the kernels have
/// no operator pipeline for the switch to act on.
pub fn fig7(scale: f64) -> Table {
    let workers = default_workers();
    let sizes: Vec<usize> = [16_000, 32_000, 64_000, 128_000]
        .iter()
        .map(|&n| ((n as f64) * scale) as usize)
        .collect();
    let mut t = Table::new(
        "Fig 7 — Effect of Code Generation (fused pipelines, times in ms)",
        &[
            "graph",
            "query",
            "with_codegen",
            "without_codegen",
            "speedup",
        ],
    );
    let interpreter = |fused: bool| {
        EngineConfig::rasql()
            .workers(workers)
            .decomposed_plans(false)
            .specialized_kernels(false)
            .fused_codegen(fused)
    };
    for &n in &sizes {
        for q in [GraphQuery::Cc, GraphQuery::Reach, GraphQuery::Sssp] {
            let edges = rmat_graph(n, q.weighted(), 7);
            // Best of three per leg: one disturbed run moves neither side.
            let best = |fused: bool| {
                let runs = (0..3).map(|_| run_rasql(interpreter(fused), q, &edges, 1).0);
                runs.min().unwrap_or_default()
            };
            let (on, off) = (best(true), best(false));
            t.row(vec![
                format!("RMAT-{}k", n / 1000),
                q.name().into(),
                ms(on),
                ms(off),
                format!("{:.2}x", off.as_secs_f64() / on.as_secs_f64()),
            ]);
        }
    }
    t
}

/// Fig 8: system comparison over RMAT sizes (1k..128k at scale 1).
pub fn fig8(scale: f64) -> Table {
    let workers = default_workers();
    let sizes: Vec<usize> = [1, 2, 4, 8, 16, 32, 64, 128]
        .iter()
        .map(|&k| ((k * 1000) as f64 * scale) as usize)
        .collect();
    let mut t = Table::new(
        "Fig 8 — System comparison on RMAT graphs (times in ms)",
        &[
            "query",
            "vertices",
            "RaSQL",
            "BigDatalog",
            "GraphX",
            "Giraph",
            "Myria",
        ],
    );
    for q in [GraphQuery::Reach, GraphQuery::Cc, GraphQuery::Sssp] {
        for &n in &sizes {
            let edges = rmat_graph(n, q.weighted(), 11);
            let mut cells = vec![q.name().to_string(), format!("{n}")];
            for sys in [
                System::RaSql,
                System::BigDatalog,
                System::GraphX,
                System::Giraph,
                System::Myria,
            ] {
                let (d, _) = run_graph_query(sys, q, &edges, 1, workers);
                cells.push(ms(d));
            }
            t.row(cells);
        }
    }
    t
}

/// Fig 9 + Table 3: real-graph stand-ins across all systems incl. GAP-serial.
pub fn fig9(scale: f64) -> Table {
    let workers = default_workers();
    let mut t = Table::new(
        "Fig 9 / Table 3 — Real-graph stand-ins (times in ms; see DESIGN.md substitutions)",
        &[
            "graph",
            "query",
            "RaSQL",
            "BigDatalog",
            "GraphX",
            "Giraph",
            "Myria",
            "GAP-serial",
        ],
    );
    for which in [
        RealGraph::LiveJournal,
        RealGraph::Orkut,
        RealGraph::Arabic,
        RealGraph::Twitter,
    ] {
        for q in [GraphQuery::Reach, GraphQuery::Cc, GraphQuery::Sssp] {
            let edges = real_graph_standin(which, scale, q.weighted(), 23);
            let mut cells = vec![which.name().to_string(), q.name().to_string()];
            for sys in System::all() {
                let (d, _) = run_graph_query(sys, q, &edges, 1, workers);
                cells.push(ms(d));
            }
            t.row(cells);
        }
    }
    t
}

/// Fig 10: Delivery / Management / MLM vs GraphX-style and SQL-loop baselines.
pub fn fig10(scale: f64) -> Table {
    let workers = default_workers();
    let sizes: Vec<usize> = [40_000, 80_000, 160_000, 300_000]
        .iter()
        .map(|&n| ((n as f64) * scale) as usize)
        .collect();
    let mut t = Table::new(
        "Fig 10 — Complex analytics on tree hierarchies (times in ms)",
        &["query", "nodes", "RaSQL", "SQL-SN", "SQL-Naive"],
    );
    for &n in &sizes {
        let tree = tree_hierarchy(
            TreeConfig {
                target_nodes: n,
                ..Default::default()
            },
            5,
        );
        let workloads: Vec<Workload<'_>> = vec![
            (
                "Delivery",
                vec![("assbl", &tree.assbl), ("basic", &tree.basic)],
                library::bom_delivery(),
            ),
            (
                "Management",
                vec![("report", &tree.report)],
                library::management(),
            ),
            (
                "MLM",
                vec![("sales", &tree.sales), ("sponsor", &tree.sponsor)],
                library::mlm_bonus(),
            ),
        ];
        for (name, tables, sql) in workloads {
            let (t_rasql, _, _) =
                run_sql_with(EngineConfig::rasql().workers(workers), &tables, &sql);
            let (t_sn, _, _) =
                run_sql_with(EngineConfig::spark_sql_sn().workers(workers), &tables, &sql);
            let (t_naive, _, _) = run_sql_with(
                EngineConfig::spark_sql_naive().workers(workers),
                &tables,
                &sql,
            );
            t.row(vec![
                name.into(),
                format!("{n}"),
                ms(t_rasql),
                ms(t_sn),
                ms(t_naive),
            ]);
        }
    }
    t
}

/// Fig 11 / Appendix D: shuffle-hash vs sort-merge join — on the generic
/// interpreter on both legs: a kernel-selected clique joins through its CSR
/// graph whatever `join` says, so with the kernels on the two columns would
/// time the same code.
pub fn fig11(scale: f64) -> Table {
    let workers = default_workers();
    let sizes: Vec<usize> = [16_000, 32_000, 64_000, 128_000]
        .iter()
        .map(|&n| ((n as f64) * scale) as usize)
        .collect();
    let mut t = Table::new(
        "Fig 11 — Shuffle-Hash vs Sort-Merge join (times in ms)",
        &["graph", "query", "shuffle_hash", "sort_merge"],
    );
    for &n in &sizes {
        for q in [GraphQuery::Cc, GraphQuery::Reach, GraphQuery::Sssp] {
            let edges = rmat_graph(n, q.weighted(), 7);
            let interpreter = EngineConfig::rasql()
                .workers(workers)
                .decomposed_plans(false)
                .specialized_kernels(false);
            let (h, _) = run_rasql(interpreter.clone(), q, &edges, 1);
            let (m, _) = run_rasql(interpreter.join(JoinStrategy::SortMerge), q, &edges, 1);
            t.row(vec![
                format!("RMAT-{}k", n / 1000),
                q.name().into(),
                ms(h),
                ms(m),
            ]);
        }
    }
    t
}

/// Fig 12 / Appendix F: scaling over cluster size (TC and SG).
pub fn fig12(scale: f64) -> Table {
    let max_workers = default_workers();
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8]
        .iter()
        .copied()
        .filter(|&w| w <= max_workers.max(2))
        .collect();
    let mut t = Table::new(
        "Fig 12 — Scaling out over cluster size (times in ms)",
        &["workload", "workers", "time_ms"],
    );
    let g = erdos_renyi(((4000.0 * scale) as usize).max(100), 1e-3, 2);
    let tree = tree_hierarchy(
        TreeConfig {
            target_nodes: ((3_000.0 * scale) as usize).max(100),
            ..Default::default()
        },
        11,
    );
    // rel(Parent, Child) for SG.
    let rel = Relation::try_new(
        rasql_storage::Schema::new(vec![
            ("Parent", rasql_storage::DataType::Int),
            ("Child", rasql_storage::DataType::Int),
        ]),
        tree.assbl.rows().to_vec(),
    )
    .unwrap();
    for &w in &worker_counts {
        let (d, _, _) = run_sql_with(
            EngineConfig::rasql().workers(w),
            &[("edge", &g)],
            &library::transitive_closure(),
        );
        t.row(vec!["TC-G4K".into(), format!("{w}"), ms(d)]);
    }
    for &w in &worker_counts {
        let (d, _, _) = run_sql_with(
            EngineConfig::rasql().workers(w),
            &[("rel", &rel)],
            &library::same_generation(),
        );
        t.row(vec!["SG-Tree".into(), format!("{w}"), ms(d)]);
    }
    t
}

/// Fig 13 (beyond the paper): monomorphized CSR fixpoint kernels vs the
/// generic interpreter on CC / REACH / SSSP.
///
/// Both legs run with the simulated per-stage dispatch latency zeroed so the
/// ratio measures the inner loops (CSR scan + dense vertex state vs hashed
/// `Row`/`Value` plumbing), not the dispatch model. The kernel label comes
/// from a traced run, which doubles as a selection sanity check; result
/// cardinalities must agree between the legs.
///
/// Returns the rendered table plus the `BENCH_kernels.json` artifact: one
/// record per (graph, query) with both times and the speedup.
pub fn fig13(scale: f64) -> (Table, JsonValue) {
    let workers = default_workers();
    let mut sizes: Vec<usize> = [4_096, 16_384, 65_536]
        .iter()
        .map(|&n| (((n as f64) * scale) as usize).max(4_096))
        .collect();
    // Small scales clamp several sizes to the 4096-vertex floor.
    sizes.dedup();
    let mut t = Table::new(
        "Fig 13 — Specialized fixpoint kernels (times in ms)",
        &[
            "graph",
            "query",
            "kernel",
            "specialized",
            "generic",
            "speedup",
            "rounds push/pull",
            "edges kernel/generic",
        ],
    );
    let base_cfg = || EngineConfig::rasql().workers(workers).stage_latency_us(0);
    let mut records = Vec::new();
    for &n in &sizes {
        for q in [GraphQuery::Cc, GraphQuery::Reach, GraphQuery::Sssp] {
            let edges = rmat_graph(n, q.weighted(), 7);
            let (_, _, trace) = run_traced(base_cfg(), &[("edge", &edges)], &q.rasql_sql(1));
            let kernel = trace.cliques[0].kernel.clone();
            // The ratio's deterministic shadow: the kernel's rounds by
            // direction and the edges each leg reads.
            let rounds = &trace.cliques[0].iterations;
            let pulled = rounds.iter().filter(|it| it.pull).count();
            let kernel_edges: u64 = rounds.iter().map(|it| it.edges).sum();
            let generic_edges = join_edges(&edges, q, 1);
            // The gated ratio is min-of-3 over min-of-3: each leg's best of
            // three runs, so one disturbed run moves neither side.
            let best = |cfg: &EngineConfig| {
                (0..3)
                    .map(|_| run_rasql(cfg.clone(), q, &edges, 1))
                    .min_by_key(|&(d, _)| d)
                    .unwrap()
            };
            let (spec_t, spec_rows) = best(&base_cfg());
            let (gen_t, gen_rows) = best(&base_cfg().specialized_kernels(false));
            assert_eq!(
                spec_rows,
                gen_rows,
                "kernel diverged from the interpreter on {} RMAT-{n}",
                q.name()
            );
            let speedup = gen_t.as_secs_f64() / spec_t.as_secs_f64();
            t.row(vec![
                format!("RMAT-{}k", n / 1000),
                q.name().into(),
                kernel.clone(),
                ms(spec_t),
                ms(gen_t),
                format!("{speedup:.2}x"),
                format!("{}/{pulled}", rounds.len() - pulled),
                format!("{kernel_edges}/{generic_edges}"),
            ]);
            records.push(JsonValue::Obj(vec![
                (
                    "graph".into(),
                    JsonValue::Str(format!("RMAT-{}k", n / 1000)),
                ),
                ("vertices".into(), JsonValue::Num(n as f64)),
                ("edges".into(), JsonValue::Num(edges.len() as f64)),
                ("query".into(), JsonValue::Str(q.name().into())),
                ("kernel".into(), JsonValue::Str(kernel)),
                (
                    "specialized_ms".into(),
                    JsonValue::Num(spec_t.as_secs_f64() * 1e3),
                ),
                (
                    "generic_ms".into(),
                    JsonValue::Num(gen_t.as_secs_f64() * 1e3),
                ),
                ("speedup".into(), JsonValue::Num(speedup)),
                (
                    "push_rounds".into(),
                    JsonValue::Num((rounds.len() - pulled) as f64),
                ),
                ("pull_rounds".into(), JsonValue::Num(pulled as f64)),
                ("kernel_edges".into(), JsonValue::Num(kernel_edges as f64)),
                ("generic_edges".into(), JsonValue::Num(generic_edges as f64)),
            ]));
        }
    }
    let json = JsonValue::Obj(vec![
        ("figure".into(), JsonValue::Str("fig13_kernels".into())),
        ("workers".into(), JsonValue::Num(workers as f64)),
        cores_field(),
        ("scale".into(), JsonValue::Num(scale)),
        ("rows".into(), JsonValue::Arr(records)),
    ]);
    (t, json)
}

/// The edges the interpreter's leg of [`fig13`] reads for `query` from
/// `source`: each round joins its delta with `edge`, matching every out-edge
/// of the delta's vertices once. Its rounds and deltas are the kernel's, so
/// they are replayed here with the kernel's own push, on one partition.
fn join_edges(edges: &Relation, query: GraphQuery, source: i64) -> u64 {
    let weight = match query {
        GraphQuery::Sssp => CsrWeight::Float {
            col: 2,
            promote_int: true,
        },
        GraphQuery::Cc | GraphQuery::Reach => CsrWeight::None,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the figure replays the kernel's rounds on a graph of its own"
    )]
    let csr = CsrGraph::build(edges.rows(), 0, 1, weight, [source], 1).expect("numeric edge rows");
    let walked = |vertices: &mut dyn Iterator<Item = u32>| -> u64 {
        vertices.map(|v| csr.adjacency(v).len() as u64).sum()
    };
    let id = |v: i64| csr.dense_id(v).expect("a vertex of the graph");
    match query {
        GraphQuery::Reach => {
            let mut state = DenseSetState::new(csr.vertex_count());
            state.insert(id(source));
            let mut total = 0;
            loop {
                let delta = state.take_delta();
                if delta.is_empty() {
                    return total;
                }
                total += walked(&mut delta.iter().copied());
                let mut out = vec![Vec::new()];
                scan_delta_set(&csr, &delta, &mut out);
                for v in out.concat() {
                    state.insert(v);
                }
            }
        }
        GraphQuery::Cc => {
            let labels = edges.rows().iter().map(|r| r[0].as_int().expect("Int ids"));
            let seeds: Vec<(u32, i64)> = labels.map(|v| (id(v), v)).collect();
            min_walk(&csr, &seeds, |label, _| label, walked)
        }
        GraphQuery::Sssp => {
            let ws = &csr.weights_f;
            min_walk(&csr, &[(id(source), 0.0)], |d, e| d + ws[e], walked)
        }
    }
}

/// [`join_edges`] for a `min` query seeded with `seeds`, contributing
/// `along(value, edge)` over each edge.
fn min_walk<T: KernelValue>(
    csr: &CsrGraph,
    seeds: &[(u32, T)],
    along: impl Fn(T, usize) -> T,
    walked: impl Fn(&mut dyn Iterator<Item = u32>) -> u64,
) -> u64 {
    let mut state: DenseAggState<T> = DenseAggState::new(csr.vertex_count());
    for &(v, x) in seeds {
        state.merge::<MinOp>(v, x, 0);
    }
    let (mut total, mut round) = (0, 0);
    loop {
        let delta = state.take_delta(true);
        if delta.is_empty() {
            return total;
        }
        round += 1;
        total += walked(&mut delta.iter().map(|&(v, _)| v));
        let mut out = vec![Vec::new()];
        scan_delta(csr, &delta, &along, &mut out);
        for (v, x) in out.concat() {
            state.merge::<MinOp>(v, x, round);
        }
    }
}

/// The floor `reproduce bench-kernels` gates every (graph, query) ratio of
/// [`fig13`] on: half the smallest ratio measured at `--scale 0.1` with two
/// workers. It was 3.6 when the interpreter leg ran on rows (CC 7.37–14.56×,
/// REACH 10.5–13.1×, SSSP 9.8–14.9×, later 6.5–11× once the index store had
/// made that leg cheaper). The interpreter now runs these three cliques on
/// word-lane tuples, so the denominator fell again — CC 3.77–6.62×, REACH
/// 3.94–6.03×, SSSP 3.83–7.17× over nine runs (see `BENCH_kernels.json`; the
/// kernel leg is unchanged) — and the floor is re-derived from those: a gate
/// on a ratio must follow its denominator, never hold it back. What is left
/// of the generic leg at this scale is mostly building the 40–65 k-edge hash
/// index, which both legs' base relation shares in shape but the kernels
/// replace with a CSR graph. A kernel that stops beating the interpreter by
/// 1.5× would be a candidate for deletion, not for a lower floor.
pub const KERNEL_SPEEDUP_FLOOR: f64 = 1.85;

/// The floor `reproduce ivm` gates the small-delta refresh speedup of [`ivm`]
/// on, set the same way: 6.6–12.4× over seventeen runs at `--scale 0.1` (the
/// recompute leg is an interpreter query, so a faster interpreter lowers it).
/// It holds on the median and on the slowest refresh of a train of
/// [`IVM_TRAIN`] (9.6–11.6× and 9.6–10.1× when the train was introduced).
pub const IVM_SPEEDUP_FLOOR: f64 = 3.3;

/// Consecutive insert-only refreshes the [`ivm`] benchmark times on one
/// context; the floor holds on their median and on the slowest.
pub const IVM_TRAIN: usize = 16;

/// Acceptance gate for [`fig13`]: the specialized kernels must be at least
/// `target`× faster than the interpreter on every (graph, query) row of the
/// artifact.
pub fn kernels_meet_target(json: &JsonValue, target: f64) -> Result<(), String> {
    let rows = json
        .get("rows")
        .and_then(JsonValue::as_arr)
        .ok_or("malformed kernel artifact: no rows")?;
    for r in rows {
        let query = r.get("query").and_then(JsonValue::as_str).unwrap_or("?");
        let graph = r.get("graph").and_then(JsonValue::as_str).unwrap_or("?");
        let speedup = match r.get("speedup") {
            Some(JsonValue::Num(s)) => *s,
            _ => return Err(format!("malformed kernel artifact: no speedup for {query}")),
        };
        if speedup < target {
            return Err(format!(
                "kernel speedup below target on {query} ({graph}): {speedup:.2}x < {target}x"
            ));
        }
    }
    Ok(())
}

/// Table 1: parameters of the real-graph stand-ins.
pub fn table1(scale: f64) -> Table {
    let mut t = Table::new(
        "Table 1 — Real-world graph stand-ins (scaled; see DESIGN.md)",
        &["name", "vertices", "edges", "paper_vertices", "paper_edges"],
    );
    let paper = [
        (RealGraph::LiveJournal, "4,847,572", "68,993,773"),
        (RealGraph::Orkut, "3,072,441", "117,185,083"),
        (RealGraph::Arabic, "22,744,080", "639,999,458"),
        (RealGraph::Twitter, "41,652,231", "1,468,365,182"),
    ];
    for (which, pv, pe) in paper {
        let g = real_graph_standin(which, scale, false, 23);
        let mut vertices = 0usize;
        for r in g.rows() {
            vertices = vertices
                .max(r[0].as_int().unwrap() as usize + 1)
                .max(r[1].as_int().unwrap() as usize + 1);
        }
        t.row(vec![
            which.name().into(),
            format!("{vertices}"),
            format!("{}", g.len()),
            pv.into(),
            pe.into(),
        ]);
    }
    t
}

/// Table 2: synthetic graph parameters with TC/SG output cardinalities,
/// cross-checked between the SQL engine and the serial oracle.
pub fn table2(scale: f64) -> Table {
    let workers = default_workers();
    let mut t = Table::new(
        "Table 2 — Synthetic graphs with TC/SG output sizes (engine = oracle ✓)",
        &["name", "vertices", "edges", "TC", "SG"],
    );
    let s = scale.sqrt();
    let gs = |v: usize| ((v as f64) * s).max(4.0) as usize;
    // Tree for SG + TC.
    let tree = tree_hierarchy(
        TreeConfig {
            target_nodes: gs(2000),
            ..Default::default()
        },
        11,
    );
    let tree_edges = Relation::edges(
        &tree
            .assbl
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect::<Vec<_>>(),
    );
    let datasets: Vec<(String, Relation)> = vec![
        (format!("Tree{}", tree.height), tree_edges),
        (format!("Grid{}", gs(30)), grid(gs(30), false, 1)),
        (
            format!("G{}-3", gs(1500)),
            erdos_renyi(gs(1500), 1e-3 / s.max(0.05), 2),
        ),
    ];
    for (name, edges) in datasets {
        let mut vertices = 0usize;
        for r in edges.rows() {
            vertices = vertices
                .max(r[0].as_int().unwrap() as usize + 1)
                .max(r[1].as_int().unwrap() as usize + 1);
        }
        let tc_oracle = rasql_gap::transitive_closure_count(&edges);
        let sg_oracle = rasql_gap::same_generation_count(&edges);
        // Cross-check TC with the engine.
        let (_, tc_engine, _) = run_sql_with(
            EngineConfig::rasql().workers(workers),
            &[("edge", &edges)],
            &library::transitive_closure(),
        );
        assert_eq!(tc_engine, tc_oracle, "engine/oracle TC mismatch on {name}");
        t.row(vec![
            name,
            format!("{vertices}"),
            format!("{}", edges.len()),
            format!("{tc_oracle}"),
            format!("{sg_oracle}"),
        ]);
    }
    t
}

/// Run the trace suite: CC, SSSP and decomposed TC with tracing enabled,
/// returning `(name, trace)` pairs ready for JSON export (the `reproduce`
/// binary writes them under `target/traces/`).
pub fn trace_suite(scale: f64) -> Vec<(String, rasql_core::QueryTrace)> {
    let n = ((4_000.0 * scale) as usize).max(200);
    let plain = rmat_graph(n, false, 7);
    let weighted = rmat_graph(n, true, 7);
    let mut out = Vec::new();
    let (_, _, trace) = run_traced(
        EngineConfig::rasql().workers(default_workers()),
        &[("edge", &plain)],
        &library::cc(),
    );
    out.push(("cc".to_string(), trace));
    let (_, _, trace) = run_traced(
        EngineConfig::rasql().workers(default_workers()),
        &[("edge", &weighted)],
        &library::sssp(1),
    );
    out.push(("sssp".to_string(), trace));
    let (_, _, trace) = run_traced(
        EngineConfig::rasql()
            .workers(default_workers())
            .decomposed_plans(true),
        &[("edge", &plain)],
        &library::transitive_closure(),
    );
    out.push(("tc_decomposed".to_string(), trace));
    out
}

/// Seeded fault-injection soak over the paper's example queries.
///
/// Each workload runs twice — fault-free, then under deterministic fault
/// injection (per-workload seeds derived from `spec.seed`, since every fresh
/// cluster numbers its stages from zero) — and the results must be
/// identical; any divergence panics, so the tier-1 gate can run this as a
/// hard check. A final leg runs transitive closure with a *zero* retry
/// budget and per-round checkpoints, scanning a fixed seed range for a
/// schedule whose failure lands inside the fixpoint, to exercise the
/// checkpoint/restore path end to end.
pub fn fault_soak(scale: f64, spec: FaultSpec, retries: u32, checkpoint_every: u32) -> Table {
    let n = ((2_000.0 * scale) as usize).max(100);
    let plain = rmat_graph(n, false, 7);
    let weighted = rmat_graph(n, true, 7);
    let tree = tree_hierarchy(
        TreeConfig {
            target_nodes: n,
            ..Default::default()
        },
        17,
    );
    let shares = ownership_graph(40);
    let workloads: Vec<Workload> = vec![
        ("TC", vec![("edge", &plain)], library::transitive_closure()),
        ("SSSP", vec![("edge", &weighted)], library::sssp(1)),
        ("CC", vec![("edge", &plain)], library::cc()),
        (
            "CompanyControl",
            vec![("shares", &shares)],
            library::company_control(),
        ),
        (
            "BoM",
            vec![("assbl", &tree.assbl), ("basic", &tree.basic)],
            library::bom_delivery(),
        ),
    ];

    let mut table = Table::new(
        &format!(
            "Fault-injection soak — {spec}, retries={retries}, checkpoint every \
             {checkpoint_every} rounds"
        ),
        &[
            "query",
            "rows",
            "failures",
            "retries",
            "blacklists",
            "checkpoints",
            "restores",
            "status",
        ],
    );
    let mut injected = 0u64;
    for (i, (name, tables, sql)) in workloads.into_iter().enumerate() {
        let (_, clean, _) = run_sql_with(
            EngineConfig::rasql().workers(default_workers()),
            &tables,
            &sql,
        );
        let faulted_cfg = EngineConfig::rasql()
            .workers(default_workers())
            .faults(Some(FaultSpec {
                seed: spec.seed + 101 * i as u64,
                ..spec
            }))
            .max_task_retries(retries)
            .checkpoint_interval(checkpoint_every);
        let ctx = faulted_cfg.build();
        for (tname, rel) in &tables {
            ctx.register(tname, (*rel).clone()).unwrap();
        }
        let result = ctx.query(&sql).unwrap();
        let m = &result.stats.metrics;
        assert_eq!(
            result.relation.len(),
            clean,
            "fault soak: {name} diverged from the fault-free run"
        );
        injected += m.task_failures;
        table.row(vec![
            name.to_string(),
            clean.to_string(),
            m.task_failures.to_string(),
            m.task_retries.to_string(),
            m.worker_blacklists.to_string(),
            m.checkpoints.to_string(),
            m.restores.to_string(),
            "ok".into(),
        ]);
    }
    assert!(
        injected > 0,
        "fault soak: the fault spec never fired — the soak proved nothing"
    );

    // Restore leg: zero retries force every injected kill to become a stage
    // loss; the fixpoint must come back from its last checkpoint.
    let chain: Vec<(i64, i64)> = (0..9).map(|i| (i, i + 1)).collect();
    let edges = Relation::edges(&chain);
    let clean = {
        let ctx = EngineConfig::rasql().workers(2).build();
        ctx.register("edge", edges.clone()).unwrap();
        ctx.query(&library::transitive_closure()).unwrap().relation
    };
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut restore_row = vec![
        "TC/restore".to_string(),
        clean.len().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "no restore witnessed".into(),
    ];
    for seed in 0..50u64 {
        let cfg = EngineConfig::rasql()
            .workers(2)
            .decomposed_plans(false)
            .faults(Some(FaultSpec {
                kill: 0.12,
                delay: 0.0,
                loss: 0.0,
                delay_us: 0,
                seed,
            }))
            .max_task_retries(0)
            .checkpoint_interval(1)
            .tracing(true);
        let ctx = cfg.build();
        ctx.register("edge", edges.clone()).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.query(&library::transitive_closure())
        }));
        let Ok(Ok(result)) = outcome else { continue };
        let trace = result.trace.as_ref().expect("tracing enabled");
        let restored = trace
            .recovery
            .iter()
            .any(|e| e.kind == RecoveryKind::Restore && e.round >= 1);
        if restored {
            let rows = result.relation.len();
            assert_eq!(
                result.relation.sorted().rows(),
                clean.sorted().rows(),
                "fault soak: restored TC run diverged (seed {seed})"
            );
            let m = &result.stats.metrics;
            restore_row = vec![
                "TC/restore".to_string(),
                rows.to_string(),
                m.task_failures.to_string(),
                m.task_retries.to_string(),
                m.worker_blacklists.to_string(),
                m.checkpoints.to_string(),
                m.restores.to_string(),
                format!("ok (seed {seed}, resumed mid-fixpoint)"),
            ];
            break;
        }
    }
    std::panic::set_hook(prev_hook);
    table.row(restore_row);
    table
}

/// Count `rasql-spill-*` entries under the OS temp dir — the governance
/// soak's leaked-file detector (every spill directory is removed with its
/// query's governor, on success and on every error path).
fn spill_dirs() -> usize {
    std::fs::read_dir(std::env::temp_dir())
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("rasql-spill-"))
                .count()
        })
        .unwrap_or(0)
}

/// Current thread count of this process (Linux); `None` elsewhere, which
/// disables the leak check rather than failing it.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Resource-governance soak (tier-1): concurrent queries on ONE context under
/// a tight memory budget with deterministic fault injection, plus one forced
/// `kill`. Asserts — hard, so the tier-1 gate fails on any violation — that
/// the surviving queries return exactly the ungoverned rows, that the budget
/// actually forced spilling, that the kill surfaces as a typed cancellation
/// (never a panic) with the context immediately serving the next query, and
/// that no spill temp directories or worker threads leak.
pub fn soak(scale: f64) -> Table {
    let n = ((2_000.0 * scale) as usize).max(100);
    let edges = rmat_graph(n, true, 7);
    let workloads: Vec<(&str, String)> = vec![
        ("TC", library::transitive_closure()),
        ("SSSP", library::sssp(1)),
        ("CC", library::cc()),
    ];

    // Ungoverned baselines for the differential check.
    let baseline: Vec<Relation> = {
        let ctx = EngineConfig::rasql().workers(default_workers()).build();
        ctx.register("edge", edges.clone()).unwrap();
        workloads
            .iter()
            .map(|(_, sql)| ctx.query(sql).unwrap().relation.sorted())
            .collect()
    };

    let spill_before = spill_dirs();
    let threads_before = thread_count();

    // Kernels and decomposed plans keep all state in per-partition slabs
    // (charged, but never paged); the interpreter's semi-naive driver is the
    // path that spills, so the governed leg pins it — the differential check
    // then also crosses evaluation paths.
    let cfg = EngineConfig::rasql()
        .workers(default_workers())
        .specialized_kernels(false)
        .decomposed_plans(false)
        .memory_budget(256 * 1024)
        .max_concurrent_queries(2)
        .admission_queue(8)
        .faults(Some(FaultSpec {
            kill: 0.05,
            delay: 0.0,
            loss: 0.0,
            delay_us: 0,
            seed: 11,
        }))
        .max_task_retries(3)
        .checkpoint_interval(3);
    let ctx = cfg.build();
    ctx.register("edge", edges).unwrap();

    let mut table = Table::new(
        "Resource-governance soak — 256 KiB budget, 2-query admission, kill=0.05 faults",
        &[
            "query",
            "rows",
            "spilled B",
            "spill files",
            "peak B",
            "status",
        ],
    );

    // All workloads race on the shared context; the admission controller
    // holds the overflow in its queue.
    let results: Vec<(
        usize,
        Result<rasql_core::QueryResult, rasql_core::EngineError>,
    )> = std::thread::scope(|s| {
        let handles: Vec<_> = workloads
            .iter()
            .enumerate()
            .map(|(i, (_, sql))| {
                let ctx = &ctx;
                s.spawn(move || (i, ctx.query(sql)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut spilled_total = 0u64;
    for (i, outcome) in results {
        let (name, _) = workloads[i];
        let result = outcome.unwrap_or_else(|e| panic!("soak: governed {name} failed: {e}"));
        let rows = result.relation.len();
        assert_eq!(
            result.relation.sorted().rows(),
            baseline[i].rows(),
            "soak: governed {name} diverged from the ungoverned run"
        );
        let m = &result.stats.metrics;
        spilled_total += m.spilled_bytes;
        table.row(vec![
            name.to_string(),
            rows.to_string(),
            m.spilled_bytes.to_string(),
            m.spill_files.to_string(),
            m.peak_memory.to_string(),
            "ok".into(),
        ]);
    }
    assert!(
        spilled_total > 0,
        "soak: the memory budget never forced a spill — the soak proved nothing"
    );

    // Forced cancellation on the SAME context: the cancellation token is
    // polled at plan-node and fixpoint-round boundaries, so the kill lands
    // long before this long-diameter reachability converges.
    let side = ((400.0 * scale) as usize).max(40);
    ctx.register_or_replace("edge", grid(side, false, 42))
        .unwrap();
    let reach_sql = library::reach(0);
    let (killed, outcome) = std::thread::scope(|s| {
        let h = s.spawn(|| ctx.query(&reach_sql));
        let mut victim = None;
        for _ in 0..1_000_000 {
            if let Some(&q) = ctx.active_queries().first() {
                victim = Some(q);
                break;
            }
            std::thread::yield_now();
        }
        (victim.is_some_and(|q| ctx.kill(q)), h.join().unwrap())
    });
    assert!(
        killed,
        "soak: never observed the victim query in the active set"
    );
    match outcome {
        Err(rasql_core::EngineError::Exec(rasql_exec::ExecError::Cancelled { .. })) => {}
        Err(other) => panic!("soak: kill surfaced as the wrong error: {other}"),
        Ok(r) => panic!(
            "soak: query outran the kill ({} rows) — grow the grid",
            r.relation.len()
        ),
    }
    // The context must serve the very next query.
    ctx.query("SELECT count(*) FROM edge;")
        .expect("soak: context unusable after a kill");
    table.row(vec![
        "REACH/kill".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "ok (typed cancellation; context served the next query)".into(),
    ]);

    drop(ctx);
    assert!(
        spill_dirs() <= spill_before,
        "soak: leaked spill directories under the temp dir"
    );
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        assert!(
            after <= before,
            "soak: leaked worker threads ({before} -> {after})"
        );
    }
    table
}

/// A small synthetic share-ownership relation for the company-control soak:
/// a layered DAG of `n` companies with integer percentages.
fn ownership_graph(n: i64) -> Relation {
    use rasql_storage::{DataType, Row, Schema, Value};
    let mut rows = Vec::new();
    for by in 0..n {
        for of in (by + 1)..(by + 4).min(n) {
            let pct = 20 + ((by * 13 + of * 7) % 41);
            rows.push(Row::new(vec![
                Value::Int(by),
                Value::Int(of),
                Value::Int(pct),
            ]));
        }
    }
    Relation::try_new(
        Schema::new(vec![
            ("By", DataType::Int),
            ("Of", DataType::Int),
            ("Percent", DataType::Int),
        ]),
        rows,
    )
    .unwrap()
}

/// The full 11-table example dataset every library query runs against, at
/// `scale`. The `edge` table is a layered weighted DAG so the stratified
/// SSSP variant and `count_paths` terminate alongside the PreM forms.
fn example_dataset(scale: f64) -> Vec<(&'static str, Relation)> {
    use rasql_storage::{DataType, Row, Schema, Value};
    let layers = ((60.0 * scale) as usize).max(6);
    let width = 8usize;
    let mut edge_rows = Vec::new();
    for l in 0..layers - 1 {
        for i in 0..width {
            let src = (l * width + i) as i64;
            // Offsets 0/2/4 mod 8 are distinct, so no duplicate edges.
            for k in 0..3usize {
                let dst = ((l + 1) * width + (i + 2 * k + l) % width) as i64;
                let cost = 1.0 + ((src * 7 + dst * 3) % 10) as f64 / 2.0;
                edge_rows.push(Row::new(vec![
                    Value::Int(src),
                    Value::Int(dst),
                    Value::Double(cost),
                ]));
            }
        }
    }
    let edge = Relation::try_new(
        Schema::new(vec![
            ("Src", DataType::Int),
            ("Dst", DataType::Int),
            ("Cost", DataType::Double),
        ]),
        edge_rows,
    )
    .unwrap();

    let tree = tree_hierarchy(
        TreeConfig {
            target_nodes: ((1_000.0 * scale) as usize).max(100),
            ..Default::default()
        },
        23,
    );
    // rel(Parent, Child) for Same Generation reuses the assembly hierarchy.
    let rel = Relation::try_new(
        Schema::new(vec![("Parent", DataType::Int), ("Child", DataType::Int)]),
        tree.assbl.rows().to_vec(),
    )
    .unwrap();

    let inter = Relation::try_new(
        Schema::new(vec![("S", DataType::Int), ("E", DataType::Int)]),
        (0..((200.0 * scale) as i64).max(24))
            .map(|i| {
                let s = i * 3 + (i % 7);
                Row::new(vec![Value::Int(s), Value::Int(s + 2 + (i * 5) % 9)])
            })
            .collect(),
    )
    .unwrap();

    // 16 people; the first three organize, everyone befriends the next four
    // in the ring — enough in-degree for the count()-threshold cascade.
    let person = |i: usize| format!("p{}", i % 16);
    let organizer = Relation::try_new(
        Schema::new(vec![("OrgName", DataType::Str)]),
        (0..3)
            .map(|i| Row::new(vec![Value::str(person(i))]))
            .collect(),
    )
    .unwrap();
    let friend = Relation::try_new(
        Schema::new(vec![("Pname", DataType::Str), ("Fname", DataType::Str)]),
        (0..16)
            .flat_map(|i| {
                (1..=4)
                    .map(move |d| Row::new(vec![Value::str(person(i)), Value::str(person(i + d))]))
            })
            .collect(),
    )
    .unwrap();

    vec![
        ("edge", edge),
        ("assbl", tree.assbl),
        ("basic", tree.basic),
        ("report", tree.report),
        ("sales", tree.sales),
        ("sponsor", tree.sponsor),
        ("shares", ownership_graph(30)),
        ("rel", rel),
        ("inter", inter),
        ("organizer", organizer),
        ("friend", friend),
    ]
}

/// Server soak (tier-1): an in-process `rasql-server` with several concurrent
/// TCP clients running the complete example-query library under a tight
/// memory budget and deterministic fault injection, plus one forced remote
/// `Kill`. Asserts — hard, so the tier-1 gate fails on any violation — that
/// every surviving query's rows are bit-identical to an ungoverned local run,
/// that the fault spec actually fired, that the kill surfaces to its client
/// as the stable `RA0602` cancellation code with the server immediately
/// serving the next request, and that shutdown drains cleanly within its
/// timeout leaking neither spill directories nor threads.
pub fn serve_soak(scale: f64) -> Table {
    use std::sync::Arc;

    const CLIENTS: usize = 4;
    let dataset = example_dataset(scale);
    let queries = library::all();

    // Ungoverned, fault-free local baseline: the bit-identical oracle.
    let baseline: Vec<Vec<rasql_api::Row>> = {
        let ctx = EngineConfig::rasql().workers(default_workers()).build();
        for (name, rel) in &dataset {
            ctx.register(name, rel.clone()).unwrap();
        }
        queries
            .iter()
            .map(|(name, sql)| {
                let results = ctx
                    .query_script(sql)
                    .unwrap_or_else(|e| panic!("serve-soak baseline {name} failed: {e}"));
                rasql_core::result_to_wire(results.last().unwrap()).sorted_rows()
            })
            .collect()
    };

    let spill_before = spill_dirs();
    let threads_before = thread_count();

    // The served context pins the interpreter (the spilling path) and runs
    // governed: tight budget, 2-query admission, seeded fault injection.
    let ctx = Arc::new(
        RaSqlContext::builder()
            .workers(default_workers())
            .specialized_kernels(false)
            .decomposed_plans(false)
            .memory_budget(256 * 1024)
            .max_concurrent_queries(2)
            .admission_queue(CLIENTS + 4)
            .faults(Some(FaultSpec {
                kill: 0.05,
                delay: 0.0,
                loss: 0.0,
                delay_us: 0,
                seed: 11,
            }))
            .max_task_retries(3)
            .checkpoint_interval(3)
            .build(),
    );
    for (name, rel) in &dataset {
        ctx.register(name, rel.clone()).unwrap();
    }
    let handle = rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(10))
        .expect("serve-soak: bind");
    let addr = handle.addr();

    let mut table = Table::new(
        &format!(
            "Server soak — {CLIENTS} clients over TCP, 256 KiB budget, \
             2-query admission, kill=0.05 faults"
        ),
        &["query", "rows", "client", "time_ms", "status"],
    );

    // Round-robin the library over the client pool; every client is its own
    // TCP connection (and therefore its own server session).
    let outcomes: Vec<(usize, usize, usize, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let queries = &queries;
                let baseline = &baseline;
                s.spawn(move || {
                    let mut client =
                        rasql_client::Client::connect(addr).expect("serve-soak: connect");
                    let mut ran = Vec::new();
                    for (i, (name, sql)) in queries.iter().enumerate() {
                        if i % CLIENTS != c {
                            continue;
                        }
                        let t = Instant::now();
                        let results = client
                            .query(sql)
                            .unwrap_or_else(|e| panic!("serve-soak: {name} failed: {e}"));
                        let elapsed = t.elapsed();
                        let got = results.last().expect("at least one result").sorted_rows();
                        assert_eq!(
                            got, baseline[i],
                            "serve-soak: remote {name} diverged from the local run"
                        );
                        ran.push((i, got.len(), c, elapsed));
                    }
                    client.close().expect("serve-soak: close");
                    ran
                })
            })
            .collect();
        let mut all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("serve-soak: client thread panicked"))
            .collect();
        all.sort_by_key(|&(i, ..)| i);
        all
    });
    for (i, rows, c, elapsed) in outcomes {
        table.row(vec![
            queries[i].0.to_string(),
            rows.to_string(),
            format!("#{c}"),
            ms(elapsed),
            "ok".into(),
        ]);
    }
    assert!(
        ctx.metrics().task_failures > 0,
        "serve-soak: the fault spec never fired — the soak proved nothing"
    );

    // Kill leg, entirely over the wire: replace `edge` with a long-diameter
    // grid through one session, start REACH through another, then use
    // Status -> Kill from the first to cancel it mid-fixpoint.
    let side = ((400.0 * scale) as usize).max(40);
    let grid_edges = grid(side, false, 42);
    let cancellations_before = ctx.metrics().cancellations;
    let mut admin = rasql_client::Client::connect(addr).expect("serve-soak: admin connect");
    admin
        .register(
            "edge",
            grid_edges.schema().clone(),
            grid_edges.rows().to_vec(),
        )
        .expect("serve-soak: remote re-register");
    let reach_sql = library::reach(0);
    let (killed, outcome) = std::thread::scope(|s| {
        let victim = s.spawn(|| {
            let mut client =
                rasql_client::Client::connect(addr).expect("serve-soak: victim connect");
            client.query(&reach_sql)
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut killed = false;
        while Instant::now() < deadline {
            let status = admin.status().expect("serve-soak: status");
            if let Some(&q) = status.active_queries.first() {
                killed = admin.kill(q).expect("serve-soak: kill");
                break;
            }
            std::thread::yield_now();
        }
        (killed, victim.join().expect("serve-soak: victim panicked"))
    });
    assert!(
        killed,
        "serve-soak: never observed the victim query in Status"
    );
    match outcome {
        Err(e) => assert_eq!(
            e.code,
            rasql_api::ErrorCode::Cancelled,
            "serve-soak: kill surfaced as the wrong error: {e}"
        ),
        Ok(r) => panic!(
            "serve-soak: query outran the kill ({} rows) — grow the grid",
            r.last().map_or(0, |q| q.rows.len())
        ),
    }
    assert!(
        ctx.metrics().cancellations > cancellations_before,
        "serve-soak: the kill never reached the engine's cancellation metric"
    );
    // The server must serve the very next request on an existing session.
    let count = admin
        .query("SELECT count(*) FROM edge")
        .expect("serve-soak: server unusable after a kill");
    assert_eq!(
        count[0].rows[0][0],
        rasql_api::Value::Int(grid_edges.len() as i64)
    );
    admin.close().expect("serve-soak: admin close");
    table.row(vec![
        "reach/kill".into(),
        "-".into(),
        "admin".into(),
        "-".into(),
        "ok (RA0602 at the client; server served the next request)".into(),
    ]);

    // Drain: every connection thread joined, within the 10 s timeout.
    let t = Instant::now();
    assert!(
        handle.shutdown(),
        "serve-soak: shutdown did not drain cleanly"
    );
    table.row(vec![
        "shutdown".into(),
        "-".into(),
        "-".into(),
        ms(t.elapsed()),
        "ok (clean drain)".into(),
    ]);

    drop(ctx);
    assert!(
        spill_dirs() <= spill_before,
        "serve-soak: leaked spill directories under the temp dir"
    );
    if let Some(before) = threads_before {
        // Joined threads are gone from /proc immediately, but give any
        // OS-level teardown still in flight a moment before calling it a leak.
        let deadline = Instant::now() + Duration::from_secs(2);
        while let Some(after) = thread_count() {
            if after <= before {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "serve-soak: leaked server threads ({before} -> {after})"
            );
            #[expect(
                clippy::disallowed_methods,
                reason = "the OS reaps exited threads with no event to wait on; bounded by the deadline"
            )]
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    table
}

/// The kill-at-every-crashpoint recovery soak behind `reproduce crash-soak`.
///
/// A counting pass runs a scripted DDL/DML/materialized-view workload on a
/// durable context with an armed-but-never-firing injector, enumerating every
/// write/fsync/rename boundary the workload visits (WAL appends *and* the
/// snapshot publications forced by `snapshot_every=3`). Then, for each
/// boundary K, a fresh data directory is driven through the same workload
/// with `CrashSpec::at(K)`, the context is dropped at the injected death,
/// and recovery must land — hard assertions, so the tier-1 gate fails on any
/// violation — on a bit-identical prefix-consistent state: the pre-statement
/// digest, the post-statement digest, or (for two-record statements only)
/// base tables ahead of the view registry, never the inverse and never
/// anything else. Every recovery must also leave zero stray snapshot temp
/// files, every crash site must be exercised at least once, and all three
/// recovery outcomes must actually occur.
pub fn crash_soak(scale: f64) -> Table {
    let n = ((600.0 * scale) as usize).max(32);
    let edges = rmat_graph(n, true, 13);

    // The scripted workload. Op 0 registers the base table; the rest drive
    // every WAL record shape: Insert, ViewPut (create of the certified view,
    // whose table is derived), ViewDelta (its refreshes: one before the
    // compaction `insert-3` triggers, one replayed over it), Replace alone
    // (delete), Drop+ViewDrop.
    enum Op {
        Register,
        Sql(String),
    }
    let ops: Vec<(&str, Op)> = vec![
        ("register", Op::Register),
        (
            "insert-1",
            Op::Sql("INSERT INTO edge VALUES (9001, 1, 1.0)".into()),
        ),
        (
            "create-mv",
            Op::Sql(format!("CREATE MATERIALIZED VIEW cs AS {}", library::cc())),
        ),
        (
            "insert-2",
            Op::Sql("INSERT INTO edge VALUES (9002, 2, 1.0)".into()),
        ),
        ("refresh-mv", Op::Sql("REFRESH MATERIALIZED VIEW cs".into())),
        (
            "insert-3",
            Op::Sql("INSERT INTO edge VALUES (9003, 3, 1.0)".into()),
        ),
        (
            "refresh-mv-2",
            Op::Sql("REFRESH MATERIALIZED VIEW cs".into()),
        ),
        (
            "delete",
            Op::Sql("DELETE FROM edge WHERE Src = 9001".into()),
        ),
        ("drop-mv", Op::Sql("DROP MATERIALIZED VIEW cs".into())),
    ];
    let apply = |ctx: &RaSqlContext, op: &Op| -> Result<(), EngineError> {
        match op {
            Op::Register => ctx.register("edge", edges.clone()).map(|_| ()),
            Op::Sql(sql) => ctx.query(sql).map(|_| ()),
        }
    };

    // Reference digests: an in-memory context after every acked-op prefix.
    // Digests are layout-sensitive only through the worker count, so the
    // references use the same count as the durable legs.
    let workers = default_workers();
    let refs: Vec<(String, (String, String))> = (0..=ops.len())
        .map(|a| {
            let ctx = RaSqlContext::builder().workers(workers).build();
            for (name, op) in &ops[..a] {
                apply(&ctx, op)
                    .unwrap_or_else(|e| panic!("crash-soak reference (after {name}): {e}"));
            }
            (ctx.state_digest(), ctx.state_digest_parts())
        })
        .collect();

    let scratch = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("rasql-crash-soak-{tag}-p{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let durable = |dir: &std::path::Path, spec: Option<rasql_storage::CrashSpec>| {
        RaSqlContext::builder()
            .workers(workers)
            .data_dir(dir.to_path_buf())
            .snapshot_every(3) // compact mid-workload so snapshot sites enumerate too
            .crash_spec(spec)
            .try_build()
    };

    // Counting pass: armed but never firing, so `crashpoint_hits` is the
    // exact number of boundaries the workload visits.
    let total = {
        let dir = scratch("count");
        let ctx = durable(
            &dir,
            Some(rasql_storage::CrashSpec {
                kill_at: None,
                prob: 0.0,
                seed: 0,
            }),
        )
        .unwrap_or_else(|e| panic!("crash-soak counting pass: {e}"));
        for (name, op) in &ops {
            apply(&ctx, op).unwrap_or_else(|e| panic!("crash-soak counting {name}: {e}"));
        }
        let hits = ctx.crashpoint_hits();
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
        hits
    };
    assert!(
        total >= 3 * ops.len() as u64,
        "crash-soak: counting pass saw only {total} crash sites"
    );

    #[derive(Default)]
    struct SiteTally {
        legs: u32,
        pre: u32,
        post: u32,
        partial: u32,
    }
    let mut tally: Vec<SiteTally> = rasql_storage::CRASH_SITES
        .iter()
        .map(|_| SiteTally::default())
        .collect();

    for k in 0..total {
        let dir = scratch(&format!("leg-{k}"));
        let ctx = durable(&dir, Some(rasql_storage::CrashSpec::at(k)))
            .unwrap_or_else(|e| panic!("crash-soak leg {k}: fresh-dir open failed: {e}"));
        let mut acked = 0usize;
        let mut site: Option<String> = None;
        for (name, op) in &ops {
            match apply(&ctx, op) {
                Ok(()) => acked += 1,
                Err(EngineError::Storage(rasql_storage::StorageError::InjectedCrash(s))) => {
                    site = Some(s);
                    break;
                }
                Err(e) => panic!("crash-soak leg {k}: {name} failed with a non-crash error: {e}"),
            }
        }
        let site =
            site.unwrap_or_else(|| panic!("crash-soak leg {k}: enumerated crashpoint never fired"));
        drop(ctx); // the simulated process death

        let recovered = durable(&dir, None)
            .unwrap_or_else(|e| panic!("crash-soak leg {k} ({site}): recovery failed: {e}"));
        assert!(
            rasql_storage::snapshot::stray_temp_files(&dir).is_empty(),
            "crash-soak leg {k} ({site}): recovery left snapshot temp files behind"
        );
        let got = recovered.state_digest();
        let outcome = if got == refs[acked].0 {
            "pre"
        } else if got == refs[acked + 1].0 {
            "post"
        } else {
            let (tables, views) = recovered.state_digest_parts();
            assert!(
                tables == refs[acked + 1].1 .0 && views == refs[acked].1 .1,
                "crash-soak leg {k} ({site}): recovered state after {acked} acked ops is \
                 neither the pre- nor post-statement digest nor the legal tables-ahead split"
            );
            "partial"
        };
        let si = rasql_storage::CRASH_SITES
            .iter()
            .position(|s| *s == site)
            .unwrap_or_else(|| panic!("crash-soak leg {k}: unknown crash site '{site}'"));
        tally[si].legs += 1;
        match outcome {
            "pre" => tally[si].pre += 1,
            "post" => tally[si].post += 1,
            _ => tally[si].partial += 1,
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut table = Table::new(
        &format!(
            "Crash-recovery soak — {total} kill legs over {} ops, snapshot_every=3, {n} edges",
            ops.len()
        ),
        &["site", "legs", "pre", "post", "partial"],
    );
    let (mut pre, mut post, mut partial) = (0u32, 0u32, 0u32);
    for (site, t) in rasql_storage::CRASH_SITES.iter().zip(&tally) {
        assert!(
            t.legs > 0,
            "crash-soak: site {site} was never exercised ({total} legs)"
        );
        table.row(vec![
            (*site).to_string(),
            t.legs.to_string(),
            t.pre.to_string(),
            t.post.to_string(),
            t.partial.to_string(),
        ]);
        pre += t.pre;
        post += t.post;
        partial += t.partial;
    }
    table.row(vec![
        "total".to_string(),
        total.to_string(),
        pre.to_string(),
        post.to_string(),
        partial.to_string(),
    ]);
    // The enumeration must produce all three recovery shapes, or the soak
    // is not actually probing the interesting windows.
    assert!(pre > 0, "crash-soak: no leg recovered to the pre state");
    assert!(post > 0, "crash-soak: no leg recovered to the post state");
    assert!(
        partial > 0,
        "crash-soak: no leg landed in the tables-ahead window"
    );
    table
}

/// Appendix G: PreM auto-validation demo.
pub fn premcheck() -> String {
    let mut out = String::from("\n=== Appendix G — PreM auto-validation ===\n");
    let ctx = RaSqlContext::in_memory();
    ctx.register(
        "edge",
        rasql_datagen::rmat(
            200,
            RmatConfig {
                weighted: true,
                ..Default::default()
            },
            3,
        ),
    )
    .unwrap();
    let checker =
        rasql_core::PremChecker::new(&ctx).with_bounds(rasql_core::prem::PremCheckBounds {
            max_iterations: 30,
            max_rows: 100_000,
        });
    for (name, sql) in [("SSSP", library::sssp(1)), ("APSP", library::apsp())] {
        let outcome = checker.check(&sql).unwrap();
        out.push_str(&format!("{name}: {outcome:?}\n"));
    }
    out.push_str("\nPreM-checking rewrite of APSP (Query G2):\n");
    out.push_str(&rasql_core::prem::prem_checking_version(&library::apsp()).unwrap());
    out.push('\n');
    out
}

/// `reproduce lint` — run the compile-time verifier over every shipped
/// example query against empty base tables with the example dataset's
/// schemas. Returns the rendered reports and whether every query came out
/// clean (no error-severity diagnostic, no refuted PreM obligation).
pub fn lint() -> (String, bool) {
    let ctx = RaSqlContext::in_memory();
    for (name, rel) in example_dataset(0.0) {
        ctx.register(name, Relation::empty(rel.schema().clone()))
            .expect("register lint schema");
    }
    let queries = library::all();
    let mut out = String::from("=== Compile-time query verification (CHECK) ===\n");
    let mut all_clean = true;
    for (name, sql) in queries {
        out.push_str(&format!("\n--- {name} ---\n"));
        match ctx.lint_script(&sql) {
            Ok(reports) => {
                for r in &reports {
                    out.push_str(&r.rendered);
                    all_clean &= r.passed();
                }
            }
            Err(e) => {
                out.push_str(&format!("lint failed: {e}\n"));
                all_clean = false;
            }
        }
    }
    out.push_str(&format!(
        "\nlint: {}\n",
        if all_clean {
            "all queries clean"
        } else {
            "FAILED"
        }
    ));
    (out, all_clean)
}

/// Render one value as a SQL literal for an `INSERT` statement.
fn sql_literal(v: &rasql_storage::Value) -> String {
    use rasql_storage::Value;
    match v {
        Value::Int(i) => i.to_string(),
        Value::Double(d) => {
            if d.fract() == 0.0 {
                format!("{d:.1}")
            } else {
                format!("{d}")
            }
        }
        Value::Str(s) => format!("'{s}'"),
        Value::Bool(b) => b.to_string(),
        Value::Null => "NULL".to_string(),
    }
}

/// Render `rows` as one `INSERT INTO table VALUES ...` statement.
fn insert_statement(table: &str, rows: &[rasql_storage::Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r.values().iter().map(sql_literal).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

/// Incremental-view-maintenance soak + benchmark (tier-1 `reproduce ivm`).
///
/// Part A sweeps the whole example-query library: each single-statement
/// query becomes a materialized view over the example dataset with a
/// withheld suffix per base table; the withheld rows are INSERTed back and
/// the refresh — delta-seeded for verifier-certified shapes, full-recompute
/// fallback otherwise — must be **bit-identical** to recomputing the query
/// from scratch on the full dataset. Ineligible shapes must additionally
/// surface an `RA0301` maintenance finding through `CHECK`. One eligible
/// view is also refreshed under deterministic fault injection.
///
/// Part B times a train of [`IVM_TRAIN`] small-delta SSSP refreshes on an
/// R-MAT graph against full recompute (interpreter path on both legs,
/// best-of-3) and returns the `BENCH_ivm.json` artifact with the speedup of
/// the median and of the slowest refresh, both of which [`ivm_meets_target`]
/// gates.
pub fn ivm(scale: f64) -> (Table, JsonValue) {
    let workers = default_workers();
    let mut t = Table::new(
        "IVM — incremental materialized-view refresh vs full recompute",
        &["query", "eligible", "refresh", "rows", "status"],
    );
    let mut query_records = Vec::new();

    // Part A: the library sweep.
    let dataset = example_dataset(scale.max(0.1));
    // A build side that scans the changed table twice: overlaying both
    // occurrences with the delta would lose old⋈Δ, so it refreshes full.
    // Vertex 8 sits in layer 1, so its two-hop closure ends in the last
    // layer — over the withheld edges.
    let mut queries = library::all();
    queries.push((
        "two_hop_reach",
        "WITH recursive r (Dst) AS (SELECT 8) UNION \
           (SELECT two.D FROM r, (SELECT a.Src AS S, b.Dst AS D FROM edge a, edge b \
             WHERE a.Dst = b.Src) two WHERE r.Dst = two.S) \
         SELECT Dst FROM r"
            .to_string(),
    ));
    let held = |rel: &Relation| (rel.len() / 10).min(4);
    for (name, sql) in &queries {
        // A view is one defining query; multi-statement scripts are out of
        // scope by construction, and saying so beats silently dropping them.
        if sql.contains(';') {
            t.row(vec![
                (*name).into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "skipped (multi-statement script)".into(),
            ]);
            continue;
        }
        let oracle = {
            let ctx = EngineConfig::rasql().workers(workers).build();
            for (n, rel) in &dataset {
                ctx.register(n, rel.clone()).unwrap();
            }
            ctx.query(sql)
                .unwrap_or_else(|e| panic!("ivm oracle {name} failed: {e}"))
                .relation
                .sorted()
        };
        let ctx = EngineConfig::rasql().workers(workers).build();
        for (n, rel) in &dataset {
            let k = held(rel);
            let init =
                Relation::try_new(rel.schema().clone(), rel.rows()[..rel.len() - k].to_vec())
                    .unwrap();
            ctx.register(n, init).unwrap();
        }
        ctx.query(&format!("CREATE MATERIALIZED VIEW ivm_v AS {sql}"))
            .unwrap_or_else(|e| panic!("ivm create {name} failed: {e}"));
        let mv = ctx.mat_view("ivm_v").expect("view registered");
        for dep in &mv.deps {
            let Some((_, rel)) = dataset.iter().find(|(n, _)| *n == dep.table) else {
                continue;
            };
            let k = held(rel);
            if k > 0 {
                ctx.query(&insert_statement(&dep.table, &rel.rows()[rel.len() - k..]))
                    .unwrap();
            }
        }
        ctx.query("REFRESH MATERIALIZED VIEW ivm_v").unwrap();
        let refreshed = ctx.mat_view("ivm_v").unwrap();
        let expected_mode = if mv.eligible { "incremental" } else { "full" };
        assert_eq!(
            refreshed.last_refresh, expected_mode,
            "ivm: {name} took the wrong refresh path"
        );
        let got = ctx.query("SELECT * FROM ivm_v").unwrap().relation.sorted();
        assert_eq!(
            got.rows(),
            oracle.rows(),
            "ivm: {name} refresh diverged from full recompute"
        );
        // An unsound shape must say why, and CHECK must pin it to RA0301.
        if !mv.eligible {
            let reason = mv.ineligible_reason.clone().unwrap_or_default();
            assert!(
                !reason.is_empty(),
                "ivm: {name} ineligible without a reason"
            );
            if reason != "non-recursive defining query" {
                let report = ctx.check(sql).expect("CHECK");
                assert!(
                    report.rendered.contains("RA0301"),
                    "ivm: {name} ineligible without an RA0301 finding"
                );
            }
        }
        t.row(vec![
            (*name).into(),
            if mv.eligible { "yes" } else { "no" }.into(),
            expected_mode.into(),
            got.len().to_string(),
            "ok".into(),
        ]);
        query_records.push(JsonValue::Obj(vec![
            ("query".into(), JsonValue::Str((*name).into())),
            (
                "eligible".into(),
                JsonValue::Str(if mv.eligible { "yes" } else { "no" }.into()),
            ),
            ("refresh".into(), JsonValue::Str(expected_mode.into())),
            ("rows".into(), JsonValue::Num(got.len() as f64)),
        ]));
    }

    // Fault-injection leg: a delta-seeded refresh with injected kills,
    // delays, and losses must still land on the clean answer.
    {
        let edges = rmat_graph(((4_000.0 * scale) as usize).max(600), true, 7);
        let split = edges.len() - 24;
        let clean = {
            let ctx = EngineConfig::rasql().workers(workers).build();
            ctx.register("edge", edges.clone()).unwrap();
            ctx.query(&library::sssp(1)).unwrap().relation.sorted()
        };
        let ctx = EngineConfig::rasql()
            .workers(workers)
            .faults(Some(FaultSpec {
                kill: 0.1,
                delay: 0.08,
                loss: 0.04,
                delay_us: 40,
                seed: 13,
            }))
            .max_task_retries(3)
            .checkpoint_interval(3)
            .build();
        let initial =
            Relation::try_new(edges.schema().clone(), edges.rows()[..split].to_vec()).unwrap();
        ctx.register("edge", initial).unwrap();
        ctx.query(&format!(
            "CREATE MATERIALIZED VIEW ivm_v AS {}",
            library::sssp(1)
        ))
        .unwrap();
        ctx.query(&insert_statement("edge", &edges.rows()[split..]))
            .unwrap();
        ctx.query("REFRESH MATERIALIZED VIEW ivm_v").unwrap();
        assert_eq!(ctx.mat_view("ivm_v").unwrap().last_refresh, "incremental");
        let got = ctx.query("SELECT * FROM ivm_v").unwrap().relation.sorted();
        assert_eq!(
            got.rows(),
            clean.rows(),
            "ivm: faulted incremental refresh diverged"
        );
        t.row(vec![
            "sssp/faulted".into(),
            "yes".into(),
            "incremental".into(),
            got.len().to_string(),
            "ok".into(),
        ]);
    }

    // Part B: small-delta refresh benchmark. Both legs run the interpreter
    // (kernels off) with the simulated dispatch latency zeroed, so the ratio
    // measures delta-seeded convergence against from-scratch convergence.
    // The refresh leg is a *train*: `IVM_TRAIN` withheld batches refreshed in
    // a row on one context, so a cost that only every n-th refresh pays (a
    // periodic rebuild of a retained build side) lands in the slowest one.
    let n = ((30_000.0 * scale) as usize).max(16_384);
    let edges = rmat_graph(n, true, 7);
    let delta = 32usize.min(edges.len() / (10 * IVM_TRAIN)).max(1);
    let cfg = || {
        EngineConfig::rasql()
            .workers(workers)
            .stage_latency_us(0)
            .specialized_kernels(false)
    };
    let sql = library::sssp(1);
    let mut full_best = Duration::MAX;
    let mut full_rows = Relation::edges(&[]);
    for _ in 0..3 {
        let ctx = cfg().build();
        ctx.register("edge", edges.clone()).unwrap();
        let t0 = Instant::now();
        let r = ctx.query(&sql).unwrap();
        full_best = full_best.min(t0.elapsed());
        full_rows = r.relation.sorted();
    }
    let (incr_median, incr_max, incr_rows) = refresh_train(&edges, delta, &sql, &cfg);
    assert_eq!(
        incr_rows.rows(),
        full_rows.rows(),
        "ivm: benchmark refresh train diverged from full recompute"
    );
    // The same delta refreshed into a view a quarter the size: a refresh
    // that costs what its delta costs reads ~1.
    let quarter = rmat_graph(n / 4, true, 7);
    let (quarter_median, _, _) = refresh_train(&quarter, delta, &sql, &cfg);
    let refresh_scaling = incr_median.as_secs_f64() / quarter_median.as_secs_f64();
    let speedup = full_best.as_secs_f64() / incr_median.as_secs_f64();
    let min_speedup = full_best.as_secs_f64() / incr_max.as_secs_f64();
    t.row(vec![
        format!("sssp/RMAT-{n} {IVM_TRAIN} x +{delta} edges"),
        "yes".into(),
        "incremental".into(),
        full_rows.len().to_string(),
        format!(
            "refresh {} (slowest {}) vs recompute {} ({speedup:.1}x, slowest {min_speedup:.1}x)",
            ms(incr_median),
            ms(incr_max),
            ms(full_best)
        ),
    ]);
    t.row(vec![
        format!("sssp/RMAT-{} {IVM_TRAIN} x +{delta} edges", n / 4),
        "yes".into(),
        "incremental".into(),
        "-".into(),
        format!(
            "refresh {}; RMAT-{n} / RMAT-{}: {refresh_scaling:.2}x",
            ms(quarter_median),
            n / 4
        ),
    ]);

    let json = JsonValue::Obj(vec![
        ("figure".into(), JsonValue::Str("ivm_refresh".into())),
        ("workers".into(), JsonValue::Num(workers as f64)),
        cores_field(),
        ("scale".into(), JsonValue::Num(scale)),
        ("vertices".into(), JsonValue::Num(n as f64)),
        ("edges".into(), JsonValue::Num(edges.len() as f64)),
        ("delta_edges".into(), JsonValue::Num(delta as f64)),
        ("refreshes".into(), JsonValue::Num(IVM_TRAIN as f64)),
        // How big a view the train refreshes: a refresh's cost is to be
        // judged against the view's size as well as the delta's.
        ("view_rows".into(), JsonValue::Num(full_rows.len() as f64)),
        (
            "incremental_ms".into(),
            JsonValue::Num(incr_median.as_secs_f64() * 1e3),
        ),
        (
            "max_incremental_ms".into(),
            JsonValue::Num(incr_max.as_secs_f64() * 1e3),
        ),
        (
            "full_ms".into(),
            JsonValue::Num(full_best.as_secs_f64() * 1e3),
        ),
        ("speedup".into(), JsonValue::Num(speedup)),
        ("min_speedup".into(), JsonValue::Num(min_speedup)),
        // Median refresh at `vertices` ÷ at `vertices / 4`, same delta;
        // reported, not gated (a timing ratio on a shared host).
        ("refresh_scaling".into(), JsonValue::Num(refresh_scaling)),
        ("queries".into(), JsonValue::Arr(query_records)),
    ]);
    (t, json)
}

/// The median and the slowest refresh of a train of [`IVM_TRAIN`] refreshes
/// of `sql`'s view over `edges`, whose last `IVM_TRAIN × delta` rows are
/// withheld and inserted `delta` at a time, and the view's rows after it.
/// Best of three trains, "best" being the one whose slowest refresh is
/// fastest.
fn refresh_train(
    edges: &Relation,
    delta: usize,
    sql: &str,
    cfg: &dyn Fn() -> EngineConfig,
) -> (Duration, Duration, Relation) {
    let split = edges.len() - delta * IVM_TRAIN;
    let (mut median, mut max, mut rows) = (Duration::MAX, Duration::MAX, Relation::edges(&[]));
    for _ in 0..3 {
        let ctx = cfg().build();
        let initial =
            Relation::try_new(edges.schema().clone(), edges.rows()[..split].to_vec()).unwrap();
        ctx.register("edge", initial).unwrap();
        ctx.query(&format!("CREATE MATERIALIZED VIEW ivm_v AS {sql}"))
            .unwrap();
        let mut train: Vec<Duration> = Vec::with_capacity(IVM_TRAIN);
        for batch in edges.rows()[split..].chunks(delta) {
            ctx.query(&insert_statement("edge", batch)).unwrap();
            let t0 = Instant::now();
            ctx.query("REFRESH MATERIALIZED VIEW ivm_v").unwrap();
            train.push(t0.elapsed());
            assert_eq!(ctx.mat_view("ivm_v").unwrap().last_refresh, "incremental");
        }
        rows = ctx.query("SELECT * FROM ivm_v").unwrap().relation.sorted();
        let index = ctx.index_stats();
        assert_eq!(
            (index.builds, index.advances, index.rebuilds),
            (1, IVM_TRAIN as u64, 0),
            "ivm: the view's build side is built once and advanced per refresh"
        );
        train.sort_unstable();
        if train[IVM_TRAIN - 1] < max {
            max = train[IVM_TRAIN - 1];
            median = train[IVM_TRAIN / 2];
        }
    }
    (median, max, rows)
}

/// Acceptance gate for [`ivm`]: the delta-seeded refresh must be at least
/// `target`× faster than full recompute on the small-delta R-MAT benchmark —
/// the median refresh of the train (`speedup`) and the slowest one
/// (`min_speedup`) alike.
pub fn ivm_meets_target(json: &JsonValue, target: f64) -> Result<(), String> {
    for (field, which) in [("speedup", "median"), ("min_speedup", "slowest")] {
        let speedup = match json.get(field) {
            Some(JsonValue::Num(s)) => *s,
            _ => return Err(format!("malformed ivm artifact: no {field}")),
        };
        if speedup < target {
            return Err(format!(
                "incremental refresh speedup ({which} of the train) below target: \
                 {speedup:.2}x < {target}x"
            ));
        }
    }
    Ok(())
}
