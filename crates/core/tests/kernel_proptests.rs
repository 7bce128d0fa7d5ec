//! Differential tests for the specialized fixpoint kernels: whenever a query
//! selects a monomorphized CSR kernel, the answer must be **bit-identical**
//! to the generic interpreter's — same relation, same number of fixpoint
//! rounds — on arbitrary R-MAT inputs and under deterministic fault
//! injection with checkpoint/restore enabled. A final sweep runs every
//! library query through both paths and pins down exactly which ones
//! specialize.

use proptest::prelude::*;
use rasql_core::{library, EngineConfig, QueryResult, RaSqlContext};
use rasql_exec::FaultSpec;
use rasql_storage::{DataType, Relation, Row, Schema, Value};

fn run(cfg: EngineConfig, tables: &[(&str, Relation)], sql: &str) -> QueryResult {
    let ctx = RaSqlContext::with_config(cfg.with_workers(2).with_tracing(true));
    for (name, rel) in tables {
        ctx.register(name, rel.clone()).unwrap();
    }
    ctx.query(sql).unwrap()
}

fn kernel_of(result: &QueryResult) -> &str {
    &result.trace.as_ref().unwrap().cliques[0].kernel
}

/// Run `sql` through the specialized and the generic engine and demand
/// bit-identical output: same sorted rows, same per-clique round counts,
/// and the expected kernel label in the trace.
fn assert_differential(tables: &[(&str, Relation)], sql: &str, expect_kernel: &str) {
    let fast = run(EngineConfig::rasql(), tables, sql);
    let slow = run(
        EngineConfig::rasql().with_specialized_kernels(false),
        tables,
        sql,
    );
    assert_eq!(kernel_of(&fast), expect_kernel, "{sql}");
    assert_eq!(kernel_of(&slow), "generic", "{sql}");
    let (got, want) = (
        fast.relation.clone().sorted(),
        slow.relation.clone().sorted(),
    );
    assert_eq!(
        got.rows(),
        want.rows(),
        "kernel {expect_kernel} diverged from the interpreter: {sql}"
    );
    assert_eq!(
        fast.stats.iterations, slow.stats.iterations,
        "kernel {expect_kernel} converged in a different round count: {sql}"
    );
}

fn weighted_rmat(n: usize, seed: u64) -> Relation {
    rasql_datagen::rmat(
        n,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        seed,
    )
}

/// Forward-edges-only copy of a weighted R-MAT graph (a DAG), for queries
/// that only terminate on acyclic inputs (`sum()` in recursion, stratified
/// min over all paths).
fn dag_rmat(n: usize, seed: u64) -> Relation {
    let full = weighted_rmat(n, seed);
    let rows = full
        .rows()
        .iter()
        .filter(|r| r[0].as_int().unwrap() < r[1].as_int().unwrap())
        .cloned()
        .collect();
    Relation::try_new(full.schema().clone(), rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// SSSP selects `csr_min_f64` and matches the interpreter on any graph.
    #[test]
    fn sssp_kernel_matches_generic(n in 8usize..150, seed in 0u64..1000) {
        let edges = weighted_rmat(n, seed);
        assert_differential(&[("edge", edges)], &library::sssp(1), "csr_min_f64");
    }

    /// Connected components selects `csr_min_i64`.
    #[test]
    fn cc_kernel_matches_generic(n in 8usize..150, seed in 0u64..1000) {
        let edges = rasql_datagen::rmat(n, rasql_datagen::RmatConfig::default(), seed);
        assert_differential(&[("edge", edges)], &library::cc(), "csr_min_i64");
    }

    /// Reachability selects the set kernel `csr_set`.
    #[test]
    fn reach_kernel_matches_generic(n in 8usize..150, seed in 0u64..1000) {
        let edges = rasql_datagen::rmat(n, rasql_datagen::RmatConfig::default(), seed);
        assert_differential(&[("edge", edges)], &library::reach(1), "csr_set");
    }

    /// Fault injection with checkpointing on: the kernel's reset-and-rerun
    /// recovery must still land on the exact interpreter answer.
    #[test]
    fn faulted_kernel_run_matches_generic(seed in 0u64..500) {
        let edges = weighted_rmat(120, 7);
        let clean = run(
            EngineConfig::rasql().with_specialized_kernels(false),
            &[("edge", edges.clone())],
            &library::sssp(1),
        );
        let spec = FaultSpec { kill: 0.15, delay: 0.1, loss: 0.05, delay_us: 50, seed };
        let faulted = run(
            EngineConfig::rasql()
                .with_faults(Some(spec))
                .with_max_task_retries(3)
                .with_checkpoint_interval(3),
            &[("edge", edges)],
            &library::sssp(1),
        );
        prop_assert_eq!(kernel_of(&faulted), "csr_min_f64");
        let (got, want) = (faulted.relation.sorted(), clean.relation.sorted());
        prop_assert_eq!(got.rows(), want.rows());
    }
}

/// A min-label kernel query over `edge` whose base case is `base`.
fn labels_from(base: &str) -> String {
    format!(
        "WITH recursive lab (V, min() AS L) AS ({base}) UNION \
           (SELECT edge.Dst, lab.L FROM lab, edge WHERE lab.V = edge.Src) \
         SELECT V, L FROM lab"
    )
}

/// `seedt(K, V)`: one seed per vertex below `n`, the schema all `Int`, and
/// `last` as the table's final row — so the final input partition's.
fn seed_table(n: i64, last: Vec<Value>) -> Relation {
    let schema = Schema::new(vec![("K", DataType::Int), ("V", DataType::Int)]);
    let mut rows: Vec<Row> = (0..n)
        .map(|k| Row::new(vec![Value::Int(k), Value::Int(k)]))
        .collect();
    rows.push(Row::new(last));
    Relation::new_unchecked(schema, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Base branches combine by set UNION: two branches (and, within each,
    /// one tuple per out-edge) emit the same `(key, 1)` row, which a `sum`
    /// kernel must count once — across branches and input partitions.
    #[test]
    fn sum_kernel_dedups_seeds_across_union_branches(n in 8usize..120, seed in 0u64..1000) {
        let sql = "WITH recursive cp (Dst, sum() AS Cnt) AS \
                     (SELECT Src, 1 FROM edge WHERE Src < 40) UNION \
                     (SELECT Src, 1 FROM edge WHERE Src > 10) UNION \
                     (SELECT edge.Dst, cp.Cnt FROM cp, edge WHERE cp.Dst = edge.Src) \
                   SELECT Dst, Cnt FROM cp";
        assert_differential(&[("edge", dag_rmat(n, seed))], sql, "csr_sum_i64");
    }

    /// A filtered projection streams through the seed fold's pipeline.
    #[test]
    fn filtered_projection_base_matches_generic(n in 8usize..150, seed in 0u64..1000) {
        let edges = rasql_datagen::rmat(n, rasql_datagen::RmatConfig::default(), seed);
        let sql = labels_from("SELECT Src, Src + Dst FROM edge WHERE Dst > 3 AND Src < 100");
        assert_differential(&[("edge", edges)], &sql, "csr_min_i64");
    }

    /// A join is evaluated as ever and its rows are lent to the same fold.
    #[test]
    fn join_base_matches_generic(n in 8usize..100, seed in 0u64..1000) {
        let edges = rasql_datagen::rmat(n, rasql_datagen::RmatConfig::default(), seed);
        let sql = labels_from("SELECT a.Src, b.Dst FROM edge a, edge b WHERE a.Dst = b.Src");
        assert_differential(&[("edge", edges)], &sql, "csr_min_i64");
    }

    /// A `Str` key or a mistyped aggregate in the last input partition is
    /// found by the seed fold before any kernel state exists: the interpreter
    /// answers, and no kernel clique is in the trace.
    #[test]
    fn mistyped_seed_in_the_last_partition_falls_back(
        n in 8usize..100,
        seed in 0u64..1000,
        str_key in any::<bool>(),
    ) {
        let edges = rasql_datagen::rmat(n, rasql_datagen::RmatConfig::default(), seed);
        let last = if str_key {
            vec![Value::str("x"), Value::Int(0)]
        } else {
            vec![Value::Int(1), Value::Double(0.5)]
        };
        let tables = [("edge", edges), ("seedt", seed_table(n as i64, last))];
        let sql = labels_from("SELECT K, V FROM seedt");
        assert_differential(&tables, &sql, "generic");
        let trace = run(EngineConfig::rasql(), &tables, &sql).trace.unwrap();
        prop_assert!(trace.cliques.iter().all(|c| c.kernel == "generic"));
        // Without the odd row the same statement does select the kernel.
        let clean = [tables[0].clone(), ("seedt", seed_table(n as i64, vec![Value::Int(0), Value::Int(0)]))];
        assert_differential(&clean, &sql, "csr_min_i64");
    }
}

fn int_rel(cols: &[&str], rows: &[&[i64]]) -> Relation {
    let schema = Schema::new(
        cols.iter()
            .map(|c| (c.to_string(), DataType::Int))
            .collect(),
    );
    Relation::try_new(
        schema,
        rows.iter()
            .map(|r| Row::new(r.iter().map(|&v| Value::Int(v)).collect()))
            .collect(),
    )
    .unwrap()
}

/// The sorted rows with their value types (`Value`'s equality, and a row's
/// `Debug`, let `Int(8)` match `Double(8.0)`).
fn typed_rows(rel: &Relation) -> Vec<Vec<Value>> {
    let sorted = rel.clone().sorted();
    sorted.rows().iter().map(|r| r.values().to_vec()).collect()
}

/// Run `sql` through both engines and demand the same typed rows; the kernel
/// run, abandoned, left only the interpreter's clique in the trace.
fn assert_interpreter_answers(tables: &[(&str, Relation)], sql: &str) -> Vec<Vec<Value>> {
    let typed = |cfg: EngineConfig| {
        let result = run(cfg, tables, sql);
        assert_eq!(kernel_of(&result), "generic", "{sql}");
        typed_rows(&result.relation)
    };
    let fast = typed(EngineConfig::rasql());
    let slow = typed(EngineConfig::rasql().with_specialized_kernels(false));
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{sql}");
    fast
}

/// A kernel adds `i64`s with checked arithmetic: a path count past
/// `i64::MAX` abandons the kernel run, and the interpreter — which promotes
/// an overflowing `Int` sum to `Double` — answers. Vertex `3i+3` of the
/// diamond chain `3i → 3i+1, 3i+2 → 3i+3` is reached by `2^(i+1)` paths.
#[test]
fn count_paths_past_i64_falls_back_to_the_interpreter() {
    let chain = |diamonds: i64| {
        let rows: Vec<[i64; 2]> = (0..3 * diamonds)
            .step_by(3)
            .flat_map(|v| [[v, v + 1], [v, v + 2], [v + 1, v + 3], [v + 2, v + 3]])
            .collect();
        [(
            "edge",
            int_rel(
                &["Src", "Dst"],
                &rows.iter().map(|r| &r[..]).collect::<Vec<_>>(),
            ),
        )]
    };
    let sql = library::count_paths(0);
    assert_differential(&chain(8), &sql, "csr_sum_i64");
    let rows = assert_interpreter_answers(&chain(64), &sql);
    for (v, count) in [
        (186, Value::Int(1 << 62)),
        (189, Value::Double(2f64.powi(63))),
        (192, Value::Double(2f64.powi(64))),
    ] {
        let row = rows.iter().find(|r| r[0] == Value::Int(v)).unwrap();
        assert_eq!(format!("{:?}", row[1]), format!("{count:?}"));
    }
}

/// A min-plus path whose cost leaves `i64` on one edge: the interpreter
/// promotes that candidate to `Double` and keeps the cheaper `Int` path,
/// where a wrapping kernel kept a negative cost.
#[test]
fn min_plus_near_i64_max_falls_back_to_the_interpreter() {
    let sql = "WITH recursive path (Dst, min() AS Cost) AS (SELECT 1, 0) UNION \
               (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge WHERE path.Dst = edge.Src) \
               SELECT Dst, Cost FROM path";
    let graph = |far: i64| {
        let rows: [&[i64]; 4] = [&[1, 2, far], &[2, 3, 10], &[1, 3, 7], &[3, 4, 1]];
        [("edge", int_rel(&["Src", "Dst", "Cost"], &rows))]
    };
    assert_differential(&graph(1_000), sql, "csr_min_i64");
    let want = int_rel(
        &["Dst", "Cost"],
        &[&[1, 0], &[2, i64::MAX - 5], &[3, 7], &[4, 8]],
    );
    assert_eq!(
        format!(
            "{:?}",
            assert_interpreter_answers(&graph(i64::MAX - 5), sql)
        ),
        format!("{:?}", typed_rows(&want))
    );
}

/// Every library query, run through both engines: results must be identical
/// everywhere, and the set of queries that specialize is pinned exactly.
/// The non-selecting queries document *why* the guard keeps them on the
/// interpreter (mutual recursion, multi-column keys, float sums, …).
#[test]
fn library_sweep_is_result_identical_and_kernels_are_pinned() {
    let edges = rasql_datagen::rmat(150, rasql_datagen::RmatConfig::default(), 9);
    let weighted = weighted_rmat(150, 5);
    let dag = dag_rmat(150, 11);
    let tree = rasql_datagen::tree_hierarchy(
        rasql_datagen::TreeConfig {
            target_nodes: 200,
            ..Default::default()
        },
        17,
    );
    let report_rows: Vec<[i64; 2]> = (1i64..60).map(|i| [i, i / 2]).collect();
    let report = int_rel(
        &["Emp", "Mgr"],
        &report_rows.iter().map(|r| &r[..]).collect::<Vec<_>>(),
    );
    let sales = int_rel(&["M", "P"], &[&[1, 100], &[2, 200], &[3, 50]]);
    let sponsor = int_rel(&["M1", "M2"], &[&[1, 2], &[1, 3], &[2, 4]]);
    let organizer = int_rel(&["OrgName"], &[&[0], &[1], &[2]]);
    let friend = int_rel(
        &["Pname", "Fname"],
        &[&[0, 9], &[1, 9], &[2, 9], &[0, 1], &[9, 5]],
    );
    let shares = int_rel(
        &["By", "Of", "Percent"],
        &[&[0, 1, 60], &[1, 2, 30], &[0, 2, 25]],
    );
    let rel = int_rel(&["Parent", "Child"], &[&[0, 1], &[0, 2], &[1, 3], &[2, 4]]);
    let inter = int_rel(&["S", "E"], &[&[1, 3], &[2, 5], &[8, 9]]);

    type Case = (Vec<(&'static str, Relation)>, String, &'static str);
    let cases: Vec<Case> = vec![
        (
            vec![("assbl", tree.assbl.clone()), ("basic", tree.basic.clone())],
            library::bom_delivery(),
            "csr_max_i64",
        ),
        (
            vec![("assbl", tree.assbl), ("basic", tree.basic)],
            library::bom_delivery_stratified(),
            "generic",
        ),
        (
            vec![("edge", weighted.clone())],
            library::sssp(1),
            "csr_min_f64",
        ),
        // sssp_stratified / cc_stratified diverge on cyclic graphs; use the DAG.
        (
            vec![("edge", dag.clone())],
            library::sssp_stratified(1),
            "generic",
        ),
        (vec![("edge", edges.clone())], library::cc(), "csr_min_i64"),
        (
            vec![("edge", edges.clone())],
            library::cc_count(),
            "csr_min_i64",
        ),
        (
            vec![("edge", dag.clone())],
            library::cc_stratified(),
            "generic",
        ),
        (vec![("edge", dag)], library::count_paths(1), "csr_sum_i64"),
        (
            vec![("report", report)],
            library::management(),
            "csr_sum_i64",
        ),
        (
            vec![("sales", sales), ("sponsor", sponsor)],
            library::mlm_bonus(),
            "generic", // sum() over Double: float addition is order-dependent
        ),
        (
            vec![("organizer", organizer), ("friend", friend)],
            library::party_attendance(),
            "generic", // mutual recursion
        ),
        (
            vec![("shares", shares)],
            library::company_control(),
            "generic", // mutual recursion
        ),
        (
            vec![("rel", rel)],
            library::same_generation(),
            "generic", // two joins per branch
        ),
        (vec![("edge", edges.clone())], library::reach(1), "csr_set"),
        (
            vec![("edge", weighted.clone())],
            library::apsp(),
            "generic", // two-column key
        ),
        (
            vec![("edge", edges.clone())],
            library::transitive_closure(),
            "generic", // set semantics with arity 2 (and decomposable)
        ),
        (vec![("edge", edges)], library::sssp_hops(1), "csr_min_i64"),
        (
            vec![("edge", weighted)],
            library::widest_path(1),
            "csr_max_f64",
        ),
    ];

    for (tables, sql, expect_kernel) in cases {
        assert_differential(&tables, &sql, expect_kernel);
    }

    // Interval coalescing is a two-statement script; compare via the script
    // API (its recursion joins on a range predicate, so it never specializes).
    let run_script = |cfg: EngineConfig| {
        let ctx = RaSqlContext::with_config(cfg.with_workers(2));
        ctx.register("inter", inter.clone()).unwrap();
        let out = ctx.query_script(&library::interval_coalesce()).unwrap();
        out.last().unwrap().relation.clone().sorted()
    };
    assert_eq!(
        run_script(EngineConfig::rasql()).rows(),
        run_script(EngineConfig::rasql().with_specialized_kernels(false)).rows()
    );
}
