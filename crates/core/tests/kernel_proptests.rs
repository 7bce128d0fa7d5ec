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

/// The sorted rows with each `Double` spelled by its bits, so `0.0` and
/// `-0.0` (equal as values) are told apart.
fn exact_rows(rel: &Relation) -> Vec<String> {
    let sorted = rel.clone().sorted();
    let cell = |v: &Value| match v {
        Value::Double(d) => format!("D{:016x}", d.to_bits()),
        other => format!("{other:?}"),
    };
    (sorted.rows().iter())
        .map(|r| r.values().iter().map(cell).collect::<Vec<_>>().join(","))
        .collect()
}

/// [`assert_differential`] on a dense frontier, bit for bit: the kernel run
/// has a round traced `pull` exactly when `pulls` says it must (an
/// idempotent kernel), and its rows and rounds are the interpreter's.
fn assert_pull_differential(
    tables: &[(&str, Relation)],
    sql: &str,
    expect_kernel: &str,
    pulls: bool,
) {
    let fast = run(EngineConfig::rasql(), tables, sql);
    let slow = run(
        EngineConfig::rasql().with_specialized_kernels(false),
        tables,
        sql,
    );
    assert_eq!(kernel_of(&fast), expect_kernel, "{sql}");
    let rounds = &fast.trace.as_ref().unwrap().cliques[0].iterations;
    assert_eq!(rounds.iter().any(|it| it.pull), pulls, "{sql}: {rounds:?}");
    assert_eq!(
        exact_rows(&fast.relation),
        exact_rows(&slow.relation),
        "{sql}"
    );
    assert_eq!(fast.stats.iterations, slow.stats.iterations, "{sql}");
}

/// Weights that tell the order of a fold: both zeros among them.
const WEIGHTS: [f64; 4] = [0.0, -0.0, 1.5, 3.0];

/// A hub `offset` with an edge to and from each of `spokes` spokes, self-loops
/// on the hub and on spoke 2, two duplicates of the hub's first edge, and
/// `extra` edges between spokes; every id shifted by `offset`.
fn hub_and_spoke(spokes: i64, extra: &[(i64, i64, usize)], offset: i64) -> Relation {
    let mut edges = vec![
        (0, 0, 0.0),
        (0, 0, -0.0),
        (0, 1, -0.0),
        (0, 1, 0.0),
        (2, 2, 1.5),
    ];
    for s in 1..=spokes {
        edges.push((0, s, WEIGHTS[s as usize % 4]));
        edges.push((s, 0, WEIGHTS[(s as usize + 1) % 4]));
    }
    for &(a, b, w) in extra {
        edges.push((a % spokes + 1, b % spokes + 1, WEIGHTS[w % 4]));
    }
    let shifted: Vec<_> = (edges.iter())
        .map(|&(a, b, w)| (a + offset, b + offset, w))
        .collect();
    Relation::weighted_edges(&shifted)
}

/// `rel` with its `Src` and `Dst` ids shifted by `offset`.
fn shifted(rel: &Relation, offset: i64) -> Relation {
    let rows = (rel.rows().iter())
        .map(|r| {
            let mut values = r.values().to_vec();
            for id in &mut values[..2] {
                *id = Value::Int(id.as_int().unwrap() + offset);
            }
            Row::new(values)
        })
        .collect();
    Relation::new_unchecked(rel.schema().clone(), rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A hub's delta walks every spoke: every idempotent kernel pulls, with
    /// ids dense or far apart, and answers as the interpreter does.
    #[test]
    fn hub_and_spoke_rounds_pull_bit_for_bit(
        spokes in 40i64..120,
        extra in prop::collection::vec((0i64..1000, 0i64..1000, 0usize..4), 0..20),
        far in any::<bool>(),
    ) {
        let offset = if far { 1 << 40 } else { 0 };
        let tables = [("edge", hub_and_spoke(spokes, &extra, offset))];
        for (sql, kernel) in [
            (library::sssp(offset), "csr_min_f64"),
            (library::widest_path(offset), "csr_max_f64"),
            (library::sssp_hops(offset), "csr_min_i64"),
            (library::reach(offset), "csr_set"),
            (library::cc(), "csr_min_i64"),
        ] {
            assert_pull_differential(&tables, &sql, kernel, true);
        }
        // Seeds that include a vertex no edge mentions: it gets a dense id
        // past the in-edges', and gathers nothing.
        let ids = (0..=spokes).map(|v| v + offset).chain([offset + 5000]);
        let seeds: Vec<[i64; 2]> = ids.map(|v| [v, v]).collect();
        let seedt = int_rel(&["K", "V"], &seeds.iter().map(|r| &r[..]).collect::<Vec<_>>());
        let tables = [tables[0].clone(), ("seedt", seedt)];
        let sql = labels_from("SELECT K, V FROM seedt");
        assert_pull_differential(&tables, &sql, "csr_min_i64", true);
    }

    /// Sparse ids: R-MAT with every id offset by 2^40. Components start from
    /// every vertex at once, so their first round pulls.
    #[test]
    fn sparse_rmat_rounds_pull_bit_for_bit(n in 60usize..200, seed in 0u64..1000) {
        let offset = 1i64 << 40;
        let plain = shifted(&rasql_datagen::rmat(n, rasql_datagen::RmatConfig::default(), seed), offset);
        assert_pull_differential(&[("edge", plain.clone())], &library::cc(), "csr_min_i64", true);
        let weighted = shifted(&weighted_rmat(n, seed), offset);
        for (tables, sql, kernel) in [
            ([("edge", weighted.clone())], library::sssp(offset), "csr_min_f64"),
            ([("edge", weighted)], library::widest_path(offset), "csr_max_f64"),
            ([("edge", plain)], library::reach(offset), "csr_set"),
        ] {
            let fast = run(EngineConfig::rasql(), &tables, &sql);
            let slow = run(EngineConfig::rasql().with_specialized_kernels(false), &tables, &sql);
            prop_assert_eq!(kernel_of(&fast), kernel);
            prop_assert_eq!(exact_rows(&fast.relation), exact_rows(&slow.relation));
            prop_assert_eq!(&fast.stats.iterations, &slow.stats.iterations);
        }
    }

    /// `sum` is not idempotent: a path count never pulls, however dense its
    /// frontier, and still answers as the interpreter does.
    #[test]
    fn a_sum_kernel_never_pulls(k in 20i64..60) {
        // The hub feeds `k` vertices, each of which feeds the same `k` others:
        // the second round's delta walks `k²` edges (a min kernel pulls it).
        let mut edges: Vec<(i64, i64, f64)> = (1..=k).map(|a| (0, a, 1.0)).collect();
        edges.extend((1..=k).flat_map(|a| (k + 1..=2 * k).map(move |b| (a, b, 1.0))));
        let tables = [("edge", Relation::weighted_edges(&edges))];
        let hops = library::sssp_hops(0);
        assert_pull_differential(&tables, &hops, "csr_min_i64", true);
        assert_pull_differential(&tables, &library::count_paths(0), "csr_sum_i64", false);
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
