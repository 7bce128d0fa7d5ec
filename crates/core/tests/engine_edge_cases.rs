//! Engine edge cases beyond the paper's example suite: multi-aggregate heads,
//! decomposed aggregate views, locality/metrics behavior, error reporting,
//! and odd-but-legal query shapes.

use rasql_core::{library, EngineConfig, JoinStrategy, RaSqlContext};
use rasql_storage::{DataType, Relation, Row, Schema, Value};

fn ctx2(cfg: EngineConfig) -> RaSqlContext {
    cfg.workers(2).build()
}

#[test]
fn min_and_max_in_one_head() {
    // Track both the shortest and the longest hop distance per node: two
    // aggregate columns with different monotone ops in one view.
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3), (1, 3), (3, 4)]))
        .unwrap();
    let r = ctx
        .query(
            "WITH recursive span (Dst, min() AS Lo, max() AS Hi) AS \
               (SELECT 1, 0, 0) UNION \
               (SELECT edge.Dst, span.Lo + 1, span.Hi + 1 FROM span, edge \
                WHERE span.Dst = edge.Src) \
             SELECT Dst, Lo, Hi FROM span",
        )
        .unwrap()
        .relation
        .sorted();
    let rows: Vec<(i64, i64, i64)> = r
        .rows()
        .iter()
        .map(|x| {
            (
                x[0].as_int().unwrap(),
                x[1].as_int().unwrap(),
                x[2].as_int().unwrap(),
            )
        })
        .collect();
    // node 3: min path 1→3 (1 hop), max path 1→2→3 (2 hops);
    // node 4: min 2 hops (1→3→4), max 3 hops (1→2→3→4).
    assert_eq!(rows, vec![(1, 0, 0), (2, 1, 1), (3, 1, 2), (4, 2, 3)]);
}

#[test]
fn apsp_decomposed_equals_plain() {
    let edges = rasql_datagen::rmat(
        120,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        5,
    );
    let run = |decomposed: bool| {
        let ctx = ctx2(EngineConfig::rasql().decomposed_plans(decomposed));
        ctx.register("edge", edges.clone()).unwrap();
        ctx.query(&library::apsp()).unwrap().relation.sorted()
    };
    // APSP preserves Src through the recursion, so it is decomposable even
    // though it aggregates — both paths must agree exactly.
    assert_eq!(run(true), run(false));
}

#[test]
fn apsp_plan_is_decomposable() {
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::weighted_edges(&[(1, 2, 1.0)]))
        .unwrap();
    let plan = ctx.explain(&library::apsp()).unwrap();
    assert!(plan.contains("certificate=preserved[0]"), "{plan}");
}

#[test]
fn recursive_view_joined_with_itself_in_final_select() {
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
        .unwrap();
    // Count 2-step chains in the closure via a self-join of the fixpoint.
    let r = ctx
        .query(
            "WITH recursive tc (Src, Dst) AS \
               (SELECT Src, Dst FROM edge) UNION \
               (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
             SELECT count(*) FROM tc a, tc b WHERE a.Dst = b.Src",
        )
        .unwrap()
        .relation;
    // closure = {(1,2),(2,3),(1,3)}; joinable pairs: (1,2)-(2,3) → 1.
    assert_eq!(r.rows()[0][0], Value::Int(1));
}

#[test]
fn two_independent_cliques_in_one_query() {
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
        .unwrap();
    ctx.register("redge", Relation::edges(&[(3, 2), (2, 1)]))
        .unwrap();
    let r = ctx
        .query(
            "WITH recursive fwd (Dst) AS \
               (SELECT 1) UNION \
               (SELECT edge.Dst FROM fwd, edge WHERE fwd.Dst = edge.Src), \
             recursive bwd (Dst) AS \
               (SELECT 3) UNION \
               (SELECT redge.Dst FROM bwd, redge WHERE bwd.Dst = redge.Src) \
             SELECT fwd.Dst FROM fwd, bwd WHERE fwd.Dst = bwd.Dst",
        )
        .unwrap();
    // fwd = {1,2,3}, bwd = {3,2,1} → intersection = all three.
    assert_eq!(r.relation.len(), 3);
    assert_eq!(r.stats.iterations.len(), 2, "two cliques evaluated");
}

#[test]
fn chained_cliques_second_reads_first() {
    // A second recursive view whose BASE case scans the first clique's result.
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
        .unwrap();
    ctx.register("hop", Relation::edges(&[(3, 4), (4, 5)]))
        .unwrap();
    let r = ctx
        .query(
            "WITH recursive reach1 (Dst) AS \
               (SELECT 1) UNION \
               (SELECT edge.Dst FROM reach1, edge WHERE reach1.Dst = edge.Src), \
             recursive reach2 (Dst) AS \
               (SELECT Dst FROM reach1) UNION \
               (SELECT hop.Dst FROM reach2, hop WHERE reach2.Dst = hop.Src) \
             SELECT Dst FROM reach2",
        )
        .unwrap()
        .relation
        .sorted();
    let vals: Vec<i64> = r.rows().iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(vals, vec![1, 2, 3, 4, 5]);
}

#[test]
fn non_partition_aware_is_slower_but_correct() {
    let edges = rasql_datagen::rmat(300, rasql_datagen::RmatConfig::default(), 3);
    let aware = ctx2(EngineConfig::rasql().decomposed_plans(false));
    aware.register("edge", edges.clone()).unwrap();
    let ra = aware.query(&library::reach(1)).unwrap();
    let a = ra.relation.sorted();
    let aware_fetch = ra.stats.metrics.remote_fetch_bytes;

    let mut cfg = EngineConfig::rasql().decomposed_plans(false);
    cfg.partition_aware = false;
    let drift = ctx2(cfg);
    drift.register("edge", edges).unwrap();
    let rb = drift.query(&library::reach(1)).unwrap();
    let b = rb.relation.sorted();
    let drift_fetch = rb.stats.metrics.remote_fetch_bytes;

    assert_eq!(a, b, "locality policy must not change results");
    assert_eq!(aware_fetch, 0, "partition-aware runs fully local");
    let _ = drift_fetch; // drift may or may not fetch depending on stage mix
}

#[test]
fn zero_stage_latency_configuration() {
    let ctx = ctx2(EngineConfig::rasql().stage_latency_us(0));
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
        .unwrap();
    let r = ctx.query(&library::reach(1)).unwrap().relation;
    assert_eq!(r.len(), 3);
}

#[test]
fn duplicate_base_rows_union_semantics() {
    // The CTE is a set union: duplicated base rows must not double-count
    // sum contributions.
    let sales = Relation::try_new(
        Schema::new(vec![("M", DataType::Int), ("P", DataType::Double)]),
        vec![
            Row::new(vec![Value::Int(1), Value::Double(100.0)]),
            Row::new(vec![Value::Int(1), Value::Double(100.0)]), // exact duplicate
        ],
    )
    .unwrap();
    let sponsor = Relation::try_new(
        Schema::new(vec![("M1", DataType::Int), ("M2", DataType::Int)]),
        vec![],
    )
    .unwrap();
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("sales", sales).unwrap();
    ctx.register("sponsor", sponsor).unwrap();
    let r = ctx.query(&library::mlm_bonus()).unwrap().relation;
    assert_eq!(r.len(), 1);
    // Set semantics: the duplicate (1, 10.0) contribution applies once.
    assert_eq!(r.rows()[0][1], Value::Double(10.0));
}

#[test]
fn negative_weights_still_converge_on_dags() {
    // min-in-recursion is well-defined on DAGs even with negative edges.
    let edges = Relation::weighted_edges(&[(1, 2, 5.0), (2, 3, -3.0), (1, 3, 4.0)]);
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", edges).unwrap();
    let r = ctx.query(&library::sssp(1)).unwrap().relation.sorted();
    let v: Vec<f64> = r.rows().iter().map(|x| x[1].as_f64().unwrap()).collect();
    assert_eq!(v, vec![0.0, 5.0, 2.0]); // 1→2→3 = 2.0 beats direct 4.0
}

#[test]
fn string_keyed_recursion() {
    // Recursion over string keys (no integer fast paths assumed anywhere).
    let edges = Relation::try_new(
        Schema::new(vec![("Src", DataType::Str), ("Dst", DataType::Str)]),
        vec![
            Row::new(vec![Value::from("a"), Value::from("b")]),
            Row::new(vec![Value::from("b"), Value::from("c")]),
        ],
    )
    .unwrap();
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", edges).unwrap();
    let r = ctx
        .query(
            "WITH recursive reach (Dst) AS \
               (SELECT 'a') UNION \
               (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src) \
             SELECT Dst FROM reach",
        )
        .unwrap()
        .relation
        .sorted();
    let names: Vec<&str> = r.rows().iter().map(|x| x[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["a", "b", "c"]);
}

#[test]
fn filter_inside_recursive_branch() {
    // WHERE with an extra non-join predicate inside the recursive case.
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register(
        "edge",
        Relation::weighted_edges(&[(1, 2, 1.0), (2, 3, 100.0), (2, 4, 1.0)]),
    )
    .unwrap();
    let r = ctx
        .query(
            "WITH recursive cheap (Dst, min() AS Cost) AS \
               (SELECT 1, 0.0) UNION \
               (SELECT edge.Dst, cheap.Cost + edge.Cost FROM cheap, edge \
                WHERE cheap.Dst = edge.Src AND edge.Cost < 50.0) \
             SELECT Dst, Cost FROM cheap",
        )
        .unwrap()
        .relation
        .sorted();
    // Node 3 unreachable through cheap edges.
    let dsts: Vec<i64> = r.rows().iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(dsts, vec![1, 2, 4]);
}

#[test]
fn constant_only_recursion_terminates() {
    // Degenerate: the recursive case re-derives the same constant forever —
    // set semantics must converge after one round.
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(1, 1)])).unwrap();
    let r = ctx
        .query(
            "WITH recursive r (X) AS \
               (SELECT 1) UNION \
               (SELECT edge.Dst FROM r, edge WHERE r.X = edge.Src) \
             SELECT X FROM r",
        )
        .unwrap();
    assert_eq!(r.relation.len(), 1);
    assert!(r.stats.iterations[0] <= 2);
}

#[test]
fn final_select_with_arithmetic_over_view() {
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register(
        "edge",
        Relation::weighted_edges(&[(1, 2, 2.0), (2, 3, 3.0)]),
    )
    .unwrap();
    let r = ctx
        .query(
            "WITH recursive path (Dst, min() AS Cost) AS \
               (SELECT 1, 0.0) UNION \
               (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge \
                WHERE path.Dst = edge.Src) \
             SELECT Dst, Cost * 2 + 1 FROM path WHERE Dst > 1 ORDER BY Dst",
        )
        .unwrap()
        .relation;
    let v: Vec<f64> = r.rows().iter().map(|x| x[1].as_f64().unwrap()).collect();
    assert_eq!(v, vec![5.0, 11.0]);
}

#[test]
fn large_iteration_chain_deep_recursion() {
    // A 500-long chain: 500 iterations of the fixpoint.
    let edges: Vec<(i64, i64)> = (0..500).map(|i| (i, i + 1)).collect();
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&edges)).unwrap();
    let r = ctx.query(&library::reach(0)).unwrap();
    assert_eq!(r.relation.len(), 501);
    assert!(r.stats.iterations[0] >= 500);
}

#[test]
fn explain_does_not_execute() {
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(1, 2)])).unwrap();
    ctx.reset_metrics();
    ctx.explain(&library::transitive_closure()).unwrap();
    assert_eq!(ctx.metrics().iterations, 0);
}

#[test]
fn scalar_functions_in_plain_select() {
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::weighted_edges(&[(1, 2, 3.5)]))
        .unwrap();
    let r = ctx
        .query(
            "SELECT least(Src, Dst), greatest(Src, Dst), abs(0 - Dst), least(Cost, 1.0) FROM edge",
        )
        .unwrap()
        .relation;
    let row = &r.rows()[0];
    assert_eq!(row[0], Value::Int(1));
    assert_eq!(row[1], Value::Int(2));
    assert_eq!(row[2], Value::Int(2));
    assert_eq!(row[3], Value::Double(1.0));
}

#[test]
fn widest_path_matches_oracle() {
    let edges = rasql_datagen::rmat(
        200,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        29,
    );
    let csr = rasql_gap::Csr::from_relation(&edges);
    let expected = rasql_gap::algorithms::widest_path(&csr, 1, 1e9);
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", edges).unwrap();
    let got = ctx.query(&library::widest_path(1)).unwrap().relation;
    assert_eq!(got.len(), expected.len());
    for r in got.rows() {
        let d = r[0].as_int().unwrap();
        let cap = r[1].as_f64().unwrap();
        assert!(
            (cap - expected[&d]).abs() < 1e-9,
            "dst {d}: got {cap} want {}",
            expected[&d]
        );
    }
}

#[test]
fn scalar_function_in_aggregate_context() {
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(1, 5), (2, 3), (7, 2)]))
        .unwrap();
    // greatest() inside a grouped projection over aggregate results.
    let r = ctx
        .query("SELECT greatest(min(Src), 2), least(max(Dst), 4) FROM edge")
        .unwrap()
        .relation;
    assert_eq!(r.rows()[0][0], Value::Int(2));
    assert_eq!(r.rows()[0][1], Value::Int(4));
}

#[test]
fn nonlinear_tc_equals_linear_tc() {
    // The non-linear closure rule tc(x,z) ← tc(x,y) ∧ tc(y,z) must converge
    // to the same relation as the linear rule — this exercises the old/new
    // snapshot term expansion with two recursive references to the SAME view.
    let edges = rasql_datagen::rmat(60, rasql_datagen::RmatConfig::default(), 77);
    let ctx_lin = ctx2(EngineConfig::rasql());
    ctx_lin.register("edge", edges.clone()).unwrap();
    let linear = ctx_lin
        .query(&library::transitive_closure())
        .unwrap()
        .relation
        .sorted();

    let ctx_nl = ctx2(EngineConfig::rasql());
    ctx_nl.register("edge", edges).unwrap();
    let nonlinear = ctx_nl
        .query(
            "WITH recursive tc (Src, Dst) AS \
               (SELECT Src, Dst FROM edge) UNION \
               (SELECT a.Src, b.Dst FROM tc a, tc b WHERE a.Dst = b.Src) \
             SELECT Src, Dst FROM tc",
        )
        .unwrap()
        .relation
        .sorted();
    assert_eq!(nonlinear, linear);
    // Non-linear closure squares the frontier: it must converge in
    // O(log(diameter)) rounds, strictly fewer than the linear version on a
    // long-diameter input.
    let chain: Vec<(i64, i64)> = (0..64).map(|i| (i, i + 1)).collect();
    let ctx_chain = ctx2(EngineConfig::rasql());
    ctx_chain.register("edge", Relation::edges(&chain)).unwrap();
    let chain_result = ctx_chain
        .query(
            "WITH recursive tc (Src, Dst) AS \
               (SELECT Src, Dst FROM edge) UNION \
               (SELECT a.Src, b.Dst FROM tc a, tc b WHERE a.Dst = b.Src) \
             SELECT count(*) FROM tc",
        )
        .unwrap();
    let nl_iters = chain_result.stats.iterations[0];
    assert!(
        nl_iters <= 10,
        "non-linear TC should need ~log2(64) rounds, took {nl_iters}"
    );
}

/// `a.k = b.k` is not true when either key is NULL, so an equi-join drops
/// NULL-keyed pairs whichever way it runs: as a hash join (the optimizer
/// extracted the keys), as a cross join with the predicate as a residual
/// (`OR a.X < 0`, never true here, keeps the keys out of the join), or as
/// a sort-merge join —
/// and so does recursion, through a base build side and through a snapshot
/// of the recursive relation.
#[test]
fn equi_joins_never_match_null_keys() {
    let schema = Schema::new(vec![("K", DataType::Int), ("X", DataType::Int)]);
    let cell = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let rows = [
        (Some(1), 10),
        (None, 20),
        (None, 30),
        (Some(2), 40),
        (Some(1), 50),
    ];
    let t = rows
        .iter()
        .map(|&(k, x)| Row::new(vec![cell(k), Value::Int(x)]));
    let t = Relation::try_new(schema, t.collect()).unwrap();
    let ctx = ctx2(EngineConfig::rasql());
    ctx.register("t", t).unwrap();
    let pairs = |sql: &str| ctx.query(sql).unwrap().relation.sorted();
    let hash = pairs("SELECT a.X, b.X FROM t a, t b WHERE a.K = b.K");
    let residual = pairs("SELECT a.X, b.X FROM t a, t b WHERE a.K = b.K OR a.X < 0");
    assert_eq!(hash.rows(), residual.rows());
    assert_eq!(hash.len(), 5, "{:?}", hash.rows());

    // 1 → NULL and NULL → 2 are edges; they do not make a path 1 → 2.
    let edges = [(Some(1), None), (None, Some(2)), (Some(2), Some(3))];
    let edges = edges.iter().map(|&(s, d)| Row::new(vec![cell(s), cell(d)]));
    let schema = Schema::new(vec![("Src", DataType::Int), ("Dst", DataType::Int)]);
    let edge = Relation::try_new(schema, edges.collect()).unwrap();
    let want = [
        (Some(1), None),
        (None, Some(2)),
        (None, Some(3)),
        (Some(2), Some(3)),
    ];
    let mut want: Vec<Row> = want
        .iter()
        .map(|&(s, d)| Row::new(vec![cell(s), cell(d)]))
        .collect();
    want.sort();
    let linear = library::transitive_closure();
    let squared = "WITH recursive tc (Src, Dst) AS \
           (SELECT Src, Dst FROM edge) UNION \
           (SELECT a.Src, b.Dst FROM tc a, tc b WHERE a.Dst = b.Src) \
         SELECT Src, Dst FROM tc";
    let configs = [
        ("decomposed", EngineConfig::rasql()),
        ("hash", EngineConfig::rasql().decomposed_plans(false)),
        ("unfused", EngineConfig::rasql().fused_codegen(false)),
        (
            "sort-merge",
            EngineConfig::rasql().join(JoinStrategy::SortMerge),
        ),
    ];
    for (name, cfg) in configs {
        let ctx = ctx2(cfg.specialized_kernels(false));
        ctx.register("edge", edge.clone()).unwrap();
        for sql in [linear.as_str(), squared] {
            let got = ctx.query(sql).unwrap().relation.sorted();
            assert_eq!(got.rows(), &want[..], "{name}: {sql}");
        }
    }
}
